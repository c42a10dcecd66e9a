//! The tracked performance report (`BENCH_perf.json`).
//!
//! The workspace builds offline with no registry deps, so both the JSON
//! emitter and the validator are hand-rolled here. The schema is stable:
//! bumping `SCHEMA_VERSION` is a breaking change and must be called out
//! in EXPERIMENTS.md.
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "suite": "hypertee-perf",
//!   "mode": "full" | "smoke",
//!   "threads": 4,            // optional, no longer emitted: older reports' pool width
//!   "available_parallelism": 2,
//!   "kernels": { "aes": true, "bmi2": true, "avx512f": false, "sha": true },
//!   "benches": [
//!     { "name": "...", "ns_per_op": 123.4, "gb_per_sec": 1.2|null,
//!       "baseline_ns_per_op": 456.7|null, "speedup": 3.7|null }, ...
//!   ]
//! }
//! ```
//!
//! `baseline_ns_per_op` is the pre-optimization reference path (`*_ref`)
//! measured in the same run on the same host, so `speedup` is a
//! like-for-like before/after delta rather than a cross-machine comparison.
//! `available_parallelism` and `kernels` record the host facts the rows
//! depend on: how many workers could run at once, and which
//! runtime-dispatched crypto kernels the run took.

use std::process::ExitCode;

/// Version of the emitted JSON schema.
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every report.
pub(crate) const SUITE: &str = "hypertee-perf";

/// One benchmark row of the report.
#[derive(Debug, Clone)]
pub struct PerfBench {
    /// Stable benchmark identifier.
    pub name: String,
    /// Optimized-path best-batch time per operation.
    pub(crate) ns_per_op: f64,
    /// Optimized-path throughput, when a byte count is meaningful.
    pub(crate) gb_per_sec: Option<f64>,
    /// Reference-path (`*_ref`) time per operation, when one exists.
    pub(crate) baseline_ns_per_op: Option<f64>,
    /// `baseline_ns_per_op / ns_per_op`.
    pub speedup: Option<f64>,
}

impl PerfBench {
    /// Builds a row from optimized/baseline timings and an optional byte
    /// count per operation.
    pub fn from_timings(
        name: &str,
        ns_per_op: f64,
        bytes_per_op: u64,
        baseline_ns_per_op: Option<f64>,
    ) -> Self {
        let gb_per_sec =
            (bytes_per_op > 0 && ns_per_op > 0.0).then(|| bytes_per_op as f64 / ns_per_op);
        let speedup = baseline_ns_per_op
            .filter(|_| ns_per_op > 0.0)
            .map(|b| b / ns_per_op);
        PerfBench {
            name: name.to_string(),
            ns_per_op,
            gb_per_sec,
            baseline_ns_per_op,
            speedup,
        }
    }
}

/// The host facts a report's timings depend on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub(crate) available_parallelism: u64,
    /// [`hypertee_crypto::dispatched_kernels`]: each runtime-dispatched
    /// kernel's CPU feature and whether this host has it.
    pub(crate) kernels: [(&'static str, bool); 4],
}

impl HostFacts {
    /// The facts of the running host.
    pub fn detect() -> HostFacts {
        HostFacts {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get())
                as u64,
            kernels: hypertee_crypto::dispatched_kernels(),
        }
    }
}

/// A full report, ready to serialize.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// `"full"` for the committed trajectory, `"smoke"` for the CI gate.
    pub mode: String,
    /// The host the rows were measured on.
    pub host: HostFacts,
    /// Benchmark rows.
    pub benches: Vec<PerfBench>,
}

fn push_f64(out: &mut String, v: f64) {
    // All emitted numbers must round-trip as finite JSON numbers.
    assert!(v.is_finite(), "refusing to emit non-finite number {v}");
    out.push_str(&format!("{v:.4}"));
}

fn push_opt(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

/// Appends `s` as a JSON string literal (with escaping). Shared by every
/// report emitter in the workspace (`bench_report`, `chaos_campaign`,
/// `serving_bench`) so the escaping rules cannot drift between suites.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a `"key": value,` counter line at two-space indent.
///
/// # Panics
///
/// Panics when `v` would lose precision in the validator's `f64` round
/// trip (counters past 2^53 have no business in a report).
pub fn push_kv_u64(out: &mut String, key: &str, v: u64) {
    assert!(
        v < (1u64 << 53),
        "counter '{key}' = {v} would lose precision in JSON"
    );
    out.push_str(&format!("  \"{key}\": {v},\n"));
}

/// Appends a `"key": "0x…",` line: a full-range u64 as 16 hex digits (no
/// `f64` loss), the form [`req_hex_u64`] accepts.
pub fn push_kv_hex(out: &mut String, key: &str, v: u64) {
    out.push_str(&format!("  \"{key}\": \"0x{v:016x}\",\n"));
}

/// Appends a `"key": true|false,` line.
pub fn push_kv_bool(out: &mut String, key: &str, v: bool) {
    out.push_str(&format!("  \"{key}\": {v},\n"));
}

/// Opens a report: `{`, then the `schema_version`, `suite` and `mode`
/// keys every report of the workspace starts with. Leaves the `mode` line
/// open (no comma) for the caller's next key.
pub fn push_header(out: &mut String, schema_version: u64, suite: &str, mode: &str) {
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {schema_version},\n"));
    out.push_str("  \"suite\": ");
    push_json_str(out, suite);
    out.push_str(",\n  \"mode\": ");
    push_json_str(out, mode);
}

/// Checks the [`push_header`] keys and returns the report's mode.
///
/// # Errors
///
/// A wrong or missing schema version or suite, or a missing mode.
pub fn check_header<'a>(
    doc: &'a Json,
    schema_version: u64,
    suite: &str,
) -> Result<&'a str, String> {
    match doc.get("schema_version").and_then(Json::as_num) {
        Some(v) if v == schema_version as f64 => {}
        Some(v) => return Err(format!("unsupported schema_version {v}")),
        None => return Err("missing schema_version".to_string()),
    }
    match doc.get("suite").and_then(Json::as_str) {
        Some(s) if s == suite => {}
        Some(other) => return Err(format!("wrong suite '{other}', want '{suite}'")),
        None => return Err("missing suite".to_string()),
    }
    doc.get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing mode".to_string())
}

/// Appends a campaign SLO CDF as the `slo_cdf` array: one
/// `{ "<x_key>": x, "fraction": f }` row per point.
///
/// # Panics
///
/// Panics on a non-finite fraction.
pub fn push_slo_cdf(out: &mut String, x_key: &str, cdf: &[(u32, f64)]) {
    out.push_str("  \"slo_cdf\": [\n");
    for (i, (x, frac)) in cdf.iter().enumerate() {
        assert!(frac.is_finite(), "refusing to emit non-finite fraction");
        out.push_str(&format!(
            "    {{ \"{x_key}\": {x}, \"fraction\": {frac:.6} }}"
        ));
        if i + 1 < cdf.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n");
}

/// Checks a [`push_slo_cdf`] array: non-empty, `x_key` strictly
/// increasing, fractions in `[0, 1]` and non-decreasing.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn check_slo_cdf(doc: &Json, x_key: &str) -> Result<(), String> {
    let Some(Json::Arr(cdf)) = doc.get("slo_cdf") else {
        return Err("missing or non-array slo_cdf".to_string());
    };
    if cdf.is_empty() {
        return Err("slo_cdf is empty".to_string());
    }
    let mut prev_x = 0.0f64;
    let mut prev_frac = -1.0f64;
    for row in cdf {
        let x = req_counter(row, x_key)?;
        let frac = req_counter(row, "fraction")?;
        if x <= prev_x {
            return Err(format!("slo_cdf {x_key} must be strictly increasing"));
        }
        if !(0.0..=1.0).contains(&frac) {
            return Err(format!("slo_cdf fraction {frac} out of [0, 1]"));
        }
        if frac < prev_frac {
            return Err("slo_cdf fractions must be non-decreasing".to_string());
        }
        prev_x = x;
        prev_frac = frac;
    }
    Ok(())
}

/// Checks the verdicts every campaign report carries: the consistency
/// audit and the lockstep model green, and the campaign drained.
///
/// # Errors
///
/// The first red verdict, named by its key.
pub fn check_verdicts(doc: &Json) -> Result<(), String> {
    if !req_bool(doc, "audit_ok")? {
        return Err("audit_ok is false: a consistency audit failed".to_string());
    }
    if !req_bool(doc, "lockstep_ok")? {
        return Err("lockstep_ok is false: the reference model diverged".to_string());
    }
    if req_bool(doc, "stalled")? {
        return Err("stalled is true: the campaign did not drain".to_string());
    }
    Ok(())
}

/// The `--check PATH` mode every report binary shares: reads `path`, runs
/// `validate` on it, prints `PATH: OK` (stdout) or `PATH: INVALID: …`
/// (stderr), and returns the process exit code.
pub fn check_report(path: &str, validate: fn(&str) -> Result<(), String>) -> ExitCode {
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| validate(&text).map_err(|e| format!("INVALID: {e}")));
    match verdict {
        Ok(()) => {
            println!("{path}: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validator helper: `key` must be a finite non-negative number.
///
/// # Errors
///
/// A human-readable description of the violation.
pub fn req_counter(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => Ok(*v),
        Some(Json::Num(v)) => Err(format!("'{key}' must be a finite non-negative number: {v}")),
        Some(_) => Err(format!("'{key}' has the wrong type")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Validator helper: `key` must be a boolean.
///
/// # Errors
///
/// A human-readable description of the violation.
pub fn req_bool(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("'{key}' must be a boolean")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Validator helper: `key` must be a `"0x"`-prefixed 16-hex-digit u64.
///
/// # Errors
///
/// A human-readable description of the violation.
pub fn req_hex_u64(doc: &Json, key: &str) -> Result<(), String> {
    match doc.get(key).and_then(Json::as_str) {
        Some(s)
            if s.starts_with("0x")
                && s.len() == 18
                && s[2..].bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            Ok(())
        }
        Some(s) => Err(format!("'{key}' is not a 0x-prefixed u64: '{s}'")),
        None => Err(format!("missing key '{key}'")),
    }
}

impl PerfReport {
    /// Serializes the report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        push_header(&mut out, SCHEMA_VERSION, SUITE, &self.mode);
        let kernels: Vec<String> = self
            .host
            .kernels
            .iter()
            .map(|(name, on)| format!("\"{name}\": {on}"))
            .collect();
        out.push_str(&format!(
            ",\n  \"available_parallelism\": {},\n  \"kernels\": {{ {} }}",
            self.host.available_parallelism,
            kernels.join(", ")
        ));
        out.push_str(",\n  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str("    { \"name\": ");
            push_json_str(&mut out, &b.name);
            out.push_str(", \"ns_per_op\": ");
            push_f64(&mut out, b.ns_per_op);
            out.push_str(", \"gb_per_sec\": ");
            push_opt(&mut out, b.gb_per_sec);
            out.push_str(", \"baseline_ns_per_op\": ");
            push_opt(&mut out, b.baseline_ns_per_op);
            out.push_str(", \"speedup\": ");
            push_opt(&mut out, b.speedup);
            out.push_str(" }");
            if i + 1 < self.benches.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A parsed JSON value (the minimal model the validator needs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, when `self` is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. Every report is a
/// few levels deep; the limit keeps a hostile file from exhausting the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("short \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u code point".to_string())?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // `"` and `\\` are ASCII, so the run up to the next one
                    // ends on a char boundary of the (valid UTF-8) text.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    s.push_str(&self.text[self.pos - 1..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }

    /// A value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        let open = self.peek()?;
        if depth == MAX_DEPTH && matches!(open, b'{' | b'[') {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        match open {
            b'{' => {
                self.expect(b'{')?;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        other => {
                            return Err(format!("expected ',' or '}}', got '{}'", other as char))
                        }
                    }
                }
            }
            b'[' => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        other => {
                            return Err(format!("expected ',' or ']', got '{}'", other as char))
                        }
                    }
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

fn check_finite(row: &Json, key: &str, required: bool) -> Result<(), String> {
    match row.get(key) {
        Some(Json::Num(v)) if v.is_finite() => Ok(()),
        Some(Json::Num(v)) => Err(format!("'{key}' is not finite: {v}")),
        Some(Json::Null) if !required => Ok(()),
        Some(_) => Err(format!("'{key}' has the wrong type")),
        None => Err(format!("missing key '{key}'")),
    }
}

/// Validates a `BENCH_perf.json` document: schema version, required keys,
/// and number finiteness. This is the gate `scripts/verify.sh` runs against
/// the smoke report.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn validate(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    match check_header(&root, SCHEMA_VERSION, SUITE)? {
        "full" | "smoke" => {}
        _ => return Err("mode must be \"full\" or \"smoke\"".to_string()),
    }
    match root.get("threads") {
        None => {}
        Some(Json::Num(t)) if t.is_finite() && *t >= 1.0 && t.fract() == 0.0 => {}
        Some(_) => return Err("threads must be an integer >= 1".to_string()),
    }
    match root.get("available_parallelism") {
        Some(Json::Num(n)) if *n >= 1.0 && n.fract() == 0.0 => {}
        Some(_) => return Err("available_parallelism must be an integer >= 1".to_string()),
        None => return Err("missing available_parallelism".to_string()),
    }
    let kernels = root.get("kernels").ok_or("missing kernels")?;
    for (name, _) in hypertee_crypto::dispatched_kernels() {
        if !matches!(kernels.get(name), Some(Json::Bool(_))) {
            return Err(format!("kernels: '{name}' must be true or false"));
        }
    }
    let benches = match root.get("benches") {
        Some(Json::Arr(items)) if !items.is_empty() => items,
        Some(Json::Arr(_)) => return Err("benches array is empty".to_string()),
        _ => return Err("missing benches array".to_string()),
    };
    for (i, row) in benches.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("bench {i}: missing name"))?;
        // Every tracked row must carry its reference measurement: a null
        // baseline means the `*_ref` oracle never ran, which is exactly how
        // a silent regression hides (the ptw 0.79x slip shipped unnoticed
        // because nothing compared the columns).
        for (key, required) in [
            ("ns_per_op", true),
            ("gb_per_sec", false),
            ("baseline_ns_per_op", true),
            ("speedup", true),
        ] {
            check_finite(row, key, required).map_err(|e| format!("bench '{name}': {e}"))?;
        }
        let speedup = row
            .get("speedup")
            .and_then(Json::as_num)
            .ok_or(format!("bench '{name}': missing speedup"))?;
        if speedup < 1.0 {
            return Err(format!(
                "bench '{name}': speedup {speedup:.4} < 1.0 — optimized path regressed below its reference"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_host() -> HostFacts {
        HostFacts {
            available_parallelism: 2,
            kernels: [
                ("aes", true),
                ("bmi2", true),
                ("avx512f", false),
                ("sha", true),
            ],
        }
    }

    fn sample() -> PerfReport {
        PerfReport {
            mode: "smoke".to_string(),
            host: fixed_host(),
            benches: vec![
                PerfBench::from_timings("aes", 10.0, 4096, Some(40.0)),
                PerfBench::from_timings("walk", 25.0, 0, Some(75.0)),
            ],
        }
    }

    #[test]
    fn emitted_report_validates() {
        let json = sample().to_json();
        validate(&json).unwrap();
    }

    #[test]
    fn speedup_and_throughput_derived() {
        let b = PerfBench::from_timings("x", 10.0, 4096, Some(40.0));
        assert!((b.speedup.unwrap() - 4.0).abs() < 1e-9);
        // 4096 bytes / 10 ns = 409.6 GB/s.
        assert!((b.gb_per_sec.unwrap() - 409.6).abs() < 1e-9);
    }

    #[test]
    fn older_reports_threads_key_is_still_validated() {
        let json = sample().to_json();
        assert!(!json.contains("\"threads\""));
        let json = json.replace(
            "\"mode\": \"smoke\"",
            "\"mode\": \"smoke\",\n  \"threads\": 4",
        );
        validate(&json).unwrap();
        // Zero, fractional, or non-numeric widths are rejected.
        for bad in ["0", "2.5", "\"4\""] {
            let doctored = json.replace("\"threads\": 4", &format!("\"threads\": {bad}"));
            assert!(
                validate(&doctored).is_err(),
                "threads={bad} must be invalid"
            );
        }
    }

    #[test]
    fn host_facts_are_required() {
        let json = sample().to_json();
        assert!(json.contains("\"available_parallelism\": 2"));
        assert!(json.contains(
            "\"kernels\": { \"aes\": true, \"bmi2\": true, \"avx512f\": false, \"sha\": true }"
        ));
        validate(&json).unwrap();
        for doctored in [
            json.replace(
                "\"available_parallelism\": 2",
                "\"available_parallelism\": 0",
            ),
            json.replace("\"available_parallelism\": 2,\n", ""),
            json.replace("\"avx512f\": false", "\"avx512f\": 0"),
            json.replace(", \"bmi2\": true", ""),
            json.replace(", \"sha\": true", ""),
        ] {
            assert!(validate(&doctored).is_err(), "must be invalid:\n{doctored}");
        }
    }

    #[test]
    fn shared_header_is_byte_stable_and_checked() {
        let mut s = String::new();
        push_header(&mut s, 1, "hypertee-chaos", "fleet");
        assert_eq!(
            s,
            "{\n  \"schema_version\": 1,\n  \"suite\": \"hypertee-chaos\",\n  \"mode\": \"fleet\""
        );
        s.push_str("\n}\n");
        let doc = parse_json(&s).unwrap();
        assert_eq!(check_header(&doc, 1, "hypertee-chaos"), Ok("fleet"));
        assert!(check_header(&doc, 2, "hypertee-chaos")
            .unwrap_err()
            .contains("schema_version"));
        assert!(check_header(&doc, 1, "hypertee-serving")
            .unwrap_err()
            .contains("suite"));
    }

    #[test]
    fn parser_roundtrips_values() {
        let v = parse_json(r#"{"a": [1, -2.5e1, "s\n", true, null]}"#).unwrap();
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("bad parse: {other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Str("s\n".to_string()));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn parser_rejects_deep_nesting_without_overflowing() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(MAX_DEPTH)).is_ok());
        let err = parse_json(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Deep enough to overflow any thread stack without the limit.
        assert!(parse_json(&deep(200_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn parser_decodes_utf8_strings() {
        let v = parse_json("{\"host\": \"Xeon® — 2×vCPU\\n🦀\"}").unwrap();
        assert_eq!(v.get("host"), Some(&Json::Str("Xeon® — 2×vCPU\n🦀".into())));
        let mut out = String::new();
        push_json_str(&mut out, "naïve ü");
        assert_eq!(parse_json(&out).unwrap(), Json::Str("naïve ü".into()));
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        let mut r = sample();
        r.mode = "other".to_string();
        assert!(validate(&r.to_json()).is_err());
        // Missing benches.
        let empty = PerfReport {
            mode: "full".to_string(),
            host: fixed_host(),
            benches: vec![],
        };
        assert!(validate(&empty.to_json()).is_err());
        // Wrong schema version.
        let json = sample().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(validate(&json).is_err());
        // Non-finite number smuggled in.
        let json = sample()
            .to_json()
            .replace("\"ns_per_op\": 10.0000", "\"ns_per_op\": 1e999");
        assert!(validate(&json).is_err());
    }

    #[test]
    fn every_row_requires_a_baseline() {
        // With a measured reference, the row is fine.
        let ok = PerfReport {
            mode: "smoke".to_string(),
            host: fixed_host(),
            benches: vec![PerfBench::from_timings(
                "interp_memstream_pass",
                10.0,
                4096,
                Some(80.0),
            )],
        };
        validate(&ok.to_json()).unwrap();
        // A null baseline is rejected on any row — interp and workload
        // alike (the old contract let workload rows ship without one).
        for name in ["interp_memstream_pass", "memstream_pass", "wolfssl_pass"] {
            let bad = PerfReport {
                mode: "smoke".to_string(),
                host: fixed_host(),
                benches: vec![PerfBench::from_timings(name, 10.0, 4096, None)],
            };
            let err = validate(&bad.to_json()).unwrap_err();
            assert!(err.contains("baseline_ns_per_op"), "{name}: {err}");
        }
    }

    #[test]
    fn sub_unity_speedup_fails_the_gate() {
        let regressed = PerfReport {
            mode: "smoke".to_string(),
            host: fixed_host(),
            benches: vec![PerfBench::from_timings(
                "ptw_translate_walk",
                100.0,
                0,
                Some(80.0),
            )],
        };
        let err = validate(&regressed.to_json()).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // Exactly 1.0 passes.
        let flat = PerfReport {
            mode: "smoke".to_string(),
            host: fixed_host(),
            benches: vec![PerfBench::from_timings("x", 10.0, 0, Some(10.0))],
        };
        validate(&flat.to_json()).unwrap();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn emitter_refuses_nan() {
        let r = PerfReport {
            mode: "full".to_string(),
            host: fixed_host(),
            benches: vec![PerfBench {
                name: "bad".to_string(),
                ns_per_op: f64::NAN,
                gb_per_sec: None,
                baseline_ns_per_op: None,
                speedup: None,
            }],
        };
        let _ = r.to_json();
    }
}
