//! Outside-in tracing: spans around each call the benchmark makes into a
//! layer, plus the per-layer counters read from the crates' public stats.
//!
//! Spans are recorded only while the tracer is enabled, kept in memory, and
//! turned into per-layer self time when the run ends. A disabled tracer
//! costs one branch per call, which is what untraced rounds pay.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, as `<crate>.<what>` (`core.pump`, `service.attest`, ...).
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Round the span belongs to.
    pub round: u32,
    /// Sequence number of the call, unique within the run.
    pub call: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    round: u32,
    next_call: u64,
    spans: Vec<Span>,
}

/// An open span, returned by [`Tracer::begin`] and closed by
/// [`Tracer::end`]. Nesting is by containment: a span that opens and closes
/// inside another is its child.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct Open(Option<u64>);

impl Tracer {
    /// A tracer that records only while enabled (see [`Tracer::set_enabled`]).
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            round: 0,
            next_call: 0,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span (a no-op while disabled).
    pub fn begin(&self) -> Open {
        Open(self.enabled.then(|| self.now_ns()))
    }

    /// Closes a span opened by [`Tracer::begin`] and records it as `name`.
    pub fn end(&mut self, name: &'static str, open: Open) {
        if let Some(start_ns) = open.0 {
            let end_ns = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                round: self.round,
                call: self.next_call,
            });
            self.next_call += 1;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin();
        let out = f();
        self.end(name, open);
        out
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, in closing order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as JSON lines, one object per span.
///
/// # Errors
///
/// Any error creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"round\": {}, \"call\": {}}}",
            s.name, s.start_ns, s.end_ns, s.round, s.call
        )?;
    }
    out.flush()
}

/// Self time per span name, in ns: each span's duration minus the part of
/// it that its child spans cover. Spans on one thread either nest or are
/// disjoint, so a child's whole duration lies inside its parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut order: Vec<&Span> = spans.iter().collect();
    // Parents open no later than their children and close no earlier.
    order.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut own: Vec<u64> = order.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in order.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if order[top].end_ns <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
        }
        stack.push(i);
    }
    let mut totals = BTreeMap::new();
    for (s, ns) in order.iter().zip(own) {
        *totals.entry(s.name).or_insert(0) += ns;
    }
    totals
}

/// Per-layer counters gathered from one or more rounds.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    sums: BTreeMap<&'static str, f64>,
    maxes: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Counters {
    /// Adds `v` to a summed counter.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    /// Raises a high-water-mark counter to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.maxes.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    /// Appends a sample to a distribution.
    pub fn sample(&mut self, name: &'static str, v: u64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// A summed counter (0 when never touched).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// A high-water-mark counter (0 when never touched).
    pub fn high(&self, name: &str) -> f64 {
        self.maxes.get(name).copied().unwrap_or(0.0)
    }

    /// A distribution's samples (empty when never touched).
    pub fn samples(&self, name: &str) -> &[u64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds another round's counters into these.
    pub fn merge(&mut self, other: Counters) {
        for (k, v) in other.sums {
            self.add(k, v);
        }
        for (k, v) in other.maxes {
            self.max(k, v);
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            round: 0,
            call: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_only() {
        // round [0, 100) holds pump [10, 30) and submit [30, 45); a second
        // round [100, 150) holds pump [120, 150), which ends with it.
        let spans = [
            span("core.pump", 10, 30),
            span("core.submit", 30, 45),
            span("bench.round", 0, 100),
            span("core.pump", 120, 150),
            span("bench.round", 100, 150),
        ];
        let t = self_times(&spans);
        assert_eq!(t["core.pump"], 20 + 30);
        assert_eq!(t["core.submit"], 15);
        assert_eq!(t["bench.round"], (100 - 35) + (50 - 30));
        // Self times partition the covered wall time.
        assert_eq!(t.values().sum::<u64>(), 150);
    }

    #[test]
    fn self_time_handles_deep_nesting_and_zero_length_spans() {
        let spans = [
            span("c", 5, 5),
            span("b", 2, 8),
            span("a", 0, 10),
            span("d", 10, 12),
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"], 4);
        assert_eq!(t["b"], 6);
        assert_eq!(t["c"], 0);
        assert_eq!(t["d"], 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("core.pump", || 7), 7);
        let open = tr.begin();
        tr.end("bench.round", open);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        tr.set_round(3);
        tr.span("core.pump", || ());
        assert_eq!(tr.spans().len(), 1);
        assert_eq!(tr.spans()[0].round, 3);
    }

    #[test]
    fn counters_merge_by_kind() {
        let mut a = Counters::default();
        a.add("x", 2.0);
        a.max("hwm", 5.0);
        a.sample("lat", 1);
        let mut b = Counters::default();
        b.add("x", 3.0);
        b.max("hwm", 4.0);
        b.sample("lat", 2);
        a.merge(b);
        assert_eq!(a.sum("x"), 5.0);
        assert_eq!(a.high("hwm"), 5.0);
        assert_eq!(a.samples("lat"), &[1, 2]);
        assert_eq!(a.sum("missing"), 0.0);
    }
}
