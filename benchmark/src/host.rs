//! The host facts a result depends on, written into every result.

use hypertee_bench::report::push_json_str;
use std::process::Command;

/// What the host and build were.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` (the benchmark itself is
    /// single-threaded; this says what else could run beside it).
    pub parallelism: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// CPU features that select the crypto kernels at run time.
    pub features: Vec<(&'static str, bool)>,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory.
    pub git_commit: String,
}

impl Host {
    /// Reads the facts of this host. Anything unreadable is `"unknown"`.
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            features: cpu_features(),
            rustc: command_line(
                &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
                &["-V"],
            ),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The facts as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"available_parallelism\": {}, ", self.parallelism);
        out.push_str("\"cpu_model\": ");
        push_json_str(&mut out, &self.cpu_model);
        for (name, on) in &self.features {
            out.push_str(&format!(", \"{name}\": {on}"));
        }
        out.push_str(", \"rustc\": ");
        push_json_str(&mut out, &self.rustc);
        out.push_str(", \"git_commit\": ");
        push_json_str(&mut out, &self.git_commit);
        out.push('}');
        out
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> Vec<(&'static str, bool)> {
    vec![
        ("aes", std::arch::is_x86_feature_detected!("aes")),
        ("bmi2", std::arch::is_x86_feature_detected!("bmi2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> Vec<(&'static str, bool)> {
    vec![("aes", false), ("bmi2", false), ("avx512f", false)]
}

/// First line of a command's standard output, waiting for it to exit;
/// `"unknown"` when it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
