//! The host block printed with every result, and the process memory
//! readings. Numbers are only comparable between runs whose host
//! blocks agree.

use crate::report::json_str;

/// Where and how the numbers were taken.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores this process may run on.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile of this build.
    pub profile: &'static str,
    /// Source revision, passed in by `run.py` through
    /// `PERFBENCH_COMMIT` (a git commit, or a digest of the sources
    /// when the checkout is not a git repository).
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    #[must_use]
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|line| line.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }

    /// The block as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(self.profile),
            json_str(&self.commit)
        )
    }
}

/// Cores available to this process (1 if unknown).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// A `Vm*` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    let kib: f64 = line
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    status_mib("VmHWM")
}

/// Current resident set size (`VmRSS`), in MiB.
#[must_use]
pub fn rss_mb() -> Option<f64> {
    status_mib("VmRSS")
}
