//! What the benchmark records about the host it runs on.

use std::process::Command;

/// The first `DRGPUM_*` environment variable, if any is set. Such
/// variables change what `DeviceContext::new` and
/// `ResourceBudget::apply_env` build, so the benchmark refuses to run
/// under them.
pub fn drgpum_env_var() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("DRGPUM_"))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The commit being measured, or `unknown` outside a git checkout.
pub fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// Reads the counters; all zero where `/proc/stat` is unavailable.
    pub fn read() -> CpuTimes {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(CpuTimes::parse))
            .unwrap_or_default()
    }

    fn parse(line: &str) -> CpuTimes {
        // cpu user nice system idle iowait irq softirq steal guest guest_nice
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Share of CPU time the hypervisor stole between `self` and `later`.
    pub fn steal_frac_until(self, later: CpuTimes) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_between_two_readings() {
        let a = CpuTimes::parse("cpu  100 0 50 800 10 0 5 35 0 0");
        let b = CpuTimes::parse("cpu  200 0 60 880 10 0 5 45 0 0");
        assert_eq!(a.total, 1000);
        assert!((a.steal_frac_until(b) - 10.0 / 200.0).abs() < 1e-12);
        assert_eq!(b.steal_frac_until(a), 0.0);
    }
}
