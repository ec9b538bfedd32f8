//! What the machine looked like: recorded next to every result, because
//! a number measured on 2 threads means nothing without the core count.

use std::fs;

/// Peak resident set of this process (`VmHWM`), MiB. Each workload runs
/// in its own process, so the peak is attributable to it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU model name, as `/proc/cpuinfo` spells it.
pub fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
            assert!(loadavg_1m().unwrap() >= 0.0);
        }
    }
}
