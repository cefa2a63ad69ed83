//! Figures read from `/proc`: this process's peak memory, and how much
//! CPU time the host's hypervisor stole.

use std::fs;

/// This process's peak RSS (`VmHWM`), KiB; 0 where `/proc` cannot say.
pub fn self_peak_kb() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// CPU time stolen so far and CPU time in all, over every CPU of the
/// host, in clock ticks; `None` where `/proc/stat` cannot say. On a
/// shared host the difference of two readings tells a slow run caused
/// by neighbours from one caused by the program.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}
