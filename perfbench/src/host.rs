//! Host context printed with every run, so numbers from different
//! machines are never compared by accident.

use std::num::NonZeroUsize;

/// Worker threads every sweep and seed batch runs on: at most this many,
/// and never more than the host's cores.
pub const MAX_THREADS: usize = 2;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The fixed worker-thread count, `min(MAX_THREADS, nproc)`.
pub fn threads() -> usize {
    MAX_THREADS.min(nproc())
}

/// CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`), if known.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One line of host context.
pub fn describe(threads: usize) -> String {
    format!(
        "host: nproc={} threads={threads} cpu=\"{}\" rustc=\"{}\" profile={}",
        nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}
