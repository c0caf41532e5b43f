//! Host fingerprint and process accounting read from `/proc`.

use std::fs;

/// Logical cores, detected x86 features, compiler and build profile,
/// as one JSON object. Printed with every result: a number measured on
/// one host says little about another.
pub fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"logical_cores\":{cores},\"x86_features\":[{}],\"rustc\":\"{}\",\"profile\":\"{}\"}}",
        x86_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(","),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

#[cfg(target_arch = "x86_64")]
fn x86_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    macro_rules! probe {
        ($($name:tt),*) => {$(
            if std::arch::is_x86_feature_detected!($name) {
                f.push($name);
            }
        )*};
    }
    probe!(
        "avx2",
        "avx512f",
        "avx512bw",
        "avx512vl",
        "avx512vbmi",
        "bmi2"
    );
    f
}

#[cfg(not(target_arch = "x86_64"))]
fn x86_features() -> Vec<&'static str> {
    Vec::new()
}

/// On-CPU nanoseconds of one task, from its `schedstat`.
fn schedstat_ns(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat").expect("read /proc/thread-self/schedstat")
}

/// On-CPU nanoseconds of every live thread of the process. Threads
/// that already exited are not counted; the workloads keep every thread
/// they use alive across the measured window.
pub fn process_cpu_ns() -> u64 {
    fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|e| {
            let path = format!("{}/schedstat", e.ok()?.path().display());
            schedstat_ns(&path)
        })
        .sum()
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
