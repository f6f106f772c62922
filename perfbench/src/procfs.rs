//! CPU time, resident memory and thread counts read from `/proc`.

use std::collections::HashMap;

/// On-CPU time of one task in milliseconds: `se.sum_exec_runtime` from
/// `sched` (nanosecond resolution) where the kernel exposes it, else
/// `utime + stime` from `stat` at 100 ticks per second.
fn task_cpu_ms(task_dir: &std::path::Path) -> Option<f64> {
    if let Ok(sched) = std::fs::read_to_string(task_dir.join("sched")) {
        if let Some(line) = sched.lines().find(|l| l.starts_with("se.sum_exec_runtime")) {
            if let Some(v) = line.split(':').nth(1).and_then(|v| v.trim().parse::<f64>().ok()) {
                return Some(v);
            }
        }
    }
    let stat = std::fs::read_to_string(task_dir.join("stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 * 10.0)
}

/// CPU milliseconds the calling thread has run.
pub fn thread_self_cpu_ms() -> f64 {
    task_cpu_ms(std::path::Path::new("/proc/thread-self")).unwrap_or(0.0)
}

/// CPU milliseconds of every live thread of process `pid` (`"self"` for
/// this process), keyed by thread id, with the thread's name.
pub fn threads_cpu_ms(pid: &str) -> HashMap<u64, (String, f64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return out };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if let Some(ms) = task_cpu_ms(&path) {
            out.insert(tid, (comm.trim().to_string(), ms));
        }
    }
    out
}

/// Total CPU milliseconds of process `pid` across its live threads.
pub fn process_cpu_ms(pid: u32) -> f64 {
    threads_cpu_ms(&pid.to_string()).values().map(|(_, ms)| ms).sum()
}

/// `VmRSS` of process `pid` in kB.
pub fn rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Number of threads of process `pid`.
pub fn thread_count(pid: u32) -> usize {
    std::fs::read_dir(format!("/proc/{pid}/task")).map(|d| d.count()).unwrap_or(0)
}

/// CPU milliseconds each thread of this process spent between two
/// [`threads_cpu_ms`] snapshots, summed by `class(thread name)`.
pub fn cpu_delta_by_class(
    before: &HashMap<u64, (String, f64)>,
    after: &HashMap<u64, (String, f64)>,
    class: impl Fn(&str) -> &'static str,
) -> HashMap<&'static str, f64> {
    let mut out = HashMap::new();
    for (tid, (name, ms)) in after {
        let base = before.get(tid).map_or(0.0, |(_, b)| *b);
        *out.entry(class(name)).or_insert(0.0) += (ms - base).max(0.0);
    }
    out
}

/// Guest-wide CPU time the hypervisor gave to others (the `steal`
/// column of `/proc/stat`), in 10 ms ticks.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().and_then(|l| l.split_whitespace().nth(8)).and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
