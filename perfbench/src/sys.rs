//! Host resource readings from `/proc`: the benchmark forbids unsafe
//! code and has no crates.io dependencies, so there is no `getrusage`.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux
/// fixes `USER_HZ` at 100 on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds consumed so far, split into this process (all threads,
/// live and exited) and its children that have been waited for.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTimes {
    pub user: f64,
    pub sys: f64,
    pub child_user: f64,
    pub child_sys: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
        let f: Vec<f64> = rest
            .split_whitespace()
            .map(|v| v.parse().unwrap_or(0.0))
            .collect();
        // Field 3 (state) is index 0; utime, stime, cutime, cstime are 14..=17.
        CpuTimes {
            user: f[11] / TICKS_PER_S,
            sys: f[12] / TICKS_PER_S,
            child_user: f[13] / TICKS_PER_S,
            child_sys: f[14] / TICKS_PER_S,
        }
    }

    /// (user + sys, sys) spent by this process since `earlier`.
    pub fn own_since(&self, earlier: &CpuTimes) -> (f64, f64) {
        let sys = self.sys - earlier.sys;
        (self.user - earlier.user + sys, sys)
    }

    /// (user + sys, sys) spent by reaped children since `earlier`.
    pub fn children_since(&self, earlier: &CpuTimes) -> (f64, f64) {
        let sys = self.child_sys - earlier.child_sys;
        (self.child_user - earlier.child_user + sys, sys)
    }
}

/// Peak resident set (`VmHWM`) of `pid` (or this process) in MiB, or
/// `None` once the process is gone.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
