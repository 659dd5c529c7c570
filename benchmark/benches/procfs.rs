//! Process accounting read from `/proc`: CPU time of the process and of
//! the calling thread, and the peak resident set.

use std::fs;
use std::time::Duration;

/// Kernel clock ticks per second as `/proc/*/stat` reports them
/// (`USER_HZ`). It is 100 on every Linux architecture; without `libc`
/// there is no `sysconf` to ask.
const TICKS_PER_SECOND: u64 = 100;

/// `utime + stime` of a `/proc/.../stat` file. The command name (field 2)
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`: `state` is the first after it, `utime` and `stime` the 12th and
/// 13th.
fn cpu_of(stat_path: &str) -> Duration {
    let stat = fs::read_to_string(stat_path).unwrap_or_else(|e| panic!("read {stat_path}: {e}"));
    let after_comm = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let ticks: u64 = after_comm
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("utime/stime are integers"))
        .sum();
    Duration::from_micros(ticks * 1_000_000 / TICKS_PER_SECOND)
}

/// CPU time consumed so far by every thread of this process, exited
/// threads included.
pub fn process_cpu() -> Duration {
    cpu_of("/proc/self/stat")
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_of("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Resets the peak-RSS watermark so the next [`peak_rss_mib`] covers only
/// what follows. Best effort: a kernel or sandbox that refuses the write
/// leaves the peak since process start, which is still an upper bound.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}
