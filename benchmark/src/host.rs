//! What the host tells us about the benchmark's own process: a monotonic
//! nanosecond clock, CPU time and peak resident memory from `/proc`.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process. One shared epoch, so
/// stamps taken on the driver thread and in completion callbacks (poller
/// threads) are comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; there is no way
/// to ask without libc's `sysconf`, which this crate does not link.
const USER_HZ: f64 = 100.0;

/// Peak resident set size (`VmHWM`) out of a `/proc/<pid>/status` text, KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds out of a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are counted
/// from the *last* `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    // `after_comm` starts at field 3 (state), so utime is the 12th item.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Seconds the hypervisor ran something else while a vCPU of this guest had
/// work (`steal`, the 8th value of the aggregate `cpu` line of `/proc/stat`).
pub fn parse_steal_seconds(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / USER_HZ)
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Steal seconds of the whole guest so far, summed over its vCPUs.
pub fn steal_seconds() -> Option<f64> {
    parse_steal_seconds(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_a_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a) b (c": spaces and parentheses inside field 2.
        let stat = "42 (a) b (c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        let stat = "cpu  559708 0 155523 669045 1924 0 553 17040 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_seconds(stat), Some(170.4));
        assert_eq!(parse_steal_seconds("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal_seconds("cpu  1 2 3\n"), None);
    }

    #[test]
    fn the_live_readers_work_on_this_host() {
        assert!(peak_rss_mib().expect("VmHWM readable") > 0.0);
        assert!(cpu_seconds().expect("stat readable") >= 0.0);
        assert!(steal_seconds().expect("/proc/stat readable") >= 0.0);
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
