//! CPU time and peak memory of a process, read from `/proc`.
//!
//! `cpu_ms_per_image` and `peak_rss_mb` cover the driver process and every
//! cluster member, so both are read per pid and summed by the caller.

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux fixes
/// `USER_HZ` at 100 on every architecture this runs on.
const TICKS_PER_SECOND: u64 = 100;

/// User + system CPU time in milliseconds from the text of
/// `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are the 14th and 15th fields overall, i.e. the 12th
/// and 13th after the command name.
pub fn parse_cpu_ms(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000 / TICKS_PER_SECOND)
}

/// Peak resident set size in KiB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU milliseconds consumed so far by `pid`, all threads included; `None`
/// once the process is gone.
pub fn cpu_ms(pid: u32) -> Option<u64> {
    parse_cpu_ms(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of `pid` in KiB; `None` once the process is gone.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf (worker) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 59 0 0 20 0 5 0 123456 987654321 4321 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tperf\nUmask:\t0022\nState:\tS (sleeping)\nVmPeak:\t  \
                          200000 kB\nVmSize:\t  180000 kB\nVmHWM:\t   76388 kB\nVmRSS:\t   \
                          70000 kB\nThreads:\t5\n";

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // utime 731 + stime 59 ticks at 100 Hz.
        assert_eq!(parse_cpu_ms(STAT), Some(7900));
    }

    #[test]
    fn malformed_stat_is_rejected() {
        assert_eq!(parse_cpu_ms(""), None);
        assert_eq!(parse_cpu_ms("1 (x) S 1 2 3"), None);
        assert_eq!(
            parse_cpu_ms(&STAT.replace("731", "seven")),
            None,
            "non-numeric utime"
        );
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(76388));
        assert_eq!(parse_vm_hwm_kb("Name:\tperf\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).is_some());
        assert!(vm_hwm_kb(pid).unwrap() > 0);
        assert_eq!(cpu_ms(u32::MAX), None);
    }
}
