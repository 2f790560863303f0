//! Process CPU time and peak memory, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` has been 100 on every Linux ABI for
/// decades; the standard library exposes no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (the command name) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15 of the line, the 12th and 13th
/// after the command.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size in MB (`VmHWM`, reported in kB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_seconds(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_vm_hwm_mb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_skips_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (perf) suite)) R 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    321 79 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(4.0));
    }

    #[test]
    fn stat_cpu_rejects_a_truncated_line() {
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_vm_hwm_is_converted_from_kb() {
        let status =
            "Name:\tperf_suite\nVmPeak:\t  900000 kB\nVmHWM:\t  675840 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_vm_hwm_mb(status), Some(660.0));
        assert_eq!(parse_status_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readers_return_positive_numbers() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
