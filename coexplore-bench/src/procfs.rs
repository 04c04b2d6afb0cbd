//! Process CPU time, read from `/proc` (no `libc` is vendored, so
//! `getrusage` is out of reach).

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process so far, every thread
/// included (threads that have exited are folded into the totals).
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds.
pub fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // The command name (field 2) may itself hold spaces and parentheses,
    // so fields are counted from the last `)`: the rest starts at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_command_name() {
        let stat = "4242 (odd) name)) R 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
        assert_eq!(parse_stat_cpu("4242 (truncated) R 1"), None);
        assert_eq!(parse_stat_cpu("no parenthesis"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
    }
}
