//! The daemon's resource use, read from outside through `/proc/<pid>`.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU ticks from the text of `/proc/<pid>/stat`.
/// Fields are counted after the `)` closing the command name, which may
/// itself hold spaces and parentheses.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in bytes from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb * 1024)
}

/// CPU seconds `pid` has used so far.
pub fn cpu_secs(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ticks = cpu_ticks(&text).ok_or_else(|| format!("cannot parse {path}"))?;
    Ok(ticks as f64 / TICKS_PER_SEC)
}

/// Peak resident bytes of `pid` so far.
pub fn peak_rss_bytes(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    vm_hwm_bytes(&text).ok_or_else(|| format!("no VmHWM in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_skips_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (lsi (serve) x) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    1234 567 0 0 20 0 7 0 99 1000 200 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(cpu_ticks("4242 (lsi) S 1 2"), None);
        assert_eq!(cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm_in_kilobytes() {
        let status = "Name:\tlsi\nVmPeak:\t  600000 kB\nVmHWM:\t  522952 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(522_952 * 1024));
        assert_eq!(vm_hwm_bytes("Name:\tlsi\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_secs(pid).is_ok());
        assert!(peak_rss_bytes(pid).unwrap() > 0);
    }
}
