//! What the benchmark reads from the host it runs on.

/// Peak resident set of this process (`VmHWM`), in MB. Each workload
/// runs in a process of its own, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(0) as f64 / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_proc_status_line() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn this_process_has_a_peak() {
        assert!(peak_rss_mb() > 1.0);
    }
}
