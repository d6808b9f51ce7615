//! Resident-set readings from `/proc/self/status`.

/// Extracts one `Vm*` field (kB, as the kernel prints it) from the text
/// of a `/proc/<pid>/status` document. Pure, so the parse is testable on
/// a canned document; `None` when the line is absent or malformed.
pub fn parse_vm_kb(status_text: &str, field: &str) -> Option<u64> {
    status_text
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

fn self_status_mb(field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_kb(&text, field)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {field} line"))
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    self_status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> Result<f64, String> {
    self_status_mb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::parse_vm_kb;

    /// The parse must survive the document's other `Vm*` lines (in
    /// particular `VmHWM` vs `VmRSS` prefix confusion) and the kernel's
    /// tab-and-space formatting.
    const STATUS: &str = "Name:\tezflow-benchmark\n\
        Umask:\t0022\n\
        VmPeak:\t  123456 kB\n\
        VmSize:\t  100000 kB\n\
        VmHWM:\t   20480 kB\n\
        VmRSS:\t   18000 kB\n\
        Threads:\t1\n";

    #[test]
    fn parses_vm_fields_from_a_canned_status_document() {
        assert_eq!(parse_vm_kb(STATUS, "VmHWM"), Some(20480));
        assert_eq!(parse_vm_kb(STATUS, "VmRSS"), Some(18000));
    }

    #[test]
    fn missing_or_malformed_lines_yield_none() {
        assert_eq!(parse_vm_kb("", "VmHWM"), None);
        assert_eq!(parse_vm_kb("Name:\tx\nVmRSS:\t 10 kB\n", "VmHWM"), None);
        assert_eq!(parse_vm_kb("VmHWM:\tnot-a-number kB\n", "VmHWM"), None);
        assert_eq!(parse_vm_kb("VmHWM:\t12\n", "VmHWM"), None);
    }
}
