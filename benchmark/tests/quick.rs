//! Smoke test: the whole suite on short windows ends with nothing failed.

use std::process::Command;

#[test]
fn quick_suite_finishes_with_failed_share_zero() {
    let output = Command::new(env!("CARGO_BIN_EXE_smartpick_benchmark"))
        .args(["--quick", "--trace"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // One untraced and one traced run per workload, each reporting its share.
    let shares: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("failed_share"))
        .collect();
    assert_eq!(shares.len(), 8, "{stdout}");
    for line in shares {
        assert!(line.contains("ops_failed=0 "), "{line}");
    }
    for metric in [
        "determine_per_s",
        "recover_ms",
        "wire.transport_us",
        "trace.overhead_share",
    ] {
        assert_eq!(
            stdout.lines().filter(|l| l.contains(metric)).count(),
            4,
            "`{metric}` once per workload:\n{stdout}"
        );
    }
}
