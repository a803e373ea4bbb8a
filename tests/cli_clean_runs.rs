//! `drgpum run` end to end on the pool workload: a clean run of PyTorch —
//! a caching pool whose first tensor sits at offset 0 of its slab — must
//! exit 0 with no degradation line at either analysis level.

use std::process::Command;

#[test]
fn pytorch_run_is_not_degraded() {
    let bin = env!("CARGO_BIN_EXE_drgpum");
    for level in [None, Some("--intra")] {
        let out = Command::new(bin)
            .args(["run", "PyTorch"])
            .args(level)
            .output()
            .expect("spawn drgpum");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("degraded"),
            "{level:?}: clean run reported a degradation:\n{stdout}"
        );
        assert_eq!(out.status.code(), Some(0), "{level:?}: exit status");
    }
}
