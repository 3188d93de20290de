//! Every experiment binary reads its command line through
//! `ExpOpts::from_args`, before it does anything else: a typo or a bad
//! value is a usage error (exit 2), never a silent run at the defaults.

use std::process::Command;

#[test]
fn every_binary_refuses_what_it_does_not_understand() {
    let bins = [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_eval_throughput"),
        env!("CARGO_BIN_EXE_fig09"),
        env!("CARGO_BIN_EXE_fig10"),
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_fig13"),
        env!("CARGO_BIN_EXE_fig14"),
        env!("CARGO_BIN_EXE_fig15"),
        env!("CARGO_BIN_EXE_fig16"),
        env!("CARGO_BIN_EXE_mobile"),
        env!("CARGO_BIN_EXE_obs_overhead"),
        env!("CARGO_BIN_EXE_table2"),
    ];
    for bin in bins {
        for bad in [&["--sclae", "1"][..], &["--scale", "abc"], &["--budget-ms"], &["--chekc"]] {
            let out = Command::new(bin).args(bad).output().expect("the binary runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {bad:?}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{bin} {bad:?}");
        }
    }
}
