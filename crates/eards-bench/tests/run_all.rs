//! The experiment driver's command line: an unknown id is a usage error
//! (exit 2) that runs nothing and lists the valid ids.

use std::process::Command;

use eards_bench::driver::EXPERIMENTS;

#[test]
fn unknown_id_exits_2_and_lists_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .arg("nope")
        .output()
        .expect("spawn run_all");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "an experiment ran");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment \"nope\""), "{err}");
    for (id, _) in EXPERIMENTS {
        assert!(err.contains(id), "{id} missing from: {err}");
    }
}
