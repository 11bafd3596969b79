//! The experiment driver: `run_all [ID…]` runs the named experiments,
//! every one when no id is given. Each section is printed, written to
//! `results/`, and its `BENCH_*.json` baseline, if it has one, written
//! to the workspace root. Only a full run rewrites `EXPERIMENTS.md`,
//! also at the workspace root, with every section that reads no clock.
//! Exits 1 if any shape check reads VIOLATED, a baseline's deterministic
//! part differs from the committed file, or a file cannot be written;
//! 2 on an unknown id.

use std::path::Path;
use std::time::Instant;

use eards_bench::common::WORKSPACE_ROOT;
use eards_bench::driver::{exit_status, experiments_md, publish, select};

#[allow(clippy::disallowed_methods)] // harness reports wall time per experiment
fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&ids).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(experiments.len());
    let mut failed = false;
    for (id, run) in experiments {
        eprintln!("running {id} ...");
        let t = Instant::now();
        let result = run();
        eprintln!("  done in {:.1?}", t.elapsed());
        match publish(&result) {
            Ok(drift) => failed |= drift.is_some(),
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
        let violated = result.violations();
        if violated > 0 {
            eprintln!("  !! {violated} shape check(s) VIOLATED");
        }
        results.push(result);
    }

    if ids.is_empty() {
        let doc = experiments_md(&results);
        let path = Path::new(WORKSPACE_ROOT).join("EXPERIMENTS.md");
        match eards_sim::write_atomic(&path, doc.as_bytes()) {
            Ok(()) => eprintln!("wrote {} ({} bytes)", path.display(), doc.len()),
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                failed = true;
            }
        }
    }
    eprintln!("experiments done in {:.1?}", t0.elapsed());
    std::process::exit(exit_status(&results).max(i32::from(failed)));
}
