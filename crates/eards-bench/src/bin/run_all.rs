//! The experiment driver: `run_all [ID…]` runs the named experiments,
//! every one when no id is given. Each section is printed, written to
//! `results/`, and its `BENCH_*.json` baseline, if it has one, written
//! to the workspace root. Only a full run rewrites `EXPERIMENTS.md` with
//! the full paper-vs-measured record. Exits 1 if any shape check reads
//! VIOLATED (or a baseline cannot be written), 2 on an unknown id.

use std::fmt::Write as _;
use std::time::Instant;

use eards_bench::driver::{exit_status, publish, select};

#[allow(clippy::disallowed_methods)] // harness reports wall time per experiment
fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = select(&ids).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(experiments.len());
    let mut unwritten = false;
    for (id, run) in experiments {
        eprintln!("running {id} ...");
        let t = Instant::now();
        let result = run();
        eprintln!("  done in {:.1?}", t.elapsed());
        if let Err(e) = publish(&result) {
            eprintln!("error: {e}");
            unwritten = true;
        }
        let violated = result.violations();
        if violated > 0 {
            eprintln!("  !! {violated} shape check(s) VIOLATED");
        }
        results.push(result);
    }

    if ids.is_empty() {
        let mut doc = String::from(
            "# EXPERIMENTS — paper vs measured\n\n\
             Regenerated by `cargo run --release -p eards-bench --bin run_all`;\n\
             append `-- ID…` to rerun only the named sections, which leaves this file alone.\n\
             Every table and figure of the paper's evaluation (§IV–V) appears \
             below with the paper's reported numbers quoted and our measured \
             values next to them. Absolute joules differ (our substrate is a \
             calibrated simulator over a synthetic Grid5000-like trace — see \
             DESIGN.md §3); the *shape* checks in each section's notes state \
             which qualitative findings hold.\n\n",
        );
        for result in &results {
            doc.push_str(&result.to_markdown());
        }
        let failures: usize = results.iter().map(|r| r.violations()).sum();
        let _ = write!(
            doc,
            "---\n\nTotal shape-check violations across all experiments: {failures}\n"
        );
        match std::fs::write("EXPERIMENTS.md", &doc) {
            Ok(()) => eprintln!("wrote EXPERIMENTS.md ({} bytes)", doc.len()),
            Err(e) => eprintln!("could not write EXPERIMENTS.md: {e}"),
        }
    }
    eprintln!("experiments done in {:.1?}", t0.elapsed());
    std::process::exit(exit_status(&results).max(i32::from(unwritten)));
}
