//! Times a full `eards lint` pass over the workspace and writes
//! `BENCH_lint.json` next to the other machine-readable baselines.
//!
//! The gate runs on every CI push, so it gets a wall-time budget like the
//! solver and observability layers: the whole walk-lex-match pass must
//! stay under [`BUDGET_MS`] or this bin exits non-zero.

use std::path::Path;

use eards_bench::common::{write_baseline, WORKSPACE_ROOT};
use eards_bench::timing::best_of;

/// Wall-time budget for one full workspace lint pass.
const BUDGET_MS: f64 = 2000.0;

fn main() -> std::io::Result<()> {
    let (secs, run) = best_of(
        1,
        || (),
        |()| eards_lint::lint_workspace(Path::new(WORKSPACE_ROOT)).expect("workspace walk"),
    );
    let wall_ms = (secs * 1e3).round();
    let json = format!(
        "{{\"files\":{},\"findings\":{},\"wall_ms\":{wall_ms},\"budget_ms\":{BUDGET_MS},\
         \"within_budget\":{}}}\n",
        run.files,
        run.findings.len(),
        wall_ms <= BUDGET_MS
    );
    write_baseline("BENCH_lint.json", &json)?;
    eprintln!(
        "lint pass: {} files, {} finding(s), {wall_ms} ms (budget {BUDGET_MS} ms)",
        run.files,
        run.findings.len()
    );
    if wall_ms > BUDGET_MS {
        eprintln!("!! lint wall time exceeds budget");
        std::process::exit(1);
    }
    Ok(())
}
