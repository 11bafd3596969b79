//! Lint timing — one full `eards lint` pass over the workspace.
//!
//! Not a paper result. The determinism and simulation-safety lint runs
//! on every CI push, so it gets a wall-time budget like the solver and
//! observability layers: the whole walk-lex-match pass must stay under
//! [`BUDGET_MS`]. The baseline `BENCH_lint.json` records the pass.

use std::path::Path;

use eards_metrics::Table;
use eards_obs::validate::Json;

use crate::common::{verdict, Baseline, ExperimentResult, WORKSPACE_ROOT};
use crate::timing::best_of;

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "lint_timing";

/// Wall-time budget for one full workspace lint pass.
pub const BUDGET_MS: f64 = 2000.0;

/// Times one lint pass over the workspace.
pub fn run() -> ExperimentResult {
    let (secs, run) = best_of(
        1,
        || (),
        |()| eards_lint::lint_workspace(Path::new(WORKSPACE_ROOT)).expect("workspace walk"),
    );
    let wall_ms = (secs * 1e3).round();
    let within = wall_ms <= BUDGET_MS;
    let mut result = ExperimentResult::new(
        ID,
        "Lint timing — one full workspace pass",
        "not a paper result: a wall-time budget for the `eards lint` \
         determinism gate that runs on every CI push.",
    );
    let mut t = Table::new(["files", "findings", "wall (ms)", "budget (ms)"]);
    t.row([
        run.files.to_string(),
        run.findings.len().to_string(),
        wall_ms.to_string(),
        BUDGET_MS.to_string(),
    ]);
    result
        .tables
        .push(("one `eards lint` pass over the workspace".into(), t));
    result.notes.push(format!(
        "Shape check: the pass takes {wall_ms} ms, within the {BUDGET_MS} ms budget — {}.",
        verdict(within)
    ));
    result.baseline = Some(
        Baseline::new("lint")
            .det("files", run.files)
            .det("findings", run.findings.len())
            .det("budget_ms", BUDGET_MS)
            .wall("wall_ms", wall_ms)
            .wall("within_budget", Json::Bool(within)),
    );
    result
}
