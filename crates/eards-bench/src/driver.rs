//! The experiment driver behind `run_all`: the table of every
//! experiment by id, and what is done with each result — printed,
//! written to `results/`, its baseline written to the workspace root,
//! and its shape checks turned into the exit status.

use std::path::Path;

use crate::common::{write_baseline, ExperimentResult};
use crate::{
    exp_ablation_adaptive, exp_ablation_powermodel, exp_ablation_reliability, exp_ablation_sla,
    exp_chaos, exp_degrade, exp_economics, exp_fig1, exp_fig23, exp_lint, exp_obs, exp_robustness,
    exp_snapshot, exp_solver_timing, exp_table1, exp_table2, exp_table3, exp_table4, exp_table5,
};

/// An experiment's entry point.
pub type Experiment = fn() -> ExperimentResult;

/// Every experiment, by id, in the order a full run runs them and
/// `EXPERIMENTS.md` lists them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    (exp_table1::ID, exp_table1::run),
    (exp_fig1::ID, exp_fig1::run),
    (exp_fig23::ID, exp_fig23::run),
    (exp_table2::ID, exp_table2::run),
    (exp_table3::ID, exp_table3::run),
    (exp_table4::ID, exp_table4::run),
    (exp_table5::ID, exp_table5::run),
    (exp_ablation_reliability::ID, exp_ablation_reliability::run),
    (exp_chaos::ID, exp_chaos::run),
    (exp_degrade::ID, exp_degrade::run),
    (exp_ablation_sla::ID, exp_ablation_sla::run),
    (exp_ablation_adaptive::ID, exp_ablation_adaptive::run),
    (exp_ablation_powermodel::ID, exp_ablation_powermodel::run),
    (exp_economics::ID, exp_economics::run),
    (exp_robustness::ID, exp_robustness::run),
    (exp_solver_timing::ID, exp_solver_timing::run),
    (exp_obs::ID, exp_obs::run),
    (exp_lint::ID, exp_lint::run),
    (exp_snapshot::ID, exp_snapshot::run),
];

/// The experiments named by `ids`, in the order given; every experiment
/// when `ids` is empty. The error names the first unknown id and lists
/// the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, Experiment)>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS
                .iter()
                .find(|(known, _)| known == id)
                .copied()
                .ok_or_else(|| {
                    let valid: Vec<&str> = EXPERIMENTS.iter().map(|(known, _)| *known).collect();
                    format!("unknown experiment {id:?}; valid ids: {}", valid.join(", "))
                })
        })
        .collect()
}

/// Prints `result`'s section to stdout, writes it to `results/` and its
/// baseline, if any, to the workspace root. A baseline that cannot be
/// written is an error; `results/` is best effort.
pub fn publish(result: &ExperimentResult) -> std::io::Result<()> {
    print!("{}", result.to_markdown());
    match result.write_to(Path::new("results")) {
        Ok(files) => {
            for f in files {
                eprintln!("wrote {f}");
            }
        }
        Err(e) => eprintln!("warning: could not write results/: {e}"),
    }
    if let Some((name, contents)) = &result.baseline {
        write_baseline(name, contents)?;
    }
    Ok(())
}

/// The status `run_all` exits with once `results` are in: 1 if any note
/// reads `VIOLATED`, else 0.
pub fn exit_status(results: &[ExperimentResult]) -> i32 {
    i32::from(results.iter().any(|r| r.violations() > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let len = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), len, "an id names two experiments");
    }

    #[test]
    fn selection_keeps_the_given_order_and_rejects_unknown_ids() {
        let ids = [exp_chaos::ID, exp_table2::ID].map(String::from);
        let picked: Vec<&str> = select(&ids).unwrap().iter().map(|(id, _)| *id).collect();
        assert_eq!(picked, [exp_chaos::ID, exp_table2::ID]);
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());
        let err = select(&["table2_static".into(), "nope".into()]).unwrap_err();
        assert!(
            err.contains("\"nope\"") && err.contains(exp_snapshot::ID),
            "{err}"
        );
    }

    fn with_notes(notes: &[&str]) -> ExperimentResult {
        let mut r = ExperimentResult::new("x", "X", "-");
        r.notes = notes.iter().map(|n| n.to_string()).collect();
        r
    }

    #[test]
    fn exit_status_is_1_exactly_when_a_note_reads_violated() {
        let clean = with_notes(&["Shape check: a — holds.", "Shape check: b — HOLDS."]);
        let skipped = with_notes(&["Shape check: c — skipped (single CPU core)."]);
        let violated = with_notes(&["Shape check: d — holds.", "Shape check: e — VIOLATED."]);
        assert_eq!(exit_status(&[]), 0);
        assert_eq!(exit_status(&[clean.clone(), skipped.clone()]), 0);
        assert_eq!(exit_status(&[clean.clone(), violated.clone()]), 1);
        assert_eq!(exit_status(&[violated, clean, skipped]), 1);
    }
}
