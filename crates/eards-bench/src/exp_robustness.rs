//! Robustness — the headline across workload seeds.
//!
//! The paper evaluates one Grid5000 week; a reproduction on a synthetic
//! trace owes the reader evidence that the −15% headline is a property of
//! the *policy*, not of one lucky arrival sequence. This experiment
//! regenerates the Table IV comparison over several independent workload
//! seeds and reports the distribution of the SB-vs-BF and SB-vs-DBF
//! savings.

use eards_datacenter::{paper_datacenter, run_sweep};
use eards_metrics::{fnum, pct_change, Summary, Table};
use eards_workload::{generate, SynthConfig};

use crate::common::{point, verdict, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "robustness_seeds";

/// The workload seeds evaluated.
pub const SEEDS: &[u64] = &[7, 11, 23, 42, 101];

/// Per-seed savings: `(seed, sb_vs_bf_pct, sb_vs_dbf_pct, sb_satisfaction)`.
pub fn savings() -> Vec<(u64, f64, f64, f64)> {
    let hosts = paper_datacenter();
    SEEDS
        .iter()
        .map(|&seed| {
            let trace = generate(&SynthConfig::grid5000_week(), seed);
            let points = [("BF", 30, 90), ("DBF", 30, 90), ("SB", 40, 90)]
                .into_iter()
                .map(|(name, lo, hi)| point(format!("{name} λ{lo}-{hi}"), name, lo, hi))
                .collect();
            let reports = run_sweep(&hosts, &trace, points, None);
            let (bf, dbf, sb) = (&reports[0], &reports[1], &reports[2]);
            (
                seed,
                pct_change(bf.energy_kwh, sb.energy_kwh),
                pct_change(dbf.energy_kwh, sb.energy_kwh),
                sb.satisfaction_pct,
            )
        })
        .collect()
}

/// Runs the robustness experiment.
pub fn run() -> ExperimentResult {
    let rows = savings();
    let mut result = ExperimentResult::new(
        ID,
        "Robustness — the Table IV headline across workload seeds",
        "the paper reports one trace (−15% vs BF, −12% vs DBF); a credible \
         reproduction must show the saving is stable across independent \
         workloads of the same calibration.",
    );

    let mut t = Table::new(["trace seed", "SB λ40-90 vs BF", "vs DBF", "SB S (%)"]);
    let mut vs_bf = Summary::new();
    let mut vs_dbf = Summary::new();
    for &(seed, bf, dbf, s) in &rows {
        vs_bf.push(bf);
        vs_dbf.push(dbf);
        t.row([
            seed.to_string(),
            format!("{bf:+.1}%"),
            format!("{dbf:+.1}%"),
            fnum(s, 2),
        ]);
    }
    t.row([
        "mean ± σ".to_string(),
        format!("{:+.1}% ± {:.1}", vs_bf.mean(), vs_bf.std_dev()),
        format!("{:+.1}% ± {:.1}", vs_dbf.mean(), vs_dbf.std_dev()),
        String::new(),
    ]);
    result
        .tables
        .push((format!("{} independent week-long traces", SEEDS.len()), t));

    let all_negative = rows.iter().all(|&(_, bf, _, _)| bf < 0.0);
    result.notes.push(format!(
        "SB saves energy vs BF on every seed (mean {:+.1}%, worst {:+.1}%): {}",
        vs_bf.mean(),
        vs_bf.max().unwrap_or(0.0),
        verdict(all_negative)
    ));
    result.notes.push(format!(
        "the mean saving brackets the paper's −15% (ours {:+.1}% ± {:.1}): {}",
        vs_bf.mean(),
        vs_bf.std_dev(),
        verdict((-25.0..=-10.0).contains(&vs_bf.mean()))
    ));
    result.notes.push(format!(
        "SB also beats DBF on every seed: {}",
        verdict(rows.iter().all(|&(_, _, dbf, _)| dbf < 0.0))
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_is_seed_robust() {
        let r = run();
        let violated = r.notes.iter().filter(|n| n.contains("VIOLATED")).count();
        assert_eq!(violated, 0, "{:#?}", r.notes);
    }
}
