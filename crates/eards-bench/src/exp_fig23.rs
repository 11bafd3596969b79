//! Figures 2 & 3 — power and satisfaction vs the (λ_min, λ_max) grid.
//!
//! §V-A sweeps the turn-on/off thresholds under the score-based policy and
//! shows two surfaces: power falls as either threshold rises (Fig. 2)
//! while client satisfaction falls with aggressiveness (Fig. 3) — the
//! trade-off resolved at λ_min = 30%, λ_max = 90%.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{lambda_grid, lambda_pairs, paper_datacenter, run_sweep, RunConfig};
use eards_metrics::{fnum, RunReport, Table};
use eards_model::Policy;

use crate::common::{paper_trace, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "fig2_3_threshold_sweep";

/// λ_min values of the grid (percent).
pub const MIN_GRID: &[u32] = &[10, 20, 30, 40, 50, 60, 70, 80];
/// λ_max values of the grid (percent).
pub const MAX_GRID: &[u32] = &[30, 40, 50, 60, 70, 80, 90, 100];

/// Runs the sweep; `(λ_min, λ_max, report)` per valid grid point.
pub fn sweep(min_grid: &[u32], max_grid: &[u32]) -> Vec<(u32, u32, RunReport)> {
    let sb = || -> Box<dyn Policy> { Box::new(ScoreScheduler::new(ScoreConfig::sb())) };
    let points = lambda_grid(&RunConfig::default(), sb, min_grid, max_grid);
    let pairs = lambda_pairs(min_grid, max_grid);
    let reports = run_sweep(&paper_datacenter(), &paper_trace(), points, None);
    pairs
        .into_iter()
        .zip(reports)
        .map(|((lo, hi), r)| (lo, hi, r))
        .collect()
}

fn surface_table(
    results: &[(u32, u32, RunReport)],
    min_grid: &[u32],
    max_grid: &[u32],
    value: impl Fn(&RunReport) -> f64,
    prec: usize,
) -> Table {
    let mut header = vec!["λmin \\ λmax".to_string()];
    header.extend(max_grid.iter().map(|m| m.to_string()));
    let mut table = Table::new(header);
    for &lo in min_grid {
        let mut row = vec![lo.to_string()];
        for &hi in max_grid {
            let cell = results
                .iter()
                .find(|&&(a, b, _)| a == lo && b == hi)
                .map(|(_, _, r)| fnum(value(r), prec))
                .unwrap_or_else(|| "—".into());
            row.push(cell);
        }
        table.row(row);
    }
    table
}

fn surface_csv(results: &[(u32, u32, RunReport)], value: impl Fn(&RunReport) -> f64) -> String {
    let mut csv = String::from("lambda_min,lambda_max,value\n");
    for (lo, hi, r) in results {
        csv.push_str(&format!("{lo},{hi},{:.3}\n", value(r)));
    }
    csv
}

/// Checks monotone trends along the grid axes, allowing `tol` violations
/// (the runs are stochastic). Returns (violations, comparisons).
fn trend_violations(
    results: &[(u32, u32, RunReport)],
    value: impl Fn(&RunReport) -> f64,
    decreasing: bool,
) -> (usize, usize) {
    let mut violations = 0;
    let mut comparisons = 0;
    // Along λ_min (fixed λ_max) and along λ_max (fixed λ_min).
    for fixed_max in MAX_GRID {
        let mut line: Vec<(u32, f64)> = results
            .iter()
            .filter(|&&(_, hi, _)| hi == *fixed_max)
            .map(|(lo, _, r)| (*lo, value(r)))
            .collect();
        line.sort_by_key(|&(lo, _)| lo);
        for w in line.windows(2) {
            comparisons += 1;
            let rising = w[1].1 > w[0].1 + 1e-9;
            if rising == decreasing {
                violations += 1;
            }
        }
    }
    for fixed_min in MIN_GRID {
        let mut line: Vec<(u32, f64)> = results
            .iter()
            .filter(|&&(lo, _, _)| lo == *fixed_min)
            .map(|(_, hi, r)| (*hi, value(r)))
            .collect();
        line.sort_by_key(|&(hi, _)| hi);
        for w in line.windows(2) {
            comparisons += 1;
            let rising = w[1].1 > w[0].1 + 1e-9;
            if rising == decreasing {
                violations += 1;
            }
        }
    }
    (violations, comparisons)
}

/// Regenerates Figures 2 and 3.
pub fn run() -> ExperimentResult {
    run_with_grid(MIN_GRID, MAX_GRID)
}

/// Sweep over an arbitrary grid (tests use a small one).
pub fn run_with_grid(min_grid: &[u32], max_grid: &[u32]) -> ExperimentResult {
    let results = sweep(min_grid, max_grid);
    let mut result = ExperimentResult::new(
        ID,
        "Figures 2 & 3 — power and satisfaction vs (λ_min, λ_max)",
        "power falls monotonically as λ_min or λ_max rises (more aggressive \
         on/off); satisfaction falls as the mechanism gets more aggressive; \
         λ_min = 30%, λ_max = 90% balances the trade-off (§V-A).",
    );

    result.tables.push((
        "Fig. 2 — power consumption (kWh)".into(),
        surface_table(&results, min_grid, max_grid, |r| r.energy_kwh, 0),
    ));
    result.tables.push((
        "Fig. 3 — client satisfaction S (%)".into(),
        surface_table(&results, min_grid, max_grid, |r| r.satisfaction_pct, 1),
    ));
    result.artifacts.push((
        "fig2_power_surface.csv".into(),
        surface_csv(&results, |r| r.energy_kwh),
    ));
    result.artifacts.push((
        "fig3_satisfaction_surface.csv".into(),
        surface_csv(&results, |r| r.satisfaction_pct),
    ));

    // Both quantities fall as either λ rises (more aggressive on/off):
    // power because fewer nodes stay up, satisfaction because capacity
    // arrives later.
    let (pv, pc) = trend_violations(&results, |r| r.energy_kwh, true);
    let (sv, sc) = trend_violations(&results, |r| r.satisfaction_pct, true);
    result.notes.push(format!(
        "power-decreases-with-aggressiveness trend: {pv}/{pc} pairwise violations \
         (stochastic runs; the paper's surface is likewise non-strict)"
    ));
    result.notes.push(format!(
        "satisfaction-decreases-with-aggressiveness trend: {sv}/{sc} pairwise violations"
    ));
    if let (Some(min_p), Some(max_p)) = (
        results
            .iter()
            .map(|(_, _, r)| r.energy_kwh)
            .min_by(f64::total_cmp),
        results
            .iter()
            .map(|(_, _, r)| r.energy_kwh)
            .max_by(f64::total_cmp),
    ) {
        result.notes.push(format!(
            "threshold choice moves power by {:.0}% across the grid \
             ({:.0}→{:.0} kWh) — the \"dramatic\" lever §V-A describes",
            100.0 * (max_p - min_p) / max_p,
            max_p,
            min_p
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-grid sweeps take ~a minute; the unit test uses a 2×2 corner
    /// (the full surface is exercised by `run_all fig2_3_threshold_sweep`).
    #[test]
    fn small_sweep_shows_the_tradeoff() {
        let results = sweep(&[20, 60], &[50, 90]);
        assert_eq!(results.len(), 3, "(60, 50) is invalid and filtered");
        let get = |lo: u32, hi: u32| {
            results
                .iter()
                .find(|&&(a, b, _)| a == lo && b == hi)
                .map(|(_, _, r)| r)
                .unwrap()
        };
        // The gentlest corner consumes more than the most aggressive one.
        let gentle = get(20, 50);
        let aggressive = get(60, 90);
        assert!(
            gentle.energy_kwh > aggressive.energy_kwh,
            "gentle {} vs aggressive {}",
            gentle.energy_kwh,
            aggressive.energy_kwh
        );
        // And satisfaction does not improve with aggressiveness.
        assert!(gentle.satisfaction_pct >= aggressive.satisfaction_pct - 0.5);
    }
}
