//! Figure 1 — simulator validation.
//!
//! §IV-B validates the paper's simulator against a real 4-way node running
//! a 1300-second, 7-task workload: total energy 99.9 ± 1.8 Wh measured vs
//! 97.5 Wh simulated (−2.4%), instantaneous error 8.62 W (σ 8.06 W).
//!
//! We have no physical testbed, so — per the substitution in DESIGN.md —
//! the "real" reference trace is synthesized from the simulated power
//! signal plus the two effects a real machine adds on top of the
//! calibrated model: a small unmodeled baseline (disk/IO activity the
//! power model of Table I excludes) and measurement noise, both matching
//! the error characteristics the paper reports. The experiment then
//! measures exactly what Fig. 1 reports: total-energy agreement and the
//! instantaneous error distribution, plus the plottable two-series CSV.

use eards_datacenter::{small_datacenter, RunConfig, Runner};
use eards_metrics::{fnum, Summary, Table};
use eards_model::HostClass;
use eards_policies::RandomPolicy;
use eards_sim::{SimDuration, SimRng, SimTime};
use eards_workload::{validation_workload, VALIDATION_SPAN};

use crate::common::ExperimentResult;

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "fig1_validation";

/// Unmodeled baseline draw of the reference machine (W): disk and chipset
/// activity that §IV-A's CPU-only model does not capture. Chosen so the
/// simulator *underestimates* totals by roughly the paper's 2.4%.
const REFERENCE_BIAS_WATTS: f64 = 6.5;
/// Measurement noise of the reference power meter (W).
const REFERENCE_NOISE_STD: f64 = 8.0;

/// Output of the validation run, exposed for tests.
pub struct Validation {
    /// Simulated total energy over the window (Wh).
    pub sim_wh: f64,
    /// Reference ("real") total energy (Wh).
    pub real_wh: f64,
    /// Relative underestimation in percent (positive = sim below real).
    pub underestimation_pct: f64,
    /// Mean absolute instantaneous error (W).
    pub inst_error_mean: f64,
    /// Standard deviation of the instantaneous error (W).
    pub inst_error_std: f64,
    /// `(t_secs, sim_watts, real_watts)` at 1-second resolution.
    pub series: Vec<(u64, f64, f64)>,
}

/// Runs the 7-task validation scenario on one 4-way node and compares
/// simulated vs reference power.
pub fn validate(seed: u64) -> Validation {
    let cfg = RunConfig {
        initial_on: 1,
        min_exec: 1,
        record_power_series: true,
        drain_limit: SimDuration::from_hours(2),
        seed,
        ..RunConfig::default()
    };
    // Random placement on a single node = that node, with CPU overcommit —
    // so the workload's contention phases actually exercise the credit
    // scheduler instead of queueing.
    let report = Runner::new(
        small_datacenter(1, HostClass::Medium),
        validation_workload(),
        Box::new(RandomPolicy::new(seed)),
        cfg,
    )
    .run();

    let window_end = SimTime::ZERO + VALIDATION_SPAN;
    let samples = report
        .power_watts
        .resample(SimTime::ZERO, window_end, SimDuration::from_secs(1));

    let mut rng = SimRng::seed_from_u64(seed ^ 0xF161);
    let mut series = Vec::with_capacity(samples.len());
    let mut err = Summary::new();
    let mut abs_err = Summary::new();
    let mut sim_integral = 0.0;
    let mut real_integral = 0.0;
    for (t, sim_w) in samples {
        let real_w = sim_w + rng.normal(REFERENCE_BIAS_WATTS, REFERENCE_NOISE_STD);
        series.push((t.as_millis() / 1000, sim_w, real_w));
        err.push(real_w - sim_w);
        abs_err.push((real_w - sim_w).abs());
        sim_integral += sim_w; // 1-second samples: Σ W·s
        real_integral += real_w;
    }
    let sim_wh = sim_integral / 3600.0;
    let real_wh = real_integral / 3600.0;
    Validation {
        sim_wh,
        real_wh,
        underestimation_pct: 100.0 * (real_wh - sim_wh) / real_wh,
        inst_error_mean: abs_err.mean(),
        inst_error_std: err.std_dev(),
        series,
    }
}

/// Regenerates Figure 1.
pub fn run() -> ExperimentResult {
    let v = validate(42);
    let mut result = ExperimentResult::new(
        ID,
        "Figure 1 — simulator validation (1300 s, 7 tasks, one 4-way node)",
        "real 99.9 ± 1.8 Wh vs simulated 97.5 Wh (−2.4%); instantaneous \
         error 8.62 W, σ = 8.06 W (§IV-B).",
    );

    let mut table = Table::new(["Metric", "Paper", "Ours"]);
    table.row([
        "Real total (Wh)".to_string(),
        "99.9".into(),
        fnum(v.real_wh, 1),
    ]);
    table.row([
        "Simulated total (Wh)".to_string(),
        "97.5".into(),
        fnum(v.sim_wh, 1),
    ]);
    table.row([
        "Underestimation (%)".to_string(),
        "2.4".into(),
        fnum(v.underestimation_pct, 1),
    ]);
    table.row([
        "Instantaneous error (W)".to_string(),
        "8.62".into(),
        fnum(v.inst_error_mean, 2),
    ]);
    table.row([
        "Error σ (W)".to_string(),
        "8.06".into(),
        fnum(v.inst_error_std, 2),
    ]);
    result.tables.push(("Validation summary".into(), table));

    let mut csv = String::from("t_secs,sim_watts,real_watts\n");
    for (t, s, r) in &v.series {
        csv.push_str(&format!("{t},{s:.2},{r:.2}\n"));
    }
    result.artifacts.push(("fig1_power_series.csv".into(), csv));

    result.notes.push(
        "the reference trace is synthetic (simulated signal + unmodeled-baseline \
         bias + meter noise, per DESIGN.md §3): this experiment validates the \
         energy-integration pipeline and reproduces Fig. 1's *error structure*, \
         not an independent physical measurement"
            .into(),
    );
    result.notes.push(format!(
        "total-energy agreement within {:.1}% (paper: 2.4%) while instantaneous \
         divergence is an order of magnitude larger — the paper's key point that \
         total accuracy matters more than instantaneous accuracy",
        v.underestimation_pct.abs()
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_reproduces_fig1_error_structure() {
        let v = validate(42);
        // Totals in the right ballpark: one node drawing 230–304 W for
        // 1300 s is 83–110 Wh.
        assert!((80.0..115.0).contains(&v.sim_wh), "sim {}", v.sim_wh);
        // Small total underestimation (paper: 2.4%).
        assert!(
            (0.5..5.0).contains(&v.underestimation_pct),
            "underestimation {}",
            v.underestimation_pct
        );
        // Instantaneous error an order of magnitude larger, like Fig. 1.
        assert!(
            (5.0..13.0).contains(&v.inst_error_mean),
            "inst err {}",
            v.inst_error_mean
        );
        assert_eq!(v.series.len(), 1301, "1 Hz over [0, 1300]");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = validate(7);
        let b = validate(7);
        assert_eq!(a.sim_wh, b.sim_wh);
        assert_eq!(a.real_wh, b.real_wh);
    }

    #[test]
    fn sim_power_shows_load_phases() {
        let v = validate(42);
        // Near idle at the very start: idle draw plus the first VM's
        // creation overhead (50 cpu% of dom0 work) ≈ 244 W < loaded draw.
        assert!(v.series[5].1 <= 250.0, "start {}", v.series[5].1);
        // The full-load spike around t = 400–500 reaches ≥ 295 W.
        let peak = v.series[380..520].iter().map(|s| s.1).fold(0.0, f64::max);
        assert!(peak >= 295.0, "peak {peak}");
    }
}
