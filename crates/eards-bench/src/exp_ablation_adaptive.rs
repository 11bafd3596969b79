//! Extension ablation — dynamic λ thresholds.
//!
//! §V-A closes with: "A next step would be to dynamically adjust these
//! thresholds, which is part of our future work." This experiment builds
//! that controller (a satisfaction-feedback loop on λ_min, see
//! [`eards_datacenter::AdaptiveLambda`]) and compares it against the
//! static settings of the paper on the standard week: the adaptive run
//! should approach the energy of the best hand-tuned static λ_min while
//! holding the satisfaction target — without anyone sweeping Figure 2
//! first.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{paper_datacenter, run_sweep, AdaptiveLambda, RunConfig, SweepPoint};
use eards_metrics::{RunReport, Table};
use eards_model::Policy;

use crate::common::{paper_trace, verdict, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "ablation_adaptive_lambda";

/// Satisfaction target the adaptive controller holds.
pub const TARGET_S: f64 = 99.0;

/// Runs static λ ∈ {20, 30, 40, 50}–90 plus the adaptive controller.
pub fn reports() -> Vec<RunReport> {
    let sb = || -> Box<dyn Policy> { Box::new(ScoreScheduler::new(ScoreConfig::sb())) };
    let mut points: Vec<SweepPoint> = [20u32, 30, 40, 50]
        .iter()
        .map(|&lo| SweepPoint {
            label: format!("static λ{lo}-90"),
            config: RunConfig::default().with_lambdas(lo, 90),
            policy: Box::new(sb),
        })
        .collect();
    points.push(SweepPoint {
        label: format!("adaptive (target {TARGET_S}%)"),
        config: RunConfig {
            adaptive_lambda: Some(AdaptiveLambda {
                target_satisfaction: TARGET_S,
                ..AdaptiveLambda::default()
            }),
            ..RunConfig::default()
        },
        policy: Box::new(sb),
    });
    run_sweep(&paper_datacenter(), &paper_trace(), points, None)
}

/// Runs the dynamic-threshold ablation.
pub fn run() -> ExperimentResult {
    let reports = reports();
    let mut result = ExperimentResult::new(
        ID,
        "Extension — dynamic λ thresholds (feedback controller)",
        "not evaluated in the paper (future work, §V-A): static thresholds \
         trade power against SLA; a dynamic controller should track the \
         provider's satisfaction target automatically.",
    );
    let mut t = Table::new(RunReport::paper_header());
    for r in &reports {
        t.row(r.paper_row());
    }
    result
        .tables
        .push(("Static λ_min settings vs the adaptive controller".into(), t));

    let adaptive = reports.last().expect("adaptive run present");
    // Best static setting that still meets the target.
    let best_static_ok = reports[..reports.len() - 1]
        .iter()
        .filter(|r| r.satisfaction_pct >= TARGET_S)
        .min_by(|a, b| a.energy_kwh.total_cmp(&b.energy_kwh));
    // Most frugal static setting overall (may violate the target).
    let most_frugal = reports[..reports.len() - 1]
        .iter()
        .min_by(|a, b| a.energy_kwh.total_cmp(&b.energy_kwh))
        .expect("non-empty");

    result.notes.push(format!(
        "adaptive holds the satisfaction target ({:.2}% vs target {TARGET_S}%): {}",
        adaptive.satisfaction_pct,
        verdict(adaptive.satisfaction_pct >= TARGET_S - 0.5)
    ));
    if let Some(best) = best_static_ok {
        result.notes.push(format!(
            "adaptive energy ({:.1} kWh) is within 10% of the best hand-tuned \
             static setting that meets the target ({}: {:.1} kWh): {}",
            adaptive.energy_kwh,
            best.label,
            best.energy_kwh,
            verdict(adaptive.energy_kwh <= best.energy_kwh * 1.10)
        ));
    }
    result.notes.push(format!(
        "the most frugal static setting ({}: {:.1} kWh at {:.2}% S) shows what \
         the adaptive controller is trading away when it protects the target",
        most_frugal.label, most_frugal.energy_kwh, most_frugal.satisfaction_pct
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_controller_holds_target_and_stays_competitive() {
        let r = run();
        let violated = r.notes.iter().filter(|n| n.contains("VIOLATED")).count();
        assert_eq!(violated, 0, "{:#?}", r.notes);
    }
}
