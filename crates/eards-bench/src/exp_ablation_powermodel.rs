//! Ablation — where do the savings come from? Power-model comparison.
//!
//! §IV-A observes that some machines draw constant power regardless of
//! load ("these machines should be avoided because no wattage reduction
//! can be obtained") and cites Barroso & Hölzle's energy-proportionality
//! ideal as where the industry should go. This ablation reruns BF vs the
//! tuned SB under three power models:
//!
//! * **calibrated** — the paper's Table-I machine (230 W idle / 304 W
//!   peak): savings come from *turning nodes off* and, secondarily, from
//!   the load curve;
//! * **constant** — 270 W whenever on: consolidation pays *only* through
//!   turn-off, so the SB-vs-BF gap should persist (it is a turn-off gap);
//! * **proportional** — 0 W idle, linear to 304 W: total energy is pinned
//!   to the work integral, so policy choice barely matters — the paper's
//!   whole mechanism exists *because* real machines are not proportional.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{paper_datacenter, RunConfig, Runner};
use eards_metrics::{fnum, pct_change, RunReport, Table};
use eards_model::{
    CalibratedPowerModel, ConstantPowerModel, DvfsPowerModel, EnergyProportionalModel, Policy,
    PowerModel,
};
use eards_policies::BackfillingPolicy;

use crate::common::{paper_trace, verdict, ExperimentResult};

fn model(name: &str) -> Box<dyn PowerModel> {
    match name {
        "calibrated" => Box::new(CalibratedPowerModel::paper_4way()),
        "dvfs-3state" => Box::new(DvfsPowerModel::three_state_4way()),
        "constant" => Box::new(ConstantPowerModel { watts: 270.0 }),
        "proportional" => Box::new(EnergyProportionalModel { peak_watts: 304.0 }),
        _ => unreachable!(),
    }
}

fn policy(name: &str) -> Box<dyn Policy> {
    match name {
        "BF" => Box::new(BackfillingPolicy::new()),
        _ => Box::new(ScoreScheduler::new(ScoreConfig::sb())),
    }
}

/// Runs BF λ30-90 and SB λ40-90 under each model; returns
/// `(model, policy, report)` rows.
pub fn reports() -> Vec<(String, String, RunReport)> {
    let trace = paper_trace();
    let mut out = Vec::new();
    for m in ["calibrated", "dvfs-3state", "constant", "proportional"] {
        for (p, lambdas) in [("BF", (30, 90)), ("SB", (40, 90))] {
            let report = Runner::with_power_model(
                paper_datacenter(),
                trace.clone(),
                policy(p),
                RunConfig::default().with_lambdas(lambdas.0, lambdas.1),
                model(m),
            )
            .labeled(format!("{p} λ{}-{}", lambdas.0, lambdas.1))
            .run();
            out.push((m.to_string(), p.to_string(), report));
        }
    }
    out
}

/// Runs the power-model ablation.
pub fn run() -> ExperimentResult {
    let rows = reports();
    let mut result = ExperimentResult::new(
        "ablation_power_model",
        "Ablation — SB's savings under different machine power curves",
        "§IV-A: constant-draw machines defeat load-based savings (only \
         turn-off helps); energy-proportional machines (the cited ideal) \
         would shrink the benefit of consolidation itself.",
    );

    let mut t = Table::new(["Power model", "Policy", "Pwr (kWh)", "S (%)", "SB vs BF"]);
    let mut savings = std::collections::HashMap::new();
    for m in ["calibrated", "dvfs-3state", "constant", "proportional"] {
        let bf = &rows
            .iter()
            .find(|(rm, rp, _)| rm == m && rp == "BF")
            .unwrap()
            .2;
        let sb = &rows
            .iter()
            .find(|(rm, rp, _)| rm == m && rp == "SB")
            .unwrap()
            .2;
        let delta = pct_change(bf.energy_kwh, sb.energy_kwh);
        savings.insert(m, delta);
        for (p, r) in [("BF", bf), ("SB", sb)] {
            t.row([
                m.to_string(),
                p.to_string(),
                fnum(r.energy_kwh, 1),
                fnum(r.satisfaction_pct, 1),
                if p == "SB" {
                    format!("{delta:+.1}%")
                } else {
                    String::new()
                },
            ]);
        }
    }
    result
        .tables
        .push(("BF λ30-90 vs SB λ40-90 per power curve".into(), t));

    let cal = savings["calibrated"];
    let dvfs = savings["dvfs-3state"];
    let con = savings["constant"];
    let pro = savings["proportional"];
    result.notes.push(format!(
        "savings persist on constant-draw machines ({con:.1}%) because they \
         come from turning nodes off, not from the load curve: {}",
        verdict(con < -8.0)
    ));
    result.notes.push(format!(
        "on energy-proportional machines the gap collapses \
         ({pro:.1}% vs {cal:.1}% calibrated): consolidation's energy case \
         rests on idle draw, exactly the paper's §IV-A argument: {}",
        verdict(pro > cal + 2.0)
    ));
    result.notes.push(format!(
        "an explicit stepped-DVFS governor behaves like the smooth calibrated \
         curve ({dvfs:.1}% vs {cal:.1}%) — Table I already *is* the governor, \
         seen through its envelope: {}",
        verdict((dvfs - cal).abs() < 5.0)
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_model_ablation_shape_holds() {
        let r = run();
        let violated = r.notes.iter().filter(|n| n.contains("VIOLATED")).count();
        assert_eq!(violated, 0, "{:#?}", r.notes);
    }
}
