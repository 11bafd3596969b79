//! Extension ablation — reliability and fault tolerance.
//!
//! §III-A.6 defines the `P_fault` penalty and §III-C the checkpoint-based
//! recovery, but the paper defers their evaluation to future work ("an
//! environment with failures"). This experiment builds that environment:
//! a datacenter where a quarter of the nodes are flaky (reliability
//! 0.95–0.99, i.e. hours-scale MTTF when up), failure injection driven
//! by each node's reliability factor, and three SB variants:
//!
//! 1. **SB** — reliability-blind;
//! 2. **SB+fault** — `P_fault` enabled: placement avoids flaky nodes and
//!    the power-on ranking prefers reliable ones;
//! 3. **SB+fault+ckpt** — additionally checkpoints running VMs every
//!    10 minutes, so a failure loses at most one checkpoint interval.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{run_sweep, RunConfig, SweepPoint};
use eards_metrics::{RunReport, Table};
use eards_model::{FaultPlan, HostClass, HostId, HostSpec};
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig};

use crate::common::{verdict, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "ablation_reliability";

/// A 40-node datacenter where every fourth node is flaky. Interleaving
/// (rather than clustering the flaky nodes at the high ids) matters: a
/// blind policy's id-order tiebreaks must not dodge them by accident.
pub fn flaky_datacenter() -> Vec<HostSpec> {
    (0..40u32)
        .map(|i| {
            let mut spec = HostSpec::standard(HostId(i), HostClass::Medium);
            if i % 4 == 0 {
                // Availability 0.95–0.99: with a 30-minute repair time this
                // is an MTTF of ~0.5–3 hours while powered.
                spec.reliability = 0.95 + 0.004 * f64::from(i / 4);
            }
            spec
        })
        .collect()
}

fn variant(fault: bool, ckpt: bool) -> SweepPoint {
    let mut cfg = ScoreConfig::sb();
    cfg.fault_penalty = fault;
    let name = match (fault, ckpt) {
        (false, _) => "SB (blind)",
        (true, false) => "SB+fault",
        (true, true) => "SB+fault+ckpt",
    };
    let score = cfg.named(name);
    SweepPoint {
        label: name.to_string(),
        config: RunConfig {
            checkpoint_period: ckpt.then(|| SimDuration::from_mins(10)),
            ..RunConfig::default()
        }
        // Reliability-driven crashes with the default 30-minute repair.
        .with_faults(FaultPlan::crashes()),
        policy: Box::new(move || Box::new(ScoreScheduler::new(score.clone()))),
    }
}

/// Runs the three variants over a 3-day trace.
pub fn reports() -> Vec<RunReport> {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_days(3),
            ..SynthConfig::grid5000_week()
        },
        crate::common::TRACE_SEED,
    );
    let points = [(false, false), (true, false), (true, true)]
        .into_iter()
        .map(|(fault, ckpt)| variant(fault, ckpt))
        .collect();
    run_sweep(&flaky_datacenter(), &trace, points, None)
}

/// Runs the reliability ablation.
pub fn run() -> ExperimentResult {
    let reports = reports();
    let mut result = ExperimentResult::new(
        ID,
        "Extension — reliability-aware scheduling under failures",
        "not evaluated in the paper (future work, §VI); §III-A.6 predicts \
         that nodes with a failure probability get penalized so VMs prefer \
         reliable hosts, and §III-C that failed VMs recover from their last \
         checkpoint.",
    );

    let mut t = Table::new([
        "Variant",
        "Pwr (kWh)",
        "S (%)",
        "delay (%)",
        "Host failures",
        "VMs displaced",
        "Jobs done",
    ]);
    for r in &reports {
        t.row([
            r.label.clone(),
            eards_metrics::fnum(r.energy_kwh, 1),
            eards_metrics::fnum(r.satisfaction_pct, 1),
            eards_metrics::fnum(r.delay_pct, 1),
            r.host_failures.to_string(),
            r.vms_displaced.to_string(),
            format!("{}/{}", r.jobs_completed, r.jobs_total),
        ]);
    }
    result.tables.push((
        "Failure injection (10/40 flaky nodes, 3-day trace)".into(),
        t,
    ));

    let blind = &reports[0];
    let fault = &reports[1];
    let ckpt = &reports[2];
    result.notes.push(format!(
        "P_fault steers load off flaky nodes: VMs displaced by failures {} \
         (blind) vs {} (fault-aware): {}",
        blind.vms_displaced,
        fault.vms_displaced,
        verdict(fault.vms_displaced <= blind.vms_displaced)
    ));
    result.notes.push(format!(
        "fault awareness preserves satisfaction under failures ({:.1}% vs \
         blind {:.1}%): {}",
        fault.satisfaction_pct,
        blind.satisfaction_pct,
        verdict(fault.satisfaction_pct >= blind.satisfaction_pct - 0.2)
    ));
    result.notes.push(format!(
        "checkpointing bounds lost work (S {:.1}% vs {:.1}%, delay {:.1}% vs \
         {:.1}%) at a small CPU/energy overhead: {}",
        ckpt.satisfaction_pct,
        fault.satisfaction_pct,
        ckpt.delay_pct,
        fault.delay_pct,
        verdict(ckpt.satisfaction_pct >= fault.satisfaction_pct - 0.3)
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_datacenter_shape() {
        let dc = flaky_datacenter();
        assert_eq!(dc.len(), 40);
        assert_eq!(dc.iter().filter(|h| h.reliability < 1.0).count(), 10);
        for h in &dc {
            assert!((0.95..=1.0).contains(&h.reliability));
        }
    }

    #[test]
    fn failures_actually_happen_and_recovery_works() {
        let reports = reports();
        let blind = &reports[0];
        assert!(blind.host_failures > 0, "no failures injected");
        // The system survives: the vast majority of jobs still complete.
        assert!(
            blind.jobs_completed as f64 >= 0.95 * blind.jobs_total as f64,
            "{}/{}",
            blind.jobs_completed,
            blind.jobs_total
        );
        assert!(blind.vms_displaced > 0, "failures never hit a working node");
        // Fault awareness reduces (or at worst matches) *VM* exposure —
        // idle-host failures are harmless and not what P_fault optimizes.
        assert!(reports[1].vms_displaced <= blind.vms_displaced);
    }
}
