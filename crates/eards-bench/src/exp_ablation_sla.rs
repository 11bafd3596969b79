//! Extension ablation — dynamic SLA enforcement under overload.
//!
//! §III-A.5 defines the `P_SLA` penalty and the request-escalation
//! mechanism ("we increase the amount of needed resources for that VM ...
//! so the VM will be rescheduled in another node with more available
//! resources"); the paper leaves its evaluation to future work. This
//! experiment stresses a smaller datacenter (25 nodes) with a 1.5×
//! overloaded trace and compares:
//!
//! 1. **SB** — deadline-blind scheduling;
//! 2. **SB+SLA** — `P_SLA` enabled, SLA-violation rounds allowed to move
//!    VMs, and violated VMs' resource requests escalated so rescheduling
//!    reserves them headroom against operation-overhead contention.
//!
//! Under strict (non-overcommitted) placement the enforcement channel is
//! narrow by construction — a running VM already receives its full demand
//! unless dom0 operations eat into the node — so the honest expectation
//! is a *small* satisfaction edge, not a rescue. The experiment reports
//! whatever is measured.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{run_sweep, small_datacenter, RunConfig, SweepPoint};
use eards_metrics::{RunReport, Table};
use eards_model::HostClass;
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig};

use crate::common::{verdict, ExperimentResult};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "ablation_sla";

/// Runs both variants over a 3-day, 1.5×-load trace on 25 nodes.
pub fn reports() -> Vec<RunReport> {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_days(3),
            ..SynthConfig::grid5000_week()
        }
        .with_load_factor(1.5),
        crate::common::TRACE_SEED,
    );
    let mut sla = ScoreConfig::sb();
    sla.sla_penalty = true;
    let sla = sla.named("SB+SLA");
    let points = vec![
        SweepPoint {
            label: "SB".into(),
            config: RunConfig::default(),
            policy: Box::new(|| Box::new(ScoreScheduler::new(ScoreConfig::sb()))),
        },
        SweepPoint {
            label: "SB+SLA".into(),
            config: RunConfig {
                dynamic_sla: true,
                ..RunConfig::default()
            },
            policy: Box::new(move || Box::new(ScoreScheduler::new(sla.clone()))),
        },
    ];
    run_sweep(
        &small_datacenter(25, HostClass::Medium),
        &trace,
        points,
        None,
    )
}

/// Runs the SLA-enforcement ablation.
pub fn run() -> ExperimentResult {
    let reports = reports();
    let mut result = ExperimentResult::new(
        ID,
        "Extension — dynamic SLA enforcement under overload",
        "not evaluated in the paper (future work, §VI); §III-A.5 predicts \
         violated VMs get rescheduled with escalated resource requests, \
         recovering SLAs at some consolidation cost.",
    );

    let mut t = Table::new(RunReport::paper_header());
    for r in &reports {
        t.row(r.paper_row());
    }
    result
        .tables
        .push(("25 nodes, 1.5× load, 3-day trace".into(), t));

    let plain = &reports[0];
    let sla = &reports[1];
    result.notes.push(format!(
        "SLA awareness does not hurt satisfaction ({:.2}% vs {:.2}%): {}",
        sla.satisfaction_pct,
        plain.satisfaction_pct,
        verdict(sla.satisfaction_pct >= plain.satisfaction_pct - 0.3)
    ));
    result.notes.push(format!(
        "measured SLA-awareness delta: ΔS = {:+.2} points, Δdelay = {:+.2} \
         points, Δenergy = {:+.1} kWh — small by construction: without CPU \
         overcommit a running VM already gets its full demand, so the \
         enforcement only acts through violation-triggered rescheduling and \
         headroom reservation against dom0 operation overheads",
        sla.satisfaction_pct - plain.satisfaction_pct,
        sla.delay_pct - plain.delay_pct,
        sla.energy_kwh - plain.energy_kwh
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_and_enforcement_complete() {
        let reports = reports();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            // Overloaded but viable: most jobs complete either way.
            assert!(
                r.jobs_completed as f64 >= 0.9 * r.jobs_total as f64,
                "{}: {}/{}",
                r.label,
                r.jobs_completed,
                r.jobs_total
            );
        }
        // Enforcement must not make things worse.
        assert!(reports[1].satisfaction_pct >= reports[0].satisfaction_pct - 0.5);
    }
}
