//! System-level tests of the overload-control layer: the hard identity
//! gate (an armed-but-unlimited budget is bit-identical to an unarmed
//! run), and runner backpressure (flapping VMs are parked — bounded
//! retry — and released without ever being lost).

use eards_core::{OverloadControl, ScoreConfig, ScoreScheduler};
use eards_datacenter::{render_log, small_datacenter, AuditorMode, RunConfig, Runner};
use eards_model::{FaultPlan, HostClass, Policy};
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig, Trace};

fn world(hosts: u32, hours: u64, trace_seed: u64) -> (Vec<eards_model::HostSpec>, Trace) {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_hours(hours),
            ..SynthConfig::grid5000_week()
        },
        trace_seed,
    );
    (small_datacenter(hosts, HostClass::Medium), trace)
}

fn chaos_config(sim_seed: u64, intensity: f64) -> RunConfig {
    RunConfig {
        audit: true,
        seed: sim_seed,
        ..RunConfig::default()
    }
    .with_faults(FaultPlan::chaos(intensity))
}

/// The identity gate: arming overload control with an unlimited budget
/// must leave a chaos run bit-identical to an unarmed one — the work
/// meter is purely additive accounting, and an unlimited ladder never
/// leaves L0.
#[test]
fn unlimited_budget_run_is_bit_identical_to_unarmed() {
    let (h, t) = world(5, 2, 17);
    let plain: Box<dyn Policy> = Box::new(ScoreScheduler::new(ScoreConfig::full()));
    let (r0, a0) = Runner::new(h, t, plain, chaos_config(23, 1.5)).run_audited();

    let (h, t) = world(5, 2, 17);
    let armed: Box<dyn Policy> = Box::new(
        ScoreScheduler::new(ScoreConfig::full())
            .with_overload(OverloadControl::with_budget(u64::MAX)),
    );
    let (r1, a1) = Runner::new(h, t, armed, chaos_config(23, 1.5)).run_audited();

    assert_eq!(
        format!("{r0:?}\n{}", render_log(&a0)),
        format!("{r1:?}\n{}", render_log(&a1)),
    );
}

/// Backpressure under sustained flapping: with a retry cap of 0 and an
/// aggressive fault plan, the first failed creation parks its VM. The
/// Strict auditor (deep `Cluster::verify` every batch, plus the runner's
/// parked-VM checks) proves no VM is ever lost, and the run still
/// completes.
#[test]
fn flapping_vms_are_parked_and_never_lost() {
    let (h, t) = world(3, 2, 41);
    let policy: Box<dyn Policy> = Box::new(
        ScoreScheduler::new(ScoreConfig::full()).with_overload(OverloadControl::with_budget(1500)),
    );
    let mut cfg = chaos_config(7, 3.0);
    cfg.auditor = AuditorMode::Strict;
    cfg.park_after = Some(0);
    let mut runner = Runner::new(h, t, policy, cfg);
    while runner.step_batch() {}
    assert!(
        runner.vms_parked() > 0,
        "chaos(3.0) with park_after=0 must park at least one VM"
    );
    let stats = runner
        .policy()
        .degrade_stats()
        .expect("armed policy reports degrade stats");
    assert!(stats.rounds > 0);
    assert!(
        stats.max_round_work <= 1500 + slack(3, 64),
        "per-round work {} must respect budget + one move's slack",
        stats.max_round_work
    );
    let (report, audit) = runner.finish();
    // Parked VMs surface in the audit log, and their release too when the
    // blacklist cleared before the end of the run.
    let log = render_log(&audit);
    assert!(log.contains("PARKED"), "audit log records parking:\n{log}");
    // The run produced a coherent report (jobs either done or accounted).
    assert!(report.jobs_total > 0);
}

/// Legacy mode (degrade off) never parks, whatever the fault plan does.
#[test]
fn without_degrade_mode_nothing_is_parked() {
    let (h, t) = world(3, 1, 41);
    let policy: Box<dyn Policy> = Box::new(ScoreScheduler::new(ScoreConfig::full()));
    let mut runner = Runner::new(h, t, policy, chaos_config(7, 3.0));
    while runner.step_batch() {}
    assert_eq!(runner.vms_parked(), 0);
}

/// The one-sweep slack bound on budget overshoot: the solver checks the
/// meter between sweeps, so a round can overshoot by at most the engine
/// build (fill m·n plus candidate lists m·n) or one later sweep (at most
/// m·n + 5n).
fn slack(hosts: usize, vms: usize) -> u64 {
    (2 * hosts * vms + 2 * vms + hosts) as u64
}
