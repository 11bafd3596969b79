//! Chaos-engine guarantees: reproducible fault schedules, retry/backoff
//! recovery, flapping-host blacklisting, zero-cost-when-disabled, and the
//! invariant auditor staying clean under arbitrary fault plans.

use proptest::prelude::*;

use eards::datacenter::{render_log, AuditEvent, AuditKind};
use eards::prelude::*;

fn trace(hours: u64, seed: u64) -> Trace {
    eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(hours),
            ..SynthConfig::grid5000_week()
        },
        seed,
    )
}

fn chaos_run(
    policy: Box<dyn Policy>,
    plan: FaultPlan,
    hours: u64,
    audit: bool,
) -> (RunReport, Vec<AuditEvent>) {
    let hosts = eards::datacenter::small_datacenter(8, HostClass::Medium);
    let cfg = RunConfig {
        audit,
        ..RunConfig::default()
    }
    .with_faults(plan);
    Runner::new(hosts, trace(hours, 42), policy, cfg).run_audited()
}

#[test]
fn same_plan_seed_gives_bit_identical_audit_logs() {
    let plan = FaultPlan::chaos(1.5).with_seed(9);
    let run = || {
        chaos_run(
            Box::new(ScoreScheduler::new(ScoreConfig::full())),
            plan.clone(),
            6,
            true,
        )
    };
    let (ra, la) = run();
    let (rb, lb) = run();
    assert_eq!(render_log(&la), render_log(&lb));
    assert_eq!(ra.energy_kwh.to_bits(), rb.energy_kwh.to_bits());
    assert_eq!(ra.faults, rb.faults);
    assert!(
        ra.host_failures + ra.faults.creation_failures > 0,
        "chaos x1.5 must fire something in 6 hours"
    );
}

#[test]
fn fault_schedule_is_per_host_across_policies() {
    // With every host pinned on (initial_on = min_exec = all, λ_min 0 via
    // min_exec), the slowdown schedule depends only on the plan seed —
    // not on the policy. Different policies must see identical episodes.
    let mut plan = FaultPlan::none();
    plan.slowdown = Some(SlowdownPlan {
        mtbe: SimDuration::from_hours(2),
        ..SlowdownPlan::default()
    });
    plan.seed = Some(5);
    let run = |policy: Box<dyn Policy>| {
        let hosts = eards::datacenter::small_datacenter(6, HostClass::Medium);
        let cfg = RunConfig {
            audit: true,
            initial_on: 6,
            min_exec: 6,
            ..RunConfig::default()
        }
        .with_faults(plan.clone());
        let (_, log) = Runner::new(hosts, trace(8, 42), policy, cfg).run_audited();
        log.into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    AuditKind::SlowdownStarted { .. } | AuditKind::SlowdownEnded { .. }
                )
            })
            .collect::<Vec<_>>()
    };
    let a = run(Box::new(BackfillingPolicy::new()));
    let b = run(Box::new(ScoreScheduler::new(ScoreConfig::sb())));
    assert!(!a.is_empty(), "2h MTBE over 8h on 6 hosts must fire");
    // The runs end at different instants (each stops when its last job
    // completes), so compare the schedules over their common span.
    let n = a.len().min(b.len());
    assert!(n > 0);
    assert_eq!(&a[..n], &b[..n], "slowdown schedule leaked policy state");
}

/// An arrival ties with a queued timer on `(time, handle)`, the job
/// sorting as `(submit, seq0)`: `seq0` is the queue's next handle at the
/// point of `Runner::start` after the initial fault timers are armed. Read
/// a crash instant and the repair instant it schedules from a chaos run's
/// audit log, then submit one job at each. The crash timer was armed in
/// `start`, so it fires before the job arrives; the repair was scheduled
/// later, so the job arrives before it.
#[test]
fn arrivals_tie_with_timers_by_when_they_were_armed() {
    // Every host is up from the start and never powered off, so the first
    // crash comes from a timer armed in `start`. No racks: a rack outage
    // would crash hosts from its own timer.
    let mut plan = FaultPlan::chaos(1.0);
    plan.rack = None;
    let cfg = RunConfig {
        audit: true,
        initial_on: 8,
        min_exec: 8,
        ..RunConfig::default()
    }
    .with_faults(plan);
    let hosts = eards::datacenter::small_datacenter(8, HostClass::Medium);
    let run = |trace: Trace| {
        let policy = Box::new(BackfillingPolicy::new());
        Runner::new(hosts.clone(), trace, policy, cfg.clone())
            .run_audited()
            .1
    };
    let base = trace(6, 42);
    let log = run(base.clone());
    let (crash, host) = log
        .iter()
        .find_map(|e| match e.kind {
            AuditKind::HostFailed { host, .. } => Some((e.at, host)),
            _ => None,
        })
        .expect("chaos x1.0 crashes a host in 6 hours");
    let repair = log
        .iter()
        .find(|e| e.at > crash && e.kind == AuditKind::HostRepaired { host })
        .expect("the crashed host is repaired")
        .at;
    // Reruns with one more job submitted at `at`; returns the log
    // positions of the first entry at `at` that `timer` matches and of
    // the extra job's arrival.
    let order = |at: SimTime, timer: &dyn Fn(&AuditKind) -> bool| {
        let extra = JobId(1_000_000);
        let mut jobs = base.jobs().to_vec();
        jobs.push(Job::new(
            extra,
            at,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(600),
            1.5,
        ));
        let trace = Trace::new(jobs);
        let vm = trace.jobs().iter().position(|j| j.id == extra).unwrap();
        let vm = VmId(vm as u64);
        let log = run(trace);
        let position =
            |what: &str, f: &dyn Fn(&AuditEvent) -> bool| log.iter().position(f).expect(what);
        let timer = position("the timer fires", &|e| e.at == at && timer(&e.kind));
        let arrival = position("the job arrives", &|e| {
            e.kind == AuditKind::JobArrived { vm }
        });
        assert_eq!(log[arrival].at, at);
        (timer, arrival)
    };
    let crashed = |k: &AuditKind| matches!(*k, AuditKind::HostFailed { host: h, .. } if h == host);
    let (crashed, arrived) = order(crash, &crashed);
    assert!(crashed < arrived, "the arrival beat a timer armed in start");
    let (repaired, arrived) = order(repair, &|k| *k == AuditKind::HostRepaired { host });
    assert!(
        arrived < repaired,
        "a timer scheduled later beat the arrival"
    );
}

#[test]
fn creation_failures_recover_via_backoff() {
    let mut plan = FaultPlan::none();
    plan.creation_failure_prob = 0.5;
    let (report, log) = chaos_run(Box::new(BackfillingPolicy::new()), plan, 6, true);
    assert!(
        report.faults.creation_failures > 0,
        "p=0.5 must doom some creations"
    );
    assert!(report.faults.retries_delayed > 0, "failures must back off");
    assert!(report.faults.recoveries > 0, "failed VMs must come back");
    assert!(report.faults.mean_recovery_secs > 0.0);
    assert!(report.faults.max_recovery_secs >= report.faults.mean_recovery_secs);
    assert_eq!(report.faults.invariant_violations, 0);
    // Despite every other creation failing, the system digests the load.
    assert!(
        report.jobs_completed as f64 >= 0.9 * report.jobs_total as f64,
        "{}/{}",
        report.jobs_completed,
        report.jobs_total
    );
    assert!(log
        .iter()
        .any(|e| matches!(e.kind, AuditKind::CreationFailed { .. })));
}

#[test]
fn flapping_hosts_get_blacklisted() {
    let mut plan = FaultPlan::crashes();
    plan.crash_mttf = Some(SimDuration::from_mins(40)); // flaps constantly
    plan.mttr = SimDuration::from_mins(10);
    let (report, log) = chaos_run(Box::new(BackfillingPolicy::new()), plan, 8, true);
    assert!(
        report.faults.hosts_blacklisted > 0,
        "40 min MTTF over 8 h must trip the 3-crash blacklist \
         ({} crashes seen)",
        report.host_failures
    );
    assert!(log
        .iter()
        .any(|e| matches!(e.kind, AuditKind::HostBlacklisted { .. })));
    assert_eq!(report.faults.invariant_violations, 0);
}

#[test]
fn disabled_faults_and_auditor_cost_nothing() {
    // The fault layer must be invisible when off: a default run, an
    // explicit FaultPlan::none() run and an auditor-off run all produce
    // bit-identical reports.
    let run = |cfg: RunConfig| {
        let hosts = eards::datacenter::small_datacenter(8, HostClass::Medium);
        Runner::new(
            hosts,
            trace(6, 42),
            Box::new(ScoreScheduler::new(ScoreConfig::sb())),
            cfg,
        )
        .run()
    };
    let base = run(RunConfig::default());
    let none = run(RunConfig::default().with_faults(FaultPlan::none()));
    let off = run(RunConfig::default().with_auditor(AuditorMode::Off));
    for other in [&none, &off] {
        assert_eq!(base.energy_kwh.to_bits(), other.energy_kwh.to_bits());
        assert_eq!(
            base.satisfaction_pct.to_bits(),
            other.satisfaction_pct.to_bits()
        );
        assert_eq!(base.migrations, other.migrations);
        assert_eq!(base.creations, other.creations);
        assert_eq!(base.jobs_completed, other.jobs_completed);
    }
    // The always-on auditor actually audited; off mode did not.
    assert!(base.faults.invariant_checks > 0);
    assert_eq!(base.faults.invariant_violations, 0);
    assert_eq!(off.faults.invariant_checks, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No VM is ever lost or double-placed under arbitrary fault plans:
    /// the always-on auditor must stay clean and every admitted job must
    /// be accounted for in the report.
    #[test]
    fn arbitrary_fault_plans_never_lose_vms(
        intensity in 0.0f64..3.0,
        boot_p in 0.0f64..0.4,
        create_p in 0.0f64..0.4,
        migrate_p in 0.0f64..0.4,
        plan_seed in any::<u64>(),
        policy_idx in any::<u8>(),
    ) {
        let mut plan = FaultPlan::chaos(intensity);
        plan.boot_failure_prob = boot_p;
        plan.creation_failure_prob = create_p;
        plan.migration_abort_prob = migrate_p;
        plan.seed = Some(plan_seed);
        let policy: Box<dyn Policy> = match policy_idx % 3 {
            0 => Box::new(BackfillingPolicy::new()),
            1 => Box::new(DynamicBackfillingPolicy::new()),
            _ => Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        };
        let (report, _) = chaos_run(policy, plan, 3, false);
        prop_assert!(report.faults.invariant_checks > 0, "auditor never ran");
        prop_assert_eq!(report.faults.invariant_violations, 0);
        // Conservation at the report level: every admitted job is either
        // completed or reported unfinished — none vanish, none duplicate.
        prop_assert_eq!(report.jobs.len() as u64, report.jobs_total);
        let done = report.jobs.iter().filter(|j| j.completed.is_some()).count() as u64;
        prop_assert_eq!(done, report.jobs_completed);
    }
}
