//! Audit-log consistency: the recorded timeline must obey the lifecycle
//! protocol for every VM and host, and agree with the aggregate report.

use std::collections::HashMap;

use eards::datacenter::{AuditEvent, AuditKind};
use eards::prelude::*;
use eards_obs::Obs;

fn audited_run(seed: u64, migration: bool) -> (RunReport, Vec<AuditEvent>) {
    let hosts = eards::datacenter::small_datacenter(8, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(6),
            ..SynthConfig::grid5000_week()
        },
        seed,
    );
    let cfg = RunConfig {
        audit: true,
        ..RunConfig::default()
    };
    let policy: Box<dyn Policy> = if migration {
        Box::new(ScoreScheduler::new(ScoreConfig::sb()))
    } else {
        Box::new(BackfillingPolicy::new())
    };
    Runner::new(hosts, trace, policy, cfg).run_audited()
}

#[test]
fn log_is_time_ordered_and_counts_match_report() {
    let (report, audit) = audited_run(5, true);
    assert!(!audit.is_empty());
    for w in audit.windows(2) {
        assert!(w[0].at <= w[1].at, "audit log out of order");
    }
    let count = |f: fn(&AuditKind) -> bool| audit.iter().filter(|e| f(&e.kind)).count() as u64;
    assert_eq!(
        count(|k| matches!(k, AuditKind::JobArrived { .. })),
        report.jobs_total
    );
    assert_eq!(
        count(|k| matches!(k, AuditKind::CreationStarted { .. })),
        report.creations
    );
    assert_eq!(
        count(|k| matches!(k, AuditKind::MigrationStarted { .. })),
        report.migrations
    );
    assert_eq!(
        count(|k| matches!(k, AuditKind::JobCompleted { .. })),
        report.jobs_completed
    );
}

/// `report.jobs` lists the jobs of the `JobCompleted` records in log
/// order, then the jobs still unfinished at the horizon in id order.
#[test]
fn report_jobs_follow_the_completion_log_then_id_order() {
    let hosts = eards::datacenter::small_datacenter(6, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(6),
            ..SynthConfig::grid5000_week()
        },
        5,
    );
    let job_ids: Vec<u64> = trace.jobs().iter().map(|j| j.id.raw()).collect();
    let cfg = RunConfig {
        audit: true,
        drain_limit: SimDuration::from_mins(30),
        ..RunConfig::default()
    };
    let policy = Box::new(ScoreScheduler::new(ScoreConfig::sb()));
    let (report, audit) = Runner::new(hosts, trace, policy, cfg).run_audited();

    let (mut completed, mut admitted) = (Vec::new(), 0);
    for e in &audit {
        match e.kind {
            AuditKind::JobArrived { .. } => admitted += 1, // VmId(n) is the n-th arrival
            AuditKind::JobCompleted { vm, .. } => completed.push(vm.raw() as usize),
            _ => {}
        }
    }
    let mut expected: Vec<usize> = completed.clone();
    expected.extend((0..admitted).filter(|vm| !completed.contains(vm)));
    assert!(
        completed.windows(2).any(|w| w[0] > w[1]) && expected.len() > completed.len(),
        "the run must finish jobs out of id order and leave some unfinished"
    );
    let got: Vec<u64> = report.jobs.iter().map(|j| j.job_id).collect();
    let expected: Vec<u64> = expected.iter().map(|&vm| job_ids[vm]).collect();
    assert_eq!(got, expected);
}

#[test]
fn every_vm_follows_the_lifecycle_protocol() {
    let (_, audit) = audited_run(6, true);

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum S {
        Queued,
        Creating,
        Running,
        Migrating,
        Done,
    }
    let mut state: HashMap<u64, S> = HashMap::new();
    for e in &audit {
        match &e.kind {
            AuditKind::JobArrived { vm } => {
                assert!(
                    state.insert(vm.raw(), S::Queued).is_none(),
                    "{vm} arrived twice"
                );
            }
            AuditKind::CreationStarted { vm, .. } => {
                let s = state.get_mut(&vm.raw()).expect("created before arrival");
                assert_eq!(*s, S::Queued, "{vm} created while {s:?}");
                *s = S::Creating;
            }
            AuditKind::VmStarted { vm, .. } => {
                let s = state.get_mut(&vm.raw()).expect("started before arrival");
                assert_eq!(*s, S::Creating, "{vm} started while {s:?}");
                *s = S::Running;
            }
            AuditKind::MigrationStarted { vm, from, to } => {
                assert_ne!(from, to);
                let s = state.get_mut(&vm.raw()).expect("migrated before arrival");
                assert_eq!(*s, S::Running, "{vm} migrated while {s:?}");
                *s = S::Migrating;
            }
            AuditKind::MigrationFinished { vm, .. } => {
                let s = state
                    .get_mut(&vm.raw())
                    .expect("finished unknown migration");
                assert_eq!(*s, S::Migrating, "{vm} finished migration while {s:?}");
                *s = S::Running;
            }
            AuditKind::JobCompleted { vm, satisfaction } => {
                assert!((0.0..=100.0).contains(satisfaction));
                let s = state.get_mut(&vm.raw()).expect("completed before arrival");
                assert_eq!(*s, S::Running, "{vm} completed while {s:?}");
                *s = S::Done;
            }
            _ => {}
        }
    }
    // Every tracked VM either finished or is mid-flight at the horizon.
    for (vm, s) in &state {
        assert!(
            matches!(
                s,
                S::Done | S::Queued | S::Creating | S::Running | S::Migrating
            ),
            "vm{vm} ended in {s:?}"
        );
    }
}

#[test]
fn host_power_transitions_alternate() {
    let (_, audit) = audited_run(7, true);
    // Per host: PoweringOn must be followed (eventually) by On before the
    // next PoweringOn; PoweringOff only after being On, and followed by
    // Off before the next PoweringOn.
    let mut on: HashMap<u32, bool> = HashMap::new(); // currently online?
    let mut booting: HashMap<u32, bool> = HashMap::new();
    let mut shutting: HashMap<u32, bool> = HashMap::new();
    let mut offs = 0;
    for e in &audit {
        match &e.kind {
            AuditKind::HostPoweringOn { host } => {
                assert!(
                    !on.get(&host.raw()).copied().unwrap_or(false),
                    "{host} booted while on"
                );
                assert!(
                    !booting.get(&host.raw()).copied().unwrap_or(false),
                    "{host} booted while booting"
                );
                assert!(
                    !shutting.get(&host.raw()).copied().unwrap_or(false),
                    "{host} booted before its shutdown completed"
                );
                booting.insert(host.raw(), true);
            }
            AuditKind::HostOn { host } => {
                assert!(
                    booting.remove(&host.raw()).unwrap_or(false)
                        || !on.get(&host.raw()).copied().unwrap_or(false),
                    "{host} came up without booting"
                );
                on.insert(host.raw(), true);
            }
            AuditKind::HostPoweringOff { host } => {
                assert!(
                    on.insert(host.raw(), false).unwrap_or(false)
                        // initial_on hosts were never logged as booting
                        || !booting.contains_key(&host.raw()),
                    "{host} shut down while off"
                );
                on.insert(host.raw(), false);
                shutting.insert(host.raw(), true);
            }
            AuditKind::HostOff { host } => {
                assert!(
                    shutting.remove(&host.raw()).unwrap_or(false),
                    "{host} went off without shutting down"
                );
                offs += 1;
            }
            _ => {}
        }
    }
    assert!(
        offs > 0,
        "no shutdown completed; the Off check ran on nothing"
    );
}

/// True if a rack outage struck a host mid-boot: a `BootFailed` at the
/// outage's instant, for a host of the struck rack that was booting.
fn rack_hit_a_booting_host(audit: &[AuditEvent], rack_size: usize) -> bool {
    let mut booting: HashMap<u32, bool> = HashMap::new();
    let mut outage: Option<(SimTime, usize)> = None;
    for e in audit {
        match e.kind {
            AuditKind::HostPoweringOn { host } => {
                booting.insert(host.raw(), true);
            }
            AuditKind::HostOn { host } => {
                booting.remove(&host.raw());
            }
            AuditKind::RackOutage { rack, .. } => outage = Some((e.at, rack)),
            AuditKind::BootFailed { host } => {
                let was_booting = booting.remove(&host.raw()).unwrap_or(false);
                if was_booting
                    && outage.is_some_and(|(at, rack)| {
                        at == e.at && host.raw() as usize / rack_size == rack
                    })
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// An audited chaos run in degrade mode (seed 24, 16 hosts, one day)
/// in which a rack outage strikes a booting host, the transition the
/// runner used to record in two places. Returns the report, the parked
/// count and the audit log.
fn chaos_run(obs: &Obs) -> (RunReport, u64, Vec<AuditEvent>) {
    let hosts = eards::datacenter::small_datacenter(16, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(24),
            ..SynthConfig::grid5000_week()
        },
        24,
    );
    let plan = FaultPlan::chaos(2.0);
    let rack_size = plan.rack.as_ref().expect("chaos has racks").rack_size;
    let mut cfg = RunConfig {
        audit: true,
        seed: 24,
        ..RunConfig::default()
    }
    .with_faults(plan)
    .with_obs(obs.clone());
    cfg.park_after = Some(1);
    let policy = Box::new(ScoreScheduler::with_obs(ScoreConfig::sb(), obs.clone()));
    let mut runner = Runner::new(hosts, trace, policy, cfg);
    while runner.step_batch() {}
    let vms_parked = runner.vms_parked();
    let (report, audit) = runner.finish();
    assert!(
        rack_hit_a_booting_host(&audit, rack_size),
        "no rack outage struck a booting host; the case tests nothing"
    );
    (report, vms_parked, audit)
}

/// Every fault and lifecycle counter the runner keeps equals the number
/// of audit entries of its kind.
#[test]
fn counters_agree_with_the_log_under_chaos() {
    let (report, vms_parked, audit) = chaos_run(&Obs::disabled());
    let count = |f: fn(&AuditKind) -> bool| audit.iter().filter(|e| f(&e.kind)).count() as u64;
    let f = &report.faults;
    let pairs = [
        (
            "creations",
            report.creations,
            count(|k| matches!(k, AuditKind::CreationStarted { .. })),
        ),
        (
            "migrations",
            report.migrations,
            count(|k| matches!(k, AuditKind::MigrationStarted { .. })),
        ),
        (
            "jobs_completed",
            report.jobs_completed,
            count(|k| matches!(k, AuditKind::JobCompleted { .. })),
        ),
        (
            "host_failures",
            report.host_failures,
            count(|k| matches!(k, AuditKind::HostFailed { .. })),
        ),
        (
            "vms_displaced",
            report.vms_displaced,
            audit
                .iter()
                .map(|e| match e.kind {
                    AuditKind::HostFailed { displaced, .. } => displaced as u64,
                    _ => 0,
                })
                .sum(),
        ),
        (
            "boot_failures",
            f.boot_failures,
            count(|k| matches!(k, AuditKind::BootFailed { .. })),
        ),
        (
            "creation_failures",
            f.creation_failures,
            count(|k| matches!(k, AuditKind::CreationFailed { .. })),
        ),
        (
            "migration_aborts",
            f.migration_aborts,
            count(|k| matches!(k, AuditKind::MigrationAborted { .. })),
        ),
        (
            "slowdown_episodes",
            f.slowdown_episodes,
            count(|k| matches!(k, AuditKind::SlowdownStarted { .. })),
        ),
        (
            "rack_outages",
            f.rack_outages,
            count(|k| matches!(k, AuditKind::RackOutage { .. })),
        ),
        (
            "hosts_blacklisted",
            f.hosts_blacklisted,
            count(|k| matches!(k, AuditKind::HostBlacklisted { .. })),
        ),
        (
            "recoveries",
            f.recoveries,
            count(|k| matches!(k, AuditKind::VmRecovered { .. })),
        ),
        (
            "vms_parked",
            vms_parked,
            count(|k| matches!(k, AuditKind::VmParked { .. })),
        ),
    ];
    for (name, counter, logged) in pairs {
        assert_eq!(counter, logged, "{name}: counter {counter}, log {logged}");
    }
    // Each fault class fired, so no equality above holds as 0 = 0 alone.
    for (name, counter, _) in pairs {
        assert!(counter > 0, "{name} never fired");
    }
}

#[test]
fn audit_disabled_by_default_costs_nothing() {
    let hosts = eards::datacenter::small_datacenter(4, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(2),
            ..SynthConfig::grid5000_week()
        },
        9,
    );
    let (report, audit) = Runner::new(
        hosts,
        trace,
        Box::new(BackfillingPolicy::new()),
        RunConfig::default(),
    )
    .run_audited();
    assert!(audit.is_empty(), "audit must be opt-in");
    assert!(report.jobs_total > 0);
}

/// The runner's trace is the projection of its audit log: on the traced
/// chaos run, the runner's JSONL lines (every line the scheduler did not
/// write) are exactly `AuditKind::trace_event` of the audit entries, in
/// order, the rack-hit boot failure included.
#[test]
fn runner_trace_is_the_audit_projection() {
    let obs = Obs::enabled(1 << 16);
    let (_, _, audit) = chaos_run(&obs);
    assert_eq!(obs.ring_stats().map(|(_, _, dropped)| dropped), Some(0));

    let projected = Obs::enabled(audit.len());
    for e in &audit {
        e.kind.trace(&projected, e.at);
    }
    let scheduler_kinds = ["schedule_round", "score_attribution", "round_degraded"]
        .map(|k| format!("\"kind\":\"{k}\""));
    let exported = obs.export_jsonl();
    let runner_lines: Vec<&str> = exported
        .lines()
        .filter(|l| !scheduler_kinds.iter().any(|k| l.contains(k.as_str())))
        .collect();
    let expected = projected.export_jsonl();
    assert!(expected.contains("\"fault\":\"boot_failure\""));
    assert_eq!(runner_lines, expected.lines().collect::<Vec<_>>());
}
