//! Golden-run regression gate for the runner's per-batch bookkeeping.
//!
//! Each case pins the fingerprint of one small run — energy and
//! satisfaction by their f64 bits, migrations, creations, jobs completed,
//! host failures, and a hash of the run's snapshot bytes every 8 batches
//! — against constants recorded before the SLA sweep, the checkpoint
//! trigger, the auditor's duplicate detection and the event queue's
//! hashing were rewritten. The four cases between them reach every
//! rewritten path:
//!
//! * Backfilling on a saturated 8-host cluster (the SLA sweep over many
//!   co-resident Running VMs);
//! * SB with dynamic SLA enforcement, under slowdown episodes that
//!   starve VMs (the sweep's escalation branch);
//! * SB with periodic checkpoints and reliability-driven crashes (the
//!   checkpoint trigger, cancelled completion timers, and SLA checks
//!   that land while every VM on a host is checkpointing);
//! * SB under `chaos(2.0)` in degrade mode (aborted operations leave
//!   Creating and Migrating residents that the sweep must not touch).
//!
//! A change that reorders progress accrual — for example touching a host
//! whose executing residents are all migrating away or checkpointing —
//! moves VM progress bits. Those rarely reach the report, which is why
//! the fingerprint also hashes mid-run snapshots: they carry every live
//! VM's progress and last-update instant. (The snapshot hashes were
//! re-recorded for snapshot format v6, whose report bits are unchanged.)

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{small_datacenter, RunConfig, Runner};
use eards_metrics::RunReport;
use eards_model::{FaultPlan, HostClass, HostSpec, Policy, SlowdownPlan};
use eards_policies::BackfillingPolicy;
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig};

/// The outputs that must repeat bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    energy_bits: u64,
    satisfaction_bits: u64,
    migrations: u64,
    creations: u64,
    jobs_completed: u64,
    host_failures: u64,
    snapshots: u64,
}

impl Fingerprint {
    fn of(r: &RunReport, snapshots: u64) -> Self {
        Fingerprint {
            energy_bits: r.energy_kwh.to_bits(),
            satisfaction_bits: r.satisfaction_pct.to_bits(),
            migrations: r.migrations,
            creations: r.creations,
            jobs_completed: r.jobs_completed,
            host_failures: r.host_failures,
            snapshots,
        }
    }
}

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `policy` on `hosts` over 12 hours of the Grid5000-like trace
/// (seed 7) and returns the fingerprint. Every golden run must also
/// audit clean.
fn run(hosts: Vec<HostSpec>, policy: Box<dyn Policy>, cfg: RunConfig) -> Fingerprint {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_hours(12),
            ..SynthConfig::grid5000_week()
        },
        7,
    );
    let mut runner = Runner::new(hosts, trace, policy, cfg);
    let mut snapshots = 0xcbf2_9ce4_8422_2325;
    let mut batches = 0u64;
    while runner.step_batch() {
        batches += 1;
        if batches.is_multiple_of(8) {
            let bytes = runner.snapshot().expect("a small run fits the codec");
            snapshots = fnv1a(snapshots, &bytes);
        }
    }
    let (report, _) = runner.finish();
    assert_eq!(report.faults.invariant_violations, 0);
    Fingerprint::of(&report, snapshots)
}

fn eight_hosts() -> Vec<HostSpec> {
    small_datacenter(8, HostClass::Medium)
}

fn sb() -> Box<dyn Policy> {
    Box::new(ScoreScheduler::new(ScoreConfig::sb()))
}

fn base() -> RunConfig {
    RunConfig::default().with_lambdas(30, 90)
}

#[test]
fn backfilling_on_a_saturated_cluster() {
    assert_eq!(
        run(eight_hosts(), Box::new(BackfillingPolicy::new()), base()),
        Fingerprint {
            energy_bits: 4631319594631297822,
            satisfaction_bits: 4629779187060414089,
            migrations: 0,
            creations: 515,
            jobs_completed: 515,
            host_failures: 0,
            snapshots: 13574350314816766019,
        }
    );
}

/// Slowdown episodes halve a host's capacity, which starves the VMs SB
/// packed on it: only a starved VM is escalated.
#[test]
fn sb_with_dynamic_sla_escalation() {
    let slowdowns = FaultPlan {
        slowdown: Some(SlowdownPlan::default()),
        ..FaultPlan::none()
    };
    let cfg = base().with_faults(slowdowns);
    let escalating = RunConfig {
        dynamic_sla: true,
        ..cfg.clone()
    };
    let fp = run(eight_hosts(), sb(), escalating);
    assert_eq!(
        fp,
        Fingerprint {
            energy_bits: 4630898442839883689,
            satisfaction_bits: 4629261732975172400,
            migrations: 8,
            creations: 515,
            jobs_completed: 515,
            host_failures: 0,
            snapshots: 930730146432855938,
        }
    );
    // The case must exercise escalation: without it the run differs.
    assert_ne!(fp, run(eight_hosts(), sb(), cfg));
}

/// Standard hosts are perfectly reliable and never crash; at 0.95 the
/// derived MTTF is 9.5 hours per host. A 90-second checkpoint write
/// spans an SLA check, so the sweep sees hosts whose only executing
/// residents are checkpointing.
#[test]
fn sb_with_checkpoints_and_crashes() {
    let hosts = eight_hosts()
        .into_iter()
        .map(|h| HostSpec {
            reliability: 0.95,
            ..h
        })
        .collect();
    let cfg = RunConfig {
        checkpoint_period: Some(SimDuration::from_mins(30)),
        checkpoint_duration: SimDuration::from_secs(90),
        ..base()
    }
    .with_faults(FaultPlan::crashes());
    assert_eq!(
        run(hosts, sb(), cfg),
        Fingerprint {
            energy_bits: 4630976784242064965,
            satisfaction_bits: 4628445318226252379,
            migrations: 5,
            creations: 540,
            jobs_completed: 515,
            host_failures: 10,
            snapshots: 16980676262445851431,
        }
    );
}

#[test]
fn sb_under_chaos_in_degrade_mode() {
    let cfg = RunConfig {
        park_after: Some(6),
        ..base()
    }
    .with_faults(FaultPlan::chaos(2.0));
    assert_eq!(
        run(eight_hosts(), sb(), cfg),
        Fingerprint {
            energy_bits: 4631633151309029215,
            satisfaction_bits: 4623958077473677847,
            migrations: 3,
            creations: 592,
            jobs_completed: 515,
            host_failures: 18,
            snapshots: 6435251580500205218,
        }
    );
}
