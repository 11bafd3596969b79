//! Property test for the snapshot subsystem's core guarantee:
//! checkpointing a run at an arbitrary batch boundary and resuming it in a
//! *fresh* process-equivalent world is bit-identical to never having
//! stopped — the full [`RunReport`] (aggregates, power series, per-job
//! outcomes), the audit trail, and the observability event stream all
//! match, across random workloads, fleet sizes, seeds and chaos
//! intensities.
//!
//! The fingerprint goes through `Debug` formatting, which round-trips
//! `f64` exactly, so even a 1-ulp divergence from a mis-restored RNG or a
//! serialized-when-it-should-rebuild cache would fail the property.

use proptest::prelude::*;

use eards_core::{OverloadControl, ScoreConfig, ScoreScheduler};
use eards_datacenter::{render_log, small_datacenter, AuditEvent, AuditorMode, RunConfig, Runner};
use eards_metrics::RunReport;
use eards_model::{FaultPlan, HostClass, HostSpec, Policy};
use eards_obs::Obs;
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig, Trace};

fn fingerprint(report: &RunReport, audit: &[AuditEvent]) -> String {
    format!("{report:?}\n{}", render_log(audit))
}

fn world(hosts: u32, hours: u64, trace_seed: u64) -> (Vec<HostSpec>, Trace) {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_hours(hours),
            ..SynthConfig::grid5000_week()
        },
        trace_seed,
    );
    (small_datacenter(hosts, HostClass::Medium), trace)
}

fn config(sim_seed: u64, chaos: f64, obs: &Obs) -> RunConfig {
    let mut cfg = RunConfig {
        audit: true,
        record_power_series: true,
        seed: sim_seed,
        ..RunConfig::default()
    }
    .with_obs(obs.clone());
    if chaos > 0.0 {
        cfg = cfg.with_faults(FaultPlan::chaos(chaos));
    }
    cfg
}

fn policy(obs: &Obs) -> Box<dyn Policy> {
    Box::new(ScoreScheduler::with_obs(ScoreConfig::full(), obs.clone()))
}

/// An overload-controlled world: budgeted anytime solver + degradation
/// ladder on the policy, bounded retry/parking backpressure on the
/// runner, Strict auditing (deep `Cluster::verify` after every batch,
/// panic on the first violation) under heavy chaos.
fn degraded_config(sim_seed: u64, obs: &Obs) -> RunConfig {
    let mut cfg = config(sim_seed, 2.0, obs);
    cfg.auditor = AuditorMode::Strict;
    cfg.park_after = Some(3);
    cfg
}

fn degraded_policy(obs: &Obs, budget: u64) -> Box<dyn Policy> {
    Box::new(
        ScoreScheduler::with_obs(ScoreConfig::full(), obs.clone())
            .with_overload(OverloadControl::with_budget(budget)),
    )
}

/// Extracts the `t_ms` field every exported JSONL line starts with.
fn t_ms(line: &str) -> u64 {
    let rest = line
        .strip_prefix("{\"t_ms\":")
        .expect("jsonl line starts with t_ms");
    rest[..rest.find(',').expect("t_ms is not the only field")]
        .parse()
        .expect("t_ms is an integer")
}

proptest! {
    // Each case is two-plus full simulation runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint → restore → run == uninterrupted run, bit for bit.
    #[test]
    fn snapshot_resume_is_bit_identical(
        hosts in 3u32..8,
        hours in 1u64..4,
        trace_seed in 0u64..1000,
        sim_seed in 0u64..1000,
        chaos in prop_oneof![Just(0.0), Just(1.0), Just(2.0)],
        ckpt_batches in 1usize..400,
    ) {
        // The uninterrupted reference run.
        let obs_base = Obs::enabled(1 << 16);
        let (h, t) = world(hosts, hours, trace_seed);
        let (r0, a0) = Runner::new(
            h,
            t,
            policy(&obs_base),
            config(sim_seed, chaos, &obs_base),
        )
        .run_audited();

        // The interrupted run: advance a random number of batches, then
        // checkpoint and abandon the process state.
        let obs_cut = Obs::enabled(1 << 16);
        let (h, t) = world(hosts, hours, trace_seed);
        let mut cut = Runner::new(h, t, policy(&obs_cut), config(sim_seed, chaos, &obs_cut));
        for _ in 0..ckpt_batches {
            if !cut.step_batch() {
                break;
            }
        }
        let ckpt_ms = cut.now().as_millis();
        let bytes = cut.snapshot().unwrap();
        drop(cut);

        // Resume from bytes alone in a fresh world and drive it to the end.
        let obs_res = Obs::enabled(1 << 16);
        let (h, t) = world(hosts, hours, trace_seed);
        let mut resumed = Runner::restore(
            h,
            t,
            policy(&obs_res),
            config(sim_seed, chaos, &obs_res),
            &bytes,
        )
        .expect("snapshot restores against its own world");
        // A state decoded from bytes is complete: it encodes back to them.
        prop_assert_eq!(resumed.snapshot().unwrap(), bytes);
        while resumed.step_batch() {}
        let (r1, a1) = resumed.finish();

        prop_assert_eq!(fingerprint(&r0, &a0), fingerprint(&r1, &a1));

        // The resumed run re-emits exactly the post-checkpoint tail of the
        // reference observability stream (its pre-checkpoint events live
        // in the abandoned run's sink).
        let full = obs_base.export_jsonl();
        let tail: Vec<&str> = full.lines().filter(|l| t_ms(l) > ckpt_ms).collect();
        let resumed_full = obs_res.export_jsonl();
        let resumed_lines: Vec<&str> = resumed_full.lines().collect();
        prop_assert_eq!(resumed_lines, tail);
    }

    /// The overload-control variant of the property, across random
    /// workloads, seeds and budgets: Strict auditing proves every
    /// budget-exhausted round still yields placements passing
    /// `Cluster::verify` (and that backpressure never loses a VM), and
    /// the fingerprint + `round_degraded` tail equality prove a mid-run
    /// snapshot/restore replays the identical `DegradeLevel` sequence —
    /// the ladder driver state is part of the policy's snapshot block.
    #[test]
    fn degraded_snapshot_resume_is_bit_identical(
        hosts in 3u32..7,
        hours in 1u64..3,
        trace_seed in 0u64..1000,
        sim_seed in 0u64..1000,
        budget in prop_oneof![Just(300u64), Just(2_000), Just(20_000)],
        ckpt_batches in 1usize..300,
    ) {
        let obs_base = Obs::enabled(1 << 16);
        let (h, t) = world(hosts, hours, trace_seed);
        let (r0, a0) = Runner::new(
            h,
            t,
            degraded_policy(&obs_base, budget),
            degraded_config(sim_seed, &obs_base),
        )
        .run_audited();

        let obs_cut = Obs::enabled(1 << 16);
        let (h, t) = world(hosts, hours, trace_seed);
        let mut cut = Runner::new(
            h,
            t,
            degraded_policy(&obs_cut, budget),
            degraded_config(sim_seed, &obs_cut),
        );
        for _ in 0..ckpt_batches {
            if !cut.step_batch() {
                break;
            }
        }
        let ckpt_ms = cut.now().as_millis();
        let bytes = cut.snapshot().unwrap();
        drop(cut);

        let obs_res = Obs::enabled(1 << 16);
        let (h, t) = world(hosts, hours, trace_seed);
        let mut resumed = Runner::restore(
            h,
            t,
            degraded_policy(&obs_res, budget),
            degraded_config(sim_seed, &obs_res),
            &bytes,
        )
        .expect("snapshot restores against its own world");
        // A state decoded from bytes is complete: it encodes back to them.
        prop_assert_eq!(resumed.snapshot().unwrap(), bytes);
        while resumed.step_batch() {}
        let (r1, a1) = resumed.finish();

        prop_assert_eq!(fingerprint(&r0, &a0), fingerprint(&r1, &a1));

        // The resumed run replays the post-checkpoint event tail exactly,
        // including every `round_degraded` record: same rungs, same work
        // spend, same exhaustion flags.
        let full = obs_base.export_jsonl();
        let tail: Vec<&str> = full.lines().filter(|l| t_ms(l) > ckpt_ms).collect();
        let resumed_full = obs_res.export_jsonl();
        let resumed_lines: Vec<&str> = resumed_full.lines().collect();
        prop_assert_eq!(resumed_lines, tail);
    }
}

#[test]
fn restore_rejects_a_mismatched_world() {
    let (h, t) = world(4, 1, 7);
    let obs = Obs::disabled();
    let mut run = Runner::new(h, t, policy(&obs), config(42, 0.0, &obs));
    for _ in 0..5 {
        assert!(run.step_batch());
    }
    let bytes = run.snapshot().unwrap();

    // Runner carries trait objects, so no Debug: unwrap errors by hand.
    fn expect_err(r: Result<Runner, eards_sim::PersistError>) -> eards_sim::PersistError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("restore onto a mismatched world must fail"),
        }
    }

    // Wrong fleet size.
    let (_, t) = world(4, 1, 7);
    let err = expect_err(Runner::restore(
        small_datacenter(5, HostClass::Medium),
        t,
        policy(&obs),
        config(42, 0.0, &obs),
        &bytes,
    ));
    assert!(format!("{err}").contains("hosts"), "{err}");

    // Wrong seed.
    let (h, t) = world(4, 1, 7);
    let err = expect_err(Runner::restore(
        h,
        t,
        policy(&obs),
        config(43, 0.0, &obs),
        &bytes,
    ));
    assert!(format!("{err}").contains("seed"), "{err}");

    // Truncation anywhere is an error, never a mangled world.
    let (h, t) = world(4, 1, 7);
    assert!(Runner::restore(
        h,
        t,
        policy(&obs),
        config(42, 0.0, &obs),
        &bytes[..bytes.len() / 2]
    )
    .is_err());
}

#[test]
fn snapshot_after_completion_resumes_to_the_same_report() {
    let (h, t) = world(3, 1, 11);
    let obs = Obs::disabled();
    let mut run = Runner::new(h, t, policy(&obs), config(9, 0.0, &obs));
    while run.step_batch() {}
    let bytes = run.snapshot().unwrap();
    let (r0, a0) = run.finish();

    let (h, t) = world(3, 1, 11);
    let mut resumed =
        Runner::restore(h, t, policy(&obs), config(9, 0.0, &obs), &bytes).expect("restores");
    // A completed run must not drain leftover periodic timers.
    assert!(!resumed.step_batch());
    let (r1, a1) = resumed.finish();
    assert_eq!(fingerprint(&r0, &a0), fingerprint(&r1, &a1));
}
