//! Times full runner snapshot + restore round trips and writes
//! `BENCH_snapshot.json` at the workspace root, next to the other
//! machine-readable baselines. Two points:
//!
//! * **Gated:** 400 hosts with 320 in-flight VMs. Checkpointing is only
//!   useful if it is cheap enough to run inline with the simulation (the
//!   CLI takes snapshots between event batches), so this round trip gets
//!   a wall-time budget like the solver, observability and lint layers:
//!   serialize + deserialize must stay under [`BUDGET_MS`] or this bin
//!   exits non-zero.
//! * **Week:** the paper's 100-host datacenter under the score-based
//!   policy and chaos faults at intensity 2, snapshotted after the last
//!   batch of the Grid5000-like week. The VM table then holds every VM
//!   the week admitted, so this is the largest snapshot a week-long run
//!   writes; it reports the codec's throughput in MB/s.
//!
//! At both points the restored runner must re-serialize to the identical
//! byte stream (the codec's fixed-point property) — a mismatch is a
//! correctness failure, budget or not.
//!
//! Run with `cargo run --release -p eards-bench --bin snapshot_timing`.

use eards_bench::common::write_baseline;
use eards_bench::timing::best_of;
use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{paper_datacenter, small_datacenter, RunConfig, Runner};
use eards_model::{Cpu, FaultPlan, HostClass, HostSpec, Job, JobId, Mem, Policy};
use eards_policies::RoundRobinPolicy;
use eards_sim::{SimDuration, SimTime};
use eards_workload::{generate, SynthConfig, Trace};

/// Wall-time budget for one snapshot + restore round trip (gated point).
const BUDGET_MS: f64 = 50.0;

const HOSTS: u32 = 400;
const VMS: u64 = 320;

/// Timed repetitions per measurement; the minimum is reported.
const REPS: usize = 5;
const WEEK_REPS: usize = 15;

/// The gated world: every VM arrives in the first ten minutes and runs
/// for hours, so at the one-hour snapshot point all 320 are in flight.
fn world() -> (Vec<HostSpec>, Trace, Box<dyn Policy>, RunConfig) {
    let jobs = (0..VMS)
        .map(|j| {
            Job::new(
                JobId(j),
                SimTime::from_secs(j * 600 / VMS),
                Cpu(100),
                Mem::gib(1),
                SimDuration::from_hours(4),
                1.5,
            )
        })
        .collect();
    let cfg = RunConfig {
        initial_on: HOSTS as usize,
        ..RunConfig::default()
    };
    (
        small_datacenter(HOSTS, HostClass::Medium),
        Trace::new(jobs),
        Box::new(RoundRobinPolicy::new()),
        cfg,
    )
}

/// The week world: paper datacenter, SB at λ 30/90, chaos intensity 2,
/// and the paper's trace (seed 7).
fn week_world() -> (Vec<HostSpec>, Trace, Box<dyn Policy>, RunConfig) {
    (
        paper_datacenter(),
        generate(&SynthConfig::grid5000_week(), 7),
        Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        RunConfig::default()
            .with_lambdas(30, 90)
            .with_faults(FaultPlan::chaos(2.0)),
    )
}

/// Asserts that restoring `bytes` into `fresh` and snapshotting again
/// yields `bytes` exactly.
fn assert_fixed_point(
    (hosts, trace, policy, cfg): (Vec<HostSpec>, Trace, Box<dyn Policy>, RunConfig),
    bytes: &[u8],
) {
    let restored = Runner::restore(hosts, trace, policy, cfg, bytes).expect("snapshot restores");
    assert_eq!(
        restored.snapshot().expect("snapshot encodes"),
        bytes,
        "restored runner must re-serialize to the identical byte stream"
    );
}

/// The gated point: returns its JSON fields and whether it is within
/// budget.
fn gated_point() -> (String, bool) {
    // Drive the run past every arrival so the snapshot captures a fully
    // loaded datacenter, not a cold start.
    let (hosts, trace, policy, cfg) = world();
    let mut runner = Runner::new(hosts, trace, policy, cfg);
    let warm = SimTime::ZERO + SimDuration::from_hours(1);
    while runner.now() < warm && runner.step_batch() {}
    assert!(
        runner.now() >= SimTime::ZERO + SimDuration::from_mins(10),
        "the bench run must reach steady state, stopped at {}",
        runner.now()
    );

    let bytes = runner.snapshot().expect("snapshot encodes");
    let snapshot_ms = best_of(
        REPS,
        || (),
        |()| {
            std::hint::black_box(runner.snapshot().expect("snapshot encodes"));
        },
    )
    .0 * 1e3;
    // The world is built inside the timed region here, as it always has
    // been for this point, so its numbers stay comparable across builds.
    let restore_ms = best_of(
        REPS,
        || (),
        |()| {
            let (hosts, trace, policy, cfg) = world();
            let restored =
                Runner::restore(hosts, trace, policy, cfg, &bytes).expect("snapshot restores");
            std::hint::black_box(&restored);
        },
    )
    .0 * 1e3;
    assert_fixed_point(world(), &bytes);

    let total_ms = snapshot_ms + restore_ms;
    let within = total_ms <= BUDGET_MS;
    eprintln!(
        "gated ({HOSTS} hosts, {VMS} VMs): snapshot {snapshot_ms:.3} ms + restore \
         {restore_ms:.3} ms = {total_ms:.3} ms over {} bytes (budget {BUDGET_MS} ms)",
        bytes.len()
    );
    let json = format!(
        "\"hosts\":{HOSTS},\"vms\":{VMS},\"snapshot_bytes\":{},\"snapshot_ms\":{snapshot_ms:.3},\
         \"restore_ms\":{restore_ms:.3},\"total_ms\":{total_ms:.3},\"budget_ms\":{BUDGET_MS},\
         \"within_budget\":{within}",
        bytes.len()
    );
    (json, within)
}

/// The week point: returns its JSON object.
fn week_point() -> String {
    let (hosts, trace, policy, cfg) = week_world();
    let jobs = trace.len();
    let mut runner = Runner::new(hosts, trace, policy, cfg);
    while runner.step_batch() {}

    let bytes = runner.snapshot().expect("snapshot encodes");
    let snapshot_ms = best_of(
        WEEK_REPS,
        || (),
        |()| {
            std::hint::black_box(runner.snapshot().expect("snapshot encodes"));
        },
    )
    .0 * 1e3;
    let restore_ms = best_of(WEEK_REPS, week_world, |(hosts, trace, policy, cfg)| {
        let restored =
            Runner::restore(hosts, trace, policy, cfg, &bytes).expect("snapshot restores");
        std::hint::black_box(&restored);
    })
    .0 * 1e3;
    assert_fixed_point(week_world(), &bytes);

    let mb = bytes.len() as f64 / 1e6;
    let snapshot_mb_s = mb / (snapshot_ms / 1e3);
    let restore_mb_s = mb / (restore_ms / 1e3);
    eprintln!(
        "week (100 hosts, SB, chaos 2.0, {jobs} jobs): snapshot {snapshot_ms:.3} ms \
         ({snapshot_mb_s:.0} MB/s) + restore {restore_ms:.3} ms ({restore_mb_s:.0} MB/s) \
         over {} bytes",
        bytes.len()
    );
    format!(
        "{{\"hosts\":100,\"policy\":\"sb\",\"chaos\":2.0,\"jobs\":{jobs},\
         \"snapshot_bytes\":{},\"snapshot_ms\":{snapshot_ms:.3},\"restore_ms\":{restore_ms:.3},\
         \"snapshot_mb_s\":{snapshot_mb_s:.1},\"restore_mb_s\":{restore_mb_s:.1}}}",
        bytes.len()
    )
}

fn main() -> std::io::Result<()> {
    let (gated, within) = gated_point();
    let week = week_point();
    write_baseline(
        "BENCH_snapshot.json",
        &format!("{{{gated},\"week\":{week}}}\n"),
    )?;
    if !within {
        eprintln!("!! snapshot round trip exceeds budget");
        std::process::exit(1);
    }
    Ok(())
}
