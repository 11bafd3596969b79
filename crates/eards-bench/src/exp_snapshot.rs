//! Snapshot timing — full runner snapshot + restore round trips.
//!
//! Not a paper result. Two points:
//!
//! * **Gated:** 400 hosts with 320 in-flight VMs. Checkpointing is only
//!   useful if it is cheap enough to run inline with the simulation (the
//!   CLI takes snapshots between event batches), so this round trip gets
//!   a wall-time budget like the solver, observability and lint layers:
//!   serialize + deserialize must stay under [`BUDGET_MS`].
//! * **Week:** the paper's 100-host datacenter under the score-based
//!   policy and chaos faults at intensity 2, snapshotted after the last
//!   batch of the Grid5000-like week. The VM table then holds every VM
//!   the week admitted, so this is the largest snapshot a week-long run
//!   writes; it reports the codec's throughput in MB/s. Its size is
//!   gated too, and deterministically: at most [`WEEK_MAX_BYTES`]. A
//!   finished VM is a 20-byte record, so the week's 6 943 jobs leave
//!   room for only a few kilobytes of live state.
//!
//! At both points the restored runner must re-serialize to the identical
//! byte stream (the codec's fixed-point property). The baseline
//! `BENCH_snapshot.json` records both points: sizes in its deterministic
//! part, timings in its wall-clock part.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{paper_datacenter, small_datacenter, RunConfig, Runner};
use eards_metrics::{fnum, Table};
use eards_model::{Cpu, FaultPlan, HostClass, HostSpec, Job, JobId, Mem, Policy};
use eards_obs::validate::Json;
use eards_policies::RoundRobinPolicy;
use eards_sim::{SimDuration, SimTime};
use eards_workload::{generate, SynthConfig, Trace};

use crate::common::{obj, verdict, Baseline, ExperimentResult, TRACE_SEED};
use crate::timing::best_of;

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "snapshot_timing";

/// Wall-time budget for one snapshot + restore round trip (gated point).
pub const BUDGET_MS: f64 = 50.0;

/// Size budget of the week-end snapshot.
pub const WEEK_MAX_BYTES: usize = 170_000;

const HOSTS: u32 = 400;
const VMS: u64 = 320;

/// Timed repetitions per measurement; the minimum is reported.
const REPS: usize = 5;
const WEEK_REPS: usize = 15;

type World = (Vec<HostSpec>, Trace, Box<dyn Policy>, RunConfig);

/// The gated world: every VM arrives in the first ten minutes and runs
/// for hours, so at the one-hour snapshot point all 320 are in flight.
fn world() -> World {
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
/// and the paper's trace.
fn week_world() -> World {
    (
        paper_datacenter(),
        generate(&SynthConfig::grid5000_week(), TRACE_SEED),
        Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        RunConfig::default()
            .with_lambdas(30, 90)
            .with_faults(FaultPlan::chaos(2.0)),
    )
}

/// Whether restoring `bytes` into `world` and snapshotting again yields
/// `bytes` exactly.
fn fixed_point((hosts, trace, policy, cfg): World, bytes: &[u8]) -> bool {
    let restored = Runner::restore(hosts, trace, policy, cfg, bytes).expect("snapshot restores");
    restored.snapshot().expect("snapshot encodes") == bytes
}

/// One measured point: its trace's job count, its snapshot size and
/// timings, and whether it is within its budget and a fixed point.
struct Point {
    jobs: usize,
    bytes: usize,
    snapshot_ms: f64,
    restore_ms: f64,
    within: bool,
    fixed_point: bool,
}

/// The gated point.
fn gated_point() -> Point {
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

    Point {
        jobs: VMS as usize,
        bytes: bytes.len(),
        snapshot_ms,
        restore_ms,
        within: snapshot_ms + restore_ms <= BUDGET_MS,
        fixed_point: fixed_point(world(), &bytes),
    }
}

/// The week point.
fn week_point() -> Point {
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

    Point {
        jobs,
        bytes: bytes.len(),
        snapshot_ms,
        restore_ms,
        within: bytes.len() <= WEEK_MAX_BYTES,
        fixed_point: fixed_point(week_world(), &bytes),
    }
}

/// Times both round trips.
pub fn run() -> ExperimentResult {
    let gated = gated_point();
    let week = week_point();
    let mut result = ExperimentResult::new(
        ID,
        "Snapshot timing — runner snapshot + restore round trips",
        "not a paper result: a budget for the checkpoint codec, which the \
         CLI and the sweep farm run between event batches.",
    );
    let mut t = Table::new(["point", "bytes", "snapshot (ms)", "restore (ms)", "budget"]);
    t.row([
        format!("gated: {HOSTS} hosts, {VMS} VMs in flight"),
        gated.bytes.to_string(),
        fnum(gated.snapshot_ms, 3),
        fnum(gated.restore_ms, 3),
        format!("{BUDGET_MS} ms round trip"),
    ]);
    t.row([
        "week end: 100 hosts, SB, chaos 2.0".into(),
        week.bytes.to_string(),
        fnum(week.snapshot_ms, 3),
        fnum(week.restore_ms, 3),
        format!("{WEEK_MAX_BYTES} bytes"),
    ]);
    result.tables.push((
        format!("best of {REPS} (gated) and {WEEK_REPS} (week) round trips"),
        t,
    ));
    result.notes.push(format!(
        "Shape check: the gated round trip takes {:.3} ms, within the \
         {BUDGET_MS} ms budget — {}.",
        gated.snapshot_ms + gated.restore_ms,
        verdict(gated.within)
    ));
    result.notes.push(format!(
        "Shape check: the week-end snapshot is {} bytes, within the \
         {WEEK_MAX_BYTES}-byte budget — {}.",
        week.bytes,
        verdict(week.within)
    ));
    result.notes.push(format!(
        "Shape check: both restored runners re-serialize to the identical \
         bytes — {}.",
        verdict(gated.fixed_point && week.fixed_point)
    ));
    let mb_s = |ms: f64| week.bytes as f64 / 1e6 / (ms / 1e3);
    result.baseline = Some(
        Baseline::new("snapshot")
            .det("hosts", HOSTS)
            .det("vms", VMS)
            .det("snapshot_bytes", gated.bytes)
            .det("budget_ms", BUDGET_MS)
            .det(
                "week",
                obj([
                    ("hosts", 100u32.into()),
                    ("policy", Json::Str("sb".into())),
                    ("chaos", 2.0.into()),
                    ("jobs", week.jobs.into()),
                    ("snapshot_bytes", week.bytes.into()),
                    ("max_bytes", WEEK_MAX_BYTES.into()),
                    ("within_byte_budget", Json::Bool(week.within)),
                ]),
            )
            .wall("snapshot_ms", gated.snapshot_ms)
            .wall("restore_ms", gated.restore_ms)
            .wall("total_ms", gated.snapshot_ms + gated.restore_ms)
            .wall("within_budget", Json::Bool(gated.within))
            .wall(
                "week",
                obj([
                    ("snapshot_ms", week.snapshot_ms.into()),
                    ("restore_ms", week.restore_ms.into()),
                    ("snapshot_mb_s", mb_s(week.snapshot_ms).into()),
                    ("restore_mb_s", mb_s(week.restore_ms).into()),
                ]),
            ),
    );
    result
}
