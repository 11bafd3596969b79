//! Oracles for the score-based scheduler's quick-reject: a round is
//! skipped exactly when its solve would emit nothing, because no queued VM
//! has a feasible cell and no migration column has a move-in cell that
//! clears the hysteresis bar.
//!
//! * [`queue_has_feasible_cell`] agrees with "some cell of the full
//!   [`Eval`] over the queue is finite", for every configuration.
//! * With migration columns, [`queue_has_feasible_cell`] or
//!   [`Eval::migration_check`] holds exactly when [`Eval::new`] plus
//!   [`solve`] emits a move.
//! * [`ScoreScheduler::schedule`] emits exactly the actions of
//!   [`Eval::new`] plus [`solve`] on queue-only rounds, and on every round
//!   it skips exactly the rounds that emit none (the
//!   `quick_rejected_rounds` counter).
//!
//! The random clusters cover booting, shutting-down, off, failed and
//! blacklisted hosts, requirement mismatches (architecture, hypervisor,
//! `min_host_cpus`), memory-bound VMs, CPU-overcommitted hosts, in-flight
//! creations and migrations (`P_conc`), lone VMs on emptiable hosts, VMs
//! whose estimate runs out before a migration would (`T_r < C_m`), jobs
//! already past their SLA threshold (`P_SLA = ∞`, `ScoreConfig::full`),
//! and the Table V consolidation costs.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

use eards_core::{queue_has_feasible_cell, solve, Eval, ScoreConfig, ScoreScheduler};
use eards_model::{
    Action, Arch, Cluster, Cpu, HostClass, HostId, HostSpec, Hypervisor, Job, JobId, Mem, Policy,
    PowerState, Requirements, ScheduleContext, ScheduleReason, VmId, VmState,
};
use eards_obs::Obs;
use eards_sim::{SimDuration, SimTime};

const ARCHS: [Arch; 3] = [Arch::X86_64, Arch::X86, Arch::Ppc64];
const HYPERVISORS: [Hypervisor; 2] = [Hypervisor::Xen, Hypervisor::Kvm];

/// One host: `(class, cores, gib, platform, power, reliability)`.
type HostGen = (u8, u8, u8, u8, u8, u8);
/// One loaded VM: `(host pick, cpu, gib, fate, estimate left)`.
type LoadGen = (u8, u8, u8, u8, u8);
/// One queued VM: `(cpu, gib, requirement, submit minutes ago)`.
type QueueGen = (u8, u8, u8, u8);

/// Every SB variant, plus SB at Table V's outer consolidation costs.
fn configs() -> [ScoreConfig; 7] {
    [
        ScoreConfig::sb0(),
        ScoreConfig::sb1(),
        ScoreConfig::sb2(),
        ScoreConfig::sb(),
        ScoreConfig::full(),
        ScoreConfig::sb()
            .with_consolidation_costs(0.0, 40.0)
            .named("SB(0,40)"),
        ScoreConfig::sb()
            .with_consolidation_costs(60.0, 100.0)
            .named("SB(60,100)"),
    ]
}

/// User-estimated seconds a loaded VM has left: around and between the
/// three classes' migration costs (40/60/80 s), then well past them.
const ESTIMATE_LEFT: [u64; 8] = [0, 20, 45, 70, 90, 300, 1800, 20_000];

/// Requirements drawn from one byte: mostly none, else a required
/// architecture, hypervisor or host width that some hosts lack.
fn requirements(r: u8) -> Requirements {
    match r % 8 {
        0 => Requirements {
            arch: Some(ARCHS[usize::from(r / 8) % 3]),
            ..Requirements::ANY
        },
        1 => Requirements {
            hypervisor: Some(HYPERVISORS[usize::from(r / 8) % 2]),
            ..Requirements::ANY
        },
        2 => Requirements {
            min_host_cpus: 2 << (r / 8 % 3),
            ..Requirements::ANY
        },
        _ => Requirements::ANY,
    }
}

/// A random cluster at `now_secs`: hosts of 2/4/8 cores and 4/8/16 GiB on
/// mixed platforms, some blacklisted, loaded (memory strictly, CPU
/// possibly overcommitted by escalation) with creating, running and
/// migrating VMs, then brought into mixed power states, plus a queue of
/// VMs with mixed requirements, some needing most of a host's memory.
/// Loaded jobs run an hour from time 0, so late rounds find them past
/// their deadline; their user estimates end [`ESTIMATE_LEFT`] after
/// `now_secs`.
fn world(hosts: &[HostGen], load: &[LoadGen], queue: &[QueueGen], now_secs: u64) -> Cluster {
    let t0 = SimTime::ZERO;
    let t40 = SimTime::from_secs(40);
    let specs = hosts
        .iter()
        .enumerate()
        .map(|(i, &(class, cores, gib, platform, _, rel))| HostSpec {
            cpu: Cpu::cores(2 << (cores % 3)),
            mem: Mem::gib(4 << (gib % 3)),
            arch: ARCHS[usize::from(platform % 3)],
            hypervisor: HYPERVISORS[usize::from(platform / 3 % 2)],
            reliability: 0.8 + f64::from(rel % 5) * 0.05,
            ..HostSpec::standard(HostId(i as u32), HostClass::ALL[usize::from(class % 3)])
        })
        .collect();
    let mut c = Cluster::new(specs, PowerState::On);
    for (i, &(_, _, _, _, _, rel)) in hosts.iter().enumerate() {
        if rel % 7 == 0 {
            c.blacklist(HostId(i as u32), 0.05);
        }
    }
    let n = hosts.len() as u32;
    let mut next = 0u64;
    let mut job = |cpu: Cpu, mem: Mem, submit: SimTime, secs: u64| {
        next += 1;
        Job::new(
            JobId(next),
            submit,
            cpu,
            mem,
            SimDuration::from_secs(secs),
            1.5,
        )
    };
    for &(pick, cpu, gib, fate, left) in load {
        let estimate = now_secs + ESTIMATE_LEFT[usize::from(left % 8)];
        let vm = c.submit_job(
            job(
                Cpu(25 * u32::from(1 + cpu % 8)),
                Mem::gib(1 + u32::from(gib % 3)),
                t0,
                3600,
            )
            .with_estimate(SimDuration::from_secs(estimate)),
        );
        let h = HostId(u32::from(pick) % n);
        // Mostly strict placements; one in sixteen may overcommit the CPU.
        let fits = if fate % 16 == 7 {
            c.can_place_overcommitted(h, vm)
        } else {
            c.can_place(h, vm)
        };
        if !fits {
            continue;
        }
        c.start_creation(vm, h, t0, t40);
        if fate % 8 == 0 {
            continue; // still creating
        }
        c.finish_creation(vm, t40);
        if fate % 16 == 3 {
            let req = c.vm(vm).req_cpu().points();
            c.escalate_requested_cpu(vm, Cpu(req * 2 + 100));
        }
        let to = HostId((h.raw() + 1) % n);
        if fate % 10 == 0 && to != h && c.can_place_overcommitted(to, vm) {
            c.start_migration(vm, to, t40, SimTime::from_secs(100));
        }
    }
    // Power states: On, ShuttingDown, Off, Booting (idle hosts only), or
    // Failed (any host; its VMs rejoin the queue).
    for (i, &(_, _, _, _, power, _)) in hosts.iter().enumerate() {
        let h = HostId(i as u32);
        match power % 6 {
            1..=3 if c.host(h).is_idle() => {
                c.begin_power_off(h, t40);
                if power % 6 >= 2 {
                    c.complete_power_off(h);
                }
                if power % 6 == 3 {
                    c.begin_power_on(h, t40);
                }
            }
            4 => {
                let _ = c.fail_host(h, t40);
            }
            _ => {}
        }
    }
    for &(cpu, gib, req, ago) in queue {
        let submit = SimTime::from_secs(now_secs.saturating_sub(60 * u64::from(ago)));
        let mut j = job(
            Cpu(50 * u32::from(cpu % 10)),
            Mem::gib(1 + u32::from(gib % 16)),
            submit,
            600 + 60 * u64::from(cpu),
        );
        j.requirements = requirements(req);
        c.submit_job(j);
    }
    c.check_invariants();
    c
}

/// The exhaustive oracle: some `(host, queued VM)` cell of the full
/// evaluator is finite.
fn some_cell_is_finite(c: &Cluster, cfg: &ScoreConfig, now: SimTime) -> bool {
    let eval = Eval::new(c, cfg, now, c.queue().to_vec());
    (0..eval.num_hosts()).any(|h| (0..eval.num_vms()).any(|v| !eval.score(h, v).is_infinite()))
}

fn host_gen() -> impl Strategy<Value = Vec<HostGen>> {
    let b = any::<u8>;
    vec((b(), b(), b(), b(), b(), b()), 1..8)
}

fn four_bytes() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    let b = any::<u8>;
    (b(), b(), b(), b())
}

fn load_gen() -> impl Strategy<Value = Vec<LoadGen>> {
    let b = any::<u8>;
    vec((b(), b(), b(), b(), b()), 0..24)
}

/// The queue plus the running VMs that `mask` picks (bit `i % 64` for the
/// `i`-th running VM in id order), as migration columns.
fn columns(c: &Cluster, mask: u64) -> Vec<VmId> {
    let mut running: Vec<VmId> = c
        .hosts()
        .iter()
        .flat_map(|h| h.resident.iter().copied())
        .filter(|&v| matches!(c.vm(v).state, VmState::Running { .. }))
        .collect();
    running.sort_unstable();
    c.queue()
        .iter()
        .copied()
        .chain(
            running
                .into_iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
                .map(|(_, v)| v),
        )
        .collect()
}

/// Whether a fresh evaluator over `cols` plus the public solve emits any
/// move: the ground truth the predicates are held to.
fn solve_moves(c: &Cluster, cfg: &ScoreConfig, now: SimTime, cols: Vec<VmId>) -> bool {
    let mut eval = Eval::new(c, cfg, now, cols);
    !solve(&mut eval, cfg.max_moves).moves.is_empty()
}

/// One generated round: `(hosts, load, queue, now_secs, column mask)`.
type RoundGen = (Vec<HostGen>, Vec<LoadGen>, Vec<QueueGen>, u64, u64);

fn round_gen() -> impl Strategy<Value = RoundGen> {
    (
        host_gen(),
        load_gen(),
        vec(four_bytes(), 0..4),
        40u64..20_000,
        any::<u64>(),
    )
}

/// Reads a schedule call's skip and solve counters.
fn skipped_and_solved(obs: &Obs) -> (u64, u64) {
    let counters = obs.counters_snapshot();
    let count = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    (count("quick_rejected_rounds"), count("solver_rounds"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The quick-reject predicate is exactly "some cell over the queue is
    /// finite", whichever penalties are on.
    #[test]
    fn predicate_matches_the_exhaustive_eval(
        hosts in host_gen(),
        load in load_gen(),
        queue in vec(four_bytes(), 0..10),
        now_secs in 40u64..20_000,
    ) {
        let now = SimTime::from_secs(now_secs);
        let c = world(&hosts, &load, &queue, now_secs);
        let fast = queue_has_feasible_cell(&c);
        for cfg in configs() {
            prop_assert_eq!(fast, some_cell_is_finite(&c, &cfg, now), "cfg {}", cfg.name);
        }
    }

    /// On queue-only rounds the scheduler emits exactly what a fresh
    /// evaluator plus the public solve emit, and it quick-rejects exactly
    /// the rounds that emit nothing.
    #[test]
    fn queue_only_rounds_match_eval_plus_solve(
        hosts in host_gen(),
        load in load_gen(),
        queue in vec(four_bytes(), 0..10),
        now_secs in 40u64..20_000,
    ) {
        let now = SimTime::from_secs(now_secs);
        let c = world(&hosts, &load, &queue, now_secs);
        for cfg in configs() {
            // Event rounds never carry migration columns; periodic rounds
            // do not either when migration is off.
            let reasons: &[ScheduleReason] = if cfg.migration {
                &[ScheduleReason::VmArrived]
            } else {
                &[ScheduleReason::VmArrived, ScheduleReason::Periodic]
            };
            for &reason in reasons {
                let mut eval = Eval::new(&c, &cfg, now, c.queue().to_vec());
                let sol = solve(&mut eval, cfg.max_moves);
                let expected: Vec<Action> = sol
                    .moves
                    .iter()
                    .map(|&(v, h)| Action::Create { vm: eval.vms()[v], host: HostId(h as u32) })
                    .collect();
                let obs = Obs::enabled(16);
                let mut sched = ScoreScheduler::with_obs(cfg.clone(), obs.clone());
                let actions = sched.schedule(&c, &ScheduleContext { now, reason });
                prop_assert_eq!(&actions, &expected, "cfg {} {:?}", cfg.name, reason);
                let skipped = skipped_and_solved(&obs).0 == 1;
                prop_assert_eq!(
                    skipped,
                    !c.queue().is_empty() && expected.is_empty(),
                    "cfg {} {:?}: skip fired {}", cfg.name, reason, skipped
                );
            }
        }
    }

    /// With migration columns, the round has a move exactly when a queued
    /// VM has a feasible cell or the migration certificate finds an
    /// improving cell, whichever penalties and costs are on.
    #[test]
    fn migration_predicate_matches_eval_plus_solve(
        (hosts, load, queue, now_secs, mask) in round_gen(),
    ) {
        let now = SimTime::from_secs(now_secs);
        let c = world(&hosts, &load, &queue, now_secs);
        let cols = columns(&c, mask);
        for cfg in configs() {
            let eval = Eval::new(&c, &cfg, now, cols.clone());
            let fast = queue_has_feasible_cell(&c) || eval.migration_check().improves;
            prop_assert_eq!(fast, solve_moves(&c, &cfg, now, cols.clone()), "cfg {}", cfg.name);
        }
    }

    /// On periodic and SLA rounds, which carry migration columns when
    /// migration is on, the scheduler skips exactly the rounds that emit
    /// nothing, and runs the solver on every other round.
    #[test]
    fn migration_rounds_skip_exactly_the_fruitless_ones(
        (hosts, load, queue, now_secs, _) in round_gen(),
    ) {
        let now = SimTime::from_secs(now_secs);
        let c = world(&hosts, &load, &queue, now_secs);
        for cfg in configs() {
            for reason in [ScheduleReason::Periodic, ScheduleReason::SlaViolation] {
                let obs = Obs::enabled(16);
                let mut sched = ScoreScheduler::with_obs(cfg.clone(), obs.clone());
                let actions = sched.schedule(&c, &ScheduleContext { now, reason });
                let (skipped, solved) = skipped_and_solved(&obs);
                prop_assert!(skipped + solved <= 1, "one round, one booking");
                if skipped + solved == 1 {
                    prop_assert_eq!(
                        skipped == 1,
                        actions.is_empty(),
                        "cfg {} {:?}: skip fired {}, actions {:?}",
                        cfg.name, reason, skipped, actions
                    );
                } else {
                    prop_assert!(actions.is_empty(), "a round with no columns acted");
                }
            }
        }
    }
}

/// The generator reaches both outcomes: clusters with and without a
/// feasible queued cell (a proptest that only ever saw one side would
/// pass against a constant predicate).
#[test]
fn the_generator_covers_both_outcomes() {
    let now = 600;
    // One small host on another platform, off; one 4-way host, full.
    let hosts = [(0, 1, 2, 4, 2, 1), (1, 1, 2, 0, 0, 1)];
    let load = [(1, 7, 1, 1, 7), (1, 7, 1, 1, 7)];
    let blocked = world(&hosts, &load, &[(2, 0, 3, 1)], now);
    assert!(!queue_has_feasible_cell(&blocked));
    let open = world(&hosts, &[], &[(2, 0, 3, 1)], now);
    assert!(queue_has_feasible_cell(&open));
}

/// The random rounds reach both outcomes of the migration certificate,
/// and each of its stages decides some of them: rounds the O(1) floor
/// alone clears, rounds the exact scan clears, and rounds with a move
/// (a proptest that only ever saw one of these would pass against a
/// predicate that never scans, or never certifies).
#[test]
fn the_generator_reaches_both_outcomes_and_both_stages() {
    let strategy = round_gen();
    let (mut by_floor, mut by_scan, mut moves) = (0, 0, 0);
    // The proptests' own cases: `proptest!` draws case `i` from
    // `TestRng::for_case(i)`.
    for case in 0..256 {
        let (hosts, load, queue, now_secs, mask) = strategy.generate(&mut TestRng::for_case(case));
        let c = world(&hosts, &load, &queue, now_secs);
        let cols = columns(&c, mask);
        if cols.len() == c.queue().len() {
            continue; // no migration column
        }
        let cfg = ScoreConfig::sb();
        let check = Eval::new(&c, &cfg, SimTime::from_secs(now_secs), cols).migration_check();
        match (check.improves, check.scanned) {
            (true, _) => moves += 1,
            (false, 0) => by_floor += 1,
            (false, _) => by_scan += 1,
        }
    }
    assert!(
        by_floor > 0 && by_scan > 0 && moves > 0,
        "floor {by_floor}, scan {by_scan}, moves {moves}"
    );
}
