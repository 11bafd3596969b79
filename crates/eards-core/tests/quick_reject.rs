//! Oracles for the score-based scheduler's quick-reject: a round whose
//! columns are just the queue is skipped when no queued VM has a feasible
//! cell on any host.
//!
//! * [`queue_has_feasible_cell`] agrees with "some cell of the full
//!   [`Eval`] over the queue is finite", for every configuration.
//! * [`ScoreScheduler::schedule`] emits exactly the actions of
//!   [`Eval::new`] plus [`solve`] on queue-only rounds, and skips exactly
//!   the rounds that emit none (the `quick_rejected_rounds` counter).
//!
//! The random clusters cover booting, shutting-down, off and failed
//! hosts, requirement mismatches (architecture, hypervisor,
//! `min_host_cpus`), memory-bound VMs, CPU-overcommitted hosts and
//! `P_SLA` on (`ScoreConfig::full`).

use proptest::collection::vec;
use proptest::prelude::*;

use eards_core::{queue_has_feasible_cell, solve, Eval, ScoreConfig, ScoreScheduler};
use eards_model::{
    Action, Arch, Cluster, Cpu, HostClass, HostId, HostSpec, Hypervisor, Job, JobId, Mem, Policy,
    PowerState, Requirements, ScheduleContext, ScheduleReason,
};
use eards_obs::Obs;
use eards_sim::{SimDuration, SimTime};

const ARCHS: [Arch; 3] = [Arch::X86_64, Arch::X86, Arch::Ppc64];
const HYPERVISORS: [Hypervisor; 2] = [Hypervisor::Xen, Hypervisor::Kvm];
const CLASSES: [HostClass; 3] = [HostClass::Fast, HostClass::Medium, HostClass::Slow];

/// One host: `(class, cores, gib, platform, power, reliability)`.
type HostGen = (u8, u8, u8, u8, u8, u8);
/// One loaded VM: `(host pick, cpu, gib, fate)`.
type LoadGen = (u8, u8, u8, u8);
/// One queued VM: `(cpu, gib, requirement, submit minutes ago)`.
type QueueGen = (u8, u8, u8, u8);

fn configs() -> [ScoreConfig; 5] {
    [
        ScoreConfig::sb0(),
        ScoreConfig::sb1(),
        ScoreConfig::sb2(),
        ScoreConfig::sb(),
        ScoreConfig::full(),
    ]
}

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
/// mixed platforms, loaded (memory strictly, CPU possibly overcommitted
/// by escalation) with creating, running and migrating VMs, then brought
/// into mixed power states, plus a queue of VMs with mixed requirements,
/// some needing most of a host's memory.
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
            ..HostSpec::standard(HostId(i as u32), CLASSES[usize::from(class % 3)])
        })
        .collect();
    let mut c = Cluster::new(specs, PowerState::On);
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
    for &(pick, cpu, gib, fate) in load {
        let vm = c.submit_job(job(
            Cpu(50 * u32::from(cpu % 9)),
            Mem::gib(1 + u32::from(gib % 6)),
            t0,
            3600,
        ));
        let h = HostId(u32::from(pick) % n);
        if !c.can_place_overcommitted(h, vm) {
            continue;
        }
        c.start_creation(vm, h, t0, t40);
        if fate % 4 == 0 {
            continue; // still creating
        }
        c.finish_creation(vm, t40);
        if fate % 3 == 0 {
            let req = c.vm(vm).req_cpu().points();
            c.escalate_requested_cpu(vm, Cpu(req * 2 + 100));
        }
        let to = HostId((h.raw() + 1) % n);
        if fate % 5 == 0 && to != h && c.can_place_overcommitted(to, vm) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The quick-reject predicate is exactly "some cell over the queue is
    /// finite", whichever penalties are on.
    #[test]
    fn predicate_matches_the_exhaustive_eval(
        hosts in host_gen(),
        load in vec(four_bytes(), 0..40),
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
        load in vec(four_bytes(), 0..40),
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
                let skipped = obs
                    .counters_snapshot()
                    .iter()
                    .any(|(name, v)| name == "quick_rejected_rounds" && *v == 1);
                prop_assert_eq!(
                    skipped,
                    !c.queue().is_empty() && expected.is_empty(),
                    "cfg {} {:?}: skip fired {}", cfg.name, reason, skipped
                );
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
    // One small host on another platform, off; one full 4-way host.
    let hosts = [(0, 1, 2, 4, 2, 0), (1, 1, 2, 0, 0, 0)];
    let load = [(1, 8, 1, 1)];
    let blocked = world(&hosts, &load, &[(2, 0, 3, 1)], now);
    assert!(!queue_has_feasible_cell(&blocked));
    let open = world(&hosts, &[], &[(2, 0, 3, 1)], now);
    assert!(queue_has_feasible_cell(&open));
}
