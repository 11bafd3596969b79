//! Differential oracle for the hill-climb engine and the sharded solver.
//!
//! Every SB0/SB1/SB2/SB table in EXPERIMENTS.md depends on the solver's
//! exact move sequences. Three contracts from DESIGN.md §6 and §15:
//!
//! * **Reference identity** — [`solve`] (the incremental engine over one
//!   shard) returns moves **identical** to the full-rescan
//!   [`solve_reference`], for every penalty set, on randomized clusters
//!   with mixed host classes and powered-off nodes.
//! * **Single-shard identity** — on any instance whose shard map realizes
//!   one shard, `solve_sharded` is move-for-move identical to the
//!   reference climb, so turning `--shards` on over a small cluster can
//!   never change a run.
//! * **Bounded quality loss** — with a real partition the solver trades
//!   global optimality for locality: it may place a queue column on a
//!   worse host than the one-shard climb, but it must still place *as
//!   many* columns, and the total placement cost must stay within a
//!   modest factor of the one-shard solution.

use eards_core::{solve, solve_reference, solve_sharded, DegradeLevel, Eval, ScoreConfig};
use eards_model::{
    Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState, ShardMap, VmId,
};
use eards_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// A randomized cluster: `n_hosts` nodes of mixed Fast/Medium/Slow
/// classes, some powered off, some VMs already placed, some queued.
fn build(
    n_hosts: u32,
    class_seed: u8,
    off: &[u8],
    placed: &[(u8, u8)],
    queued: &[u8],
) -> (Cluster, Vec<VmId>) {
    let classes = [HostClass::Fast, HostClass::Medium, HostClass::Slow];
    let specs = (0..n_hosts)
        .map(|i| {
            HostSpec::standard(
                HostId(i),
                classes[usize::from(class_seed.wrapping_add(i as u8)) % 3],
            )
        })
        .collect();
    let mut cluster = Cluster::new(specs, PowerState::On);
    // Power some nodes off before anything lands on them: their rows must
    // stay all-infinite through every overlay state.
    for &o in off {
        let h = HostId(u32::from(o) % n_hosts);
        if cluster.host(h).power == PowerState::On {
            cluster.begin_power_off(h, SimTime::ZERO);
        }
    }
    let mut cols = Vec::new();
    let mut next = 0u64;
    let t0 = SimTime::ZERO;
    let t1 = SimTime::from_secs(40);
    for &(cpu_idx, host_bias) in placed {
        let cpu = Cpu(100 * (1 + u32::from(cpu_idx % 4)));
        let vm = cluster.submit_job(Job::new(
            JobId(next),
            t0,
            cpu,
            Mem::gib(1),
            SimDuration::from_secs(3600),
            1.5,
        ));
        next += 1;
        let mut done = false;
        for k in 0..n_hosts {
            let h = HostId((u32::from(host_bias) + k) % n_hosts);
            if cluster.host(h).power == PowerState::On && cluster.can_place(h, vm) {
                cluster.start_creation(vm, h, t0, t1);
                cluster.finish_creation(vm, t1);
                done = true;
                break;
            }
        }
        if done {
            cols.push(vm);
        }
    }
    for &cpu_idx in queued {
        let cpu = Cpu(100 * (1 + u32::from(cpu_idx % 4)));
        let vm = cluster.submit_job(Job::new(
            JobId(next),
            t1,
            cpu,
            Mem::gib(1),
            SimDuration::from_secs(1800),
            1.5,
        ));
        next += 1;
        cols.push(vm);
    }
    (cluster, cols)
}

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn cluster(n: u32) -> Cluster {
    Cluster::new(
        (0..n)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect(),
        PowerState::On,
    )
}

fn job(id: u64, cpu: u32) -> Job {
    Job::new(
        JobId(id),
        SimTime::ZERO,
        Cpu(cpu),
        Mem::gib(1),
        SimDuration::from_secs(7200),
        1.5,
    )
}

/// Builds a cluster with a mix of running and queued VMs from the
/// generated op list; returns the evaluator columns (running first, then
/// queued — the scheduler's own column order).
fn build_instance(hosts: u32, ops: &[(u8, bool)]) -> (Cluster, Vec<VmId>) {
    let mut c = cluster(hosts);
    let mut running = Vec::new();
    let mut queued = Vec::new();
    for (i, &(byte, place)) in ops.iter().enumerate() {
        let cpu = 100 * (1 + u32::from(byte % 3));
        let vm = c.submit_job(job(i as u64, cpu));
        if place {
            let mut placed = false;
            for k in 0..hosts {
                let h = HostId((u32::from(byte) + k) % hosts);
                if c.can_place(h, vm) {
                    c.start_creation(vm, h, t(0), t(40));
                    c.finish_creation(vm, t(40));
                    placed = true;
                    break;
                }
            }
            if placed {
                running.push(vm);
            } else {
                queued.push(vm);
            }
        } else {
            queued.push(vm);
        }
    }
    running.extend(queued);
    (c, running)
}

fn config_for(pick: u8) -> ScoreConfig {
    match pick % 4 {
        0 => ScoreConfig::sb0(),
        1 => ScoreConfig::sb(),
        2 => ScoreConfig::sb2(),
        _ => ScoreConfig::full(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental hill climb and the reference full-rescan climb
    /// produce identical solutions (move-for-move, same sweep count, same
    /// limit flag) and identical final placements.
    #[test]
    fn solve_matches_reference_solver(
        n_hosts in 5u32..50,
        class_seed in any::<u8>(),
        off in proptest::collection::vec(any::<u8>(), 0..4),
        placed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        queued in proptest::collection::vec(any::<u8>(), 0..6),
        cap in 1usize..24,
    ) {
        let (cluster, cols) = build(n_hosts, class_seed, &off, &placed, &queued);
        let now = SimTime::from_secs(120);
        for cfg in [ScoreConfig::sb0(), ScoreConfig::sb(), ScoreConfig::full()] {
            let mut inc = Eval::new(&cluster, &cfg, now, cols.clone());
            let fast = solve(&mut inc, cap);
            let mut refr = Eval::new(&cluster, &cfg, now, cols.clone());
            let slow = solve_reference(&mut refr, cap);
            prop_assert_eq!(
                &fast.moves, &slow.moves,
                "cfg {}: move sequences diverged", &cfg.name
            );
            prop_assert_eq!(fast.hit_move_limit, slow.hit_move_limit);
            for v in 0..cols.len() {
                prop_assert_eq!(inc.placement_of(v), refr.placement_of(v));
            }
        }
    }

    /// The single-shard oracle: `solve_sharded` over the trivial map is
    /// move-for-move identical to the full-rescan climb, whatever the
    /// instance and penalty set.
    #[test]
    fn single_shard_is_bit_identical_to_reference_solve(
        hosts in 2u32..9,
        ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..14),
        cfg_pick in any::<u8>(),
        cap in 1usize..40,
    ) {
        let (c, ids) = build_instance(hosts, &ops);
        let cfg = config_for(cfg_pick);
        let expected = {
            let mut eval = Eval::new(&c, &cfg, t(100), ids.clone());
            solve_reference(&mut eval, cap)
        };
        let mut eval = Eval::new(&c, &cfg, t(100), ids);
        let queued = (0..eval.num_vms())
            .filter(|&v| eval.original_of(v).is_none())
            .count() as u64;
        let map = ShardMap::single(hosts as usize);
        let out = solve_sharded(&mut eval, &map, 0, cap, u64::MAX, DegradeLevel::L0Full);
        prop_assert_eq!(&out.solution.moves, &expected.moves,
            "sharded(1) diverged from the reference climb");
        prop_assert_eq!(out.solution.hit_move_limit, expected.hit_move_limit);
        prop_assert!(!out.solution.budget_exhausted);
        // The cursor advance equals the queue columns dealt, placed or not.
        prop_assert_eq!(out.creations_assigned, queued);
    }
}

/// Bounded quality loss on a real partition: the sharded solver places
/// exactly as many queue columns as the one-shard climb on a uniform
/// cluster with ample capacity, and the total cost of its placements
/// stays within 25% of the one-shard solution's.
#[test]
fn multi_shard_quality_loss_is_bounded() {
    let hosts = 32u32;
    let mut c = cluster(hosts);
    let ids: Vec<_> = (0..60).map(|i| c.submit_job(job(i, 100))).collect();
    let cfg = ScoreConfig::sb();

    let mut whole_eval = Eval::new(&c, &cfg, t(0), ids.clone());
    let whole = solve(&mut whole_eval, 256);

    let mut sharded_eval = Eval::new(&c, &cfg, t(0), ids.clone());
    let map = ShardMap::build(hosts as usize, 4, 4);
    assert_eq!(map.num_shards(), 4);
    let out = solve_sharded(
        &mut sharded_eval,
        &map,
        0,
        256,
        u64::MAX,
        DegradeLevel::L0Full,
    );

    let placed = |eval: &Eval<'_>| -> (usize, f64) {
        let mut count = 0;
        let mut total = 0.0;
        for v in 0..ids.len() {
            if eval.placement_of(v).is_some() {
                count += 1;
                total += eval.current_cost(v).value();
            }
        }
        (count, total)
    };
    let (whole_placed, whole_cost) = placed(&whole_eval);
    let (sharded_placed, sharded_cost) = placed(&sharded_eval);

    assert_eq!(
        whole_placed,
        ids.len(),
        "the one-shard climb must place everything"
    );
    assert_eq!(
        sharded_placed, whole_placed,
        "sharded solver dropped columns the one-shard climb placed"
    );
    // Lower is better (cell scores are minimized; good placements go
    // negative), so the loss is how far sharded sits ABOVE the one-shard
    // climb, relative to its solution's magnitude. Measured ~5% here; 25%
    // leaves room for score-model drift without letting a broken balancer
    // through.
    let loss = sharded_cost - whole_cost;
    assert!(
        loss <= 0.25 * whole_cost.abs() + 1e-9,
        "quality loss beyond bound: sharded {sharded_cost} vs one-shard {whole_cost}"
    );
    assert!(!out.solution.budget_exhausted);
    assert_eq!(whole.moves.len(), out.solution.moves.len());
}
