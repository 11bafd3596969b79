//! Property tests for the score-based scheduler: solver invariants over
//! randomized clusters and matrix configurations.

use proptest::prelude::*;

use eards_core::{solve, Eval, ScoreConfig, ScoreScheduler};
use eards_model::{
    Action, Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, Policy, PowerState,
    ScheduleContext, ScheduleReason, VmId,
};
use eards_sim::{SimDuration, SimTime};

/// A randomized cluster: `n_hosts` nodes of mixed classes, some running
/// VMs, some queued VMs.
fn build(n_hosts: u32, class_seed: u8, placed: &[(u8, u8)], queued: &[u8]) -> (Cluster, Vec<VmId>) {
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
            if cluster.can_place(h, vm) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Solver safety: respects the move cap, moves each column at most
    /// once, never targets an infeasible cell, and every *applied* move
    /// was an improvement at application time (for creations: any finite
    /// cell beats the virtual host).
    #[test]
    fn solver_invariants(
        n_hosts in 2u32..8,
        class_seed in any::<u8>(),
        placed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..6),
        queued in proptest::collection::vec(any::<u8>(), 0..6),
        cap in 1usize..16,
    ) {
        let (cluster, cols) = build(n_hosts, class_seed, &placed, &queued);
        let cfg = ScoreConfig::sb();
        let mut eval = Eval::new(&cluster, &cfg, SimTime::from_secs(120), cols.clone());
        let sol = solve(&mut eval, cap);

        prop_assert!(sol.moves.len() <= cap);
        let mut seen = std::collections::HashSet::new();
        for &(v, h) in &sol.moves {
            prop_assert!(v < cols.len());
            prop_assert!(h < cluster.num_hosts());
            prop_assert!(seen.insert(v), "column moved twice");
            // Final placement of a moved VM must be feasible *in the final
            // hypothesis* (strict occupation, requirements).
            prop_assert!(!eval.score(h, v).is_infinite(),
                "move landed on an infeasible cell");
        }
        // Untouched columns keep their original placement.
        for v in 0..cols.len() {
            if !seen.contains(&v) {
                prop_assert_eq!(eval.placement_of(v), eval.original_of(v));
            }
        }
    }

    /// The scheduler's actions are always applicable to the cluster it
    /// was shown (the driver re-validates, but stale actions should be
    /// the exception, not the rule).
    #[test]
    fn scheduler_actions_are_applicable(
        n_hosts in 2u32..8,
        class_seed in any::<u8>(),
        placed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
        queued in proptest::collection::vec(any::<u8>(), 0..5),
    ) {
        let (cluster, _) = build(n_hosts, class_seed, &placed, &queued);
        let mut sched = ScoreScheduler::new(ScoreConfig::sb());
        let ctx = ScheduleContext {
            now: SimTime::from_secs(120),
            reason: ScheduleReason::Periodic,
        };
        let actions = sched.schedule(&cluster, &ctx);
        for a in &actions {
            match *a {
                Action::Create { vm, host } => {
                    prop_assert!(cluster.queue().contains(&vm));
                    // A creation may rely on capacity a same-round
                    // migration is about to vacate (the driver applies the
                    // plan concurrently and tolerates the transient CPU
                    // overcommit); memory feasibility is unconditional.
                    prop_assert!(cluster.can_place_overcommitted(host, vm),
                        "create action infeasible: {vm} on {host}");
                }
                Action::Migrate { vm, to } => {
                    prop_assert!(cluster.vm(vm).state.host() != Some(to));
                    prop_assert!(cluster.can_place(to, vm) ||
                        cluster.can_place_overcommitted(to, vm),
                        "migrate target infeasible");
                }
            }
        }
        // No VM appears in two actions.
        let mut vms = std::collections::HashSet::new();
        for a in &actions {
            let vm = match *a {
                Action::Create { vm, .. } | Action::Migrate { vm, .. } => vm,
            };
            prop_assert!(vms.insert(vm), "{vm} scheduled twice in one round");
        }
    }

    /// Score evaluation never yields NaN, whatever the configuration.
    #[test]
    fn scores_are_never_nan(
        n_hosts in 2u32..6,
        class_seed in any::<u8>(),
        placed in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
        queued in proptest::collection::vec(any::<u8>(), 0..4),
        now_secs in 0u64..10_000,
    ) {
        let (cluster, cols) = build(n_hosts, class_seed, &placed, &queued);
        for cfg in [ScoreConfig::sb0(), ScoreConfig::sb2(), ScoreConfig::full()] {
            let eval = Eval::new(&cluster, &cfg, SimTime::from_secs(now_secs), cols.clone());
            for v in 0..cols.len() {
                for h in 0..cluster.num_hosts() {
                    let s = eval.score(h, v);
                    prop_assert!(!s.value().is_nan(), "NaN score for cfg {}", cfg.name);
                }
            }
        }
    }
}
