//! The matrix optimization algorithm (Algorithm 1, §III-B).
//!
//! Hill climbing over the score matrix: after normalizing each column by
//! the VM's current-host cost, repeatedly apply the most-negative move
//! (re-scoring the affected cells) until no improvement remains or the
//! iteration limit is hit. "The Hill Climbing algorithm is greedy, but in
//! this situation it finds a suboptimal solution much faster and cheaper
//! than evaluating all possible configurations."
//!
//! One guard beyond the paper's pseudocode: a VM moved once in a round is
//! frozen for the rest of that round. The real system starts the chosen
//! operation immediately (after which the VM is pinned with an infinite
//! `P_virt` anyway), and the freeze makes termination proofs trivial:
//! at most `min(max_moves, N)` moves per round.
//!
//! ## Candidate ordering (tie-breaking contract)
//!
//! Each sweep picks the candidate minimizing the tuple
//!
//! `(Δ, to, column, row)`
//!
//! under strict lexicographic `<`, where `Δ = to − from` is the
//! delta-normalized benefit and `to` is the **raw** (signed) score of the
//! target cell — *not* its absolute value: between two moves of equal
//! benefit, the one landing in the more negative (more consolidated)
//! cell wins. Remaining ties fall to the lower column index, then the
//! lower host row. This exact tuple is a compatibility contract: the
//! incremental engine ([`crate::shard`]) relies on `from` being constant
//! per column to reduce the within-column order to `(to, row)`, and
//! `tie_breaks_follow_documented_order` pins it.
//!
//! [`solve`] runs the hill climb through the incremental engine as a
//! single-shard [`solve_sharded`] call; [`solve_reference`] is the
//! original full-rescan implementation, kept as the differential-testing
//! oracle (`tests/shard_oracle.rs` asserts move-for-move equality) and as
//! the baseline the solver benchmarks compare against.

use eards_model::ShardMap;

use crate::budget::DegradeLevel;
use crate::eval::Eval;
use crate::score::Score;
use crate::shard::solve_sharded;

/// One applied move: `(matrix column, host row)`.
pub type Move = (usize, usize);

/// Outcome of a solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Moves in application order (each column appears at most once).
    pub moves: Vec<Move>,
    /// Number of full matrix sweeps performed.
    pub sweeps: usize,
    /// Whether the run stopped on the iteration limit rather than on
    /// convergence.
    pub hit_move_limit: bool,
    /// The degradation-ladder rung this solve executed at (caller-
    /// supplied context; plain [`solve`] runs are L0).
    pub degrade: DegradeLevel,
    /// Whether the armed work budget ran out mid-climb: the moves are
    /// the best found so far, not a local optimum.
    pub budget_exhausted: bool,
}

/// Runs hill climbing until convergence or `max_moves`, using the
/// incremental engine over a single shard (identical output to
/// [`solve_reference`], asymptotically cheaper per sweep). An evaluator
/// without hosts has nowhere to place anything: no moves.
pub fn solve(eval: &mut Eval<'_>, max_moves: usize) -> Solution {
    if eval.num_hosts() == 0 {
        return Solution {
            moves: Vec::new(),
            sweeps: 0,
            hit_move_limit: false,
            degrade: DegradeLevel::L0Full,
            budget_exhausted: false,
        };
    }
    let map = ShardMap::single(eval.num_hosts());
    solve_sharded(eval, &map, 0, max_moves, u64::MAX, DegradeLevel::L0Full).solution
}

/// The original full-rescan hill climb: every sweep re-scores the entire
/// matrix from scratch. Retained as the differential-testing oracle for
/// [`solve`] and as the benchmark baseline — not used by the scheduler.
pub fn solve_reference(eval: &mut Eval<'_>, max_moves: usize) -> Solution {
    let n = eval.num_vms();
    let m = eval.num_hosts();
    let mut frozen = vec![false; n];
    let mut moves = Vec::new();
    let mut sweeps = 0;

    while moves.len() < max_moves {
        sweeps += 1;
        // Find the most beneficial move over the whole (delta-normalized)
        // matrix. Ties break on the smaller raw target score, then on
        // column and row order — deterministic across runs (see the
        // module docs for the full ordering contract).
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for (v, &is_frozen) in frozen.iter().enumerate().take(n) {
            if is_frozen {
                continue;
            }
            let from = eval.current_cost(v);
            for h in 0..m {
                if eval.placement_of(v) == Some(h) {
                    continue;
                }
                let to = eval.score(h, v);
                let Some(d) = Score::delta(to, from) else {
                    continue;
                };
                // Creations (from the virtual host) only need any feasible
                // cell; migrations must clear the configured gain bar.
                let bar = if eval.original_of(v).is_some() {
                    -eval.min_migration_gain()
                } else {
                    0.0
                };
                if d >= bar {
                    continue;
                }
                let cand = (d, to.value(), v, h);
                let better = match best {
                    None => true,
                    Some(b) => cand < b,
                };
                if better {
                    best = Some(cand);
                }
            }
        }
        match best {
            Some((_, _, v, h)) => {
                eval.apply_move(v, h);
                frozen[v] = true;
                moves.push((v, h));
            }
            None => {
                return Solution {
                    moves,
                    sweeps,
                    hit_move_limit: false,
                    degrade: DegradeLevel::L0Full,
                    budget_exhausted: false,
                };
            }
        }
    }
    Solution {
        moves,
        sweeps,
        hit_move_limit: true,
        degrade: DegradeLevel::L0Full,
        budget_exhausted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreConfig;
    use eards_model::{
        Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState, VmId,
    };
    use eards_sim::{SimDuration, SimTime};

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
            SimDuration::from_secs(6000),
            1.5,
        )
    }

    #[test]
    fn places_queued_vms() {
        let mut c = cluster(3);
        let a = c.submit_job(job(1, 200));
        let b = c.submit_job(job(2, 100));
        let cfg = ScoreConfig::sb0();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vec![a, b]);
        let sol = solve(&mut eval, 32);
        assert_eq!(sol.moves.len(), 2);
        assert!(!sol.hit_move_limit);
        // Both end on the same host (consolidation).
        assert_eq!(eval.placement_of(0), eval.placement_of(1));
    }

    #[test]
    fn consolidates_via_migration() {
        let mut c = cluster(2);
        let a = c.submit_job(job(1, 200));
        c.start_creation(a, HostId(0), t(0), t(40));
        c.finish_creation(a, t(40));
        let b = c.submit_job(job(2, 100));
        c.start_creation(b, HostId(1), t(0), t(40));
        c.finish_creation(b, t(40));
        let cfg = ScoreConfig::sb();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(100), vec![a, b]);
        let sol = solve(&mut eval, 32);
        // One VM should move so a host can be emptied; the cheaper move is
        // the smaller VM (b: lower migration penalty is equal, but moving
        // either empties a host — tie broken deterministically).
        assert_eq!(sol.moves.len(), 1, "{sol:?}");
        assert_eq!(
            eval.placement_of(0),
            eval.placement_of(1),
            "must end consolidated"
        );
    }

    #[test]
    fn respects_move_limit() {
        let mut c = cluster(10);
        let vms: Vec<VmId> = (0..8).map(|i| c.submit_job(job(i, 100))).collect();
        let cfg = ScoreConfig::sb0();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms);
        let sol = solve(&mut eval, 3);
        assert_eq!(sol.moves.len(), 3);
        assert!(sol.hit_move_limit);
    }

    #[test]
    fn no_moves_when_everything_is_optimal() {
        let mut c = cluster(2);
        let a = c.submit_job(job(1, 300));
        c.start_creation(a, HostId(0), t(0), t(40));
        c.finish_creation(a, t(40));
        let cfg = ScoreConfig::sb();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(100), vec![a]);
        let sol = solve(&mut eval, 32);
        assert!(sol.moves.is_empty(), "a lone VM has nowhere better to go");
    }

    #[test]
    fn never_moves_to_infeasible_host() {
        let mut c = cluster(2);
        c.begin_power_off(HostId(1), t(0));
        let vms: Vec<VmId> = (0..3).map(|i| c.submit_job(job(i, 200))).collect();
        let cfg = ScoreConfig::sb0();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms);
        let sol = solve(&mut eval, 32);
        // Host 0 fits two 200% VMs; the third has no feasible host.
        assert_eq!(sol.moves.len(), 2);
        for &(_, h) in &sol.moves {
            assert_eq!(h, 0);
        }
        assert_eq!(eval.placement_of(2), None, "third VM stays queued");
    }

    #[test]
    fn tie_breaks_follow_documented_order() {
        // Two identical queued VMs on three identical empty hosts: every
        // feasible cell ties on Δ (= −∞ from the virtual host) AND on the
        // raw target score, so the winner must be the lowest (column, row)
        // pair — VM 0 onto host 0.
        let mut c = cluster(3);
        let vms: Vec<VmId> = (0..2).map(|i| c.submit_job(job(i, 100))).collect();
        let cfg = ScoreConfig::sb0();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms.clone());
        assert_eq!(
            solve(&mut eval, 1).moves,
            vec![(0, 0)],
            "full tie must fall to lowest column, then lowest row"
        );

        // Same Δ (−∞), different raw target scores: a bigger VM fills a
        // host further, so its cell is more negative (P_pwr = C_e − O·C_f)
        // and must win even from a *higher* column index — the raw-value
        // tie-break outranks column order.
        let mut c = cluster(3);
        let small = c.submit_job(job(10, 100)); // to = 20 − 0.25·40 = 10
        let big = c.submit_job(job(11, 200)); // to = 20 − 0.50·40 = 0
        let cfg = ScoreConfig::sb0();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vec![small, big]);
        assert_eq!(
            solve(&mut eval, 1).moves,
            vec![(1, 0)],
            "more negative raw score beats lower column index"
        );

        // The reference solver must agree move-for-move on both setups.
        for (mk, expect) in [
            (vec![(0u64, 100u32), (1, 100)], (0usize, 0usize)),
            (vec![(10, 100), (11, 200)], (1, 0)),
        ] {
            let mut c = cluster(3);
            let vms: Vec<VmId> = mk
                .iter()
                .map(|&(id, cpu)| c.submit_job(job(id, cpu)))
                .collect();
            let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms);
            let sol = solve_reference(&mut eval, 1);
            assert_eq!(sol.moves, vec![expect]);
        }
    }

    #[test]
    fn unarmed_budget_is_bit_identical_to_legacy() {
        let mut c = cluster(5);
        let vms: Vec<VmId> = (0..8).map(|i| c.submit_job(job(i, 120))).collect();
        let cfg = ScoreConfig::sb();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms.clone());
        let legacy = solve_reference(&mut eval, 100);
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms);
        let sol = solve(&mut eval, 100);
        assert_eq!(sol.moves, legacy.moves);
        assert!(!sol.budget_exhausted);
        assert_eq!(sol.degrade, DegradeLevel::L0Full);
    }

    #[test]
    fn exhausted_solve_reports_best_so_far() {
        let mut c = cluster(6);
        let vms: Vec<VmId> = (0..10).map(|i| c.submit_job(job(i, 150))).collect();
        let cfg = ScoreConfig::sb();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms);
        let out = solve_sharded(
            &mut eval,
            &ShardMap::single(6),
            0,
            100,
            1,
            DegradeLevel::L0Full,
        );
        // The budget is checked before every sweep, after the engine
        // build has been charged: budget 1 stops the climb before its
        // first move, flagged exhausted.
        assert!(out.solution.budget_exhausted);
        assert!(out.solution.moves.is_empty(), "{:?}", out.solution);
        assert!(out.work_spent >= 1);
    }

    #[test]
    fn each_vm_moves_at_most_once_per_round() {
        let mut c = cluster(4);
        let vms: Vec<VmId> = (0..6).map(|i| c.submit_job(job(i, 150))).collect();
        let cfg = ScoreConfig::sb();
        let mut eval = crate::eval::Eval::new(&c, &cfg, t(0), vms);
        let sol = solve(&mut eval, 100);
        let mut seen = std::collections::HashSet::new();
        for &(v, _) in &sol.moves {
            assert!(seen.insert(v), "column {v} moved twice");
        }
    }
}
