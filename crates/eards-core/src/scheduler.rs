//! The Score-Based Scheduler — the paper's contribution, as a
//! [`Policy`].
//!
//! Each scheduling round (§III-A): collect the candidate VMs (the
//! virtual-host queue, plus every running VM when migration is enabled;
//! VMs with in-flight operations are pinned and excluded), build the
//! [`Eval`] overlay (recycling its allocations across rounds), hill-climb
//! the score matrix with [`solve_sharded`] — over a single shard unless
//! sharding is armed — and emit the resulting create/migrate actions.
//! A round that could emit nothing is skipped before the climb: no queued
//! VM is feasible on any host ([`queue_has_feasible_cell`]) and no
//! migration column has a move-in cell that clears the hysteresis bar
//! ([`Eval::migration_check`]). A queue-only round is skipped before the
//! `Eval` is even built.
//! Power-off candidate ranking (§III-C) aggregates the candidates' matrix
//! rows with [`row_score`].

use eards_model::{
    Action, Cluster, DegradeStats, HostId, Policy, ScheduleContext, ScheduleReason, ShardMap,
    ShardSpec, VmId, VmState,
};
use eards_obs::{CounterId, HistId, Obs, ObsEvent};
use eards_sim::{Persist, PersistError, Reader, Writer};

use crate::budget::{DegradeLevel, OverloadControl, WorkMeter};
use crate::config::ScoreConfig;
use crate::eval::{queue_has_feasible_cell, Eval, EvalBuffers};
use crate::shard::{solve_sharded, ShardedOutcome};
use crate::solver::Solution;

/// Advances the deal `cursor` past `dealt` queue columns, so consecutive
/// rounds rotate the queue across shards instead of always loading shard
/// 0. A single shard has nothing to rotate; the cursor is persisted, so it
/// stays put and unsharded snapshots keep their bytes.
fn advance_cursor(cursor: &mut u64, map: &ShardMap, dealt: u64) {
    if map.num_shards() >= 2 {
        *cursor = cursor.wrapping_add(dealt);
    }
}

/// Stable tag for a [`ScheduleReason`], used in trace events.
fn reason_str(reason: ScheduleReason) -> &'static str {
    match reason {
        ScheduleReason::VmArrived => "vm_arrived",
        ScheduleReason::VmFinished => "vm_finished",
        ScheduleReason::SlaViolation => "sla_violation",
        ScheduleReason::HostStateChanged => "host_state_changed",
        ScheduleReason::Periodic => "periodic",
    }
}

/// The score-based scheduling policy (SB0/SB1/SB2/SB depending on its
/// [`ScoreConfig`]).
///
/// ```
/// use eards_core::{ScoreConfig, ScoreScheduler};
/// use eards_model::*;
/// use eards_sim::{SimDuration, SimTime};
///
/// let mut cluster = Cluster::new(
///     vec![
///         HostSpec::standard(HostId(0), HostClass::Fast),
///         HostSpec::standard(HostId(1), HostClass::Slow),
///     ],
///     PowerState::On,
/// );
/// let vm = cluster.submit_job(Job::new(
///     JobId(0), SimTime::ZERO, Cpu(100), Mem::gib(1),
///     SimDuration::from_secs(600), 1.5,
/// ));
///
/// // SB1 weighs creation cost: the fast node (C_c = 30 s) wins.
/// let mut sched = ScoreScheduler::new(ScoreConfig::sb1());
/// let ctx = ScheduleContext { now: SimTime::ZERO, reason: ScheduleReason::VmArrived };
/// assert_eq!(
///     sched.schedule(&cluster, &ctx),
///     vec![Action::Create { vm, host: HostId(0) }],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ScoreScheduler {
    /// Penalty switches and cost parameters.
    pub cfg: ScoreConfig,
    /// Evaluator allocations recycled across rounds: the scheduler
    /// outlives each round's `&Cluster` borrow, so the overlay vectors
    /// are set up once and reused instead of reallocated every round.
    buffers: EvalBuffers,
    /// Observability handle; disabled by default (every call is a no-op).
    obs: Obs,
    /// The metrics this scheduler records, registered once with `obs`.
    metrics: SchedMetrics,
    /// Overload control (work budget + degradation ladder). `None` keeps
    /// the legacy always-full-quality path.
    ctl: Option<OverloadControl>,
    /// Ladder driver state, persisted so a restored run replays the same
    /// rung sequence bit-for-bit.
    state: DegradeState,
    /// Sharding request for the hierarchical solver (`None` = one shard
    /// over the whole cluster). The realized [`ShardMap`] is derived from
    /// the cluster's host count each round.
    shards: Option<ShardSpec>,
    /// Round-robin cursor for dealing queue columns to shards. Persisted:
    /// a restored run must deal the same columns to the same shards.
    shard_cursor: u64,
    /// Cumulative overload diagnostics (transient; rebuilt from zero on
    /// restore — the bench harness reads it through
    /// [`Policy::degrade_stats`]).
    stats: DegradeStats,
}

/// The ids of the scheduler's counters and histograms, registered once
/// in [`ScoreScheduler::with_obs`], so a round records without a by-name
/// lookup. A disabled handle hands out inert ids.
#[derive(Debug, Clone, Copy)]
struct SchedMetrics {
    solve_us: HistId,
    solver_rounds: CounterId,
    rows_rescored: CounterId,
    rows_per_round: HistId,
    quick_rejected: CounterId,
    degraded_rounds: CounterId,
    budget_pct: HistId,
}

/// Smoothing factor of the ladder's per-round work EWMA.
const WORK_EWMA_ALPHA: f64 = 0.25;

/// The ladder driver's persisted state.
///
/// `work_ewma` smooths recent rounds' deterministic work spend. Because
/// the anytime solver stops *at* the budget, the EWMA alone can never
/// exceed it by much — escalation is driven by the exhaustion flag (the
/// round wanted more work than it got); the EWMA drives recovery (relax
/// only once typical spend is comfortably under budget).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DegradeState {
    rung: DegradeLevel,
    work_ewma: f64,
    last_exhausted: bool,
}

impl Default for DegradeState {
    fn default() -> Self {
        DegradeState {
            rung: DegradeLevel::L0Full,
            work_ewma: 0.0,
            last_exhausted: false,
        }
    }
}

impl Persist for DegradeState {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.rung.persist(w);
        w.put_f64(self.work_ewma);
        w.put_bool(self.last_exhausted);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(DegradeState {
            rung: DegradeLevel::restore(r)?,
            work_ewma: r.get_f64()?,
            last_exhausted: r.get_bool()?,
        })
    }
}

impl ScoreScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: ScoreConfig) -> Self {
        Self::with_obs(cfg, Obs::disabled())
    }

    /// Creates a scheduler that records solver spans, sweep-latency and
    /// dirty-row-invalidation metrics, and per-penalty score attributions
    /// into `obs`.
    pub fn with_obs(cfg: ScoreConfig, obs: Obs) -> Self {
        let metrics = SchedMetrics {
            // Solve latency in µs: sub-ms buckets resolve the common case,
            // the tail buckets catch pathological rounds.
            solve_us: obs.histogram("solve_us", &[50.0, 200.0, 1e3, 5e3, 25e3, 1e5]),
            solver_rounds: obs.counter("solver_rounds"),
            rows_rescored: obs.counter("matrix_rows_rescored"),
            rows_per_round: obs.histogram(
                "rows_rescored_per_round",
                &[2.0, 8.0, 32.0, 128.0, 512.0, 2048.0],
            ),
            quick_rejected: obs.counter("quick_rejected_rounds"),
            degraded_rounds: obs.counter("degraded_rounds"),
            budget_pct: obs.histogram(
                "budget_utilization_pct",
                &[10.0, 25.0, 50.0, 75.0, 90.0, 100.0],
            ),
        };
        ScoreScheduler {
            cfg,
            buffers: EvalBuffers::default(),
            obs,
            metrics,
            ctl: None,
            state: DegradeState::default(),
            shards: None,
            shard_cursor: 0,
            stats: DegradeStats::default(),
        }
    }

    /// Arms overload control: a per-round solver work budget and the
    /// L0→L3 degradation ladder. Without this the scheduler always runs
    /// the full-quality legacy path.
    pub fn with_overload(mut self, ctl: OverloadControl) -> Self {
        self.ctl = Some(ctl);
        self
    }

    /// Arms the sharded hierarchical solver: full-quality rounds
    /// partition the cluster into rack-aligned shards that hill-climb
    /// locally, with a cross-shard balancer re-homing stranded queue
    /// columns between passes (see [`crate::shard`]). A spec that
    /// realizes a single shard (small cluster, or `count <= 1`) runs
    /// exactly the unsharded round.
    pub fn with_shards(mut self, spec: ShardSpec) -> Self {
        self.shards = Some(spec);
        self
    }

    /// The shard map for this round over `num_hosts > 0` hosts: the
    /// armed spec's partition, or one shard when sharding is off.
    fn shard_map_for(&self, num_hosts: usize) -> ShardMap {
        match self.shards.filter(|s| s.count >= 2) {
            Some(spec) => ShardMap::build(num_hosts, spec.rack_size, spec.count),
            None => ShardMap::single(num_hosts),
        }
    }

    /// Picks this round's ladder rung from the persisted driver state.
    /// See [`DegradeState`] for the escalate/relax rationale.
    fn select_rung(&mut self) -> DegradeLevel {
        let Some(ctl) = self.ctl else {
            return DegradeLevel::L0Full;
        };
        if let Some(forced) = ctl.force {
            self.state.rung = forced;
            return forced;
        }
        if ctl.budget == u64::MAX {
            return DegradeLevel::L0Full;
        }
        let budget = ctl.budget as f64;
        let mut rung = self.state.rung;
        if self.state.last_exhausted || self.state.work_ewma > budget {
            rung = rung.escalate();
        } else if self.state.work_ewma <= budget / 2.0 {
            rung = rung.relax();
        }
        self.state.rung = rung;
        rung
    }

    /// Books one executed round into the ladder state, the cumulative
    /// stats, and the observability layer.
    fn finish_round(
        &mut self,
        ctx: &ScheduleContext,
        rung: DegradeLevel,
        spent: u64,
        exhausted: bool,
    ) {
        let Some(ctl) = self.ctl else { return };
        self.state.work_ewma =
            WORK_EWMA_ALPHA * spent as f64 + (1.0 - WORK_EWMA_ALPHA) * self.state.work_ewma;
        self.state.last_exhausted = exhausted;
        self.stats.rounds += 1;
        self.stats.rounds_at[rung.index()] += 1;
        self.stats.total_work += spent;
        self.stats.max_round_work = self.stats.max_round_work.max(spent);
        if rung != DegradeLevel::L0Full {
            self.stats.degraded_rounds += 1;
        }
        if exhausted {
            self.stats.exhausted_rounds += 1;
        }
        if self.obs.is_enabled() {
            if rung != DegradeLevel::L0Full || exhausted {
                self.obs.inc(self.metrics.degraded_rounds, 1);
                self.obs.record(
                    ctx.now,
                    ObsEvent::RoundDegraded {
                        level: rung.label(),
                        work_spent: spent,
                        budget: ctl.budget,
                        exhausted,
                    },
                );
            }
            if ctl.budget != u64::MAX && ctl.budget > 0 {
                self.obs.observe(
                    self.metrics.budget_pct,
                    spent as f64 * 100.0 / ctl.budget as f64,
                );
            }
        }
    }

    /// L2: greedy first-feasible placement of the queue columns — no
    /// matrix, no hill climb, one `O(M)` probe scan per queued VM,
    /// charged one work unit per probed cell so even this floor rung
    /// respects the budget.
    fn greedy_first_feasible(
        eval: &mut Eval<'_>,
        budget: u64,
        rung: DegradeLevel,
    ) -> ShardedOutcome {
        let n = eval.num_vms();
        let m = eval.num_hosts();
        let mut meter = WorkMeter::with_budget(budget);
        let mut moves = Vec::new();
        let mut exhausted = false;
        'cols: for v in 0..n {
            for h in 0..m {
                if meter.exhausted() {
                    exhausted = true;
                    break 'cols;
                }
                meter.charge(1);
                if !eval.score(h, v).is_infinite() {
                    eval.apply_move(v, h);
                    moves.push((v, h));
                    break;
                }
            }
        }
        ShardedOutcome {
            solution: Solution {
                moves,
                sweeps: 1,
                hit_move_limit: false,
                degrade: rung,
                budget_exhausted: exhausted,
            },
            work_spent: meter.spent(),
            rows_rescored: 0,
            creations_assigned: 0,
            balanced: 0,
        }
    }

    /// Solves one round at `rung` from the current deal cursor: greedy
    /// first-feasible on L2, the sharded climb otherwise. The caller
    /// advances the cursor ([`advance_cursor`]).
    fn solve_round(
        &self,
        eval: &mut Eval<'_>,
        map: &ShardMap,
        rung: DegradeLevel,
    ) -> ShardedOutcome {
        let budget = self.ctl.map_or(u64::MAX, |c| c.budget);
        if rung == DegradeLevel::L2Greedy {
            Self::greedy_first_feasible(eval, budget, rung)
        } else {
            solve_sharded(
                eval,
                map,
                self.shard_cursor,
                self.cfg.max_moves,
                budget,
                rung,
            )
        }
    }

    /// Books a round the quick-reject skipped (DESIGN.md §17): no queued VM
    /// has a feasible cell and no migration column clears its bar, so the
    /// solve would emit nothing. The round's columns are in
    /// `self.buffers.vms`. No solver runs and 0 work is charged. The cursor
    /// moves as the solve would have moved it (the climb deals every queue
    /// column before scoring; greedy deals none), and the `ScheduleRound`
    /// event is still recorded.
    fn skip_round(
        &mut self,
        cluster: &Cluster,
        ctx: &ScheduleContext,
        rung: DegradeLevel,
        map: &ShardMap,
    ) {
        let queued = cluster.queue().len();
        let dealt = if rung == DegradeLevel::L2Greedy {
            0
        } else {
            queued as u64
        };
        // The verified-skip cross-check: debug builds run the skipped
        // solve anyway and assert it agrees.
        #[cfg(debug_assertions)]
        {
            let mut eval = Eval::new(cluster, &self.cfg, ctx.now, self.buffers.vms.clone());
            let out = self.solve_round(&mut eval, map, rung);
            debug_assert!(
                out.solution.moves.is_empty(),
                "quick-reject skipped a round with moves {:?}",
                out.solution.moves
            );
            debug_assert_eq!(out.creations_assigned, dealt, "cursor advance");
        }
        advance_cursor(&mut self.shard_cursor, map, dealt);
        if self.obs.is_enabled() {
            self.obs.inc(self.metrics.quick_rejected, 1);
            self.obs.record(
                ctx.now,
                ObsEvent::ScheduleRound {
                    reason: reason_str(ctx.reason),
                    actions: 0,
                    queued: queued as u32,
                },
            );
        }
        self.finish_round(ctx, rung, 0, false);
    }

    /// The matrix columns for the current round: the queue, plus — when
    /// migration is enabled — running VMs hosted on nodes the
    /// consolidation force actively wants drained. §III-A.4 punishes VMs
    /// on under-used hosts "since we want these VMs to move away"; a host
    /// qualifies when it is *emptiable* (≤ `TH_empty` VMs) or when its
    /// occupation is below `C_e / C_f` — the point where the emptiable
    /// penalty would outweigh the fill reward, so candidacy scales with
    /// the configured aggressiveness (Table V: higher `C_e`/`C_f` pairs
    /// migrate more). VMs on well-filled hosts have no consolidation
    /// motive; restricting the columns keeps migration counts in a sane
    /// regime instead of re-evaluating the whole datacenter every round.
    fn candidate_vms_into(&self, cluster: &Cluster, migrate_now: bool, cols: &mut Vec<VmId>) {
        cols.clear();
        cols.extend_from_slice(cluster.queue());
        if self.cfg.migration && migrate_now {
            let occ_bar = if self.cfg.c_fill > 0.0 {
                self.cfg.c_empty / self.cfg.c_fill
            } else {
                0.0
            };
            let queue_len = cols.len();
            cols.extend(
                cluster
                    .hosts()
                    .iter()
                    .filter(|h| {
                        h.resident.len() + h.incoming.len() <= self.cfg.th_empty
                            || cluster.occupation(h.spec.id) < occ_bar
                    })
                    .flat_map(|h| h.resident.iter().copied())
                    .filter(|&v| matches!(cluster.vm(v).state, VmState::Running { .. })),
            );
            cols[queue_len..].sort_unstable(); // deterministic column order
        }
    }
}

impl Policy for ScoreScheduler {
    fn name(&self) -> String {
        self.cfg.name.clone()
    }

    fn uses_migration(&self) -> bool {
        self.cfg.migration
    }

    fn schedule(&mut self, cluster: &Cluster, ctx: &ScheduleContext) -> Vec<Action> {
        // §I: the policy "periodically calculates whether to move jobs" —
        // migration columns enter the matrix only on periodic consolidation
        // rounds (and SLA-violation rounds, where a move is the remedy);
        // event-triggered rounds only place the queue.
        let migrate_now = matches!(
            ctx.reason,
            ScheduleReason::Periodic | ScheduleReason::SlaViolation
        );
        // Overload control: pick this round's ladder rung up front — L1
        // and above drop migration candidates, L3 defers the round
        // entirely (queue intact; the driver's periodic timers re-arm).
        let rung = self.select_rung();
        if rung == DegradeLevel::L3Defer {
            self.finish_round(ctx, rung, 0, false);
            return Vec::new();
        }
        let effective_migrate = migrate_now && rung == DegradeLevel::L0Full;
        let mut cols = std::mem::take(&mut self.buffers.vms);
        self.candidate_vms_into(cluster, effective_migrate, &mut cols);
        // No columns, or no host rows to place them on: nothing to do.
        if cols.is_empty() || cluster.num_hosts() == 0 {
            self.buffers.vms = cols;
            return Vec::new();
        }
        let map = self.shard_map_for(cluster.num_hosts());
        // Quick-reject: a round emits a move exactly when some queued VM
        // has a feasible cell or some migration column clears its bar on
        // the start-of-round state. A queue-only round needs no `Eval`.
        let queue_moves = queue_has_feasible_cell(cluster);
        if !queue_moves && cols.len() == cluster.queue().len() {
            self.buffers.vms = cols;
            self.skip_round(cluster, ctx, rung, &map);
            return Vec::new();
        }
        let queued = cluster.queue().len() as u32;
        let mut eval = Eval::new_in(cluster, &self.cfg, ctx.now, cols, &mut self.buffers);
        if !queue_moves && !eval.migration_check().improves {
            eval.recycle(&mut self.buffers);
            self.skip_round(cluster, ctx, rung, &map);
            return Vec::new();
        }
        let out = {
            let _span = self
                .obs
                .span("solve", ctx.now)
                .with_hist(self.metrics.solve_us);
            self.solve_round(&mut eval, &map, rung)
        };
        advance_cursor(&mut self.shard_cursor, &map, out.creations_assigned);
        let (sol, rows_rescored, work_spent) = (out.solution, out.rows_rescored, out.work_spent);
        if self.obs.is_enabled() {
            self.obs.inc(self.metrics.solver_rounds, 1);
            self.obs.inc(self.metrics.rows_rescored, rows_rescored);
            self.obs
                .observe(self.metrics.rows_per_round, rows_rescored as f64);
            self.obs.record(
                ctx.now,
                ObsEvent::ScheduleRound {
                    reason: reason_str(ctx.reason),
                    actions: sol.moves.len() as u32,
                    queued,
                },
            );
            // Attribute each chosen move's score term by term. The solver
            // already applied the moves to the overlay, so each breakdown
            // reflects exactly the end-of-round state its decision saw.
            for &(v, h) in &sol.moves {
                let bd = eval.score_breakdown(h, v);
                self.obs.record(
                    ctx.now,
                    ObsEvent::ScoreAttribution {
                        vm: eval.vms()[v].raw(),
                        host: h as u32,
                        migration: eval.original_of(v).is_some(),
                        movein: bd.movein,
                        pwr: bd.pwr,
                        sla: bd.sla,
                        fault: bd.fault,
                        total: bd.total,
                    },
                );
            }
        }

        // Each column moves at most once, so the move list maps directly
        // to actions; emission order follows solver order (most beneficial
        // first), which the driver preserves.
        let actions = sol
            .moves
            .iter()
            .map(|&(v, h)| {
                let vm = eval.vms()[v];
                let host = HostId(h as u32);
                match eval.original_of(v) {
                    None => Action::Create { vm, host },
                    Some(_) => Action::Migrate { vm, to: host },
                }
            })
            .collect();
        eval.recycle(&mut self.buffers);
        self.finish_round(ctx, rung, work_spent, sol.budget_exhausted);
        actions
    }

    /// The ladder driver state and the shard deal cursor cross rounds, so
    /// they must survive snapshot/restore or a resumed run would replay
    /// different rungs / deal queue columns to different shards. Written
    /// unconditionally (fixed layout whether or not overload control or
    /// sharding is armed — snapshot v3); `stats` is transient diagnostics
    /// and is deliberately not persisted.
    fn persist_state(&self, w: &mut Writer) {
        self.state.persist(w);
        w.put_u64(self.shard_cursor);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.state = DegradeState::restore(r)?;
        self.shard_cursor = r.get_u64()?;
        Ok(())
    }

    fn degrade_stats(&self) -> Option<DegradeStats> {
        self.ctl.map(|_| self.stats)
    }

    /// §III-C: victims for power-off are picked by the aggregated matrix
    /// row "taking into account the number of infinity scores. Those nodes
    /// with a higher score are selected to be turned off."
    fn rank_power_off(
        &self,
        cluster: &Cluster,
        now: eards_sim::SimTime,
        candidates: &[HostId],
    ) -> Vec<HostId> {
        let mut cols = Vec::new();
        self.candidate_vms_into(cluster, false, &mut cols);
        let eval = Eval::new(cluster, &self.cfg, now, cols);
        // Only the candidate rows are aggregated: O(|candidates|·N), the
        // rest of the matrix is never scored.
        let mut scored: Vec<(usize, f64, HostId)> = candidates
            .iter()
            .map(|&h| {
                let (infs, sum) = row_score(&eval, h.raw() as usize);
                (infs, sum, h)
            })
            .collect();
        // More infeasible cells first, then higher aggregate cost, then
        // higher id (turn off the "back" of the datacenter first).
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.total_cmp(&a.1)).then(b.2.cmp(&a.2)));
        scored.into_iter().map(|(_, _, h)| h).collect()
    }

    /// §III-C: nodes to turn on are "selected according to a number of
    /// parameters, including reliability, boot time, etc." Reliability
    /// participates only when the `P_fault` extension is enabled — a
    /// reliability-blind configuration must not secretly be
    /// reliability-aware here.
    fn rank_power_on(&self, cluster: &Cluster, candidates: &[HostId]) -> Vec<HostId> {
        let mut ranked = candidates.to_vec();
        let fault_aware = self.cfg.fault_penalty;
        ranked.sort_by(|&a, &b| {
            let sa = &cluster.host(a).spec;
            let sb = &cluster.host(b).spec;
            let rel = if fault_aware {
                // Effective reliability, so blacklisted hosts boot last.
                cluster
                    .effective_reliability(b)
                    .total_cmp(&cluster.effective_reliability(a))
            } else {
                std::cmp::Ordering::Equal
            };
            rel.then(sa.class.boot_time().cmp(&sb.class.boot_time()))
                .then(sa.class.creation_cost().cmp(&sb.class.creation_cost()))
                .then(a.cmp(&b))
        });
        ranked
    }
}

/// The §III-C power-off aggregate of host row `host`: the number of
/// infinite cells and the sum of the finite ones, in column order.
pub fn row_score(eval: &Eval<'_>, host: usize) -> (usize, f64) {
    let mut infs = 0;
    let mut sum = 0.0;
    for v in 0..eval.num_vms() {
        let s = eval.score(host, v);
        if s.is_infinite() {
            infs += 1;
        } else {
            sum += s.value();
        }
    }
    (infs, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState, ScheduleReason};
    use eards_sim::{SimDuration, SimTime};

    fn ctx(now: u64) -> ScheduleContext {
        ScheduleContext {
            now: SimTime::from_secs(now),
            reason: ScheduleReason::Periodic,
        }
    }

    fn cluster(classes: &[HostClass]) -> Cluster {
        Cluster::new(
            classes
                .iter()
                .enumerate()
                .map(|(i, &c)| HostSpec::standard(HostId(i as u32), c))
                .collect(),
            PowerState::On,
        )
    }

    fn job(id: u64, cpu: u32, secs: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(secs),
            1.5,
        )
    }

    #[test]
    fn sb0_consolidates_new_vms() {
        let mut c = cluster(&[HostClass::Medium; 4]);
        let a = c.submit_job(job(1, 200, 600));
        let b = c.submit_job(job(2, 100, 600));
        let mut sched = ScoreScheduler::new(ScoreConfig::sb0());
        let actions = sched.schedule(&c, &ctx(0));
        assert_eq!(actions.len(), 2);
        let hosts: Vec<HostId> = actions
            .iter()
            .map(|a| match a {
                Action::Create { host, .. } => *host,
                _ => panic!("SB0 must not migrate"),
            })
            .collect();
        assert_eq!(hosts[0], hosts[1], "both land on the same host");
        let vms: Vec<VmId> = actions
            .iter()
            .map(|a| match a {
                Action::Create { vm, .. } => *vm,
                _ => unreachable!(),
            })
            .collect();
        assert!(vms.contains(&a) && vms.contains(&b));
    }

    #[test]
    fn sb1_prefers_fast_creation_nodes() {
        // Equal power situation, different creation costs: SB1 should pick
        // the fast node; SB0 (no P_virt) is indifferent and picks the
        // first-by-tiebreak.
        let mut c = cluster(&[HostClass::Slow, HostClass::Fast]);
        let vm = c.submit_job(job(1, 100, 600));
        let mut sb1 = ScoreScheduler::new(ScoreConfig::sb1());
        let actions = sb1.schedule(&c, &ctx(0));
        assert_eq!(
            actions,
            vec![Action::Create {
                vm,
                host: HostId(1)
            }],
            "fast node (Cc=30) beats slow (Cc=60)"
        );
    }

    #[test]
    fn sb2_avoids_hosts_with_inflight_ops() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        // Host 0 is creating a VM; host 1 is free but would be "emptiable".
        let a = c.submit_job(job(1, 100, 600));
        c.start_creation(a, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        let b = c.submit_job(job(2, 100, 600));
        let mut sb2 = ScoreScheduler::new(ScoreConfig::sb2());
        let actions = sb2.schedule(&c, &ctx(10));
        // Concurrency penalty (40) outweighs the consolidation edge
        // (C_e + ΔO·C_f = 20 + 10): SB2 picks the idle host.
        assert_eq!(
            actions,
            vec![Action::Create {
                vm: b,
                host: HostId(1)
            }]
        );

        // SB1 (no P_conc) makes the opposite call — it stacks.
        let mut sb1 = ScoreScheduler::new(ScoreConfig::sb1());
        let actions = sb1.schedule(&c, &ctx(10));
        assert_eq!(
            actions,
            vec![Action::Create {
                vm: b,
                host: HostId(0)
            }]
        );
    }

    #[test]
    fn sb_emits_consolidation_migrations() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        for (i, h) in [(0u64, HostId(0)), (1, HostId(1))] {
            let vm = c.submit_job(job(i, 150, 100_000));
            c.start_creation(vm, h, SimTime::ZERO, SimTime::from_secs(40));
            c.finish_creation(vm, SimTime::from_secs(40));
        }
        let mut sb = ScoreScheduler::new(ScoreConfig::sb());
        let actions = sb.schedule(&c, &ctx(100));
        assert_eq!(actions.len(), 1);
        assert!(
            matches!(actions[0], Action::Migrate { .. }),
            "two half-empty hosts must merge: {actions:?}"
        );
    }

    #[test]
    fn migration_suppressed_near_completion() {
        // Same situation, but the jobs are about to finish (T_r small):
        // P_m = 2·C_m dwarfs the consolidation gain, so SB leaves them.
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        for (i, h) in [(0u64, HostId(0)), (1, HostId(1))] {
            let vm = c.submit_job(job(i, 150, 130));
            c.start_creation(vm, h, SimTime::ZERO, SimTime::from_secs(40));
            c.finish_creation(vm, SimTime::from_secs(40));
        }
        let mut sb = ScoreScheduler::new(ScoreConfig::sb());
        let actions = sb.schedule(&c, &ctx(100)); // T_r = 30 s < C_m = 60 s
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn queued_vm_with_no_feasible_host_stays_queued() {
        let mut c = cluster(&[HostClass::Medium]);
        let a = c.submit_job(job(1, 400, 6000));
        c.start_creation(a, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        c.finish_creation(a, SimTime::from_secs(40));
        let _b = c.submit_job(job(2, 100, 600));
        let mut sb = ScoreScheduler::new(ScoreConfig::sb());
        let actions = sb.schedule(&c, &ctx(50));
        assert!(actions.is_empty(), "full datacenter: nothing placeable");
    }

    /// `hosts` Medium hosts, each filled by a running 400% VM, plus
    /// `queued` 100% VMs waiting: no queued VM fits anywhere.
    fn full_cluster(hosts: usize, queued: u64) -> Cluster {
        let mut c = cluster(&vec![HostClass::Medium; hosts]);
        for h in 0..hosts {
            let vm = c.submit_job(job(h as u64, 400, 6000));
            c.start_creation(vm, HostId(h as u32), SimTime::ZERO, SimTime::from_secs(40));
            c.finish_creation(vm, SimTime::from_secs(40));
        }
        for i in 0..queued {
            let _ = c.submit_job(job(100 + i, 100, 600));
        }
        c
    }

    /// Asserts that `obs` saw exactly one round, skipped: one
    /// `schedule_round` event with no actions and `queued` VMs waiting,
    /// a `quick_rejected_rounds` bump, and no solver round or span.
    fn assert_one_skipped_round(obs: &Obs, queued: u32) {
        let rounds: Vec<String> = obs
            .export_jsonl()
            .lines()
            .filter(|l| l.contains("\"schedule_round\""))
            .map(String::from)
            .collect();
        assert_eq!(rounds.len(), 1, "{rounds:?}");
        assert!(
            rounds[0].contains(&format!("\"actions\":0,\"queued\":{queued}")),
            "{}",
            rounds[0]
        );
        let counters = obs.counters_snapshot();
        let count = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(count("quick_rejected_rounds"), 1);
        assert_eq!(count("solver_rounds"), 0);
        assert_eq!(obs.spans_recorded(), 0, "no solve span");
    }

    #[test]
    fn quick_rejected_round_records_its_event_but_no_solver_round() {
        let c = full_cluster(2, 2);
        let obs = Obs::enabled(64);
        let mut sched = ScoreScheduler::with_obs(ScoreConfig::sb(), obs.clone());
        let arrived = ScheduleContext {
            now: SimTime::from_secs(50),
            reason: ScheduleReason::VmArrived,
        };
        assert!(sched.schedule(&c, &arrived).is_empty());
        assert_one_skipped_round(&obs, 2);
    }

    #[test]
    fn fruitless_migration_round_is_quick_rejected() {
        // Two lone VMs whose estimates end in 30 s, under a Medium host's
        // C_m of 60 s: the periodic round makes both migration columns,
        // and P_virt = 2·C_m keeps every move above the hysteresis bar.
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        for (i, h) in [(0u64, HostId(0)), (1, HostId(1))] {
            let vm = c.submit_job(job(i, 150, 130));
            c.start_creation(vm, h, SimTime::ZERO, SimTime::from_secs(40));
            c.finish_creation(vm, SimTime::from_secs(40));
        }
        let obs = Obs::enabled(64);
        let mut sched = ScoreScheduler::with_obs(ScoreConfig::sb(), obs.clone());
        assert!(sched.schedule(&c, &ctx(100)).is_empty());
        assert_one_skipped_round(&obs, 0);

        // Obs off, a spec that realizes one shard: the skip books a round
        // of 0 work and leaves the persisted cursor alone.
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::with_budget(u64::MAX))
            .with_shards(ShardSpec {
                count: 4,
                rack_size: 8,
            });
        assert!(s.schedule(&c, &ctx(100)).is_empty());
        assert_eq!(s.shard_cursor, 0);
        let stats = s.degrade_stats().expect("armed");
        assert_eq!((stats.rounds, stats.total_work), (1, 0));
    }

    #[test]
    fn quick_rejected_round_books_zero_work_and_deals_the_queue() {
        // Two shards of two hosts, all four full: the skipped round moves
        // the cursor by the queue length, as the climb's deal would, and
        // books a round of 0 work into the ladder.
        let c = full_cluster(4, 3);
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::with_budget(u64::MAX))
            .with_shards(ShardSpec {
                count: 2,
                rack_size: 2,
            });
        let arrived = ScheduleContext {
            now: SimTime::from_secs(50),
            reason: ScheduleReason::VmArrived,
        };
        assert!(s.schedule(&c, &arrived).is_empty());
        assert_eq!(s.shard_cursor, 3);
        let stats = s.degrade_stats().expect("armed");
        assert_eq!((stats.rounds, stats.total_work), (1, 0));
        // Greedy deals nothing, so its skipped rounds leave the cursor.
        let mut greedy = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::forced(1000, DegradeLevel::L2Greedy))
            .with_shards(ShardSpec {
                count: 2,
                rack_size: 2,
            });
        assert!(greedy.schedule(&c, &arrived).is_empty());
        assert_eq!(greedy.shard_cursor, 0);
    }

    #[test]
    fn rank_power_on_prefers_reliable_fast_booting() {
        let mut specs = vec![
            HostSpec::standard(HostId(0), HostClass::Slow),
            HostSpec::standard(HostId(1), HostClass::Fast),
            HostSpec::standard(HostId(2), HostClass::Fast),
        ];
        specs[2].reliability = 0.8;
        let c = Cluster::new(specs, PowerState::Off);
        // Reliability only ranks when the P_fault extension is enabled.
        let sched = ScoreScheduler::new(ScoreConfig::full());
        let ranked = sched.rank_power_on(&c, &[HostId(0), HostId(1), HostId(2)]);
        assert_eq!(ranked, vec![HostId(1), HostId(0), HostId(2)]);

        // A fault-blind configuration ignores reliability: both Fast nodes
        // rank ahead of the Slow one, in id order.
        let blind = ScoreScheduler::new(ScoreConfig::sb());
        let ranked = blind.rank_power_on(&c, &[HostId(0), HostId(1), HostId(2)]);
        assert_eq!(ranked, vec![HostId(1), HostId(2), HostId(0)]);
    }

    #[test]
    fn rank_power_off_prefers_costly_hosts() {
        // Host 1 is slow (higher creation cost in the rows once P_virt is
        // on) — it should be offered for power-off before the fast host.
        let mut c = cluster(&[HostClass::Fast, HostClass::Slow]);
        let _q = c.submit_job(job(1, 100, 600));
        let sched = ScoreScheduler::new(ScoreConfig::sb1());
        let ranked = sched.rank_power_off(&c, SimTime::ZERO, &[HostId(0), HostId(1)]);
        assert_eq!(ranked, vec![HostId(1), HostId(0)]);
    }

    #[test]
    fn rank_power_off_tiebreak_matches_partial_cmp_reference() {
        // `total_cmp` replaced `partial_cmp(..).expect(..)` in the
        // power-off ranking (lint D004). For the finite sums the solver
        // produces the two comparators must order identically — Tables
        // II–IV depend on the exact host sequence — so pin the ranking
        // against a reference sort using the old comparator, across
        // cluster shapes that include equal-sum ties (identical classes).
        for (shape, queued) in [
            (vec![HostClass::Medium; 4], vec![(1u64, 100u32, 600u64)]),
            (
                vec![
                    HostClass::Fast,
                    HostClass::Medium,
                    HostClass::Medium,
                    HostClass::Slow,
                ],
                vec![(1, 150, 900), (2, 300, 1200)],
            ),
            (vec![HostClass::Fast, HostClass::Slow], vec![]),
        ] {
            let mut c = cluster(&shape);
            for &(id, cpu, dur) in &queued {
                let _ = c.submit_job(job(id, cpu, dur));
            }
            let candidates: Vec<HostId> = (0..shape.len() as u32).map(HostId).collect();
            let sched = ScoreScheduler::new(ScoreConfig::sb1());
            let ranked = sched.rank_power_off(&c, SimTime::ZERO, &candidates);

            let mut cols = Vec::new();
            sched.candidate_vms_into(&c, false, &mut cols);
            let eval = Eval::new(&c, &sched.cfg, SimTime::ZERO, cols);
            let mut scored: Vec<(usize, f64, HostId)> = candidates
                .iter()
                .map(|&h| {
                    let (infs, sum) = row_score(&eval, h.raw() as usize);
                    (infs, sum, h)
                })
                .collect();
            scored.sort_by(|a, b| {
                b.0.cmp(&a.0)
                    // lint:allow(D004): the old comparator IS the oracle here
                    .then(b.1.partial_cmp(&a.1).expect("finite sums"))
                    .then(b.2.cmp(&a.2))
            });
            let reference: Vec<HostId> = scored.into_iter().map(|(_, _, h)| h).collect();
            assert_eq!(ranked, reference, "shape {shape:?}");
        }
    }

    #[test]
    fn zero_host_cluster_with_a_queue_yields_no_actions() {
        // No rows to place on (and no shard map over an empty cluster):
        // both entry points must return empty instead of panicking.
        let mut c = cluster(&[]);
        let vm = c.submit_job(job(1, 100, 600));
        for cfg in [ScoreConfig::sb0(), ScoreConfig::sb()] {
            let mut eval = Eval::new(&c, &cfg, SimTime::ZERO, vec![vm]);
            assert!(crate::solver::solve(&mut eval, 8).moves.is_empty());
            let mut sched = ScoreScheduler::new(cfg.clone());
            assert!(sched.schedule(&c, &ctx(0)).is_empty());
            assert!(sched.rank_power_off(&c, SimTime::ZERO, &[]).is_empty());
            let mut sharded = ScoreScheduler::new(cfg).with_shards(ShardSpec {
                count: 4,
                rack_size: 8,
            });
            assert!(sharded.schedule(&c, &ctx(0)).is_empty());
            assert_eq!(sharded.shard_cursor, 0);
        }
    }

    #[test]
    fn empty_queue_no_migration_is_a_noop() {
        let c = cluster(&[HostClass::Medium]);
        let mut sched = ScoreScheduler::new(ScoreConfig::sb2());
        assert!(sched.schedule(&c, &ctx(0)).is_empty());
    }

    #[test]
    fn unlimited_overload_control_is_bit_identical_to_unarmed() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Fast, HostClass::Slow]);
        for i in 0..4 {
            let _ = c.submit_job(job(i, 120, 900));
        }
        let mut plain = ScoreScheduler::new(ScoreConfig::full());
        let mut armed = ScoreScheduler::new(ScoreConfig::full())
            .with_overload(OverloadControl::with_budget(u64::MAX));
        assert_eq!(plain.schedule(&c, &ctx(0)), armed.schedule(&c, &ctx(0)));
    }

    #[test]
    fn ladder_escalates_on_exhaustion_and_relaxes_when_quiet() {
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::with_budget(1000));
        assert_eq!(s.select_rung(), DegradeLevel::L0Full);
        // Three budget-blown rounds climb one rung each (the exhaustion
        // flag drives escalation — the anytime solver stops *at* the
        // budget, so spend alone can never exceed it by much).
        for expect in [
            DegradeLevel::L1QueueOnly,
            DegradeLevel::L2Greedy,
            DegradeLevel::L3Defer,
        ] {
            let rung = s.state.rung;
            s.finish_round(&ctx(0), rung, 1000, true);
            assert_eq!(s.select_rung(), expect);
        }
        // L3 saturates.
        s.finish_round(&ctx(0), DegradeLevel::L3Defer, 0, true);
        assert_eq!(s.select_rung(), DegradeLevel::L3Defer);
        // Quiet rounds decay the EWMA; once it drops under half the
        // budget the ladder steps back one rung per round, to L0.
        let mut seen = Vec::new();
        for _ in 0..40 {
            let rung = s.state.rung;
            s.finish_round(&ctx(0), rung, 0, false);
            seen.push(s.select_rung());
            if *seen.last().unwrap() == DegradeLevel::L0Full {
                break;
            }
        }
        assert_eq!(seen.last(), Some(&DegradeLevel::L0Full), "{seen:?}");
        // Monotone descent: the recovery path never re-escalates.
        assert!(seen.windows(2).all(|w| w[1] <= w[0]), "{seen:?}");
        let stats = s.degrade_stats().expect("armed scheduler reports stats");
        assert!(stats.degraded_rounds > 0);
        assert_eq!(stats.exhausted_rounds, 4);
    }

    #[test]
    fn forced_greedy_rung_places_first_feasible() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        let a = c.submit_job(job(1, 100, 600));
        let b = c.submit_job(job(2, 100, 600));
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::forced(100_000, DegradeLevel::L2Greedy));
        let actions = s.schedule(&c, &ctx(0));
        // Greedy first-feasible: both land on the first host that fits.
        assert_eq!(
            actions,
            vec![
                Action::Create {
                    vm: a,
                    host: HostId(0)
                },
                Action::Create {
                    vm: b,
                    host: HostId(0)
                },
            ]
        );
        let stats = s.degrade_stats().unwrap();
        assert_eq!(stats.rounds_at[DegradeLevel::L2Greedy.index()], 1);
        assert!(stats.max_round_work <= 100_000);
    }

    #[test]
    fn forced_defer_rung_emits_nothing() {
        let mut c = cluster(&[HostClass::Medium]);
        let _ = c.submit_job(job(1, 100, 600));
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::forced(100, DegradeLevel::L3Defer));
        assert!(s.schedule(&c, &ctx(0)).is_empty());
        let stats = s.degrade_stats().unwrap();
        assert_eq!(stats.rounds_at[DegradeLevel::L3Defer.index()], 1);
        assert_eq!(stats.total_work, 0);
    }

    #[test]
    fn greedy_rung_respects_infeasibility() {
        // One saturated host: greedy must not force an infeasible move.
        let mut c = cluster(&[HostClass::Medium]);
        let a = c.submit_job(job(1, 400, 6000));
        c.start_creation(a, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        c.finish_creation(a, SimTime::from_secs(40));
        let _b = c.submit_job(job(2, 100, 600));
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::forced(1000, DegradeLevel::L2Greedy));
        assert!(s.schedule(&c, &ctx(50)).is_empty());
    }

    #[test]
    fn ladder_state_round_trips_through_persist() {
        let mut s =
            ScoreScheduler::new(ScoreConfig::sb()).with_overload(OverloadControl::with_budget(500));
        s.finish_round(&ctx(0), DegradeLevel::L0Full, 500, true);
        s.finish_round(&ctx(1), DegradeLevel::L1QueueOnly, 400, false);
        let mut w = Writer::new();
        s.persist_state(&mut w);
        let bytes = w.into_bytes().unwrap();

        let mut restored =
            ScoreScheduler::new(ScoreConfig::sb()).with_overload(OverloadControl::with_budget(500));
        let mut r = Reader::new(&bytes);
        restored.restore_state(&mut r).expect("valid payload");
        r.finish().expect("payload fully consumed");
        assert_eq!(restored.state, s.state);
        // The restored driver picks the same next rung.
        assert_eq!(restored.select_rung(), s.select_rung());
    }

    #[test]
    fn sustained_under_budget_rounds_walk_l2_l1_l0() {
        // Regression: recovery must step DOWN one rung per relax, never
        // jump (a jump skips the L1 queue-only round that drains the
        // backlog cheaply before full matrix rounds resume).
        let mut s = ScoreScheduler::new(ScoreConfig::sb())
            .with_overload(OverloadControl::with_budget(1000));
        // Two blown rounds park the ladder at L2.
        for _ in 0..2 {
            let rung = s.state.rung;
            s.finish_round(&ctx(0), rung, 1000, true);
            s.select_rung();
        }
        assert_eq!(s.state.rung, DegradeLevel::L2Greedy);
        // Sustained cheap rounds: EWMA decays toward the spend, crosses
        // budget/2, and the ladder walks L2 → L1 → L0 one rung at a time.
        let mut seen = vec![s.state.rung];
        for _ in 0..40 {
            let rung = s.state.rung;
            s.finish_round(&ctx(0), rung, 100, false);
            seen.push(s.select_rung());
            if *seen.last().unwrap() == DegradeLevel::L0Full {
                break;
            }
        }
        assert_eq!(seen.last(), Some(&DegradeLevel::L0Full), "{seen:?}");
        assert!(
            seen.contains(&DegradeLevel::L1QueueOnly),
            "descent must pass through L1: {seen:?}"
        );
        // Monotone, single-step descent.
        assert!(
            seen.windows(2)
                .all(|w| w[1] <= w[0] && w[0].index() - w[1].index() <= 1),
            "{seen:?}"
        );
    }

    #[test]
    fn restored_ladder_replays_the_same_relax_sequence() {
        // Regression for the EWMA being part of the snapshot: a driver
        // restored mid-descent must relax on exactly the same rounds as
        // the original. (If the EWMA were rebuilt at zero, the restored
        // side would relax immediately and the sequences would diverge.)
        let ctl = OverloadControl::with_budget(1000);
        let mut s = ScoreScheduler::new(ScoreConfig::sb()).with_overload(ctl);
        for _ in 0..3 {
            let rung = s.state.rung;
            s.finish_round(&ctx(0), rung, 1000, true);
            s.select_rung();
        }
        // Two quiet rounds leave the EWMA mid-decay, above budget/2.
        for _ in 0..2 {
            let rung = s.state.rung;
            s.finish_round(&ctx(0), rung, 100, false);
            s.select_rung();
        }
        let mut w = Writer::new();
        s.persist_state(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut restored = ScoreScheduler::new(ScoreConfig::sb()).with_overload(ctl);
        let mut r = Reader::new(&bytes);
        restored.restore_state(&mut r).expect("valid payload");

        let replay = |d: &mut ScoreScheduler| -> Vec<DegradeLevel> {
            (0..30)
                .map(|_| {
                    let rung = d.state.rung;
                    d.finish_round(&ctx(0), rung, 100, false);
                    d.select_rung()
                })
                .collect()
        };
        let original = replay(&mut s);
        let replayed = replay(&mut restored);
        assert_eq!(original, replayed);
        assert_eq!(original.last(), Some(&DegradeLevel::L0Full), "{original:?}");
    }

    #[test]
    fn sharded_scheduler_places_queue_and_advances_cursor() {
        let mut c = cluster(&[HostClass::Medium; 4]);
        for i in 0..3 {
            let _ = c.submit_job(job(i, 150, 900));
        }
        let mut s = ScoreScheduler::new(ScoreConfig::sb()).with_shards(ShardSpec {
            count: 2,
            rack_size: 2,
        });
        let actions = s.schedule(&c, &ctx(0));
        assert_eq!(actions.len(), 3, "{actions:?}");
        assert!(actions.iter().all(|a| matches!(a, Action::Create { .. })));
        // Three queue columns dealt round-robin → the cursor advances by 3,
        // so the next round starts dealing at the other shard.
        assert_eq!(s.shard_cursor, 3);
    }

    #[test]
    fn sharding_on_a_single_rack_cluster_matches_the_unsharded_round() {
        // Three hosts under the default rack size of 8 realize one shard:
        // the spec is armed but the round must be bit-identical to an
        // unsharded scheduler, cursor untouched (it is persisted, so
        // moving it would change snapshot bytes).
        let mut c = cluster(&[HostClass::Medium, HostClass::Fast, HostClass::Slow]);
        for i in 0..4 {
            let _ = c.submit_job(job(i, 120, 900));
        }
        let mut plain = ScoreScheduler::new(ScoreConfig::full());
        let mut sharded = ScoreScheduler::new(ScoreConfig::full()).with_shards(ShardSpec {
            count: 4,
            rack_size: 8,
        });
        assert_eq!(plain.schedule(&c, &ctx(0)), sharded.schedule(&c, &ctx(0)));
        assert_eq!(sharded.shard_cursor, 0);
    }

    #[test]
    fn shard_cursor_round_trips_through_persist() {
        let mut s = ScoreScheduler::new(ScoreConfig::sb()).with_shards(ShardSpec {
            count: 2,
            rack_size: 2,
        });
        s.shard_cursor = 41;
        let mut w = Writer::new();
        s.persist_state(&mut w);
        let bytes = w.into_bytes().unwrap();

        let mut restored = ScoreScheduler::new(ScoreConfig::sb()).with_shards(ShardSpec {
            count: 2,
            rack_size: 2,
        });
        let mut r = Reader::new(&bytes);
        restored.restore_state(&mut r).expect("valid payload");
        r.finish().expect("payload fully consumed");
        assert_eq!(restored.shard_cursor, 41);
    }
}
