//! Score evaluation over a *hypothetical* placement.
//!
//! The matrix solver (§III-B) explores moves before committing any of them,
//! so scores must be computable against a what-if state: the real cluster
//! plus a tentative placement of the VMs under consideration. [`Eval`]
//! keeps that overlay (per-host committed resources and VM counts) and
//! computes the full score
//!
//! `Score(h, vm) = P_req + P_res + P_virt + P_conc + P_pwr + P_SLA + P_fault`
//!
//! with each term exactly as §III-A defines it.
//!
//! To support the incremental climb engine in [`crate::shard`], each cell
//! is split into a *round-static* part ([`CellStatic`]: `P_req` feasibility,
//! the move-in `P_virt`/`P_conc`, `P_fault` — all functions of the
//! immutable `&Cluster` snapshot only) and a *dynamic* part
//! ([`Eval::score_with_static`]: `P_res`, `P_pwr`, `P_SLA` and the
//! is-it-already-there check, which depend on the hypothetical
//! `committed`/`vm_count`/`placement` overlay). [`Eval::score`] composes
//! the two, so cached and from-scratch evaluation share one code path and
//! one floating-point addition order — scores are bit-identical either way.
//!
//! The static part is itself composed from a row's host terms
//! ([`RowStatic`], once per host row) and a column's VM terms (once per
//! column, at construction): [`Eval::static_cell_in`] only combines them.

use eards_model::{
    Cluster, Host, HostClass, HostId, Job, PowerState, Requirements, Resources, Vm, VmId,
};
use eards_sim::SimTime;

use crate::config::ScoreConfig;
use crate::score::Score;
use crate::shard::CellStore;

/// Reusable allocations for [`Eval`].
///
/// A long simulation runs thousands of scheduling rounds, each needing
/// several `O(M)` / `O(N)` overlay vectors. The buffers outlive the
/// per-round `&Cluster` borrow that [`Eval`] is tied to, so
/// [`ScoreScheduler`](crate::ScoreScheduler) keeps one `EvalBuffers`
/// alive across rounds and recycles every vector through it instead of
/// reallocating.
#[derive(Debug, Default, Clone)]
pub struct EvalBuffers {
    pub(crate) vms: Vec<VmId>,
    original: Vec<Option<usize>>,
    placement: Vec<Option<usize>>,
    committed: Vec<Resources>,
    vm_count: Vec<usize>,
    cells: CellStore,
}

/// The host terms of score-matrix row `h`, computed once per row by
/// [`Eval::static_row`] and shared by every cell of the row. Only a host
/// that is `On` has them: no cell of any other row is feasible.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowStatic<'a> {
    host: &'a Host,
    /// `P_conc` (§III-A.3): the summed cost of the host's in-flight
    /// operations.
    conc: Score,
    /// `P_virt` of creating a VM here: the class creation cost.
    creation: Score,
    /// The class migration cost `C_m`, in seconds.
    migration: f64,
    /// The effective reliability `P_fault` reads.
    reliability: f64,
}

/// The VM terms of matrix column `v`, computed once per column when the
/// evaluator is built.
#[derive(Debug, Clone, Copy)]
struct ColStatic<'a> {
    vm: &'a Vm,
    job: &'a Job,
    requirements: Requirements,
    /// The VM sits on the virtual host: a creation, not a migration.
    queued: bool,
    /// The user-estimated work left at the round instant (`T_r` of
    /// `P_virt`).
    remaining: f64,
}

/// The round-static part of one score-matrix cell `(h, v)`.
///
/// Everything here depends only on the cluster snapshot, the config and
/// the round timestamp — not on the hypothetical placement — so it is
/// computed once per round and reused across every rescore of the cell.
/// An infeasible cell is the [`Default`]: no other term of it is ever
/// read.
#[derive(Debug, Clone, Copy)]
pub struct CellStatic {
    /// `P_req` plus the power-state precondition: `false` means the cell
    /// is `∞` regardless of the overlay state.
    pub(crate) feasible: bool,
    /// `P_virt + P_conc` as charged when `v` is *not* already on `h`
    /// (creation/migration cost plus in-flight-operation concurrency).
    pub(crate) movein: Score,
    /// `P_fault` ([`Score::ZERO`] when the term is disabled).
    pub(crate) fault: Score,
}

impl Default for CellStatic {
    fn default() -> Self {
        CellStatic {
            feasible: false,
            movein: Score::ZERO,
            fault: Score::ZERO,
        }
    }
}

/// Per-penalty attribution of one score cell, as charged for a move-in
/// (the solver's decision-time view of placing the VM on that host).
///
/// Produced by [`Eval::score_breakdown`] for the observability layer:
/// the trace records *why* a chosen move scored what it did. Terms that
/// are disabled by the configuration are reported as `0.0`; an
/// infeasible cell reports every term (and the total) as `∞`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBreakdown {
    /// `P_virt + P_conc` — the static move-in penalties.
    pub movein: f64,
    /// `P_pwr` — the consolidation force.
    pub pwr: f64,
    /// `P_SLA` — the projected-fulfilment penalty.
    pub sla: f64,
    /// `P_fault` — the reliability penalty.
    pub fault: f64,
    /// Sum of the terms (`∞` for an infeasible cell).
    pub total: f64,
}

/// What [`Eval::migration_check`] found on a fresh evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCheck {
    /// Some migration column has a move-in cell that clears the
    /// hysteresis bar against its current cell.
    pub improves: bool,
    /// Migration columns the O(1) bound left to the exact scan.
    pub scanned: usize,
}

/// Score evaluator over the cluster plus a tentative placement of the
/// matrix VMs.
pub struct Eval<'a> {
    cluster: &'a Cluster,
    cfg: &'a ScoreConfig,
    now: SimTime,
    /// Matrix columns.
    vms: Vec<VmId>,
    /// The columns' VM terms, resolved once at construction: scoring
    /// reads them several times per cell, so each column pays its table
    /// lookups exactly once here.
    cols: Vec<ColStatic<'a>>,
    /// Original placement of each matrix VM (`None` = virtual host).
    original: Vec<Option<usize>>,
    /// Current hypothetical placement.
    placement: Vec<Option<usize>>,
    /// Committed resources per host under the hypothesis.
    committed: Vec<Resources>,
    /// VM count per host under the hypothesis (resident + incoming).
    vm_count: Vec<usize>,
    /// The climb engine's cell storage, lent to [`crate::shard`] for the
    /// round and recycled with the other buffers.
    pub(crate) cells: CellStore,
}

impl<'a> Eval<'a> {
    /// Builds an evaluator for the given matrix VMs, starting from their
    /// real placements.
    pub fn new(cluster: &'a Cluster, cfg: &'a ScoreConfig, now: SimTime, vms: Vec<VmId>) -> Self {
        Self::new_in(cluster, cfg, now, vms, &mut EvalBuffers::default())
    }

    /// Like [`Eval::new`], but recycling the vectors held in `buf` instead
    /// of allocating. Pair with [`Eval::recycle`] at the end of the round
    /// to hand them back.
    pub fn new_in(
        cluster: &'a Cluster,
        cfg: &'a ScoreConfig,
        now: SimTime,
        vms: Vec<VmId>,
        buf: &mut EvalBuffers,
    ) -> Self {
        let mut committed = std::mem::take(&mut buf.committed);
        committed.clear();
        committed.extend_from_slice(cluster.committed_by_host());
        let mut vm_count = std::mem::take(&mut buf.vm_count);
        vm_count.clear();
        vm_count.extend(
            cluster
                .hosts()
                .iter()
                .map(|h| h.resident.len() + h.incoming.len()),
        );
        let mut original = std::mem::take(&mut buf.original);
        original.clear();
        original.extend(
            vms.iter()
                .map(|&v| Some(cluster.vm(v).state.host()?.raw() as usize)),
        );
        // Borrowed references can't live in the recycled buffers, but one
        // small record per column is cheap to rebuild each round.
        let cols = vms
            .iter()
            .zip(&original)
            .map(|(&id, home)| {
                let job = cluster.job(id);
                ColStatic {
                    vm: cluster.vm(id),
                    job,
                    requirements: job.requirements,
                    queued: home.is_none(),
                    remaining: job.user_remaining_secs(now),
                }
            })
            .collect();
        let mut placement = std::mem::take(&mut buf.placement);
        placement.clear();
        placement.extend_from_slice(&original);
        Eval {
            cluster,
            cfg,
            now,
            placement,
            original,
            vms,
            cols,
            committed,
            vm_count,
            cells: std::mem::take(&mut buf.cells),
        }
    }

    /// Hands the evaluator's allocations (including the VM column vector)
    /// back for reuse in a later round.
    pub fn recycle(self, buf: &mut EvalBuffers) {
        buf.vms = self.vms;
        buf.original = self.original;
        buf.placement = self.placement;
        buf.committed = self.committed;
        buf.vm_count = self.vm_count;
        buf.cells = self.cells;
    }

    /// The configured migration hysteresis (see
    /// [`ScoreConfig::min_migration_gain`]).
    pub fn min_migration_gain(&self) -> f64 {
        self.cfg.min_migration_gain
    }

    /// Number of hosts (matrix rows minus the virtual host).
    pub fn num_hosts(&self) -> usize {
        self.committed.len()
    }

    /// Number of matrix VMs (columns).
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// The matrix VMs.
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// Original placement of column `v`.
    pub fn original_of(&self, v: usize) -> Option<usize> {
        self.original[v]
    }

    /// Hypothetical placement of column `v`.
    pub fn placement_of(&self, v: usize) -> Option<usize> {
        self.placement[v]
    }

    /// Cost of VM `v` where it currently (hypothetically) sits; infinite on
    /// the virtual host, which makes allocating it maximally beneficial.
    pub fn current_cost(&self, v: usize) -> Score {
        match self.placement[v] {
            Some(h) => self.score(h, v),
            None => Score::INFINITE,
        }
    }

    /// Moves VM `v` to host `h` in the hypothesis.
    pub fn apply_move(&mut self, v: usize, h: usize) {
        let req = self.cols[v].vm.requested;
        if let Some(old) = self.placement[v] {
            // The overlay is built from the cluster's own committed totals,
            // so removing a VM from its hypothetical host can never underflow
            // them; the `saturating_sub` below is belt-and-braces only. A
            // debug-build trip here means the overlay diverged from the
            // bookkeeping invariant (e.g. a double-remove).
            debug_assert!(
                self.vm_count[old] > 0,
                "apply_move(v={v}, h={h}): host {old} has no VMs to remove"
            );
            debug_assert!(
                req.cpu <= self.committed[old].cpu,
                "apply_move(v={v}, h={h}): cpu underflow on host {old} \
                 (removing {:?} from {:?})",
                req.cpu,
                self.committed[old].cpu,
            );
            debug_assert!(
                req.mem <= self.committed[old].mem,
                "apply_move(v={v}, h={h}): mem underflow on host {old} \
                 (removing {:?} from {:?})",
                req.mem,
                self.committed[old].mem,
            );
            self.committed[old] = Resources::new(
                self.committed[old].cpu.saturating_sub(req.cpu),
                eards_model::Mem(self.committed[old].mem.mib().saturating_sub(req.mem.mib())),
            );
            self.vm_count[old] -= 1;
        }
        self.committed[h] = self.committed[h].plus(req);
        self.vm_count[h] += 1;
        self.placement[v] = Some(h);
    }

    /// Resources requested by column `v`'s VM.
    pub fn requested_of(&self, v: usize) -> Resources {
        self.cols[v].vm.requested
    }

    /// Free (uncommitted) capacity of host `h` under the current
    /// hypothesis. The sharded solver's balancer uses this to pre-filter
    /// which shards could possibly take an unplaced VM without scoring
    /// every cell.
    pub fn free_capacity(&self, h: usize) -> Resources {
        let cap = self.cluster.host(HostId(h as u32)).spec.capacity();
        Resources::new(
            cap.cpu.saturating_sub(self.committed[h].cpu),
            eards_model::Mem(cap.mem.mib().saturating_sub(self.committed[h].mem.mib())),
        )
    }

    /// Occupation host `h` would have with VM `v` placed there (the
    /// paper's `O(h, vm)`), under the current hypothesis; `None` when it
    /// exceeds 1 (see [`occupation_within`]).
    fn occupation_with(&self, h: usize, v: usize) -> Option<f64> {
        let mut used = self.committed[h];
        if self.placement[v] != Some(h) {
            used = used.plus(self.cols[v].vm.requested);
        }
        occupation_within(used, self.cluster.host(HostId(h as u32)))
    }

    /// VM count host `h` would have with `v` placed there.
    fn count_with(&self, h: usize, v: usize) -> usize {
        self.vm_count[h] + usize::from(self.placement[v] != Some(h))
    }

    /// The full score of hosting matrix VM `v` on host `h` under the
    /// current hypothesis.
    ///
    /// Equivalent to [`Eval::static_cell`] followed by
    /// [`Eval::score_with_static`]; the incremental engine caches the
    /// static half and re-runs only the dynamic half. On the VM's own
    /// (hypothetical) host the dynamic half never reads the move-in
    /// terms, so they are not computed there.
    pub fn score(&self, h: usize, v: usize) -> Score {
        let cell = if self.placement[v] == Some(h) {
            self.resident_cell(h, v)
        } else {
            self.static_cell(h, v)
        };
        self.score_with_static(h, v, &cell)
    }

    /// Computes the round-static part of cell `(h, v)`: `P_req`
    /// feasibility, the move-in `P_virt + P_conc`, and `P_fault`. None of
    /// these depend on the hypothetical placement, so the result stays
    /// valid across every [`Eval::apply_move`] of the round.
    pub fn static_cell(&self, h: usize, v: usize) -> CellStatic {
        self.static_row(h)
            .map_or_else(CellStatic::default, |row| self.static_cell_in(&row, v))
    }

    /// The host terms of row `h`, for every [`Eval::static_cell_in`] of
    /// the row; `None` when the host is not `On`, because an off host
    /// "cannot fulfil" anything (the power-state half of `P_req`).
    pub(crate) fn static_row(&self, h: usize) -> Option<RowStatic<'a>> {
        let id = HostId(h as u32);
        let host = self.cluster.host(id);
        if host.power != PowerState::On {
            return None;
        }
        let conc: f64 = host.ops.iter().map(|op| op.cost().as_secs_f64()).sum();
        Some(RowStatic {
            host,
            conc: Score::finite(conc),
            creation: Score::finite(host.spec.class.creation_cost().as_secs_f64()),
            migration: host.spec.class.migration_cost().as_secs_f64(),
            reliability: self.cluster.effective_reliability(id),
        })
    }

    /// [`Eval::static_cell`] of column `v` on a row whose host terms are
    /// already computed.
    pub(crate) fn static_cell_in(&self, row: &RowStatic<'_>, v: usize) -> CellStatic {
        let col = &self.cols[v];
        // P_req (§III-A.1), by the predicate the quick-reject shares.
        if !admits(row.host, &col.requirements) {
            return CellStatic::default();
        }

        let mut movein = Score::ZERO;
        // P_virt (§III-A.3). VMs with an operation already in flight never
        // appear as matrix columns, so the `∞` branch of the paper's
        // `P_virt` is realized by exclusion rather than by a score.
        if self.cfg.virt_penalty {
            movein += if col.queued {
                row.creation
            } else {
                p_virt_migration(row.migration, col.remaining)
            };
        }
        // P_conc (§III-A.3, concurrency): charged to VMs not yet there.
        if self.cfg.conc_penalty {
            movein += row.conc;
        }

        CellStatic {
            feasible: true,
            movein,
            fault: self.p_fault(row.reliability, v),
        }
    }

    /// The static part of cell `(h, v)` for a VM that (hypothetically)
    /// sits on `h`: the dynamic half starts its placed branch from
    /// [`Score::ZERO`], so the move-in terms are left at zero.
    fn resident_cell(&self, h: usize, v: usize) -> CellStatic {
        let id = HostId(h as u32);
        if !admits(self.cluster.host(id), &self.cols[v].requirements) {
            return CellStatic::default();
        }
        CellStatic {
            feasible: true,
            movein: Score::ZERO,
            fault: self.p_fault(self.cluster.effective_reliability(id), v),
        }
    }

    /// `P_fault` (§III-A.6, extension) of column `v` on a host with
    /// effective reliability `rel`, so a flapping-host blacklist penalty
    /// steers placements away; [`Score::ZERO`] when the term is disabled.
    fn p_fault(&self, rel: f64, v: usize) -> Score {
        if self.cfg.fault_penalty {
            Score::finite(((1.0 - rel) - self.cols[v].job.fault_tolerance) * self.cfg.c_fail)
        } else {
            Score::ZERO
        }
    }

    /// Computes the dynamic part of cell `(h, v)` on top of a cached
    /// [`CellStatic`], preserving the exact floating-point addition order
    /// of the monolithic formula (so cached and fresh scores are
    /// bit-identical).
    pub fn score_with_static(&self, h: usize, v: usize, cell: &CellStatic) -> Score {
        if !cell.feasible {
            return Score::INFINITE;
        }

        // P_res (§III-A.2).
        let Some(occupation) = self.occupation_with(h, v) else {
            return Score::INFINITE;
        };

        // P_virt and P_conc are both ZERO for the host the VM already
        // (hypothetically) sits on, so the placed branch starts from ZERO.
        let mut total = if self.placement[v] == Some(h) {
            Score::ZERO
        } else {
            cell.movein
        };

        // P_pwr (§III-A.4) — always on: it is what makes the policy
        // consolidate at all (present in every SB variant).
        total += self.p_pwr(h, v, occupation);

        // P_SLA (§III-A.5, extension).
        if self.cfg.sla_penalty {
            let p = self.p_sla(h, v);
            if p.is_infinite() {
                return Score::INFINITE;
            }
            total += p;
        }

        // P_fault (§III-A.6, extension).
        if self.cfg.fault_penalty {
            total += cell.fault;
        }

        total
    }

    /// Whether some migration column would move in the climb's first
    /// sweep: a move-in cell whose delta against the column's current cell
    /// is below the bar `-min_migration_gain`, the test `best_move` in
    /// [`crate::shard`] applies. Judged on the start-of-round overlay, so
    /// call it before any [`Eval::apply_move`]. Queue columns are
    /// [`queue_has_feasible_cell`]'s part of the round and are skipped.
    ///
    /// Two stages per column (DESIGN.md §17). An O(1) floor under the
    /// column's move-in cells certifies it when even the floor misses the
    /// bar; the other columns get an early-exit scan over the hosts
    /// through [`Eval::score`].
    pub fn migration_check(&self) -> MigrationCheck {
        let mut check = MigrationCheck {
            improves: false,
            scanned: 0,
        };
        // The cheapest class bounds P_virt on every destination row.
        let cm_min = HostClass::ALL
            .iter()
            .map(|c| c.migration_cost().as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        let bar = -self.cfg.min_migration_gain;
        for v in 0..self.num_vms() {
            let Some(p) = self.original[v] else {
                continue;
            };
            debug_assert_eq!(self.placement[v], Some(p), "migration_check after a move");
            let cur = self.score(p, v);
            let floor = self.movein_floor(v, cm_min);
            if floor.is_some_and(|lb| lb - cur.value() >= bar) {
                continue;
            }
            check.scanned += 1;
            if (0..self.num_hosts())
                .filter(|&h| h != p)
                .any(|h| Score::delta(self.score(h, v), cur).is_some_and(|d| d < bar))
            {
                check.improves = true;
                return check;
            }
        }
        check
    }

    /// A floor under every finite move-in cell of migration column `v`,
    /// given the smallest migration cost `cm_min` (seconds) of any host
    /// class; `None` when `P_fault` is on, because that term can
    /// be negative. Each term is bounded through the helper that scores it
    /// (DESIGN.md §17 has the floating-point argument):
    ///
    /// * `P_virt` at `cm_min`: [`p_virt_migration`] grows with `C_m`;
    /// * `P_conc ≥ 0`, a sum of operation durations;
    /// * `P_pwr` at the least of its four corners, [`p_pwr_floor`];
    /// * `P_SLA` at the smaller of its finite values, `0` and `C_sla`.
    ///
    /// The floor adds them in the order [`Eval::score_with_static`] does.
    fn movein_floor(&self, v: usize, cm_min: f64) -> Option<f64> {
        if self.cfg.fault_penalty {
            return None;
        }
        let virt = if self.cfg.virt_penalty {
            p_virt_migration(cm_min, self.cols[v].remaining).value()
        } else {
            0.0
        };
        let sla = if self.cfg.sla_penalty {
            self.cfg.c_sla.min(0.0)
        } else {
            0.0
        };
        Some(virt + p_pwr_floor(self.cfg) + sla)
    }

    /// Per-penalty attribution of cell `(h, v)` under the current
    /// hypothesis, charged as a move-in.
    ///
    /// Intended for tracing the moves a round actually chose: called
    /// after the solver applied them, each term reflects the end-of-round
    /// overlay (`occupation`/`count` *with* the VM on `h`), which for the
    /// placed VM is exactly the state its decision score evaluated.
    pub fn score_breakdown(&self, h: usize, v: usize) -> ScoreBreakdown {
        let cell = self.static_cell(h, v);
        let (true, Some(occupation)) = (cell.feasible, self.occupation_with(h, v)) else {
            return ScoreBreakdown {
                movein: f64::INFINITY,
                pwr: f64::INFINITY,
                sla: f64::INFINITY,
                fault: f64::INFINITY,
                total: f64::INFINITY,
            };
        };
        let movein = cell.movein.value();
        let pwr = self.p_pwr(h, v, occupation).value();
        let sla = if self.cfg.sla_penalty {
            self.p_sla(h, v).value()
        } else {
            0.0
        };
        let fault = if self.cfg.fault_penalty {
            cell.fault.value()
        } else {
            0.0
        };
        ScoreBreakdown {
            movein,
            pwr,
            sla,
            fault,
            total: movein + pwr + sla + fault,
        }
    }

    /// Power/consolidation penalty (§III-A.4):
    /// `T_empty(h)·C_e − O(h, vm)·C_f`.
    fn p_pwr(&self, h: usize, v: usize, occupation: f64) -> Score {
        let count = self.count_with(h, v);
        let t_empty = if count <= self.cfg.th_empty { 1.0 } else { 0.0 };
        p_pwr_term(self.cfg, t_empty, occupation)
    }

    /// Dynamic SLA enforcement penalty (§III-A.5). Fulfilment is projected
    /// for the *candidate* host from the CPU it could offer the VM.
    fn p_sla(&self, h: usize, v: usize) -> Score {
        let ColStatic { vm, job, .. } = self.cols[v];
        let deadline = job.deadline().as_secs_f64();
        if deadline <= 0.0 {
            return Score::finite(self.cfg.c_sla);
        }
        let cap = self.cluster.host(HostId(h as u32)).spec.cpu.as_f64();
        let mut committed_cpu = self.committed[h].cpu.as_f64();
        if self.placement[v] == Some(h) {
            committed_cpu -= vm.requested.cpu.as_f64();
        }
        let free = (cap - committed_cpu).max(0.0);
        let rate = job.cpu.as_f64().min(free);
        let elapsed = self.now.saturating_since(job.submit).as_secs_f64();
        let projected = if rate > 0.0 {
            elapsed + vm.remaining_work(job) / rate
        } else {
            2.0 * deadline.max(elapsed)
        };
        let fulfillment = (deadline / projected).min(1.0);
        if fulfillment >= 1.0 {
            Score::ZERO
        } else if fulfillment > self.cfg.th_sla || self.cols[v].queued {
            // Queued VMs are never scored ∞ here: an already-doomed job must
            // still be placeable somewhere (the paper's virtual host would
            // otherwise hold it forever).
            Score::finite(self.cfg.c_sla)
        } else {
            Score::INFINITE
        }
    }
}

/// `P_req` (§III-A.1) plus the basic physical precondition that the host
/// is actually up (an off host "cannot fulfil" anything): the
/// placement-independent half of a cell's feasibility.
#[inline]
fn admits(host: &Host, requirements: &Requirements) -> bool {
    host.power == PowerState::On && host.spec.satisfies(requirements)
}

/// `P_res` (§III-A.2): the occupation `host` reaches with `used`
/// committed, or `None` when it exceeds 1 and the cell is `∞`.
#[inline]
fn occupation_within(used: Resources, host: &Host) -> Option<f64> {
    let occupation = used.occupation_in(host.spec.capacity());
    if occupation > 1.0 {
        None
    } else {
        Some(occupation)
    }
}

/// `P_virt` of a migration (§III-A.3) onto a host whose migration cost is
/// `cm` seconds, for a VM with `tr` seconds of user-estimated work left:
/// the remaining-time discount `C_m²/2T_r`, or `2·C_m` when the VM would
/// finish before the migration does, so soon-finishing VMs stay put. For
/// a fixed `tr` it never falls as `cm` grows, in floating point too.
#[inline]
fn p_virt_migration(cm: f64, tr: f64) -> Score {
    if tr < cm {
        Score::finite(2.0 * cm)
    } else {
        Score::finite(cm * cm / (2.0 * tr))
    }
}

/// `P_pwr` (§III-A.4): `T_empty·C_e − O·C_f`, where `t_empty` is 1 on an
/// emptiable host and 0 otherwise.
#[inline]
fn p_pwr_term(cfg: &ScoreConfig, t_empty: f64, occupation: f64) -> Score {
    Score::finite(t_empty * cfg.c_empty - occupation * cfg.c_fill)
}

/// The least `P_pwr` any finite cell can carry: the formula is monotone in
/// `t_empty ∈ {0, 1}` and in `O ∈ [0, 1]` (`P_res` caps it at 1), so its
/// minimum sits at a corner. With the paper's nonnegative costs that
/// corner is `O = 1` on a full host: `−C_f`.
fn p_pwr_floor(cfg: &ScoreConfig) -> f64 {
    [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        .into_iter()
        .map(|(t_empty, occupation)| p_pwr_term(cfg, t_empty, occupation).value())
        .fold(f64::INFINITY, f64::min)
}

/// Whether some queued VM has a finite cell on some host: the exact
/// condition for a round whose columns are just the queue to emit any
/// move (DESIGN.md §17).
///
/// A queued VM sits on the virtual host at cost `∞`, so any finite cell
/// is an improving move. `P_virt`, `P_conc`, `P_pwr` and `P_fault` are
/// finite and `P_SLA` is never `∞` for a queued VM, so a cell is finite
/// exactly when the host is On and meets the VM's requirements (`P_req`)
/// and the occupation with the VM added is within 1 (`P_res`) — the same
/// two tests [`Eval::static_cell`] and [`Eval::score_with_static`] apply,
/// whatever the [`ScoreConfig`].
///
/// An empty queue answers at once. Otherwise the componentwise
/// [`Cluster::max_free_on`] bound, an O(hosts) fold, rejects most VMs in
/// O(1); the rest get an early-exit scan over the hosts.
pub fn queue_has_feasible_cell(cluster: &Cluster) -> bool {
    if cluster.queue().is_empty() {
        return false;
    }
    let room = cluster.max_free_on();
    cluster
        .queue()
        .iter()
        .map(|&id| (cluster.vm(id), cluster.job(id)))
        .filter(|(vm, _)| vm.requested.fits_in(room))
        .any(|(vm, job)| {
            cluster
                .hosts()
                .iter()
                .zip(cluster.committed_by_host())
                .any(|(host, &committed)| {
                    admits(host, &job.requirements)
                        && occupation_within(committed.plus(vm.requested), host).is_some()
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cpu, HostClass, HostSpec, Job, JobId, Mem, Requirements};
    use eards_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
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
    fn infeasible_hosts_score_infinite() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        c.begin_power_off(HostId(1), t(0));
        let vm = c.submit_job(job(1, 100, 600));
        let cfg = ScoreConfig::sb0();
        let eval = Eval::new(&c, &cfg, t(0), vec![vm]);
        assert!(!eval.score(0, 0).is_infinite());
        assert!(eval.score(1, 0).is_infinite(), "off host is infeasible");
        assert_eq!(
            eval.current_cost(0),
            Score::INFINITE,
            "queued = virtual host"
        );
    }

    #[test]
    fn p_req_rejects_unsatisfied_requirements() {
        let mut c = cluster(&[HostClass::Medium]);
        let mut j = job(1, 100, 600);
        j.requirements = Requirements {
            min_host_cpus: 8,
            ..Requirements::ANY
        };
        let vm = c.submit_job(j);
        let cfg = ScoreConfig::sb0();
        let eval = Eval::new(&c, &cfg, t(0), vec![vm]);
        assert!(eval.score(0, 0).is_infinite());
    }

    #[test]
    fn p_res_rejects_overcommit() {
        let mut c = cluster(&[HostClass::Medium]);
        let a = c.submit_job(job(1, 300, 600));
        c.start_creation(a, HostId(0), t(0), t(40));
        c.finish_creation(a, t(40));
        let b = c.submit_job(job(2, 200, 600));
        let cfg = ScoreConfig::sb0();
        let eval = Eval::new(&c, &cfg, t(40), vec![b]);
        assert!(eval.score(0, 0).is_infinite(), "300+200 > 400");
    }

    #[test]
    fn p_virt_charges_creation_cost_by_class() {
        let mut c = cluster(&[HostClass::Fast, HostClass::Slow]);
        let vm = c.submit_job(job(1, 100, 600));
        let cfg = ScoreConfig::sb1();
        let eval = Eval::new(&c, &cfg, t(0), vec![vm]);
        let fast = eval.score(0, 0).value();
        let slow = eval.score(1, 0).value();
        // Same P_pwr on both (equal occupation/counts); creation cost
        // differs by 60 − 30 = 30 s.
        assert!((slow - fast - 30.0).abs() < 1e-9, "fast {fast} slow {slow}");
    }

    #[test]
    fn p_virt_migration_discount_matches_formula() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        let vm = c.submit_job(job(1, 100, 1000)); // Tu = 1000 s
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        let cfg = ScoreConfig::sb(); // migration on, virt on
                                     // At t = 200: Tr = 1000 − 200 = 800 ≥ Cm = 60 ⇒ Pm = 60²/(2·800) = 2.25.
        let eval = Eval::new(&c, &cfg, t(200), vec![vm]);
        let stay = eval.score(0, 0).value();
        let mv = eval.score(1, 0).value();
        // Both hosts end with 1 VM / same occupation ⇒ same P_pwr; the
        // difference is exactly Pm.
        assert!((mv - stay - 2.25).abs() < 1e-9, "stay {stay} move {mv}");

        // At t = 950: Tr = 50 < Cm ⇒ Pm = 2·Cm = 120.
        let eval = Eval::new(&c, &cfg, t(950), vec![vm]);
        let stay = eval.score(0, 0).value();
        let mv = eval.score(1, 0).value();
        assert!((mv - stay - 120.0).abs() < 1e-9);
    }

    #[test]
    fn p_conc_charges_inflight_ops_to_foreign_vms() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        let a = c.submit_job(job(1, 100, 600));
        c.start_creation(a, HostId(0), t(0), t(40)); // 40 s op in flight
        let b = c.submit_job(job(2, 100, 600));
        let cfg = ScoreConfig::sb2();
        let eval = Eval::new(&c, &cfg, t(10), vec![b]);
        let busy = eval.score(0, 0).value();
        let idle = eval.score(1, 0).value();
        // Host 0 carries the 40 s concurrency penalty but also one more VM
        // (count 2 > TH_empty ⇒ no C_e) and double occupation (bigger C_f
        // reward): busy − idle = 40 − C_e − 0.25·C_f = 40 − 20 − 10 = 10.
        assert!((busy - idle - 10.0).abs() < 1e-9, "busy {busy} idle {idle}");
    }

    #[test]
    fn p_pwr_prefers_fuller_hosts() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        let a = c.submit_job(job(1, 200, 6000));
        c.start_creation(a, HostId(0), t(0), t(40));
        c.finish_creation(a, t(40));
        let b = c.submit_job(job(2, 100, 600));
        let cfg = ScoreConfig::sb0();
        let eval = Eval::new(&c, &cfg, t(40), vec![b]);
        let full = eval.score(0, 0); // host with the 200% VM
        let empty = eval.score(1, 0); // empty host
        assert!(full < empty, "consolidation must win: {full} vs {empty}");
        // Quantitatively: full = −0.75·40 = −30 (2 VMs ⇒ no C_e);
        // empty = 20 − 0.25·40 = 10 (1 VM ⇒ emptiable).
        assert!((full.value() + 30.0).abs() < 1e-9);
        assert!((empty.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn p_sla_bands() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        // Load host 0 to 400 so a newcomer would get no CPU there.
        let a = c.submit_job(job(1, 400, 6000));
        c.start_creation(a, HostId(0), t(0), t(40));
        c.finish_creation(a, t(40));
        let b = c.submit_job(job(2, 100, 1000));
        let cfg = ScoreConfig::full();
        let eval = Eval::new(&c, &cfg, t(40), vec![b]);
        // Host 0 is occupation-infeasible anyway; host 1 offers full rate
        // ⇒ fulfilment 1 ⇒ no SLA penalty, only P_pwr (+P_fault = 0) + Cc.
        let s1 = eval.score(1, 0).value();
        assert!((s1 - (20.0 - 0.25 * 40.0 + 40.0)).abs() < 1e-9, "{s1}");
    }

    #[test]
    fn p_fault_scales_with_reliability_gap() {
        let mut specs = vec![
            HostSpec::standard(HostId(0), HostClass::Medium),
            HostSpec::standard(HostId(1), HostClass::Medium),
        ];
        specs[1].reliability = 0.9;
        let mut c = Cluster::new(specs, PowerState::On);
        let vm = c.submit_job(job(1, 100, 600));
        let cfg = ScoreConfig::full();
        let eval = Eval::new(&c, &cfg, t(0), vec![vm]);
        let reliable = eval.score(0, 0).value();
        let flaky = eval.score(1, 0).value();
        // Identical except P_fault = (0.1 − 0)·500 = 50.
        assert!((flaky - reliable - 50.0).abs() < 1e-9);
    }

    #[test]
    fn blacklist_penalty_raises_p_fault() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        let vm = c.submit_job(job(1, 100, 600));
        let cfg = ScoreConfig::full();
        let eval = Eval::new(&c, &cfg, t(0), vec![vm]);
        let clean = eval.score(0, 0).value();
        assert_eq!(clean, eval.score(1, 0).value(), "identical hosts");
        drop(eval);
        // Blacklist host 0 as flapping: P_fault rises by 0.05·500 = 25.
        c.blacklist(HostId(0), 0.05);
        let eval = Eval::new(&c, &cfg, t(0), vec![vm]);
        let listed = eval.score(0, 0).value();
        assert!((listed - clean - 25.0).abs() < 1e-9, "{listed} vs {clean}");
    }

    #[test]
    fn apply_move_updates_hypothesis() {
        let mut c = cluster(&[HostClass::Medium, HostClass::Medium]);
        let a = c.submit_job(job(1, 200, 600));
        let b = c.submit_job(job(2, 300, 600));
        let cfg = ScoreConfig::sb0();
        let mut eval = Eval::new(&c, &cfg, t(0), vec![a, b]);
        eval.apply_move(0, 0); // a → host 0
        assert_eq!(eval.placement_of(0), Some(0));
        assert_eq!(eval.current_cost(0), eval.score(0, 0));
        // b (300) no longer fits host 0 beside a (200).
        assert!(eval.score(0, 1).is_infinite());
        assert!(!eval.score(1, 1).is_infinite());
        // Moving a away frees host 0 again.
        eval.apply_move(0, 1);
        assert!(!eval.score(0, 1).is_infinite());
    }
}
