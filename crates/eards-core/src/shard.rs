//! The hill-climb engine and the sharded hierarchical solver built on it.
//!
//! Every full-quality round runs here. Over [`ShardMap::single`] it is
//! the plain §III-B climb ([`solve`](crate::solver::solve) is exactly
//! that call). A whole-cluster matrix pays `O(M·N)` for the initial fill
//! and `O(N)` per dirty row, which is fine at hundreds of hosts and
//! prohibitive at ten thousand, so with more shards this module trades a
//! bounded amount of solution quality for locality: the cluster is
//! partitioned into rack-aligned shards ([`ShardMap`]), each shard
//! hill-climbs its own small matrix, and a cheap global balancer re-homes
//! VMs that their shard could not place before a second local pass.
//!
//! ## Pass structure
//!
//! 1. **Column assignment.** Running VMs belong to the shard owning their
//!    current host (migrations stay rack-local). Queued VMs are dealt
//!    round-robin across shards from a caller-supplied cursor, so
//!    placement pressure spreads deterministically across rounds.
//! 2. **Local pass.** Shards climb in ascending shard order, each on its
//!    own engine, each up to the caller's move cap. One [`WorkMeter`] is
//!    threaded through every shard, so budget exhaustion is deterministic:
//!    shards exhaust in ascending order, and an exhausted meter skips all
//!    remaining work.
//! 3. **Balance.** Queue columns still unplaced are probed against other
//!    shards (cheapest first filter: per-shard max free host capacity,
//!    then actual cell scores, bounded probes per VM) and re-homed.
//! 4. **Second local pass** over just the re-homed columns on their new
//!    shards.
//!
//! ## Per-shard engine
//!
//! A move `⟨v → h⟩` only changes the overlay state (`committed`,
//! `vm_count`, `placement[v]`) of the VM's old host row and its new row
//! `h`; every other cell — including the rest of column `v`, whose
//! residency checks are false on those rows before and after — is
//! provably unchanged. So a move dirties exactly two rows, and a sweep
//! rescores `2·N` cells instead of `M·N`.
//!
//! Cells live in struct-of-arrays form: the three round-static halves
//! ([`Eval::static_cell`]) and the current full score are parallel flat
//! arrays, so a dirty-row rescore touches contiguous memory instead of
//! hopping across an array of structs. The fill computes each row's host
//! terms once; a row whose host is not `On` has no feasible cell, so its
//! values are set to `∞` without scoring and it stays off the engine's
//! list of live rows, which is all a column scan reads. A rescore re-runs
//! only [`Eval::score_with_static`], composing the halves in the same
//! floating-point order as [`Eval::score`], so a cached cell is always
//! bit-identical to a fresh recompute. Per column the engine maintains a
//! sorted **top-k candidate list** `(to, row)` plus a *bound*: every
//! feasible cell of the column **not** in the list compares strictly
//! greater than the bound under the `(to, row)` order. The argmin of the
//! list is therefore the argmin of the whole column; a full column rescan
//! is needed only when the list drains while the bound is finite.
//!
//! ## Tie-breaking across shards
//!
//! Within a shard, candidates are ordered by the documented global
//! contract `(Δ, to, column, row)` — with *global* column and row
//! indices, not shard-local ones. A single-shard map therefore reproduces
//! the exact move sequence of the full-rescan
//! [`solve_reference`](crate::solver::solve_reference) (the differential
//! oracle in `tests/shard_oracle.rs` pins this bit-identically); multiple
//! shards restrict each argmin to the shard's rows but never reorder
//! equal candidates.
//!
//! ## Work accounting
//!
//! One [`WorkMeter`] unit is one cell of the matrix, touched or skipped:
//! the engine build charges `m·n` for the fill plus `m·n` for the
//! candidate lists, dead rows included, so the meter measures the matrix
//! and not how cheap its cells were. Every sweep charges `n` for the
//! argmin, `m` per drained list it rescans, and after a move at most `2n`
//! for the two dirty rows plus `2n` for list maintenance. The meter is
//! checked before every sweep, so a round overshoots its budget by at
//! most the build or by one later sweep (`m·n + 5n`).

use eards_model::ShardMap;

use crate::budget::{DegradeLevel, WorkMeter};
use crate::eval::{CellStatic, Eval};
use crate::score::Score;
use crate::solver::Solution;

/// Per-column candidate lists keep this many entries. Small enough that
/// insertion is a few shifts, large enough that a burst of moves rarely
/// drains a list into a full-column rescan.
const TOP_K: usize = 8;

/// How many foreign shards the balancer scores cells in (per VM) before
/// giving up on re-homing it.
const BALANCER_PROBES: usize = 4;

/// Outcome of a sharded solve, wrapping the composed [`Solution`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// Moves in application order across all passes, plus sweep/limit
    /// bookkeeping summed over shards.
    pub solution: Solution,
    /// Work units charged across every shard, balancer probe included.
    pub work_spent: u64,
    /// Host rows scored or re-scored across all shard engines (the
    /// scheduler's `matrix_rows_rescored` counter).
    pub rows_rescored: u64,
    /// Queue columns dealt by the round-robin assignment this round; the
    /// caller advances its persistent cursor by this much.
    pub creations_assigned: u64,
    /// Queue columns the balancer re-homed to a foreign shard.
    pub balanced: u64,
}

/// One shard's candidate state for one column: sorted top-k plus the
/// exclusion bound (see the module docs).
#[derive(Debug, Clone, Default)]
struct ColCandidates {
    /// Ascending by `(to, global row)`; at most [`TOP_K`] entries.
    top: Vec<(f64, u32)>,
    /// Every feasible cell of the column outside `top` is `> bound`.
    /// `(∞, u32::MAX)` means the list is complete.
    bound: (f64, u32),
}

const BOUND_COMPLETE: (f64, u32) = (f64::INFINITY, u32::MAX);

/// The engine's cell storage: struct-of-arrays, row-major
/// `(local row, col) = r*n + c`. It outlives the engine: each
/// [`ShardEngine::build`] takes it from the evaluator and each climb hands
/// it back, so one allocation serves every shard of every round.
#[derive(Debug, Default, Clone)]
pub(crate) struct CellStore {
    feasible: Vec<bool>,
    movein: Vec<Score>,
    fault: Vec<Score>,
    /// Current full score; `f64::INFINITY` marks an infeasible cell.
    value: Vec<f64>,
    /// Local rows whose host is `On`, ascending. Only `value` is written
    /// on the other rows, and only it is read there.
    live: Vec<usize>,
    /// Per-column candidate state. Never shrinks, so each column's top-k
    /// vector is reused; only the first `n` entries are in use.
    cand: Vec<ColCandidates>,
}

/// A dense engine over one shard's host rows × its assigned columns.
///
/// All storage is shard-local and value-typed (no borrows into the
/// evaluator), struct-of-arrays over the cell fields.
struct ShardEngine {
    /// First global host row of the shard.
    row0: usize,
    /// Shard height (rows).
    m: usize,
    /// Global column ids handled by this shard, ascending.
    cols: Vec<u32>,
    cells: CellStore,
}

impl ShardEngine {
    /// Builds the engine in `cells`' allocations: scores every cell
    /// (charging the meter per row) and builds each column's candidate
    /// list (charging per column scan).
    fn build(
        eval: &Eval<'_>,
        rows: std::ops::Range<usize>,
        cols: Vec<u32>,
        mut cells: CellStore,
        meter: &mut WorkMeter,
        rows_rescored: &mut u64,
    ) -> ShardEngine {
        let row0 = rows.start;
        let m = rows.len();
        let n = cols.len();
        // `fill_row` writes every row's values and every live row's
        // statics, and no dead row's statics are read: stale cells from
        // an earlier round need no reset.
        cells.feasible.resize(m * n, false);
        cells.movein.resize(m * n, Score::ZERO);
        cells.fault.resize(m * n, Score::ZERO);
        cells.value.resize(m * n, f64::INFINITY);
        cells.live.clear();
        if cells.cand.len() < n {
            cells.cand.resize_with(n, ColCandidates::default);
        }
        let mut eng = ShardEngine {
            row0,
            m,
            cols,
            cells,
        };
        for r in 0..m {
            eng.fill_row(eval, r, meter);
            *rows_rescored += 1;
        }
        for c in 0..n {
            meter.charge(m as u64);
            eng.rebuild_col(eval, c);
        }
        eng
    }

    fn n(&self) -> usize {
        self.cols.len()
    }

    /// Scores local row `r` from scratch: the row's host terms once, then
    /// each cell's statics and dynamic half. A row whose host is not `On`
    /// has no feasible cell, so only its values are written, as `∞`, and
    /// it is left off the live list; it still charges `n` units like any
    /// other row, so the work meter reads the same either way.
    fn fill_row(&mut self, eval: &Eval<'_>, r: usize, meter: &mut WorkMeter) {
        let n = self.n();
        let h = self.row0 + r;
        let cells = r * n..(r + 1) * n;
        meter.charge(n as u64);
        let Some(row) = eval.static_row(h) else {
            // The verified skip: debug builds score the row anyway.
            #[cfg(debug_assertions)]
            for &v in &self.cols {
                debug_assert!(
                    !eval.static_cell(h, v as usize).feasible,
                    "dead row {h} has a feasible cell in column {v}"
                );
            }
            self.cells.value[cells].fill(f64::INFINITY);
            return;
        };
        self.cells.live.push(r);
        for (c, idx) in cells.enumerate() {
            let v = self.cols[c] as usize;
            let cell = eval.static_cell_in(&row, v);
            self.cells.feasible[idx] = cell.feasible;
            self.cells.movein[idx] = cell.movein;
            self.cells.fault[idx] = cell.fault;
            self.cells.value[idx] = eval.score_with_static(h, v, &cell).value();
        }
    }

    /// Re-scores local row `r` reusing the cached static halves — the
    /// same two-half composition [`Eval::score`] uses, so values stay
    /// bit-identical to a fresh `eval.score`. Frozen columns are skipped:
    /// a moved column never moves again this round, and its cells are
    /// never read (not by `best_move`, which skips it, nor by
    /// `rebuild_col`, which is only reached through it), so rescoring
    /// them is dead work — the dominant cost of a move at scale.
    fn rescore_row(&mut self, eval: &Eval<'_>, r: usize, frozen: &[bool], meter: &mut WorkMeter) {
        let n = self.n();
        let h = self.row0 + r;
        let unfrozen = self.cols.iter().filter(|&&v| !frozen[v as usize]).count();
        meter.charge(unfrozen as u64);
        if self.cells.live.binary_search(&r).is_err() {
            // A dead row stays `∞` whatever the overlay (see `fill_row`).
            return;
        }
        for c in 0..n {
            let v = self.cols[c] as usize;
            if frozen[v] {
                continue;
            }
            let idx = r * n + c;
            let cell = CellStatic {
                feasible: self.cells.feasible[idx],
                movein: self.cells.movein[idx],
                fault: self.cells.fault[idx],
            };
            self.cells.value[idx] = eval.score_with_static(h, v, &cell).value();
        }
    }

    /// Full column rescan: rebuilds column `c`'s top-k and bound from the
    /// cell values. Requires all rows clean. Dead rows hold no finite
    /// cell, so only the live ones are read.
    fn rebuild_col(&mut self, eval: &Eval<'_>, c: usize) {
        let n = self.n();
        let v = self.cols[c] as usize;
        let placement = eval.placement_of(v);
        let mut overflow = false;
        let mut top: Vec<(f64, u32)> = std::mem::take(&mut self.cells.cand[c].top);
        top.clear();
        for &r in &self.cells.live {
            let h = self.row0 + r;
            if placement == Some(h) {
                continue;
            }
            let s = self.cells.value[r * n + c];
            if s.is_infinite() {
                continue;
            }
            let entry = (s, h as u32);
            if top.len() == TOP_K {
                // Full: the entry or the current last drops out.
                overflow = true;
                if entry >= top[TOP_K - 1] {
                    continue;
                }
                top.pop();
            }
            let pos = top.partition_point(|&e| e < entry);
            top.insert(pos, entry);
        }
        let bound = if overflow {
            // Dropped cells all compare > the last kept entry.
            *top.last().unwrap_or(&BOUND_COMPLETE)
        } else {
            BOUND_COMPLETE
        };
        self.cells.cand[c] = ColCandidates { top, bound };
    }

    /// Applies a move's row invalidation: re-scores the dirty rows and
    /// maintains every column's candidate list (remove entries on dirty
    /// rows, then challenge the dirty cells against the bound).
    fn invalidate_rows(
        &mut self,
        eval: &Eval<'_>,
        dirty: &[usize],
        frozen: &[bool],
        meter: &mut WorkMeter,
        rows_rescored: &mut u64,
    ) {
        let n = self.n();
        for &r in dirty {
            self.rescore_row(eval, r, frozen, meter);
            *rows_rescored += 1;
        }
        for c in 0..n {
            let v = self.cols[c] as usize;
            if frozen[v] {
                // Dead column (see `rescore_row`): its candidate list is
                // never consulted again.
                continue;
            }
            meter.charge(dirty.len() as u64);
            let placement = eval.placement_of(v);
            let cand = &mut self.cells.cand[c];
            for &r in dirty {
                let h = (self.row0 + r) as u32;
                if let Some(pos) = cand.top.iter().position(|&(_, row)| row == h) {
                    cand.top.remove(pos);
                }
            }
            for &r in dirty {
                let h = self.row0 + r;
                if placement == Some(h) {
                    continue;
                }
                let s = self.cells.value[r * n + c];
                if s.is_infinite() {
                    continue;
                }
                let entry = (s, h as u32);
                if entry >= cand.bound {
                    // Outside the bound: the invariant already covers it.
                    continue;
                }
                let pos = cand.top.partition_point(|&e| e < entry);
                if pos < TOP_K {
                    cand.top.insert(pos, entry);
                    if cand.top.len() > TOP_K {
                        let dropped = cand.top.pop().unwrap_or(BOUND_COMPLETE);
                        if dropped < cand.bound {
                            cand.bound = dropped;
                        }
                    }
                } else {
                    // Worse than every kept candidate: it stays outside,
                    // so the bound must drop to keep covering it.
                    cand.bound = entry;
                }
            }
        }
    }

    /// The head of column `c`'s candidate list, rescanning the column if
    /// the list drained while cells might remain outside the bound.
    fn col_best(&mut self, eval: &Eval<'_>, c: usize, meter: &mut WorkMeter) -> Option<(f64, u32)> {
        let cand = &self.cells.cand[c];
        if cand.top.is_empty() && cand.bound < BOUND_COMPLETE {
            meter.charge(self.m as u64);
            self.rebuild_col(eval, c);
        }
        self.cells.cand[c].top.first().copied()
    }

    /// The most beneficial move within this shard by the global
    /// `(Δ, to, column, row)` contract, subject to the migration bar.
    fn best_move(
        &mut self,
        eval: &Eval<'_>,
        frozen: &[bool],
        meter: &mut WorkMeter,
    ) -> Option<(usize, usize)> {
        meter.charge(self.n() as u64);
        let mut best: Option<(f64, f64, usize, usize)> = None;
        for c in 0..self.n() {
            let v = self.cols[c] as usize;
            if frozen[v] {
                continue;
            }
            let Some((to_val, h)) = self.col_best(eval, c, meter) else {
                continue;
            };
            let from = match eval.placement_of(v) {
                Some(p) => {
                    debug_assert!(
                        (self.row0..self.row0 + self.m).contains(&p),
                        "column {v} placed outside its shard"
                    );
                    Score::finite(self.cells.value[(p - self.row0) * self.n() + c])
                }
                None => Score::INFINITE,
            };
            let Some(d) = Score::delta(Score::finite(to_val), from) else {
                continue;
            };
            let bar = if eval.original_of(v).is_some() {
                -eval.min_migration_gain()
            } else {
                0.0
            };
            if d >= bar {
                continue;
            }
            let cand = (d, to_val, v, h as usize);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        best.map(|(_, _, v, h)| (v, h))
    }
}

/// Hill-climbs one shard to convergence, its move cap, or meter
/// exhaustion. Returns `(hit_move_limit, exhausted)`.
#[allow(clippy::too_many_arguments)]
fn climb_shard(
    eval: &mut Eval<'_>,
    rows: std::ops::Range<usize>,
    cols: Vec<u32>,
    frozen: &mut [bool],
    max_moves: usize,
    meter: &mut WorkMeter,
    moves: &mut Vec<(usize, usize)>,
    sweeps: &mut usize,
    rows_rescored: &mut u64,
) -> (bool, bool) {
    if cols.is_empty() {
        return (false, false);
    }
    let row0 = rows.start;
    let store = std::mem::take(&mut eval.cells);
    let mut eng = ShardEngine::build(eval, rows, cols, store, meter, rows_rescored);
    let mut local_moves = 0usize;
    let outcome = loop {
        if local_moves >= max_moves {
            break (true, false);
        }
        if meter.exhausted() {
            break (false, true);
        }
        *sweeps += 1;
        let Some((v, h)) = eng.best_move(eval, frozen, meter) else {
            break (false, false);
        };
        let old = eval.placement_of(v);
        eval.apply_move(v, h);
        frozen[v] = true;
        moves.push((v, h));
        local_moves += 1;
        let mut dirty = [0usize; 2];
        let mut k = 0;
        if let Some(o) = old {
            dirty[k] = o - row0;
            k += 1;
        }
        dirty[k] = h - row0;
        k += 1;
        eng.invalidate_rows(eval, &dirty[..k], frozen, meter, rows_rescored);
    };
    eval.cells = eng.cells;
    outcome
}

/// Runs the full sharded hierarchical solve (see the module docs for the
/// pass structure). `cursor` seeds the queue-column round-robin;
/// `budget == u64::MAX` leaves the work meter unarmed.
///
/// With a single-shard map this is move-for-move identical to
/// [`solve_reference`](crate::solver::solve_reference) on the same
/// evaluator.
pub fn solve_sharded(
    eval: &mut Eval<'_>,
    map: &ShardMap,
    cursor: u64,
    max_moves: usize,
    budget: u64,
    degrade: DegradeLevel,
) -> ShardedOutcome {
    debug_assert_eq!(map.num_hosts(), eval.num_hosts(), "shard map mismatch");
    let n = eval.num_vms();
    let num_shards = map.num_shards();
    let mut meter = if budget == u64::MAX {
        WorkMeter::unlimited()
    } else {
        WorkMeter::with_budget(budget)
    };

    // Pass 0: deal columns to shards. Running VMs live where their host
    // is; queue columns round-robin from the cursor.
    let mut cols: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    let mut creations = 0u64;
    for v in 0..n {
        let s = match eval.original_of(v) {
            Some(h) => map.shard_of(h),
            None => {
                let s = ((cursor.wrapping_add(creations)) % num_shards as u64) as usize;
                creations += 1;
                s
            }
        };
        cols[s].push(v as u32);
    }

    let mut frozen = vec![false; n];
    let mut moves = Vec::new();
    let mut sweeps = 0usize;
    let mut rows_rescored = 0u64;
    let mut hit_move_limit = false;
    let mut exhausted = false;

    // Pass 1: local climbs, ascending shard order, one shared meter.
    for (s, shard_cols) in cols.iter_mut().enumerate() {
        if meter.exhausted() {
            exhausted = true;
            break;
        }
        let (hit, ex) = climb_shard(
            eval,
            map.hosts(s),
            std::mem::take(shard_cols),
            &mut frozen,
            max_moves,
            &mut meter,
            &mut moves,
            &mut sweeps,
            &mut rows_rescored,
        );
        hit_move_limit |= hit;
        if ex {
            exhausted = true;
            break;
        }
    }

    // Balance: re-home queue columns their shard could not place.
    let mut balanced: Vec<Vec<u32>> = vec![Vec::new(); num_shards];
    let mut balanced_total = 0u64;
    if num_shards > 1 && !exhausted {
        // Per-shard best-host free capacity, one scan over all hosts.
        let mut max_free = vec![(0u32, 0u32); num_shards];
        meter.charge(map.num_hosts() as u64);
        for (s, slot) in max_free.iter_mut().enumerate() {
            let mut best = (0u32, 0u32);
            for h in map.hosts(s) {
                let free = eval.free_capacity(h);
                best.0 = best.0.max(free.cpu.points());
                best.1 = best.1.max(free.mem.mib());
            }
            *slot = best;
        }
        // Global roomiest host over all shards: when a request does not
        // even fit this, no shard passes the per-shard filter and the ring
        // scan below would walk every shard for nothing — the common case
        // once a big cluster saturates. Skipping it changes no state (a
        // filtered-out shard is side-effect free).
        let gmax = max_free
            .iter()
            .fold((0u32, 0u32), |g, &(c, m)| (g.0.max(c), g.1.max(m)));
        let mut creations_seen = 0u64;
        for (v, &is_frozen) in frozen.iter().enumerate() {
            if eval.original_of(v).is_some() {
                continue;
            }
            let home = ((cursor.wrapping_add(creations_seen)) % num_shards as u64) as usize;
            creations_seen += 1;
            if eval.placement_of(v).is_some() || is_frozen {
                continue;
            }
            if meter.exhausted() {
                exhausted = true;
                break;
            }
            let req = eval.requested_of(v);
            if req.cpu.points() > gmax.0 || req.mem.mib() > gmax.1 {
                continue;
            }
            let mut probes = 0usize;
            'probe: for off in 1..num_shards {
                if probes >= BALANCER_PROBES {
                    break;
                }
                let s = (home + off) % num_shards;
                // Cheap filter: the shard's roomiest host must at least
                // nominally fit the request before any cell is scored.
                if req.cpu.points() > max_free[s].0 || req.mem.mib() > max_free[s].1 {
                    continue;
                }
                probes += 1;
                for h in map.hosts(s) {
                    meter.charge(1);
                    if meter.exhausted() {
                        exhausted = true;
                        break 'probe;
                    }
                    if !eval.score(h, v).is_infinite() {
                        balanced[s].push(v as u32);
                        balanced_total += 1;
                        break 'probe;
                    }
                }
            }
            if exhausted {
                break;
            }
        }
    }

    // Pass 2: local climbs over the re-homed columns only.
    for (s, shard_cols) in balanced.iter_mut().enumerate() {
        if shard_cols.is_empty() {
            continue;
        }
        if meter.exhausted() {
            exhausted = true;
            break;
        }
        let (hit, ex) = climb_shard(
            eval,
            map.hosts(s),
            std::mem::take(shard_cols),
            &mut frozen,
            max_moves,
            &mut meter,
            &mut moves,
            &mut sweeps,
            &mut rows_rescored,
        );
        hit_move_limit |= hit;
        if ex {
            exhausted = true;
            break;
        }
    }

    ShardedOutcome {
        solution: Solution {
            moves,
            sweeps,
            hit_move_limit,
            degrade,
            budget_exhausted: exhausted,
        },
        work_spent: meter.spent(),
        rows_rescored,
        creations_assigned: creations,
        balanced: balanced_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoreConfig;
    use crate::solver::solve_reference;
    use eards_model::{
        Arch, Cluster, Cpu, HostClass, HostId, HostSpec, Hypervisor, Job, JobId, Mem, PowerState,
        Requirements,
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
    fn single_shard_matches_reference_oracle() {
        for (hosts, vms, cpu) in [(4u32, 6u64, 150u32), (6, 10, 120), (3, 2, 100), (5, 8, 120)] {
            let mut c = cluster(hosts);
            let ids: Vec<_> = (0..vms).map(|i| c.submit_job(job(i, cpu))).collect();
            let cfg = ScoreConfig::sb();
            let expected = {
                let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
                solve_reference(&mut eval, 32)
            };
            let mut eval = Eval::new(&c, &cfg, t(0), ids);
            let map = ShardMap::single(hosts as usize);
            let out = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
            assert_eq!(
                out.solution.moves, expected.moves,
                "{hosts}h/{vms}v: sharded(1) diverged from the full-rescan climb"
            );
            assert!(!out.solution.budget_exhausted);
        }
    }

    #[test]
    fn multi_shard_places_queued_vms_via_balancer() {
        // 4 hosts in 2 shards (rack size 2); shard 1's hosts are off, so
        // any queue column dealt there cannot place locally — the
        // balancer must re-home it to shard 0 for the second pass.
        let mut c = cluster(4);
        c.begin_power_off(HostId(2), t(0));
        c.begin_power_off(HostId(3), t(0));
        let ids: Vec<_> = (0..2).map(|i| c.submit_job(job(i, 100))).collect();
        let cfg = ScoreConfig::sb();
        let mut eval = Eval::new(&c, &cfg, t(0), ids);
        let map = ShardMap::build(4, 2, 2);
        let out = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
        assert_eq!(out.creations_assigned, 2);
        assert_eq!(out.balanced, 1, "the shard-1 column must be re-homed");
        assert_eq!(out.solution.moves.len(), 2, "both VMs must be placed");
        for v in 0..2 {
            let h = eval.placement_of(v).expect("column placed");
            assert_eq!(map.shard_of(h), 0, "only shard 0 has live hosts");
        }
    }

    #[test]
    fn migrations_stay_within_their_shard() {
        let mut c = cluster(4);
        let mut ids = Vec::new();
        for (i, h) in [(0u64, 0u32), (1, 1), (2, 2), (3, 3)] {
            let vm = c.submit_job(job(i, 100));
            c.start_creation(vm, HostId(h), t(0), t(40));
            c.finish_creation(vm, t(40));
            ids.push(vm);
        }
        let cfg = ScoreConfig::sb();
        let mut eval = Eval::new(&c, &cfg, t(100), ids);
        let map = ShardMap::build(4, 2, 2);
        let out = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
        for &(v, h) in &out.solution.moves {
            let home = map.shard_of(eval.original_of(v).unwrap());
            assert_eq!(map.shard_of(h), home, "migration {v}→{h} crossed shards");
        }
    }

    #[test]
    fn budget_exhaustion_is_deterministic_and_prefix_stable() {
        // The anytime property: stopping on budget exhaustion must yield
        // exactly the first k moves of the full climb, for every budget,
        // on one shard and on a real partition.
        let mut c = cluster(6);
        let ids: Vec<_> = (0..10).map(|i| c.submit_job(job(i, 150))).collect();
        let cfg = ScoreConfig::sb();
        for map in [ShardMap::single(6), ShardMap::build(6, 2, 3)] {
            let full = {
                let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
                solve_sharded(&mut eval, &map, 0, 100, u64::MAX, DegradeLevel::L0Full)
            };
            assert!(full.solution.moves.len() >= 2, "{:?}", full.solution);
            assert!(!full.solution.budget_exhausted);
            let mut last_len = 0usize;
            for budget in [1u64, 20, 100, 200, 400, 1000, 2000, full.work_spent] {
                let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
                let out = solve_sharded(&mut eval, &map, 0, 100, budget, DegradeLevel::L0Full);
                assert_eq!(
                    out.solution.moves,
                    full.solution.moves[..out.solution.moves.len()],
                    "budget {budget}: not a prefix of the unbudgeted climb"
                );
                assert!(out.solution.moves.len() >= last_len, "budget not monotone");
                last_len = out.solution.moves.len();
                if !out.solution.budget_exhausted {
                    assert_eq!(out.solution.moves, full.solution.moves);
                }
            }
        }
    }

    #[test]
    fn cursor_spreads_queue_columns_across_shards() {
        let mut c = cluster(4);
        let ids: Vec<_> = (0..2).map(|i| c.submit_job(job(i, 100))).collect();
        let cfg = ScoreConfig::sb();
        let map = ShardMap::build(4, 2, 2);
        // Cursor 0 deals column 0 → shard 0; cursor 1 deals it → shard 1.
        let mut eval = Eval::new(&c, &cfg, t(0), ids.clone());
        let a = solve_sharded(&mut eval, &map, 0, 32, u64::MAX, DegradeLevel::L0Full);
        let mut eval = Eval::new(&c, &cfg, t(0), ids);
        let b = solve_sharded(&mut eval, &map, 1, 32, u64::MAX, DegradeLevel::L0Full);
        assert_eq!(a.creations_assigned, 2);
        // Shard 0 always climbs first; which *column* it got reveals the
        // deal: cursor 0 gives it column 0, cursor 1 gives it column 1.
        assert_eq!(a.solution.moves.first().map(|&(v, _)| v), Some(0));
        assert_eq!(b.solution.moves.first().map(|&(v, _)| v), Some(1));
    }

    /// Host `i`'s spec and power state from one generated byte: bits 0–2
    /// pick the power state (half of them `On`), bits 3–5 a non-default
    /// architecture, hypervisor and CPU count.
    fn host_from_byte(i: u32, byte: u8) -> (HostSpec, u8) {
        let classes = [HostClass::Fast, HostClass::Medium, HostClass::Slow];
        let mut spec = HostSpec::standard(HostId(i), classes[i as usize % 3]);
        if byte & 0x08 != 0 {
            spec.arch = Arch::Ppc64;
        }
        if byte & 0x10 != 0 {
            spec.hypervisor = Hypervisor::Kvm;
        }
        if byte & 0x20 != 0 {
            spec.cpu = Cpu::cores(8);
        }
        (spec, byte & 0x07)
    }

    /// A job whose size and requirements come from one generated byte:
    /// bits 0–1 the CPU (100–400), bits 2–3 a required architecture and
    /// hypervisor, bits 4–5 the minimum host CPU count.
    fn job_from_byte(id: u64, byte: u8) -> Job {
        let mut j = job(id, 100 * (1 + u32::from(byte % 4)));
        j.requirements = Requirements {
            arch: (byte & 0x04 != 0).then_some(Arch::X86_64),
            hypervisor: (byte & 0x08 != 0).then_some(Hypervisor::Xen),
            min_host_cpus: [0, 2, 4, 8][usize::from(byte >> 4) % 4],
        };
        j
    }

    /// After the build and after every move of an arbitrary sequence, the
    /// engine's cached cell must equal a from-scratch recompute bit for
    /// bit, and each column's candidate head must be the column's true
    /// `(to, row)` argmin. Hosts come in every power state and with
    /// requirement mismatches, so dead rows and infeasible cells occur;
    /// some VMs are left mid-creation, so `P_conc` is charged.
    fn check_engine_against_recompute(
        hosts: u32,
        host_bytes: &[u8],
        placed: &[(u8, u8)],
        queued: &[u8],
        moves: &[(u8, u8)],
    ) {
        let (specs, states): (Vec<_>, Vec<_>) = (0..hosts)
            .map(|i| host_from_byte(i, host_bytes.get(i as usize).copied().unwrap_or(0)))
            .unzip();
        let mut c = Cluster::new(specs, PowerState::On);
        for (i, &state) in states.iter().enumerate() {
            let h = HostId(i as u32);
            match state {
                4 => {
                    c.begin_power_off(h, t(0));
                    c.complete_power_off(h);
                }
                5 => {
                    c.begin_power_off(h, t(0));
                    c.complete_power_off(h);
                    c.begin_power_on(h, t(0));
                }
                6 => {
                    c.begin_power_off(h, t(0));
                }
                7 => {
                    c.fail_host(h, t(0));
                }
                _ => {}
            }
        }
        let mut ids = Vec::new();
        for (i, &(byte, bias)) in placed.iter().enumerate() {
            let vm = c.submit_job(job_from_byte(i as u64, byte));
            let fits = (0..hosts)
                .map(|k| HostId((u32::from(bias) + k) % hosts))
                .find(|&h| c.can_place(h, vm));
            if let Some(h) = fits {
                c.start_creation(vm, h, t(0), t(40));
                // A VM mid-creation is no matrix column, but its host
                // charges the operation as `P_conc`.
                if bias % 4 != 0 {
                    c.finish_creation(vm, t(40));
                    ids.push(vm);
                }
            }
        }
        for (i, &byte) in queued.iter().enumerate() {
            let id = (placed.len() + i) as u64;
            ids.push(c.submit_job(job_from_byte(id, byte)));
        }
        let (m, n) = (hosts as usize, ids.len());
        let check = |eval: &Eval<'_>, eng: &mut ShardEngine, meter: &mut WorkMeter| {
            for v in 0..n {
                let mut argmin: Option<(f64, u32)> = None;
                for r in 0..m {
                    let fresh = eval.score(r, v).value();
                    let cached = eng.cells.value[r * n + v];
                    assert_eq!(cached.to_bits(), fresh.to_bits(), "cell ({r}, {v})");
                    let cand = (fresh, r as u32);
                    if eval.placement_of(v) != Some(r)
                        && fresh.is_finite()
                        && argmin.is_none_or(|b| cand < b)
                    {
                        argmin = Some(cand);
                    }
                }
                assert_eq!(eng.col_best(eval, v, meter), argmin, "column {v}");
            }
        };
        for cfg in [ScoreConfig::sb0(), ScoreConfig::sb(), ScoreConfig::full()] {
            let mut eval = Eval::new(&c, &cfg, t(120), ids.clone());
            let mut meter = WorkMeter::unlimited();
            let mut rows = 0u64;
            let cols = (0..n as u32).collect();
            // Recycled storage holds an earlier round's cells: the build
            // must not read any of them.
            let stale = CellStore {
                feasible: vec![true; m * n],
                movein: vec![Score::finite(-7.0); m * n],
                fault: vec![Score::finite(-7.0); m * n],
                value: vec![-7.0; m * n],
                live: (0..m).collect(),
                cand: vec![
                    ColCandidates {
                        top: vec![(-7.0, 0)],
                        bound: (-7.0, 0),
                    };
                    n
                ],
            };
            let mut eng = ShardEngine::build(&eval, 0..m, cols, stale, &mut meter, &mut rows);
            assert_eq!(rows, m as u64, "every row counts, dead or not");
            assert_eq!(meter.spent(), 2 * (m * n) as u64, "every row charges n");
            check(&eval, &mut eng, &mut meter);
            let frozen = vec![false; n];
            for &(vs, hs) in moves {
                let (v, h) = (usize::from(vs) % n, usize::from(hs) % m);
                let old = eval.placement_of(v);
                if old == Some(h) {
                    continue; // the solver never emits a self-move
                }
                eval.apply_move(v, h);
                let dirty: Vec<usize> = old.into_iter().chain([h]).collect();
                eng.invalidate_rows(&eval, &dirty, &frozen, &mut meter, &mut rows);
                check(&eval, &mut eng, &mut meter);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn engine_cells_and_heads_match_recompute(
            hosts in 2u32..24,
            host_bytes in proptest::collection::vec(0u8..=255, 0..24),
            placed in proptest::collection::vec((0u8..=255, 0u8..=255), 0..10),
            queued in proptest::collection::vec(0u8..=255, 1..8),
            moves in proptest::collection::vec((0u8..=255, 0u8..=255), 1..12),
        ) {
            check_engine_against_recompute(hosts, &host_bytes, &placed, &queued, &moves);
        }
    }

    /// The overshoot bound `exp_degrade::slack` in `eards-bench` asserts at
    /// bench scale (kept as the same formula): the meter is checked before
    /// every sweep, so a round spends past its budget at most the engine
    /// build (`2·m·n`) or one later sweep (`m·n + 5n`).
    fn slack(m: u64, n: u64) -> u64 {
        2 * m * n + 2 * n + m
    }

    #[test]
    fn budget_overshoot_stays_within_one_sweep() {
        // More hosts than TOP_K, running VMs to migrate, and a queue.
        let (m, n_running, n_queued) = (24u32, 12u64, 20u64);
        let mut c = cluster(m);
        let mut ids = Vec::new();
        for i in 0..n_running {
            let vm = c.submit_job(job(i, 100));
            c.start_creation(vm, HostId(i as u32 * 2), t(0), t(40));
            c.finish_creation(vm, t(40));
            ids.push(vm);
        }
        ids.extend((0..n_queued).map(|i| c.submit_job(job(n_running + i, 150))));
        let n = ids.len() as u64;
        let cfg = ScoreConfig::sb();
        let map = ShardMap::single(m as usize);
        let run = |budget: u64| {
            let mut eval = Eval::new(&c, &cfg, t(100), ids.clone());
            solve_sharded(&mut eval, &map, 0, 256, budget, DegradeLevel::L0Full)
        };
        let full = run(u64::MAX);
        assert!(full.solution.moves.len() > 2, "{:?}", full.solution);
        let build = 2 * u64::from(m) * n;
        for budget in [1, 100, build, build + 7, full.work_spent / 2] {
            let out = run(budget);
            assert!(out.solution.budget_exhausted, "budget {budget} must bind");
            assert!(
                out.work_spent <= budget + slack(u64::from(m), n),
                "budget {budget}: spent {} past budget + slack",
                out.work_spent
            );
        }
    }
}
