//! Deterministic work budgeting for the anytime solver.
//!
//! A production scheduler must bound its per-round decision cost or it
//! falls behind its own round cadence. The budget here is counted in
//! *work units* — cell rescores and argmin scans, the two operations that
//! dominate a hill-climbing round — never wall-clock time, so a budgeted
//! run is bit-reproducible across machines and snapshot/restore (lint
//! rule D002 stays intact).
//!
//! One work unit ≙ one cell touched: rescoring a row charges `N` (its
//! cell count), a full column rescan charges `M`, challenging a column
//! best with `k` dirty rows charges `k`, and the per-sweep argmin over
//! column bests charges `N`. The meter saturates rather than wraps, and
//! [`WorkMeter::unlimited`] (budget `u64::MAX`) never exhausts — the
//! unlimited path is the bit-identical legacy behavior.
//!
//! [`DegradeLevel`] names the rungs of the scheduler's degradation
//! ladder (see `ScoreScheduler` and DESIGN.md §14); it lives here so the
//! solver can tag a [`Solution`](crate::Solution) with the rung it ran at.

use eards_sim::{Persist, PersistError, Reader, Writer};

/// Saturating counter of deterministic solver work units against a budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkMeter {
    budget: u64,
    spent: u64,
}

impl WorkMeter {
    /// A meter that never exhausts (budget `u64::MAX`). This is the
    /// default for every matrix: the legacy, full-quality path.
    pub fn unlimited() -> Self {
        WorkMeter {
            budget: u64::MAX,
            spent: 0,
        }
    }

    /// A meter with a finite budget of `budget` work units.
    pub fn with_budget(budget: u64) -> Self {
        WorkMeter { budget, spent: 0 }
    }

    /// Records `units` work units (saturating).
    #[inline]
    pub fn charge(&mut self, units: u64) {
        self.spent = self.spent.saturating_add(units);
    }

    /// Work units spent so far.
    #[inline]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The configured budget (`u64::MAX` when unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether this meter can ever exhaust.
    pub fn is_unlimited(&self) -> bool {
        self.budget == u64::MAX
    }

    /// Whether the budget has been reached or passed. An unlimited meter
    /// never exhausts, even if `spent` saturates at `u64::MAX`.
    #[inline]
    pub fn exhausted(&self) -> bool {
        self.spent >= self.budget && self.budget != u64::MAX
    }
}

impl Default for WorkMeter {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Rung of the scheduler's degradation ladder, from full quality (L0) to
/// a deferred round (L3). Ordered: a higher rung does strictly less work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// Full incremental hill-climb over queue + migration candidates.
    L0Full,
    /// Queue-only columns: migration candidates are skipped entirely.
    L1QueueOnly,
    /// Greedy first-feasible placement of queued VMs (no hill climb).
    L2Greedy,
    /// The round is deferred: queue intact, periodic timers re-arm.
    L3Defer,
}

impl DegradeLevel {
    /// All rungs, mildest first.
    pub const ALL: [DegradeLevel; 4] = [
        DegradeLevel::L0Full,
        DegradeLevel::L1QueueOnly,
        DegradeLevel::L2Greedy,
        DegradeLevel::L3Defer,
    ];

    /// Stable snake_case label (obs events, bench JSON, audit log).
    pub fn label(self) -> &'static str {
        match self {
            DegradeLevel::L0Full => "l0_full",
            DegradeLevel::L1QueueOnly => "l1_queue_only",
            DegradeLevel::L2Greedy => "l2_greedy",
            DegradeLevel::L3Defer => "l3_defer",
        }
    }

    /// Rung index 0..=3 (L0 = 0).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The next-harsher rung (saturates at L3).
    pub fn escalate(self) -> DegradeLevel {
        match self {
            DegradeLevel::L0Full => DegradeLevel::L1QueueOnly,
            DegradeLevel::L1QueueOnly => DegradeLevel::L2Greedy,
            DegradeLevel::L2Greedy | DegradeLevel::L3Defer => DegradeLevel::L3Defer,
        }
    }

    /// The next-milder rung (saturates at L0).
    pub fn relax(self) -> DegradeLevel {
        match self {
            DegradeLevel::L0Full | DegradeLevel::L1QueueOnly => DegradeLevel::L0Full,
            DegradeLevel::L2Greedy => DegradeLevel::L1QueueOnly,
            DegradeLevel::L3Defer => DegradeLevel::L2Greedy,
        }
    }
}

impl Persist for DegradeLevel {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            DegradeLevel::L0Full => 0,
            DegradeLevel::L1QueueOnly => 1,
            DegradeLevel::L2Greedy => 2,
            DegradeLevel::L3Defer => 3,
        });
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(DegradeLevel::L0Full),
            1 => Ok(DegradeLevel::L1QueueOnly),
            2 => Ok(DegradeLevel::L2Greedy),
            3 => Ok(DegradeLevel::L3Defer),
            t => Err(PersistError::Corrupt(format!("bad DegradeLevel tag {t}"))),
        }
    }
}

/// Overload-control knobs for `ScoreScheduler`.
///
/// `budget` bounds each round's solver work, and the scheduler walks the
/// [`DegradeLevel`] ladder, escalating when rounds exhaust their budget
/// and relaxing when the work EWMA recovers. `force` pins the rung
/// (bench/diagnostic use — the quality-loss curve in
/// `BENCH_degrade.json` is measured this way).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadControl {
    /// Per-round solver work budget in work units (`u64::MAX` = none).
    pub budget: u64,
    /// Pin the ladder to one rung (overrides the EWMA driver).
    pub force: Option<DegradeLevel>,
}

impl OverloadControl {
    /// Budgeted anytime solving plus the degradation ladder.
    pub fn with_budget(budget: u64) -> Self {
        OverloadControl {
            budget,
            force: None,
        }
    }

    /// Pins the ladder to `rung` (diagnostics and the quality-loss bench).
    pub fn forced(budget: u64, rung: DegradeLevel) -> Self {
        OverloadControl {
            budget,
            force: Some(rung),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_exhausts() {
        let mut m = WorkMeter::unlimited();
        assert!(m.is_unlimited());
        m.charge(u64::MAX);
        m.charge(u64::MAX);
        assert_eq!(m.spent(), u64::MAX, "charges saturate");
        assert!(
            !m.exhausted(),
            "an unlimited meter never exhausts, even saturated"
        );
    }

    #[test]
    fn finite_meter_exhausts_at_budget() {
        let mut m = WorkMeter::with_budget(10);
        m.charge(9);
        assert!(!m.exhausted());
        m.charge(1);
        assert!(m.exhausted());
        assert_eq!(m.spent(), 10);
    }

    #[test]
    fn ladder_moves_saturate() {
        assert_eq!(DegradeLevel::L0Full.relax(), DegradeLevel::L0Full);
        assert_eq!(DegradeLevel::L3Defer.escalate(), DegradeLevel::L3Defer);
        let mut r = DegradeLevel::L0Full;
        for expect in [
            DegradeLevel::L1QueueOnly,
            DegradeLevel::L2Greedy,
            DegradeLevel::L3Defer,
        ] {
            r = r.escalate();
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn degrade_level_round_trips_through_persist() {
        for rung in DegradeLevel::ALL {
            let mut w = Writer::new();
            rung.persist(&mut w);
            let bytes = w.into_bytes().unwrap();
            let mut r = Reader::new(&bytes);
            assert_eq!(DegradeLevel::restore(&mut r).unwrap(), rung);
            r.finish().unwrap();
        }
        let mut r = Reader::new(&[9u8]);
        assert!(DegradeLevel::restore(&mut r).is_err());
    }
}
