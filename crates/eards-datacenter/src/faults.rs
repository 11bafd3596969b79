//! The fault engine: turns a [`FaultPlan`] into concrete, reproducible
//! fault decisions for the driver.
//!
//! Every fault class draws from its **own per-host RNG stream**, seeded
//! from the plan seed, the class, and the host id. Consequences:
//!
//! * classes are independent — enabling migration aborts does not shift
//!   the crash schedule;
//! * hosts are independent — the same host sees the same fault sequence
//!   regardless of what happens elsewhere;
//! * runs are reproducible — the same plan seed yields the same decisions
//!   across runs *and across policies*, as long as the host reaches the
//!   same decision points (the determinism tests pin this down).
//!
//! When a class is disabled its streams are never built and never drawn
//! from, which keeps the whole layer zero-cost under
//! [`FaultPlan::none`].

use eards_model::FaultPlan;
use eards_sim::{Persist, PersistError, Reader, SimDuration, SimRng, Writer};

/// Class-stream tags, XORed into the seed. The crash tag predates this
/// module and must stay `0xFA11`: legacy `failures: bool` runs derive
/// bit-identical crash schedules from it.
const CRASH_TAG: u64 = 0xFA11;
const BOOT_TAG: u64 = 0xB007;
const CREATE_TAG: u64 = 0xC7EA;
const MIGRATE_TAG: u64 = 0x316A;
const SLOWDOWN_TAG: u64 = 0x510E;
const RACK_TAG: u64 = 0x7ACC;

/// Fraction bounds of an operation's duration at which a doomed
/// creation/migration aborts: never instantly, never at the very end.
const ABORT_WINDOW: (f64, f64) = (0.15, 0.85);

fn streams(seed: u64, tag: u64, n: usize) -> Vec<SimRng> {
    (0..n)
        .map(|i| SimRng::seed_from_u64(seed ^ tag ^ ((i as u64) << 17)))
        .collect()
}

/// Samples fault decisions for one run according to a [`FaultPlan`].
///
/// Owned by the driver; exposed for custom drivers that want the same
/// reproducibility guarantees.
pub struct FaultEngine {
    plan: FaultPlan,
    crash: Vec<SimRng>,
    boot: Vec<SimRng>,
    create: Vec<SimRng>,
    migrate: Vec<SimRng>,
    slowdown: Vec<SimRng>,
    rack: Vec<SimRng>,
}

impl FaultEngine {
    /// Builds the engine for `num_hosts` hosts. `default_seed` is the
    /// run's driver seed, used when the plan carries no seed of its own.
    /// Streams of disabled classes are not built.
    pub fn new(plan: FaultPlan, num_hosts: usize, default_seed: u64) -> Self {
        let seed = plan.seed.unwrap_or(default_seed);
        let crash = if plan.host_crashes {
            streams(seed, CRASH_TAG, num_hosts)
        } else {
            Vec::new()
        };
        let boot = if plan.boot_failure_prob > 0.0 {
            streams(seed, BOOT_TAG, num_hosts)
        } else {
            Vec::new()
        };
        let create = if plan.creation_failure_prob > 0.0 {
            streams(seed, CREATE_TAG, num_hosts)
        } else {
            Vec::new()
        };
        let migrate = if plan.migration_abort_prob > 0.0 {
            streams(seed, MIGRATE_TAG, num_hosts)
        } else {
            Vec::new()
        };
        let slowdown = if plan.slowdown.is_some() {
            streams(seed, SLOWDOWN_TAG, num_hosts)
        } else {
            Vec::new()
        };
        let rack = match &plan.rack {
            Some(r) => streams(seed, RACK_TAG, num_hosts.div_ceil(r.rack_size.max(1))),
            None => Vec::new(),
        };
        FaultEngine {
            plan,
            crash,
            boot,
            create,
            migrate,
            slowdown,
            rack,
        }
    }

    /// The plan the engine samples from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of racks the plan partitions `num_hosts` hosts into
    /// (0 without a rack plan).
    pub fn num_racks(&self) -> usize {
        self.rack.len()
    }

    /// Time to the next crash of host `h` (spec reliability
    /// `reliability`), or `None` if crashes are disabled or the host
    /// never fails. Call when the host comes up; the returned delay is
    /// measured from that instant.
    pub fn time_to_crash(&mut self, h: usize, reliability: f64) -> Option<SimDuration> {
        if !self.plan.host_crashes {
            return None;
        }
        let mttf = match self.plan.crash_mttf {
            Some(d) => d.as_secs_f64(),
            None => {
                if reliability >= 1.0 {
                    return None;
                }
                // Availability = MTTF/(MTTF+MTTR) = reliability.
                self.plan.mttr.as_secs_f64() * reliability / (1.0 - reliability)
            }
        };
        let ttf = self.crash[h].exponential(1.0 / mttf.max(1.0));
        Some(SimDuration::from_secs_f64(ttf))
    }

    /// Decides whether the boot of host `h` that just completed its boot
    /// delay fails instead of coming up.
    pub fn boot_fails(&mut self, h: usize) -> bool {
        let p = self.plan.boot_failure_prob;
        p > 0.0 && self.boot[h].chance(p)
    }

    /// Decides whether a creation on host `h` is doomed; returns the
    /// fraction of the operation's duration at which it aborts.
    pub fn creation_fails(&mut self, h: usize) -> Option<f64> {
        let p = self.plan.creation_failure_prob;
        if p > 0.0 && self.create[h].chance(p) {
            Some(self.create[h].uniform_range(ABORT_WINDOW.0, ABORT_WINDOW.1))
        } else {
            None
        }
    }

    /// Decides whether a migration into host `h` (the destination, whose
    /// page-copy receive is the failing end) is doomed; returns the abort
    /// fraction.
    pub fn migration_aborts(&mut self, h: usize) -> Option<f64> {
        let p = self.plan.migration_abort_prob;
        if p > 0.0 && self.migrate[h].chance(p) {
            Some(self.migrate[h].uniform_range(ABORT_WINDOW.0, ABORT_WINDOW.1))
        } else {
            None
        }
    }

    /// Time to the next slowdown episode on host `h`, or `None` if
    /// slowdowns are disabled. Call when the host comes up or an episode
    /// ends.
    pub fn time_to_slowdown(&mut self, h: usize) -> Option<SimDuration> {
        let mtbe = self.plan.slowdown.as_ref()?.mtbe.as_secs_f64();
        let dt = self.slowdown[h].exponential(1.0 / mtbe.max(1.0));
        Some(SimDuration::from_secs_f64(dt))
    }

    /// Time to the next outage of rack `r`, or `None` if rack outages are
    /// disabled. Call at start-up and after each outage fires.
    pub fn time_to_rack_outage(&mut self, r: usize) -> Option<SimDuration> {
        let mtbf = self.plan.rack.as_ref()?.mtbf.as_secs_f64();
        let dt = self.rack[r].exponential(1.0 / mtbf.max(1.0));
        Some(SimDuration::from_secs_f64(dt))
    }
}

/// Canonical state: the plan plus the *positions* of every per-host
/// per-class RNG stream. Re-deriving the streams from the seed on restore
/// would rewind them to the start of the run and replay already-consumed
/// fault decisions; the stream states themselves must travel.
impl Persist for FaultEngine {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.plan.persist(w);
        self.crash.persist(w);
        self.boot.persist(w);
        self.create.persist(w);
        self.migrate.persist(w);
        self.slowdown.persist(w);
        self.rack.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let e = FaultEngine {
            plan: FaultPlan::restore(r)?,
            crash: Vec::restore(r)?,
            boot: Vec::restore(r)?,
            create: Vec::restore(r)?,
            migrate: Vec::restore(r)?,
            slowdown: Vec::restore(r)?,
            rack: Vec::restore(r)?,
        };
        // Enabled classes must carry streams; disabled ones must not.
        let want = |enabled: bool, v: &Vec<SimRng>, class: &str| {
            if enabled == v.is_empty() {
                Err(PersistError::Corrupt(format!(
                    "{class} streams inconsistent with plan (enabled={enabled}, n={})",
                    v.len()
                )))
            } else {
                Ok(())
            }
        };
        want(e.plan.host_crashes, &e.crash, "crash")?;
        want(e.plan.boot_failure_prob > 0.0, &e.boot, "boot")?;
        want(e.plan.creation_failure_prob > 0.0, &e.create, "create")?;
        want(e.plan.migration_abort_prob > 0.0, &e.migrate, "migrate")?;
        want(e.plan.slowdown.is_some(), &e.slowdown, "slowdown")?;
        want(e.plan.rack.is_some(), &e.rack, "rack")?;
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_classes_build_no_streams() {
        let e = FaultEngine::new(FaultPlan::none(), 10, 42);
        assert!(e.crash.is_empty() && e.boot.is_empty());
        assert!(e.create.is_empty() && e.migrate.is_empty());
        assert!(e.slowdown.is_empty() && e.rack.is_empty());
        assert_eq!(e.num_racks(), 0);
    }

    #[test]
    fn crash_stream_matches_legacy_formula() {
        // The legacy driver sampled host crashes from
        // `seed ^ 0xFA11 ^ (h << 17)` with MTTF = MTTR·rel/(1−rel); the
        // engine must reproduce it bit-for-bit so legacy runs replay.
        let seed = 3u64;
        let rel = 0.9;
        let mttr = SimDuration::from_mins(30);
        let mut plan = FaultPlan::crashes();
        plan.mttr = mttr;
        let mut e = FaultEngine::new(plan, 4, seed);
        for h in 0..4usize {
            let mut legacy = SimRng::seed_from_u64(seed ^ 0xFA11 ^ ((h as u64) << 17));
            let mttf = mttr.as_secs_f64() * rel / (1.0 - rel);
            let want = SimDuration::from_secs_f64(legacy.exponential(1.0 / mttf.max(1.0)));
            assert_eq!(e.time_to_crash(h, rel), Some(want));
        }
    }

    #[test]
    fn perfect_hosts_never_crash_without_override() {
        let mut e = FaultEngine::new(FaultPlan::crashes(), 2, 1);
        assert_eq!(e.time_to_crash(0, 1.0), None);
        assert!(e.time_to_crash(0, 0.99).is_some());
        // With a uniform MTTF override even perfect hosts crash.
        let mut plan = FaultPlan::crashes();
        plan.crash_mttf = Some(SimDuration::from_hours(1));
        let mut e = FaultEngine::new(plan, 2, 1);
        assert!(e.time_to_crash(0, 1.0).is_some());
    }

    #[test]
    fn classes_are_independent_streams() {
        // Enabling an extra class must not change another class's
        // decisions at the same decision points.
        let mut only_create = FaultPlan::none();
        only_create.creation_failure_prob = 0.3;
        let mut everything = FaultPlan::chaos(1.0);
        everything.creation_failure_prob = 0.3;
        let mut a = FaultEngine::new(only_create, 8, 99);
        let mut b = FaultEngine::new(everything, 8, 99);
        for h in 0..8 {
            for _ in 0..50 {
                assert_eq!(a.creation_fails(h), b.creation_fails(h));
            }
        }
    }

    #[test]
    fn abort_fraction_stays_inside_window() {
        let mut plan = FaultPlan::none();
        plan.migration_abort_prob = 0.9;
        let mut e = FaultEngine::new(plan, 1, 7);
        let mut seen = 0;
        for _ in 0..200 {
            if let Some(f) = e.migration_aborts(0) {
                assert!((ABORT_WINDOW.0..=ABORT_WINDOW.1).contains(&f));
                seen += 1;
            }
        }
        assert!(seen > 100, "p=0.9 should abort most attempts: {seen}");
    }

    #[test]
    fn plan_seed_overrides_driver_seed() {
        let mut plan = FaultPlan::crashes();
        plan.seed = Some(1234);
        let mut a = FaultEngine::new(plan.clone(), 2, 1);
        let mut b = FaultEngine::new(plan, 2, 999_999);
        assert_eq!(a.time_to_crash(0, 0.9), b.time_to_crash(0, 0.9));
    }

    #[test]
    fn persist_round_trip_resumes_streams_mid_draw() {
        let mut e = FaultEngine::new(FaultPlan::chaos(1.5), 6, 77);
        // Consume an uneven prefix of several streams.
        for h in 0..6 {
            e.time_to_crash(h, 0.9);
            for _ in 0..h {
                e.creation_fails(h);
                e.migration_aborts(h);
            }
        }
        e.boot_fails(2);
        e.time_to_slowdown(4);
        e.time_to_rack_outage(0);

        let mut w = Writer::new();
        e.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let mut restored = FaultEngine::restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.plan(), e.plan());
        for h in 0..6 {
            for _ in 0..20 {
                assert_eq!(restored.time_to_crash(h, 0.9), e.time_to_crash(h, 0.9));
                assert_eq!(restored.creation_fails(h), e.creation_fails(h));
                assert_eq!(restored.migration_aborts(h), e.migration_aborts(h));
                assert_eq!(restored.boot_fails(h), e.boot_fails(h));
                assert_eq!(restored.time_to_slowdown(h), e.time_to_slowdown(h));
            }
        }
        assert_eq!(restored.time_to_rack_outage(0), e.time_to_rack_outage(0));
    }

    #[test]
    fn restore_rejects_stream_plan_mismatch() {
        let e = FaultEngine::new(FaultPlan::crashes(), 3, 1);
        let mut w = Writer::new();
        // A crashes plan with the crash streams stripped out.
        e.plan.persist(&mut w);
        let empty: Vec<SimRng> = Vec::new();
        for _ in 0..6 {
            empty.persist(&mut w);
        }
        let bytes = w.into_bytes().unwrap();
        assert!(FaultEngine::restore(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn rack_count_rounds_up() {
        let mut plan = FaultPlan::none();
        plan.rack = Some(Default::default()); // rack_size 8
        let e = FaultEngine::new(plan, 20, 1);
        assert_eq!(e.num_racks(), 3);
    }
}
