//! The pluggable fault model: what can break, how often, and how the
//! driver recovers.
//!
//! §III-A.6 motivates the `P_fault` penalty with node failures, but real
//! datacenters break in more ways than whole-host crashes: boots fail,
//! VM creations die in dom0, live migrations abort mid-copy, hosts slow
//! down under thermal throttling or noisy neighbours, and whole racks
//! drop off the fabric together. [`FaultPlan`] describes all of these as
//! data, so a run injects exactly the failure mix an experiment asks for
//! — and none at all by default ([`FaultPlan::none`] is zero-cost: no
//! extra RNG draws, no extra events).
//!
//! The driver (`eards-datacenter`) samples each fault class from its own
//! per-host RNG stream, so two runs that keep a host up for the same
//! intervals see the same faults on it regardless of what else they
//! randomize — the property the cross-policy determinism tests pin down.

use eards_sim::{Persist, PersistError, Reader, SimDuration, Writer};

/// Transient host slowdown: the host's effective CPU capacity drops to
/// `factor` of nominal for `duration`, then recovers (thermal throttling,
/// a noisy dom0, degraded storage…).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowdownPlan {
    /// Mean time between episodes while the host is up (exponentially
    /// distributed).
    pub mtbe: SimDuration,
    /// Length of one episode.
    pub duration: SimDuration,
    /// Capacity multiplier during the episode, in `(0, 1)`.
    pub factor: f64,
}

impl Default for SlowdownPlan {
    fn default() -> Self {
        SlowdownPlan {
            mtbe: SimDuration::from_hours(8),
            duration: SimDuration::from_mins(15),
            factor: 0.5,
        }
    }
}

/// Correlated rack-scoped outage: every `rack_size` consecutive host ids
/// form a rack sharing a switch/PDU; when a rack fails, every powered
/// host in it crashes at once.
#[derive(Debug, Clone, PartialEq)]
pub struct RackPlan {
    /// Hosts per rack (consecutive ids; the last rack may be smaller).
    pub rack_size: usize,
    /// Mean time between outages per rack (exponentially distributed).
    pub mtbf: SimDuration,
    /// Time from the outage until the struck hosts are bootable again.
    pub outage: SimDuration,
}

impl Default for RackPlan {
    fn default() -> Self {
        RackPlan {
            rack_size: 8,
            mtbf: SimDuration::from_days(2),
            outage: SimDuration::from_mins(20),
        }
    }
}

/// How the driver recovers from faults: retry backoff for failed
/// creations/migrations and the flapping-host blacklist.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Backoff before the first retry of a failed creation/migration.
    pub base_backoff: SimDuration,
    /// Ceiling of the exponential backoff (the retry delay doubles per
    /// consecutive failure of the same VM, saturating here — retries are
    /// unbounded in count but bounded in delay, so a VM is never dropped).
    pub max_backoff: SimDuration,
    /// After this many crashes a host is blacklisted (0 disables the
    /// blacklist).
    pub blacklist_after: u32,
    /// Reliability penalty applied to a blacklisted host: the score
    /// engine's `P_fault` and power-on ranking see
    /// `reliability − penalty`, steering load away from flapping hosts.
    pub blacklist_penalty: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            base_backoff: SimDuration::from_secs(30),
            max_backoff: SimDuration::from_mins(10),
            blacklist_after: 3,
            blacklist_penalty: 0.05,
        }
    }
}

impl RecoveryPolicy {
    /// Exponential backoff before retry number `attempt` (1-based):
    /// `min(base · 2^(attempt−1), max)`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let base = self.base_backoff.as_secs_f64();
        // Cap the exponent: 2^32 seconds is already past any horizon.
        let scaled = base * f64::powi(2.0, attempt.saturating_sub(1).min(32) as i32);
        SimDuration::from_secs_f64(scaled.min(self.max_backoff.as_secs_f64()).max(0.0))
    }
}

/// The full fault-injection plan of one run.
///
/// Every class is independent: enable any subset. The special value
/// [`FaultPlan::none`] (the [`Default`]) injects nothing and costs
/// nothing — the driver draws no fault randomness and schedules no fault
/// events, so a fault-free run is bit-identical to one on a build without
/// the fault layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Inject whole-host crashes (MTTF-sampled; repaired after
    /// [`FaultPlan::mttr`]).
    pub host_crashes: bool,
    /// Uniform MTTF override for crashes. `None` derives each host's MTTF
    /// from its spec reliability (`MTTF = MTTR·rel/(1−rel)`, i.e.
    /// availability = reliability), in which case hosts with
    /// `reliability = 1.0` never crash.
    pub crash_mttf: Option<SimDuration>,
    /// Mean time to repair: how long a crashed host stays down before it
    /// becomes bootable again.
    pub mttr: SimDuration,
    /// Probability that a host boot fails (the host lands in the failed
    /// state and must be repaired instead of coming up).
    pub boot_failure_prob: f64,
    /// Probability that a VM creation aborts partway through.
    pub creation_failure_prob: f64,
    /// Probability that a live migration aborts partway through (the VM
    /// keeps running on the source).
    pub migration_abort_prob: f64,
    /// Transient host slowdowns (`None` disables).
    pub slowdown: Option<SlowdownPlan>,
    /// Correlated rack outages (`None` disables).
    pub rack: Option<RackPlan>,
    /// Recovery policy: retry backoff and the flapping-host blacklist.
    pub recovery: RecoveryPolicy,
    /// Seed of the fault RNG streams. `None` uses the run's driver seed,
    /// so the fault schedule can be varied (or held fixed) independently
    /// of operation jitter.
    pub seed: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// No fault injection at all (the default).
    pub fn none() -> Self {
        FaultPlan {
            host_crashes: false,
            crash_mttf: None,
            mttr: SimDuration::from_mins(30),
            boot_failure_prob: 0.0,
            creation_failure_prob: 0.0,
            migration_abort_prob: 0.0,
            slowdown: None,
            rack: None,
            recovery: RecoveryPolicy::default(),
            seed: None,
        }
    }

    /// Reliability-driven host crashes only — the behaviour of the legacy
    /// `failures: bool` flag: each host's MTTF derives from its spec
    /// reliability, and perfectly reliable hosts never crash.
    pub fn crashes() -> Self {
        FaultPlan {
            host_crashes: true,
            ..Self::none()
        }
    }

    /// A full chaos mix scaled by `intensity` (0 disables everything;
    /// 1.0 is a harsh but survivable baseline; larger is harsher). Used
    /// by the `exp_chaos` escalating-fault-rate experiment.
    pub fn chaos(intensity: f64) -> Self {
        if intensity <= 0.0 {
            return Self::none();
        }
        let scale = |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() / intensity);
        FaultPlan {
            host_crashes: true,
            crash_mttf: Some(scale(SimDuration::from_hours(12))),
            mttr: SimDuration::from_mins(20),
            boot_failure_prob: (0.02 * intensity).min(0.5),
            creation_failure_prob: (0.03 * intensity).min(0.5),
            migration_abort_prob: (0.03 * intensity).min(0.5),
            slowdown: Some(SlowdownPlan {
                mtbe: scale(SimDuration::from_hours(8)),
                ..SlowdownPlan::default()
            }),
            rack: Some(RackPlan {
                mtbf: scale(SimDuration::from_days(2)),
                ..RackPlan::default()
            }),
            recovery: RecoveryPolicy::default(),
            seed: None,
        }
    }

    /// True if the plan injects nothing (every class disabled).
    pub fn is_none(&self) -> bool {
        !self.host_crashes
            && self.boot_failure_prob <= 0.0
            && self.creation_failure_prob <= 0.0
            && self.migration_abort_prob <= 0.0
            && self.slowdown.is_none()
            && self.rack.is_none()
    }

    /// Sets the independent fault seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl Persist for SlowdownPlan {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.mtbe.persist(w);
        self.duration.persist(w);
        w.put_f64(self.factor);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SlowdownPlan {
            mtbe: SimDuration::restore(r)?,
            duration: SimDuration::restore(r)?,
            factor: r.get_f64()?,
        })
    }
}

impl Persist for RackPlan {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_usize(self.rack_size);
        self.mtbf.persist(w);
        self.outage.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RackPlan {
            rack_size: r.get_usize()?,
            mtbf: SimDuration::restore(r)?,
            outage: SimDuration::restore(r)?,
        })
    }
}

impl Persist for RecoveryPolicy {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.base_backoff.persist(w);
        self.max_backoff.persist(w);
        w.put_u32(self.blacklist_after);
        w.put_f64(self.blacklist_penalty);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RecoveryPolicy {
            base_backoff: SimDuration::restore(r)?,
            max_backoff: SimDuration::restore(r)?,
            blacklist_after: r.get_u32()?,
            blacklist_penalty: r.get_f64()?,
        })
    }
}

impl Persist for FaultPlan {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_bool(self.host_crashes);
        w.put_opt(&self.crash_mttf);
        self.mttr.persist(w);
        w.put_f64(self.boot_failure_prob);
        w.put_f64(self.creation_failure_prob);
        w.put_f64(self.migration_abort_prob);
        w.put_opt(&self.slowdown);
        w.put_opt(&self.rack);
        self.recovery.persist(w);
        w.put_opt(&self.seed);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(FaultPlan {
            host_crashes: r.get_bool()?,
            crash_mttf: r.get_opt()?,
            mttr: SimDuration::restore(r)?,
            boot_failure_prob: r.get_f64()?,
            creation_failure_prob: r.get_f64()?,
            migration_abort_prob: r.get_f64()?,
            slowdown: r.get_opt()?,
            rack: r.get_opt()?,
            recovery: RecoveryPolicy::restore(r)?,
            seed: r.get_opt()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_none() {
        let p = FaultPlan::default();
        assert!(p.is_none());
        assert_eq!(p, FaultPlan::none());
    }

    #[test]
    fn crashes_plan_enables_only_crashes() {
        let p = FaultPlan::crashes();
        assert!(p.host_crashes);
        assert!(!p.is_none());
        assert_eq!(p.creation_failure_prob, 0.0);
        assert!(p.slowdown.is_none() && p.rack.is_none());
    }

    #[test]
    fn chaos_scales_with_intensity() {
        assert!(FaultPlan::chaos(0.0).is_none());
        let one = FaultPlan::chaos(1.0);
        let two = FaultPlan::chaos(2.0);
        assert!(one.host_crashes && two.host_crashes);
        assert!(two.creation_failure_prob > one.creation_failure_prob);
        assert!(two.crash_mttf.unwrap() < one.crash_mttf.unwrap());
        assert!(two.slowdown.as_ref().unwrap().mtbe < one.slowdown.as_ref().unwrap().mtbe);
        // Probabilities saturate rather than exceed 1.
        assert!(FaultPlan::chaos(1e6).creation_failure_prob <= 0.5);
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let r = RecoveryPolicy::default();
        assert_eq!(r.backoff(1), SimDuration::from_secs(30));
        assert_eq!(r.backoff(2), SimDuration::from_secs(60));
        assert_eq!(r.backoff(3), SimDuration::from_secs(120));
        assert_eq!(r.backoff(100), r.max_backoff, "bounded delay");
        // Attempt 0 is treated like the first.
        assert_eq!(r.backoff(0), SimDuration::from_secs(30));
    }
}
