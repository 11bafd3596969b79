//! Run configuration and the paper's reference datacenter.

use eards_model::{FaultPlan, HostClass, HostId, HostSpec};
use eards_obs::Obs;
use eards_sim::{Persist, PersistError, Reader, SimDuration, Writer};

/// How aggressively the invariant auditor runs (see
/// [`crate::InvariantAuditor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuditorMode {
    /// No auditing (benchmarks that cannot afford the checks).
    Off,
    /// Always on (the default): a light conservation check after every
    /// event batch, a deep structural verification periodically.
    /// Violations are recorded in the report, never silently dropped.
    #[default]
    On,
    /// Deep verification after every event batch, and panic on the first
    /// violation — for CI smoke runs and debugging.
    Strict,
}

/// Configuration of the adaptive λ controller — the "dynamically adjust
/// these thresholds" future work of §V-A, implemented as a feedback loop:
/// periodically compare the recent client satisfaction against a target
/// and move λ_min toward more or less aggressive node turn-off.
#[derive(Debug, Clone)]
pub struct AdaptiveLambda {
    /// Satisfaction the provider wants to hold (percent).
    pub target_satisfaction: f64,
    /// How often the controller adjusts.
    pub adjust_period: SimDuration,
    /// λ_min change per adjustment.
    pub step: f64,
    /// Bounds on λ_min (λ_max stays fixed).
    pub lambda_min_bounds: (f64, f64),
    /// Minimum completed jobs in the window before adjusting (avoids
    /// reacting to noise in quiet periods).
    pub min_window_jobs: u64,
}

impl Default for AdaptiveLambda {
    fn default() -> Self {
        AdaptiveLambda {
            target_satisfaction: 99.0,
            adjust_period: SimDuration::from_mins(30),
            step: 0.05,
            lambda_min_bounds: (0.10, 0.80),
            min_window_jobs: 5,
        }
    }
}

/// Configuration of one datacenter simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// λ_min: below this working/online ratio, idle nodes are switched off
    /// (§III-C). The paper's balanced setting is 0.30.
    pub lambda_min: f64,
    /// λ_max: above this working/online ratio, off nodes are switched on.
    /// The paper's setting is 0.90.
    pub lambda_max: f64,
    /// Minimum number of online nodes kept at all times (`minexec`).
    pub min_exec: usize,
    /// Hosts switched on at t = 0.
    pub initial_on: usize,
    /// Standard deviation of the VM-creation duration jitter, seconds.
    /// §IV: "a normal distribution (µ 40, σ 2.5), as observed in the real
    /// environment, has been used in VM creations".
    pub creation_jitter_std: f64,
    /// Standard deviation of the migration duration jitter, seconds.
    pub migration_jitter_std: f64,
    /// Period of the SLA-projection check.
    pub sla_check_period: SimDuration,
    /// Period of the consolidation (migration re-evaluation) round for
    /// migrating policies (`None` disables periodic consolidation).
    pub consolidation_period: Option<SimDuration>,
    /// Escalate a violated VM's resource request so rescheduling can give
    /// it more room (§III-A.5 "dynamic SLA enforcement").
    pub dynamic_sla: bool,
    /// Adaptive λ_min feedback controller (`None` = static thresholds).
    pub adaptive_lambda: Option<AdaptiveLambda>,
    /// Checkpoint running VMs this often (`None` disables; used by the
    /// reliability experiments).
    pub checkpoint_period: Option<SimDuration>,
    /// Duration of one checkpoint write.
    pub checkpoint_duration: SimDuration,
    /// The fault-injection plan ([`FaultPlan::none`] by default). Set via
    /// [`RunConfig::with_faults`]. Reliability-driven host crashes — the
    /// behaviour of the removed legacy `failures: bool` flag — are
    /// [`FaultPlan::crashes`].
    pub faults: FaultPlan,
    /// Invariant-auditor mode (always on by default).
    pub auditor: AuditorMode,
    /// Keep simulating after the last arrival until every job finishes,
    /// up to this long.
    pub drain_limit: SimDuration,
    /// Record the full power time series (needed by the validation and
    /// plotting experiments; aggregates are always recorded).
    pub record_power_series: bool,
    /// Record the audit log (every placement, migration, power transition
    /// and failure, timestamped) — see [`crate::AuditEvent`].
    pub audit: bool,
    /// RNG seed for the run's stochastic elements (operation jitter,
    /// failures). The workload has its own seed.
    pub seed: u64,
    /// Observability handle threaded through the runner (and, when the
    /// caller builds the policy with the same handle, the solver).
    /// Disabled by default: every hook is a no-op and the run is
    /// bit-identical to an unobserved one.
    pub obs: Obs,
    /// Runner backpressure: `Some(n)` caps retry backoff growth at `n`
    /// attempts and parks VMs past the cap in a deterministic queue that
    /// re-enters admission when the flapping blacklist clears. `None`
    /// (the default) keeps the legacy unbounded backoff.
    pub park_after: Option<u32>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            lambda_min: 0.30,
            lambda_max: 0.90,
            min_exec: 1,
            initial_on: 10,
            creation_jitter_std: 2.5,
            migration_jitter_std: 2.5,
            sla_check_period: SimDuration::from_secs(60),
            consolidation_period: Some(SimDuration::from_mins(10)),
            dynamic_sla: false,
            adaptive_lambda: None,
            checkpoint_period: None,
            checkpoint_duration: SimDuration::from_secs(10),
            faults: FaultPlan::none(),
            auditor: AuditorMode::On,
            drain_limit: SimDuration::from_days(2),
            record_power_series: false,
            audit: false,
            seed: 0x0EA2D5,
            obs: Obs::disabled(),
            park_after: None,
        }
    }
}

impl RunConfig {
    /// Sets the λ thresholds (given in percent, as the paper quotes them:
    /// e.g. `with_lambdas(30, 90)`).
    pub fn with_lambdas(mut self, lambda_min_pct: u32, lambda_max_pct: u32) -> Self {
        assert!(lambda_min_pct < lambda_max_pct, "λ_min must be below λ_max");
        self.lambda_min = f64::from(lambda_min_pct) / 100.0;
        self.lambda_max = f64::from(lambda_max_pct) / 100.0;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the invariant-auditor mode.
    pub fn with_auditor(mut self, mode: AuditorMode) -> Self {
        self.auditor = mode;
        self
    }

    /// Attaches an observability handle. Pass a clone of the same handle
    /// to `eards_core::ScoreScheduler::with_obs` to capture solver
    /// spans and score attributions in the same trace.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }
}

impl Persist for AuditorMode {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            AuditorMode::Off => 0,
            AuditorMode::On => 1,
            AuditorMode::Strict => 2,
        });
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(AuditorMode::Off),
            1 => Ok(AuditorMode::On),
            2 => Ok(AuditorMode::Strict),
            t => Err(PersistError::Corrupt(format!("bad AuditorMode tag {t}"))),
        }
    }
}

/// The paper's evaluation datacenter (§V): 100 nodes — 15 fast, 50 medium,
/// 35 slow (classes differ in creation/migration overheads).
pub fn paper_datacenter() -> Vec<HostSpec> {
    let mut specs = Vec::with_capacity(100);
    for i in 0..100u32 {
        let class = match i {
            0..=14 => HostClass::Fast,
            15..=64 => HostClass::Medium,
            _ => HostClass::Slow,
        };
        specs.push(HostSpec::standard(HostId(i), class));
    }
    specs
}

/// A small uniform datacenter for tests and examples.
pub fn small_datacenter(n: u32, class: HostClass) -> Vec<HostSpec> {
    (0..n)
        .map(|i| HostSpec::standard(HostId(i), class))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_datacenter_composition() {
        let dc = paper_datacenter();
        assert_eq!(dc.len(), 100);
        let count = |c: HostClass| dc.iter().filter(|h| h.class == c).count();
        assert_eq!(count(HostClass::Fast), 15);
        assert_eq!(count(HostClass::Medium), 50);
        assert_eq!(count(HostClass::Slow), 35);
        // Ids are dense and ordered (a Cluster precondition).
        for (i, h) in dc.iter().enumerate() {
            assert_eq!(h.id.raw() as usize, i);
        }
    }

    #[test]
    fn lambda_builder() {
        let cfg = RunConfig::default().with_lambdas(40, 90);
        assert_eq!(cfg.lambda_min, 0.40);
        assert_eq!(cfg.lambda_max, 0.90);
    }

    #[test]
    #[should_panic(expected = "below")]
    fn inverted_lambdas_rejected() {
        RunConfig::default().with_lambdas(90, 30);
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.lambda_min, 0.30);
        assert_eq!(cfg.lambda_max, 0.90);
        assert_eq!(cfg.creation_jitter_std, 2.5);
        assert!(cfg.faults.is_none(), "no fault injection by default");
        assert_eq!(cfg.auditor, AuditorMode::On, "auditor always on");
    }

    #[test]
    fn with_faults_sets_the_plan() {
        let cfg = RunConfig::default().with_faults(FaultPlan::chaos(1.0));
        assert!(cfg.faults.host_crashes);
        assert_eq!(cfg.faults, FaultPlan::chaos(1.0));
    }

    #[test]
    fn crashes_plan_replaces_legacy_failures_flag() {
        // What `failures: true` used to mean: reliability-driven crashes
        // and nothing else.
        let cfg = RunConfig::default().with_faults(FaultPlan::crashes());
        assert!(cfg.faults.host_crashes);
        assert_eq!(cfg.faults.crash_mttf, None, "reliability-driven MTTF");
        assert_eq!(cfg.faults.creation_failure_prob, 0.0);
    }
}
