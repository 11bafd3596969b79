//! Shared CLI flag handling: building the datacenter, workload and run
//! configuration from common flags.

use eards_core::{OverloadControl, ScoreConfig, ScoreScheduler};
use eards_datacenter::{paper_datacenter, small_datacenter, AdaptiveLambda, RunConfig, Runner};
use eards_model::{FaultPlan, HostClass, HostSpec, Policy, ShardSpec};
use eards_obs::Obs;
use eards_policies::{BackfillingPolicy, DynamicBackfillingPolicy, RandomPolicy, RoundRobinPolicy};
use eards_sim::{PersistError, SimDuration};
use eards_workload::{generate, parse_swf, SwfOptions, SynthConfig, Trace};

use crate::args::{ArgError, Args};

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument problem.
    Args(ArgError),
    /// Free-form usage problem.
    Usage(String),
    /// I/O problem.
    Io(std::io::Error),
    /// Lint gate failure: the rendered report. Printed verbatim (no
    /// `error:` prefix) and exits 1 rather than 2, so CI logs show the
    /// findings and scripts can tell "new findings" from "bad invocation".
    Lint(String),
    /// A snapshot/checkpoint file failed to decode or validate (corrupt,
    /// truncated, or from a different world). Exits 3 so supervisors and
    /// scripts can distinguish "bad checkpoint" from "bad invocation" (2)
    /// and react (e.g. discard the checkpoint and start fresh).
    Snapshot(String),
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Usage(s) => write!(f, "{s}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Lint(report) => write!(f, "{report}"),
            CliError::Snapshot(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The flags shared by `run`, `compare` and `sweep`.
pub const COMMON_VALUED: &[&str] = &[
    "hosts",
    "days",
    "hours",
    "seed",
    "trace-seed",
    "load-factor",
    "trace",
    "lambda-min",
    "lambda-max",
    "adaptive",
    "checkpoint-mins",
    "policy",
    "policies",
    "power-series",
    "out",
    "lambda-min-grid",
    "lambda-max-grid",
    "chaos",
    "trace-out",
    "chrome-out",
    "metrics-out",
    "checkpoint-every",
    "checkpoint-out",
    "solver-budget",
    "shards",
];

/// The observability export flags (valued; `run` only).
pub const OBS_FLAGS: &[&str] = &["trace-out", "chrome-out", "metrics-out"];

/// Ring capacity used when tracing is requested: large enough that a
/// paper-scale day keeps every event, small enough to preallocate cheaply.
pub const OBS_CAPACITY: usize = 1 << 16;

/// True if any observability export flag was given.
pub fn obs_requested(args: &Args) -> bool {
    OBS_FLAGS.iter().any(|f| args.value(f).is_some())
}

/// The boolean switches shared by the simulation commands.
pub const COMMON_SWITCHES: &[&str] = &["paper-dc", "failures", "economics", "csv", "degrade"];

/// The solver arming score-based policies take from the command line:
/// `--solver-budget W` arms the work budget and the L0–L3 degradation
/// ladder; `--shards N` (N ≥ 2) arms the sharded solver over rack-aligned
/// shards, racks sized as in the fault plan (8 when it has none) so shard
/// boundaries follow the fault domains. Absent flags leave the solver
/// unbounded over one shard.
fn solver_arming(
    args: &Args,
    cfg: &RunConfig,
) -> Result<(Option<OverloadControl>, Option<ShardSpec>), CliError> {
    let budget = args.get_opt::<u64>("solver-budget")?;
    if budget == Some(0) {
        return Err(CliError::Usage(
            "--solver-budget must be a positive work-unit count".into(),
        ));
    }
    let count = args.get_opt::<u32>("shards")?;
    if count == Some(0) {
        return Err(CliError::Usage(
            "--shards must be a positive shard count".into(),
        ));
    }
    let rack_size = cfg
        .faults
        .rack
        .as_ref()
        .map_or(8, |r| r.rack_size.max(1) as u32);
    let shards = count
        .filter(|&n| n >= 2)
        .map(|count| ShardSpec { count, rack_size });
    Ok((budget.map(OverloadControl::with_budget), shards))
}

/// A constructor of fresh policy instances, as a sweep point carries one.
type PolicyCtor = Box<dyn Fn() -> Box<dyn Policy> + Send + Sync>;

/// Checks a CLI policy name and the solver flags, and returns the
/// constructor of that policy for runs under `cfg`. Score-based policies
/// are handed a clone of `cfg.obs`, so solver spans and score
/// attributions land in the same trace as the runner's events (a disabled
/// handle keeps every hook a no-op), and are armed by `solver_arming`;
/// non-score policies ignore its flags.
pub fn make_policy(name: &str, args: &Args, cfg: &RunConfig) -> Result<PolicyCtor, CliError> {
    let (ctl, shards) = solver_arming(args, cfg)?;
    let seed = cfg.seed;
    let score = |score: ScoreConfig| -> PolicyCtor {
        let obs = cfg.obs.clone();
        Box::new(move || {
            let mut sched = ScoreScheduler::with_obs(score.clone(), obs.clone());
            if let Some(c) = ctl {
                sched = sched.with_overload(c);
            }
            if let Some(s) = shards {
                sched = sched.with_shards(s);
            }
            Box::new(sched)
        })
    };
    Ok(match name.to_ascii_lowercase().as_str() {
        "rd" | "random" => Box::new(move || Box::new(RandomPolicy::new(seed))),
        "rr" | "round-robin" => Box::new(|| Box::new(RoundRobinPolicy::new())),
        "bf" | "backfilling" => Box::new(|| Box::new(BackfillingPolicy::new())),
        "dbf" => Box::new(|| Box::new(DynamicBackfillingPolicy::new())),
        "sb0" => score(ScoreConfig::sb0()),
        "sb1" => score(ScoreConfig::sb1()),
        "sb2" => score(ScoreConfig::sb2()),
        "sb" => score(ScoreConfig::sb()),
        "sb-ext" | "full" => score(ScoreConfig::full()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown policy {other:?} (rd, rr, bf, dbf, sb0, sb1, sb2, sb, sb-ext)"
            )))
        }
    })
}

/// One simulation's inputs as the command line describes them. Every
/// command that starts and resumes the same simulation builds it here,
/// so a checkpoint always restores into the world that wrote it.
pub(crate) struct World {
    hosts: Vec<HostSpec>,
    trace: Trace,
    policy: Box<dyn Policy>,
    cfg: RunConfig,
}

impl World {
    /// Builds the hosts, workload and run configuration from `args`, lets
    /// `adjust` override the configuration, then builds `policy` for it.
    pub fn build(
        args: &Args,
        policy: &str,
        adjust: impl FnOnce(&mut RunConfig),
    ) -> Result<World, CliError> {
        let hosts = build_hosts(args)?;
        let trace = build_trace(args)?;
        let mut cfg = build_run_config(args)?;
        adjust(&mut cfg);
        let policy = make_policy(policy, args, &cfg)?();
        Ok(World {
            hosts,
            trace,
            policy,
            cfg,
        })
    }

    /// The run's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.cfg.obs
    }

    /// A fresh run from t = 0.
    pub fn runner(self) -> Runner {
        Runner::new(self.hosts, self.trace, self.policy, self.cfg)
    }

    /// The run `snapshot` captured, restored into this world.
    pub fn restore(self, snapshot: &[u8]) -> Result<Runner, PersistError> {
        Runner::restore(self.hosts, self.trace, self.policy, self.cfg, snapshot)
    }
}

/// Builds the host list from `--hosts N` / `--paper-dc`.
pub fn build_hosts(args: &Args) -> Result<Vec<HostSpec>, CliError> {
    if args.switch("paper-dc") {
        return Ok(paper_datacenter());
    }
    let n = args.get::<u32>("hosts", 20)?;
    if n == 0 {
        return Err(CliError::Usage("--hosts must be positive".into()));
    }
    Ok(small_datacenter(n, HostClass::Medium))
}

/// Builds the workload from `--trace FILE.swf` or the synthetic generator
/// (`--days/--hours`, `--trace-seed`, `--load-factor`).
pub fn build_trace(args: &Args) -> Result<Trace, CliError> {
    if let Some(path) = args.value("trace") {
        let text = std::fs::read_to_string(path)?;
        return parse_swf(&text, &SwfOptions::default())
            .map_err(|e| CliError::Usage(format!("{path}: {e}")));
    }
    let span = if let Some(h) = args.get_opt::<u64>("hours")? {
        SimDuration::from_hours(h)
    } else {
        SimDuration::from_days(args.get::<u64>("days", 1)?)
    };
    let factor = args.get::<f64>("load-factor", 1.0)?;
    if factor <= 0.0 {
        return Err(CliError::Usage("--load-factor must be positive".into()));
    }
    let cfg = SynthConfig {
        span,
        ..SynthConfig::grid5000_week()
    }
    .with_load_factor(factor);
    Ok(generate(&cfg, args.get::<u64>("trace-seed", 7)?))
}

/// Builds the run configuration from the λ/failure/checkpoint flags.
pub fn build_run_config(args: &Args) -> Result<RunConfig, CliError> {
    let lo = args.get::<u32>("lambda-min", 30)?;
    let hi = args.get::<u32>("lambda-max", 90)?;
    if lo >= hi {
        return Err(CliError::Usage(format!(
            "--lambda-min {lo} must be below --lambda-max {hi}"
        )));
    }
    let mut cfg = RunConfig::default().with_lambdas(lo, hi);
    cfg.seed = args.get::<u64>("seed", cfg.seed)?;
    if args.switch("failures") {
        cfg = cfg.with_faults(FaultPlan::crashes());
    }
    if let Some(x) = args.get_opt::<f64>("chaos")? {
        if x < 0.0 {
            return Err(CliError::Usage("--chaos intensity must be ≥ 0".into()));
        }
        cfg = cfg.with_faults(FaultPlan::chaos(x));
    }
    if let Some(mins) = args.get_opt::<u64>("checkpoint-mins")? {
        cfg.checkpoint_period = Some(SimDuration::from_mins(mins));
    }
    if let Some(target) = args.get_opt::<f64>("adaptive")? {
        if !(0.0..=100.0).contains(&target) {
            return Err(CliError::Usage("--adaptive target must be 0–100".into()));
        }
        cfg.adaptive_lambda = Some(AdaptiveLambda {
            target_satisfaction: target,
            ..AdaptiveLambda::default()
        });
    }
    cfg.record_power_series = args.value("power-series").is_some();
    if args.switch("degrade") {
        cfg.park_after = Some(6);
    }
    if obs_requested(args) {
        cfg = cfg.with_obs(Obs::enabled(OBS_CAPACITY));
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgSpec;

    fn parse(s: &str) -> Args {
        ArgSpec::new(COMMON_VALUED, COMMON_SWITCHES)
            .parse(s.split_whitespace().map(String::from))
            .unwrap()
    }

    #[test]
    fn default_setup() {
        let a = parse("");
        assert_eq!(build_hosts(&a).unwrap().len(), 20);
        let t = build_trace(&a).unwrap();
        assert!(t.len() > 10, "a day of load");
        let cfg = build_run_config(&a).unwrap();
        assert_eq!(cfg.lambda_min, 0.30);
        assert!(cfg.faults.is_none());
    }

    #[test]
    fn paper_dc_and_lambdas() {
        let a = parse("--paper-dc --lambda-min 40 --lambda-max 95 --failures");
        assert_eq!(build_hosts(&a).unwrap().len(), 100);
        let cfg = build_run_config(&a).unwrap();
        assert_eq!(cfg.lambda_min, 0.40);
        assert_eq!(cfg.lambda_max, 0.95);
        assert!(cfg.faults.host_crashes);
    }

    #[test]
    fn chaos_flag_builds_a_full_plan() {
        let a = parse("--chaos 1.5");
        let cfg = build_run_config(&a).unwrap();
        assert!(cfg.faults.host_crashes);
        assert!(cfg.faults.creation_failure_prob > 0.0);
        assert!(cfg.faults.rack.is_some());
    }

    #[test]
    fn hours_override_days() {
        let a = parse("--hours 2");
        let t = build_trace(&a).unwrap();
        assert!(t.span() <= SimDuration::from_hours(2));
    }

    #[test]
    fn adaptive_flag() {
        let a = parse("--adaptive 98.5");
        let cfg = build_run_config(&a).unwrap();
        assert_eq!(cfg.adaptive_lambda.unwrap().target_satisfaction, 98.5);
    }

    fn policy(flags: &str, name: &str) -> Result<Box<dyn Policy>, CliError> {
        let args = parse(flags);
        make_policy(name, &args, &build_run_config(&args)?).map(|ctor| ctor())
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(build_run_config(&parse("--lambda-min 90 --lambda-max 30")).is_err());
        assert!(build_hosts(&parse("--hosts 0")).is_err());
        assert!(build_trace(&parse("--load-factor -1")).is_err());
        assert!(policy("", "quantum").is_err());
    }

    #[test]
    fn all_policies_constructible() {
        for p in ["rd", "rr", "bf", "dbf", "sb0", "sb1", "sb2", "sb", "sb-ext"] {
            assert!(policy("", p).is_ok(), "{p}");
            assert!(
                policy("--solver-budget 10000 --shards 4", p).is_ok(),
                "{p} armed"
            );
        }
    }

    fn arming(flags: &str) -> Result<(Option<OverloadControl>, Option<ShardSpec>), CliError> {
        let args = parse(flags);
        solver_arming(&args, &build_run_config(&args)?)
    }

    #[test]
    fn overload_flags() {
        let cfg = build_run_config(&parse("")).unwrap();
        assert_eq!(cfg.park_after, None, "legacy unbounded backoff");
        assert_eq!(arming("").unwrap().0, None);

        let cfg = build_run_config(&parse("--solver-budget 50000 --degrade")).unwrap();
        assert_eq!(cfg.park_after, Some(6), "--degrade parks after 6 retries");
        let (ctl, _) = arming("--solver-budget 50000 --degrade").unwrap();
        assert_eq!(ctl, Some(OverloadControl::with_budget(50_000)));

        assert!(arming("--solver-budget 0").is_err());
        assert!(policy("--solver-budget 0", "sb").is_err());
    }

    #[test]
    fn shards_flag() {
        assert_eq!(arming("").unwrap().1, None);

        let spec = arming("--shards 4").unwrap().1.unwrap();
        assert_eq!((spec.count, spec.rack_size), (4, 8));

        // A single shard is the unsharded round: no spec to arm.
        assert_eq!(arming("--shards 1").unwrap().1, None);

        // With a rack fault plan, shard boundaries follow its rack size.
        let spec = arming("--shards 4 --chaos 1.0").unwrap().1.unwrap();
        assert_eq!(
            (spec.count, spec.rack_size),
            (4, 8),
            "chaos rack plan uses the default size"
        );

        assert!(arming("--shards 0").is_err());
        assert!(policy("--shards 0", "bf").is_err());
    }

    #[test]
    fn obs_flags_enable_the_handle() {
        let cfg = build_run_config(&parse("")).unwrap();
        assert!(!cfg.obs.is_enabled(), "disabled unless requested");
        for flag in OBS_FLAGS {
            let cfg = build_run_config(&parse(&format!("--{flag} /tmp/x"))).unwrap();
            assert!(cfg.obs.is_enabled(), "--{flag} should enable tracing");
        }
    }
}
