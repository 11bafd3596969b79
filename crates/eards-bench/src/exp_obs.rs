//! Observability overhead — the tracing layer must be free when off and
//! cheap when on.
//!
//! Two guarantees back the `eards-obs` design and both are measured here:
//!
//! 1. **Disabled = bit-identical.** A run with the default (disabled)
//!    handle and a run with tracing enabled produce the same
//!    [`RunReport`] and the same audit trail, byte for byte: the hooks
//!    never read a clock or touch an RNG on the simulation's behalf.
//! 2. **Enabled < 5% overhead.** With a preallocated ring capturing every
//!    event, span and histogram sample, wall-clock time stays within 5%
//!    of the untraced run.
//!
//! The baseline `BENCH_obs.json` records both, plus a schema validation
//! of the three export formats, so CI catches a hook that starts
//! perturbing the simulation or a recorder that got slow.

use std::time::{Duration, Instant};

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{small_datacenter, AuditEvent, RunConfig, Runner};
use eards_metrics::{fnum, RunReport, Table};
use eards_model::{HostClass, HostSpec};
use eards_obs::{validate, Obs};
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig, Trace};

use crate::common::{ExperimentResult, TRACE_SEED};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "obs_overhead";

/// Ring capacity used by the enabled runs (matches the CLI default).
pub const RING_CAPACITY: usize = 1 << 16;

/// Overhead budget in percent (the acceptance threshold).
pub const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Timed repetitions per mode; the **median** is reported. The median of
/// three is robust to a single slow outlier (GC of the host OS, a noisy
/// neighbour) where best-of-N still lets one lucky fast rep of either
/// mode skew the ratio — the old best-of-5 gate flaked exactly that way
/// on loaded single-core CI runners.
const REPS: usize = 3;

fn bench_trace(hours: u64) -> Trace {
    generate(
        &SynthConfig {
            span: SimDuration::from_hours(hours),
            ..SynthConfig::grid5000_week()
        },
        TRACE_SEED,
    )
}

/// One SB run with the given handle; audit trail on so identity checks
/// cover the full event log, not just the aggregates.
fn run_once(
    hosts: &[HostSpec],
    trace: &Trace,
    obs: &Obs,
) -> (RunReport, Vec<AuditEvent>, Duration) {
    let cfg = RunConfig {
        audit: true,
        record_power_series: true,
        ..RunConfig::default()
    }
    .with_obs(obs.clone());
    let policy = Box::new(ScoreScheduler::with_obs(ScoreConfig::sb(), obs.clone()));
    #[allow(clippy::disallowed_methods)] // benchmarking wall time is the point
    let start = Instant::now();
    let (report, audit) = Runner::new(hosts.to_vec(), trace.clone(), policy, cfg).run_audited();
    let elapsed = start.elapsed();
    (report, audit, elapsed)
}

/// A complete fingerprint of a run's observable output: every report
/// field (including the power series and per-job outcomes — `f64` Debug
/// formatting round-trips exactly) plus the rendered audit log.
pub fn fingerprint(report: &RunReport, audit: &[AuditEvent]) -> String {
    format!("{report:?}\n{}", eards_datacenter::render_log(audit))
}

/// The measured comparison: timings, identity verdict, ring statistics
/// and export validation.
#[derive(Debug, Clone)]
pub struct ObsComparison {
    /// Median-of-`REPS` wall clock with tracing disabled.
    pub disabled: Duration,
    /// Median-of-`REPS` wall clock with tracing enabled.
    pub enabled: Duration,
    /// `(enabled - disabled) / disabled`, percent (can be negative).
    pub overhead_pct: f64,
    /// Whether the wall-clock gate is meaningful on this machine: on a
    /// single-CPU runner the comparison measures scheduler contention,
    /// not the tracing layer, so the overhead check is reported but not
    /// enforced. Bit-identity is always enforced.
    pub gate_enforced: bool,
    /// Disabled and enabled runs produced identical fingerprints.
    pub bit_identical: bool,
    /// Events captured by the last enabled run's ring.
    pub events_recorded: u64,
    /// Events the ring overwrote (0 means full fidelity).
    pub events_dropped: u64,
    /// Profiling spans captured.
    pub spans_recorded: u64,
    /// `validate_jsonl` verdict on the exported event log.
    pub jsonl: Result<usize, String>,
    /// `validate_chrome` verdict on the exported Chrome trace.
    pub chrome: Result<usize, String>,
    /// `validate_metrics` verdict on the exported metrics snapshot.
    pub metrics: Result<(), String>,
}

/// The median of the collected wall-clock samples.
fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs both modes `REPS` times interleaved (so clock drift and cache
/// warmth hit both equally) and validates the exports.
pub fn compare(n_hosts: u32, hours: u64) -> ObsComparison {
    let hosts = small_datacenter(n_hosts, HostClass::Medium);
    let trace = bench_trace(hours);

    let mut disabled_samples = Vec::with_capacity(REPS);
    let mut enabled_samples = Vec::with_capacity(REPS);
    let mut baseline_print: Option<String> = None;
    let mut bit_identical = true;
    let mut last_obs = Obs::disabled();
    for _ in 0..REPS {
        let (report, audit, dt) = run_once(&hosts, &trace, &Obs::disabled());
        disabled_samples.push(dt);
        let print = fingerprint(&report, &audit);
        match &baseline_print {
            None => baseline_print = Some(print),
            Some(base) => bit_identical &= *base == print,
        }

        let obs = Obs::enabled(RING_CAPACITY);
        let (report, audit, dt) = run_once(&hosts, &trace, &obs);
        enabled_samples.push(dt);
        bit_identical &= baseline_print.as_deref() == Some(fingerprint(&report, &audit).as_str());
        last_obs = obs;
    }
    let disabled = median(&mut disabled_samples);
    let enabled = median(&mut enabled_samples);

    let (len, _, dropped) = last_obs.ring_stats().unwrap_or((0, 0, 0));
    ObsComparison {
        disabled,
        enabled,
        overhead_pct: 100.0 * (enabled.as_secs_f64() - disabled.as_secs_f64())
            / disabled.as_secs_f64(),
        gate_enforced: std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(true),
        bit_identical,
        events_recorded: len as u64,
        events_dropped: dropped,
        spans_recorded: last_obs.spans_recorded(),
        jsonl: validate::validate_jsonl(&last_obs.export_jsonl()),
        chrome: validate::validate_chrome(&last_obs.export_chrome()),
        metrics: validate::validate_metrics(&last_obs.export_metrics()),
    }
}

/// Renders the comparison as the `BENCH_obs.json` baseline.
pub fn to_json(c: &ObsComparison) -> String {
    format!(
        "{{\n  \"disabled_ms\": {:.2},\n  \"enabled_ms\": {:.2},\n  \
         \"overhead_pct\": {:.2},\n  \"overhead_budget_pct\": {:.1},\n  \
         \"overhead_gate_enforced\": {},\n  \
         \"bit_identical\": {},\n  \"events_recorded\": {},\n  \
         \"events_dropped\": {},\n  \"spans_recorded\": {},\n  \
         \"jsonl_events_valid\": {},\n  \"chrome_entries_valid\": {},\n  \
         \"metrics_valid\": {}\n}}\n",
        c.disabled.as_secs_f64() * 1e3,
        c.enabled.as_secs_f64() * 1e3,
        c.overhead_pct,
        OVERHEAD_BUDGET_PCT,
        c.gate_enforced,
        c.bit_identical,
        c.events_recorded,
        c.events_dropped,
        c.spans_recorded,
        c.jsonl
            .as_ref()
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "-1".into()),
        c.chrome
            .as_ref()
            .map(|n| n.to_string())
            .unwrap_or_else(|_| "-1".into()),
        c.metrics.is_ok(),
    )
}

/// Runs the observability-overhead experiment (20 medium nodes, one-day
/// trace, SB policy — the Table II workload shape).
pub fn run() -> ExperimentResult {
    let c = compare(20, 24);
    let mut result = ExperimentResult::new(
        ID,
        "Observability layer — overhead and bit-identity",
        "not a paper result: an engineering gate for the eards-obs tracing \
         layer (event ring, metrics registry, profiling spans) wired \
         through the runner and the score-based solver.",
    );

    let mut t = Table::new(["mode", "wall (ms)", "events", "spans", "dropped"]);
    t.row([
        "disabled".into(),
        fnum(c.disabled.as_secs_f64() * 1e3, 1),
        "0".into(),
        "0".into(),
        "0".into(),
    ]);
    t.row([
        "enabled".into(),
        fnum(c.enabled.as_secs_f64() * 1e3, 1),
        c.events_recorded.to_string(),
        c.spans_recorded.to_string(),
        c.events_dropped.to_string(),
    ]);
    result.tables.push((
        format!("median of {REPS} interleaved runs (20 medium nodes, 1-day trace, SB)"),
        t,
    ));

    result.notes.push(format!(
        "Shape check: tracing disabled is bit-identical to tracing enabled \
         (full RunReport + audit trail fingerprint) — {}.",
        if c.bit_identical { "holds" } else { "VIOLATED" }
    ));
    result.notes.push(format!(
        "Shape check: enabled overhead {:.2}% stays under the \
         {OVERHEAD_BUDGET_PCT:.0}% budget — {}.",
        c.overhead_pct,
        if !c.gate_enforced {
            // One CPU core: disabled and enabled runs fight the same
            // core, so the ratio measures OS scheduling, not tracing
            // cost. Report but do not fail (bit-identity above is the
            // correctness property and is always enforced).
            "skipped (single CPU core; wall-clock ratio not meaningful)"
        } else if c.overhead_pct < OVERHEAD_BUDGET_PCT {
            "holds"
        } else {
            "VIOLATED"
        }
    ));
    result.notes.push(format!(
        "Shape check: the run actually produced a trace ({} events, {} \
         spans) and all three exports pass schema validation — {}.",
        c.events_recorded,
        c.spans_recorded,
        if c.events_recorded > 0
            && c.spans_recorded > 0
            && c.jsonl.is_ok()
            && c.chrome.is_ok()
            && c.metrics.is_ok()
        {
            "holds"
        } else {
            "VIOLATED"
        }
    ));

    result.baseline = Some(("BENCH_obs.json", to_json(&c)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity is the correctness property; keep the test small and
    /// timing-free so it cannot flake on a loaded machine.
    #[test]
    fn enabled_run_is_bit_identical_to_disabled() {
        let hosts = small_datacenter(6, HostClass::Medium);
        let trace = bench_trace(3);
        let (r0, a0, _) = run_once(&hosts, &trace, &Obs::disabled());
        let obs = Obs::enabled(4096);
        let (r1, a1, _) = run_once(&hosts, &trace, &obs);
        assert_eq!(fingerprint(&r0, &a0), fingerprint(&r1, &a1));
        assert!(obs.events_recorded() > 0, "the trace captured the run");
    }

    #[test]
    fn exports_of_a_real_run_validate() {
        let hosts = small_datacenter(6, HostClass::Medium);
        let trace = bench_trace(2);
        let obs = Obs::enabled(4096);
        run_once(&hosts, &trace, &obs);
        assert!(validate::validate_jsonl(&obs.export_jsonl()).unwrap() > 0);
        assert!(validate::validate_chrome(&obs.export_chrome()).unwrap() > 0);
        validate::validate_metrics(&obs.export_metrics()).unwrap();
    }

    #[test]
    fn json_artifact_shape() {
        let c = ObsComparison {
            disabled: Duration::from_millis(100),
            enabled: Duration::from_millis(102),
            overhead_pct: 2.0,
            gate_enforced: true,
            bit_identical: true,
            events_recorded: 10,
            events_dropped: 0,
            spans_recorded: 4,
            jsonl: Ok(10),
            chrome: Ok(14),
            metrics: Ok(()),
        };
        let json = to_json(&c);
        assert!(json.contains("\"overhead_pct\": 2.00"));
        assert!(json.contains("\"overhead_gate_enforced\": true"));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"jsonl_events_valid\": 10"));
        // And it round-trips the crate's own JSON parser.
        validate::parse(&json).unwrap();
    }

    #[test]
    fn median_is_the_middle_sample() {
        let mut s = [
            Duration::from_millis(90),
            Duration::from_millis(400), // one slow outlier must not win
            Duration::from_millis(100),
        ];
        assert_eq!(median(&mut s), Duration::from_millis(100));
    }
}
