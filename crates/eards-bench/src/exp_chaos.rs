//! Chaos engine — energy, SLA and recovery under escalating fault rates.
//!
//! Not a paper table: the paper's evaluation assumes a failure-free
//! datacenter and defers fault tolerance to future work (§VI). This
//! experiment turns the full [`FaultPlan::chaos`] machinery on — host
//! crashes, boot failures, VM-creation failures, migration aborts,
//! transient slowdowns and correlated rack outages — at escalating
//! intensities and compares how the score-based scheduler (with `P_fault`
//! enabled) degrades against the backfilling baselines.
//!
//! Every run keeps the invariant auditor on; the experiment fails its
//! shape checks if any run ends with a violation, so a bookkeeping bug in
//! a fault path cannot hide behind plausible-looking aggregate numbers.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{run_sweep, small_datacenter, AuditorMode, RunConfig, SweepPoint};
use eards_metrics::{fnum, RunReport, Table};
use eards_model::{FaultPlan, HostClass, Policy};
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig, Trace};

use crate::common::{make_policy, ExperimentResult, TRACE_SEED};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "chaos";

/// Fault intensities swept (multipliers on [`FaultPlan::chaos`]'s nominal
/// rates; 0 = fault-free control).
pub const INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// The policies compared, by `make_policy` row name.
const POLICIES: [&str; 3] = ["BF", "DBF", "SB"];

/// Satisfaction slack (percentage points) the degradation comparison
/// tolerates: SB's *drop* under faults may exceed the best baseline's
/// drop by at most this much at every intensity.
const DEGRADATION_TOLERANCE: f64 = 2.0;

fn chaos_policy(name: &str) -> Box<dyn Policy> {
    if name == "SB" {
        // The score-based scheduler gets its reliability term: blacklist
        // penalties feed `P_fault`, so placement avoids flapping hosts.
        let mut cfg = ScoreConfig::sb().named("SB");
        cfg.fault_penalty = true;
        Box::new(ScoreScheduler::new(cfg))
    } else {
        make_policy(name)
    }
}

fn two_day_trace() -> Trace {
    generate(
        &SynthConfig {
            span: SimDuration::from_days(2),
            ..SynthConfig::grid5000_week()
        },
        TRACE_SEED,
    )
}

/// The point that runs policy `name` under `config`.
fn chaos_point(name: &'static str, label: String, config: RunConfig) -> SweepPoint {
    SweepPoint {
        label,
        config,
        policy: Box::new(move || chaos_policy(name)),
    }
}

/// Runs the chaos comparison: 3 policies × 4 intensities over a 2-day
/// trace on 40 medium nodes, in one parallel sweep. One row of reports
/// per policy, in intensity order.
pub fn reports() -> Vec<Vec<RunReport>> {
    let points = POLICIES
        .iter()
        .flat_map(|&name| {
            INTENSITIES.iter().map(move |&x| {
                let config = RunConfig::default()
                    .with_faults(FaultPlan::chaos(x))
                    .with_auditor(AuditorMode::On);
                chaos_point(name, format!("{name} x{x:.1}"), config)
            })
        })
        .collect();
    let hosts = small_datacenter(40, HostClass::Medium);
    let mut runs = run_sweep(&hosts, &two_day_trace(), points, None).into_iter();
    POLICIES
        .iter()
        .map(|_| runs.by_ref().take(INTENSITIES.len()).collect())
        .collect()
}

/// Renders the per-run fault/recovery numbers as a JSON object keyed by
/// run label — the `BENCH_chaos.json` regression baseline.
pub fn to_json(all: &[Vec<RunReport>]) -> String {
    let mut out = String::from("{\n");
    let mut first = true;
    for runs in all {
        for r in runs {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let f = &r.faults;
            out.push_str(&format!(
                "  \"{}\": {{\"energy_kwh\": {:.3}, \"satisfaction_pct\": {:.2}, \
                 \"delay_pct\": {:.2}, \"host_failures\": {}, \"vms_displaced\": {}, \
                 \"creation_failures\": {}, \"migration_aborts\": {}, \
                 \"boot_failures\": {}, \"rack_outages\": {}, \"recoveries\": {}, \
                 \"mean_recovery_secs\": {:.1}, \"invariant_checks\": {}, \
                 \"invariant_violations\": {}}}",
                r.label,
                r.energy_kwh,
                r.satisfaction_pct,
                r.delay_pct,
                r.host_failures,
                r.vms_displaced,
                f.creation_failures,
                f.migration_aborts,
                f.boot_failures,
                f.rack_outages,
                f.recoveries,
                f.mean_recovery_secs,
                f.invariant_checks,
                f.invariant_violations,
            ));
        }
    }
    out.push_str("\n}\n");
    out
}

/// Runs the chaos experiment.
pub fn run() -> ExperimentResult {
    let all = reports();
    let mut result = ExperimentResult::new(
        ID,
        "Chaos engine — degradation under escalating fault rates",
        "not evaluated in the paper (failure-free evaluation; §VI defers \
         fault tolerance to future work). The fault model follows the \
         §III-A.6 reliability framing: every class is seeded per host, so \
         policies face identical fault schedules.",
    );

    let mut t = Table::new([
        "Run",
        "Pwr (kWh)",
        "S (%)",
        "delay (%)",
        "Crashes",
        "Displaced",
        "Create fail",
        "Migr abort",
        "Recov (s)",
        "Audit viol",
    ]);
    for runs in &all {
        for r in runs {
            let f = &r.faults;
            t.row([
                r.label.clone(),
                fnum(r.energy_kwh, 1),
                fnum(r.satisfaction_pct, 1),
                fnum(r.delay_pct, 1),
                r.host_failures.to_string(),
                r.vms_displaced.to_string(),
                f.creation_failures.to_string(),
                f.migration_aborts.to_string(),
                fnum(f.mean_recovery_secs, 0),
                f.invariant_violations.to_string(),
            ]);
        }
    }
    result.tables.push((
        "3 policies × 4 chaos intensities (40 medium nodes, 2-day trace)".into(),
        t,
    ));

    // Shape check 1: the auditor stayed clean everywhere.
    let violations: u64 = all
        .iter()
        .flatten()
        .map(|r| r.faults.invariant_violations)
        .sum();
    let checks: u64 = all
        .iter()
        .flatten()
        .map(|r| r.faults.invariant_checks)
        .sum();
    result.notes.push(format!(
        "Shape check: zero invariant violations across all {} runs \
         ({checks} audit passes) — {}.",
        all.iter().flatten().count(),
        if violations == 0 { "holds" } else { "VIOLATED" }
    ));

    // Shape check 2: at intensity 0 the fault layer is inert.
    let quiet = all.iter().all(|runs| {
        let r = &runs[0];
        let f = &r.faults;
        r.host_failures == 0
            && f.boot_failures == 0
            && f.creation_failures == 0
            && f.migration_aborts == 0
            && f.slowdown_episodes == 0
            && f.rack_outages == 0
            && f.retries_delayed == 0
    });
    result.notes.push(format!(
        "Shape check: intensity 0 records no fault events at all (the \
         layer is zero-cost when disabled) — {}.",
        if quiet { "holds" } else { "VIOLATED" }
    ));

    // Shape check 3: SB's satisfaction drop under faults stays within
    // tolerance of the best baseline's drop at every intensity.
    let drop_of = |runs: &[RunReport], i: usize| -> f64 {
        runs[0].satisfaction_pct - runs[i].satisfaction_pct
    };
    let (bf, dbf, sb) = (&all[0], &all[1], &all[2]);
    let mut graceful = true;
    for i in 1..INTENSITIES.len() {
        let best_baseline = drop_of(bf, i).min(drop_of(dbf, i));
        if drop_of(sb, i) > best_baseline + DEGRADATION_TOLERANCE {
            graceful = false;
        }
    }
    result.notes.push(format!(
        "Shape check: SB degrades no worse than BF/DBF at every intensity \
         (satisfaction drop within {DEGRADATION_TOLERANCE:.0} points of the \
         best baseline) — {}.",
        if graceful { "holds" } else { "VIOLATED" }
    ));

    // Shape check 4: chaos actually happened at the top intensity.
    let stressed = all
        .iter()
        .all(|runs| runs.last().is_some_and(|r| r.host_failures > 0));
    result.notes.push(format!(
        "Shape check: the top intensity crashes hosts under every policy \
         — {}.",
        if stressed { "holds" } else { "VIOLATED" }
    ));

    result.baseline = Some(("BENCH_chaos.json", to_json(&all)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short chaos run (SB then BF) under the strict auditor, which
    /// panics on the first invariant violation.
    fn smoke() -> Vec<RunReport> {
        let hosts = small_datacenter(16, HostClass::Medium);
        let trace = generate(
            &SynthConfig {
                span: SimDuration::from_hours(6),
                ..SynthConfig::grid5000_week()
            },
            TRACE_SEED,
        );
        let points = ["SB", "BF"]
            .into_iter()
            .map(|name| {
                let config = RunConfig::default()
                    .with_faults(FaultPlan::chaos(1.5))
                    .with_auditor(AuditorMode::Strict);
                chaos_point(name, format!("{name} smoke"), config)
            })
            .collect();
        run_sweep(&hosts, &trace, points, None)
    }

    #[test]
    fn smoke_runs_clean_under_strict_auditing() {
        // Strict mode panics on the first violation, so surviving the run
        // *is* the assertion; spot-check that chaos actually fired.
        let reports = smoke();
        let total_faults: u64 = reports
            .iter()
            .map(|r| {
                r.host_failures
                    + r.faults.creation_failures
                    + r.faults.boot_failures
                    + r.faults.rack_outages
            })
            .sum();
        assert!(total_faults > 0, "chaos at x1.5 must inject something");
        for r in &reports {
            assert!(r.faults.invariant_checks > 0, "auditor never ran");
            assert_eq!(r.faults.invariant_violations, 0);
            assert!(
                r.jobs_completed as f64 >= 0.9 * r.jobs_total as f64,
                "{}: {}/{} jobs survived",
                r.label,
                r.jobs_completed,
                r.jobs_total
            );
        }
    }

    #[test]
    fn json_artifact_is_parseable_shape() {
        let hosts = small_datacenter(4, HostClass::Medium);
        let trace = generate(
            &SynthConfig {
                span: SimDuration::from_hours(1),
                ..SynthConfig::grid5000_week()
            },
            TRACE_SEED,
        );
        let point = chaos_point("BF", "BF x0.0".into(), RunConfig::default());
        let runs = run_sweep(&hosts, &trace, vec![point], None);
        let json = to_json(&[runs]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"BF x0.0\""));
        assert!(json.contains("\"invariant_violations\": 0"));
    }
}
