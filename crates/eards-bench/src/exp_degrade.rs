//! Degradation ladder — bounded per-round work and per-rung quality loss.
//!
//! Not a paper table: the paper's scheduler always runs its placement
//! optimisation to quiescence. This experiment characterises the overload
//! -control layer added on top of it, in two parts:
//!
//! 1. **Boundedness.** At the 400-host / 320-VM solver scale, a finite
//!    work budget must cap every round's deterministic work spend at
//!    `budget + slack`, where the slack is one hill-climb sweep's worth
//!    (the solver checks the meter between sweeps, never mid-sweep).
//! 2. **Quality loss per rung.** Under `chaos(2.0)` with the Strict
//!    auditor (deep `Cluster::verify` every batch; a violation panics),
//!    each ladder rung is forced in turn and the energy / SLA cost of
//!    degrading is tabulated — the price list an operator consults when
//!    choosing a budget.
//!
//! The experiment also re-proves the hard identity gate at bench scale:
//! an armed-but-unlimited budget is bit-identical to an unarmed run.

use eards_core::{DegradeLevel, OverloadControl, ScoreConfig, ScoreScheduler};
use eards_datacenter::{small_datacenter, AuditorMode, RunConfig, Runner};
use eards_metrics::{fnum, RunReport, Table};
use eards_model::{DegradeStats, FaultPlan, HostClass, Policy, ScheduleContext, ScheduleReason};
use eards_sim::{SimDuration, SimTime};
use eards_workload::{generate, SynthConfig, Trace};

use crate::common::{solver_case, ExperimentResult, TRACE_SEED};

/// The experiment's id: its `run_all` argument and results file stem.
pub const ID: &str = "degrade";

/// Work budgets swept by the boundedness check (units per round).
pub const BUDGETS: [u64; 3] = [20_000, 100_000, 500_000];

/// Boundedness scenario scale: 400 hosts, 320 VMs (160 placed + 160
/// queued), the shape named by the issue.
const BOUND_HOSTS: u32 = 400;
const BOUND_PLACED: u64 = 160;
const BOUND_QUEUED: u64 = 160;

/// Rounds driven per budget — enough for the ladder EWMA to settle on a
/// sustainable rung.
const BOUND_ROUNDS: u64 = 6;

/// Fault intensity of the quality-loss runs.
const CHAOS: f64 = 2.0;

/// Fleet size of the quality-loss runs.
const QUALITY_HOSTS: u32 = 32;

/// The adaptive-ladder row's per-round budget (work units). It must sit
/// below the rounds' full-quality work or the row merely repeats
/// `forced l0_full`. At about 23% of the ∞-budget run's max round work
/// (17 664) it binds on busy rounds, so the ladder steps down.
const LADDER_BUDGET: u64 = 4_000;

/// One sweep's worth of budget overshoot: the solver checks the meter
/// before every sweep, so a round can overshoot by at most one sweep. The
/// first sweep costs the engine fill (`m·n` cell scores), plus the
/// candidate-list build (another `m·n`), plus an argmin (`n`); a later
/// sweep costs at most `m·n + 5n` (an argmin `n`, column rescans of at
/// most `m·n`, two dirty rows `2n` and their list upkeep `2n`). The
/// formula covers both.
pub fn slack(hosts: u64, vms: u64) -> u64 {
    2 * hosts * vms + 2 * vms + hosts
}

/// Part 1 — drives `BOUND_ROUNDS` scheduling rounds per budget against
/// the 400h/320v matrix and returns each budget's ladder stats.
pub fn boundedness() -> Vec<(u64, DegradeStats)> {
    BUDGETS
        .iter()
        .map(|&budget| {
            let (cluster, _) = solver_case(BOUND_HOSTS, BOUND_PLACED, BOUND_QUEUED);
            let mut sched = ScoreScheduler::new(ScoreConfig::full())
                .with_overload(OverloadControl::with_budget(budget));
            for round in 0..BOUND_ROUNDS {
                let ctx = ScheduleContext {
                    now: SimTime::from_secs(300 * (round + 1)),
                    reason: ScheduleReason::Periodic,
                };
                let _ = sched.schedule(&cluster, &ctx);
            }
            let stats = sched.degrade_stats().expect("armed scheduler has stats");
            (budget, stats)
        })
        .collect()
}

/// One quality-loss run's outcome.
pub struct QualityRow {
    /// Row label (rung or mode).
    pub label: String,
    /// The full run report.
    pub report: RunReport,
    /// Ladder stats (None for the unarmed baseline).
    pub stats: Option<DegradeStats>,
    /// VMs parked by runner backpressure.
    pub vms_parked: u64,
}

fn day_trace() -> Trace {
    generate(
        &SynthConfig {
            span: SimDuration::from_days(1),
            ..SynthConfig::grid5000_week()
        },
        TRACE_SEED,
    )
}

fn quality_config(degrade: bool) -> RunConfig {
    let mut cfg = RunConfig {
        audit: true,
        seed: 11,
        ..RunConfig::default()
    }
    .with_faults(FaultPlan::chaos(CHAOS))
    .with_auditor(AuditorMode::Strict);
    cfg.park_after = degrade.then_some(4);
    cfg
}

fn quality_run(label: &str, ctl: Option<OverloadControl>, degrade: bool) -> QualityRow {
    let hosts = small_datacenter(QUALITY_HOSTS, HostClass::Medium);
    let trace = day_trace();
    let mut sched = ScoreScheduler::new(ScoreConfig::full());
    if let Some(c) = ctl {
        sched = sched.with_overload(c);
    }
    let mut runner = Runner::new(hosts, trace, Box::new(sched), quality_config(degrade));
    while runner.step_batch() {}
    let stats = runner.policy().degrade_stats();
    let vms_parked = runner.vms_parked();
    let (report, _audit) = runner.finish();
    QualityRow {
        label: label.into(),
        report,
        stats,
        vms_parked,
    }
}

/// Part 2 — the per-rung quality-loss runs: unarmed baseline, the
/// identity twin (∞ budget), each forced rung, and the adaptive ladder
/// on a finite budget. Every run is Strict-audited under `chaos(2.0)`.
pub fn quality() -> Vec<QualityRow> {
    let mut rows = vec![
        quality_run("baseline (unarmed)", None, false),
        quality_run(
            "L0 \u{221e} budget",
            Some(OverloadControl::with_budget(u64::MAX)),
            false,
        ),
    ];
    for rung in DegradeLevel::ALL {
        rows.push(quality_run(
            &format!("forced {}", rung.label()),
            Some(OverloadControl::forced(u64::MAX, rung)),
            true,
        ));
    }
    rows.push(quality_run(
        &format!("ladder @{LADDER_BUDGET}"),
        Some(OverloadControl::with_budget(LADDER_BUDGET)),
        true,
    ));
    rows
}

/// Renders both parts as the `BENCH_degrade.json` regression baseline.
pub fn to_json(bound: &[(u64, DegradeStats)], rows: &[QualityRow]) -> String {
    let mut out = String::from("{\n  \"boundedness\": {\n");
    out.push_str(&format!(
        "    \"hosts\": {BOUND_HOSTS}, \"vms\": {}, \"rounds_per_budget\": {BOUND_ROUNDS}, \
         \"slack\": {},\n    \"runs\": {{\n",
        BOUND_PLACED + BOUND_QUEUED,
        slack(BOUND_HOSTS as u64, BOUND_PLACED + BOUND_QUEUED),
    ));
    let slack_b = slack(BOUND_HOSTS as u64, BOUND_PLACED + BOUND_QUEUED);
    for (i, (budget, s)) in bound.iter().enumerate() {
        out.push_str(&format!(
            "      \"{budget}\": {{\"max_round_work\": {}, \"total_work\": {}, \
             \"exhausted_rounds\": {}, \"rounds_at\": [{}, {}, {}, {}], \"holds\": {}}}{}\n",
            s.max_round_work,
            s.total_work,
            s.exhausted_rounds,
            s.rounds_at[0],
            s.rounds_at[1],
            s.rounds_at[2],
            s.rounds_at[3],
            s.max_round_work <= budget + slack_b,
            if i + 1 < bound.len() { "," } else { "" },
        ));
    }
    out.push_str("    }\n  },\n  \"quality\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        let (degraded, exhausted, max_work) = row
            .stats
            .map(|s| (s.degraded_rounds, s.exhausted_rounds, s.max_round_work))
            .unwrap_or((0, 0, 0));
        out.push_str(&format!(
            "    \"{}\": {{\"energy_kwh\": {:.3}, \"satisfaction_pct\": {:.2}, \
             \"delay_pct\": {:.2}, \"degraded_rounds\": {degraded}, \
             \"exhausted_rounds\": {exhausted}, \"max_round_work\": {max_work}, \
             \"vms_parked\": {}, \"invariant_violations\": {}}}{}\n",
            row.label,
            r.energy_kwh,
            r.satisfaction_pct,
            r.delay_pct,
            row.vms_parked,
            r.faults.invariant_violations,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Runs the degradation-ladder experiment.
pub fn run() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        ID,
        "Degradation ladder — bounded work and per-rung quality loss",
        "not evaluated in the paper (its scheduler always optimises to \
         quiescence). The overload-control framing follows the SLA \
         argument of Nanduri et al. (PAPERS.md): a late placement is a \
         broken placement, so per-round decision cost must be bounded.",
    );

    // Part 1 — boundedness at 400h/320v.
    let bound = boundedness();
    let slack_b = slack(BOUND_HOSTS as u64, BOUND_PLACED + BOUND_QUEUED);
    let mut t = Table::new([
        "Budget",
        "Max round work",
        "Bound (budget+slack)",
        "Exhausted rounds",
        "L0/L1/L2/L3",
    ]);
    for (budget, s) in &bound {
        t.row([
            budget.to_string(),
            s.max_round_work.to_string(),
            (budget + slack_b).to_string(),
            s.exhausted_rounds.to_string(),
            format!(
                "{}/{}/{}/{}",
                s.rounds_at[0], s.rounds_at[1], s.rounds_at[2], s.rounds_at[3]
            ),
        ]);
    }
    t.row([
        "\u{221e}".into(),
        "(not armed)".into(),
        "\u{2014}".into(),
        "0".into(),
        format!("{BOUND_ROUNDS}/0/0/0"),
    ]);
    result.tables.push((
        format!(
            "Per-round work bound, {BOUND_HOSTS} hosts \u{00d7} {} VMs, \
             {BOUND_ROUNDS} rounds per budget (slack = one sweep = {slack_b})",
            BOUND_PLACED + BOUND_QUEUED
        ),
        t,
    ));
    let bounded = bound
        .iter()
        .all(|(budget, s)| s.max_round_work <= budget + slack_b);
    result.notes.push(format!(
        "Shape check: per-round work never exceeds budget + one sweep's \
         slack at any budget — {}.",
        if bounded { "holds" } else { "VIOLATED" }
    ));
    let pressured = bound
        .iter()
        .any(|(_, s)| s.exhausted_rounds > 0 || s.degraded_rounds > 0);
    result.notes.push(format!(
        "Shape check: the 400h/320v matrix actually pressures the smallest \
         budget (some round exhausted or degraded) — {}.",
        if pressured { "holds" } else { "VIOLATED" }
    ));

    // Part 2 — quality loss per rung under chaos(2.0), Strict-audited.
    let rows = quality();
    let mut t = Table::new([
        "Run",
        "Pwr (kWh)",
        "S (%)",
        "delay (%)",
        "Degraded",
        "Exhausted",
        "Max work",
        "Parked",
        "Audit viol",
    ]);
    for row in &rows {
        let r = &row.report;
        let (degraded, exhausted, max_work) = row
            .stats
            .map(|s| (s.degraded_rounds, s.exhausted_rounds, s.max_round_work))
            .unwrap_or((0, 0, 0));
        t.row([
            row.label.clone(),
            fnum(r.energy_kwh, 1),
            fnum(r.satisfaction_pct, 1),
            fnum(r.delay_pct, 1),
            degraded.to_string(),
            exhausted.to_string(),
            max_work.to_string(),
            row.vms_parked.to_string(),
            r.faults.invariant_violations.to_string(),
        ]);
    }
    result.tables.push((
        format!(
            "Quality loss per ladder rung ({QUALITY_HOSTS} medium nodes, \
             1-day trace, chaos({CHAOS:.1}), Strict auditor)"
        ),
        t,
    ));

    // Shape check: the hard identity gate, at bench scale — an armed but
    // unlimited budget changes nothing, bit for bit.
    let identical = format!("{:?}", rows[0].report) == format!("{:?}", rows[1].report);
    result.notes.push(format!(
        "Shape check: hard identity gate — \u{221e}-budget run bit-identical \
         (full RunReport) to the unarmed baseline — {}.",
        if identical { "holds" } else { "VIOLATED" }
    ));

    // Shape check: Strict auditing stayed clean on every rung (a
    // violation would have panicked long before this line; the counter
    // double-checks the report plumbing).
    let violations: u64 = rows
        .iter()
        .map(|r| r.report.faults.invariant_violations)
        .sum();
    result.notes.push(format!(
        "Shape check: zero invariant violations across all {} Strict-audited \
         runs (every ladder rung under chaos({CHAOS:.1})) — {}.",
        rows.len(),
        if violations == 0 { "holds" } else { "VIOLATED" }
    ));

    // Shape check: forced L3 defers every round — the solver never runs.
    let l3 = rows
        .iter()
        .find(|r| r.label == "forced l3_defer")
        .and_then(|r| r.stats);
    let deferred = l3.is_some_and(|s| s.max_round_work == 0 && s.rounds_at[3] == s.rounds);
    result.notes.push(format!(
        "Shape check: forced L3 defers every round (zero solver work) — {}.",
        if deferred { "holds" } else { "VIOLATED" }
    ));

    result.baseline = Some(("BENCH_degrade.json", to_json(&bound, &rows)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundedness_holds_at_scale() {
        // One budget (the smallest — the one under real pressure), to
        // keep the unit suite fast; `run()` sweeps all three.
        let (cluster, _) = solver_case(BOUND_HOSTS, BOUND_PLACED, BOUND_QUEUED);
        let budget = BUDGETS[0];
        let mut sched = ScoreScheduler::new(ScoreConfig::full())
            .with_overload(OverloadControl::with_budget(budget));
        for round in 0..BOUND_ROUNDS {
            let ctx = ScheduleContext {
                now: SimTime::from_secs(300 * (round + 1)),
                reason: ScheduleReason::Periodic,
            };
            let _ = sched.schedule(&cluster, &ctx);
        }
        let s = sched.degrade_stats().unwrap();
        let bound = budget + slack(BOUND_HOSTS as u64, BOUND_PLACED + BOUND_QUEUED);
        assert!(s.rounds == BOUND_ROUNDS);
        assert!(
            s.max_round_work <= bound,
            "round work {} exceeds bound {bound}",
            s.max_round_work
        );
        assert!(
            s.exhausted_rounds > 0 || s.degraded_rounds > 0,
            "a 20k budget must pressure a 400h/320v matrix"
        );
    }

    /// A short degradation run: a tiny budget, heavy chaos and the
    /// strict auditor, which panics on the first invariant violation.
    /// The ladder must keep every round's work within its bound.
    #[test]
    fn smoke_runs_clean_and_bounded_under_strict_auditing() {
        const BUDGET: u64 = 2_000;
        let hosts = small_datacenter(8, HostClass::Medium);
        let trace = generate(
            &SynthConfig {
                span: SimDuration::from_hours(6),
                ..SynthConfig::grid5000_week()
            },
            TRACE_SEED,
        );
        let policy = ScoreScheduler::new(ScoreConfig::full())
            .with_overload(OverloadControl::with_budget(BUDGET));
        let mut cfg = quality_config(true);
        cfg.park_after = Some(2);
        let mut runner = Runner::new(hosts, trace, Box::new(policy), cfg);
        while runner.step_batch() {}
        let stats = runner
            .policy()
            .degrade_stats()
            .expect("armed policy reports stats");
        let (report, _audit) = runner.finish();
        // The queue never exceeds the trace's job count; bound the sweep
        // slack generously by the fleet and a 256-VM round.
        let bound = BUDGET + slack(8, 256);
        assert!(
            stats.max_round_work <= bound,
            "round work {} exceeds bound {bound}",
            stats.max_round_work
        );
        assert!(stats.rounds > 0, "the ladder never ran");
        assert!(report.faults.invariant_checks > 0, "auditor never ran");
        assert_eq!(report.faults.invariant_violations, 0);
    }

    #[test]
    fn json_artifact_shape() {
        let bound = vec![(1_000u64, DegradeStats::default())];
        let rows = Vec::new();
        let json = to_json(&bound, &rows);
        assert!(json.contains("\"boundedness\""));
        assert!(json.contains("\"slack\""));
        assert!(json.contains("\"1000\""));
        assert!(json.contains("\"holds\": true"));
        assert!(json.contains("\"quality\""));
    }
}
