//! The in-process sweep executor.
//!
//! The paper's evaluation (Tables II–V, Figures 2 and 3) is a set of
//! independent week-long runs that differ in policy, λ thresholds or
//! consolidation costs. Each [`SweepPoint`] carries everything one run
//! needs besides the shared datacenter and trace, its policy included, so
//! one [`run_sweep`] call runs any mix of them: one queue of points
//! drained by scoped `std` threads.

use std::sync::{Mutex, PoisonError};

use eards_metrics::RunReport;
use eards_model::{HostSpec, Policy};
use eards_workload::Trace;

use crate::config::RunConfig;
use crate::runner::Runner;

/// One point of a sweep: a labelled run configuration and the policy it
/// runs.
pub struct SweepPoint {
    /// Label attached to the resulting report.
    pub label: String,
    /// The run configuration of this point.
    pub config: RunConfig,
    /// Builds the point's policy. It is called inside the worker thread
    /// that runs the point, so a [`Policy`] need not be `Send`.
    pub policy: Box<dyn Fn() -> Box<dyn Policy> + Send + Sync>,
}

/// Runs every sweep point over the same datacenter and trace on at most
/// `max_workers` threads (`None`: one per available core). Results come
/// back in the input order. A cap of 1 runs the points one after another
/// and gives the same reports as any other cap.
pub fn run_sweep(
    hosts: &[HostSpec],
    trace: &Trace,
    points: Vec<SweepPoint>,
    max_workers: Option<usize>,
) -> Vec<RunReport> {
    let n = points.len();
    let work = Mutex::new(points.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new(Vec::with_capacity(n));

    let cores = std::thread::available_parallelism().map_or(4, |p| p.get());
    let workers = max_workers.unwrap_or(cores).min(n).max(1);

    // A worker panic propagates out of `scope`; a poisoned lock can only
    // follow one, so taking the guard regardless is sound.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let item = work.lock().unwrap_or_else(PoisonError::into_inner).pop();
                let Some((idx, point)) = item else { break };
                let policy = (point.policy)();
                let runner = Runner::new(hosts.to_vec(), trace.clone(), policy, point.config)
                    .labeled(point.label);
                let report = runner.run();
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((idx, report));
            });
        }
    });

    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_unstable_by_key(|&(idx, _)| idx);
    results.into_iter().map(|(_, report)| report).collect()
}

/// Builds the λ grid of Figures 2–3 under `policy`: `lambda_min` from
/// `min_values`, `lambda_max` from `max_values` (percent values), keeping
/// only valid pairs (λ_min < λ_max), each labelled `λ{min}-{max}`.
pub fn lambda_grid<F>(
    base: &RunConfig,
    policy: F,
    min_values: &[u32],
    max_values: &[u32],
) -> Vec<SweepPoint>
where
    F: Fn() -> Box<dyn Policy> + Clone + Send + Sync + 'static,
{
    let mut points = Vec::new();
    for &lo in min_values {
        for &hi in max_values {
            if lo >= hi {
                continue;
            }
            points.push(SweepPoint {
                label: format!("λ{lo}-{hi}"),
                config: base.clone().with_lambdas(lo, hi),
                policy: Box::new(policy.clone()),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_datacenter;
    use eards_core::{ScoreConfig, ScoreScheduler};
    use eards_model::{FaultPlan, HostClass};
    use eards_policies::BackfillingPolicy;
    use eards_sim::SimDuration;
    use eards_workload::{generate, SynthConfig};

    fn sb() -> Box<dyn Policy> {
        Box::new(ScoreScheduler::new(ScoreConfig::sb()))
    }

    #[test]
    fn lambda_grid_filters_invalid_pairs() {
        let base = RunConfig::default();
        let grid = lambda_grid(&base, sb, &[30, 90], &[50, 90]);
        // (30,50), (30,90), (90,—): 90 ≥ 50 and 90 ≥ 90 are dropped.
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].label, "λ30-50");
        assert_eq!(grid[1].label, "λ30-90");
        assert_eq!(
            (grid[1].config.lambda_min, grid[1].config.lambda_max),
            (0.30, 0.90)
        );
    }

    /// Mixed policies and configurations come back in input order, and
    /// equal to direct runs, whether one worker drains the points or
    /// every core does.
    #[test]
    fn sweep_returns_reports_in_order() {
        let hosts = small_datacenter(4, HostClass::Fast);
        let cfg = SynthConfig {
            span: SimDuration::from_hours(2),
            events_per_hour: 6.0,
            ..SynthConfig::grid5000_week()
        };
        let trace = generate(&cfg, 3);
        let points = || {
            vec![
                SweepPoint {
                    label: "a".into(),
                    config: RunConfig::default(),
                    policy: Box::new(|| Box::new(BackfillingPolicy::new())),
                },
                SweepPoint {
                    label: "b".into(),
                    config: RunConfig::default().with_lambdas(40, 95),
                    policy: Box::new(sb),
                },
                SweepPoint {
                    label: "c".into(),
                    config: RunConfig::default().with_faults(FaultPlan::chaos(1.0)),
                    policy: Box::new(sb),
                },
            ]
        };
        let direct: Vec<RunReport> = points()
            .into_iter()
            .map(|p| {
                Runner::new(hosts.clone(), trace.clone(), (p.policy)(), p.config)
                    .labeled(p.label)
                    .run()
            })
            .collect();
        assert_eq!(direct[0].jobs_total, trace.len() as u64);
        for cap in [Some(1), None] {
            let reports = run_sweep(&hosts, &trace, points(), cap);
            assert_eq!(reports.len(), direct.len());
            for (r, d) in reports.iter().zip(&direct) {
                assert_eq!(r.label, d.label, "cap {cap:?}");
                assert_eq!(
                    r.energy_kwh.to_bits(),
                    d.energy_kwh.to_bits(),
                    "{}",
                    r.label
                );
                assert_eq!(
                    r.satisfaction_pct.to_bits(),
                    d.satisfaction_pct.to_bits(),
                    "{}",
                    r.label
                );
                assert_eq!(r.migrations, d.migrations, "{}", r.label);
            }
        }
    }
}
