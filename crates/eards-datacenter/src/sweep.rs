//! Parallel parameter sweeps.
//!
//! Figures 2 and 3 of the paper sweep the (λ_min, λ_max) threshold grid —
//! dozens of independent week-long simulations. Runs are embarrassingly
//! parallel, so they are fanned out over scoped `std` threads, one queue
//! of work items drained by `num_cpus` workers.

use std::sync::{Mutex, PoisonError};

use eards_metrics::RunReport;
use eards_model::{HostSpec, Policy};
use eards_workload::Trace;

use crate::config::RunConfig;
use crate::runner::Runner;

/// One point of a sweep: a labelled run configuration.
pub struct SweepPoint {
    /// Label attached to the resulting report.
    pub label: String,
    /// The run configuration of this point.
    pub config: RunConfig,
}

/// Runs every sweep point over the same datacenter and trace, each with a
/// fresh policy from `make_policy`, in parallel. Results come back in the
/// input order.
pub fn run_sweep<F>(
    hosts: &[HostSpec],
    trace: &Trace,
    make_policy: F,
    points: Vec<SweepPoint>,
) -> Vec<RunReport>
where
    F: Fn() -> Box<dyn Policy> + Sync,
{
    let n = points.len();
    let work = Mutex::new(points.into_iter().enumerate().collect::<Vec<_>>());
    let results = Mutex::new(Vec::with_capacity(n));

    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));

    // A worker panic propagates out of `scope`; a poisoned lock can only
    // follow one, so taking the guard regardless is sound.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let item = work.lock().unwrap_or_else(PoisonError::into_inner).pop();
                let Some((idx, point)) = item else { break };
                let runner =
                    Runner::new(hosts.to_vec(), trace.clone(), make_policy(), point.config)
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

/// Builds the λ grid of Figures 2–3: `lambda_min` from `min_range`,
/// `lambda_max` from `max_range` (percent values, inclusive, stepped),
/// keeping only valid pairs (λ_min < λ_max).
pub fn lambda_grid(base: &RunConfig, min_values: &[u32], max_values: &[u32]) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &lo in min_values {
        for &hi in max_values {
            if lo >= hi {
                continue;
            }
            points.push(SweepPoint {
                label: format!("λ{lo}-{hi}"),
                config: base.clone().with_lambdas(lo, hi),
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::small_datacenter;
    use eards_model::HostClass;
    use eards_policies::BackfillingPolicy;
    use eards_sim::SimDuration;
    use eards_workload::{generate, SynthConfig};

    #[test]
    fn lambda_grid_filters_invalid_pairs() {
        let base = RunConfig::default();
        let grid = lambda_grid(&base, &[30, 90], &[50, 90]);
        // (30,50), (30,90), (90,—): 90 ≥ 50 and 90 ≥ 90 are dropped.
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].label, "λ30-50");
        assert_eq!(grid[1].label, "λ30-90");
    }

    #[test]
    fn sweep_returns_reports_in_order() {
        let hosts = small_datacenter(4, HostClass::Fast);
        let cfg = SynthConfig {
            span: SimDuration::from_hours(2),
            events_per_hour: 6.0,
            ..SynthConfig::grid5000_week()
        };
        let trace = generate(&cfg, 3);
        let points = vec![
            SweepPoint {
                label: "a".into(),
                config: RunConfig::default(),
            },
            SweepPoint {
                label: "b".into(),
                config: RunConfig::default().with_lambdas(40, 95),
            },
        ];
        let reports = run_sweep(
            &hosts,
            &trace,
            || Box::new(BackfillingPolicy::new()),
            points,
        );
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "a");
        assert_eq!(reports[1].label, "b");
        assert_eq!(reports[0].jobs_total, trace.len() as u64);
    }
}
