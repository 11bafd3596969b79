//! Wall-clock measurement for the benches and timing experiments.
//!
//! Every measurement clock read in this crate goes through [`best_of`]:
//! the minimum wall time over a few repetitions, the right statistic
//! for a deterministic routine on a shared, noisy machine (noise only
//! ever adds time). [`per_iter`] applies it to batches of a fast
//! routine, and [`Recorder`] prints and keeps one `bench:` line per
//! measured routine for the `BENCH_*.json` baselines. The exceptions
//! are the observability gate, whose statistic is a median of
//! interleaved runs, and the progress timers of `run_all` and `smoke`.

use std::hint::black_box;
use std::time::Instant;

/// Timed batches per [`per_iter`] measurement taken by [`Recorder`] and
/// the solver-timing experiment.
pub const REPS: usize = 20;

/// Shortest timed batch [`per_iter`] aims for, in seconds: long enough
/// that clock resolution and the read itself are noise.
const MIN_BATCH_SECS: f64 = 1e-3;

/// The minimum wall time, in seconds, of `run(setup())` over `reps`
/// repetitions, and the last repetition's result. `setup` runs outside
/// the timed region.
///
/// # Panics
///
/// If `reps` is zero.
pub fn best_of<I, R>(
    reps: usize,
    mut setup: impl FnMut() -> I,
    mut run: impl FnMut(I) -> R,
) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let input = black_box(setup());
        #[allow(clippy::disallowed_methods)] // measuring wall time is this module's job
        let t = Instant::now();
        let r = black_box(run(input));
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps >= 1"))
}

/// Seconds per call of `routine`, for routines far below a millisecond:
/// the batch size comes from the faster of two warm-up calls, so that
/// one batch lasts at least about a millisecond, and the result is
/// [`best_of`] `reps` batches divided by that size. Also returns the
/// last call's result.
pub fn per_iter<R>(reps: usize, mut routine: impl FnMut() -> R) -> (f64, R) {
    let (warm, _) = best_of(2, || (), |()| routine());
    let batch = (MIN_BATCH_SECS / warm.max(1e-9)).ceil().clamp(1.0, 1e7) as u64;
    let (secs, last) = best_of(
        reps,
        || (),
        |()| {
            let mut last = None;
            for _ in 0..batch {
                last = Some(black_box(routine()));
            }
            last.expect("batch >= 1")
        },
    );
    (secs / batch as f64, last)
}

/// Measures routines one by one with [`per_iter`] over [`REPS`] batches,
/// printing a `bench:` line for each and keeping `(label, seconds per
/// iteration)` in call order.
#[derive(Debug, Default)]
pub struct Recorder {
    results: Vec<(String, f64)>,
}

impl Recorder {
    /// Measures `routine` under `label`; returns the seconds per call
    /// and the last call's result.
    pub fn bench<R>(&mut self, label: &str, routine: impl FnMut() -> R) -> (f64, R) {
        let (secs, last) = per_iter(REPS, routine);
        println!(
            "bench: {label:<48} {:>12} per iter (best of {REPS} batches)",
            fmt_duration(secs)
        );
        self.results.push((label.to_string(), secs));
        (secs, last)
    }

    /// Every `(label, seconds per iteration)` measured so far.
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }
}

fn fmt_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_runs_setup_and_run_reps_times_and_returns_the_last_result() {
        let (mut setups, mut runs) = (0, 0);
        let (secs, last) = best_of(
            4,
            || {
                setups += 1;
                setups
            },
            |i| {
                runs += 1;
                i * 10
            },
        );
        assert_eq!((setups, runs), (4, 4));
        assert_eq!(last, 40);
        assert!(secs >= 0.0);
    }

    #[test]
    fn per_iter_reports_a_positive_time() {
        let (secs, sum) = per_iter(3, || (0..black_box(100u64)).sum::<u64>());
        assert!(secs > 0.0 && secs < MIN_BATCH_SECS, "{secs}");
        assert_eq!(sum, 4950);
    }

    #[test]
    fn recorder_keeps_labels_in_call_order() {
        let mut rec = Recorder::default();
        for label in ["b/2", "a/1", "c/3"] {
            rec.bench(label, || black_box(1 + 1));
        }
        let labels: Vec<_> = rec.results().iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["b/2", "a/1", "c/3"]);
        assert!(rec.results().iter().all(|&(_, s)| s > 0.0));
    }
}
