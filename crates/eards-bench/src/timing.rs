//! Wall-clock measurement for the benches and timing experiments.
//!
//! Every measurement clock read in this crate goes through [`best_of`]:
//! the minimum wall time over a few repetitions, the right statistic
//! for a deterministic routine on a shared, noisy machine (noise only
//! ever adds time). [`per_iter`] applies it to batches of a fast
//! routine, [`per_iter_pair`] to alternating batches of two routines
//! whose ratio is reported, and [`Recorder`] prints and keeps one
//! `bench:` line per measured routine for the `BENCH_*.json`
//! baselines. The exceptions are the observability gate and
//! `sweep_timing`, whose statistic is a median of interleaved runs (each
//! run timed by one [`best_of`] call), and the per-experiment progress
//! timers of the `run_all` driver.

use std::hint::black_box;
use std::time::Instant;

use eards_obs::validate::Json;

use crate::common::Baseline;

/// Timed batches per [`per_iter`] measurement taken by [`Recorder`].
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
    let batch = batch_len(&mut routine);
    let (secs, last) = best_of(reps, || (), |()| run_batch(batch, &mut routine));
    (secs / batch as f64, last)
}

/// [`per_iter`] for two routines whose ratio matters: batches of `a` and
/// `b` alternate `reps` times and each side keeps its fastest batch, so
/// a change in the machine's speed during the run reaches both sides
/// alike. Returns `(seconds per call, last result)` for `a`, then `b`.
pub fn per_iter_pair<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    let (batch_a, batch_b) = (batch_len(&mut a), batch_len(&mut b));
    let (mut best_a, mut best_b) = ((f64::INFINITY, None), (f64::INFINITY, None));
    for _ in 0..reps {
        let (secs, last) = best_of(1, || (), |()| run_batch(batch_a, &mut a));
        best_a = (best_a.0.min(secs), Some(last));
        let (secs, last) = best_of(1, || (), |()| run_batch(batch_b, &mut b));
        best_b = (best_b.0.min(secs), Some(last));
    }
    (
        (best_a.0 / batch_a as f64, best_a.1.expect("reps >= 1")),
        (best_b.0 / batch_b as f64, best_b.1.expect("reps >= 1")),
    )
}

/// Calls of `routine` per timed batch: enough, going by the faster of
/// two warm-up calls, that one batch lasts at least about a millisecond.
fn batch_len<R>(routine: &mut impl FnMut() -> R) -> u64 {
    let (warm, _) = best_of(2, || (), |()| routine());
    (MIN_BATCH_SECS / warm.max(1e-9)).ceil().clamp(1.0, 1e7) as u64
}

/// Calls `routine` `batch` times; returns the last result.
fn run_batch<R>(batch: u64, routine: &mut impl FnMut() -> R) -> R {
    let mut last = None;
    for _ in 0..batch {
        last = Some(black_box(routine()));
    }
    last.expect("batch >= 1")
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
        self.record(label, secs, "batches");
        (secs, last)
    }

    /// Measures `a` and `b` together with [`per_iter_pair`] over [`REPS`]
    /// batches each, then prints and keeps both as [`Recorder::bench`]
    /// does, `a` first. Returns the seconds per call of `a`, then `b`.
    pub fn bench_pair<A, B>(
        &mut self,
        label_a: &str,
        a: impl FnMut() -> A,
        label_b: &str,
        b: impl FnMut() -> B,
    ) -> (f64, f64) {
        let ((secs_a, _), (secs_b, _)) = per_iter_pair(REPS, a, b);
        self.record(label_a, secs_a, "interleaved batches");
        self.record(label_b, secs_b, "interleaved batches");
        (secs_a, secs_b)
    }

    /// Every `(label, seconds per iteration)` measured so far, in call
    /// order, as the `wall` part of baseline `bench`.
    pub fn baseline(&self, bench: &str) -> Baseline {
        let results = self.results.iter().map(|(l, s)| (l.clone(), Json::Num(*s)));
        Baseline::new(bench)
            .wall("unit", Json::Str("min_batch_seconds_per_iter".into()))
            .wall("results", Json::Obj(results.collect()))
    }

    fn record(&mut self, label: &str, secs: f64, batches: &str) {
        println!(
            "bench: {label:<48} {:>12} per iter (best of {REPS} {batches})",
            fmt_duration(secs)
        );
        self.results.push((label.to_string(), secs));
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
    fn per_iter_pair_alternates_batches_and_keeps_each_sides_result() {
        let order = std::cell::RefCell::new(Vec::new());
        let ((secs_a, a), (secs_b, b)) = per_iter_pair(
            3,
            || {
                order.borrow_mut().push('a');
                (0..black_box(100u64)).sum::<u64>()
            },
            || {
                order.borrow_mut().push('b');
                (0..black_box(10u64)).sum::<u64>()
            },
        );
        assert_eq!((a, b), (4950, 45));
        assert!(secs_a > 0.0 && secs_b > 0.0, "{secs_a} {secs_b}");
        // Two warm-up calls per side, then each timed batch runs one
        // side only, and the sides take turns.
        let order = order.into_inner();
        let mut runs: Vec<char> = order[4..].to_vec();
        runs.dedup();
        assert_eq!(&order[..4], ['a', 'a', 'b', 'b']);
        assert_eq!(runs, ['a', 'b', 'a', 'b', 'a', 'b']);
    }

    #[test]
    fn recorder_keeps_labels_in_call_order() {
        let mut rec = Recorder::default();
        for label in ["b/2", "a/1", "c/3"] {
            rec.bench(label, || black_box(1 + 1));
        }
        rec.bench_pair("e/5", || black_box(2), "d/4", || black_box(3));
        let Json::Obj(results) = &rec.baseline("x").wall[2].1 else {
            panic!("no results object")
        };
        let labels: Vec<_> = results.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["b/2", "a/1", "c/3", "e/5", "d/4"]);
        assert!(results.iter().all(|(_, s)| s.as_f64() > Some(0.0)));
    }
}
