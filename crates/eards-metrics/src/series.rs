//! Piecewise-constant time series.
//!
//! Every signal the simulator records — node power draw, number of working
//! nodes, datacenter CPU usage — is a step function of simulated time: it
//! changes only at events. [`TimeSeries`] stores the steps exactly, so
//! integrals (energy, CPU·hours) and time-weighted means (average working
//! nodes) are computed without discretization error.

use eards_sim::{Persist, PersistError, Reader, SimDuration, SimTime, Writer};

/// One step of a piecewise-constant signal: `value` holds from `at` until
/// the next point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Instant the signal changed.
    pub at: SimTime,
    /// Value from `at` onwards.
    pub value: f64,
}

/// A piecewise-constant signal sampled at its change points.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<SeriesPoint>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Records that the signal takes `value` from `at` onwards.
    ///
    /// Out-of-order times panic (the simulator only moves forward). Equal
    /// times overwrite (several state changes can land on one event
    /// timestamp; only the final value holds). Recording the current value
    /// again is a no-op, keeping the series minimal.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.points.last_mut() {
            assert!(at >= last.at, "time series must be recorded in order");
            if at == last.at {
                last.value = value;
                self.coalesce_tail();
                return;
            }
            if last.value == value {
                return;
            }
        }
        self.points.push(SeriesPoint { at, value });
    }

    /// Drops the last point if overwriting made it equal its predecessor.
    fn coalesce_tail(&mut self) {
        if self.points.len() >= 2 {
            let n = self.points.len();
            if self.points[n - 2].value == self.points[n - 1].value {
                self.points.pop();
            }
        }
    }

    /// The change points, in time order.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Value at time `t` (the most recent step at or before `t`).
    /// Returns `None` before the first point.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.points.binary_search_by(|p| p.at.cmp(&t)) {
            Ok(i) => Some(self.points[i].value),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].value),
        }
    }

    /// Exact integral of the signal over `[from, to)`, in value·seconds.
    ///
    /// Time before the first recorded point contributes zero.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, p) in self.points.iter().enumerate() {
            let seg_start = p.at.max(from);
            let seg_end = match self.points.get(i + 1) {
                Some(next) => next.at.min(to),
                None => to,
            };
            if seg_end > seg_start {
                acc += p.value * (seg_end - seg_start).as_secs_f64();
            }
            if p.at >= to {
                break;
            }
        }
        acc
    }

    /// Time-weighted mean over `[from, to)`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = to.saturating_since(from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.integral(from, to) / span
    }

    /// Maximum recorded value (over the recorded points, not a window).
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|p| p.value).fold(None, |m, v| {
            Some(match m {
                Some(m) => m.max(v),
                None => v,
            })
        })
    }

    /// Resamples the signal at a fixed period over `[from, to]`, yielding
    /// `(time, value)` pairs — the shape plotting front-ends want.
    ///
    /// Instants before the first recorded point are skipped rather than
    /// fabricated as 0.0: the signal is *undefined* there, and a synthetic
    /// zero row is indistinguishable from a real measurement downstream.
    /// (This is deliberately different from [`TimeSeries::integral`] /
    /// [`TimeSeries::mean`], where zero-before-start is a documented part
    /// of the aggregate's definition.)
    pub fn resample(&self, from: SimTime, to: SimTime, period: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!period.is_zero(), "resample period must be positive");
        let mut out = Vec::new();
        let mut t = from;
        loop {
            if let Some(v) = self.value_at(t) {
                out.push((t, v));
            }
            if t >= to {
                break;
            }
            t += period;
            if t > to {
                t = to;
            }
        }
        out
    }
}

/// Tracks a live value and its exact running integral; the recording half
/// of [`TimeSeries`] for signals where only aggregates are needed (cheaper
/// than storing every step of a hot signal).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    integral: f64,
    started: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with an initial value.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            value: initial,
            last_change: start,
            integral: 0.0,
            started: start,
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Updates the value at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
    }

    /// Adds `delta` to the value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        self.advance(now);
        self.value += delta;
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_change, "TimeWeighted moved backwards");
        self.integral += self.value * now.saturating_since(self.last_change).as_secs_f64();
        self.last_change = now;
    }

    /// Integral in value·seconds up to `now`.
    pub fn integral(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        self.integral
    }

    /// Time-weighted mean since tracking started, up to `now`.
    pub fn mean(&mut self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.started).as_secs_f64();
        if span == 0.0 {
            return self.value;
        }
        self.integral(now) / span
    }
}

impl Persist for SeriesPoint {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.at.persist(w);
        w.put_f64(self.value);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SeriesPoint {
            at: SimTime::restore(r)?,
            value: r.get_f64()?,
        })
    }
}

impl Persist for TimeSeries {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.points.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let points: Vec<SeriesPoint> = Vec::restore(r)?;
        let out_of_order = points
            .iter()
            .zip(points.iter().skip(1))
            .any(|(a, b)| b.at < a.at);
        if out_of_order {
            return Err(PersistError::Corrupt("time series out of order".into()));
        }
        Ok(TimeSeries { points })
    }
}

impl Persist for TimeWeighted {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_f64(self.value);
        self.last_change.persist(w);
        w.put_f64(self.integral);
        self.started.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(TimeWeighted {
            value: r.get_f64()?,
            last_change: SimTime::restore(r)?,
            integral: r.get_f64()?,
            started: SimTime::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn integral_of_step_function() {
        let mut s = TimeSeries::new();
        s.record(t(0), 2.0);
        s.record(t(10), 4.0);
        s.record(t(20), 0.0);
        // 10 s at 2 + 10 s at 4 = 60
        assert_eq!(s.integral(t(0), t(20)), 60.0);
        // Window entirely inside the 4.0 segment.
        assert_eq!(s.integral(t(12), t(15)), 12.0);
        // Window past the last point: 0.0 holds forever.
        assert_eq!(s.integral(t(0), t(100)), 60.0);
        // Mean over [0, 20): 3.
        assert_eq!(s.mean(t(0), t(20)), 3.0);
    }

    #[test]
    fn integral_before_first_point_is_zero() {
        let mut s = TimeSeries::new();
        s.record(t(10), 5.0);
        assert_eq!(s.integral(t(0), t(10)), 0.0);
        assert_eq!(s.integral(t(0), t(12)), 10.0);
    }

    #[test]
    fn value_at_lookup() {
        let mut s = TimeSeries::new();
        s.record(t(5), 1.0);
        s.record(t(15), 2.0);
        assert_eq!(s.value_at(t(0)), None);
        assert_eq!(s.value_at(t(5)), Some(1.0));
        assert_eq!(s.value_at(t(14)), Some(1.0));
        assert_eq!(s.value_at(t(15)), Some(2.0));
        assert_eq!(s.value_at(t(1000)), Some(2.0));
    }

    #[test]
    fn equal_time_overwrites_and_coalesces() {
        let mut s = TimeSeries::new();
        s.record(t(0), 1.0);
        s.record(t(10), 2.0);
        s.record(t(10), 3.0);
        assert_eq!(s.points().len(), 2);
        assert_eq!(s.value_at(t(10)), Some(3.0));
        // Overwriting back to the previous value removes the step entirely.
        s.record(t(10), 1.0);
        assert_eq!(s.points().len(), 1);
    }

    #[test]
    fn redundant_records_are_dropped() {
        let mut s = TimeSeries::new();
        s.record(t(0), 1.0);
        s.record(t(5), 1.0);
        s.record(t(9), 1.0);
        assert_eq!(s.points().len(), 1);
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn out_of_order_record_panics() {
        let mut s = TimeSeries::new();
        s.record(t(10), 1.0);
        s.record(t(5), 2.0);
    }

    #[test]
    fn resample_produces_grid() {
        let mut s = TimeSeries::new();
        s.record(t(2), 10.0);
        let samples = s.resample(t(0), t(6), SimDuration::from_secs(2));
        // t = 0 precedes the first point: no fabricated 0.0 row.
        assert_eq!(samples, vec![(t(2), 10.0), (t(4), 10.0), (t(6), 10.0)]);
    }

    #[test]
    fn resample_skips_pre_start_instants() {
        let mut s = TimeSeries::new();
        s.record(t(5), 3.0);
        // Entirely before the first point: nothing to report.
        assert_eq!(s.resample(t(0), t(4), SimDuration::from_secs(1)), vec![]);
        // Straddling the first point: only defined instants appear.
        assert_eq!(
            s.resample(t(3), t(7), SimDuration::from_secs(2)),
            vec![(t(5), 3.0), (t(7), 3.0)]
        );
        // Empty series yields no samples at all.
        assert_eq!(
            TimeSeries::new().resample(t(0), t(10), SimDuration::from_secs(5)),
            vec![]
        );
    }

    #[test]
    fn time_weighted_matches_series() {
        let mut tw = TimeWeighted::new(t(0), 2.0);
        tw.set(t(10), 4.0);
        tw.set(t(20), 0.0);
        assert_eq!(tw.integral(t(20)), 60.0);
        assert_eq!(tw.mean(t(20)), 3.0);
        // add() is relative.
        tw.add(t(30), 5.0);
        assert_eq!(tw.value(), 5.0);
        assert_eq!(tw.integral(t(40)), 60.0 + 50.0);
    }

    #[test]
    fn time_weighted_mean_at_start_is_value() {
        let mut tw = TimeWeighted::new(t(5), 7.0);
        assert_eq!(tw.mean(t(5)), 7.0);
    }

    #[test]
    fn max_value() {
        let mut s = TimeSeries::new();
        assert_eq!(s.max_value(), None);
        s.record(t(0), 1.0);
        s.record(t(1), 9.0);
        s.record(t(2), 3.0);
        assert_eq!(s.max_value(), Some(9.0));
    }
}
