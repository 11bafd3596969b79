//! Named counters and fixed-bucket histograms.
//!
//! The registry is deliberately minimal: metrics are registered by
//! `&'static str` name (find-or-create, so call sites can re-register
//! idempotently), ids are plain indices, and histograms have their bucket
//! bounds fixed at registration — observation is a linear scan over a
//! handful of bounds, no allocation.

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

impl CounterId {
    /// The id handed out by a disabled [`crate::Obs`]; operations on it
    /// are no-ops.
    pub const INERT: CounterId = CounterId(usize::MAX);
}

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

impl HistId {
    /// The id handed out by a disabled [`crate::Obs`].
    pub const INERT: HistId = HistId(usize::MAX);
}

/// A fixed-bucket histogram: counts per `(…, bound]` bucket plus an
/// implicit overflow bucket, with total count and sum for mean queries.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) name: String,
    /// Ascending upper bucket bounds.
    pub(crate) bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket.
    pub(crate) counts: Vec<u64>,
    pub(crate) count: u64,
    pub(crate) sum: f64,
}

impl Histogram {
    fn new(name: &'static str, bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Histogram name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The upper bucket bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (one per bound, plus the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// The metrics store of one recorder.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Finds or creates the counter `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Adds `by` to a counter (inert ids are ignored).
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if let Some(c) = self.counters.get_mut(id.0) {
            c.1 += by;
        }
    }

    /// Finds or creates the histogram `name`. Bounds are fixed by the
    /// first registration; later calls with the same name reuse it.
    pub fn histogram(&mut self, name: &'static str, bounds: &[f64]) -> HistId {
        if let Some(i) = self.hists.iter().position(|h| h.name == name) {
            return HistId(i);
        }
        self.hists.push(Histogram::new(name, bounds));
        HistId(self.hists.len() - 1)
    }

    /// Records one observation (inert ids are ignored).
    pub fn observe(&mut self, id: HistId, value: f64) {
        if let Some(h) = self.hists.get_mut(id.0) {
            h.observe(value);
        }
    }

    /// All counters as `(name, value)`, registration order.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect()
    }

    /// All counters, registration order.
    pub(crate) fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All histograms, registration order.
    pub fn histograms(&self) -> &[Histogram] {
        &self.hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_find_or_create() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("a");
        let b = r.counter("b");
        assert_ne!(a, b);
        assert_eq!(r.counter("a"), a);
        r.inc(a, 2);
        r.inc(a, 3);
        r.inc(CounterId::INERT, 100);
        assert_eq!(
            r.counters_snapshot(),
            vec![("a".to_string(), 5), ("b".to_string(), 0)]
        );
    }

    #[test]
    fn histogram_bucketing() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("lat", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 99.0, 1000.0] {
            r.observe(h, v);
        }
        let hist = &r.histograms()[0];
        // (…,1], (1,10], (10,100], overflow
        assert_eq!(hist.counts(), &[2, 1, 1, 1]);
        assert_eq!(hist.count(), 5);
        assert!((hist.sum() - 1105.5).abs() < 1e-9);
        r.observe(HistId::INERT, 1.0);
        assert_eq!(r.histograms()[0].count(), 5);
    }
}
