//! # eards-obs — zero-cost-when-disabled observability
//!
//! Tracing, metrics, and profiling for the EARDS stack. The simulation
//! layers (driver, solver, fault engine) call into an [`Obs`] handle at
//! their interesting moments; when the handle is disabled — the default —
//! every call is a branch on a `None` and returns immediately, so an
//! instrumented run is bit-identical to an uninstrumented one. When
//! enabled, the handle owns:
//!
//! * an [`EventRing`]-backed recorder of typed [`ObsEvent`]s with
//!   [`SimTime`] stamps (schedule rounds, per-penalty score attributions,
//!   migrations, fault/recovery transitions, power-state flips) —
//!   preallocated at construction, never allocating afterwards;
//! * a [`MetricsRegistry`] of named counters and fixed-bucket histograms
//!   (solver sweep latency, dirty-row rescore counts, retry backoff
//!   depths, queue lengths);
//! * span-style wall-clock profiling ([`Obs::span`]) for `solve`,
//!   `schedule_round`, `adjust_power`, and fault handling.
//!
//! Exports: a JSONL event log ([`Obs::export_jsonl`]), the Chrome
//! `trace_event` format ([`Obs::export_chrome`], load via
//! `chrome://tracing` or <https://ui.perfetto.dev>), and a metrics JSON
//! dump ([`Obs::export_metrics`]). The [`validate`] module holds the
//! schema checks CI runs against emitted traces.

#![warn(missing_docs)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use eards_sim::SimTime;

mod event;
mod export;
mod registry;
mod ring;
pub mod rollup;
pub mod validate;

pub use event::{FaultKind, ObsEvent, PowerFlipKind, RecoveryKind};
pub use registry::{CounterId, HistId, Histogram, MetricsRegistry};
pub use ring::EventRing;

/// One completed profiling span: a named wall-clock interval annotated
/// with the simulated instant it served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Span name (e.g. `"solve"`, `"schedule_round"`).
    pub name: &'static str,
    /// Simulated time the span worked on, in ms.
    pub sim_ms: u64,
    /// Wall-clock start, µs since the recorder's construction.
    pub start_us: u64,
    /// Wall-clock duration, µs.
    pub dur_us: u64,
}

/// The recorder behind an enabled [`Obs`] handle.
struct Inner {
    /// Wall-clock anchor for span timestamps.
    epoch: Instant,
    events: EventRing<(SimTime, ObsEvent)>,
    spans: EventRing<ProfileSpan>,
    registry: MetricsRegistry,
}

/// Locks the recorder. Every critical section is a few field updates, so
/// a panic inside one (the mutex is then poisoned) leaves at worst one
/// event, span or counter half-recorded; the guard is taken regardless.
fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cheaply-cloneable observability handle.
///
/// Disabled (the default) it is a `None` — every operation is a branch
/// and a return, no locks, no allocation, no clock reads. Enabled, all
/// clones share one recorder behind a mutex (the simulator is
/// single-threaded per run; the mutex makes the handle shareable across
/// the policy/runner split without threading lifetimes through every
/// layer).
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Obs {
    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle whose event and span rings each hold `capacity`
    /// entries (oldest entries are overwritten beyond that; the drop
    /// count is kept). All memory is allocated here, up front.
    // Wall-clock epoch for span timing: the one place real time enters.
    #[allow(clippy::disallowed_methods)]
    pub fn enabled(capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(Inner {
                epoch: Instant::now(),
                events: EventRing::new(capacity),
                spans: EventRing::new(capacity),
                registry: MetricsRegistry::new(),
            }))),
        }
    }

    /// True if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a typed event at simulated time `at`.
    pub fn record(&self, at: SimTime, event: ObsEvent) {
        if let Some(inner) = &self.inner {
            lock(inner).events.push((at, event));
        }
    }

    /// Registers (or looks up) a counter by name.
    ///
    /// On a disabled handle this returns an inert id; [`Obs::inc`] on it
    /// is a no-op, so call sites can register unconditionally.
    pub fn counter(&self, name: &'static str) -> CounterId {
        match &self.inner {
            Some(inner) => lock(inner).registry.counter(name),
            None => CounterId::INERT,
        }
    }

    /// Adds `by` to a counter.
    pub fn inc(&self, id: CounterId, by: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.inc(id, by);
        }
    }

    /// Registers (or looks up) a fixed-bucket histogram. `bounds` are the
    /// ascending upper bucket bounds; an overflow bucket is implicit.
    pub fn histogram(&self, name: &'static str, bounds: &[f64]) -> HistId {
        match &self.inner {
            Some(inner) => lock(inner).registry.histogram(name, bounds),
            None => HistId::INERT,
        }
    }

    /// Records one observation into a histogram.
    pub fn observe(&self, id: HistId, value: f64) {
        if let Some(inner) = &self.inner {
            lock(inner).registry.observe(id, value);
        }
    }

    /// Opens a profiling span; it records itself when dropped. On a
    /// disabled handle the guard is inert and the clock is never read.
    #[allow(clippy::disallowed_methods)] // span durations are wall-clock by design
    pub fn span(&self, name: &'static str, sim: SimTime) -> SpanGuard {
        SpanGuard {
            inner: self.inner.clone(),
            name,
            sim,
            started: self.inner.as_ref().map(|_| Instant::now()),
            hist: None,
        }
    }

    /// Total events offered to the recorder (retained + overwritten).
    pub fn events_recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => {
                let g = lock(inner);
                g.events.len() as u64 + g.events.dropped()
            }
            None => 0,
        }
    }

    /// `(len, allocated_capacity, dropped)` of the event ring, or `None`
    /// when disabled. The allocated capacity is the ring's *actual* Vec
    /// capacity, exposed so tests can prove it never grows.
    pub fn ring_stats(&self) -> Option<(usize, usize, u64)> {
        self.inner.as_ref().map(|inner| {
            let g = lock(inner);
            (g.events.len(), g.events.allocated(), g.events.dropped())
        })
    }

    /// Snapshot of all counters as `(name, value)`, registration order.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        match &self.inner {
            Some(inner) => lock(inner).registry.counters_snapshot(),
            None => Vec::new(),
        }
    }

    /// Number of completed profiling spans retained.
    pub fn spans_recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => {
                let g = lock(inner);
                g.spans.len() as u64 + g.spans.dropped()
            }
            None => 0,
        }
    }

    /// The event log as JSONL: one JSON object per line, oldest first.
    /// Empty string when disabled.
    pub fn export_jsonl(&self) -> String {
        match &self.inner {
            Some(inner) => export::jsonl(&lock(inner)),
            None => String::new(),
        }
    }

    /// The event log and profiling spans in Chrome `trace_event` format.
    /// Simulated-time events are instants on pid 1 (µs = sim ms × 1000);
    /// wall-clock spans are complete events on pid 2. Empty JSON document
    /// when disabled.
    pub fn export_chrome(&self) -> String {
        match &self.inner {
            Some(inner) => export::chrome(&lock(inner)),
            None => String::from("{\"traceEvents\":[]}\n"),
        }
    }

    /// Counters and histograms as a JSON document.
    pub fn export_metrics(&self) -> String {
        match &self.inner {
            Some(inner) => export::metrics(&lock(inner).registry),
            None => String::from("{\"counters\":{},\"histograms\":{}}\n"),
        }
    }
}

/// RAII guard returned by [`Obs::span`]; records the span on drop.
///
/// Optionally feeds the span's duration (µs) into a histogram via
/// [`SpanGuard::with_hist`].
pub struct SpanGuard {
    inner: Option<Arc<Mutex<Inner>>>,
    name: &'static str,
    sim: SimTime,
    started: Option<Instant>,
    hist: Option<HistId>,
}

impl SpanGuard {
    /// Also record the span's duration into histogram `id` on drop.
    pub fn with_hist(mut self, id: HistId) -> Self {
        self.hist = Some(id);
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(inner), Some(started)) = (self.inner.take(), self.started) {
            let dur_us = started.elapsed().as_micros() as u64;
            let mut g = lock(&inner);
            let start_us = started.duration_since(g.epoch).as_micros() as u64;
            g.spans.push(ProfileSpan {
                name: self.name,
                sim_ms: self.sim.as_millis(),
                start_us,
                dur_us,
            });
            if let Some(h) = self.hist {
                g.registry.observe(h, dur_us as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.record(
            t(1),
            ObsEvent::ScheduleRound {
                reason: "VmArrived",
                actions: 1,
                queued: 0,
            },
        );
        let c = obs.counter("x");
        obs.inc(c, 5);
        let h = obs.histogram("y", &[1.0, 2.0]);
        obs.observe(h, 1.5);
        drop(obs.span("solve", t(1)));
        assert_eq!(obs.events_recorded(), 0);
        assert_eq!(obs.spans_recorded(), 0);
        assert_eq!(obs.export_jsonl(), "");
        assert!(obs.counters_snapshot().is_empty());
        assert!(obs.ring_stats().is_none());
    }

    #[test]
    fn clones_share_one_recorder() {
        let obs = Obs::enabled(16);
        let other = obs.clone();
        other.record(t(3), ObsEvent::Creation { vm: 1, host: 0 });
        assert_eq!(obs.events_recorded(), 1);
        let c = obs.counter("n");
        let c2 = other.counter("n");
        assert_eq!(c, c2, "same name resolves to the same counter");
        obs.inc(c, 2);
        other.inc(c2, 3);
        assert_eq!(obs.counters_snapshot(), vec![("n".to_string(), 5)]);
    }

    #[test]
    fn spans_record_duration_and_histogram() {
        let obs = Obs::enabled(16);
        let h = obs.histogram("lat_us", &[10.0, 1_000_000.0]);
        {
            let _g = obs.span("solve", t(42)).with_hist(h);
            std::hint::black_box(0u64);
        }
        assert_eq!(obs.spans_recorded(), 1);
        let chrome = obs.export_chrome();
        assert!(chrome.contains("\"ph\":\"X\""), "complete event present");
        assert!(chrome.contains("\"solve\""));
        let metrics = obs.export_metrics();
        assert!(metrics.contains("\"lat_us\""));
    }

    #[test]
    fn ring_never_allocates_after_construction() {
        let obs = Obs::enabled(64);
        let before = obs.ring_stats().unwrap().1;
        for i in 0..1000u64 {
            obs.record(
                t(i),
                ObsEvent::Creation {
                    vm: i,
                    host: (i % 4) as u32,
                },
            );
        }
        let (len, after, dropped) = obs.ring_stats().unwrap();
        assert_eq!(before, after, "ring capacity must not grow");
        assert_eq!(len, 64);
        assert_eq!(dropped, 1000 - 64);
        assert_eq!(obs.events_recorded(), 1000);
    }
}
