//! Trace and metrics serialization.
//!
//! All JSON here is hand-rolled: the shapes are flat and fixed, the
//! strings are static identifiers (no escaping needed), and the workspace
//! deliberately carries no serialization dependency. The inverse side —
//! parsing and schema checks — lives in [`crate::validate`].

use std::fmt::Write;

use crate::registry::{Histogram, MetricsRegistry};
use crate::Inner;

/// Appends `v` as a JSON number, or `null` when it is not finite (JSON
/// has no `Infinity`/`NaN`; penalty scores can legitimately be `+inf`).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// One JSON object per line: `{"t_ms":…,"kind":"…",…fields}`.
pub(crate) fn jsonl(inner: &Inner) -> String {
    let mut out = String::new();
    for (at, ev) in inner.events.iter() {
        let _ = write!(
            out,
            "{{\"t_ms\":{},\"kind\":\"{}\",",
            at.as_millis(),
            ev.kind()
        );
        ev.append_fields(&mut out);
        out.push_str("}\n");
    }
    out
}

/// Chrome `trace_event` JSON (the object form with a `traceEvents`
/// array). Two timelines:
///
/// * **pid 1** — simulated time: every recorded event as an instant
///   (`ph:"i"`), `ts` = simulated ms × 1000 (the format counts µs);
/// * **pid 2** — wall-clock profiling: every span as a complete event
///   (`ph:"X"`) with its simulated instant in `args.sim_ms`.
pub(crate) fn chrome(inner: &Inner) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (at, ev) in inner.events.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\"s\":\"g\",\"args\":{{",
            ev.kind(),
            at.as_millis() * 1000
        );
        ev.append_fields(&mut out);
        out.push_str("}}");
    }
    for s in inner.spans.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":1,\
             \"args\":{{\"sim_ms\":{}}}}}",
            s.name, s.start_us, s.dur_us, s.sim_ms
        );
    }
    out.push_str("]}\n");
    out
}

/// Counters and histograms as one JSON document, each in the order
/// given. The one writer of the metrics schema: a run's snapshot and a
/// sweep's rollup both come through here.
pub(crate) fn render_metrics<'a>(
    counters: impl IntoIterator<Item = (&'a str, u64)>,
    histograms: impl IntoIterator<Item = &'a Histogram>,
) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in counters.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in histograms.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{{\"bounds\":[", h.name);
        for (j, b) in h.bounds.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_f64(&mut out, *b);
        }
        out.push_str("],\"counts\":[");
        for (j, c) in h.counts.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "],\"count\":{},\"sum\":", h.count);
        push_f64(&mut out, h.sum);
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// A registry's counters and histograms, in registration order.
pub(crate) fn metrics(registry: &MetricsRegistry) -> String {
    render_metrics(registry.counters().iter().copied(), registry.histograms())
}

#[cfg(test)]
mod tests {
    use crate::validate;
    use crate::{FaultKind, Obs, ObsEvent, PowerFlipKind, RecoveryKind};
    use eards_sim::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample_obs() -> Obs {
        let obs = Obs::enabled(64);
        obs.record(
            t(0),
            ObsEvent::ScheduleRound {
                reason: "VmArrived",
                actions: 2,
                queued: 1,
            },
        );
        obs.record(
            t(5),
            ObsEvent::ScoreAttribution {
                vm: 3,
                host: 1,
                migration: false,
                movein: 0.25,
                pwr: -0.5,
                sla: 0.0,
                fault: f64::INFINITY, // must serialize as null, not break JSON
                total: 1.5,
            },
        );
        obs.record(t(10), ObsEvent::Creation { vm: 3, host: 1 });
        obs.record(
            t(20),
            ObsEvent::Migration {
                vm: 3,
                from: 1,
                to: 2,
            },
        );
        obs.record(
            t(30),
            ObsEvent::Fault {
                kind: FaultKind::Crash,
                host: 2,
            },
        );
        obs.record(
            t(40),
            ObsEvent::Recovery {
                kind: RecoveryKind::HostRepaired,
                id: 2,
            },
        );
        obs.record(
            t(50),
            ObsEvent::PowerFlip {
                host: 0,
                state: PowerFlipKind::ShuttingDown,
            },
        );
        drop(obs.span("solve", t(5)));
        obs
    }

    #[test]
    fn jsonl_round_trips_the_schema_check() {
        let obs = sample_obs();
        let text = obs.export_jsonl();
        assert_eq!(text.lines().count(), 7);
        let n = validate::validate_jsonl(&text).expect("valid JSONL");
        assert_eq!(n, 7);
        assert!(text.contains("\"fault\":null"), "infinite score → null");
    }

    #[test]
    fn chrome_round_trips_the_schema_check() {
        let obs = sample_obs();
        let text = obs.export_chrome();
        let n = validate::validate_chrome(&text).expect("valid trace");
        assert_eq!(n, 8, "7 instants + 1 span");
    }

    #[test]
    fn metrics_round_trip_the_schema_check() {
        let obs = sample_obs();
        let c = obs.counter("rounds");
        obs.inc(c, 3);
        let h = obs.histogram("queue_len", &[1.0, 4.0, 16.0]);
        obs.observe(h, 2.0);
        obs.observe(h, 100.0);
        let text = obs.export_metrics();
        validate::validate_metrics(&text).expect("valid metrics");
        assert!(text.contains("\"rounds\":3"));
        assert!(text.contains("\"queue_len\""));
    }

    #[test]
    fn disabled_exports_are_valid_and_empty() {
        let obs = Obs::disabled();
        assert_eq!(obs.export_jsonl(), "");
        assert_eq!(validate::validate_jsonl(&obs.export_jsonl()).unwrap(), 0);
        assert_eq!(validate::validate_chrome(&obs.export_chrome()).unwrap(), 0);
        validate::validate_metrics(&obs.export_metrics()).unwrap();
    }
}
