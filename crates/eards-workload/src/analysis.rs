//! Trace analysis: arrival-process and job-mix statistics beyond the
//! basic [`crate::TraceStats`].
//!
//! The evaluation's qualitative results hinge on workload *shape* —
//! burstiness drives the naive policies' contention, diurnal valleys
//! drive consolidation headroom (DESIGN.md §10). These metrics make a
//! trace's shape inspectable (CLI: `eards trace info`) and comparable
//! against the calibration targets.

use eards_sim::{SimTime, MILLIS_PER_HOUR};

use crate::trace::Trace;

/// Arrival-process and mix statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Arrivals per hour-of-trace (index 0 = the first hour).
    pub hourly_arrivals: Vec<usize>,
    /// Coefficient of variation of inter-arrival times (1 = Poisson;
    /// > 1 = bursty — grid traces typically sit well above 1).
    pub interarrival_cv: f64,
    /// Largest number of jobs sharing one submission instant (the biggest
    /// bag-of-tasks campaign).
    pub max_batch: usize,
    /// Fraction of all jobs that arrive in the busiest 10% of hours —
    /// 0.1 means perfectly uniform; grid traces concentrate much more.
    pub peak_hour_mass: f64,
    /// Fraction of total *work* carried by the largest 10% of jobs
    /// (heavy-tail indicator; near 1.0 for grid workloads).
    pub top_decile_work_share: f64,
}

/// Computes the analysis. Returns `None` for traces with fewer than two
/// jobs (no arrival process to speak of).
pub fn analyze(trace: &Trace) -> Option<TraceAnalysis> {
    let jobs = trace.jobs();
    let [_, .., last] = jobs else {
        return None;
    };

    // Hourly histogram.
    let span_ms = last.submit.as_millis();
    let hours = (span_ms / MILLIS_PER_HOUR + 1) as usize;
    let mut hourly = vec![0usize; hours];
    for j in jobs {
        hourly[(j.submit.as_millis() / MILLIS_PER_HOUR) as usize] += 1;
    }

    // Inter-arrival CV over distinct submission instants.
    let mut instants: Vec<SimTime> = jobs.iter().map(|j| j.submit).collect();
    instants.dedup();
    let gaps: Vec<f64> = instants
        .iter()
        .zip(instants.iter().skip(1))
        .map(|(a, b)| b.saturating_since(*a).as_secs_f64())
        .collect();
    let cv = if gaps.len() >= 2 {
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        if mean > 0.0 {
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        } else {
            0.0
        }
    } else {
        0.0
    };

    // Largest same-instant batch.
    let mut max_batch = 1;
    let mut run = 1;
    for (a, b) in jobs.iter().zip(jobs.iter().skip(1)) {
        if a.submit == b.submit {
            run += 1;
            max_batch = max_batch.max(run);
        } else {
            run = 1;
        }
    }

    // Mass in the busiest decile of hours.
    let mut sorted_hours = hourly.clone();
    sorted_hours.sort_unstable_by(|a, b| b.cmp(a));
    let decile = (hours.div_ceil(10)).max(1);
    let peak_mass: usize = sorted_hours.iter().take(decile).sum();
    let peak_hour_mass = peak_mass as f64 / jobs.len() as f64;

    // Work share of the biggest decile of jobs.
    let mut works: Vec<f64> = jobs.iter().map(|j| j.total_work()).collect();
    works.sort_unstable_by(|a, b| b.total_cmp(a));
    let total: f64 = works.iter().sum();
    let top = (jobs.len().div_ceil(10)).max(1);
    let top_work: f64 = works.iter().take(top).sum();
    let top_decile_work_share = if total > 0.0 { top_work / total } else { 0.0 };

    Some(TraceAnalysis {
        hourly_arrivals: hourly,
        interarrival_cv: cv,
        max_batch,
        peak_hour_mass,
        top_decile_work_share,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};
    use eards_model::{Cpu, Job, JobId, Mem};
    use eards_sim::SimDuration;

    fn uniform_trace(n: u64, gap_secs: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| {
                    Job::new(
                        JobId(i),
                        SimTime::from_secs(i * gap_secs),
                        Cpu(100),
                        Mem::gib(1),
                        SimDuration::from_secs(600),
                        1.5,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn uniform_arrivals_have_zero_cv() {
        let a = analyze(&uniform_trace(100, 60)).unwrap();
        assert!(a.interarrival_cv < 1e-9);
        assert_eq!(a.max_batch, 1);
        // 100 arrivals over ~1.7 h: hourly histogram covers the span.
        assert_eq!(a.hourly_arrivals.iter().sum::<usize>(), 100);
        // Equal-size jobs: top decile carries exactly its share.
        assert!((a.top_decile_work_share - 0.1).abs() < 0.01);
    }

    #[test]
    fn batches_are_detected() {
        let mut jobs = Vec::new();
        for i in 0..5u64 {
            jobs.push(Job::new(
                JobId(i),
                SimTime::from_secs(100),
                Cpu(100),
                Mem::gib(1),
                SimDuration::from_secs(60),
                1.5,
            ));
        }
        jobs.push(Job::new(
            JobId(5),
            SimTime::from_secs(500),
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(60),
            1.5,
        ));
        let a = analyze(&Trace::new(jobs)).unwrap();
        assert_eq!(a.max_batch, 5);
    }

    #[test]
    fn synthetic_grid_trace_is_bursty_and_heavy_tailed() {
        let trace = generate(&SynthConfig::grid5000_week(), 7);
        let a = analyze(&trace).unwrap();
        assert!(a.interarrival_cv > 1.0, "cv {}", a.interarrival_cv);
        assert!(a.max_batch >= 10, "max batch {}", a.max_batch);
        assert!(
            a.top_decile_work_share > 0.4,
            "top decile carries {}",
            a.top_decile_work_share
        );
        assert!(a.peak_hour_mass > 0.15, "peak mass {}", a.peak_hour_mass);
    }

    #[test]
    fn tiny_traces_yield_none() {
        assert!(analyze(&Trace::new(vec![])).is_none());
        assert!(analyze(&uniform_trace(1, 60)).is_none());
    }
}
