//! Workload traces: ordered job arrival sequences plus summary statistics.

use std::sync::Arc;

use eards_model::{Job, Requirements};
use eards_sim::{SimDuration, SimTime};

/// A workload trace: jobs ordered by submission time. The job list is
/// shared, so a clone copies no job: a driver that restores a run every
/// simulated hour hands each new runner a clone of the same trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    jobs: Arc<Vec<Job>>,
    /// [`Trace::digest`], computed once by [`Trace::new`]. An empty list
    /// hashes to 0, so the derived `Default` agrees.
    digest: u64,
}

/// Aggregate statistics of a trace, for sanity checks and reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Time of the last submission.
    pub span: SimDuration,
    /// Total work across jobs, in CPU·hours (100 cpu% for 1 h = 1).
    pub total_cpu_hours: f64,
    /// Average *offered load* in cores: total work divided by the span.
    pub avg_offered_cores: f64,
    /// Mean dedicated runtime in seconds.
    pub mean_runtime_secs: f64,
    /// Largest single-job CPU demand (percent points).
    pub max_cpu_demand: u32,
}

impl Trace {
    /// Builds a trace, sorting by submission time (stable: equal-time jobs
    /// keep their relative order).
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| j.submit);
        let digest = digest(&jobs);
        Trace {
            jobs: Arc::new(jobs),
            digest,
        }
    }

    /// A 64-bit digest of every field of every job, in trace order. A
    /// snapshot records it, so restoring onto a different trace fails.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The jobs, ordered by submit time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Consumes the trace, yielding its jobs (copied only if a clone of
    /// the trace still shares them).
    pub fn into_jobs(self) -> Vec<Job> {
        Arc::unwrap_or_clone(self.jobs)
    }

    /// Consumes the trace, yielding its job table without copying it.
    pub fn into_shared_jobs(self) -> Arc<Vec<Job>> {
        self.jobs
    }

    /// Submission time of the last job (ZERO for an empty trace).
    pub fn span(&self) -> SimDuration {
        self.jobs
            .last()
            .map(|j| j.submit.saturating_since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let total_work_cpu_secs: f64 = self.jobs.iter().map(|j| j.total_work()).sum();
        let total_cpu_hours = total_work_cpu_secs / 100.0 / 3600.0;
        let span = self.span();
        let span_hours = span.as_hours_f64();
        TraceStats {
            jobs: self.jobs.len(),
            span,
            total_cpu_hours,
            avg_offered_cores: if span_hours > 0.0 {
                total_cpu_hours / span_hours
            } else {
                0.0
            },
            mean_runtime_secs: if self.jobs.is_empty() {
                0.0
            } else {
                self.jobs
                    .iter()
                    .map(|j| j.dedicated.as_secs_f64())
                    .sum::<f64>()
                    / self.jobs.len() as f64
            },
            max_cpu_demand: self.jobs.iter().map(|j| j.cpu.points()).max().unwrap_or(0),
        }
    }
}

/// Hashes every field of every job. A job's fields pack losslessly into
/// eight words that fold into one as `Σ wordᵢ · Kᵢ` with odd `Kᵢ`, and
/// the jobs chain through FNV-1a steps. Both are bijections modulo 2⁶⁴,
/// so lists that differ in one field always get different digests. The
/// products are independent, so the fold runs at multiply throughput.
fn digest(jobs: &[Job]) -> u64 {
    jobs.iter().fold(0, |h, job| {
        // Destructured, so a new job field fails to compile here.
        let Job {
            id,
            submit,
            cpu,
            mem,
            dedicated,
            user_estimate,
            deadline_factor,
            requirements,
            fault_tolerance,
        } = job;
        let Requirements {
            arch,
            hypervisor,
            min_host_cpus,
        } = requirements;
        let tag = |t: Option<u64>| t.map_or(0, |t| t + 1);
        let words = [
            id.raw(),
            submit.as_millis(),
            u64::from(cpu.0) | u64::from(mem.0) << 32,
            dedicated.as_millis(),
            user_estimate.as_millis(),
            deadline_factor.to_bits(),
            tag(arch.map(|a| a as u64))
                | tag(hypervisor.map(|v| v as u64)) << 8
                | u64::from(*min_host_cpus) << 32,
            fault_tolerance.to_bits(),
        ];
        let word = (0..).zip(words).fold(0u64, |acc, (i, w)| {
            let k = 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(2 * i + 1);
            acc.wrapping_add(w.wrapping_mul(k))
        });
        (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cpu, JobId, Mem};

    fn job(id: u64, submit_secs: u64, cpu: u32, dur_secs: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::from_secs(submit_secs),
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(dur_secs),
            1.5,
        )
    }

    #[test]
    fn sorts_by_submit_time() {
        let t = Trace::new(vec![job(1, 50, 100, 10), job(2, 10, 100, 10)]);
        assert_eq!(t.jobs()[0].id.raw(), 2);
        assert_eq!(t.jobs()[1].id.raw(), 1);
    }

    #[test]
    fn stats_totals() {
        // Two jobs: 1 core for 1 h + 2 cores for half an hour = 2 CPU·h.
        let t = Trace::new(vec![job(1, 0, 100, 3600), job(2, 7200, 200, 1800)]);
        let s = t.stats();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.span, SimDuration::from_secs(7200));
        assert!((s.total_cpu_hours - 2.0).abs() < 1e-9);
        assert!((s.avg_offered_cores - 1.0).abs() < 1e-9);
        assert_eq!(s.mean_runtime_secs, 2700.0);
        assert_eq!(s.max_cpu_demand, 200);
    }

    #[test]
    fn digest_covers_every_job_field() {
        use eards_model::{Arch, Hypervisor};
        let base = vec![job(1, 0, 100, 3600), job(2, 60, 200, 1800)];
        let d = Trace::new(base.clone()).digest();
        assert_eq!(Trace::new(base.clone()).digest(), d);
        let edits: [fn(&mut Job); 11] = [
            |j| j.id = JobId(9),
            |j| j.submit = SimTime::from_secs(30),
            |j| j.cpu = Cpu(300),
            |j| j.mem = Mem::gib(2),
            |j| j.dedicated = SimDuration::from_secs(1801),
            |j| j.user_estimate = SimDuration::from_secs(1900),
            |j| j.deadline_factor = 1.25,
            |j| j.requirements.arch = Some(Arch::X86_64),
            |j| j.requirements.hypervisor = Some(Hypervisor::Kvm),
            |j| j.requirements.min_host_cpus = 2,
            |j| j.fault_tolerance = 0.5,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut jobs = base.clone();
            edit(&mut jobs[1]);
            assert_ne!(Trace::new(jobs).digest(), d, "edit {i}");
        }
        assert_eq!(Trace::default().digest(), Trace::new(vec![]).digest());
        assert_ne!(Trace::default().digest(), d);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new(vec![]);
        assert!(t.is_empty());
        let s = t.stats();
        assert_eq!(s.jobs, 0);
        assert_eq!(s.avg_offered_cores, 0.0);
        assert_eq!(s.max_cpu_demand, 0);
    }
}
