//! The result record of one datacenter simulation run, with the same
//! columns the paper's evaluation tables report (Tables II–V):
//! average working/online nodes, CPU hours, power (kWh), client
//! satisfaction `S`, delay, and migration count.

use eards_sim::{Persist, PersistError, Reader, SimDuration, SimTime, Writer};

use crate::series::TimeSeries;
use crate::summary::Summary;
use crate::table::{fnum, Table};

/// Per-job result, recorded when the job leaves the system.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Raw job identifier (as assigned by the workload).
    pub job_id: u64,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant (`None` if still unfinished at the horizon).
    pub completed: Option<SimTime>,
    /// Agreed deadline (relative to submission).
    pub deadline: SimDuration,
    /// Client satisfaction in percent (0 for unfinished jobs).
    pub satisfaction: f64,
    /// Relative delay in percent.
    pub delay_pct: f64,
    /// Requested-CPU residency of the job's VM, in CPU·hours (one CPU·hour
    /// = 100 cpu% held for one hour). Delayed jobs hold their VM longer and
    /// therefore accrue more — this is the `CPU (h)` column of the tables.
    pub cpu_hours: f64,
    /// The job's intrinsic work (`dedicated × demand`), in CPU·hours —
    /// what a client is billed for (see [`crate::PricingModel`]).
    pub work_cpu_hours: f64,
}

/// Fault-injection and recovery counters of one run. All zero when the
/// run injects no faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Host boots that failed (host landed in the failed state).
    pub boot_failures: u64,
    /// VM creations that aborted partway through.
    pub creation_failures: u64,
    /// Live migrations that aborted partway through.
    pub migration_aborts: u64,
    /// Transient slowdown episodes started.
    pub slowdown_episodes: u64,
    /// Correlated rack outages fired.
    pub rack_outages: u64,
    /// Retries that were delayed by the exponential-backoff gate.
    pub retries_delayed: u64,
    /// Hosts blacklisted as flapping at least once.
    pub hosts_blacklisted: u64,
    /// Displaced or failed VMs that eventually restarted somewhere.
    pub recoveries: u64,
    /// Mean time from displacement to the successful restart, seconds.
    pub mean_recovery_secs: f64,
    /// Worst time from displacement to the successful restart, seconds.
    pub max_recovery_secs: f64,
    /// Invariant-auditor passes executed during the run.
    pub invariant_checks: u64,
    /// Invariant violations the auditor detected (must be 0).
    pub invariant_violations: u64,
}

impl Persist for FaultStats {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.boot_failures);
        w.put_u64(self.creation_failures);
        w.put_u64(self.migration_aborts);
        w.put_u64(self.slowdown_episodes);
        w.put_u64(self.rack_outages);
        w.put_u64(self.retries_delayed);
        w.put_u64(self.hosts_blacklisted);
        w.put_u64(self.recoveries);
        w.put_f64(self.mean_recovery_secs);
        w.put_f64(self.max_recovery_secs);
        w.put_u64(self.invariant_checks);
        w.put_u64(self.invariant_violations);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(FaultStats {
            boot_failures: r.get_u64()?,
            creation_failures: r.get_u64()?,
            migration_aborts: r.get_u64()?,
            slowdown_episodes: r.get_u64()?,
            rack_outages: r.get_u64()?,
            retries_delayed: r.get_u64()?,
            hosts_blacklisted: r.get_u64()?,
            recoveries: r.get_u64()?,
            mean_recovery_secs: r.get_f64()?,
            max_recovery_secs: r.get_f64()?,
            invariant_checks: r.get_u64()?,
            invariant_violations: r.get_u64()?,
        })
    }
}

/// Aggregated result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Label of the run (policy name / configuration).
    pub label: String,
    /// Time-averaged number of *working* nodes (hosting ≥ 1 VM).
    pub avg_working_nodes: f64,
    /// Time-averaged number of *online* nodes (powered on or booting).
    pub avg_online_nodes: f64,
    /// Total requested-CPU residency across jobs (CPU·hours).
    pub cpu_hours: f64,
    /// Total datacenter energy over the run, in kWh.
    pub energy_kwh: f64,
    /// Mean client satisfaction over all jobs, percent.
    pub satisfaction_pct: f64,
    /// Mean relative delay over all jobs, percent.
    pub delay_pct: f64,
    /// Number of VM migrations performed.
    pub migrations: u64,
    /// Number of VM creations performed.
    pub creations: u64,
    /// Number of host failures injected (0 unless the reliability extension
    /// is enabled).
    pub host_failures: u64,
    /// Number of VMs displaced by host failures (re-queued and restarted
    /// from their last checkpoint, or from scratch).
    pub vms_displaced: u64,
    /// Jobs submitted.
    pub jobs_total: u64,
    /// Jobs completed by the horizon.
    pub jobs_completed: u64,
    /// Fault-injection and recovery counters (all zero without faults).
    pub faults: FaultStats,
    /// Datacenter power draw over time (Watts), for plotting/validation.
    pub power_watts: TimeSeries,
    /// Per-job outcomes.
    pub jobs: Vec<JobOutcome>,
}

impl RunReport {
    /// Aggregates per-job outcomes into the summary fields. Called by the
    /// driver after the run; exposed for tests and custom drivers.
    pub fn finalize_jobs(&mut self) {
        let mut sat = Summary::new();
        let mut delay = Summary::new();
        let mut cpu = 0.0;
        let mut completed = 0u64;
        for j in &self.jobs {
            sat.push(j.satisfaction);
            delay.push(j.delay_pct);
            cpu += j.cpu_hours;
            if j.completed.is_some() {
                completed += 1;
            }
        }
        self.jobs_total = self.jobs.len() as u64;
        self.jobs_completed = completed;
        self.cpu_hours = cpu;
        self.satisfaction_pct = sat.mean();
        self.delay_pct = delay.mean();
    }

    /// Returns an empty report with the given label.
    pub fn empty(label: impl Into<String>) -> Self {
        RunReport {
            label: label.into(),
            avg_working_nodes: 0.0,
            avg_online_nodes: 0.0,
            cpu_hours: 0.0,
            energy_kwh: 0.0,
            satisfaction_pct: 0.0,
            delay_pct: 0.0,
            migrations: 0,
            creations: 0,
            host_failures: 0,
            vms_displaced: 0,
            jobs_total: 0,
            jobs_completed: 0,
            faults: FaultStats::default(),
            power_watts: TimeSeries::new(),
            jobs: Vec::new(),
        }
    }

    /// The row shape used by the paper's Tables II–V:
    /// `label, Work/ON, CPU (h), Pwr (kWh), S (%), delay (%), Mig`.
    pub fn paper_row(&self) -> Vec<String> {
        vec![
            self.label.clone(),
            format!(
                "{} / {}",
                fnum(self.avg_working_nodes, 1),
                fnum(self.avg_online_nodes, 1)
            ),
            fnum(self.cpu_hours, 1),
            fnum(self.energy_kwh, 1),
            fnum(self.satisfaction_pct, 1),
            fnum(self.delay_pct, 1),
            self.migrations.to_string(),
        ]
    }

    /// Header matching [`RunReport::paper_row`].
    pub fn paper_header() -> Vec<&'static str> {
        vec![
            "Policy",
            "Work/ON",
            "CPU (h)",
            "Pwr (kWh)",
            "S (%)",
            "delay (%)",
            "Mig",
        ]
    }

    /// Builds a table from several runs, in the paper's format.
    pub fn table(reports: &[RunReport]) -> Table {
        let mut t = Table::new(Self::paper_header());
        for r in reports {
            t.row(r.paper_row());
        }
        t
    }
}

/// Relative change of `new` vs `baseline` in percent (negative = reduction).
pub fn pct_change(baseline: f64, new: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    100.0 * (new - baseline) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(sat: f64, delay: f64, cpu: f64, done: bool) -> JobOutcome {
        JobOutcome {
            job_id: 0,
            submitted: SimTime::ZERO,
            completed: done.then(|| SimTime::from_secs(100)),
            deadline: SimDuration::from_secs(100),
            satisfaction: sat,
            delay_pct: delay,
            cpu_hours: cpu,
            work_cpu_hours: cpu,
        }
    }

    #[test]
    fn finalize_aggregates_jobs() {
        let mut r = RunReport::empty("test");
        r.jobs = vec![
            outcome(100.0, 0.0, 2.0, true),
            outcome(50.0, 50.0, 3.0, true),
            outcome(0.0, 400.0, 1.0, false),
        ];
        r.finalize_jobs();
        assert_eq!(r.jobs_total, 3);
        assert_eq!(r.jobs_completed, 2);
        assert_eq!(r.cpu_hours, 6.0);
        assert!((r.satisfaction_pct - 50.0).abs() < 1e-12);
        assert!((r.delay_pct - 150.0).abs() < 1e-12);
    }

    #[test]
    fn paper_row_shape() {
        let mut r = RunReport::empty("SB");
        r.avg_working_nodes = 9.7;
        r.avg_online_nodes = 21.0;
        r.energy_kwh = 956.4;
        r.satisfaction_pct = 99.1;
        r.delay_pct = 9.0;
        r.migrations = 87;
        let row = r.paper_row();
        assert_eq!(row[0], "SB");
        assert_eq!(row[1], "9.7 / 21.0");
        assert_eq!(row[3], "956.4");
        assert_eq!(row[6], "87");
        assert_eq!(row.len(), RunReport::paper_header().len());
    }

    #[test]
    fn table_renders_multiple_runs() {
        let a = RunReport::empty("BF");
        let b = RunReport::empty("SB");
        let t = RunReport::table(&[a, b]);
        assert_eq!(t.len(), 2);
        assert!(t.to_markdown().contains("| BF"));
    }

    #[test]
    fn pct_change_math() {
        assert!((pct_change(1007.3, 850.2) - -15.597).abs() < 0.01);
        assert_eq!(pct_change(0.0, 5.0), 0.0);
        assert_eq!(pct_change(100.0, 112.0), 12.0);
    }
}
