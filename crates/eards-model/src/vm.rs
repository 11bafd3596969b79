//! Virtual machines: the scheduling unit.
//!
//! One VM encapsulates one job (the paper's HPC model): `VmId(n)` runs
//! job `n` of the cluster's job table. A VM moves through a small state
//! machine; while a creation, migration or checkpoint operation is in
//! flight the score-based scheduler pins it with an infinite penalty
//! (§III-A.3).

use eards_sim::{Persist, PersistError, Reader, SimTime, Writer};

use crate::ids::{HostId, VmId};
use crate::job::Job;
use crate::units::{Cpu, Resources};

/// Fraction of its allocation a VM actually converts into progress while
/// being live-migrated: page-dirtying tracking and the stop-and-copy
/// phase degrade the guest noticeably (Xen measurements put it around
/// 20–40% for memory-active workloads). This is what makes gratuitous
/// migration *cost* something — the effect behind the paper's Table V,
/// where over-aggressive consolidation loses both energy and SLA.
pub const MIGRATION_SLOWDOWN: f64 = 0.5;

/// Lifecycle state of a VM. A placed VM's host lives in its state, so a
/// queued or finished VM cannot name one and a placed VM cannot lack one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Waiting in the scheduler's virtual-host queue (not yet placed, or
    /// re-queued after a host failure).
    Queued,
    /// Being created on `host`; the job has not started.
    Creating {
        /// Host the VM is being created on.
        host: HostId,
    },
    /// Executing its job on `host`.
    Running {
        /// Host the VM executes on.
        host: HostId,
    },
    /// Live-migrating from `from` to `to` (still executing on the source).
    Migrating {
        /// Source host (accounts the VM and carries its execution).
        from: HostId,
        /// Destination host (resources there are reserved).
        to: HostId,
    },
    /// Periodic checkpoint in progress on `host` (still executing).
    Checkpointing {
        /// Host the VM executes on.
        host: HostId,
    },
    /// Job finished; the VM has been destroyed.
    Finished,
}

impl VmState {
    /// Host currently accounting this VM's resources (the source while
    /// migrating); `None` iff queued or finished.
    pub fn host(self) -> Option<HostId> {
        match self {
            VmState::Queued | VmState::Finished => None,
            VmState::Creating { host }
            | VmState::Running { host }
            | VmState::Checkpointing { host }
            | VmState::Migrating { from: host, .. } => Some(host),
        }
    }

    /// True while any virtualization operation is in flight — the condition
    /// under which `P_virt = ∞` (§III-A.3).
    pub fn operation_in_progress(self) -> bool {
        matches!(
            self,
            VmState::Creating { .. } | VmState::Migrating { .. } | VmState::Checkpointing { .. }
        )
    }

    /// True if the job inside makes progress in this state.
    pub fn is_executing(self) -> bool {
        matches!(
            self,
            VmState::Running { .. } | VmState::Migrating { .. } | VmState::Checkpointing { .. }
        )
    }
}

/// What the cluster keeps of a VM once its job has finished: the two
/// instants a job outcome reads. [`crate::Cluster::finish_vm`] turns a
/// live [`Vm`] into this record; nothing else of the VM is read after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedVm {
    /// The VM's id.
    pub id: VmId,
    /// When the job began executing (its last start, after any restart
    /// from the queue).
    pub started_at: SimTime,
    /// When the job completed.
    pub completed_at: SimTime,
}

impl FinishedVm {
    /// Bytes of one record on the wire.
    pub const ENCODED_LEN: usize = 20;

    /// The record on the wire: a `u32` id (the cluster writes its VM count
    /// as a `u32` length first, so every id fits), then the two instants
    /// in milliseconds, little-endian.
    #[inline]
    pub(crate) fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut b = [0; Self::ENCODED_LEN];
        b[..4].copy_from_slice(&(self.id.raw() as u32).to_le_bytes());
        b[4..12].copy_from_slice(&self.started_at.as_millis().to_le_bytes());
        b[12..].copy_from_slice(&self.completed_at.as_millis().to_le_bytes());
        b
    }

    /// Inverse of [`FinishedVm::encode`].
    #[inline]
    pub(crate) fn decode(b: &[u8; Self::ENCODED_LEN]) -> Self {
        let mut id = [0; 4];
        let (mut started, mut completed) = ([0; 8], [0; 8]);
        id.copy_from_slice(&b[..4]);
        started.copy_from_slice(&b[4..12]);
        completed.copy_from_slice(&b[12..]);
        FinishedVm {
            id: VmId(u64::from(u32::from_le_bytes(id))),
            started_at: SimTime::from_millis(u64::from_le_bytes(started)),
            completed_at: SimTime::from_millis(u64::from_le_bytes(completed)),
        }
    }
}

/// A virtual machine and its execution bookkeeping. The job it executes
/// lives in the cluster's job table: `VmId(n)` runs job `n`, read through
/// [`crate::Cluster::job`]. The methods that need the job take it.
#[derive(Debug, Clone)]
pub struct Vm {
    /// Identifier.
    pub id: VmId,
    /// Currently requested resources. Starts at the job's demand; the
    /// dynamic-SLA-enforcement extension (§III-A.5) escalates it when the
    /// SLA is being violated, so rescheduling finds the VM more room.
    pub requested: Resources,
    /// Lifecycle state, including the host the VM is placed on.
    pub state: VmState,
    /// Work completed so far, in cpu%·seconds.
    pub progress: f64,
    /// Current CPU allocation granted by the host's credit scheduler
    /// (percent points; 0 while queued/creating).
    pub alloc: f64,
    /// Instant `progress` was last brought up to date.
    pub last_update: SimTime,
    /// When the VM finished creation and began executing, if it has.
    pub started_at: Option<SimTime>,
    /// Number of completed migrations.
    pub migrations: u32,
    /// Progress stored by the most recent completed checkpoint, if any
    /// (restored when the host fails, §III-C).
    pub checkpoint: Option<f64>,
}

impl Vm {
    /// Creates a queued VM for `job`.
    pub fn queued(id: VmId, job: &Job) -> Self {
        Vm {
            id,
            requested: job.resources(),
            state: VmState::Queued,
            progress: 0.0,
            alloc: 0.0,
            last_update: job.submit,
            started_at: None,
            migrations: 0,
            checkpoint: None,
        }
    }

    /// Requested CPU (possibly escalated above the job demand).
    pub fn req_cpu(&self) -> Cpu {
        self.requested.cpu
    }

    /// The rate at which the VM converts CPU into progress right now:
    /// its allocation, capped at the job's demand, degraded while a live
    /// migration is in flight.
    pub fn progress_rate(&self, job: &Job) -> f64 {
        let rate = self.alloc.min(job.cpu.as_f64());
        if matches!(self.state, VmState::Migrating { .. }) {
            rate * MIGRATION_SLOWDOWN
        } else {
            rate
        }
    }

    /// Brings `progress` up to `now` at the current allocation rate.
    /// The effective progress rate is capped at the job's own demand: a VM
    /// cannot run faster than its job needs.
    pub fn advance_progress(&mut self, job: &Job, now: SimTime) {
        debug_assert!(now >= self.last_update, "progress update went backwards");
        if self.state.is_executing() {
            let dt = now.saturating_since(self.last_update).as_secs_f64();
            self.progress = (self.progress + self.progress_rate(job) * dt).min(job.total_work());
        }
        self.last_update = now;
    }

    /// Work still to do, in cpu%·seconds.
    pub fn remaining_work(&self, job: &Job) -> f64 {
        (job.total_work() - self.progress).max(0.0)
    }

    /// True once all work is done.
    pub fn work_complete(&self, job: &Job) -> bool {
        self.remaining_work(job) <= f64::EPSILON * job.total_work().max(1.0)
    }

    /// Seconds until completion at the current allocation, if the VM is
    /// executing and its allocation is positive.
    pub fn eta_secs(&self, job: &Job) -> Option<f64> {
        if !self.state.is_executing() {
            return None;
        }
        let rate = self.progress_rate(job);
        if rate <= 0.0 {
            return None;
        }
        Some(self.remaining_work(job) / rate)
    }

    /// Projected SLA fulfilment ratio at `now` (§III-A.5): 1.0 when the
    /// projected completion meets the deadline, shrinking below 1 as the
    /// projection overshoots. Queued VMs project pessimistically from zero
    /// allocation, yielding fulfilment ≤ deadline/(deadline + nothing) — we
    /// treat "no allocation" as a projection of `2× deadline` (worst case
    /// of the satisfaction metric).
    pub fn sla_fulfillment(&self, job: &Job, now: SimTime) -> f64 {
        let deadline = job.deadline().as_secs_f64();
        if deadline <= 0.0 {
            return 0.0;
        }
        let elapsed = now.saturating_since(job.submit).as_secs_f64();
        let projected_total = match self.eta_secs(job) {
            Some(eta) => elapsed + eta,
            None => {
                if self.work_complete(job) {
                    elapsed
                } else {
                    // No progress possible right now: pessimistic projection.
                    2.0 * deadline.max(elapsed)
                }
            }
        };
        (deadline / projected_total).min(1.0)
    }
}

/// The tag, the destination for `Migrating`, then the host as an
/// `Option`: the layout snapshot version 4 pins. Restore rejects a host
/// that disagrees with the tag.
impl Persist for VmState {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match self {
            VmState::Queued => w.put_u8(0),
            VmState::Creating { .. } => w.put_u8(1),
            VmState::Running { .. } => w.put_u8(2),
            VmState::Migrating { to, .. } => {
                w.put_u8(3);
                to.persist(w);
            }
            VmState::Checkpointing { .. } => w.put_u8(4),
            VmState::Finished => w.put_u8(5),
        }
        w.put_opt(&self.host());
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let tag = r.get_u8()?;
        let to = match tag {
            3 => Some(HostId::restore(r)?),
            0..=5 => None,
            t => return Err(PersistError::Corrupt(format!("bad VmState tag {t}"))),
        };
        match (tag, r.get_opt()?, to) {
            (0, None, _) => Ok(VmState::Queued),
            (1, Some(host), _) => Ok(VmState::Creating { host }),
            (2, Some(host), _) => Ok(VmState::Running { host }),
            (3, Some(from), Some(to)) => Ok(VmState::Migrating { from, to }),
            (4, Some(host), _) => Ok(VmState::Checkpointing { host }),
            (5, None, _) => Ok(VmState::Finished),
            (_, host, _) => Err(PersistError::Corrupt(format!(
                "VmState tag {tag} with host {host:?}"
            ))),
        }
    }
}

impl Persist for Vm {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.id.persist(w);
        self.requested.persist(w);
        self.state.persist(w);
        w.put_f64(self.progress);
        w.put_f64(self.alloc);
        self.last_update.persist(w);
        w.put_opt(&self.started_at);
        w.put_u32(self.migrations);
        w.put_opt(&self.checkpoint);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Vm {
            id: VmId::restore(r)?,
            requested: Resources::restore(r)?,
            state: VmState::restore(r)?,
            progress: r.get_f64()?,
            alloc: r.get_f64()?,
            last_update: SimTime::restore(r)?,
            started_at: r.get_opt()?,
            migrations: r.get_u32()?,
            checkpoint: r.get_opt()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;
    use crate::units::Mem;
    use eards_sim::SimDuration;

    fn job() -> Job {
        Job::new(
            JobId(1),
            SimTime::ZERO,
            Cpu(100),
            Mem(1024),
            SimDuration::from_secs(1000),
            1.5,
        )
    }

    fn vm() -> Vm {
        Vm::queued(VmId(1), &job())
    }

    #[test]
    fn new_vm_is_queued() {
        let v = vm();
        assert_eq!(v.state, VmState::Queued);
        assert!(!v.state.operation_in_progress());
        assert!(!v.state.is_executing());
        assert_eq!(v.remaining_work(&job()), 100_000.0);
    }

    #[test]
    fn progress_accrues_at_alloc_rate() {
        let mut v = vm();
        v.state = VmState::Running { host: HostId(1) };
        v.alloc = 50.0; // contended: half demand
        v.advance_progress(&job(), SimTime::from_secs(100));
        assert_eq!(v.progress, 5_000.0);
        // ETA at the current rate: 95_000 / 50 = 1900 s.
        assert_eq!(v.eta_secs(&job()), Some(1900.0));
    }

    #[test]
    fn progress_rate_caps_at_job_demand() {
        let mut v = vm();
        v.state = VmState::Running { host: HostId(1) };
        v.alloc = 400.0; // host granted more than the job can use
        v.advance_progress(&job(), SimTime::from_secs(10));
        assert_eq!(v.progress, 1_000.0);
    }

    #[test]
    fn no_progress_while_queued_or_creating() {
        let mut v = vm();
        v.alloc = 100.0;
        v.advance_progress(&job(), SimTime::from_secs(50));
        assert_eq!(v.progress, 0.0);
        v.state = VmState::Creating { host: HostId(1) };
        v.advance_progress(&job(), SimTime::from_secs(80));
        assert_eq!(v.progress, 0.0);
        // ...but the clock is tracked so later accrual starts from here.
        v.state = VmState::Running { host: HostId(1) };
        v.advance_progress(&job(), SimTime::from_secs(90));
        assert_eq!(v.progress, 1_000.0);
    }

    #[test]
    fn progress_continues_degraded_during_migration() {
        let mut v = vm();
        v.state = VmState::Migrating {
            from: HostId(1),
            to: HostId(2),
        };
        assert!(v.state.operation_in_progress());
        assert!(v.state.is_executing());
        v.alloc = 100.0;
        v.advance_progress(&job(), SimTime::from_secs(30));
        assert!(
            (v.progress - 3_000.0 * MIGRATION_SLOWDOWN).abs() < 1e-9,
            "live migration degrades the guest: {}",
            v.progress
        );
        assert_eq!(
            v.eta_secs(&job()),
            Some(v.remaining_work(&job()) / (100.0 * MIGRATION_SLOWDOWN))
        );
    }

    #[test]
    fn work_completes_and_clamps() {
        let mut v = vm();
        v.state = VmState::Running { host: HostId(1) };
        v.alloc = 100.0;
        v.advance_progress(&job(), SimTime::from_secs(2000)); // double the needed time
        assert!(v.work_complete(&job()));
        assert_eq!(v.progress, 100_000.0);
        assert_eq!(v.remaining_work(&job()), 0.0);
    }

    #[test]
    fn sla_fulfillment_bands() {
        let mut v = vm();
        // Queued with no allocation: pessimistic projection 2×deadline ⇒ 0.5.
        assert!((v.sla_fulfillment(&job(), SimTime::from_secs(10)) - 0.5).abs() < 1e-9);

        // Running at full demand from t=0: projection = 1000 s < 1500 s
        // deadline ⇒ fulfilment 1.
        v.state = VmState::Running { host: HostId(1) };
        v.alloc = 100.0;
        assert_eq!(v.sla_fulfillment(&job(), SimTime::ZERO), 1.0);

        // Running at half rate: projection 2000 s > 1500 ⇒ 0.75.
        v.alloc = 50.0;
        assert!((v.sla_fulfillment(&job(), SimTime::ZERO) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn eta_none_when_starved() {
        let mut v = vm();
        v.state = VmState::Running { host: HostId(1) };
        v.alloc = 0.0;
        assert_eq!(v.eta_secs(&job()), None);
    }
}
