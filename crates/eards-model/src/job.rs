//! Jobs: the unit of work users submit.
//!
//! In the paper's proof of concept (§I, §V) every job is an HPC task that
//! runs inside one VM; its SLA is a completion deadline derived from the
//! user-estimated dedicated-machine runtime multiplied by a typology factor
//! between 1.2 and 2.

use eards_sim::{Persist, PersistError, Reader, SimDuration, SimTime, Writer};

use crate::ids::JobId;
use crate::units::{Cpu, Mem, Resources};

/// Instruction-set architecture of a host or job requirement (`P_req`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arch {
    /// 64-bit x86 (the common case).
    #[default]
    X86_64,
    /// 32-bit x86.
    X86,
    /// POWER.
    Ppc64,
}

/// Hypervisor running on a host, or required by a job image (`P_req`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Hypervisor {
    /// Xen — the paper's platform (§IV).
    #[default]
    Xen,
    /// KVM.
    Kvm,
}

/// Hardware/software constraints a job places on candidate hosts.
///
/// `None` means "any". These feed the paper's `P_req` penalty (§III-A.1):
/// a host that cannot satisfy them gets an infinite score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Requirements {
    /// Required architecture, if any.
    pub arch: Option<Arch>,
    /// Required hypervisor, if any.
    pub hypervisor: Option<Hypervisor>,
    /// Minimum number of physical CPUs on the host.
    pub min_host_cpus: u32,
}

impl Requirements {
    /// A job that runs anywhere.
    pub const ANY: Requirements = Requirements {
        arch: None,
        hypervisor: None,
        min_host_cpus: 0,
    };
}

/// A job: arrival metadata, resource demand, and SLA.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Submission instant.
    pub submit: SimTime,
    /// CPU the job consumes when unconstrained (its VM's demand).
    pub cpu: Cpu,
    /// Memory its VM needs.
    pub mem: Mem,
    /// Actual runtime on a dedicated machine at full CPU (ground truth;
    /// drives the work integral and the deadline).
    pub dedicated: SimDuration,
    /// The *user-declared* runtime estimate — the `T_u(vm)` of §III-A.3.
    /// Grid users habitually overestimate; the scheduler only ever sees
    /// this value (e.g. for the migration remaining-time discount), never
    /// the ground truth.
    pub user_estimate: SimDuration,
    /// Deadline factor (1.2–2.0 by typology, §V): `T_dead = factor × T_u`.
    pub deadline_factor: f64,
    /// Hardware/software constraints.
    pub requirements: Requirements,
    /// Tolerance to host failures, `F_tol(vm) ∈ [0, 1]` (§III-A.6).
    pub fault_tolerance: f64,
}

impl Job {
    /// Builds a job with default requirements and no fault tolerance.
    pub fn new(
        id: JobId,
        submit: SimTime,
        cpu: Cpu,
        mem: Mem,
        dedicated: SimDuration,
        deadline_factor: f64,
    ) -> Self {
        assert!(
            deadline_factor >= 1.0,
            "a deadline below the dedicated runtime is unsatisfiable"
        );
        Job {
            id,
            submit,
            cpu,
            mem,
            dedicated,
            user_estimate: dedicated,
            deadline_factor,
            requirements: Requirements::ANY,
            fault_tolerance: 0.0,
        }
    }

    /// Sets a user runtime estimate different from the ground truth.
    pub fn with_estimate(mut self, estimate: SimDuration) -> Self {
        self.user_estimate = estimate;
        self
    }

    /// Resource bundle the job's VM requests.
    pub fn resources(&self) -> Resources {
        Resources::new(self.cpu, self.mem)
    }

    /// Total work to perform, in cpu%·seconds: running `dedicated` long at
    /// `cpu` demand. Progress accrues at the *allocated* CPU rate, so a
    /// contended VM takes proportionally longer.
    pub fn total_work(&self) -> f64 {
        self.dedicated.as_secs_f64() * self.cpu.as_f64()
    }

    /// The agreed deadline, relative to submission.
    pub fn deadline(&self) -> SimDuration {
        self.dedicated.mul_f64(self.deadline_factor)
    }

    /// Absolute deadline instant.
    pub fn deadline_at(&self) -> SimTime {
        self.submit + self.deadline()
    }

    /// The paper's `T_r(vm)` (§III-A.3): remaining execution time
    /// *according to the user estimate*, `T_u − t(vm)` — not the simulator's
    /// ground truth, because the scheduler only knows what the user declared.
    /// Clamped at zero once the estimate is exhausted.
    pub fn user_remaining_secs(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.submit).as_secs_f64();
        (self.user_estimate.as_secs_f64() - elapsed).max(0.0)
    }
}

impl Persist for Arch {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            Arch::X86_64 => 0,
            Arch::X86 => 1,
            Arch::Ppc64 => 2,
        });
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(Arch::X86_64),
            1 => Ok(Arch::X86),
            2 => Ok(Arch::Ppc64),
            t => Err(PersistError::Corrupt(format!("bad Arch tag {t}"))),
        }
    }
}

impl Persist for Hypervisor {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            Hypervisor::Xen => 0,
            Hypervisor::Kvm => 1,
        });
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(Hypervisor::Xen),
            1 => Ok(Hypervisor::Kvm),
            t => Err(PersistError::Corrupt(format!("bad Hypervisor tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job::new(
            JobId(1),
            SimTime::from_secs(100),
            Cpu(200),
            Mem::gib(2),
            SimDuration::from_secs(6000), // 100 min dedicated
            1.5,
        )
    }

    #[test]
    fn deadline_follows_factor() {
        // §V example: 100 min at factor 1.5 ⇒ deadline 150 min.
        let j = job();
        assert_eq!(j.deadline(), SimDuration::from_secs(9000));
        assert_eq!(j.deadline_at(), SimTime::from_secs(9100));
    }

    #[test]
    fn total_work_scales_with_demand() {
        let j = job();
        assert_eq!(j.total_work(), 6000.0 * 200.0);
    }

    #[test]
    fn resources_bundle() {
        let j = job();
        assert_eq!(j.resources(), Resources::new(Cpu(200), Mem(2048)));
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn sub_unity_deadline_factor_rejected() {
        Job::new(
            JobId(1),
            SimTime::ZERO,
            Cpu(100),
            Mem(512),
            SimDuration::from_secs(10),
            0.9,
        );
    }

    #[test]
    fn estimate_defaults_to_truth_and_is_overridable() {
        let j = job();
        assert_eq!(j.user_estimate, j.dedicated);
        let j = job().with_estimate(SimDuration::from_secs(9000));
        assert_eq!(j.user_estimate, SimDuration::from_secs(9000));
        // The deadline stays anchored to the dedicated ground truth (§V).
        assert_eq!(j.deadline(), SimDuration::from_secs(9000));
    }

    #[test]
    fn user_remaining_follows_estimate_not_truth() {
        let j = job().with_estimate(SimDuration::from_secs(1000));
        assert_eq!(j.user_remaining_secs(SimTime::from_secs(500)), 600.0);
        assert_eq!(j.user_remaining_secs(SimTime::from_secs(5000)), 0.0);
    }

    #[test]
    fn requirements_default_to_any() {
        assert_eq!(job().requirements, Requirements::ANY);
        assert_eq!(job().fault_tolerance, 0.0);
    }
}
