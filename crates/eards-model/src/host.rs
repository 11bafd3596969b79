//! Physical hosts: capacity, virtualization-overhead class, power state.
//!
//! The paper's evaluation datacenter (§V) has three node classes that
//! differ only in virtualization overheads: 15 *fast* nodes (VM creation
//! `C_c` = 30 s, migration `C_m` = 40 s), 50 *medium* (40/60) and 35 *slow*
//! (60/80). All are 4-way machines matching the testbed of §IV-A.

use eards_sim::{Persist, PersistError, Reader, SimDuration, SimTime, Writer};

use crate::ids::{HostId, VmId};
use crate::job::{Arch, Hypervisor, Requirements};
use crate::units::{Cpu, Mem, Resources};

/// Virtualization-overhead class of a node (§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostClass {
    /// `C_c` = 30 s, `C_m` = 40 s (15 nodes in the paper's datacenter).
    Fast,
    /// `C_c` = 40 s, `C_m` = 60 s (50 nodes).
    Medium,
    /// `C_c` = 60 s, `C_m` = 80 s (35 nodes).
    Slow,
}

impl HostClass {
    /// Every class, in declaration order. A new class must be listed
    /// here: the scheduler's migration certificate takes its cheapest
    /// migration cost from this list.
    pub const ALL: [HostClass; 3] = [HostClass::Fast, HostClass::Medium, HostClass::Slow];

    /// VM creation cost `C_c` for this class.
    pub fn creation_cost(self) -> SimDuration {
        match self {
            HostClass::Fast => SimDuration::from_secs(30),
            HostClass::Medium => SimDuration::from_secs(40),
            HostClass::Slow => SimDuration::from_secs(60),
        }
    }

    /// VM migration cost `C_m` when this class is the destination.
    pub fn migration_cost(self) -> SimDuration {
        match self {
            HostClass::Fast => SimDuration::from_secs(40),
            HostClass::Medium => SimDuration::from_secs(60),
            HostClass::Slow => SimDuration::from_secs(80),
        }
    }

    /// Machine boot time (model constant; the paper simulates boot time but
    /// does not publish the value — we scale it with the class).
    pub fn boot_time(self) -> SimDuration {
        match self {
            HostClass::Fast => SimDuration::from_secs(60),
            HostClass::Medium => SimDuration::from_secs(90),
            HostClass::Slow => SimDuration::from_secs(120),
        }
    }

    /// Graceful shutdown time (model constant).
    pub fn shutdown_time(self) -> SimDuration {
        SimDuration::from_secs(10)
    }
}

/// Static description of a host.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Identifier (index into the cluster's host table).
    pub id: HostId,
    /// Overhead class.
    pub class: HostClass,
    /// Total CPU capacity (400 = the paper's 4-way node).
    pub cpu: Cpu,
    /// Total memory.
    pub mem: Mem,
    /// Architecture (for `P_req`).
    pub arch: Arch,
    /// Hypervisor (for `P_req`).
    pub hypervisor: Hypervisor,
    /// Reliability factor `F_rel ∈ [0, 1]`: fraction of time the node is up
    /// (§III-A.6). 1.0 = never fails.
    pub reliability: f64,
}

impl HostSpec {
    /// The paper's standard 4-way node of a given class.
    pub fn standard(id: HostId, class: HostClass) -> Self {
        HostSpec {
            id,
            class,
            cpu: Cpu::cores(4),
            mem: Mem::gib(16),
            arch: Arch::X86_64,
            hypervisor: Hypervisor::Xen,
            reliability: 1.0,
        }
    }

    /// Total resource capacity.
    pub fn capacity(&self) -> Resources {
        Resources::new(self.cpu, self.mem)
    }

    /// Whether this host satisfies a job's hardware/software requirements
    /// (the `P_req` feasibility check, §III-A.1).
    pub fn satisfies(&self, req: &Requirements) -> bool {
        req.arch.is_none_or(|a| a == self.arch)
            && req.hypervisor.is_none_or(|h| h == self.hypervisor)
            && self.cpu.points() / 100 >= req.min_host_cpus
    }
}

/// Power state of a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Powered down (draws no power).
    Off,
    /// Booting; usable at `ready_at`.
    Booting {
        /// Instant the boot completes.
        ready_at: SimTime,
    },
    /// Up and able to host VMs.
    On,
    /// Shutting down; off at `off_at`.
    ShuttingDown {
        /// Instant the shutdown completes.
        off_at: SimTime,
    },
    /// Crashed; requires repair before it can boot again.
    Failed,
}

impl PowerState {
    /// Host is drawing power (anything but fully off/failed).
    pub fn draws_power(self) -> bool {
        !matches!(self, PowerState::Off | PowerState::Failed)
    }

    /// Host counts as *online* for the λ on/off thresholds (§III-C):
    /// powered or committed to power (booting).
    pub fn is_online(self) -> bool {
        matches!(self, PowerState::On | PowerState::Booting { .. })
    }

    /// Host can accept and run VMs right now.
    pub fn is_ready(self) -> bool {
        matches!(self, PowerState::On)
    }
}

/// Kind of in-flight virtualization operation on a host (for `P_conc`,
/// §III-A.3: concurrent operations race for disk/CPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// VM creation.
    Create,
    /// Incoming migration (this host is the destination).
    MigrateIn {
        /// Source host.
        from: HostId,
    },
    /// Outgoing migration (this host is the source).
    MigrateOut {
        /// Destination host.
        to: HostId,
    },
    /// Checkpoint write.
    Checkpoint,
}

/// An in-flight operation, tracked on each involved host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightOp {
    /// The VM being operated on.
    pub vm: VmId,
    /// Operation kind.
    pub kind: OpKind,
    /// Start instant.
    pub started: SimTime,
    /// Completion instant.
    pub ends: SimTime,
    /// CPU the operation consumes on this host while in flight
    /// (dom0 work: copying memory pages, unpacking images…).
    pub cpu_overhead: Cpu,
    /// Cluster-wide monotonic identity. Completion/abort events carry it
    /// so a stale event cannot be mistaken for a later operation on the
    /// same VM that happens to share a timestamp.
    pub seq: u64,
}

impl InFlightOp {
    /// Nominal duration cost of the operation, used by `P_conc`.
    pub fn cost(&self) -> SimDuration {
        self.ends.saturating_since(self.started)
    }
}

impl Persist for HostClass {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            HostClass::Fast => 0,
            HostClass::Medium => 1,
            HostClass::Slow => 2,
        });
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(HostClass::Fast),
            1 => Ok(HostClass::Medium),
            2 => Ok(HostClass::Slow),
            t => Err(PersistError::Corrupt(format!("bad HostClass tag {t}"))),
        }
    }
}

impl Persist for HostSpec {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.id.persist(w);
        self.class.persist(w);
        self.cpu.persist(w);
        self.mem.persist(w);
        self.arch.persist(w);
        self.hypervisor.persist(w);
        w.put_f64(self.reliability);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(HostSpec {
            id: HostId::restore(r)?,
            class: HostClass::restore(r)?,
            cpu: Cpu::restore(r)?,
            mem: Mem::restore(r)?,
            arch: Arch::restore(r)?,
            hypervisor: Hypervisor::restore(r)?,
            reliability: r.get_f64()?,
        })
    }
}

impl Persist for PowerState {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match self {
            PowerState::Off => w.put_u8(0),
            PowerState::Booting { ready_at } => {
                w.put_u8(1);
                ready_at.persist(w);
            }
            PowerState::On => w.put_u8(2),
            PowerState::ShuttingDown { off_at } => {
                w.put_u8(3);
                off_at.persist(w);
            }
            PowerState::Failed => w.put_u8(4),
        }
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(PowerState::Off),
            1 => Ok(PowerState::Booting {
                ready_at: SimTime::restore(r)?,
            }),
            2 => Ok(PowerState::On),
            3 => Ok(PowerState::ShuttingDown {
                off_at: SimTime::restore(r)?,
            }),
            4 => Ok(PowerState::Failed),
            t => Err(PersistError::Corrupt(format!("bad PowerState tag {t}"))),
        }
    }
}

impl Persist for OpKind {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match self {
            OpKind::Create => w.put_u8(0),
            OpKind::MigrateIn { from } => {
                w.put_u8(1);
                from.persist(w);
            }
            OpKind::MigrateOut { to } => {
                w.put_u8(2);
                to.persist(w);
            }
            OpKind::Checkpoint => w.put_u8(3),
        }
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(OpKind::Create),
            1 => Ok(OpKind::MigrateIn {
                from: HostId::restore(r)?,
            }),
            2 => Ok(OpKind::MigrateOut {
                to: HostId::restore(r)?,
            }),
            3 => Ok(OpKind::Checkpoint),
            t => Err(PersistError::Corrupt(format!("bad OpKind tag {t}"))),
        }
    }
}

impl Persist for InFlightOp {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.vm.persist(w);
        self.kind.persist(w);
        self.started.persist(w);
        self.ends.persist(w);
        self.cpu_overhead.persist(w);
        w.put_u64(self.seq);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(InFlightOp {
            vm: VmId::restore(r)?,
            kind: OpKind::restore(r)?,
            started: SimTime::restore(r)?,
            ends: SimTime::restore(r)?,
            cpu_overhead: Cpu::restore(r)?,
            seq: r.get_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_constants_match_paper() {
        assert_eq!(HostClass::Fast.creation_cost(), SimDuration::from_secs(30));
        assert_eq!(HostClass::Fast.migration_cost(), SimDuration::from_secs(40));
        assert_eq!(
            HostClass::Medium.creation_cost(),
            SimDuration::from_secs(40)
        );
        assert_eq!(
            HostClass::Medium.migration_cost(),
            SimDuration::from_secs(60)
        );
        assert_eq!(HostClass::Slow.creation_cost(), SimDuration::from_secs(60));
        assert_eq!(HostClass::Slow.migration_cost(), SimDuration::from_secs(80));
    }

    #[test]
    fn all_lists_every_class_once() {
        // No wildcard arm: a new variant stops this from compiling. Give
        // it the next index and append it to `ALL`, whose cheapest
        // migration cost floors the scheduler's `P_virt`.
        let index = |class: HostClass| match class {
            HostClass::Fast => 0,
            HostClass::Medium => 1,
            HostClass::Slow => 2,
        };
        for (i, &class) in HostClass::ALL.iter().enumerate() {
            assert_eq!(index(class), i, "{class:?}");
        }
    }

    #[test]
    fn standard_host_is_four_way() {
        let h = HostSpec::standard(HostId(0), HostClass::Medium);
        assert_eq!(h.cpu, Cpu(400));
        assert_eq!(h.capacity().cpu.points(), 400);
        assert_eq!(h.reliability, 1.0);
    }

    #[test]
    fn requirement_satisfaction() {
        let h = HostSpec::standard(HostId(0), HostClass::Fast);
        assert!(h.satisfies(&Requirements::ANY));
        assert!(h.satisfies(&Requirements {
            arch: Some(Arch::X86_64),
            hypervisor: Some(Hypervisor::Xen),
            min_host_cpus: 4,
        }));
        assert!(!h.satisfies(&Requirements {
            arch: Some(Arch::Ppc64),
            ..Requirements::ANY
        }));
        assert!(!h.satisfies(&Requirements {
            hypervisor: Some(Hypervisor::Kvm),
            ..Requirements::ANY
        }));
        assert!(!h.satisfies(&Requirements {
            min_host_cpus: 8,
            ..Requirements::ANY
        }));
    }

    #[test]
    fn power_state_predicates() {
        let t = SimTime::from_secs(10);
        assert!(!PowerState::Off.draws_power());
        assert!(!PowerState::Failed.draws_power());
        assert!(PowerState::Booting { ready_at: t }.draws_power());
        assert!(PowerState::Booting { ready_at: t }.is_online());
        assert!(!PowerState::Booting { ready_at: t }.is_ready());
        assert!(PowerState::On.is_ready());
        assert!(!PowerState::ShuttingDown { off_at: t }.is_online());
        assert!(PowerState::ShuttingDown { off_at: t }.draws_power());
    }

    #[test]
    fn op_cost_is_duration() {
        let op = InFlightOp {
            vm: VmId(1),
            kind: OpKind::Create,
            started: SimTime::from_secs(5),
            ends: SimTime::from_secs(45),
            cpu_overhead: Cpu(50),
            seq: 0,
        };
        assert_eq!(op.cost(), SimDuration::from_secs(40));
    }
}
