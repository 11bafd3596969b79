//! # eards-model — the virtualized-datacenter model
//!
//! The world the simulation acts on, reproducing §IV of Goiri et al.
//! (CLUSTER 2010): physical hosts with power states and virtualization
//! overheads, VMs encapsulating HPC jobs, Xen-credit CPU sharing, and the
//! calibrated power model of Table I.
//!
//! * [`Cluster`] — the mutable world state: placements, the virtual-host
//!   queue, in-flight create/migrate/checkpoint operations, failures.
//! * [`Job`] / [`Vm`] — work and its encapsulation; progress accrues at
//!   the *allocated* CPU rate, so contention slows jobs and endangers
//!   deadlines.
//! * [`HostSpec`] / [`HostClass`] — the paper's fast/medium/slow node
//!   classes with their creation and migration costs.
//! * [`xen`] — weighted max–min (credit-scheduler) CPU allocation.
//! * [`PowerModel`] — Table I piecewise-linear calibration plus constant
//!   and energy-proportional variants for ablations.
//! * [`Policy`] — the interface every scheduling policy implements
//!   (`eards-policies` for the baselines, `eards-core` for the paper's
//!   score-based scheduler).

#![warn(missing_docs)]

mod cluster;
mod fault;
mod host;
mod ids;
mod job;
mod policy;
mod power;
mod shard;
mod units;
mod vm;
mod vm_table;
pub mod xen;

pub use cluster::{
    Cluster, Host, CHECKPOINT_CPU_OVERHEAD, CREATION_CPU_OVERHEAD, MIGRATION_CPU_OVERHEAD,
};
pub use fault::{FaultPlan, RackPlan, RecoveryPolicy, SlowdownPlan};
pub use host::{HostClass, HostSpec, InFlightOp, OpKind, PowerState};
pub use ids::{HostId, JobId, VmId};
pub use job::{Arch, Hypervisor, Job, Requirements};
pub use policy::{Action, DegradeStats, Policy, ScheduleContext, ScheduleReason};
pub use power::{
    CalibratedPowerModel, ConstantPowerModel, DvfsPowerModel, EnergyProportionalModel, PowerModel,
};
pub use shard::{ShardMap, ShardSpec};
pub use units::{Cpu, Mem, Resources};
pub use vm::{FinishedVm, Vm, VmState, MIGRATION_SLOWDOWN};

// The snapshot codec, re-exported so policy implementations and the
// datacenter driver speak one `Persist` vocabulary without a direct
// `eards-sim` dependency at every use site.
pub use eards_sim::{Persist, PersistError, Reader, Writer};
