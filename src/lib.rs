//! # EARDS — Energy-Aware scheduling in viRtualized DatacenterS
//!
//! A from-scratch Rust reproduction of Goiri, Julià, Nou, Berral, Guitart
//! & Torres, *"Energy-aware Scheduling in Virtualized Datacenters"*,
//! IEEE CLUSTER 2010 (DOI 10.1109/CLUSTER.2010.15).
//!
//! This facade crate re-exports the whole stack so applications (and the
//! `examples/` in this repository) can depend on one crate:
//!
//! * [`sim`] — deterministic discrete-event engine (the OMNeT++
//!   substitute of §IV);
//! * [`model`] — hosts, VMs, Xen-credit CPU sharing, the Table-I power
//!   model, failures;
//! * [`workload`] — synthetic Grid5000-like traces, SWF parsing, the
//!   Fig.-1 validation scenario;
//! * [`policies`] — the baselines: Random, Round-Robin, Backfilling,
//!   Dynamic Backfilling;
//! * [`core`] — the paper's contribution: the score-based scheduler
//!   (seven penalties + hill-climbing matrix solver);
//! * [`metrics`] — time-weighted statistics, the deadline-based SLA
//!   metric, run reports;
//! * [`datacenter`] — the end-to-end driver and parallel sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use eards::prelude::*;
//!
//! // A small datacenter, a day of synthetic grid load, the paper's
//! // score-based policy — and one call to simulate the whole thing.
//! let hosts = eards::datacenter::small_datacenter(8, HostClass::Medium);
//! let trace = eards::workload::generate(
//!     &SynthConfig {
//!         span: SimDuration::from_hours(6),
//!         ..SynthConfig::grid5000_week()
//!     },
//!     42,
//! );
//! let policy = Box::new(ScoreScheduler::new(ScoreConfig::sb()));
//! let report = Runner::new(hosts, trace, policy, RunConfig::default()).run();
//! assert!(report.jobs_total > 0);
//! assert!(report.energy_kwh > 0.0);
//! ```

pub use eards_core as core;
pub use eards_datacenter as datacenter;
pub use eards_metrics as metrics;
pub use eards_model as model;
pub use eards_policies as policies;
pub use eards_sim as sim;
pub use eards_workload as workload;

/// The names most programs need, in one import.
pub mod prelude {
    pub use eards_core::{ScoreConfig, ScoreScheduler};
    pub use eards_datacenter::{
        lambda_grid, paper_datacenter, run_sweep, AuditorMode, RunConfig, Runner, SweepPoint,
    };
    pub use eards_metrics::{FaultStats, RunReport, Table};
    pub use eards_model::{
        Action, CalibratedPowerModel, Cluster, Cpu, FaultPlan, HostClass, HostId, HostSpec, Job,
        JobId, Mem, Policy, PowerModel, PowerState, RackPlan, RecoveryPolicy, ScheduleContext,
        ScheduleReason, SlowdownPlan, VmId, VmState,
    };
    pub use eards_policies::{
        BackfillingPolicy, DynamicBackfillingPolicy, RandomPolicy, RoundRobinPolicy,
    };
    pub use eards_sim::{SimDuration, SimRng, SimTime};
    pub use eards_workload::{generate, parse_swf, SynthConfig, Trace};
}
