//! # eards-datacenter — the end-to-end simulation driver
//!
//! Ties the EARDS stack together: the DES engine (`eards-sim`), the
//! datacenter model (`eards-model`), a workload (`eards-workload`) and a
//! scheduling policy (`eards-policies` baselines or the `eards-core`
//! score-based scheduler) become one runnable experiment producing a
//! [`eards_metrics::RunReport`].
//!
//! * [`Runner`] — one simulation run: arrivals → scheduling rounds →
//!   creations/migrations with jittered overheads → Xen CPU sharing →
//!   completions, plus the λ_min/λ_max node power controller (§III-C),
//!   optional failure injection and dynamic SLA enforcement.
//! * [`RunConfig`] / [`paper_datacenter`] — the paper's §V setup (100
//!   nodes: 15 fast / 50 medium / 35 slow).
//! * [`FaultEngine`] / [`InvariantAuditor`] — the chaos layer: pluggable
//!   fault injection ([`eards_model::FaultPlan`]) with per-host, per-class
//!   RNG streams, and an always-on conservation auditor.
//! * [`run_sweep`] / [`lambda_grid`] — the thread-parallel executor of
//!   independent runs (each [`SweepPoint`] carries its policy), and the
//!   Figure 2/3 threshold grid.

#![warn(missing_docs)]

mod audit;
mod config;
mod faults;
mod invariants;
mod runner;
mod sweep;

pub use audit::{render_log, AuditEvent, AuditKind};
pub use config::{paper_datacenter, small_datacenter, AdaptiveLambda, AuditorMode, RunConfig};
pub use faults::FaultEngine;
pub use invariants::InvariantAuditor;
pub use runner::{RunProgress, Runner};
pub use sweep::{lambda_grid, run_sweep, SweepPoint};
