//! # eards-core — the Score-Based Scheduler
//!
//! The primary contribution of Goiri et al. (CLUSTER 2010), §III: a
//! power-aware VM scheduling policy that assigns every ⟨host, VM⟩ pair a
//! score summing seven penalties —
//!
//! * `P_req` — hardware/software requirements (∞ if unsatisfiable),
//! * `P_res` — resource requirements (∞ if occupation would exceed 100%),
//! * `P_virt` — VM creation and migration overheads, with the
//!   remaining-time discount that pins soon-finishing VMs,
//! * `P_conc` — concurrency of in-flight operations on a host,
//! * `P_pwr` — the consolidation force: `T_empty·C_e − O·C_f`,
//! * `P_SLA` — dynamic SLA enforcement (paper extension),
//! * `P_fault` — node reliability (paper extension),
//!
//! then hill-climbs the `(M+1)×N` matrix (Algorithm 1) applying the most
//! beneficial move until convergence or an iteration cap.
//!
//! The hill climb runs on one *incremental* engine ([`solve_sharded`]; a
//! plain [`solve`] is its single-shard form): cells are cached in
//! struct-of-arrays form, a move invalidates exactly the two affected
//! host rows, and per-column candidate lists are maintained instead of
//! rescanned — see [`shard`]'s module docs. [`solve_reference`] keeps the
//! original full-rescan algorithm as a differential-testing oracle.
//!
//! [`ScoreScheduler`] implements [`eards_model::Policy`] and is
//! instantiated via [`ScoreConfig`] as the paper's SB0 / SB1 / SB2 / SB
//! variants.

#![warn(missing_docs)]

pub mod budget;
mod config;
mod eval;
mod scheduler;
mod score;
pub mod shard;
mod solver;

pub use budget::{DegradeLevel, OverloadControl, WorkMeter};
pub use config::ScoreConfig;
pub use eval::{
    queue_has_feasible_cell, CellStatic, Eval, EvalBuffers, MigrationCheck, ScoreBreakdown,
};
pub use scheduler::{row_score, ScoreScheduler};
pub use score::Score;
pub use shard::{solve_sharded, ShardedOutcome};
pub use solver::{solve, solve_reference, Move, Solution};
