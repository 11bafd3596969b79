//! Crash-tolerant sweep farm: a supervised multi-process what-if engine.
//!
//! This crate turns a seed × policy × chaos × λ grid into a fleet of
//! worker processes and merges their results deterministically:
//!
//! - [`grid`] enumerates the shards in a stable order (= merge order),
//!   so a worker told its shard index rebuilds the same shard;
//! - [`protocol`] is the worker → supervisor stdout line protocol, where
//!   every line is also a heartbeat;
//! - [`supervisor`] spawns workers, SIGKILLs hangs, retries crashes with
//!   exponential backoff (resuming from checkpoints when one survives),
//!   and quarantines shards that exhaust the retry budget;
//! - [`result`] renders each shard's report exactly once, in the process
//!   that ran it;
//! - [`mod@merge`] concatenates rendered rows in grid order, so a parallel
//!   run's merged report is byte-identical to a serial run's.
//!
//! The crate knows nothing about the simulator itself: workers are
//! opaque processes launched from a [`supervisor::WorkerPlan`]. The
//! `eards` CLI provides the actual worker (`sweep-worker` subcommand)
//! and the user-facing `sweep` front-end.

pub mod grid;
pub mod merge;
pub mod protocol;
pub mod result;
pub mod supervisor;

pub use grid::{ShardSpec, SweepGrid};
pub use merge::{merge, MergeEntry, MergedReport, ShardStatus};
pub use result::{render, render_quarantined, ShardRendered, CSV_HEADER};
pub use supervisor::{ckpt_path, run_farm, FarmConfig, ShardOutcome, WorkerPlan};
