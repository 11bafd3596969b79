//! # eards-sim — deterministic discrete-event simulation engine
//!
//! The simulation substrate of the EARDS reproduction of *"Energy-aware
//! Scheduling in Virtualized Datacenters"* (Goiri et al., CLUSTER 2010).
//! The paper builds its power-aware datacenter simulator on OMNeT++ (§IV);
//! this crate provides the equivalent foundation in pure Rust:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point (millisecond) simulated
//!   time, so event ordering is exact and runs never drift.
//! * [`EventQueue`] — a future-event list with FIFO tie-breaking at equal
//!   timestamps and O(log n) lazy cancellation. The model that drives it
//!   owns the clock and its own event type.
//! * [`SimRng`] — a seedable PRNG with the distribution samplers the model
//!   needs (Normal, LogNormal, Exponential, Weibull, bounded Pareto), plus
//!   `fork` for decorrelated per-subsystem streams.
//! * [`Persist`] — the snapshot trait and its versioned, length-prefixed
//!   binary codec ([`Writer`] / [`Reader`]), so a run can be checkpointed
//!   and resumed bit-identically.
//!
//! Everything above the engine (hosts, VMs, power) lives in `eards-model`;
//! everything in the paper's evaluation (policies, the score-based
//! scheduler) lives in `eards-policies` / `eards-core`.
//!
//! ## Example
//!
//! ```
//! use eards_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Event { Tick(u32) }
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(1), Event::Tick(0));
//! let mut ticks = 0u32;
//! while let Some((now, _, Event::Tick(i))) = queue.pop() {
//!     if now >= SimTime::from_secs(10) {
//!         break;
//!     }
//!     ticks += 1;
//!     queue.schedule(now + SimDuration::from_secs(2), Event::Tick(i + 1));
//! }
//! assert_eq!(ticks, 5); // t = 1, 3, 5, 7, 9
//! ```

#![warn(missing_docs)]

mod int_hash;
mod persist;
mod queue;
mod rng;
mod time;

pub use int_hash::{IntBuildHasher, IntHasher};
pub use persist::{
    read_header, write_atomic, write_header, Persist, PersistError, Reader, Writer, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use queue::{EventHandle, EventQueue};
pub use rng::SimRng;
pub use time::{
    SimDuration, SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR, MILLIS_PER_MIN, MILLIS_PER_SEC,
    MILLIS_PER_WEEK,
};
