//! # eards-metrics — time-weighted statistics and experiment reporting
//!
//! Measurement layer of the EARDS reproduction of Goiri et al. (CLUSTER
//! 2010). The evaluation (§V) reports, per run: average working/online
//! nodes, CPU hours, power consumption (kWh), client satisfaction `S`,
//! relative delay, and migration counts. This crate provides:
//!
//! * [`TimeSeries`] / [`TimeWeighted`] — exact integrals and time-weighted
//!   means of piecewise-constant signals (power, node counts);
//! * [`satisfaction`] / [`delay_pct`] — the paper's deadline-based QoS
//!   metric;
//! * [`Summary`] — streaming mean/std with parallel merge;
//! * [`RunReport`] — one run's results in the paper's table shape;
//! * [`Table`] — Markdown/CSV rendering for the experiment binaries;
//! * [`PricingModel`] — provider economics (revenue, SLA credits, energy
//!   cost, profit) over a run, for the revenue extension.

#![warn(missing_docs)]

mod ascii;
mod economics;
mod report;
mod satisfaction;
mod series;
mod summary;
mod table;

pub use ascii::{heatmap, sparkline, sparkline_fit};
pub use economics::{EconomicReport, PricingModel};
pub use report::{pct_change, FaultStats, JobOutcome, RunReport};
pub use satisfaction::{delay_pct, satisfaction};
pub use series::{SeriesPoint, TimeSeries, TimeWeighted};
pub use summary::{percentile, Summary};
pub use table::{fnum, Table};
