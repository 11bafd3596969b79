//! # eards-bench — the experiment harness
//!
//! One experiment module per table/figure of the paper's evaluation, each
//! regenerating the corresponding result over the EARDS stack:
//!
//! | Module | Paper result |
//! |--------|--------------|
//! | [`exp_table1`] | Table I — server power vs CPU configuration |
//! | [`exp_fig1`] | Fig. 1 — simulator validation |
//! | [`exp_fig23`] | Figs. 2–3 — (λ_min, λ_max) threshold surfaces |
//! | [`exp_table2`] | Table II — static policies |
//! | [`exp_table3`] | Table III — virtualization-overhead penalties |
//! | [`exp_table4`] | Table IV — migration (the −15% headline) |
//! | [`exp_table5`] | Table V — consolidation-cost sweep |
//! | [`exp_ablation_reliability`] | extension: failures, checkpointing, `P_fault` |
//! | [`exp_chaos`] | chaos engine: full fault plan at escalating intensities |
//! | [`exp_degrade`] | engine: work-budget boundedness + ladder quality loss |
//! | [`exp_ablation_sla`] | extension: overload + dynamic SLA enforcement |
//! | [`exp_ablation_adaptive`] | extension: dynamic λ thresholds (future work of §V-A) |
//! | [`exp_solver_timing`] | engine: incremental hill climb vs full-rescan reference |
//! | [`exp_obs`] | engine: observability overhead + bit-identity gate |
//!
//! Binaries under `src/bin/` wrap these one-to-one; `run_all` regenerates
//! everything and rebuilds `EXPERIMENTS.md`. Criterion microbenches of the
//! engine/solver live under `benches/`.

#![warn(missing_docs)]

pub mod common;
pub mod exp_ablation_adaptive;
pub mod exp_ablation_powermodel;
pub mod exp_ablation_reliability;
pub mod exp_ablation_sla;
pub mod exp_chaos;
pub mod exp_degrade;
pub mod exp_economics;
pub mod exp_fig1;
pub mod exp_fig23;
pub mod exp_obs;
pub mod exp_robustness;
pub mod exp_solver_timing;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_table4;
pub mod exp_table5;

pub use common::{emit, make_policy, paper_trace, ExperimentResult, TRACE_SEED};
