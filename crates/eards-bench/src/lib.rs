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
//! | [`exp_ablation_powermodel`] | ablation: SB's savings under other power curves |
//! | [`exp_economics`] | extension: revenue, SLA credits, energy and profit |
//! | [`exp_robustness`] | the Table IV headline across trace seeds |
//! | [`exp_obs`] | engine: observability overhead + bit-identity gate |
//! | [`exp_lint`] | engine: wall-time budget of one `eards lint` pass |
//! | [`exp_snapshot`] | engine: snapshot + restore budget, week-end snapshot size |
//!
//! Each module names its id in a `const ID`. The one driver, the
//! `run_all` binary over [`driver`], runs the experiments named by id
//! (all of them by default), prints and writes each section, writes its
//! `BENCH_*.json` baseline ([`common::Baseline`], the one envelope every
//! baseline shares) and exits non-zero on a violated shape check or a
//! baseline whose deterministic part drifted.
//! The other binary, `sweep_timing`, times the `eards` executable's
//! sweep farm. Microbenches of the engine/solver live under `benches/`;
//! they and the timing experiments read the wall clock only through
//! [`timing`].

#![warn(missing_docs)]

pub mod common;
pub mod driver;
pub mod exp_ablation_adaptive;
pub mod exp_ablation_powermodel;
pub mod exp_ablation_reliability;
pub mod exp_ablation_sla;
pub mod exp_chaos;
pub mod exp_degrade;
pub mod exp_economics;
pub mod exp_fig1;
pub mod exp_fig23;
pub mod exp_lint;
pub mod exp_obs;
pub mod exp_robustness;
pub mod exp_snapshot;
pub mod exp_table1;
pub mod exp_table2;
pub mod exp_table3;
pub mod exp_table4;
pub mod exp_table5;
pub mod timing;

pub use common::{make_policy, paper_trace, ExperimentResult, TRACE_SEED};
