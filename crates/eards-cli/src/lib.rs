//! # eards-cli — command-line interface to the EARDS simulator
//!
//! ```text
//! eards run --paper-dc --days 7 --policy sb --lambda-min 40 --economics
//! eards compare --policies bf,dbf,sb --paper-dc --days 7
//! eards sweep --lambda-min-grid 10,30,50 --lambda-max-grid 70,90
//! eards sweep --seeds 1,2,3 --policies bf,sb --chaos-grid 0,1 --jobs 4 --sweep-out out/
//! eards trace generate --days 7 --out week.swf
//! eards trace info week.swf
//! ```
//!
//! `eards sweep` runs a seed × policy × chaos × λ grid (see [`farm`]).
//!
//! Argument parsing is hand-rolled (see [`args`]) to keep the dependency
//! set to the workspace crates.

#![warn(missing_docs)]

pub mod args;
pub mod checkpoint;
pub mod commands;
pub mod farm;
pub mod lint;
pub mod setup;

pub use commands::{dispatch, USAGE};
pub use setup::CliError;
