//! # ewc-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each exposing a
//! `run()` that produces typed rows, plus formatters that print the same
//! tables the paper reports. One registry,
//! [`experiments::EXPERIMENTS`], names every experiment for `ewc run`;
//! benches under `benches/` (driven by the in-workspace [`harness`])
//! time the underlying simulations; the root `tests/` directory asserts
//! the headline *shapes* (who wins, by roughly what factor, where the
//! crossovers fall).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod experiments;
pub mod harness;
pub mod microbench;
pub mod mix;
pub mod report;
pub mod setups;

pub use mix::Mix;
pub use setups::{
    four_way, run_cpu, run_dynamic, run_dynamic_with, run_manual, run_serial, FourWay, SetupResult,
};
