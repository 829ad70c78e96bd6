//! # mcloud-cli
//!
//! The `mcloud` command-line planner: simulate execution plans, sweep and
//! recommend provisioning, generate DAX workflows, analyze them, run the
//! paper's economics, and simulate service traffic with cloud bursting.
//!
//! All command logic lives in [`run`], a pure function from argv to a
//! report string, so the CLI is fully unit-tested in-process.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod commands;
mod serve;

pub use args::Args;
pub use commands::{run, USAGE};
