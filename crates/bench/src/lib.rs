//! # mcloud-bench
//!
//! The experiment layer: one function per table/figure of the paper's
//! evaluation (Section 6), run by the `repro` binary (which prints the
//! paper-style series and writes CSV), the paper's claims checked against
//! those tables (`claims`), plus the allocation-counting baseline behind
//! `repro bench-json`.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the one allocator module needs an
// `allow(unsafe_code)` override for its `GlobalAlloc` impl.
#![deny(unsafe_code)]

pub mod alloc;
pub mod baseline;
pub mod claims;
pub mod experiments;

use std::path::PathBuf;

/// Every binary in this crate counts its allocations, so the baseline
/// runner can report exact per-simulation allocation budgets.
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Directory where `repro` writes its CSV outputs (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results")
}
