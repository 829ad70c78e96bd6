//! # mcloud-montage
//!
//! Synthetic generator for the Montage mosaic workflows the SC'08 paper
//! simulates (1°/2°/4° square mosaics of M17 with 203/731/3,027 tasks).
//!
//! The paper drove its simulator with real mDAG-produced workflow
//! descriptions plus task runtimes and file sizes measured on real runs.
//! Those traces are not publicly archived, so this crate substitutes a
//! parametric generator that reproduces:
//!
//! * the exact DAG shape (the nine-stage Montage pipeline, fan-out over
//!   input plates and overlap pairs),
//! * the exact canonical task counts (203 / 731 / 3,027),
//! * the paper's mosaic sizes (173.46 MB / 557.9 MB / 2.229 GB),
//! * calibrated totals: CPU-time sums, serial makespans, and CCR in the
//!   paper's reported band (see [`calib`] for the fit table).
//!
//! ```
//! use mcloud_montage::{montage_1_degree, MosaicConfig, generate};
//!
//! let wf = montage_1_degree();
//! assert_eq!(wf.num_tasks(), 203);
//!
//! // Arbitrary request sizes work too:
//! let wf3 = generate(&MosaicConfig::new(3.0).region("Orion"));
//! assert!(wf3.num_tasks() > 1000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calib;
mod generator;
mod grid;
mod trace;

pub use generator::{
    generate, montage_16_degree, montage_1_degree, montage_2_degree, montage_4_degree,
    montage_8_degree, paper_figure3, shape_memo_stats, Band, MosaicConfig, ShapeMemoStats,
    MONTAGE_PIPELINE, SHAPE_MEMO_BYTES,
};
pub use grid::{overlap_count, overlap_pairs, Plate};
pub use trace::{apply_runtime_overrides, apply_size_overrides};
