//! Randomized-property tests of the Montage workload generator across
//! request sizes and seeds.

use mcloud_montage::{generate, overlap_count, overlap_pairs, MosaicConfig};

const CASES: u64 = 32;

/// Deterministic per-case value in `[lo, hi)`.
fn param(case: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (case as f64 + 0.5) / CASES as f64
}

/// A well-mixed per-case seed (SplitMix64 finalizer).
fn seed(case: u64) -> u64 {
    let mut z = case.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The structural count formulas hold for any degree: tasks = 2N+D+6,
/// files = 5N+D+7.
#[test]
fn count_formulas_hold() {
    for case in 0..CASES {
        let deg = param(case, 0.3, 5.0);
        let cfg = MosaicConfig::new(deg).seed(seed(case));
        let wf = generate(&cfg);
        assert_eq!(wf.num_tasks(), cfg.expected_tasks(), "case {case}");
        assert_eq!(wf.num_files(), cfg.expected_files(), "case {case}");
        let n = cfg.plates() as usize;
        let d = overlap_count(cfg.side()) as usize;
        assert_eq!(wf.num_tasks(), 2 * n + d + 6, "case {case}");
    }
}

/// Structure is seed-independent; only runtimes/sizes jitter, and within
/// their configured bands.
#[test]
fn jitter_stays_in_band() {
    for case in 0..CASES {
        let deg = [0.5f64, 1.0, 2.0][(case % 3) as usize];
        let base = generate(&MosaicConfig::new(deg).seed(0));
        let other = generate(&MosaicConfig::new(deg).seed(seed(case)));
        assert_eq!(base.num_tasks(), other.num_tasks(), "case {case}");
        assert_eq!(base.depth(), other.depth(), "case {case}");
        for (a, b) in base.tasks().zip(other.tasks()) {
            assert_eq!(&a.name, &b.name, "case {case}");
            assert_eq!(&a.module, &b.module, "case {case}");
            // Runtime jitter is +-15% around the same mean.
            let ratio = a.runtime_s / b.runtime_s;
            assert!(
                (0.7..=1.43).contains(&ratio),
                "case {case} {}: {ratio}",
                a.name
            );
        }
        // Totals stay within a band of each other (wider for the small
        // 0.5-degree workflow, whose wide levels hold only ~16 tasks).
        let rt_ratio = base.total_runtime_s() / other.total_runtime_s();
        assert!(
            (0.90..=1.11).contains(&rt_ratio),
            "case {case}: ratio {rt_ratio}"
        );
    }
}

/// Workflows grow monotonically with request size: more tasks, more data,
/// more total runtime.
#[test]
fn monotone_in_degrees() {
    for case in 0..CASES {
        let lo = param(case, 0.4, 2.0);
        let hi = lo + param(CASES - 1 - case, 0.5, 2.0);
        let small = generate(&MosaicConfig::new(lo));
        let large = generate(&MosaicConfig::new(hi));
        assert!(large.num_tasks() >= small.num_tasks(), "case {case}");
        assert!(large.total_bytes() > small.total_bytes(), "case {case}");
        assert!(
            large.total_runtime_s() > small.total_runtime_s(),
            "case {case}"
        );
    }
}

/// Every generated workflow has the canonical Montage shape: 9 levels,
/// mProject at level 1, mJPEG at level 9, single mosaic deliverable.
#[test]
fn shape_is_canonical() {
    for case in 0..CASES {
        let deg = param(case, 0.3, 4.5);
        let wf = generate(&MosaicConfig::new(deg).seed(seed(case)));
        assert_eq!(wf.depth(), 9, "case {case}");
        let levels = wf.levels();
        for t in wf.task_ids() {
            let task = wf.task(t);
            let expect = match task.module {
                "mProject" => 1,
                "mDiffFit" => 2,
                "mConcatFit" => 3,
                "mBgModel" => 4,
                "mBackground" => 5,
                "mImgtbl" => 6,
                "mAdd" => 7,
                "mShrink" => 8,
                "mJPEG" => 9,
                other => panic!("case {case}: unexpected module {other}"),
            };
            assert_eq!(levels[t.index()], expect, "case {case} {}", task.name);
        }
        let delivered = wf.staged_out_files();
        assert_eq!(delivered.len(), 2, "case {case}"); // mosaic + jpeg
    }
}

/// Overlap pairs remain unique valid neighbor pairs at any side.
#[test]
fn overlap_graph_valid() {
    for side in 2u32..40 {
        let pairs = overlap_pairs(side);
        assert_eq!(pairs.len() as u32, overlap_count(side), "side {side}");
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert((a.index(side), b.index(side))), "side {side}");
            let dr = b.row as i64 - a.row as i64;
            let dc = b.col as i64 - a.col as i64;
            assert!(matches!((dr, dc), (0, 1) | (1, 0) | (1, 1)), "side {side}");
        }
    }
}

/// The CCR falls in a narrow, size-stable band: the paper's Montage is
/// compute-heavy (CCR ~ 0.05) at every scale we generate.
#[test]
fn ccr_band_is_stable() {
    for case in 0..CASES {
        let deg = param(case, 0.5, 4.5);
        let wf = generate(&MosaicConfig::new(deg));
        let ccr = wf.ccr_at_link(10e6);
        assert!((0.03..=0.08).contains(&ccr), "CCR {ccr} at {deg} deg");
    }
}
