//! Pins the memoized generator to the builder-only one it replaced.
//!
//! `generate` builds each mosaic shape once per (degrees, band, region)
//! and fills only the seeded runtimes and sizes per call. The reference
//! below is the generator as it was before the shape memo, kept verbatim:
//! every request goes through `WorkflowBuilder`. Every column of the two
//! workflows must match bit for bit, on cold and warm calls and with
//! several threads generating the same shapes at once.

use std::fmt::Write as _;
use std::sync::Arc;

use mcloud_core::fingerprint_workflow;
use mcloud_dag::{DagError, Workflow, WorkflowBuilder};
use mcloud_montage::{calib, generate, overlap_pairs, Band, MosaicConfig};
use mcloud_simkit::SimRng;

/// The generator before the shape memo, verbatim.
fn reference_generate(cfg: &MosaicConfig) -> Workflow {
    let side = cfg.side();
    let n = cfg.plates();
    let pairs = overlap_pairs(side);
    let phi = calib::runtime_factor(cfg.degrees);
    let mut rng = SimRng::new(cfg.seed);
    let (region, band) = (&cfg.region, cfg.band.tag());

    let mut b = WorkflowBuilder::with_capacity(
        format!("montage_{region}_{}deg_{band}", cfg.degrees),
        cfg.expected_tasks(),
        cfg.expected_files(),
    );
    let mut buf = String::new();
    // `name!(...)` formats into `buf` and borrows the result.
    macro_rules! name {
        ($($fmt:tt)*) => {{
            buf.clear();
            write!(buf, $($fmt)*).expect("formatting into a String cannot fail");
            buf.as_str()
        }};
    }

    let jit_rt = |rng: &mut SimRng| 1.0 + rng.f64_in(-calib::RUNTIME_JITTER, calib::RUNTIME_JITTER);
    let jit_sz = |rng: &mut SimRng| 1.0 + rng.f64_in(-calib::SIZE_JITTER, calib::SIZE_JITTER);
    let scaled = |bytes: u64, j: f64| ((bytes as f64 * j).round() as u64).max(1);

    // --- files ------------------------------------------------------------
    let hdr = b.file(name!("{region}.hdr"), calib::HEADER_BYTES);
    let mut raw = Vec::with_capacity(n as usize);
    let mut proj = Vec::with_capacity(n as usize);
    let mut area = Vec::with_capacity(n as usize);
    let mut corr = Vec::with_capacity(n as usize);
    let mut carea = Vec::with_capacity(n as usize);
    for i in 0..n {
        let j = jit_sz(&mut rng);
        raw.push(b.file(
            name!("2mass_{band}_{region}_{i:04}.fits"),
            scaled(calib::RAW_IMAGE_BYTES, j),
        ));
        proj.push(b.file(
            name!("proj_{i:04}.fits"),
            scaled(calib::PROJECTED_IMAGE_BYTES, j),
        ));
        area.push(b.file(
            name!("proj_{i:04}_area.fits"),
            scaled(calib::AREA_IMAGE_BYTES, j),
        ));
        corr.push(b.file(
            name!("corr_{i:04}.fits"),
            scaled(calib::CORRECTED_IMAGE_BYTES, j),
        ));
        carea.push(b.file(
            name!("corr_{i:04}_area.fits"),
            scaled(calib::CORRECTED_AREA_BYTES, j),
        ));
    }
    let fits: Vec<_> = (0..pairs.len())
        .map(|k| {
            let j = jit_sz(&mut rng);
            b.file(name!("fit_{k:05}.tbl"), scaled(calib::FIT_BYTES, j))
        })
        .collect();
    let fits_tbl = b.file(
        "fits.tbl",
        calib::FITS_TABLE_PER_DIFF_BYTES * pairs.len() as u64,
    );
    let corrections_tbl = b.file(
        "corrections.tbl",
        calib::CORRECTIONS_PER_IMAGE_BYTES * n as u64,
    );
    let newimg_tbl = b.file("newimg.tbl", calib::IMGTBL_PER_IMAGE_BYTES * n as u64);
    let mosaic_bytes = calib::mosaic_bytes(cfg.degrees);
    let mosaic = b.file(name!("mosaic_{region}.fits"), mosaic_bytes);
    let shrunk = b.file(
        name!("mosaic_{region}_small.fits"),
        (mosaic_bytes / calib::SHRINK_DIVISOR).max(1),
    );
    let jpeg = b.file(
        name!("mosaic_{region}.jpg"),
        (mosaic_bytes / calib::JPEG_DIVISOR).max(1),
    );
    b.mark_deliverable(mosaic);

    // --- tasks, level by level ---------------------------------------------
    for i in 0..n as usize {
        let rt = calib::MPROJECT_RUNTIME_S * phi * jit_rt(&mut rng);
        b.add_task(
            name!("mProject_{i:04}"),
            "mProject",
            rt,
            &[raw[i], hdr],
            &[proj[i], area[i]],
        )
        .expect("generator produces a valid mProject");
    }
    for (k, (pa, pb)) in pairs.iter().enumerate() {
        let (ia, ib) = (pa.index(side) as usize, pb.index(side) as usize);
        let rt = calib::MDIFFFIT_RUNTIME_S * phi * jit_rt(&mut rng);
        b.add_task(
            name!("mDiffFit_{k:05}"),
            "mDiffFit",
            rt,
            &[proj[ia], area[ia], proj[ib], area[ib]],
            &[fits[k]],
        )
        .expect("generator produces a valid mDiffFit");
    }
    b.add_task(
        "mConcatFit",
        "mConcatFit",
        calib::MCONCATFIT_RUNTIME_S * cfg.degrees,
        &fits,
        &[fits_tbl],
    )
    .expect("generator produces a valid mConcatFit");
    b.add_task(
        "mBgModel",
        "mBgModel",
        calib::MBGMODEL_RUNTIME_S * cfg.degrees.sqrt(),
        &[fits_tbl],
        &[corrections_tbl],
    )
    .expect("generator produces a valid mBgModel");
    for i in 0..n as usize {
        let rt = calib::MBACKGROUND_RUNTIME_S * phi * jit_rt(&mut rng);
        b.add_task(
            name!("mBackground_{i:04}"),
            "mBackground",
            rt,
            &[proj[i], area[i], corrections_tbl],
            &[corr[i], carea[i]],
        )
        .expect("generator produces a valid mBackground");
    }
    b.add_task(
        "mImgtbl",
        "mImgtbl",
        calib::MIMGTBL_RUNTIME_S * cfg.degrees,
        &corr,
        &[newimg_tbl],
    )
    .expect("generator produces a valid mImgtbl");
    let mut add_inputs: Vec<_> = corr.iter().chain(carea.iter()).copied().collect();
    add_inputs.push(newimg_tbl);
    add_inputs.push(hdr);
    b.add_task(
        "mAdd",
        "mAdd",
        calib::MADD_RUNTIME_S * cfg.degrees,
        &add_inputs,
        &[mosaic],
    )
    .expect("generator produces a valid mAdd");
    b.add_task(
        "mShrink",
        "mShrink",
        calib::MSHRINK_RUNTIME_S * cfg.degrees,
        &[mosaic],
        &[shrunk],
    )
    .expect("generator produces a valid mShrink");
    b.add_task(
        "mJPEG",
        "mJPEG",
        calib::MJPEG_RUNTIME_S * cfg.degrees,
        &[shrunk],
        &[jpeg],
    )
    .expect("generator produces a valid mJPEG");

    b.build().expect("generator produces an acyclic workflow")
}

/// Asserts that two workflows agree on every column, runtimes by bits.
fn assert_same(got: &Workflow, want: &Workflow, label: &str) {
    assert_eq!(got.name(), want.name(), "{label}: name");
    assert_eq!(got.num_tasks(), want.num_tasks(), "{label}: task count");
    assert_eq!(got.num_files(), want.num_files(), "{label}: file count");
    for (g, w) in got.tasks().zip(want.tasks()) {
        assert_eq!(g.name, w.name, "{label}: task name");
        assert_eq!(g.module, w.module, "{label}: module of {}", w.name);
        assert_eq!(
            g.runtime_s.to_bits(),
            w.runtime_s.to_bits(),
            "{label}: runtime of {}",
            w.name
        );
        assert_eq!(g.inputs, w.inputs, "{label}: inputs of {}", w.name);
        assert_eq!(g.outputs, w.outputs, "{label}: outputs of {}", w.name);
    }
    for t in want.task_ids() {
        assert_eq!(got.parents(t), want.parents(t), "{label}: parents of {t}");
        assert_eq!(
            got.children(t),
            want.children(t),
            "{label}: children of {t}"
        );
    }
    for (f, (g, w)) in want.file_ids().zip(got.files().zip(want.files())) {
        assert_eq!(g, w, "{label}: file {f}");
        assert_eq!(
            got.producer(f),
            want.producer(f),
            "{label}: producer of {f}"
        );
        assert_eq!(
            got.consumers(f),
            want.consumers(f),
            "{label}: consumers of {f}"
        );
    }
    assert_eq!(
        got.external_inputs(),
        want.external_inputs(),
        "{label}: external inputs"
    );
    assert_eq!(
        got.staged_out_files(),
        want.staged_out_files(),
        "{label}: staged-out files"
    );
    assert_eq!(
        fingerprint_workflow(got),
        fingerprint_workflow(want),
        "{label}: fingerprint"
    );
}

const DEGREES: [f64; 8] = [0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0];
const BANDS: [Band; 3] = [Band::J, Band::H, Band::K];

/// Seeds per shape: all 20 in release builds (CI runs this file with
/// `--release`); four, and two for the 4- and 8-degree shapes, in debug
/// builds, where checking them dominates the suite.
fn seeds(degrees: f64) -> u64 {
    match (cfg!(debug_assertions), degrees >= 4.0) {
        (false, _) => 20,
        (true, false) => 4,
        (true, true) => 2,
    }
}

fn config(degrees: f64, band: Band, region: &str, seed: u64) -> MosaicConfig {
    MosaicConfig::new(degrees)
        .band(band)
        .region(region)
        .seed(seed)
}

#[test]
fn cold_and_warm_calls_match_the_reference() {
    for degrees in DEGREES {
        for band in BANDS {
            for region in ["M17", "Orion"] {
                // The first call of a shape builds it (this binary's other
                // test uses other regions); the rest reuse it.
                let mut first: Option<Workflow> = None;
                for seed in 0..seeds(degrees) {
                    let cfg = config(degrees, band, region, 2008_1115 + seed * 7919);
                    let label = format!("{degrees} deg {band:?} {region} seed {}", cfg.seed);
                    let got = generate(&cfg);
                    assert_same(&got, &reference_generate(&cfg), &label);
                    match &first {
                        None => first = Some(got),
                        Some(first) => assert!(
                            Arc::ptr_eq(first.shape(), got.shape()),
                            "{label}: a warm call shares the shape"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn threads_generating_the_same_shapes_match_the_reference() {
    let shapes: Vec<(f64, Band)> = [1.0, 2.0, 4.0]
        .into_iter()
        .flat_map(|d| BANDS.map(|b| (d, b)))
        .collect();
    let shapes = &shapes;
    std::thread::scope(|scope| {
        for lane in 0..4u64 {
            scope.spawn(move || {
                for &(degrees, band) in shapes {
                    for seed in 0..5 {
                        let cfg = config(degrees, band, "M31", 100 * lane + seed);
                        let label =
                            format!("lane {lane}: {degrees} deg {band:?} seed {}", cfg.seed);
                        assert_same(&generate(&cfg), &reference_generate(&cfg), &label);
                    }
                }
            });
        }
    });
    // Whichever lane built a shape first, every later call shares it.
    for &(degrees, band) in shapes {
        let a = generate(&config(degrees, band, "M31", 1));
        let b = generate(&config(degrees, band, "M31", 2));
        assert!(Arc::ptr_eq(a.shape(), b.shape()), "{degrees} deg {band:?}");
    }
}

#[test]
fn with_values_checks_lengths_and_runtimes() {
    let wf = generate(&MosaicConfig::new(0.5));
    let runtime_s: Vec<f64> = wf.task_ids().map(|t| wf.runtime_s(t)).collect();
    let bytes: Vec<u64> = wf.file_ids().map(|f| wf.bytes(f)).collect();
    let (tasks, files) = (wf.num_tasks(), wf.num_files());

    let same = wf.with_values(runtime_s.clone(), bytes.clone()).unwrap();
    assert_same(&same, &wf, "same values");
    assert!(Arc::ptr_eq(same.shape(), wf.shape()));

    assert_eq!(
        wf.with_values(runtime_s[1..].to_vec(), bytes.clone())
            .unwrap_err(),
        DagError::ColumnLength {
            column: "runtime_s",
            expected: tasks,
            got: tasks - 1,
        }
    );
    let mut longer = bytes.clone();
    longer.push(1);
    assert_eq!(
        wf.with_values(runtime_s.clone(), longer).unwrap_err(),
        DagError::ColumnLength {
            column: "bytes",
            expected: files,
            got: files + 1,
        }
    );
    for bad in [f64::NAN, -1.0, f64::INFINITY] {
        let mut r = runtime_s.clone();
        r[3] = bad;
        match wf.with_values(r, bytes.clone()).unwrap_err() {
            DagError::InvalidRuntime { task, runtime } => {
                assert_eq!(task, wf.task(mcloud_dag::TaskId(3)).name);
                assert_eq!(runtime.to_bits(), bad.to_bits());
            }
            other => panic!("{bad}: {other}"),
        }
    }
}
