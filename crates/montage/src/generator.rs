//! Builds Montage mosaic workflows with the paper's structure and
//! calibrated runtimes/sizes.
//!
//! The generated DAG follows the Montage pipeline the paper describes in
//! Section 2 (reproject, background-rectify, co-add):
//!
//! ```text
//! level 1: mProject_i      one per input plate (reads plate + header)
//! level 2: mDiffFit_k      one per overlapping plate pair
//! level 3: mConcatFit      gathers all plane fits
//! level 4: mBgModel        solves global background corrections
//! level 5: mBackground_i   one per plate (applies corrections)
//! level 6: mImgtbl         builds the image metadata table
//! level 7: mAdd            co-adds into the final mosaic (deliverable)
//! level 8: mShrink         down-samples the mosaic
//! level 9: mJPEG           renders a preview (deliverable)
//! ```

use std::fmt::Write as _;

use mcloud_simkit::SimRng;

use mcloud_dag::{Workflow, WorkflowBuilder};

use crate::calib;
use crate::grid;

/// The nine Montage task classes in pipeline (= workflow level) order.
///
/// This is the canonical class list profilers and reports key on; every
/// task the generator emits carries one of these module names.
pub const MONTAGE_PIPELINE: [&str; 9] = [
    "mProject",
    "mDiffFit",
    "mConcatFit",
    "mBgModel",
    "mBackground",
    "mImgtbl",
    "mAdd",
    "mShrink",
    "mJPEG",
];

/// 2MASS survey band (affects naming only; the three bands have the same
/// plate geometry, which is why the whole-sky estimate is `3 x 1,300`
/// plates across J/H/K).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Band {
    /// J band (1.25 um).
    #[default]
    J,
    /// H band (1.65 um).
    H,
    /// K_s band (2.17 um).
    K,
}

impl Band {
    /// Short lowercase tag used in file names.
    pub fn tag(&self) -> &'static str {
        match self {
            Band::J => "j",
            Band::H => "h",
            Band::K => "k",
        }
    }
}

/// Parameters of one mosaic request (the input to the paper's service: a
/// sky region, a size in square degrees, and the archive/band).
#[derive(Debug, Clone, PartialEq)]
pub struct MosaicConfig {
    /// Mosaic side length in degrees (1.0, 2.0, 4.0 in the paper).
    pub degrees: f64,
    /// Survey band.
    pub band: Band,
    /// Sky region label (the paper uses M17).
    pub region: String,
    /// Seed for the deterministic runtime/size jitter.
    pub seed: u64,
}

impl MosaicConfig {
    /// A mosaic of the given size with the paper's defaults (M17, J band,
    /// fixed seed).
    pub fn new(degrees: f64) -> Self {
        MosaicConfig {
            degrees,
            band: Band::J,
            region: "M17".to_string(),
            seed: 2008_1115,
        }
    }

    /// Sets the survey band.
    pub fn band(mut self, band: Band) -> Self {
        self.band = band;
        self
    }

    /// Sets the sky region label.
    pub fn region(mut self, region: impl Into<String>) -> Self {
        self.region = region.into();
        self
    }

    /// Sets the jitter seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Input plates per grid side.
    pub fn side(&self) -> u32 {
        calib::grid_side(self.degrees)
    }

    /// Number of input plates.
    pub fn plates(&self) -> u32 {
        let s = self.side();
        s * s
    }

    /// Exact number of tasks the generated workflow will have
    /// (`2N + D + 6`): 203 / 731 / 3,027 for the canonical sizes.
    pub fn expected_tasks(&self) -> usize {
        let n = self.plates() as usize;
        let d = grid::overlap_count(self.side()) as usize;
        2 * n + d + 6
    }

    /// Exact number of distinct files (`5N + D + 7`).
    pub fn expected_files(&self) -> usize {
        let n = self.plates() as usize;
        let d = grid::overlap_count(self.side()) as usize;
        5 * n + d + 7
    }
}

/// Generates the workflow for a mosaic request.
///
/// The builder is sized from [`MosaicConfig::expected_tasks`] and
/// [`MosaicConfig::expected_files`], and every name is formatted into one
/// reused buffer: generation allocates no name or list per task or file,
/// only the workflow's fixed set of buffers and their amortized growth.
pub fn generate(cfg: &MosaicConfig) -> Workflow {
    let side = cfg.side();
    let n = cfg.plates();
    let pairs = grid::overlap_pairs(side);
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

/// The paper's Montage 1-degree workflow (203 tasks).
pub fn montage_1_degree() -> Workflow {
    generate(&MosaicConfig::new(1.0))
}

/// The paper's Montage 2-degree workflow (731 tasks).
pub fn montage_2_degree() -> Workflow {
    generate(&MosaicConfig::new(2.0))
}

/// The paper's Montage 4-degree workflow (3,027 tasks).
pub fn montage_4_degree() -> Workflow {
    generate(&MosaicConfig::new(4.0))
}

/// Synthetic 8-degree scale-up (12,149 tasks): beyond the paper's largest
/// run, at the mosaic sizes of the follow-on EC2 studies (Juve et al.;
/// Berriman et al.). Same generator and calibration as the canonical
/// sizes, extrapolated.
pub fn montage_8_degree() -> Workflow {
    generate(&MosaicConfig::new(8.0))
}

/// Synthetic 16-degree scale-up (48,897 tasks): a stress workload for
/// engine-throughput benchmarking at production scale.
pub fn montage_16_degree() -> Workflow {
    generate(&MosaicConfig::new(16.0))
}

/// The paper's Figure 3 pedagogical workflow: seven tasks, one external
/// input `a`, and net outputs `g` and `h`. Used in Section 3 to explain the
/// three data-management modes.
pub fn paper_figure3() -> Workflow {
    let mb = 1_000_000u64;
    let mut b = WorkflowBuilder::new("paper_figure3");
    let a = b.file("a", 10 * mb);
    let fb = b.file("b", 10 * mb);
    let c1 = b.file("c1", 10 * mb);
    let c2 = b.file("c2", 10 * mb);
    let d = b.file("d", 10 * mb);
    let e = b.file("e", 10 * mb);
    let f = b.file("f", 10 * mb);
    let h = b.file("h", 10 * mb);
    let g = b.file("g", 10 * mb);
    b.add_task("task0", "stage", 60.0, &[a], &[fb]).unwrap();
    b.add_task("task1", "stage", 60.0, &[fb], &[c1]).unwrap();
    b.add_task("task2", "stage", 60.0, &[fb], &[c2]).unwrap();
    b.add_task("task3", "stage", 60.0, &[c1], &[d]).unwrap();
    b.add_task("task4", "stage", 60.0, &[c1], &[e]).unwrap();
    b.add_task("task5", "stage", 60.0, &[c2], &[f, h]).unwrap();
    b.add_task("task6", "gather", 60.0, &[d, e, f], &[g])
        .unwrap();
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 1-based pipeline stage (= workflow level) of a Montage task class,
    /// or `None` for a module name outside the pipeline.
    fn pipeline_stage(module: &str) -> Option<u32> {
        MONTAGE_PIPELINE
            .iter()
            .position(|&m| m == module)
            .map(|i| i as u32 + 1)
    }

    #[test]
    fn every_generated_module_maps_to_its_pipeline_stage() {
        let wf = montage_1_degree();
        let levels = wf.levels();
        for t in wf.task_ids() {
            let task = wf.task(t);
            let stage = pipeline_stage(task.module)
                .unwrap_or_else(|| panic!("unknown module {}", task.module));
            assert_eq!(stage, levels[t.index()], "{}", task.name);
        }
        assert_eq!(pipeline_stage("mProject"), Some(1));
        assert_eq!(pipeline_stage("mJPEG"), Some(9));
        assert_eq!(pipeline_stage("mystery"), None);
        assert_eq!(MONTAGE_PIPELINE.len(), 9);
    }

    #[test]
    fn canonical_task_counts_match_paper() {
        assert_eq!(montage_1_degree().num_tasks(), 203);
        assert_eq!(montage_2_degree().num_tasks(), 731);
        assert_eq!(montage_4_degree().num_tasks(), 3027);
        assert_eq!(montage_8_degree().num_tasks(), 12_149);
        assert_eq!(montage_16_degree().num_tasks(), 48_897);
    }

    #[test]
    fn expected_counts_agree_with_generation() {
        for deg in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0] {
            let cfg = MosaicConfig::new(deg);
            let wf = generate(&cfg);
            assert_eq!(wf.num_tasks(), cfg.expected_tasks(), "{deg} deg tasks");
            assert_eq!(wf.num_files(), cfg.expected_files(), "{deg} deg files");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&MosaicConfig::new(1.0));
        let b = generate(&MosaicConfig::new(1.0));
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert!((a.total_runtime_s() - b.total_runtime_s()).abs() < 1e-9);
        let c = generate(&MosaicConfig::new(1.0).seed(7));
        assert_ne!(a.total_bytes(), c.total_bytes(), "seed must matter");
    }

    #[test]
    fn workflow_has_nine_levels() {
        let wf = montage_1_degree();
        assert_eq!(wf.depth(), 9);
        let widths = wf.level_widths();
        // mProject, mDiffFit, concat, bgmodel, mBackground, imgtbl, add,
        // shrink, jpeg.
        assert_eq!(widths, vec![49, 99, 1, 1, 49, 1, 1, 1, 1]);
    }

    #[test]
    fn level_modules_are_homogeneous() {
        // "all the tasks at a particular level are invocations of the same
        // routine" (paper, Section 2).
        let wf = montage_1_degree();
        let levels = wf.levels();
        let mut by_level: std::collections::HashMap<u32, Vec<&str>> = Default::default();
        for t in wf.task_ids() {
            by_level
                .entry(levels[t.index()])
                .or_default()
                .push(wf.task(t).module);
        }
        for (level, modules) in by_level {
            assert!(
                modules.windows(2).all(|w| w[0] == w[1]),
                "level {level} mixes modules: {modules:?}"
            );
        }
    }

    #[test]
    fn external_inputs_are_plates_and_header() {
        let wf = montage_1_degree();
        let ext = wf.external_inputs();
        assert_eq!(ext.len(), 50); // 49 plates + header
        let names: Vec<&str> = ext.iter().map(|f| wf.file(*f).name).collect();
        assert!(names.iter().any(|n| n.ends_with(".hdr")));
        assert_eq!(names.iter().filter(|n| n.starts_with("2mass_")).count(), 49);
    }

    #[test]
    fn staged_out_is_mosaic_and_jpeg() {
        let wf = montage_1_degree();
        let mut names: Vec<String> = wf
            .staged_out_files()
            .iter()
            .map(|f| wf.file(*f).name.to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["mosaic_M17.fits", "mosaic_M17.jpg"]);
    }

    #[test]
    fn mosaic_size_matches_paper() {
        let wf = montage_2_degree();
        let mosaic = wf
            .file_ids()
            .find(|f| wf.file(*f).name == "mosaic_M17.fits")
            .unwrap();
        assert_eq!(wf.file(mosaic).bytes, 557_900_000);
    }

    #[test]
    fn total_runtime_tracks_paper_cpu_costs() {
        // On-demand CPU cost = total_runtime * $0.10/hr. Paper: $0.56,
        // $2.03, $8.40. Accept a +-10% calibration band.
        let cases = [(montage_1_degree(), 0.56), (montage_2_degree(), 2.03)];
        for (wf, dollars) in cases {
            let cost = wf.total_runtime_s() / 3600.0 * 0.10;
            assert!(
                (cost - dollars).abs() / dollars < 0.10,
                "expected ~${dollars}, modeled ${cost:.3}"
            );
        }
    }

    #[test]
    fn ccr_is_in_the_papers_band() {
        // Paper's table: 0.053 / 0.053 / 0.045 at 10 Mbps. Accept 0.04-0.06.
        for (wf, label) in [(montage_1_degree(), "1deg"), (montage_2_degree(), "2deg")] {
            let ccr = wf.ccr_at_link(10_000_000.0);
            assert!((0.04..=0.06).contains(&ccr), "{label}: CCR {ccr}");
        }
    }

    #[test]
    fn tasks_have_small_runtimes() {
        // "The tasks ... have a small runtime of at most a few minutes."
        let wf = montage_1_degree();
        for t in wf.tasks() {
            assert!(
                t.runtime_s <= 6.0 * 60.0,
                "{} runs {:.0}s",
                t.name,
                t.runtime_s
            );
        }
    }

    #[test]
    fn figure3_matches_paper_description() {
        let wf = paper_figure3();
        assert_eq!(wf.num_tasks(), 7);
        // "Each task takes one input file and produces one output file
        // except for task 6 that takes three input files."
        for t in wf.task_ids() {
            let task = wf.task(t);
            if task.name == "task6" {
                assert_eq!(task.inputs.len(), 3);
            } else {
                assert_eq!(task.inputs.len(), 1);
            }
        }
        assert_eq!(wf.staged_out_files().len(), 2); // g and h
    }

    #[test]
    fn band_and_region_affect_naming() {
        let wf = generate(&MosaicConfig::new(1.0).band(Band::K).region("Orion"));
        assert!(wf.name().contains("Orion"));
        assert!(wf.name().ends_with("_k"));
        assert!(wf.files().any(|f| f.name.contains("2mass_k_Orion")));
    }
}
