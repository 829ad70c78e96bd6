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

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

use mcloud_simkit::{MetricClass, Registry, SimRng};

use mcloud_dag::{Workflow, WorkflowBuilder, WorkflowShape};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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

/// Most heap bytes the process-wide shape memo retains, summed over its
/// shapes ([`WorkflowShape::heap_bytes`] plus the region label of each
/// one's key): the 16-degree preset (48,897 tasks, 9.2 MB with the
/// paper's region label) fits, and beside it the 1/2/4/8-degree ones
/// (3.1 MB together). The bound is in bytes, not tasks, because a region
/// label of any length reaches the memo from `mcloud serve` requests, and
/// the workflow, header, raw plate and mosaic names all carry it.
pub const SHAPE_MEMO_BYTES: usize = 16 << 20;

/// Generates the workflow for a mosaic request.
///
/// Names, file lists, adjacency and deliverables depend only on the
/// mosaic's degrees, band and region; the seed moves only the jittered
/// runtimes and sizes. So the shape is built once per (degrees, band,
/// region) through [`WorkflowBuilder`], with all its checks, and kept in a
/// process-wide least-recently-used memo bounded by [`SHAPE_MEMO_BYTES`];
/// every later request draws its seeded values and pairs them with the
/// shared shape. A shape larger than the whole budget is built and shared
/// by that request's workflow but not retained.
pub fn generate(cfg: &MosaicConfig) -> Workflow {
    let (runtime_s, bytes) = draw_values(cfg);
    let key = ShapeKey {
        degrees_bits: cfg.degrees.to_bits(),
        band: cfg.band,
        region: cfg.region.clone(),
    };
    // A shape is inserted or evicted together with its byte count, so a
    // poisoned memo is still consistent and stays in use.
    let memo = || SHAPES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(shape) = memo().lookup(&key) {
        return Workflow::from_shape(shape, runtime_s, bytes)
            .expect("generator draws one valid value per row");
    }
    // The memo is unlocked while the builder runs, so requests for other
    // shapes proceed; two threads missing the same key both build it, and
    // the first to finish is the one retained.
    let wf = build(cfg, &runtime_s, &bytes);
    memo().insert(key, Arc::clone(wf.shape()));
    wf
}

/// The seeded task runtimes and file sizes of a mosaic, in id order.
///
/// The draws come in the generator's fixed order: one size jitter per
/// plate (shared by its five image files), one per overlap fit, then the
/// runtime jitter of every `mProject`, `mDiffFit` and `mBackground`. The
/// other runtimes and sizes depend on the degrees alone.
fn draw_values(cfg: &MosaicConfig) -> (Vec<f64>, Vec<u64>) {
    let n = cfg.plates() as usize;
    let d = grid::overlap_count(cfg.side()) as usize;
    let phi = calib::runtime_factor(cfg.degrees);
    let mut rng = SimRng::new(cfg.seed);
    let jit_rt = |rng: &mut SimRng| 1.0 + rng.f64_in(-calib::RUNTIME_JITTER, calib::RUNTIME_JITTER);
    let jit_sz = |rng: &mut SimRng| 1.0 + rng.f64_in(-calib::SIZE_JITTER, calib::SIZE_JITTER);
    let scaled = |bytes: u64, j: f64| ((bytes as f64 * j).round() as u64).max(1);

    // Files: header, five per plate, one fit per overlap, then the tables
    // and the three mosaic products.
    let mut bytes = Vec::with_capacity(cfg.expected_files());
    bytes.push(calib::HEADER_BYTES);
    for _ in 0..n {
        let j = jit_sz(&mut rng);
        bytes.extend(
            [
                calib::RAW_IMAGE_BYTES,
                calib::PROJECTED_IMAGE_BYTES,
                calib::AREA_IMAGE_BYTES,
                calib::CORRECTED_IMAGE_BYTES,
                calib::CORRECTED_AREA_BYTES,
            ]
            .map(|b| scaled(b, j)),
        );
    }
    for _ in 0..d {
        let j = jit_sz(&mut rng);
        bytes.push(scaled(calib::FIT_BYTES, j));
    }
    let mosaic_bytes = calib::mosaic_bytes(cfg.degrees);
    bytes.extend([
        calib::FITS_TABLE_PER_DIFF_BYTES * d as u64,
        calib::CORRECTIONS_PER_IMAGE_BYTES * n as u64,
        calib::IMGTBL_PER_IMAGE_BYTES * n as u64,
        mosaic_bytes,
        (mosaic_bytes / calib::SHRINK_DIVISOR).max(1),
        (mosaic_bytes / calib::JPEG_DIVISOR).max(1),
    ]);

    // Tasks, level by level.
    let mut runtime_s = Vec::with_capacity(cfg.expected_tasks());
    for _ in 0..n {
        runtime_s.push(calib::MPROJECT_RUNTIME_S * phi * jit_rt(&mut rng));
    }
    for _ in 0..d {
        runtime_s.push(calib::MDIFFFIT_RUNTIME_S * phi * jit_rt(&mut rng));
    }
    runtime_s.push(calib::MCONCATFIT_RUNTIME_S * cfg.degrees);
    runtime_s.push(calib::MBGMODEL_RUNTIME_S * cfg.degrees.sqrt());
    for _ in 0..n {
        runtime_s.push(calib::MBACKGROUND_RUNTIME_S * phi * jit_rt(&mut rng));
    }
    runtime_s.extend(
        [
            calib::MIMGTBL_RUNTIME_S,
            calib::MADD_RUNTIME_S,
            calib::MSHRINK_RUNTIME_S,
            calib::MJPEG_RUNTIME_S,
        ]
        .map(|r| r * cfg.degrees),
    );
    (runtime_s, bytes)
}

/// Builds a mosaic's workflow through [`WorkflowBuilder`], registering
/// files and tasks in the id order [`draw_values`] lays its columns out in
/// and taking each one's value from there.
fn build(cfg: &MosaicConfig, runtime_s: &[f64], bytes: &[u64]) -> Workflow {
    let side = cfg.side();
    let n = cfg.plates();
    let pairs = grid::overlap_pairs(side);
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
    let mut size = bytes.iter().copied();
    let mut size = || size.next().expect("one size per generated file");
    let mut runtime = runtime_s.iter().copied();
    let mut runtime = || runtime.next().expect("one runtime per generated task");

    // --- files ------------------------------------------------------------
    let hdr = b.file(name!("{region}.hdr"), size());
    let mut raw = Vec::with_capacity(n as usize);
    let mut proj = Vec::with_capacity(n as usize);
    let mut area = Vec::with_capacity(n as usize);
    let mut corr = Vec::with_capacity(n as usize);
    let mut carea = Vec::with_capacity(n as usize);
    for i in 0..n {
        raw.push(b.file(name!("2mass_{band}_{region}_{i:04}.fits"), size()));
        proj.push(b.file(name!("proj_{i:04}.fits"), size()));
        area.push(b.file(name!("proj_{i:04}_area.fits"), size()));
        corr.push(b.file(name!("corr_{i:04}.fits"), size()));
        carea.push(b.file(name!("corr_{i:04}_area.fits"), size()));
    }
    let fits: Vec<_> = (0..pairs.len())
        .map(|k| b.file(name!("fit_{k:05}.tbl"), size()))
        .collect();
    let fits_tbl = b.file("fits.tbl", size());
    let corrections_tbl = b.file("corrections.tbl", size());
    let newimg_tbl = b.file("newimg.tbl", size());
    let mosaic = b.file(name!("mosaic_{region}.fits"), size());
    let shrunk = b.file(name!("mosaic_{region}_small.fits"), size());
    let jpeg = b.file(name!("mosaic_{region}.jpg"), size());
    b.mark_deliverable(mosaic);

    // --- tasks, level by level ---------------------------------------------
    for i in 0..n as usize {
        b.add_task(
            name!("mProject_{i:04}"),
            "mProject",
            runtime(),
            &[raw[i], hdr],
            &[proj[i], area[i]],
        )
        .expect("generator produces a valid mProject");
    }
    for (k, (pa, pb)) in pairs.iter().enumerate() {
        let (ia, ib) = (pa.index(side) as usize, pb.index(side) as usize);
        b.add_task(
            name!("mDiffFit_{k:05}"),
            "mDiffFit",
            runtime(),
            &[proj[ia], area[ia], proj[ib], area[ib]],
            &[fits[k]],
        )
        .expect("generator produces a valid mDiffFit");
    }
    b.add_task("mConcatFit", "mConcatFit", runtime(), &fits, &[fits_tbl])
        .expect("generator produces a valid mConcatFit");
    b.add_task(
        "mBgModel",
        "mBgModel",
        runtime(),
        &[fits_tbl],
        &[corrections_tbl],
    )
    .expect("generator produces a valid mBgModel");
    for i in 0..n as usize {
        b.add_task(
            name!("mBackground_{i:04}"),
            "mBackground",
            runtime(),
            &[proj[i], area[i], corrections_tbl],
            &[corr[i], carea[i]],
        )
        .expect("generator produces a valid mBackground");
    }
    b.add_task("mImgtbl", "mImgtbl", runtime(), &corr, &[newimg_tbl])
        .expect("generator produces a valid mImgtbl");
    let mut add_inputs: Vec<_> = corr.iter().chain(carea.iter()).copied().collect();
    add_inputs.push(newimg_tbl);
    add_inputs.push(hdr);
    b.add_task("mAdd", "mAdd", runtime(), &add_inputs, &[mosaic])
        .expect("generator produces a valid mAdd");
    b.add_task("mShrink", "mShrink", runtime(), &[mosaic], &[shrunk])
        .expect("generator produces a valid mShrink");
    b.add_task("mJPEG", "mJPEG", runtime(), &[shrunk], &[jpeg])
        .expect("generator produces a valid mJPEG");

    b.build().expect("generator produces an acyclic workflow")
}

/// What a mosaic's shape depends on: everything in a [`MosaicConfig`] but
/// the seed. The degrees are keyed by their bits, which also fix how the
/// workflow name prints them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShapeKey {
    degrees_bits: u64,
    band: Band,
    region: String,
}

/// A least-recently-used map from [`ShapeKey`] to shape, holding at most
/// `budget` bytes summed over its entries.
#[derive(Debug)]
struct ShapeMemo {
    budget: usize,
    shapes: HashMap<ShapeKey, Retained>,
    /// Bytes summed over `shapes`.
    bytes: usize,
    clock: u64,
    /// [`ShapeMemo::lookup`]s that found their shape, and that did not.
    hits: u64,
    misses: u64,
    /// Shapes evicted to make room.
    evictions: u64,
}

/// What the process-wide shape memo behind [`generate`] has done so far
/// and what it retains now ([`shape_memo_stats`]).
///
/// The counts are a pure function of the sequence of `generate` calls
/// when the calls are made one at a time, as `mcloud serve` makes them
/// (its batches generate each workflow before fanning out). Calls that
/// miss one new shape at the same time each build it and each count a
/// miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeMemoStats {
    /// Calls that reused a retained shape.
    pub hits: u64,
    /// Calls that built their shape.
    pub misses: u64,
    /// Shapes evicted to stay within the memo's byte budget.
    pub evictions: u64,
    /// Shapes retained now.
    pub shapes: u64,
    /// Bytes retained now, as the budget counts them.
    pub bytes: u64,
}

impl ShapeMemoStats {
    /// Adds the stats to `registry` as `mcloud_shape_memo_*` series, all
    /// [`MetricClass::Deterministic`] (see the type's note on concurrent
    /// calls).
    pub fn record(&self, registry: &mut Registry) {
        const D: MetricClass = MetricClass::Deterministic;
        registry.set_counter(
            "mcloud_shape_memo_hits_total",
            "Workflow generations that reused a retained mosaic shape.",
            D,
            &[],
            self.hits,
        );
        registry.set_counter(
            "mcloud_shape_memo_misses_total",
            "Workflow generations that built their mosaic shape.",
            D,
            &[],
            self.misses,
        );
        registry.set_counter(
            "mcloud_shape_memo_evictions_total",
            "Mosaic shapes evicted to stay within the memo's byte budget.",
            D,
            &[],
            self.evictions,
        );
        registry.set_gauge(
            "mcloud_shape_memo_shapes",
            "Mosaic shapes retained.",
            D,
            &[],
            self.shapes as f64,
        );
        registry.set_gauge(
            "mcloud_shape_memo_bytes",
            "Bytes the retained mosaic shapes hold, as the budget counts them.",
            D,
            &[],
            self.bytes as f64,
        );
    }
}

/// The process-wide shape memo's [`ShapeMemoStats`].
pub fn shape_memo_stats() -> ShapeMemoStats {
    SHAPES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .stats()
}

/// A retained shape, what it costs and the `clock` reading of its last use.
#[derive(Debug)]
struct Retained {
    shape: Arc<WorkflowShape>,
    bytes: usize,
    last_used: u64,
}

impl ShapeMemo {
    fn new(budget: usize) -> Self {
        ShapeMemo {
            budget,
            shapes: HashMap::new(),
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// [`ShapeMemo::get`] on behalf of a `generate` call, counted as a
    /// hit or a miss.
    fn lookup(&mut self, key: &ShapeKey) -> Option<Arc<WorkflowShape>> {
        let found = self.get(key);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn stats(&self) -> ShapeMemoStats {
        ShapeMemoStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            shapes: self.shapes.len() as u64,
            bytes: self.bytes as u64,
        }
    }

    /// The shape retained under `key`, marked as just used.
    fn get(&mut self, key: &ShapeKey) -> Option<Arc<WorkflowShape>> {
        self.clock += 1;
        let retained = self.shapes.get_mut(key)?;
        retained.last_used = self.clock;
        Some(Arc::clone(&retained.shape))
    }

    /// Retains `shape` under `key`, evicting the least recently used
    /// shapes until it fits. A shape already retained under `key` stays,
    /// and one costing more than the whole budget is not retained.
    fn insert(&mut self, key: ShapeKey, shape: Arc<WorkflowShape>) {
        if self.get(&key).is_some() {
            return;
        }
        let bytes = shape.heap_bytes() + key.region.capacity();
        if bytes > self.budget {
            return;
        }
        while self.bytes + bytes > self.budget {
            // Uses are stamped from one clock, so exactly one shape is
            // the oldest; evicting it this way clones no key.
            let oldest = self
                .shapes
                .values()
                .map(|r| r.last_used)
                .min()
                .expect("a memo over budget retains a shape");
            let (total, evictions) = (&mut self.bytes, &mut self.evictions);
            self.shapes.retain(|_, r| {
                let keep = r.last_used != oldest;
                if !keep {
                    *total -= r.bytes;
                    *evictions += 1;
                }
                keep
            });
        }
        let last_used = self.clock;
        self.shapes.insert(
            key,
            Retained {
                shape,
                bytes,
                last_used,
            },
        );
        self.bytes += bytes;
    }
}

/// The process-wide shape memo behind [`generate`].
static SHAPES: LazyLock<Mutex<ShapeMemo>> =
    LazyLock::new(|| Mutex::new(ShapeMemo::new(SHAPE_MEMO_BYTES)));

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

    fn key(region: &str) -> ShapeKey {
        ShapeKey {
            degrees_bits: 1f64.to_bits(),
            band: Band::J,
            region: region.to_string(),
        }
    }

    /// A shape of `degrees` (the memo only reads its heap bytes).
    fn shape(degrees: f64) -> Arc<WorkflowShape> {
        Arc::clone(generate(&MosaicConfig::new(degrees)).shape())
    }

    #[test]
    fn the_memo_evicts_least_recently_used_shapes_to_stay_in_budget() {
        let one = shape(1.0);
        // Every key below has a one-byte region label.
        let cost = one.heap_bytes() + 1;
        let mut memo = ShapeMemo::new(3 * cost);
        for region in ["a", "b", "c"] {
            memo.insert(key(region), Arc::clone(&one));
        }
        assert_eq!(memo.bytes, 3 * cost);
        assert!(memo.get(&key("a")).is_some()); // "b" is now the oldest
        memo.insert(key("d"), Arc::clone(&one));
        assert_eq!(memo.bytes, 3 * cost);
        assert!(memo.get(&key("b")).is_none());
        for region in ["a", "c", "d"] {
            assert!(memo.get(&key(region)).is_some(), "{region}");
        }
        // A second insert under a retained key keeps the first shape.
        memo.insert(key("a"), shape(1.0));
        assert!(Arc::ptr_eq(&memo.get(&key("a")).unwrap(), &one));
        assert_eq!(memo.shapes.len(), 3);
        assert_eq!(memo.bytes, 3 * cost);
    }

    #[test]
    fn the_memo_counts_hits_misses_and_evictions() {
        let one = shape(1.0);
        let cost = one.heap_bytes() + 1;
        let mut memo = ShapeMemo::new(2 * cost);
        assert!(memo.lookup(&key("a")).is_none());
        memo.insert(key("a"), Arc::clone(&one));
        assert!(memo.lookup(&key("a")).is_some());
        for region in ["b", "c"] {
            assert!(memo.lookup(&key(region)).is_none());
            memo.insert(key(region), Arc::clone(&one));
        }
        // Inserting "c" evicted "a"; looking it up again misses.
        assert!(memo.lookup(&key("a")).is_none());
        assert_eq!(
            memo.stats(),
            ShapeMemoStats {
                hits: 1,
                misses: 4,
                evictions: 1,
                shapes: 2,
                bytes: 2 * cost as u64,
            }
        );

        // The process-wide memo: a repeated call hits. Other tests share
        // it, so only lower bounds hold.
        let cfg = MosaicConfig::new(0.3).region("stats-probe");
        generate(&cfg);
        let before = shape_memo_stats();
        generate(&cfg.clone().seed(7));
        let after = shape_memo_stats();
        assert!(after.hits > before.hits);
        assert!(after.shapes >= 1 && after.bytes <= SHAPE_MEMO_BYTES as u64);
    }

    #[test]
    fn a_shape_over_the_whole_budget_is_not_retained() {
        let (one, two) = (shape(1.0), shape(2.0));
        let small = one.heap_bytes() + "small".len();
        assert!(two.heap_bytes() > small);
        let mut memo = ShapeMemo::new(small);
        memo.insert(key("small"), one);
        memo.insert(key("big"), two);
        assert!(memo.get(&key("big")).is_none());
        assert!(memo.get(&key("small")).is_some(), "nothing was evicted");
        assert_eq!(memo.bytes, small);
    }

    #[test]
    fn a_long_region_label_counts_against_the_budget() {
        let one = shape(1.0);
        let short = one.heap_bytes() + 1;
        let mut memo = ShapeMemo::new(2 * short);
        memo.insert(key("a"), Arc::clone(&one));
        // The same shape under a label longer than the whole budget.
        memo.insert(key(&"x".repeat(2 * short)), Arc::clone(&one));
        assert_eq!(memo.shapes.len(), 1);
        assert!(memo.get(&key("a")).is_some());
        assert_eq!(memo.bytes, short);

        // Through `generate`: the smallest mosaic (four plates) carries its
        // region label in nine names, so a label of an eighth of the
        // budget makes a shape the process-wide memo does not retain.
        let region = "r".repeat(SHAPE_MEMO_BYTES / 8);
        let wf = generate(&MosaicConfig::new(0.1).region(region.as_str()));
        assert!(wf.shape().heap_bytes() > SHAPE_MEMO_BYTES);
        let memo = SHAPES.lock().unwrap();
        assert!(memo.shapes.keys().all(|k| k.region != region));
        assert!(memo.bytes <= SHAPE_MEMO_BYTES, "{} bytes", memo.bytes);
    }

    #[test]
    fn more_distinct_shapes_than_the_budget_keep_the_memo_within_it() {
        let cfg = |i: usize| MosaicConfig::new(4.0).region(format!("budget-{i:03}"));
        let per_shape = generate(&cfg(0)).shape().heap_bytes();
        let count = SHAPE_MEMO_BYTES / per_shape + 2;
        for i in 1..count {
            generate(&cfg(i));
            let memo = SHAPES.lock().unwrap();
            assert!(memo.bytes <= SHAPE_MEMO_BYTES, "{} bytes", memo.bytes);
            let retained: usize = memo.shapes.values().map(|r| r.bytes).sum();
            assert_eq!(retained, memo.bytes);
        }
        // The first shapes made way for the last ones.
        let memo = SHAPES.lock().unwrap();
        assert!(memo.shapes.keys().all(|k| k.region != "budget-000"));
    }

    #[test]
    fn band_and_region_affect_naming() {
        let wf = generate(&MosaicConfig::new(1.0).band(Band::K).region("Orion"));
        assert!(wf.name().contains("Orion"));
        assert!(wf.name().ends_with("_k"));
        assert!(wf.files().any(|f| f.name.contains("2mass_k_Orion")));
    }
}
