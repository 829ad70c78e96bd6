//! Seeded input generators. Every workload's inputs are a pure function of
//! the workload seed: the same seed gives the same study, the same plan
//! specs and the same request streams. The program under test only ever
//! sees what these generators produce.

use mcloud_core::{DataMode, ExecConfig, Provisioning, RetryPolicy, Scenario, ScenarioRecipe};
use mcloud_service::{FlashCrowd, PlanSpec};
use mcloud_simkit::SimRng;

/// SplitMix64 of `seed` and an index: independent, reproducible sub-seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Sub-stream tags, so no two generators share a derived seed.
const TAG_SWEEP: u64 = 1 << 48;
const TAG_PLAN: u64 = 2 << 48;
const TAG_STDIO: u64 = 3 << 48;
const TAG_HTTP: u64 = 4 << 48;
const TAG_FRESH: u64 = 5 << 48;
const TAG_SAMPLE: u64 = 6 << 48;

/// Whether op `i` belongs to the seeded sample whose responses are
/// compared byte for byte against an in-process simulation (1 in `every`).
pub fn in_sample(seed: u64, i: u64, every: u64) -> bool {
    mix(seed, TAG_SAMPLE ^ i).is_multiple_of(every)
}

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

/// One sweep "study": four axis sweeps over one workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStudy {
    /// Mosaic size of the workflow generated during set-up.
    pub degrees: f64,
    /// Generator seed of that workflow.
    pub workflow_seed: u64,
    /// Dense processor ladder, swept in regular and in remote-io mode.
    pub processors: Vec<u32>,
    /// Link bandwidths of the bandwidth axis, bits per second.
    pub bandwidths_bps: Vec<f64>,
    /// Processors held on the bandwidth and fault-rate axes.
    pub fixed_processors: u32,
    /// Task-failure probabilities of the fault-rate axis.
    pub fault_probs: Vec<f64>,
    /// Fault-injection seed (the workload seed).
    pub fault_seed: u64,
}

/// Top of the dense processor ladder.
const SWEEP_MAX_PROCS: u32 = 16;

pub fn sweep_study(seed: u64) -> SweepStudy {
    SweepStudy {
        degrees: 8.0,
        workflow_seed: mix(seed, TAG_SWEEP),
        processors: (1..=SWEEP_MAX_PROCS).collect(),
        bandwidths_bps: [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0]
            .iter()
            .map(|mbps| mbps * 1e6)
            .collect(),
        fixed_processors: 16,
        fault_probs: vec![0.0, 0.01, 0.02, 0.04, 0.08],
        fault_seed: seed,
    }
}

impl SweepStudy {
    /// Base of the two processor axes.
    pub fn processor_base(&self, mode: DataMode) -> ExecConfig {
        ExecConfig::paper_default().mode(mode)
    }

    /// Base of the bandwidth axis: prestaged inputs, so the axis has a
    /// shared prefix for the incremental entry point to reuse.
    pub fn bandwidth_base(&self) -> ExecConfig {
        ExecConfig::fixed(self.fixed_processors).prestaged(true)
    }

    /// Base of the fault-rate axis: bounded retries, so every point
    /// completes.
    pub fn fault_base(&self) -> ExecConfig {
        ExecConfig::fixed(self.fixed_processors).with_retry(RetryPolicy::bounded(16))
    }
}

// ---------------------------------------------------------------------------
// plan
// ---------------------------------------------------------------------------

/// p99 turnaround SLO of every plan spec, hours.
const PLAN_SLO_P99_HOURS: f64 = 7.0;
/// Offered load, requests per hour (the CLI default).
const PLAN_RATE_PER_HOUR: f64 = 2.0;
/// A quarter of a year. A year-long plan takes 0.6-0.8 s on two cores,
/// so a run would hold too few plans for a steady median and a tail.
const PLAN_HORIZON_HOURS: f64 = 2190.0;

/// The quarter-long capacity-planning spec of plan op `op`: the default
/// 70/25/5 class mix and diurnal swing plus one seeded flash crowd, with
/// a fresh arrival seed, so no two ops share a cache key.
pub fn plan_spec(seed: u64, op: u64) -> PlanSpec {
    let s = mix(seed, TAG_PLAN ^ op);
    let mut spec = PlanSpec::new(PLAN_SLO_P99_HOURS, PLAN_RATE_PER_HOUR, PLAN_HORIZON_HOURS);
    spec.seed = s;
    let mut rng = SimRng::new(s);
    spec.modulation.flash_crowds.push(FlashCrowd {
        start_hour: rng.f64_in(24.0, PLAN_HORIZON_HOURS - 48.0).floor(),
        duration_hours: 6.0,
        multiplier: 4.0,
    });
    spec
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// One `simulate` query, in the CLI's flag vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    pub degrees: f64,
    pub procs: u32,
    pub mode: DataMode,
    pub seed: u64,
}

impl SimRequest {
    /// The `args` array of the request.
    pub fn args(&self) -> Vec<String> {
        let mode = match self.mode {
            DataMode::RemoteIo => "remote-io",
            DataMode::Regular => "regular",
            DataMode::DynamicCleanup => "cleanup",
        };
        [
            "--degrees".to_string(),
            self.degrees.to_string(),
            "--procs".to_string(),
            self.procs.to_string(),
            "--mode".to_string(),
            mode.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ]
        .to_vec()
    }

    /// The in-process scenario the server derives from [`Self::args`]:
    /// the CLI's execution defaults (paper rates, 10 Mbps) with fixed
    /// provisioning.
    pub fn scenario(&self) -> Scenario {
        let mut exec = ExecConfig::paper_default()
            .mode(self.mode)
            .bandwidth(10.0 * 1e6);
        exec.provisioning = Provisioning::Fixed {
            processors: self.procs,
        };
        let mut recipe = ScenarioRecipe::new(self.degrees);
        recipe.seed = self.seed;
        Scenario { recipe, exec }
    }
}

fn args_json(args: &[String]) -> String {
    let quoted: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// One request of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A `simulate` op; `popular` is its index in the preloaded set.
    Simulate {
        req: SimRequest,
        popular: Option<usize>,
    },
    /// A `batch` op over several scenarios.
    Batch(Vec<SimRequest>),
}

impl Request {
    /// The JSON payload (a stdio frame body or an HTTP request body).
    pub fn payload(&self) -> String {
        match self {
            Request::Simulate { req, .. } => {
                format!(
                    "{{\"op\": \"simulate\", \"args\": {}}}",
                    args_json(&req.args())
                )
            }
            Request::Batch(reqs) => batch_payload(reqs),
        }
    }

    /// The HTTP path of the request.
    pub fn path(&self) -> &'static str {
        match self {
            Request::Simulate { .. } => "/simulate",
            Request::Batch(_) => "/batch",
        }
    }

    /// True when the request is new to the server's cache.
    pub fn is_fresh(&self) -> bool {
        !matches!(
            self,
            Request::Simulate {
                popular: Some(_),
                ..
            }
        )
    }
}

/// A `batch` payload over `reqs`.
pub fn batch_payload(reqs: &[SimRequest]) -> String {
    let lists: Vec<String> = reqs.iter().map(|r| args_json(&r.args())).collect();
    format!(
        "{{\"op\": \"batch\", \"scenarios\": [{}]}}",
        lists.join(", ")
    )
}

const PROCS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const MODES: [DataMode; 3] = [
    DataMode::Regular,
    DataMode::RemoteIo,
    DataMode::DynamicCleanup,
];
/// Mosaic sizes of the serve-stdio popular set and of its misses.
const STDIO_DEGREES: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// Size of the serve-stdio popular set.
pub const POPULAR: usize = 48;
/// One serve-stdio request in this many misses the cache.
pub const STDIO_MISS_EVERY: usize = 10;

/// The serve-stdio request stream: the popular set (preloaded in one
/// `batch` frame during set-up), then an endless closed-loop stream in
/// which one request per block of ten, at a seeded position, is a fresh
/// scenario and the other nine repeat a popular one picked by a Zipf
/// (s = 1) skew.
pub struct StdioMix {
    popular: Vec<SimRequest>,
    zipf_cdf: Vec<f64>,
    rng: SimRng,
    fresh: Fresh,
    miss_at: usize,
    pos: usize,
}

impl StdioMix {
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(mix(seed, TAG_STDIO));
        let recipe_seeds: Vec<u64> = (0..STDIO_DEGREES.len() as u64)
            .map(|d| mix(seed, TAG_STDIO ^ (d + 1)))
            .collect();
        let mut popular: Vec<SimRequest> = Vec::with_capacity(POPULAR);
        while popular.len() < POPULAR {
            let d = popular.len() % STDIO_DEGREES.len();
            let req = SimRequest {
                degrees: STDIO_DEGREES[d],
                procs: PROCS[rng.below(PROCS.len() as u64) as usize],
                mode: MODES[rng.below(MODES.len() as u64) as usize],
                seed: recipe_seeds[d],
            };
            if !popular.contains(&req) {
                popular.push(req);
            }
        }
        let weights: Vec<f64> = (1..=POPULAR).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let miss_at = rng.below(STDIO_MISS_EVERY as u64) as usize;
        StdioMix {
            popular,
            zipf_cdf,
            rng,
            fresh: Fresh::new(seed),
            miss_at,
            pos: 0,
        }
    }

    /// The preloaded popular set, in preload order.
    pub fn popular(&self) -> &[SimRequest] {
        &self.popular
    }
}

impl Iterator for StdioMix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let slot = self.pos % STDIO_MISS_EVERY;
        self.pos += 1;
        let request = if slot == self.miss_at {
            let d = self.rng.below(STDIO_DEGREES.len() as u64) as usize;
            let procs = PROCS[self.rng.below(PROCS.len() as u64) as usize];
            Request::Simulate {
                req: self.fresh.request(STDIO_DEGREES[d], procs),
                popular: None,
            }
        } else {
            let u = self.rng.f64();
            let k = self.zipf_cdf.partition_point(|&c| c < u).min(POPULAR - 1);
            Request::Simulate {
                req: self.popular[k].clone(),
                popular: Some(k),
            }
        };
        if slot == STDIO_MISS_EVERY - 1 {
            self.miss_at = self.rng.below(STDIO_MISS_EVERY as u64) as usize;
        }
        Some(request)
    }
}

/// Scenarios the server has never seen: each gets its own generator seed.
struct Fresh {
    seed: u64,
    count: u64,
}

impl Fresh {
    fn new(seed: u64) -> Self {
        Fresh { seed, count: 0 }
    }

    fn next_seed(&mut self) -> u64 {
        self.count += 1;
        mix(self.seed, TAG_FRESH ^ self.count)
    }

    fn request(&mut self, degrees: f64, procs: u32) -> SimRequest {
        SimRequest {
            degrees,
            procs,
            mode: DataMode::Regular,
            seed: self.next_seed(),
        }
    }
}

/// Kinds of one serve-http block of eight requests: three in four are
/// `simulate` (2 x 1 degree, 3 x 2 degrees, 1 x 4 degrees), one in four a
/// `batch` of eight processor variants of one 2-degree recipe. A fixed
/// block mix keeps the latency median inside the 2-degree band.
const HTTP_BLOCK: [f64; 8] = [1.0, 1.0, 2.0, 2.0, 2.0, 4.0, 0.0, 0.0];
/// Processor variants of one serve-http batch frame.
const BATCH_PROCS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
/// Mosaic size of serve-http batch recipes.
const BATCH_DEGREES: f64 = 2.0;

/// The serve-http request stream: every request is new to the cache.
pub struct HttpMix {
    rng: SimRng,
    fresh: Fresh,
    block: Vec<f64>,
}

impl HttpMix {
    pub fn new(seed: u64) -> Self {
        HttpMix {
            rng: SimRng::new(mix(seed, TAG_HTTP)),
            fresh: Fresh::new(mix(seed, TAG_HTTP ^ 1)),
            block: Vec::new(),
        }
    }
}

impl Iterator for HttpMix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            self.block = HTTP_BLOCK.to_vec();
            // Fisher-Yates; requests are popped from the back.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let degrees = self.block.pop().expect("block refilled above");
        let procs = PROCS[self.rng.below(PROCS.len() as u64) as usize];
        Some(if degrees > 0.0 {
            Request::Simulate {
                req: self.fresh.request(degrees, procs),
                popular: None,
            }
        } else {
            let seed = self.fresh.next_seed();
            Request::Batch(
                BATCH_PROCS
                    .iter()
                    .map(|&procs| SimRequest {
                        degrees: BATCH_DEGREES,
                        procs,
                        mode: DataMode::Regular,
                        seed,
                    })
                    .collect(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        let a: Vec<Request> = StdioMix::new(7).take(2000).collect();
        let b: Vec<Request> = StdioMix::new(7).take(2000).collect();
        assert_eq!(a, b);
        assert_eq!(StdioMix::new(7).popular(), StdioMix::new(7).popular());
        let a: Vec<Request> = HttpMix::new(7).take(500).collect();
        let b: Vec<Request> = HttpMix::new(7).take(500).collect();
        assert_eq!(a, b);
        assert_eq!(sweep_study(7), sweep_study(7));
        let (p, q) = (plan_spec(7, 3), plan_spec(7, 3));
        assert_eq!(p.seed, q.seed);
        assert_eq!(p.modulation, q.modulation);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Request> = StdioMix::new(1).take(200).collect();
        let b: Vec<Request> = StdioMix::new(2).take(200).collect();
        assert_ne!(a, b);
        let a: Vec<Request> = HttpMix::new(1).take(200).collect();
        let b: Vec<Request> = HttpMix::new(2).take(200).collect();
        assert_ne!(a, b);
        assert_ne!(plan_spec(1, 0).seed, plan_spec(2, 0).seed);
        assert_ne!(plan_spec(1, 0).seed, plan_spec(1, 1).seed);
    }

    #[test]
    fn stdio_misses_are_one_in_ten_and_fresh() {
        let mix = StdioMix::new(11);
        let popular = mix.popular().to_vec();
        let reqs: Vec<Request> = mix.take(10_000).collect();
        let fresh: Vec<&Request> = reqs.iter().filter(|r| r.is_fresh()).collect();
        assert_eq!(fresh.len(), 1000);
        let mut seeds: Vec<u64> = fresh
            .iter()
            .map(|r| match r {
                Request::Simulate { req, .. } => req.seed,
                Request::Batch(_) => unreachable!(),
            })
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000, "fresh seeds repeat");
        for r in &reqs {
            if let Request::Simulate {
                req,
                popular: Some(k),
            } = r
            {
                assert_eq!(req, &popular[*k]);
            }
        }
    }

    #[test]
    fn http_blocks_keep_the_mix() {
        let reqs: Vec<Request> = HttpMix::new(5).take(800).collect();
        let batches = reqs
            .iter()
            .filter(|r| matches!(r, Request::Batch(_)))
            .count();
        assert_eq!(batches, 200);
        let four = reqs
            .iter()
            .filter(|r| matches!(r, Request::Simulate { req, .. } if req.degrees == 4.0))
            .count();
        assert_eq!(four, 100);
        assert!(reqs.iter().all(Request::is_fresh));
    }

    #[test]
    fn payloads_use_the_cli_vocabulary() {
        let req = SimRequest {
            degrees: 0.5,
            procs: 8,
            mode: DataMode::RemoteIo,
            seed: 3,
        };
        let r = Request::Simulate {
            req: req.clone(),
            popular: None,
        };
        assert_eq!(
            r.payload(),
            "{\"op\": \"simulate\", \"args\": [\"--degrees\", \"0.5\", \"--procs\", \"8\", \
             \"--mode\", \"remote-io\", \"--seed\", \"3\"]}"
        );
        let s = req.scenario();
        assert_eq!(s.recipe.seed, 3);
        assert_eq!(s.exec.mode, DataMode::RemoteIo);
    }
}
