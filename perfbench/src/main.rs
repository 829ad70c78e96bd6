//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload sweep|plan|serve-stdio|serve-http --seed N
//!           --seconds S --trace 0|1 [--mcloud PATH]
//! ```
//!
//! With `--trace 0` the workload runs for `S` seconds untraced and the
//! last stdout line carries the end-to-end metrics, their times scaled to
//! the reference host speed (see `probe`). With `--trace 1` it
//! runs `S/2` seconds untraced, then `S/2` seconds with spans, and the
//! last line carries the per-layer metrics (see README.md). Inputs are a
//! pure function of `--seed`; `--mcloud` names the `mcloud` binary the
//! serve workloads spawn.

mod inputs;
mod json;
mod layers;
mod plan;
mod probe;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use layers::Layers;
pub use probe::HostProbe;
use spans::Spans;

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub run_for: Duration,
    /// The `mcloud` binary (serve workloads only).
    pub mcloud: Option<PathBuf>,
}

/// Least time between two host probes during the timed ops: about 1.5%
/// of the run goes to probes, a hundred or more per 30-second run.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Host probe samples taken between set-up repetitions, ns.
    pub setup_probe_ns: Vec<u64>,
    /// Latency of every attempted op, nanoseconds. Their sum is the timed
    /// wall time: output checks, traced replays and probes run between
    /// ops, untimed.
    pub lat_ns: Vec<u64>,
    /// Host probe samples taken between ops, ns.
    pub probe_ns: Vec<u64>,
    /// When the last of them was taken.
    last_probe: Option<Instant>,
    /// Ops that errored or failed their output check.
    pub failed: u64,
    /// CPU time of the working process over the timed window.
    pub cpu: Duration,
    /// Peak resident memory of the working process, kB.
    pub peak_rss_kb: u64,
    /// Output checks, outside the timed region, that failed.
    pub check_errors: Vec<String>,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Takes a host probe sample between ops, when `PROBE_EVERY` has
    /// passed since the last one.
    pub fn probe(&mut self, probe: &mut HostProbe) {
        if self.last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.probe_ns.push(probe.sample());
            self.last_probe = Some(Instant::now());
        }
    }

    /// `cpu` of this process less the time its host probes ran.
    pub fn cpu_less_probes(&self, cpu: Duration) -> Duration {
        cpu.saturating_sub(Duration::from_nanos(self.probe_ns.iter().sum()))
    }

    /// Records one op's latency.
    pub fn record(&mut self, latency: Duration) {
        self.lat_ns.push(latency.as_nanos() as u64);
    }

    /// Times one set-up repetition, after a host probe sample.
    pub fn time_setup<R>(
        &mut self,
        probe: &mut HostProbe,
        f: impl FnOnce() -> Result<R, String>,
    ) -> Result<R, String> {
        self.setup_probe_ns.push(probe.sample());
        let t = Instant::now();
        let r = f()?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        Ok(r)
    }

    /// Completed ops per second of timed wall time, scaled to the
    /// reference host speed.
    pub fn ops_per_s(&self) -> f64 {
        let ok = (self.attempted() - self.failed) as f64;
        let wall_ns: u64 = self.lat_ns.iter().sum();
        ok * 1e9 / (wall_ns.max(1) as f64 * probe::scale(&self.probe_ns))
    }
}

type RunFn = fn(&Ctx, &mut Spans, &mut Layers) -> Result<Phase, String>;

const WORKLOADS: [(&str, RunFn); 4] = [
    ("sweep", sweep::run),
    ("plan", plan::run),
    ("serve-stdio", serve::run_stdio),
    ("serve-http", serve::run_http),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mcloud: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?.to_string();
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        mcloud: get("--mcloud").map(PathBuf::from),
    })
}

/// The end-to-end metrics of a phase (name, unit, value), with times
/// scaled to the reference host speed, or raw.
fn end_to_end(p: &Phase, scaled: bool) -> Vec<(&'static str, &'static str, f64)> {
    let mut lat = p.lat_ns.clone();
    lat.sort_unstable();
    // CPU time slows with the host as wall time does.
    let (scale, setup_scale) = if scaled {
        (probe::scale(&p.probe_ns), probe::scale(&p.setup_probe_ns))
    } else {
        (1.0, 1.0)
    };
    let ms = |ns: u64| ns as f64 * scale / 1e6;
    let ok = (p.attempted() - p.failed) as f64;
    let wall_ns: u64 = lat.iter().sum();
    let ops = p.attempted().max(1) as f64;
    vec![
        ("setup_s", "s", stats::median(&p.setup_s) * setup_scale),
        ("ops_per_s", "1/s", ok * 1e3 / ms(wall_ns.max(1))),
        ("op_p50_ms", "ms", ms(stats::percentile(&lat, 50.0))),
        ("op_tail_ms", "ms", ms(stats::tail(&lat).1)),
        (
            "cpu_ms_per_op",
            "ms",
            p.cpu.as_secs_f64() * scale * 1e3 / ops,
        ),
        ("peak_rss_mb", "MB", p.peak_rss_kb as f64 / 1024.0),
    ]
}

fn metrics_json(rows: &[(&str, &str, f64)]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn print_phase(label: &str, p: &Phase) {
    let mut lat = p.lat_ns.clone();
    lat.sort_unstable();
    let (q, _) = stats::tail(&lat);
    println!(
        "[{label}] {} ops attempted, {} failed, failed_share = {} ratio; \
         op_tail_ms is p{q} of {} samples; set-up repeated {} times (median reported)",
        p.attempted(),
        p.failed,
        p.failed as f64 / p.attempted().max(1) as f64,
        lat.len(),
        p.setup_s.len()
    );
    let probe_ms = |s: &[u64]| {
        stats::median(&s.iter().map(|&v| v as f64).collect::<Vec<_>>()) / 1e6
    };
    println!(
        "[{label}] host probe: median {} ms over {} samples between ops, {} ms over {} \
         between set-ups; reference {} ms",
        probe_ms(&p.probe_ns),
        p.probe_ns.len(),
        probe_ms(&p.setup_probe_ns),
        p.setup_probe_ns.len(),
        probe::REFERENCE_NS / 1e6
    );
    for ((name, unit, v), (_, _, raw)) in end_to_end(p, true).into_iter().zip(end_to_end(p, false))
    {
        println!("[{label}] {name} = {v} {unit} (raw {raw})");
    }
    for note in &p.notes {
        println!("[{label}] {note}");
    }
    for e in &p.check_errors {
        println!("[{label}] CHECK FAILED: {e}");
    }
}

fn host_line(args: &Args) -> Result<String, String> {
    // CPUs this process may run on (one when run.py pins it), and the
    // host's count as run.py saw it before pinning.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lanes = mcloud_simkit::configured_lanes();
    if lanes > cpus {
        return Err(format!(
            "MCLOUD_WORKERS gives {lanes} lanes on {cpus} CPUs; set it to at most {cpus}"
        ));
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    Ok(format!(
        "host {{\"nproc\": {}, \"pinned_cpus\": {cpus}, \"mcloud_workers\": {lanes}, \
         \"commit\": \"{}\", \"source_digest\": \"{}\", \"seed\": {}, \"workload\": \"{}\", \
         \"seconds\": {}, \"trace\": {}}}",
        env("PERFBENCH_HOST_CPUS"),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE_DIGEST"),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    ))
}

/// Writes the spans and the per-layer table under `.bench_out/`.
fn write_trace(args: &Args, spans: &Spans) -> Result<(), String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let spans_path = dir.join(format!("spans-{stem}.jsonl"));
    let table_path = dir.join(format!("layers-{stem}.txt"));
    let table = spans.layer_table();
    std::fs::write(&spans_path, spans.to_jsonl())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    std::fs::write(&table_path, &table)
        .map_err(|e| format!("writing {}: {e}", table_path.display()))?;
    print!("{table}");
    println!(
        "wrote {} spans to {} and the span table to {}",
        spans.len(),
        spans_path.display(),
        table_path.display()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let run_fn = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, f)| *f)
        .ok_or_else(|| format!("unknown workload '{}'", args.workload))?;
    println!("{}", host_line(&args)?);

    let mut layers = Layers::new();
    let (phases, rows) = if args.trace {
        let half = Ctx {
            seed: args.seed,
            run_for: Duration::from_secs_f64(args.seconds / 2.0),
            mcloud: args.mcloud.clone(),
        };
        let untraced = run_fn(&half, &mut Spans::disabled(), &mut Layers::new())?;
        print_phase("untraced", &untraced);
        let mut spans = Spans::new();
        let traced = run_fn(&half, &mut spans, &mut layers)?;
        print_phase("traced", &traced);
        let (traced_ops_per_s, untraced_ops_per_s) = (traced.ops_per_s(), untraced.ops_per_s());
        let overhead = 1.0 - traced_ops_per_s / untraced_ops_per_s.max(1e-9);
        println!(
            "tracing overhead: traced ops_per_s {traced_ops_per_s} against untraced \
             {untraced_ops_per_s} ({:+.2}%, scaled to the reference host speed)",
            overhead * 100.0
        );
        layers.set("bench.trace.overhead_share", overhead);
        layers.set("bench.trace.spans", spans.len() as f64);
        write_trace(&args, &spans)?;
        (vec![untraced, traced], layers.rows())
    } else {
        let ctx = Ctx {
            seed: args.seed,
            run_for: Duration::from_secs_f64(args.seconds),
            mcloud: args.mcloud.clone(),
        };
        let phase = run_fn(&ctx, &mut Spans::disabled(), &mut layers)?;
        print_phase("run", &phase);
        let rows = end_to_end(&phase, true);
        (vec![phase], rows)
    };

    let attempted: u64 = phases.iter().map(Phase::attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && phases.iter().all(|p| p.check_errors.is_empty());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&rows)
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
