//! The `mcloud` subcommands. Every command is a pure function from parsed
//! flags to a report string, so the whole CLI is unit-testable without
//! spawning processes.

use mcloud_core::{
    attribute_profile_costs, profile_json, profile_svg, profile_text, profile_trace, simulate,
    simulate_traced, trace_from_jsonl, trace_to_chrome, trace_to_jsonl, DataMode, ExecConfig,
    FaultModel, RetryPolicy, SchedulePolicy, VmOverhead,
};
use mcloud_cost::{ArchiveOrRecompute, Campaign, DatasetHosting, Pricing};
use mcloud_dag::{from_dax, to_dax, to_dot, DotStyle, Workflow};
use mcloud_montage::{generate, Band, MosaicConfig};
use mcloud_service::{
    bursty, class_stream, plan_capacity, poisson, simulate_service, simulate_service_stream,
    AdmissionPolicy, FlashCrowd, PlanSpec, RateProfile, RequestClass, ServiceConfig,
};
use mcloud_simkit::{NullSink, WorkerPool};
use mcloud_sweep::{
    cheapest_within_deadline, geometric_processors, pareto_frontier, processor_sweep,
    processor_sweep_progress, CostTimePoint, Table,
};

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
mcloud — cloud cost/performance planner for Montage-style workflows
        (reproduction of Deelman et al., SC 2008)

usage: mcloud <command> [flags]

commands:
  simulate    price one workflow execution plan
  trace       run one plan and export its event trace (JSONL or Chrome)
  profile     attribute a run's time and dollars to phases and task classes
  plan        sweep provisioning levels and recommend one
  sweep       sweep processor counts with kernel telemetry per point
  generate    emit a synthetic Montage workflow as DAX (and DOT)
  info        analyze a DAX workflow file
  economics   archive-vs-recompute and dataset-hosting break-evens
  service     simulate a month of requests with cloud bursting
  autoscale   simulate an auto-scaled standing pool (dynamic Question 2)
  serve       answer what-if scenario queries over stdio or HTTP, with
              content-addressed result caching
  help        this text

run `mcloud <command> --help` for per-command flags.

environment:
  MCLOUD_WORKERS  worker lanes for parallel sweeps (default: all cores;
                  1 = fully inline, zero thread spawns; results are
                  byte-identical at every setting)";

/// Dispatches a command line (without the program name).
pub fn run(argv: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(USAGE.to_string());
    };
    match cmd.as_str() {
        "simulate" => cmd_simulate(rest),
        "trace" => cmd_trace(rest),
        "profile" => cmd_profile(rest),
        "plan" => cmd_plan(rest),
        "sweep" => cmd_sweep(rest),
        "generate" => cmd_generate(rest),
        "info" => cmd_info(rest),
        "economics" => cmd_economics(rest),
        "service" => cmd_service(rest),
        "autoscale" => cmd_autoscale(rest),
        "serve" => crate::serve::cmd_serve(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

pub(crate) fn wants_help(rest: &[String]) -> bool {
    rest.iter().any(|a| a == "--help" || a == "-h")
}

fn parse_mode(s: &str) -> Result<DataMode, String> {
    match s {
        "remote-io" | "remoteio" => Ok(DataMode::RemoteIo),
        "regular" => Ok(DataMode::Regular),
        "cleanup" | "dynamic-cleanup" => Ok(DataMode::DynamicCleanup),
        other => Err(format!(
            "unknown mode '{other}' (remote-io | regular | cleanup)"
        )),
    }
}

pub(crate) fn parse_band(s: &str) -> Result<Band, String> {
    match s {
        "j" | "J" => Ok(Band::J),
        "h" | "H" => Ok(Band::H),
        "k" | "K" => Ok(Band::K),
        other => Err(format!("unknown band '{other}' (j | h | k)")),
    }
}

/// Shared workflow-building flags: `--degrees`, `--seed`, `--region`,
/// `--band`.
fn workflow_from(args: &Args) -> Result<Workflow, String> {
    let degrees: f64 = args.get_or("degrees", 1.0)?;
    if !(degrees.is_finite() && degrees > 0.0) {
        return Err(format!("--degrees must be positive, got {degrees}"));
    }
    let mut cfg = MosaicConfig::new(degrees);
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        cfg = cfg.seed(seed);
    }
    if let Some(region) = args.get("region") {
        cfg = cfg.region(region);
    }
    if let Some(band) = args.get("band") {
        cfg = cfg.band(parse_band(band)?);
    }
    Ok(generate(&cfg))
}

/// Shared execution flags: mode, bandwidth, prestaged, vm, faults, outages.
pub(crate) fn exec_from(args: &Args) -> Result<ExecConfig, String> {
    let mut cfg = ExecConfig::paper_default();
    if let Some(mode) = args.get("mode") {
        cfg = cfg.mode(parse_mode(mode)?);
    }
    let mbps: f64 = args.get_or("bandwidth-mbps", 10.0)?;
    cfg = cfg.bandwidth(mbps * 1e6);
    if args.has("prestaged") {
        cfg = cfg.prestaged(true);
    }
    if args.has("hourly-billing") {
        cfg = cfg.with_granularity(mcloud_cost::ChargeGranularity::HourlyCpu);
    }
    if args.has("critical-path-first") {
        cfg = cfg.with_policy(SchedulePolicy::CriticalPathFirst);
    }
    let startup: f64 = args.get_or("vm-startup-s", 0.0)?;
    let teardown: f64 = args.get_or("vm-teardown-s", 0.0)?;
    if startup > 0.0 || teardown > 0.0 {
        cfg = cfg.with_vm_overhead(VmOverhead {
            startup_s: startup,
            teardown_s: teardown,
        });
    }
    if let Some(p) = args.get_parsed::<f64>("failure-prob")? {
        cfg = cfg.with_faults(p, args.get_or("failure-seed", 42u64)?);
    }
    // The full fault model; when any axis is enabled it replaces the
    // legacy task-only `--failure-prob` model.
    let fault_rate: f64 = args.get_or("fault-rate", 0.0)?;
    let transfer_fault_rate: f64 = args.get_or("transfer-fault-rate", 0.0)?;
    let mttf: f64 = args.get_or("mttf", 0.0)?;
    if fault_rate > 0.0 || transfer_fault_rate > 0.0 || mttf > 0.0 {
        cfg = cfg.with_fault_model(FaultModel {
            task_failure_prob: fault_rate,
            transfer_failure_prob: transfer_fault_rate,
            proc_mttf_s: mttf,
            seed: args.get_or("fault-seed", 2008u64)?,
        });
    }
    if let Some(n) = args.get_parsed::<u32>("retry-max")? {
        cfg = cfg.with_retry(RetryPolicy::bounded(n));
    }
    for spec in args.get_all("outage") {
        let (start, dur) = spec
            .split_once(':')
            .ok_or_else(|| format!("--outage expects start:duration seconds, got '{spec}'"))?;
        let start: f64 = start
            .parse()
            .map_err(|_| format!("bad outage start '{start}'"))?;
        let dur: f64 = dur
            .parse()
            .map_err(|_| format!("bad outage duration '{dur}'"))?;
        cfg = cfg.with_outage(start, dur);
    }
    Ok(cfg)
}

pub(crate) const SIM_FLAGS: &[&str] = &[
    "degrees",
    "seed",
    "region",
    "band",
    "procs",
    "mode",
    "bandwidth-mbps",
    "prestaged",
    "hourly-billing",
    "critical-path-first",
    "vm-startup-s",
    "vm-teardown-s",
    "failure-prob",
    "failure-seed",
    "fault-rate",
    "transfer-fault-rate",
    "mttf",
    "retry-max",
    "fault-seed",
    "outage",
    "trace-out",
    "trace-format",
];

/// Flags that name a host file (or shape one written there). The CLI
/// honours them; `mcloud serve` refuses them over the wire.
pub(crate) const FILE_FLAGS: &[&str] = &[
    "out",
    "svg",
    "trace",
    "trace-out",
    "trace-format",
    "metrics-out",
    "profile-out",
];

/// Flags of `plan --slo-p99`, the capacity planner.
const PLAN_CAPACITY_FLAGS: &[&str] = &[
    "slo-p99", "rate", "horizon", "seed", "class", "diurnal", "seasonal", "flash", "format", "out",
];

/// True when a `plan` argument list selects the capacity planner.
fn is_capacity_plan(rest: &[String]) -> bool {
    rest.iter().any(|a| a == "--slo-p99")
}

/// Every flag `simulate`, `profile` or `plan` accepts for the argument
/// list `rest`: the one table both the CLI and the server's wire flags
/// derive from.
pub(crate) fn command_flags(cmd: &str, rest: &[String]) -> Vec<&'static str> {
    let extra: &[&str] = match cmd {
        "simulate" => &["profile-out", "metrics-out"],
        "profile" => &["trace", "format", "out", "svg"],
        "plan" if is_capacity_plan(rest) => return PLAN_CAPACITY_FLAGS.to_vec(),
        "plan" => &["deadline-hours", "requests", "max-procs"],
        other => unreachable!("no flag table for '{other}'"),
    };
    SIM_FLAGS.iter().chain(extra).copied().collect()
}

/// Parses `--trace-format` (jsonl | chrome), defaulting to JSONL.
fn parse_trace_format(args: &Args) -> Result<&'static str, String> {
    match args.get("trace-format").unwrap_or("jsonl") {
        "jsonl" | "json-lines" => Ok("jsonl"),
        "chrome" | "perfetto" => Ok("chrome"),
        other => Err(format!("unknown trace format '{other}' (jsonl | chrome)")),
    }
}

fn cmd_simulate(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud simulate — price one workflow execution plan

flags:
  --degrees D            mosaic size (default 1)
  --procs P              fixed provisioning with P processors
                         (omit for on-demand billing)
  --mode M               remote-io | regular | cleanup (default regular)
  --bandwidth-mbps B     link speed (default 10, the paper's)
  --prestaged            inputs already in cloud storage
  --hourly-billing       real 2008 EC2 hour-granular CPU billing
  --critical-path-first  list-schedule by bottom level
  --vm-startup-s S / --vm-teardown-s S
  --failure-prob P [--failure-seed N]
                         legacy task-only faults, unlimited instant retries
  --fault-rate P         per-attempt task failure probability
  --transfer-fault-rate P  per-transfer failure probability
  --mttf S               per-processor mean time to preemption, seconds
  --fault-seed N         seed for all fault draws (default 2008)
  --retry-max N          bound retries per task/transfer with jittered
                         exponential backoff; an exhausted budget aborts
                         the run gracefully with a partial report
  --outage START:DUR     storage outage window (seconds; repeatable)
  --trace-out FILE       also write the event trace here
  --trace-format F       jsonl (default) | chrome
  --profile-out FILE     also write a phase/cost profile report
                         (.json for JSON, anything else for text)
  --metrics-out FILE     also write the run's self-telemetry as Prometheus
                         text exposition (.json for the JSON snapshot);
                         deterministic — byte-identical across runs,
                         machines, and MCLOUD_WORKERS settings
  --seed / --region / --band   workload generator knobs"
            .to_string());
    }
    let args = Args::parse(rest, &command_flags("simulate", rest))?;
    let wf = workflow_from(&args)?;
    let mut cfg = exec_from(&args)?;
    if let Some(p) = args.get_parsed::<u32>("procs")? {
        cfg.provisioning = mcloud_core::Provisioning::Fixed { processors: p };
    }
    let mut trace_note = String::new();
    let trace_out = args.get("trace-out");
    let profile_out = args.get("profile-out");
    let r = if trace_out.is_some() || profile_out.is_some() {
        let (r, sink) = simulate_traced(&wf, &cfg);
        if let Some(path) = trace_out {
            let format = parse_trace_format(&args)?;
            let doc = match format {
                "chrome" => trace_to_chrome(&wf, sink.events()),
                _ => trace_to_jsonl(&wf, sink.events()),
            };
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            trace_note.push_str(&format!(
                "trace         {} events ({format}) -> {path}\n",
                sink.events().len()
            ));
        }
        if let Some(path) = profile_out {
            let p = profile_trace(&wf, sink.events());
            let attr = attribute_profile_costs(&p, &r, &cfg.pricing);
            let title = profile_title(&wf, &cfg);
            let doc = if path.ends_with(".json") {
                profile_json(&wf, &title, &p, &attr)
            } else {
                profile_text(&wf, &title, &p, &attr)
            };
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            trace_note.push_str(&format!(
                "profile       {} classes -> {path}\n",
                p.classes.len()
            ));
        }
        r
    } else {
        simulate(&wf, &cfg)
    };
    if let Some(path) = args.get("metrics-out") {
        let reg = r.registry();
        let doc = if path.ends_with(".json") {
            reg.json()
        } else {
            reg.prometheus_text()
        };
        std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
        trace_note.push_str(&format!("metrics       {} bytes -> {path}\n", doc.len()));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "workflow      {} ({} tasks, {} files, {:.2} GB data, CCR {:.3})\n",
        wf.name(),
        wf.num_tasks(),
        wf.num_files(),
        wf.total_bytes() as f64 / 1e9,
        wf.ccr_at_link(cfg.bandwidth_bps)
    ));
    out.push_str(&format!(
        "plan          {} / {} @ {:.0} Mbps{}\n",
        cfg.provisioning.label(),
        cfg.mode.label(),
        cfg.bandwidth_bps / 1e6,
        if cfg.prestaged_inputs {
            " (prestaged inputs)"
        } else {
            ""
        }
    ));
    out.push_str(&format!("makespan      {:.3} h\n", r.makespan_hours()));
    out.push_str(&format!(
        "data          in {:.3} GB ({} transfers), out {:.3} GB ({} transfers)\n",
        r.gb_in(),
        r.transfers_in,
        r.gb_out(),
        r.transfers_out
    ));
    out.push_str(&format!(
        "storage       {:.3} GB-hours (peak {:.3} GB)\n",
        r.storage_gb_hours(),
        r.storage_peak_bytes / 1e9
    ));
    if r.failed_attempts > 0 || r.preemptions > 0 || r.transfer_failures > 0 {
        out.push_str(&format!(
            "faults        {} failed attempts over {} executions \
             ({} retries, {} preemptions, {} failed transfers)\n",
            r.failed_attempts, r.task_executions, r.retries, r.preemptions, r.transfer_failures
        ));
        out.push_str(&format!(
            "wasted        {:.1} CPU-s, {:.4} GB in, {:.4} GB out (billed but redone)\n",
            r.wasted_cpu_seconds,
            r.wasted_bytes_in as f64 / 1e9,
            r.wasted_bytes_out as f64 / 1e9
        ));
    }
    if let Some(p) = r.processors {
        out.push_str(&format!(
            "utilization   {:.0}% of {} processors\n",
            r.cpu_utilization * 100.0,
            p
        ));
    }
    out.push_str(&format!(
        "cost          {} (cpu {}, storage {}, in {}, out {})\n",
        r.total_cost(),
        r.costs.cpu,
        r.costs.storage,
        r.costs.transfer_in,
        r.costs.transfer_out
    ));
    out.push_str(&trace_note);
    if !r.completed {
        // A graceful abort is a failure exit (pinned by a test below), but
        // the partial report still tells the user what the attempt cost.
        return Err(format!(
            "workflow aborted: retry budget exhausted after {} of {} tasks\n\n\
             partial report:\n{out}",
            r.tasks_completed,
            wf.num_tasks()
        ));
    }
    Ok(out)
}

fn cmd_trace(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud trace — run one execution plan and export its event trace

Prints JSON Lines (one event per line) to stdout, or writes to --out.
The chrome format opens in Perfetto (ui.perfetto.dev) or chrome://tracing.

flags:
  --out FILE        write the trace here and print a summary instead
  --format F        jsonl (default) | chrome
  plus all `mcloud simulate` flags (--degrees, --procs, --mode, ...)"
            .to_string());
    }
    let mut flags = SIM_FLAGS.to_vec();
    flags.extend(["out", "format"]);
    let args = Args::parse(rest, &flags)?;
    let wf = workflow_from(&args)?;
    let mut cfg = exec_from(&args)?;
    if let Some(p) = args.get_parsed::<u32>("procs")? {
        cfg.provisioning = mcloud_core::Provisioning::Fixed { processors: p };
    }
    let format = match args.get("format").unwrap_or("jsonl") {
        "jsonl" | "json-lines" => "jsonl",
        "chrome" | "perfetto" => "chrome",
        other => return Err(format!("unknown trace format '{other}' (jsonl | chrome)")),
    };
    let (r, sink) = simulate_traced(&wf, &cfg);
    let doc = match format {
        "chrome" => trace_to_chrome(&wf, sink.events()),
        _ => trace_to_jsonl(&wf, sink.events()),
    };
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            let c = sink.counters();
            Ok(format!(
                "wrote {} events ({format}, {} bytes) to {path}\n\
                 tasks         {} started, {} ok, {} failed\n\
                 transfers     in {} ({} B), out {} ({} B)\n\
                 storage       {} allocs / {} frees, peak {:.3} GB\n\
                 makespan      {:.3} h, cost {}\n",
                c.events,
                doc.len(),
                c.tasks_started,
                c.tasks_succeeded,
                c.tasks_failed,
                c.transfers_in,
                c.bytes_in,
                c.transfers_out,
                c.bytes_out,
                c.storage_allocs,
                c.storage_frees,
                sink.storage_peak_bytes() / 1e9,
                r.makespan_hours(),
                r.total_cost(),
            ))
        }
        None => Ok(doc),
    }
}

/// Deterministic report header shared by `simulate --profile-out` and
/// `mcloud profile`.
fn profile_title(wf: &Workflow, cfg: &ExecConfig) -> String {
    format!(
        "{} [{} / {}]",
        wf.name(),
        cfg.provisioning.label(),
        cfg.mode.label()
    )
}

fn cmd_profile(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud profile — attribute a run's time and dollars to phases and classes

Reconstructs per-task spans from the event trace and reports where each
task class's wall time went (queue-wait, execution, transfer-in/out,
storage-wait), per-level windows, the observed critical path, and which
class spent the dollars on which resource.

flags:
  --trace FILE      profile a previously exported JSONL trace instead of
                    the trace of a fresh run (the plan flags must match
                    the run that produced it)
  --format F        text (default) | json
  --out FILE        write the report here instead of stdout
  --svg FILE        also write a stacked phase-breakdown chart
  plus all `mcloud simulate` flags (--degrees, --procs, --mode, ...)"
            .to_string());
    }
    let args = Args::parse(rest, &command_flags("profile", rest))?;
    let wf = workflow_from(&args)?;
    let mut cfg = exec_from(&args)?;
    if let Some(p) = args.get_parsed::<u32>("procs")? {
        cfg.provisioning = mcloud_core::Provisioning::Fixed { processors: p };
    }
    // The report (billing totals) always comes from a deterministic
    // re-simulation of the configured plan; the events come from the
    // trace file when one is supplied.
    let (report, sink) = simulate_traced(&wf, &cfg);
    let p = match args.get("trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let events = trace_from_jsonl(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            profile_trace(&wf, &events)
        }
        None => profile_trace(&wf, sink.events()),
    };
    let attr = attribute_profile_costs(&p, &report, &cfg.pricing);
    let title = profile_title(&wf, &cfg);
    let doc = match args.get("format").unwrap_or("text") {
        "text" => profile_text(&wf, &title, &p, &attr),
        "json" => profile_json(&wf, &title, &p, &attr),
        other => return Err(format!("unknown profile format '{other}' (text | json)")),
    };
    let mut notes = String::new();
    if let Some(path) = args.get("svg") {
        let svg = profile_svg(&title, &p, &attr);
        std::fs::write(path, &svg).map_err(|e| format!("writing {path}: {e}"))?;
        notes.push_str(&format!("wrote phase chart to {path}\n"));
    }
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!(
                "wrote {} profile ({} bytes) to {path}\n{notes}",
                args.get("format").unwrap_or("text"),
                doc.len()
            ))
        }
        None => Ok(format!("{doc}{notes}")),
    }
}

/// Parses repeatable `--burst start:duration:multiplier` windows.
fn parse_bursts(args: &Args) -> Result<Vec<(f64, f64, f64)>, String> {
    let mut bursts = Vec::new();
    for spec in args.get_all("burst") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "--burst expects start:duration:multiplier, got '{spec}'"
            ));
        }
        let parse = |s: &str| -> Result<f64, String> {
            s.parse().map_err(|_| format!("bad burst component '{s}'"))
        };
        bursts.push((parse(parts[0])?, parse(parts[1])?, parse(parts[2])?));
    }
    Ok(bursts)
}

/// Parses repeatable `--class degrees:rate:priority` request classes.
fn parse_classes(args: &Args) -> Result<Vec<RequestClass>, String> {
    let mut classes = Vec::new();
    for spec in args.get_all("class") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "--class expects degrees:rate:priority, got '{spec}'"
            ));
        }
        let degrees: f64 = parts[0]
            .parse()
            .map_err(|_| format!("bad class degrees '{}'", parts[0]))?;
        let rate_per_hour: f64 = parts[1]
            .parse()
            .map_err(|_| format!("bad class rate '{}'", parts[1]))?;
        let priority: u8 = parts[2]
            .parse()
            .map_err(|_| format!("bad class priority '{}'", parts[2]))?;
        classes.push(RequestClass {
            rate_per_hour,
            degrees,
            priority,
        });
    }
    Ok(classes)
}

/// Builds a [`RateProfile`] from `--diurnal`, `--seasonal`, and
/// repeatable `--flash start:duration:multiplier` flags.
fn rate_profile_from(args: &Args, base_rate: f64) -> Result<RateProfile, String> {
    let mut profile = RateProfile::constant(base_rate);
    profile.diurnal_amplitude = args.get_or("diurnal", 0.0)?;
    profile.seasonal_amplitude = args.get_or("seasonal", 0.0)?;
    for spec in args.get_all("flash") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "--flash expects start:duration:multiplier, got '{spec}'"
            ));
        }
        let parse = |s: &str| -> Result<f64, String> {
            s.parse().map_err(|_| format!("bad flash component '{s}'"))
        };
        profile.flash_crowds.push(FlashCrowd {
            start_hour: parse(parts[0])?,
            duration_hours: parse(parts[1])?,
            multiplier: parse(parts[2])?,
        });
    }
    profile.validate()?;
    Ok(profile)
}

/// Parses `--admission` (reject | deflect | admit-all).
fn parse_admission(args: &Args) -> Result<AdmissionPolicy, String> {
    match args.get("admission") {
        None => Ok(AdmissionPolicy::AdmitAll),
        Some("reject") => Ok(AdmissionPolicy::Reject),
        Some("deflect") => Ok(AdmissionPolicy::Deflect),
        Some("admit-all") | Some("admit") => Ok(AdmissionPolicy::AdmitAll),
        Some(other) => Err(format!(
            "unknown admission policy '{other}' (reject | deflect | admit-all)"
        )),
    }
}

fn cmd_plan(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud plan — sweep provisioning levels and recommend one

per-request mode (default):
  --degrees D          mosaic size (default 1)
  --deadline-hours H   turnaround promise (required)
  --requests N         scale the bill to a campaign of N requests
  --max-procs P        top of the geometric sweep (default 128)
  plus all `mcloud simulate` execution flags

capacity mode (--slo-p99 selects it): search auto-scale pool
configurations for the cheapest one meeting a p99 turnaround SLO
against a seeded demand forecast.
  --slo-p99 H          p99 turnaround SLO in hours (required)
  --rate R             total offered requests/hour (default 2)
  --horizon H          campaign length in hours (default 168)
  --seed N             arrival stream seed (default 2008)
  --class D:R:P        request class degrees:rate:priority (repeatable;
                       overrides the default 70/25/5 mix and --rate)
  --diurnal A          diurnal amplitude 0..1 (default 0.3)
  --seasonal A         seasonal amplitude 0..1 (default 0)
  --flash S:D:M        flash crowd start_h:duration_h:multiplier
                       (repeatable)
  --format F           text | json (default text)
  --out PATH           write the plan to a file instead of stdout"
            .to_string());
    }
    if is_capacity_plan(rest) {
        return cmd_plan_capacity(rest);
    }
    let args = Args::parse(rest, &command_flags("plan", rest))?;
    let wf = workflow_from(&args)?;
    let cfg = exec_from(&args)?;
    let deadline: f64 = args.require("deadline-hours")?;
    let requests: u64 = args.get_or("requests", 1u64)?;
    let max_procs: u32 = args.get_or("max-procs", 128u32)?;

    let points = processor_sweep(&wf, &cfg, &geometric_processors(max_procs));
    let ct: Vec<CostTimePoint> = points
        .iter()
        .map(|p| CostTimePoint {
            cost: p.report.total_cost().dollars(),
            time: p.report.makespan.as_secs_f64(),
        })
        .collect();
    let frontier = pareto_frontier(&ct);

    let mut table = Table::new(vec!["procs", "cost", "hours", "campaign", "frontier"]);
    for (i, p) in points.iter().enumerate() {
        table.push_row(vec![
            p.processors.to_string(),
            format!("{:.3}", p.report.total_cost().dollars()),
            format!("{:.3}", p.report.makespan_hours()),
            format!("{:.2}", p.report.total_cost().dollars() * requests as f64),
            if frontier.contains(&i) {
                "*".into()
            } else {
                String::new()
            },
        ]);
    }
    let mut out = table.to_ascii();
    match cheapest_within_deadline(&ct, deadline * 3600.0) {
        Some(i) => {
            let p = &points[i];
            out.push_str(&format!(
                "\nrecommendation: {} processors — {} per request at {:.2} h \
                 ({} for {requests} requests)\n",
                p.processors,
                p.report.total_cost(),
                p.report.makespan_hours(),
                p.report.total_cost() * requests as f64
            ));
        }
        None => {
            out.push_str(&format!(
                "\nno provisioning level meets a {deadline:.2} h deadline; \
                 fastest is {:.2} h\n",
                points
                    .iter()
                    .map(|p| p.report.makespan_hours())
                    .fold(f64::INFINITY, f64::min)
            ));
        }
    }
    Ok(out)
}

/// The `plan --slo-p99` branch: the service-level capacity planner.
fn cmd_plan_capacity(rest: &[String]) -> Result<String, String> {
    let args = Args::parse(rest, PLAN_CAPACITY_FLAGS)?;
    let slo: f64 = args.require("slo-p99")?;
    let rate: f64 = args.get_or("rate", 2.0)?;
    let horizon: f64 = args.get_or("horizon", 168.0)?;
    let mut spec = PlanSpec::new(slo, rate, horizon);
    spec.seed = args.get_or("seed", 2008u64)?;
    let classes = parse_classes(&args)?;
    if !classes.is_empty() {
        spec.classes = classes;
    }
    spec.modulation.diurnal_amplitude = args.get_or("diurnal", 0.3)?;
    spec.modulation.seasonal_amplitude = args.get_or("seasonal", 0.0)?;
    for spec_str in args.get_all("flash") {
        let parts: Vec<&str> = spec_str.split(':').collect();
        if parts.len() != 3 {
            return Err(format!(
                "--flash expects start:duration:multiplier, got '{spec_str}'"
            ));
        }
        let parse = |s: &str| -> Result<f64, String> {
            s.parse().map_err(|_| format!("bad flash component '{s}'"))
        };
        spec.modulation.flash_crowds.push(FlashCrowd {
            start_hour: parse(parts[0])?,
            duration_hours: parse(parts[1])?,
            multiplier: parse(parts[2])?,
        });
    }
    let plan = plan_capacity(&spec)?;
    let doc = match args.get("format").unwrap_or("text") {
        "text" => mcloud_service::plan_text(&spec, &plan),
        "json" => mcloud_service::plan_json(&spec, &plan),
        other => return Err(format!("unknown plan format '{other}' (text | json)")),
    };
    if let Some(path) = args.get("out") {
        std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
        return Ok(format!(
            "wrote capacity plan ({} candidates) to {path}\n",
            plan.candidates.len()
        ));
    }
    Ok(doc)
}

fn cmd_sweep(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud sweep — sweep processor counts with kernel telemetry per point

Simulates the workflow at every processor count of a geometric ladder
and tabulates cost, makespan, and the kernel's deterministic
self-telemetry (events processed, event-queue pops, peak pending)
for each point. The table is byte-identical at every MCLOUD_WORKERS
setting; --progress adds a live wall-clock heartbeat on stderr.

flags:
  --degrees D          mosaic size (default 1)
  --max-procs P        top of the geometric ladder (default 128)
  --progress           live `sweep done/total` heartbeat on stderr, plus
                       a worker-lane summary after the sweep (wall-clock;
                       never part of the stdout table)
  plus all `mcloud simulate` execution flags"
            .to_string());
    }
    let mut flags = SIM_FLAGS.to_vec();
    flags.extend(["max-procs", "progress"]);
    let args = Args::parse(rest, &flags)?;
    let wf = workflow_from(&args)?;
    let cfg = exec_from(&args)?;
    let max_procs: u32 = args.get_or("max-procs", 128u32)?;
    let ladder = geometric_processors(max_procs);

    let points = if args.has("progress") {
        let on_progress = |done: usize, total: usize| {
            eprint!("\rsweep {done}/{total} points");
            if done == total {
                eprintln!();
            }
        };
        let points = processor_sweep_progress(&wf, &cfg, &ladder, &on_progress);
        // Lane summary: wall-clock class, so stderr only — stdout stays
        // byte-identical at every MCLOUD_WORKERS setting.
        if WorkerPool::global_initialized() {
            let pool = WorkerPool::global();
            let uptime_s = pool.uptime_ns() as f64 / 1e9;
            for s in pool.lane_stats() {
                eprintln!(
                    "lane {}: {} sims in {} chunks, {:.3}s busy / {:.3}s up",
                    s.lane,
                    s.items,
                    s.chunks,
                    s.busy_ns as f64 / 1e9,
                    uptime_s
                );
            }
        }
        points
    } else {
        processor_sweep(&wf, &cfg, &ladder)
    };

    let mut table = Table::new(vec![
        "procs",
        "cost",
        "hours",
        "events",
        "pops",
        "peak-pend",
        "grants",
    ]);
    for p in &points {
        let k = &p.report.kernel;
        table.push_row(vec![
            p.processors.to_string(),
            format!("{:.3}", p.report.total_cost().dollars()),
            format!("{:.3}", p.report.makespan_hours()),
            p.report.events_processed.to_string(),
            k.queue.popped.to_string(),
            k.queue.peak_pending.to_string(),
            k.pool_grants.to_string(),
        ]);
    }
    Ok(table.to_ascii())
}

fn cmd_generate(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud generate — emit a synthetic Montage workflow

flags:
  --degrees D     mosaic size (default 1)
  --out FILE      write DAX XML here (stdout summary otherwise)
  --dot FILE      also write a Graphviz rendering
  --seed / --region / --band"
            .to_string());
    }
    let args = Args::parse(rest, &["degrees", "seed", "region", "band", "out", "dot"])?;
    let wf = workflow_from(&args)?;
    let dax = to_dax(&wf);
    let mut out = format!(
        "generated {}: {} tasks, {} files, {:.2} GB, depth {}\n",
        wf.name(),
        wf.num_tasks(),
        wf.num_files(),
        wf.total_bytes() as f64 / 1e9,
        wf.depth()
    );
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &dax).map_err(|e| format!("writing {path}: {e}"))?;
            out.push_str(&format!("wrote {} bytes of DAX to {path}\n", dax.len()));
        }
        None => out.push_str(&dax),
    }
    if let Some(path) = args.get("dot") {
        let dot = to_dot(&wf, DotStyle::Tasks);
        std::fs::write(path, &dot).map_err(|e| format!("writing {path}: {e}"))?;
        out.push_str(&format!("wrote DOT to {path}\n"));
    }
    Ok(out)
}

fn cmd_info(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok(
            "mcloud info — analyze a DAX file\n\nflags:\n  --dax FILE   the workflow description"
                .into(),
        );
    }
    let args = Args::parse(rest, &["dax"])?;
    let path: String = args.require("dax")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let wf = from_dax(&text).map_err(|e| e.to_string())?;
    let stats = wf.stats();
    let mut modules = Table::new(vec!["module", "tasks", "mean_runtime_s", "output_gb"]);
    for m in wf.module_summary() {
        modules.push_row(vec![
            m.module.clone(),
            m.tasks.to_string(),
            format!("{:.1}", m.mean_runtime_s),
            format!("{:.4}", m.output_bytes as f64 / 1e9),
        ]);
    }
    Ok(format!(
        "workflow        {}\n\
         tasks           {}\n\
         files           {}\n\
         depth           {} levels, widths {:?}\n\
         total runtime   {:.1} CPU-hours\n\
         total data      {:.3} GB ({:.3} GB external inputs, {:.3} GB deliverables)\n\
         critical path   {:.1} min\n\
         max parallelism {}\n\
         CCR @ 10 Mbps   {:.4}\n\n{}",
        wf.name(),
        stats.tasks,
        stats.files,
        stats.depth,
        wf.level_widths(),
        stats.total_runtime_s / 3600.0,
        stats.total_bytes as f64 / 1e9,
        stats.external_input_bytes as f64 / 1e9,
        stats.staged_out_bytes as f64 / 1e9,
        stats.critical_path_s / 60.0,
        stats.max_parallelism,
        wf.ccr_at_link(10e6),
        modules.to_ascii(),
    ))
}

fn cmd_economics(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud economics — the paper's Question 2b/3 arithmetic

flags:
  --degrees D          mosaic size (default 1)
  --dataset-tb T       hosted dataset size for break-even (default 12, 2MASS)
  --campaign N         plates in a campaign (default 3900, the whole sky)"
            .to_string());
    }
    let args = Args::parse(
        rest,
        &[
            "degrees",
            "seed",
            "region",
            "band",
            "dataset-tb",
            "campaign",
        ],
    )?;
    let wf = workflow_from(&args)?;
    let pricing = Pricing::amazon_2008();
    let staged = simulate(&wf, &ExecConfig::paper_default());
    let hosted = simulate(&wf, &ExecConfig::paper_default().prestaged(true));
    let dataset_tb: f64 = args.get_or("dataset-tb", 12.0)?;
    let dataset_bytes = (dataset_tb * 1e12) as u64;
    let campaign_n: u64 = args.get_or("campaign", 3_900u64)?;

    let mosaic = wf
        .staged_out_files()
        .iter()
        .map(|&f| wf.file(f))
        .find(|f| f.name.ends_with(".fits"))
        .ok_or("workflow delivers no FITS mosaic")?;
    let archive = ArchiveOrRecompute {
        recompute_cost: staged.costs.cpu,
        product_bytes: mosaic.bytes,
    };
    let hosting = DatasetHosting {
        dataset_bytes,
        request_cost_staged: staged.total_cost(),
        request_cost_hosted: hosted.total_cost(),
    };
    let campaign = Campaign {
        requests: campaign_n,
        cost_per_request: staged.total_cost(),
    };

    Ok(format!(
        "request cost             {} staged / {} with hosted inputs\n\
         campaign of {campaign_n}      {}\n\
         mosaic archival          {:.0} MB, break-even {:.1} months of storage\n\
         dataset hosting          {:.1} TB costs {} per month (+{} one-time ingest)\n\
         hosting break-even       {:.0} requests/month\n",
        staged.total_cost(),
        hosted.total_cost(),
        campaign.total(),
        mosaic.bytes as f64 / 1e6,
        archive.break_even_months(&pricing),
        dataset_tb,
        pricing.monthly_storage_cost(dataset_bytes),
        hosting.ingest_cost(&pricing),
        hosting.break_even_requests_per_month(&pricing),
    ))
}

fn cmd_service(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud service — simulate request traffic with cloud bursting

flags:
  --rate R             requests/hour base rate (default 0.5)
  --horizon-hours H    simulated span (default 720 = 30 days)
  --degrees D          request size (default 1)
  --slots N            local concurrent request slots (default 2)
  --local-procs P      processors per local slot (default 8)
  --cloud-procs P      processors per cloud burst (default 16)
  --threshold K        burst when K requests wait (omit: never burst)
  --burst S:D:M        overload window: start_h:duration_h:multiplier
                       (repeatable)
  --request-failure-prob P  chance each request run fails and is redone
  --request-retry-max N     retries allowed per request (default 0)
  --fault-seed N       seed for request-failure draws (default 2008)
  --seed N             arrival stream seed (default 2008)

campaign flags (any of these switches to the streaming generator:
arrivals are produced lazily, so year-long 10^6-request campaigns run
in backlog-bounded memory):
  --class D:R:P        request class degrees:rate:priority (repeatable;
                       replaces --rate/--degrees)
  --diurnal A          diurnal rate amplitude 0..1 (default 0)
  --seasonal A         seasonal rate amplitude 0..1 (default 0)
  --flash S:D:M        flash crowd start_h:duration_h:multiplier
                       (repeatable)

admission control (either mode):
  --queue-bound N      reject/deflect arrivals when N requests wait
  --admission P        overflow policy: reject | deflect (required with
                       --queue-bound)
  --metrics-out PATH   write the Prometheus metrics exposition to a file"
            .to_string());
    }
    let args = Args::parse(
        rest,
        &[
            "rate",
            "horizon-hours",
            "degrees",
            "slots",
            "local-procs",
            "cloud-procs",
            "threshold",
            "burst",
            "request-failure-prob",
            "request-retry-max",
            "fault-seed",
            "seed",
            "class",
            "diurnal",
            "seasonal",
            "flash",
            "queue-bound",
            "admission",
            "metrics-out",
        ],
    )?;
    let rate: f64 = args.get_or("rate", 0.5)?;
    let horizon: f64 = args.get_or("horizon-hours", 720.0)?;
    let degrees: f64 = args.get_or("degrees", 1.0)?;
    let seed: u64 = args.get_or("seed", 2008u64)?;
    let bursts = parse_bursts(&args)?;
    let cfg = ServiceConfig {
        local_slots: args.get_or("slots", 2u32)?,
        local_procs_per_request: args.get_or("local-procs", 8u32)?,
        cloud_procs_per_request: args.get_or("cloud-procs", 16u32)?,
        burst_threshold: args.get_parsed::<usize>("threshold")?,
        exec: ExecConfig::paper_default(),
        local_cost_per_slot_hour: mcloud_cost::Money::ZERO,
        request_failure_prob: args.get_or("request-failure-prob", 0.0)?,
        request_retry_max: args.get_or("request-retry-max", 0u32)?,
        fault_seed: args.get_or("fault-seed", 2008u64)?,
        queue_bound: args.get_parsed::<usize>("queue-bound")?,
        admission: parse_admission(&args)?,
    };
    cfg.validate()?;

    let campaign_mode =
        args.has("class") || args.has("diurnal") || args.has("seasonal") || args.has("flash");
    let report = if campaign_mode {
        // Streaming path: arrivals come off a lazy generator, never a
        // materialized Vec — memory stays bounded by the live backlog.
        if !bursts.is_empty() {
            return Err(
                "--burst belongs to the legacy generator; use --flash with campaign flags"
                    .to_string(),
            );
        }
        let classes = if args.has("class") {
            parse_classes(&args)?
        } else {
            vec![RequestClass {
                rate_per_hour: rate,
                degrees,
                priority: 0,
            }]
        };
        let profile = rate_profile_from(&args, 1.0)?; // base ignored per class
        let stream = class_stream(&classes, &profile, horizon, seed);
        simulate_service_stream(stream, &cfg, &mut NullSink, |_| {})
    } else {
        let arrivals = if bursts.is_empty() {
            poisson(rate, horizon, degrees, seed)
        } else {
            bursty(rate, horizon, degrees, &bursts, seed)
        };
        simulate_service(&arrivals, &cfg)
    };

    if let Some(path) = args.get("metrics-out") {
        std::fs::write(path, report.prometheus_text())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    let mut out = format!(
        "traffic         {} requests over {horizon:.0} h ({:.2}/h observed)\n\
         served          {} local, {} cloud\n",
        report.offered(),
        report.offered() as f64 / horizon,
        report.local_requests(),
        report.cloud_requests(),
    );
    if cfg.queue_bound.is_some() {
        out.push_str(&format!(
            "admission       {} rejected, {} deflected (queue bound {})\n",
            report.rejected_requests(),
            report.deflected_requests(),
            cfg.queue_bound.unwrap_or(0),
        ));
    }
    out.push_str(&format!(
        "cloud spend     {}\n\
         waits           mean {:.2} h, max {:.2} h\n\
         turnaround      mean {:.2} h, p95 {:.2} h\n",
        report.cloud_cost,
        report.mean_wait_hours(),
        report.max_wait_hours(),
        report.mean_turnaround_hours(),
        report.turnaround_quantile(0.95),
    ));
    if campaign_mode {
        out.push_str(&format!(
            "p99             {:.2} h turnaround\n\
             backlog         mean {:.2}, peak {:.0}\n",
            report.turnaround_quantile(0.99),
            report.backlog_mean,
            report.backlog_peak,
        ));
    }
    Ok(out)
}

fn cmd_autoscale(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok("\
mcloud autoscale — simulate an auto-scaled standing pool

flags:
  --rate R             requests/hour base rate (default 0.5)
  --horizon-hours H    simulated span (default 720)
  --degrees D          request size (default 1)
  --min-slots N / --max-slots N   pool bounds (default 1..8)
  --scale-up-queue K   rent a slot when K requests wait (default 2)
  --boot-s S           VM boot delay per slot (default 120)
  --procs-per-slot P   processors per slot (default 16)
  --idle-release-s S   grace period before an idle slot above the floor
                       is released (default 0 = immediate)
  --queue-bound N      reject/deflect arrivals when N requests wait
  --admission P        overflow policy: reject | deflect (required with
                       --queue-bound)
  --burst S:D:M        overload window (repeatable)
  --seed N             arrival stream seed (default 2008)"
            .to_string());
    }
    let args = Args::parse(
        rest,
        &[
            "rate",
            "horizon-hours",
            "degrees",
            "min-slots",
            "max-slots",
            "scale-up-queue",
            "boot-s",
            "procs-per-slot",
            "idle-release-s",
            "queue-bound",
            "admission",
            "burst",
            "seed",
        ],
    )?;
    let rate: f64 = args.get_or("rate", 0.5)?;
    let horizon: f64 = args.get_or("horizon-hours", 720.0)?;
    let degrees: f64 = args.get_or("degrees", 1.0)?;
    let seed: u64 = args.get_or("seed", 2008u64)?;
    let bursts = parse_bursts(&args)?;
    let arrivals = if bursts.is_empty() {
        poisson(rate, horizon, degrees, seed)
    } else {
        bursty(rate, horizon, degrees, &bursts, seed)
    };
    use mcloud_service::{simulate_autoscale, AutoScaleConfig};
    let procs: u32 = args.get_or("procs-per-slot", 16u32)?;
    let cfg = AutoScaleConfig {
        min_slots: args.get_or("min-slots", 1u32)?,
        max_slots: args.get_or("max-slots", 8u32)?,
        scale_up_queue: args.get_or("scale-up-queue", 2usize)?,
        boot_s: args.get_or("boot-s", 120.0)?,
        idle_release_s: args.get_or("idle-release-s", 0.0)?,
        procs_per_slot: procs,
        slot_cost_per_hour: mcloud_cost::Money::from_dollars(procs as f64 * 0.10),
        queue_bound: args.get_parsed::<usize>("queue-bound")?,
        admission: parse_admission(&args)?,
        exec: ExecConfig::paper_default(),
    };
    cfg.validate()?;
    let r = simulate_autoscale(&arrivals, &cfg);
    let mut out = format!(
        "traffic        {} requests over {horizon:.0} h\n\
         pool           peak {} slots, {} rentals, {:.0} slot-hours\n\
         spend          {} rental + {} data management = {}\n\
         waits          mean {:.2} h, max {:.2} h\n",
        arrivals.len(),
        r.peak_slots,
        r.rentals,
        r.slot_hours,
        r.rental_cost,
        r.dm_cost,
        r.total_cost(),
        r.mean_wait_hours(),
        r.max_wait_hours(),
    );
    if cfg.queue_bound.is_some() {
        out.push_str(&format!(
            "admission      {} rejected, {} deflected ({} deflect spend)\n",
            r.rejected, r.deflected, r.deflect_cost,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(cmdline: &str) -> Result<String, String> {
        let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
        run(&argv)
    }

    #[test]
    fn help_paths() {
        assert!(run(&[]).unwrap().contains("usage"));
        assert!(run_str("help").unwrap().contains("commands:"));
        assert!(run_str("simulate --help").unwrap().contains("--degrees"));
        assert!(run_str("plan --help").unwrap().contains("--deadline-hours"));
        assert!(run_str("service --help").unwrap().contains("--burst"));
        assert!(run_str("serve --help").unwrap().contains("--listen"));
        assert!(run_str("bogus").unwrap_err().contains("unknown command"));
    }

    #[test]
    fn sweep_rejects_the_removed_incremental_flags() {
        let help = run_str("sweep --help").unwrap();
        assert!(!help.contains("incremental"), "{help}");
        for flag in ["--incremental", "--no-incremental"] {
            let err = run_str(&format!("sweep --degrees 0.5 --max-procs 2 {flag}")).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
    }

    #[test]
    fn simulate_default_matches_paper_scale() {
        let out = run_str("simulate --degrees 1 --procs 1").unwrap();
        assert!(out.contains("203 tasks"), "{out}");
        assert!(out.contains("fixed(1)"));
        // ~$0.59 at ~5.5 h (the paper's ~$0.55 / 5.5 h ballpark).
        assert!(out.contains("makespan      5.5"), "{out}");
        assert!(out.contains("$0.5"), "{out}");
    }

    #[test]
    fn simulate_on_demand_and_modes() {
        let out = run_str("simulate --degrees 1 --mode remote-io").unwrap();
        assert!(out.contains("on-demand / remote-io"));
        let err = run_str("simulate --mode sideways").unwrap_err();
        assert!(err.contains("unknown mode"));
    }

    #[test]
    fn simulate_with_extensions() {
        let out = run_str(
            "simulate --degrees 1 --procs 8 --failure-prob 0.1 --outage 10:60 \
             --vm-startup-s 300 --hourly-billing",
        )
        .unwrap();
        assert!(out.contains("failed attempts"), "{out}");
    }

    #[test]
    fn simulate_fault_model_is_deterministic_and_reports_waste() {
        let cmd = "simulate --degrees 1 --procs 8 --fault-rate 0.05 \
                   --transfer-fault-rate 0.05 --mttf 5000 --retry-max 3 --fault-seed 2008";
        let out = run_str(cmd).unwrap();
        assert!(out.contains("failed attempts"), "{out}");
        assert!(out.contains("wasted"), "{out}");
        assert!(out.contains("preemptions"), "{out}");
        // Same seed, same bytes.
        assert_eq!(out, run_str(cmd).unwrap());
    }

    #[test]
    fn simulate_exhausted_retry_budget_exits_with_a_partial_report() {
        let err = run_str(
            "simulate --degrees 1 --procs 8 --fault-rate 0.3 --retry-max 0 --fault-seed 2008",
        )
        .unwrap_err();
        assert!(err.contains("retry budget exhausted"), "{err}");
        assert!(err.contains("partial report:"), "{err}");
        assert!(err.contains("cost"), "{err}");
    }

    #[test]
    fn trace_emits_fault_events_under_the_fault_flags() {
        let out = run_str(
            "trace --degrees 0.5 --procs 4 --fault-rate 0.2 --retry-max 5 --fault-seed 2008",
        )
        .unwrap();
        assert!(out.contains(r#""ev":"task_failed""#), "{out}");
        assert!(out.contains(r#""ev":"task_retried""#), "{out}");
    }

    #[test]
    fn plan_recommends_within_deadline() {
        let out = run_str("plan --degrees 1 --deadline-hours 1 --requests 100").unwrap();
        assert!(out.contains("recommendation:"), "{out}");
        assert!(out.contains("frontier"));
        // An impossible deadline is reported, not panicked.
        let out = run_str("plan --degrees 1 --deadline-hours 0.01").unwrap();
        assert!(out.contains("no provisioning level"), "{out}");
    }

    #[test]
    fn generate_and_info_roundtrip() {
        let dir = std::env::temp_dir().join("mcloud_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dax = dir.join("wf.dax");
        let dot = dir.join("wf.dot");
        let out = run_str(&format!(
            "generate --degrees 0.5 --out {} --dot {}",
            dax.display(),
            dot.display()
        ))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(std::fs::read_to_string(&dot)
            .unwrap()
            .starts_with("digraph"));
        let info = run_str(&format!("info --dax {}", dax.display())).unwrap();
        assert!(info.contains("max parallelism"), "{info}");
        assert!(info.contains("CCR"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn info_requires_existing_file() {
        let err = run_str("info --dax /nonexistent/x.dax").unwrap_err();
        assert!(err.contains("reading"));
    }

    #[test]
    fn info_reports_conflicting_file_sizes() {
        let dir = std::env::temp_dir().join("mcloud_cli_size_conflict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dax = dir.join("bad.dax");
        std::fs::write(
            &dax,
            r#"<adag name="bad">
  <job id="ID0" name="t0" transformation="m" runtime="1">
    <uses file="x.fits" link="output" size="250"/>
  </job>
  <job id="ID1" name="t1" transformation="m" runtime="1">
    <uses file="x.fits" link="input" size="999"/>
  </job>
</adag>
"#,
        )
        .unwrap();
        let err = run_str(&format!("info --dax {}", dax.display())).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("line 6"), "{err}");
        assert!(
            err.contains("'x.fits'") && err.contains("250") && err.contains("999"),
            "{err}"
        );
    }

    #[test]
    fn economics_reports_break_evens() {
        let out = run_str("economics --degrees 1").unwrap();
        assert!(out.contains("break-even"), "{out}");
        assert!(out.contains("$1800.00"), "{out}"); // 12 TB monthly
    }

    #[test]
    fn service_runs_with_bursts() {
        let out = run_str(
            "service --rate 1 --horizon-hours 100 --slots 1 --threshold 1 \
             --burst 10:5:8 --seed 3",
        )
        .unwrap();
        assert!(out.contains("cloud spend"), "{out}");
        assert!(out.contains("p95"));
        // Request-level faults run through the same command.
        let faulty = run_str(
            "service --rate 1 --horizon-hours 100 --slots 1 --threshold 1 \
             --burst 10:5:8 --seed 3 --request-failure-prob 0.4 --request-retry-max 3",
        )
        .unwrap();
        assert!(faulty.contains("p95"), "{faulty}");
    }

    #[test]
    fn trace_prints_jsonl_to_stdout() {
        let out = run_str("trace --degrees 0.5 --procs 2").unwrap();
        assert!(out.lines().count() > 10, "{}", out.lines().count());
        assert!(out.starts_with(r#"{"t_us":"#), "{out}");
        assert!(out.contains(r#""ev":"task_finished""#), "{out}");
        // Same run, same bytes.
        assert_eq!(out, run_str("trace --degrees 0.5 --procs 2").unwrap());
    }

    #[test]
    fn trace_writes_file_and_summarizes() {
        let dir = std::env::temp_dir().join("mcloud_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let out = run_str(&format!(
            "trace --degrees 0.5 --procs 2 --format chrome --out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("transfers"), "{out}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_rejects_unknown_format() {
        let err = run_str("trace --format yaml").unwrap_err();
        assert!(err.contains("unknown trace format"), "{err}");
    }

    #[test]
    fn simulate_trace_out_flag_writes_trace() {
        let dir = std::env::temp_dir().join("mcloud_cli_simtrace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let out = run_str(&format!(
            "simulate --degrees 0.5 --procs 2 --trace-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("events (jsonl)"), "{out}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.lines().all(|l| l.starts_with(r#"{"t_us":"#)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_prints_deterministic_breakdown() {
        let out = run_str("profile --degrees 0.5 --procs 4 --mode cleanup").unwrap();
        assert!(out.contains("observed critical path"), "{out}");
        assert!(out.contains("mProject"), "{out}");
        assert!(out.contains("billed"), "{out}");
        assert_eq!(
            out,
            run_str("profile --degrees 0.5 --procs 4 --mode cleanup").unwrap()
        );
        let json = run_str("profile --degrees 0.5 --procs 4 --format json").unwrap();
        assert!(json.starts_with(r#"{"workflow":"#), "{json}");
        assert!(json.contains(r#""cost_rows":"#), "{json}");
        let err = run_str("profile --format yaml").unwrap_err();
        assert!(err.contains("unknown profile format"), "{err}");
    }

    #[test]
    fn profile_reads_an_exported_trace_and_writes_artifacts() {
        let dir = std::env::temp_dir().join("mcloud_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let out_file = dir.join("p.txt");
        let svg = dir.join("p.svg");
        run_str(&format!(
            "trace --degrees 0.5 --procs 2 --mode remote-io --out {}",
            trace.display()
        ))
        .unwrap();
        let summary = run_str(&format!(
            "profile --degrees 0.5 --procs 2 --mode remote-io --trace {} --out {} --svg {}",
            trace.display(),
            out_file.display(),
            svg.display()
        ))
        .unwrap();
        assert!(summary.contains("wrote text profile"), "{summary}");
        assert!(summary.contains("phase chart"), "{summary}");
        // Profiling the exported trace equals profiling the live run.
        let from_file = std::fs::read_to_string(&out_file).unwrap();
        let live = run_str("profile --degrees 0.5 --procs 2 --mode remote-io").unwrap();
        assert!(live.starts_with(&from_file), "file/live profiles diverge");
        let svg_doc = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_doc.starts_with("<svg "), "{svg_doc}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_profile_out_flag_writes_report() {
        let dir = std::env::temp_dir().join("mcloud_cli_profout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let out = run_str(&format!(
            "simulate --degrees 0.5 --procs 2 --profile-out {}",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("profile       "), "{out}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with(r#"{"workflow":"#), "{doc}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_without_out_prints_dax() {
        let out = run_str("generate --degrees 0.5").unwrap();
        assert!(out.contains("<adag"), "{out}");
    }

    #[test]
    fn autoscale_command_reports_pool_and_spend() {
        let out = run_str(
            "autoscale --rate 1 --horizon-hours 48 --min-slots 0 --max-slots 4 \
             --scale-up-queue 1 --seed 5",
        )
        .unwrap();
        assert!(out.contains("peak"), "{out}");
        assert!(out.contains("rental"), "{out}");
        let err = run_str("autoscale --min-slots 4 --max-slots 1").unwrap_err();
        assert!(err.contains("max_slots"), "{err}");
    }
}
