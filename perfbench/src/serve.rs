//! `serve-stdio` and `serve-http`: one closed-loop client drives one
//! `mcloud serve` child over its real transport; one op is one request.
//! The traced run replays every request in-process through the public
//! calls `mcloud serve` makes, and probes the transport floor with the
//! `metrics` op.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcloud_cache::{decode_report, encode_report, ResultCache, DEFAULT_BUDGET_BYTES};
use mcloud_core::{report_json, simulate, simulate_batch, BatchScratch, Report, Scenario};
use mcloud_montage::{generate, MosaicConfig};

use crate::inputs::{batch_payload, in_sample, HttpMix, Request, SimRequest, StdioMix, POPULAR};
use crate::json::{self, Value};
use crate::layers::{ratio, EngineTally, Layers, PoolTally};
use crate::spans::Spans;
use crate::stats::proc_usage;
use crate::{Ctx, HostProbe, Phase};

/// Server spawns during set-up; the median is reported.
const SETUP_REPS: usize = 5;
/// Requests after which the server's peak RSS is read (when a run serves
/// fewer, it is read at the end). Every request grows the cache, so a read
/// at a fixed request count keeps memory independent of throughput.
const STDIO_RSS_AFTER: u64 = 30_000;
const HTTP_RSS_AFTER: u64 = 1_500;
/// One `metrics` probe per this many traced requests.
const PROBE_EVERY: u64 = 16;
/// One request in this many joins the byte-for-byte sample.
const SAMPLE_EVERY: u64 = 32;
/// Most sampled responses re-derived in-process.
const MAX_SAMPLES: usize = 24;
/// Bound on any single exchange with the server.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

const METRICS_PAYLOAD: &str = "{\"op\": \"metrics\"}";

fn frame(payload: &str) -> Vec<u8> {
    format!("{}\n{payload}", payload.len()).into_bytes()
}

/// An `mcloud serve` child speaking length-prefixed frames on stdio.
/// Dropping it closes stdin (the server's clean shutdown) and waits.
struct StdioServer {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl StdioServer {
    fn spawn(mcloud: &Path) -> Result<Self, String> {
        let mut child = Command::new(mcloud)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", mcloud.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(StdioServer {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one pre-framed request and reads the response payload.
    fn roundtrip(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        stdin
            .write_all(request)
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing frame: {e}"))?;
        let mut header = String::new();
        let n = self
            .stdout
            .read_line(&mut header)
            .map_err(|e| format!("reading frame header: {e}"))?;
        if n == 0 {
            return Err("server closed stdout".to_string());
        }
        let len: usize = header
            .trim()
            .parse()
            .map_err(|_| format!("bad frame header {header:?}"))?;
        let mut payload = vec![0u8; len];
        self.stdout
            .read_exact(&mut payload)
            .map_err(|e| format!("reading {len}-byte frame: {e}"))?;
        Ok(payload)
    }
}

impl Drop for StdioServer {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

/// An `mcloud serve --listen 127.0.0.1:0` child. The bound port is read
/// from its stderr; a thread drains the rest. Dropping it kills the
/// child, waits for it and joins the drain thread.
struct HttpServer {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl HttpServer {
    fn spawn(mcloud: &Path) -> Result<Self, String> {
        let mut child = Command::new(mcloud)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", mcloud.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("serving HTTP on ") {
                break a.parse().map_err(|_| format!("bad listen address {a:?}"))?;
            }
        };
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Ok(HttpServer {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// One request on a fresh connection: status and body.
    fn exchange(&self, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
        let mut s = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        s.write_all(request)
            .map_err(|e| format!("writing request: {e}"))?;
        let mut buf = Vec::with_capacity(4096);
        s.read_to_end(&mut buf)
            .map_err(|e| format!("reading response: {e}"))?;
        let end = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or("response has no head")?;
        let head = std::str::from_utf8(&buf[..end]).map_err(|_| "head is not UTF-8")?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let body = buf[end + 4..].to_vec();
        let declared = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok());
        if declared != Some(body.len()) {
            return Err(format!(
                "body is {} bytes, head declares {declared:?}",
                body.len()
            ));
        }
        Ok((status, body))
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What the load loop needs from a transport.
trait Transport {
    fn pid(&self) -> String;
    /// The request as wire bytes (built outside the timed op).
    fn encode(&self, req: &Request) -> Vec<u8>;
    /// Sends wire bytes; the response body, or an error for a transport
    /// failure or a non-200 status.
    fn send(&mut self, wire: &[u8]) -> Result<Vec<u8>, String>;
    /// The server's Prometheus exposition of its cache counters.
    fn metrics(&mut self) -> Result<String, String>;
}

impl Transport for StdioServer {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn encode(&self, req: &Request) -> Vec<u8> {
        frame(&req.payload())
    }

    fn send(&mut self, wire: &[u8]) -> Result<Vec<u8>, String> {
        self.roundtrip(wire)
    }

    fn metrics(&mut self) -> Result<String, String> {
        let body = self.roundtrip(&frame(METRICS_PAYLOAD))?;
        let text = String::from_utf8(body).map_err(|_| "metrics response is not UTF-8")?;
        match json::parse(&text)?.get("result") {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err("metrics response carries no result text".to_string()),
        }
    }
}

impl Transport for HttpServer {
    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn encode(&self, req: &Request) -> Vec<u8> {
        http_request("POST", req.path(), &req.payload())
    }

    fn send(&mut self, wire: &[u8]) -> Result<Vec<u8>, String> {
        match self.exchange(wire)? {
            (200, body) => Ok(body),
            (status, body) => Err(format!("HTTP {status}: {}", String::from_utf8_lossy(&body))),
        }
    }

    fn metrics(&mut self) -> Result<String, String> {
        let body = self.send(&http_request("GET", "/metrics", ""))?;
        String::from_utf8(body).map_err(|_| "metrics body is not UTF-8".to_string())
    }
}

/// Cache counters read from the server's exposition.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

fn parse_counters(text: &str) -> ServerCounters {
    let mut c = ServerCounters::default();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let v: u64 = value.trim().parse().unwrap_or(0);
        match series.split('{').next().unwrap_or(series) {
            "mcloud_cache_hits_total" => c.hits += v,
            "mcloud_cache_misses_total" => c.misses += v,
            "mcloud_cache_inserts_total" => c.inserts += v,
            "mcloud_cache_evictions_total" => c.evictions += v,
            _ => {}
        }
    }
    c
}

fn workflow_of(s: &Scenario) -> mcloud_dag::Workflow {
    generate(&MosaicConfig::new(s.recipe.degrees).seed(s.recipe.seed))
}

fn simulate_in_process(req: &SimRequest) -> Report {
    let s = req.scenario();
    simulate(&workflow_of(&s), &s.exec)
}

fn wrap_result(doc: &str) -> String {
    format!("{{\"ok\": true, \"result\": {}}}\n", doc.trim_end())
}

fn wrap_results(docs: &[String]) -> String {
    let items: Vec<&str> = docs.iter().map(|d| d.trim_end()).collect();
    format!("{{\"ok\": true, \"results\": [{}]}}\n", items.join(", "))
}

/// The response `mcloud serve` must give `req`, derived in-process as
/// `report_json(&simulate(&generate(..), &exec))`.
fn expected(req: &Request) -> String {
    match req {
        Request::Simulate { req, .. } => wrap_result(&report_json(&simulate_in_process(req))),
        Request::Batch(reqs) => {
            let docs: Vec<String> = reqs
                .iter()
                .map(|r| report_json(&simulate_in_process(r)))
                .collect();
            wrap_results(&docs)
        }
    }
}

/// Checks one response: a repeat of a popular scenario must equal its
/// first answer byte for byte; anything else must parse as JSON with
/// `"ok": true` and carry one result per scenario asked.
fn check_response(req: &Request, body: &[u8], firsts: &mut [Option<Vec<u8>>]) -> bool {
    if let Request::Simulate {
        popular: Some(k), ..
    } = req
    {
        if let Some(first) = &firsts[*k] {
            return first == body;
        }
    }
    let Some(v) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| json::parse(t).ok())
    else {
        return false;
    };
    if v.get("ok") != Some(&Value::Bool(true)) {
        return false;
    }
    match req {
        Request::Batch(reqs) => {
            matches!(v.get("results"), Some(Value::Arr(a)) if a.len() == reqs.len())
        }
        Request::Simulate { popular, .. } => {
            if let Some(k) = popular {
                firsts[*k] = Some(body.to_vec());
            }
            v.get("result").is_some()
        }
    }
}

/// The traced run's in-process twin of the server: the same public calls
/// `mcloud serve` makes per request, against a private cache filled the
/// way the server's is.
struct Replay {
    cache: ResultCache,
    engine: EngineTally,
    pool: PoolTally,
    tasks: u64,
    probe_ns: Vec<u64>,
}

impl Replay {
    fn new(preload: &[SimRequest]) -> Self {
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        for req in preload {
            cache.insert(
                req.scenario().digest(),
                encode_report(&simulate_in_process(req)),
            );
        }
        Replay {
            cache,
            engine: EngineTally::default(),
            pool: PoolTally::default(),
            tasks: 0,
            probe_ns: Vec::new(),
        }
    }

    /// Replays one request under span `parent`; returns the response the
    /// server should have sent.
    fn request(
        &mut self,
        req: &Request,
        sp: &mut Spans,
        op: u64,
        parent: usize,
    ) -> Result<String, String> {
        match req {
            Request::Simulate { req, .. } => self.simulate(&req.scenario(), sp, op, parent),
            Request::Batch(reqs) => self.batch(reqs, sp, op, parent),
        }
    }

    /// `op_simulate`: digest, single-flight lookup (generate, simulate and
    /// encode on a miss), decode, render.
    fn simulate(
        &mut self,
        s: &Scenario,
        sp: &mut Spans,
        op: u64,
        parent: usize,
    ) -> Result<String, String> {
        let p = Some(parent);
        let (key, _) = sp.time("core.scenario.digest", op, p, || s.digest());
        let hits = self.cache.counters().hits_mem;
        let probe = sp.open("cache.store.get_or_compute", op, p);
        let (engine, tasks) = (&mut self.engine, &mut self.tasks);
        let bytes = self.cache.get_or_compute(key, || {
            let (wf, _) = sp.time("montage.generate", op, Some(probe), || workflow_of(s));
            *tasks += wf.num_tasks() as u64;
            let (report, _) = sp.time("core.engine.simulate", op, Some(probe), || {
                simulate(&wf, &s.exec)
            });
            engine.add(&report);
            Ok(sp
                .time("cache.codec.encode", op, Some(probe), || {
                    encode_report(&report)
                })
                .0)
        });
        sp.close(probe);
        if self.cache.counters().hits_mem > hits {
            self.probe_ns.push(sp.ns(probe));
        }
        let bytes = bytes?;
        let (report, _) = sp.time("cache.codec.decode", op, p, || decode_report(&bytes));
        let report = report.map_err(|e| format!("corrupt cache entry: {e}"))?;
        let (doc, _) = sp.time("core.report.json", op, p, || report_json(&report));
        Ok(wrap_result(&doc))
    }

    /// `op_batch`: probe every scenario, then generate each missing recipe
    /// once and run its configurations as one worker-pool batch.
    fn batch(
        &mut self,
        reqs: &[SimRequest],
        sp: &mut Spans,
        op: u64,
        parent: usize,
    ) -> Result<String, String> {
        let p = Some(parent);
        let scenarios: Vec<Scenario> = reqs.iter().map(SimRequest::scenario).collect();
        let keys: Vec<_> = scenarios
            .iter()
            .map(|s| sp.time("core.scenario.digest", op, p, || s.digest()).0)
            .collect();
        let mut results: Vec<Option<Report>> = Vec::with_capacity(keys.len());
        for &key in &keys {
            let (hit, id) = sp.time("cache.store.get", op, p, || self.cache.get(key));
            self.probe_ns.push(sp.ns(id));
            results.push(match hit {
                Some(b) => {
                    Some(decode_report(&b).map_err(|e| format!("corrupt cache entry: {e}"))?)
                }
                None => None,
            });
        }
        // Misses, deduplicated by digest and grouped by recipe.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..keys.len() {
            if results[i].is_some() || (0..i).any(|j| keys[j] == keys[i]) {
                continue;
            }
            match groups
                .iter_mut()
                .find(|g| scenarios[g[0]].recipe == scenarios[i].recipe)
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        for g in groups {
            let (wf, _) = sp.time("montage.generate", op, p, || workflow_of(&scenarios[g[0]]));
            self.tasks += wf.num_tasks() as u64;
            let cfgs: Vec<_> = g.iter().map(|&i| scenarios[i].exec.clone()).collect();
            let pool = &mut self.pool;
            let (fresh, _) = sp.time("core.engine.simulate_batch", op, p, || {
                pool.around(|| simulate_batch(&wf, &cfgs, &mut BatchScratch::new()))
            });
            for (&i, report) in g.iter().zip(fresh) {
                self.engine.add(&report);
                let (bytes, _) = sp.time("cache.codec.encode", op, p, || encode_report(&report));
                self.cache.insert(keys[i], bytes);
                results[i] = Some(report);
            }
        }
        let mut docs = Vec::with_capacity(results.len());
        for (i, slot) in results.into_iter().enumerate() {
            let report = match slot {
                Some(r) => r,
                None => {
                    let b = self.cache.get(keys[i]).ok_or("batch entry vanished")?;
                    decode_report(&b).map_err(|e| format!("corrupt cache entry: {e}"))?
                }
            };
            docs.push(
                sp.time("core.report.json", op, p, || report_json(&report))
                    .0,
            );
        }
        Ok(wrap_results(&docs))
    }
}

fn mcloud_path(ctx: &Ctx) -> Result<&Path, String> {
    ctx.mcloud
        .as_deref()
        .ok_or_else(|| "the serve workloads need --mcloud PATH".to_string())
}

/// Spawns `mcloud serve` over stdio and preloads the popular set with
/// one `batch` frame.
pub fn run_stdio(ctx: &Ctx, sp: &mut Spans, layers: &mut Layers) -> Result<Phase, String> {
    let mcloud = mcloud_path(ctx)?;
    let mix = StdioMix::new(ctx.seed);
    let popular = mix.popular().to_vec();
    let preload = frame(&batch_payload(&popular));
    let start_server = || {
        let mut server = StdioServer::spawn(mcloud)?;
        let body = server.roundtrip(&preload)?;
        if !std::str::from_utf8(&body).is_ok_and(json::is_ok_response) {
            return Err("the preload batch failed".to_string());
        }
        Ok(server)
    };
    drive(
        ctx,
        sp,
        layers,
        start_server,
        mix,
        &popular,
        STDIO_RSS_AFTER,
    )
}

/// Spawns `mcloud serve --listen 127.0.0.1:0`; set-up ends at its first
/// answered `GET /metrics`.
pub fn run_http(ctx: &Ctx, sp: &mut Spans, layers: &mut Layers) -> Result<Phase, String> {
    let mcloud = mcloud_path(ctx)?;
    let start_server = || {
        let mut server = HttpServer::spawn(mcloud)?;
        server.metrics()?;
        Ok(server)
    };
    drive(
        ctx,
        sp,
        layers,
        start_server,
        HttpMix::new(ctx.seed),
        &[],
        HTTP_RSS_AFTER,
    )
}

/// The closed loop shared by both transports: set up (several times,
/// keeping the last server), send requests until the window closes, check
/// every response, then re-derive a seeded sample in-process.
fn drive<T: Transport>(
    ctx: &Ctx,
    sp: &mut Spans,
    layers: &mut Layers,
    start_server: impl Fn() -> Result<T, String>,
    mut requests: impl Iterator<Item = Request>,
    preload: &[SimRequest],
    rss_after: u64,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut probe = HostProbe::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        server = Some(phase.time_setup(&mut probe, &start_server)?);
    }
    let mut server = server.expect("SETUP_REPS > 0");
    let mut replay = sp.enabled().then(|| Replay::new(preload));
    let counters0 = parse_counters(&server.metrics()?);

    let mut firsts: Vec<Option<Vec<u8>>> = vec![None; POPULAR];
    let mut samples: Vec<(Request, Vec<u8>)> = Vec::new();
    let (mut fresh, mut bytes, mut wire_ns, mut replay_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut rss_kb = None;
    let pid = server.pid();
    let usage0 = proc_usage(&pid)?;
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < ctx.run_for {
        let req = requests.next().expect("request streams are endless");
        let wire = server.encode(&req);
        phase.probe(&mut probe);
        let t = Instant::now();
        let (resp, span) = sp.time("cli.serve.request", op, None, || server.send(&wire));
        phase.record(t.elapsed());

        fresh += u64::from(req.is_fresh());
        let ok = match resp {
            Err(e) => {
                if phase.failed == 0 {
                    phase
                        .notes
                        .push(format!("first failed request (op {op}): {e}"));
                }
                false
            }
            Ok(body) => {
                bytes += body.len() as u64;
                let mut good = check_response(&req, &body, &mut firsts);
                if let Some(r) = replay.as_mut() {
                    wire_ns += sp.ns(span);
                    let root = sp.open("bench.replay", op, None);
                    let predicted = r.request(&req, sp, op, root);
                    sp.close(root);
                    replay_ns += sp.ns(root);
                    good &= predicted.is_ok_and(|p| p.as_bytes() == body.as_slice());
                }
                if good && samples.len() < MAX_SAMPLES && in_sample(ctx.seed, op, SAMPLE_EVERY) {
                    samples.push((req, body));
                }
                good
            }
        };
        phase.failed += u64::from(!ok);
        if sp.enabled() && op.is_multiple_of(PROBE_EVERY) {
            let (probe, _) = sp.time("cli.serve.probe", op, None, || server.metrics());
            if let Err(e) = probe {
                phase
                    .check_errors
                    .push(format!("metrics probe failed: {e}"));
            }
        }
        op += 1;
        if op == rss_after {
            rss_kb = Some(proc_usage(&pid)?.peak_rss_kb);
        }
    }
    let usage1 = proc_usage(&pid)?;
    phase.cpu = usage1.cpu.saturating_sub(usage0.cpu);
    phase.peak_rss_kb = rss_kb.unwrap_or(usage1.peak_rss_kb);
    phase.notes.push(format!(
        "peak_rss_mb read after {} requests",
        if rss_kb.is_some() { rss_after } else { op }
    ));
    let counters1 = parse_counters(&server.metrics()?);
    drop(server);

    // Output check, outside the timed region: the sampled responses equal
    // what an in-process simulation renders.
    for (req, body) in &samples {
        if expected(req).as_bytes() != body.as_slice() {
            phase.check_errors.push(format!(
                "response to {} differs from the in-process report",
                req.payload()
            ));
        }
    }
    let ops = op.max(1);
    let hits = counters1.hits - counters0.hits;
    let misses = counters1.misses - counters0.misses;
    phase.notes.push(format!(
        "miss_share = {} ({fresh} of {op} requests new to the cache; server counted {hits} hits, \
         {misses} misses); {} responses re-derived in-process",
        ratio(fresh as f64, ops),
        samples.len()
    ));

    if let Some(r) = replay {
        let (calls, gen_ns) = sp.total("montage.generate");
        layers.generate(calls, gen_ns, r.tasks);
        let engine_ns =
            sp.total("core.engine.simulate").1 + sp.total("core.engine.simulate_batch").1;
        r.engine.write(layers, ops, r.engine.events(), engine_ns);
        r.pool.write(layers, ops);
        layers.set("cache.store.hits", ratio(hits as f64, ops));
        layers.set("cache.store.misses", ratio(misses as f64, ops));
        let inserts = counters1.inserts - counters0.inserts;
        layers.set("cache.store.inserts", ratio(inserts as f64, ops));
        let evictions = counters1.evictions - counters0.evictions;
        layers.set("cache.store.evictions", ratio(evictions as f64, ops));
        layers.set("cache.store.hit_share", ratio(hits as f64, hits + misses));
        let probe_ns: u64 = r.probe_ns.iter().sum();
        layers.set(
            "cache.store.probe_us",
            ratio(probe_ns as f64 / 1e3, r.probe_ns.len() as u64),
        );
        layers.set("cache.codec.encode_us", sp.mean_us("cache.codec.encode"));
        layers.set("cache.codec.decode_us", sp.mean_us("cache.codec.decode"));
        layers.set(
            "core.scenario.digest_us",
            sp.mean_us("core.scenario.digest"),
        );
        layers.set("core.report.json_us", sp.mean_us("core.report.json"));
        layers.set("cli.serve.floor_us", sp.mean_us("cli.serve.probe"));
        layers.set(
            "cli.serve.self_share",
            1.0 - ratio(replay_ns as f64, wire_ns),
        );
        layers.set("cli.serve.response_bytes", ratio(bytes as f64, ops));
        layers.set("bench.requests.miss_share", ratio(fresh as f64, ops));
        phase.notes.push(format!(
            "transport self time = {} us per request (wire {} us minus in-process replay {} us)",
            ratio(wire_ns.saturating_sub(replay_ns) as f64 / 1e3, ops),
            ratio(wire_ns as f64 / 1e3, ops),
            ratio(replay_ns as f64 / 1e3, ops)
        ));
    }
    Ok(phase)
}
