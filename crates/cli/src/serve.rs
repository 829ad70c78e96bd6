//! `mcloud serve` — a dependency-free what-if query server.
//!
//! Two transports, one protocol:
//!
//! - **stdio** (the default): length-prefixed JSON frames. Each request
//!   is an ASCII decimal byte count, a newline, then exactly that many
//!   bytes of JSON; each response is framed the same way. EOF ends the
//!   session cleanly.
//! - **HTTP/1.1** (`--listen ADDR`): a hand-rolled single-threaded
//!   accept loop. `POST /simulate|/plan|/profile|/batch` take the same
//!   JSON payloads as stdio (the path supplies the `op`), `GET /metrics`
//!   returns the cache telemetry as Prometheus text exposition.
//!
//! Requests name scenarios with the CLI's own flag vocabulary —
//! `{"op": "simulate", "args": ["--degrees", "1", "--procs", "8"]}` —
//! so anything `mcloud simulate` can price, the server can answer.
//! Results are memoized in the process-wide content-addressed
//! [`ResultCache`](mcloud_cache): a repeated query is a digest lookup
//! (no workflow generation, no simulation), batch misses fan out
//! through the persistent worker pool, and concurrent identical misses
//! coalesce into one simulation. Responses carry no timing or
//! hit/miss information, so a warm answer is byte-identical to a cold
//! one — that equivalence is pinned, cold and disk-warm at 1 and 4
//! lanes, by the golden table in `tests/goldens.rs`.

use std::io::{BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use mcloud_cache::{simulate_batch_cached, simulate_cached, DEFAULT_BUDGET_BYTES};
use mcloud_core::{report_json, BatchScratch, Scenario};
use mcloud_simkit::json::{self, Value};

use crate::args::Args;
use crate::commands::{command_flags, scenario_from, wants_help, workflow_of, FILE_FLAGS};

/// Per-command help text.
const HELP: &str = "\
mcloud serve — answer what-if scenario queries over stdio or HTTP

stdio protocol (default): length-prefixed JSON frames. Each request is
an ASCII decimal byte count, '\\n', then that many bytes of JSON; each
response is framed the same way. EOF ends the session.

requests:
  {\"op\": \"simulate\", \"args\": [\"--degrees\", \"1\", \"--procs\", \"8\"]}
  {\"op\": \"plan\",     \"args\": [\"--slo-p99\", \"7\", \"--format\", \"json\"]}
  {\"op\": \"profile\",  \"args\": [\"--degrees\", \"0.5\", \"--format\", \"json\"]}
  {\"op\": \"batch\",    \"scenarios\": [[...simulate args...], ...]}
  {\"op\": \"metrics\"}

`args` use the matching subcommand's flag vocabulary, minus the flags
that name host files (--out, --svg, --trace, --trace-out, --trace-format,
--metrics-out, --profile-out). Any other request member is refused, as
is a request over 16 MiB or nested deeper than 128 levels. Responses are
{\"ok\": true, \"result\": ...} or {\"ok\": false, \"error\": \"...\"}.
Results are memoized in the content-addressed cache: repeated queries
are digest lookups, batch misses run through the worker pool, and warm
answers are byte-identical to cold ones.

flags:
  --listen ADDR        serve HTTP/1.1 on ADDR (e.g. 127.0.0.1:8080):
                       POST /simulate|/plan|/profile|/batch (same JSON
                       bodies; the path is the op), GET /metrics
  --cache-bytes N      in-memory cache budget (default 268435456)
  --cache-dir PATH     persist results to a disk tier at PATH (entries
                       survive across serve processes)

environment:
  MCLOUD_CACHE_BYTES / MCLOUD_CACHE_DIR   same knobs, lower precedence
  MCLOUD_WORKERS       worker lanes for batch misses (results are
                       byte-identical at every setting)";

/// The `mcloud serve` entry point. Returns an empty report string —
/// responses go to the transport, the session summary to stderr.
pub(crate) fn cmd_serve(rest: &[String]) -> Result<String, String> {
    if wants_help(rest) {
        return Ok(HELP.to_string());
    }
    let args = Args::parse(rest, &["listen", "cache-bytes", "cache-dir"])?;
    let budget: u64 = args.get_or("cache-bytes", DEFAULT_BUDGET_BYTES)?;
    let dir = args.get("cache-dir").map(PathBuf::from);
    if args.has("cache-bytes") || args.has("cache-dir") {
        mcloud_cache::configure_global(budget, dir)?;
    }
    match args.get("listen") {
        Some(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            let bound = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.to_string());
            eprintln!("serving HTTP on {bound}");
            serve_http(listener.incoming(), HTTP_IO_TIMEOUT)?;
            Ok(String::new())
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let served = serve_session(&mut stdin.lock(), &mut stdout.lock())?;
            let c = mcloud_cache::global().counters();
            eprintln!(
                "served {served} requests ({} memory hits, {} disk hits, {} simulated)",
                c.hits_mem, c.hits_disk, c.computes
            );
            Ok(String::new())
        }
    }
}

/// How long an HTTP connection may stall one read or one write before it
/// is dropped, so a silent client cannot hold the single-threaded accept
/// loop.
const HTTP_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The HTTP accept loop over `incoming` connections: one request per
/// connection, each connection's reads and writes bounded by `timeout`. A
/// malformed or stalled request only poisons its own connection, never
/// the server.
fn serve_http(
    incoming: impl Iterator<Item = std::io::Result<TcpStream>>,
    timeout: Duration,
) -> Result<(), String> {
    for stream in incoming {
        let mut stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let served = stream
            .set_read_timeout(Some(timeout))
            .and_then(|_| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("setting timeouts: {e}"))
            .and_then(|_| handle_http(&mut stream));
        if let Err(e) = served {
            eprintln!("note: dropped connection: {e}");
        }
    }
    Ok(())
}

/// Largest request the server reads: a stdio frame's declared length or
/// an HTTP `Content-Length`, checked before any buffer is allocated.
const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Runs one framed request/response session to EOF, or until the reader
/// of the responses goes away (a broken pipe ends the session quietly);
/// returns the number of requests answered. Factored over
/// `BufRead`/`Write` so tests drive it in-process.
pub(crate) fn serve_session<R: BufRead, W: Write>(
    input: &mut R,
    output: &mut W,
) -> Result<u64, String> {
    let mut served = 0u64;
    while let Some(payload) = read_frame(input)? {
        let response = match handle_request(&payload) {
            Ok(doc) => doc,
            Err(e) => error_doc(&e),
        };
        match write!(output, "{}\n{response}", response.len()).and_then(|_| output.flush()) {
            Ok(()) => served += 1,
            Err(e) if e.kind() == ErrorKind::BrokenPipe => break,
            Err(e) => return Err(format!("writing response: {e}")),
        }
    }
    Ok(served)
}

/// Reads one length-prefixed frame; `None` at clean EOF. Blank lines
/// between frames are tolerated so session files can end with a newline.
fn read_frame<R: BufRead>(input: &mut R) -> Result<Option<String>, String> {
    let mut header = String::new();
    loop {
        header.clear();
        let n = input
            .read_line(&mut header)
            .map_err(|e| format!("reading frame header: {e}"))?;
        if n == 0 {
            return Ok(None);
        }
        if !header.trim().is_empty() {
            break;
        }
    }
    let len: usize = header.trim().parse().map_err(|_| {
        format!(
            "bad frame header '{}' (expected a byte count)",
            header.trim()
        )
    })?;
    if len > MAX_REQUEST_BYTES {
        return Err(too_large(len));
    }
    let mut payload = vec![0u8; len];
    input
        .read_exact(&mut payload)
        .map_err(|e| format!("reading {len}-byte frame: {e}"))?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| "frame is not UTF-8".to_string())
}

fn too_large(len: usize) -> String {
    format!("request of {len} bytes exceeds the {MAX_REQUEST_BYTES}-byte limit")
}

/// Parses and dispatches one request payload.
fn handle_request(payload: &str) -> Result<String, String> {
    let v = json::parse(payload)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs a string \"op\" member")?;
    dispatch(op, &v)
}

fn dispatch(op: &str, request: &Value) -> Result<String, String> {
    let members: &[&str] = match op {
        "simulate" | "plan" | "profile" => &["op", "args"],
        "batch" => &["op", "scenarios"],
        "metrics" => &["op"],
        other => {
            return Err(format!(
                "unknown op '{other}' (simulate | plan | profile | batch | metrics)"
            ))
        }
    };
    let request_members = request
        .as_object()
        .ok_or("a request must be a JSON object")?;
    if let Some((name, _)) = request_members
        .iter()
        .find(|(name, _)| !members.contains(&name.as_str()))
    {
        return Err(format!(
            "unknown request member \"{name}\" for op '{op}' (expected: {})",
            members.join(", ")
        ));
    }
    match op {
        "simulate" => op_simulate(&string_args(request)?).map(|doc| wrap_json(&doc)),
        "plan" | "profile" => {
            let raw = string_args(request)?;
            if !wants_help(&raw) {
                Args::parse(&raw, &wire_flags(op, &raw))?;
            }
            let argv: Vec<String> = std::iter::once(op.to_string()).chain(raw).collect();
            crate::commands::run(&argv).map(|out| wrap_output(&out))
        }
        "batch" => op_batch(request),
        _ => Ok(wrap_text(&metrics_text())),
    }
}

/// The deterministic series of the process-wide result cache and shape
/// memo, as Prometheus text: the `metrics` op's and `GET /metrics`'s
/// body.
fn metrics_text() -> String {
    let mut registry = mcloud_cache::global().registry();
    mcloud_montage::shape_memo_stats().record(&mut registry);
    registry.prometheus_text()
}

/// The flags op `op` takes over the wire for `raw`: its subcommand's
/// flags minus every [`FILE_FLAGS`] entry, so no request can name a
/// file on the server's host.
fn wire_flags(op: &str, raw: &[String]) -> Vec<&'static str> {
    command_flags(op, raw)
        .into_iter()
        .filter(|f| !FILE_FLAGS.contains(f))
        .collect()
}

/// The request's `args` member as owned strings (absent = empty).
fn string_args(request: &Value) -> Result<Vec<String>, String> {
    let Some(args) = request.get("args") else {
        return Ok(Vec::new());
    };
    owned_args(args)
}

fn owned_args(args: &Value) -> Result<Vec<String>, String> {
    args.as_array()
        .ok_or("\"args\" must be an array of strings")?
        .iter()
        .map(|a| {
            a.as_str()
                .map(String::from)
                .ok_or_else(|| "\"args\" must be an array of strings".to_string())
        })
        .collect()
}

/// The `{"ok": false, ...}` response for an error.
fn error_doc(e: &str) -> String {
    format!("{{\"ok\": false, \"error\": \"{}\"}}\n", json::escape(e))
}

/// Embeds an already-JSON document as the `result` member.
fn wrap_json(doc: &str) -> String {
    format!("{{\"ok\": true, \"result\": {}}}\n", doc.trim_end())
}

/// Embeds plain text as a JSON string `result`.
fn wrap_text(text: &str) -> String {
    format!("{{\"ok\": true, \"result\": \"{}\"}}\n", json::escape(text))
}

/// JSON documents pass through inline; anything else is escaped.
fn wrap_output(out: &str) -> String {
    if out.trim_start().starts_with('{') {
        wrap_json(out)
    } else {
        wrap_text(out)
    }
}

/// Parses one simulate arg-list, over the wire flags, into its
/// content-addressed scenario.
fn wire_scenario(raw: &[String]) -> Result<Scenario, String> {
    scenario_from(&Args::parse(raw, &wire_flags("simulate", raw))?)
}

/// One scenario query: digest → single-flight cache lookup → report
/// JSON. Cold queries generate and simulate; warm queries are a hash
/// probe plus a decode.
fn op_simulate(raw: &[String]) -> Result<String, String> {
    let scenario = wire_scenario(raw)?;
    let report = simulate_cached(&scenario, workflow_of, mcloud_cache::global());
    Ok(report_json(&report))
}

/// Many scenarios in one frame: probe them all, then run the misses —
/// deduplicated, grouped by workflow recipe — through the worker pool.
/// Results come back in request order.
fn op_batch(request: &Value) -> Result<String, String> {
    let scenarios = request
        .get("scenarios")
        .and_then(Value::as_array)
        .ok_or("batch needs a \"scenarios\" array of arg-lists")?
        .iter()
        .map(|entry| wire_scenario(&owned_args(entry)?))
        .collect::<Result<Vec<Scenario>, String>>()?;
    let reports = simulate_batch_cached(
        &scenarios,
        workflow_of,
        &mut BatchScratch::new(),
        mcloud_cache::global(),
    );
    let mut out = String::from("{\"ok\": true, \"results\": [");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(report_json(report).trim_end());
    }
    out.push_str("]}\n");
    Ok(out)
}

/// Serves one HTTP/1.1 exchange on an established connection, then
/// closes it. Generic over the stream so tests run it on buffers.
pub(crate) fn handle_http<S: Read + Write>(stream: &mut S) -> Result<(), String> {
    let (head, mut body) = read_http_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return write_http(stream, 400, "text/plain", "bad request line\n");
        }
    };
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_REQUEST_BYTES {
        return write_http(
            stream,
            413,
            "application/json",
            &error_doc(&too_large(content_length)),
        );
    }
    if !read_to_len(stream, &mut body, content_length).map_err(|e| format!("reading body: {e}"))? {
        return write_http(stream, 400, "text/plain", "truncated body\n");
    }
    let body = match String::from_utf8(body) {
        Ok(s) => s,
        Err(_) => return write_http(stream, 400, "text/plain", "body is not UTF-8\n"),
    };

    match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            write_http(stream, 200, "text/plain; version=0.0.4", &metrics_text())
        }
        ("POST", "/simulate")
        | ("POST", "/plan")
        | ("POST", "/profile")
        | ("POST", "/batch")
        | ("POST", "/metrics") => {
            let op = &path[1..];
            let outcome = json::parse(if body.trim().is_empty() { "{}" } else { &body })
                .and_then(|request| dispatch(op, &request));
            match outcome {
                Ok(doc) => write_http(stream, 200, "application/json", &doc),
                Err(e) => write_http(stream, 400, "application/json", &error_doc(&e)),
            }
        }
        _ => write_http(stream, 404, "text/plain", "not found\n"),
    }
}

/// Smallest read offered while a body arrives (see [`read_to_len`]).
const BODY_MIN_READ: usize = 4096;

/// Reads from `stream` until `buf` holds `len` bytes; `false` if the
/// stream ends first. The buffer is sized (and zeroed) once. Each read is
/// offered twice what the last one returned, [`BODY_MIN_READ`] at least,
/// so a body arriving in small segments is offered about twice its length
/// in all, not the whole remainder on every read.
fn read_to_len<S: Read>(stream: &mut S, buf: &mut Vec<u8>, len: usize) -> std::io::Result<bool> {
    let mut filled = buf.len();
    if filled >= len {
        return Ok(true);
    }
    buf.resize(len, 0);
    let mut window = BODY_MIN_READ;
    while filled < len {
        let end = len.min(filled + window);
        let n = stream.read(&mut buf[filled..end])?;
        if n == 0 {
            buf.truncate(filled);
            return Ok(false);
        }
        filled += n;
        window = (2 * n).max(BODY_MIN_READ);
    }
    Ok(true)
}

/// Reads up to and including the blank line ending the request head;
/// returns (head, any body bytes already consumed).
fn read_http_head<S: Read>(stream: &mut S) -> Result<(String, Vec<u8>), String> {
    const HEAD_CAP: usize = 64 * 1024;
    let mut buf: Vec<u8> = Vec::new();
    // Bytes already searched for the terminator. A terminator can straddle
    // two reads, so each search starts 3 bytes before the new ones.
    let mut searched: usize = 0;
    loop {
        let from = searched.saturating_sub(3);
        if let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            let end = from + at;
            let head = String::from_utf8(buf[..end].to_vec())
                .map_err(|_| "request head is not UTF-8".to_string())?;
            return Ok((head, buf[end + 4..].to_vec()));
        }
        searched = buf.len();
        if buf.len() > HEAD_CAP {
            return Err("request head too large".to_string());
        }
        let mut chunk = [0u8; 4096];
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("reading request: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-request".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn write_http<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    body: &str,
) -> Result<(), String> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        _ => "Error",
    };
    // Head and body go out in one buffer: `write!` on the stream itself
    // would issue one `send` per format piece.
    let mut response = Vec::with_capacity(body.len() + 128);
    write!(
        response,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .expect("writing into a Vec cannot fail");
    response.extend_from_slice(body.as_bytes());
    stream
        .write_all(&response)
        .and_then(|_| stream.flush())
        .map_err(|e| format!("writing response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Frames a sequence of request payloads for a stdio session.
    fn frames(payloads: &[&str]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            out.extend_from_slice(format!("{}\n{p}", p.len()).as_bytes());
        }
        out
    }

    fn run_session(payloads: &[&str]) -> (u64, String) {
        let mut input = Cursor::new(frames(payloads));
        let mut output = Vec::new();
        let served = serve_session(&mut input, &mut output).expect("session");
        (served, String::from_utf8(output).expect("utf8"))
    }

    #[test]
    fn repeated_queries_are_byte_identical_and_warm() {
        let q = r#"{"op": "simulate", "args": ["--degrees", "0.2", "--procs", "4"]}"#;
        let (served, out) = run_session(&[q, q]);
        assert_eq!(served, 2);
        let (a, b) = out.split_at(out.len() / 2);
        assert_eq!(a, b, "warm response differs from cold");
        assert!(a.contains("\"ok\": true"), "{a}");
        assert!(a.contains("\"schema\": \"mcloud-report/v1\""), "{a}");
    }

    #[test]
    fn session_handles_plan_batch_metrics_and_errors() {
        let (served, out) = run_session(&[
            r#"{"op": "batch", "scenarios": [["--degrees", "0.2", "--procs", "2"], ["--degrees", "0.2", "--procs", "2"]]}"#,
            r#"{"op": "plan", "args": ["--slo-p99", "7", "--rate", "1", "--horizon", "24", "--format", "json"]}"#,
            r#"{"op": "metrics"}"#,
            r#"{"op": "nonsense"}"#,
            r#"not json at all"#,
        ]);
        assert_eq!(served, 5);
        assert!(out.contains("\"results\": ["), "{out}");
        assert!(out.contains("mcloud-plan/v1"), "{out}");
        assert!(out.contains("mcloud_cache_hits_total"), "{out}");
        assert!(out.contains("mcloud_shape_memo_misses_total"), "{out}");
        assert!(out.contains("unknown op 'nonsense'"), "{out}");
        assert!(out.contains("\"ok\": false"), "{out}");
    }

    #[test]
    fn every_response_is_a_wellformed_frame() {
        let (_, out) = run_session(&[
            r#"{"op": "simulate", "args": ["--degrees", "0.2"]}"#,
            r#"{"op": "simulate", "args": ["--bogus", "1"]}"#,
        ]);
        let mut cursor = Cursor::new(out.into_bytes());
        let mut count = 0;
        while let Some(payload) = read_frame(&mut cursor).expect("frame") {
            json::parse(&payload).expect("response payload parses as JSON");
            count += 1;
        }
        assert_eq!(count, 2);
    }

    /// A loopback stream stand-in: reads from `input`, writes to `output`.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }
    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }
    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One HTTP exchange over an in-memory stream; the raw response.
    fn http(request: &str) -> String {
        let mut s = Duplex {
            input: Cursor::new(request.as_bytes().to_vec()),
            output: Vec::new(),
        };
        handle_http(&mut s).expect("http");
        String::from_utf8(s.output).expect("utf8")
    }

    fn post(path: &str, body: &str) -> String {
        http(&format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    #[test]
    fn http_routes_simulate_metrics_and_404() {
        let sim = post(
            "/simulate",
            r#"{"args": ["--degrees", "0.2", "--procs", "2"]}"#,
        );
        assert!(sim.starts_with("HTTP/1.1 200 OK\r\n"), "{sim}");
        assert!(sim.contains("\"mcloud-report/v1\""), "{sim}");

        let bad = post("/simulate", r#"{"args": ["--bogus"]}"#);
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

        let metrics = http("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.contains("mcloud_cache_misses_total"), "{metrics}");
        assert!(
            metrics.contains("mcloud_shape_memo_hits_total"),
            "{metrics}"
        );

        assert!(http("GET /nope HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn deep_nesting_is_an_error_response_and_the_session_continues() {
        let deep = "[".repeat(200_008);
        let (served, out) = run_session(&[&deep, r#"{"op": "metrics"}"#]);
        assert_eq!(served, 2);
        let mut cursor = Cursor::new(out.into_bytes());
        let first = read_frame(&mut cursor).expect("frame").expect("first");
        assert!(first.starts_with("{\"ok\": false"), "{first}");
        assert!(
            first.contains("nesting deeper than 128 levels at byte 128"),
            "{first}"
        );
        let second = read_frame(&mut cursor).expect("frame").expect("second");
        assert!(second.contains("mcloud_cache_hits_total"), "{second}");
    }

    #[test]
    fn oversized_stdio_frame_is_refused_before_allocating() {
        let mut input = Cursor::new(b"99999999999999\n{}".to_vec());
        let err = serve_session(&mut input, &mut Vec::new()).unwrap_err();
        assert_eq!(err, too_large(99_999_999_999_999));
        // At the cap the frame is read (and here found truncated).
        let mut input = Cursor::new(format!("{MAX_REQUEST_BYTES}\n{{}}").into_bytes());
        let err = serve_session(&mut input, &mut Vec::new()).unwrap_err();
        assert!(err.starts_with("reading 16777216-byte frame"), "{err}");
    }

    /// A stream that hands out at most `segment` bytes per read and adds
    /// up the buffer lengths it is offered.
    struct Trickle {
        input: Cursor<Vec<u8>>,
        segment: usize,
        offered: usize,
        output: Vec<u8>,
    }
    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.offered += buf.len();
            let n = buf.len().min(self.segment);
            self.input.read(&mut buf[..n])
        }
    }
    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn trickle(request: String, segment: usize) -> Trickle {
        let mut s = Trickle {
            input: Cursor::new(request.into_bytes()),
            segment,
            offered: 0,
            output: Vec::new(),
        };
        handle_http(&mut s).expect("http");
        s
    }

    #[test]
    fn a_body_in_small_segments_is_offered_about_its_length() {
        // A 1 MiB body in 1500-byte segments: offering the remainder on
        // every read would add up to ~350x the body.
        let body = format!("{}{{}}", " ".repeat(1 << 20));
        let request = format!(
            "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let s = trickle(request, 1500);
        let response = String::from_utf8(s.output).expect("utf8");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("mcloud_cache_hits_total"), "{response}");
        assert!(
            s.offered <= 4 * body.len(),
            "{} bytes offered for a {}-byte body",
            s.offered,
            body.len()
        );
    }

    #[test]
    fn a_head_terminator_split_across_reads_is_found() {
        for segment in [1, 2, 3, 5] {
            let body = r#"{"args": ["--degrees", "0.2", "--procs", "2"]}"#;
            let request = format!(
                "POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let s = trickle(request, segment);
            let response = String::from_utf8(s.output).expect("utf8");
            assert!(
                response.starts_with("HTTP/1.1 200 OK\r\n"),
                "{segment}: {response}"
            );
            assert!(
                response.contains("\"mcloud-report/v1\""),
                "{segment}: {response}"
            );
        }
    }

    #[test]
    fn oversized_http_body_is_refused_before_allocating() {
        let resp = http("POST /simulate HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n{}");
        assert!(
            resp.starts_with("HTTP/1.1 413 Payload Too Large\r\n"),
            "{resp}"
        );
        assert!(resp.contains("exceeds the 16777216-byte limit"), "{resp}");
    }

    #[test]
    fn a_silent_http_client_is_dropped_and_the_next_is_answered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_http(listener.incoming().take(2), Duration::from_millis(200))
        });
        let guard = Some(Duration::from_secs(30));
        let mut silent = TcpStream::connect(addr).unwrap();
        silent.set_read_timeout(guard).unwrap();
        let mut next = TcpStream::connect(addr).unwrap();
        next.set_read_timeout(guard).unwrap();
        next.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // The silent client's connection is closed without a response...
        let mut buf = Vec::new();
        match silent.read_to_end(&mut buf) {
            Ok(_) => assert!(buf.is_empty(), "{}", String::from_utf8_lossy(&buf)),
            Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}"),
        }
        // ...and the client queued behind it is still answered.
        let mut response = String::new();
        next.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn no_op_accepts_a_file_flag() {
        for flag in FILE_FLAGS {
            for (op, args) in [
                ("simulate", vec!["--degrees", "0.2"]),
                ("profile", vec!["--degrees", "0.2"]),
                ("plan", vec!["--degrees", "0.2", "--deadline-hours", "1"]),
                ("plan", vec!["--slo-p99", "7", "--horizon", "24"]),
            ] {
                let mut argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                argv.extend([format!("--{flag}"), "/nonexistent/refused".to_string()]);
                let quoted: Vec<String> = argv.iter().map(|a| format!("\"{a}\"")).collect();
                let request = format!(r#"{{"op": "{op}", "args": [{}]}}"#, quoted.join(", "));
                let err = handle_request(&request).unwrap_err();
                assert!(
                    err.starts_with(&format!("unknown flag '--{flag}'")),
                    "{op}: {err}"
                );
            }
            let request = format!(r#"{{"op": "batch", "scenarios": [["--{flag}", "x"]]}}"#);
            let err = handle_request(&request).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown flag '--{flag}'")),
                "batch: {err}"
            );
        }
    }

    #[test]
    fn unknown_request_members_are_named() {
        for (request, member) in [
            (r#"{"op": "simulate", "arg": ["--x"]}"#, "arg"),
            (r#"{"op": "plan", "scenarios": []}"#, "scenarios"),
            (r#"{"op": "batch", "args": [], "scenarios": []}"#, "args"),
            (r#"{"op": "metrics", "args": []}"#, "args"),
        ] {
            let err = handle_request(request).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown request member \"{member}\"")),
                "{request}: {err}"
            );
        }
        let bad = post("/simulate", r#"{"op": "simulate", "arg": ["--x"]}"#);
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains(r#"unknown request member \"arg\""#), "{bad}");
        assert!(handle_request("[1]").is_err());
    }

    #[test]
    fn an_http_response_is_one_write() {
        /// Counts `write` calls and keeps what they wrote.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter::default();
        write_http(&mut w, 200, "application/json", "{\"ok\": true}\n").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            String::from_utf8(w.bytes).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 13\r\nConnection: close\r\n\r\n{\"ok\": true}\n"
        );
    }

    /// The scenario a wire arg list names.
    fn scenario(args: &[&str]) -> Scenario {
        wire_scenario(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>()).expect("scenario")
    }

    #[test]
    fn wire_scenario_digests_are_pinned() {
        // A changed digest orphans every disk-tier entry keyed by it: a
        // parse refactor must leave these untouched, and an intended
        // change must bump SCENARIO_SCHEMA_VERSION.
        let hex = |args: &[&str]| scenario(args).digest().to_hex();
        assert_eq!(hex(&[]), "473a7a2d0e99e6dd39cac235812d7759");
        assert_eq!(hex(&["--band", "J"]), hex(&["--band", "j"]));
        for (args, pin) in [
            (&["--band", "j"][..], "473a7a2d0e99e6dd39cac235812d7759"),
            (
                &["--degrees", "2", "--region", "M42", "--seed", "7"],
                "30d496fd814f247fe0398b5e0da723d1",
            ),
            (
                &["--procs", "8", "--fault-rate", "0.05", "--retry-max", "3"],
                "24afd76c4ffe3d8714253c8fce21bbf7",
            ),
            (
                &["--mode", "cleanup", "--outage", "600:120"],
                "3bb2f3002b30f1e1ec71ef3b0bd3ffdd",
            ),
        ] {
            assert_eq!(hex(args), pin, "{args:?}");
        }
    }

    #[test]
    fn scenario_digest_tracks_the_flags() {
        let s = |args: &[&str]| scenario(args).digest();
        let base = s(&["--degrees", "1", "--procs", "8"]);
        assert_eq!(base, s(&["--degrees", "1", "--procs", "8"]));
        assert_ne!(base, s(&["--degrees", "2", "--procs", "8"]));
        assert_ne!(base, s(&["--degrees", "1", "--procs", "4"]));
        assert_ne!(base, s(&["--degrees", "1", "--procs", "8", "--band", "k"]));
        assert_ne!(base, s(&["--degrees", "1", "--procs", "8", "--seed", "7"]));
        assert_ne!(
            base,
            s(&["--degrees", "1", "--procs", "8", "--fault-rate", "0.01"])
        );
    }
}
