//! Trace export: JSON Lines and Chrome `trace_event` serializers for the
//! engine's event stream, and the JSONL parser back.
//!
//! The engine narrates execution as [`TraceEvent`]s (see
//! [`simulate_with_sink`](crate::simulate_with_sink)); this module turns a
//! recorded stream into artifacts:
//!
//! * [`trace_to_jsonl`] — one self-describing JSON object per line, with
//!   task names resolved against the workflow. Integer microsecond
//!   timestamps and fixed key order make the output byte-deterministic, so
//!   golden-trace tests can pin engine semantics to the byte.
//! * [`trace_to_chrome`] — the Chrome `trace_event` JSON array format:
//!   open the file in Perfetto (ui.perfetto.dev) or `chrome://tracing` to
//!   see task spans per processor, both link channels, and the storage
//!   occupancy counter.

use mcloud_dag::{TaskId, Workflow};
use mcloud_simkit::json::{self, escape, Value};
use mcloud_simkit::{Channel, FailureKind, SimDuration, SimTime, TimedEvent, TraceEvent};

fn task_name(wf: &Workflow, task: u32) -> String {
    escape(wf.task(TaskId(task)).name)
}

/// Serializes a recorded event stream as JSON Lines, one event per line.
///
/// Task names are resolved against `wf`; timestamps are integer
/// microseconds; keys appear in a fixed order. The output is
/// byte-identical across runs of the same deterministic simulation, and
/// its per-event sums reproduce the corresponding `Report` aggregates
/// exactly (see the golden-trace tests).
pub fn trace_to_jsonl(wf: &Workflow, events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let t = e.at.as_micros();
        let line = match e.event {
            TraceEvent::TaskReady { task } => format!(
                r#"{{"t_us":{t},"ev":"task_ready","task":{task},"name":"{}"}}"#,
                task_name(wf, task)
            ),
            TraceEvent::TaskStarted { task, proc, waited } => format!(
                r#"{{"t_us":{t},"ev":"task_started","task":{task},"name":"{}","proc":{proc},"waited_us":{}}}"#,
                task_name(wf, task),
                waited.as_micros()
            ),
            TraceEvent::TaskFinished { task, proc, ok } => format!(
                r#"{{"t_us":{t},"ev":"task_finished","task":{task},"name":"{}","proc":{proc},"ok":{ok}}}"#,
                task_name(wf, task)
            ),
            TraceEvent::TaskFailed {
                task,
                proc,
                attempt,
                kind,
            } => format!(
                r#"{{"t_us":{t},"ev":"task_failed","task":{task},"name":"{}","proc":{proc},"attempt":{attempt},"kind":"{}"}}"#,
                task_name(wf, task),
                kind.label()
            ),
            TraceEvent::TaskRetried {
                task,
                attempt,
                delay,
            } => format!(
                r#"{{"t_us":{t},"ev":"task_retried","task":{task},"name":"{}","attempt":{attempt},"delay_us":{}}}"#,
                task_name(wf, task),
                delay.as_micros()
            ),
            TraceEvent::ProcessorPreempted { proc, task } => {
                let attribution = match task {
                    Some(id) => format!(r#","task":{id}"#),
                    None => String::new(),
                };
                format!(r#"{{"t_us":{t},"ev":"processor_preempted","proc":{proc}{attribution}}}"#)
            }
            TraceEvent::TransferFailed { chan, bytes, task } => {
                let attribution = match task {
                    Some(id) => format!(r#","task":{id}"#),
                    None => String::new(),
                };
                format!(
                    r#"{{"t_us":{t},"ev":"transfer_failed","chan":"{}","bytes":{bytes}{attribution}}}"#,
                    chan.label()
                )
            }
            TraceEvent::TaskBlockedOnStorage { task } => format!(
                r#"{{"t_us":{t},"ev":"task_blocked_on_storage","task":{task},"name":"{}"}}"#,
                task_name(wf, task)
            ),
            TraceEvent::TransferGranted {
                chan,
                bytes,
                start,
                finish,
                task,
            } => {
                let attribution = match task {
                    Some(id) => format!(r#","task":{id}"#),
                    None => String::new(),
                };
                format!(
                    r#"{{"t_us":{t},"ev":"transfer_granted","chan":"{}","bytes":{bytes},"start_us":{},"finish_us":{}{attribution}}}"#,
                    chan.label(),
                    start.as_micros(),
                    finish.as_micros()
                )
            }
            TraceEvent::TransferCompleted { chan, bytes, task } => {
                let attribution = match task {
                    Some(id) => format!(r#","task":{id}"#),
                    None => String::new(),
                };
                format!(
                    r#"{{"t_us":{t},"ev":"transfer_completed","chan":"{}","bytes":{bytes}{attribution}}}"#,
                    chan.label()
                )
            }
            TraceEvent::StorageAlloc { bytes, occupancy } => format!(
                r#"{{"t_us":{t},"ev":"storage_alloc","bytes":{bytes},"occupancy_bytes":{occupancy}}}"#
            ),
            TraceEvent::StorageFree { bytes, occupancy } => format!(
                r#"{{"t_us":{t},"ev":"storage_free","bytes":{bytes},"occupancy_bytes":{occupancy}}}"#
            ),
            TraceEvent::VmReady => format!(r#"{{"t_us":{t},"ev":"vm_ready"}}"#),
            TraceEvent::RequestQueued { req } => {
                format!(r#"{{"t_us":{t},"ev":"request_queued","req":{req}}}"#)
            }
            TraceEvent::RequestStarted { req, cloud } => {
                format!(r#"{{"t_us":{t},"ev":"request_started","req":{req},"cloud":{cloud}}}"#)
            }
            TraceEvent::RequestFinished { req } => {
                format!(r#"{{"t_us":{t},"ev":"request_finished","req":{req}}}"#)
            }
            TraceEvent::RequestRejected { req } => {
                format!(r#"{{"t_us":{t},"ev":"request_rejected","req":{req}}}"#)
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// One parsed trace line: typed member accessors whose errors quote the
/// line.
struct Line<'a> {
    text: &'a str,
    v: Value,
}

impl Line<'_> {
    fn err(&self, what: &str, key: &str) -> String {
        format!("{what} field {key:?} in line: {}", self.text)
    }

    /// Member `key` read by `as_t` (`Value::as_u64`, `as_f64`, ...).
    fn get<T>(&self, key: &str, as_t: fn(&Value) -> Option<T>) -> Result<T, String> {
        let v = self.v.get(key).ok_or_else(|| self.err("missing", key))?;
        as_t(v).ok_or_else(|| self.err("malformed", key))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key, Value::as_u64)
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.get(key, |v| u32::try_from(v.as_u64()?).ok())
    }

    /// An optional task attribution: absent is `None`, present must be a
    /// task index.
    fn task_attr(&self) -> Result<Option<u32>, String> {
        self.v.get("task").map(|_| self.u32("task")).transpose()
    }

    fn time(&self, key: &str) -> Result<SimTime, String> {
        self.u64(key).map(SimTime::from_micros)
    }

    fn duration(&self, key: &str) -> Result<SimDuration, String> {
        self.u64(key).map(SimDuration::from_micros)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.v.get(key).and_then(Value::as_str)
    }

    fn chan(&self) -> Result<Channel, String> {
        match self.str("chan") {
            Some("in") => Ok(Channel::In),
            Some("out") => Ok(Channel::Out),
            other => Err(format!("bad chan {other:?} in line: {}", self.text)),
        }
    }
}

/// Parses a JSON Lines trace produced by [`trace_to_jsonl`] back into the
/// event stream, so committed traces can be profiled without re-running
/// the simulation.
///
/// Round-trips exactly: `trace_from_jsonl(&trace_to_jsonl(wf, events))`
/// reproduces `events` (task *names* are presentation-only and are not
/// needed to reconstruct the stream). Blank lines are skipped; every
/// other line must be one JSON object with the members its event type
/// carries, integer fields exact (see [`Value::as_u64`]).
pub fn trace_from_jsonl(text: &str) -> Result<Vec<TimedEvent>, String> {
    let mut events = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}: {line}", n + 1))?;
        let l = Line { text: line, v };
        let at = l.time("t_us")?;
        let event = match l.str("ev").ok_or_else(|| l.err("missing", "ev"))? {
            "task_ready" => TraceEvent::TaskReady {
                task: l.u32("task")?,
            },
            "task_started" => TraceEvent::TaskStarted {
                task: l.u32("task")?,
                proc: l.u32("proc")?,
                waited: l.duration("waited_us")?,
            },
            "task_finished" => TraceEvent::TaskFinished {
                task: l.u32("task")?,
                proc: l.u32("proc")?,
                ok: l.get("ok", Value::as_bool)?,
            },
            "task_failed" => TraceEvent::TaskFailed {
                task: l.u32("task")?,
                proc: l.u32("proc")?,
                attempt: l.u32("attempt")?,
                kind: match l.str("kind") {
                    Some("fault") => FailureKind::Fault,
                    Some("timeout") => FailureKind::Timeout,
                    Some("preempted") => FailureKind::Preempted,
                    other => return Err(format!("bad kind {other:?} in line: {line}")),
                },
            },
            "task_retried" => TraceEvent::TaskRetried {
                task: l.u32("task")?,
                attempt: l.u32("attempt")?,
                delay: l.duration("delay_us")?,
            },
            "processor_preempted" => TraceEvent::ProcessorPreempted {
                proc: l.u32("proc")?,
                task: l.task_attr()?,
            },
            "transfer_failed" => TraceEvent::TransferFailed {
                chan: l.chan()?,
                bytes: l.u64("bytes")?,
                task: l.task_attr()?,
            },
            "task_blocked_on_storage" => TraceEvent::TaskBlockedOnStorage {
                task: l.u32("task")?,
            },
            "transfer_granted" => TraceEvent::TransferGranted {
                chan: l.chan()?,
                bytes: l.u64("bytes")?,
                start: l.time("start_us")?,
                finish: l.time("finish_us")?,
                task: l.task_attr()?,
            },
            "transfer_completed" => TraceEvent::TransferCompleted {
                chan: l.chan()?,
                bytes: l.u64("bytes")?,
                task: l.task_attr()?,
            },
            "storage_alloc" => TraceEvent::StorageAlloc {
                bytes: l.u64("bytes")?,
                occupancy: l.get("occupancy_bytes", Value::as_f64)?,
            },
            "storage_free" => TraceEvent::StorageFree {
                bytes: l.u64("bytes")?,
                occupancy: l.get("occupancy_bytes", Value::as_f64)?,
            },
            "vm_ready" => TraceEvent::VmReady,
            "request_queued" => TraceEvent::RequestQueued { req: l.u32("req")? },
            "request_started" => TraceEvent::RequestStarted {
                req: l.u32("req")?,
                cloud: l.get("cloud", Value::as_bool)?,
            },
            "request_finished" => TraceEvent::RequestFinished { req: l.u32("req")? },
            "request_rejected" => TraceEvent::RequestRejected { req: l.u32("req")? },
            other => return Err(format!("unknown event type {other:?} in line: {line}")),
        };
        events.push(TimedEvent { at, event });
    }
    Ok(events)
}

/// Serializes a recorded event stream in Chrome `trace_event` format.
///
/// The result opens directly in Perfetto (ui.perfetto.dev) or
/// `chrome://tracing`: task executions appear as complete (`X`) slices on
/// per-processor rows under the "compute" process, transfers as slices on
/// the "link" process ("in"/"out" rows), and storage occupancy plus the
/// running-task count as counter (`C`) tracks. Deterministic like the
/// JSONL form.
pub fn trace_to_chrome(wf: &Workflow, events: &[TimedEvent]) -> String {
    const PID_COMPUTE: u32 = 1;
    const PID_LINK: u32 = 2;
    let mut ev = Vec::new();
    // Metadata rows name the processes and the link's two channels.
    ev.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{PID_COMPUTE},"tid":0,"args":{{"name":"compute"}}}}"#
    ));
    ev.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{PID_LINK},"tid":0,"args":{{"name":"link"}}}}"#
    ));
    ev.push(format!(
        r#"{{"name":"thread_name","ph":"M","pid":{PID_LINK},"tid":0,"args":{{"name":"in"}}}}"#
    ));
    ev.push(format!(
        r#"{{"name":"thread_name","ph":"M","pid":{PID_LINK},"tid":1,"args":{{"name":"out"}}}}"#
    ));

    let mut starts: Vec<SimTime> = Vec::new();
    let mut running = 0u32;
    for e in events {
        let t = e.at.as_micros();
        match e.event {
            TraceEvent::TaskStarted { task, .. } => {
                let idx = task as usize;
                if starts.len() <= idx {
                    starts.resize(idx + 1, SimTime::ZERO);
                }
                starts[idx] = e.at;
                running += 1;
                ev.push(format!(
                    r#"{{"name":"running","ph":"C","pid":{PID_COMPUTE},"ts":{t},"args":{{"tasks":{running}}}}}"#
                ));
            }
            TraceEvent::TaskFinished { task, proc, ok } => {
                let start = starts[task as usize];
                ev.push(format!(
                    r#"{{"name":"{}","cat":"task","ph":"X","pid":{PID_COMPUTE},"tid":{proc},"ts":{},"dur":{},"args":{{"ok":{ok}}}}}"#,
                    task_name(wf, task),
                    start.as_micros(),
                    e.at.since(start).as_micros()
                ));
                running -= 1;
                ev.push(format!(
                    r#"{{"name":"running","ph":"C","pid":{PID_COMPUTE},"ts":{t},"args":{{"tasks":{running}}}}}"#
                ));
            }
            TraceEvent::TransferGranted {
                chan,
                bytes,
                start,
                finish,
                task,
            } => {
                let tid = match chan {
                    Channel::In => 0,
                    Channel::Out => 1,
                };
                let args = match task {
                    Some(id) => format!(r#"{{"bytes":{bytes},"task":"{}"}}"#, task_name(wf, id)),
                    None => format!(r#"{{"bytes":{bytes}}}"#),
                };
                ev.push(format!(
                    r#"{{"name":"{}","cat":"transfer","ph":"X","pid":{PID_LINK},"tid":{tid},"ts":{},"dur":{},"args":{args}}}"#,
                    chan.label(),
                    start.as_micros(),
                    finish.since(start).as_micros()
                ));
            }
            TraceEvent::StorageAlloc { occupancy, .. }
            | TraceEvent::StorageFree { occupancy, .. } => {
                ev.push(format!(
                    r#"{{"name":"storage","ph":"C","pid":{PID_COMPUTE},"ts":{t},"args":{{"bytes":{occupancy}}}}}"#
                ));
            }
            TraceEvent::VmReady => {
                ev.push(format!(
                    r#"{{"name":"vm_ready","ph":"i","pid":{PID_COMPUTE},"tid":0,"ts":{t},"s":"p"}}"#
                ));
            }
            TraceEvent::TaskFailed {
                proc,
                attempt,
                kind,
                ..
            } => {
                ev.push(format!(
                    r#"{{"name":"task_failed:{}","ph":"i","pid":{PID_COMPUTE},"tid":{proc},"ts":{t},"s":"t","args":{{"attempt":{attempt}}}}}"#,
                    kind.label()
                ));
            }
            TraceEvent::ProcessorPreempted { proc, .. } => {
                ev.push(format!(
                    r#"{{"name":"preempted","ph":"i","pid":{PID_COMPUTE},"tid":{proc},"ts":{t},"s":"t"}}"#
                ));
            }
            TraceEvent::TransferFailed { chan, bytes, .. } => {
                let tid = match chan {
                    Channel::In => 0,
                    Channel::Out => 1,
                };
                ev.push(format!(
                    r#"{{"name":"transfer_failed","ph":"i","pid":{PID_LINK},"tid":{tid},"ts":{t},"s":"t","args":{{"bytes":{bytes}}}}}"#
                ));
            }
            _ => {}
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", ev.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecConfig;
    use crate::engine::simulate_traced;
    use mcloud_dag::WorkflowBuilder;

    fn tiny_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("tiny");
        let input = b.file("input.fits", 1_000_000);
        let mid = b.file("mid.fits", 500_000);
        let out = b.file("mosaic.fits", 250_000);
        b.add_task("project", "mProject", 10.0, &[input], &[mid])
            .unwrap();
        b.add_task("add", "mAdd", 5.0, &[mid], &[out]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn jsonl_lines_are_json_shaped_and_cover_all_events() {
        let wf = tiny_workflow();
        let (_, sink) = simulate_traced(&wf, &ExecConfig::fixed(2));
        let jsonl = trace_to_jsonl(&wf, sink.events());
        assert_eq!(jsonl.lines().count(), sink.events().len());
        for line in jsonl.lines() {
            assert!(line.starts_with(r#"{"t_us":"#), "bad line {line}");
            assert!(line.ends_with('}'), "bad line {line}");
            assert!(line.contains(r#""ev":""#), "bad line {line}");
        }
        // The task lifecycle and the transfers are all narrated.
        for needle in [
            "task_ready",
            "task_started",
            "task_finished",
            "transfer_granted",
            "transfer_completed",
            "storage_alloc",
            "storage_free",
            r#""name":"project""#,
            r#""name":"add""#,
        ] {
            assert!(jsonl.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn chrome_trace_has_slices_and_counters() {
        let wf = tiny_workflow();
        let (_, sink) = simulate_traced(&wf, &ExecConfig::fixed(2));
        let chrome = trace_to_chrome(&wf, sink.events());
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("]}"));
        assert!(chrome.contains(r#""ph":"X""#));
        assert!(chrome.contains(r#""ph":"C""#));
        assert!(chrome.contains(r#""name":"project""#));
        assert!(chrome.contains(r#""name":"storage""#));
        // Balanced counters: final running count returns to zero.
        assert!(chrome.contains(r#""args":{"tasks":0}"#));
    }

    #[test]
    fn exports_are_deterministic() {
        let wf = tiny_workflow();
        let cfg = ExecConfig::fixed(2);
        let (_, a) = simulate_traced(&wf, &cfg);
        let (_, b) = simulate_traced(&wf, &cfg);
        assert_eq!(
            trace_to_jsonl(&wf, a.events()),
            trace_to_jsonl(&wf, b.events())
        );
        assert_eq!(
            trace_to_chrome(&wf, a.events()),
            trace_to_chrome(&wf, b.events())
        );
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let wf = tiny_workflow();
        // Remote I/O exercises the task-attributed transfer fields too.
        for cfg in [
            ExecConfig::fixed(2),
            ExecConfig::on_demand(crate::config::DataMode::RemoteIo),
        ] {
            let (_, sink) = simulate_traced(&wf, &cfg);
            let jsonl = trace_to_jsonl(&wf, sink.events());
            let parsed = trace_from_jsonl(&jsonl).expect("parse");
            assert_eq!(parsed, sink.events());
            // And the round-trip re-serializes byte-identically.
            assert_eq!(trace_to_jsonl(&wf, &parsed), jsonl);
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(trace_from_jsonl("not json\n").is_err());
        assert!(trace_from_jsonl(r#"{"t_us":1,"ev":"mystery"}"#).is_err());
        assert!(trace_from_jsonl(r#"{"t_us":1,"ev":"task_ready"}"#).is_err());
        assert!(trace_from_jsonl(
            r#"{"t_us":1,"ev":"task_failed","task":0,"proc":0,"attempt":1,"kind":"gremlin"}"#
        )
        .is_err());
        assert_eq!(trace_from_jsonl("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn fault_events_round_trip_through_the_parser() {
        let wf = tiny_workflow();
        let events = vec![
            TimedEvent {
                at: SimTime::from_secs_f64(10.0),
                event: TraceEvent::TaskFailed {
                    task: 0,
                    proc: 1,
                    attempt: 1,
                    kind: FailureKind::Fault,
                },
            },
            TimedEvent {
                at: SimTime::from_secs_f64(10.0),
                event: TraceEvent::TaskRetried {
                    task: 0,
                    attempt: 2,
                    delay: SimDuration::from_secs_f64(30.5),
                },
            },
            TimedEvent {
                at: SimTime::from_secs_f64(12.0),
                event: TraceEvent::TaskFailed {
                    task: 1,
                    proc: 0,
                    attempt: 1,
                    kind: FailureKind::Timeout,
                },
            },
            TimedEvent {
                at: SimTime::from_secs_f64(15.0),
                event: TraceEvent::ProcessorPreempted {
                    proc: 1,
                    task: Some(0),
                },
            },
            TimedEvent {
                at: SimTime::from_secs_f64(16.0),
                event: TraceEvent::ProcessorPreempted {
                    proc: 0,
                    task: None,
                },
            },
            TimedEvent {
                at: SimTime::from_secs_f64(20.0),
                event: TraceEvent::TransferFailed {
                    chan: Channel::In,
                    bytes: 1_000_000,
                    task: None,
                },
            },
            TimedEvent {
                at: SimTime::from_secs_f64(21.0),
                event: TraceEvent::TransferFailed {
                    chan: Channel::Out,
                    bytes: 250_000,
                    task: Some(1),
                },
            },
        ];
        let jsonl = trace_to_jsonl(&wf, &events);
        for needle in [
            r#""ev":"task_failed""#,
            r#""kind":"fault""#,
            r#""kind":"timeout""#,
            r#""ev":"task_retried""#,
            r#""delay_us":30500000"#,
            r#""ev":"processor_preempted""#,
            r#""ev":"transfer_failed""#,
        ] {
            assert!(jsonl.contains(needle), "missing {needle}");
        }
        let parsed = trace_from_jsonl(&jsonl).expect("parse");
        assert_eq!(parsed, events);
        assert_eq!(trace_to_jsonl(&wf, &parsed), jsonl);
        // The chrome exporter renders them as instant markers.
        let chrome = trace_to_chrome(&wf, &events);
        assert!(chrome.contains(r#""name":"task_failed:fault""#));
        assert!(chrome.contains(r#""name":"preempted""#));
        assert!(chrome.contains(r#""name":"transfer_failed""#));
    }

    #[test]
    fn jsonl_reader_rejects_what_is_not_a_trace_line() {
        // A scanner keyed on `"t_us":` and `"ev":` substrings would read
        // this as a `vm_ready` event; it is not JSON.
        let err =
            trace_from_jsonl("this is not json \"t_us\":0,\"ev\":\"vm_ready\"}\n").unwrap_err();
        assert!(err.starts_with("line 1: bad literal at byte 0"), "{err}");
        for bad in [
            r#"{"t_us":1.5,"ev":"vm_ready"}"#,
            r#"{"t_us":-1,"ev":"vm_ready"}"#,
            r#"{"t_us":9007199254740993,"ev":"vm_ready"}"#,
            r#"{"t_us":"0","ev":"vm_ready"}"#,
            r#"{"t_us":0,"ev":"task_ready","task":4294967296}"#,
            r#"{"t_us":0,"ev":"task_finished","task":1,"proc":0,"ok":1}"#,
            r#"{"t_us":0,"ev":"vm_ready"} trailing"#,
            r#"{"t_us":0}"#,
        ] {
            assert!(trace_from_jsonl(bad).is_err(), "accepted {bad}");
        }
        assert_eq!(
            trace_from_jsonl("\n{\"t_us\":7,\"ev\":\"vm_ready\"}\n\n").unwrap(),
            vec![TimedEvent {
                at: SimTime::from_micros(7),
                event: TraceEvent::VmReady
            }]
        );
    }
}
