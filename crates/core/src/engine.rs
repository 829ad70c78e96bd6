//! The discrete-event workflow execution simulator.
//!
//! Models the paper's environment (Section 5): one compute site with `P`
//! processors, an attached infinite-capacity storage resource, and a fixed
//! 10 Mbps FCFS link between the user/archive and cloud storage. Input
//! data starts co-located with the user; at the end of the run the net
//! outputs are staged back out and the simulation completes.
//!
//! The three data-management modes (Section 3) differ in what the storage
//! resource holds over time and in how often the link is used:
//!
//! * **Regular** — all external inputs are staged in at the start (one
//!   FCFS pass over the link); every produced file stays on storage until
//!   the last task finishes; then the net outputs are staged out and
//!   everything is deleted.
//! * **Dynamic cleanup** — identical schedule, but a file is deleted the
//!   moment its last consumer finishes (deliverables survive until their
//!   final stage-out).
//! * **Remote I/O** — nothing is shared: each task stages its own inputs
//!   in (even intermediates, which its producer previously staged *out* to
//!   the user), runs, stages all its outputs out, and deletes its files. A
//!   child can only start after its parents' outputs have landed back at
//!   the user's site.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcloud_cost::CostBreakdown;
use mcloud_dag::{FileId, TaskId, Workflow};
use mcloud_simkit::{
    Backoff, Channel, EventQueue, EventSink, FailureKind, FaultInjector, FaultSpec, FcfsChannel,
    Histogram, NullSink, ProcId, ProcessorPool, RecordingSink, SimDuration, SimTime, TimeWeighted,
    TraceEvent,
};

use crate::config::{DataMode, ExecConfig, Provisioning};
use crate::report::{KernelStats, Report};
use crate::soa::{FileTable, InFlightTable, ReadySet, TaskTable};

/// Simulates one execution plan over a workflow and reports the paper's
/// metrics and costs.
///
/// Builds a fresh [`SimScratch`] per call; batch callers should hold a
/// scratch and use [`simulate_with_scratch`] to amortize the setup.
///
/// # Panics
/// Panics if the configuration fails [`ExecConfig::validate`].
pub fn simulate(wf: &Workflow, cfg: &ExecConfig) -> Report {
    simulate_with_sink(wf, cfg, &mut NullSink)
}

/// [`simulate`] against a caller-owned [`SimScratch`]: identical output
/// (byte-for-byte), but a warm scratch makes the run allocation-free at
/// steady state.
///
/// # Panics
/// Panics if the configuration fails [`ExecConfig::validate`].
pub fn simulate_with_scratch(wf: &Workflow, cfg: &ExecConfig, scratch: &mut SimScratch) -> Report {
    simulate_with_sink_scratch(wf, cfg, &mut NullSink, scratch)
}

/// Simulates one execution plan while streaming every engine event into
/// `sink` — task readiness/starts/finishes, each transfer grant and
/// completion with bytes and channel, storage allocations and frees with
/// occupancy, and VM readiness. The sink observes events in simulation
/// order; two runs of the same plan produce identical streams.
///
/// # Panics
/// Panics if the configuration fails [`ExecConfig::validate`].
pub fn simulate_with_sink<S: EventSink>(wf: &Workflow, cfg: &ExecConfig, sink: &mut S) -> Report {
    let mut scratch = SimScratch::new();
    simulate_with_sink_scratch(wf, cfg, sink, &mut scratch)
}

/// [`simulate_with_sink`] against a caller-owned [`SimScratch`] — the
/// fully general entry point the other three forms wrap.
///
/// # Panics
/// Panics if the configuration fails [`ExecConfig::validate`].
pub fn simulate_with_sink_scratch<S: EventSink>(
    wf: &Workflow,
    cfg: &ExecConfig,
    sink: &mut S,
    scratch: &mut SimScratch,
) -> Report {
    cfg.validate().expect("invalid execution configuration");
    Engine::new(wf, cfg, sink, scratch).run()
}

/// Simulates one execution plan with a [`RecordingSink`] attached and
/// returns the report together with the full recorded event stream — the
/// one-call form of [`simulate_with_sink`] for analysis and export.
///
/// # Panics
/// Panics if the configuration fails [`ExecConfig::validate`].
pub fn simulate_traced(wf: &Workflow, cfg: &ExecConfig) -> (Report, RecordingSink) {
    let mut sink = RecordingSink::new();
    let report = simulate_with_sink(wf, cfg, &mut sink);
    (report, sink)
}

/// The event queue's FIFO lane for completions on `link`: every inbound
/// transfer, and the outbound ones too unless `duplex_link` is set.
const LANE_IN: usize = 0;
/// The FIFO lane for completions on `link_out` (`duplex_link` only).
const LANE_OUT: usize = 1;

/// A simulation event. Transfer completions (`FileArrived`,
/// `InputArrived`, `FinalStageOutDone`, `OutputStagedOut`) ride the FIFO
/// lane of the link that granted them; the rest go through the queue's
/// heap.
#[derive(Debug, Clone)]
enum Ev {
    /// A shared stage-in transfer finished (Regular/Cleanup). `attempt`
    /// counts submissions of this transfer (1-based) for retry budgeting.
    FileArrived { file: FileId, attempt: u32 },
    /// One of a task's private input transfers finished (Remote I/O).
    InputArrived {
        task: TaskId,
        bytes: u64,
        attempt: u32,
    },
    /// A task's compute finished.
    TaskFinished { task: TaskId, proc: ProcId },
    /// One of the final stage-out transfers finished (Regular/Cleanup).
    FinalStageOutDone { file: FileId, attempt: u32 },
    /// One of a task's private output transfers finished (Remote I/O).
    OutputStagedOut {
        task: TaskId,
        bytes: u64,
        attempt: u32,
    },
    /// The provisioned VMs finished booting (fixed provisioning with a
    /// nonzero startup overhead).
    VmReady,
    /// A failed task's backoff delay elapsed; it may re-enter the ready
    /// queue.
    TaskRetry(TaskId),
    /// A whole-processor preemption strikes the pool.
    Preemption,
}

/// Emits a trace event only when the sink wants one. `EventSink::enabled`
/// is a const `false` for [`NullSink`] (and inlined as such), so untraced
/// runs skip both the event construction and the emit call entirely —
/// the hot path builds no `TraceEvent` values at all.
macro_rules! narrate {
    ($self:expr, $now:expr, $ev:expr $(,)?) => {
        if $self.sink.enabled() {
            $self.sink.emit($now, $ev);
        }
    };
}

/// Reusable per-run engine state: every collection the engine touches
/// during a simulation, owned outside the run so warm reuse costs no
/// allocation. The per-task, per-file, and per-processor bookkeeping lives
/// in struct-of-arrays tables (the `soa` module) so the hot loops walk
/// contiguous memory.
///
/// A fresh scratch and a warm one produce byte-identical results: a run
/// starts with an internal reset that rebuilds every value the
/// engine reads from the workflow and configuration; only the *capacity*
/// of the buffers survives between runs, and capacity is never observable
/// in a report or trace. `simulate()` itself is now a thin wrapper that
/// builds a scratch, runs once, and drops it.
#[derive(Debug)]
pub struct SimScratch {
    events: EventQueue<Ev>,
    pool: ProcessorPool,
    /// Per-task columns (readiness counters, priorities, retry counters,
    /// timestamps, byte totals).
    tasks: TaskTable,
    /// Per-file columns (consumer counts, staged-out/in-storage flags).
    files: FileTable,
    /// The ready queue as a priority-rank bitmap (pop order identical to
    /// the former binary heap; see [`ReadySet`]).
    ready: ReadySet,
    /// Tasks that are ready but whose outputs do not currently fit within
    /// the storage capacity, keyed by `(output_bytes, priority, id)`: when
    /// space is freed, exactly the entries that now fit are popped off the
    /// top and re-enqueued, instead of rescanning every waiter.
    storage_blocked: BinaryHeap<Reverse<(u64, u64, TaskId)>>,
    /// Queue waits as a distribution (p50/p95/p99 for the report).
    wait_hist: Histogram,
    /// Duration of every execution attempt (successes and failures), for
    /// utilization-based billing.
    run_seconds: Vec<f64>,
    /// What runs on each processor slot right now (preemption targeting).
    in_flight: InFlightTable,
    /// Billing buffer for fixed provisioning (`finish` fills it with one
    /// entry per provisioned instance).
    instance_seconds: Vec<f64>,
}

impl Default for SimScratch {
    fn default() -> Self {
        SimScratch {
            events: EventQueue::new(),
            // Placeholder capacity; `reset` re-sizes the pool per run.
            pool: ProcessorPool::new(1),
            tasks: TaskTable::default(),
            files: FileTable::default(),
            ready: ReadySet::default(),
            storage_blocked: BinaryHeap::new(),
            wait_hist: Histogram::new(),
            run_seconds: Vec::new(),
            in_flight: InFlightTable::default(),
            instance_seconds: Vec::new(),
        }
    }
}

/// Checkpointing clones the whole scratch; `clone_from` is field-wise so
/// a recycled snapshot buffer (and the lane scratch a restore lands in)
/// reuses its existing allocations instead of reallocating every column.
impl Clone for SimScratch {
    fn clone(&self) -> Self {
        SimScratch {
            events: self.events.clone(),
            pool: self.pool.clone(),
            tasks: self.tasks.clone(),
            files: self.files.clone(),
            ready: self.ready.clone(),
            storage_blocked: self.storage_blocked.clone(),
            wait_hist: self.wait_hist.clone(),
            run_seconds: self.run_seconds.clone(),
            in_flight: self.in_flight.clone(),
            instance_seconds: self.instance_seconds.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.events.clone_from(&src.events);
        self.pool.clone_from(&src.pool);
        self.tasks.clone_from(&src.tasks);
        self.files.clone_from(&src.files);
        self.ready.clone_from(&src.ready);
        self.storage_blocked.clone_from(&src.storage_blocked);
        self.wait_hist.clone_from(&src.wait_hist);
        self.run_seconds.clone_from(&src.run_seconds);
        self.in_flight.clone_from(&src.in_flight);
        self.instance_seconds.clone_from(&src.instance_seconds);
    }
}

impl SimScratch {
    /// Creates an empty scratch. The first run sizes every buffer; later
    /// runs over same-or-smaller workflows reuse the capacity.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Rebuilds every engine input for a run of `wf` under `cfg`, keeping
    /// buffer capacity. After a reset, no state from any previous run is
    /// observable.
    fn reset(&mut self, wf: &Workflow, cfg: &ExecConfig) {
        let capacity = match cfg.provisioning {
            Provisioning::Fixed { processors } => processors,
            // "the number of processors greater than the maximum
            // parallelism of the workflow" (Section 5): one slot per task
            // can never be exhausted.
            Provisioning::OnDemand => wf.num_tasks() as u32,
        };
        self.events.reset();
        self.pool.reset(capacity);
        self.tasks.reset(wf, cfg.policy);
        self.files.reset(wf);
        self.ready.reset(&self.tasks.priority);
        self.storage_blocked.clear();
        self.wait_hist.clear();
        self.run_seconds.clear();
        self.in_flight.reset(capacity as usize);
        self.instance_seconds.clear();
    }
}

/// Every scalar (non-scratch) field of a running [`Engine`], captured so a
/// checkpoint can rebuild the engine mid-run. Together with [`SimScratch`]
/// this is the *complete* deterministic state of a simulation: restoring
/// both and re-entering the event loop replays the identical suffix.
#[derive(Debug, Clone)]
pub(crate) struct EngineState {
    link: FcfsChannel,
    link_out: Option<FcfsChannel>,
    storage: TimeWeighted,
    ready_occ: TimeWeighted,
    wait_stats: mcloud_simkit::RunningStats,
    vm_ready_at: SimTime,
    tasks_done: usize,
    stageouts_pending: usize,
    bytes_in: u64,
    bytes_out: u64,
    transfers_in: u64,
    transfers_out: u64,
    end_time: SimTime,
    failed_attempts: u64,
    injector: Option<FaultInjector>,
    retries: u64,
    preemptions: u64,
    transfer_failures: u64,
    wasted_cpu_s: f64,
    wasted_bytes_in: u64,
    wasted_bytes_out: u64,
    aborted: bool,
}

/// A full snapshot of a simulation's deterministic state, taken between
/// events: the struct-of-arrays tables, ready bitmap, event queue,
/// processor bitmap, RNG streams, and every accrued counter. All of it is
/// plain `Vec`s and scalars, so a snapshot is a handful of memcpys.
///
/// Checkpoints power the incremental sweep drivers: a run records one at
/// the latest point known to precede the next sweep point's divergence,
/// and that point's run restores it instead of replaying from `t = 0`.
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    pub(crate) scratch: SimScratch,
    pub(crate) state: EngineState,
    /// Events fully processed when the snapshot was taken.
    pub(crate) pops: u64,
}

impl SimCheckpoint {
    /// Number of events already processed at the snapshot point — the work
    /// a restore skips.
    pub fn events_reused(&self) -> u64 {
        self.pops
    }
}

/// First snapshot after this many processed events; the interval doubles
/// up to [`SNAPSHOT_MAX_STRIDE`] and then grows arithmetically. The early
/// snapshots are dense so that a witness firing within tens of events
/// still leaves a checkpoint to resume from; the geometric ramp keeps long
/// runs at a dozen-odd snapshots while bounding the replay lost between
/// the last snapshot and the witness.
const SNAPSHOT_FIRST_POPS: u64 = 16;
const SNAPSHOT_MAX_STRIDE: u64 = 2048;

/// Per-run incremental-simulation control: whether the bandwidth witness
/// is armed, the witness it recorded (as an event count), and the snapshot
/// slot being recorded.
#[derive(Debug, Default)]
pub(crate) struct IncCtl {
    /// Whether to watch for the witness (the first transfer submission);
    /// `false` disables snapshots and witnesses.
    pub armed: bool,
    /// `events.popped()` when the witness fired: the prefix through event
    /// `witness_pops - 1` is proven identical at the next sweep point.
    pub witness_pops: Option<u64>,
    /// Snapshot cadence: next `events.popped()` value to snapshot at.
    pub next_snapshot_at: u64,
    /// The snapshot being recorded (pre-seeded with a recycled buffer by
    /// the chain; every retake reuses its allocations).
    pub snapshot: Option<Box<SimCheckpoint>>,
    /// Set when `snapshot` was (re)recorded during this run — i.e. it is
    /// valid for the configuration the witness was armed toward.
    pub snapshot_fresh: bool,
}

impl IncCtl {
    pub fn new(armed: bool, recycled: Option<Box<SimCheckpoint>>) -> Self {
        IncCtl {
            armed,
            witness_pops: None,
            next_snapshot_at: SNAPSHOT_FIRST_POPS,
            snapshot: recycled,
            snapshot_fresh: false,
        }
    }
}

/// Builds the inbound link (and the optional outbound one) exactly as a
/// fresh engine would — shared by `Engine::new` and the checkpoint
/// restore, which swaps in new channels built from the new configuration.
fn build_links(cfg: &ExecConfig) -> (FcfsChannel, Option<FcfsChannel>) {
    let mut link = FcfsChannel::new(cfg.bandwidth_bps);
    for &(start_s, dur_s) in &cfg.storage_outages {
        let start = SimTime::from_secs_f64(start_s);
        link.add_blackout(start, start + SimDuration::from_secs_f64(dur_s));
    }
    let link_out = cfg.duplex_link.then(|| link.clone());
    (link, link_out)
}

/// Runs one sweep point from scratch with the witness armed, recording
/// snapshots and the witness into `ctl`. Byte-identical to
/// [`simulate_with_scratch`] for untraced configurations: the witness only
/// reads state the engine already computes.
pub(crate) fn run_probed(
    wf: &Workflow,
    cfg: &ExecConfig,
    scr: &mut SimScratch,
    ctl: &mut IncCtl,
) -> Report {
    cfg.validate().expect("invalid execution configuration");
    let mut engine = Engine::new(wf, cfg, NullSink, scr);
    engine.inc = Some(ctl);
    engine.run()
}

/// Runs one sweep point from a checkpoint taken at the *previous* point
/// of a bandwidth axis, swapping in links at this point's bandwidth and
/// replaying only the suffix. The caller must have proven (via the
/// previous run's witness) that the two points are event-identical
/// through the snapshot.
pub(crate) fn run_resumed(
    wf: &Workflow,
    cfg: &ExecConfig,
    scr: &mut SimScratch,
    ck: &SimCheckpoint,
    ctl: &mut IncCtl,
) -> Report {
    cfg.validate().expect("invalid execution configuration");
    scr.clone_from(&ck.scratch);
    let mut st = ck.state.clone();
    // Pre-witness no transfer was ever submitted, so a fresh pair of
    // channels at the new bandwidth is exactly the state a from-scratch
    // run would hold.
    let (link, link_out) = build_links(cfg);
    st.link = link;
    st.link_out = link_out;
    let mut engine = Engine::resume(wf, cfg, NullSink, scr, st);
    engine.inc = Some(ctl);
    engine.run_loop()
}

struct Engine<'a, S: EventSink> {
    wf: &'a Workflow,
    cfg: &'a ExecConfig,
    /// Receives the structured event stream (a no-op [`NullSink`] unless
    /// the caller attached an observer).
    sink: S,
    /// All reusable per-run collections (see [`SimScratch`]); the fields
    /// below are plain scalars rebuilt per run.
    scr: &'a mut SimScratch,
    link: FcfsChannel,
    /// Outbound channel when `duplex_link` is set; otherwise all traffic
    /// shares `link`.
    link_out: Option<FcfsChannel>,
    storage: TimeWeighted,
    /// Ready-queue occupancy as a step function of simulated time (the
    /// kernel telemetry's `ready_mean`/`ready_peak`). Deterministic: it
    /// tracks [`ReadySet::len`] at every insert and remove.
    ready_occ: TimeWeighted,
    /// Wait between readiness and dispatch, per execution attempt.
    wait_stats: mcloud_simkit::RunningStats,
    /// Instant before which no task may start (VM boot).
    vm_ready_at: SimTime,

    // Progress and accounting.
    tasks_done: usize,
    stageouts_pending: usize,
    bytes_in: u64,
    bytes_out: u64,
    transfers_in: u64,
    transfers_out: u64,
    end_time: SimTime,
    failed_attempts: u64,
    /// Seeded fault source (present when the config enables faults or a
    /// task timeout).
    injector: Option<FaultInjector>,
    /// Failed attempts that were granted another try.
    retries: u64,
    /// Whole-processor preemptions that struck the pool.
    preemptions: u64,
    /// Transfers that failed on completion.
    transfer_failures: u64,
    /// Billed CPU-seconds consumed by failed attempts.
    wasted_cpu_s: f64,
    /// Billed inbound bytes carried by failed transfers.
    wasted_bytes_in: u64,
    /// Billed outbound bytes carried by failed transfers.
    wasted_bytes_out: u64,
    /// Set when a task or transfer exhausts its retry budget: the run
    /// stops dispatching work and finishes with a partial report.
    aborted: bool,
    /// Incremental-simulation control (witness + snapshot slot), present
    /// only when a sweep chain drives this run.
    inc: Option<&'a mut IncCtl>,
}

impl<'a, S: EventSink> Engine<'a, S> {
    fn new(wf: &'a Workflow, cfg: &'a ExecConfig, sink: S, scr: &'a mut SimScratch) -> Self {
        scr.reset(wf, cfg);
        let (link, link_out) = build_links(cfg);
        let vm_ready_at = match cfg.provisioning {
            Provisioning::Fixed { .. } => SimTime::from_secs_f64(cfg.vm.startup_s),
            Provisioning::OnDemand => SimTime::ZERO,
        };
        Engine {
            wf,
            cfg,
            sink,
            scr,
            link,
            link_out,
            storage: TimeWeighted::new(),
            ready_occ: TimeWeighted::new(),
            wait_stats: mcloud_simkit::RunningStats::new(),
            vm_ready_at,
            tasks_done: 0,
            stageouts_pending: 0,
            bytes_in: 0,
            bytes_out: 0,
            transfers_in: 0,
            transfers_out: 0,
            end_time: SimTime::ZERO,
            failed_attempts: 0,
            injector: match cfg.faults {
                Some(f) => Some(FaultInjector::new(
                    FaultSpec {
                        task_failure_prob: f.task_failure_prob,
                        transfer_failure_prob: f.transfer_failure_prob,
                        proc_mttf_s: f.proc_mttf_s,
                    },
                    f.seed,
                )),
                // Timeouts fail attempts deterministically but may still
                // need the RNG for backoff jitter.
                None if cfg.retry.task_timeout_s > 0.0 => {
                    Some(FaultInjector::new(FaultSpec::NONE, 0))
                }
                None => None,
            },
            retries: 0,
            preemptions: 0,
            transfer_failures: 0,
            wasted_cpu_s: 0.0,
            wasted_bytes_in: 0,
            wasted_bytes_out: 0,
            aborted: false,
            inc: None,
        }
    }

    /// Rebuilds an engine mid-run from a restored scratch and captured
    /// state: the inverse of [`Engine::capture_state`] plus the scratch
    /// restore the caller already performed. `run_loop` continues exactly
    /// where the checkpointed run stood.
    fn resume(
        wf: &'a Workflow,
        cfg: &'a ExecConfig,
        sink: S,
        scr: &'a mut SimScratch,
        st: EngineState,
    ) -> Self {
        Engine {
            wf,
            cfg,
            sink,
            scr,
            link: st.link,
            link_out: st.link_out,
            storage: st.storage,
            ready_occ: st.ready_occ,
            wait_stats: st.wait_stats,
            vm_ready_at: st.vm_ready_at,
            tasks_done: st.tasks_done,
            stageouts_pending: st.stageouts_pending,
            bytes_in: st.bytes_in,
            bytes_out: st.bytes_out,
            transfers_in: st.transfers_in,
            transfers_out: st.transfers_out,
            end_time: st.end_time,
            failed_attempts: st.failed_attempts,
            injector: st.injector,
            retries: st.retries,
            preemptions: st.preemptions,
            transfer_failures: st.transfer_failures,
            wasted_cpu_s: st.wasted_cpu_s,
            wasted_bytes_in: st.wasted_bytes_in,
            wasted_bytes_out: st.wasted_bytes_out,
            aborted: st.aborted,
            inc: None,
        }
    }

    /// Clones every non-scratch field into a restorable [`EngineState`].
    fn capture_state(&self) -> EngineState {
        EngineState {
            link: self.link.clone(),
            link_out: self.link_out.clone(),
            storage: self.storage.clone(),
            ready_occ: self.ready_occ.clone(),
            wait_stats: self.wait_stats.clone(),
            vm_ready_at: self.vm_ready_at,
            tasks_done: self.tasks_done,
            stageouts_pending: self.stageouts_pending,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            transfers_in: self.transfers_in,
            transfers_out: self.transfers_out,
            end_time: self.end_time,
            failed_attempts: self.failed_attempts,
            injector: self.injector.clone(),
            retries: self.retries,
            preemptions: self.preemptions,
            transfer_failures: self.transfer_failures,
            wasted_cpu_s: self.wasted_cpu_s,
            wasted_bytes_in: self.wasted_bytes_in,
            wasted_bytes_out: self.wasted_bytes_out,
            aborted: self.aborted,
        }
    }

    /// Records a checkpoint when the cadence policy (or loop exit) says
    /// to, but never after the witness has fired: every retained snapshot
    /// therefore precedes the divergence point and is valid for the next
    /// sweep point. Called at the top of the event loop — `popped()`
    /// events are fully processed, including their dispatch.
    fn maybe_snapshot(&mut self) {
        let pops = self.scr.events.popped();
        let terminal = self.scr.events.is_empty();
        match self.inc.as_deref_mut() {
            Some(ctl) if ctl.armed && ctl.witness_pops.is_none() => {
                if pops < ctl.next_snapshot_at && !terminal {
                    return;
                }
                // Geometric-then-arithmetic cadence: double the stride up
                // to the cap, bounding lost replay without snapshotting a
                // long run dozens of times.
                while ctl.next_snapshot_at <= pops {
                    ctl.next_snapshot_at += ctl.next_snapshot_at.min(SNAPSHOT_MAX_STRIDE);
                }
            }
            _ => return,
        }
        let state = self.capture_state();
        let ctl = self.inc.as_deref_mut().expect("checked above");
        match ctl.snapshot.as_deref_mut() {
            // Retakes reuse the slot's buffers (field-wise `clone_from`).
            Some(ck) => {
                ck.scratch.clone_from(self.scr);
                ck.state = state;
                ck.pops = pops;
            }
            None => {
                ctl.snapshot = Some(Box::new(SimCheckpoint {
                    scratch: self.scr.clone(),
                    state,
                    pops,
                }));
            }
        }
        ctl.snapshot_fresh = true;
    }

    /// The divergence witness: the first transfer submission — the first
    /// instant the link bandwidth becomes observable.
    fn note_transfer_submitted(&mut self) {
        let pops = self.scr.events.popped();
        if let Some(ctl) = self.inc.as_deref_mut() {
            if ctl.armed && ctl.witness_pops.is_none() {
                ctl.witness_pops = Some(pops);
            }
        }
    }

    fn run(mut self) -> Report {
        self.bootstrap();
        self.dispatch(SimTime::ZERO);
        self.run_loop()
    }

    /// The event loop plus run epilogue, entered either fresh (after
    /// `bootstrap`) or mid-run from a restored checkpoint.
    fn run_loop(mut self) -> Report {
        loop {
            // Snapshot *before* popping: `popped()` events are fully
            // processed, and a witness firing during event `w` proves the
            // prefix through `w - 1`, so every retained snapshot is
            // strictly pre-divergence. An empty queue snapshots the
            // terminal state, giving never-diverging points a zero-replay
            // resume (the epilogue below re-runs under the new config).
            self.maybe_snapshot();
            let Some((now, ev)) = self.scr.events.pop() else {
                break;
            };
            match ev {
                Ev::FileArrived { file, attempt } => self.on_file_arrived(now, file, attempt),
                Ev::InputArrived {
                    task,
                    bytes,
                    attempt,
                } => self.on_input_arrived(now, task, bytes, attempt),
                Ev::TaskFinished { task, proc } => self.on_task_finished(now, task, proc),
                Ev::FinalStageOutDone { file, attempt } => {
                    self.on_final_stage_out(now, file, attempt)
                }
                Ev::OutputStagedOut {
                    task,
                    bytes,
                    attempt,
                } => self.on_output_staged_out(now, task, bytes, attempt),
                Ev::VmReady => narrate!(self, now, TraceEvent::VmReady),
                Ev::TaskRetry(t) => self.on_task_retry(now, t),
                Ev::Preemption => self.on_preemption(now),
            }
            self.dispatch(now);
        }
        if self.aborted {
            // Dead-letter: a task or transfer exhausted its retry budget.
            // In-flight work has drained; report what did complete.
            self.end_time = self.scr.events.now();
            return self.finish(false);
        }
        if self.tasks_done != self.wf.num_tasks() {
            assert!(
                !self.scr.storage_blocked.is_empty(),
                "simulation deadlocked without storage pressure (engine bug)"
            );
            panic!(
                "storage capacity {} bytes is insufficient: {} of {} tasks \
                 completed, {} permanently blocked (peak occupancy so far {:.0} \
                 bytes); raise the capacity or use DynamicCleanup",
                self.cfg.storage_capacity_bytes.unwrap_or(0),
                self.tasks_done,
                self.wf.num_tasks(),
                self.scr.storage_blocked.len(),
                self.storage.peak(),
            );
        }
        self.finish(true)
    }

    /// Seeds the event queue with the initial transfers.
    fn bootstrap(&mut self) {
        if self.vm_ready_at > SimTime::ZERO {
            self.scr.events.push(self.vm_ready_at, Ev::VmReady);
        }
        self.schedule_next_preemption(SimTime::ZERO);
        match self.cfg.mode {
            DataMode::Regular | DataMode::DynamicCleanup => {
                // Count each task's wait on external (non-prestaged) inputs.
                if !self.cfg.prestaged_inputs {
                    for t in self.wf.task_ids() {
                        let missing = self
                            .wf
                            .inputs(t)
                            .iter()
                            .filter(|f| self.wf.producer(**f).is_none())
                            .count();
                        self.scr.tasks.missing_inputs[t.index()] = missing as u32;
                    }
                    // Stage in every external input up front, FCFS in file order.
                    // This burst is the run's pending peak: size the lane
                    // and slab for it once.
                    let wf = self.wf;
                    self.scr
                        .events
                        .reserve_fifo(LANE_IN, wf.external_inputs().len());
                    for &f in wf.external_inputs() {
                        let ev = Ev::FileArrived {
                            file: f,
                            attempt: 1,
                        };
                        self.transfer(Channel::In, SimTime::ZERO, wf.bytes(f), None, ev);
                    }
                }
                for t in self.wf.task_ids() {
                    self.maybe_ready(SimTime::ZERO, t);
                }
            }
            DataMode::RemoteIo => {
                for t in self.wf.task_ids() {
                    self.scr.tasks.missing_inputs[t.index()] = self.wf.inputs(t).len() as u32;
                    self.scr.tasks.outputs_remaining[t.index()] = self.wf.outputs(t).len() as u32;
                }
                // Parentless tasks can begin staging immediately.
                for t in self.wf.task_ids() {
                    if self.scr.tasks.pending_parents[t.index()] == 0 {
                        self.stage_task_inputs(SimTime::ZERO, t);
                    }
                }
            }
        }
    }

    // --- fault handling ------------------------------------------------------

    /// Schedules the next whole-processor preemption, when the model has
    /// an MTTF configured.
    fn schedule_next_preemption(&mut self, now: SimTime) {
        let cap = self.scr.pool.capacity();
        if let Some(delay) = self.injector.as_mut().and_then(|i| i.next_preemption(cap)) {
            self.scr.events.push(now + delay, Ev::Preemption);
        }
    }

    /// Draws whether a completing transfer failed; if so, books the wasted
    /// (already billed) bytes and narrates the loss.
    fn transfer_failed(
        &mut self,
        now: SimTime,
        chan: Channel,
        bytes: u64,
        task: Option<TaskId>,
    ) -> bool {
        let failed = self.injector.as_mut().is_some_and(|i| i.transfer_fails());
        if failed {
            self.transfer_failures += 1;
            match chan {
                Channel::In => self.wasted_bytes_in += bytes,
                Channel::Out => self.wasted_bytes_out += bytes,
            }
            narrate!(
                self,
                now,
                TraceEvent::TransferFailed {
                    chan,
                    bytes,
                    task: task.map(|t| t.0),
                },
            );
        }
        failed
    }

    /// True when a transfer that has now failed `attempt` times has no
    /// retries left under the policy.
    fn transfer_retry_exhausted(&self, attempt: u32) -> bool {
        matches!(self.cfg.retry.max_retries, Some(m) if attempt > m)
    }

    /// Books one failed execution attempt (fault, timeout, or preemption)
    /// and applies the retry policy: re-enqueue — possibly after a
    /// jittered backoff — or dead-letter the task and abort gracefully.
    fn on_attempt_failed(
        &mut self,
        now: SimTime,
        t: TaskId,
        proc: ProcId,
        billed_s: f64,
        kind: FailureKind,
    ) {
        self.failed_attempts += 1;
        self.wasted_cpu_s += billed_s;
        self.scr.tasks.failures[t.index()] += 1;
        let attempt = self.scr.tasks.failures[t.index()];
        narrate!(
            self,
            now,
            TraceEvent::TaskFailed {
                task: t.0,
                proc: proc.0,
                attempt,
                kind,
            },
        );
        if self.cfg.mode == DataMode::RemoteIo {
            // Balance the working-set bookkeeping: the retry's dispatch
            // re-adds it (the staged copies are still at the site; no
            // re-transfer is modeled).
            let held = self.working_set_bytes(t);
            if held > 0 {
                self.storage_free(now, held);
            }
        }
        if matches!(self.cfg.retry.max_retries, Some(m) if attempt > m) {
            self.aborted = true;
            return;
        }
        self.retries += 1;
        let delay_s = self.backoff_delay_s(attempt);
        narrate!(
            self,
            now,
            TraceEvent::TaskRetried {
                task: t.0,
                attempt: attempt + 1,
                delay: SimDuration::from_secs_f64(delay_s),
            },
        );
        if delay_s > 0.0 {
            self.scr
                .events
                .push(now + SimDuration::from_secs_f64(delay_s), Ev::TaskRetry(t));
        } else {
            // Zero backoff re-enqueues synchronously, exactly like the
            // original immediate-retry engine.
            self.enqueue_ready(now, t);
        }
    }

    /// The jittered backoff delay before retry number `retry`. Draws from
    /// the injector's RNG only when both backoff and jitter are on.
    fn backoff_delay_s(&mut self, retry: u32) -> f64 {
        let b = Backoff {
            base_s: self.cfg.retry.backoff_base_s,
            cap_s: self.cfg.retry.backoff_cap_s,
            jitter_frac: self.cfg.retry.jitter_frac,
        };
        match self.injector.as_mut() {
            Some(inj) => b.delay_s(retry, inj.rng_mut()),
            // Failures only happen with an injector present.
            None => 0.0,
        }
    }

    fn on_task_retry(&mut self, now: SimTime, t: TaskId) {
        if !self.aborted {
            self.enqueue_ready(now, t);
        }
    }

    fn on_preemption(&mut self, now: SimTime) {
        if self.aborted || self.tasks_done == self.wf.num_tasks() {
            return; // compute is over (or abandoned); let the chain die out
        }
        let cap = self.scr.pool.capacity();
        let (victim, next) = {
            let inj = self
                .injector
                .as_mut()
                .expect("preemption event without an injector");
            (inj.preemption_victim(cap), inj.next_preemption(cap))
        };
        if let Some(delay) = next {
            self.scr.events.push(now + delay, Ev::Preemption);
        }
        self.preemptions += 1;
        match self.scr.in_flight.take(victim as usize) {
            Some((task, started, finish_id)) => {
                // The killed attempt's pending finish must never fire.
                self.scr.events.cancel(finish_id);
                let proc = ProcId(victim);
                self.scr.pool.release(now, proc);
                let partial_s = now.since(started).as_secs_f64();
                self.scr.run_seconds.push(partial_s);
                narrate!(
                    self,
                    now,
                    TraceEvent::ProcessorPreempted {
                        proc: victim,
                        task: Some(task.0),
                    },
                );
                // The attempt still closes with a failed finish so span
                // pairing and concurrency accounting stay balanced.
                narrate!(
                    self,
                    now,
                    TraceEvent::TaskFinished {
                        task: task.0,
                        proc: victim,
                        ok: false,
                    },
                );
                self.on_attempt_failed(now, task, proc, partial_s, FailureKind::Preempted);
            }
            None => {
                narrate!(
                    self,
                    now,
                    TraceEvent::ProcessorPreempted {
                        proc: victim,
                        task: None,
                    },
                );
            }
        }
    }

    // --- shared-storage modes ----------------------------------------------

    fn on_file_arrived(&mut self, now: SimTime, f: FileId, attempt: u32) {
        let bytes = self.wf.bytes(f);
        if self.transfer_failed(now, Channel::In, bytes, None) {
            if self.transfer_retry_exhausted(attempt) {
                self.aborted = true;
                return;
            }
            let ev = Ev::FileArrived {
                file: f,
                attempt: attempt + 1,
            };
            self.transfer(Channel::In, now, bytes, None, ev);
            return;
        }
        narrate!(
            self,
            now,
            TraceEvent::TransferCompleted {
                chan: Channel::In,
                bytes,
                task: None,
            },
        );
        self.storage_alloc(now, bytes);
        self.scr.files.mark_in_storage(f);
        // `self.wf` outlives `self`'s borrows, so copying the reference out
        // lets the adjacency slice be iterated while `self` mutates.
        let wf = self.wf;
        for &t in wf.consumers(f) {
            self.scr.tasks.missing_inputs[t.index()] -= 1;
            self.maybe_ready(now, t);
        }
    }

    fn on_final_stage_out(&mut self, now: SimTime, f: FileId, attempt: u32) {
        let bytes = self.wf.bytes(f);
        if self.transfer_failed(now, Channel::Out, bytes, None) {
            if self.transfer_retry_exhausted(attempt) {
                self.aborted = true;
                return;
            }
            let ev = Ev::FinalStageOutDone {
                file: f,
                attempt: attempt + 1,
            };
            self.transfer(Channel::Out, now, bytes, None, ev);
            return;
        }
        narrate!(
            self,
            now,
            TraceEvent::TransferCompleted {
                chan: Channel::Out,
                bytes,
                task: None,
            },
        );
        self.remove_from_storage(now, f);
        self.stageouts_pending -= 1;
        if self.stageouts_pending == 0 {
            self.end_time = now;
        }
    }

    fn remove_from_storage(&mut self, now: SimTime, f: FileId) {
        if self.scr.files.take_in_storage(f) {
            self.storage_free(now, self.wf.bytes(f));
            if self.cfg.storage_capacity_bytes.is_some() && !self.scr.storage_blocked.is_empty() {
                self.unblock_storage_waiters(now);
            }
        }
    }

    /// Adds `bytes` to the storage occupancy and narrates the step.
    fn storage_alloc(&mut self, now: SimTime, bytes: u64) {
        self.storage.add(now, bytes as f64);
        narrate!(
            self,
            now,
            TraceEvent::StorageAlloc {
                bytes,
                occupancy: self.storage.value(),
            },
        );
    }

    /// Removes `bytes` from the storage occupancy and narrates the step.
    fn storage_free(&mut self, now: SimTime, bytes: u64) {
        self.storage.add(now, -(bytes as f64));
        narrate!(
            self,
            now,
            TraceEvent::StorageFree {
                bytes,
                occupancy: self.storage.value(),
            },
        );
    }

    // --- remote I/O mode -----------------------------------------------------

    /// Submits the private stage-in transfers for one task's inputs.
    fn stage_task_inputs(&mut self, now: SimTime, t: TaskId) {
        let wf = self.wf;
        for &f in wf.inputs(t) {
            let external = wf.producer(f).is_none();
            if external && self.cfg.prestaged_inputs {
                // Reads from the in-cloud archive are free and instant.
                self.scr.tasks.missing_inputs[t.index()] -= 1;
                continue;
            }
            let bytes = wf.bytes(f);
            self.scr.tasks.staged_in_bytes[t.index()] += bytes;
            let ev = Ev::InputArrived {
                task: t,
                bytes,
                attempt: 1,
            };
            self.transfer(Channel::In, now, bytes, Some(t), ev);
        }
        self.maybe_ready(now, t);
    }

    fn on_input_arrived(&mut self, now: SimTime, t: TaskId, bytes: u64, attempt: u32) {
        if self.transfer_failed(now, Channel::In, bytes, Some(t)) {
            if self.transfer_retry_exhausted(attempt) {
                self.aborted = true;
                return;
            }
            let ev = Ev::InputArrived {
                task: t,
                bytes,
                attempt: attempt + 1,
            };
            self.transfer(Channel::In, now, bytes, Some(t), ev);
            return;
        }
        narrate!(
            self,
            now,
            TraceEvent::TransferCompleted {
                chan: Channel::In,
                bytes,
                task: Some(t.0),
            },
        );
        // Remote I/O occupancy follows the paper's accounting: "the files
        // are present on the resource only during the execution of the
        // current task", so occupancy is charged at task start (inputs)
        // and task end (outputs), not at transfer arrival.
        self.scr.tasks.missing_inputs[t.index()] -= 1;
        self.maybe_ready(now, t);
    }

    fn on_output_staged_out(&mut self, now: SimTime, t: TaskId, bytes: u64, attempt: u32) {
        if self.transfer_failed(now, Channel::Out, bytes, Some(t)) {
            if self.transfer_retry_exhausted(attempt) {
                self.aborted = true;
                return;
            }
            let ev = Ev::OutputStagedOut {
                task: t,
                bytes,
                attempt: attempt + 1,
            };
            self.transfer(Channel::Out, now, bytes, Some(t), ev);
            return;
        }
        narrate!(
            self,
            now,
            TraceEvent::TransferCompleted {
                chan: Channel::Out,
                bytes,
                task: Some(t.0),
            },
        );
        self.scr.tasks.outputs_remaining[t.index()] -= 1;
        if self.scr.tasks.outputs_remaining[t.index()] == 0 {
            self.task_fully_done(now, t);
        }
    }

    /// Remote I/O working set: the staged input copies, charged to storage
    /// for the execution window only. Outputs are written straight through
    /// to the outbound link ("stage out the output data from the resource
    /// and then delete"), so they never rest on the metered storage.
    fn working_set_bytes(&self, t: TaskId) -> u64 {
        self.scr.tasks.staged_in_bytes[t.index()]
    }

    /// Remote I/O epilogue: all outputs have landed back at the user's
    /// site; the task's children may begin staging.
    fn task_fully_done(&mut self, now: SimTime, t: TaskId) {
        self.tasks_done += 1;
        if self.tasks_done == self.wf.num_tasks() {
            self.end_time = now;
        }
        let wf = self.wf;
        for &c in wf.children(t) {
            self.scr.tasks.pending_parents[c.index()] -= 1;
            if self.scr.tasks.pending_parents[c.index()] == 0 {
                self.stage_task_inputs(now, c);
            }
        }
    }

    // --- common ---------------------------------------------------------------

    fn maybe_ready(&mut self, now: SimTime, t: TaskId) {
        if !self.scr.tasks.started(t)
            && self.scr.tasks.pending_parents[t.index()] == 0
            && self.scr.tasks.missing_inputs[t.index()] == 0
        {
            self.scr.tasks.mark_started(t);
            self.enqueue_ready(now, t);
        }
    }

    fn enqueue_ready(&mut self, now: SimTime, t: TaskId) {
        narrate!(self, now, TraceEvent::TaskReady { task: t.0 });
        self.scr.tasks.ready_time[t.index()] = now;
        self.scr.ready.insert(self.scr.tasks.priority[t.index()]);
        self.ready_occ.set(now, self.scr.ready.len() as f64);
    }

    /// Removes `rank` from the ready queue, keeping the occupancy curve
    /// in step.
    fn remove_ready(&mut self, now: SimTime, rank: u64) {
        self.scr.ready.remove(rank);
        self.ready_occ.set(now, self.scr.ready.len() as f64);
    }

    /// Submits a transfer on the link that carries `chan` — the outbound
    /// link for [`Channel::Out`] when `duplex_link` is set, the shared link
    /// otherwise — updates the byte accounting, narrates the grant, and
    /// schedules `ev` at the grant's finish on that link's FIFO lane. An
    /// FCFS link finishes transfers in submission order, so its
    /// completions never need the queue's heap. `task` attributes private
    /// (remote-I/O) transfers to their task; shared staging passes `None`.
    fn transfer(&mut self, chan: Channel, now: SimTime, bytes: u64, task: Option<TaskId>, ev: Ev) {
        self.note_transfer_submitted();
        let (link, lane) = match (chan, self.link_out.as_mut()) {
            (Channel::Out, Some(out)) => (out, LANE_OUT),
            _ => (&mut self.link, LANE_IN),
        };
        let grant = link.submit(now, bytes);
        match chan {
            Channel::In => {
                self.bytes_in += bytes;
                self.transfers_in += 1;
            }
            Channel::Out => {
                self.bytes_out += bytes;
                self.transfers_out += 1;
            }
        }
        narrate!(
            self,
            now,
            TraceEvent::TransferGranted {
                chan,
                bytes,
                start: grant.start,
                finish: grant.finish,
                task: task.map(|t| t.0),
            },
        );
        self.scr.events.push_fifo(lane, grant.finish, ev);
    }

    /// True when starting `t` now would overflow a configured storage cap
    /// (shared-storage modes reserve space for the task's outputs).
    fn storage_would_overflow(&self, t: TaskId) -> bool {
        let Some(cap) = self.cfg.storage_capacity_bytes else {
            return false;
        };
        if self.cfg.mode == DataMode::RemoteIo {
            return false; // capacity modeling targets the shared store
        }
        self.storage.value() + self.scr.tasks.output_bytes[t.index()] as f64 > cap as f64
    }

    /// Moves the storage-blocked tasks that now fit back into the ready
    /// queue (called when space is freed). The blocked heap is keyed by
    /// output bytes, so exactly the waiters that fit are popped; the rest
    /// stay put instead of churning through the ready queue. Dispatch
    /// re-checks the cap in priority order, so scheduling outcomes are
    /// unchanged — only redundant block/ready cycles disappear.
    fn unblock_storage_waiters(&mut self, now: SimTime) {
        let Some(cap) = self.cfg.storage_capacity_bytes else {
            return;
        };
        let available = (cap as f64 - self.storage.value()).max(0.0);
        while let Some(&Reverse((bytes, _, t))) = self.scr.storage_blocked.peek() {
            if bytes as f64 > available {
                break; // smallest waiter doesn't fit; none of the rest do
            }
            self.scr.storage_blocked.pop();
            self.enqueue_ready(now, t);
        }
    }

    /// Starts as many ready tasks as there are free processors.
    fn dispatch(&mut self, now: SimTime) {
        if self.aborted {
            return; // dead-lettered: drain in-flight work, start nothing new
        }
        if now < self.vm_ready_at {
            return; // VMs still booting; Ev::VmReady re-triggers dispatch.
        }
        while let Some((rank, t)) = self.scr.ready.peek_min() {
            if self.storage_would_overflow(t) {
                self.remove_ready(now, rank);
                self.scr.storage_blocked.push(Reverse((
                    self.scr.tasks.output_bytes[t.index()],
                    rank,
                    t,
                )));
                narrate!(self, now, TraceEvent::TaskBlockedOnStorage { task: t.0 });
                continue; // try the next-priority candidate
            }
            let Some(proc) = self.scr.pool.try_acquire(now) else {
                break;
            };
            self.remove_ready(now, rank);
            let waited = now.since(self.scr.tasks.ready_time[t.index()]);
            self.wait_stats.push(waited.as_secs_f64());
            self.scr.wait_hist.record(waited.as_secs_f64());
            narrate!(
                self,
                now,
                TraceEvent::TaskStarted {
                    task: t.0,
                    proc: proc.0,
                    waited,
                },
            );
            if self.cfg.mode == DataMode::RemoteIo {
                // The task's working set (staged inputs + space for its
                // outputs) occupies storage while it runs, and only then:
                // "the files are present on the resource only during the
                // execution of the current task". Outputs in flight back
                // to the user ride the link, not the storage resource.
                let held = self.working_set_bytes(t);
                if held > 0 {
                    self.storage_alloc(now, held);
                }
            }
            // A configured timeout truncates the attempt: it fails (and
            // bills) at the timeout instant instead of running to the end.
            let runtime_s = self.attempt_seconds(t);
            let runtime = SimDuration::from_secs_f64(runtime_s);
            let finish_id = self
                .scr
                .events
                .push(now + runtime, Ev::TaskFinished { task: t, proc });
            self.scr
                .in_flight
                .occupy(proc.0 as usize, t, now, finish_id);
        }
    }

    /// How long one execution attempt of `t` occupies its processor: the
    /// task runtime, truncated by the per-task timeout when one is set.
    fn attempt_seconds(&self, t: TaskId) -> f64 {
        let runtime_s = self.wf.runtime_s(t);
        let timeout = self.cfg.retry.task_timeout_s;
        if timeout > 0.0 && runtime_s > timeout {
            timeout
        } else {
            runtime_s
        }
    }

    fn on_task_finished(&mut self, now: SimTime, t: TaskId, proc: ProcId) {
        self.scr.pool.release(now, proc);
        self.scr.in_flight.clear(proc.0 as usize);
        let timeout = self.cfg.retry.task_timeout_s;
        let timed_out = timeout > 0.0 && self.wf.runtime_s(t) > timeout;
        let billed_s = self.attempt_seconds(t);
        self.scr.run_seconds.push(billed_s);
        // Fault injection: a failed attempt consumed its runtime (billed
        // above) but produced nothing; the retry policy decides whether
        // the task goes back to the ready queue. A timed-out attempt
        // fails deterministically without consuming a fault draw.
        let failed = timed_out
            || self
                .injector
                .as_mut()
                .is_some_and(|i| i.task_attempt_fails());
        narrate!(
            self,
            now,
            TraceEvent::TaskFinished {
                task: t.0,
                proc: proc.0,
                ok: !failed,
            },
        );
        if failed {
            let kind = if timed_out {
                FailureKind::Timeout
            } else {
                FailureKind::Fault
            };
            self.on_attempt_failed(now, t, proc, billed_s, kind);
            return;
        }
        let wf = self.wf;
        match self.cfg.mode {
            DataMode::Regular | DataMode::DynamicCleanup => {
                // Outputs materialize on shared storage. (Consumers track
                // intermediate availability through `pending_parents`, so
                // only the occupancy bookkeeping happens here.)
                for &f in wf.outputs(t) {
                    self.storage_alloc(now, wf.bytes(f));
                    self.scr.files.mark_in_storage(f);
                }
                for &c in wf.children(t) {
                    self.scr.tasks.pending_parents[c.index()] -= 1;
                    self.maybe_ready(now, c);
                }
                if self.cfg.mode == DataMode::DynamicCleanup {
                    for &f in wf.inputs(t) {
                        self.scr.files.remaining_consumers[f.index()] -= 1;
                        if self.scr.files.remaining_consumers[f.index()] == 0
                            && !self.scr.files.is_staged_out(f)
                        {
                            self.remove_from_storage(now, f);
                        }
                    }
                }
                self.tasks_done += 1;
                if self.tasks_done == wf.num_tasks() {
                    self.begin_final_stage_out(now);
                }
            }
            DataMode::RemoteIo => {
                // The whole working set leaves the storage resource...
                let held = self.working_set_bytes(t);
                if held > 0 {
                    self.storage_free(now, held);
                }
                // ...and every output is staged back to the user's site.
                if wf.outputs(t).is_empty() {
                    self.task_fully_done(now, t);
                    return;
                }
                for &f in wf.outputs(t) {
                    let bytes = wf.bytes(f);
                    let ev = Ev::OutputStagedOut {
                        task: t,
                        bytes,
                        attempt: 1,
                    };
                    self.transfer(Channel::Out, now, bytes, Some(t), ev);
                }
            }
        }
    }

    fn begin_final_stage_out(&mut self, now: SimTime) {
        let wf = self.wf;
        let files = wf.staged_out_files();
        if files.is_empty() {
            self.end_time = now;
            return;
        }
        self.stageouts_pending = files.len();
        for &f in files {
            let ev = Ev::FinalStageOutDone {
                file: f,
                attempt: 1,
            };
            self.transfer(Channel::Out, now, wf.bytes(f), None, ev);
        }
    }

    fn finish(self, completed: bool) -> Report {
        let makespan = self.end_time.since(SimTime::ZERO);
        let makespan_s = makespan.as_secs_f64();
        let task_runtime_seconds = self.wf.total_runtime_s();
        let task_executions = self.scr.run_seconds.len() as u64;

        let (instance_seconds, processors, cpu_utilization): (&[f64], Option<u32>, f64) =
            match self.cfg.provisioning {
                Provisioning::Fixed { processors } => {
                    let util = if makespan_s > 0.0 {
                        self.scr.pool.utilization(self.end_time)
                    } else {
                        0.0
                    };
                    // Instances are acquired at t=0 (boot time is inside
                    // the makespan) and billed through teardown. The
                    // scratch buffer replaces a per-run `vec!`.
                    let held = makespan_s + self.cfg.vm.teardown_s;
                    self.scr.instance_seconds.clear();
                    self.scr.instance_seconds.resize(processors as usize, held);
                    (&self.scr.instance_seconds, Some(processors), util)
                }
                Provisioning::OnDemand => {
                    // Billed exactly for what ran (including failed
                    // attempts); each execution is its own instance
                    // occupation for granularity purposes. The attempt
                    // list is borrowed straight from the scratch.
                    (&self.scr.run_seconds, None, 1.0)
                }
            };
        let cpu_seconds_billed: f64 = instance_seconds.iter().sum();

        let storage_byte_seconds = self.storage.integral(self.end_time);
        let costs = CostBreakdown {
            cpu: self
                .cfg
                .granularity
                .cpu_cost(&self.cfg.pricing, instance_seconds),
            storage: self.cfg.pricing.storage_cost(storage_byte_seconds),
            transfer_in: self.cfg.pricing.transfer_in_cost(self.bytes_in),
            transfer_out: self.cfg.pricing.transfer_out_cost(self.bytes_out),
        };

        Report {
            makespan,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            transfers_in: self.transfers_in,
            transfers_out: self.transfers_out,
            storage_byte_seconds,
            storage_peak_bytes: self.storage.peak(),
            cpu_seconds_billed,
            task_runtime_seconds,
            costs,
            processors,
            peak_concurrency: self.scr.pool.peak_in_use(),
            cpu_utilization,
            task_executions,
            events_processed: self.scr.events.popped(),
            failed_attempts: self.failed_attempts,
            completed,
            tasks_completed: self.tasks_done as u64,
            retries: self.retries,
            preemptions: self.preemptions,
            transfer_failures: self.transfer_failures,
            wasted_cpu_seconds: self.wasted_cpu_s,
            wasted_bytes_in: self.wasted_bytes_in,
            wasted_bytes_out: self.wasted_bytes_out,
            queue_wait_mean_s: self.wait_stats.mean(),
            queue_wait_max_s: self.wait_stats.max(),
            kernel: KernelStats {
                queue: self.scr.events.stats(),
                ready_mean: self.ready_occ.mean(self.end_time),
                ready_peak: self.ready_occ.peak(),
                pool_busy_mean: if makespan_s > 0.0 {
                    self.scr.pool.busy_time().as_secs_f64() / makespan_s
                } else {
                    0.0
                },
                pool_grants: self.scr.pool.grants(),
            },
            // Cloned (not moved) out of the scratch: the one warm-path
            // allocation a report still costs.
            queue_wait_hist: self.scr.wait_hist.clone(),
        }
    }
}
