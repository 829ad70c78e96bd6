//! Execution-plan configuration: data-management mode, provisioning plan,
//! link bandwidth, pricing, and billing granularity.

use mcloud_cost::{ChargeGranularity, Pricing};

/// The paper's 10 Mbps user <-> cloud-storage link.
pub const PAPER_BANDWIDTH_BPS: f64 = 10_000_000.0;

/// The three data-management models of Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataMode {
    /// Stage each task's inputs in and outputs out, then delete: nothing
    /// persists on cloud storage between tasks. Intermediates bounce
    /// through the user's site, so shared files transfer repeatedly.
    RemoteIo,
    /// Stage all external inputs up front; keep every file on shared cloud
    /// storage until the whole workflow finishes, then stage out the net
    /// outputs and delete everything.
    Regular,
    /// Like `Regular`, but delete each file as soon as its last consumer
    /// task has finished (Pegasus-style cleanup).
    DynamicCleanup,
}

impl DataMode {
    /// All three modes, in the paper's presentation order.
    pub const ALL: [DataMode; 3] = [
        DataMode::RemoteIo,
        DataMode::Regular,
        DataMode::DynamicCleanup,
    ];

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            DataMode::RemoteIo => "remote-io",
            DataMode::Regular => "regular",
            DataMode::DynamicCleanup => "cleanup",
        }
    }
}

/// How compute is provisioned and billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provisioning {
    /// Question 1: `processors` nodes are held for the entire run and
    /// billed for the full makespan each, busy or idle.
    Fixed {
        /// Number of processors held for the whole run.
        processors: u32,
    },
    /// Question 2: the application owns a large standing pool; a request
    /// runs at its full parallelism and is billed only for the CPU-seconds
    /// its tasks actually consume.
    OnDemand,
}

impl Provisioning {
    /// Short label used in tables.
    pub fn label(&self) -> String {
        match self {
            Provisioning::Fixed { processors } => format!("fixed({processors})"),
            Provisioning::OnDemand => "on-demand".to_string(),
        }
    }
}

/// Virtual-machine provisioning overhead — the startup/teardown cost the
/// paper's conclusions flag as future work: "the startup cost of the
/// application on the cloud, which is composed of launching and
/// configuring a virtual machine and its teardown."
///
/// Applies to fixed provisioning only: under on-demand billing the
/// application draws from a standing pool whose VMs are already up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VmOverhead {
    /// Seconds from acquisition until the instances can run tasks (VM
    /// launch + image deployment + configuration).
    pub startup_s: f64,
    /// Seconds each instance remains billed after the workflow finishes.
    pub teardown_s: f64,
}

impl VmOverhead {
    /// No overhead — the paper's simulation assumption.
    pub const NONE: VmOverhead = VmOverhead {
        startup_s: 0.0,
        teardown_s: 0.0,
    };
}

/// Stochastic fault model (the paper: "the reliability and availability
/// of the storage and compute resources are also an important concern").
/// A failed attempt consumes its runtime (and is billed), a failed
/// transfer consumes its bytes (and is billed), and a preempted processor
/// kills whatever attempt it was running; the [`RetryPolicy`] decides what
/// happens next. All draws come from one seeded RNG so runs stay
/// reproducible, and a zero rate disables that fault kind's draws
/// entirely (enabling one kind never perturbs another's stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Probability that any single execution attempt fails, in `[0, 1)`.
    pub task_failure_prob: f64,
    /// Probability that any single transfer fails on completion, in
    /// `[0, 1)`. The bytes were still billed; the transfer is resubmitted.
    pub transfer_failure_prob: f64,
    /// Mean time to failure of one processor, seconds; preemptions strike
    /// the pool with exponential inter-arrival times at aggregate rate
    /// `procs / mttf`. Zero disables preemption.
    pub proc_mttf_s: f64,
    /// RNG seed for all fault draws.
    pub seed: u64,
}

impl FaultModel {
    /// The legacy task-failure-only model: transfer failures and
    /// preemptions off.
    pub fn tasks_only(task_failure_prob: f64, seed: u64) -> Self {
        FaultModel {
            task_failure_prob,
            transfer_failure_prob: 0.0,
            proc_mttf_s: 0.0,
            seed,
        }
    }
}

/// What the engine does after a failed attempt or transfer.
///
/// The default reproduces the original engine behavior: unlimited
/// immediate retries with no backoff, no timeout, and no extra RNG draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per task (and per transfer) after the first
    /// attempt. `None` means unlimited; `Some(0)` dead-letters on the
    /// first failure. When the budget is exhausted the run aborts
    /// gracefully and reports partial results instead of completing.
    pub max_retries: Option<u32>,
    /// First-retry backoff delay, seconds; each further retry doubles it.
    /// Zero retries immediately (the legacy behavior) and draws no jitter.
    pub backoff_base_s: f64,
    /// Cap on the un-jittered backoff delay, seconds. Zero means uncapped.
    pub backoff_cap_s: f64,
    /// Uniform jitter half-width as a fraction of the delay, in `[0, 1]`.
    pub jitter_frac: f64,
    /// Kill an attempt that runs longer than this many seconds, billing
    /// only the timeout window. Zero disables timeouts. Because a timeout
    /// is deterministic, it requires bounded retries.
    pub task_timeout_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: None,
            backoff_base_s: 0.0,
            backoff_cap_s: 0.0,
            jitter_frac: 0.0,
            task_timeout_s: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Default first-retry delay used by [`RetryPolicy::bounded`].
    pub const DEFAULT_BACKOFF_BASE_S: f64 = 30.0;
    /// Default backoff cap used by [`RetryPolicy::bounded`].
    pub const DEFAULT_BACKOFF_CAP_S: f64 = 300.0;
    /// Default jitter fraction used by [`RetryPolicy::bounded`].
    pub const DEFAULT_JITTER_FRAC: f64 = 0.5;

    /// A production-style policy: at most `max_retries` retries with
    /// jittered exponential backoff (30 s base, 300 s cap, ±50% jitter).
    /// This is what the CLI's `--retry-max` flag configures.
    pub fn bounded(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries: Some(max_retries),
            backoff_base_s: Self::DEFAULT_BACKOFF_BASE_S,
            backoff_cap_s: Self::DEFAULT_BACKOFF_CAP_S,
            jitter_frac: Self::DEFAULT_JITTER_FRAC,
            task_timeout_s: 0.0,
        }
    }
}

/// Order in which ready tasks grab free processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Ascending task id (generator ids are level-ordered, so this is the
    /// paper's natural level-by-level order). The default.
    #[default]
    FifoById,
    /// Largest bottom level first — the classic critical-path list
    /// scheduling priority (an ablation; the paper does not vary this).
    CriticalPathFirst,
}

/// Full configuration of one simulated execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Data-management mode.
    pub mode: DataMode,
    /// Provisioning/billing plan.
    pub provisioning: Provisioning,
    /// User <-> storage link bandwidth, bits per second.
    pub bandwidth_bps: f64,
    /// Rate card.
    pub pricing: Pricing,
    /// Billing granularity (the paper assumes [`ChargeGranularity::Exact`]).
    pub granularity: ChargeGranularity,
    /// Question 2b: external inputs already live in cloud storage, so they
    /// cost nothing to stage in (their long-term storage is billed to the
    /// archive, not to the request).
    pub prestaged_inputs: bool,
    /// VM launch/teardown overhead (fixed provisioning only).
    pub vm: VmOverhead,
    /// Optional stochastic faults (task failures, transfer failures,
    /// processor preemptions).
    pub faults: Option<FaultModel>,
    /// Recovery policy applied when faults (or timeouts) strike.
    pub retry: RetryPolicy,
    /// Storage-service outage windows as `(start_s, duration_s)`: the
    /// user<->storage link makes no progress inside them. Must be sorted
    /// and disjoint.
    pub storage_outages: Vec<(f64, f64)>,
    /// Ready-queue ordering.
    pub policy: SchedulePolicy,
    /// Optional storage capacity in bytes. The paper assumes "storage
    /// system with infinite capacity" (`None`); with a limit, a task may
    /// not start until its outputs fit, which is the storage-constrained
    /// setting that motivates dynamic cleanup (the paper's refs 15 and 16).
    /// Only meaningful for the shared-storage modes. The cap gates task
    /// outputs only: the external inputs staged in at the start are never
    /// held back, so they can push occupancy past the cap.
    pub storage_capacity_bytes: Option<u64>,
    /// Model the user<->storage connection as two independent
    /// `bandwidth_bps` channels (one per direction) instead of the
    /// default single shared serial link — an ablation on the paper's
    /// ambiguous "bandwidth ... was fixed at 10 Mbps".
    pub duplex_link: bool,
}

impl ExecConfig {
    /// The paper's baseline: Regular mode, on-demand billing, 10 Mbps,
    /// Amazon 2008 rates, exact granularity, inputs staged per request.
    pub fn paper_default() -> Self {
        ExecConfig {
            mode: DataMode::Regular,
            provisioning: Provisioning::OnDemand,
            bandwidth_bps: PAPER_BANDWIDTH_BPS,
            pricing: Pricing::amazon_2008(),
            granularity: ChargeGranularity::Exact,
            prestaged_inputs: false,
            vm: VmOverhead::NONE,
            faults: None,
            retry: RetryPolicy::default(),
            storage_outages: Vec::new(),
            policy: SchedulePolicy::FifoById,
            storage_capacity_bytes: None,
            duplex_link: false,
        }
    }

    /// Question 1 setup: `p` processors held for the whole run.
    pub fn fixed(p: u32) -> Self {
        ExecConfig {
            provisioning: Provisioning::Fixed { processors: p },
            ..Self::paper_default()
        }
    }

    /// Question 2 setup with the given data-management mode.
    pub fn on_demand(mode: DataMode) -> Self {
        ExecConfig {
            mode,
            ..Self::paper_default()
        }
    }

    /// Sets the data-management mode.
    pub fn mode(mut self, mode: DataMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the link bandwidth (bits per second).
    pub fn bandwidth(mut self, bits_per_sec: f64) -> Self {
        self.bandwidth_bps = bits_per_sec;
        self
    }

    /// Marks external inputs as already resident in cloud storage.
    pub fn prestaged(mut self, yes: bool) -> Self {
        self.prestaged_inputs = yes;
        self
    }

    /// Sets the billing granularity.
    pub fn with_granularity(mut self, g: ChargeGranularity) -> Self {
        self.granularity = g;
        self
    }

    /// Sets the VM launch/teardown overhead.
    pub fn with_vm_overhead(mut self, vm: VmOverhead) -> Self {
        self.vm = vm;
        self
    }

    /// Enables stochastic task failures with the given per-attempt
    /// probability and seed (transfer failures and preemptions stay off).
    pub fn with_faults(mut self, task_failure_prob: f64, seed: u64) -> Self {
        self.faults = Some(FaultModel::tasks_only(task_failure_prob, seed));
        self
    }

    /// Enables the full stochastic fault model.
    pub fn with_fault_model(mut self, model: FaultModel) -> Self {
        self.faults = Some(model);
        self
    }

    /// Sets the recovery policy applied when faults or timeouts strike.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Adds a storage-service outage window (`start_s`, `duration_s`).
    pub fn with_outage(mut self, start_s: f64, duration_s: f64) -> Self {
        self.storage_outages.push((start_s, duration_s));
        self
    }

    /// Sets the ready-queue scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Caps the cloud storage resource at `bytes` (default unlimited, as
    /// in the paper's Section 5 setup). Only task outputs wait for space;
    /// staged-in external inputs are exempt and may push occupancy past
    /// the cap (see [`ExecConfig::storage_capacity_bytes`]).
    pub fn with_storage_capacity(mut self, bytes: u64) -> Self {
        self.storage_capacity_bytes = Some(bytes);
        self
    }

    /// Uses independent per-direction channels instead of one shared
    /// serial link.
    pub fn with_duplex_link(mut self) -> Self {
        self.duplex_link = true;
        self
    }

    /// Validates rates, bandwidth, processor counts, overheads, fault
    /// probabilities, and outage windows.
    pub fn validate(&self) -> Result<(), String> {
        self.pricing.validate()?;
        if !self.bandwidth_bps.is_finite() || self.bandwidth_bps <= 0.0 {
            return Err(format!(
                "bandwidth must be positive, got {}",
                self.bandwidth_bps
            ));
        }
        if let Provisioning::Fixed { processors: 0 } = self.provisioning {
            return Err("fixed provisioning needs at least one processor".to_string());
        }
        if !self.vm.startup_s.is_finite()
            || self.vm.startup_s < 0.0
            || !self.vm.teardown_s.is_finite()
            || self.vm.teardown_s < 0.0
        {
            return Err(format!(
                "VM overhead must be finite and non-negative: {:?}",
                self.vm
            ));
        }
        if let Some(f) = self.faults {
            if !(0.0..1.0).contains(&f.task_failure_prob) {
                return Err(format!(
                    "task failure probability must be in [0, 1), got {}",
                    f.task_failure_prob
                ));
            }
            if !(0.0..1.0).contains(&f.transfer_failure_prob) {
                return Err(format!(
                    "transfer failure probability must be in [0, 1), got {}",
                    f.transfer_failure_prob
                ));
            }
            if !f.proc_mttf_s.is_finite() || f.proc_mttf_s < 0.0 {
                return Err(format!(
                    "processor MTTF must be finite and non-negative, got {}",
                    f.proc_mttf_s
                ));
            }
        }
        let r = &self.retry;
        if !r.backoff_base_s.is_finite()
            || r.backoff_base_s < 0.0
            || !r.backoff_cap_s.is_finite()
            || r.backoff_cap_s < 0.0
            || !r.task_timeout_s.is_finite()
            || r.task_timeout_s < 0.0
        {
            return Err(format!(
                "retry delays must be finite and non-negative: {r:?}"
            ));
        }
        if !(0.0..=1.0).contains(&r.jitter_frac) {
            return Err(format!(
                "retry jitter fraction must be in [0, 1], got {}",
                r.jitter_frac
            ));
        }
        if r.task_timeout_s > 0.0 && r.max_retries.is_none() {
            // A task longer than the timeout would fail deterministically
            // on every attempt, so unlimited retries could never finish.
            return Err("task timeouts require bounded retries (max_retries)".to_string());
        }
        let mut prev_end = 0.0f64;
        for &(start, dur) in &self.storage_outages {
            if !(start.is_finite() && start >= 0.0 && dur.is_finite() && dur > 0.0) {
                return Err(format!("invalid outage window ({start}, {dur})"));
            }
            if start < prev_end {
                return Err("outage windows must be sorted and disjoint".to_string());
            }
            prev_end = start + dur;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section5() {
        let cfg = ExecConfig::paper_default();
        assert_eq!(cfg.bandwidth_bps, 10_000_000.0);
        assert_eq!(cfg.mode, DataMode::Regular);
        assert_eq!(cfg.provisioning, Provisioning::OnDemand);
        assert!(!cfg.prestaged_inputs);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let cfg = ExecConfig::fixed(8)
            .mode(DataMode::DynamicCleanup)
            .bandwidth(20e6)
            .prestaged(true);
        assert_eq!(cfg.provisioning, Provisioning::Fixed { processors: 8 });
        assert_eq!(cfg.mode, DataMode::DynamicCleanup);
        assert_eq!(cfg.bandwidth_bps, 20e6);
        assert!(cfg.prestaged_inputs);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(ExecConfig::fixed(0).validate().is_err());
        assert!(ExecConfig::paper_default()
            .bandwidth(0.0)
            .validate()
            .is_err());
        let mut cfg = ExecConfig::paper_default();
        cfg.pricing.cpu_per_hour = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_covers_fault_and_retry_fields() {
        let bad_transfer = ExecConfig::paper_default().with_fault_model(FaultModel {
            task_failure_prob: 0.1,
            transfer_failure_prob: 1.5,
            proc_mttf_s: 0.0,
            seed: 1,
        });
        assert!(bad_transfer.validate().is_err());
        let bad_mttf = ExecConfig::paper_default().with_fault_model(FaultModel {
            task_failure_prob: 0.0,
            transfer_failure_prob: 0.0,
            proc_mttf_s: -5.0,
            seed: 1,
        });
        assert!(bad_mttf.validate().is_err());
        let mut bad_jitter = RetryPolicy::bounded(3);
        bad_jitter.jitter_frac = 2.0;
        assert!(ExecConfig::paper_default()
            .with_retry(bad_jitter)
            .validate()
            .is_err());
        let unbounded_timeout = RetryPolicy {
            task_timeout_s: 100.0,
            ..RetryPolicy::default()
        };
        assert!(ExecConfig::paper_default()
            .with_retry(unbounded_timeout)
            .validate()
            .is_err());
        let ok = ExecConfig::paper_default()
            .with_fault_model(FaultModel {
                task_failure_prob: 0.05,
                transfer_failure_prob: 0.02,
                proc_mttf_s: 5000.0,
                seed: 2008,
            })
            .with_retry(RetryPolicy::bounded(3));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn default_retry_policy_is_the_legacy_behavior() {
        let r = RetryPolicy::default();
        assert_eq!(r.max_retries, None);
        assert_eq!(r.backoff_base_s, 0.0);
        assert_eq!(r.task_timeout_s, 0.0);
        let b = RetryPolicy::bounded(2);
        assert_eq!(b.max_retries, Some(2));
        assert_eq!(b.backoff_base_s, RetryPolicy::DEFAULT_BACKOFF_BASE_S);
        assert_eq!(b.backoff_cap_s, RetryPolicy::DEFAULT_BACKOFF_CAP_S);
        assert_eq!(b.jitter_frac, RetryPolicy::DEFAULT_JITTER_FRAC);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DataMode::RemoteIo.label(), "remote-io");
        assert_eq!(Provisioning::Fixed { processors: 16 }.label(), "fixed(16)");
        assert_eq!(Provisioning::OnDemand.label(), "on-demand");
        assert_eq!(DataMode::ALL.len(), 3);
    }
}
