//! Content-addressed scenario identity.
//!
//! Every simulation here is byte-deterministic, so a scenario's *identity*
//! is enough to stand in for its *result*: two callers that describe the
//! same workflow recipe and [`ExecConfig`] must get the same [`Digest`],
//! and any caller that differs in a single semantic field must get a
//! different one. This module defines that identity:
//!
//! - a **canonical binary encoding** ([`Canon`]): fields are written in
//!   declaration order with explicit enum-discriminant and `Option`-tag
//!   bytes, strings and lists are length-prefixed, and every `f64` is
//!   normalized before its bit pattern is written (all NaNs collapse to
//!   the canonical quiet NaN, `-0.0` collapses to `+0.0`), so the digest
//!   is stable across construction paths and platforms;
//! - a **schema-version byte** ([`SCENARIO_SCHEMA_VERSION`]) prefixed to
//!   every encoding, so changing what a field *means* invalidates every
//!   previously published digest at once;
//! - a **domain byte** separating digest namespaces (a recipe-level
//!   scenario, a materialized workflow fingerprint, a capacity-planner
//!   candidate), so equal payload bytes in different roles can never
//!   collide;
//! - an in-tree **SipHash-2-4 128-bit** digest with fixed keys — content
//!   addressing needs a stable, well-mixed hash, not a keyed MAC.
//!
//! The cache crate keys its entries by these digests; `mcloud serve`
//! answers a repeated query by digesting the request (no workflow
//! generation) and looking the result up.

use mcloud_dag::Workflow;

use crate::config::ExecConfig;

/// Bumped whenever the canonical encoding (or the meaning of an encoded
/// field) changes. The version byte leads every encoding, so a bump
/// invalidates all previously issued digests — the cache's entire
/// invalidation story.
pub const SCENARIO_SCHEMA_VERSION: u8 = 1;

/// Digest namespace: a recipe-level scenario (workflow parameters + exec
/// config), the key `mcloud serve` answers repeated queries from.
pub const DOMAIN_SCENARIO: u8 = 1;
/// Digest namespace: a materialized workflow's structural fingerprint.
pub const DOMAIN_WORKFLOW: u8 = 2;
/// Digest namespace: a capacity-planner (spec, candidate) evaluation.
/// Namespace 3 (a workflow fingerprint paired with an exec config) is
/// retired and must not be reissued: disk tiers may still hold its keys.
pub const DOMAIN_PLAN: u8 = 4;

/// A 128-bit content address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 16]);

impl Digest {
    /// Lower-case hex, 32 characters — the disk tier's file-name form.
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        s
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Normalized IEEE-754 bit pattern used by every canonical `f64` write:
/// all NaN payloads collapse to the canonical quiet NaN and `-0.0`
/// collapses to `+0.0`, so values that compare equal (or are equally
/// "undefined") hash equal regardless of how they were computed.
pub fn norm_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else if v == 0.0 {
        0 // +0.0; folds -0.0 in
    } else {
        v.to_bits()
    }
}

/// A canonical-encoding buffer. Construction fixes the schema version and
/// the domain byte; the field writers append in call order, which callers
/// must keep equal to declaration order.
#[derive(Debug, Clone)]
pub struct Canon {
    bytes: Vec<u8>,
}

impl Canon {
    /// Starts an encoding in the given digest namespace.
    pub fn new(domain: u8) -> Self {
        Canon {
            bytes: vec![SCENARIO_SCHEMA_VERSION, domain],
        }
    }

    /// Appends one raw byte (enum discriminants, `Option` tags).
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.bytes.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a normalized `f64` bit pattern (see [`norm_f64_bits`]).
    pub fn f64(&mut self, v: f64) {
        self.u64(norm_f64_bits(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Appends a list length (callers then append each element).
    pub fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("canonical list longer than u32"));
    }

    /// Appends another digest verbatim (16 bytes).
    pub fn digest(&mut self, d: Digest) {
        self.bytes.extend_from_slice(&d.0);
    }

    /// The canonical bytes accumulated so far (version + domain + fields).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Hashes the encoding into its content address.
    pub fn finish(self) -> Digest {
        let (h1, h2) = siphash128(&self.bytes);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&h1.to_le_bytes());
        out[8..].copy_from_slice(&h2.to_le_bytes());
        Digest(out)
    }
}

// SipHash-2-4, 128-bit output, with fixed keys: this is a content hash,
// not a MAC, so the keys are public constants (ASCII "mcloudsc"/"enariov1").
const SIP_K0: u64 = 0x6d63_6c6f_7564_7363;
const SIP_K1: u64 = 0x656e_6172_696f_7631;

#[inline]
fn sip_round(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 with 128-bit output over `data` under the fixed keys.
fn siphash128(data: &[u8]) -> (u64, u64) {
    let mut v = [
        SIP_K0 ^ 0x736f_6d65_7073_6575,
        SIP_K1 ^ 0x646f_7261_6e64_6f6d,
        SIP_K0 ^ 0x6c79_6765_6e65_7261,
        SIP_K1 ^ 0x7465_6462_7974_6573,
    ];
    v[1] ^= 0xee; // 128-bit variant marker

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().unwrap());
        v[3] ^= m;
        sip_round(&mut v);
        sip_round(&mut v);
        v[0] ^= m;
    }
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    sip_round(&mut v);
    sip_round(&mut v);
    v[0] ^= m;

    v[2] ^= 0xee;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    let h1 = v[0] ^ v[1] ^ v[2] ^ v[3];
    v[1] ^= 0xdd;
    for _ in 0..4 {
        sip_round(&mut v);
    }
    let h2 = v[0] ^ v[1] ^ v[2] ^ v[3];
    (h1, h2)
}

/// The workflow *recipe* half of a scenario: the generator parameters
/// that materialize a mosaic DAG, not the DAG itself. Digesting the
/// recipe lets a repeated query be answered without generating the
/// workflow at all.
///
/// Mirrors `mcloud_montage::MosaicConfig` (core cannot depend on the
/// generator crate); [`ScenarioRecipe::new`] pins the same defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecipe {
    /// Mosaic size, square degrees.
    pub degrees: f64,
    /// Survey band tag (`"j"`, `"h"`, or `"k"`).
    pub band: String,
    /// Region name (labels only; does not change the DAG shape).
    pub region: String,
    /// Generator seed.
    pub seed: u64,
}

impl ScenarioRecipe {
    /// The generator defaults for a `degrees`-sized mosaic: band J,
    /// region M17, seed 20081115 — byte-for-byte the parameters
    /// `MosaicConfig::new(degrees)` pins.
    pub fn new(degrees: f64) -> Self {
        ScenarioRecipe {
            degrees,
            band: "j".to_string(),
            region: "M17".to_string(),
            seed: 2008_1115,
        }
    }

    fn encode(&self, c: &mut Canon) {
        c.f64(self.degrees);
        c.str(&self.band);
        c.str(&self.region);
        c.u64(self.seed);
    }
}

/// A full what-if scenario: the workflow recipe plus the execution plan.
/// Its digest is the content address `mcloud serve` caches results under.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workflow generator parameters.
    pub recipe: ScenarioRecipe,
    /// Execution plan (mode, provisioning, pricing, faults, retry, ...).
    pub exec: ExecConfig,
}

impl Scenario {
    /// The scenario's content address ([`DOMAIN_SCENARIO`]).
    pub fn digest(&self) -> Digest {
        let mut c = Canon::new(DOMAIN_SCENARIO);
        self.recipe.encode(&mut c);
        encode_exec_config(&mut c, &self.exec);
        c.finish()
    }
}

/// Appends every [`ExecConfig`] field, in declaration order, to a
/// canonical encoding. Public so other crates (the planner) can embed an
/// exec config in their own digests.
pub fn encode_exec_config(c: &mut Canon, cfg: &ExecConfig) {
    use crate::config::{DataMode, Provisioning, SchedulePolicy};
    use mcloud_cost::ChargeGranularity;

    c.u8(match cfg.mode {
        DataMode::RemoteIo => 0,
        DataMode::Regular => 1,
        DataMode::DynamicCleanup => 2,
    });
    match cfg.provisioning {
        Provisioning::Fixed { processors } => {
            c.u8(0);
            c.u32(processors);
        }
        Provisioning::OnDemand => c.u8(1),
    }
    c.f64(cfg.bandwidth_bps);
    c.f64(cfg.pricing.storage_per_gb_month);
    c.f64(cfg.pricing.transfer_in_per_gb);
    c.f64(cfg.pricing.transfer_out_per_gb);
    c.f64(cfg.pricing.cpu_per_hour);
    c.u8(match cfg.granularity {
        ChargeGranularity::Exact => 0,
        ChargeGranularity::HourlyCpu => 1,
    });
    c.bool(cfg.prestaged_inputs);
    c.f64(cfg.vm.startup_s);
    c.f64(cfg.vm.teardown_s);
    match cfg.faults {
        None => c.u8(0),
        Some(f) => {
            c.u8(1);
            c.f64(f.task_failure_prob);
            c.f64(f.transfer_failure_prob);
            c.f64(f.proc_mttf_s);
            c.u64(f.seed);
        }
    }
    match cfg.retry.max_retries {
        None => c.u8(0),
        Some(n) => {
            c.u8(1);
            c.u32(n);
        }
    }
    c.f64(cfg.retry.backoff_base_s);
    c.f64(cfg.retry.backoff_cap_s);
    c.f64(cfg.retry.jitter_frac);
    c.f64(cfg.retry.task_timeout_s);
    c.len(cfg.storage_outages.len());
    for &(start, dur) in &cfg.storage_outages {
        c.f64(start);
        c.f64(dur);
    }
    c.u8(match cfg.policy {
        SchedulePolicy::FifoById => 0,
        SchedulePolicy::CriticalPathFirst => 1,
    });
    match cfg.storage_capacity_bytes {
        None => c.u8(0),
        Some(b) => {
            c.u8(1);
            c.u64(b);
        }
    }
    c.bool(cfg.duplex_link);
}

/// Structural fingerprint of a materialized workflow
/// ([`DOMAIN_WORKFLOW`]): name, every task (module, runtime, input and
/// output file ids), and every file (name, size, deliverable flag).
/// Generator ids are deterministic, so two calls to the same recipe
/// fingerprint equal; any structural edit changes the digest.
pub fn fingerprint_workflow(wf: &Workflow) -> Digest {
    let mut c = Canon::new(DOMAIN_WORKFLOW);
    c.str(wf.name());
    c.len(wf.tasks().len());
    for t in wf.tasks() {
        c.str(t.name);
        c.str(t.module);
        c.f64(t.runtime_s);
        c.len(t.inputs.len());
        for f in t.inputs {
            c.u32(f.0);
        }
        c.len(t.outputs.len());
        for f in t.outputs {
            c.u32(f.0);
        }
    }
    c.len(wf.files().len());
    for f in wf.files() {
        c.str(f.name);
        c.u64(f.bytes);
        c.bool(f.deliverable);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DataMode, FaultModel, RetryPolicy, SchedulePolicy, VmOverhead};
    use mcloud_cost::ChargeGranularity;

    fn base() -> Scenario {
        Scenario {
            recipe: ScenarioRecipe::new(1.0),
            exec: ExecConfig::paper_default(),
        }
    }

    #[test]
    fn construction_order_does_not_change_the_digest() {
        // Builder chain vs. struct-literal assembly vs. field mutation:
        // three construction paths, one digest.
        let chained = Scenario {
            recipe: ScenarioRecipe::new(2.0),
            exec: ExecConfig::fixed(8)
                .mode(DataMode::DynamicCleanup)
                .bandwidth(20e6)
                .prestaged(true)
                .with_retry(RetryPolicy::bounded(3)),
        };
        let mut exec = ExecConfig::paper_default();
        exec.retry = RetryPolicy::bounded(3);
        exec.prestaged_inputs = true;
        exec.bandwidth_bps = 20e6;
        exec.mode = DataMode::DynamicCleanup;
        exec.provisioning = crate::Provisioning::Fixed { processors: 8 };
        let literal = Scenario {
            recipe: ScenarioRecipe {
                seed: 2008_1115,
                region: "M17".to_string(),
                band: "j".to_string(),
                degrees: 2.0,
            },
            exec,
        };
        assert_eq!(chained.digest(), literal.digest());
    }

    #[test]
    fn every_field_perturbation_changes_the_digest() {
        let d0 = base().digest();
        let mut seen = vec![d0];
        let mut check = |s: Scenario, what: &str| {
            let d = s.digest();
            assert!(!seen.contains(&d), "{what} did not change the digest");
            seen.push(d);
        };

        let mut s = base();
        s.recipe.degrees = 2.0;
        check(s, "recipe.degrees");
        let mut s = base();
        s.recipe.band = "k".to_string();
        check(s, "recipe.band");
        let mut s = base();
        s.recipe.region = "M42".to_string();
        check(s, "recipe.region");
        let mut s = base();
        s.recipe.seed += 1;
        check(s, "recipe.seed");

        let mut s = base();
        s.exec.mode = DataMode::RemoteIo;
        check(s, "exec.mode");
        let mut s = base();
        s.exec.provisioning = crate::Provisioning::Fixed { processors: 4 };
        check(s, "exec.provisioning");
        let mut s = base();
        s.exec.bandwidth_bps *= 2.0;
        check(s, "exec.bandwidth_bps");
        let mut s = base();
        s.exec.pricing.storage_per_gb_month = 0.25;
        check(s, "pricing.storage_per_gb_month");
        let mut s = base();
        s.exec.pricing.transfer_in_per_gb = 0.11;
        check(s, "pricing.transfer_in_per_gb");
        let mut s = base();
        s.exec.pricing.transfer_out_per_gb = 0.17;
        check(s, "pricing.transfer_out_per_gb");
        let mut s = base();
        s.exec.pricing.cpu_per_hour = 0.20;
        check(s, "pricing.cpu_per_hour");
        let mut s = base();
        s.exec.granularity = ChargeGranularity::HourlyCpu;
        check(s, "exec.granularity");
        let mut s = base();
        s.exec.prestaged_inputs = true;
        check(s, "exec.prestaged_inputs");
        let mut s = base();
        s.exec.vm = VmOverhead {
            startup_s: 90.0,
            teardown_s: 0.0,
        };
        check(s, "vm.startup_s");
        let mut s = base();
        s.exec.vm = VmOverhead {
            startup_s: 0.0,
            teardown_s: 30.0,
        };
        check(s, "vm.teardown_s");

        let faulted = |f: FaultModel| {
            let mut s = base();
            s.exec.faults = Some(f);
            s
        };
        check(faulted(FaultModel::tasks_only(0.05, 2008)), "faults on");
        check(
            faulted(FaultModel::tasks_only(0.06, 2008)),
            "faults.task_failure_prob",
        );
        check(
            faulted(FaultModel {
                transfer_failure_prob: 0.01,
                ..FaultModel::tasks_only(0.05, 2008)
            }),
            "faults.transfer_failure_prob",
        );
        check(
            faulted(FaultModel {
                proc_mttf_s: 5000.0,
                ..FaultModel::tasks_only(0.05, 2008)
            }),
            "faults.proc_mttf_s",
        );
        // The fault *seed* is a semantic field: same rates, different draws.
        check(faulted(FaultModel::tasks_only(0.05, 2009)), "faults.seed");

        let retried = |r: RetryPolicy| {
            let mut s = base();
            s.exec.retry = r;
            s
        };
        check(retried(RetryPolicy::bounded(3)), "retry.bounded");
        check(retried(RetryPolicy::bounded(4)), "retry.max_retries");
        check(
            retried(RetryPolicy {
                backoff_base_s: 60.0,
                ..RetryPolicy::bounded(3)
            }),
            "retry.backoff_base_s",
        );
        check(
            retried(RetryPolicy {
                backoff_cap_s: 600.0,
                ..RetryPolicy::bounded(3)
            }),
            "retry.backoff_cap_s",
        );
        // The jitter knob changes backoff delays, hence the schedule.
        check(
            retried(RetryPolicy {
                jitter_frac: 0.25,
                ..RetryPolicy::bounded(3)
            }),
            "retry.jitter_frac",
        );
        check(
            retried(RetryPolicy {
                task_timeout_s: 100.0,
                ..RetryPolicy::bounded(3)
            }),
            "retry.task_timeout_s",
        );

        let mut s = base();
        s.exec.storage_outages.push((100.0, 50.0));
        check(s, "storage_outages entry");
        let mut s = base();
        s.exec.storage_outages.push((100.0, 51.0));
        check(s, "storage_outages duration");
        let mut s = base();
        s.exec.policy = SchedulePolicy::CriticalPathFirst;
        check(s, "exec.policy");
        let mut s = base();
        s.exec.storage_capacity_bytes = Some(1 << 30);
        check(s, "exec.storage_capacity_bytes");
        let mut s = base();
        s.exec.duplex_link = true;
        check(s, "exec.duplex_link");
    }

    #[test]
    fn float_normalization_is_pinned() {
        // All NaN payloads hash as the canonical quiet NaN.
        assert_eq!(norm_f64_bits(f64::NAN), 0x7ff8_0000_0000_0000);
        assert_eq!(
            norm_f64_bits(f64::from_bits(0x7ff8_dead_beef_0001)),
            0x7ff8_0000_0000_0000
        );
        assert_eq!(
            norm_f64_bits(f64::from_bits(0xfff0_0000_0000_0001)), // -sNaN
            0x7ff8_0000_0000_0000
        );
        // Signed zero collapses.
        assert_eq!(norm_f64_bits(-0.0), 0.0f64.to_bits());
        assert_eq!(norm_f64_bits(0.0), 0);
        // Ordinary values keep their exact bits.
        assert_eq!(norm_f64_bits(1.5), 1.5f64.to_bits());
        assert_eq!(norm_f64_bits(-1.5), (-1.5f64).to_bits());
        assert_eq!(norm_f64_bits(f64::INFINITY), f64::INFINITY.to_bits());

        // And therefore -0.0 vs +0.0 / NaN-payload variants digest equal.
        let mut a = base();
        a.exec.vm.teardown_s = 0.0;
        let mut b = base();
        b.exec.vm.teardown_s = -0.0;
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn schema_version_and_domain_lead_the_encoding() {
        let c = Canon::new(DOMAIN_SCENARIO);
        assert_eq!(c.bytes()[0], SCENARIO_SCHEMA_VERSION);
        assert_eq!(c.bytes()[1], DOMAIN_SCENARIO);
        // Same payload, different domain: different digest.
        let mut a = Canon::new(DOMAIN_SCENARIO);
        a.u64(42);
        let mut b = Canon::new(DOMAIN_PLAN);
        b.u64(42);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // Pin the digest of the paper-default 1-degree scenario: any
        // accidental change to the encoding or the hash shows up here
        // (an intentional change must bump SCENARIO_SCHEMA_VERSION). The
        // CLI's wire-parse pins start from the same digest.
        assert_eq!(base().digest().to_hex(), "473a7a2d0e99e6dd39cac235812d7759");
        // SipHash self-check on a known-length input: empty payload after
        // the (version, domain) prefix still mixes the prefix.
        assert_ne!(
            Canon::new(DOMAIN_SCENARIO).finish(),
            Canon::new(DOMAIN_WORKFLOW).finish()
        );
    }

    #[test]
    fn workflow_fingerprints_track_structure() {
        // Core has no generator; hand-build two tiny workflows via the
        // montage dev-dependency instead.
        use mcloud_montage::{generate, Band, MosaicConfig};
        let a = fingerprint_workflow(&generate(&MosaicConfig::new(0.2)));
        let b = fingerprint_workflow(&generate(&MosaicConfig::new(0.2)));
        assert_eq!(a, b, "same recipe, same fingerprint");
        let c = fingerprint_workflow(&generate(&MosaicConfig::new(0.3)));
        assert_ne!(a, c, "different size, different fingerprint");
        let d = fingerprint_workflow(&generate(&MosaicConfig::new(0.2).band(Band::K)));
        assert_ne!(a, d, "different band, different fingerprint");
    }
}
