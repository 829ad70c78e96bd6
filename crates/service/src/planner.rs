//! The SLO capacity planner.
//!
//! The paper prices one workflow; a service operator's question is the
//! inverse: *given* a demand forecast and a p99 turnaround SLO, what is
//! the cheapest pool that meets it? This module searches a grid of
//! [`AutoScaleConfig`] candidates — floor, ceiling, scale-up trigger, and
//! overflow policy — replaying the same seeded arrival stream against
//! each, and recommends the cheapest candidate whose p99 turnaround
//! meets the SLO without rejecting a single request.
//!
//! Candidates are evaluated in parallel on the process-wide
//! [`WorkerPool`]; each candidate regenerates its own arrival stream
//! from the spec's seed, so results are byte-identical at any lane
//! count. Each lane keeps a warm [`ProfileTable`], so the engine
//! profiles behind the service times are simulated once per lane, not
//! once per candidate.

use mcloud_cache::ResultCache;
use mcloud_core::{encode_exec_config, Canon, Digest, DOMAIN_PLAN};
use mcloud_cost::Money;
use mcloud_simkit::WorkerPool;
use mcloud_sweep::{cheapest_within_deadline, pareto_frontier, CostTimePoint};

use crate::arrivals::{class_stream, MergedStream, RateProfile, RequestClass};
use crate::autoscale::{simulate_autoscale_core, AutoScaleConfig, AutoScaleReport};
use crate::profile::ProfileTable;
use crate::simulator::AdmissionPolicy;

/// What the planner is asked to plan for: a demand forecast plus the SLO
/// and the slot economics shared by every candidate pool.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// The target: 99% of requests must complete within this many hours
    /// of arrival.
    pub slo_p99_hours: f64,
    /// The demand forecast, as request classes (rate, size, priority).
    pub classes: Vec<RequestClass>,
    /// Shared rate modulation (diurnal/seasonal/flash). The profile's
    /// `base_rate_per_hour` is ignored — each class's own rate takes its
    /// place (see [`class_stream`]).
    pub modulation: RateProfile,
    /// Campaign length in hours.
    pub horizon_hours: f64,
    /// Seed for the arrival streams; every candidate replays the same
    /// demand.
    pub seed: u64,
    /// Processors per pool slot.
    pub procs_per_slot: u32,
    /// $ per slot-hour while rented.
    pub slot_cost_per_hour: Money,
    /// Slot boot delay, seconds.
    pub boot_s: f64,
    /// Execution model used to profile request service times.
    pub exec: mcloud_core::ExecConfig,
}

impl PlanSpec {
    /// A paper-flavoured spec for a total demand of `rate_per_hour`
    /// requests/hour: 70% 1-degree (priority 2), 25% 2-degree (priority
    /// 1), 5% survey-scale 4-degree (priority 0), under a 30% diurnal
    /// swing, against the default pool economics.
    pub fn new(slo_p99_hours: f64, rate_per_hour: f64, horizon_hours: f64) -> Self {
        let pool = AutoScaleConfig::default_pool();
        PlanSpec {
            slo_p99_hours,
            classes: vec![
                RequestClass {
                    rate_per_hour: rate_per_hour * 0.70,
                    degrees: 1.0,
                    priority: 2,
                },
                RequestClass {
                    rate_per_hour: rate_per_hour * 0.25,
                    degrees: 2.0,
                    priority: 1,
                },
                RequestClass {
                    rate_per_hour: rate_per_hour * 0.05,
                    degrees: 4.0,
                    priority: 0,
                },
            ],
            modulation: RateProfile {
                base_rate_per_hour: 1.0, // ignored; per-class rates apply
                diurnal_amplitude: 0.3,
                seasonal_amplitude: 0.0,
                flash_crowds: Vec::new(),
            },
            horizon_hours,
            seed: 2008,
            procs_per_slot: pool.procs_per_slot,
            slot_cost_per_hour: pool.slot_cost_per_hour,
            boot_s: pool.boot_s,
            exec: pool.exec,
        }
    }

    /// Check the spec is simulable.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.slo_p99_hours.is_finite() && self.slo_p99_hours > 0.0) {
            return Err(format!(
                "the p99 SLO must be positive, got {}",
                self.slo_p99_hours
            ));
        }
        if !(self.horizon_hours.is_finite() && self.horizon_hours > 0.0) {
            return Err(format!(
                "horizon must be positive, got {}",
                self.horizon_hours
            ));
        }
        if self.classes.is_empty() {
            return Err("need at least one request class".to_string());
        }
        for c in &self.classes {
            if !(c.rate_per_hour.is_finite() && c.rate_per_hour > 0.0) {
                return Err(format!(
                    "class rates must be positive, got {}/h for {} deg",
                    c.rate_per_hour, c.degrees
                ));
            }
        }
        if self.procs_per_slot == 0 {
            return Err("procs_per_slot must be positive".to_string());
        }
        // Probe the modulation with a valid stand-in base rate (the real
        // base is each class's own rate, already checked above).
        RateProfile {
            base_rate_per_hour: 1.0,
            ..self.modulation.clone()
        }
        .validate()?;
        self.exec.validate()
    }

    /// The seeded demand stream this spec describes. Each call rebuilds
    /// the identical stream.
    pub fn stream(&self) -> MergedStream {
        class_stream(
            &self.classes,
            &self.modulation,
            self.horizon_hours,
            self.seed,
        )
    }

    /// Total offered rate across classes, requests per hour.
    pub fn rate_per_hour(&self) -> f64 {
        self.classes.iter().map(|c| c.rate_per_hour).sum()
    }

    /// The default candidate grid: floors {0, 1, 2, 4} x ceilings
    /// {2, 4, 8, 16} x scale-up triggers {1, 2, 4} x overflow policies
    /// {unbounded admit-all, bounded deflect}, minus combinations that
    /// fail [`AutoScaleConfig::validate`]. Order is deterministic; the
    /// planner's tie-breaks refer to it.
    pub fn default_candidates(&self) -> Vec<AutoScaleConfig> {
        let mut out = Vec::new();
        for &min_slots in &[0u32, 1, 2, 4] {
            for &max_slots in &[2u32, 4, 8, 16] {
                for &scale_up_queue in &[1usize, 2, 4] {
                    for &(queue_bound, admission) in &[
                        (None, AdmissionPolicy::AdmitAll),
                        (Some(16usize), AdmissionPolicy::Deflect),
                    ] {
                        let cfg = AutoScaleConfig {
                            min_slots,
                            max_slots,
                            scale_up_queue,
                            boot_s: self.boot_s,
                            idle_release_s: 0.0,
                            procs_per_slot: self.procs_per_slot,
                            slot_cost_per_hour: self.slot_cost_per_hour,
                            queue_bound,
                            admission,
                            exec: self.exec.clone(),
                        };
                        if cfg.validate().is_ok() {
                            out.push(cfg);
                        }
                    }
                }
            }
        }
        out
    }
}

/// One evaluated pool configuration.
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    /// The pool configuration that was simulated.
    pub cfg: AutoScaleConfig,
    /// Requests served (pool plus deflections).
    pub requests: u64,
    /// Requests turned away by admission control.
    pub rejected: u64,
    /// Requests deflected to per-request cloud resources.
    pub deflected: u64,
    /// 99th-percentile turnaround, hours.
    pub p99_turnaround_hours: f64,
    /// Mean turnaround, hours.
    pub mean_turnaround_hours: f64,
    /// Most slots simultaneously rented.
    pub peak_slots: u32,
    /// Total spend: rentals, data management, and deflections.
    pub total_cost: Money,
    /// True when the candidate serves everything (no rejects) with a p99
    /// turnaround within the SLO.
    pub meets_slo: bool,
}

/// The planner's verdict: every candidate's scorecard, the cost-vs-p99
/// Pareto frontier, and the recommendation.
#[derive(Debug, Clone)]
pub struct CapacityPlan {
    /// Every candidate, in grid order.
    pub candidates: Vec<PlanCandidate>,
    /// Indices of candidates on the cost-vs-p99 frontier (rejecting
    /// candidates excluded), sorted by cost.
    pub frontier: Vec<usize>,
    /// Index of the cheapest SLO-meeting candidate, if any meets it.
    pub best: Option<usize>,
}

impl CapacityPlan {
    /// The recommended candidate, if any meets the SLO.
    pub fn best_candidate(&self) -> Option<&PlanCandidate> {
        self.best.map(|i| &self.candidates[i])
    }

    /// The cheapest candidate that serves everything (no rejects), even
    /// if it misses the SLO — what the planner reports when nothing
    /// qualifies.
    pub fn best_effort(&self) -> Option<&PlanCandidate> {
        self.candidates
            .iter()
            .filter(|c| c.rejected == 0)
            .min_by(|a, b| {
                a.p99_turnaround_hours
                    .total_cmp(&b.p99_turnaround_hours)
                    .then(a.total_cost.dollars().total_cmp(&b.total_cost.dollars()))
            })
    }
}

/// Searches [`PlanSpec::default_candidates`] for the cheapest pool
/// meeting the spec's p99 SLO. See [`plan_capacity_with`].
pub fn plan_capacity(spec: &PlanSpec) -> Result<CapacityPlan, String> {
    let candidates = spec.default_candidates();
    plan_capacity_with(spec, candidates)
}

/// Evaluates the given candidates against the spec's demand stream (in
/// parallel on the global [`WorkerPool`]; deterministic at any lane
/// count) and picks the cheapest one that serves every request with a
/// p99 turnaround within the SLO. Ties go to the earlier candidate.
///
/// Candidate outcomes are memoized in the process-wide
/// [`ResultCache`](mcloud_cache): each (spec, candidate) pair is
/// content-addressed, so re-planning an unchanged spec replays the grid
/// from lookups — no profile warming, no simulation — and a tweaked spec
/// re-evaluates only what its digest no longer covers (i.e. everything,
/// since the spec is part of every key; but overlapping *candidate
/// lists* under the same spec share work).
///
/// Returns `Err` for an invalid spec or an empty candidate list; a
/// *feasible-but-unmet* SLO is not an error — the plan comes back with
/// `best: None` and the scorecards explain why.
pub fn plan_capacity_with(
    spec: &PlanSpec,
    candidates: Vec<AutoScaleConfig>,
) -> Result<CapacityPlan, String> {
    plan_capacity_with_cache(spec, candidates, mcloud_cache::global())
}

/// [`plan_capacity_with`] against an explicit cache — what benches and
/// tests use to get exact, isolated hit/miss counts.
pub fn plan_capacity_with_cache(
    spec: &PlanSpec,
    candidates: Vec<AutoScaleConfig>,
    cache: &ResultCache,
) -> Result<CapacityPlan, String> {
    spec.validate()?;
    if candidates.is_empty() {
        return Err("no candidates to evaluate".to_string());
    }
    for cfg in &candidates {
        cfg.validate()?;
    }

    // Probe the cache for every candidate before paying for anything:
    // when the whole grid hits (a re-plan of an unchanged spec), even the
    // profile warming is skipped.
    let spec_canon = spec_canon(spec);
    let keys: Vec<Digest> = candidates
        .iter()
        .map(|cfg| candidate_digest(&spec_canon, cfg))
        .collect();
    let mut evaluated: Vec<Option<PlanCandidate>> = candidates
        .iter()
        .zip(&keys)
        .map(|(cfg, &key)| {
            cache
                .get(key)
                .and_then(|bytes| decode_outcome(&bytes, spec, cfg))
        })
        .collect();

    let miss_idx: Vec<usize> = (0..candidates.len())
        .filter(|&i| evaluated[i].is_none())
        .collect();
    if !miss_idx.is_empty() {
        // Warm one table over the missing (degrees × procs_per_slot)
        // grid, then clone the filled cache into every lane: no lane
        // re-simulates a profile another lane already needs.
        let degrees: Vec<f64> = spec.classes.iter().map(|c| c.degrees).collect();
        let procs: Vec<u32> = miss_idx
            .iter()
            .map(|&i| candidates[i].procs_per_slot)
            .collect();
        let mut proto = ProfileTable::new(spec.exec.clone());
        proto.warm_fixed(&degrees, &procs);

        let miss_cfgs: Vec<AutoScaleConfig> =
            miss_idx.iter().map(|&i| candidates[i].clone()).collect();
        let pool = WorkerPool::global();
        let mut tables: Vec<ProfileTable> =
            (0..pool.lanes().max(1)).map(|_| proto.clone()).collect();
        let fresh: Vec<PlanCandidate> =
            pool.map_with_state(&mut tables, &miss_cfgs, |profiles, cfg| {
                let report = simulate_autoscale_core(spec.stream(), cfg, profiles, |_| {});
                score(spec, cfg, &report)
            });
        for (&i, candidate) in miss_idx.iter().zip(fresh) {
            cache.insert(keys[i], encode_outcome(&candidate));
            evaluated[i] = Some(candidate);
        }
    }
    let evaluated: Vec<PlanCandidate> = evaluated.into_iter().map(|c| c.unwrap()).collect();

    // Cost-vs-p99 trade-off via the sweep crate's frontier tools: a
    // rejecting candidate never qualifies, so its "time" is +inf.
    let points: Vec<CostTimePoint> = evaluated
        .iter()
        .map(|c| CostTimePoint {
            cost: c.total_cost.dollars(),
            time: if c.rejected > 0 {
                f64::INFINITY
            } else {
                c.p99_turnaround_hours
            },
        })
        .collect();
    let best = cheapest_within_deadline(&points, spec.slo_p99_hours);
    let mut frontier = pareto_frontier(&points);
    frontier.retain(|&i| points[i].time.is_finite());

    Ok(CapacityPlan {
        candidates: evaluated,
        frontier,
        best,
    })
}

fn score(spec: &PlanSpec, cfg: &AutoScaleConfig, report: &AutoScaleReport) -> PlanCandidate {
    let p99 = report.turnaround_quantile(0.99);
    PlanCandidate {
        cfg: cfg.clone(),
        requests: report.requests,
        rejected: report.rejected,
        deflected: report.deflected,
        p99_turnaround_hours: p99,
        mean_turnaround_hours: report.mean_turnaround_hours(),
        peak_slots: report.peak_slots,
        total_cost: report.total_cost(),
        meets_slo: report.rejected == 0 && p99 <= spec.slo_p99_hours,
    }
}

/// Canonical encoding of everything about the *spec* that a candidate's
/// outcome depends on. `modulation.base_rate_per_hour` is deliberately
/// excluded — [`class_stream`] ignores it in favour of per-class rates,
/// so two specs differing only there are the same scenario (a
/// normalization rule, like NaN pinning in `mcloud_core::scenario`).
fn spec_canon(spec: &PlanSpec) -> Canon {
    let mut c = Canon::new(DOMAIN_PLAN);
    c.f64(spec.slo_p99_hours);
    c.len(spec.classes.len());
    for class in &spec.classes {
        c.f64(class.rate_per_hour);
        c.f64(class.degrees);
        c.u8(class.priority);
    }
    c.f64(spec.modulation.diurnal_amplitude);
    c.f64(spec.modulation.seasonal_amplitude);
    c.len(spec.modulation.flash_crowds.len());
    for fc in &spec.modulation.flash_crowds {
        c.f64(fc.start_hour);
        c.f64(fc.duration_hours);
        c.f64(fc.multiplier);
    }
    c.f64(spec.horizon_hours);
    c.u64(spec.seed);
    c.u32(spec.procs_per_slot);
    c.f64(spec.slot_cost_per_hour.dollars());
    c.f64(spec.boot_s);
    encode_exec_config(&mut c, &spec.exec);
    c
}

/// Content address of one (spec, candidate) evaluation: the spec's
/// canonical bytes followed by every [`AutoScaleConfig`] field.
fn candidate_digest(spec: &Canon, cfg: &AutoScaleConfig) -> Digest {
    let mut c = spec.clone();
    c.u32(cfg.min_slots);
    c.u32(cfg.max_slots);
    c.u64(cfg.scale_up_queue as u64);
    c.f64(cfg.boot_s);
    c.f64(cfg.idle_release_s);
    c.u32(cfg.procs_per_slot);
    c.f64(cfg.slot_cost_per_hour.dollars());
    match cfg.queue_bound {
        None => c.u8(0),
        Some(b) => {
            c.u8(1);
            c.u64(b as u64);
        }
    }
    c.u8(match cfg.admission {
        AdmissionPolicy::AdmitAll => 0,
        AdmissionPolicy::Reject => 1,
        AdmissionPolicy::Deflect => 2,
    });
    encode_exec_config(&mut c, &cfg.exec);
    c.finish()
}

/// Magic + version leading every cached candidate outcome. The version
/// byte keys invalidation if the scorecard ever grows a field.
const OUTCOME_MAGIC: &[u8; 4] = b"MCPO";
const OUTCOME_VERSION: u8 = 1;

/// Serializes a scorecard's measured fields (everything except the
/// config, which the probing caller already holds, and `meets_slo`,
/// which is recomputed from the decoded numbers so the cached and fresh
/// paths provably agree).
fn encode_outcome(c: &PlanCandidate) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 1 + 8 * 6 + 4);
    out.extend_from_slice(OUTCOME_MAGIC);
    out.push(OUTCOME_VERSION);
    out.extend_from_slice(&c.requests.to_le_bytes());
    out.extend_from_slice(&c.rejected.to_le_bytes());
    out.extend_from_slice(&c.deflected.to_le_bytes());
    out.extend_from_slice(&c.p99_turnaround_hours.to_bits().to_le_bytes());
    out.extend_from_slice(&c.mean_turnaround_hours.to_bits().to_le_bytes());
    out.extend_from_slice(&c.peak_slots.to_le_bytes());
    out.extend_from_slice(&c.total_cost.dollars().to_bits().to_le_bytes());
    out
}

/// Inverse of [`encode_outcome`]; `None` (treated as a miss) for any
/// malformed or differently-versioned entry.
fn decode_outcome(bytes: &[u8], spec: &PlanSpec, cfg: &AutoScaleConfig) -> Option<PlanCandidate> {
    let expected = 4 + 1 + 8 * 3 + 8 * 2 + 4 + 8;
    if bytes.len() != expected || &bytes[..4] != OUTCOME_MAGIC || bytes[4] != OUTCOME_VERSION {
        return None;
    }
    let mut at = 5;
    let u64_at = |n: &mut usize| {
        let v = u64::from_le_bytes(bytes[*n..*n + 8].try_into().unwrap());
        *n += 8;
        v
    };
    let requests = u64_at(&mut at);
    let rejected = u64_at(&mut at);
    let deflected = u64_at(&mut at);
    let p99_turnaround_hours = f64::from_bits(u64_at(&mut at));
    let mean_turnaround_hours = f64::from_bits(u64_at(&mut at));
    let peak_slots = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    at += 4;
    let cost_dollars = f64::from_bits(u64_at(&mut at));
    if !cost_dollars.is_finite() {
        return None;
    }
    Some(PlanCandidate {
        cfg: cfg.clone(),
        requests,
        rejected,
        deflected,
        p99_turnaround_hours,
        mean_turnaround_hours,
        peak_slots,
        total_cost: Money::from_dollars(cost_dollars),
        meets_slo: rejected == 0 && p99_turnaround_hours <= spec.slo_p99_hours,
    })
}

fn policy_label(cfg: &AutoScaleConfig) -> &'static str {
    match cfg.admission {
        AdmissionPolicy::AdmitAll => "admit",
        AdmissionPolicy::Reject => "reject",
        AdmissionPolicy::Deflect => "deflect",
    }
}

fn bound_label(cfg: &AutoScaleConfig) -> String {
    match cfg.queue_bound {
        None => "-".to_string(),
        Some(b) => b.to_string(),
    }
}

/// Renders the plan as a deterministic fixed-width text report: the spec
/// header, one scorecard row per candidate (frontier members starred),
/// and the recommendation line.
pub fn plan_text(spec: &PlanSpec, plan: &CapacityPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "capacity plan: p99 turnaround SLO {:.2} h, {:.2} req/h offered over {:.0} h (seed {})\n",
        spec.slo_p99_hours,
        spec.rate_per_hour(),
        spec.horizon_hours,
        spec.seed
    ));
    let classes: Vec<String> = spec
        .classes
        .iter()
        .map(|c| {
            format!(
                "{:.2}/h x {:.1} deg (prio {})",
                c.rate_per_hour, c.degrees, c.priority
            )
        })
        .collect();
    out.push_str(&format!("classes: {}\n", classes.join(" + ")));
    out.push_str(&format!(
        "modulation: diurnal {:.2}, seasonal {:.2}, flash crowds {}\n",
        spec.modulation.diurnal_amplitude,
        spec.modulation.seasonal_amplitude,
        spec.modulation.flash_crowds.len()
    ));
    out.push_str(&format!(
        "evaluated {} candidates\n\n",
        plan.candidates.len()
    ));
    out.push_str(
        "  min  max   up bound  policy    p99_h   mean_h   served  rejected  peak    cost_$  slo  frontier\n",
    );
    let frontier: std::collections::BTreeSet<usize> = plan.frontier.iter().copied().collect();
    for (i, c) in plan.candidates.iter().enumerate() {
        out.push_str(&format!(
            "  {:>3}  {:>3}  {:>3} {:>5}  {:<7} {:>8.3} {:>8.3} {:>8} {:>9} {:>5} {:>9.2}  {:>3}  {:>8}\n",
            c.cfg.min_slots,
            c.cfg.max_slots,
            c.cfg.scale_up_queue,
            bound_label(&c.cfg),
            policy_label(&c.cfg),
            c.p99_turnaround_hours,
            c.mean_turnaround_hours,
            c.requests,
            c.rejected,
            c.peak_slots,
            c.total_cost.dollars(),
            if c.meets_slo { "yes" } else { "." },
            if frontier.contains(&i) { "*" } else { "." },
        ));
    }
    out.push('\n');
    match plan.best_candidate() {
        Some(c) => out.push_str(&format!(
            "recommendation: min={} max={} up={} bound={} policy={} -- p99 {:.3} h meets the \
             {:.2} h SLO at ${:.2} ({} candidates qualify; this is the cheapest)\n",
            c.cfg.min_slots,
            c.cfg.max_slots,
            c.cfg.scale_up_queue,
            bound_label(&c.cfg),
            policy_label(&c.cfg),
            c.p99_turnaround_hours,
            spec.slo_p99_hours,
            c.total_cost.dollars(),
            plan.candidates.iter().filter(|c| c.meets_slo).count(),
        )),
        None => match plan.best_effort() {
            Some(c) => out.push_str(&format!(
                "no candidate meets the {:.2} h p99 SLO; best achievable is p99 {:.3} h at \
                 ${:.2} (min={} max={} up={} bound={} policy={})\n",
                spec.slo_p99_hours,
                c.p99_turnaround_hours,
                c.total_cost.dollars(),
                c.cfg.min_slots,
                c.cfg.max_slots,
                c.cfg.scale_up_queue,
                bound_label(&c.cfg),
                policy_label(&c.cfg),
            )),
            None => out.push_str(
                "no candidate serves the demand without rejections; raise the ceilings or \
                 relax the admission bounds\n",
            ),
        },
    }
    out
}

/// Renders the plan as deterministic single-document JSON (hand-rolled,
/// fixed key order — the same convention as the CLI's other JSON
/// emitters).
pub fn plan_json(spec: &PlanSpec, plan: &CapacityPlan) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mcloud-plan/v1\",\n");
    out.push_str(&format!(
        "  \"slo_p99_hours\": {:.6},\n  \"rate_per_hour\": {:.6},\n  \"horizon_hours\": {:.6},\n  \"seed\": {},\n",
        spec.slo_p99_hours,
        spec.rate_per_hour(),
        spec.horizon_hours,
        spec.seed
    ));
    out.push_str(&format!(
        "  \"diurnal_amplitude\": {:.6},\n  \"seasonal_amplitude\": {:.6},\n  \"flash_crowds\": {},\n",
        spec.modulation.diurnal_amplitude,
        spec.modulation.seasonal_amplitude,
        spec.modulation.flash_crowds.len()
    ));
    out.push_str("  \"classes\": [\n");
    for (i, c) in spec.classes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rate_per_hour\": {:.6}, \"degrees\": {:.2}, \"priority\": {}}}{}\n",
            c.rate_per_hour,
            c.degrees,
            c.priority,
            if i + 1 < spec.classes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let frontier: std::collections::BTreeSet<usize> = plan.frontier.iter().copied().collect();
    out.push_str("  \"candidates\": [\n");
    for (i, c) in plan.candidates.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"min_slots\": {}, \"max_slots\": {}, \"scale_up_queue\": {}, \
             \"queue_bound\": {}, \"policy\": \"{}\", \"p99_turnaround_hours\": {:.6}, \
             \"mean_turnaround_hours\": {:.6}, \"requests\": {}, \"rejected\": {}, \
             \"deflected\": {}, \"peak_slots\": {}, \"total_cost_dollars\": {:.2}, \
             \"meets_slo\": {}, \"frontier\": {}}}{}\n",
            c.cfg.min_slots,
            c.cfg.max_slots,
            c.cfg.scale_up_queue,
            c.cfg
                .queue_bound
                .map_or("null".to_string(), |b| b.to_string()),
            policy_label(&c.cfg),
            c.p99_turnaround_hours,
            c.mean_turnaround_hours,
            c.requests,
            c.rejected,
            c.deflected,
            c.peak_slots,
            c.total_cost.dollars(),
            c.meets_slo,
            frontier.contains(&i),
            if i + 1 < plan.candidates.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"best\": {}\n",
        plan.best.map_or("null".to_string(), |i| i.to_string())
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcloud_cache::DEFAULT_BUDGET_BYTES;

    fn quick_spec() -> PlanSpec {
        // Small horizon so the grid evaluates fast in debug builds. The
        // 7 h SLO sits above a 4-degree request's bare service time
        // (~6 h), so well-provisioned candidates qualify.
        PlanSpec::new(7.0, 3.0, 72.0)
    }

    #[test]
    fn planner_recommends_the_cheapest_feasible_candidate() {
        let spec = quick_spec();
        let plan = plan_capacity(&spec).expect("plan");
        let best = plan.best.expect("an 8-to-16-slot grid can meet a 7 h SLO");
        let c = &plan.candidates[best];
        assert!(c.meets_slo);
        assert_eq!(c.rejected, 0);
        assert!(c.p99_turnaround_hours <= spec.slo_p99_hours);
        // Minimal cost among qualifying candidates.
        for other in plan.candidates.iter().filter(|c| c.meets_slo) {
            assert!(c.total_cost.dollars() <= other.total_cost.dollars() + 1e-9);
        }
    }

    #[test]
    fn planner_is_deterministic() {
        let spec = quick_spec();
        let a = plan_capacity(&spec).expect("plan");
        let b = plan_capacity(&spec).expect("plan");
        assert_eq!(plan_text(&spec, &a), plan_text(&spec, &b));
        assert_eq!(plan_json(&spec, &a), plan_json(&spec, &b));
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn unmeetable_slo_reports_best_effort_instead_of_failing() {
        let mut spec = quick_spec();
        spec.slo_p99_hours = 1e-6; // nothing finishes this fast
        let plan = plan_capacity(&spec).expect("plan");
        assert!(plan.best.is_none());
        let text = plan_text(&spec, &plan);
        assert!(text.contains("no candidate meets"), "{text}");
        assert!(plan.best_effort().is_some());
    }

    #[test]
    fn frontier_members_are_mutually_nondominated() {
        let spec = quick_spec();
        let plan = plan_capacity(&spec).expect("plan");
        assert!(!plan.frontier.is_empty());
        for &i in &plan.frontier {
            for &j in &plan.frontier {
                if i == j {
                    continue;
                }
                let (a, b) = (&plan.candidates[i], &plan.candidates[j]);
                let dominates = a.total_cost.dollars() <= b.total_cost.dollars()
                    && a.p99_turnaround_hours <= b.p99_turnaround_hours
                    && (a.total_cost.dollars() < b.total_cost.dollars()
                        || a.p99_turnaround_hours < b.p99_turnaround_hours);
                assert!(!dominates, "candidate {i} dominates frontier member {j}");
            }
        }
    }

    #[test]
    fn replanning_an_unchanged_spec_replays_the_grid_from_cache() {
        let spec = quick_spec();
        let candidates = spec.default_candidates();
        let n = candidates.len() as u64;
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);

        let cold = plan_capacity_with_cache(&spec, candidates.clone(), &cache).expect("plan");
        assert_eq!(cache.counters().misses, n, "cold grid is all misses");

        let warm = plan_capacity_with_cache(&spec, candidates, &cache).expect("plan");
        let c = cache.counters();
        assert_eq!(c.hits_mem, n, "warm grid is 100% hits");
        assert_eq!(c.misses, n, "no new simulations");

        assert_eq!(plan_text(&spec, &cold), plan_text(&spec, &warm));
        assert_eq!(plan_json(&spec, &cold), plan_json(&spec, &warm));
        assert_eq!(cold.best, warm.best);
    }

    #[test]
    fn plan_digests_track_the_spec_but_ignore_the_unused_base_rate() {
        let spec = quick_spec();
        let cfg = AutoScaleConfig::default_pool();
        let d0 = candidate_digest(&spec_canon(&spec), &cfg);

        let mut s = spec.clone();
        s.seed += 1;
        assert_ne!(candidate_digest(&spec_canon(&s), &cfg), d0);

        let mut s = spec.clone();
        s.slo_p99_hours = 6.5;
        assert_ne!(candidate_digest(&spec_canon(&s), &cfg), d0);

        let mut s = spec.clone();
        s.classes[0].rate_per_hour += 0.25;
        assert_ne!(candidate_digest(&spec_canon(&s), &cfg), d0);

        // The one normalization rule: class_stream ignores the profile's
        // base rate, so the digest must too.
        let mut s = spec.clone();
        s.modulation.base_rate_per_hour = 42.0;
        assert_eq!(candidate_digest(&spec_canon(&s), &cfg), d0);

        let mut c2 = cfg.clone();
        c2.max_slots += 1;
        assert_ne!(candidate_digest(&spec_canon(&spec), &c2), d0);

        let mut c2 = cfg;
        c2.queue_bound = Some(16);
        assert_ne!(candidate_digest(&spec_canon(&spec), &c2), d0);
    }

    #[test]
    fn cached_outcomes_round_trip_through_the_codec() {
        let spec = quick_spec();
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let plan =
            plan_capacity_with_cache(&spec, spec.default_candidates(), &cache).expect("plan");
        for c in &plan.candidates {
            let back = decode_outcome(&encode_outcome(c), &spec, &c.cfg).expect("round-trip");
            assert_eq!(back.requests, c.requests);
            assert_eq!(back.rejected, c.rejected);
            assert_eq!(back.deflected, c.deflected);
            assert_eq!(
                back.p99_turnaround_hours.to_bits(),
                c.p99_turnaround_hours.to_bits()
            );
            assert_eq!(
                back.mean_turnaround_hours.to_bits(),
                c.mean_turnaround_hours.to_bits()
            );
            assert_eq!(back.peak_slots, c.peak_slots);
            assert_eq!(back.total_cost, c.total_cost);
            assert_eq!(back.meets_slo, c.meets_slo);
        }
        // Corrupt entries read as misses, never as garbage candidates.
        let good = encode_outcome(&plan.candidates[0]);
        let cfg = &plan.candidates[0].cfg;
        assert!(decode_outcome(&good[..good.len() - 1], &spec, cfg).is_none());
        let mut wrong_version = good.clone();
        wrong_version[4] ^= 1;
        assert!(decode_outcome(&wrong_version, &spec, cfg).is_none());
    }

    #[test]
    fn invalid_specs_are_rejected_before_simulating() {
        let mut spec = quick_spec();
        spec.slo_p99_hours = 0.0;
        assert!(plan_capacity(&spec).unwrap_err().contains("SLO"));

        let mut spec = quick_spec();
        spec.classes.clear();
        assert!(plan_capacity(&spec).unwrap_err().contains("request class"));

        let mut spec = quick_spec();
        spec.modulation.diurnal_amplitude = 2.0;
        assert!(plan_capacity(&spec).unwrap_err().contains("amplitude"));
    }
}
