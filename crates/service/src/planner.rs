//! The SLO capacity planner.
//!
//! The paper prices one workflow; a service operator's question is the
//! inverse: *given* a demand forecast and a p99 turnaround SLO, what is
//! the cheapest pool that meets it? This module searches a grid of
//! [`PoolSizing`] candidates — floor, ceiling, scale-up trigger, idle
//! release and overflow policy — each a rented pool on the spec's slot
//! size, price, boot delay and execution model ([`PlanSpec::pool`]),
//! replaying the same seeded arrival stream against each, and recommends
//! the cheapest candidate whose p99 turnaround meets the SLO without
//! rejecting a single request.
//!
//! Candidates are evaluated one contiguous group per lane of the
//! process-wide [`WorkerPool`]: each group generates the arrival stream
//! from the spec's seed once and resolves each arrival's profile and
//! clock times once, not once per candidate. Within a group, candidates
//! run in *cohorts*: one pool simulation shared by candidates that agree
//! on every field the pool's event handling reads (floor and idle
//! release) and whose pools are in the same state. The other fields
//! (ceiling, scale-up trigger, queue bound and admission policy) act only
//! through each arrival's decision, so a cohort fires its pool events
//! once per arrival, asks each member what it does with the arrival, and
//! splits, one copy of its state per further answer, only when the
//! members disagree. Candidates whose difference never matters share a
//! simulation to the end: with `min_slots == max_slots` the pool can
//! never rent, so the scale-up trigger never matters, and a queue bound
//! the backlog never reaches never acts. Split cohorts re-merge: a pool
//! whose backlog and calendar are empty and which holds only its floor is
//! quiescent, and every quiescent pool of one floor and idle release is
//! in the same state, so cohorts whose pools fall quiet at the same
//! arrival go on as one.
//!
//! What a report sums is kept apart from the pool state, in a tally per
//! decision history that names the candidates which made it; a merged
//! cohort carries one tally per history it holds, and a later split
//! deals the tallies out by member. Every tally receives the updates its
//! history alone would, in the same order, and the slot price is applied
//! when the reports are priced. So a candidate's report does not depend
//! on its group or cohort, results are byte-identical at any lane count,
//! and memory stays bounded by the candidates' backlogs, with at most one
//! tally per candidate. Each lane keeps a warm [`ProfileTable`], so the
//! engine profiles behind the service times are simulated once per plan,
//! not once per candidate.

use mcloud_cache::ResultCache;
use mcloud_core::{encode_exec_config, Canon, Digest, DOMAIN_PLAN};
use mcloud_cost::Money;
use mcloud_simkit::{NullSink, WorkerPool};
use mcloud_sweep::{cheapest_within_deadline, pareto_frontier, CostTimePoint};

use crate::arrivals::{class_stream, MergedStream, RateProfile, RequestClass};
use crate::profile::ProfileTable;
use crate::simulator::{
    check_rate, AdmissionPolicy, Decision, Job, Policy, Pool, PoolConfig, PoolReport, PoolSim,
    RequestOutcome, Slots, Tally,
};

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
        let pool = PoolConfig::default_rented();
        let Slots::Rented {
            boot_s,
            cost_per_hour,
            ..
        } = pool.slots
        else {
            unreachable!("the default pool rents its slots")
        };
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
            slot_cost_per_hour: cost_per_hour,
            boot_s,
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
        check_rate("slot_cost_per_hour", self.slot_cost_per_hour)?;
        if !(self.boot_s.is_finite() && self.boot_s >= 0.0) {
            return Err(format!("invalid boot_s {}", self.boot_s));
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

    /// Candidate `sizing`'s pool: rented slots of the spec's size, price
    /// and boot delay, sized by `sizing`, deflecting at the slot size, with
    /// requests profiled under the spec's execution model. Every runnable
    /// candidate configuration is built here.
    pub fn pool(&self, sizing: &PoolSizing) -> PoolConfig {
        PoolConfig {
            slots: Slots::Rented {
                min: sizing.min_slots,
                max: sizing.max_slots,
                scale_up_queue: sizing.scale_up_queue,
                boot_s: self.boot_s,
                idle_release_s: sizing.idle_release_s,
                cost_per_hour: self.slot_cost_per_hour,
            },
            procs_per_slot: self.procs_per_slot,
            cloud_procs: self.procs_per_slot,
            queue_bound: sizing.queue_bound,
            admission: sizing.admission,
            exec: self.exec.clone(),
            ..PoolConfig::default_rented()
        }
    }

    /// The SLO verdict on a candidate's numbers: it serves every request
    /// (no rejects) with a p99 turnaround within the SLO.
    fn meets_slo(&self, rejected: u64, p99_turnaround_hours: f64) -> bool {
        rejected == 0 && p99_turnaround_hours <= self.slo_p99_hours
    }

    /// The default candidate grid: floors {0, 1, 2, 4} x ceilings
    /// {2, 4, 8, 16} x scale-up triggers {1, 2, 4} x overflow policies
    /// {unbounded admit-all, bounded deflect}, minus combinations whose
    /// [`pool`](Self::pool) fails [`PoolConfig::validate`]. Order is
    /// deterministic; the planner's tie-breaks refer to it.
    pub fn default_candidates(&self) -> Vec<PoolSizing> {
        let mut out = Vec::new();
        for &min in &[0u32, 1, 2, 4] {
            for &max in &[2u32, 4, 8, 16] {
                for &scale_up_queue in &[1usize, 2, 4] {
                    for &(queue_bound, admission) in &[
                        (None, AdmissionPolicy::AdmitAll),
                        (Some(16usize), AdmissionPolicy::Deflect),
                    ] {
                        let sizing = PoolSizing {
                            queue_bound,
                            admission,
                            ..PoolSizing::new(min, max, scale_up_queue)
                        };
                        if self.pool(&sizing).validate().is_ok() {
                            out.push(sizing);
                        }
                    }
                }
            }
        }
        out
    }
}

/// One plan candidate: what the planner searches over. The rest of the
/// pool, its slot size, price, boot delay and execution model, is the
/// spec's ([`PlanSpec::pool`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSizing {
    /// Slots kept rented at all times.
    pub min_slots: u32,
    /// Hard ceiling on rented slots.
    pub max_slots: u32,
    /// Rent another slot when this many requests are waiting.
    pub scale_up_queue: usize,
    /// Seconds a slot may sit idle above the floor before it is released;
    /// 0 releases immediately.
    pub idle_release_s: f64,
    /// Cap on the number of waiting requests; `None` is unbounded.
    pub queue_bound: Option<usize>,
    /// Overflow policy applied when `queue_bound` is reached.
    pub admission: AdmissionPolicy,
}

impl PoolSizing {
    /// `min_slots..=max_slots` slots, one more rented when
    /// `scale_up_queue` requests wait, released as soon as they idle
    /// above the floor, behind an unbounded admit-all queue.
    pub fn new(min_slots: u32, max_slots: u32, scale_up_queue: usize) -> PoolSizing {
        PoolSizing {
            min_slots,
            max_slots,
            scale_up_queue,
            idle_release_s: 0.0,
            queue_bound: None,
            admission: AdmissionPolicy::AdmitAll,
        }
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    /// The candidate that was simulated, on the spec's slots.
    pub sizing: PoolSizing,
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
/// meeting the spec's p99 SLO, memoized in the process-wide
/// [`ResultCache`](mcloud_cache). See [`plan_capacity_with_cache`].
pub fn plan_capacity(spec: &PlanSpec) -> Result<CapacityPlan, String> {
    plan_capacity_with_cache(spec, spec.default_candidates(), mcloud_cache::global())
}

/// Evaluates the given candidates against the spec's demand stream (in
/// parallel on the global [`WorkerPool`]; deterministic at any lane
/// count) and picks the cheapest one that serves every request with a
/// p99 turnaround within the SLO. Ties go to the earlier candidate.
///
/// Candidate outcomes are memoized in `cache`: each (spec, candidate)
/// pair is content-addressed, so re-planning an unchanged spec replays
/// the grid from lookups — no profile warming, no simulation — and a
/// tweaked spec re-evaluates only what its digest no longer covers (i.e.
/// everything, since the spec is part of every key; but overlapping
/// *candidate lists* under the same spec share work). A private cache
/// gives benches and tests exact, isolated hit/miss counts.
///
/// Returns `Err` for an invalid spec, an empty candidate list, or a
/// candidate whose [`PlanSpec::pool`] fails [`PoolConfig::validate`]; a
/// *feasible-but-unmet* SLO is not an error — the plan comes back with
/// `best: None` and the scorecards explain why.
pub fn plan_capacity_with_cache(
    spec: &PlanSpec,
    candidates: Vec<PoolSizing>,
    cache: &ResultCache,
) -> Result<CapacityPlan, String> {
    spec.validate()?;
    if candidates.is_empty() {
        return Err("no candidates to evaluate".to_string());
    }
    for sizing in &candidates {
        spec.pool(sizing).validate()?;
    }

    // Probe the cache for every candidate before paying for anything:
    // when the whole grid hits (a re-plan of an unchanged spec), even the
    // profile warming is skipped.
    let spec_canon = spec_canon(spec);
    let keys: Vec<Digest> = candidates
        .iter()
        .map(|sizing| candidate_digest(&spec_canon, spec, sizing))
        .collect();
    let evaluate = |misses: &[usize]| {
        // Warm one table over the classes' sizes at the slot size, then
        // clone the filled cache into every lane: no lane re-simulates a
        // profile another lane already needs.
        let degrees: Vec<f64> = spec.classes.iter().map(|c| c.degrees).collect();
        let mut proto = ProfileTable::new(spec.exec.clone());
        proto.warm_fixed(&degrees, &[spec.procs_per_slot]);

        let missed: Vec<PoolSizing> = misses.iter().map(|&i| candidates[i]).collect();
        let (reports, _) = simulate_grouped(spec, &missed, &proto, WorkerPool::global().lanes());
        missed
            .iter()
            .zip(&reports)
            .map(|(&sizing, report)| score(spec, sizing, report))
            .collect()
    };
    let evaluated = cache.get_or_compute_batch(
        &keys,
        |i, bytes| decode_outcome(bytes, spec, candidates[i]),
        evaluate,
        encode_outcome,
    );

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

/// Simulates every candidate against the spec's demand stream in
/// `groups` contiguous groups fanned out on the global [`WorkerPool`];
/// each group pulls the stream once and runs its candidates in cohorts
/// (see the module docs). Reports come back in candidate order, each
/// equal to [`simulate_pool`](crate::simulate_pool) for that candidate's
/// [`PlanSpec::pool`] alone, at any grouping, with what the cohorts did,
/// summed over the groups. `profiles` is a table of the spec's execution
/// model (warm it to skip profiling); every lane starts from a copy.
///
/// # Panics
/// Panics if a candidate's pool fails [`PoolConfig::validate`], or if
/// `profiles` simulates another execution model than the spec's.
pub fn simulate_grouped(
    spec: &PlanSpec,
    sizings: &[PoolSizing],
    profiles: &ProfileTable,
    groups: usize,
) -> (Vec<PoolReport>, CohortStats) {
    assert!(
        profiles.exec() == &spec.exec,
        "the profile table must simulate the spec's execution model"
    );
    let n = sizings.len();
    let groups = groups.clamp(1, n.max(1));
    let parts: Vec<&[PoolSizing]> = (0..groups)
        .map(|g| &sizings[g * n / groups..(g + 1) * n / groups])
        .collect();
    let pool = WorkerPool::global();
    let mut tables = vec![profiles.clone(); pool.lanes().max(1)];
    let per_group = pool.map_with_state(&mut tables, &parts, |table, part| {
        simulate_cohorts(spec, part, table)
    });
    let mut reports = Vec::with_capacity(n);
    let mut stats = CohortStats::default();
    for (part, s) in per_group {
        reports.extend(part);
        stats.steps += s.steps;
        stats.forks += s.forks;
        stats.merges += s.merges;
        stats.histories += s.histories;
    }
    (reports, stats)
}

/// What a plan's cohorts did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// Cohort-steps: pool simulations advanced to an arrival, one per
    /// cohort per arrival.
    pub steps: u64,
    /// Cohorts forked where members' decisions parted.
    pub forks: u64,
    /// Cohorts merged into another when both pools fell quiet.
    pub merges: u64,
    /// Decision histories at the end, each with its own tally: at most
    /// one per candidate.
    pub histories: u64,
}

/// Runs one group's candidates over one pull of the demand stream.
/// Candidates start in one cohort per [`Pool`], each cohort a pool
/// simulation shared by candidates in the same state: they have made the
/// same [`Decision`] at every arrival since their pools last fell quiet
/// together. Each decision history among a cohort's members has its own
/// [`Tally`], which names them. For each arrival, resolved into a [`Job`]
/// once, every cohort fires its pool events once; cohorts of one `Pool`
/// whose pools have fallen quiet then merge, since quiescent pools of one
/// `Pool` are in one state, and each cohort asks every member for its
/// decision and splits where they disagree. Every history tallies its own
/// decisions played out, so a member's report equals running the
/// candidate alone and does not depend on the other candidates. `table`
/// profiles the spec's execution model.
fn simulate_cohorts(
    spec: &PlanSpec,
    part: &[PoolSizing],
    table: &mut ProfileTable,
) -> (Vec<PoolReport>, CohortStats) {
    let visit = |_: &RequestOutcome| {};
    let cfgs: Vec<PoolConfig> = part.iter().map(|sizing| spec.pool(sizing)).collect();
    let policies: Vec<Policy> = cfgs.iter().map(Policy::of).collect();
    let mut cohorts: Vec<PoolSim<_>> = Vec::new();
    for (m, cfg) in cfgs.iter().enumerate() {
        let pool = Pool::of(cfg);
        let c = cohorts
            .iter()
            .position(|c| c.pool() == pool)
            .unwrap_or_else(|| {
                cohorts.push(PoolSim::new(cfg, visit));
                cohorts.len() - 1
            });
        cohorts[c].tallies_mut()[0].members.push(m);
    }

    let mut stats = CohortStats::default();
    let mut split = Split {
        decided: vec![Decision::Serve; part.len()],
        tallies: Vec::new(),
        forks: Vec::new(),
        spares: Vec::new(),
    };
    let mut forked: Vec<PoolSim<_>> = Vec::new();
    for a in spec.stream() {
        let job = Job::new(a, 1, table.fixed(a.degrees, spec.procs_per_slot));
        for sim in &mut cohorts {
            sim.advance(job.at, &mut NullSink);
        }
        stats.steps += cohorts.len() as u64;
        stats.merges += merge_quiescent(&mut cohorts, &mut split.spares);
        for sim in &mut cohorts {
            let first = sim.decide(&policies[sim.tallies()[0].members[0]]);
            if sim
                .tallies()
                .iter()
                .flat_map(|t| &t.members)
                .any(|&m| sim.decide(&policies[m]) != first)
            {
                stats.forks += split.run(sim, job, first, &policies, &mut forked);
            }
            sim.apply(job, first, &mut NullSink);
        }
        cohorts.append(&mut forked);
    }

    let mut reports: Vec<Option<PoolReport>> = vec![None; part.len()];
    for mut sim in cohorts {
        sim.drain(&mut NullSink);
        for tally in sim.tallies() {
            stats.histories += 1;
            for &m in &tally.members {
                debug_assert!(reports[m].is_none(), "candidate {m} in two histories");
                reports[m] = Some(tally.report(&cfgs[m], sim.end()));
            }
        }
    }
    let reports = reports
        .into_iter()
        .map(|r| r.expect("every candidate is in one history"))
        .collect();
    (reports, stats)
}

/// Merges the cohorts whose pools have fallen quiet at this arrival:
/// quiescent pools of one [`Pool`] are in one state, so the first such
/// cohort goes on for the others' histories, and their states become
/// `spares`. Returns the number of merges.
fn merge_quiescent<F: FnMut(&RequestOutcome)>(
    cohorts: &mut Vec<PoolSim<F>>,
    spares: &mut Vec<PoolSim<F>>,
) -> u64 {
    let mut merges = 0;
    let mut i = 0;
    while i < cohorts.len() {
        let c = &cohorts[i];
        let into = if c.quiescent() {
            (0..i).find(|&j| {
                let o = &cohorts[j];
                o.pool() == c.pool() && o.quiescent()
            })
        } else {
            None
        };
        match into {
            Some(j) => {
                let mut gone = cohorts.swap_remove(i);
                cohorts[j].absorb(&mut gone);
                spares.push(gone);
                merges += 1;
            }
            None => i += 1,
        }
    }
    merges
}

/// A group's buffers for splitting cohorts, kept across arrivals so that
/// a split allocates only where a history forks.
struct Split<F: FnMut(&RequestOutcome)> {
    /// The decision of each candidate of the group on this arrival.
    decided: Vec<Decision>,
    /// The splitting cohort's tallies, being dealt out.
    tallies: Vec<Tally>,
    /// This split's forks: a decision and its cohort's index in `forked`.
    forks: Vec<(Decision, usize)>,
    /// Pool simulations left with no history by a merge; a fork reuses
    /// their buffers.
    spares: Vec<PoolSim<F>>,
}

impl<F: FnMut(&RequestOutcome) + Clone> Split<F> {
    /// Splits the cohort `sim`, whose members disagree on `job`: the histories
    /// that decide `first` stay, and each further decision gets a fork of
    /// the state (built in a spare when one is left) holding the tallies
    /// of the members that made it. A tally whose own members disagree is
    /// cloned, once per further decision among them. The forks carry out
    /// their decisions and land in `forked`. Returns the number of forks.
    fn run(
        &mut self,
        sim: &mut PoolSim<F>,
        job: Job,
        first: Decision,
        policies: &[Policy],
        forked: &mut Vec<PoolSim<F>>,
    ) -> u64 {
        for &m in sim.tallies().iter().flat_map(|t| &t.members) {
            self.decided[m] = sim.decide(&policies[m]);
        }
        std::mem::swap(&mut self.tallies, sim.tallies_mut());
        self.forks.clear();
        let decided = &self.decided;
        let mut place = |tally: Tally, d: Decision| {
            if d == first {
                sim.tallies_mut().push(tally);
                return;
            }
            let at = match self.forks.iter().find(|&&(e, _)| e == d) {
                Some(&(_, at)) => at,
                None => {
                    forked.push(sim.fork(self.spares.pop()));
                    self.forks.push((d, forked.len() - 1));
                    forked.len() - 1
                }
            };
            forked[at].tallies_mut().push(tally);
        };
        for mut tally in self.tallies.drain(..) {
            let d = decided[tally.members[0]];
            let mut rest: Vec<usize> = Vec::new();
            tally.members.retain(|&m| {
                decided[m] == d || {
                    rest.push(m);
                    false
                }
            });
            while let Some(&m) = rest.first() {
                let e = decided[m];
                let (with, without) = rest.iter().partition(|&&m| decided[m] == e);
                place(tally.fork(with), e);
                rest = without;
            }
            place(tally, d);
        }
        for &(d, at) in &self.forks {
            forked[at].apply(job, d, &mut NullSink);
        }
        self.forks.len() as u64
    }
}

fn score(spec: &PlanSpec, sizing: PoolSizing, report: &PoolReport) -> PlanCandidate {
    let p99 = report.turnaround_quantile(0.99);
    PlanCandidate {
        sizing,
        requests: report.requests(),
        rejected: report.rejected,
        deflected: report.deflected,
        p99_turnaround_hours: p99,
        mean_turnaround_hours: report.mean_turnaround_hours(),
        peak_slots: report.peak_slots,
        total_cost: report.total_cost(),
        meets_slo: spec.meets_slo(report.rejected, p99),
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
/// canonical bytes `canon` followed by the candidate's pool. The spec's
/// boot delay, slot size, price and execution model are written again
/// among the candidate's fields, where a candidate once carried its own,
/// so that keys a disk tier holds stay valid.
fn candidate_digest(canon: &Canon, spec: &PlanSpec, sizing: &PoolSizing) -> Digest {
    let mut c = canon.clone();
    c.u32(sizing.min_slots);
    c.u32(sizing.max_slots);
    c.u64(sizing.scale_up_queue as u64);
    c.f64(spec.boot_s);
    c.f64(sizing.idle_release_s);
    c.u32(spec.procs_per_slot);
    c.f64(spec.slot_cost_per_hour.dollars());
    match sizing.queue_bound {
        None => c.u8(0),
        Some(b) => {
            c.u8(1);
            c.u64(b as u64);
        }
    }
    c.u8(match sizing.admission {
        AdmissionPolicy::AdmitAll => 0,
        AdmissionPolicy::Reject => 1,
        AdmissionPolicy::Deflect => 2,
    });
    encode_exec_config(&mut c, &spec.exec);
    c.finish()
}

/// Magic + version leading every cached candidate outcome. The version
/// byte keys invalidation whenever a scorecard field is added or a
/// simulated outcome changes (version 2: waits and turnarounds measured
/// from the arrival's clock instant, not its raw hours), so an entry a
/// disk tier kept from an older build reads as a miss. The
/// `plan_outcomes_are_pinned_to_the_outcome_version` test ties the
/// simulated outcomes to this byte.
const OUTCOME_MAGIC: &[u8; 4] = b"MCPO";
const OUTCOME_VERSION: u8 = 2;

/// Serializes a scorecard's measured fields (everything except the
/// candidate, which the probing caller already holds, and `meets_slo`,
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
fn decode_outcome(bytes: &[u8], spec: &PlanSpec, sizing: PoolSizing) -> Option<PlanCandidate> {
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
        sizing,
        requests,
        rejected,
        deflected,
        p99_turnaround_hours,
        mean_turnaround_hours,
        peak_slots,
        total_cost: Money::from_dollars(cost_dollars),
        meets_slo: spec.meets_slo(rejected, p99_turnaround_hours),
    })
}

fn policy_label(sizing: &PoolSizing) -> &'static str {
    match sizing.admission {
        AdmissionPolicy::AdmitAll => "admit",
        AdmissionPolicy::Reject => "reject",
        AdmissionPolicy::Deflect => "deflect",
    }
}

fn bound_label(sizing: &PoolSizing) -> String {
    match sizing.queue_bound {
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
        let s = &c.sizing;
        out.push_str(&format!(
            "  {:>3}  {:>3}  {:>3} {:>5}  {:<7} {:>8.3} {:>8.3} {:>8} {:>9} {:>5} {:>9.2}  {:>3}  {:>8}\n",
            s.min_slots,
            s.max_slots,
            s.scale_up_queue,
            bound_label(s),
            policy_label(s),
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
    let label = |c: &PlanCandidate| {
        let s = &c.sizing;
        format!(
            "min={} max={} up={} bound={} policy={}",
            s.min_slots,
            s.max_slots,
            s.scale_up_queue,
            bound_label(s),
            policy_label(s),
        )
    };
    match plan.best_candidate() {
        Some(c) => out.push_str(&format!(
            "recommendation: {} -- p99 {:.3} h meets the \
             {:.2} h SLO at ${:.2} ({} candidates qualify; this is the cheapest)\n",
            label(c),
            c.p99_turnaround_hours,
            spec.slo_p99_hours,
            c.total_cost.dollars(),
            plan.candidates.iter().filter(|c| c.meets_slo).count(),
        )),
        None => match plan.best_effort() {
            Some(c) => out.push_str(&format!(
                "no candidate meets the {:.2} h p99 SLO; best achievable is p99 {:.3} h at \
                 ${:.2} ({})\n",
                spec.slo_p99_hours,
                c.p99_turnaround_hours,
                c.total_cost.dollars(),
                label(c),
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
        let s = &c.sizing;
        out.push_str(&format!(
            "    {{\"min_slots\": {}, \"max_slots\": {}, \"scale_up_queue\": {}, \
             \"queue_bound\": {}, \"policy\": \"{}\", \"p99_turnaround_hours\": {:.6}, \
             \"mean_turnaround_hours\": {:.6}, \"requests\": {}, \"rejected\": {}, \
             \"deflected\": {}, \"peak_slots\": {}, \"total_cost_dollars\": {:.2}, \
             \"meets_slo\": {}, \"frontier\": {}}}{}\n",
            s.min_slots,
            s.max_slots,
            s.scale_up_queue,
            s.queue_bound.map_or("null".to_string(), |b| b.to_string()),
            policy_label(s),
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
    use crate::{simulate_pool, FlashCrowd};
    use mcloud_cache::DEFAULT_BUDGET_BYTES;

    fn run_alone(spec: &PlanSpec, sizing: &PoolSizing) -> PoolReport {
        simulate_pool(spec.stream(), &spec.pool(sizing), &mut NullSink, |_| {})
    }

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
    fn grouped_lockstep_matches_one_stream_per_candidate() {
        let mut spec = quick_spec();
        spec.modulation.flash_crowds.push(FlashCrowd {
            start_hour: 20.0,
            duration_hours: 6.0,
            multiplier: 4.0,
        });
        let sizings = spec.default_candidates();
        assert_eq!(sizings.len(), 74);
        let alone: Vec<PoolReport> = sizings.iter().map(|s| run_alone(&spec, s)).collect();
        let profiles = ProfileTable::new(spec.exec.clone());
        for groups in [1, 2, 5, 74] {
            let (grouped, _) = simulate_grouped(&spec, &sizings, &profiles, groups);
            assert_eq!(grouped.len(), alone.len());
            // Whole reports, so every scorecard field agrees too.
            for (i, (g, a)) in grouped.iter().zip(&alone).enumerate() {
                assert_eq!(g, a, "candidate {i} at {groups} groups");
            }
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
    fn a_cold_plan_counts_each_distinct_candidate_it_computes() {
        let spec = quick_spec();
        let mut candidates = spec.default_candidates()[..3].to_vec();
        candidates.push(candidates[0]);
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let plan = plan_capacity_with_cache(&spec, candidates, &cache).expect("plan");
        let c = cache.counters();
        assert_eq!((c.misses, c.computes, c.inserts), (4, 3, 3));
        let (first, twin) = (&plan.candidates[0], &plan.candidates[3]);
        assert_eq!(encode_outcome(first), encode_outcome(twin));
    }

    fn digest(spec: &PlanSpec, sizing: &PoolSizing) -> Digest {
        candidate_digest(&spec_canon(spec), spec, sizing)
    }

    #[test]
    fn plan_digests_track_the_spec_but_ignore_the_unused_base_rate() {
        let spec = quick_spec();
        let sizing = PoolSizing::new(1, 8, 2);
        let d0 = digest(&spec, &sizing);

        let mut s = spec.clone();
        s.seed += 1;
        assert_ne!(digest(&s, &sizing), d0);

        let mut s = spec.clone();
        s.slo_p99_hours = 6.5;
        assert_ne!(digest(&s, &sizing), d0);

        let mut s = spec.clone();
        s.classes[0].rate_per_hour += 0.25;
        assert_ne!(digest(&s, &sizing), d0);

        // The one normalization rule: class_stream ignores the profile's
        // base rate, so the digest must too.
        let mut s = spec.clone();
        s.modulation.base_rate_per_hour = 42.0;
        assert_eq!(digest(&s, &sizing), d0);

        let mut s = spec.clone();
        s.boot_s += 1.0;
        assert_ne!(digest(&s, &sizing), d0);

        let bigger = PoolSizing {
            max_slots: 9,
            ..sizing
        };
        assert_ne!(digest(&spec, &bigger), d0);

        let bounded = PoolSizing {
            queue_bound: Some(16),
            ..sizing
        };
        assert_ne!(digest(&spec, &bounded), d0);
    }

    /// Plan cache keys outlive the process in a disk tier, so the bytes a
    /// candidate's digest covers, and their order, are pinned: the first,
    /// the first deflecting and the last default candidate of the quick
    /// spec.
    #[test]
    fn default_candidate_digests_are_pinned() {
        let spec = quick_spec();
        let canon = spec_canon(&spec);
        let candidates = spec.default_candidates();
        let deflect = candidates
            .iter()
            .position(|c| c.admission == AdmissionPolicy::Deflect)
            .expect("the grid deflects");
        let hex: Vec<String> = [0, deflect, candidates.len() - 1]
            .iter()
            .map(|&i| candidate_digest(&canon, &spec, &candidates[i]).to_hex())
            .collect();
        assert_eq!(
            hex,
            [
                "4bd576bc0e1d0731c78b02e3c99f6f04",
                "b00cacc09a46d73c3ff47075a246d469",
                "1283f6de0652f602af9e6560445972d2",
            ]
        );
    }

    #[test]
    fn cached_outcomes_round_trip_through_the_codec() {
        let spec = quick_spec();
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let plan =
            plan_capacity_with_cache(&spec, spec.default_candidates(), &cache).expect("plan");
        for c in &plan.candidates {
            let back = decode_outcome(&encode_outcome(c), &spec, c.sizing).expect("round-trip");
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
        let sizing = plan.candidates[0].sizing;
        assert!(decode_outcome(&good[..good.len() - 1], &spec, sizing).is_none());
        let mut wrong_version = good.clone();
        wrong_version[4] ^= 1;
        assert!(decode_outcome(&wrong_version, &spec, sizing).is_none());
    }

    /// Disk-tier entries are keyed by spec and candidate, not by what the
    /// simulation computes, so a change to the outcomes must bump
    /// `OUTCOME_VERSION` or another process would serve stale
    /// scorecards. This pins the encoded outcomes of a quick plan to the
    /// version.
    #[test]
    fn plan_outcomes_are_pinned_to_the_outcome_version() {
        let spec = quick_spec();
        let plan = plan_capacity_with_cache(
            &spec,
            spec.default_candidates(),
            &ResultCache::new(DEFAULT_BUDGET_BYTES, None),
        )
        .expect("plan");
        let mut canon = Canon::new(DOMAIN_PLAN);
        for c in &plan.candidates {
            for b in encode_outcome(c) {
                canon.u8(b);
            }
        }
        assert_eq!(
            (OUTCOME_VERSION, canon.finish().to_hex()),
            (2, "71b75442039808e9302e3a9bb0e1967a".to_string()),
            "plan outcomes changed: bump OUTCOME_VERSION and re-pin"
        );
    }

    #[test]
    fn specs_refuse_a_non_finite_or_negative_slot_rate() {
        // A negative rate would rank as the cheapest pool. Non-finite
        // rates cannot be written down: money arithmetic refuses them
        // (`a_nan_slot_rate_cannot_be_computed`,
        // `an_infinite_slot_rate_cannot_be_computed`).
        let mut spec = quick_spec();
        spec.slot_cost_per_hour = Money::from_dollars(1.0) * -0.5;
        let err = plan_capacity(&spec).unwrap_err();
        assert!(err.contains("slot_cost_per_hour must be a finite"), "{err}");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn a_nan_slot_rate_cannot_be_computed() {
        let mut spec = quick_spec();
        spec.slot_cost_per_hour = Money::from_dollars(1.0) * f64::NAN;
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn an_infinite_slot_rate_cannot_be_computed() {
        let mut spec = quick_spec();
        spec.slot_cost_per_hour = Money::from_dollars(1.0) * f64::INFINITY;
    }

    #[test]
    fn specs_refuse_a_non_finite_or_negative_boot_delay() {
        for boot_s in [f64::NAN, f64::INFINITY, -1.0] {
            let mut spec = quick_spec();
            spec.boot_s = boot_s;
            let err = plan_capacity(&spec).unwrap_err();
            assert!(err.contains("invalid boot_s"), "{err}");
        }
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
