//! Deterministic fault injection: seeded failure draws, a Poisson
//! preemption process, and exponential-backoff retry delays.
//!
//! The paper prices an idealized cloud where every task and transfer
//! succeeds, but its own cost model (CPU-seconds billed, bytes in/out
//! billed) means failures are not free: a retried task or a re-staged
//! transfer shows up directly on the bill. This module supplies the
//! stochastic machinery an engine needs to model that, with the kernel's
//! usual reproducibility contract: every draw comes from one seeded
//! [`SimRng`], draws are only made for fault kinds whose rate is nonzero,
//! and two injectors built from the same spec and seed produce identical
//! streams.
//!
//! The zero-rate gating matters: enabling one fault kind must never
//! perturb the draw sequence of another, so a legacy task-failure-only
//! configuration replays byte-identically after this module's transfer
//! and preemption channels were added.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Rates for the three injected fault kinds. A rate of zero disables that
/// kind *and its RNG draws*, so configurations that only use a subset stay
/// reproducible as new kinds are added.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Probability that any single task execution attempt fails, `[0, 1)`.
    pub task_failure_prob: f64,
    /// Probability that any single transfer fails on completion, `[0, 1)`.
    pub transfer_failure_prob: f64,
    /// Mean time to failure of one processor, seconds. A whole-processor
    /// preemption process fires with exponential inter-arrival times at
    /// aggregate rate `procs / mttf`; zero disables it.
    pub proc_mttf_s: f64,
}

impl FaultSpec {
    /// No faults of any kind.
    pub const NONE: FaultSpec = FaultSpec {
        task_failure_prob: 0.0,
        transfer_failure_prob: 0.0,
        proc_mttf_s: 0.0,
    };

    /// True when at least one fault kind has a nonzero rate.
    pub fn any_active(&self) -> bool {
        self.task_failure_prob > 0.0 || self.transfer_failure_prob > 0.0 || self.proc_mttf_s > 0.0
    }
}

/// The seeded fault source an engine consults during its event loop.
///
/// All three fault kinds share one RNG stream; because draws happen in
/// deterministic event order and zero-rate kinds never draw, the stream —
/// and therefore the whole simulation — is a pure function of the spec
/// and seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: SimRng,
}

impl FaultInjector {
    /// Builds an injector for `spec` with its own RNG seeded by `seed`.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultInjector {
            spec,
            rng: SimRng::new(seed),
        }
    }

    /// The configured rates.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Draws whether one task execution attempt fails. No draw is made
    /// when the task failure rate is zero.
    pub fn task_attempt_fails(&mut self) -> bool {
        self.spec.task_failure_prob > 0.0 && self.rng.chance(self.spec.task_failure_prob)
    }

    /// Draws whether one completing transfer fails. No draw is made when
    /// the transfer failure rate is zero.
    pub fn transfer_fails(&mut self) -> bool {
        self.spec.transfer_failure_prob > 0.0 && self.rng.chance(self.spec.transfer_failure_prob)
    }

    /// Samples the exponential delay until the next whole-processor
    /// preemption across a pool of `procs` slots (aggregate rate
    /// `procs / mttf`), or `None` when preemption is disabled.
    pub fn next_preemption(&mut self, procs: u32) -> Option<SimDuration> {
        if self.spec.proc_mttf_s <= 0.0 || procs == 0 {
            return None;
        }
        let rate = procs as f64 / self.spec.proc_mttf_s;
        let u = self.rng.f64(); // in [0, 1), so 1 - u is in (0, 1]
        Some(SimDuration::from_secs_f64(-(1.0 - u).ln() / rate))
    }

    /// Picks the processor slot a preemption strikes, uniformly over
    /// `procs` slots.
    ///
    /// # Panics
    /// Panics if `procs` is zero.
    pub fn preemption_victim(&mut self, procs: u32) -> u32 {
        assert!(procs > 0, "preemption needs a nonempty pool");
        self.rng.below(procs as u64) as u32
    }

    /// Mutable access to the underlying RNG, for draws that must share
    /// this injector's stream (e.g. retry jitter).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// Exponential-backoff delay schedule with uniform jitter.
///
/// Retry `k` (1-based) waits `min(cap, base * 2^(k-1))` seconds, scaled by
/// a uniform factor in `[1 - jitter, 1 + jitter]`. A zero base means no
/// delay at all — and, crucially, no jitter draw, so immediate-retry
/// configurations consume nothing from the RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// First-retry delay, seconds. Zero disables backoff entirely.
    pub base_s: f64,
    /// Upper bound on the un-jittered delay, seconds. Zero means uncapped.
    pub cap_s: f64,
    /// Jitter half-width as a fraction of the delay, `[0, 1]`.
    pub jitter_frac: f64,
}

impl Backoff {
    /// Immediate retries: no delay, no RNG draws.
    pub const NONE: Backoff = Backoff {
        base_s: 0.0,
        cap_s: 0.0,
        jitter_frac: 0.0,
    };

    /// The jittered delay before retry number `retry` (1-based), drawing
    /// jitter from `rng` only when both the base and the jitter fraction
    /// are nonzero.
    pub fn delay_s(&self, retry: u32, rng: &mut SimRng) -> f64 {
        if self.base_s <= 0.0 {
            return 0.0;
        }
        // 2^63 seconds already exceeds any simulated horizon; clamping the
        // exponent keeps the arithmetic finite for absurd retry counts.
        let exp = retry.saturating_sub(1).min(63);
        let raw = self.base_s * 2f64.powi(exp as i32);
        let capped = if self.cap_s > 0.0 {
            raw.min(self.cap_s)
        } else {
            raw
        };
        if self.jitter_frac > 0.0 {
            capped * (1.0 + rng.f64_in(-self.jitter_frac, self.jitter_frac))
        } else {
            capped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_draw() {
        let mut inj = FaultInjector::new(FaultSpec::NONE, 1);
        assert!(!inj.task_attempt_fails());
        assert!(!inj.transfer_fails());
        assert!(inj.next_preemption(8).is_none());
        // The stream was never advanced: it still matches a fresh RNG.
        assert_eq!(inj.rng_mut().next_u64(), SimRng::new(1).next_u64());
        assert!(!FaultSpec::NONE.any_active());
    }

    #[test]
    fn task_draws_match_a_bare_rng_with_the_same_seed() {
        // The injector's task channel must replay the legacy engine's
        // one-chance-per-finish draw sequence exactly.
        let spec = FaultSpec {
            task_failure_prob: 0.3,
            ..FaultSpec::NONE
        };
        let mut inj = FaultInjector::new(spec, 2008);
        let mut rng = SimRng::new(2008);
        for _ in 0..1000 {
            assert_eq!(inj.task_attempt_fails(), rng.chance(0.3));
        }
    }

    #[test]
    fn preemption_times_are_exponential_and_deterministic() {
        let spec = FaultSpec {
            proc_mttf_s: 1000.0,
            ..FaultSpec::NONE
        };
        let mut a = FaultInjector::new(spec, 7);
        let mut b = FaultInjector::new(spec, 7);
        let mut sum = 0.0;
        for _ in 0..2000 {
            let da = a.next_preemption(4).unwrap();
            let db = b.next_preemption(4).unwrap();
            assert_eq!(da, db);
            sum += da.as_secs_f64();
        }
        // Mean inter-arrival should be near mttf / procs = 250 s.
        let mean = sum / 2000.0;
        assert!((150.0..350.0).contains(&mean), "mean {mean}");
        // Victims are uniform over the pool.
        let v = a.preemption_victim(4);
        assert!(v < 4);
    }

    #[test]
    fn backoff_grows_geometrically_and_caps() {
        let b = Backoff {
            base_s: 10.0,
            cap_s: 35.0,
            jitter_frac: 0.0,
        };
        let mut rng = SimRng::new(1);
        assert_eq!(b.delay_s(1, &mut rng), 10.0);
        assert_eq!(b.delay_s(2, &mut rng), 20.0);
        assert_eq!(b.delay_s(3, &mut rng), 35.0); // capped from 40
        assert_eq!(b.delay_s(100, &mut rng), 35.0); // exponent clamp holds
                                                    // No jitter, no draws.
        assert_eq!(rng.next_u64(), SimRng::new(1).next_u64());
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_seeded() {
        let b = Backoff {
            base_s: 30.0,
            cap_s: 300.0,
            jitter_frac: 0.5,
        };
        let mut a = SimRng::new(42);
        let mut c = SimRng::new(42);
        for retry in 1..20 {
            let da = b.delay_s(retry, &mut a);
            let dc = b.delay_s(retry, &mut c);
            assert_eq!(da, dc, "same seed, same delays");
            let nominal = (30.0 * 2f64.powi(retry as i32 - 1)).min(300.0);
            assert!(da >= nominal * 0.5 && da <= nominal * 1.5, "delay {da}");
        }
    }

    #[test]
    fn zero_base_means_zero_delay_without_draws() {
        let mut rng = SimRng::new(9);
        assert_eq!(Backoff::NONE.delay_s(5, &mut rng), 0.0);
        assert_eq!(rng.next_u64(), SimRng::new(9).next_u64());
    }
}
