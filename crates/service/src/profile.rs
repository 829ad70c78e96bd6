//! Per-request execution profiles.
//!
//! The service simulator works at request granularity: serving one
//! request occupies a venue for that request's simulated makespan and
//! costs its simulated dollars. Profiles are produced by the full
//! `mcloud-core` engine once per distinct (degrees, venue) pair and
//! cached, so a month of traffic needs only a handful of workflow
//! simulations.

use std::collections::HashMap;

use mcloud_core::{
    simulate_prepared, ExecConfig, PreparedWorkflow, Provisioning, Report, SimScratch,
};
use mcloud_cost::Money;
use mcloud_montage::{generate, MosaicConfig};

/// The simulated behaviour of one request at one venue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestProfile {
    /// Wall-clock hours the request occupies its venue.
    pub makespan_hours: f64,
    /// Dollars billed for the request (zero for owned local hardware
    /// unless an amortized rate is configured).
    pub cost: Money,
    /// The data-management share of the bill (transfers + storage) — what
    /// a request still pays when a standing pool covers its CPU.
    pub dm_cost: Money,
}

/// A memoizing profile source backed by the workflow engine.
///
/// Cloning a table copies its cache (and warm buffers), so a table warmed
/// once with [`ProfileTable::warm_fixed`] can be fanned out across worker
/// lanes without re-simulating anything.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    exec: ExecConfig,
    cache: HashMap<(u64, u32), RequestProfile>,
    /// Warm engine buffers, reused across every cache-miss simulation the
    /// table runs over its lifetime.
    scratch: SimScratch,
}

impl ProfileTable {
    /// Creates a table that simulates requests under `exec` (its
    /// provisioning field is overridden per lookup).
    pub fn new(exec: ExecConfig) -> Self {
        ProfileTable {
            exec,
            cache: HashMap::new(),
            scratch: SimScratch::new(),
        }
    }

    /// The execution model this table simulates requests under.
    pub(crate) fn exec(&self) -> &ExecConfig {
        &self.exec
    }

    /// Profile of a `degrees`-sized request on `processors` nodes under
    /// fixed provisioning, with the bill computed by the engine. Cached.
    pub fn fixed(&mut self, degrees: f64, processors: u32) -> RequestProfile {
        let key = (degrees.to_bits(), processors);
        if !self.cache.contains_key(&key) {
            self.simulate_fixed(degrees, &[processors]);
        }
        self.cache[&key]
    }

    /// Simulates the `degrees` request on each of `processors` (one
    /// generated and prepared workflow for all of them) and caches every
    /// profile.
    fn simulate_fixed(&mut self, degrees: f64, processors: &[u32]) {
        let wf = generate(&MosaicConfig::new(degrees));
        let prep = PreparedWorkflow::new(&wf);
        for &p in processors {
            let cfg = ExecConfig {
                provisioning: Provisioning::Fixed { processors: p },
                ..self.exec.clone()
            };
            let report = simulate_prepared(&prep, &cfg, &mut self.scratch);
            self.cache
                .insert((degrees.to_bits(), p), Self::profile_of(&report));
        }
    }

    fn profile_of(report: &Report) -> RequestProfile {
        RequestProfile {
            makespan_hours: report.makespan_hours(),
            cost: report.total_cost(),
            dm_cost: report.costs.data_management(),
        }
    }

    /// Pre-simulates the `degrees` × `processors` grid into the cache, so
    /// later lookups (and clones of this table) simply hit it.
    pub fn warm_fixed(&mut self, degrees: &[f64], processors: &[u32]) {
        for &d in degrees {
            let mut missing = Vec::new();
            for &p in processors {
                if !self.cache.contains_key(&(d.to_bits(), p)) && !missing.contains(&p) {
                    missing.push(p);
                }
            }
            if !missing.is_empty() {
                self.simulate_fixed(d, &missing);
            }
        }
    }

    /// Same schedule as [`ProfileTable::fixed`], but billed at zero — a
    /// request running on hardware the project already owns.
    pub fn owned(&mut self, degrees: f64, processors: u32) -> RequestProfile {
        RequestProfile {
            cost: Money::ZERO,
            dm_cost: Money::ZERO,
            ..self.fixed(degrees, processors)
        }
    }

    /// Number of distinct profiles simulated so far.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcloud_core::simulate;

    #[test]
    fn profiles_are_cached() {
        let mut table = ProfileTable::new(ExecConfig::paper_default());
        let a = table.fixed(1.0, 8);
        let b = table.fixed(1.0, 8);
        assert_eq!(a, b);
        assert_eq!(table.cached(), 1);
        table.fixed(1.0, 16);
        assert_eq!(table.cached(), 2);
    }

    #[test]
    fn profile_matches_direct_simulation() {
        let mut table = ProfileTable::new(ExecConfig::paper_default());
        let p = table.fixed(1.0, 8);
        let direct = simulate(&generate(&MosaicConfig::new(1.0)), &ExecConfig::fixed(8));
        assert!((p.makespan_hours - direct.makespan_hours()).abs() < 1e-12);
        assert!(p.cost.approx_eq(direct.total_cost(), 1e-12));
    }

    #[test]
    fn warm_fixed_matches_cold_lookups_exactly() {
        let mut warm = ProfileTable::new(ExecConfig::paper_default());
        // Unsorted with duplicates: warming sorts, dedups, and chains.
        warm.warm_fixed(&[0.5, 1.0], &[16, 4, 8, 4]);
        assert_eq!(warm.cached(), 6);
        let mut cold = ProfileTable::new(ExecConfig::paper_default());
        for d in [0.5, 1.0] {
            for p in [4, 8, 16] {
                assert_eq!(warm.fixed(d, p), cold.fixed(d, p), "({d}, {p})");
            }
        }
        // Every lookup above hit the warm cache — nothing re-simulated.
        assert_eq!(warm.cached(), 6);
        // A clone carries the cache with it.
        assert_eq!(warm.clone().cached(), 6);
    }

    #[test]
    fn owned_hardware_is_free_but_no_faster() {
        let mut table = ProfileTable::new(ExecConfig::paper_default());
        let cloud = table.fixed(1.0, 8);
        let local = table.owned(1.0, 8);
        assert_eq!(local.cost, Money::ZERO);
        assert!((local.makespan_hours - cloud.makespan_hours).abs() < 1e-12);
    }
}
