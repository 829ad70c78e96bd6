//! Cache-aware simulation entries, keyed by [`Scenario::digest`].
//!
//! [`simulate_cached`] answers one scenario with single-flight
//! protection; [`simulate_batch_cached`] answers many through
//! [`ResultCache::get_or_compute_batch`], simulating only the misses
//! (each distinct recipe's workflow generated once, its configs batched
//! through the persistent worker pool). Either returns what an uncached
//! run would, byte for byte: the codec round-trip is exact and
//! simulation is deterministic. The caller supplies the recipe's
//! workflow generator, so a warm query never materializes a workflow.

use mcloud_core::{simulate, simulate_batch, BatchScratch, Report, Scenario, ScenarioRecipe};
use mcloud_dag::Workflow;

use crate::codec::{decode_report, encode_report};
use crate::store::ResultCache;

/// Simulates every scenario, answering already-seen digests from `cache`
/// and running the misses through [`simulate_batch`], one call per
/// distinct recipe, whose workflow `workflow_of` builds. Output order
/// matches `scenarios`; duplicate scenarios are simulated once.
pub fn simulate_batch_cached(
    scenarios: &[Scenario],
    workflow_of: impl Fn(&ScenarioRecipe) -> Workflow,
    scratch: &mut BatchScratch,
    cache: &ResultCache,
) -> Vec<Report> {
    let keys: Vec<_> = scenarios.iter().map(Scenario::digest).collect();
    let compute = |misses: &[usize]| {
        // Group the misses by recipe so each distinct workflow is
        // generated once and its configs run as one pool batch.
        let mut groups: Vec<(&ScenarioRecipe, Vec<usize>)> = Vec::new();
        for (slot, &i) in misses.iter().enumerate() {
            let recipe = &scenarios[i].recipe;
            match groups.iter_mut().find(|(r, _)| *r == recipe) {
                Some((_, slots)) => slots.push(slot),
                None => groups.push((recipe, vec![slot])),
            }
        }
        let mut fresh: Vec<Option<Report>> = vec![None; misses.len()];
        for (recipe, slots) in groups {
            let cfgs: Vec<_> = slots
                .iter()
                .map(|&s| scenarios[misses[s]].exec.clone())
                .collect();
            let reports = simulate_batch(&workflow_of(recipe), &cfgs, scratch);
            for (&s, report) in slots.iter().zip(reports) {
                fresh[s] = Some(report);
            }
        }
        fresh.into_iter().map(Option::unwrap).collect()
    };
    cache.get_or_compute_batch(
        &keys,
        |_, bytes| decode_report(bytes).ok(),
        compute,
        encode_report,
    )
}

/// One scenario with full single-flight protection: concurrent callers
/// asking for the same scenario run one simulation between them, on the
/// workflow `workflow_of` builds for its recipe.
pub fn simulate_cached(
    scenario: &Scenario,
    workflow_of: impl Fn(&ScenarioRecipe) -> Workflow,
    cache: &ResultCache,
) -> Report {
    let run = || simulate(&workflow_of(&scenario.recipe), &scenario.exec);
    let bytes = cache
        .get_or_compute(scenario.digest(), || Ok(encode_report(&run())))
        .expect("compute closure is infallible");
    // An entry that does not decode is a miss: simulate again.
    decode_report(&bytes).unwrap_or_else(|_| run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DEFAULT_BUDGET_BYTES;
    use mcloud_core::{DataMode, ExecConfig, Provisioning};
    use mcloud_montage::{generate, MosaicConfig};

    /// The workflow of a recipe's size (every test recipe keeps the
    /// generator's other defaults).
    fn workflow_of(recipe: &ScenarioRecipe) -> Workflow {
        generate(&MosaicConfig::new(recipe.degrees))
    }

    fn scenario(degrees: f64, exec: ExecConfig) -> Scenario {
        Scenario {
            recipe: ScenarioRecipe::new(degrees),
            exec,
        }
    }

    fn grid(degrees: f64) -> Vec<Scenario> {
        [1u32, 2, 4, 8, 16]
            .iter()
            .map(|&p| {
                let exec = ExecConfig {
                    provisioning: Provisioning::Fixed { processors: p },
                    ..ExecConfig::on_demand(DataMode::Regular)
                };
                scenario(degrees, exec)
            })
            .collect()
    }

    fn uncached(scenarios: &[Scenario]) -> Vec<Report> {
        scenarios
            .iter()
            .map(|s| simulate(&workflow_of(&s.recipe), &s.exec))
            .collect()
    }

    #[test]
    fn cached_batch_equals_uncached_batch() {
        let scenarios = grid(0.5);
        let plain = uncached(&scenarios);

        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let mut scratch = BatchScratch::new();
        let cold = simulate_batch_cached(&scenarios, workflow_of, &mut scratch, &cache);
        assert_eq!(plain, cold);
        let c = cache.counters();
        assert_eq!((c.misses, c.computes), (5, 5));

        // Second pass: pure hits, still identical.
        let warm = simulate_batch_cached(&scenarios, workflow_of, &mut scratch, &cache);
        assert_eq!(plain, warm);
        let c = cache.counters();
        assert_eq!((c.hits_mem, c.misses, c.computes), (5, 5, 5));
    }

    #[test]
    fn duplicate_configs_simulate_once() {
        let one = scenario(0.2, ExecConfig::fixed(4));
        let scenarios = vec![one.clone(), one.clone(), one];
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let reports =
            simulate_batch_cached(&scenarios, workflow_of, &mut BatchScratch::new(), &cache);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.counters().computes, 1);
    }

    #[test]
    fn partial_warmth_mixes_hits_and_misses() {
        let mut scenarios = grid(0.2);
        scenarios.extend(grid(0.5));
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let mut scratch = BatchScratch::new();
        // Warm the first two points of each recipe.
        let warm: Vec<Scenario> = [0, 1, 5, 6].iter().map(|&i| scenarios[i].clone()).collect();
        simulate_batch_cached(&warm, workflow_of, &mut scratch, &cache);
        let all = simulate_batch_cached(&scenarios, workflow_of, &mut scratch, &cache);
        assert_eq!(all, uncached(&scenarios));
        let c = cache.counters();
        assert_eq!((c.hits_mem, c.misses, c.computes), (4, 10, 10));
    }

    #[test]
    fn an_undecodable_entry_is_recomputed() {
        let scenarios = grid(0.2);
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        cache.insert(scenarios[0].digest(), vec![0xde, 0xad]);
        let reports =
            simulate_batch_cached(&scenarios, workflow_of, &mut BatchScratch::new(), &cache);
        assert_eq!(reports, uncached(&scenarios));
        let c = cache.counters();
        assert_eq!((c.hits_mem, c.computes), (1, 5));
    }

    #[test]
    fn point_queries_cache_across_workflow_regenerations() {
        // The second query is a hit without building a workflow.
        let s = scenario(0.2, ExecConfig::fixed(8));
        let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
        let a = simulate_cached(&s, workflow_of, &cache);
        let b = simulate_cached(
            &s,
            |_| unreachable!("a warm query builds no workflow"),
            &cache,
        );
        assert_eq!(a, b);
        let c = cache.counters();
        assert_eq!((c.computes, c.hits_mem), (1, 1));
    }
}
