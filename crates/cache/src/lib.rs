//! # mcloud-cache
//!
//! Content-addressed memoization for the simulator. Every run in this
//! workspace is byte-deterministic, so a (scenario → result) pair never
//! goes stale: once a canonical scenario digest (see
//! `mcloud_core::scenario`) has been simulated, the result can be served
//! from a lookup forever — across sweep axes, planner grids, repeated
//! `mcloud serve` queries, and (via the disk tier) across processes.
//!
//! Three pieces:
//!
//! - [`ResultCache`]: a sharded, lock-striped, LRU byte store with a
//!   configurable byte budget, single-flight miss coalescing, an optional
//!   one-file-per-entry disk tier (atomic renames, corrupt entries
//!   ignored), and deterministic `mcloud_cache_*` telemetry counters;
//! - a binary [`Report`](mcloud_core::Report) codec
//!   ([`encode_report`]/[`decode_report`]) whose round-trip is exact to
//!   the bit, so a cached report is indistinguishable from a fresh one;
//! - cache-aware simulation entries ([`simulate_cached`],
//!   [`simulate_batch_cached`]) keyed by
//!   [`Scenario::digest`](mcloud_core::Scenario::digest): a hit builds no
//!   workflow and runs no simulation, and a batch simulates only its
//!   misses, through [`ResultCache::get_or_compute_batch`], the one
//!   probe/dedupe/insert loop `mcloud serve`'s batches and the capacity
//!   planner share.
//!
//! ```
//! use mcloud_cache::{simulate_cached, ResultCache, DEFAULT_BUDGET_BYTES};
//! use mcloud_core::{ExecConfig, Scenario, ScenarioRecipe};
//! use mcloud_montage::{generate, MosaicConfig};
//!
//! let cache = ResultCache::new(DEFAULT_BUDGET_BYTES, None);
//! let scenario = Scenario {
//!     recipe: ScenarioRecipe::new(1.0),
//!     exec: ExecConfig::fixed(8),
//! };
//! let workflow_of = |r: &ScenarioRecipe| generate(&MosaicConfig::new(r.degrees));
//! let cold = simulate_cached(&scenario, workflow_of, &cache);
//! let warm = simulate_cached(&scenario, workflow_of, &cache); // hash lookup
//! assert_eq!(cold, warm);
//! assert_eq!(cache.counters().hits_mem, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod codec;
mod store;

pub use batch::{simulate_batch_cached, simulate_cached};
pub use codec::{decode_report, encode_report};
pub use store::{configure_global, global, CacheCounters, ResultCache, DEFAULT_BUDGET_BYTES};
