//! The sharded, content-addressed result store.
//!
//! [`ResultCache`] maps a canonical [`Digest`] to an opaque byte value
//! (typically a codec-encoded `Report`, but the planner stores its own
//! candidate outcomes too). Entries are immutable once inserted — content
//! addressing means a key can only ever map to one value — so the cache
//! hands out `Arc<Vec<u8>>` clones and never copies payloads.
//!
//! Layout: 16 lock-striped shards, each an LRU keyed by an insertion
//! tick, bounded by a per-shard slice of the byte budget. A separate
//! single-flight table coalesces concurrent misses for the same digest:
//! the first caller computes, everyone else parks on a condvar and gets
//! the same bytes — exactly one simulation per distinct scenario no
//! matter how many lanes hammer it.
//!
//! The optional disk tier stores one file per entry (`<hex-digest>.bin`)
//! under a caller-chosen directory. Writes go to a temp file first and
//! are published with an atomic rename; reads validate a magic, a format
//! version, a length, and an FNV-1a checksum, and silently ignore (and
//! delete) anything corrupt or stale. Because the digest itself embeds
//! the scenario schema version, an encoding change simply stops matching
//! old file names — stale entries are never *read*, only aged out.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use mcloud_core::Digest;
use mcloud_simkit::{MetricClass, Registry};

/// Number of lock stripes. Power of two; the stripe is picked from the
/// digest's first byte, which SipHash distributes uniformly.
const SHARDS: usize = 16;

/// Fixed per-entry bookkeeping charge added to the payload length when
/// accounting against the byte budget (map node, LRU node, Arc).
const ENTRY_OVERHEAD: u64 = 128;

/// Default in-memory byte budget when none is configured: 256 MiB.
pub const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

/// Disk-tier entry header: magic + format version.
const DISK_MAGIC: &[u8; 4] = b"MCCE";
const DISK_VERSION: u8 = 1;

fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Entry {
    bytes: Arc<Vec<u8>>,
    tick: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Digest, Entry>,
    /// LRU order: tick -> key. Ticks are unique per shard, so this is a
    /// total order; the smallest tick is the eviction victim.
    lru: BTreeMap<u64, Digest>,
    next_tick: u64,
    bytes: u64,
}

/// One in-flight computation; joiners park on the condvar until the
/// winner publishes its result (the bytes, or the compute error).
struct Flight {
    slot: Mutex<Option<Result<Arc<Vec<u8>>, String>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<Arc<Vec<u8>>, String>) {
        *self.slot.lock().unwrap() = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Arc<Vec<u8>>, String> {
        let mut slot = self.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap();
        }
    }
}

/// Monotone counters describing what the cache has done so far. All
/// counts are exact; under a sequential caller (the serve loop, a bench
/// warm loop) every one of them is fully deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the in-memory tier.
    pub hits_mem: u64,
    /// Lookups answered by the disk tier (and promoted to memory).
    pub hits_disk: u64,
    /// Lookups that found neither tier populated.
    pub misses: u64,
    /// Values computed on a miss: each [`ResultCache::get_or_compute`]
    /// call that ran its closure (one per distinct in-flight digest, not
    /// per caller) plus each distinct missed key of a
    /// [`ResultCache::get_or_compute_batch`] call.
    pub computes: u64,
    /// Concurrent callers that joined another caller's in-flight compute
    /// instead of running their own.
    pub coalesced: u64,
    /// Entries inserted into the memory tier.
    pub inserts: u64,
    /// Entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Disk-tier entries that failed validation and were ignored.
    pub disk_rejects: u64,
}

#[derive(Default)]
struct Stats {
    hits_mem: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    computes: AtomicU64,
    coalesced: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    disk_rejects: AtomicU64,
}

/// A sharded, lock-striped, LRU-bounded content-addressed byte store
/// with single-flight miss coalescing and an optional disk tier.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Single-flight table. Lock ordering: `flights` may be taken before
    /// a shard lock, never the other way around.
    flights: Mutex<HashMap<Digest, Arc<Flight>>>,
    budget_per_shard: u64,
    disk_dir: Option<PathBuf>,
    stats: Stats,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("budget_per_shard", &self.budget_per_shard)
            .field("disk_dir", &self.disk_dir)
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// A cache with the given total in-memory byte budget and optional
    /// disk-tier directory. The directory is created if missing; if that
    /// fails the disk tier is disabled (the cache still works, memory
    /// only) rather than erroring — a cache must never break a caller.
    pub fn new(budget_bytes: u64, disk_dir: Option<PathBuf>) -> Self {
        let disk_dir = disk_dir.filter(|dir| std::fs::create_dir_all(dir).is_ok());
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            flights: Mutex::new(HashMap::new()),
            budget_per_shard: (budget_bytes / SHARDS as u64).max(ENTRY_OVERHEAD),
            disk_dir,
            stats: Stats::default(),
        }
    }

    /// The disk-tier directory, when the tier is active.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    fn shard(&self, key: Digest) -> &Mutex<Shard> {
        &self.shards[key.0[0] as usize % SHARDS]
    }

    fn lookup_mem(&self, key: Digest) -> Option<Arc<Vec<u8>>> {
        let mut shard = self.shard(key).lock().unwrap();
        let tick = shard.next_tick;
        shard.next_tick += 1;
        let entry = shard.map.get_mut(&key)?;
        let old = entry.tick;
        entry.tick = tick;
        let bytes = entry.bytes.clone();
        shard.lru.remove(&old);
        shard.lru.insert(tick, key);
        Some(bytes)
    }

    /// Looks the key up in memory, then on disk (promoting a disk hit).
    /// Counts one hit or one miss.
    pub fn get(&self, key: Digest) -> Option<Arc<Vec<u8>>> {
        if let Some(bytes) = self.lookup_mem(key) {
            self.stats.hits_mem.fetch_add(1, Ordering::Relaxed);
            return Some(bytes);
        }
        if let Some(bytes) = self.lookup_disk(key) {
            self.stats.hits_disk.fetch_add(1, Ordering::Relaxed);
            return Some(self.insert_mem(key, bytes));
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts into the memory tier (evicting LRU entries past the byte
    /// budget) and writes through to the disk tier when one is active.
    /// Bytes that differ from the entry already under `key` replace it.
    pub fn insert(&self, key: Digest, bytes: Vec<u8>) -> Arc<Vec<u8>> {
        self.write_disk(key, &bytes);
        self.insert_mem(key, bytes)
    }

    fn insert_mem(&self, key: Digest, bytes: Vec<u8>) -> Arc<Vec<u8>> {
        let arc = Arc::new(bytes);
        let size = arc.len() as u64 + ENTRY_OVERHEAD;
        let mut shard = self.shard(key).lock().unwrap();
        let tick = shard.next_tick;
        shard.next_tick += 1;
        if let Some(old) = shard.map.remove(&key) {
            shard.lru.remove(&old.tick);
            if old.bytes == arc {
                // Content addressing: same key, same bytes. Keep the
                // existing Arc (callers may already share it) and just
                // refresh the LRU.
                shard.lru.insert(tick, key);
                let keep = old.bytes.clone();
                shard.map.insert(
                    key,
                    Entry {
                        bytes: old.bytes,
                        tick,
                    },
                );
                return keep;
            }
            // Other bytes under the key: the old entry is one a caller's
            // decoder rejected (written under an older outcome or codec
            // version). Kept, it would be recomputed on every lookup.
            shard.bytes -= old.bytes.len() as u64 + ENTRY_OVERHEAD;
        }
        shard.bytes += size;
        shard.map.insert(
            key,
            Entry {
                bytes: arc.clone(),
                tick,
            },
        );
        shard.lru.insert(tick, key);
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        // Evict strictly older entries while over budget; the entry just
        // inserted survives even if it alone exceeds the slice.
        while shard.bytes > self.budget_per_shard && shard.map.len() > 1 {
            let (&victim_tick, &victim) = shard.lru.iter().next().unwrap();
            if victim == key {
                break;
            }
            shard.lru.remove(&victim_tick);
            let gone = shard.map.remove(&victim).expect("lru/map agree");
            shard.bytes -= gone.bytes.len() as u64 + ENTRY_OVERHEAD;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        arc
    }

    /// The single-flight entry point: returns the cached bytes, or runs
    /// `compute` exactly once per distinct in-flight key — concurrent
    /// callers with the same key park and share the winner's result.
    /// A compute error is propagated to every waiter and nothing is
    /// cached, so the next caller retries.
    pub fn get_or_compute(
        &self,
        key: Digest,
        compute: impl FnOnce() -> Result<Vec<u8>, String>,
    ) -> Result<Arc<Vec<u8>>, String> {
        if let Some(bytes) = self.lookup_mem(key) {
            self.stats.hits_mem.fetch_add(1, Ordering::Relaxed);
            return Ok(bytes);
        }
        let (flight, winner) = {
            let mut flights = self.flights.lock().unwrap();
            // Re-check under the flights lock: a finished winner removes
            // its flight only after inserting, so a fresh memory probe
            // here closes the join/insert race.
            if let Some(bytes) = self.lookup_mem(key) {
                self.stats.hits_mem.fetch_add(1, Ordering::Relaxed);
                return Ok(bytes);
            }
            match flights.get(&key) {
                Some(flight) => (flight.clone(), false),
                None => {
                    let flight = Arc::new(Flight::new());
                    flights.insert(key, flight.clone());
                    (flight, true)
                }
            }
        };
        if !winner {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            return flight.wait();
        }
        let result = match self.lookup_disk(key) {
            Some(bytes) => {
                self.stats.hits_disk.fetch_add(1, Ordering::Relaxed);
                Ok(self.insert_mem(key, bytes))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                self.stats.computes.fetch_add(1, Ordering::Relaxed);
                compute().map(|bytes| self.insert(key, bytes))
            }
        };
        self.flights.lock().unwrap().remove(&key);
        flight.publish(result.clone());
        result
    }

    /// The batch entry point: one value per key, in key order. Every key
    /// is probed first; an entry `decode(i, bytes)` rejects counts as a
    /// miss. The distinct missed keys (each first occurrence's index, in
    /// input order) go to one `compute` call, which returns their values
    /// in that order; each is inserted once, encoded by `encode`, and a
    /// repeated key shares its twin's value. Misses are not coalesced
    /// with concurrent callers: the batch's callers are sequential, and
    /// a duplicate compute would store the same bytes.
    pub fn get_or_compute_batch<T: Clone>(
        &self,
        keys: &[Digest],
        decode: impl Fn(usize, &[u8]) -> Option<T>,
        compute: impl FnOnce(&[usize]) -> Vec<T>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) -> Vec<T> {
        let mut out: Vec<Option<T>> = Vec::with_capacity(keys.len());
        let mut slot_of: HashMap<Digest, usize> = HashMap::new();
        let mut misses: Vec<usize> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let hit = self.get(key).and_then(|bytes| decode(i, &bytes));
            if hit.is_none() && !slot_of.contains_key(&key) {
                slot_of.insert(key, misses.len());
                misses.push(i);
            }
            out.push(hit);
        }
        if misses.is_empty() {
            return out.into_iter().map(Option::unwrap).collect();
        }
        self.stats
            .computes
            .fetch_add(misses.len() as u64, Ordering::Relaxed);
        let fresh = compute(&misses);
        assert_eq!(fresh.len(), misses.len(), "one computed value per miss");
        for (&i, value) in misses.iter().zip(&fresh) {
            self.insert(keys[i], encode(value));
        }
        out.into_iter()
            .zip(keys)
            .map(|(hit, key)| hit.unwrap_or_else(|| fresh[slot_of[key]].clone()))
            .collect()
    }

    fn entry_path(&self, key: Digest) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|dir| dir.join(format!("{}.bin", key.to_hex())))
    }

    fn lookup_disk(&self, key: Digest) -> Option<Vec<u8>> {
        let path = self.entry_path(key)?;
        let raw = std::fs::read(&path).ok()?;
        match Self::parse_disk_entry(&raw) {
            Some(payload) => Some(payload.to_vec()),
            None => {
                // Corrupt or stale format: ignore it and clear the slot so
                // the rewrite below starts clean.
                self.stats.disk_rejects.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn parse_disk_entry(raw: &[u8]) -> Option<&[u8]> {
        if raw.len() < 4 + 1 + 8 + 8 || &raw[..4] != DISK_MAGIC || raw[4] != DISK_VERSION {
            return None;
        }
        let len = u64::from_le_bytes(raw[5..13].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(raw[13..21].try_into().unwrap());
        let payload = raw.get(21..)?;
        if payload.len() != len || fnv1a64(payload) != checksum {
            return None;
        }
        Some(payload)
    }

    fn write_disk(&self, key: Digest, payload: &[u8]) {
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        let mut doc = Vec::with_capacity(21 + payload.len());
        doc.extend_from_slice(DISK_MAGIC);
        doc.push(DISK_VERSION);
        doc.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        doc.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        doc.extend_from_slice(payload);
        // Atomic publish: write a private temp file, then rename over the
        // final name. Readers only ever see a complete entry. Any I/O
        // failure just means this entry stays memory-only.
        let tmp = dir.join(format!(".tmp-{}-{}", key.to_hex(), std::process::id()));
        if std::fs::write(&tmp, &doc).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// A snapshot of the lifetime counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits_mem: self.stats.hits_mem.load(Ordering::Relaxed),
            hits_disk: self.stats.hits_disk.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            computes: self.stats.computes.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            disk_rejects: self.stats.disk_rejects.load(Ordering::Relaxed),
        }
    }

    /// Live entry count across all shards.
    pub fn entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len() as u64)
            .sum()
    }

    /// Budget-accounted bytes across all shards (payloads + per-entry
    /// overhead).
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().bytes).sum()
    }

    /// The cache's counters as a metrics [`Registry`].
    ///
    /// Everything except `mcloud_cache_coalesced_total` is
    /// [`MetricClass::Deterministic`]: hit/miss/compute/evict counts are
    /// pure functions of the lookup sequence, which is deterministic for
    /// the serve loop and for batch consumers (distinct digests). How
    /// many concurrent callers happened to *coalesce* onto an in-flight
    /// compute is a thread-timing fact, so it carries
    /// [`MetricClass::WallClock`] and stays out of deterministic renders.
    pub fn registry(&self) -> Registry {
        const D: MetricClass = MetricClass::Deterministic;
        let c = self.counters();
        let mut r = Registry::new();
        r.set_counter(
            "mcloud_cache_hits_total",
            "Cache lookups answered without simulating.",
            D,
            &[("tier", "disk")],
            c.hits_disk,
        );
        r.set_counter(
            "mcloud_cache_hits_total",
            "Cache lookups answered without simulating.",
            D,
            &[("tier", "mem")],
            c.hits_mem,
        );
        r.set_counter(
            "mcloud_cache_misses_total",
            "Cache lookups that found no tier populated.",
            D,
            &[],
            c.misses,
        );
        r.set_counter(
            "mcloud_cache_computes_total",
            "Values computed on a miss (one per distinct missed key, batch or single).",
            D,
            &[],
            c.computes,
        );
        r.set_counter(
            "mcloud_cache_inserts_total",
            "Entries inserted into the memory tier.",
            D,
            &[],
            c.inserts,
        );
        r.set_counter(
            "mcloud_cache_evictions_total",
            "Entries evicted to stay inside the byte budget.",
            D,
            &[],
            c.evictions,
        );
        r.set_counter(
            "mcloud_cache_disk_rejects_total",
            "Disk-tier entries ignored as corrupt or stale.",
            D,
            &[],
            c.disk_rejects,
        );
        r.set_gauge(
            "mcloud_cache_entries",
            "Live entries across all shards.",
            D,
            &[],
            self.entries() as f64,
        );
        r.set_gauge(
            "mcloud_cache_bytes",
            "Budget-accounted bytes across all shards.",
            D,
            &[],
            self.bytes() as f64,
        );
        r.set_counter(
            "mcloud_cache_coalesced_total",
            "Concurrent callers that joined an in-flight compute.",
            MetricClass::WallClock,
            &[],
            c.coalesced,
        );
        r
    }
}

static GLOBAL: OnceLock<ResultCache> = OnceLock::new();

/// Configures the process-wide cache before first use. Returns `Err` if
/// [`global`] (or an earlier `configure_global`) already initialized it —
/// the configuration must win the race to matter.
pub fn configure_global(budget_bytes: u64, disk_dir: Option<PathBuf>) -> Result<(), String> {
    let mut installed = false;
    GLOBAL.get_or_init(|| {
        installed = true;
        ResultCache::new(budget_bytes, disk_dir.clone())
    });
    if installed {
        Ok(())
    } else {
        Err("global result cache already initialized".to_string())
    }
}

/// The process-wide cache. First use initializes it from the environment:
/// `MCLOUD_CACHE_BYTES` overrides the 256 MiB default budget and
/// `MCLOUD_CACHE_DIR` activates the disk tier.
pub fn global() -> &'static ResultCache {
    GLOBAL.get_or_init(|| {
        let budget = std::env::var("MCLOUD_CACHE_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_BUDGET_BYTES);
        let dir = std::env::var_os("MCLOUD_CACHE_DIR").map(PathBuf::from);
        ResultCache::new(budget, dir)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> Digest {
        let mut d = [0u8; 16];
        d[0] = n;
        d[15] = n;
        Digest(d)
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = ResultCache::new(1 << 20, None);
        assert!(cache.get(key(1)).is_none());
        cache.insert(key(1), vec![1, 2, 3]);
        assert_eq!(cache.get(key(1)).unwrap().as_slice(), &[1, 2, 3]);
        let c = cache.counters();
        assert_eq!((c.misses, c.hits_mem, c.inserts), (1, 1, 1));
        assert_eq!(cache.entries(), 1);
        assert!(cache.bytes() >= 3);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Tiny budget: per-shard slice is clamped to ENTRY_OVERHEAD, so a
        // second entry in the same shard evicts the older one.
        let cache = ResultCache::new(0, None);
        let (a, b) = (key(0), key(16)); // same shard (16 % 16 == 0)
        cache.insert(a, vec![0; 64]);
        cache.insert(b, vec![0; 64]);
        assert!(cache.get(a).is_none(), "older entry evicted");
        assert!(cache.get(b).is_some(), "newest entry survives");
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn lru_prefers_to_evict_least_recently_used() {
        // Per-shard slice of 1500 bytes fits two (512 + 128)-byte entries
        // but not three, so the third insert must evict exactly one — the
        // least recently *touched*, not the oldest-inserted.
        let cache = ResultCache::new(1500 * SHARDS as u64, None);
        let (a, b, c) = (key(0), key(16), key(32)); // all in shard 0
        cache.insert(a, vec![0; 512]);
        cache.insert(b, vec![0; 512]);
        cache.get(a); // touch a, so b is now the LRU victim
        cache.insert(c, vec![0; 512]);
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.get(b).is_none(), "b was least recently used");
        assert!(cache.get(a).is_some());
        assert!(cache.get(c).is_some());
    }

    #[test]
    fn get_or_compute_runs_once_and_caches() {
        let cache = ResultCache::new(1 << 20, None);
        let mut runs = 0;
        let a = cache
            .get_or_compute(key(7), || {
                runs += 1;
                Ok(vec![9, 9])
            })
            .unwrap();
        let b = cache
            .get_or_compute(key(7), || {
                runs += 1;
                Ok(vec![9, 9])
            })
            .unwrap();
        assert_eq!(runs, 1);
        assert_eq!(a, b);
        let c = cache.counters();
        assert_eq!((c.computes, c.hits_mem), (1, 1));
    }

    #[test]
    fn compute_errors_propagate_and_cache_nothing() {
        let cache = ResultCache::new(1 << 20, None);
        let err = cache
            .get_or_compute(key(3), || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        // Next caller retries rather than seeing a cached failure.
        let ok = cache.get_or_compute(key(3), || Ok(vec![1])).unwrap();
        assert_eq!(ok.as_slice(), &[1]);
        assert_eq!(cache.counters().computes, 2);
    }

    #[test]
    fn a_batch_computes_each_distinct_miss_once_in_key_order() {
        let cache = ResultCache::new(1 << 20, None);
        cache.insert(key(1), vec![10]);
        cache.insert(key(2), vec![0xff]); // present, but the caller rejects it
        let keys = [key(3), key(1), key(2), key(3), key(4)];
        let mut asked = Vec::new();
        let values = cache.get_or_compute_batch(
            &keys,
            |_, bytes| (bytes[0] != 0xff).then_some(bytes[0]),
            |misses| {
                asked.extend_from_slice(misses);
                misses.iter().map(|&i| 30 + i as u8).collect()
            },
            |v| vec![*v],
        );
        assert_eq!(values, [30, 10, 32, 30, 34]);
        assert_eq!(asked, [0, 2, 4], "first occurrences, in input order");
        let c = cache.counters();
        assert_eq!((c.hits_mem, c.misses, c.computes), (2, 3, 3));
        assert_eq!(c.inserts, 5, "the rejected entry is replaced");
        assert_eq!(cache.get(key(4)).unwrap().as_slice(), &[34]);
        assert_eq!(cache.get(key(2)).unwrap().as_slice(), &[32]);
        // A warm batch computes nothing.
        let warm = cache.get_or_compute_batch(
            &keys[..2],
            |_, bytes| Some(bytes[0]),
            |_| unreachable!("every key hits"),
            |v| vec![*v],
        );
        assert_eq!(warm, [30, 10]);
        assert_eq!(cache.counters().computes, 3);
    }

    #[test]
    fn a_rejected_entry_is_replaced_so_the_next_batch_hits() {
        let cache = ResultCache::new(1 << 20, None);
        cache.insert(key(7), vec![0xff; 3]); // present, but the caller rejects it
        let stale_bytes = cache.bytes();
        let decode = |_: usize, bytes: &[u8]| (bytes[0] != 0xff).then_some(bytes[0]);
        let cold = cache.get_or_compute_batch(
            &[key(7)],
            decode,
            |misses| misses.iter().map(|_| 7).collect(),
            |v| vec![*v],
        );
        assert_eq!(cold, [7]);
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.bytes(), stale_bytes - 2, "the stale bytes are gone");
        let warm = cache.get_or_compute_batch(
            &[key(7)],
            decode,
            |_| unreachable!("the replaced entry hits"),
            |v| vec![*v],
        );
        assert_eq!(warm, [7]);
        let c = cache.counters();
        assert_eq!((c.hits_mem, c.misses, c.computes), (2, 0, 1));
    }

    #[test]
    fn disk_tier_round_trips_and_survives_processes() {
        let dir = std::env::temp_dir().join("mcloud_cache_disk_test");
        let _ = std::fs::remove_dir_all(&dir);
        let payload = vec![42u8; 1000];
        {
            let cache = ResultCache::new(1 << 20, Some(dir.clone()));
            cache.insert(key(5), payload.clone());
        }
        // A fresh cache (fresh "process") finds the entry on disk.
        let cache = ResultCache::new(1 << 20, Some(dir.clone()));
        assert_eq!(cache.get(key(5)).unwrap().as_slice(), &payload[..]);
        let c = cache.counters();
        assert_eq!((c.hits_disk, c.hits_mem), (1, 0));
        // Promoted: the second lookup is a memory hit.
        assert!(cache.get(key(5)).is_some());
        assert_eq!(cache.counters().hits_mem, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_ignored() {
        let dir = std::env::temp_dir().join("mcloud_cache_corrupt_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(1 << 20, Some(dir.clone()));
        cache.insert(key(9), vec![1, 2, 3, 4]);
        let path = dir.join(format!("{}.bin", key(9).to_hex()));

        // Truncated file.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 1]).unwrap();
        let fresh = ResultCache::new(1 << 20, Some(dir.clone()));
        assert!(fresh.get(key(9)).is_none());
        assert_eq!(fresh.counters().disk_rejects, 1);
        assert!(!path.exists(), "corrupt entry deleted");

        // Flipped payload byte (checksum mismatch).
        let mut doc = full.clone();
        let last = doc.len() - 1;
        doc[last] ^= 0xff;
        std::fs::write(&path, &doc).unwrap();
        assert!(fresh.get(key(9)).is_none());

        // Stale format version.
        let mut doc = full.clone();
        doc[4] = DISK_VERSION + 1;
        std::fs::write(&path, &doc).unwrap();
        assert!(fresh.get(key(9)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_misses_compute_once() {
        use std::sync::atomic::AtomicU64;
        let cache = ResultCache::new(1 << 20, None);
        let runs = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(8);
        let results: Vec<Arc<Vec<u8>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_compute(key(11), || {
                                runs.fetch_add(1, Ordering::Relaxed);
                                // Give joiners time to pile onto the flight.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(vec![7; 32])
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "single-flight");
        assert_eq!(cache.counters().computes, 1);
        for r in &results {
            assert_eq!(r.as_slice(), results[0].as_slice());
        }
    }

    #[test]
    fn registry_renders_cache_metrics_deterministically() {
        let cache = ResultCache::new(1 << 20, None);
        cache.insert(key(2), vec![1]);
        cache.get(key(2));
        cache.get(key(4));
        let text = cache.registry().prometheus_text();
        assert!(
            text.contains("mcloud_cache_hits_total{tier=\"mem\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("mcloud_cache_misses_total 1\n"), "{text}");
        assert!(text.contains("mcloud_cache_entries 1\n"), "{text}");
        // Coalesced is wall-clock class: absent from the deterministic
        // render, present in the _all render.
        assert!(!text.contains("coalesced"), "{text}");
        assert!(cache
            .registry()
            .prometheus_text_all()
            .contains("mcloud_cache_coalesced_total 0\n"));
    }

    #[test]
    fn configure_global_wins_only_once() {
        // Whichever of configure/global runs first in the process wins;
        // the second configure call must report that it lost.
        let _ = global();
        assert!(configure_global(1, None).is_err());
    }
}
