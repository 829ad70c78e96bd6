//! Deterministic binary round-trip for [`Report`].
//!
//! The cache stores full reports as bytes; this codec defines those
//! bytes. Every field is written in `Report`'s declaration order,
//! little-endian, with `f64`s as their **exact** IEEE-754 bit patterns —
//! no normalization here, unlike the digest encoding: a decoded report
//! must compare equal to the freshly simulated one field for field, bit
//! for bit. Times travel as integer microseconds (their native
//! representation), options as a tag byte, and lists with a `u32` length
//! prefix.
//!
//! Decoding validates everything it can (magic, version, tag bytes,
//! finite money, histogram consistency, exact length consumption) and
//! returns `Err` rather than a half-plausible report — a corrupt disk
//! entry must read as "not cached", never as wrong numbers.

use mcloud_core::{KernelStats, Report};
use mcloud_cost::{CostBreakdown, Money};
use mcloud_simkit::{Histogram, QueueStats, SimDuration};

const MAGIC: &[u8; 4] = b"MCRP";
/// Layout version: bump on any change to the byte layout, so entries
/// written by an older layout decode as "not cached".
const VERSION: u8 = 3;

/// Encodes a report into the codec's canonical bytes.
pub fn encode_report(r: &Report) -> Vec<u8> {
    let mut w = Vec::with_capacity(512);
    w.extend_from_slice(MAGIC);
    w.push(VERSION);

    put_u64(&mut w, r.makespan.as_micros());
    put_u64(&mut w, r.bytes_in);
    put_u64(&mut w, r.bytes_out);
    put_u64(&mut w, r.transfers_in);
    put_u64(&mut w, r.transfers_out);
    put_f64(&mut w, r.storage_byte_seconds);
    put_f64(&mut w, r.storage_peak_bytes);
    put_f64(&mut w, r.cpu_seconds_billed);
    put_f64(&mut w, r.task_runtime_seconds);
    put_f64(&mut w, r.costs.cpu.dollars());
    put_f64(&mut w, r.costs.storage.dollars());
    put_f64(&mut w, r.costs.transfer_in.dollars());
    put_f64(&mut w, r.costs.transfer_out.dollars());
    match r.processors {
        None => w.push(0),
        Some(p) => {
            w.push(1);
            put_u32(&mut w, p);
        }
    }
    put_u32(&mut w, r.peak_concurrency);
    put_f64(&mut w, r.cpu_utilization);
    put_u64(&mut w, r.task_executions);
    put_u64(&mut w, r.events_processed);
    put_u64(&mut w, r.failed_attempts);
    w.push(r.completed as u8);
    put_u64(&mut w, r.tasks_completed);
    put_u64(&mut w, r.retries);
    put_u64(&mut w, r.preemptions);
    put_u64(&mut w, r.transfer_failures);
    put_f64(&mut w, r.wasted_cpu_seconds);
    put_u64(&mut w, r.wasted_bytes_in);
    put_u64(&mut w, r.wasted_bytes_out);
    put_f64(&mut w, r.queue_wait_mean_s);
    put_f64(&mut w, r.queue_wait_max_s);

    let (buckets, zeros, count, sum, min, max) = r.queue_wait_hist.raw_parts();
    put_u32(&mut w, buckets.len() as u32);
    for &(idx, n) in &buckets {
        put_u64(&mut w, idx as u64);
        put_u64(&mut w, n);
    }
    put_u64(&mut w, zeros);
    put_u64(&mut w, count);
    put_f64(&mut w, sum);
    put_f64(&mut w, min);
    put_f64(&mut w, max);

    let q = &r.kernel.queue;
    put_u64(&mut w, q.popped);
    put_u64(&mut w, q.cancelled);
    put_u64(&mut w, q.peak_pending);
    put_f64(&mut w, r.kernel.ready_mean);
    put_f64(&mut w, r.kernel.ready_peak);
    put_f64(&mut w, r.kernel.pool_busy_mean);
    put_u64(&mut w, r.kernel.pool_grants);
    w
}

/// Decodes codec bytes back into a [`Report`]; `Err` on anything that
/// isn't a complete, internally consistent encoding.
pub fn decode_report(bytes: &[u8]) -> Result<Report, String> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err("report codec: bad magic".to_string());
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(format!("report codec: unknown version {version}"));
    }

    let makespan = SimDuration::from_micros(r.u64()?);
    let bytes_in = r.u64()?;
    let bytes_out = r.u64()?;
    let transfers_in = r.u64()?;
    let transfers_out = r.u64()?;
    let storage_byte_seconds = r.f64()?;
    let storage_peak_bytes = r.f64()?;
    let cpu_seconds_billed = r.f64()?;
    let task_runtime_seconds = r.f64()?;
    let costs = CostBreakdown {
        cpu: r.money()?,
        storage: r.money()?,
        transfer_in: r.money()?,
        transfer_out: r.money()?,
    };
    let processors = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        t => return Err(format!("report codec: bad processors tag {t}")),
    };
    let peak_concurrency = r.u32()?;
    let cpu_utilization = r.f64()?;
    let task_executions = r.u64()?;
    let events_processed = r.u64()?;
    let failed_attempts = r.u64()?;
    let completed = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(format!("report codec: bad bool byte {t}")),
    };
    let tasks_completed = r.u64()?;
    let retries = r.u64()?;
    let preemptions = r.u64()?;
    let transfer_failures = r.u64()?;
    let wasted_cpu_seconds = r.f64()?;
    let wasted_bytes_in = r.u64()?;
    let wasted_bytes_out = r.u64()?;
    let queue_wait_mean_s = r.f64()?;
    let queue_wait_max_s = r.f64()?;

    let nbuckets = r.u32()? as usize;
    if nbuckets > bytes.len() / 16 {
        return Err("report codec: bucket count exceeds payload".to_string());
    }
    let mut buckets = Vec::with_capacity(nbuckets);
    for _ in 0..nbuckets {
        let idx = r.u64()? as i64;
        let n = r.u64()?;
        buckets.push((idx, n));
    }
    let zeros = r.u64()?;
    let count = r.u64()?;
    let sum = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    let queue_wait_hist = Histogram::from_raw_parts(buckets, zeros, count, sum, min, max)
        .map_err(|e| format!("report codec: {e}"))?;

    let kernel = KernelStats {
        queue: QueueStats {
            popped: r.u64()?,
            cancelled: r.u64()?,
            peak_pending: r.u64()?,
            ..QueueStats::default()
        },
        ready_mean: r.f64()?,
        ready_peak: r.f64()?,
        pool_busy_mean: r.f64()?,
        pool_grants: r.u64()?,
    };

    r.finish()?;
    Ok(Report {
        makespan,
        bytes_in,
        bytes_out,
        transfers_in,
        transfers_out,
        storage_byte_seconds,
        storage_peak_bytes,
        cpu_seconds_billed,
        task_runtime_seconds,
        costs,
        processors,
        peak_concurrency,
        cpu_utilization,
        task_executions,
        events_processed,
        failed_attempts,
        completed,
        tasks_completed,
        retries,
        preemptions,
        transfer_failures,
        wasted_cpu_seconds,
        wasted_bytes_in,
        wasted_bytes_out,
        queue_wait_mean_s,
        queue_wait_max_s,
        queue_wait_hist,
        kernel,
    })
}

fn put_u32(w: &mut Vec<u8>, v: u32) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(w: &mut Vec<u8>, v: f64) {
    w.extend_from_slice(&v.to_bits().to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| "report codec: truncated".to_string())?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn money(&mut self) -> Result<Money, String> {
        let dollars = self.f64()?;
        if !dollars.is_finite() {
            return Err(format!("report codec: non-finite money {dollars}"));
        }
        Ok(Money::from_dollars(dollars))
    }

    fn finish(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "report codec: {} trailing bytes",
                self.bytes.len() - self.at
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcloud_core::{simulate, DataMode, ExecConfig};
    use mcloud_montage::{generate, MosaicConfig};

    #[test]
    fn simulated_reports_round_trip_field_for_field() {
        let wf = generate(&MosaicConfig::new(0.5));
        for cfg in [
            ExecConfig::fixed(8),
            ExecConfig::on_demand(DataMode::DynamicCleanup),
            ExecConfig::fixed(4)
                .with_faults(0.05, 2008)
                .with_retry(mcloud_core::RetryPolicy::bounded(3)),
        ] {
            let report = simulate(&wf, &cfg);
            let bytes = encode_report(&report);
            let back = decode_report(&bytes).expect("decode");
            assert_eq!(report, back);
            // And the encoding itself is deterministic.
            assert_eq!(bytes, encode_report(&back));
        }
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let wf = generate(&MosaicConfig::new(0.2));
        let bytes = encode_report(&simulate(&wf, &ExecConfig::fixed(2)));
        assert!(decode_report(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_report(&bytes[..4]).is_err());
        assert!(decode_report(b"").is_err());

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_report(&bad_magic).is_err());

        for version in [1, VERSION + 1] {
            let mut bad_version = bytes.clone();
            bad_version[4] = version;
            assert!(decode_report(&bad_version).is_err(), "{version}");
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_report(&trailing).is_err());

        // Non-finite money bits (costs.cpu starts at offset 77).
        let mut bad_money = bytes.clone();
        bad_money[77..85].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_report(&bad_money).is_err());
    }

    /// The disk tier keys reports by scenario digests that lead with
    /// `SCENARIO_SCHEMA_VERSION`, so an engine change that leaves the
    /// version alone would let another process serve pre-change reports.
    /// This pins the cold path's bytes (generate from the recipe,
    /// simulate, encode, render) to the version. A codec layout change
    /// moves the pin too, but the codec's own `VERSION` byte already
    /// rejects old entries, so it re-pins without a schema bump.
    #[test]
    fn engine_output_is_pinned_to_the_scenario_schema_version() {
        use mcloud_core::{
            report_json, Canon, FaultModel, RetryPolicy, Scenario, ScenarioRecipe, DOMAIN_SCENARIO,
            SCENARIO_SCHEMA_VERSION,
        };
        let faults = ExecConfig {
            faults: Some(FaultModel {
                task_failure_prob: 0.05,
                transfer_failure_prob: 0.05,
                proc_mttf_s: 5_000.0,
                seed: 2008,
            }),
            ..ExecConfig::fixed(8).with_retry(RetryPolicy::bounded(3))
        };
        let scenarios = DataMode::ALL
            .map(|mode| (1.0, ExecConfig::on_demand(mode)))
            .into_iter()
            .chain([
                (1.0, ExecConfig::fixed(8)),
                (1.0, faults),
                (0.5, ExecConfig::paper_default()),
            ])
            .map(|(degrees, exec)| Scenario {
                recipe: ScenarioRecipe::new(degrees),
                exec,
            });
        let mut canon = Canon::new(DOMAIN_SCENARIO);
        for s in scenarios {
            // `ScenarioRecipe::new` pins `MosaicConfig::new`'s band.
            let wf = generate(
                &MosaicConfig::new(s.recipe.degrees)
                    .seed(s.recipe.seed)
                    .region(&s.recipe.region),
            );
            let report = simulate(&wf, &s.exec);
            for b in encode_report(&report) {
                canon.u8(b);
            }
            canon.str(&report_json(&report));
        }
        assert_eq!(
            (SCENARIO_SCHEMA_VERSION, canon.finish().to_hex()),
            (1, "6211763518203d05b59853b90c4d3de1".to_string()),
            "engine output changed: bump SCENARIO_SCHEMA_VERSION and re-pin"
        );
    }
}
