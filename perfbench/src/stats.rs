//! Latency summaries and process accounting read from `/proc`.

use std::time::Duration;

/// 1-based nearest rank of percentile `q` among `n` samples. The small
/// slack keeps products such as 99.9% of 10,000 from rounding up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile `q` (0..=100) of sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q).min(sorted.len()) - 1]
}

/// Median of unsorted values (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail is reported at, highest last. It stops at p99:
/// beyond it the tail of a shared machine's scheduler, not the program,
/// sets the value.
const TAIL_LADDER: [f64; 4] = [50.0, 75.0, 90.0, 99.0];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples above it, and its value. Falls back to the median.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    let mut best = (50.0, percentile(sorted, 50.0));
    for q in TAIL_LADDER {
        if n >= rank(n, q) + 10 {
            best = (q, percentile(sorted, q));
        }
    }
    best
}

/// CPU time (user + system) and peak resident memory of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    pub cpu: Duration,
    pub peak_rss_kb: u64,
}

/// Clock ticks per second of `/proc/<pid>/stat` (USER_HZ, 100 on Linux).
const TICKS_PER_S: u64 = 100;

/// Reads `/proc/<pid>/stat` and `/proc/<pid>/status` (`"self"` for this
/// process).
pub fn proc_usage(pid: &str) -> Result<ProcUsage, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("malformed stat field {}", i + 3))
    };
    // utime is field 14, stime field 15.
    let ticks = tick(11)? + tick(12)?;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    let peak_rss_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in status")?;
    Ok(ProcUsage {
        cpu: Duration::from_millis(ticks * 1000 / TICKS_PER_S),
        peak_rss_kb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(tail(&v), (90.0, 90));
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&v), (99.0, 9900));
        assert_eq!(percentile(&v, 99.9), 9990);
        let v: Vec<u64> = (1..=15).collect();
        assert_eq!(tail(&v).0, 50.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reads_own_usage() {
        let u = proc_usage("self").expect("proc");
        assert!(u.peak_rss_kb > 0);
    }
}
