//! Host-speed probe. On a shared host, other tenants' memory traffic
//! changes how fast this machine runs the simulator: the same op can take
//! 30-50% longer for seconds or minutes at a time, and CPU time grows with
//! it, so no statistic of raw times alone is steady from run to run. A
//! fixed, memory-bound kernel of this package, timed between ops, follows
//! that slowdown. Every end-to-end time of a run is reported scaled by
//! `REFERENCE_NS` over the probe's median time in that run: the time it
//! would take on a host where the probe takes `REFERENCE_NS`. The scale
//! is one number per run: within a run, op times vary less than probe
//! times do. The kernel is the benchmark's own code, so a change to the
//! program moves the scaled times as much as the raw ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use crate::stats;

/// Words of the probe's table: 4 MiB, the size of a last-level cache
/// share, so the probe waits on the caches and memory as the engine does.
const TABLE_WORDS: usize = 1 << 20;
/// Pending events in the probe's heap, as in a small simulation.
const HEAP_EVENTS: u64 = 4096;
/// Heap pops per probe: about 4 ms on the reference host.
const STEPS: usize = 16_000;
/// The probe's median time on the reference host (an idle 2-vCPU Xeon
/// virtual machine), ns. It fixes the unit of every scaled time.
pub const REFERENCE_NS: f64 = 4.0e6;

/// The probe kernel and its state: a discrete-event loop that pops the
/// earliest event, touches a random table word and pushes a later event.
pub struct HostProbe {
    table: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    rng: u64,
}

impl HostProbe {
    pub fn new() -> Self {
        let mut p = HostProbe {
            table: vec![0; TABLE_WORDS],
            heap: BinaryHeap::with_capacity(HEAP_EVENTS as usize),
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        for id in 0..HEAP_EVENTS {
            let t = p.next() >> 20;
            p.heap.push(Reverse((t, id)));
        }
        p
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Runs the kernel once and returns its wall time, ns.
    pub fn sample(&mut self) -> u64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..STEPS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap is never empty");
            let x = self.next();
            let j = x as usize % TABLE_WORDS;
            self.table[j] = self.table[j].wrapping_add(id as u32);
            sum = sum.wrapping_add(u64::from(self.table[(j * 7 + 3) % TABLE_WORDS]));
            self.heap.push(Reverse((t + (x >> 40), id)));
        }
        std::hint::black_box(sum);
        start.elapsed().as_nanos() as u64
    }
}

/// The scale of a run's samples: `REFERENCE_NS` over their median (1
/// without samples).
pub fn scale(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    REFERENCE_NS / stats::median(&v).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_the_median() {
        let r = REFERENCE_NS as u64;
        assert_eq!(scale(&[r, 10 * r, r]), 1.0);
        assert_eq!(scale(&[r, 2 * r, 2 * r]), 0.5);
        assert_eq!(scale(&[]), 1.0);
    }

    #[test]
    fn the_probe_runs() {
        let mut p = HostProbe::new();
        assert!(p.sample() > 0);
        assert_eq!(p.heap.len() as u64, HEAP_EVENTS);
    }
}
