//! Every exact cell of the committed `BENCH_baseline.json` (task and
//! event counts, queue counters, allocations, service, plan, sweep, cache
//! and generator counts) reproduces under its rule in `RULES`. The exact
//! pass measures counted runs only, so it is the same on every machine;
//! `repro bench-json --check` gates the timing cells.
//!
//! Alone in its binary: the shape memo and the allocator counters it
//! reads must see no other test's work.

use mcloud_bench::baseline::{self, Columns};

#[test]
fn every_exact_cell_of_the_committed_baseline_reproduces() {
    let committed = baseline::from_json(include_str!("../../../BENCH_baseline.json"))
        .expect("BENCH_baseline.json parses");
    let failures = baseline::compare(&baseline::measure_exact(), &committed, Columns::Exact);
    assert!(
        failures.is_empty(),
        "exact cells of BENCH_baseline.json that fail their rule \
         (row, column, committed -> measured):\n{}",
        failures.join("\n")
    );
}
