//! The check behind `results_one_lane.rs` and `results_four_lanes.rs`:
//! every file the experiment registry renders equals its committed twin
//! under `results/`. Each lane count is its own test binary because the
//! global worker pool reads `MCLOUD_WORKERS` once per process.

use mcloud_bench::{registry, results_dir};

/// Renders every `results/` file with the global pool at `lanes` lanes and
/// panics naming each file that differs from, or is missing among, the
/// committed ones. Call it before anything starts the pool.
pub fn every_file_reproduces_at(lanes: usize) {
    std::env::set_var("MCLOUD_WORKERS", lanes.to_string());
    assert_eq!(
        mcloud_simkit::configured_lanes(),
        lanes,
        "the pool started early"
    );
    let mut failures = Vec::new();
    for (name, rendered) in registry::render_all() {
        let what = format!("results/{name} at {lanes} lanes");
        match std::fs::read_to_string(results_dir().join(&name)) {
            Ok(committed) if committed == rendered => {}
            Ok(committed) => {
                let line = committed
                    .lines()
                    .zip(rendered.lines())
                    .position(|(a, b)| a != b)
                    .unwrap_or(committed.lines().count().min(rendered.lines().count()));
                failures.push(format!(
                    "{what}: differs from the committed file, first on line {}",
                    line + 1
                ));
            }
            Err(err) => failures.push(format!("{what}: rendered but not committed ({err})")),
        }
    }
    assert!(
        failures.is_empty(),
        "{}\nregenerate with `cargo run --release -p mcloud-bench --bin repro -- all` \
         after an intended change and review the diff",
        failures.join("\n")
    );
}
