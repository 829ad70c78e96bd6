//! Replaying measured traces, the way the paper did.
//!
//! Section 5: "The sizes of these data files and the runtime of the tasks
//! were taken from real runs of the workflow and provided as additional
//! input to the simulator." This example plays that pipeline end to end:
//! generate the DAG, overlay "measured" runtimes and sizes from CSV
//! snippets, and re-price the execution plan.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use montage_cloud::montage::{apply_runtime_overrides, apply_size_overrides};
use montage_cloud::prelude::*;

fn main() {
    let wf = montage_1_degree();
    let baseline = simulate(&wf, &ExecConfig::fixed(8));
    println!(
        "synthetic calibration: {} at {:.2} h on 8 processors",
        baseline.total_cost(),
        baseline.makespan_hours()
    );

    // Suppose a real run measured mAdd and mBgModel slower than the
    // calibration, and the final mosaic came out larger.
    let runtime_trace = "\
# task,runtime_s        (measured on the reference CPU)
mAdd,412.0
mBgModel,205.5
mShrink,88.0
";
    let size_trace = "\
# file,bytes            (measured products)
mosaic_M17.fits,201000000
mosaic_M17_small.fits,2010000
";
    let wf = apply_runtime_overrides(&wf, runtime_trace).expect("runtime trace applies");
    let wf = apply_size_overrides(&wf, size_trace).expect("size trace applies");

    let traced = simulate(&wf, &ExecConfig::fixed(8));
    println!(
        "with measured traces:  {} at {:.2} h on 8 processors",
        traced.total_cost(),
        traced.makespan_hours()
    );
    println!(
        "delta: {} and {:+.1} minutes\n",
        traced.total_cost() - baseline.total_cost(),
        (traced.makespan_hours() - baseline.makespan_hours()) * 60.0
    );

    // The archival economics shift with the measured mosaic size too.
    let pricing = Pricing::amazon_2008();
    let mosaic = wf
        .staged_out_files()
        .iter()
        .map(|&f| wf.file(f))
        .find(|f| f.name.ends_with(".fits"))
        .unwrap();
    let on_demand = simulate(&wf, &ExecConfig::paper_default());
    let archive = ArchiveOrRecompute {
        recompute_cost: on_demand.costs.cpu,
        product_bytes: mosaic.bytes,
    };
    println!(
        "measured mosaic is {:.0} MB; archive break-even now {:.1} months",
        mosaic.bytes as f64 / 1e6,
        archive.break_even_months(&pricing)
    );
}
