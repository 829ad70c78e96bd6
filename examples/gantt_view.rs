//! Visualize a schedule: text Gantt charts of the 1-degree mosaic on
//! different provisioning levels, showing where the money goes idle.
//!
//! ```text
//! cargo run --release --example gantt_view
//! ```

use montage_cloud::core::gantt_text;
use montage_cloud::prelude::*;

fn main() {
    let wf = montage_1_degree();
    for procs in [4u32, 16] {
        let (r, trace) = simulate_traced(&wf, &ExecConfig::fixed(procs));
        println!(
            "--- {procs} processors: {} at {:.2} h, utilization {:.0}% ---",
            r.total_cost(),
            r.makespan_hours(),
            r.cpu_utilization * 100.0
        );
        print!("{}", gantt_text(&wf, &r, trace.events(), 100));
        println!();
    }
    println!(
        "legend: each row is a processor; 'm' cells are running Montage tasks,\n\
         '.' cells are idle-but-billed time. More processors = more white space\n\
         = the utilization loss behind the paper's provisioned-vs-on-demand gap."
    );
}
