//! Build your own workflow: the paper's Figure 3 example, by hand, through
//! the public DAG API — then compare the three data-management modes on
//! it, round-trip it through DAX XML, and emit a Graphviz rendering.
//!
//! This is the workflow Section 3 uses to *define* the modes: seven tasks,
//! one external input `a`, intermediates `b..f`, and net outputs `g`, `h`.
//!
//! ```text
//! cargo run --release --example custom_workflow
//! ```

use montage_cloud::dag::{from_dax, to_dax, to_dot, DotStyle};
use montage_cloud::prelude::*;

fn main() {
    // --- build Figure 3 with the builder API -------------------------------
    let mb = 25_000_000u64; // 25 MB per file = 20 s on the 10 Mbps link
    let mut b = WorkflowBuilder::new("figure3_by_hand");
    let a = b.file("a", mb);
    let fb = b.file("b", mb);
    let c1 = b.file("c1", mb);
    let c2 = b.file("c2", mb);
    let d = b.file("d", mb);
    let e = b.file("e", mb);
    let f = b.file("f", mb);
    let h = b.file("h", mb);
    let g = b.file("g", mb);
    b.add_task("task0", "stage", 120.0, &[a], &[fb]).unwrap();
    b.add_task("task1", "stage", 120.0, &[fb], &[c1]).unwrap();
    b.add_task("task2", "stage", 120.0, &[fb], &[c2]).unwrap();
    b.add_task("task3", "stage", 120.0, &[c1], &[d]).unwrap();
    b.add_task("task4", "stage", 120.0, &[c1], &[e]).unwrap();
    b.add_task("task5", "stage", 120.0, &[c2], &[f, h]).unwrap();
    b.add_task("task6", "gather", 120.0, &[d, e, f], &[g])
        .unwrap();
    let wf = b.build().unwrap();

    println!(
        "{}: {} tasks over {} levels; external inputs: {:?}; net outputs: {:?}\n",
        wf.name(),
        wf.num_tasks(),
        wf.depth(),
        wf.external_inputs()
            .iter()
            .map(|&id| wf.file(id).name)
            .collect::<Vec<_>>(),
        wf.staged_out_files()
            .iter()
            .map(|&id| wf.file(id).name)
            .collect::<Vec<_>>(),
    );

    // --- the three modes, exactly as Section 3 narrates them ---------------
    for point in mode_matrix(&wf, &ExecConfig::paper_default()) {
        let r = &point.report;
        println!(
            "{:>10}: in {:>5.1} MB, out {:>5.1} MB, storage {:.4} GBh, DM cost {}",
            point.mode.label(),
            r.gb_in() * 1000.0,
            r.gb_out() * 1000.0,
            r.storage_gb_hours(),
            r.costs.data_management(),
        );
    }

    // --- interchange -------------------------------------------------------
    let dax = to_dax(&wf);
    let back = from_dax(&dax).expect("our own DAX always parses");
    assert_eq!(back.num_tasks(), wf.num_tasks());
    println!("\nDAX round-trip OK ({} bytes); first lines:", dax.len());
    for line in dax.lines().take(5) {
        println!("  {line}");
    }

    let dot = to_dot(&wf, DotStyle::Tasks);
    println!("\nGraphviz (pipe into `dot -Tpng`):\n{dot}");
}
