//! Question 3: what does the mosaic of the entire sky cost, and when is it
//! cheaper to archive a mosaic than to recompute it?
//!
//! The paper: the 2MASS sky needs ~3,900 4-degree plates (per three-band
//! set); at $8.88 per plate that's $34,632 — or $34,125 if the input data
//! is already archived in the cloud. And a computed mosaic is worth
//! storing if a repeat request arrives within ~2 years (21.5 / 24.3 / 25.1
//! months for the 1/2/4-degree products).
//!
//! ```text
//! cargo run --release --example whole_sky
//! ```

use montage_cloud::prelude::*;

fn main() {
    let pricing = Pricing::amazon_2008();

    // --- the whole-sky campaign -----------------------------------------
    let wf = montage_4_degree();
    let staged = simulate(&wf, &ExecConfig::paper_default());
    let hosted = simulate(&wf, &ExecConfig::paper_default().prestaged(true));
    println!(
        "one 4-degree plate: {} staged, {} with in-cloud archive",
        staged.total_cost(),
        hosted.total_cost()
    );

    for (label, per_plate) in [
        ("staged", staged.total_cost()),
        ("hosted", hosted.total_cost()),
    ] {
        let sky = Campaign {
            requests: 3_900,
            cost_per_request: per_plate,
        };
        println!(
            "whole sky, 3,900 4-degree plates ({label}): {}",
            sky.total()
        );
    }
    let six_deg = Campaign {
        requests: 1_734,
        cost_per_request: simulate(
            &generate(&MosaicConfig::new(6.0)),
            &ExecConfig::paper_default(),
        )
        .total_cost(),
    };
    println!(
        "alternative tiling, 1,734 6-degree plates: {}\n",
        six_deg.total()
    );

    // --- archive or recompute? --------------------------------------------
    println!("archive-vs-recompute break-even per mosaic size:");
    for degrees in [1.0, 2.0, 4.0] {
        let wf = generate(&MosaicConfig::new(degrees));
        let report = simulate(&wf, &ExecConfig::paper_default());
        let mosaic = wf
            .staged_out_files()
            .iter()
            .map(|&f| wf.file(f))
            .find(|f| f.name.ends_with(".fits"))
            .expect("mosaic is always delivered");
        let choice = ArchiveOrRecompute {
            recompute_cost: report.costs.cpu,
            product_bytes: mosaic.bytes,
        };
        let months = choice.break_even_months(&pricing);
        println!(
            "  {degrees} deg: CPU to recompute {}, mosaic {:.0} MB -> store for {months:.1} months",
            report.costs.cpu,
            mosaic.bytes as f64 / 1e6,
        );
        for horizon in [6.0, 24.0, 48.0] {
            println!(
                "      repeat within {horizon:>2.0} months? {}",
                if choice.archive_is_cheaper(&pricing, horizon) {
                    "archive it"
                } else {
                    "recompute on demand"
                }
            );
        }
    }
    println!("\n(the paper's rule of thumb, reproduced: archive anything you expect to serve again within ~2 years)");
}
