//! The paper's headline numbers, reproduced end-to-end with tolerance
//! bands. Each assertion cites the sentence in the paper it checks.
//!
//! Absolute dollars are expected to track within ~15% (the workload is a
//! calibrated synthetic substitute for the authors' measured traces); the
//! *orderings* are expected to hold exactly.

use montage_cloud::prelude::*;

fn close(got: f64, want: f64, rel: f64, what: &str) {
    assert!(
        (got - want).abs() / want.abs() <= rel,
        "{what}: got {got}, paper {want} (tolerance {rel})"
    );
}

#[test]
fn question1_montage1_extremes() {
    // "60 cents for the 1 processor computation versus almost 4$ with 128
    // processors ... longest execution time of 5.5 hours. The runtime on
    // 128 processors is only 18 minutes."
    let wf = montage_1_degree();
    let one = simulate(&wf, &ExecConfig::fixed(1));
    close(one.total_cost().dollars(), 0.60, 0.10, "1deg 1-proc cost");
    close(one.makespan_hours(), 5.5, 0.10, "1deg 1-proc hours");
    let many = simulate(&wf, &ExecConfig::fixed(128));
    close(many.total_cost().dollars(), 4.0, 0.15, "1deg 128-proc cost");
    close(many.makespan_hours(), 0.3, 0.25, "1deg 128-proc hours");
}

#[test]
fn question1_montage2_extremes() {
    // "the cost of running the workflow on 1 processor is $2.25 with a
    // runtime of 20.5 hours whereas ... 128 processors results in a
    // runtime of less than 40 minutes with a cost of less than $8."
    let wf = montage_2_degree();
    let one = simulate(&wf, &ExecConfig::fixed(1));
    close(one.total_cost().dollars(), 2.25, 0.10, "2deg 1-proc cost");
    close(one.makespan_hours(), 20.5, 0.10, "2deg 1-proc hours");
    let many = simulate(&wf, &ExecConfig::fixed(128));
    assert!(many.total_cost().dollars() < 8.0, "2deg 128-proc under $8");
    assert!(
        many.makespan_hours() < 40.0 / 60.0,
        "2deg 128-proc under 40 min"
    );
}

#[test]
fn question1_montage4_extremes() {
    // "running on 1 processor costs $9 with a runtime of 85 hours".
    let wf = montage_4_degree();
    let one = simulate(&wf, &ExecConfig::fixed(1));
    close(one.total_cost().dollars(), 9.0, 0.10, "4deg 1-proc cost");
    close(one.makespan_hours(), 85.0, 0.10, "4deg 1-proc hours");
    // The 128-processor point: the paper prints $13.92 / ~1 h, but its own
    // 10 Mbps link needs 1.08 h to move the inputs plus 0.50 h for the
    // mosaic, so the floor is ~1.6 h; we assert our cost lands between the
    // paper's figure and 2x it, and the makespan near the wire floor.
    let many = simulate(&wf, &ExecConfig::fixed(128));
    assert!(
        (13.92..=28.0).contains(&many.total_cost().dollars()),
        "4deg 128-proc cost {}",
        many.total_cost()
    );
    close(many.makespan_hours(), 1.6, 0.25, "4deg 128-proc hours");
}

#[test]
fn cost_rises_and_time_falls_with_processors() {
    // The shape of Figures 4-6: "The total cost is an increasing function
    // of the number of the allocated processors while the execution time
    // is a decreasing function".
    for wf in [montage_1_degree(), montage_2_degree()] {
        let points = processor_sweep(
            &wf,
            &ExecConfig::paper_default(),
            &geometric_processors(128),
        );
        for w in points.windows(2) {
            assert!(
                w[1].report.total_cost() >= w[0].report.total_cost(),
                "{}: cost dipped between {} and {} procs",
                wf.name(),
                w[0].processors,
                w[1].processors
            );
            assert!(
                w[1].report.makespan <= w[0].report.makespan,
                "{}: time rose between {} and {} procs",
                wf.name(),
                w[0].processors,
                w[1].processors
            );
        }
        // Storage cost declines as processors increase ("the storage costs
        // decline but the CPU costs increase").
        assert!(
            points.last().unwrap().report.costs.storage
                < points.first().unwrap().report.costs.storage
        );
        // And storage is negligible next to CPU everywhere (log-scale plot).
        for p in &points {
            assert!(p.report.costs.storage.dollars() < 0.05 * p.report.costs.cpu.dollars());
        }
    }
}

#[test]
fn question2a_on_demand_vs_provisioned() {
    // "the cost of running the 4 degree square Montage workflow on 128
    // processors is $13.92 in the provisioned case, whereas the workflow
    // which is charged only for the resources used is only $8.89" — the
    // on-demand cost is far below the 128-proc provisioned cost.
    let wf = montage_4_degree();
    let provisioned = simulate(&wf, &ExecConfig::fixed(128));
    let on_demand = simulate(&wf, &ExecConfig::paper_default());
    close(
        on_demand.total_cost().dollars(),
        8.89,
        0.10,
        "4deg on-demand",
    );
    assert!(provisioned.total_cost().dollars() > 1.4 * on_demand.total_cost().dollars());
    // Utilization is the culprit: "CPU utilization can be low in the
    // provisioned case."
    assert!(provisioned.cpu_utilization < 0.8);
}

#[test]
fn figure10_cpu_costs() {
    // Figure 10 / Question 3: CPU costs of $0.56, $2.03, $8.40 for the
    // 1/2/4-degree workflows under utilization-based billing.
    for (wf, want) in [
        (montage_1_degree(), 0.56),
        (montage_2_degree(), 2.03),
        (montage_4_degree(), 8.40),
    ] {
        let r = simulate(&wf, &ExecConfig::paper_default());
        close(r.costs.cpu.dollars(), want, 0.06, "figure 10 CPU cost");
    }
}

#[test]
fn ccr_table_matches_paper_band() {
    // Section 6 table: CCR = 0.053 / 0.053 / 0.045 at 10 Mbps.
    close(
        montage_1_degree().ccr_at_link(10e6),
        0.053,
        0.05,
        "1deg CCR",
    );
    close(
        montage_2_degree().ccr_at_link(10e6),
        0.053,
        0.12,
        "2deg CCR",
    );
    close(
        montage_4_degree().ccr_at_link(10e6),
        0.045,
        0.05,
        "4deg CCR",
    );
}

#[test]
fn question2b_hosting_economics() {
    // "$1,800 per month ... at least $1,800/($2.22-$2.12) = 18,000 mosaics
    // per month ... an additional $1,200" — rates reproduce exactly; the
    // per-request saving (and hence the break-even volume) depends on the
    // simulated input volume, so only its sign and order are pinned.
    let pricing = Pricing::amazon_2008();
    let twelve_tb = 12_000 * 1_000_000_000u64;
    assert_eq!(pricing.monthly_storage_cost(twelve_tb).dollars(), 1800.0);
    assert_eq!(pricing.transfer_in_cost(twelve_tb).dollars(), 1200.0);

    let wf = montage_2_degree();
    let staged = simulate(&wf, &ExecConfig::paper_default());
    let hosted = simulate(&wf, &ExecConfig::paper_default().prestaged(true));
    close(
        staged.total_cost().dollars(),
        2.22,
        0.06,
        "2deg staged request",
    );
    close(
        hosted.total_cost().dollars(),
        2.12,
        0.06,
        "2deg hosted request",
    );
    let hosting = DatasetHosting {
        dataset_bytes: twelve_tb,
        request_cost_staged: staged.total_cost(),
        request_cost_hosted: hosted.total_cost(),
    };
    let be = hosting.break_even_requests_per_month(&pricing);
    assert!(
        (10_000.0..200_000.0).contains(&be),
        "break-even volume {be}"
    );
}

#[test]
fn question3_whole_sky_and_archival() {
    // "3,900 x $8.88 = $34,632" and break-evens of 21.52 / 24.25 / 25.12
    // months for the 1/2/4-degree mosaics.
    let pricing = Pricing::amazon_2008();
    let wf = montage_4_degree();
    let per_plate = simulate(&wf, &ExecConfig::paper_default()).total_cost();
    let sky = Campaign {
        requests: 3_900,
        cost_per_request: per_plate,
    };
    close(sky.total().dollars(), 34_632.0, 0.10, "whole-sky cost");

    for (wf, want_months) in [
        (montage_1_degree(), 21.52),
        (montage_2_degree(), 24.25),
        (montage_4_degree(), 25.12),
    ] {
        let r = simulate(&wf, &ExecConfig::paper_default());
        let mosaic = wf
            .staged_out_files()
            .iter()
            .map(|&f| wf.file(f))
            .find(|f| f.name.ends_with(".fits"))
            .unwrap();
        let months = ArchiveOrRecompute {
            recompute_cost: r.costs.cpu,
            product_bytes: mosaic.bytes,
        }
        .break_even_months(&pricing);
        close(months, want_months, 0.08, "archival break-even");
    }
}

#[test]
fn storage_costs_are_insignificant_conclusion() {
    // The paper's conclusion: "for a data-intensive application with a
    // small computational granularity, the storage costs were
    // insignificant as compared to the CPU costs."
    for wf in [montage_1_degree(), montage_2_degree(), montage_4_degree()] {
        for mode in DataMode::ALL {
            let r = simulate(&wf, &ExecConfig::on_demand(mode));
            assert!(
                r.costs.storage.dollars() < 0.02 * r.costs.cpu.dollars(),
                "{} {}: storage {} vs cpu {}",
                wf.name(),
                mode.label(),
                r.costs.storage,
                r.costs.cpu
            );
        }
    }
}
