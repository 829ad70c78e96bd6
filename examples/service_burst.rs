//! The paper's motivating scenario, end to end: a mosaic service with a
//! small owned cluster faces a sporadic overload and decides whether (and
//! how aggressively) to burst to the cloud.
//!
//! "Assume that an application has a set of resources available to them
//! but sometimes it needs more resources than it has, so it reaches out
//! to the cloud from time to time to meet the additional demands."
//!
//! ```text
//! cargo run --release --example service_burst
//! ```

use montage_cloud::prelude::*;

fn main() {
    // A month of 1-degree requests: ~1 every 2 hours, plus two observing-
    // season overload days at 12x the base rate.
    let horizon_hours = 30.0 * 24.0;
    let arrivals = bursty(
        0.5,
        horizon_hours,
        1.0,
        &[(120.0, 24.0, 12.0), (480.0, 24.0, 12.0)],
        2008,
    );
    println!(
        "month of traffic: {} requests ({} in overload windows)\n",
        arrivals.len(),
        arrivals
            .iter()
            .filter(|a| (120.0..144.0).contains(&a.at_hours)
                || (480.0..504.0).contains(&a.at_hours))
            .count()
    );

    let mut table = Table::new(vec![
        "policy",
        "local",
        "cloud",
        "cloud spend",
        "mean wait (h)",
        "p95 turnaround (h)",
        "max wait (h)",
    ]);
    let policies: Vec<(String, Option<usize>)> = vec![
        ("never burst".to_string(), None),
        ("burst at 8 waiting".to_string(), Some(8)),
        ("burst at 2 waiting".to_string(), Some(2)),
        ("burst immediately".to_string(), Some(0)),
    ];
    for (label, threshold) in policies {
        let cfg = PoolConfig {
            slots: Slots::owned(2),
            burst_threshold: threshold,
            ..PoolConfig::default_owned()
        };
        let report = simulate_pool(arrivals.iter().copied(), &cfg, &mut NullSink, |_| {});
        table.push_row(vec![
            label,
            report.served_local.to_string(),
            report.served_cloud.to_string(),
            report.cloud_cost.to_string(),
            format!("{:.2}", report.mean_wait_hours()),
            format!("{:.2}", report.turnaround_quantile(0.95)),
            format!("{:.2}", report.max_wait_hours()),
        ]);
    }
    print!("{}", table.to_ascii());
    println!(
        "\nreading the table: a few dollars of cloud bursting collapses the \
         overload-day queue — the cloud as overflow capacity, exactly the \
         paper's pitch."
    );
}
