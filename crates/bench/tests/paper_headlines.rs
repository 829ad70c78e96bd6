//! The paper's headline numbers, one test per headline. Each checks the
//! rows of `mcloud_bench::claims::CLAIMS` that hold it: the paper's value,
//! its band and the sentence it checks are written there, once.

use mcloud_bench::claims::{assert_rows, Measured};

macro_rules! headlines {
    ($($name:ident: $source:literal,)*) => {$(
        #[test]
        fn $name() {
            assert_rows(&Measured::default(), |c| c.source == $source);
        }
    )*};
}

headlines! {
    question1_montage1_extremes: "Fig. 4",
    question1_montage2_extremes: "Fig. 5",
    question1_montage4_extremes: "Fig. 6",
    cost_rises_and_time_falls_with_processors: "Figs. 4–6",
    figure10_cpu_costs: "Fig. 10",
    ccr_table_matches_paper_band: "CCR",
    question2a_on_demand_vs_provisioned: "Q2a",
    question2b_hosting_economics: "Q2b",
    question3_whole_sky_and_archival: "Q3",
    storage_costs_are_insignificant_conclusion: "Conclusion",
}
