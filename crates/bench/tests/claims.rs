//! The paper's claims: every row of `mcloud_bench::claims::CLAIMS` holds
//! against freshly computed experiment tables (a row with a note must be
//! the divergence it describes). That `results/claims.md` is their
//! current render is checked with every other `results/` file by
//! `results_one_lane.rs` and `results_four_lanes.rs`.

use mcloud_bench::claims::{assert_rows, Measured};

#[test]
fn every_claim_holds() {
    assert_rows(&Measured::default(), |_| true);
}
