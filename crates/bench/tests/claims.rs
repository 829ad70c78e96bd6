//! The paper's claims: every row of `mcloud_bench::claims::CLAIMS` holds
//! against freshly computed experiment tables (a row with a note must be
//! the divergence it describes), and `results/claims.md` is their current
//! render.

use mcloud_bench::claims::{assert_rows, render, Measured};
use mcloud_bench::results_dir;

#[test]
fn every_claim_holds_and_claims_md_is_current() {
    let m = Measured::compute();
    assert_rows(&m, |_| true);
    let committed = std::fs::read_to_string(results_dir().join("claims.md")).unwrap_or_default();
    assert!(
        committed == render(&m),
        "results/claims.md is not the current render; regenerate it with \
         `cargo run --release -p mcloud-bench --bin repro -- all`"
    );
}
