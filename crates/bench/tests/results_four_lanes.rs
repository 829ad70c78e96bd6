//! Every `results/` file the experiment registry writes reproduces byte
//! for byte on four worker lanes.

mod results;

#[test]
fn every_results_file_reproduces_at_four_lanes() {
    results::every_file_reproduces_at(4);
}
