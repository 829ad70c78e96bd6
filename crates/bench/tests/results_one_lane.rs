//! Every `results/` file the experiment registry writes reproduces byte
//! for byte with the worker pool fully inline.

mod results;

#[test]
fn every_results_file_reproduces_at_one_lane() {
    results::every_file_reproduces_at(1);
}
