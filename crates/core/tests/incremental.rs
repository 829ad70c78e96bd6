//! Checkpoint/fork re-simulation is byte-identical to from-scratch runs.
//!
//! An [`IncrementalChain`] walking a bandwidth axis must return exactly
//! the report `simulate` produces at every point — resuming from a
//! checkpoint when the divergence witness allows it, and silently falling
//! back to `t = 0` when it cannot. These tests pin both halves: equality
//! always, and the resume/fallback decision where the design promises it.
//! The seeded differential test over drawn configurations lives with the
//! sweep drivers (`mcloud-sweep`).

use mcloud_core::{simulate, DataMode, ExecConfig, IncrementalChain};
use mcloud_montage::{generate, MosaicConfig};

/// Runs `cfgs` through a chain and asserts byte-identity with sequential
/// `simulate` at every point; returns the chain for stats assertions.
fn assert_chain_matches_scratch(
    wf: &mcloud_dag::Workflow,
    cfgs: &[ExecConfig],
    label: &str,
) -> IncrementalChain {
    let mut chain = IncrementalChain::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let next = cfgs.get(i + 1);
        let incremental = chain.run_point(wf, cfg, next);
        let scratch = simulate(wf, cfg);
        assert_eq!(incremental, scratch, "{label}: point {i} drifted");
    }
    chain
}

fn bandwidth_cfgs(base: &ExecConfig, mbps: &[f64]) -> Vec<ExecConfig> {
    mbps.iter()
        .map(|&m| base.clone().bandwidth(m * 1e6))
        .collect()
}

#[test]
fn bandwidth_axis_matches_scratch() {
    let wf = generate(&MosaicConfig::new(1.0));
    let mbps = [5.0, 10.0, 20.0, 40.0, 100.0];
    for (label, base, expect_resumes) in [
        // Regular staging submits its first transfer at t = 0, before any
        // snapshot exists: sound, but every point falls back.
        ("cold", ExecConfig::fixed(8), false),
        // Prestaged inputs defer the first transfer to the final
        // stage-out, so almost the whole run is shared.
        ("prestaged", ExecConfig::fixed(8).prestaged(true), true),
    ] {
        let cfgs = bandwidth_cfgs(&base, &mbps);
        let chain = assert_chain_matches_scratch(&wf, &cfgs, &format!("bandwidth/{label}"));
        let stats = chain.stats();
        assert_eq!(
            stats.resumed > 0,
            expect_resumes,
            "bandwidth/{label}: stats {stats:?}"
        );
    }
}

#[test]
fn traced_points_fall_back_and_keep_their_traces() {
    let wf = generate(&MosaicConfig::new(1.0));
    let base = ExecConfig::fixed(8).prestaged(true).with_trace();
    let cfgs = bandwidth_cfgs(&base, &[5.0, 10.0]);
    let chain = assert_chain_matches_scratch(&wf, &cfgs, "traced");
    let stats = chain.stats();
    assert_eq!(stats.resumed, 0, "traces require full-fidelity runs");
    // And the reports really do carry traces (checked for equality above).
    let r = simulate(&wf, &cfgs[0]);
    assert!(r.trace.is_some());
}

#[test]
fn chain_survives_interleaved_unrelated_configs() {
    // A point that differs from its predecessor in more than the
    // bandwidth (here the mode, then the processor count) is not
    // chainable: it must fall back without poisoning correctness before
    // or after it.
    let wf = generate(&MosaicConfig::new(0.5));
    let base = ExecConfig::fixed(8).prestaged(true);
    let mut cfgs = bandwidth_cfgs(&base, &[5.0, 10.0]);
    cfgs.push(base.clone().mode(DataMode::DynamicCleanup));
    cfgs.extend(bandwidth_cfgs(&base, &[20.0, 40.0]));
    cfgs.extend(bandwidth_cfgs(
        &ExecConfig::fixed(16).prestaged(true),
        &[40.0],
    ));
    let chain = assert_chain_matches_scratch(&wf, &cfgs, "interleaved");
    let stats = chain.stats();
    // Resumed: 10 after 5, and 40 after 20; the rest fall back.
    assert_eq!((stats.points, stats.resumed), (6, 2), "{stats:?}");
}
