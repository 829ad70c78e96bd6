//! Randomized-property tests of the execution engine over random layered
//! DAGs, driven by seeded deterministic generators so failures reproduce.

use mcloud_core::{simulate, DataMode, ExecConfig};
use mcloud_dag::{FileId, Workflow, WorkflowBuilder};

const CASES: u64 = 48;

/// Random layered workflow with external inputs, shared intermediates, and
/// varied sizes/runtimes. Small enough to simulate hundreds of cases.
fn layered_workflow(seed: u64) -> Workflow {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let n_layers = 1 + (next() as usize) % 3;
    let widths: Vec<usize> = (0..n_layers).map(|_| 1 + (next() as usize) % 4).collect();
    let mut b = WorkflowBuilder::new("prop");
    let mut produced: Vec<FileId> = Vec::new();
    let mut task_no = 0usize;
    for (layer, &width) in widths.iter().enumerate() {
        let mut new_files = Vec::new();
        for w in 0..width {
            let out = b.file(format!("out_{layer}_{w}"), 1_000 + next() % 50_000_000);
            let inputs: Vec<FileId> = if produced.is_empty() {
                let ext = b.file(format!("ext_{layer}_{w}"), 1_000 + next() % 50_000_000);
                vec![ext]
            } else {
                let k = 1 + (next() as usize) % 3.min(produced.len());
                (0..k)
                    .map(|_| produced[(next() as usize) % produced.len()])
                    .collect()
            };
            let runtime = 1.0 + (next() % 3_000) as f64 / 10.0;
            b.add_task(format!("t{task_no}"), "m", runtime, &inputs, &[out])
                .unwrap();
            task_no += 1;
            new_files.push(out);
        }
        produced.extend(new_files);
    }
    b.build().unwrap()
}

/// "The amount of data transfer in the Regular and the Cleanup mode are
/// the same" — on any DAG.
#[test]
fn regular_and_cleanup_move_identical_bytes() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0001 ^ case);
        let reg = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
        let clean = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
        assert_eq!(reg.bytes_in, clean.bytes_in, "case {case}");
        assert_eq!(reg.bytes_out, clean.bytes_out, "case {case}");
        assert_eq!(reg.transfers_in, clean.transfers_in, "case {case}");
        assert_eq!(reg.transfers_out, clean.transfers_out, "case {case}");
        // Identical schedule too: cleanup only changes deletions.
        assert_eq!(reg.makespan, clean.makespan, "case {case}");
    }
}

/// Remote I/O always moves at least as much data in each direction.
#[test]
fn remote_io_transfers_dominate() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0002 ^ case);
        let reg = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
        let rio = simulate(&wf, &ExecConfig::on_demand(DataMode::RemoteIo));
        assert!(rio.bytes_in >= reg.bytes_in, "case {case}");
        assert!(rio.bytes_out >= reg.bytes_out, "case {case}");
        // (Makespan ordering is NOT asserted: Regular fetches every
        // external up front, so a remote-I/O run that touches an early
        // subset of the data can occasionally finish sooner.)
    }
}

/// Cleanup can only reduce the storage integral, never the transfers.
#[test]
fn cleanup_never_increases_storage() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0003 ^ case);
        let reg = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
        let clean = simulate(&wf, &ExecConfig::on_demand(DataMode::DynamicCleanup));
        assert!(
            clean.storage_byte_seconds <= reg.storage_byte_seconds + 1e-6,
            "case {case}"
        );
        assert!(
            clean.storage_peak_bytes <= reg.storage_peak_bytes + 1e-6,
            "case {case}"
        );
    }
}

/// Makespan lower bounds hold for every processor count.
#[test]
fn makespan_lower_bounds() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0004 ^ case);
        let p = 1 + (case % 7) as u32;
        let r = simulate(&wf, &ExecConfig::fixed(p));
        let m = r.makespan.as_secs_f64();
        assert!(m + 1e-6 >= wf.critical_path_s(), "case {case}");
        assert!(m + 1e-6 >= wf.total_runtime_s() / p as f64, "case {case}");
        // And the makespan covers at least the unavoidable transfers.
        let wire_secs = (wf.external_input_bytes() + wf.staged_out_bytes()) as f64 * 8.0 / 10e6;
        assert!(m + 1e-6 >= wire_secs, "case {case}");
    }
}

/// Costs are non-negative, total is the sum of parts, and CPU billing
/// under on-demand equals the runtime sum at the configured rate.
#[test]
fn cost_accounting_is_consistent() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0005 ^ case);
        for mode in DataMode::ALL {
            let r = simulate(&wf, &ExecConfig::on_demand(mode));
            assert!(r.costs.cpu.dollars() >= 0.0, "case {case}");
            assert!(r.costs.storage.dollars() >= 0.0, "case {case}");
            assert!(r.costs.transfer_in.dollars() >= 0.0, "case {case}");
            assert!(r.costs.transfer_out.dollars() >= 0.0, "case {case}");
            let total = r.costs.cpu + r.costs.storage + r.costs.transfer_in + r.costs.transfer_out;
            assert!(r.total_cost().approx_eq(total, 1e-9), "case {case}");
            let expect_cpu = wf.total_runtime_s() / 3600.0 * 0.10;
            assert!(
                (r.costs.cpu.dollars() - expect_cpu).abs() < 1e-9,
                "case {case}"
            );
            // Transfer costs follow the byte counters exactly.
            let expect_in = r.bytes_in as f64 / 1e9 * 0.10;
            assert!(
                (r.costs.transfer_in.dollars() - expect_in).abs() < 1e-9,
                "case {case}"
            );
        }
    }
}

/// Two runs of the same plan are byte-identical (determinism).
#[test]
fn simulation_is_deterministic() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0006 ^ case);
        let p = 1 + (case % 5) as u32;
        let cfg = ExecConfig::fixed(p).mode(DataMode::DynamicCleanup);
        assert_eq!(simulate(&wf, &cfg), simulate(&wf, &cfg), "case {case}");
    }
}

/// A faster link never lengthens an on-demand Regular run.
#[test]
fn bandwidth_is_monotone() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0007 ^ case);
        let slow = simulate(
            &wf,
            &ExecConfig::on_demand(DataMode::Regular).bandwidth(5e6),
        );
        let fast = simulate(
            &wf,
            &ExecConfig::on_demand(DataMode::Regular).bandwidth(50e6),
        );
        assert!(fast.makespan <= slow.makespan, "case {case}");
        // Bytes moved are bandwidth-independent.
        assert_eq!(fast.bytes_in, slow.bytes_in, "case {case}");
        assert_eq!(fast.bytes_out, slow.bytes_out, "case {case}");
    }
}

/// Doubling every rate doubles the bill.
#[test]
fn cost_is_linear_in_rates() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0008 ^ case);
        let base = ExecConfig::on_demand(DataMode::Regular);
        let mut doubled = base.clone();
        doubled.pricing.storage_per_gb_month *= 2.0;
        doubled.pricing.transfer_in_per_gb *= 2.0;
        doubled.pricing.transfer_out_per_gb *= 2.0;
        doubled.pricing.cpu_per_hour *= 2.0;
        let a = simulate(&wf, &base);
        let b = simulate(&wf, &doubled);
        assert!(
            b.total_cost().approx_eq(a.total_cost() * 2.0, 1e-9),
            "case {case}"
        );
        assert_eq!(a.makespan, b.makespan, "case {case}"); // pricing never warps time
    }
}

/// Storage integral is bounded by peak x makespan.
#[test]
fn storage_integral_bounded_by_peak() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_0009 ^ case);
        for mode in DataMode::ALL {
            let r = simulate(&wf, &ExecConfig::on_demand(mode));
            let bound = r.storage_peak_bytes * r.makespan.as_secs_f64();
            assert!(
                r.storage_byte_seconds <= bound + 1e-6,
                "case {case} {}: {} > {}",
                mode.label(),
                r.storage_byte_seconds,
                bound
            );
        }
    }
}

/// Pre-staging inputs never moves more data in, and in Regular mode (where
/// the schedule shifts uniformly left) it never lengthens the run or
/// raises the bill. (In remote I/O, prestaging can reorder the FCFS link
/// and occasionally shift the makespan either way.)
#[test]
fn prestaging_never_hurts() {
    for case in 0..CASES {
        let wf = layered_workflow(0xC02E_000A ^ case);
        for mode in DataMode::ALL {
            let normal = simulate(&wf, &ExecConfig::on_demand(mode));
            let pre = simulate(&wf, &ExecConfig::on_demand(mode).prestaged(true));
            assert!(pre.bytes_in <= normal.bytes_in, "case {case}");
            assert_eq!(pre.bytes_out, normal.bytes_out, "case {case}");
        }
        let normal = simulate(&wf, &ExecConfig::on_demand(DataMode::Regular));
        let pre = simulate(
            &wf,
            &ExecConfig::on_demand(DataMode::Regular).prestaged(true),
        );
        assert!(pre.makespan <= normal.makespan, "case {case}");
        assert!(
            pre.total_cost() <= normal.total_cost() + mcloud_cost::Money::from_dollars(1e-9),
            "case {case}"
        );
    }
}
