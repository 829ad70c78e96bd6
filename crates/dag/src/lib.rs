//! # mcloud-dag
//!
//! Workflow DAG model for the SC'08 Montage cloud-cost study: tasks joined
//! by write-once data files, plus the analyses the paper relies on (levels,
//! critical path, maximum parallelism, and the communication-to-computation
//! ratio) and the DAX-subset XML interchange the paper's simulator ingests.
//!
//! ```
//! use mcloud_dag::WorkflowBuilder;
//!
//! let mut b = WorkflowBuilder::new("demo");
//! let raw = b.file("raw.fits", 4_000_000);
//! let proj = b.file("proj.fits", 8_000_000);
//! b.add_task("project", "mProject", 90.0, &[raw], &[proj]).unwrap();
//! let wf = b.build().unwrap();
//!
//! assert_eq!(wf.depth(), 1);
//! assert_eq!(wf.external_input_bytes(), 4_000_000);
//! // CCR at the paper's 10 Mbps link (1.25 MB/s):
//! let ccr = wf.ccr_at_link(10_000_000.0);
//! assert!((ccr - (12e6 / 1.25e6) / 90.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod compose;
mod dax;
mod dot;
mod error;
mod ids;
mod workflow;

pub use analysis::{ModuleSummary, WorkflowStats};
pub use compose::{merge_workflows, replicate_workflow};
pub use dax::{from_dax, to_dax};
pub use dot::{to_dot, DotStyle};
pub use error::DagError;
pub use ids::{FileId, TaskId};
pub use workflow::{FileMeta, Task, Workflow, WorkflowBuilder, WorkflowShape};

/// Shared test workflows used across this crate's unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::workflow::{Workflow, WorkflowBuilder};

    /// The paper's Figure 3: seven tasks 0-6; `0 -> {1,2}`, `1 -> {3,4}`,
    /// `2 -> 5`, `{3,4,5} -> 6`; external input `a`; net outputs `g`
    /// (from 6) and `h` (from 5).
    pub fn figure3() -> Workflow {
        let mut b = WorkflowBuilder::new("figure3");
        let a = b.file("a", 1000);
        let fb = b.file("b", 1000);
        let c1 = b.file("c1", 1000);
        let c2 = b.file("c2", 1000);
        let d = b.file("d", 1000);
        let e = b.file("e", 1000);
        let f = b.file("f", 1000);
        let h = b.file("h", 1000);
        let g = b.file("g", 1000);
        b.add_task("t0", "m", 10.0, &[a], &[fb]).unwrap();
        b.add_task("t1", "m", 10.0, &[fb], &[c1]).unwrap();
        b.add_task("t2", "m", 10.0, &[fb], &[c2]).unwrap();
        b.add_task("t3", "m", 10.0, &[c1], &[d]).unwrap();
        b.add_task("t4", "m", 10.0, &[c1], &[e]).unwrap();
        b.add_task("t5", "m", 10.0, &[c2], &[f, h]).unwrap();
        b.add_task("t6", "m", 10.0, &[d, e, f], &[g]).unwrap();
        b.build().unwrap()
    }

    /// A linear chain of `n` tasks, each `runtime_s` long, passing one
    /// `bytes`-sized file to the next.
    pub fn chain(n: usize, runtime_s: f64, bytes: u64) -> Workflow {
        assert!(n >= 1);
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = b.file("f0", bytes);
        for i in 0..n {
            let next = b.file(format!("f{}", i + 1), bytes);
            b.add_task(format!("t{i}"), "step", runtime_s, &[prev], &[next])
                .unwrap();
            prev = next;
        }
        b.build().unwrap()
    }

    /// A tiny Montage-shaped workflow: two projections feeding an add whose
    /// mosaic (marked deliverable) is then shrunk.
    pub fn mini_montage() -> Workflow {
        let mut b = WorkflowBuilder::new("mini_montage");
        let raw: Vec<_> = (0..2)
            .map(|i| b.file(format!("raw{i}"), 4_000_000))
            .collect();
        let proj: Vec<_> = (0..2)
            .map(|i| b.file(format!("proj{i}"), 8_000_000))
            .collect();
        let mosaic = b.file("mosaic", 20_000_000);
        let shrunk = b.file("shrunk", 200_000);
        for i in 0..2 {
            b.add_task(
                format!("mProject_{i}"),
                "mProject",
                100.0,
                &[raw[i]],
                &[proj[i]],
            )
            .unwrap();
        }
        b.add_task("mAdd", "mAdd", 60.0, &proj, &[mosaic]).unwrap();
        b.add_task("mShrink", "mShrink", 10.0, &[mosaic], &[shrunk])
            .unwrap();
        b.mark_deliverable(mosaic);
        b.build().unwrap()
    }
}
