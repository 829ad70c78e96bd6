//! Graphviz DOT export, for eyeballing workflow structure (the paper's
//! Figure 1 is exactly such a rendering of a small Montage run).

use std::fmt::Write as _;

use crate::workflow::Workflow;

/// How much detail to include in the DOT rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DotStyle {
    /// One node per task, edges between dependent tasks; nodes labeled with
    /// the paper's level numbers (like Figure 1).
    #[default]
    Tasks,
    /// Bipartite: boxes for tasks, ellipses for files, edges through files.
    Bipartite,
}

/// Renders the workflow as a DOT digraph.
pub fn to_dot(wf: &Workflow, style: DotStyle) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", sanitize(wf.name()));
    out.push_str("  rankdir=TB;\n  node [fontsize=10];\n");
    match style {
        DotStyle::Tasks => {
            let levels = wf.levels();
            for t in wf.task_ids() {
                let task = wf.task(t);
                let _ = writeln!(
                    out,
                    "  {t} [shape=circle, label=\"{}\", tooltip=\"{} ({:.1}s)\"];",
                    levels[t.index()],
                    sanitize(task.name),
                    task.runtime_s
                );
            }
            for t in wf.task_ids() {
                for c in wf.children(t) {
                    let _ = writeln!(out, "  {t} -> {c};");
                }
            }
        }
        DotStyle::Bipartite => {
            for t in wf.task_ids() {
                let _ = writeln!(
                    out,
                    "  {t} [shape=box, label=\"{}\"];",
                    sanitize(wf.task(t).name)
                );
            }
            for f in wf.file_ids() {
                let meta = wf.file(f);
                let _ = writeln!(
                    out,
                    "  {f} [shape=ellipse, label=\"{}\\n{}B\"];",
                    sanitize(meta.name),
                    meta.bytes
                );
            }
            for t in wf.task_ids() {
                for &f in wf.inputs(t) {
                    let _ = writeln!(out, "  {f} -> {t};");
                }
                for &f in wf.outputs(t) {
                    let _ = writeln!(out, "  {t} -> {f};");
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

fn sanitize(s: &str) -> String {
    s.replace('"', "'")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn task_style_contains_every_edge() {
        let wf = fixtures::figure3();
        let dot = to_dot(&wf, DotStyle::Tasks);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("t5 -> t6;"));
        // Level labels, as in the paper's Figure 1.
        assert!(dot.contains("label=\"1\""));
        assert!(dot.contains("label=\"4\""));
    }

    #[test]
    fn bipartite_style_contains_files() {
        let wf = fixtures::figure3();
        let dot = to_dot(&wf, DotStyle::Bipartite);
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("f0 -> t0;")); // file a feeds t0
        assert!(dot.contains("t6 -> f8;")); // t6 writes g
    }

    #[test]
    fn quotes_are_sanitized() {
        assert_eq!(sanitize("a\"b"), "a'b");
    }
}
