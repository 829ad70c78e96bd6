//! Error type for workflow construction and parsing.

use std::fmt;

/// Errors produced while building, validating, or parsing a workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum DagError {
    /// A file already has a producer task; files are write-once.
    DuplicateProducer {
        /// The contested file's name.
        file: String,
        /// Name of the task that produced it first.
        first: String,
        /// Name of the task attempting to produce it again.
        second: String,
    },
    /// The same file appears as both input and output of one task.
    SelfLoop {
        /// The offending task's name.
        task: String,
        /// The file involved.
        file: String,
    },
    /// Two tasks share the same name (names must be unique for DAX export).
    DuplicateTaskName(
        /// The duplicated name.
        String,
    ),
    /// A task runtime is negative, NaN, or infinite.
    InvalidRuntime {
        /// The offending task's name.
        task: String,
        /// The rejected runtime value (seconds).
        runtime: f64,
    },
    /// The dependency graph contains a cycle.
    Cycle {
        /// Name of one task known to be on a cycle.
        task: String,
    },
    /// The workflow has no tasks.
    Empty,
    /// A value column given to [`Workflow::from_shape`](crate::Workflow::from_shape)
    /// does not have one value per task (`runtime_s`) or per file (`bytes`).
    ColumnLength {
        /// Which column: `runtime_s` or `bytes`.
        column: &'static str,
        /// The workflow's task or file count.
        expected: usize,
        /// The values given.
        got: usize,
    },
    /// A DAX document failed to parse.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DuplicateProducer {
                file,
                first,
                second,
            } => write!(
                f,
                "file '{file}' produced by both '{first}' and '{second}' (files are write-once)"
            ),
            DagError::SelfLoop { task, file } => {
                write!(f, "task '{task}' both reads and writes file '{file}'")
            }
            DagError::DuplicateTaskName(name) => {
                write!(f, "duplicate task name '{name}'")
            }
            DagError::InvalidRuntime { task, runtime } => {
                write!(f, "task '{task}' has invalid runtime {runtime} s")
            }
            DagError::Cycle { task } => {
                write!(f, "dependency cycle detected through task '{task}'")
            }
            DagError::Empty => write!(f, "workflow contains no tasks"),
            DagError::ColumnLength {
                column,
                expected,
                got,
            } => write!(f, "column '{column}' has {got} values, expected {expected}"),
            DagError::Parse { line, message } => {
                write!(f, "DAX parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DagError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = DagError::DuplicateProducer {
            file: "x".into(),
            first: "a".into(),
            second: "b".into(),
        };
        let s = e.to_string();
        assert!(s.contains('x') && s.contains('a') && s.contains('b'));
        assert!(DagError::Empty.to_string().contains("no tasks"));
        assert!(DagError::Parse {
            line: 3,
            message: "bad tag".into()
        }
        .to_string()
        .contains("line 3"));
    }
}
