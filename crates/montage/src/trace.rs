//! Measured-trace overrides.
//!
//! The paper's simulator was driven by *measured* task runtimes and file
//! sizes "taken from real runs of the workflow". This module replays that
//! workflow: generate the DAG synthetically, then overlay measured values
//! from simple two-column CSVs — so anyone holding real Montage run logs
//! can reproduce the paper's exact pipeline with this crate.
//!
//! CSV format: one `name,value` pair per line; blank lines and `#`
//! comments ignored.

use std::collections::HashMap;

use mcloud_dag::{FileId, TaskId, Workflow};

/// Applies per-task runtime overrides (seconds) from CSV.
///
/// Every named task must exist; unknown names are reported so typos in a
/// trace file never pass silently. The result shares `wf`'s shape.
pub fn apply_runtime_overrides(wf: &Workflow, csv: &str) -> Result<Workflow, String> {
    let overrides = parse_pairs(csv)?;
    let by_name: HashMap<&str, TaskId> = wf.task_ids().map(|t| (wf.task(t).name, t)).collect();
    for name in overrides.keys() {
        if !by_name.contains_key(name.as_str()) {
            return Err(format!("trace names unknown task '{name}'"));
        }
    }
    for (_, v) in overrides.iter() {
        if !(v.is_finite() && *v >= 0.0) {
            return Err(format!("invalid runtime override {v}"));
        }
    }
    let mut runtime_s: Vec<f64> = wf.task_ids().map(|t| wf.runtime_s(t)).collect();
    for (name, v) in &overrides {
        runtime_s[by_name[name.as_str()].index()] = *v;
    }
    let bytes = wf.file_ids().map(|f| wf.bytes(f)).collect();
    wf.with_values(runtime_s, bytes).map_err(|e| e.to_string())
}

/// Applies per-file size overrides (bytes) from CSV. The result shares
/// `wf`'s shape.
pub fn apply_size_overrides(wf: &Workflow, csv: &str) -> Result<Workflow, String> {
    let overrides = parse_pairs(csv)?;
    let by_name: HashMap<&str, FileId> = wf.file_ids().map(|f| (wf.file(f).name, f)).collect();
    let mut bytes: Vec<u64> = wf.file_ids().map(|f| wf.bytes(f)).collect();
    for (name, v) in overrides.iter() {
        let Some(&file) = by_name.get(name.as_str()) else {
            return Err(format!("trace names unknown file '{name}'"));
        };
        if !(v.is_finite() && *v >= 0.0) {
            return Err(format!("invalid size override {v}"));
        }
        bytes[file.index()] = *v as u64;
    }
    let runtime_s = wf.task_ids().map(|t| wf.runtime_s(t)).collect();
    wf.with_values(runtime_s, bytes).map_err(|e| e.to_string())
}

fn parse_pairs(csv: &str) -> Result<HashMap<String, f64>, String> {
    let mut out = HashMap::new();
    for (lineno, line) in csv.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .split_once(',')
            .ok_or_else(|| format!("line {}: expected 'name,value'", lineno + 1))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("line {}: '{}' is not a number", lineno + 1, value.trim()))?;
        if out.insert(name.trim().to_string(), value).is_some() {
            return Err(format!(
                "line {}: duplicate entry for '{}'",
                lineno + 1,
                name.trim()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, MosaicConfig};

    #[test]
    fn runtime_overrides_apply_and_preserve_the_rest() {
        let wf = generate(&MosaicConfig::new(0.5));
        let original_add = wf.tasks().find(|t| t.name == "mAdd").unwrap().runtime_s;
        let csv = "# measured runtimes\nmAdd, 1234.5\nmShrink,7.25\n";
        let traced = apply_runtime_overrides(&wf, csv).unwrap();
        let get = |name: &str| traced.tasks().find(|t| t.name == name).unwrap().runtime_s;
        assert!((get("mAdd") - 1234.5).abs() < 1e-12);
        assert!((get("mShrink") - 7.25).abs() < 1e-12);
        assert_ne!(original_add, 1234.5);
        // Untouched tasks keep their generated runtimes; structure intact.
        assert_eq!(traced.num_tasks(), wf.num_tasks());
        assert_eq!(traced.levels(), wf.levels());
        assert_eq!(traced.total_bytes(), wf.total_bytes());
    }

    #[test]
    fn size_overrides_apply_by_file_name() {
        let wf = generate(&MosaicConfig::new(0.5));
        let mosaic_name = wf
            .files()
            .find(|f| f.name.starts_with("mosaic_") && f.name.ends_with(".fits"))
            .unwrap()
            .name
            .to_string();
        let csv = format!("{mosaic_name},999000000\n");
        let traced = apply_size_overrides(&wf, &csv).unwrap();
        let got = traced.files().find(|f| f.name == mosaic_name).unwrap();
        assert_eq!(got.bytes, 999_000_000);
        assert!(got.deliverable, "flags preserved");
        assert!((traced.total_runtime_s() - wf.total_runtime_s()).abs() < 1e-9);
    }

    #[test]
    fn unknown_names_are_rejected() {
        let wf = generate(&MosaicConfig::new(0.5));
        assert!(apply_runtime_overrides(&wf, "mBogus,1\n")
            .unwrap_err()
            .contains("mBogus"));
        assert!(apply_size_overrides(&wf, "nope.fits,1\n")
            .unwrap_err()
            .contains("nope.fits"));
    }

    #[test]
    fn malformed_csv_is_rejected_with_line_numbers() {
        let wf = generate(&MosaicConfig::new(0.5));
        let err = apply_runtime_overrides(&wf, "mAdd 12\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = apply_runtime_overrides(&wf, "mAdd,twelve\n").unwrap_err();
        assert!(err.contains("not a number"), "{err}");
        let err = apply_runtime_overrides(&wf, "mAdd,1\nmAdd,2\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let err = apply_runtime_overrides(&wf, "mAdd,-5\n").unwrap_err();
        assert!(err.contains("invalid runtime"), "{err}");
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let wf = generate(&MosaicConfig::new(0.5));
        let traced = apply_runtime_overrides(&wf, "\n# header\n\nmJPEG, 2.0\n").unwrap();
        let jpeg = traced.tasks().find(|t| t.name == "mJPEG").unwrap();
        assert!((jpeg.runtime_s - 2.0).abs() < 1e-12);
    }
}
