//! Pins the Montage generator's full output structure.
//!
//! `fingerprint_workflow` covers tasks, their file lists and the file
//! table, but not the adjacency the builder derives from them. This test
//! digests that too — file consumers, task parents and children, external
//! inputs and staged-out files — so any change to how `WorkflowBuilder`
//! dedups, orders or flattens a graph shows up as a digest mismatch, even
//! where no engine golden happens to notice.

use mcloud_core::{fingerprint_workflow, Canon};
use mcloud_dag::{TaskId, Workflow};
use mcloud_montage::{generate, Band, MosaicConfig};

/// Domain byte for this test's digest; distinct from the scenario domains.
const DOMAIN_STRUCTURE_PIN: u8 = 0xF5;

fn tasks(c: &mut Canon, ids: &[TaskId]) {
    c.len(ids.len());
    for t in ids {
        c.u32(t.0);
    }
}

fn structure_digest(wf: &Workflow) -> String {
    let mut c = Canon::new(DOMAIN_STRUCTURE_PIN);
    c.digest(fingerprint_workflow(wf));
    for f in wf.file_ids() {
        c.u32(wf.producer(f).map_or(u32::MAX, |t| t.0));
        tasks(&mut c, wf.consumers(f));
    }
    for t in wf.task_ids() {
        tasks(&mut c, wf.parents(t));
        tasks(&mut c, wf.children(t));
    }
    for set in [wf.external_inputs(), wf.staged_out_files()] {
        c.len(set.len());
        for f in set {
            c.u32(f.0);
        }
    }
    c.finish().to_hex()
}

/// `(degrees, seed, band, digest)`. Regenerate a row only for an intended
/// change to the generator's output, never for a builder refactor.
const PINS: &[(f64, u64, Band, &str)] = &[
    (0.5, 2008_1115, Band::J, "a73b1329409997cf1fbec83e12faf4be"),
    (0.5, 2008_1115, Band::K, "4c2cdaaa8683550460a6f1f913dc47fc"),
    (0.5, 7, Band::J, "25c401b45dcdaa7873a7081b6c4add4d"),
    (0.5, 7, Band::K, "dced97f72223863bf96c237e66effc78"),
    (1.0, 2008_1115, Band::J, "79e988325cebcf3a360f78820b358c8d"),
    (1.0, 2008_1115, Band::K, "c8512a52554543783f6be2aeff4b50e6"),
    (1.0, 7, Band::J, "fb6498ee923051d74ba9fcb447644667"),
    (1.0, 7, Band::K, "bc46a36713a5bf5221dbb97e4c5aef1e"),
    (2.0, 2008_1115, Band::J, "4d1193876368747f05c66073cb005568"),
    (2.0, 2008_1115, Band::K, "c1680ffc6623cac80114e702f3688577"),
    (2.0, 7, Band::J, "ef691586d7ff5448f4d4b45f98d0b42f"),
    (2.0, 7, Band::K, "dfb8eecdb886c297a5e60e5f93b13c74"),
    (4.0, 2008_1115, Band::J, "e43f5c82567f36c72e3464b2956d8a56"),
    (4.0, 2008_1115, Band::K, "e3dfe3487b526e8e13604c3d0813d955"),
    (4.0, 7, Band::J, "c944b4d1c1cf33000f17dba95afe0d3c"),
    (4.0, 7, Band::K, "e893d3f413c1891fbecbfc3986c962ae"),
    (8.0, 2008_1115, Band::J, "df2635d5989e22b1e64d4b06339b4127"),
    (8.0, 2008_1115, Band::K, "3f4f3f294f1a60e1b3558df2c66667f8"),
    (8.0, 7, Band::J, "e424daeef76ba5862887b4cf7ff93499"),
    (8.0, 7, Band::K, "936eaff300167aacf223c50aded40687"),
];

#[test]
fn generated_workflow_structure_is_pinned() {
    let mut mismatches = Vec::new();
    for &(degrees, seed, band, want) in PINS {
        let wf = generate(&MosaicConfig::new(degrees).seed(seed).band(band));
        let got = structure_digest(&wf);
        if got != want {
            mismatches.push(format!("({degrees:?}, {seed}, Band::{band:?}, \"{got}\"),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "workflow structure drifted; rows that now differ:\n{}",
        mismatches.join("\n")
    );
}

/// A DAX document with a control-only edge, a deliverable intermediate
/// and a file read by two tasks, as `from_dax` reads it.
const DAX_FIXTURE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<adag name="pin_fixture">
  <job id="ID0" name="project_a" transformation="mProject" runtime="92.5">
    <uses file="raw_a.fits" link="input" size="4194304"/>
    <uses file="hdr" link="input" size="301"/>
    <uses file="proj_a.fits" link="output" size="8388608"/>
  </job>
  <job id="ID1" name="project_b" transformation="mProject" runtime="88.25">
    <uses file="raw_b.fits" link="input" size="4194000"/>
    <uses file="hdr" link="input" size="301"/>
    <uses file="proj_b.fits" link="output" size="8388000"/>
  </job>
  <job id="ID2" name="add" transformation="mAdd" runtime="40">
    <uses file="proj_a.fits" link="input" size="8388608"/>
    <uses file="proj_b.fits" link="input" size="8388000"/>
    <uses file="mosaic.fits" link="output" size="16000000" deliverable="true"/>
  </job>
  <job id="ID3" name="shrink" transformation="mShrink" runtime="3.5">
    <uses file="mosaic.fits" link="input" size="16000000"/>
    <uses file="small.fits" link="output" size="160000"/>
  </job>
  <child ref="ID1">
    <parent ref="ID0"/>
  </child>
</adag>
"#;

/// `fingerprint_workflow` digests of workflows reached three ways:
/// generated, read from DAX, and merged. The digest is the content address
/// the cache stores reports under, so any storage change to `Workflow` must
/// leave these exactly as they are.
#[test]
fn workflow_fingerprints_are_pinned() {
    let generated = |degrees: f64, seed: u64| {
        fingerprint_workflow(&generate(&MosaicConfig::new(degrees).seed(seed))).to_hex()
    };
    let dax = mcloud_dag::from_dax(DAX_FIXTURE).expect("fixture parses");
    let merged = mcloud_dag::merge_workflows(
        "pin_batch",
        &[&generate(&MosaicConfig::new(0.5).seed(7)), &dax],
    )
    .expect("disjoint namespaces merge");
    let got = [
        ("generate 0.5 deg, seed 20081115", generated(0.5, 2008_1115)),
        ("generate 0.5 deg, seed 7", generated(0.5, 7)),
        ("generate 2 deg, seed 20081115", generated(2.0, 2008_1115)),
        ("generate 2 deg, seed 7", generated(2.0, 7)),
        ("from_dax fixture", fingerprint_workflow(&dax).to_hex()),
        ("merge_workflows", fingerprint_workflow(&merged).to_hex()),
    ];
    let want = [
        "17632553337ca560db2da5718944dd04",
        "cef592768d4660445b49a176d7a9ff15",
        "165e7fe292eba0ee8a45afd9de2b0697",
        "01277998ac129ab4201ce2ace52cc1dc",
        "0d38dc789e64acd680c612819ce45134",
        "f5187c28640801339a55057814980506",
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, got), want)| got != want)
        .map(|((what, got), _)| format!("{what}: \"{got}\""))
        .collect();
    assert!(
        mismatches.is_empty(),
        "workflow fingerprints drifted:\n{}",
        mismatches.join("\n")
    );
}
