//! DAX-subset XML interchange for workflows.
//!
//! The paper's simulator consumes Montage workflow descriptions in XML (the
//! output of `mDAG`) plus measured file sizes and runtimes: *"We wrote a
//! program for parsing the workflow description and creating an adjacency
//! list representation of the graph as an input to the simulator."* This
//! module is that program. The format is a small extension of the Pegasus
//! DAX `<adag>/<job>/<uses>` vocabulary that carries sizes and runtimes
//! inline, so a workflow round-trips through one self-contained document:
//!
//! ```xml
//! <?xml version="1.0" encoding="UTF-8"?>
//! <adag name="montage_1deg">
//!   <job id="ID0" name="mProject_0_0" transformation="mProject" runtime="92.50">
//!     <uses file="in_0_0.fits" link="input" size="4194304"/>
//!     <uses file="proj_0_0.fits" link="output" size="8388608"/>
//!   </job>
//! </adag>
//! ```
//!
//! Task dependencies are implied by shared file names, exactly as the
//! engine interprets them; no `<child>/<parent>` edges are needed.
//!
//! The parser is hand-rolled (no XML dependency): a strict tokenizer for
//! the subset we emit — elements, double-quoted attributes, comments, the
//! XML declaration, and the five standard entities.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::DagError;
use crate::workflow::{Workflow, WorkflowBuilder};

/// Serializes a workflow to the DAX-subset document described above.
pub fn to_dax(wf: &Workflow) -> String {
    let mut out = String::with_capacity(wf.num_tasks() * 160);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(out, "<adag name=\"{}\">", escape(wf.name()));
    for t in wf.task_ids() {
        let task = wf.task(t);
        let _ = writeln!(
            out,
            "  <job id=\"ID{}\" name=\"{}\" transformation=\"{}\" runtime=\"{}\">",
            t.0,
            escape(task.name),
            escape(task.module),
            task.runtime_s,
        );
        for &f in task.inputs {
            let meta = wf.file(f);
            let _ = writeln!(
                out,
                "    <uses file=\"{}\" link=\"input\" size=\"{}\"/>",
                escape(meta.name),
                meta.bytes
            );
        }
        for &f in task.outputs {
            let meta = wf.file(f);
            let deliverable = if meta.deliverable {
                " deliverable=\"true\""
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "    <uses file=\"{}\" link=\"output\" size=\"{}\"{}/>",
                escape(meta.name),
                meta.bytes,
                deliverable
            );
        }
        out.push_str("  </job>\n");
    }
    // Emit control-only dependencies: parent/child pairs not implied by a
    // shared file (Pegasus `<child>/<parent>` edges).
    for c in wf.task_ids() {
        let implied: std::collections::HashSet<_> = wf
            .inputs(c)
            .iter()
            .filter_map(|f| wf.producer(*f))
            .collect();
        let extras: Vec<_> = wf
            .parents(c)
            .iter()
            .filter(|p| !implied.contains(p))
            .collect();
        if !extras.is_empty() {
            let _ = writeln!(out, "  <child ref=\"ID{}\">", c.0);
            for p in extras {
                let _ = writeln!(out, "    <parent ref=\"ID{}\"/>", p.0);
            }
            out.push_str("  </child>\n");
        }
    }
    out.push_str("</adag>\n");
    out
}

/// Parses a DAX-subset document back into a validated [`Workflow`].
pub fn from_dax(text: &str) -> Result<Workflow, DagError> {
    let mut parser = Parser::new(text);
    parser.skip_prolog()?;
    let adag = parser.expect_open("adag")?;
    let name = adag.attr("name").unwrap_or("workflow").to_string();
    let mut builder = WorkflowBuilder::new(name);
    let mut by_ref: HashMap<String, crate::ids::TaskId> = HashMap::new();
    let mut control_edges: Vec<(String, String)> = Vec::new();

    loop {
        match parser.next_tag()? {
            Tag::Open(el) if el.name == "job" => {
                let id_attr = el.attr("id").map(str::to_string);
                let tid = parse_job(&mut parser, el, &mut builder)?;
                if let Some(id_attr) = id_attr {
                    by_ref.insert(id_attr, tid);
                }
            }
            Tag::Open(el) if el.name == "child" => {
                let child = el
                    .attr("ref")
                    .ok_or_else(|| parser.error("<child> missing 'ref'".into()))?
                    .to_string();
                loop {
                    match parser.next_tag()? {
                        Tag::SelfClose(p) if p.name == "parent" => {
                            let parent = p
                                .attr("ref")
                                .ok_or_else(|| parser.error("<parent> missing 'ref'".into()))?
                                .to_string();
                            control_edges.push((parent, child.clone()));
                        }
                        Tag::Close(n) if n == "child" => break,
                        _ => return Err(parser.error("expected <parent .../> or </child>".into())),
                    }
                }
            }
            Tag::Close(name) if name == "adag" => break,
            Tag::Open(el) => {
                return Err(parser.error(format!("unexpected element <{}>", el.name)));
            }
            Tag::SelfClose(el) => {
                return Err(parser.error(format!("unexpected element <{}/>", el.name)));
            }
            Tag::Close(name) => {
                return Err(parser.error(format!("unexpected closing tag </{name}>")));
            }
            Tag::Eof => return Err(parser.error("unexpected end of document".into())),
        }
    }
    for (parent, child) in control_edges {
        let p = *by_ref
            .get(&parent)
            .ok_or_else(|| parser.error(format!("<parent ref=\"{parent}\"> unknown job")))?;
        let c = *by_ref
            .get(&child)
            .ok_or_else(|| parser.error(format!("<child ref=\"{child}\"> unknown job")))?;
        builder.add_control_edge(p, c);
    }
    builder.build()
}

fn parse_job(
    parser: &mut Parser<'_>,
    el: Element,
    builder: &mut WorkflowBuilder,
) -> Result<crate::ids::TaskId, DagError> {
    let name = el
        .attr("name")
        .ok_or_else(|| parser.error("<job> missing 'name'".into()))?
        .to_string();
    let module = el.attr("transformation").unwrap_or(&name).to_string();
    let runtime: f64 = el
        .attr("runtime")
        .ok_or_else(|| parser.error("<job> missing 'runtime'".into()))?
        .parse()
        .map_err(|_| parser.error("<job> runtime is not a number".into()))?;

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut deliverables = Vec::new();
    loop {
        match parser.next_tag()? {
            Tag::SelfClose(uses) if uses.name == "uses" => {
                let file = uses
                    .attr("file")
                    .ok_or_else(|| parser.error("<uses> missing 'file'".into()))?;
                let size: u64 = uses
                    .attr("size")
                    .ok_or_else(|| parser.error("<uses> missing 'size'".into()))?
                    .parse()
                    .map_err(|_| parser.error("<uses> size is not an integer".into()))?;
                let known = builder.find_file(file).map(|id| builder.file_bytes(id));
                if let Some(known) = known.filter(|&known| known != size) {
                    return Err(parser.error(format!(
                        "file '{file}' has size {size} here but size {known} earlier"
                    )));
                }
                let id = builder.file(file, size);
                match uses.attr("link") {
                    Some("input") => inputs.push(id),
                    Some("output") => {
                        outputs.push(id);
                        if uses.attr("deliverable") == Some("true") {
                            deliverables.push(id);
                        }
                    }
                    other => {
                        return Err(parser.error(format!(
                            "<uses> link must be 'input' or 'output', got {other:?}"
                        )))
                    }
                }
            }
            Tag::Close(n) if n == "job" => break,
            _ => return Err(parser.error("expected <uses .../> or </job>".into())),
        }
    }
    let tid = builder.add_task(name, module, runtime, &inputs, &outputs)?;
    for d in deliverables {
        builder.mark_deliverable(d);
    }
    Ok(tid)
}

// --- minimal XML tokenizer -------------------------------------------------

#[derive(Debug)]
struct Element {
    name: String,
    attrs: HashMap<String, String>,
}

impl Element {
    fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.get(name).map(String::as_str)
    }
}

#[derive(Debug)]
enum Tag {
    Open(Element),
    SelfClose(Element),
    Close(String),
    Eof,
}

struct Parser<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            rest: text,
            line: 1,
        }
    }

    fn error(&self, message: String) -> DagError {
        DagError::Parse {
            line: self.line,
            message,
        }
    }

    fn advance(&mut self, n: usize) {
        let (eaten, rest) = self.rest.split_at(n);
        self.line += eaten.bytes().filter(|&b| b == b'\n').count();
        self.rest = rest;
    }

    fn skip_ws(&mut self) {
        let n = self.rest.len() - self.rest.trim_start().len();
        self.advance(n);
    }

    /// Skips the XML declaration and any comments before the root element.
    fn skip_prolog(&mut self) -> Result<(), DagError> {
        loop {
            self.skip_ws();
            if self.rest.starts_with("<?") {
                match self.rest.find("?>") {
                    Some(i) => self.advance(i + 2),
                    None => return Err(self.error("unterminated <?...?>".into())),
                }
            } else if self.rest.starts_with("<!--") {
                match self.rest.find("-->") {
                    Some(i) => self.advance(i + 3),
                    None => return Err(self.error("unterminated comment".into())),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn expect_open(&mut self, name: &str) -> Result<Element, DagError> {
        match self.next_tag()? {
            Tag::Open(el) if el.name == name => Ok(el),
            other => Err(self.error(format!("expected <{name}>, found {other:?}"))),
        }
    }

    fn next_tag(&mut self) -> Result<Tag, DagError> {
        loop {
            self.skip_ws();
            if self.rest.is_empty() {
                return Ok(Tag::Eof);
            }
            if self.rest.starts_with("<!--") {
                match self.rest.find("-->") {
                    Some(i) => {
                        self.advance(i + 3);
                        continue;
                    }
                    None => return Err(self.error("unterminated comment".into())),
                }
            }
            if !self.rest.starts_with('<') {
                return Err(self.error("expected a tag (text content is not allowed)".into()));
            }
            break;
        }
        if let Some(rest) = self.rest.strip_prefix("</") {
            let end = rest
                .find('>')
                .ok_or_else(|| self.error("unterminated closing tag".into()))?;
            let name = rest[..end].trim().to_string();
            self.advance(2 + end + 1);
            return Ok(Tag::Close(name));
        }
        // Opening or self-closing tag.
        let end = self
            .rest
            .find('>')
            .ok_or_else(|| self.error("unterminated tag".into()))?;
        let inner = &self.rest[1..end];
        let (inner, self_close) = match inner.strip_suffix('/') {
            Some(s) => (s, true),
            None => (inner, false),
        };
        let element = self.parse_element(inner)?;
        self.advance(end + 1);
        Ok(if self_close {
            Tag::SelfClose(element)
        } else {
            Tag::Open(element)
        })
    }

    fn parse_element(&self, inner: &str) -> Result<Element, DagError> {
        let inner = inner.trim();
        let name_end = inner
            .find(|c: char| c.is_whitespace())
            .unwrap_or(inner.len());
        let name = inner[..name_end].to_string();
        if name.is_empty() {
            return Err(self.error("empty tag name".into()));
        }
        let mut attrs = HashMap::new();
        let mut rest = inner[name_end..].trim_start();
        while !rest.is_empty() {
            let eq = rest
                .find('=')
                .ok_or_else(|| self.error(format!("attribute without '=' in <{name}>")))?;
            let key = rest[..eq].trim().to_string();
            rest = rest[eq + 1..].trim_start();
            if !rest.starts_with('"') {
                return Err(self.error(format!("attribute '{key}' value must be quoted")));
            }
            let close = rest[1..]
                .find('"')
                .ok_or_else(|| self.error(format!("unterminated value for '{key}'")))?;
            let value = unescape(&rest[1..1 + close]);
            attrs.insert(key, value);
            rest = rest[close + 2..].trim_start();
        }
        Ok(Element { name, attrs })
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let (repl, len) = if rest.starts_with("&amp;") {
            ('&', 5)
        } else if rest.starts_with("&lt;") {
            ('<', 4)
        } else if rest.starts_with("&gt;") {
            ('>', 4)
        } else if rest.starts_with("&quot;") {
            ('"', 6)
        } else if rest.starts_with("&apos;") {
            ('\'', 6)
        } else {
            ('&', 1) // lone ampersand: pass through
        };
        out.push(repl);
        rest = &rest[len..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    #[test]
    fn roundtrip_preserves_structure() {
        let wf = fixtures::figure3();
        let dax = to_dax(&wf);
        let back = from_dax(&dax).unwrap();
        assert_eq!(back.name(), wf.name());
        assert_eq!(back.num_tasks(), wf.num_tasks());
        assert_eq!(back.num_files(), wf.num_files());
        for t in wf.task_ids() {
            let (a, b) = (wf.task(t), back.task(t));
            assert_eq!(a.name, b.name);
            assert_eq!(a.module, b.module);
            assert!((a.runtime_s - b.runtime_s).abs() < 1e-12);
            assert_eq!(a.inputs.len(), b.inputs.len());
            assert_eq!(a.outputs.len(), b.outputs.len());
        }
        assert_eq!(back.levels(), wf.levels());
        assert_eq!(back.total_bytes(), wf.total_bytes());
    }

    #[test]
    fn roundtrip_preserves_deliverable_flag() {
        let wf = fixtures::mini_montage();
        let back = from_dax(&to_dax(&wf)).unwrap();
        let flags: Vec<bool> = back.files().map(|f| f.deliverable).collect();
        let expect: Vec<bool> = wf.files().map(|f| f.deliverable).collect();
        assert_eq!(flags, expect);
    }

    #[test]
    fn parses_handwritten_document() {
        let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- a comment -->
<adag name="tiny">
  <job id="ID0" name="gen" transformation="mGen" runtime="1.5">
    <uses file="raw.fits" link="input" size="100"/>
    <uses file="out.fits" link="output" size="250" deliverable="true"/>
  </job>
</adag>"#;
        let wf = from_dax(doc).unwrap();
        assert_eq!(wf.name(), "tiny");
        assert_eq!(wf.num_tasks(), 1);
        assert_eq!(wf.num_files(), 2);
        assert_eq!(wf.external_input_bytes(), 100);
        assert_eq!(wf.staged_out_bytes(), 250);
        assert!((wf.task(crate::TaskId(0)).runtime_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn escaping_roundtrips() {
        assert_eq!(unescape(&escape("a<b>&\"c'\u{e9}")), "a<b>&\"c'\u{e9}");
        assert_eq!(escape("x&y"), "x&amp;y");
        assert_eq!(unescape("&lt;tag&gt;"), "<tag>");
        assert_eq!(unescape("a&b"), "a&b"); // lone ampersand survives
    }

    #[test]
    fn control_edges_roundtrip_through_dax() {
        use crate::WorkflowBuilder;
        let mut b = WorkflowBuilder::new("ctl");
        let x = b.file("x", 10);
        let y = b.file("y", 10);
        let t0 = b.add_task("t0", "m", 1.0, &[], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[], &[y]).unwrap();
        b.add_control_edge(t0, t1);
        let wf = b.build().unwrap();

        let dax = to_dax(&wf);
        assert!(dax.contains("<child ref=\"ID1\">"), "{dax}");
        assert!(dax.contains("<parent ref=\"ID0\"/>"));
        let back = from_dax(&dax).unwrap();
        assert_eq!(back.levels(), wf.levels());
        assert_eq!(back.parents(crate::TaskId(1)).len(), 1);
    }

    #[test]
    fn file_implied_edges_are_not_duplicated_as_control_edges() {
        let wf = fixtures::figure3();
        let dax = to_dax(&wf);
        assert!(
            !dax.contains("<child"),
            "figure3 has only file edges:\n{dax}"
        );
    }

    #[test]
    fn pegasus_style_document_with_trailing_children() {
        let doc = r#"<adag name="peg">
  <job id="A" name="first" transformation="m" runtime="1">
    <uses file="out_a" link="output" size="5"/>
  </job>
  <job id="B" name="second" transformation="m" runtime="1">
    <uses file="out_b" link="output" size="5"/>
  </job>
  <child ref="B">
    <parent ref="A"/>
  </child>
</adag>"#;
        let wf = from_dax(doc).unwrap();
        assert_eq!(wf.levels(), vec![1, 2]);
    }

    #[test]
    fn unknown_child_ref_is_an_error() {
        let doc = r#"<adag name="peg">
  <job id="A" name="first" transformation="m" runtime="1">
    <uses file="out_a" link="output" size="5"/>
  </job>
  <child ref="NOPE"><parent ref="A"/></child>
</adag>"#;
        let err = from_dax(doc).unwrap_err();
        assert!(err.to_string().contains("NOPE"), "{err}");
    }

    #[test]
    fn error_reports_line_numbers() {
        let doc = "<?xml version=\"1.0\"?>\n<adag name=\"x\">\n  <job runtime=\"1\">\n";
        let err = from_dax(doc).unwrap_err();
        match err {
            DagError::Parse { line, message } => {
                assert_eq!(line, 3);
                assert!(message.contains("name"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn rejects_text_content() {
        let doc = "<adag name=\"x\">hello</adag>";
        assert!(matches!(from_dax(doc), Err(DagError::Parse { .. })));
    }

    #[test]
    fn rejects_bad_link_kind() {
        let doc = r#"<adag name="x">
  <job id="ID0" name="t" transformation="m" runtime="1">
    <uses file="f" link="sideways" size="1"/>
  </job>
</adag>"#;
        let err = from_dax(doc).unwrap_err();
        assert!(err.to_string().contains("link"));
    }

    #[test]
    fn rejects_unterminated_tag() {
        assert!(matches!(
            from_dax("<adag name=\"x\""),
            Err(DagError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_missing_size() {
        let doc = r#"<adag name="x">
  <job id="ID0" name="t" transformation="m" runtime="1">
    <uses file="f" link="input"/>
  </job>
</adag>"#;
        assert!(from_dax(doc).unwrap_err().to_string().contains("size"));
    }

    #[test]
    fn conflicting_file_sizes_are_a_parse_error() {
        let doc = r#"<adag name="x">
  <job id="ID0" name="t0" transformation="m" runtime="1">
    <uses file="x.fits" link="output" size="250"/>
  </job>
  <job id="ID1" name="t1" transformation="m" runtime="1">
    <uses file="x.fits" link="input" size="999"/>
  </job>
</adag>"#;
        match from_dax(doc).unwrap_err() {
            DagError::Parse { line, message } => {
                assert_eq!(line, 6);
                for part in ["'x.fits'", "999", "250"] {
                    assert!(message.contains(part), "{message}");
                }
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn dag_errors_surface_through_parse() {
        // Two producers for the same file: builder-level error via DAX.
        let doc = r#"<adag name="x">
  <job id="ID0" name="t0" transformation="m" runtime="1">
    <uses file="out" link="output" size="1"/>
  </job>
  <job id="ID1" name="t1" transformation="m" runtime="1">
    <uses file="out" link="output" size="1"/>
  </job>
</adag>"#;
        assert!(matches!(
            from_dax(doc),
            Err(DagError::DuplicateProducer { .. })
        ));
    }
}
