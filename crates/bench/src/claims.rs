//! The paper's claims, each written once, as data.
//!
//! Every row of [`CLAIMS`] names the figure or question of the SC'08
//! evaluation it belongs to and holds the paper's value with its tolerance
//! (or the ordering the paper states), the cells of the experiment tables
//! it is measured by, and the sentence it checks. `repro all` renders the
//! table to `results/claims.md`; `crates/bench/tests/claims.rs` checks
//! every row and that the committed file is the current render, and
//! `crates/bench/tests/paper_headlines.rs` checks each headline's rows.
//!
//! Bands are open: a value on a band's edge is outside it. Orderings hold
//! exactly. A row with a [`Claim::note`] is a known divergence: it must
//! read ✗, and the note says why.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mcloud_sweep::Table;

use crate::experiments as ex;
use Band::{Below, Exact, Range, Rel};

/// An experiment run: it returns its table.
type Run = fn() -> Table;

/// The experiments the claims read, by `repro` experiment id.
const SOURCES: &[(&str, Run)] = &[
    ("fig4", || ex::fig_processor_sweep(1.0)),
    ("fig5", || ex::fig_processor_sweep(2.0)),
    ("fig6", || ex::fig_processor_sweep(4.0)),
    ("fig7", || ex::fig_mode_metrics(1.0)),
    ("fig8", || ex::fig_mode_metrics(2.0)),
    ("fig9", || ex::fig_mode_metrics(4.0)),
    ("fig10", ex::fig10_cpu_vs_dm),
    ("ccr", ex::ccr_table),
    ("fig11", ex::fig11_ccr_sweep),
    ("q2b", ex::q2b_hosting),
    ("q3", ex::q3_whole_sky),
];

const Q1_1DEG: &str = "“60 cents for the 1 processor computation versus almost 4$ with 128 processors ... longest execution time of 5.5 hours. The runtime on 128 processors is only 18 minutes.”";
const Q1_2DEG: &str = "“the cost of running the workflow on 1 processor is $2.25 with a runtime of 20.5 hours whereas ... 128 processors results in a runtime of less than 40 minutes with a cost of less than $8.”";
const Q1_4DEG: &str = "“running on 1 processor costs $9 with a runtime of 85 hours”";
const Q2A: &str = "“the cost of running the 4 degree square Montage workflow on 128 processors is $13.92 in the provisioned case, whereas the workflow which is charged only for the resources used is only $8.89”";
const WIRE_FLOOR: &str = "By the paper's own model the 10 Mbps link needs 1.08 h for the 4° inputs and 0.50 h for the mosaic, a floor under the 128-processor runtime.";
const SIXTEEN: &str = "16 processors make the 4° mosaic in 5.5 h for $9.25 (500 for ~$4,625).";
const SHAPE: &str = "“The total cost is an increasing function of the number of the allocated processors while the execution time is a decreasing function”";
const DECLINE: &str = "“the storage costs decline but the CPU costs increase”";
const INSIGNIFICANT: &str = "“for a data-intensive application with a small computational granularity, the storage costs were insignificant as compared to the CPU costs.”";
const CLEANUP: &str =
    "“dynamic cleanup can reduce the amount of storage needed by a workflow by almost 50%”";
const STORAGE_ORDER: &str = "“The least storage used is in the remote I/O mode ... The most storage is used in the regular mode”";
const SAME_TRANSFER: &str = "“The amount of data transfer in the Regular and the Cleanup mode are the same”; remote I/O moves the most.";
const CPU_COSTS: &str = "CPU costs of $0.56, $2.03 and $8.40 for the 1°, 2° and 4° workflows.";
const SLIGHTLY: &str = "“CPU cost is slightly higher than the data management costs for the remote I/O execution mode”";
const CCR: &str = "Section 6: CCR 0.053, 0.053 and 0.045 for 1°, 2° and 4° at 10 Mbps.";
const FIG11: &str = "Scaling every file by CCR_d / CCR_r raises the storage, transfer, CPU and total costs and the execution time (1°, 8 processors).";
const Q2B: &str = "“$1,800 per month ... at least $1,800/($2.22-$2.12) = 18,000 mosaics per month ... an additional $1,200”";
const Q3_SKY: &str = "“3,900 x $8.88 = $34,632”";
const Q3_ARCHIVE: &str = "Archiving a mosaic beats recomputing it if it is requested again within 21.52, 24.25 or 25.12 months (1°, 2°, 4°).";

/// Every claim of the evaluation, in the paper's order.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    claim("Fig. 4", "1°, 1 processor: total cost", |m| near(0.60, USD, Rel(0.10), m.get("fig4", &["1"], "total_cost")), Q1_1DEG),
    claim("Fig. 4", "1°, 1 processor: runtime", |m| near(5.5, HOURS, Range(5.0, 6.0), m.get("fig4", &["1"], "runtime_hours")), Q1_1DEG),
    claim("Fig. 4", "1°, 128 processors: total cost", |m| near(4.0, USD, Rel(0.15), m.get("fig4", &["128"], "total_cost")), Q1_1DEG),
    claim("Fig. 4", "1°, 128 processors: runtime", |m| near(18.0, MINUTES, Rel(0.25), m.get("fig4", &["128"], "runtime_hours")), Q1_1DEG),
    claim("Fig. 5", "2°, 1 processor: total cost", |m| near(2.25, USD, Rel(0.10), m.get("fig5", &["1"], "total_cost")), Q1_2DEG),
    claim("Fig. 5", "2°, 1 processor: runtime", |m| near(20.5, HOURS, Rel(0.10), m.get("fig5", &["1"], "runtime_hours")), Q1_2DEG),
    claim("Fig. 5", "2°, 128 processors: total cost", |m| near(8.0, USD, Below, m.get("fig5", &["128"], "total_cost")), Q1_2DEG),
    claim("Fig. 5", "2°, 128 processors: runtime", |m| near(40.0, MINUTES, Below, m.get("fig5", &["128"], "runtime_hours")), Q1_2DEG),
    claim("Fig. 6", "4°, 1 processor: total cost", |m| near(9.0, USD, Rel(0.10), m.get("fig6", &["1"], "total_cost")), Q1_4DEG),
    claim("Fig. 6", "4°, 1 processor: runtime", |m| near(85.0, HOURS, Rel(0.10), m.get("fig6", &["1"], "runtime_hours")), Q1_4DEG),
    claim("Fig. 6", "4°, 16 processors: total cost", |m| near(9.25, USD, Rel(0.15), m.get("fig6", &["16"], "total_cost")), SIXTEEN),
    claim("Fig. 6", "4°, 16 processors: runtime", |m| near(5.5, HOURS, Rel(0.15), m.get("fig6", &["16"], "runtime_hours")), SIXTEEN),
    claim("Fig. 6", "4°, 128 processors: total cost", |m| near(13.92, USD, Rel(0.15), m.get("fig6", &["128"], "total_cost")), Q2A)
        .diverges("The paper's 128-processor point is below its own model's floor: at 10 Mbps no schedule finishes the 4° workflow near 1 h. With the link bottleneck removed the run lands within a few percent of the paper's point (`results/bandwidth.csv`; EXPERIMENTS.md §Figure 6)."),
    claim("Fig. 6", "4°, 128 processors: total cost, at most twice the paper's", |m| near(13.92, USD, Range(13.92, 28.0), m.get("fig6", &["128"], "total_cost")), WIRE_FLOOR),
    claim("Fig. 6", "4°, 128 processors: runtime, at the 10 Mbps wire floor", |m| near(1.6, HOURS, Rel(0.25), m.get("fig6", &["128"], "runtime_hours")), WIRE_FLOOR),
    claim("Figs. 4–6", "total cost as processors grow", |m| holds("rises", each(|i| steps(m, SWEEPS[i], "total_cost", LE, LT))), SHAPE),
    claim("Figs. 4–6", "runtime as processors grow", |m| holds("falls", each(|i| steps(m, SWEEPS[i], "runtime_hours", GE, GT))), SHAPE),
    claim("Figs. 4–6", "storage cost, 1 vs 128 processors", |m| holds("declines", each(|i| { let v = m.column(SWEEPS[i], "storage_cost"); chain(&[v[0], v[v.len() - 1]], &[GT]) })), DECLINE),
    claim("Figs. 4–6", "largest storage share of CPU cost, any P", |m| holds("< 5%", each(|i| shares(0.05, m.column(SWEEPS[i], "storage_cost").into_iter().zip(m.column(SWEEPS[i], "cpu_cost"))))), INSIGNIFICANT),
    claim("Figs. 4–6", "transfer cost as processors grow", |m| holds("constant", each(|i| steps(m, SWEEPS[i], "transfer_cost", EQ, EQ))), "The transfer cost does not depend on the number of processors."),
    claim("Figs. 4–6", "storage cost with vs without cleanup, 1 processor", |m| holds("lower", each(|i| chain(&[m.get(SWEEPS[i], &["1"], "storage_cost_cleanup"), m.get(SWEEPS[i], &["1"], "storage_cost")], &[LT]))), CLEANUP),
    claim("Figs. 7–9", "storage GB-hours: remote I/O, cleanup, regular", |m| holds("ascending", each(|i| chain(&modes(m, i, "storage_gb_hours", ["remote-io", "cleanup", "regular"]), &[LT, LT]))), STORAGE_ORDER),
    claim("Figs. 7–9", "GB in: remote I/O, regular, cleanup", |m| holds("most, same, same", each(|i| chain(&modes(m, i, "gb_in", ALL_MODES), &[GT, EQ]))), SAME_TRANSFER),
    claim("Figs. 7–9", "GB out: remote I/O, regular, cleanup", |m| holds("most, same, same", each(|i| chain(&modes(m, i, "gb_out", ALL_MODES), &[GT, EQ]))), SAME_TRANSFER),
    claim("Figs. 7–9", "data-management cost: remote I/O, regular, cleanup", |m| holds("highest … lowest", each(|i| chain(&modes(m, i, "dm_total_cost", ALL_MODES), &[GT, GE]))), "Remote I/O has the highest data-management cost and cleanup the lowest."),
    claim("Fig. 7", "1°: cleanup over regular storage GB-hours", |m| near(0.5, PLAIN, Range(0.3, 0.7), m.get("fig7", &["cleanup"], "storage_gb_hours") / m.get("fig7", &["regular"], "storage_gb_hours")), CLEANUP),
    claim("Fig. 8", "2°: cleanup over regular storage GB-hours", |m| near(0.5, PLAIN, Range(0.3, 0.7), m.get("fig8", &["cleanup"], "storage_gb_hours") / m.get("fig8", &["regular"], "storage_gb_hours")), CLEANUP),
    claim("Fig. 9", "4°: cleanup over regular storage GB-hours", |m| near(0.5, PLAIN, Range(0.3, 0.7), m.get("fig9", &["cleanup"], "storage_gb_hours") / m.get("fig9", &["regular"], "storage_gb_hours")), CLEANUP),
    claim("Fig. 10", "1°: CPU cost", |m| near(0.56, USD, Rel(0.06), m.get("fig10", &["1deg", "regular"], "cpu_cost")), CPU_COSTS),
    claim("Fig. 10", "2°: CPU cost", |m| near(2.03, USD, Rel(0.06), m.get("fig10", &["2deg", "regular"], "cpu_cost")), CPU_COSTS),
    claim("Fig. 10", "4°: CPU cost", |m| near(8.40, USD, Rel(0.06), m.get("fig10", &["4deg", "regular"], "cpu_cost")), CPU_COSTS),
    claim("Fig. 10", "CPU cost: remote I/O, regular, cleanup", |m| holds("equal", each(|i| chain(&fig10(m, i, "cpu_cost", ALL_MODES), &[EQ, EQ]))), "“The CPU cost is invariant between the three execution modes.”"),
    claim("Fig. 10", "remote I/O: data-management over CPU cost", |m| holds("just below 1", each(|i| chain(&[0.3, m.ratio("fig10", &[DEGS[i], "remote-io"], "dm_cost", "cpu_cost"), 1.0], &[LT, LT]))), SLIGHTLY),
    claim("Fig. 10", "regular, cleanup: CPU over data-management cost", |m| holds("> 5", each(|i| all(["regular", "cleanup"].map(|mode| chain(&[m.ratio("fig10", &[DEGS[i], mode], "cpu_cost", "dm_cost"), 5.0], &[GT]))))), "In the regular and cleanup modes the CPU cost dwarfs the data-management cost."),
    claim("Conclusion", "largest storage share of CPU cost, on demand, any mode", |m| holds("< 2%", each(|i| shares(0.02, modes(m, i, "storage_cost", ALL_MODES).into_iter().zip(fig10(m, i, "cpu_cost", ALL_MODES))))), INSIGNIFICANT),
    claim("Q2a", "4°, on demand: total cost", |m| near(8.89, USD, Rel(0.10), m.get("fig10", &["4deg", "regular"], "total_cost")), Q2A),
    claim("Q2a", "4°: provisioned on 128 over on-demand total cost", |m| holds("> 1.4", chain(&[m.get("fig6", &["128"], "total_cost") / m.get("fig10", &["4deg", "regular"], "total_cost"), 1.4], &[GT])), Q2A),
    claim("Q2a", "4°, 128 processors: CPU utilization (on-demand over provisioned CPU cost)", |m| holds("low (< 0.8)", chain(&[m.get("fig10", &["4deg", "regular"], "cpu_cost") / m.get("fig6", &["128"], "cpu_cost"), 0.8], &[LT])), "“CPU utilization can be low in the provisioned case.”"),
    claim("CCR", "1°: CCR at 10 Mbps", |m| near(0.053, PLAIN, Rel(0.05), m.get("ccr", &["Montage 1 Degree"], "ccr")), CCR),
    claim("CCR", "2°: CCR at 10 Mbps", |m| near(0.053, PLAIN, Rel(0.12), m.get("ccr", &["Montage 2 Degree"], "ccr")), CCR),
    claim("CCR", "4°: CCR at 10 Mbps", |m| near(0.045, PLAIN, Rel(0.05), m.get("ccr", &["Montage 4 Degree"], "ccr")), CCR),
    claim("Fig. 11", "storage cost without, with cleanup as CCR grows", |m| holds("rises", all([steps(m, "fig11", "storage_cost", LT, LT), steps(m, "fig11", "storage_cost_cleanup", LE, LT)])), FIG11),
    claim("Fig. 11", "transfer cost as CCR grows", |m| holds("rises", steps(m, "fig11", "transfer_cost", LT, LT)), FIG11),
    claim("Fig. 11", "CPU cost as CCR grows", |m| holds("rises", steps(m, "fig11", "cpu_cost", LT, LT)), FIG11),
    claim("Fig. 11", "total cost as CCR grows", |m| holds("rises", steps(m, "fig11", "total_cost", LT, LT)), FIG11),
    claim("Fig. 11", "runtime as CCR grows", |m| holds("rises", steps(m, "fig11", "runtime_hours", LE, LT)), FIG11),
    claim("Q2b", "12 TB of 2MASS: storage per month", |m| near(1800.0, USD, Exact, m.get("q2b", &["2MASS monthly storage ($/month)"], "value")), Q2B),
    claim("Q2b", "12 TB of 2MASS: one-time ingest", |m| near(1200.0, USD, Exact, m.get("q2b", &["one-time ingest cost ($)"], "value")), Q2B),
    claim("Q2b", "2° request, inputs staged: total cost", |m| near(2.22, USD, Rel(0.06), m.get("q2b", &["2deg request cost, staged ($)"], "value")), Q2B),
    claim("Q2b", "2° request, inputs hosted: total cost", |m| near(2.12, USD, Rel(0.06), m.get("q2b", &["2deg request cost, hosted ($)"], "value")), Q2B),
    claim("Q2b", "saving per request from hosting", |m| near(0.10, USD, Rel(0.15), m.get("q2b", &["saving per request ($)"], "value")), Q2B)
        .diverges("The paper's $0.10 implies about 1 GB of staged input per 2° request, which its own 4° in-transfer figures contradict. The reproduction's inputs are consistent across sizes, so its saving is smaller and its break-even larger; the conclusion, tens of thousands of requests a month, holds (EXPERIMENTS.md §Question 2b)."),
    claim("Q2b", "break-even requests per month", |m| near(18_000.0, PLAIN, Range(10_000.0, 200_000.0), m.get("q2b", &["break-even requests/month"], "value")), Q2B),
    claim("Q3", "whole sky, 3,900 4° plates, inputs staged", |m| near(34_632.0, USD, Rel(0.10), m.get("q3", &["whole sky, 3900 plates, staged ($)"], "value")), Q3_SKY),
    claim("Q3", "whole sky: inputs hosted vs staged", |m| holds("cheaper", chain(&[m.get("q3", &["whole sky, 3900 plates, hosted ($)"], "value"), m.get("q3", &["whole sky, 3900 plates, staged ($)"], "value")], &[LT])), Q3_SKY),
    claim("Q3", "1° mosaic: archival break-even", |m| near(21.52, MONTHS, Rel(0.08), m.get("q3", &["1deg mosaic archival break-even (months)"], "value")), Q3_ARCHIVE),
    claim("Q3", "2° mosaic: archival break-even", |m| near(24.25, MONTHS, Rel(0.08), m.get("q3", &["2deg mosaic archival break-even (months)"], "value")), Q3_ARCHIVE),
    claim("Q3", "4° mosaic: archival break-even", |m| near(25.12, MONTHS, Rel(0.08), m.get("q3", &["4deg mosaic archival break-even (months)"], "value")), Q3_ARCHIVE),
];

/// One claim of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The figure or question it belongs to.
    pub source: &'static str,
    /// What is measured.
    pub quantity: &'static str,
    /// Holds the measurement against the paper.
    pub check: fn(&Measured) -> Verdict,
    /// The sentence it checks: in “ ” where quoted, else a paraphrase.
    pub quote: &'static str,
    /// Why the reproduction is known to diverge here; such a row must
    /// read ✗.
    pub note: Option<&'static str>,
}

/// A claim held against the measurements.
#[derive(Debug)]
pub struct Verdict {
    /// The paper's value or relation.
    pub paper: String,
    /// The measured value or values.
    pub measured: String,
    /// The tolerance.
    pub tolerance: String,
    /// True when the measurement agrees with the paper.
    pub pass: bool,
}

/// How a value is shown: prefix, suffix, and the factor from the table's
/// unit (minutes are read from hours columns).
#[derive(Debug, Clone, Copy)]
struct Unit(&'static str, &'static str, f64);

const USD: Unit = Unit("$", "", 1.0);
const HOURS: Unit = Unit("", " h", 1.0);
const MINUTES: Unit = Unit("", " min", 60.0);
const MONTHS: Unit = Unit("", " months", 1.0);
const PLAIN: Unit = Unit("", "", 1.0);

/// The tolerance around a paper value; every band is open.
#[derive(Debug, Clone, Copy)]
enum Band {
    /// Within this fraction of the paper's value.
    Rel(f64),
    /// Strictly between the two bounds.
    Range(f64, f64),
    /// Strictly below the paper's value.
    Below,
    /// Equal to the paper's value.
    Exact,
}

/// A comparison and its symbol.
#[derive(Clone, Copy)]
struct Op(&'static str, fn(f64, f64) -> bool);

const LT: Op = Op("<", |a, b| a < b);
const LE: Op = Op("≤", |a, b| a <= b);
const EQ: Op = Op("=", |a, b| a == b);
const GE: Op = Op("≥", |a, b| a >= b);
const GT: Op = Op(">", |a, b| a > b);

/// Whether a relation holds, and the values it compared.
type Found = (bool, String);

/// The three mosaic sizes' processor sweeps and per-mode tables, and their
/// labels in Figure 10.
const SWEEPS: [&str; 3] = ["fig4", "fig5", "fig6"];
const MODES: [&str; 3] = ["fig7", "fig8", "fig9"];
const DEGS: [&str; 3] = ["1deg", "2deg", "4deg"];
const ALL_MODES: [&str; 3] = ["remote-io", "regular", "cleanup"];

/// The tables [`CLAIMS`] read, by experiment id.
#[derive(Debug)]
pub struct Measured(BTreeMap<&'static str, Table>);

impl Measured {
    /// Runs every experiment the claims read.
    pub fn compute() -> Self {
        Measured(SOURCES.iter().map(|&(id, run)| (id, run())).collect())
    }

    /// The number in `column` of the row of `table` whose leading cells
    /// are `key`.
    fn get(&self, table: &str, key: &[&str], column: &str) -> f64 {
        let t = &self.0[table];
        let col = t.headers().iter().position(|h| h == column);
        let row = t
            .rows()
            .iter()
            .find(|r| r.iter().zip(key).all(|(a, b)| a == b));
        match (row, col) {
            (Some(row), Some(col)) => row[col].parse().expect("numeric cell"),
            _ => panic!("{table} has no cell {key:?} / {column}"),
        }
    }

    /// Two cells of one row, divided.
    fn ratio(&self, table: &str, key: &[&str], num: &str, den: &str) -> f64 {
        self.get(table, key, num) / self.get(table, key, den)
    }

    fn column(&self, table: &str, column: &str) -> Vec<f64> {
        self.0[table]
            .numeric_column(column)
            .expect("numeric column")
    }
}

const fn claim(
    source: &'static str,
    quantity: &'static str,
    check: fn(&Measured) -> Verdict,
    quote: &'static str,
) -> Claim {
    Claim {
        source,
        quantity,
        check,
        quote,
        note: None,
    }
}

impl Claim {
    const fn diverges(self, note: &'static str) -> Claim {
        Claim {
            note: Some(note),
            ..self
        }
    }
}

/// The paper's value against a measured one, read in the table's unit.
fn near(paper: f64, unit: Unit, band: Band, read: f64) -> Verdict {
    let got = read * unit.2;
    let show = |v: f64| format!("{}{}{}", unit.0, num(v), unit.1);
    let (pass, tolerance) = match band {
        Rel(r) => (
            (got - paper).abs() < r * paper.abs(),
            format!("±{}%", num(r * 100.0)),
        ),
        Range(lo, hi) => (
            lo < got && got < hi,
            format!("({}, {})", show(lo), show(hi)),
        ),
        Below => (got < paper, "exact".to_string()),
        Exact => (got == paper, "exact".to_string()),
    };
    let bound = if matches!(band, Below) { "< " } else { "" };
    let (paper, measured) = (format!("{bound}{}", show(paper)), show(got));
    Verdict {
        paper,
        measured,
        tolerance,
        pass,
    }
}

/// A relation as the paper states it, against what was measured.
fn holds(paper: &str, (pass, measured): Found) -> Verdict {
    let (paper, tolerance) = (paper.to_string(), "exact".to_string());
    Verdict {
        paper,
        measured,
        tolerance,
        pass,
    }
}

/// Checks the rows of [`CLAIMS`] that `select` picks: each must pass, or
/// fail when it carries a note. Panics naming the first row that does not,
/// or when `select` picks no row.
pub fn assert_rows(m: &Measured, select: impl Fn(&Claim) -> bool) {
    let mut checked = 0;
    for c in CLAIMS.iter().filter(|c| select(c)) {
        let v = (c.check)(m);
        let (source, quantity) = (c.source, c.quantity);
        let (got, paper, band) = (&v.measured, &v.paper, &v.tolerance);
        let want = if c.note.is_some() { "✗" } else { "✓" };
        assert!(
            v.pass == c.note.is_none(),
            "{source}, {quantity}: measured {got} against {paper} ({band}); expected {want}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no claim row selected");
}

/// `results/claims.md`: every claim, paper against measured.
pub fn render(m: &Measured) -> String {
    let mut out = String::from(
        "# Paper claims: paper vs measured\n\n\
         Each row holds one claim of the SC'08 evaluation against the tables \
         `repro all` writes to `results/`, as `CLAIMS` in \
         crates/bench/src/claims.rs states it. Bands are open intervals; \
         orderings hold exactly. Quotes are in “ ”; other sentences \
         paraphrase the paper. A ✗ row is a known divergence and carries \
         its note.\n\n\
         | source | quantity | paper | measured | tolerance | ✓/✗ | quote |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for c in CLAIMS {
        let v = (c.check)(m);
        let mark = if v.pass { "✓" } else { "✗" };
        let note = c.note.map_or(String::new(), |n| format!(" expected: {n}"));
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {mark}{note} | {} |",
            c.source, c.quantity, v.paper, v.measured, v.tolerance, c.quote
        );
    }
    out
}

/// `v` to four decimals, trailing zeros dropped.
fn num(v: f64) -> String {
    let s = format!("{v:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// `vals[i] ops[i] vals[i + 1]` for every `i`, shown as `a < b = c`.
fn chain(vals: &[f64], ops: &[Op]) -> Found {
    let (mut pass, mut shown) = (true, num(vals[0]));
    for (w, op) in vals.windows(2).zip(ops) {
        pass &= (op.1)(w[0], w[1]);
        let _ = write!(shown, " {} {}", op.0, num(w[1]));
    }
    (pass, shown)
}

/// Holds when every part holds; shows the parts joined by ` / `.
fn all(parts: impl IntoIterator<Item = Found>) -> Found {
    let (pass, shown): (Vec<bool>, Vec<String>) = parts.into_iter().unzip();
    (pass.iter().all(|&p| p), shown.join(" / "))
}

/// `f` at each mosaic size, smallest first.
fn each(f: impl Fn(usize) -> Found) -> Found {
    all((0..3).map(f))
}

/// Every step down `column` of `table` obeys `step`, and its first and
/// last rows obey `overall`; shows first → last.
fn steps(m: &Measured, table: &str, column: &str, step: Op, overall: Op) -> Found {
    let v = m.column(table, column);
    let (first, last) = (v[0], v[v.len() - 1]);
    let pass = v.windows(2).all(|w| (step.1)(w[0], w[1])) && (overall.1)(first, last);
    (pass, format!("{} → {}", num(first), num(last)))
}

/// `column` of size `i`'s per-mode table, for the named modes.
fn modes(m: &Measured, i: usize, column: &str, names: [&str; 3]) -> [f64; 3] {
    names.map(|mode| m.get(MODES[i], &[mode], column))
}

/// `column` of Figure 10 at size `i`, for the named modes.
fn fig10(m: &Measured, i: usize, column: &str, names: [&str; 3]) -> [f64; 3] {
    names.map(|mode| m.get("fig10", &[DEGS[i], mode], column))
}

/// Every part below `limit` of its whole; shows the largest share.
fn shares(limit: f64, pairs: impl Iterator<Item = (f64, f64)>) -> Found {
    let pairs: Vec<_> = pairs.collect();
    let pass = pairs.iter().all(|&(part, whole)| part < limit * whole);
    let largest = pairs.iter().map(|&(p, w)| p / w).fold(0.0, f64::max);
    (pass, format!("{}%", num(largest * 100.0)))
}
