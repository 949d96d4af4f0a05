//! Experiment harness: one module per table/figure/claim of the paper.
//!
//! Every experiment returns a structured result plus a formatted report
//! so the `repro` binary and the test suite share one implementation.
//! The experiment index lives in DESIGN.md; measured-vs-published
//! numbers are recorded in EXPERIMENTS.md.

pub mod experiments;
pub mod svg;

/// Render a two-column table of (label, value) rows.
pub fn format_rows(title: &str, rows: &[(String, String)]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (l, v) in rows {
        out.push_str(&format!("  {l:<width$}  {v}\n"));
    }
    out
}
