//! # eval — the experiment harness
//!
//! Regenerates **every table and figure** of the paper plus the intro's
//! partition motivation, four ablations and two extensions, all listed once
//! in [`EXPERIMENTS`]. Each experiment returns a
//! [`Report`] containing a rendered [`Table`] with `measured (paper)` cells.
//!
//! Run everything:
//!
//! ```bash
//! cargo run -p eval --release -- all
//! # reduced scale (1% of the published split sizes):
//! cargo run -p eval --release -- --scale 0.01 table3 fig8
//! ```
//!
//! # Example
//!
//! ```
//! use eval::{run_experiment, ExpConfig};
//!
//! let reports = run_experiment("table2", &ExpConfig::quick()).unwrap();
//! assert!(reports[0].to_string().contains("SSD"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exp {
    pub mod extras;
    pub mod figures;
    pub mod tables;
}
mod pairs;
pub mod paper;
mod table;

pub use pairs::{pair_run, ExpConfig, PairRun, SSD_SMALLS};
pub use table::{f2, with_paper, Table};

use std::fmt;

/// A completed experiment: a titled table plus free-form notes.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (e.g. `"table3"`).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The result table.
    pub table: Table,
    /// Notes printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates a report.
    pub fn new(id: &str, title: &str, table: Table) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            table,
            notes: Vec::new(),
        }
    }

    /// Appends a note line.
    pub fn with_note<S: Into<String>>(mut self, note: S) -> Self {
        self.notes.push(note.into());
        self
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {} — {}", self.id, self.title)?;
        write!(f, "{}", self.table)?;
        for note in &self.notes {
            writeln!(f, "  note: {note}")?;
        }
        Ok(())
    }
}

/// What an experiment is: the function that regenerates its report.
type Regenerate = fn(&ExpConfig) -> Report;

/// Every experiment, in presentation order: its id and the function that
/// regenerates its report. This is the one list of ids: [`run_experiment`]
/// looks ids up here, `"all"` runs every entry, and the CLI's `--help`
/// prints the ids from it.
pub const EXPERIMENTS: [(&str, Regenerate); 28] = {
    use exp::{extras, figures, tables};
    [
        ("motivation", extras::motivation),
        ("table1", tables::table1),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
        ("table8", tables::table8),
        ("table9", tables::table9),
        ("table10", tables::table10),
        ("table11", tables::table11),
        ("table12", tables::table12),
        ("table13", tables::table13),
        ("table14", tables::table14),
        ("table15", tables::table15),
        ("table16", tables::table16),
        ("table17", tables::table17),
        ("fig4", figures::fig4),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig9", figures::fig9),
        ("ablation-features", extras::ablation_features),
        ("ablation-tconf", extras::ablation_tconf),
        ("ablation-links", extras::ablation_links),
        ("ablation-deadline", extras::ablation_deadline),
        ("compress", extras::compress),
        ("perclass", extras::perclass),
    ]
};

/// Runs one experiment of [`EXPERIMENTS`] by id, or every one for `"all"`.
///
/// `"all"` runs each registry entry through this same lookup, fanned out
/// across the harness workers (see [`smallbig_core::par`]); each experiment
/// is deterministic and reports merge back in registry order, so the output
/// equals the sequential run. Experiments share the process-wide pair-run
/// cache either way.
///
/// # Errors
///
/// Returns the unknown id as `Err` so the CLI can report it.
pub fn run_experiment(id: &str, cfg: &ExpConfig) -> Result<Vec<Report>, String> {
    if id == "all" {
        let results = smallbig_core::par::ordered_map(EXPERIMENTS.len(), |i| {
            run_experiment(EXPERIMENTS[i].0, cfg)
        });
        let mut out = Vec::new();
        for result in results {
            out.extend(result?);
        }
        return Ok(out);
    }
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .ok_or_else(|| format!("unknown experiment id: {id}"))?;
    Ok(vec![run(cfg)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_error() {
        assert!(run_experiment("table99", &ExpConfig::quick()).is_err());
    }

    #[test]
    fn report_display_contains_notes() {
        let mut t = Table::new(vec!["a".into()]);
        t.add_row(vec!["1".into()]);
        let r = Report::new("x", "title", t).with_note("hello");
        let s = r.to_string();
        assert!(s.contains("## x — title"));
        assert!(s.contains("note: hello"));
    }
}
