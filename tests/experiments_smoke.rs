//! Every experiment in the harness must run at reduced scale.

use std::sync::OnceLock;

use smallbig::eval::{run_experiment, ExpConfig, Report, EXPERIMENTS};

/// One pass over the registry, shared by the tests below: `"all"` looks each
/// id up through `run_experiment`, so every experiment runs exactly once per
/// test binary however many tests read the reports.
fn all_reports() -> &'static [Report] {
    static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
    REPORTS.get_or_init(|| run_experiment("all", &ExpConfig::quick()).unwrap())
}

#[test]
fn every_table_and_figure_regenerates() {
    for (report, (id, _)) in all_reports().iter().zip(EXPERIMENTS) {
        assert_eq!(report.id, id, "report at {id}'s position");
        assert!(report.to_string().contains("## "), "{id} renders a title");
        assert!(report.table.num_rows() > 0, "{id} has rows");
    }
}

#[test]
fn all_alias_runs_everything() {
    assert_eq!(all_reports().len(), EXPERIMENTS.len());
}

#[test]
fn csv_export_shape() {
    let cfg = ExpConfig::quick();
    let reports = run_experiment("table2", &cfg).unwrap();
    let csv = reports[0].table.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 5, "header + four model rows");
    assert!(lines[0].contains("Model size"));
}
