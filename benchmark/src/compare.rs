//! `benchmark compare A.json B.json`: holds run B against run A by the
//! benchmark's own bounds.
//!
//! Per workload × end-to-end metric: *regression* when B's median is worse
//! than A's by more than the bound; *unresolved* when either run's
//! quartile spread exceeds the bound, unless every B repetition beats
//! every A repetition; simulated metrics compared bit for bit.

use std::collections::BTreeMap;

use serde::Value;

use crate::schema::{self, Better};
use crate::stats;

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within the bound (the relative change, positive = worse).
    Within(f64),
    /// Worse by more than the bound.
    Regression(f64),
    /// A spread wider than the bound hides the answer.
    Unresolved(f64),
    /// A simulated statistic is bit-equal.
    Exact,
    /// A simulated statistic moved.
    SimDiffers(f64, f64),
}

impl Verdict {
    /// Whether the verdict fails the comparison.
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regression(_) | Verdict::SimDiffers(..))
    }
}

/// Judges one metric: `a` and `b` are the repetitions of each run.
pub fn judge(metric: &schema::EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if metric.exact {
        return if ma.to_bits() == mb.to_bits() {
            Verdict::Exact
        } else {
            Verdict::SimDiffers(ma, mb)
        };
    }
    // Positive = B is worse, as a share of A's median.
    let worse = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let b_beats = |x: f64, y: f64| match metric.better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let clean_sweep = a.iter().all(|&x| b.iter().all(|&y| b_beats(x, y)));
    let spread = stats::iqr_share(a).max(stats::iqr_share(b));
    if spread > metric.bound && !clean_sweep {
        Verdict::Unresolved(spread)
    } else if worse > metric.bound {
        Verdict::Regression(worse)
    } else {
        Verdict::Within(worse)
    }
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value
        .as_object()
        .and_then(|o| o.get(key))
        .ok_or_else(|| format!("missing `{key}`"))
}

fn number(value: &Value) -> Result<f64, String> {
    match value {
        Value::F64(v) => Ok(*v),
        Value::U64(v) => Ok(*v as f64),
        Value::I64(v) => Ok(*v as f64),
        other => Err(format!("expected a number, found {}", other.kind())),
    }
}

fn samples(workload: &Value, metric: &str) -> Result<Vec<f64>, String> {
    let entry = field(field(workload, "end_to_end")?, metric)?;
    field(entry, "samples")?
        .as_array()
        .ok_or("`samples` is not an array")?
        .iter()
        .map(number)
        .collect()
}

fn failed_share(workload: &Value) -> Result<f64, String> {
    Ok(number(field(workload, "failed")?)? / number(field(workload, "attempted")?)?)
}

/// Compares two result files' contents, printing one line per pair.
/// Returns whether B holds up against A.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    if field(a, "seed")? != field(b, "seed")? {
        println!("note: the runs used different seeds; simulated metrics will differ");
    }
    let none = BTreeMap::new();
    let workloads = |v: &'_ Value| -> BTreeMap<String, Value> {
        field(v, "workloads")
            .ok()
            .and_then(Value::as_object)
            .unwrap_or(&none)
            .clone()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    let mut ok = true;
    for (name, _) in schema::WORKLOADS {
        let (Some(ra), Some(rb)) = (wa.get(name), wb.get(name)) else {
            continue;
        };
        let (fa, fb) = (failed_share(ra)?, failed_share(rb)?);
        if fb > fa {
            println!("{name}: failed share grew from {fa:.6} to {fb:.6}  FAIL");
            ok = false;
        }
        for metric in &schema::END_TO_END {
            let verdict = judge(
                metric,
                &samples(ra, metric.name)?,
                &samples(rb, metric.name)?,
            );
            let line = match &verdict {
                Verdict::Within(w) => format!("within bound ({:+.2}% worse)", w * 100.0),
                Verdict::Regression(w) => format!(
                    "REGRESSION {:+.2}% worse, bound {:.0}%",
                    w * 100.0,
                    metric.bound * 100.0
                ),
                Verdict::Unresolved(s) => format!(
                    "unresolved: quartile spread {:.2}% exceeds bound {:.0}%",
                    s * 100.0,
                    metric.bound * 100.0
                ),
                Verdict::Exact => "bit-equal".to_string(),
                Verdict::SimDiffers(x, y) => format!("SIM DIFFERS {x} -> {y}"),
            };
            println!("{name:14} {:22} {line}", metric.name);
            ok &= !verdict.fails();
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host metric with a 7 % bound, whatever the schema's bounds are.
    fn host(better: Better) -> schema::EndToEnd {
        schema::EndToEnd {
            name: "host",
            unit: "1",
            better,
            bound: 0.07,
            exact: false,
        }
    }

    #[test]
    fn a_slowdown_past_the_bound_is_a_regression() {
        let fps = host(Better::Higher);
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&fps, &a, &[90.0, 91.0, 89.0]),
            Verdict::Regression(0.1)
        );
        assert!(matches!(
            judge(&fps, &a, &[95.0, 96.0, 94.0]),
            Verdict::Within(_)
        ));
        assert!(matches!(judge(&fps, &a, &[120.0, 121.0, 119.0]), Verdict::Within(w) if w < 0.0));
        let p50 = host(Better::Lower);
        assert!(judge(&p50, &a, &[110.0, 111.0, 109.0]).fails());
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_b_sweeps() {
        let fps = host(Better::Higher);
        let noisy = [80.0, 100.0, 120.0];
        assert!(matches!(
            judge(&fps, &noisy, &[85.0, 95.0, 100.0]),
            Verdict::Unresolved(_)
        ));
        // Every B repetition beats every A repetition: resolved despite the spread.
        assert!(matches!(
            judge(&fps, &noisy, &[130.0, 160.0, 190.0]),
            Verdict::Within(_)
        ));
    }

    #[test]
    fn simulated_metrics_compare_bit_for_bit() {
        let ratio = schema::EndToEnd {
            exact: true,
            ..host(Better::Lower)
        };
        assert_eq!(judge(&ratio, &[0.6], &[0.6]), Verdict::Exact);
        let moved = judge(&ratio, &[0.6], &[0.6 + f64::EPSILON]);
        assert!(moved.fails());
    }

    #[test]
    fn whole_files_compare() {
        let run = |fps: f64, failed: u64| {
            let e2e: BTreeMap<String, Value> = schema::END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "frames_per_s" { fps } else { 1.0 };
                    let samples = Value::Array(vec![Value::F64(v)]);
                    let entry = BTreeMap::from([("samples".to_string(), samples)]);
                    (m.name.to_string(), Value::Object(entry))
                })
                .collect();
            let workload = BTreeMap::from([
                ("attempted".to_string(), Value::U64(100)),
                ("failed".to_string(), Value::U64(failed)),
                ("end_to_end".to_string(), Value::Object(e2e)),
            ]);
            let workloads = BTreeMap::from([("fleet_100k".to_string(), Value::Object(workload))]);
            Value::Object(BTreeMap::from([
                ("seed".to_string(), Value::U64(1)),
                ("workloads".to_string(), Value::Object(workloads)),
            ]))
        };
        assert!(compare(&run(100.0, 0), &run(99.0, 0)).unwrap());
        assert!(!compare(&run(100.0, 0), &run(70.0, 0)).unwrap());
        assert!(!compare(&run(100.0, 0), &run(100.0, 1)).unwrap());
    }
}
