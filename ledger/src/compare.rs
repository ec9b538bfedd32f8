//! `ledger compare A B` and `ledger summarize FILE`: reading sets of
//! runs back and judging them against the bounds in `BENCHMARK.json`.
//!
//! A results file is what `--json PATH` appends: one JSON object per
//! line, each a run of one workload. `compare` takes the median of every
//! end-to-end metric per workload on each side and prints, one row per
//! workload, `within`, `worse` (the candidate's median is worse than the
//! baseline's by more than the bound) or `unresolved` (the run-to-run
//! spread on either side is itself wider than the bound, so the medians
//! cannot tell).

use std::collections::BTreeMap;

use crate::json::Json;
use crate::quantile::median;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` if larger is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k:?}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `workload → metric → values`, one value per run, in file order.
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses a results file (JSON lines). Only untraced runs carry
/// end-to-end metrics; traced lines are skipped.
pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        // Metrics reported without a bound ride along for `summarize`;
        // `compare` only looks names up that `BENCHMARK.json` bounds.
        let unbounded = match run.get("unbounded") {
            Some(Json::Obj(more)) => Some(more),
            _ => None,
        };
        for (name, metric) in metrics.iter().chain(unbounded.into_iter().flatten()) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the spread rule the driver applies.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, len) = (4usize, data.len());
    let m = len + 1;
    Some(std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    }))
}

/// Interquartile range as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// The judgement on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Not worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// Spread wider than the bound: the medians cannot tell.
    Unresolved,
    /// One side has no runs of this workload or metric.
    Missing,
}

/// One cell of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The judgement.
    pub verdict: Verdict,
    /// How much worse the candidate's median is, as a share of the
    /// baseline's (negative = better).
    pub worse_by: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
}

/// Judges one metric given both sides' values.
pub fn judge(rule: &Bound, baseline: &[f64], candidate: &[f64]) -> Cell {
    if baseline.is_empty() || candidate.is_empty() {
        return Cell {
            verdict: Verdict::Missing,
            worse_by: 0.0,
            spread: 0.0,
        };
    }
    let (a, b) = (median(baseline), median(candidate));
    let worse_by = if rule.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let spread = spread(baseline).max(spread(candidate));
    let verdict = if spread > rule.bound {
        Verdict::Unresolved
    } else if worse_by > rule.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    Cell {
        verdict,
        worse_by,
        spread,
    }
}

/// The whole comparison: `(workload, one cell per rule)` rows.
pub fn compare(rules: &[Bound], baseline: &RunSet, candidate: &RunSet) -> Vec<(String, Vec<Cell>)> {
    let empty = BTreeMap::new();
    baseline
        .keys()
        .chain(candidate.keys().filter(|w| !baseline.contains_key(*w)))
        .map(|workload| {
            let a = baseline.get(workload).unwrap_or(&empty);
            let b = candidate.get(workload).unwrap_or(&empty);
            let values = |side: &BTreeMap<String, Vec<f64>>, name: &str| {
                side.get(name).cloned().unwrap_or_default()
            };
            let cells = rules
                .iter()
                .map(|rule| judge(rule, &values(a, &rule.name), &values(b, &rule.name)))
                .collect();
            (workload.clone(), cells)
        })
        .collect()
}

/// Renders the comparison, one row per workload, and counts verdicts.
pub fn render(rules: &[Bound], rows: &[(String, Vec<Cell>)]) -> (String, usize, usize) {
    let mut out = format!("{:<11}", "workload");
    for rule in rules {
        out += &format!(
            " {:<24}",
            format!("{} (±{:.0}%)", rule.name, rule.bound * 100.0)
        );
    }
    out.push('\n');
    let (mut worse, mut unresolved) = (0, 0);
    for (workload, cells) in rows {
        out += &format!("{workload:<11}");
        for cell in cells {
            let text = match cell.verdict {
                Verdict::Within => format!("within {:+.1}%", cell.worse_by * 100.0),
                Verdict::Worse => {
                    worse += 1;
                    format!("WORSE {:+.1}%", cell.worse_by * 100.0)
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    format!("unresolved (spread {:.1}%)", cell.spread * 100.0)
                }
                Verdict::Missing => {
                    unresolved += 1;
                    "unresolved (no runs)".to_string()
                }
            };
            out += &format!(" {text:<24}");
        }
        out.push('\n');
    }
    (out, worse, unresolved)
}

/// The calibration record of a set of runs: per workload and metric the
/// median, `(max − min) ÷ median` and the interquartile spread.
pub fn summarize(runs: &RunSet) -> Json {
    Json::Obj(
        runs.iter()
            .map(|(workload, metrics)| {
                let per_metric = metrics.iter().map(|(name, values)| {
                    let mid = median(values);
                    let (lo, hi) = values
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    let entry = Json::obj([
                        ("runs", Json::from(values.len() as u64)),
                        ("median", Json::from(mid)),
                        ("range_share", Json::from((hi - lo) / mid.abs())),
                        ("iqr_share", Json::from(spread(values))),
                    ]);
                    (name.clone(), entry)
                });
                (workload.clone(), Json::Obj(per_metric.collect()))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> Vec<Bound> {
        bounds(
            &Json::parse(
                r#"{"end_to_end": [
                    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn runs(ops: &[f64], p50: &[f64]) -> String {
        ops.iter()
            .zip(p50)
            .map(|(o, p)| {
                format!(
                    "{{\"workload\": \"svc.tree\", \"seed\": 1, \"trace\": 0, \"metrics\": \
                     {{\"ops_per_s\": {{\"value\": {o}, \"unit\": \"1/s\"}}, \
                     \"p50_us\": {{\"value\": {p}, \"unit\": \"us\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10., 20.]).unwrap(), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
        let q = quartiles(&[3., 1., 4., 1., 5., 9., 2., 6., 5., 3.]).unwrap();
        assert_eq!(q, [1.75, 3.5, 5.25]);
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn flags_a_synthetic_twenty_percent_regression() {
        let base = parse_runs(&runs(
            &[1000., 1010., 990., 1005.],
            &[100., 101., 99., 100.],
        ))
        .unwrap();
        let slow = parse_runs(&runs(&[800., 808., 792., 804.], &[100., 101., 99., 100.])).unwrap();
        let rows = compare(&rules(), &base, &slow);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0].verdict, Verdict::Worse);
        assert!((rows[0].1[0].worse_by - 0.2).abs() < 0.01);
        assert_eq!(rows[0].1[1].verdict, Verdict::Within);
        let (text, worse, unresolved) = render(&rules(), &rows);
        assert_eq!((worse, unresolved), (1, 0));
        assert!(text.contains("WORSE +20."), "{text}");
        // The same set against itself is within on every metric, and a
        // gain is never a regression.
        let (_, worse, unresolved) = render(&rules(), &compare(&rules(), &base, &base));
        assert_eq!((worse, unresolved), (0, 0));
        let rows = compare(&rules(), &slow, &base);
        assert_eq!(rows[0].1[0].verdict, Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = parse_runs(&runs(&[1000., 700., 1300., 1000.], &[100.; 4])).unwrap();
        let rows = compare(&rules(), &noisy, &noisy);
        assert_eq!(rows[0].1[0].verdict, Verdict::Unresolved);
        assert_eq!(rows[0].1[1].verdict, Verdict::Within);
    }

    #[test]
    fn a_workload_missing_on_one_side_is_reported() {
        let base = parse_runs(&runs(&[1000.], &[100.])).unwrap();
        let rows = compare(&rules(), &base, &RunSet::new());
        assert_eq!(rows[0].1[0].verdict, Verdict::Missing);
    }

    #[test]
    fn traced_lines_are_skipped_and_bad_lines_rejected() {
        let text = "{\"workload\": \"svc.tree\", \"trace\": 1, \"metrics\": {}}\n";
        assert!(parse_runs(text).unwrap().is_empty());
        assert!(parse_runs("{\"metrics\": {}}\n").is_err());
        assert!(parse_runs("not json\n").is_err());
    }

    #[test]
    fn summary_records_median_and_range() {
        let set = parse_runs(&runs(&[100., 110., 90.], &[10., 10., 10.])).unwrap();
        let doc = summarize(&set);
        let ops = doc.get("svc.tree").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("median").unwrap().as_f64(), Some(100.0));
        assert_eq!(ops.get("range_share").unwrap().as_f64(), Some(0.2));
        assert_eq!(ops.get("runs").unwrap().as_f64(), Some(3.0));
    }
}
