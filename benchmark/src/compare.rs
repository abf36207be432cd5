//! `benchmark compare A.json B.json`: the no-regression rule, row by row.
//!
//! For every (end-to-end metric, workload) pair, B's median may be worse
//! than A's by at most the bound `BENCHMARK.json` fixes for that metric.
//! Where the repeat-to-repeat spread of either side is wider than the
//! bound the row is `unresolved` — the data cannot tell "unchanged" from
//! "regressed" — rather than `ok`.

use crate::harness::Results;
use crate::json::Json;
use crate::stats::spread;
use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub metric: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end metric bounds of a `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounds(pub Vec<Bound>);

impl Bounds {
    pub fn from_spec(spec: &Json) -> Result<Bounds, String> {
        let rows = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .ok_or("spec lacks end_to_end")?;
        rows.iter()
            .map(|row| {
                let metric = row
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric lacks name")?;
                let higher_is_better = match row.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(format!("{metric}: better must be \"higher\" or \"lower\"")),
                };
                let bound = row
                    .get("bound")
                    .and_then(Json::as_f64)
                    .filter(|b| (0.0..=0.25).contains(b))
                    .ok_or(format!("{metric}: bound must be a number in [0, 0.25]"))?;
                Ok(Bound {
                    metric: metric.to_string(),
                    higher_is_better,
                    bound,
                })
            })
            .collect::<Result<Vec<_>, String>>()
            .map(Bounds)
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub before: f64,
    pub after: f64,
    /// B relative to A in the metric's "worse" direction (positive = worse).
    pub worse_by: f64,
    /// The wider of the two sides' inter-quartile spreads over the median.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Clone, Debug)]
pub struct Report {
    pub rows: Vec<Row>,
    pub warnings: Vec<String>,
}

impl Report {
    pub fn any_worse(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        let _ = writeln!(
            out,
            "{:<22} {:<26} {:>14} {:>14} {:<6} {:>9} {:>8} {:>7}  verdict",
            "workload", "metric", "A", "B", "unit", "worse by", "spread", "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<22} {:<26} {:>14.4} {:>14.4} {:<6} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
                r.workload,
                r.metric,
                r.before,
                r.after,
                r.unit,
                r.worse_by * 100.0,
                r.spread * 100.0,
                r.bound * 100.0,
                r.verdict.tag()
            );
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            out,
            "{} rows: {} ok, {} worse, {} unresolved",
            self.rows.len(),
            count(Verdict::Ok),
            count(Verdict::Worse),
            count(Verdict::Unresolved)
        );
        out
    }
}

/// Judges one row: `before`/`after` are the repeats' samples.
pub fn judge(bound: &Bound, before: &[f64], after: &[f64]) -> (f64, f64, Verdict) {
    let (a, b) = (crate::stats::median(before), crate::stats::median(after));
    let delta = if bound.higher_is_better { a - b } else { b - a };
    let worse_by = if a != 0.0 {
        delta / a.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let spread = spread(before).max(spread(after));
    let verdict = if worse_by > bound.bound {
        Verdict::Worse
    } else if spread > bound.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

pub fn compare(bounds: &Bounds, before: &Results, after: &Results) -> Result<Report, String> {
    for (label, doc) in [("A", before), ("B", after)] {
        if doc.mode != "full" {
            return Err(format!(
                "{label} is a {:?} run; only full run sets are comparable",
                doc.mode
            ));
        }
    }
    let mut warnings = Vec::new();
    if before.host != after.host {
        // The git sha legitimately differs between a parent and a change.
        let strip = |host: &Json| -> Vec<(String, Json)> {
            host.as_obj()
                .unwrap_or(&[])
                .iter()
                .filter(|(k, _)| k != "git_sha")
                .cloned()
                .collect()
        };
        if strip(&before.host) != strip(&after.host) {
            warnings.push("A and B were measured on different hosts or toolchains".into());
        }
    }
    if before.seed != after.seed {
        warnings.push(format!(
            "A used seed {} and B seed {}",
            before.seed, after.seed
        ));
    }
    let mut rows = Vec::new();
    for (workload, a) in &before.workloads {
        let Some((_, b)) = after.workloads.iter().find(|(n, _)| n == workload) else {
            warnings.push(format!("{workload} is missing from B"));
            continue;
        };
        for bound in &bounds.0 {
            let find = |w: &crate::harness::WorkloadResult| {
                w.metrics
                    .iter()
                    .find(|(n, _)| *n == bound.metric)
                    .map(|(_, s)| s.clone())
            };
            let (Some(sa), Some(sb)) = (find(a), find(b)) else {
                warnings.push(format!(
                    "{workload}/{} is missing from A or B",
                    bound.metric
                ));
                continue;
            };
            let (worse_by, spread, verdict) = judge(bound, &sa.samples, &sb.samples);
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.metric.clone(),
                unit: sa.unit.clone(),
                before: sa.median(),
                after: sb.median(),
                worse_by,
                spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    for (workload, _) in &after.workloads {
        if !before.workloads.iter().any(|(n, _)| n == workload) {
            warnings.push(format!("{workload} is missing from A"));
        }
    }
    if rows.is_empty() {
        return Err("A and B share no (metric, workload) row".into());
    }
    Ok(Report { rows, warnings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::WorkloadResult;
    use crate::stats::Summary;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            metric: "m".into(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let up8 = steady.map(|v| v * 1.08);
        let down8 = steady.map(|v| v * 0.92);
        // Latency (lower is better) up 8 % against a 7 % bound: worse.
        assert_eq!(judge(&bound(false, 0.07), &steady, &up8).2, Verdict::Worse);
        // The same move on a higher-is-better metric is an improvement.
        assert_eq!(judge(&bound(true, 0.07), &steady, &up8).2, Verdict::Ok);
        assert_eq!(judge(&bound(true, 0.07), &steady, &down8).2, Verdict::Worse);
        assert_eq!(judge(&bound(false, 0.10), &steady, &up8).2, Verdict::Ok);
        // Medians agree but one side's repeats scatter by more than the bound.
        let noisy = [100.0, 80.0, 120.0, 90.0, 110.0];
        let (_, spread, verdict) = judge(&bound(false, 0.07), &steady, &noisy);
        assert!(spread > 0.07);
        assert_eq!(verdict, Verdict::Unresolved);
        // Exact counts: bound 0 tolerates equality only.
        assert_eq!(judge(&bound(false, 0.0), &[592.0], &[592.0]).2, Verdict::Ok);
        assert_eq!(
            judge(&bound(false, 0.0), &[592.0], &[593.0]).2,
            Verdict::Worse
        );
        assert_eq!(judge(&bound(false, 0.0), &[592.0], &[591.0]).2, Verdict::Ok);
    }

    fn results(mode: &str, throughput: &[f64]) -> Results {
        Results {
            mode: mode.into(),
            seed: 1,
            host: Json::Null,
            workloads: vec![(
                "w".into(),
                WorkloadResult {
                    metrics: vec![(
                        "throughput_sub_per_s".into(),
                        Summary::new("sub/s", throughput.to_vec()),
                    )],
                    attempted: 10,
                    failed: 0,
                    notes: Vec::new(),
                },
            )],
        }
    }

    #[test]
    fn compare_applies_spec_bounds_and_refuses_quick_runs() {
        let spec = Json::parse(
            r#"{"end_to_end":[{"name":"throughput_sub_per_s","unit":"sub/s","better":"higher","bound":0.07}]}"#,
        )
        .unwrap();
        let bounds = Bounds::from_spec(&spec).unwrap();
        let a = results("full", &[100.0, 101.0, 99.0]);
        let same = compare(&bounds, &a, &results("full", &[100.5, 100.0, 99.5])).unwrap();
        assert!(!same.any_worse() && same.rows[0].verdict == Verdict::Ok);
        let slower = compare(&bounds, &a, &results("full", &[90.0, 91.0, 89.0])).unwrap();
        assert!(slower.any_worse());
        assert!(slower.render().contains("worse"));
        assert!(compare(&bounds, &a, &results("quick", &[100.0])).is_err());
        let bad =
            Json::parse(r#"{"end_to_end":[{"name":"x","better":"lower","bound":0.5}]}"#).unwrap();
        assert!(Bounds::from_spec(&bad).is_err());
    }
}
