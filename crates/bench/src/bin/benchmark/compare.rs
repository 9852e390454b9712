//! `benchmark compare A.json B.json`: per workload and metric, each side's
//! median and quartiles, the change from A to B, the metric's bound and a
//! verdict. A side may be a comma-separated list of results files (one
//! run each, e.g. ten alternating runs per commit); its spread is then the
//! spread of the runs' values instead of one run's own samples. A run
//! whose record says a check failed is a bad row of its own, whatever its
//! metrics say.

use crate::metrics::Better;
use crate::stats::quartiles;
use omnisim_suite::obs::json::{self, JsonValue};

/// A JSON number as `f64`, whichever of the parser's number kinds it is.
pub fn as_f64(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::U64(v) => Some(*v as f64),
        JsonValue::I64(v) => Some(*v as f64),
        JsonValue::F64(v) => Some(*v),
        _ => None,
    }
}

/// One side of a comparison: a metric's value, quartiles and samples.
#[derive(Debug, Clone)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The spread of either side is wider than the bound, so the change
    /// cannot be told from noise.
    Unresolved,
    /// A per-layer metric: reported, not judged.
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let change = if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY.copysign(b - a)
    } else {
        (b - a) / a.abs()
    };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judges B against A. A gain counts only beyond A's own spread; a spread wider than the bound
/// is unresolved unless every B sample beats every A sample. With
/// `judge_spread` off only the medians count: set-up time is judged that
/// way, because between processes its median moves by up to a third for
/// reasons outside the program (memory layout, which core it lands on).
pub fn verdict(
    a: &Side,
    b: &Side,
    better: Better,
    bound: Option<f64>,
    judge_spread: bool,
) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let change = worsening(a.value, b.value, better);
    if judge_spread && a.spread().max(b.spread()) > bound {
        let b_all_better = b
            .samples
            .iter()
            .all(|&y| a.samples.iter().all(|&x| worsening(x, y, better) < 0.0));
        return if b_all_better && !a.samples.is_empty() && !b.samples.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if change > bound {
        Verdict::Worse
    } else if change < 0.0 && -change > a.spread() {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The fields of a JSON object (none for any other value).
fn fields(value: &JsonValue) -> &[(String, JsonValue)] {
    match value {
        JsonValue::Object(fields) => fields,
        _ => &[],
    }
}

/// `(workload, record)` pairs of a results file: either a whole-suite
/// file with a `workloads` object, or one workload's record.
fn records(value: &JsonValue) -> Vec<(String, &JsonValue)> {
    match value.get("workloads") {
        Some(all) => fields(all).iter().map(|(k, v)| (k.clone(), v)).collect(),
        None => value
            .get("workload")
            .and_then(JsonValue::as_str)
            .map(|name| vec![(name.to_owned(), value)])
            .unwrap_or_default(),
    }
}

/// One side of a metric from its record in each run: a single run is
/// judged by its own samples, several runs by the spread of their values.
fn side(runs: &[&JsonValue]) -> Option<Side> {
    let number = |metric: &JsonValue, key: &str| metric.get(key).and_then(as_f64);
    if let [metric] = runs {
        return Some(Side {
            value: number(metric, "value")?,
            q1: number(metric, "q1")?,
            q3: number(metric, "q3")?,
            samples: metric
                .get("samples")
                .and_then(JsonValue::as_array)
                .map(|s| s.iter().filter_map(as_f64).collect())
                .unwrap_or_default(),
        });
    }
    let values = runs
        .iter()
        .map(|metric| number(metric, "value"))
        .collect::<Option<Vec<f64>>>()?;
    let (q1, value, q3) = quartiles(&values);
    Some(Side {
        value,
        q1,
        q3,
        samples: values,
    })
}

/// Loads a comma-separated list of results files: one side's runs.
fn load_runs(list: &str) -> Result<Vec<JsonValue>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// The named metric's record in every run of a side, if all have it.
fn metric_in_runs<'v>(
    runs: &'v [JsonValue],
    workload: &str,
    name: &str,
) -> Option<Vec<&'v JsonValue>> {
    runs.iter()
        .map(|run| {
            records(run)
                .into_iter()
                .find(|(w, _)| w == workload)
                .and_then(|(_, record)| record.get("metrics")?.get(name))
        })
        .collect()
}

/// Prints a row for every workload record of a side whose run failed a
/// check (or does not say it passed) and returns how many there were: the
/// metrics of such a run measure something other than correct work.
fn failed_runs(label: &str, runs: &[JsonValue]) -> usize {
    let mut bad = 0;
    for (i, run) in runs.iter().enumerate() {
        for (workload, record) in records(run) {
            let correct = record.get("correct") == Some(&JsonValue::Bool(true));
            let failed = record.get("failed").and_then(JsonValue::as_u64);
            if !correct || failed != Some(0) {
                let failed = failed.map_or_else(|| "?".to_owned(), |f| f.to_string());
                println!(
                    "{workload:<16} {:<28} side {label} run {}: correct {correct}, {failed} failed  failed run",
                    "(checks)",
                    i + 1
                );
                bad += 1;
            }
        }
    }
    bad
}

/// Compares two sides, each one results file or a comma-separated list
/// of them, and prints the table. Returns how many rows are bad: metrics
/// that came out worse or unresolved, and runs that failed a check.
pub fn run(a_list: &str, b_list: &str) -> Result<usize, String> {
    let (a_runs, b_runs) = (load_runs(a_list)?, load_runs(b_list)?);
    Ok(compare(&a_runs, &b_runs))
}

fn compare(a_runs: &[JsonValue], b_runs: &[JsonValue]) -> usize {
    println!(
        "{:<16} {:<28} {:>28} {:>28} {:>9} {:>6}  verdict",
        "workload", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "bound"
    );
    let mut bad = failed_runs("A", a_runs) + failed_runs("B", b_runs);
    for (workload, a_record) in records(&a_runs[0]) {
        for (name, a_metric) in a_record.get("metrics").map(fields).unwrap_or_default() {
            let read = (
                metric_in_runs(a_runs, &workload, name).and_then(|m| side(&m)),
                metric_in_runs(b_runs, &workload, name).and_then(|m| side(&m)),
                a_metric
                    .get("better")
                    .and_then(JsonValue::as_str)
                    .and_then(Better::parse),
            );
            let (Some(a_side), Some(b_side), Some(better)) = read else {
                println!("{workload:<16} {name:<28} (missing or unreadable in some run)");
                bad += 1;
                continue;
            };
            let bound = a_metric.get("bound").and_then(as_f64);
            let verdict = verdict(&a_side, &b_side, better, bound, name != "setup_s");
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            let show = |s: &Side| format!("{:.4} [{:.4} {:.4}]", s.value, s.q1, s.q3);
            println!(
                "{workload:<16} {name:<28} {:>28} {:>28} {:>+8.2}% {:>6}  {}",
                show(&a_side),
                show(&b_side),
                // The plain change from A to B; `worsening` for a
                // lower-is-better metric is exactly that.
                100.0 * worsening(a_side.value, b_side.value, Better::Lower),
                bound.map_or_else(|| "-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                verdict.as_str()
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64, spread: f64, samples: &[f64]) -> Side {
        Side {
            value,
            q1: value * (1.0 - spread / 2.0),
            q3: value * (1.0 + spread / 2.0),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let judge = |a: &Side, b: &Side, better, bound| verdict(a, b, better, bound, true);
        let a = at(100.0, 0.02, &[99.0, 100.0, 101.0]);
        // Lower is better: 5% slower is within a 10% bound, 20% is worse.
        let lower = Better::Lower;
        assert_eq!(
            judge(&a, &at(105.0, 0.02, &[]), lower, Some(0.1)),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &at(120.0, 0.02, &[]), lower, Some(0.1)),
            Verdict::Worse
        );
        // A gain beyond A's own spread is better; one inside it is not.
        assert_eq!(
            judge(&a, &at(90.0, 0.02, &[]), lower, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &at(99.5, 0.02, &[]), lower, Some(0.1)),
            Verdict::Within
        );
        // Higher is better flips the direction.
        let higher = Better::Higher;
        assert_eq!(
            judge(&a, &at(80.0, 0.02, &[]), higher, Some(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &at(130.0, 0.02, &[]), higher, Some(0.1)),
            Verdict::Better
        );
        // A spread wider than the bound is unresolved…
        let noisy = at(100.0, 0.5, &[60.0, 100.0, 140.0]);
        let close = at(101.0, 0.02, &[101.0]);
        assert_eq!(judge(&noisy, &close, lower, Some(0.1)), Verdict::Unresolved);
        // …unless every B sample beats every A sample, or only medians count.
        let clear = at(50.0, 0.4, &[40.0, 50.0, 59.0]);
        assert_eq!(judge(&noisy, &clear, lower, Some(0.1)), Verdict::Better);
        assert_eq!(
            verdict(&noisy, &close, lower, Some(0.1), false),
            Verdict::Within
        );
        // Per-layer metrics are reported, not judged.
        assert_eq!(judge(&a, &at(500.0, 0.0, &[]), lower, None), Verdict::Info);
    }

    #[test]
    fn several_runs_are_judged_by_the_spread_of_their_values() {
        let run = |value: f64| {
            json::parse(&format!(
                "{{\"value\": {value}, \"q1\": {value}, \"q3\": {value}, \"samples\": []}}"
            ))
            .expect("valid JSON")
        };
        let runs: Vec<JsonValue> = [4.0, 1.0, 3.0, 2.0].into_iter().map(run).collect();
        let refs: Vec<&JsonValue> = runs.iter().collect();
        let many = side(&refs).expect("every run has the metric");
        assert_eq!((many.q1, many.value, many.q3), (1.25, 2.5, 3.75));
        assert_eq!(many.samples, vec![4.0, 1.0, 3.0, 2.0]);
        let one = side(&refs[..1]).expect("a single run");
        assert_eq!((one.q1, one.value, one.q3), (4.0, 4.0, 4.0));
    }

    /// One workload record as `run_one` writes it, with a single metric.
    fn record(correct: bool, failed: u64, pass_s: f64) -> JsonValue {
        json::parse(&format!(
            "{{\"workload\": \"w\", \"correct\": {correct}, \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\"pass_s\": {{\"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1, \"value\": {pass_s}, \"q1\": {pass_s}, \"q3\": {pass_s}, \"n\": 1, \"samples\": [{pass_s}]}}}}}}"
        ))
        .expect("valid JSON")
    }

    #[test]
    fn a_failed_run_is_bad_whatever_its_metrics_say() {
        let good = [record(true, 0, 1.0)];
        assert_eq!(compare(&good, &good), 0);
        // The same timings, but B's run had a reference mismatch or did
        // not say it passed.
        assert_eq!(compare(&good, &[record(true, 1, 1.0)]), 1);
        assert_eq!(compare(&good, &[record(false, 0, 1.0)]), 1);
        assert_eq!(compare(&[record(false, 2, 1.0)], &good), 1);
        // A failed run that is also slower counts once for each.
        assert_eq!(compare(&good, &[record(false, 1, 2.0)]), 2);
        // Several runs per side: one failure among them is enough.
        assert_eq!(
            compare(&good, &[record(true, 0, 1.0), record(true, 3, 1.0)]),
            1
        );
    }
}
