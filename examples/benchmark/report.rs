//! The metric spec (`BENCHMARK.json`), the `BENCH_<workload>.json`
//! result files, and `compare`, which judges a change against its parent
//! from runs made in alternating pairs.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use thicket::perfsim::Json;

use crate::host::HostInfo;
use crate::measure::{quartiles, spread, Outcome};
use crate::WORKLOADS;

/// The spec at the root of the repository, built in, so the binary
/// reports exactly the metrics of the checkout it was built from.
const SPEC: &str = include_str!("../../BENCHMARK.json");

pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// Metric names, units, directions and bounds from `BENCHMARK.json`.
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<SpecMetric>,
    pub per_layer: Vec<SpecMetric>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<SpecMetric>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Ok(SpecMetric {
                        name: field("name").ok_or("metric without a name")?,
                        unit: field("unit").ok_or("metric without a unit")?,
                        higher_is_better: field("better").as_deref() == Some("higher"),
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        Ok(Spec {
            run_seconds,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// How one run was made.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub started: SystemTime,
}

/// Add one run to `<dir>/BENCH_<workload>.json`, keeping earlier runs,
/// and refresh the per-metric summaries over all of them.
pub fn record(dir: &Path, out: &Outcome, run: &Run) -> Result<(), String> {
    let path = dir.join(format!("BENCH_{}.json", out.workload));
    let mut runs: Vec<Json> = match std::fs::read_to_string(&path) {
        Ok(text) => Json::parse(&text)
            .ok()
            .and_then(|d| d.get("runs").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .ok_or_else(|| format!("{}: not a result file", path.display()))?,
        Err(_) => Vec::new(),
    };
    let metrics = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), Json::Num(m.value)))
        .collect();
    let units = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), Json::Str(m.unit.clone())))
        .collect();
    let started_ms = run
        .started
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_millis() as f64);
    runs.push(obj(vec![
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("traced", Json::Bool(run.traced)),
        ("started_ms", Json::Num(started_ms)),
        ("correct", Json::Bool(out.problems.is_empty())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
        ("units", Json::Obj(units)),
    ]));
    let here = std::env::current_dir().map_err(|e| e.to_string())?;
    let host = HostInfo::probe(&here)
        .pairs()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v)))
        .collect();
    let doc = obj(vec![
        ("workload", Json::Str(out.workload.clone())),
        ("host", Json::Obj(host)),
        ("metrics", summaries(&runs, false)),
        ("layers", summaries(&runs, true)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&path, doc.to_string_compact() + "\n").map_err(|e| e.to_string())
}

/// Per metric over the untraced (or traced) runs: every sample, their
/// count, median, quartiles and minimum.
fn summaries(runs: &[Json], traced: bool) -> Json {
    let mut names: Vec<(String, String)> = Vec::new();
    let picked: Vec<&Json> = runs
        .iter()
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(traced))
        .collect();
    for r in &picked {
        for (name, unit) in r.get("units").and_then(Json::as_obj).unwrap_or_default() {
            if !names.iter().any(|(n, _)| n == name) {
                names.push((name.clone(), unit.as_str().unwrap_or_default().to_string()));
            }
        }
    }
    let fields = names
        .into_iter()
        .map(|(name, unit)| {
            let samples: Vec<f64> = picked.iter().filter_map(|r| value(r, &name)).collect();
            let (q1, med, q3) = quartiles(&samples).unwrap_or_default();
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let summary = obj(vec![
                ("unit", Json::Str(unit)),
                (
                    "samples",
                    Json::Arr(samples.iter().map(|v| Json::Num(*v)).collect()),
                ),
                ("count", Json::Num(samples.len() as f64)),
                ("median", Json::Num(med)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("min", Json::Num(min)),
            ]);
            (name, summary)
        })
        .collect();
    Json::Obj(fields)
}

fn value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.as_f64()
}

fn num(run: &Json, key: &str) -> f64 {
    run.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Untraced runs in one result file.
fn load_untraced(path: &Path) -> Option<Vec<Json>> {
    let doc = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    Some(
        doc.get("runs")?
            .as_arr()?
            .iter()
            .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(false))
            .cloned()
            .collect(),
    )
}

/// Pair each run of `a` with the run of `b` made with the same seed, in
/// the order they were recorded.
fn pairs<'a>(a: &'a [Json], b: &'a [Json]) -> Vec<(&'a Json, &'a Json)> {
    let mut unused: Vec<&Json> = b.iter().collect();
    a.iter()
        .filter_map(|ra| {
            let i = unused
                .iter()
                .position(|rb| num(rb, "seed") == num(ra, "seed"))?;
            Some((ra, unused.remove(i)))
        })
        .collect()
}

/// Pairs a verdict needs, as the alternating-pairs rule asks.
const MIN_PAIRS: usize = 10;

/// Compare the runs in `a` (the parent) with those in `b` (the change),
/// pair by pair: runs with the same seed form a pair, and the pairs are
/// meant to be run alternately, so that both sides of a pair meet the
/// same host. For every workload and end-to-end metric, the change is
/// judged by its per-pair ratio to the parent, in which the host's slow
/// and fast spells cancel: a regression when the median ratio is worse
/// than the spec's bound, unresolved when the ratios themselves spread
/// wider than the bound (unless the change is better in every pair), and
/// better when it wins nine pairs in ten and its median beats the
/// parent's by more than the parent's own interquartile range. Returns
/// whether nothing regressed.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let mut clean = true;
    let mut compared = 0;
    for w in WORKLOADS {
        let file = format!("BENCH_{w}.json");
        let (Some(ra), Some(rb)) = (load_untraced(&a.join(&file)), load_untraced(&b.join(&file)))
        else {
            continue;
        };
        let pairs = pairs(&ra, &rb);
        let a_first = pairs
            .iter()
            .filter(|(x, y)| num(x, "started_ms") < num(y, "started_ms"))
            .count();
        println!(
            "{w}: {} pairs, A ran first in {a_first}{}",
            pairs.len(),
            if pairs.len() < MIN_PAIRS {
                format!(" (fewer than {MIN_PAIRS}: nothing is resolved)")
            } else {
                String::new()
            }
        );
        if pairs.is_empty() {
            continue;
        }
        compared += 1;
        println!(
            "  {:<14} {:>12} {:>12} {:>8} {:>6} {:>8} {:>6}  verdict",
            "metric", "median A", "median B", "worse %", "bound", "spread", "B wins"
        );
        let failed = |runs: Vec<&Json>| {
            let f: f64 = runs.iter().map(|r| num(r, "failed")).sum();
            let n: f64 = runs.iter().map(|r| num(r, "attempted")).sum();
            f / n.max(1.0)
        };
        let fa = failed(pairs.iter().map(|p| p.0).collect());
        let fb = failed(pairs.iter().map(|p| p.1).collect());
        let verdict = if fb > fa {
            clean = false;
            "REGRESSION"
        } else {
            "not worse"
        };
        println!(
            "  {:<14} {fa:>12.4} {fb:>12.4} {:>8} {:>6} {:>8} {:>6}  {verdict}",
            "failed_share", "", "", "", ""
        );
        for m in &spec.end_to_end {
            let got: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(x, y)| Some((value(x, &m.name)?, value(y, &m.name)?)))
                .collect();
            let verdict = judge(m, &got);
            if verdict.regressed {
                clean = false;
            }
            let va: Vec<f64> = got.iter().map(|p| p.0).collect();
            let vb: Vec<f64> = got.iter().map(|p| p.1).collect();
            let med = |v: &[f64]| quartiles(v).map_or(f64::NAN, |q| q.1);
            println!(
                "  {:<14} {:>12.4} {:>12.4} {:>8.2} {:>6.2} {:>8.2} {:>6}  {}",
                m.name,
                med(&va),
                med(&vb),
                verdict.worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                verdict.spread * 100.0,
                format!("{}/{}", verdict.wins, got.len()),
                verdict.text
            );
        }
    }
    if compared == 0 {
        return Err(format!(
            "no runs with the same seed in both {} and {}",
            a.display(),
            b.display()
        ));
    }
    Ok(clean)
}

struct Verdict {
    /// Median per-pair ratio of change to parent, minus one, signed so
    /// that positive is worse.
    worse: f64,
    /// Interquartile range of the per-pair ratios over their median.
    spread: f64,
    /// Pairs in which the change reads better; ties count for neither.
    wins: usize,
    regressed: bool,
    text: &'static str,
}

/// Judge one metric from its `(parent, change)` values, pair by pair.
fn judge(m: &SpecMetric, pairs: &[(f64, f64)]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    // Ratio > 1 means the change is worse.
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(a, b)| *a > 0.0 && *b > 0.0)
        .map(|&(a, b)| if m.higher_is_better { a / b } else { b / a })
        .collect();
    let wins = ratios.iter().filter(|r| **r < 1.0).count();
    let Some((_, median_ratio, _)) = quartiles(&ratios) else {
        return Verdict {
            worse: f64::NAN,
            spread: f64::NAN,
            wins,
            regressed: false,
            text: "unresolved: no pair with both values",
        };
    };
    let worse = median_ratio - 1.0;
    let spread = spread(&ratios).unwrap_or(0.0);
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (q1, pa, q3) = quartiles(&parent).expect("ratios came from pairs");
    let pb = quartiles(&change).expect("ratios came from pairs").1;
    let sign = if m.higher_is_better { 1.0 } else { -1.0 };
    let every = wins == ratios.len();
    let (regressed, text) = if ratios.len() < MIN_PAIRS {
        (false, "unresolved: too few pairs")
    } else if spread > bound && !every {
        (false, "unresolved: pair ratios spread wider than the bound")
    } else if worse > bound {
        (true, "REGRESSION")
    } else if wins * 10 >= ratios.len() * 9 && sign * (pb - pa) > q3 - q1 {
        (false, "better")
    } else {
        (false, "within bound")
    };
    Verdict {
        worse,
        spread,
        wins,
        regressed,
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> SpecMetric {
        SpecMetric {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    /// Parent values that double across the pairs, as a host's slow and
    /// fast spells make them, with the change at `factor` of each.
    fn pairs(factor: f64) -> Vec<(f64, f64)> {
        (0..10)
            .map(|i| {
                let a = 10.0 * (1.0 + f64::from(i) / 10.0);
                (a, a * factor)
            })
            .collect()
    }

    #[test]
    fn judges_the_per_pair_ratio_not_the_spread_of_each_side() {
        // 20% slower in every pair: a regression, though each side
        // spreads far wider than the bound.
        let v = judge(&metric(false), &pairs(1.2));
        assert!(v.regressed);
        assert!((v.worse - 0.2).abs() < 1e-9);
        // 5% slower: within the bound.
        assert_eq!(judge(&metric(false), &pairs(1.05)).text, "within bound");
        // 20% higher where higher is better: wins every pair, but the
        // medians differ by less than the parent's own quartile range.
        let v = judge(&metric(true), &pairs(1.2));
        assert_eq!((v.wins, v.regressed, v.text), (10, false, "within bound"));
        // A halved time wins every pair by more than that range.
        assert_eq!(judge(&metric(false), &pairs(0.5)).text, "better");
    }

    #[test]
    fn leaves_too_few_or_too_scattered_pairs_unresolved() {
        assert_eq!(
            judge(&metric(false), &pairs(1.2)[..9]).text,
            "unresolved: too few pairs"
        );
        let scattered: Vec<(f64, f64)> = (0..10)
            .map(|i| (10.0, if i % 2 == 0 { 7.0 } else { 13.0 }))
            .collect();
        assert_eq!(
            judge(&metric(false), &scattered).text,
            "unresolved: pair ratios spread wider than the bound"
        );
    }
}
