//! Sample statistics and the result one workload run reports.

use thicket::perfsim::Json;

/// Percentile `p` (0–100) of `samples`, linearly interpolated between
/// closest ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let pos = p / 100.0 * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Run `f`, returning its result and its wall time in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Quartiles `(q1, median, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match
/// the ones an outside check computes from the same values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's regression bound is compared against.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(samples)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one workload run reports back to the parent process.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Operations among them that returned an error.
    pub failed: u64,
    /// Correctness checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The per-layer table of a traced run, one printable line each.
    pub table: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Record a metric derived from samples, if there were any.
    pub fn metric_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => {
                let name = name.into();
                self.problems.push(format!("no samples for {name}"));
            }
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Count one measured operation. The workloads are built so that no
    /// operation fails, so a failure is also a problem; the first few
    /// are kept for the report.
    pub fn op<T, E: std::fmt::Display>(&mut self, result: &Result<T, E>) -> bool {
        self.attempted += 1;
        let Err(e) = result else { return true };
        self.fail(e.to_string());
        false
    }

    /// Record one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 3 {
            self.problems.push(format!("operation failed: {why}"));
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("problems".into(), strs(&self.problems)),
            (
                "metrics".into(),
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::Arr(vec![
                                Json::Str(m.name.clone()),
                                Json::Num(m.value),
                                Json::Str(m.unit.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("table".into(), strs(&self.table)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Outcome> {
        let strs = |key: &str| -> Option<Vec<String>> {
            doc.get(key)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let metrics = doc
            .get("metrics")?
            .as_arr()?
            .iter()
            .map(|m| {
                let m = m.as_arr()?;
                Some(Metric {
                    name: m.first()?.as_str()?.to_string(),
                    value: m.get(1)?.as_f64()?,
                    unit: m.get(2)?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Outcome {
            workload: doc.get("workload")?.as_str()?.to_string(),
            attempted: doc.get("attempted")?.as_i64()? as u64,
            failed: doc.get("failed")?.as_i64()? as u64,
            problems: strs("problems")?,
            metrics,
            table: strs("table")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
