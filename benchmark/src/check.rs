//! Run sets and the noise-aware comparison of two of them.
//!
//! A run set is what `all` writes: per workload, the values each
//! metric took over a series of runs with consecutive seeds. `check`
//! compares two sets row by row against the bounds `BENCHMARK.json`
//! fixes. A row whose own run-to-run spread (interquartile range as a
//! share of the median, on either side) is wider than its bound is
//! **unresolved**: the comparison cannot tell a change from noise, and
//! saying "unchanged" would be a claim the data does not support.

use crate::spec::{MetricSpec, Spec};
use crate::stats;
use sparta_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values per metric per workload.
pub type Workloads = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// One `all` invocation's results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSet {
    pub seed: u64,
    pub seconds: f64,
    pub threads: u64,
    pub workloads: Workloads,
}

impl RunSet {
    pub fn to_json(&self) -> Json {
        let workloads = self.workloads.iter().fold(Json::obj(), |j, (w, metrics)| {
            let metrics = metrics.iter().fold(Json::obj(), |j, (m, values)| {
                j.with(m, values.iter().map(|&v| Json::F64(v)).collect::<Vec<_>>())
            });
            j.with(w, metrics)
        });
        Json::obj()
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("threads", self.threads)
            .with("workloads", workloads)
    }

    pub fn parse(src: &str) -> Result<RunSet, String> {
        let doc = json::parse(src)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run set: `{key}` is not a number"))
        };
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err("run set: `workloads` is not an object".into());
        };
        let mut out = Workloads::new();
        for (w, metrics) in workloads {
            let Json::Obj(metrics) = metrics else {
                return Err(format!("run set: workload {w} is not an object"));
            };
            let slot = out.entry(w.clone()).or_default();
            for (m, values) in metrics {
                let values = values
                    .as_arr()
                    .ok_or_else(|| format!("run set: {w}/{m} is not an array"))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| format!("run set: {w}/{m} holds a non-number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                slot.insert(m.clone(), values);
            }
        }
        Ok(RunSet {
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            threads: num("threads")? as u64,
            workloads: out,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares one metric's values on the two sides.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("only bounded metrics are judged");
    let (ma, mb) = (stats::median(a), stats::median(b));
    // The share of A's median by which B is worse (negative: better).
    let worse_by = if ma == 0.0 {
        0.0
    } else if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let noisy = |v: &[f64]| stats::iqr_share(v).is_some_and(|s| s > bound);
    if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn spread_text(values: &[f64]) -> String {
    stats::iqr_share(values).map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0))
}

/// Two sets can be compared only when they did the same thing: the
/// phases are time-boxed and the query lists follow from the seed, so
/// medians taken at another seed, length of run, thread count or number
/// of runs differ for reasons that are not the program's.
fn comparable(a: &RunSet, b: &RunSet) -> Result<(), String> {
    if (a.seed, a.seconds, a.threads) != (b.seed, b.seconds, b.threads) {
        return Err(format!(
            "run sets differ in shape: seed {} / {}, seconds {} / {}, threads {} / {}",
            a.seed, b.seed, a.seconds, b.seconds, a.threads, b.threads
        ));
    }
    for (w, metrics) in &a.workloads {
        for (m, va) in metrics {
            let vb = b.workloads.get(w).and_then(|x| x.get(m));
            if let Some(vb) = vb.filter(|vb| vb.len() != va.len()) {
                return Err(format!(
                    "run sets differ in shape: {w}/{m} has {} / {} runs",
                    va.len(),
                    vb.len()
                ));
            }
        }
    }
    Ok(())
}

/// The comparison table and whether any row regressed, or why the two
/// sets cannot be compared. Rows are one per workload × end-to-end
/// metric; the ratio is B's median over A's, with A's median as its
/// base.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> Result<(String, bool), String> {
    comparable(a, b)?;
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<24} {:<16} {:>14} {:>8} {:>14} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let values = |set: &RunSet| set.workloads.get(w).and_then(|x| x.get(&m.name)).cloned();
            let (Some(va), Some(vb)) = (values(a), values(b)) else {
                let _ = writeln!(out, "{w:<24} {:<16} missing on one side", m.name);
                regressed = true;
                continue;
            };
            let verdict = judge(m, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let _ = writeln!(
                out,
                "{w:<24} {:<16} {ma:>14.4} {:>8} {mb:>14.4} {:>8} {:>9.4} {:>6.1}%  {}",
                m.name,
                spread_text(&va),
                spread_text(&vb),
                if ma == 0.0 { 0.0 } else { mb / ma },
                m.bound.unwrap_or(0.0) * 100.0,
                verdict.label(),
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = metric(false, 0.10);
        let base = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            judge(&lower, &base, &[105.0, 104.0, 106.0, 105.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, &base, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, &base, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Improved
        );
        let higher = metric(true, 0.10);
        assert_eq!(
            judge(&higher, &base, &[80.0, 81.0, 79.0, 80.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &base, &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Improved
        );
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_unchanged() {
        let m = metric(false, 0.10);
        let steady = [100.0, 101.0, 99.0, 100.0];
        let noisy = [70.0, 100.0, 130.0, 100.0, 60.0];
        assert_eq!(judge(&m, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&m, &noisy, &steady), Verdict::Unresolved);
        // A single run has no spread to judge by; its median stands.
        assert_eq!(judge(&m, &[100.0], &[100.0]), Verdict::Ok);
    }

    #[test]
    fn sets_of_another_shape_are_refused() {
        let set = |seed, seconds, threads, runs: usize| {
            let mut s = RunSet {
                seed,
                seconds,
                threads,
                ..RunSet::default()
            };
            s.workloads
                .entry("long-sparta".into())
                .or_default()
                .insert("latency_p50_ms".into(), vec![20.0; runs]);
            s
        };
        let spec = Spec::load();
        let base = set(1, 20.0, 2, 10);
        assert!(compare(&spec, &base, &base.clone()).is_ok());
        for other in [
            set(2, 20.0, 2, 10),
            set(1, 1.0, 2, 10),
            set(1, 20.0, 4, 10),
            set(1, 20.0, 2, 1),
        ] {
            let err = compare(&spec, &base, &other).unwrap_err();
            assert!(err.contains("differ in shape"), "{err}");
        }
    }

    #[test]
    fn run_set_round_trips() {
        let mut set = RunSet {
            seed: 7,
            seconds: 1.5,
            threads: 2,
            ..RunSet::default()
        };
        set.workloads
            .entry("w".into())
            .or_default()
            .insert("latency_p50_ms".into(), vec![1.25, 2.0, 1e-7]);
        let text = set.to_json().to_pretty_string(2);
        assert_eq!(RunSet::parse(&text).unwrap(), set);
        assert!(RunSet::parse("{}").is_err());
    }
}
