//! Repeated runs in fresh processes, their summary, and the parent-vs-
//! change comparison.

use crate::spec::{self, Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::Args;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the runs of one workload produced.
#[derive(Default)]
struct WorkloadRuns {
    digests: Vec<String>,
    correct: bool,
    attempted: Vec<u64>,
    failed: Vec<u64>,
    /// Untraced metrics, one value per run, in run order.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Per-layer metrics of the traced run.
    layers: BTreeMap<String, f64>,
}

/// One child's parsed output.
struct ChildResult {
    digest: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs every workload (or the one named) `--reps` times, interleaved, in
/// fresh processes, then one traced run each if asked; prints each metric's
/// median with min and max and writes the results file. Returns 1 when a
/// run failed, was incorrect, or the digests of one workload disagree.
pub fn reps(args: &Args) -> i32 {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let reps = args.reps.unwrap_or(3);
    let mut runs: BTreeMap<&str, WorkloadRuns> = workloads
        .iter()
        .map(|&w| {
            let runs = WorkloadRuns {
                correct: true,
                ..WorkloadRuns::default()
            };
            (w, runs)
        })
        .collect();
    let mut ok = true;
    let plan = (0..reps)
        .flat_map(|rep| workloads.iter().map(move |&w| (rep, w, false)))
        .chain(
            workloads
                .iter()
                .filter(|_| args.trace)
                .map(|&w| (reps, w, true)),
        );
    for (rep, w, traced) in plan {
        let t0 = Instant::now();
        let child = run_child(w, args.seed, args.seconds, traced);
        let label = if traced {
            "trace".to_string()
        } else {
            format!("rep {}/{reps}", rep + 1)
        };
        eprintln!("{label} {w}: {:.1} s", t0.elapsed().as_secs_f64());
        let entry = runs.get_mut(w).expect("every workload has an entry");
        let res = match child {
            Ok(res) => res,
            Err(e) => {
                eprintln!("{w}: {e}");
                ok = false;
                continue;
            }
        };
        entry.correct &= res.correct;
        entry.digests.push(res.digest);
        if traced {
            entry.layers.extend(res.metrics);
            continue;
        }
        entry.attempted.push(res.attempted);
        entry.failed.push(res.failed);
        for (name, v) in res.metrics {
            entry.metrics.entry(name).or_default().push(v);
        }
    }

    for w in &workloads {
        let r = &runs[w];
        for m in END_TO_END {
            let Some(values) = r.metrics.get(m.name) else {
                continue;
            };
            let (lo, hi) = min_max(values);
            let mid = median(values).unwrap_or(f64::NAN);
            println!(
                "{w} {} {mid} {} (min {lo}, max {hi}, n={})",
                m.name,
                m.unit,
                values.len()
            );
        }
        for (name, v) in &r.layers {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            println!("{w} {name} {v} {unit} (traced)");
        }
        if let (Some(traced), Some(plain)) = (
            r.layers.get("trace.unit_p50_ms"),
            r.metrics.get("unit_p50_ms").and_then(|v| median(v)),
        ) {
            println!("{w} trace.overhead_ms {} ms", traced - plain);
        }
        let attempted: u64 = r.attempted.iter().sum();
        let failed: u64 = r.failed.iter().sum();
        println!(
            "{w} failed_share {} failed/attempted ({failed}/{attempted})",
            failed as f64 / attempted.max(1) as f64
        );
        let same = r.digests.windows(2).all(|p| p[0] == p[1]);
        println!(
            "{w} digest {} hex",
            r.digests.first().map_or("-", String::as_str)
        );
        if !same {
            eprintln!(
                "{w}: INCORRECT: digests differ between runs of one seed: {:?}",
                r.digests
            );
        }
        if !r.correct {
            eprintln!("{w}: INCORRECT: a run failed its correctness checks");
        }
        ok &= same && r.correct;
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join("results.json"));
    match write_results(&out, args, reps, &workloads, &runs) {
        Ok(()) => eprintln!("results written to {}", out.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            ok = false;
        }
    }
    i32::from(!ok)
}

/// Runs one workload in a fresh copy of this executable and parses its
/// result line and digest.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line: Value =
        serde_json::from_str(last).map_err(|e| format!("bad result line ({e}): {last:?}"))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{workload} digest ")))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or("no digest line")?
        .to_string();
    let metrics = line
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| (name.clone(), number(m.get("value"))))
        .collect();
    let res = ChildResult {
        digest,
        correct: line.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: number(line.get("attempted")) as u64,
        failed: number(line.get("failed")) as u64,
        metrics,
    };
    Ok(res)
}

fn number(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::F64(x)) => *x,
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        _ => f64::NAN,
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The results file `--compare` reads.
fn write_results(
    path: &Path,
    args: &Args,
    reps: usize,
    workloads: &[&str],
    runs: &BTreeMap<&str, WorkloadRuns>,
) -> std::io::Result<()> {
    let floats = |v: &[f64]| Value::Seq(v.iter().map(|&x| Value::F64(x)).collect());
    let workloads = workloads
        .iter()
        .map(|&w| {
            let r = &runs[w];
            let metrics = r
                .metrics
                .iter()
                .map(|(name, values)| {
                    let unit = spec::metric(name).map_or("", |m| m.unit);
                    Value::Map(vec![
                        ("name".into(), Value::Str(name.clone())),
                        ("unit".into(), Value::Str(unit.into())),
                        ("values".into(), floats(values)),
                    ])
                })
                .collect();
            let layers = r
                .layers
                .iter()
                .map(|(name, v)| (name.clone(), Value::F64(*v)))
                .collect();
            Value::Map(vec![
                ("name".into(), Value::Str(w.into())),
                (
                    "digest".into(),
                    Value::Str(r.digests.first().cloned().unwrap_or_default()),
                ),
                ("correct".into(), Value::Bool(r.correct)),
                (
                    "attempted".into(),
                    Value::Seq(r.attempted.iter().map(|&n| Value::U64(n)).collect()),
                ),
                (
                    "failed".into(),
                    Value::Seq(r.failed.iter().map(|&n| Value::U64(n)).collect()),
                ),
                ("metrics".into(), Value::Seq(metrics)),
                ("layers".into(), Value::Map(layers)),
            ])
        })
        .collect();
    let doc = Value::Map(vec![
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("reps".into(), Value::U64(reps as u64)),
        ("workloads".into(), Value::Seq(workloads)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("results JSON cannot fail") + "\n",
    )
}

/// A results file, as `(workload, metric) -> values` plus digests.
struct Results {
    values: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<String, String>,
}

fn read_results(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Results {
        values: BTreeMap::new(),
        digests: BTreeMap::new(),
    };
    let bad = || format!("{}: not a benchmark results file", path.display());
    for w in doc
        .get("workloads")
        .and_then(Value::as_seq)
        .ok_or_else(bad)?
    {
        let Some(Value::Str(name)) = w.get("name") else {
            return Err(bad());
        };
        if let Some(Value::Str(d)) = w.get("digest") {
            out.digests.insert(name.clone(), d.clone());
        }
        for m in w.get("metrics").and_then(Value::as_seq).ok_or_else(bad)? {
            let Some(Value::Str(metric)) = m.get("name") else {
                return Err(bad());
            };
            let values = m
                .get("values")
                .and_then(Value::as_seq)
                .ok_or_else(bad)?
                .iter()
                .map(|v| number(Some(v)))
                .collect();
            out.values.insert((name.clone(), metric.clone()), values);
        }
    }
    Ok(out)
}

/// How one (workload, metric) pair moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's quartile spread.
    Improved,
    /// Within the bound.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The spread is wider than the bound, so no call can be made.
    Unresolved,
}

/// Judges paired runs of the parent and the change (run `i` of each side
/// forms pair `i`) by the rule of the choosing-metrics guide: a gain needs
/// nine tenths of the pairs won (ties count for neither side) and a median
/// difference beyond the parent's quartile spread; a spread wider than the
/// bound is unresolved unless every change run beats every parent run.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: f64,
) -> (Verdict, usize, usize) {
    let gain = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| gain(**p, **c) > 0.0)
        .count();
    let (Some(pm), Some(cm)) = (median(parent), median(change)) else {
        return (Verdict::Unresolved, wins, pairs);
    };
    let spread = |v: &[f64], m: f64| quartiles(v).map_or(0.0, |(q1, q3)| (q3 - q1) / m.abs());
    let parent_iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| gain(p, c) > 0.0));
    let v = if gain(pm, cm) > parent_iqr && wins * 10 >= pairs * 9 && pairs > 0 {
        Verdict::Improved
    } else if (spread(parent, pm) > bound || spread(change, cm) > bound) && !all_better {
        Verdict::Unresolved
    } else if -gain(pm, cm) > bound * pm.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (v, wins, pairs)
}

/// Compares two results files pair by pair. Returns 1 when any pair got
/// worse or a file could not be read.
pub fn compare(parent: &Path, change: &Path) -> i32 {
    let (p, c) = match (read_results(parent), read_results(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return 1;
        }
    };
    let mut worse = false;
    println!(
        "workload metric | parent median [q1, q3] | change median [q1, q3] | pairs won | verdict"
    );
    for ((w, name), pv) in &p.values {
        let (Some(cv), Some(m)) = (c.values.get(&(w.clone(), name.clone())), spec::metric(name))
        else {
            continue;
        };
        let bound = m.bound.unwrap_or(0.0);
        let (v, wins, pairs) = verdict(pv, cv, m.better, bound);
        worse |= v == Verdict::Worse;
        let q = |v: &[f64]| {
            let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            format!("{:.6} [{q1:.6}, {q3:.6}]", median(v).unwrap_or(f64::NAN))
        };
        println!(
            "{w} {name} | {} | {} | {wins}/{pairs} | {v:?} ({} is better, bound {bound})",
            q(pv),
            q(cv),
            m.better.name()
        );
    }
    for (w, d) in &p.digests {
        if let Some(cd) = c.digests.get(w) {
            let same = if d == cd { "identical" } else { "DIFFERENT" };
            println!("{w} digest {same} ({d} vs {cd})");
        }
    }
    i32::from(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            verdict(&parent, &faster, Better::Lower, 0.1).0,
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &same, Better::Lower, 0.1).0,
            Verdict::Unchanged
        );
        // Higher-is-better flips the reading of the same numbers.
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1).0,
            Verdict::Worse
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(&noisy, &slower, Better::Lower, 0.1).0,
            Verdict::Unresolved
        );
    }
}
