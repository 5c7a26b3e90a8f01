//! `benchmark` — the benchmark of record for the DOWN/UP pipeline.
//!
//! It calls the library's public functions and times them from outside;
//! simulated figures come from the deterministic model, timings are wall
//! clock. See `README.md` next to this package for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! # one run of one workload (the last stdout line is the JSON result)
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fault-1024 --seed 3 --seconds 16 --trace 0
//! # every workload, three interleaved runs each in fresh processes
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --reps 3 [--seed S] [--seconds N] [--trace 1] [--out FILE]
//! # parent vs change
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --compare PARENT.json CHANGE.json
//! ```

mod common;
mod fault;
mod fig8;
mod flow;
mod orchestrate;
mod run;
mod scale;
mod spec;
mod stats;
mod trace;

use run::{ratio, Run};
use serde::Value;
use spec::{END_TO_END, LAYERS, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                 [--reps N] [--out FILE]
       benchmark --compare PARENT.json CHANGE.json

  --workload NAME   fig8-128, scale-2048, fault-1024 or flow-2048; with no
                    --reps, runs that one workload once in this process and
                    prints its result as the last line
  --seed N          input seed (default 0; 0 reproduces the paper grid)
  --seconds N       operation time each run measures (default 16)
  --trace 0|1       1: report per-layer metrics from a traced run instead
  --reps N          run every workload (or the one named) N times,
                    interleaved, each in a fresh process; print medians
  --out FILE        where --reps writes its results (default
                    benchmark/out/results.json)
  --compare A B     compare two --reps result files
";

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        reps: None,
        out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(n);
            }
            "--out" => a.out = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?.into(), value()?.into())),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some((parent, change)) = &args.compare {
        orchestrate::compare(parent, change)
    } else if let (Some(w), None) = (&args.workload, args.reps) {
        single(w, args.seed, args.seconds, args.trace)
    } else {
        orchestrate::reps(&args)
    };
    std::process::exit(code);
}

/// Runs `workload` once at full size and prints its metrics, one
/// `workload metric value unit` line each, then the result line. Returns
/// the exit code: 1 when a correctness check failed.
fn single(workload: &str, seed: u64, seconds: f64, traced: bool) -> i32 {
    let tr = Tracer::new(traced);
    let mut r = Run::new(&tr, seconds);
    run_workload(workload, seed, &mut r);
    let metrics = if traced {
        layer_metrics(&r)
    } else {
        end_to_end(&r)
    };
    for (name, v) in &metrics {
        r.check(v.is_finite(), || format!("metric {name} is not finite"));
    }
    for (name, v) in &metrics {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        println!("{workload} {name} {v} {unit}");
    }
    println!("{workload} digest {:016x} hex", r.digest.value());
    println!("{workload} ops {} count", r.op_ms.len());
    if let Some(p90) = stats::percentile(&r.op_ms, 90.0) {
        println!("{workload} op_p90_ms {p90} ms");
    }
    if traced {
        print_self_times(workload, &tr);
        write_trace(workload, &tr);
    }
    for e in &r.errors {
        eprintln!("{workload}: INCORRECT: {e}");
    }
    println!("{}", result_line(&r, &metrics));
    i32::from(!r.errors.is_empty())
}

/// Dispatches to the workload at its size of record.
fn run_workload(workload: &str, seed: u64, r: &mut Run) {
    match workload {
        "fig8-128" => fig8::run(&fig8::Size::full(), seed, r),
        "scale-2048" => scale::run(&scale::Size::full(), seed, r),
        "fault-1024" => fault::run(&fault::Size::full(), seed, r),
        "flow-2048" => flow::run(&flow::Size::full(), seed, r),
        other => unreachable!("workload {other} was validated by the parser"),
    }
}

/// The host metrics of an untraced run.
fn end_to_end(r: &Run) -> Vec<(&'static str, f64)> {
    let nan = f64::NAN;
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => stats::median(&r.setup_s).unwrap_or(nan),
                "op_p50_ms" => stats::median(&r.op_ms).unwrap_or(nan),
                "unit_p50_ms" => stats::median(&r.unit_ms).unwrap_or(nan),
                "peak_rss_mb" => peak_rss_mb(),
                other => unreachable!("no rule for end-to-end metric {other}"),
            };
            (m.name, v)
        })
        .collect()
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The per-layer metrics of a traced run, from its spans and the layer
/// counters the workload kept.
fn layer_metrics(r: &Run) -> Vec<(&'static str, f64)> {
    let spans = r.tr.spans();
    let selfs = trace::self_times(&spans);
    let total: f64 = selfs.iter().sum();
    let self_of = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (_, t)| acc + t)
    };
    let calls_of = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let (mut covered, mut container) = (0.0, 0.0);
    for (s, t) in spans.iter().zip(&selfs) {
        if s.name == "setup" || s.name == "op" {
            container += s.end - s.start;
            covered += s.end - s.start - t;
        }
    }
    let get = |k: &str| r.layer.get(k).copied().unwrap_or(0.0);
    PER_LAYER
        .iter()
        .map(|m| {
            let name = m.name;
            let layer_of = |suffix| name.strip_suffix(suffix).filter(|l| LAYERS.contains(l));
            let v = if let Some(l) = layer_of("_pct") {
                100.0 * ratio(self_of(l), total)
            } else if let Some(l) = layer_of("_ms") {
                1e3 * ratio(self_of(l), calls_of(l))
            } else {
                match name {
                    "trace.coverage" => ratio(covered, container),
                    "trace.unit_p50_ms" => stats::median(&r.unit_ms).unwrap_or(f64::NAN),
                    "sim.header_block_rate" => {
                        ratio(get("sim.header_block_sum"), get("sim.prefix_runs"))
                    }
                    "sim.flit_hops_per_s" => ratio(get("sim.flit_hops_all"), self_of("sim.run")),
                    "core.repair_inplace_share" => {
                        ratio(get("core.repairs_inplace"), get("core.repairs"))
                    }
                    "core.repair_touched_rows" => {
                        ratio(get("core.repair_rows_sum"), get("core.repairs"))
                    }
                    "flow.rep_sims" => ratio(get("flow.rep_sims_sum"), get("flow.predictors")),
                    "flow.rep_sim_hit_share" => ratio(
                        get("flow.rep_sim_hits"),
                        get("flow.rep_sim_hits") + get("flow.rep_sims_sum"),
                    ),
                    "flow.route_cache_hit_share" => ratio(
                        get("flow.route_cache_hits"),
                        get("flow.route_cache_hits") + get("flow.route_cache_misses"),
                    ),
                    // Counters the workloads report as they are.
                    _ => get(name),
                }
            };
            (name, v)
        })
        .collect()
}

/// Prints each layer's self time, and the harness's own (`setup` / `op`
/// time no layer span covers).
fn print_self_times(workload: &str, tr: &Tracer) {
    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        *by_name.entry(s.name).or_insert(0.0) += t;
    }
    for (name, t) in by_name {
        println!("{workload} self.{name} {t} s");
    }
}

/// Writes the run's spans to `out/trace-<workload>.json` in this package.
fn write_trace(workload: &str, tr: &Tracer) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&tr.spans()) + "\n"));
    match written {
        Ok(()) => eprintln!("{workload}: spans written to {}", path.display()),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}

/// Where runs leave their files: `out/` inside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(r: &Run, metrics: &[(&'static str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, v)| {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            (
                (*name).to_string(),
                Value::Map(vec![
                    ("value".into(), Value::F64(*v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(r.errors.is_empty())),
        ("attempted".into(), Value::U64(r.attempted)),
        ("failed".into(), Value::U64(r.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result JSON cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_tiny(workload: &str, r: &mut Run) {
        match workload {
            "fig8-128" => fig8::run(&fig8::Size::tiny(), 1, r),
            "scale-2048" => scale::run(&scale::Size::tiny(), 1, r),
            "fault-1024" => fault::run(&fault::Size::tiny(), 1, r),
            "flow-2048" => flow::run(&flow::Size::tiny(), 1, r),
            other => panic!("no tiny size for {other}"),
        }
    }

    #[test]
    fn every_workload_emits_every_declared_metric_untraced_and_traced() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let tr = Tracer::new(traced);
                let mut r = Run::new(&tr, 0.0);
                run_tiny(w, &mut r);
                assert!(r.errors.is_empty(), "{w}: {:?}", r.errors);
                assert!(r.attempted > 0 && r.failed == 0, "{w}");
                let (metrics, declared) = if traced {
                    (layer_metrics(&r), PER_LAYER.to_vec())
                } else {
                    (end_to_end(&r), END_TO_END.to_vec())
                };
                let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
                assert_eq!(names, want, "{w} traced={traced}");
                for (name, v) in &metrics {
                    assert!(v.is_finite(), "{w} {name} = {v}");
                }
                if !traced {
                    assert!(metrics.iter().all(|m| m.1 > 0.0), "{w}: {metrics:?}");
                }
            }
        }
    }

    #[test]
    fn traced_and_untraced_runs_agree_on_every_output() {
        for w in WORKLOADS {
            let digests: Vec<u64> = [false, true]
                .into_iter()
                .map(|traced| {
                    let tr = Tracer::new(traced);
                    let mut r = Run::new(&tr, 0.0);
                    run_tiny(w, &mut r);
                    r.digest.value()
                })
                .collect();
            assert_eq!(digests[0], digests[1], "{w}");
        }
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_seq).expect(key).to_vec();
        let names = |key: &str| -> Vec<String> {
            list(key)
                .iter()
                .map(|m| match m.get("name") {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("{key}: name {other:?}"),
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.to_vec());
        assert_eq!(doc.get("run_seconds"), Some(&Value::U64(spec::RUN_SECONDS)));
        for (key, declared) in [
            ("end_to_end", END_TO_END.to_vec()),
            ("per_layer", PER_LAYER.to_vec()),
        ] {
            let entries = list(key);
            assert_eq!(entries.len(), declared.len(), "{key}");
            for (e, m) in entries.iter().zip(&declared) {
                assert_eq!(e.get("name"), Some(&Value::Str(m.name.into())));
                assert_eq!(e.get("unit"), Some(&Value::Str(m.unit.into())));
                assert_eq!(e.get("better"), Some(&Value::Str(m.better.name().into())));
                assert_eq!(
                    e.get("bound").and_then(|b| match b {
                        Value::F64(x) => Some(*x),
                        _ => None,
                    }),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn command_line_parses_run_options_and_rejects_bad_values() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        let a = args("--workload fault-1024 --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fault-1024"), 7, 3.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--reps 0").is_err());
    }
}
