//! One workload run: timed set-ups, timed operations, the correctness
//! gate, the output digest and the per-layer counters a workload reports.

use crate::stats::Digest;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Everything one workload run measures and checks.
pub struct Run<'a> {
    /// The span recorder (disabled outside `--trace 1`).
    pub tr: &'a Tracer,
    /// Seconds of operation time the run measures.
    budget: f64,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each timed operation.
    pub op_ms: Vec<f64>,
    /// Milliseconds of operation time of each finished unit of work.
    pub unit_ms: Vec<f64>,
    /// Index into `op_ms` where the current unit began.
    unit_start: usize,
    /// Operations attempted: load points, flit runs, repairs, flow queries.
    pub attempted: u64,
    /// Operations that failed: deadlocked runs, repair errors, bad flow
    /// points.
    pub failed: u64,
    /// Hash of every output of the run's guaranteed prefix.
    pub digest: Digest,
    /// Correctness violations; any one makes the run incorrect.
    pub errors: Vec<String>,
    /// First digest seen per operation key, so repeats must reproduce it.
    seen: BTreeMap<usize, u64>,
    /// Per-layer counters and ratios the workload reports (trace runs).
    pub layer: BTreeMap<&'static str, f64>,
}

impl<'a> Run<'a> {
    /// A run that measures `seconds` of operation time.
    pub fn new(tr: &'a Tracer, seconds: f64) -> Run<'a> {
        Run {
            tr,
            budget: seconds,
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            unit_ms: Vec::new(),
            unit_start: 0,
            attempted: 0,
            failed: 0,
            digest: Digest::default(),
            errors: Vec::new(),
            seen: BTreeMap::new(),
            layer: BTreeMap::new(),
        }
    }

    /// Times one set-up, inside a `setup` span.
    pub fn setup<T>(&mut self, f: impl FnOnce(SpanId) -> T) -> T {
        let t0 = Instant::now();
        let out = self.tr.span("setup", None, f);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Times one operation, inside an `op` span.
    pub fn op<T>(&mut self, f: impl FnOnce(SpanId) -> T) -> T {
        let t0 = Instant::now();
        let out = self.tr.span("op", None, f);
        self.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Closes the current unit of work: the operations timed since the
    /// previous unit ended.
    pub fn end_unit(&mut self) {
        self.unit_ms
            .push(self.op_ms[self.unit_start..].iter().sum());
        self.unit_start = self.op_ms.len();
    }

    /// The share of the time budget the operations have taken so far. A
    /// workload starts new work only while it is below 1; set-ups and
    /// checks between operations do not count against the budget.
    pub fn spent(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / (self.budget * 1e3)
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Requires that operation `key` produce the same outputs every time
    /// the run repeats it.
    pub fn repeat(&mut self, key: usize, digest: Digest) {
        let first = *self.seen.entry(key).or_insert(digest.value());
        self.check(first == digest.value(), || {
            format!("operation {key} gave different outputs when repeated")
        });
    }

    /// Adds `v` to per-layer counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_insert(0.0) += v;
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
