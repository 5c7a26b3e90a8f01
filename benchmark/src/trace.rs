//! Benchmark-side spans: the traced run wraps each call into a layer in a
//! span (name, start, end, parent) kept in memory and written out when the
//! run ends. Nothing here reaches into the library.

use serde::Value;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `None` stands for "no parent" and for every
/// span of a disabled tracer.
pub type SpanId = Option<u32>;

/// One finished span, times in seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary this span wraps, e.g. `turns.table_fill`.
    pub name: &'static str,
    /// The span that caused it.
    pub parent: SpanId,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
}

/// An in-memory span recorder, shared by the worker threads of one run.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing and costs one branch.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so calls it makes can nest under it.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("a span holder panicked");
            spans.push(Span {
                name,
                parent,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
            });
            u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans")
        };
        let out = f(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("a span holder panicked")[id as usize].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span holder panicked").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children (a parent whose work runs
/// on several threads) count once, and child time outside the parent's
/// interval does not count.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// The spans as JSON: `{"spans": [{"name", "parent", "start", "end"}]}`.
pub fn to_json(spans: &[Span]) -> String {
    let rows = spans
        .iter()
        .map(|s| {
            Value::Map(vec![
                ("name".into(), Value::Str(s.name.into())),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                ),
                ("start".into(), Value::F64(s.start)),
                ("end".into(), Value::F64(s.end)),
            ])
        })
        .collect();
    let doc = Value::Map(vec![("spans".into(), Value::Seq(rows))]);
    serde_json::to_string_pretty(&doc).expect("span JSON cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span("op", None, 0.0, 10.0),
            // Two threads' children overlap on [2, 3]: covered once.
            span("sim.run", Some(0), 1.0, 3.0),
            span("sim.run", Some(0), 2.0, 4.0),
            // Reaches past the parent's end: only [9, 10] is covered.
            span("metrics.paper_metrics", Some(0), 9.0, 12.0),
            // A grandchild counts against its own parent, not the root.
            span("core.phases", Some(1), 1.5, 2.5),
        ];
        let st = self_times(&spans);
        assert!((st[0] - 6.0).abs() < 1e-12, "root self {}", st[0]);
        assert!((st[1] - 1.0).abs() < 1e-12);
        assert!((st[2] - 2.0).abs() < 1e-12);
        assert!((st[3] - 3.0).abs() < 1e-12);
        assert!((st[4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, |id| id), None);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let inner = on.span("outer", None, |id| on.span("inner", id, |_| id));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, inner);
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
