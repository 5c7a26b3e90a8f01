#![warn(missing_docs)]
//! Unified telemetry for the irnet workspace (DESIGN.md §19).
//!
//! One substrate for everything the long-running subsystems want to
//! report:
//!
//! * a **registry** of named [`Counter`]s, [`Gauge`]s, and log-bucketed
//!   [`Hist`]ograms ([`Telemetry`]) — lock-light: registration takes a
//!   mutex once, every subsequent increment is a single relaxed atomic op
//!   on a shared handle;
//! * a **hierarchical span tree** ([`Span`]) — start/stop wall-clock
//!   timing with parent/child nesting, aggregated per slash-separated
//!   path (`construction/phase1`, `repair/classify`, …);
//! * byte-stable **snapshots** ([`Snapshot`]) rendered as JSON
//!   (`"schema": "irnet-telemetry-v1"`), Prometheus-style text
//!   exposition, a human summary, or a diff of two snapshots
//!   (`irnet stats`);
//! * a structured **progress stream** ([`Progress`]) — the one emitter
//!   behind `--progress human|json`, replacing the previously divergent
//!   ad-hoc stderr formats with either the existing human lines or JSONL
//!   heartbeats carrying work-done / work-total / ETA.
//!
//! Library entry points do not take a handle: they record into
//! [`current`], the innermost [`Telemetry::scope`] on the calling thread,
//! falling back to the process-wide [`global`] (disabled unless the CLI
//! installed one). A caller that wants a run measured wraps it in
//! `tel.scope(|| …)`; everyone else pays one thread-local read.
//!
//! Telemetry is strictly observational: nothing read from the registry
//! ever feeds back into routing construction, repair, or simulation, so
//! attaching it cannot perturb results (the same non-perturbation
//! discipline `crates/obs` established for the flight recorder, and
//! `tests/telemetry.rs` proves it bit-exactly by proptest). A *disabled*
//! handle ([`Telemetry::disabled`], the default) carries no allocation
//! and costs one branch per call on hot paths.
//!
//! ```
//! use irnet_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.counter("sim/runs").inc();
//! tel.gauge("sim/cycles_per_sec").set(1.5e6);
//! tel.histogram("sim/run_cycles").record(10_000);
//! {
//!     let construction = tel.span("construction");
//!     let _phase1 = construction.child("phase1");
//! } // both guards record their wall time here
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("sim/runs"), Some(1));
//! assert_eq!(snap.span("construction/phase1").map(|s| s.count), Some(1));
//! assert!(snap.to_json().contains("irnet-telemetry-v1"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod progress;
mod snapshot;

pub use progress::{Progress, ProgressMode};
pub use snapshot::{HistSnapshot, Snapshot, SpanStat};

/// Number of log2 histogram buckets: value `v > 0` lands in bucket
/// `64 - v.leading_zeros()` (upper bound `2^i - 1`), zero in bucket 0.
const HIST_BUCKETS: usize = 65;

/// Shared histogram cell: total count, total sum, and log2 buckets.
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }
}

/// The registry behind an enabled [`Telemetry`] handle.
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<HistCell>>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

/// The cell named `name` in `map`, registered with `make` on first use. A
/// registered name is found by `&str` without allocating a key.
fn lookup<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    let mut map = map.lock().expect("telemetry registry lock poisoned");
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    let cell = make();
    map.insert(name.to_string(), Arc::clone(&cell));
    cell
}

/// A cheap, cloneable handle to a telemetry registry — or to nothing.
///
/// The default ([`Telemetry::disabled`]) holds no allocation; every
/// operation on it is a single `None` branch. An enabled handle shares
/// one registry across all of its clones, so a registry installed by the
/// CLI (or scoped by a test) sees increments from every subsystem that
/// records into it.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A fresh, empty, enabled registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// The no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether this handle points at a live registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter named `name`, registering it on first use. The
    /// returned handle increments with one relaxed atomic op; hold on to
    /// it in loops to skip the registry lookup.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(
            self.inner
                .as_ref()
                .map(|i| lookup(&i.counters, name, Arc::default)),
        )
    }

    /// The gauge named `name` (an `f64` cell; last write wins).
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(
            self.inner
                .as_ref()
                .map(|i| lookup(&i.gauges, name, Arc::default)),
        )
    }

    /// The log2-bucketed histogram named `name`.
    pub fn histogram(&self, name: &str) -> Hist {
        Hist(
            self.inner
                .as_ref()
                .map(|i| lookup(&i.hists, name, || Arc::new(HistCell::new()))),
        )
    }

    /// Starts a root span named `path`; its wall-clock time is added to
    /// the span tree when the guard drops (or [`Span::finish`] is
    /// called). Nest with [`Span::child`].
    pub fn span(&self, path: &str) -> Span {
        Span::open(self, || path.to_string())
    }

    /// The accumulated calls and seconds of the span at `path`, if it has
    /// been recorded.
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        self.inner
            .as_ref()?
            .spans
            .lock()
            .expect("telemetry registry lock poisoned")
            .get(path)
            .cloned()
    }

    /// Adds an externally measured duration to the span at `path`. Stages
    /// time themselves with [`Telemetry::span`] guards; this is for values
    /// measured elsewhere, such as the deterministic durations the golden
    /// snapshot tests record.
    pub fn record_span(&self, path: &str, seconds: f64) {
        if let Some(i) = &self.inner {
            let mut spans = i.spans.lock().unwrap();
            if let Some(stat) = spans.get_mut(path) {
                stat.count += 1;
                stat.seconds += seconds;
            } else {
                spans.insert(path.to_string(), SpanStat { count: 1, seconds });
            }
        }
    }

    /// Runs `f` with `self` as the calling thread's [`current`] handle, so
    /// every library entry point `f` reaches records here. Scopes nest;
    /// the enclosing handle is restored when `f` returns or unwinds. Other
    /// threads are unaffected — a worker spawned inside `f` must enter its
    /// own scope.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Restores the enclosing scope on drop, so a panic in `f` cannot
        /// leave this handle installed.
        struct Restore(Option<Telemetry>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let outer = self.0.take();
                // Fails only while the thread's locals are being torn down.
                let _ = SCOPE.try_with(|s| *s.borrow_mut() = outer);
            }
        }
        let _restore = Restore(SCOPE.with(|s| s.replace(Some(self.clone()))));
        f()
    }

    /// A point-in-time copy of every metric and span. Empty when
    /// disabled.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(i) = &self.inner {
            for (k, v) in i.counters.lock().unwrap().iter() {
                snap.counters.insert(k.clone(), v.load(Ordering::Relaxed));
            }
            for (k, v) in i.gauges.lock().unwrap().iter() {
                snap.gauges
                    .insert(k.clone(), f64::from_bits(v.load(Ordering::Relaxed)));
            }
            for (k, h) in i.hists.lock().unwrap().iter() {
                let mut buckets = Vec::new();
                for (idx, b) in h.buckets.iter().enumerate() {
                    let n = b.load(Ordering::Relaxed);
                    if n > 0 {
                        let le = if idx == 0 {
                            0
                        } else if idx >= 64 {
                            u64::MAX
                        } else {
                            (1u64 << idx) - 1
                        };
                        buckets.push((le, n));
                    }
                }
                snap.histograms.insert(
                    k.clone(),
                    HistSnapshot {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    },
                );
            }
            for (k, s) in i.spans.lock().unwrap().iter() {
                snap.spans.insert(k.clone(), s.clone());
            }
        }
        snap
    }
}

/// Handle to a registered counter. Increments are relaxed atomic adds;
/// a handle from a disabled registry is a no-op.
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// The current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Handle to a registered gauge (an `f64`; last write wins).
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Handle to a registered log2-bucketed histogram.
#[derive(Clone)]
pub struct Hist(Option<Arc<HistCell>>);

impl Hist {
    /// Records one observation.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }
}

/// A live timing span. Dropping it (or calling [`Span::finish`]) adds
/// the elapsed wall-clock time to the registry under the span's path;
/// [`Span::child`] opens a nested span at `parent_path/name`.
pub struct Span {
    tel: Telemetry,
    path: String,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span on `tel`. The path is built only when `tel` is
    /// enabled, so a span of a disabled handle allocates nothing.
    fn open(tel: &Telemetry, path: impl FnOnce() -> String) -> Span {
        let live = tel.is_enabled();
        Span {
            tel: tel.clone(),
            path: if live { path() } else { String::new() },
            start: live.then(Instant::now),
        }
    }

    /// Opens a child span under this one's path.
    pub fn child(&self, name: &str) -> Span {
        Span::open(&self.tel, || format!("{}/{}", self.path, name))
    }

    /// Stops the span now and returns the elapsed seconds it recorded
    /// (0.0 when the registry is disabled).
    pub fn finish(mut self) -> f64 {
        self.stop()
    }

    fn stop(&mut self) -> f64 {
        match self.start.take() {
            Some(t0) => {
                let dt = t0.elapsed().as_secs_f64();
                self.tel.record_span(&self.path, dt);
                dt
            }
            None => 0.0,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The process-global registry, installed at most once (the CLI does so
/// for `--telemetry <path>`). Defaults to disabled, so library code can
/// always fall back to [`global`] at zero cost.
static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Installs `tel` as the process-global registry. Returns `false` if one
/// was already installed (the original stays in force). Tests should use
/// local [`Telemetry`] instances instead — they run in parallel within
/// one process.
pub fn install(tel: Telemetry) -> bool {
    GLOBAL.set(tel).is_ok()
}

/// The process-global registry: whatever [`install`] put there, else a
/// disabled handle.
pub fn global() -> Telemetry {
    GLOBAL.get().cloned().unwrap_or_default()
}

thread_local! {
    /// The innermost [`Telemetry::scope`] entered on this thread.
    static SCOPE: RefCell<Option<Telemetry>> = const { RefCell::new(None) };
}

/// The handle library entry points record into: the innermost
/// [`Telemetry::scope`] on the calling thread, else [`global`].
pub fn current() -> Telemetry {
    SCOPE.with(|s| s.borrow().clone()).unwrap_or_else(global)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x").add(5);
        tel.gauge("y").set(1.0);
        tel.histogram("z").record(9);
        tel.record_span("a/b", 0.5);
        let _guard = tel.span("root");
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn spans_of_a_disabled_handle_allocate_and_record_nothing() {
        let tel = Telemetry::disabled();
        let root = tel.span("repair");
        let child = root.child("classify");
        assert_eq!(child.path.capacity(), 0);
        assert_eq!(child.finish(), 0.0);
        assert_eq!(root.finish(), 0.0);
        assert!(tel.snapshot().spans.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_register_and_accumulate() {
        let tel = Telemetry::enabled();
        let c = tel.counter("grid/points_run");
        c.add(3);
        c.inc();
        tel.counter("grid/points_run").add(6); // same cell via re-lookup
        tel.gauge("sim/cycles_per_sec").set(2.0);
        tel.gauge("sim/cycles_per_sec").set(4.5);
        let h = tel.histogram("sim/run_cycles");
        h.record(0);
        h.record(1);
        h.record(3);
        h.record(1000);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("grid/points_run"), Some(10));
        assert_eq!(snap.gauges.get("sim/cycles_per_sec"), Some(&4.5));
        let hist = &snap.histograms["sim/run_cycles"];
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 1004);
        // 0 -> le 0; 1 -> le 1; 3 -> le 3; 1000 -> le 1023.
        assert_eq!(hist.buckets, vec![(0, 1), (1, 1), (3, 1), (1023, 1)]);
    }

    #[test]
    fn span_guards_nest_and_aggregate_by_path() {
        let tel = Telemetry::enabled();
        {
            let root = tel.span("construction");
            let _p1 = root.child("phase1");
        }
        {
            let root = tel.span("construction");
            let secs = root.child("phase1").finish();
            assert!(secs >= 0.0);
        }
        let snap = tel.snapshot();
        assert_eq!(snap.span("construction").unwrap().count, 2);
        assert_eq!(snap.span("construction/phase1").unwrap().count, 2);
        assert!(snap.span_seconds("construction").unwrap() >= 0.0);
        assert!(snap.span("missing").is_none());
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        other.counter("faults/epochs").inc();
        assert_eq!(tel.snapshot().counter("faults/epochs"), Some(1));
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Never `install` here: tests share the process.
        assert!(!global().is_enabled() || global().is_enabled());
        let tel = global();
        tel.counter("noop").inc(); // must not panic either way
    }

    /// The `hit` counter as `tel` recorded it.
    fn hits(tel: &Telemetry) -> Option<u64> {
        tel.snapshot().counter("hit")
    }

    #[test]
    fn current_falls_back_to_global_outside_any_scope() {
        // Never `install` here: tests share the process, and the global
        // registry is disabled unless some binary installed one.
        assert_eq!(current().is_enabled(), global().is_enabled());
        assert!(!current().is_enabled());
    }

    #[test]
    fn nested_scopes_restore_the_outer_handle() {
        let outer = Telemetry::enabled();
        let inner = Telemetry::enabled();
        outer.scope(|| {
            current().counter("hit").inc();
            inner.scope(|| current().counter("hit").add(10));
            current().counter("hit").inc();
        });
        assert!(!current().is_enabled());
        assert_eq!(hits(&outer), Some(2));
        assert_eq!(hits(&inner), Some(10));
    }

    #[test]
    fn a_panicking_scope_still_restores_the_outer_handle() {
        let outer = Telemetry::enabled();
        let inner = Telemetry::enabled();
        outer.scope(|| {
            let caught = std::panic::catch_unwind(|| {
                inner.scope(|| {
                    current().counter("hit").inc();
                    panic!("stage failed");
                });
            });
            assert!(caught.is_err());
            current().counter("hit").add(5);
        });
        assert!(!current().is_enabled());
        assert_eq!(hits(&inner), Some(1));
        assert_eq!(hits(&outer), Some(5));
    }

    #[test]
    fn a_scope_is_invisible_on_other_threads() {
        let tel = Telemetry::enabled();
        tel.scope(|| {
            let elsewhere = std::thread::spawn(|| current().is_enabled())
                .join()
                .expect("probe thread panicked");
            assert!(!elsewhere);
            assert!(current().is_enabled());
        });
    }
}
