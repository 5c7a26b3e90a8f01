//! The one progress emitter behind `--progress human|json`.
//!
//! Every long-running loop (sweep points, grid shards, fault epochs,
//! validation sizes) reports through a [`Progress`] handle. In
//! [`ProgressMode::Human`] it reproduces the established stderr lines
//! byte-for-byte (`task: done/total unit, elapsed Xs, eta Ys`, optionally
//! with a percentage); in [`ProgressMode::Json`] it emits one JSONL
//! heartbeat per tick carrying work-done / work-total / elapsed / ETA,
//! ready for a supervising process to stream.
//!
//! The handle is share-safe (`&self` everywhere, atomic throttle), so a
//! multi-threaded producer like the grid runner can tick it from every
//! shard and at most one line per throttle window wins.

use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Output format of a [`Progress`] emitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// The established human-readable stderr lines.
    #[default]
    Human,
    /// One JSON object per line (JSONL heartbeats).
    Json,
}

impl ProgressMode {
    /// Parses `"human"` / `"json"`.
    pub fn parse(s: &str) -> Option<ProgressMode> {
        match s {
            "human" => Some(ProgressMode::Human),
            "json" => Some(ProgressMode::Json),
            _ => None,
        }
    }
}

/// A progress/heartbeat stream for one task with a known total.
pub struct Progress {
    task: String,
    unit: String,
    total: usize,
    show_percent: bool,
    throttle_ms: u64,
    mode: ProgressMode,
    start: Instant,
    last_print_ms: AtomicU64,
}

impl Progress {
    /// A new emitter for `task` with `total` units of work. Defaults:
    /// unit `points`, no percentage, no throttle.
    pub fn new(task: &str, total: usize, mode: ProgressMode) -> Progress {
        Progress {
            task: task.to_string(),
            unit: "points".to_string(),
            total,
            show_percent: false,
            throttle_ms: 0,
            mode,
            start: Instant::now(),
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// Sets the unit noun in human lines (`points`, `epochs`, `sizes`).
    pub fn unit(mut self, unit: &str) -> Progress {
        self.unit = unit.to_string();
        self
    }

    /// Also prints a percentage in human lines (the grid runner format).
    pub fn percent(mut self, yes: bool) -> Progress {
        self.show_percent = yes;
        self
    }

    /// Rate-limits ticks to one line per `ms` (the final tick, where
    /// `done == total`, always prints). Races between threads resolve by
    /// compare-exchange: exactly one wins the window.
    pub fn throttle_ms(mut self, ms: u64) -> Progress {
        self.throttle_ms = ms;
        self
    }

    /// Reports `done` units complete, emitting one line to stderr
    /// (subject to the throttle).
    pub fn tick(&self, done: usize) {
        let elapsed = self.start.elapsed();
        if self.throttle_ms > 0 {
            let now_ms = elapsed.as_millis() as u64;
            let prev = self.last_print_ms.load(Ordering::Relaxed);
            if done < self.total && now_ms.saturating_sub(prev) < self.throttle_ms {
                return;
            }
            if self
                .last_print_ms
                .compare_exchange(prev, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                return;
            }
        }
        eprintln!("{}", self.line(done, elapsed.as_secs_f64()));
    }

    /// Emits a free-form status line tied to this task (human: the text
    /// verbatim; json: a `"kind": "message"` record).
    pub fn message(&self, text: &str) {
        match self.mode {
            ProgressMode::Human => eprintln!("{text}"),
            ProgressMode::Json => {
                let record = Value::Map(vec![
                    ("kind".to_string(), Value::Str("message".to_string())),
                    ("task".to_string(), Value::Str(self.task.clone())),
                    ("text".to_string(), Value::Str(text.to_string())),
                ]);
                eprintln!("{}", serde_json::to_string(&record).expect("value tree"));
            }
        }
    }

    /// Wall-clock seconds since this emitter was created.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The formatted line for `done` units after `elapsed` seconds —
    /// split out so tests can pin the exact bytes.
    fn line(&self, done: usize, elapsed: f64) -> String {
        let eta = if done == 0 {
            f64::INFINITY
        } else {
            elapsed / done as f64 * (self.total - done.min(self.total)) as f64
        };
        match self.mode {
            ProgressMode::Human => {
                let Progress {
                    task, unit, total, ..
                } = self;
                if self.show_percent {
                    let pct = 100.0 * done as f64 / (*total).max(1) as f64;
                    format!(
                        "{task}: {done}/{total} {unit} ({pct:.1} %), elapsed {elapsed:.1}s, \
                         eta {eta:.1}s"
                    )
                } else {
                    format!("{task}: {done}/{total} {unit}, elapsed {elapsed:.1}s, eta {eta:.1}s")
                }
            }
            ProgressMode::Json => {
                let record = Value::Map(vec![
                    ("kind".to_string(), Value::Str("progress".to_string())),
                    ("task".to_string(), Value::Str(self.task.clone())),
                    ("done".to_string(), Value::U64(done as u64)),
                    ("total".to_string(), Value::U64(self.total as u64)),
                    ("elapsed_seconds".to_string(), Value::F64(elapsed)),
                    (
                        "eta_seconds".to_string(),
                        Value::F64(if eta.is_finite() { eta } else { 0.0 }),
                    ),
                ]);
                serde_json::to_string(&record).expect("value tree")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses() {
        assert_eq!(ProgressMode::parse("human"), Some(ProgressMode::Human));
        assert_eq!(ProgressMode::parse("json"), Some(ProgressMode::Json));
        assert_eq!(ProgressMode::parse("csv"), None);
    }

    #[test]
    fn human_line_matches_the_sweep_format() {
        let p = Progress::new("sweep[flit]", 8, ProgressMode::Human);
        assert_eq!(
            p.line(1, 0.4),
            "sweep[flit]: 1/8 points, elapsed 0.4s, eta 2.8s"
        );
    }

    #[test]
    fn human_line_with_percent_matches_the_grid_format() {
        let p = Progress::new("grid[flit]", 56, ProgressMode::Human).percent(true);
        assert_eq!(
            p.line(3, 1.2),
            "grid[flit]: 3/56 points (5.4 %), elapsed 1.2s, eta 21.2s"
        );
    }

    #[test]
    fn json_line_is_a_heartbeat_record() {
        let p = Progress::new("sweep[flit]", 8, ProgressMode::Json);
        let line = p.line(2, 1.0);
        assert_eq!(
            line,
            "{\"kind\":\"progress\",\"task\":\"sweep[flit]\",\"done\":2,\"total\":8,\
             \"elapsed_seconds\":1.0,\"eta_seconds\":3.0}"
        );
    }

    #[test]
    fn zero_done_never_emits_infinite_eta_in_json() {
        let p = Progress::new("t", 4, ProgressMode::Json);
        assert!(p.line(0, 1.0).contains("\"eta_seconds\":0.0"));
    }
}
