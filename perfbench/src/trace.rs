//! Spans recorded from the benchmark's side of each layer boundary, and the
//! trial observer that turns the engine's hooks into spans and counts.
//!
//! Spans live in memory while a traced run executes and are written out as
//! JSON lines when it ends. Only the traced run records them: end-to-end
//! figures come from untraced runs.

use dante_sim::TrialObserver;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The share of a traced wall clock the named leaf spans may leave
/// uncovered on `sweep_mnist` and `retrain_mnist`; more fails the run.
pub const STATED_RESIDUAL: f64 = 0.05;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span now; [`Self::close`] sets its end.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let start = self.now();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name: name.to_owned(),
            start,
            end: f64::NAN,
            parent,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span list lock poisoned")[id].end = end;
    }

    /// Records a span that ended now after running for `elapsed`.
    pub fn ended_now(&self, name: &str, elapsed: Duration, parent: Option<usize>) {
        let end = Instant::now();
        let start = end.checked_sub(elapsed).unwrap_or(self.origin);
        let span = Span {
            name: name.to_owned(),
            start: self.at(start),
            end: self.at(end),
            parent,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(span);
    }

    /// Records a span whose bounds are already known.
    pub fn record(&self, name: &str, start: f64, end: f64, parent: Option<usize>) {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .push(Span {
                name: name.to_owned(),
                start,
                end,
                parent,
            });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Summed duration of every span whose name satisfies `pick`.
    pub fn total(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        self.spans()
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Share of `[from, to]` that no span named in `leaves` covers (spans on
    /// worker threads count once however many overlap).
    pub fn residual(&self, leaves: &[&str], from: f64, to: f64) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self
            .spans()
            .into_iter()
            .filter(|s| leaves.contains(&s.name.as_str()))
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = from;
        for (a, b) in intervals {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        1.0 - covered / (to - from)
    }

    /// Writes every span as one JSON object per line to
    /// `.bench_cache/spans/<workload>-seed<n>.jsonl`. Spans are diagnostics:
    /// a failed write does not fail the run.
    pub fn save(&self, config: &crate::Config, workload: &str) {
        let mut text = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}}}\n",
                s.name, s.start, s.end
            ));
        }
        let dir = config.state_dir.join("spans");
        let path = dir.join(format!("{workload}-seed{}.jsonl", config.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

/// Turns the trial engine's hooks into spans under `parent` and keeps the
/// counts the engine reports: trials, busy time, fault bits or cells.
#[derive(Debug)]
pub struct StageObserver<'a> {
    tracer: &'a Tracer,
    parent: Option<usize>,
    batch: Mutex<Option<usize>>,
    pub trials: AtomicU64,
    pub busy_ns: AtomicU64,
    pub fault_bits: AtomicU64,
    pub batch_ns: AtomicU64,
}

impl<'a> StageObserver<'a> {
    pub fn new(tracer: &'a Tracer, parent: Option<usize>) -> Self {
        Self {
            tracer,
            parent,
            batch: Mutex::new(None),
            trials: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            fault_bits: AtomicU64::new(0),
            batch_ns: AtomicU64::new(0),
        }
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl TrialObserver for StageObserver<'_> {
    fn on_batch_start(&self, _total: usize) {
        *self.batch.lock().expect("batch lock poisoned") =
            Some(self.tracer.open("sim.batch", self.parent));
    }

    fn on_trial_complete(&self, _index: usize, elapsed: Duration) {
        self.trials.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(nanos(elapsed), Ordering::Relaxed);
    }

    fn on_stage(&self, stage: &'static str, elapsed: Duration) {
        let parent = *self.batch.lock().expect("batch lock poisoned");
        self.tracer
            .ended_now(&format!("accuracy.{stage}"), elapsed, parent);
    }

    fn on_fault_bits(&self, _index: usize, bits: u64) {
        self.fault_bits.fetch_add(bits, Ordering::Relaxed);
    }

    fn on_batch_complete(&self, elapsed: Duration) {
        self.batch_ns.fetch_add(nanos(elapsed), Ordering::Relaxed);
        if let Some(id) = *self.batch.lock().expect("batch lock poisoned") {
            self.tracer.close(id);
        }
    }
}

/// The lightest observer: remembers when the first trial finished, for the
/// untraced fleet run's time to first die.
#[derive(Debug)]
pub struct FirstTrial {
    pub at: OnceLock<Instant>,
}

impl TrialObserver for FirstTrial {
    fn on_trial_complete(&self, _index: usize, _elapsed: Duration) {
        let _ = self.at.set(Instant::now());
    }
}

/// Runs the untraced and traced forms of one unit `rounds` times in the
/// order untraced, traced, traced, untraced, so drift on a shared box
/// cancels. Returns both outputs and the tracing overhead: median traced
/// wall over median untraced wall, minus 1.
pub fn abba<U, T>(
    rounds: usize,
    mut untraced: impl FnMut() -> U,
    mut traced: impl FnMut() -> T,
) -> (Vec<U>, Vec<T>, f64) {
    let (mut plain, mut with) = (Vec::new(), Vec::new());
    let (mut plain_s, mut with_s) = (Vec::new(), Vec::new());
    for traced_turn in [false, true, true, false].repeat(rounds) {
        let t0 = Instant::now();
        if traced_turn {
            with.push(traced());
            with_s.push(t0.elapsed().as_secs_f64());
        } else {
            plain.push(untraced());
            plain_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let overhead = crate::report::median(&with_s) / crate::report::median(&plain_s) - 1.0;
    (plain, with, overhead)
}
