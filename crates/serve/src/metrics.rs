//! Service counters and latency tracking, rendered as plain text for
//! `GET /metrics`.

use crate::jobs::{JobKind, JobSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many recent request latencies the percentile window retains.
const LATENCY_WINDOW: usize = 1024;

/// A fixed-capacity ring of the most recent latency samples.
///
/// `push` is O(1): once the buffer is full, the write index wraps and each
/// new sample overwrites the oldest one — no element shifting in the
/// response hot path.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, micros: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(micros);
        } else {
            // Full: `next` points at the oldest sample (index 0 right after
            // the fill phase, then advancing one slot per overwrite).
            self.samples[self.next] = micros;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }
}

/// Process-wide service metrics. All counters are monotonic except the
/// gauges, which are sampled at render time by the caller.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted for processing (any endpoint).
    pub requests_total: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (client errors, including 429 backpressure).
    pub responses_4xx: AtomicU64,
    /// 429 specifically, to make backpressure visible at a glance.
    pub responses_429: AtomicU64,
    /// 5xx responses.
    pub responses_5xx: AtomicU64,
    /// Sweep jobs completed successfully.
    pub jobs_completed: AtomicU64,
    /// Sweep jobs that failed or were cancelled by shutdown.
    pub jobs_failed: AtomicU64,
    /// Completed jobs that exercised the energy-comparison machinery (a
    /// non-single supply or the AlexNet/row-stationary workload; see
    /// `SweepSpec::is_energy_sweep`).
    energy_sweep_jobs: AtomicU64,
    /// `GET /v1/iso-accuracy` solves served (cold computes).
    iso_accuracy_solves: AtomicU64,
    /// `GET /v1/iso-accuracy` responses served from the result cache.
    iso_accuracy_cache_hits: AtomicU64,
    /// Completed `POST /v1/fleet` population sweeps (cold computes).
    fleet_jobs: AtomicU64,
    /// `POST /v1/fleet` responses served from the result cache.
    fleet_cache_hits: AtomicU64,
    /// Completed `POST /v1/retrain` hardening runs (cold computes).
    retrain_jobs: AtomicU64,
    /// `POST /v1/retrain` responses served from the result cache.
    retrain_cache_hits: AtomicU64,
    /// Submissions rejected with 429 because the queue was full.
    /// Incremented exactly once per rejected submission, on the same path
    /// that attaches `Retry-After`.
    pub jobs_rejected: AtomicU64,
    /// Shard sub-requests issued to peers (fan-out legs, including retries
    /// and hedges).
    pub shard_requests: AtomicU64,
    /// Shard legs re-sent to another peer after a failure.
    pub shard_retries: AtomicU64,
    /// Hedged duplicate legs launched against straggling peers.
    pub shard_hedges: AtomicU64,
    /// Shard windows computed locally after every peer leg failed.
    pub shard_fallbacks: AtomicU64,
    /// Shard legs currently in flight (gauge, maintained by the
    /// coordinator).
    pub shard_in_flight: AtomicU64,
    /// Ring of recent request latencies in microseconds.
    latencies: Mutex<LatencyRing>,
}

/// Point-in-time gauges sampled by the `/metrics` handler and appended to
/// the rendered counters: queue depths (total and per lane), in-memory
/// result-cache traffic, and the disk-cache segment store's footprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Jobs waiting across both lanes.
    pub queue_depth: usize,
    /// Jobs waiting in the interactive lane.
    pub queue_interactive: usize,
    /// Jobs waiting in the bulk lane.
    pub queue_bulk: usize,
    /// Result-cache hits (memory or disk tier).
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Disk-cache segment files.
    pub disk_segments: u64,
    /// Disk-cache bytes across segment files.
    pub disk_bytes: u64,
    /// Disk-cache live records.
    pub disk_records: u64,
    /// Disk-cache compaction passes since open.
    pub disk_compactions: u64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a response with `status` and records the request latency.
    pub fn record_response(&self, status: u16, latency: Duration) {
        match status {
            200..=299 => &self.responses_2xx,
            429 => {
                self.responses_429.fetch_add(1, Ordering::Relaxed);
                &self.responses_4xx
            }
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latencies
            .lock()
            .expect("metrics lock poisoned")
            .push(micros);
    }

    /// Counts a successfully completed job: the total, plus its kind's
    /// counter (sweeps count only when they exercise the energy model).
    pub(crate) fn record_completion(&self, spec: &JobSpec) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        let per_kind = match spec.kind() {
            JobKind::Sweep => spec.is_energy_sweep().then_some(&self.energy_sweep_jobs),
            JobKind::Fleet => Some(&self.fleet_jobs),
            JobKind::Iso => Some(&self.iso_accuracy_solves),
            JobKind::Retrain => Some(&self.retrain_jobs),
        };
        if let Some(counter) = per_kind {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a response served from the result cache under its kind's
    /// counter (sweep hits show only in the cache-wide gauges).
    pub(crate) fn record_cache_hit(&self, kind: JobKind) {
        let counter = match kind {
            JobKind::Sweep => return,
            JobKind::Fleet => &self.fleet_cache_hits,
            JobKind::Iso => &self.iso_accuracy_cache_hits,
            JobKind::Retrain => &self.retrain_cache_hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the retained latency window (unordered).
    fn latency_snapshot(&self) -> Vec<u64> {
        self.latencies
            .lock()
            .expect("metrics lock poisoned")
            .samples
            .clone()
    }

    /// `(p50, p99)` of the retained latency window, in microseconds.
    ///
    /// The window is copied out under the lock and sorted after release, so
    /// a `/metrics` scrape never stalls concurrent `record_response` calls
    /// for the sort. Percentiles use the nearest-rank definition
    /// (`index = ceil(q*n) - 1`), which is well-defined down to n = 1.
    #[must_use]
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut sorted = self.latency_snapshot();
        if sorted.is_empty() {
            return (0, 0);
        }
        sorted.sort_unstable();
        let at = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        (at(0.50), at(0.99))
    }

    /// Renders the metrics in the flat `name value` text format, with the
    /// caller-sampled [`Gauges`] appended.
    #[must_use]
    pub fn render(&self, gauges: &Gauges) -> String {
        let (p50, p99) = self.latency_percentiles();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "dante_serve_requests_total {}\n\
             dante_serve_responses_2xx_total {}\n\
             dante_serve_responses_4xx_total {}\n\
             dante_serve_responses_429_total {}\n\
             dante_serve_responses_5xx_total {}\n\
             dante_serve_jobs_completed_total {}\n\
             dante_serve_jobs_failed_total {}\n\
             dante_serve_jobs_rejected_total {}\n\
             dante_serve_energy_sweep_jobs_total {}\n\
             dante_serve_iso_accuracy_solves_total {}\n\
             dante_serve_iso_accuracy_cache_hits_total {}\n\
             dante_serve_fleet_jobs_total {}\n\
             dante_serve_fleet_cache_hits_total {}\n\
             dante_serve_retrain_jobs_total {}\n\
             dante_serve_retrain_cache_hits_total {}\n\
             dante_serve_shard_requests_total {}\n\
             dante_serve_shard_retries_total {}\n\
             dante_serve_shard_hedges_total {}\n\
             dante_serve_shard_fallbacks_total {}\n\
             dante_serve_shard_in_flight {}\n\
             dante_serve_queue_depth {}\n\
             dante_serve_queue_depth_interactive {}\n\
             dante_serve_queue_depth_bulk {}\n\
             dante_serve_cache_hits_total {}\n\
             dante_serve_cache_misses_total {}\n\
             dante_serve_disk_cache_segments {}\n\
             dante_serve_disk_cache_bytes {}\n\
             dante_serve_disk_cache_records {}\n\
             dante_serve_disk_cache_compactions_total {}\n\
             dante_serve_request_latency_p50_micros {p50}\n\
             dante_serve_request_latency_p99_micros {p99}\n",
            load(&self.requests_total),
            load(&self.responses_2xx),
            load(&self.responses_4xx),
            load(&self.responses_429),
            load(&self.responses_5xx),
            load(&self.jobs_completed),
            load(&self.jobs_failed),
            load(&self.jobs_rejected),
            load(&self.energy_sweep_jobs),
            load(&self.iso_accuracy_solves),
            load(&self.iso_accuracy_cache_hits),
            load(&self.fleet_jobs),
            load(&self.fleet_cache_hits),
            load(&self.retrain_jobs),
            load(&self.retrain_cache_hits),
            load(&self.shard_requests),
            load(&self.shard_retries),
            load(&self.shard_hedges),
            load(&self.shard_fallbacks),
            load(&self.shard_in_flight),
            gauges.queue_depth,
            gauges.queue_interactive,
            gauges.queue_bulk,
            gauges.cache_hits,
            gauges.cache_misses,
            gauges.disk_segments,
            gauges.disk_bytes,
            gauges.disk_records,
            gauges.disk_compactions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles_track_responses() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.record_response(200, Duration::from_micros(100));
        m.record_response(429, Duration::from_micros(300));
        m.record_response(500, Duration::from_micros(200));
        m.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        m.shard_requests.fetch_add(4, Ordering::Relaxed);
        m.shard_hedges.fetch_add(1, Ordering::Relaxed);
        let text = m.render(&Gauges {
            queue_depth: 2,
            queue_interactive: 1,
            queue_bulk: 1,
            cache_hits: 5,
            cache_misses: 7,
            disk_segments: 3,
            disk_bytes: 4096,
            disk_records: 9,
            disk_compactions: 1,
        });
        assert!(text.contains("dante_serve_requests_total 3"), "{text}");
        assert!(text.contains("dante_serve_responses_2xx_total 1"));
        assert!(text.contains("dante_serve_responses_4xx_total 1"));
        assert!(text.contains("dante_serve_responses_429_total 1"));
        assert!(text.contains("dante_serve_responses_5xx_total 1"));
        assert!(text.contains("dante_serve_jobs_rejected_total 1"));
        assert!(text.contains("dante_serve_queue_depth 2"));
        assert!(text.contains("dante_serve_queue_depth_interactive 1"));
        assert!(text.contains("dante_serve_queue_depth_bulk 1"));
        assert!(text.contains("dante_serve_cache_hits_total 5"));
        assert!(text.contains("dante_serve_cache_misses_total 7"));
        assert!(text.contains("dante_serve_disk_cache_segments 3"));
        assert!(text.contains("dante_serve_disk_cache_bytes 4096"));
        assert!(text.contains("dante_serve_disk_cache_records 9"));
        assert!(text.contains("dante_serve_disk_cache_compactions_total 1"));
        assert!(text.contains("dante_serve_shard_requests_total 4"));
        assert!(text.contains("dante_serve_shard_retries_total 0"));
        assert!(text.contains("dante_serve_shard_hedges_total 1"));
        assert!(text.contains("dante_serve_shard_fallbacks_total 0"));
        assert!(text.contains("dante_serve_shard_in_flight 0"));
        assert!(text.contains("dante_serve_energy_sweep_jobs_total 0"));
        assert!(text.contains("dante_serve_iso_accuracy_solves_total 0"));
        assert!(text.contains("dante_serve_fleet_jobs_total 0"));
        assert!(text.contains("dante_serve_fleet_cache_hits_total 0"));
        assert!(text.contains("dante_serve_retrain_jobs_total 0"));
        assert!(text.contains("dante_serve_retrain_cache_hits_total 0"));
        let (p50, p99) = m.latency_percentiles();
        assert_eq!(p50, 200);
        assert_eq!(p99, 300);
    }

    #[test]
    fn per_kind_counters_keep_their_metric_names() {
        use dante::fleet::FleetSpec;
        use dante::iso::IsoAccuracySpec;
        use dante::retrain::RetrainSpec;
        use dante::sweep::SweepSpec;
        let m = Metrics::new();
        let specs = [
            JobSpec::Sweep(SweepSpec::toy_default()),
            JobSpec::Fleet(FleetSpec::toy_default()),
            JobSpec::Iso(IsoAccuracySpec::toy_default()),
            JobSpec::Retrain(RetrainSpec::toy_default()),
        ];
        for spec in &specs {
            m.record_completion(spec);
            m.record_cache_hit(spec.kind());
        }
        m.record_cache_hit(JobKind::Fleet);
        let text = m.render(&Gauges::default());
        for line in [
            "dante_serve_jobs_completed_total 4\n",
            "dante_serve_energy_sweep_jobs_total 0\n",
            "dante_serve_iso_accuracy_solves_total 1\n",
            "dante_serve_iso_accuracy_cache_hits_total 1\n",
            "dante_serve_fleet_jobs_total 1\n",
            "dante_serve_fleet_cache_hits_total 2\n",
            "dante_serve_retrain_jobs_total 1\n",
            "dante_serve_retrain_cache_hits_total 1\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in\n{text}");
        }
    }

    #[test]
    fn empty_window_renders_zero_percentiles() {
        assert_eq!(Metrics::new().latency_percentiles(), (0, 0));
    }

    #[test]
    fn window_retains_the_most_recent_samples() {
        let m = Metrics::new();
        let total = LATENCY_WINDOW + 250;
        for i in 0..total {
            m.record_response(200, Duration::from_micros(i as u64));
        }
        let snapshot = m.latency_snapshot();
        assert_eq!(
            snapshot.len(),
            LATENCY_WINDOW,
            "window never exceeds its cap"
        );
        let mut sorted = snapshot;
        sorted.sort_unstable();
        // Exactly the most recent LATENCY_WINDOW samples survive: the
        // values 250..total, each once.
        let expected: Vec<u64> = (250..total as u64).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn nearest_rank_percentiles_on_tiny_windows() {
        // (samples, q, expected): nearest-rank with index ceil(q*n) - 1.
        let cases: &[(&[u64], f64, u64)] = &[
            (&[7], 0.50, 7),
            (&[7], 0.99, 7),
            (&[1, 2], 0.50, 1),
            (&[1, 2], 0.99, 2),
            (&[1, 2, 3], 0.50, 2),
            (&[1, 2, 3, 4], 0.50, 2),
            (&[1, 2, 3, 4, 5], 0.50, 3),
            (&[1, 2, 3, 4, 5], 0.99, 5),
            (&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 0.50, 50),
            (&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 0.99, 100),
        ];
        for &(samples, q, expected) in cases {
            let m = Metrics::new();
            for &s in samples {
                m.record_response(200, Duration::from_micros(s));
            }
            let (p50, p99) = m.latency_percentiles();
            let got = if (q - 0.50).abs() < 1e-9 { p50 } else { p99 };
            assert_eq!(
                got, expected,
                "q={q} over {samples:?}: got {got}, want {expected}"
            );
        }
    }
}
