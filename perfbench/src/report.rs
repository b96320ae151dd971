//! Run results: the metric list, the one-line JSON the benchmark prints
//! last, and the small order statistics every workload reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics every workload reports from an untraced run, with
/// their units. Each workload defines them for its own work (see
/// `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sweep.prepare_s", "s"),
    ("accuracy.point_fixed_s.cliff", "s"),
    ("accuracy.point_fixed_s.knee", "s"),
    ("accuracy.point_fixed_s.margin", "s"),
    ("accuracy.corrupt_s.cliff", "s"),
    ("accuracy.corrupt_s.knee", "s"),
    ("accuracy.corrupt_s.margin", "s"),
    ("accuracy.inference_s.cliff", "s"),
    ("accuracy.inference_s.knee", "s"),
    ("accuracy.inference_s.margin", "s"),
    ("sram.sample_s", "s"),
    ("nn.clean_forward_s", "s"),
    ("sim.busy_frac", "frac"),
    ("fleet.dies_s", "s"),
    ("fleet.assemble_s", "s"),
    ("sram.sample_cells_s", "s"),
    ("retrain.epoch_s", "s"),
    ("retrain.iso_s", "s"),
    ("accuracy.corrupt_network_s", "s"),
    ("nn.train_epoch_s", "s"),
    ("serve.api.decode_us", "us"),
    ("serve.api.render_ms", "ms"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.disk_hit_frac", "frac"),
    ("serve.store.insert_us", "us"),
    ("serve.overhead_ms.bulk", "ms"),
    ("serve.overhead_ms.interactive", "ms"),
    ("serve.jobs.queue_depth.bulk", "jobs"),
    ("serve.jobs.queue_depth.interactive", "jobs"),
    ("serve.hit_frac", "frac"),
    ("serve.rejected", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.interactive_p50_ms", "ms"),
    ("serve.interactive_p90_ms", "ms"),
    ("serve.bulk_p50_s", "s"),
    ("serve.req_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.residual_frac", "frac"),
    ("sram.fault_bits", "count"),
    ("fleet.fault_cells", "count"),
    ("sim.trials", "count"),
    ("fleet.dies", "count"),
    ("retrain.train_images", "count"),
    ("retrain.corrupt_calls", "count"),
    ("serve.requests.sent", "count"),
    ("serve.requests.succeeded", "count"),
    ("serve.requests.failed", "count"),
    ("serve.requests.rejected", "count"),
    ("serve.cache.hit", "count"),
    ("serve.cache.miss", "count"),
    ("serve.cache.disk_hit", "count"),
    ("serve.hit_n", "count"),
    ("serve.interactive_n", "count"),
    ("serve.bulk_n", "count"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (sweeps, fleet solves, retrain runs,
    /// HTTP requests).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metric values by name; [`Self::to_json`] picks the table's names.
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line: the workload-level
    /// metric names with units and sample counts, and any check failures.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds `value` to the metric `name` (missing reads as 0).
    pub fn add(&mut self, name: String, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Records one checked operation; a failed check is also noted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, and the
    /// `metrics` of `table`, in its order.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.values.get(*name).copied().filter(|v| v.is_finite());
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over a byte stream: the digest pinned results are compared by.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of a sequence of `f64` bit patterns.
pub fn digest_f64(values: impl IntoIterator<Item = f64>) -> u64 {
    fnv1a(values.into_iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

/// Restarts the peak-resident-set count (`VmHWM`), so warm-up work done
/// before measuring does not set the peak. Best effort: a kernel without
/// `clear_refs` leaves the count running from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
