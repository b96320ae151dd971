//! The tracked Monte-Carlo performance harness behind `BENCH_mc.json`.
//!
//! Times the three layers the sparse tail-sampled overlay optimizes:
//!
//! 1. **Overlay generation** — drawing one fault die for a 4 Mbit image,
//!    dense per-cell Gaussian vs. sparse binomial + truncated tail.
//! 2. **Per-trial corruption** — the `"corrupt"` stage of the Monte-Carlo
//!    accuracy evaluator (quantize-once + undo-log hot path), dense vs.
//!    sparse sampling.
//! 3. **Forward pass** — the `"inference"` stage of the same evaluator,
//!    scalar per-image path vs. the trial-batched incremental GEMM path,
//!    with the batched throughput in images per second.
//! 4. **Full accuracy sweep** — the end-to-end MNIST voltage sweep the
//!    figures run, wall-clock dense vs. sparse.
//!
//! The report serializes to the machine-readable `BENCH_mc.json` committed
//! at the repo root (see EXPERIMENTS.md, "Benchmark workflow"); the
//! `bench_mc` binary regenerates it and `tests/perf_smoke.rs` gates the
//! headline generation speedup.

use crate::json::Value;
use dante::accuracy::{AccuracyEvaluator, OverlaySampling, VoltageAssignment};
use dante::artifacts::trained_mnist_fc;
use dante_circuit::units::Volt;
use dante_nn::network::Network;
use dante_sim::observer::TrialObserver;
use dante_sim::{derive_seed, site};
use dante_sram::fault::VminFaultModel;
use dante_sram::sparse::{SparseCell, SparseOverlay};
use dante_sram::storage::FaultOverlay;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Overlay size for the generation benchmark: one 4 Mbit bit image, the
/// paper's SRAM test-array scale.
pub const OVERLAY_BITS: usize = 4 * 1024 * 1024;

/// Environment variable selecting quick mode (`=1`): smaller sample
/// counts and Monte-Carlo scale, suitable for CI smoke runs.
pub const QUICK_ENV: &str = "DANTE_BENCH_QUICK";

/// Environment variable overriding the output path of the `bench_mc`
/// binary (default `BENCH_mc.json` in the current directory).
pub const OUT_ENV: &str = "DANTE_BENCH_OUT";

/// Wall-time statistics of one benchmarked operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Number of timed samples (after one untimed warmup).
    pub samples: usize,
    /// Mean nanoseconds per operation.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per operation.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per operation.
    pub max_ns: f64,
}

impl Timing {
    /// Times `samples` batches of `iters` calls to `op` (one untimed
    /// warmup call first) and reports per-call statistics.
    ///
    /// # Panics
    ///
    /// Panics if `samples` or `iters` is zero.
    pub fn measure<F: FnMut()>(samples: usize, iters: usize, mut op: F) -> Self {
        assert!(
            samples > 0 && iters > 0,
            "need at least one sample and iter"
        );
        op();
        let mut per_call = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            per_call.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        let mean = per_call.iter().sum::<f64>() / per_call.len() as f64;
        let min = per_call.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_call.iter().copied().fold(0.0f64, f64::max);
        Self {
            samples,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        }
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("samples".into(), Value::Number(self.samples as f64));
        map.insert("mean_ns".into(), Value::Number(self.mean_ns));
        map.insert("min_ns".into(), Value::Number(self.min_ns));
        map.insert("max_ns".into(), Value::Number(self.max_ns));
        Value::Object(map)
    }
}

/// Dense-vs-sparse overlay generation at one floor voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationBench {
    /// The sampling-floor voltage, volts.
    pub v_volts: f64,
    /// Covered bits (always [`OVERLAY_BITS`]).
    pub bits: usize,
    /// Dense per-cell Gaussian draw ([`FaultOverlay::from_seed`]).
    pub dense: Timing,
    /// Sparse tail sampling into reused buffers
    /// ([`SparseOverlay::sample_cells_into`]).
    pub sparse: Timing,
}

impl GenerationBench {
    /// Mean dense time over mean sparse time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dense.mean_ns / self.sparse.mean_ns
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("bits".into(), Value::Number(self.bits as f64));
        map.insert("dense".into(), self.dense.to_json());
        map.insert("sparse".into(), self.sparse.to_json());
        map.insert("speedup".into(), Value::Number(self.speedup()));
        Value::Object(map)
    }
}

/// Times overlay generation for a 4 Mbit image at floor voltage `v`.
///
/// Sparse iteration counts scale with the expected faulty-cell count so
/// microsecond-scale draws still get millisecond-scale timed batches.
#[must_use]
pub fn generation_bench(v: Volt, quick: bool) -> GenerationBench {
    let model = VminFaultModel::default_14nm();
    let samples = if quick { 3 } else { 5 };
    let mut seed = 0u64;
    let dense = Timing::measure(samples, 1, || {
        seed += 1;
        black_box(FaultOverlay::from_seed(OVERLAY_BITS, &model, seed));
    });
    let expected_faults = OVERLAY_BITS as f64 * model.bit_error_rate(v);
    let iters = if expected_faults < 1_000.0 { 256 } else { 4 };
    let mut indices: Vec<u64> = Vec::new();
    let mut cells: Vec<SparseCell> = Vec::new();
    let mut seed = 0u64;
    let sparse = Timing::measure(samples, iters, || {
        seed += 1;
        let mut rng = StdRng::seed_from_u64(seed);
        SparseOverlay::sample_cells_into(
            OVERLAY_BITS,
            &model,
            v,
            &mut rng,
            &mut indices,
            &mut cells,
        );
        black_box(cells.len());
    });
    GenerationBench {
        v_volts: v.volts(),
        bits: OVERLAY_BITS,
        dense,
        sparse,
    }
}

/// Collects the evaluator's per-trial durations for one named stage.
#[derive(Debug)]
struct StageCollector {
    stage: &'static str,
    durations: Mutex<Vec<Duration>>,
}

impl StageCollector {
    fn new(stage: &'static str) -> Self {
        Self {
            stage,
            durations: Mutex::new(Vec::new()),
        }
    }
}

impl TrialObserver for StageCollector {
    fn on_stage(&self, stage: &'static str, elapsed: Duration) {
        if stage == self.stage {
            self.durations
                .lock()
                .expect("collector mutex poisoned")
                .push(elapsed);
        }
    }
}

/// Root seed of every timed evaluation.
const STAGE_SEED: u64 = 0xC0DE;

/// Mean per-trial duration of one evaluator stage, nanoseconds.
fn mean_stage_ns(
    eval: &AccuracyEvaluator,
    stage: &'static str,
    net: &Network,
    assignment: &VoltageAssignment,
    images: &[f32],
    labels: &[u8],
) -> f64 {
    let collector = StageCollector::new(stage);
    let _ = eval.evaluate_observed(net, assignment, images, labels, STAGE_SEED, &collector);
    let durations = collector.durations.into_inner().expect("mutex poisoned");
    assert!(
        !durations.is_empty(),
        "evaluator reported no {stage} stages"
    );
    durations.iter().map(|d| d.as_secs_f64() * 1e9).sum::<f64>() / durations.len() as f64
}

/// Mean per-trial corruption time of the accuracy evaluator, dense vs.
/// sparse sampling, at one uniform voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionBench {
    /// The uniform evaluation voltage, volts.
    pub v_volts: f64,
    /// Trials per sampling mode.
    pub trials: usize,
    /// Mean dense `"corrupt"` stage, nanoseconds.
    pub dense_ns: f64,
    /// Mean sparse `"corrupt"` stage, nanoseconds.
    pub sparse_ns: f64,
}

impl CorruptionBench {
    /// Mean dense corrupt-stage time over mean sparse.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dense_ns / self.sparse_ns
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("dense_ns".into(), Value::Number(self.dense_ns));
        map.insert("sparse_ns".into(), Value::Number(self.sparse_ns));
        map.insert("speedup".into(), Value::Number(self.speedup()));
        Value::Object(map)
    }
}

/// Per-trial forward-pass (`"inference"` stage) timing of the accuracy
/// evaluator, scalar vs. trial-batched, at one uniform voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardPassBench {
    /// The uniform evaluation voltage, volts.
    pub v_volts: f64,
    /// Trials timed on each path.
    pub trials: usize,
    /// Test images scored per trial.
    pub test_images: usize,
    /// Mean unbatched scoring time per trial (`Network::accuracy` over the
    /// corrupted copies: every image through every layer, dense layers on
    /// the same exact GEMM kernel), nanoseconds.
    pub scalar_ns: f64,
    /// Mean trial-batched `"inference"` stage, nanoseconds.
    pub batched_ns: f64,
}

impl ForwardPassBench {
    /// Mean scalar inference time over mean batched.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.scalar_ns / self.batched_ns
    }

    /// Batched forward-pass throughput, scored images per second.
    #[must_use]
    pub fn batched_images_per_sec(&self) -> f64 {
        self.test_images as f64 / (self.batched_ns * 1e-9)
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("v_volts".into(), Value::Number(self.v_volts));
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("test_images".into(), Value::Number(self.test_images as f64));
        map.insert("scalar_ns".into(), Value::Number(self.scalar_ns));
        map.insert("batched_ns".into(), Value::Number(self.batched_ns));
        map.insert("speedup".into(), Value::Number(self.speedup()));
        map.insert(
            "batched_images_per_sec".into(),
            Value::Number(self.batched_images_per_sec()),
        );
        Value::Object(map)
    }
}

/// Times the evaluator's `"inference"` stage (the trial-batched path) and
/// its unbatched counterpart — [`Network::accuracy`] over each trial's
/// corrupted weight and input copies, the same dies the evaluator draws —
/// at voltage `v` (sparse tail sampling, the production configuration).
/// Only the scoring is timed, never the corruption.
///
/// The voltage sets how much the incremental path can skip: at the cliff
/// (0.44 V) nearly every weight word is touched and the batched win is
/// mostly the tiled GEMM; in the deep tail (0.54 V) only a handful of
/// words flip and the incremental re-scoring dominates.
#[must_use]
pub fn forward_pass_bench(
    net: &Network,
    images: &[f32],
    labels: &[u8],
    trials: usize,
    v: Volt,
) -> ForwardPassBench {
    let layers = net.weight_layer_indices().len();
    let assignment = VoltageAssignment::uniform(v, layers);
    let eval = AccuracyEvaluator::new(trials).with_sampling(OverlaySampling::SparseTail);
    let scalar_ns = (0..trials)
        .map(|t| {
            let trial_seed = derive_seed(STAGE_SEED, site::TRIAL, t as u64);
            let corrupted = eval.corrupt_network(net, &assignment, trial_seed);
            let inputs = eval.corrupt_inputs(images, assignment.inputs, trial_seed);
            let start = Instant::now();
            black_box(corrupted.accuracy(&inputs, labels));
            start.elapsed().as_secs_f64() * 1e9
        })
        .sum::<f64>()
        / trials as f64;
    ForwardPassBench {
        v_volts: v.volts(),
        trials,
        test_images: labels.len(),
        scalar_ns,
        batched_ns: mean_stage_ns(&eval, "inference", net, &assignment, images, labels),
    }
}

/// End-to-end MNIST accuracy voltage sweep, dense vs. sparse.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepBench {
    /// Swept voltages, volts.
    pub voltages: Vec<f64>,
    /// Monte-Carlo trials per voltage.
    pub trials: usize,
    /// Test images per trial.
    pub test_images: usize,
    /// Dense wall-clock, seconds.
    pub dense_seconds: f64,
    /// Sparse wall-clock, seconds.
    pub sparse_seconds: f64,
    /// Mean accuracy per voltage, dense sampling.
    pub dense_accuracy: Vec<f64>,
    /// Mean accuracy per voltage, sparse sampling.
    pub sparse_accuracy: Vec<f64>,
}

impl SweepBench {
    /// Dense wall-clock over sparse wall-clock.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.dense_seconds / self.sparse_seconds
    }

    /// Largest dense-vs-sparse mean-accuracy gap across the sweep (the two
    /// samplers draw different streams, so this is Monte-Carlo noise, not
    /// an equivalence bound — it just flags gross divergence).
    #[must_use]
    pub fn max_accuracy_delta(&self) -> f64 {
        self.dense_accuracy
            .iter()
            .zip(&self.sparse_accuracy)
            .map(|(d, s)| (d - s).abs())
            .fold(0.0, f64::max)
    }

    fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert(
            "voltages".into(),
            Value::Array(self.voltages.iter().map(|&v| Value::Number(v)).collect()),
        );
        map.insert("trials".into(), Value::Number(self.trials as f64));
        map.insert("test_images".into(), Value::Number(self.test_images as f64));
        map.insert("dense_seconds".into(), Value::Number(self.dense_seconds));
        map.insert("sparse_seconds".into(), Value::Number(self.sparse_seconds));
        map.insert("speedup".into(), Value::Number(self.speedup()));
        map.insert(
            "dense_accuracy".into(),
            Value::Array(
                self.dense_accuracy
                    .iter()
                    .map(|&a| Value::Number(a))
                    .collect(),
            ),
        );
        map.insert(
            "sparse_accuracy".into(),
            Value::Array(
                self.sparse_accuracy
                    .iter()
                    .map(|&a| Value::Number(a))
                    .collect(),
            ),
        );
        map.insert(
            "max_accuracy_delta".into(),
            Value::Number(self.max_accuracy_delta()),
        );
        Value::Object(map)
    }
}

/// The full Monte-Carlo benchmark report serialized to `BENCH_mc.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct McBenchReport {
    /// Whether the run used the quick (CI smoke) scale.
    pub quick: bool,
    /// Overlay generation rows, one per floor voltage.
    pub generation: Vec<GenerationBench>,
    /// Per-trial corruption stage timing.
    pub corruption: CorruptionBench,
    /// Per-trial forward-pass stage timing, scalar vs. batched, one row
    /// per voltage (cliff and tail).
    pub forward_pass: Vec<ForwardPassBench>,
    /// End-to-end accuracy sweep timing.
    pub sweep: SweepBench,
}

impl McBenchReport {
    /// The report as a JSON value (the `BENCH_mc.json` schema).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("bench".into(), Value::String("mc".into()));
        map.insert("quick".into(), Value::Bool(self.quick));
        map.insert(
            "generation".into(),
            Value::Array(
                self.generation
                    .iter()
                    .map(GenerationBench::to_json)
                    .collect(),
            ),
        );
        map.insert("per_trial_corruption".into(), self.corruption.to_json());
        map.insert(
            "forward_pass".into(),
            Value::Array(
                self.forward_pass
                    .iter()
                    .map(ForwardPassBench::to_json)
                    .collect(),
            ),
        );
        map.insert("accuracy_sweep".into(), self.sweep.to_json());
        Value::Object(map)
    }

    /// Pretty-printed `BENCH_mc.json` content (trailing newline included).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }
}

/// Runs the full benchmark suite.
///
/// Quick mode shrinks sample counts and the Monte-Carlo scale so the suite
/// finishes in well under a minute for CI smoke runs; full mode is the
/// scale behind the committed `BENCH_mc.json`.
#[must_use]
pub fn run_mc_bench(quick: bool) -> McBenchReport {
    // Generation: the headline ≥100x claim lives at 0.54 V (deep tail,
    // a handful of faulty cells); 0.44 V shows the cliff-region balance.
    let generation = vec![
        generation_bench(Volt::new(0.54), quick),
        generation_bench(Volt::new(0.44), quick),
    ];

    let (trials, train_n, test_n, epochs) = if quick {
        (6, 2_000, 200, 2)
    } else {
        (20, 5_000, 1_000, 4)
    };
    let (net, test) = trained_mnist_fc(train_n, test_n, epochs);
    let layers = net.weight_layer_indices().len();

    let v_cliff = Volt::new(0.44);
    let assignment = VoltageAssignment::uniform(v_cliff, layers);
    let dense_eval = AccuracyEvaluator::new(trials).with_sampling(OverlaySampling::Dense);
    let sparse_eval = AccuracyEvaluator::new(trials).with_sampling(OverlaySampling::SparseTail);
    let corrupt_ns = |eval: &AccuracyEvaluator| {
        mean_stage_ns(
            eval,
            "corrupt",
            &net,
            &assignment,
            test.images(),
            test.labels(),
        )
    };
    let corruption = CorruptionBench {
        v_volts: v_cliff.volts(),
        trials,
        dense_ns: corrupt_ns(&dense_eval),
        sparse_ns: corrupt_ns(&sparse_eval),
    };

    // Cliff (everything dirty: the pure-GEMM win) and deep tail (a
    // handful of flips: the incremental win), matching the generation
    // bench's two regimes.
    let forward_pass = [v_cliff, Volt::new(0.54)]
        .iter()
        .map(|&v| forward_pass_bench(&net, test.images(), test.labels(), trials, v))
        .collect();

    let voltages: Vec<Volt> = if quick {
        vec![Volt::new(0.38), Volt::new(0.44), Volt::new(0.50)]
    } else {
        (0..=8)
            .map(|i| Volt::new(0.36 + 0.02 * f64::from(i)))
            .collect()
    };
    let mut sweep = SweepBench {
        voltages: voltages.iter().map(|v| v.volts()).collect(),
        trials,
        test_images: test.labels().len(),
        dense_seconds: 0.0,
        sparse_seconds: 0.0,
        dense_accuracy: Vec::new(),
        sparse_accuracy: Vec::new(),
    };
    for (eval, seconds, accuracy) in [
        (
            &dense_eval,
            &mut sweep.dense_seconds,
            &mut sweep.dense_accuracy,
        ),
        (
            &sparse_eval,
            &mut sweep.sparse_seconds,
            &mut sweep.sparse_accuracy,
        ),
    ] {
        let t0 = Instant::now();
        for &v in &voltages {
            let stats = eval.evaluate(
                &net,
                &VoltageAssignment::uniform(v, layers),
                test.images(),
                test.labels(),
                0x000F_1BE0,
            );
            accuracy.push(stats.mean());
        }
        *seconds = t0.elapsed().as_secs_f64();
    }

    McBenchReport {
        quick,
        generation,
        corruption,
        forward_pass,
        sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_measure_reports_consistent_stats() {
        let t = Timing::measure(4, 10, || {
            black_box((0..100).sum::<u64>());
        });
        assert_eq!(t.samples, 4);
        assert!(t.min_ns <= t.mean_ns && t.mean_ns <= t.max_ns);
        assert!(t.min_ns > 0.0);
    }

    #[test]
    fn generation_bench_meets_the_sparse_speedup_floor() {
        // The tentpole acceptance: at 0.54 V a 4 Mbit sparse draw must be
        // at least 100x faster than the dense per-cell draw.
        let row = generation_bench(Volt::new(0.54), true);
        assert!(
            row.speedup() >= 100.0,
            "sparse generation speedup {:.0}x below the 100x floor (dense {:.0} ns, sparse {:.0} ns)",
            row.speedup(),
            row.dense.mean_ns,
            row.sparse.mean_ns
        );
    }

    #[test]
    fn report_json_roundtrips_through_the_parser() {
        let report = McBenchReport {
            quick: true,
            generation: vec![GenerationBench {
                v_volts: 0.54,
                bits: OVERLAY_BITS,
                dense: Timing {
                    samples: 3,
                    mean_ns: 5e7,
                    min_ns: 4e7,
                    max_ns: 6e7,
                },
                sparse: Timing {
                    samples: 3,
                    mean_ns: 2e3,
                    min_ns: 1e3,
                    max_ns: 3e3,
                },
            }],
            corruption: CorruptionBench {
                v_volts: 0.44,
                trials: 6,
                dense_ns: 1e8,
                sparse_ns: 1e6,
            },
            forward_pass: vec![ForwardPassBench {
                v_volts: 0.44,
                trials: 6,
                test_images: 200,
                scalar_ns: 8e8,
                batched_ns: 1e8,
            }],
            sweep: SweepBench {
                voltages: vec![0.38, 0.44, 0.50],
                trials: 6,
                test_images: 200,
                dense_seconds: 10.0,
                sparse_seconds: 2.0,
                dense_accuracy: vec![0.5, 0.8, 0.9],
                sparse_accuracy: vec![0.52, 0.79, 0.9],
            },
        };
        let parsed = crate::json::parse(&report.to_json_pretty()).expect("valid JSON");
        assert_eq!(parsed.get("bench").and_then(Value::as_str), Some("mc"));
        let gen = parsed
            .get("generation")
            .and_then(Value::as_array)
            .expect("generation array");
        let speedup = gen[0]
            .get("speedup")
            .and_then(Value::as_f64)
            .expect("speedup");
        assert!((speedup - 25_000.0).abs() < 1.0);
        let sweep_speedup = parsed
            .get("accuracy_sweep")
            .and_then(|s| s.get("speedup"))
            .and_then(Value::as_f64)
            .expect("sweep speedup");
        assert!((sweep_speedup - 5.0).abs() < 1e-9);
        let fwd = &parsed
            .get("forward_pass")
            .and_then(Value::as_array)
            .expect("forward_pass rows")[0];
        let fwd_speedup = fwd
            .get("speedup")
            .and_then(Value::as_f64)
            .expect("forward speedup");
        assert!((fwd_speedup - 8.0).abs() < 1e-9);
        let throughput = fwd
            .get("batched_images_per_sec")
            .and_then(Value::as_f64)
            .expect("throughput");
        assert!((throughput - 2_000.0).abs() < 1e-6);
    }

    #[test]
    fn forward_pass_bench_times_both_paths_consistently() {
        // A tiny trained net: the point is that both paths produce positive
        // inference timings over the same trial count, not the speedup
        // itself (that claim is gated at full scale in perf_smoke).
        let (net, test) = trained_mnist_fc(400, 64, 1);
        let row = forward_pass_bench(&net, test.images(), test.labels(), 3, Volt::new(0.44));
        assert_eq!(row.trials, 3);
        assert_eq!(row.test_images, 64);
        assert!(row.scalar_ns > 0.0 && row.batched_ns > 0.0);
        assert!(row.batched_images_per_sec() > 0.0);
    }
}
