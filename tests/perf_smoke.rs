//! Live performance gates for the Monte-Carlo hot path: sparse
//! tail-sampled fault overlays against dense per-cell draws, and the
//! trial-batched forward pass against the naive scalar oracle.
//!
//! Every ratio is measured here, in the test, so nothing reads a committed
//! artifact. Evaluator timings are the per-trial durations the evaluator
//! reports through `TrialObserver::on_stage`. Each floor sits at no more
//! than half the ratio measured in the test profile on a 2-core machine, so
//! a lost optimisation trips it and scheduler noise does not. End-to-end
//! wall clocks are the `perfbench` package's job (see `BENCHMARK.json`).

use dante::accuracy::{AccuracyEvaluator, OverlaySampling, VoltageAssignment};
use dante::artifacts::trained_mnist_fc;
use dante_circuit::units::Volt;
use dante_nn::data::Dataset;
use dante_nn::network::Network;
use dante_sim::observer::TrialObserver;
use dante_sim::{derive_seed, site};
use dante_sram::fault::VminFaultModel;
use dante_sram::sparse::SparseOverlay;
use dante_sram::storage::FaultOverlay;
use dante_verify::forward::scalar_count;
use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Monte-Carlo trials per timed evaluation.
const TRIALS: usize = 6;

/// Root seed of every timed evaluation.
const SEED: u64 = 0xC0DE;

/// Serializes the tests of this file, which would otherwise run at the
/// same time and load each other's timings. The lock guards no data, so a
/// failed test does not poison it for the others.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A small trained MNIST-FC network and its 200-image test set.
fn mnist() -> (Network, Dataset) {
    trained_mnist_fc(2_000, 200, 2)
}

/// Sums the evaluator's per-trial durations of one named stage.
struct StageTotal {
    stage: &'static str,
    total: Mutex<Duration>,
}

impl TrialObserver for StageTotal {
    fn on_stage(&self, stage: &'static str, elapsed: Duration) {
        if stage == self.stage {
            *self.total.lock().expect("stage total poisoned") += elapsed;
        }
    }
}

/// Runs one single-threaded evaluation at uniform voltage `v` and returns
/// its mean accuracy and the total time of `stage` over all trials.
fn timed_stage(
    eval: AccuracyEvaluator,
    net: &Network,
    test: &Dataset,
    v: Volt,
    stage: &'static str,
) -> (f64, Duration) {
    let observer = StageTotal {
        stage,
        total: Mutex::new(Duration::ZERO),
    };
    let assignment = VoltageAssignment::uniform(v, net.weight_layer_indices().len());
    let stats = eval.with_threads(1).evaluate_observed(
        net,
        &assignment,
        test.images(),
        test.labels(),
        SEED,
        &observer,
    );
    let total = observer.total.into_inner().expect("stage total poisoned");
    assert!(
        total > Duration::ZERO,
        "the evaluator reported no {stage} stage"
    );
    (stats.mean(), total)
}

/// The fastest of one timed call of `op` per seed.
fn fastest(seeds: std::ops::RangeInclusive<u64>, mut op: impl FnMut(u64)) -> Duration {
    seeds
        .map(|seed| {
            let start = Instant::now();
            op(seed);
            start.elapsed()
        })
        .min()
        .expect("at least one seed")
}

#[test]
fn sparse_generation_beats_dense_by_100x_at_deep_tail_voltage() {
    let _serial = serial();
    // One 4 Mbit bit image, the paper's SRAM test-array scale. At 0.54 V
    // only a handful of its cells fail, which the sparse sampler draws
    // without visiting the other four million.
    const BITS: usize = 4 * 1024 * 1024;
    let model = VminFaultModel::default_14nm();
    let v = Volt::new(0.54);
    let dense = fastest(1..=3, |seed| {
        black_box(FaultOverlay::from_seed(BITS, &model, seed));
    });
    let sparse = fastest(1..=64, |seed| {
        black_box(SparseOverlay::from_seed(BITS, &model, v, seed));
    });
    let speedup = dense.as_secs_f64() / sparse.as_secs_f64();
    assert!(
        speedup >= 100.0,
        "sparse overlay generation speedup {speedup:.0}x below the 100x floor \
         (dense {dense:?}, sparse {sparse:?})"
    );
}

#[test]
fn sparse_corruption_beats_dense_and_matches_its_accuracy() {
    let _serial = serial();
    let (net, test) = mnist();
    // At the 0.44 V cliff nearly every weight word is corrupted, so the
    // win is the sampler alone: the dense one draws a V_min for every cell.
    let v = Volt::new(0.44);
    let run = |sampling| {
        let eval = AccuracyEvaluator::new(TRIALS).with_sampling(sampling);
        timed_stage(eval, &net, &test, v, "corrupt")
    };
    let (dense_accuracy, dense) = run(OverlaySampling::Dense);
    let (sparse_accuracy, sparse) = run(OverlaySampling::SparseTail);
    let speedup = dense.as_secs_f64() / sparse.as_secs_f64();
    assert!(
        speedup >= 10.0,
        "sparse corrupt stage speedup {speedup:.1}x below the 10x floor \
         (dense {dense:?}, sparse {sparse:?} over {TRIALS} trials)"
    );
    // The two samplers draw different streams, so their accuracies differ
    // by Monte-Carlo noise only; a gross gap means a broken sampler.
    let delta = (dense_accuracy - sparse_accuracy).abs();
    assert!(
        delta < 0.10,
        "dense ({dense_accuracy:.4}) and sparse ({sparse_accuracy:.4}) mean accuracies \
         diverge by {delta:.4}: sampler equivalence is broken"
    );
}

#[test]
fn batched_inference_beats_the_naive_scalar_oracle() {
    let _serial = serial();
    let (net, test) = mnist();
    let layers = net.weight_layer_indices().len();
    // At the cliff nearly every weight word is dirty and the win is the
    // tiled GEMM alone; in the deep tail the incremental re-scoring of the
    // few damaged images and columns adds to it. The floors are half the
    // lowest ratios measured in the test profile (about 1.05x and 2.4x),
    // where the GEMM kernels gain far less over the naive loop than in
    // release (about 3.1x and 5.6x).
    for (volts, floor) in [(0.44, 0.5), (0.54, 1.2)] {
        let v = Volt::new(volts);
        let eval = AccuracyEvaluator::new(TRIALS);
        let (_, batched) = timed_stage(eval.clone(), &net, &test, v, "inference");
        // The same dies, scored by the naive layer walk. Only the scoring
        // is timed, not the corrupted copies.
        let assignment = VoltageAssignment::uniform(v, layers);
        let scalar: Duration = (0..TRIALS)
            .map(|t| {
                let trial_seed = derive_seed(SEED, site::TRIAL, t as u64);
                let corrupted = eval.corrupt_network(&net, &assignment, trial_seed);
                let inputs = eval.corrupt_inputs(test.images(), assignment.inputs, trial_seed);
                let start = Instant::now();
                black_box(scalar_count(&corrupted, &inputs, test.labels()));
                start.elapsed()
            })
            .sum();
        let speedup = scalar.as_secs_f64() / batched.as_secs_f64();
        assert!(
            speedup >= floor,
            "batched inference speedup {speedup:.2}x at {volts:.2} V below the {floor}x \
             floor (scalar {scalar:?}, batched {batched:?} over {TRIALS} trials)"
        );
    }
}
