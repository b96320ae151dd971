//! `retrain_mnist`: fault-aware retraining of the MNIST FC-DNN at 460 mV
//! (the `retrain` golden's operating point) followed by its two
//! iso-accuracy solves. It drives the `accuracy`/`sram` layers as the write
//! side: every mini-batch calls `AccuracyEvaluator::corrupt_network`, which
//! re-quantizes and re-packs the whole network, while `nn` runs backward
//! passes and SGD rather than inference.

use crate::report::{median, Outcome};
use crate::trace::{self, Tracer};
use crate::Config;
use dante::{
    AccuracyEvaluator, EccMode, HardenedNetwork, NetworkSpec, OverlaySampling, ResamplePolicy,
    RetrainEvent, RetrainSpec, VoltageAssignment,
};
use dante_circuit::units::Volt;
use dante_nn::train::{train, SgdConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const TRAIN_N: usize = 1200;
const TEST_N: usize = 40;
const BASE_EPOCHS: usize = 4;
const EPOCHS: usize = 2;
const TARGET_MV: u32 = 460;
/// The retraining loop's fixed mini-batch size (`dante::retrain`'s `v1`
/// hyper-parameters), used to count `corrupt_network` calls and to replay
/// a plain training epoch under the same schedule.
const BATCH: usize = 32;
/// Untraced/traced/traced/untraced rounds of the reference unit in a traced
/// run; short units take more rounds so box drift averages out.
const ABBA_ROUNDS: usize = 3;
/// Nominal wall of one retraining run on the reference box, in seconds.
const UNIT_S: f64 = 1.4;
/// Unit 0 at the default seed: hardened weight digest, baseline and
/// hardened single-supply V_min in millivolts.
const PINNED_WEIGHT_DIGEST: u64 = 0xeea1_7167_43dd_ce53;
const PINNED_BASELINE_VMIN_MV: f64 = 480.0;
const PINNED_HARDENED_VMIN_MV: f64 = 460.0;

fn spec(seed: u64) -> RetrainSpec {
    RetrainSpec {
        seed,
        network: NetworkSpec::MnistFc {
            train_n: TRAIN_N,
            test_n: TEST_N,
            epochs: BASE_EPOCHS,
        },
        target_mv: TARGET_MV,
        epochs: EPOCHS,
        resample: ResamplePolicy::EveryEpoch,
        voltages_mv: (380..=520).step_by(20).collect(),
        trials: 3,
        floor: 0.95,
        ..RetrainSpec::toy_default()
    }
}

fn check(out: &mut Outcome, config: &Config, unit: usize, h: &HardenedNetwork) {
    out.check(
        h.epochs.len() == EPOCHS && h.baseline_single_vmin_mv().is_some(),
        || format!("retrain unit {unit}: missing epochs or baseline V_min"),
    );
    if unit == 0 && config.is_default_seed() {
        let got = (
            h.weight_digest(),
            h.baseline_single_vmin_mv(),
            h.hardened_single_vmin_mv(),
        );
        let pinned = (
            PINNED_WEIGHT_DIGEST,
            Some(PINNED_BASELINE_VMIN_MV),
            Some(PINNED_HARDENED_VMIN_MV),
        );
        out.check(got == pinned, || {
            format!("retrain (digest, baseline, hardened) {got:x?} != pinned {pinned:x?}")
        });
    }
}

/// Runs one retraining unit, returning the result and the time to the
/// first `EpochStart` (the moment training is ready to run).
fn run_unit(spec: &RetrainSpec, mut on_event: impl FnMut(&RetrainEvent)) -> (HardenedNetwork, f64) {
    let t0 = Instant::now();
    let mut ready = None;
    let hardened = spec.run_observed(&mut |event| {
        if ready.is_none() {
            ready = Some(t0.elapsed().as_secs_f64());
        }
        on_event(event);
    });
    (
        hardened,
        ready.expect("retraining emits EpochStart before training"),
    )
}

pub fn run(config: &Config, trace: bool) -> Outcome {
    let _ = dante::artifacts::trained_mnist_fc(TRAIN_N, TEST_N, BASE_EPOCHS);
    if trace {
        return traced(config);
    }
    crate::report::reset_peak_rss();
    let mut out = Outcome::default();
    let units = config.units(UNIT_S, 3);
    let (mut setup, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for unit in 0..units {
        let t0 = Instant::now();
        let (hardened, ready) = run_unit(&spec(config.unit_seed(unit)), |_| ());
        let wall = t0.elapsed().as_secs_f64();
        setup.push(ready);
        walls.push(wall);
        rates.push((TRAIN_N * EPOCHS) as f64 / wall);
        check(&mut out, config, unit, &hardened);
    }
    out.set("setup_s", median(&setup));
    out.set("work_per_s", median(&rates));
    out.set("wall_s", median(&walls));
    out.note(format!(
        "wall_s = {:?} s (RetrainSpec::run_observed incl. both iso solves, median of {units})",
        median(&walls)
    ));
    out.note(format!(
        "train_images_per_s = {:?} 1/s ({TRAIN_N} images x {EPOCHS} epochs per run)",
        median(&rates)
    ));
    out.note(format!(
        "setup_s = {:?} s (time to the first EpochStart, median of {units})",
        median(&setup)
    ));
    out
}

fn traced(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(config.unit_seed(0));
    let render = |h: &HardenedNetwork| dante_serve::api::render_retrain(&spec, h);

    let traced_unit = || {
        let tracer = Tracer::new();
        let root = tracer.open("retrain", None);
        let mut marks: Vec<(bool, f64)> = Vec::new();
        let (hardened, _) = run_unit(&spec, |event| {
            marks.push((
                matches!(event, RetrainEvent::EpochStart { .. }),
                tracer.now(),
            ));
        });
        tracer.close(root);
        (hardened, tracer, root, marks)
    };
    let (plain, with, overhead) =
        trace::abba(ABBA_ROUNDS, || run_unit(&spec, |_| ()).0, traced_unit);
    check(&mut out, config, 0, &plain[0]);
    let reference = render(&plain[0]);
    for (k, h) in plain.iter().chain(with.iter().map(|t| &t.0)).enumerate() {
        out.check(render(h) == reference, || {
            format!("retrain: run {k} of the untraced/traced pairs differs from the first")
        });
    }
    let (_, tracer, root, marks) = &with[0];
    let spans = tracer.spans();
    let (start, end) = (spans[*root].start, spans[*root].end);
    // Events alternate EpochStart/EpochDone: set-up runs up to the first
    // start, each epoch from its start to its done event, and the two iso
    // solves after the last done.
    tracer.record("retrain.setup", start, marks[0].1, Some(*root));
    for pair in marks.chunks(2) {
        if let [(true, a), (false, b)] = pair {
            tracer.record("retrain.epoch", *a, *b, Some(*root));
        }
    }
    tracer.record("retrain.iso", marks[marks.len() - 1].1, end, Some(*root));

    // Replays: the per-batch corruption call and one plain SGD epoch on the
    // same network and data.
    let (net, _) = dante::artifacts::trained_mnist_fc(TRAIN_N, TEST_N, BASE_EPOCHS);
    let layers = net.weight_layer_indices().len();
    let corruptor = AccuracyEvaluator::new(1)
        .with_sampling(OverlaySampling::SparseTail)
        .with_ecc(EccMode::None)
        .with_fault_spec(spec.fault_model);
    let assignment =
        VoltageAssignment::uniform(Volt::from_millivolts(f64::from(TARGET_MV)), layers);
    let per_call: Vec<f64> = (0..9u64)
        .map(|k| {
            let t = Instant::now();
            std::hint::black_box(corruptor.corrupt_network(&net, &assignment, k));
            t.elapsed().as_secs_f64()
        })
        .collect();
    // One call per mini-batch plus one per epoch for the faulty-accuracy
    // report.
    let calls = (TRAIN_N.div_ceil(BATCH) * EPOCHS + EPOCHS) as f64;
    let data = dante_nn::data::generate_mnist_like(TRAIN_N, 1);
    let mut sgd_net = net.clone();
    let sgd = SgdConfig {
        learning_rate: 0.0005,
        momentum: 0.9,
        batch_size: BATCH,
        epochs: 1,
        lr_decay: 0.9,
    };
    let t1 = Instant::now();
    train(
        &mut sgd_net,
        data.images(),
        data.labels(),
        &sgd,
        &mut StdRng::seed_from_u64(spec.seed),
    );
    let train_epoch_s = t1.elapsed().as_secs_f64();

    out.set(
        "retrain.epoch_s",
        tracer.total(|s| s.name == "retrain.epoch"),
    );
    out.set("retrain.iso_s", tracer.total(|s| s.name == "retrain.iso"));
    out.set("accuracy.corrupt_network_s", median(&per_call) * calls);
    out.set("nn.train_epoch_s", train_epoch_s);
    out.set("trace.overhead_frac", overhead);
    let residual = tracer.residual(
        &["retrain.setup", "retrain.epoch", "retrain.iso"],
        start,
        end,
    );
    out.check(residual <= trace::STATED_RESIDUAL, || {
        format!("retrain: stages leave {residual:?} of the wall uncovered")
    });
    out.set("trace.residual_frac", residual);
    out.set("retrain.train_images", (TRAIN_N * EPOCHS) as f64);
    out.set("retrain.corrupt_calls", calls);
    out.note(format!("traced retrain: overhead {overhead:?}"));
    tracer.save(config, "retrain_mnist");
    out
}
