//! `sweep_mnist`: the Fig. 1 accuracy-vs-voltage sweep of the MNIST FC-DNN
//! (784-256-256-256-10) over 1000 test images, 360-600 mV in 20 mV steps.
//!
//! Its three voltage regimes load different layers: the cliff (360-420 mV)
//! is fault sampling and corruption, the knee (440-520 mV) is dirty
//! re-scoring, and the margin (540-600 mV) is the fixed per-point cost of
//! quantize/pack and the clean forward pass.

use crate::report::{digest_f64, median, Outcome};
use crate::trace::{self, StageObserver, Tracer};
use crate::Config;
use dante::{
    EccMode, GeometrySpec, NetworkSpec, OverlaySampling, SupplySpec, SweepPoint, SweepSpec,
};
use dante_circuit::units::Volt;
use dante_nn::batched::CleanForward;
use dante_nn::layers::Layer;
use dante_nn::network::Network;
use dante_nn::quant::ScaledQuantizer;
use dante_sim::{derive_seed, site, TrialEngine};
use dante_sram::model::FaultModel;
use std::time::Instant;

const TRIALS: usize = 20;
const TRAIN_N: usize = 5000;
const TEST_N: usize = 1000;
const EPOCHS: usize = 4;
/// Untraced/traced/traced/untraced rounds of the reference unit in a traced
/// run; short units take more rounds so box drift averages out.
const ABBA_ROUNDS: usize = 1;
/// Nominal wall of one sweep on the reference box (2 cores), in seconds.
const UNIT_S: f64 = 5.0;
/// `SweepSpec::prepare` is cheap and jittery: time it this many times per
/// unit.
const SETUPS_PER_UNIT: usize = 3;
/// FNV-1a of every per-trial accuracy bit pattern of unit 0 at the default
/// seed, points in grid order.
const PINNED_ACCURACY_DIGEST: u64 = 0xcc17_9de1_fd04_c17b;

fn spec(seed: u64) -> SweepSpec {
    SweepSpec {
        seed,
        voltages_mv: (360..=600).step_by(20).collect(),
        trials: TRIALS,
        sampling: OverlaySampling::SparseTail,
        ecc: EccMode::None,
        network: NetworkSpec::MnistFc {
            train_n: TRAIN_N,
            test_n: TEST_N,
            epochs: EPOCHS,
        },
        supply: SupplySpec::Single,
        fault_model: FaultModel::default(),
        geometry: GeometrySpec::Calibrated,
    }
}

fn regime(mv: u32) -> &'static str {
    match mv {
        ..=420 => "cliff",
        421..=520 => "knee",
        _ => "margin",
    }
}

fn accuracy_digest(points: &[SweepPoint]) -> u64 {
    digest_f64(
        points
            .iter()
            .flat_map(|p| p.stats.per_trial.iter().copied()),
    )
}

/// Shape and range checks every unit must pass, plus the pinned digest for
/// unit 0 at the default seed.
fn check(out: &mut Outcome, config: &Config, unit: usize, points: &[SweepPoint]) {
    let n = spec(0).voltages_mv.len();
    let shaped = points.len() == n
        && points.iter().all(|p| {
            p.stats.per_trial.len() == TRIALS
                && p.stats.per_trial.iter().all(|a| (0.0..=1.0).contains(a))
        });
    let cliff_below_margin = shaped && points[0].stats.mean() < points[n - 1].stats.mean();
    out.check(shaped && cliff_below_margin, || {
        format!("sweep unit {unit}: malformed points or no accuracy cliff")
    });
    if unit == 0 && config.is_default_seed() {
        let digest = accuracy_digest(points);
        out.check(digest == PINNED_ACCURACY_DIGEST, || {
            format!("sweep accuracy digest {digest:#018x} != pinned {PINNED_ACCURACY_DIGEST:#018x}")
        });
    }
}

pub fn run(config: &Config, trace: bool) -> Outcome {
    // Untimed warm-up: train (first run only) and cache the network.
    let _ = dante::artifacts::trained_mnist_fc(TRAIN_N, TEST_N, EPOCHS);
    if trace {
        return traced(config);
    }
    crate::report::reset_peak_rss();
    let mut out = Outcome::default();
    let units = config.units(UNIT_S, 2);
    let (mut setup, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for unit in 0..units {
        let spec = spec(config.unit_seed(unit));
        // Several set-ups per unit, spread over the run; the last one runs.
        let mut prep = None;
        for _ in 0..SETUPS_PER_UNIT {
            drop(prep.take());
            let t0 = Instant::now();
            let prepared = spec.prepare();
            setup.push(t0.elapsed().as_secs_f64());
            prep = Some(prepared);
        }
        let prep = prep.expect("at least one set-up per unit");
        let t1 = Instant::now();
        let points = prep.run();
        let wall = t1.elapsed().as_secs_f64();
        walls.push(wall);
        rates.push((spec.voltages_mv.len() * TRIALS) as f64 / wall);
        check(&mut out, config, unit, &points);
    }
    out.set("setup_s", median(&setup));
    out.set("work_per_s", median(&rates));
    out.set("wall_s", median(&walls));
    out.note(format!(
        "mc_trials_per_s = {:?} 1/s (median of {units} sweeps, {TEST_N} images, {TRIALS} trials x 13 points)",
        median(&rates)
    ));
    out.note(format!("wall_s = {:?} s (one sweep)", median(&walls)));
    out.note(format!(
        "setup_s = {:?} s (SweepSpec::prepare, median of {} with a warm artifact cache)",
        median(&setup),
        setup.len()
    ));
    out
}

/// Bit lengths of the packed images one trial corrupts: every weight layer,
/// then the test inputs (same quantizer as the evaluator).
fn image_bit_lengths(net: &Network, images: &[f32]) -> Vec<usize> {
    let q = ScaledQuantizer::weight_default();
    let mut lens: Vec<usize> = net
        .weight_layer_indices()
        .into_iter()
        .map(|i| match &net.layers()[i] {
            Layer::Dense(d) => q.quantize(d.weights().as_slice()).bit_len(),
            Layer::Conv2d(c) => q.quantize(c.weights()).bit_len(),
            _ => unreachable!("weight_layer_indices returns parameterized layers"),
        })
        .collect();
    lens.push(q.quantize(images).bit_len());
    lens
}

/// Replays the sweep's fault sampling alone, single-threaded: the same
/// layer bit lengths, voltages and seed chain as the evaluator. Returns
/// `(seconds, fault bits)`.
fn replay_sampling(spec: &SweepSpec, bit_lens: &[usize]) -> (f64, u64) {
    let ctx = spec.energy_context();
    let layers = bit_lens.len() - 1;
    let (mut indices, mut cells) = (Vec::new(), Vec::new());
    let mut bits = 0u64;
    let t0 = Instant::now();
    for (i, &mv) in spec.voltages_mv.iter().enumerate() {
        let assignment = ctx.voltage_assignment(Volt::from_millivolts(f64::from(mv)), layers);
        let point_seed = derive_seed(spec.seed, site::SWEEP_POINT, i as u64);
        for t in 0..spec.trials {
            let trial_seed = derive_seed(point_seed, site::TRIAL, t as u64);
            let die = spec.fault_model.resolve_die(trial_seed);
            for (pos, &len) in bit_lens.iter().enumerate() {
                let (v, seed) = if pos < layers {
                    (
                        assignment.weight_layers[pos],
                        derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64),
                    )
                } else {
                    (assignment.inputs, derive_seed(trial_seed, site::INPUTS, 0))
                };
                die.for_each_flip_word_at_floor(len, v, seed, &mut indices, &mut cells, |_, m| {
                    bits += u64::from(m.count_ones());
                });
            }
        }
    }
    (t0.elapsed().as_secs_f64(), bits)
}

/// One traced sweep: its points, spans and the engine's counts.
struct TracedSweep {
    points: Vec<SweepPoint>,
    tracer: Tracer,
    root: usize,
    point_spans: Vec<usize>,
    fault_bits: u64,
    trials: u64,
    busy_ns: u64,
    batch_ns: u64,
}

fn traced_unit(spec: &SweepSpec) -> TracedSweep {
    let tracer = Tracer::new();
    let root = tracer.open("sweep", None);
    let prep = tracer.span("sweep.prepare", Some(root), || spec.prepare());
    let mut point_spans = Vec::new();
    let (mut fault_bits, mut trials, mut busy_ns, mut batch_ns) = (0, 0, 0, 0);
    let points = (0..prep.point_count())
        .map(|i| {
            let id = tracer.open("accuracy.point", Some(root));
            let observer = StageObserver::new(&tracer, Some(id));
            let point = prep.run_point_observed(i, &observer);
            tracer.close(id);
            point_spans.push(id);
            fault_bits += StageObserver::get(&observer.fault_bits);
            trials += StageObserver::get(&observer.trials);
            busy_ns += StageObserver::get(&observer.busy_ns);
            batch_ns += StageObserver::get(&observer.batch_ns);
            point
        })
        .collect();
    tracer.close(root);
    TracedSweep {
        points,
        tracer,
        root,
        point_spans,
        fault_bits,
        trials,
        busy_ns,
        batch_ns,
    }
}

fn traced(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(config.unit_seed(0));
    let render =
        |points: &[SweepPoint]| dante_serve::api::build_record(&spec, points).to_json_pretty();
    let (plain, with, overhead) =
        trace::abba(ABBA_ROUNDS, || spec.prepare().run(), || traced_unit(&spec));
    check(&mut out, config, 0, &plain[0]);
    let reference = render(&plain[0]);
    for (k, points) in plain
        .iter()
        .map(Vec::as_slice)
        .chain(with.iter().map(|t| &t.points[..]))
        .enumerate()
    {
        out.check(render(points) == reference, || {
            format!("sweep: run {k} of the untraced/traced pairs differs from the first")
        });
    }
    let TracedSweep {
        tracer,
        root,
        point_spans,
        fault_bits,
        trials,
        busy_ns,
        batch_ns,
        ..
    } = &with[0];
    let (tracer, root, fault_bits) = (tracer, *root, *fault_bits);

    // Split each point's wall into its fixed part (outside the trial batch)
    // and the staged trial work, by regime.
    let spans = tracer.spans();
    for (i, &id) in point_spans.iter().enumerate() {
        let regime = regime(spec.voltages_mv[i]);
        let point = &spans[id];
        let batch = spans
            .iter()
            .position(|s| s.name == "sim.batch" && s.parent == Some(id))
            .expect("every point runs one trial batch");
        tracer.record(
            "accuracy.point_fixed",
            point.start,
            spans[batch].start,
            Some(id),
        );
        tracer.record(
            "accuracy.point_fixed",
            spans[batch].end,
            point.end,
            Some(id),
        );
        for stage in ["corrupt", "inference"] {
            let name = format!("accuracy.{stage}");
            let sum: f64 = spans
                .iter()
                .filter(|s| s.name == name && s.parent == Some(batch))
                .map(|s| s.end - s.start)
                .sum();
            out.add(format!("accuracy.{stage}_s.{regime}"), sum);
        }
        let fixed = (point.end - point.start) - (spans[batch].end - spans[batch].start);
        out.add(format!("accuracy.point_fixed_s.{regime}"), fixed);
    }
    let residual = tracer.residual(
        &[
            "sweep.prepare",
            "accuracy.point_fixed",
            "accuracy.corrupt",
            "accuracy.inference",
        ],
        spans[root].start,
        spans[root].end,
    );
    out.check(residual <= trace::STATED_RESIDUAL, || {
        format!("sweep: stages leave {residual:?} of the wall uncovered")
    });
    let threads = TrialEngine::from_env().threads().min(TRIALS) as f64;

    // Replays outside the traced wall: fault sampling and the clean forward
    // pass, each on the workload's own network and images.
    let (net, test) = dante::artifacts::trained_mnist_fc(TRAIN_N, TEST_N, EPOCHS);
    let bit_lens = image_bit_lengths(&net, test.images());
    let (sample_s, replay_bits) = replay_sampling(&spec, &bit_lens);
    out.check(replay_bits == fault_bits, || {
        format!("sweep: replayed sampling found {replay_bits} fault bits, the engine reported {fault_bits}")
    });
    let t1 = Instant::now();
    for _ in &spec.voltages_mv {
        std::hint::black_box(CleanForward::build(&net, test.images(), test.labels()));
    }
    let clean_forward_s = t1.elapsed().as_secs_f64();

    out.set(
        "sweep.prepare_s",
        tracer.total(|s| s.name == "sweep.prepare"),
    );
    out.set("sram.sample_s", sample_s);
    out.set("nn.clean_forward_s", clean_forward_s);
    out.set(
        "sim.busy_frac",
        *busy_ns as f64 / (threads * *batch_ns as f64),
    );
    out.set("trace.overhead_frac", overhead);
    out.set("trace.residual_frac", residual);
    out.set("sram.fault_bits", fault_bits as f64);
    out.set("sim.trials", *trials as f64);
    out.note(format!(
        "traced sweep: overhead {overhead:?}, residual {residual:?} of the wall"
    ));
    tracer.save(config, "sweep_mnist");
    out
}
