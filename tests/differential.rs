//! Differential acceptance: the cycle-level executor and the independent
//! reference math must agree bit-exactly, stage by stage, on fault-free and
//! heavily corrupted programs — FC and conv topologies alike. On any
//! divergence the report carries the replayable `(seed, trial)` pair and
//! the failure is shrunk to a 1-minimal corruption before the panic, so the
//! log *is* the repro.

use dante_accel::{BoostSchedule, ChipConfig, Dante, Program};
use dante_circuit::units::Volt;
use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
use dante_nn::network::Network;
use dante_verify::differential::{
    corrupt_program, minimize_corruption, run_differential, DiffConfig,
};
use dante_verify::forward::{scalar_evaluate, ForwardDiffConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fc_program() -> Program {
    let mut rng = StdRng::seed_from_u64(17);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(24, 16, &mut rng)),
        Layer::Relu(Relu::new(16)),
        Layer::Dense(Dense::new(16, 10, &mut rng)),
        Layer::Relu(Relu::new(10)),
        Layer::Dense(Dense::new(10, 4, &mut rng)),
    ])
    .unwrap();
    let calib: Vec<f32> = (0..24 * 6).map(|i| ((i * 13) % 19) as f32 / 19.0).collect();
    Program::compile(&net, &calib).unwrap()
}

fn conv_program() -> Program {
    let mut rng = StdRng::seed_from_u64(29);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(Shape3::new(2, 10, 10), 6, 3, 1, &mut rng)),
        Layer::Relu(Relu::new(6 * 100)),
        Layer::MaxPool2d(MaxPool2d::new(Shape3::new(6, 10, 10))),
        Layer::Dense(Dense::new(150, 8, &mut rng)),
    ])
    .unwrap();
    let calib: Vec<f32> = (0..200 * 4)
        .map(|i| ((i * 11) % 23) as f32 / 23.0)
        .collect();
    Program::compile(&net, &calib).unwrap()
}

/// Runs the full differential suite on one program and panics with a
/// minimized repro on divergence.
fn assert_differentially_clean(program: &Program, config: &DiffConfig) {
    let report = run_differential(program, config);
    if report.is_clean() {
        return;
    }
    // Shrink the first divergence to a minimal corruption for the log,
    // replaying the exact trial sample run_differential used.
    let d = &report.divergences[0];
    let corrupted = corrupt_program(program, &config.model, config.weight_voltage, d.trial_seed);
    let sample: Vec<f32> = (0..program.in_len())
        .map(|i| ((i * 7 + d.trial * 13) % 23) as f32 / 23.0)
        .collect();
    let faulty_sample = dante_verify::corrupt_sample(
        program,
        &sample,
        &config.model,
        config.input_voltage,
        d.trial_seed,
    );
    let minimal = minimize_corruption(program, &corrupted, |p| {
        dante_verify::check_program(p, &faulty_sample, d.trial, d.trial_seed).is_some()
    });
    panic!(
        "executor/reference divergence:\n{}minimal corrupted rows: {minimal:?}",
        report.render()
    );
}

#[test]
fn fc_executor_agrees_with_reference_under_corruption() {
    assert_differentially_clean(&fc_program(), &DiffConfig::default());
}

#[test]
fn conv_executor_agrees_with_reference_under_corruption() {
    assert_differentially_clean(
        &conv_program(),
        &DiffConfig {
            trials: 6,
            ..DiffConfig::default()
        },
    );
}

#[test]
fn differential_agreement_holds_across_voltages() {
    // From fault-free (0.60 V) through the cliff (0.42 V) to deep VLV
    // (0.36 V, BER ~0.4): agreement is unconditional because both sides
    // read the same corrupted bit image.
    let program = fc_program();
    for mv in [600u32, 480, 420, 380, 360] {
        let config = DiffConfig {
            trials: 4,
            weight_voltage: Volt::from_millivolts(f64::from(mv)),
            input_voltage: Volt::from_millivolts(f64::from(mv)),
            seed: u64::from(mv),
            ..DiffConfig::default()
        };
        assert_differentially_clean(&program, &config);
    }
}

#[test]
fn differential_report_is_deterministic_across_thread_counts() {
    // The report (not just its emptiness) must be a pure function of the
    // config — the TrialEngine guarantee extended to the verifier.
    let program = fc_program();
    let config = DiffConfig::default();
    let a = run_differential(&program, &config);
    let b = run_differential(&program, &config);
    assert_eq!(a, b);
}

/// Runs the batched-vs-scalar forward differential and panics with a
/// ddmin-minimized repro (a 1-minimal weight-unit set) on divergence.
fn assert_forward_differentially_clean(
    net: &Network,
    inputs: &[f32],
    labels: &[u8],
    config: &ForwardDiffConfig,
) {
    let report = dante_verify::run_forward_differential(net, inputs, labels, config);
    if report.is_clean() {
        return;
    }
    // Shrink the first divergence: replay its die, then ddmin the corrupted
    // weight units under the same batched-vs-scalar check.
    let d = &report.divergences[0];
    let clean = dante_verify::forward::quantized_baseline(net);
    let clean_inputs = dante_verify::forward::quantized_input_baseline(inputs, net.in_len());
    let corrupted =
        dante_verify::corrupt_weights(net, &config.model, config.weight_voltage, d.trial_seed);
    let (trial_inputs, dirty) = dante_verify::corrupt_inputs(
        inputs,
        net.in_len(),
        &config.model,
        config.input_voltage,
        d.trial_seed,
    );
    let minimal = dante_verify::minimize_units(&clean, &corrupted, |hybrid| {
        !dante_verify::check_batched(
            &clean,
            hybrid,
            &clean_inputs,
            &trial_inputs,
            &dirty,
            labels,
            config.cache_budget,
        )
        .is_clean()
    });
    panic!(
        "batched/scalar divergence:\n{}minimal corrupted units: {minimal:?}",
        report.render()
    );
}

fn forward_dataset(seed: u64, n: usize, in_len: usize, classes: u8) -> (Vec<f32>, Vec<u8>) {
    use rand::Rng as _;
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = (0..n * in_len).map(|_| rng.gen::<f32>()).collect();
    let labels = (0..n).map(|_| rng.gen::<u8>() % classes).collect();
    (inputs, labels)
}

#[test]
fn batched_forward_agrees_with_scalar_on_fc_networks() {
    // Shapes vary the GEMM tile remainders; batch sizes straddle the
    // 256-image evaluation chunk.
    let mut rng = StdRng::seed_from_u64(71);
    for (in_len, hidden, classes, n) in [(24, 16, 4, 60), (19, 13, 5, 257)] {
        let net = Network::new(vec![
            Layer::Dense(Dense::new(in_len, hidden, &mut rng)),
            Layer::Relu(Relu::new(hidden)),
            Layer::Dense(Dense::new(hidden, classes, &mut rng)),
        ])
        .unwrap();
        let (inputs, labels) = forward_dataset(100 + n as u64, n, in_len, classes as u8);
        assert_forward_differentially_clean(
            &net,
            &inputs,
            &labels,
            &ForwardDiffConfig {
                trials: 6,
                ..ForwardDiffConfig::default()
            },
        );
    }
}

#[test]
fn batched_forward_agrees_with_scalar_on_conv_networks() {
    let mut rng = StdRng::seed_from_u64(73);
    let net = Network::new(vec![
        Layer::Conv2d(Conv2d::new(Shape3::new(2, 10, 10), 6, 3, 1, &mut rng)),
        Layer::Relu(Relu::new(6 * 100)),
        Layer::MaxPool2d(MaxPool2d::new(Shape3::new(6, 10, 10))),
        Layer::Dense(Dense::new(150, 8, &mut rng)),
    ])
    .unwrap();
    let (inputs, labels) = forward_dataset(74, 40, net.in_len(), 8);
    assert_forward_differentially_clean(
        &net,
        &inputs,
        &labels,
        &ForwardDiffConfig {
            trials: 6,
            ..ForwardDiffConfig::default()
        },
    );
}

#[test]
fn batched_forward_agrees_with_scalar_across_voltages() {
    // From fault-free (0.60 V) through the cliff to deep VLV: the dirty
    // sets range from empty to nearly everything.
    let mut rng = StdRng::seed_from_u64(75);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(24, 16, &mut rng)),
        Layer::Relu(Relu::new(16)),
        Layer::Dense(Dense::new(16, 4, &mut rng)),
    ])
    .unwrap();
    let (inputs, labels) = forward_dataset(76, 80, 24, 4);
    for mv in [600u32, 480, 420, 380, 360] {
        let v = Volt::from_millivolts(f64::from(mv));
        assert_forward_differentially_clean(
            &net,
            &inputs,
            &labels,
            &ForwardDiffConfig {
                trials: 4,
                weight_voltage: v,
                input_voltage: v,
                seed: u64::from(mv),
                ..ForwardDiffConfig::default()
            },
        );
    }
}

/// Per-trial accuracy bits: the evaluator and its scalar reference must
/// agree on every one, not just on the mean.
fn trial_bits(stats: &dante::AccuracyStats) -> Vec<u64> {
    stats.per_trial.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn evaluator_forward_paths_agree_bitwise_across_voltages_and_samplers() {
    // The end-to-end guarantee the sweep/iso/fleet stack rides on: the
    // Monte-Carlo evaluator's trial-batched per-trial accuracies are
    // bit-identical to the scalar reference (`scalar_evaluate`: corrupted
    // copies scored by `Network::accuracy`) for every voltage, sampling
    // strategy, and ECC mode.
    use dante::{AccuracyEvaluator, EccMode, OverlaySampling, VoltageAssignment};

    let mut rng = StdRng::seed_from_u64(77);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(20, 14, &mut rng)),
        Layer::Relu(Relu::new(14)),
        Layer::Dense(Dense::new(14, 5, &mut rng)),
    ])
    .unwrap();
    let (images, labels) = forward_dataset(78, 70, 20, 5);

    for mv in [360u32, 420, 460, 540] {
        let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
        for (ecc, sampling) in [
            (EccMode::None, OverlaySampling::SparseTail),
            (EccMode::None, OverlaySampling::Dense),
            (EccMode::SecDed, OverlaySampling::SparseTail),
        ] {
            let eval = AccuracyEvaluator::new(3)
                .with_ecc(ecc)
                .with_sampling(sampling);
            let seed = u64::from(mv);
            let batched = eval.evaluate(&net, &a, &images, &labels, seed);
            let scalar = scalar_evaluate(&eval, &net, &a, &images, &labels, seed);
            assert_eq!(
                trial_bits(&scalar),
                trial_bits(&batched),
                "{mv} mV ecc={ecc:?} sampling={sampling:?}"
            );
        }
    }
}

/// The 6-12-2 toy network trained on an 80-sample two-class set: a real
/// decision boundary, so faults move accuracy rather than a random net's
/// chance level.
fn trained_toy_net_and_data() -> (Network, Vec<f32>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(6, 12, &mut rng)),
        Layer::Relu(Relu::new(12)),
        Layer::Dense(Dense::new(12, 2, &mut rng)),
    ])
    .unwrap();
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..80 {
        let c = (i % 2) as u8;
        let base = if c == 0 { 0.75 } else { 0.15 };
        for j in 0..6 {
            images.push(base + ((i + j) % 7) as f32 * 0.02);
        }
        labels.push(c);
    }
    let cfg = dante_nn::train::SgdConfig {
        epochs: 20,
        batch_size: 8,
        ..Default::default()
    };
    dante_nn::train::train(&mut net, &images, &labels, &cfg, &mut rng);
    (net, images, labels)
}

#[test]
fn evaluator_matches_the_scalar_reference_on_a_trained_network() {
    use dante::{AccuracyEvaluator, VoltageAssignment};

    let (net, images, labels) = trained_toy_net_and_data();
    let eval = AccuracyEvaluator::new(4);
    for mv in [340_u32, 400, 440, 480, 540] {
        let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
        let batched = eval.evaluate(&net, &a, &images, &labels, 17);
        let scalar = scalar_evaluate(&eval, &net, &a, &images, &labels, 17);
        assert_eq!(trial_bits(&scalar), trial_bits(&batched), "{mv} mV");
    }
}

#[test]
fn evaluator_matches_the_scalar_reference_under_ecc_and_dense_sampling() {
    use dante::{AccuracyEvaluator, EccMode, OverlaySampling, VoltageAssignment};

    let (net, images, labels) = trained_toy_net_and_data();
    let a = VoltageAssignment::uniform(Volt::new(0.42), 2);
    for (ecc, sampling) in [
        (EccMode::SecDed, OverlaySampling::SparseTail),
        (EccMode::None, OverlaySampling::Dense),
    ] {
        let eval = AccuracyEvaluator::new(3)
            .with_ecc(ecc)
            .with_sampling(sampling);
        assert_eq!(
            scalar_evaluate(&eval, &net, &a, &images, &labels, 23),
            eval.evaluate(&net, &a, &images, &labels, 23),
            "ecc={ecc:?} sampling={sampling:?}"
        );
    }
}

#[test]
fn corruption_actually_perturbs_the_execution() {
    // Guard against a vacuous differential: at the default voltages the
    // corrupted program must change observable outputs vs the clean one for
    // at least one trial sample — otherwise the suite tests nothing.
    let program = fc_program();
    let config = DiffConfig::default();
    let sample: Vec<f32> = (0..program.in_len())
        .map(|i| (i % 23) as f32 / 23.0)
        .collect();
    let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
    let schedule = BoostSchedule::uniform(0, program.weight_layer_count(), 0);
    let clean = dante.run(&program, &schedule, &sample);
    let corrupted = corrupt_program(
        &program,
        &config.model,
        config.weight_voltage,
        dante_sim::derive_seed(config.seed, dante_sim::site::DIFF_TRIAL, 0),
    );
    let faulty = dante.run(&corrupted, &schedule, &sample);
    assert_ne!(
        clean.codes, faulty.codes,
        "0.40 V corruption must visibly perturb the output codes"
    );
}
