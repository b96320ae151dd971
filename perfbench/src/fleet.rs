//! `fleet_burst`: a fleet of 1 Mbit dies under the correlated-burst fault
//! model on the 500-640 mV grid. All of its work is per-die SRAM cell
//! sampling (the V_min-carrying `sample_cells_into` path) plus quantile
//! assembly; it never touches the network layers, so it shows whether an
//! `nn` or `accuracy` change is neutral.

use crate::report::{digest_f64, median, Outcome};
use crate::trace::{self, FirstTrial, StageObserver, Tracer};
use crate::Config;
use dante::{FleetResult, FleetSpec, GeometrySpec};
use dante_circuit::units::Volt;
use dante_sim::{derive_seed, site, TrialEngine};
use dante_sram::model::FaultModel;
use std::sync::OnceLock;
use std::time::Instant;

/// Dies per fleet: about 1.4e7 expected faulty cells at the 500 mV floor,
/// under the spec's 2e7 cap.
const DIES: usize = 16_000;
const ARRAY_BITS: usize = 1 << 20;
/// Untraced/traced/traced/untraced rounds of the reference unit in a traced
/// run; short units take more rounds so box drift averages out.
const ABBA_ROUNDS: usize = 3;
/// Nominal wall of one fleet solve on the reference box, in seconds.
const UNIT_S: f64 = 1.0;
/// FNV-1a of unit 0's sorted `v_min_volts` bit patterns at the default seed.
const PINNED_VMIN_DIGEST: u64 = 0xe8f3_a7b7_869c_00c4;

fn spec(seed: u64) -> FleetSpec {
    FleetSpec {
        seed,
        dies: DIES,
        array_bits: ARRAY_BITS,
        voltages_mv: (500..=640).step_by(10).collect(),
        fault_model: FaultModel::burst_default(),
        geometry: GeometrySpec::Calibrated,
    }
}

fn check(out: &mut Outcome, config: &Config, unit: usize, result: &FleetResult) {
    let sorted = result.v_min_volts.windows(2).all(|w| w[0] <= w[1]);
    let yields_rise = result.yield_at_voltage.windows(2).all(|w| w[0].1 <= w[1].1);
    out.check(
        result.dies == DIES && result.v_min_volts.len() == DIES && sorted && yields_rise,
        || format!("fleet unit {unit}: malformed result"),
    );
    if unit == 0 && config.is_default_seed() {
        let digest = digest_f64(result.v_min_volts.iter().copied());
        out.check(digest == PINNED_VMIN_DIGEST, || {
            format!("fleet v_min digest {digest:#018x} != pinned {PINNED_VMIN_DIGEST:#018x}")
        });
    }
}

pub fn run(config: &Config, trace: bool) -> Outcome {
    if trace {
        return traced(config);
    }
    crate::report::reset_peak_rss();
    let mut out = Outcome::default();
    let units = config.units(UNIT_S, 3);
    let (mut setup, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for unit in 0..units {
        let spec = spec(config.unit_seed(unit));
        let first = FirstTrial {
            at: OnceLock::new(),
        };
        let t0 = Instant::now();
        let result = spec.solve_observed(&first);
        let wall = t0.elapsed().as_secs_f64();
        let first_die = first.at.get().map_or(wall, |t| (*t - t0).as_secs_f64());
        setup.push(first_die);
        walls.push(wall);
        rates.push(DIES as f64 / wall);
        check(&mut out, config, unit, &result);
    }
    out.set("setup_s", median(&setup));
    out.set("work_per_s", median(&rates));
    out.set("wall_s", median(&walls));
    out.note(format!(
        "dies_per_s = {:?} 1/s (median of {units} fleets of {DIES} dies, 1 Mbit each)",
        median(&rates)
    ));
    out.note(format!("wall_s = {:?} s (one fleet solve)", median(&walls)));
    out.note(format!(
        "setup_s = {:?} s (time to the first finished die, median of {units})",
        median(&setup)
    ));
    out
}

fn traced(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(config.unit_seed(0));
    let render = |r: &FleetResult| dante_serve::api::build_fleet_record(&spec, r).to_json_pretty();

    let traced_unit = || {
        let tracer = Tracer::new();
        let root = tracer.open("fleet", None);
        let observer = StageObserver::new(&tracer, Some(root));
        let dies = tracer.span("fleet.dies", Some(root), || {
            spec.solve_die_range_observed(0, DIES, &observer)
        });
        let result = tracer.span("fleet.assemble", Some(root), || spec.assemble(&dies));
        tracer.close(root);
        let counts = [
            &observer.fault_bits,
            &observer.trials,
            &observer.busy_ns,
            &observer.batch_ns,
        ]
        .map(StageObserver::get);
        (result, tracer, root, counts)
    };
    let (plain, with, overhead) = trace::abba(ABBA_ROUNDS, || spec.solve(), traced_unit);
    check(&mut out, config, 0, &plain[0]);
    let reference = render(&plain[0]);
    for (k, result) in plain.iter().chain(with.iter().map(|t| &t.0)).enumerate() {
        out.check(render(result) == reference, || {
            format!("fleet: run {k} of the untraced/traced pairs differs from the first")
        });
    }
    let (result, tracer, root, [fault_cells, trials, busy, batch]) = &with[0];
    let root = *root;

    // Replay of the per-die sampling alone, single-threaded.
    let floor = Volt::from_millivolts(f64::from(spec.voltages_mv[0]));
    let (mut indices, mut cells) = (Vec::new(), Vec::new());
    let mut replay_cells = 0u64;
    let t1 = Instant::now();
    for die in 0..DIES {
        let die_seed = derive_seed(spec.seed, site::FLEET_DIE, die as u64);
        spec.fault_model.resolve_die(die_seed).sample_cells_into(
            ARRAY_BITS,
            floor,
            die_seed,
            &mut indices,
            &mut cells,
        );
        replay_cells += cells.len() as u64;
    }
    let sample_cells_s = t1.elapsed().as_secs_f64();
    out.check(
        replay_cells == result.total_fault_cells && *fault_cells == result.total_fault_cells,
        || {
            format!(
                "fleet: {replay_cells} replayed cells, {fault_cells} observed, {} in the result",
                result.total_fault_cells
            )
        },
    );

    let spans = tracer.spans();
    let threads = TrialEngine::from_env().threads().min(DIES) as f64;
    out.set("fleet.dies_s", tracer.total(|s| s.name == "fleet.dies"));
    out.set(
        "fleet.assemble_s",
        tracer.total(|s| s.name == "fleet.assemble"),
    );
    out.set("sram.sample_cells_s", sample_cells_s);
    out.set("sim.busy_frac", *busy as f64 / (threads * *batch as f64));
    out.set("trace.overhead_frac", overhead);
    out.set(
        "trace.residual_frac",
        tracer.residual(
            &["fleet.dies", "fleet.assemble"],
            spans[root].start,
            spans[root].end,
        ),
    );
    out.set("fleet.fault_cells", result.total_fault_cells as f64);
    out.set("fleet.dies", DIES as f64);
    out.set("sim.trials", *trials as f64);
    out.note(format!("traced fleet: overhead {overhead:?}"));
    tracer.save(config, "fleet_burst");
    out
}
