//! Property tests for the SRAM fault models.

use dante_circuit::units::Volt;
use dante_sim::{derive_seed, site};
use dante_sram::ber_fit::fit_vmin_model;
use dante_sram::ecc;
use dante_sram::fault::VminFaultModel;
use dante_sram::geometry::{BankGeometry, MacroGeometry, MemoryGeometry};
use dante_sram::math::{
    norm_ppf, phi_cdf, q_tail, q_tail_inv, sample_bernoulli_indices_into, sample_unit_open,
    worst_cell_window,
};
use dante_sram::sparse::SparseOverlay;
use dante_sram::storage::{CorruptionOverlay, FaultOverlay, FaultyMacro};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Wilson score interval for an observed binomial proportion (local copy:
/// `dante-verify` depends on this crate, so its helper can't be used here).
fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    let n = n as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    (center - half, center + half)
}

/// `StdRng` with chosen raw words inserted at chosen positions of its
/// output; the generator's own words shift back to make room. `drawn` counts
/// every word handed out.
#[derive(Clone)]
struct Injected {
    inner: StdRng,
    /// `(output position, word)`, ascending by position.
    inserts: Vec<(u64, u64)>,
    next: usize,
    drawn: u64,
}

impl Injected {
    fn new(seed: u64, mut inserts: Vec<(u64, u64)>) -> Self {
        inserts.sort_unstable_by_key(|&(at, _)| at);
        Self {
            inner: StdRng::seed_from_u64(seed),
            inserts,
            next: 0,
            drawn: 0,
        }
    }
}

impl RngCore for Injected {
    fn next_u64(&mut self) -> u64 {
        let at = self.drawn;
        self.drawn += 1;
        match self.inserts.get(self.next) {
            Some(&(pos, word)) if pos == at => {
                self.next += 1;
                word
            }
            _ => self.inner.next_u64(),
        }
    }
}

/// A raw word whose 53-bit mantissa is `m` (low bits arbitrary).
fn raw_word(m: u64) -> u64 {
    m << 11 | 0x5A5
}

/// The failure probabilities the flip-word wall covers.
const WALL_PROBABILITIES: [f64; 7] = [0.0, 1e-9, 1e-4, 0.0446, 0.42, 0.999, 1.0];

/// A model and floor whose failure probability is `p` (exactly, for 0 and
/// 1: a floor far above or below a narrow distribution) or within a
/// percent of it.
fn model_at(p: f64, p_flip: f64) -> (VminFaultModel, Volt) {
    let at = |mu: f64, sigma: f64| VminFaultModel::new(Volt::new(mu), Volt::new(sigma), p_flip);
    if p == 0.0 {
        (at(0.35, 0.001), Volt::new(0.6))
    } else if p == 1.0 {
        (at(0.9, 0.001), Volt::new(0.6))
    } else {
        let model = at(0.5, 0.04);
        (model, model.voltage_for_ber(p))
    }
}

/// The slow path's flip words at the floor and its faulty cells: the scalar
/// gap walk, then per cell one unit-open uniform (its V_min) and one
/// `gen_bool(p_flip)`.
fn scalar_flip_words<R: Rng>(
    bits: usize,
    model: &VminFaultModel,
    v: Volt,
    rng: &mut R,
) -> (Vec<u64>, Vec<u64>) {
    let mut cells = Vec::new();
    sample_bernoulli_indices_into(bits, model.bit_error_rate(v), rng, &mut cells);
    let mut words = vec![0u64; bits.div_ceil(64)];
    for &i in &cells {
        let _ = sample_unit_open(rng);
        if rng.gen_bool(model.read_flip_probability()) {
            words[(i / 64) as usize] |= 1 << (i % 64);
        }
    }
    (words, cells)
}

/// The streaming sampler's flip words, checking its emission contract
/// (non-zero masks, ascending words) on the way.
fn streamed_flip_words<R: Rng + Clone>(
    bits: usize,
    model: &VminFaultModel,
    v: Volt,
    rng: &mut R,
    scratch: &mut Vec<u64>,
) -> Vec<u64> {
    let mut words = vec![0u64; bits.div_ceil(64)];
    let mut last = None;
    SparseOverlay::for_each_flip_word_at_floor(bits, model, v, rng, scratch, |w, mask| {
        assert_ne!(mask, 0, "only non-zero masks are emitted");
        assert!(last.is_none_or(|l| w > l), "ascending word order");
        last = Some(w);
        words[w] = mask;
    });
    words
}

/// Runs both samplers on clones of `rng`: same flip words, same generator
/// position afterwards. Returns the faulty cells.
fn assert_streams_agree(
    bits: usize,
    model: &VminFaultModel,
    v: Volt,
    rng: &Injected,
    scratch: &mut Vec<u64>,
) -> Vec<u64> {
    let (mut slow_rng, mut fast_rng) = (rng.clone(), rng.clone());
    let (slow, cells) = scalar_flip_words(bits, model, v, &mut slow_rng);
    let fast = streamed_flip_words(bits, model, v, &mut fast_rng, scratch);
    assert_eq!(slow, fast, "flip words diverged (bits {bits}, floor {v})");
    assert_eq!(
        slow_rng.drawn, fast_rng.drawn,
        "draw counts diverged (bits {bits}, floor {v})"
    );
    assert_eq!(slow_rng.next_u64(), fast_rng.next_u64());
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The BER curve is strictly decreasing in voltage.
    #[test]
    fn ber_monotone(mv in 300u32..640) {
        let m = VminFaultModel::default_14nm();
        let v = Volt::from_millivolts(f64::from(mv));
        let hv = Volt::from_millivolts(f64::from(mv + 10));
        prop_assert!(m.bit_error_rate(hv) < m.bit_error_rate(v));
    }

    /// voltage_for_ber and bit_error_rate are mutual inverses.
    #[test]
    fn ber_inverse_roundtrip(log_ber in -8.0f64..-0.31) {
        let m = VminFaultModel::default_14nm();
        let ber = 10f64.powf(log_ber);
        let v = m.voltage_for_ber(ber);
        let back = m.bit_error_rate(v);
        prop_assert!((back - ber).abs() / ber < 1e-2, "ber {ber} -> {v} -> {back}");
    }

    /// Probit regression recovers arbitrary generating models from their
    /// own noiseless curves.
    #[test]
    fn probit_fit_recovers_model(mu_mv in 340u32..420, sigma_mv in 20u32..80) {
        let truth = VminFaultModel::new(
            Volt::from_millivolts(f64::from(mu_mv)),
            Volt::from_millivolts(f64::from(sigma_mv)),
            0.5,
        );
        let points: Vec<_> = (0..10)
            .map(|i| {
                let v = Volt::from_millivolts(f64::from(mu_mv) - 40.0 + 14.0 * f64::from(i));
                (v, truth.bit_error_rate(v).clamp(1e-12, 0.999_999))
            })
            .collect();
        let fitted = fit_vmin_model(&points).expect("valid synthetic data");
        prop_assert!((fitted.mu().volts() - truth.mu().volts()).abs() < 2e-3);
        prop_assert!((fitted.sigma().volts() - truth.sigma().volts()).abs() < 2e-3);
    }

    /// Normal tail helpers are consistent: Q(Q^{-1}(p)) == p.
    #[test]
    fn tail_inverse_consistency(p in 1e-9f64..0.999) {
        let z = q_tail_inv(p);
        let back = q_tail(z);
        prop_assert!((back - p).abs() / p < 2e-2, "p {p} z {z} back {back}");
        // And the CDF/quantile pair agrees.
        let z2 = norm_ppf(p);
        prop_assert!((phi_cdf(z2) - p).abs() < 1e-5);
    }

    /// `q_tail_inv` never rises from a tail probability to any probability
    /// at or past its worst-cell window, across the sampler's whole range
    /// (log-uniform down to the `MIN_POSITIVE` clamp).
    #[test]
    fn q_tail_inv_never_rises_past_the_worst_cell_window(
        log2_t in -1021.9f64..-0.01,
        stretch in 0.0f64..64.0,
    ) {
        let t = 2f64.powf(log2_t);
        let edge = worst_cell_window(t);
        let z = q_tail_inv(t);
        prop_assert!(q_tail_inv(edge) <= z, "rise at the window edge of t = {t:e}");
        let far = edge + (edge - t) * stretch;
        if far < 1.0 {
            prop_assert!(q_tail_inv(far) <= z, "rise at {far:e} from t = {t:e}");
        }
    }

    /// Memory address decode is a bijection onto (bank, word).
    #[test]
    fn address_decode_bijective(banks in 1usize..8, addr_frac in 0.0f64..1.0) {
        let geom = MemoryGeometry::new(BankGeometry::dante_64kbit(), banks);
        let addr = ((geom.words() - 1) as f64 * addr_frac) as usize;
        let (bank, word) = geom.decode(addr);
        prop_assert!(bank < banks);
        prop_assert!(word < geom.bank_geometry().words());
        prop_assert_eq!(bank * geom.bank_geometry().words() + word, addr);
    }

    /// Data written to a fault-free macro reads back exactly, for any
    /// geometry and pattern.
    #[test]
    fn fault_free_storage_roundtrip(
        words_log2 in 2u32..9,
        bits in 8usize..=64,
        pattern in any::<u64>(),
    ) {
        let geom = MacroGeometry::new(1 << words_log2, bits);
        let mut m = FaultyMacro::fault_free(geom);
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        for w in 0..geom.words() {
            m.write(w, pattern.rotate_left(w as u32));
        }
        for w in 0..geom.words() {
            prop_assert_eq!(m.read(w, Volt::new(0.3)), pattern.rotate_left(w as u32) & mask);
        }
    }

    /// SEC-DED corrects any single flip of any codeword.
    #[test]
    fn secded_single_correction(data in any::<u64>(), pos in 0u32..72) {
        let cw = ecc::encode(data);
        let (back, corr) = ecc::decode(cw.with_flip(pos));
        prop_assert_eq!(back, data);
        prop_assert_eq!(corr, ecc::Correction::Corrected { position: pos });
    }

    /// SEC-DED detects any double flip without silently corrupting.
    #[test]
    fn secded_double_detection(data in any::<u64>(), a in 0u32..72, b in 0u32..72) {
        prop_assume!(a != b);
        let cw = ecc::encode(data);
        let (_, corr) = ecc::decode(cw.with_flip(a).with_flip(b));
        prop_assert_eq!(corr, ecc::Correction::Uncorrectable);
    }

    /// Fault maps are pure functions of their derived seed: regenerating an
    /// overlay from the same `(root_seed, trial)` pair yields an identical
    /// die, bit for bit.
    #[test]
    fn fault_overlay_is_pure_in_its_seed(root in any::<u64>(), trial in 0u64..1000) {
        let model = VminFaultModel::default_14nm();
        let seed = derive_seed(root, site::TRIAL, trial);
        let a = FaultOverlay::from_seed(4096, &model, seed);
        let b = FaultOverlay::from_seed(4096, &model, seed);
        let v = Volt::new(0.40);
        prop_assert_eq!(a.corruption_words(v), b.corruption_words(v));
        prop_assert_eq!(
            a.vmins().fault_mask(v).words(),
            b.vmins().fault_mask(v).words()
        );
        // Distinct trials draw distinct dies (collisions on a 4096-bit
        // pattern at cliff-region BER are astronomically unlikely).
        let other = FaultOverlay::from_seed(4096, &model, derive_seed(root, site::TRIAL, trial + 1));
        prop_assert!(
            a.vmins().fault_mask(v) != other.vmins().fault_mask(v)
                || a.corruption_words(v) != other.corruption_words(v)
        );
    }

    /// Fault sets are inclusive across voltage: every cell that fails at a
    /// higher supply also fails at any lower one, so lowering Vdd only adds
    /// faults to a die — it never repairs one.
    #[test]
    fn fault_sets_are_inclusive_across_voltage(
        seed in any::<u64>(),
        lo_mv in 300u32..500,
        delta_mv in 1u32..150,
    ) {
        let model = VminFaultModel::default_14nm();
        let overlay = FaultOverlay::from_seed(2048, &model, seed);
        let lo = Volt::from_millivolts(f64::from(lo_mv));
        let hi = Volt::from_millivolts(f64::from(lo_mv + delta_mv));
        let at_lo = overlay.vmins().fault_mask(lo);
        let at_hi = overlay.vmins().fault_mask(hi);
        prop_assert!(
            at_lo.is_superset_of(&at_hi),
            "die gained working cells going down from {hi} to {lo}"
        );
        prop_assert!(at_lo.count() >= at_hi.count());
    }

    /// Sparse and dense overlays of the same size both put their observed
    /// flip rate inside the Wilson band around the analytic expectation
    /// `BER(v) * p_flip` — the two samplers target the same distribution.
    #[test]
    fn sparse_and_dense_flip_counts_agree_within_wilson_bounds(
        seed in 0u64..200,
        mv in 360u32..460,
    ) {
        let model = VminFaultModel::default_14nm();
        let bits = 50_000usize;
        let v = Volt::from_millivolts(f64::from(mv));
        let expected = model.bit_error_rate(v) * model.read_flip_probability();
        let dense = FaultOverlay::from_seed(bits, &model, seed);
        let sparse = SparseOverlay::from_seed(bits, &model, v, seed);
        for (name, count) in [
            ("dense", CorruptionOverlay::flip_count(&dense, v)),
            ("sparse", CorruptionOverlay::flip_count(&sparse, v)),
        ] {
            let (lo, hi) = wilson_interval(count as u64, bits as u64, 5.0);
            prop_assert!(
                (lo - 1e-4..=hi + 1e-4).contains(&expected),
                "{name} flip rate {}/{bits} puts analytic {expected:.4e} outside \
                 Wilson [{lo:.4e}, {hi:.4e}] at {v}",
                count
            );
        }
    }

    /// Sparse fault sets are inclusive across voltage, exactly like dense
    /// ones: above the sampling floor, lowering Vdd only adds corruption.
    #[test]
    fn sparse_fault_sets_are_inclusive_across_voltage(
        seed in any::<u64>(),
        floor_mv in 340u32..440,
        d1_mv in 0u32..60,
        d2_mv in 1u32..60,
    ) {
        let model = VminFaultModel::default_14nm();
        let v_floor = Volt::from_millivolts(f64::from(floor_mv));
        let overlay = SparseOverlay::from_seed(8_192, &model, v_floor, seed);
        let lo = Volt::from_millivolts(f64::from(floor_mv + d1_mv));
        let hi = Volt::from_millivolts(f64::from(floor_mv + d1_mv + d2_mv));
        prop_assert!(overlay.fault_count(lo) >= overlay.fault_count(hi));
        let words = 8_192usize.div_ceil(64);
        let mut at_lo = Vec::new();
        let mut at_hi = Vec::new();
        overlay.corruption_words_into(lo, words, &mut at_lo);
        overlay.corruption_words_into(hi, words, &mut at_hi);
        for (w, (&l, &h)) in at_lo.iter().zip(&at_hi).enumerate() {
            prop_assert!(
                l & h == h,
                "word {w} lost corruption going down from {hi} to {lo}: {h:#x} -> {l:#x}"
            );
        }
    }

    /// Evaluating a sparse overlay below its sampling floor panics with a
    /// message naming the floor — faults below it were never sampled, so
    /// silently returning a too-small fault set would be wrong.
    #[test]
    fn sparse_overlay_rejects_voltages_below_its_floor(
        seed in any::<u64>(),
        floor_mv in 360u32..460,
        below_mv in 1u32..50,
    ) {
        let model = VminFaultModel::default_14nm();
        let v_floor = Volt::from_millivolts(f64::from(floor_mv));
        let overlay = SparseOverlay::from_seed(1_024, &model, v_floor, seed);
        let v = Volt::from_millivolts(f64::from(floor_mv - below_mv));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            overlay.fault_count(v)
        }))
        .expect_err("evaluation below the floor must panic");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        prop_assert!(
            message.contains("below this sparse overlay's sampling floor"),
            "panic message should name the floor, got: {message}"
        );
    }

    /// Empirical die BER tracks the analytic model within binomial noise.
    #[test]
    fn die_ber_tracks_model(seed in 0u64..100) {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(seed);
        let field = dante_sram::fault_map::VminField::generate(50_000, &model, &mut rng);
        let v = Volt::new(0.40);
        let analytic = model.bit_error_rate(v);
        let empirical = field.empirical_ber(v);
        let sigma = (analytic * (1.0 - analytic) / 50_000.0).sqrt();
        prop_assert!((empirical - analytic).abs() < 6.0 * sigma + 1e-4);
    }
}

/// `q_tail_inv` is monotone non-increasing on a dense grid at the
/// resolution of the worst-cell window — the property that lets a fleet die
/// find its worst cell without a quantile per cell. Plain ulp-level
/// monotonicity does not hold: between `1e-18` and `1e-12` the Halley
/// step's CDF is quantized to `2^-53`, so the grid includes quarter-quantum
/// steps there, and every pair of grid points at least one window apart is
/// checked, not just neighbours.
#[test]
fn q_tail_inv_is_monotone_at_the_worst_cell_window_resolution() {
    // Acklam's lower region boundary; the upper one is `1 - P_LOW`.
    const P_LOW: f64 = 0.024_25;
    let mut grid = Vec::new();
    // Geometric steps of 2^-10 from the sampler's MIN_POSITIVE clamp
    // through 0.5 and both Acklam boundaries.
    let mut t = f64::MIN_POSITIVE;
    while t < 0.999 {
        grid.push(t);
        t *= 1.0 + 1.0 / 1024.0;
    }
    // Quarter-quantum steps through the quantized band, up to 2^-38.
    grid.extend((1..1u32 << 17).map(|k| f64::from(k) * 2f64.powi(-55)));
    // Each Acklam boundary, straddled four windows either side in steps
    // of 1/1024 of the relative window.
    for boundary in [P_LOW, 1.0 - P_LOW] {
        grid.extend((-4096i32..=4096).map(|k| boundary * (1.0 + f64::from(k) * 2f64.powi(-40))));
    }
    grid.sort_by(f64::total_cmp);
    grid.dedup();
    let z: Vec<f64> = grid.iter().map(|&t| q_tail_inv(t)).collect();
    // Scan downwards, keeping the largest quantile among the points at or
    // past the current point's window edge (a set that only grows).
    let mut past = grid.len();
    let mut max_past = f64::NEG_INFINITY;
    for i in (0..grid.len()).rev() {
        let edge = worst_cell_window(grid[i]);
        while past > 0 && grid[past - 1] >= edge {
            past -= 1;
            max_past = max_past.max(z[past]);
        }
        assert!(
            max_past <= z[i] && q_tail_inv(edge) <= z[i],
            "q_tail_inv rises past the worst-cell window of t = {:e}",
            grid[i]
        );
    }
}

/// Promoted proptest regression (shrunk to `mu_mv = 300, sigma_mv = 20`):
/// `probit_fit_recovers_model` once generated a model whose lowest curve
/// sample (`mu - 40 mV = 260 mV`) dipped below [`V_DATA_RETENTION`], where a
/// bit error *rate* is meaningless. The generator range now stays above the
/// floor; this pins the shrunk case and the loud failure mode it exposed.
#[test]
#[should_panic(expected = "below the data-retention voltage")]
fn probit_curve_below_retention_panics_regression() {
    let truth = VminFaultModel::new(
        Volt::from_millivolts(300.0),
        Volt::from_millivolts(20.0),
        0.5,
    );
    let _points: Vec<_> = (0..10)
        .map(|i| {
            let v = Volt::from_millivolts(300.0 - 40.0 + 14.0 * f64::from(i));
            (v, truth.bit_error_rate(v).clamp(1e-12, 0.999_999))
        })
        .collect();
}

/// The streaming flip-word sampler against the scalar walk plus per-cell
/// draws, over every covered probability, sizes on and off the word grid up
/// to 200k bits, and three read-flip probabilities. Some walks must end
/// exactly at the last cell, with no terminating draw.
#[test]
fn streamed_flip_words_match_the_scalar_walk_on_a_grid() {
    let mut scratch = Vec::new();
    let mut ended_at_n = 0;
    for p in WALL_PROBABILITIES {
        for &bits in &[1usize, 2, 63, 64, 65, 127, 1000, 4097, 65_539, 200_000] {
            for (seed, p_flip) in [(0u64, 0.5), (1, 1.0), (2, 0.03)] {
                let (model, v) = model_at(p, p_flip);
                let cells = assert_streams_agree(
                    bits,
                    &model,
                    v,
                    &Injected::new(seed, vec![]),
                    &mut scratch,
                );
                ended_at_n += usize::from(cells.last() == Some(&(bits as u64 - 1)));
            }
        }
    }
    assert!(
        ended_at_n > 20,
        "only {ended_at_n} walks ended exactly at n"
    );
    assert_eq!(
        model_at(0.0, 0.5).0.bit_error_rate(model_at(0.0, 0.5).1),
        0.0
    );
    assert_eq!(
        model_at(1.0, 0.5).0.bit_error_rate(model_at(1.0, 0.5).1),
        1.0
    );
}

/// Uniforms within a few ulps of each threshold `q^k` where the gap changes,
/// and of the edges of the band around it inside which the gap table defers
/// to the exact logarithm, fed to the walk as its first draws.
#[test]
fn streamed_flip_words_survive_threshold_adversaries() {
    let scale = (1u64 << 53) as f64;
    let band = 1.0 / (1u64 << 36) as f64;
    let mut scratch = Vec::new();
    for p in [0.0446, 0.42, 0.999] {
        let (model, v) = model_at(p, 0.5);
        let ln_q = (-model.bit_error_rate(v)).ln_1p();
        let mut words = Vec::new();
        for k in 1..=120 {
            let t = (f64::from(k) * ln_q).exp();
            if t < 1e-5 {
                break;
            }
            for edge in [t, t * (1.0 - band), t * (1.0 + band)] {
                let m = (edge * scale) as u64;
                words.extend((m - 3..=m + 3).map(raw_word));
            }
        }
        let inserts: Vec<_> = (0u64..).zip(words).collect();
        let bits = 1_000_000;
        let cells = assert_streams_agree(
            bits,
            &model,
            v,
            &Injected::new(7, inserts.clone()),
            &mut scratch,
        );
        assert!(
            cells.len() > inserts.len(),
            "every adversary is a gap draw (p {p})"
        );
    }
}

/// A die whose faulty cells far outnumber their mean: ten thousand
/// injected draws just below 1 each give a gap of 0, so the first ten
/// thousand cells are all faulty where about ten are expected. The
/// streaming sampler sizes its scratch for the mean and must still agree.
#[test]
fn streamed_flip_words_survive_a_cell_count_far_above_its_mean() {
    let (model, v) = model_at(1e-4, 0.5);
    let near_one = raw_word((1 << 53) - 1);
    let inserts = (0..10_000).map(|at| (at, near_one)).collect();
    let cells = assert_streams_agree(
        100_000,
        &model,
        v,
        &Injected::new(9, inserts),
        &mut Vec::new(),
    );
    assert!(
        cells.len() > 10_000,
        "the injected run made {} cells",
        cells.len()
    );
}

/// Zero-mantissa draws, which `sample_unit_open` redraws and which occur
/// once in 2^53 draws, inserted where each redraw branch runs: inside the
/// gap walk, as its last draw, in a cell's discarded uniform (twice in a
/// row), and at the 64-cell chunk boundary of the flip stream, both as a
/// uniform and as a flip draw (a zero mantissa is a flip).
#[test]
fn zero_mantissa_draws_are_redrawn_like_the_slow_path() {
    let mut scratch = Vec::new();
    // A dense tail walked with the gap table, and a sparse one walked with
    // the certified logarithm.
    for (p, bits) in [(0.42, 20_000usize), (1e-3, 300_000)] {
        let (model, v) = model_at(p, 0.5);
        let (_, cells) = scalar_flip_words(bits, &model, v, &mut Injected::new(3, vec![]));
        let mut counter = Injected::new(3, vec![]);
        sample_bernoulli_indices_into(bits, model.bit_error_rate(v), &mut counter, &mut Vec::new());
        let walk = counter.drawn;
        assert!(cells.len() > 70, "too few cells at p {p}");
        let cell = |j: u64, flip: u64| walk + 2 * j + flip;
        for positions in [
            vec![5],
            vec![walk - 1],
            vec![cell(3, 0), cell(3, 0) + 1],
            vec![cell(63, 1)],
            vec![cell(64, 0)],
            vec![5, walk, cell(10, 0) + 1, cell(63, 1) + 2],
        ] {
            let inserts = positions.into_iter().map(|at| (at, 0x7FF)).collect();
            assert_streams_agree(bits, &model, v, &Injected::new(3, inserts), &mut scratch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sizes, seeds and covered probabilities: the streaming sampler
    /// and the scalar walk agree word for word and leave the generator in
    /// the same place.
    #[test]
    fn streamed_flip_words_match_the_scalar_walk(
        bits in 1usize..200_000,
        which in 0usize..WALL_PROBABILITIES.len(),
        seed in any::<u64>(),
    ) {
        let (model, v) = model_at(WALL_PROBABILITIES[which], 0.5);
        assert_streams_agree(bits, &model, v, &Injected::new(seed, vec![]), &mut Vec::new());
    }
}
