//! Sparse tail-sampled fault overlays: O(faulty bits) Monte-Carlo dies.
//!
//! A dense [`crate::fault_map::VminField`] draws a Gaussian V_min for
//! *every* cell of a die, even though at any operating voltage only the
//! upper tail of the distribution — `F(v) = Q((v - mu) / sigma)`, at most
//! ~1.4e-2 at 0.44 V and as little as 1e-9 near the top of the sweep — can
//! ever fault. A [`SparseOverlay`] samples only that tail: given a *floor
//! voltage* `v_floor` (the lowest voltage the sweep will evaluate), it draws
//! the faulty-at-floor cell set directly via geometric-gap Bernoulli
//! skipping (the count is exactly Binomial(bits, F(v_floor))-distributed)
//! and gives each faulty cell a V_min from the Gaussian tail above `v_floor`
//! via the inverse CDF, plus the paper's Bernoulli read-flip decision.
//!
//! The result is behaviorally interchangeable with a dense
//! [`FaultOverlay`] for any voltage `v >= v_floor` — same fault-count
//! distribution, same V_min distribution above the floor, same inclusivity
//! (the fault set at V1 is a superset of the fault set at V2 for V1 < V2,
//! because both filter one fixed V_min set by threshold) — at O(K) cost per
//! trial instead of O(bits), where `K ~ bits * F(v_floor)`.
//!
//! Voltages *below* the floor are a contract violation (those cells were
//! never sampled) and panic loudly; see [`SparseOverlay::assert_voltage`].

use crate::fault::VminFaultModel;
use crate::fault_map::{bit_mask, word_index};
use crate::math::{
    draw_unit_mantissa, flip_threshold, sample_bernoulli_indices_into, truncated_tail_normal,
    walk_bernoulli,
};
use crate::storage::{CorruptionOverlay, FaultOverlay};
use dante_circuit::units::Volt;
use rand::Rng;

/// One faulty cell of a sparse overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseCell {
    /// Cell index within the packed bit image.
    pub index: u64,
    /// The cell's minimum reliable voltage, in volts (always above the
    /// overlay's floor).
    pub vmin: f32,
    /// Whether the cell's Bernoulli read-flip decision fired.
    pub flip: bool,
}

/// The smallest `f32` strictly greater than a positive finite `x`.
#[inline]
fn next_up(x: f32) -> f32 {
    f32::from_bits(x.to_bits() + 1)
}

/// Narrows a tail draw `x` (strictly above the floor) to a cell's stored
/// `f32` V_min. The `f32` round can land exactly on the floor, which would
/// silently drop the cell from its own floor voltage — nudge it up one ULP
/// instead. Monotone non-decreasing in `x`.
#[inline]
pub(crate) fn vmin_above_floor(x: f64, floor_f32: f32) -> f32 {
    let vmin = x as f32;
    if vmin <= floor_f32 {
        next_up(floor_f32)
    } else {
        vmin
    }
}

/// A sparse fault overlay: only the cells faulty at the floor voltage, as
/// sorted `(index, vmin, flip)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOverlay {
    bits: usize,
    v_floor: Volt,
    cells: Vec<SparseCell>,
}

impl SparseOverlay {
    /// Draws a fresh die of `bits` cells, keeping only the cells faulty at
    /// `v_floor`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below the model's
    /// data-retention voltage (where a fault *rate* is meaningless).
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
    ) -> Self {
        let mut indices = Vec::new();
        let mut cells = Vec::new();
        Self::sample_cells_into(bits, model, v_floor, rng, &mut indices, &mut cells);
        Self {
            bits,
            v_floor,
            cells,
        }
    }

    /// Draws the die deterministically from an explicit seed (the sparse
    /// counterpart of [`FaultOverlay::from_seed`]): the overlay is a pure
    /// function of `(bits, model, v_floor, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    #[must_use]
    pub fn from_seed(bits: usize, model: &VminFaultModel, v_floor: Volt, seed: u64) -> Self {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::sample(bits, model, v_floor, &mut rng)
    }

    /// The allocation-free sampling core: draws one die's faulty-at-floor
    /// cells into `cells` (cleared first), using `indices` as scratch for
    /// the Bernoulli index walk. Both buffers retain their capacity across
    /// calls, so a steady-state Monte-Carlo loop allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn sample_cells_into<R: Rng + ?Sized>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
    ) {
        assert!(bits > 0, "a die needs at least one cell");
        // bit_error_rate both computes F(v_floor) and enforces the
        // data-retention lower bound with its own clear panic. It is the
        // tail mass every cell's V_min draw conditions on.
        let p_floor = model.bit_error_rate(v_floor);
        let (mu, sigma) = (model.mu().volts(), model.sigma().volts());
        let floor_f32 = v_floor.volts() as f32;
        let p_flip = model.read_flip_probability();
        sample_bernoulli_indices_into(bits, p_floor, rng, indices);
        cells.clear();
        cells.reserve(indices.len());
        for &index in indices.iter() {
            let vmin = vmin_above_floor(truncated_tail_normal(mu, sigma, p_floor, rng), floor_f32);
            cells.push(SparseCell {
                index,
                vmin,
                flip: rng.gen_bool(p_flip),
            });
        }
    }

    /// The floor fast path of [`Self::sample_cells_into`], streamed: calls
    /// `emit(word_index, mask)` for every 64-bit word with a non-zero flip
    /// mask, in ascending word order. The masks are the slow path's flip
    /// bits, bit for bit, and the generator ends where the slow path leaves
    /// it, but no V_min is computed and no cell is built.
    ///
    /// The elision is exact *only for a consumer that applies the overlay
    /// at precisely `v_floor`*: there every sampled cell satisfies
    /// `v < vmin` wherever in the tail its V_min lands, so only the flip
    /// bits matter. Anything that reads the V_min values themselves (fleet
    /// V_min quantiles, multi-voltage reuse of one overlay) must keep using
    /// [`Self::sample_cells_into`].
    ///
    /// The slow path draws the whole gap walk, then per cell one uniform
    /// (its V_min) and one `gen_bool(p_flip)`. This path draws the same
    /// words in the same order in three passes, using `indices` as scratch
    /// of its own layout:
    ///
    /// 1. the gap walk (`math::walk_bernoulli`: exact integer gaps from a
    ///    threshold table or a certified logarithm) writes one
    ///    `(word, faulty mask)` pair per word that holds a faulty cell;
    /// 2. one tight loop draws each cell's uniform, redrawing a zero
    ///    mantissa as [`crate::math::sample_unit_open`] does, and its flip,
    ///    `gen_bool(p_flip)` as an integer compare of the raw draw, into a
    ///    bitstream;
    /// 3. each faulty mask takes its popcount of bits from the stream,
    ///    scattered onto its set bits by BMI2 `pdep` where the CPU has it
    ///    (detected at run time) and by a portable bit loop otherwise; the
    ///    non-zero masks are compacted without a branch, then emitted.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn for_each_flip_word_at_floor<R: Rng + Clone>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
        indices: &mut Vec<u64>,
        mut emit: impl FnMut(usize, u64),
    ) {
        assert!(bits > 0, "a die needs at least one cell");
        let p_floor = model.bit_error_rate(v_floor);
        let p_flip = model.read_flip_probability();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("lzcnt")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            // SAFETY: feature presence just checked.
            return unsafe { flip_words_bmi2(bits, p_floor, p_flip, rng, indices, &mut emit) };
        }
        flip_words(bits, p_floor, p_flip, rng, indices, &mut emit, deposit_bits);
    }

    /// Extracts the sparse view of a dense overlay: exactly the dense die's
    /// cells faulty at `v_floor`, with their dense V_mins and flip
    /// decisions. Corrupts *identically* to the dense overlay at any
    /// `v >= v_floor` (the differential check in `dante-verify` pins this).
    #[must_use]
    pub fn from_dense(dense: &FaultOverlay, v_floor: Volt) -> Self {
        let floor_f32 = v_floor.volts() as f32;
        let flips = dense.flip_words();
        let cells = dense
            .vmins()
            .values()
            .iter()
            .enumerate()
            .filter(|&(_, &vmin)| floor_f32 < vmin)
            .map(|(idx, &vmin)| SparseCell {
                index: idx as u64,
                vmin,
                flip: flips[word_index(idx)] & bit_mask(idx) != 0,
            })
            .collect();
        Self {
            bits: dense.len(),
            v_floor,
            cells,
        }
    }

    /// Builds an overlay from pre-sampled cells (the zero-alloc hot path:
    /// sample into reused buffers, borrow them here only when an owned
    /// overlay is actually needed).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or any cell index is out of range or the
    /// cells are not strictly increasing by index.
    #[must_use]
    pub fn from_cells(bits: usize, v_floor: Volt, cells: Vec<SparseCell>) -> Self {
        assert!(bits > 0, "a die needs at least one cell");
        assert!(
            cells.windows(2).all(|w| w[0].index < w[1].index),
            "cells must be sorted by strictly increasing index"
        );
        if let Some(last) = cells.last() {
            assert!(
                (last.index as usize) < bits,
                "cell index {} out of range for {bits} bits",
                last.index
            );
        }
        Self {
            bits,
            v_floor,
            cells,
        }
    }

    /// The floor voltage this overlay was sampled for.
    #[must_use]
    pub fn v_floor(&self) -> Volt {
        self.v_floor
    }

    /// The sampled faulty-at-floor cells, sorted by index.
    #[must_use]
    pub fn cells(&self) -> &[SparseCell] {
        &self.cells
    }

    /// Checks that `v` is covered by this overlay.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the sampling floor: cells faulty only below
    /// `v_floor` were never drawn, so evaluating there would silently
    /// under-report faults. Resample the overlay with a lower floor instead.
    pub fn assert_voltage(&self, v: Volt) {
        assert!(
            v.volts() >= self.v_floor.volts(),
            "voltage {v} is below this sparse overlay's sampling floor {}: \
             cells faulty only below the floor were never sampled; \
             rebuild the overlay with a lower v_floor",
            self.v_floor
        );
    }

    /// Number of cells faulty at `v` (`v >= v_floor`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor.
    #[must_use]
    pub fn fault_count(&self, v: Volt) -> usize {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        self.cells.iter().filter(|c| vf < c.vmin).count()
    }

    /// Streams the non-zero corruption words at `v` as `(word index, mask)`
    /// pairs, grouping the sorted cells word by word — the lazily
    /// materialized per-voltage flip words.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor.
    pub fn for_each_corruption_word(&self, v: Volt, mut f: impl FnMut(usize, u64)) {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        let mut i = 0;
        while i < self.cells.len() {
            let w = word_index(self.cells[i].index as usize);
            let mut mask = 0u64;
            while i < self.cells.len() && word_index(self.cells[i].index as usize) == w {
                let c = &self.cells[i];
                if c.flip && vf < c.vmin {
                    mask |= bit_mask(c.index as usize);
                }
                i += 1;
            }
            if mask != 0 {
                f(w, mask);
            }
        }
    }

    /// Materializes the full corruption word vector at `v` into `out`
    /// (cleared and zero-filled to `words` words) — the scratch-buffer form
    /// the SEC-DED path needs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor or `words` is too short for the
    /// overlay's cells.
    pub fn corruption_words_into(&self, v: Volt, words: usize, out: &mut Vec<u64>) {
        assert!(
            words * 64 >= self.bits,
            "corruption buffer ({words} words) shorter than overlay ({} bits)",
            self.bits
        );
        out.clear();
        out.resize(words, 0);
        self.for_each_corruption_word(v, |w, mask| out[w] ^= mask);
    }
}

impl CorruptionOverlay for SparseOverlay {
    fn len(&self) -> usize {
        self.bits
    }

    fn flip_count(&self, v: Volt) -> usize {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        self.cells.iter().filter(|c| c.flip && vf < c.vmin).count()
    }

    fn apply(&self, words: &mut [u64], v: Volt) {
        let needed = self.bits.div_ceil(64);
        assert!(
            words.len() >= needed,
            "bit image ({} words) shorter than overlay ({needed} words)",
            words.len()
        );
        self.for_each_corruption_word(v, |w, mask| words[w] ^= mask);
    }
}

/// Pass 1 of [`flip_words`]: walks the die and writes one
/// `(word, faulty mask)` pair per word with a faulty cell into the first
/// `2 * room` slots of `scratch` (grown to fit, never shrunk). Returns the
/// slots the pairs need and the cell count; needing more than `2 * room`
/// means the walk ran out of room and its pairs are not all there. Every
/// cell rewrites its word's pair, moving to the next pair when the word
/// changes, so no branch depends on where the random gaps land.
#[inline(always)]
fn walk_pairs<R: Rng + ?Sized>(
    bits: usize,
    p_floor: f64,
    rng: &mut R,
    scratch: &mut Vec<u64>,
    room: usize,
) -> (usize, usize) {
    if scratch.len() < 2 * room {
        scratch.resize(2 * room, 0);
    }
    let slots = &mut scratch[..2 * room];
    let (mut word, mut faulty, mut at, mut cells) = (u64::MAX, 0u64, usize::MAX, 0usize);
    walk_bernoulli(bits, p_floor, rng, |index| {
        let next = index >> 6 != word;
        at = at.wrapping_add(usize::from(next));
        faulty = (faulty & u64::from(next).wrapping_sub(1)) | 1 << (index & 63);
        word = index >> 6;
        // Past the room, the last pair takes every write.
        let slot = 2 * at.min(room - 1);
        slots[slot] = word;
        slots[slot + 1] = faulty;
        cells += 1;
    });
    (2 * at.wrapping_add(1), cells)
}

/// [`flip_words`] compiled with BMI2, LZCNT and POPCNT, scattering with
/// `pdep`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,lzcnt,popcnt")]
fn flip_words_bmi2<R: Rng + Clone>(
    bits: usize,
    p_floor: f64,
    p_flip: f64,
    rng: &mut R,
    scratch: &mut Vec<u64>,
    emit: &mut impl FnMut(usize, u64),
) {
    flip_words(bits, p_floor, p_flip, rng, scratch, emit, |src, mask| {
        std::arch::x86_64::_pdep_u64(src, mask)
    });
}

/// The three passes of [`SparseOverlay::for_each_flip_word_at_floor`].
/// `deposit(src, mask)` is `pdep`: it scatters the low bits of `src`, lowest
/// first, onto the set bits of `mask`.
#[inline(always)]
fn flip_words<R: Rng + Clone>(
    bits: usize,
    p_floor: f64,
    p_flip: f64,
    rng: &mut R,
    scratch: &mut Vec<u64>,
    emit: &mut impl FnMut(usize, u64),
    deposit: impl Fn(u64, u64) -> u64,
) {
    // The generator is copied into a local for the two drawing passes: its
    // state then stays in registers, where through `rng` every draw would
    // store it back in case a scratch write aliased it.
    let mut local = rng.clone();
    // 1. The gap walk, as (word, faulty mask) pairs, into room sized before
    //    the walk so that it writes a plain slice (no growth check or reload
    //    of the buffer in the loop). Pairs never outnumber cells, and the
    //    cell count passes its mean by 8 standard deviations plus 64 with
    //    probability below 1e-15; should it, the walk runs again from a copy
    //    of the generator with room for a pair per word of the die.
    let words = bits.div_ceil(64);
    let mean = bits as f64 * p_floor;
    let mut room = ((mean + 8.0 * mean.sqrt() + 64.0) as usize).min(words);
    let start = local.clone();
    let (pair_len, cells) = loop {
        let (pair_len, cells) = walk_pairs(bits, p_floor, &mut local, scratch, room);
        if pair_len <= 2 * room {
            break (pair_len, cells);
        }
        local = start.clone();
        room = words;
    };
    // 2. The flip bitstream, 64 cells a word, then a zero word so that
    //    pass 3 can always read the word after the one it starts in.
    let stream_len = cells.div_ceil(64) + 1;
    if scratch.len() < 2 * room + stream_len {
        scratch.resize(2 * room + stream_len, 0);
    }
    let (pairs, stream) = scratch.split_at_mut(2 * room);
    let threshold = flip_threshold(p_flip);
    let mut left = cells;
    for slot in &mut stream[..stream_len] {
        let take = left.min(64);
        let mut flips = 0u64;
        for j in 0..take {
            let _ = draw_unit_mantissa(&mut local);
            flips |= u64::from(local.next_u64() >> 11 < threshold) << j;
        }
        *slot = flips;
        left -= take;
    }
    *rng = local;
    // 3. Each faulty mask takes the next popcount bits of the stream. The
    //    non-zero flip masks are compacted over the pairs already read, so
    //    that no branch depends on a random flip, and then emitted.
    let (mut at, mut kept) = (0usize, 0usize);
    for i in 0..pair_len / 2 {
        let (w, faulty) = (pairs[2 * i], pairs[2 * i + 1]);
        let (j, s) = (at >> 6, at & 63);
        // The 64 stream bits from `at`; for `s == 0` the second term is 0.
        let window = stream[j] >> s | (stream[j + 1] << 1) << (63 - s);
        at += faulty.count_ones() as usize;
        let flips = deposit(window, faulty);
        pairs[2 * kept] = w;
        pairs[2 * kept + 1] = flips;
        kept += usize::from(flips != 0);
    }
    for pair in pairs[..2 * kept].chunks_exact(2) {
        emit(pair[0] as usize, pair[1]);
    }
}

/// Portable `pdep`: scatters the low bits of `src`, lowest first, onto the
/// set bits of `mask`.
#[inline]
fn deposit_bits(mut src: u64, mut mask: u64) -> u64 {
    let mut out = 0;
    while mask != 0 {
        let low = mask & mask.wrapping_neg();
        out |= low & 0u64.wrapping_sub(src & 1);
        src >>= 1;
        mask ^= low;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> VminFaultModel {
        VminFaultModel::default_14nm()
    }

    #[test]
    fn from_seed_is_deterministic_and_sorted() {
        let floor = Volt::new(0.38);
        let a = SparseOverlay::from_seed(50_000, &model(), floor, 42);
        let b = SparseOverlay::from_seed(50_000, &model(), floor, 42);
        assert_eq!(a, b);
        assert!(a.cells().windows(2).all(|w| w[0].index < w[1].index));
        let c = SparseOverlay::from_seed(50_000, &model(), floor, 43);
        assert_ne!(a, c, "different seeds draw different dies");
    }

    #[test]
    fn every_sampled_cell_is_faulty_at_the_floor() {
        let floor = Volt::new(0.40);
        let o = SparseOverlay::from_seed(100_000, &model(), floor, 7);
        assert!(!o.cells().is_empty());
        assert_eq!(o.fault_count(floor), o.cells().len());
    }

    #[test]
    fn fault_sets_are_voltage_inclusive() {
        let floor = Volt::new(0.36);
        let o = SparseOverlay::from_seed(200_000, &model(), floor, 11);
        let mut prev = usize::MAX;
        for mv in [360, 400, 440, 480, 520] {
            let n = o.fault_count(Volt::from_millivolts(f64::from(mv)));
            assert!(n <= prev, "fault count rose with voltage at {mv} mV");
            prev = n;
        }
    }

    #[test]
    fn sampled_count_tracks_the_binomial_mean() {
        // E[K] = bits * F(v_floor); at 0.40 V, F ~ 1.15e-1... use 0.44 V
        // where F(0.44) ~ 1.39e-2 so 200k cells expect ~2780, sd ~52.
        let floor = Volt::new(0.44);
        let bits = 200_000;
        let expect = model().bit_error_rate(floor) * bits as f64;
        let sd = (expect * (1.0 - expect / bits as f64)).sqrt();
        let o = SparseOverlay::from_seed(bits, &model(), floor, 5);
        let k = o.cells().len() as f64;
        assert!(
            (k - expect).abs() < 5.0 * sd,
            "K = {k} vs expected {expect} (sd {sd})"
        );
    }

    #[test]
    fn from_dense_corrupts_identically_to_the_dense_overlay() {
        let dense = FaultOverlay::from_seed(4096, &model(), 99);
        let floor = Volt::new(0.36);
        let sparse = SparseOverlay::from_dense(&dense, floor);
        for mv in [360, 380, 420, 460, 540] {
            let v = Volt::from_millivolts(f64::from(mv));
            let mut a = vec![0u64; 64];
            let mut b = vec![0u64; 64];
            dense.apply(&mut a, v);
            CorruptionOverlay::apply(&sparse, &mut b, v);
            assert_eq!(a, b, "divergence at {mv} mV");
            assert_eq!(
                dense.flip_count(v),
                CorruptionOverlay::flip_count(&sparse, v)
            );
            assert_eq!(dense.vmins().fault_count(v), sparse.fault_count(v));
        }
    }

    #[test]
    fn corruption_words_into_matches_apply() {
        let floor = Volt::new(0.38);
        let o = SparseOverlay::from_seed(10_000, &model(), floor, 21);
        let v = Volt::new(0.40);
        let words = 10_000usize.div_ceil(64);
        let mut scattered = Vec::new();
        o.corruption_words_into(v, words, &mut scattered);
        let mut applied = vec![0u64; words];
        CorruptionOverlay::apply(&o, &mut applied, v);
        assert_eq!(scattered, applied);
        // Applying twice cancels (XOR overlay).
        CorruptionOverlay::apply(&o, &mut applied, v);
        assert!(applied.iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "below this sparse overlay's sampling floor")]
    fn voltages_below_the_floor_are_rejected() {
        let o = SparseOverlay::from_seed(1024, &model(), Volt::new(0.44), 1);
        let _ = o.fault_count(Volt::new(0.40));
    }

    #[test]
    #[should_panic(expected = "shorter than overlay")]
    fn apply_bounds_checked() {
        let o = SparseOverlay::from_seed(256, &model(), Volt::new(0.40), 2);
        let mut image = vec![0u64; 2];
        CorruptionOverlay::apply(&o, &mut image, Volt::new(0.40));
    }

    #[test]
    fn scratch_sampling_allocates_into_reused_buffers() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut indices = Vec::new();
        let mut cells = Vec::new();
        SparseOverlay::sample_cells_into(
            50_000,
            &model(),
            Volt::new(0.40),
            &mut rng,
            &mut indices,
            &mut cells,
        );
        let first = cells.clone();
        assert!(!first.is_empty());
        let cap = cells.capacity();
        SparseOverlay::sample_cells_into(
            50_000,
            &model(),
            Volt::new(0.40),
            &mut rng,
            &mut indices,
            &mut cells,
        );
        assert_ne!(first, cells, "fresh randomness per call");
        assert!(cells.capacity() >= cap.min(cells.len()));
        // from_cells round-trips the buffers into an owned overlay.
        let o = SparseOverlay::from_cells(50_000, Volt::new(0.40), cells.clone());
        assert_eq!(o.cells(), cells.as_slice());
    }

    #[test]
    fn floor_fast_path_matches_slow_path_flips_and_stream() {
        // Across floors spanning deep (p ~ 0.42) to shallow (p ~ 1e-4)
        // tails: the streamed flip words equal the slow overlay's corruption
        // words at the floor, and the RNG stream is identically positioned
        // afterwards.
        for &mv in &[360u32, 400, 440, 480, 520] {
            let floor = Volt::new(f64::from(mv) / 1000.0);
            for seed in 0..4u64 {
                let mut slow_rng = StdRng::seed_from_u64(seed);
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let (mut si, mut sc) = (Vec::new(), Vec::new());
                SparseOverlay::sample_cells_into(
                    20_000,
                    &model(),
                    floor,
                    &mut slow_rng,
                    &mut si,
                    &mut sc,
                );
                assert!(sc.iter().all(|c| c.vmin > floor.volts() as f32));
                let words = 20_000usize.div_ceil(64);
                let mut slow = Vec::new();
                SparseOverlay::from_cells(20_000, floor, sc)
                    .corruption_words_into(floor, words, &mut slow);
                let mut fast = vec![0u64; words];
                SparseOverlay::for_each_flip_word_at_floor(
                    20_000,
                    &model(),
                    floor,
                    &mut fast_rng,
                    &mut Vec::new(),
                    |w, mask| fast[w] ^= mask,
                );
                assert_eq!(slow, fast, "corruption words diverged at {mv} mV");
                // The streams stay aligned for any caller drawing further.
                assert_eq!(slow_rng.gen::<u64>(), fast_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn streaming_flip_words_match_the_slow_path_cells() {
        // Sizes on and off the word grid, with one scratch buffer reused
        // across every call (its layout is the streaming path's own).
        let mut scratch = Vec::new();
        for &bits in &[1usize, 63, 64, 65, 20_000, 20_031] {
            for &mv in &[360u32, 440, 500] {
                let floor = Volt::new(f64::from(mv) / 1000.0);
                for seed in 0..3u64 {
                    let mut cell_rng = StdRng::seed_from_u64(seed);
                    let mut word_rng = StdRng::seed_from_u64(seed);
                    let (mut ci, mut cc) = (Vec::new(), Vec::new());
                    SparseOverlay::sample_cells_into(
                        bits,
                        &model(),
                        floor,
                        &mut cell_rng,
                        &mut ci,
                        &mut cc,
                    );
                    let words = bits.div_ceil(64);
                    let mut expected = vec![0u64; words];
                    for c in cc.iter().filter(|c| c.flip) {
                        expected[(c.index / 64) as usize] |= 1u64 << (c.index % 64);
                    }
                    let mut streamed = vec![0u64; words];
                    let mut last = None;
                    SparseOverlay::for_each_flip_word_at_floor(
                        bits,
                        &model(),
                        floor,
                        &mut word_rng,
                        &mut scratch,
                        |w, mask| {
                            assert_ne!(mask, 0, "only non-zero masks are emitted");
                            assert!(last.is_none_or(|p| w > p), "ascending word order");
                            last = Some(w);
                            streamed[w] = mask;
                        },
                    );
                    assert_eq!(expected, streamed, "flip words diverged at {mv} mV");
                    // The portable scatter, which only CPUs without BMI2
                    // would otherwise run.
                    let mut portable_rng = StdRng::seed_from_u64(seed);
                    let mut portable = vec![0u64; words];
                    flip_words(
                        bits,
                        model().bit_error_rate(floor),
                        model().read_flip_probability(),
                        &mut portable_rng,
                        &mut scratch,
                        &mut |w, mask| portable[w] = mask,
                        deposit_bits,
                    );
                    assert_eq!(expected, portable, "portable flips diverged at {mv} mV");
                    let next = cell_rng.gen::<u64>();
                    assert_eq!(next, word_rng.gen::<u64>());
                    assert_eq!(next, portable_rng.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn portable_deposit_matches_the_pdep_definition() {
        // Bit by bit: the k-th lowest set bit of the mask takes bit k of src.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..2000 {
            let (src, mask) = (rng.gen::<u64>(), rng.gen::<u64>() & rng.gen::<u64>());
            let mut want = 0u64;
            let mut k = 0;
            for bit in 0..64 {
                if mask >> bit & 1 == 1 {
                    want |= (src >> k & 1) << bit;
                    k += 1;
                }
            }
            assert_eq!(deposit_bits(src, mask), want);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("bmi2") {
                // SAFETY: feature presence just checked.
                assert_eq!(unsafe { std::arch::x86_64::_pdep_u64(src, mask) }, want);
            }
        }
        assert_eq!(deposit_bits(u64::MAX, 0), 0);
        assert_eq!(deposit_bits(u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn high_floor_yields_an_empty_overlay() {
        // F(0.60 V) ~ Q(6.2) ~ 3e-10: 10k cells are virtually always clean.
        let o = SparseOverlay::from_seed(10_000, &model(), Volt::new(0.60), 3);
        assert!(o.cells().is_empty());
        assert_eq!(CorruptionOverlay::flip_count(&o, Volt::new(0.60)), 0);
        assert_eq!(o.len(), 10_000);
        assert!(
            !o.is_empty(),
            "is_empty reports zero *cells*, not zero faults"
        );
    }
}
