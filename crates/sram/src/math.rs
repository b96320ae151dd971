//! Standard-normal distribution helpers used by the fault model.
//!
//! The fault model needs the Gaussian tail `Q(z) = P(X >= z)` (to turn a
//! cell-V_min distribution into a bit error rate) and its inverse (to fit
//! measured error rates back to a distribution). Rust's standard library has
//! neither `erf` nor the normal quantile, so both are implemented here:
//!
//! * `Q(z)` via the Abramowitz & Stegun 26.2.17 polynomial (|error| < 7.5e-8),
//! * `Q^{-1}(p)` via Acklam's rational approximation refined with one Halley
//!   step (relative error far below the fitting noise).
//!
//! The module also hosts the sparse tail samplers used by
//! [`crate::sparse::SparseOverlay`]: geometric-gap Bernoulli index sampling
//! (an exact draw of the faulty-cell set in O(faulty cells) expected time;
//! `walk_bernoulli` is the same walk with each gap looked up in a certified
//! threshold table or computed by a certified interpolated logarithm) and
//! truncated-tail Gaussian draws via the inverse CDF, plus the window
//! ([`worst_cell_window`]) within which a population's worst cell must lie.

use rand::Rng;

/// Standard normal probability density function.
#[must_use]
pub fn phi_pdf(z: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal CDF `P(X <= z)` (Abramowitz & Stegun 26.2.17).
#[must_use]
pub fn phi_cdf(z: f64) -> f64 {
    if z < 0.0 {
        return 1.0 - phi_cdf(-z);
    }
    let t = 1.0 / (1.0 + 0.231_641_9 * z);
    let poly = t
        * (0.319_381_530
            + t * (-0.356_563_782
                + t * (1.781_477_937 + t * (-1.821_255_978 + t * 1.330_274_429))));
    1.0 - phi_pdf(z) * poly
}

/// Gaussian upper tail `Q(z) = P(X >= z) = 1 - Phi(z)`.
#[must_use]
pub fn q_tail(z: f64) -> f64 {
    phi_cdf(-z)
}

/// Inverse of the Gaussian upper tail: returns `z` such that `Q(z) = p`.
///
/// # Panics
///
/// Panics unless `p` is in the open interval `(0, 1)`.
#[must_use]
pub fn q_tail_inv(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "tail probability must be in (0, 1), got {p}"
    );
    -norm_ppf(p)
}

/// Inverse standard normal CDF (quantile function) via Acklam's algorithm
/// plus one Halley refinement step.
///
/// # Panics
///
/// Panics unless `p` is in the open interval `(0, 1)`.
#[must_use]
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against the forward CDF.
    let e = phi_cdf(x) - p;
    let u = e * (2.0 * core::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Draws a uniform `f64` in the *open* interval `(0, 1)`: the packed-mantissa
/// sample in `[0, 1)` is redrawn on an exact zero so downstream logarithms
/// and quantile lookups stay finite.
pub fn sample_unit_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            return u;
        }
    }
}

/// Samples the success indices of `n` i.i.d. Bernoulli(`p`) trials into
/// `out` (cleared first), in strictly increasing order, using geometric-gap
/// skipping: the gap to the next success is `floor(ln u / ln(1-p))`, so the
/// expected cost is O(n·p) draws instead of O(n). The number of indices
/// produced is exactly Binomial(`n`, `p`)-distributed.
///
/// # Panics
///
/// Panics unless `p` is a finite probability in `[0, 1]`.
pub fn sample_bernoulli_indices_into<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
    out: &mut Vec<u64>,
) {
    out.clear();
    assert!(
        (0.0..=1.0).contains(&p),
        "success probability must be in [0, 1], got {p}"
    );
    if n == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..n as u64);
        return;
    }
    let ln_q = (-p).ln_1p(); // ln(1 - p), strictly negative
    let n = n as u64;
    let mut idx = 0u64;
    loop {
        let gap = (sample_unit_open(rng).ln() / ln_q).floor();
        // The remaining-range guard doubles as overflow protection: a deep
        // tail can yield gaps far beyond 2^63.
        if gap >= (n - idx) as f64 {
            return;
        }
        idx += gap as u64;
        out.push(idx);
        idx += 1;
        if idx >= n {
            return;
        }
    }
}

/// Scale of a raw draw's 53-bit mantissa: `m as f64 * UNIT` is, exactly,
/// the uniform `rng.gen::<f64>()` returns for that draw.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The 53-bit mantissa `m` of a [`sample_unit_open`] draw: the same raw
/// words and the same redraw on zero, so `m as f64 * 2^-53` is that
/// uniform exactly and the generator ends where [`sample_unit_open`]
/// leaves it.
#[inline(always)]
pub(crate) fn draw_unit_mantissa<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    loop {
        let m = rng.next_u64() >> 11;
        if m != 0 {
            return m;
        }
    }
}

/// `gen_bool(p)` as an integer test on the raw draw `x`: the uniform
/// `(x >> 11) as f64 * 2^-53` and `p * 2^53` are both exact, so
/// `gen_bool(p)` holds exactly when `x >> 11 < ceil(p * 2^53)`, the value
/// returned here. `gen_bool` redraws nothing, so neither does this test.
///
/// # Panics
///
/// Panics unless `0 <= p <= 1`, as `gen_bool` does.
#[must_use]
pub(crate) fn flip_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Visits the success indices of `n` i.i.d. Bernoulli(`p`) trials in
/// increasing order: exactly the indices [`sample_bernoulli_indices_into`]
/// returns, from the same draws, leaving the generator where it leaves it.
/// Only the arithmetic differs: [`GapSampler`] turns each raw draw into its
/// gap as an integer, without a libm logarithm, and defers to the scalar
/// walk's own `⌊ln u / ln(1 − p)⌋` wherever it cannot certify the result.
/// Exact for `n < 2^53`, where the scalar walk's `(n - idx) as f64` is.
///
/// # Panics
///
/// Panics unless `p` is a finite probability in `[0, 1]`.
#[inline(always)]
pub(crate) fn walk_bernoulli<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
    mut visit: impl FnMut(u64),
) {
    assert!(
        (0.0..=1.0).contains(&p),
        "success probability must be in [0, 1], got {p}"
    );
    if n == 0 || p <= 0.0 {
        return;
    }
    let n = n as u64;
    if p >= 1.0 {
        (0..n).for_each(visit);
        return;
    }
    let gaps = GapSampler::new(p, n as f64 * p);
    let mut idx = 0u64;
    loop {
        // A gap past u64 saturates; the scalar walk's f64 gap stops the
        // walk there too, since the remaining range is far smaller.
        let gap = gaps.gap(draw_unit_mantissa(rng));
        if gap >= n - idx {
            return;
        }
        idx += gap;
        visit(idx);
        idx += 1;
        if idx >= n {
            return;
        }
    }
}

/// `2^52`: for an integer `0 <= k < 2^52`, the bits `MAGIC_2_52 + k` are
/// the f64 `2^52 + k`, so `k` converts to f64 without an int-to-float
/// instruction (whose false dependency on its destination register would
/// chain one draw's arithmetic onto the next).
const TWO_52: f64 = (1u64 << 52) as f64;
const MAGIC_2_52: u64 = 0x4330_0000_0000_0000;

/// The bits of `1.0`.
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// [`fast_ln`] interpolates `ln` on `[1, 2)` over `2^LN_SEGMENT_BITS`
/// equal segments (a 16 KiB table).
const LN_SEGMENT_BITS: u32 = 10;

/// Certified absolute error bound of [`fast_ln`] **plus** the platform
/// `f64::ln`'s own error, with twofold margin. On a segment `[a, a + h]` of
/// `[1, 2)`, `h = 2^-10`, the secant of the concave `ln` lies below it by at
/// most `h²/(8a²) <= 2^-23 ≈ 1.19e-7`. The table's logarithms are within
/// 1 ulp (`< 1e-16`), so each secant slope is within `7e-13` and adds under
/// `1e-15` across a segment; `m - a` is exact (Sterbenz); the binade term
/// and the final sums round within `1.3e-14` for `|ln u| <= 36.8`; libm
/// `ln` is within 1 ulp (`< 1e-14`).
const FAST_LN_EPS: f64 = 2.4e-7;

/// The interpolation tables of [`fast_ln`]: per segment of `[1, 2)` its
/// start's logarithm and the secant slope, and per leading-zero count of a
/// mantissa its binade's `e·ln 2`.
#[derive(Debug)]
struct LnTables {
    segments: Vec<(f64, f64)>,
    binades: [f64; 64],
}

/// The process-wide [`LnTables`], built on first use.
fn ln_tables() -> &'static LnTables {
    static TABLES: std::sync::OnceLock<LnTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let per = 1usize << LN_SEGMENT_BITS;
        let start = |j: usize| 1.0 + j as f64 / per as f64;
        LnTables {
            segments: (0..per)
                .map(|j| {
                    let ln_a = start(j).ln();
                    (ln_a, (start(j + 1).ln() - ln_a) * per as f64)
                })
                .collect(),
            // A mantissa with `lz` leading zeros is `2^(10 - lz)·[1, 2)`.
            binades: std::array::from_fn(|lz| (10.0 - lz as f64) * std::f64::consts::LN_2),
        }
    })
}

/// `ln(m·2^-53)` for a mantissa `1 <= m < 2^53`, within [`FAST_LN_EPS`]:
/// the binade from the leading zeros, then a secant of `ln` on the segment
/// of `[1, 2)` that the next ten bits pick. A table load and two
/// multiply-adds: the latency is short enough for consecutive draws of the
/// walk to overlap.
///
/// The exact bits of the result are **not** part of any contract — only the
/// error bound is. Callers certify against the bound and fall back to the
/// exact `f64::ln` when certification fails.
#[inline(always)]
fn fast_ln(tables: &LnTables, m: u64) -> f64 {
    let lz = m.leading_zeros();
    // The bits below the leading one, left-aligned.
    let fraction = (m << lz) << 1;
    let j = (fraction >> (64 - LN_SEGMENT_BITS)) as usize;
    let mantissa = f64::from_bits(ONE_BITS | fraction >> 12);
    let start = f64::from_bits(ONE_BITS | (j as u64) << (52 - LN_SEGMENT_BITS));
    let (ln_start, slope) = tables.segments[j];
    tables.binades[lz as usize] + (ln_start + (mantissa - start) * slope)
}

/// Relative half-width (`2^-36`) of the band around each gap-table
/// threshold `q^k` (`q^k = exp(k·ln_q)`, `ln_q` the computed `ln(1 − p)`)
/// inside which [`GapSampler`] leaves the gap to the exact logarithm.
///
/// Derivation: the exact gap is `⌊ρ̂⌋`, `ρ̂` the rounded `ln(u) / ln_q`.
/// libm `ln` is within 1 ulp and the division rounds once, so `ρ̂` is within
/// `4e-16·ρ` of the real quotient `ρ`, and `ρ <= 36.8 / |ln_q|` for every
/// draw (`u >= 2^-53`). A draw with `u <= q^k·(1 − 2^-37)` has
/// `ρ >= k + 2^-37/|ln_q|`, five hundred times more than
/// `4e-16·ρ <= 1.5e-14/|ln_q|` above `k`, so `⌊ρ̂⌋ >= k`; above
/// `q^k·(1 + 2^-37)`, likewise `⌊ρ̂⌋ < k`. The band's other `2^-37` covers
/// the rounding of its own edges (a few `2^-53`).
const GAP_BAND: f64 = 1.0 / (1u64 << 36) as f64;

/// Growth of the band per threshold (`2^-49`): the table builds `q^k` by
/// `k` multiplications by `exp(ln_q)`, and each adds at most
/// `2^-52 + 2^-53 < 2^-51` of relative error (1 ulp of libm `exp`, one
/// rounding), so the `k`-th threshold is off by less than `k·2^-51`; the
/// band widens by four times that.
const GAP_BAND_PER_STEP: f64 = 1.0 / (1u64 << 49) as f64;

/// Most binades of `u` a gap table covers: draws below `2^-16` (one in
/// 65 536) take the certified-logarithm path.
const GAP_TABLE_BINADES: usize = 16;

/// Fewest binades that make a table worth building.
const GAP_TABLE_MIN_BINADES: usize = 6;

/// Most buckets in a gap table (96 KiB). Tails sparser than `p ≈ 3e-3`
/// need more buckets per binade than this allows.
const GAP_TABLE_MAX_BUCKETS: usize = 4096;

/// One bucket of the gap table: every draw in it has gap `gap`, plus one
/// when its mantissa is below `lo`, except the draws in `lo ..= lo + span`,
/// which lie in a threshold's band and take the exact path. A bucket clear
/// of every band has `lo = span = 0`; one that two bands reach has
/// `span = u64::MAX`, so all its draws take the exact path.
#[derive(Debug, Clone, Copy, Default)]
struct GapBucket {
    lo: u64,
    span: u64,
    gap: u64,
}

/// Maps the 53-bit mantissa `m` of a unit-open draw to the geometric gap
/// `⌊ln(m·2^-53) / ln(1 − p)⌋`, bit for bit as
/// [`sample_bernoulli_indices_into`] computes it, without a libm logarithm:
///
/// * On dense tails a threshold table answers most draws with integer work
///   only. The gap changes only where `u` crosses a threshold `q^k`. The
///   table splits each binade of `u` into `2^bits` buckets by the top
///   mantissa bits, narrow enough (in `ln u`) that at most one threshold
///   falls in each, and stores per bucket the gap at its top and that
///   threshold as integer mantissa bounds certified by [`GAP_BAND`].
/// * Other draws, and every draw where no table pays, take [`fast_ln`]
///   certified by [`FAST_LN_EPS`].
/// * Whatever neither certifies, a draw in a threshold's band included,
///   runs the exact logarithm.
#[derive(Debug)]
pub(crate) struct GapSampler {
    ln_q: f64,
    inv_ln_q: f64,
    /// The fast-ln error interval mapped through the division, doubled to
    /// absorb the rounding of the certification itself.
    delta0: f64,
    ln_tables: &'static LnTables,
    /// Smallest mantissa the table covers; `u64::MAX` without a table.
    table_min: u64,
    /// Buckets per binade, as a power of two.
    bucket_bits: u32,
    table: Vec<GapBucket>,
}

impl GapSampler {
    /// Prepares the gaps of Bernoulli(`p`), `0 < p < 1`, for a walk expected
    /// to take `expected_draws` draws. Building the table is
    /// `O(buckets + thresholds)`, with fewer thresholds than buckets, and
    /// costs about what three table lookups save over the certified
    /// logarithm; so it gets at most an eighth as many buckets as there are
    /// draws, and is built only when that buys [`GAP_TABLE_MIN_BINADES`].
    pub(crate) fn new(p: f64, expected_draws: f64) -> Self {
        let ln_q = (-p).ln_1p(); // ln(1 - p), strictly negative
        let inv_ln_q = 1.0 / ln_q;
        let mut sampler = Self {
            ln_q,
            inv_ln_q,
            delta0: 2.0 * FAST_LN_EPS * (-inv_ln_q),
            ln_tables: ln_tables(),
            table_min: u64::MAX,
            bucket_bits: 0,
            table: Vec::new(),
        };
        // Buckets narrower in `ln u` than the thresholds' spacing `|ln_q|`:
        // a bucket spans less than `ln(1 + 2^-bits) < 2^-bits`.
        let bits = (-inv_ln_q).log2().ceil().max(0.0);
        if bits <= 12.0 {
            let bits = bits as usize;
            let budget = (expected_draws / 8.0).min(GAP_TABLE_MAX_BUCKETS as f64) as usize;
            let binades = (budget >> bits).min(GAP_TABLE_BINADES).min(53 - bits);
            if binades >= GAP_TABLE_MIN_BINADES {
                sampler.build_table(bits, binades);
            }
        }
        sampler
    }

    /// Builds the table of `binades` binades of `2^bits` buckets each.
    fn build_table(&mut self, bits: usize, binades: usize) {
        const SCALE: f64 = (1u64 << 53) as f64;
        let table_min = 1u64 << (53 - binades);
        // Each threshold's band `[lo, hi]` in mantissa space, descending.
        // Truncation floors these non-negative values; `+ 1` rounds up.
        let q = self.ln_q.exp();
        let mut bands: Vec<(u64, u64)> = Vec::new();
        let mut t = 1.0f64;
        for k in 1u32.. {
            t *= q;
            let w = GAP_BAND + f64::from(k) * GAP_BAND_PER_STEP;
            let hi = (t * (1.0 + w) * SCALE) as u64 + 1;
            if hi < table_min {
                break;
            }
            bands.push(((t * (1.0 - w) * SCALE) as u64, hi));
        }
        // Buckets from the largest mantissa down. The first `counted` bands
        // lie wholly above the current bucket, so each of its draws has at
        // least that gap; of the bands after them, those reaching into the
        // bucket are what a draw must be compared against.
        let per = 1usize << bits;
        let mut table = vec![GapBucket::default(); binades << bits];
        let mut counted = 0;
        for binade in 0..binades {
            let shift = 52 - binade - bits;
            for j in (0..per).rev() {
                let first = ((per + j) as u64) << shift;
                let last = (((per + j + 1) as u64) << shift) - 1;
                while counted < bands.len() && bands[counted].0 > last {
                    counted += 1;
                }
                let reaching = bands[counted..]
                    .iter()
                    .take(2)
                    .take_while(|&&(_, hi)| hi >= first)
                    .count();
                let gap = counted as u64;
                table[(binade << bits) | j] = match reaching {
                    0 => GapBucket {
                        lo: 0,
                        span: 0,
                        gap,
                    },
                    1 => GapBucket {
                        lo: bands[counted].0,
                        span: bands[counted].1 - bands[counted].0,
                        gap,
                    },
                    _ => GapBucket {
                        lo: 0,
                        span: u64::MAX,
                        gap,
                    },
                };
            }
        }
        self.table_min = table_min;
        self.bucket_bits = bits as u32;
        self.table = table;
    }

    /// The gap for the mantissa `m >= 1` of one draw, saturated to `u64`.
    #[inline(always)]
    pub(crate) fn gap(&self, m: u64) -> u64 {
        if m >= self.table_min {
            // Binade `lz - 11` (0 for `u` in [0.5, 1)), then the top
            // `bucket_bits` mantissa bits below the leading one.
            let lz = m.leading_zeros();
            let top = ((m << lz) >> (63 - self.bucket_bits)) as usize;
            let b = self.table
                [((lz - 11) as usize) << self.bucket_bits | top & ((1 << self.bucket_bits) - 1)];
            if m.wrapping_sub(b.lo) > b.span {
                return b.gap + u64::from(m < b.lo);
            }
            return self.exact_gap(m);
        }
        self.certified_gap(m)
    }

    /// The gap from [`fast_ln`]: with `r = fast_ln(m) / ln_q`, every value
    /// the exact path can produce lies within `δ = 2ε/|ln_q| + 2e-15·|r|`
    /// of `r` (the `ε`-interval mapped through the division, doubled for
    /// slack, plus the reciprocal, the multiply and the exact path's own
    /// division rounding, each `≤ 1.2e-16·|r|`, with >10x margin). So when
    /// the fractional part of `r` keeps `[r-δ, r+δ]` strictly inside one
    /// unit interval, `⌊r⌋` is the exact gap; otherwise the exact path runs.
    /// On `[0, 2^52)` truncation floors `r` and `r - ⌊r⌋` is exact; anything
    /// else (a negative `r`, for `u` within `ε` of 1) takes the exact path.
    #[inline(always)]
    fn certified_gap(&self, m: u64) -> u64 {
        let r = fast_ln(self.ln_tables, m) * self.inv_ln_q;
        if (0.0..TWO_52).contains(&r) {
            let f = r as i64 as u64;
            let s = r - (f64::from_bits(MAGIC_2_52 + f) - TWO_52);
            let delta = self.delta0 + r * 2e-15;
            if s >= delta && 1.0 - s > delta {
                return f;
            }
        }
        self.exact_gap(m)
    }

    /// The scalar walk's own gap expression, saturated to `u64`.
    #[cold]
    #[inline(never)]
    fn exact_gap(&self, m: u64) -> u64 {
        ((m as f64 * UNIT).ln() / self.ln_q).floor() as u64
    }
}

/// Draws one value from the Gaussian `N(mu, sigma)` *conditioned on being
/// greater than a floor*, via the inverse tail CDF: with the floor's tail
/// mass `p_floor = Q((floor - mu) / sigma)` and `u ~ U(0, 1)`, the draw is
/// `mu + sigma * Q^{-1}(u * p_floor)`.
///
/// The caller computes `p_floor` once per cell population, with exactly
/// that expression, instead of paying an `erfc` per draw.
///
/// # Panics
///
/// Panics if `sigma` is not strictly positive or `p_floor` is not (the
/// tail beyond the floor must carry numerically representable mass).
#[must_use]
pub fn truncated_tail_normal<R: Rng + ?Sized>(
    mu: f64,
    sigma: f64,
    p_floor: f64,
    rng: &mut R,
) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
    assert!(
        p_floor > 0.0,
        "no Gaussian mass above the floor (mu {mu}, sigma {sigma})"
    );
    mu + sigma * q_tail_inv(tail_probability(sample_unit_open(rng), p_floor))
}

/// The tail probability [`truncated_tail_normal`] inverts for the uniform
/// `u`: `u * p_floor`, clamped to stay a normal positive number. Monotone
/// non-decreasing in `u` (a rounded product and a `max` both are).
#[inline]
#[must_use]
pub(crate) fn tail_probability(u: f64, p_floor: f64) -> f64 {
    (u * p_floor).max(f64::MIN_POSITIVE)
}

/// Relative reach of the worst-cell window (`2^-30`); see
/// [`worst_cell_window`].
///
/// Derivation: away from the absolute term's range, the computed
/// [`q_tail_inv`] departs from a monotone function only by the rounding of
/// its Acklam + Halley arithmetic, a few ulps of `z`. Since
/// `dz / d(ln t) = -t / phi(z)`, whose magnitude is at least `~1/|z|`, a
/// few ulps of `z` are a relative change in `t` of at most
/// `~|z|^2 * 2^-52`. `|z|` peaks at 37.5 at the `MIN_POSITIVE` clamp, so
/// the bound is about `3e-13`; dense scans measure at most `7.9e-13`
/// (near `t = 1e-300`). `2^-30 ~ 9.3e-10` leaves three orders of
/// magnitude of margin.
const WORST_CELL_REL_WINDOW: f64 = 1.0 / 1_073_741_824.0;

/// Absolute reach of the worst-cell window (`2^-50`); see
/// [`worst_cell_window`].
///
/// Derivation: for `t < 0.5` the Halley step evaluates
/// `phi_cdf(x) = 1 - (1 - phi(-x) * poly)`, whose value is a multiple of
/// `2^-53`, so the step inverts the CDF at `t` shifted by up to half that
/// quantum. Where `t` is not far above `2^-53` (about `1e-18` to `1e-12`)
/// the shift is a large share of `t`, and two probabilities need an
/// absolute separation of one quantum before their order is certain:
/// near `1e-18` the relative gap needed exceeds 10. Dense scans never
/// measure a reach above `2^-53 ~ 1.1e-16`; `2^-50` is eight quanta.
const WORST_CELL_ABS_WINDOW: f64 = 1.0 / 1_125_899_906_842_624.0;

/// End of the certification window around a cell population's smallest
/// tail probability `t_min`: every `t` above it satisfies
/// `q_tail_inv(t) <= q_tail_inv(t_min)`, so a cell outside the window can
/// never be the population's worst.
///
/// This is what lets a die's worst cell be found without a quantile per
/// cell. Every step from a uniform to a V_min — `tail_probability`,
/// `mu + sigma * q_tail_inv(t)`, the `f32` narrowing and the floor nudge —
/// is monotone non-increasing in `u`, except that the computed
/// [`q_tail_inv`] is monotone only at the resolution of this window
/// (`WORST_CELL_REL_WINDOW`, `WORST_CELL_ABS_WINDOW`). Evaluating the
/// exact quantile of every cell inside the window therefore yields the
/// population's maximum bit for bit: the same certify-or-fall-back
/// pattern as `FAST_LN_EPS` in the gap walk.
#[inline]
#[must_use]
pub fn worst_cell_window(t_min: f64) -> f64 {
    t_min * (1.0 + WORST_CELL_REL_WINDOW) + WORST_CELL_ABS_WINDOW
}

/// CDF of the truncated tail distribution sampled by
/// [`truncated_tail_normal`]: the probability that a draw conditioned on
/// exceeding `floor` is `<= x`. Zero below the floor, one far in the tail.
#[must_use]
pub fn truncated_tail_cdf(mu: f64, sigma: f64, floor: f64, x: f64) -> f64 {
    if x <= floor {
        return 0.0;
    }
    let p_floor = q_tail((floor - mu) / sigma);
    if p_floor <= 0.0 {
        return 1.0;
    }
    ((p_floor - q_tail((x - mu) / sigma)) / p_floor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The gap the scalar walk computes for the mantissa `m`.
    fn exact(m: u64, ln_q: f64) -> u64 {
        ((m as f64 * UNIT).ln() / ln_q).floor() as u64
    }

    /// Two samplers for `p`: one with a table (expected draws far past the
    /// budget) and one without (no expected draws).
    fn samplers(p: f64) -> (GapSampler, GapSampler) {
        (GapSampler::new(p, 1e9), GapSampler::new(p, 0.0))
    }

    /// A generator that returns one fixed word.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn gap_walk_matches_scalar_walk_and_stream() {
        // Identical indices AND identical post-call generator state across
        // sizes and probabilities from dense tails (gap table) to near-empty
        // ones (certified logarithm), plus both degenerate edges.
        for &n in &[1usize, 7, 100, 1023, 1024, 1025, 50_000, 400_000] {
            for &p in &[0.0, 1e-6, 1e-3, 0.0139, 0.05, 0.42, 0.9, 1.0] {
                for seed in 0..3u64 {
                    let mut scalar_rng = StdRng::seed_from_u64(seed);
                    let mut walk_rng = StdRng::seed_from_u64(seed);
                    let (mut scalar, mut walked) = (Vec::new(), Vec::new());
                    sample_bernoulli_indices_into(n, p, &mut scalar_rng, &mut scalar);
                    walk_bernoulli(n, p, &mut walk_rng, |i| walked.push(i));
                    assert_eq!(scalar, walked, "indices diverged (n={n}, p={p})");
                    assert_eq!(
                        scalar_rng.gen::<u64>(),
                        walk_rng.gen::<u64>(),
                        "generator state diverged (n={n}, p={p})"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_ln_stays_within_its_certified_bound() {
        // Random coverage of the full unit-open range, log-uniform too, plus
        // the extremes the sampler can produce and every segment's edges.
        // The bound claimed is FAST_LN_EPS minus libm's share; assert with
        // margin against half the budget.
        let tables = ln_tables();
        let check = |m: u64| {
            let u = m as f64 * UNIT;
            let err = (fast_ln(tables, m) - u.ln()).abs();
            assert!(
                err < FAST_LN_EPS / 2.0,
                "fast_ln error {err:.3e} at u={u:e}"
            );
        };
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200_000 {
            let m = draw_unit_mantissa(&mut rng);
            check(m);
            check((m >> (rng.gen::<u32>() % 53)).max(1));
        }
        let top = (1u64 << 53) - 1;
        for m in [1, 2, 3, top, top - 1, 1 << 52, (1 << 52) + 1, (1 << 52) - 1] {
            check(m);
        }
        // Midpoints of segments, where the secant is farthest from ln.
        for j in 0..1u64 << LN_SEGMENT_BITS {
            let first = (1u64 << 52) | j << (52 - LN_SEGMENT_BITS);
            check(first);
            check(first + (1 << (51 - LN_SEGMENT_BITS)));
        }
    }

    #[test]
    fn certified_gaps_match_exact_computation() {
        // Random draws across tail densities, uniform and log-uniform in u
        // (so every binade, below the table too): the table and the
        // certified logarithm must both give the exact gap bit for bit.
        let mut rng = StdRng::seed_from_u64(12);
        for &p in &[
            1e-9f64, 1e-6, 1e-4, 1e-3, 3.5e-3, 0.0139, 0.05, 0.3, 0.42, 0.9, 0.999_999,
        ] {
            let ln_q = (-p).ln_1p();
            let (table, plain) = samplers(p);
            for i in 0..100_000u32 {
                let m = draw_unit_mantissa(&mut rng);
                let m = if i % 2 == 0 {
                    m
                } else {
                    (m >> (rng.gen::<u32>() % 53)).max(1)
                };
                let want = exact(m, ln_q);
                assert_eq!(table.gap(m), want, "table gap (m={m}, p={p})");
                assert_eq!(plain.gap(m), want, "certified gap (m={m}, p={p})");
            }
        }
    }

    #[test]
    fn certified_gaps_survive_boundary_adversaries() {
        // Mantissas on or next to every place a gap can change: within 100
        // ulps of each threshold q^k (where the quotient is within a few ulps
        // of an integer, so certification must refuse and the exact path
        // must reproduce libm's rounding), on and beside each table band's
        // edges, and on each bucket's edges.
        let scale = (1u64 << 53) as f64;
        for &p in &[1e-6f64, 1e-3, 3.5e-3, 0.0139, 0.0446, 0.05, 0.42, 0.999] {
            let ln_q = (-p).ln_1p();
            let (table, plain) = samplers(p);
            assert!(p < 2e-3 || !table.table.is_empty(), "no gap table at p={p}");
            let mut probes = Vec::new();
            for k in 1..=3000u32 {
                let m0 = ((f64::from(k) * ln_q).exp() * scale) as u64;
                if m0 == 0 {
                    break;
                }
                probes.extend((-100i64..=100).map(|d| m0.wrapping_add_signed(d)));
            }
            for b in table
                .table
                .iter()
                .filter(|b| b.span != 0 && b.span != u64::MAX)
            {
                for edge in [b.lo, b.lo + b.span] {
                    probes.extend([edge - 1, edge, edge + 1]);
                }
            }
            let per = 1u64 << table.bucket_bits;
            for binade in 0..table.table.len() as u64 / per {
                let shift = 52 - binade - u64::from(table.bucket_bits);
                for j in 0..per {
                    let first = (per + j) << shift;
                    probes.extend([first - 1, first, first + 1]);
                }
            }
            for m in probes.into_iter().filter(|m| (1..1u64 << 53).contains(m)) {
                let want = exact(m, ln_q);
                assert_eq!(table.gap(m), want, "table gap (m={m:#x}, p={p})");
                assert_eq!(plain.gap(m), want, "certified gap (m={m:#x}, p={p})");
            }
        }
    }

    #[test]
    fn flip_threshold_is_gen_bool_on_the_raw_draw() {
        let top = (1u64 << 53) - 1;
        // The edges, then probabilities off the 2^-53 grid, where the
        // threshold is a rounded-up product.
        for (p, thr) in [
            (0.0, 0),
            (UNIT, 1),
            (0.5, 1 << 52),
            (1.0 - UNIT, top),
            (1.0, 1 << 53),
            (UNIT / 2.0, 1),
            (1e-300, 1),
            (0.3, 2_702_159_776_422_298),
        ] {
            assert_eq!(flip_threshold(p), thr, "threshold at p={p}");
            for m in [0, 1, thr.saturating_sub(1), thr, thr + 1, top] {
                if m <= top {
                    let mut rng = Fixed(m << 11 | 0x7FF);
                    assert_eq!(rng.gen_bool(p), m < thr, "gen_bool at p={p}, m={m}");
                }
            }
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((phi_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((phi_cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!((phi_cdf(-1.0) - 0.158_655_254).abs() < 1e-6);
        assert!((phi_cdf(2.0) - 0.977_249_868).abs() < 1e-6);
        assert!((phi_cdf(6.0) - 1.0).abs() < 1e-8);
    }

    #[test]
    fn tail_is_complement_of_cdf() {
        // Tolerance is bounded by the A&S 26.2.17 polynomial error (7.5e-8).
        for z in [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0] {
            assert!((q_tail(z) + phi_cdf(z) - 1.0).abs() < 2e-7, "z={z}");
        }
    }

    #[test]
    fn ppf_round_trips_through_cdf() {
        for &p in &[1e-9, 1e-6, 1e-3, 0.014, 0.1, 0.5, 0.9, 0.999] {
            let z = norm_ppf(p);
            assert!(
                (phi_cdf(z) - p).abs() < 1e-7 * (1.0 + 1.0 / p.min(1.0 - p)).min(1e4),
                "p={p}, z={z}, cdf={}",
                phi_cdf(z)
            );
        }
    }

    #[test]
    fn q_inv_round_trips_through_q() {
        for &p in &[1e-8, 1e-4, 0.014, 0.25, 0.5, 0.75, 0.99] {
            let z = q_tail_inv(p);
            let back = q_tail(z);
            assert!((back - p).abs() / p < 1e-3, "p={p} z={z} back={back}");
        }
    }

    #[test]
    fn ppf_known_values() {
        // Accuracy is limited by the forward-CDF polynomial used in the
        // Halley refinement (~1e-7).
        assert!((norm_ppf(0.5)).abs() < 1e-6);
        assert!((norm_ppf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((norm_ppf(0.841_344_746) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn pdf_is_symmetric_and_peaked_at_zero() {
        assert!((phi_pdf(1.3) - phi_pdf(-1.3)).abs() < 1e-15);
        assert!(phi_pdf(0.0) > phi_pdf(0.1));
        assert!((phi_pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn ppf_rejects_out_of_range() {
        let _ = norm_ppf(1.0);
    }

    #[test]
    fn bernoulli_indices_are_sorted_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        sample_bernoulli_indices_into(10_000, 0.01, &mut rng, &mut out);
        assert!(!out.is_empty());
        assert!(out.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert!(*out.last().unwrap() < 10_000);
    }

    #[test]
    fn bernoulli_index_count_matches_binomial_mean() {
        // Mean of 400 replications of Binomial(5000, 0.02): expect 100 with
        // sd(mean) = sqrt(5000*0.02*0.98/400) ~ 0.49; allow 5 sigma.
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Vec::new();
        let mut total = 0usize;
        for _ in 0..400 {
            sample_bernoulli_indices_into(5000, 0.02, &mut rng, &mut out);
            total += out.len();
        }
        let mean = total as f64 / 400.0;
        assert!((mean - 100.0).abs() < 2.5, "mean count {mean} vs 100");
    }

    #[test]
    fn bernoulli_indices_cover_uniformly() {
        // Pool successes over many replications: each cell is hit with the
        // same probability, so first/second-half counts agree to ~3 sigma.
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        let (mut lo, mut hi) = (0usize, 0usize);
        for _ in 0..200 {
            sample_bernoulli_indices_into(2000, 0.05, &mut rng, &mut out);
            for &i in &out {
                if i < 1000 {
                    lo += 1;
                } else {
                    hi += 1;
                }
            }
        }
        let n = (lo + hi) as f64;
        let diff = (lo as f64 - hi as f64).abs();
        assert!(diff < 4.0 * n.sqrt(), "lo {lo} vs hi {hi}");
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = vec![99];
        sample_bernoulli_indices_into(100, 0.0, &mut rng, &mut out);
        assert!(out.is_empty(), "p = 0 clears the buffer");
        sample_bernoulli_indices_into(5, 1.0, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        sample_bernoulli_indices_into(0, 0.5, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        sample_bernoulli_indices_into(10, 1.5, &mut rng, &mut Vec::new());
    }

    #[test]
    fn truncated_tail_draws_stay_above_floor() {
        let mut rng = StdRng::seed_from_u64(6);
        let p_floor = q_tail((0.44 - 0.352) / 0.040);
        for _ in 0..5000 {
            let x = truncated_tail_normal(0.352, 0.040, p_floor, &mut rng);
            assert!(x > 0.44, "draw {x} fell below the floor");
        }
    }

    #[test]
    fn truncated_tail_matches_conditional_cdf() {
        // Empirical CDF of 20k truncated draws against the analytic
        // conditional CDF at a few quantiles (binomial 5-sigma bands).
        let (mu, sigma, floor) = (0.352, 0.040, 0.40);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let p_floor = q_tail((floor - mu) / sigma);
        let draws: Vec<f64> = (0..n)
            .map(|_| truncated_tail_normal(mu, sigma, p_floor, &mut rng))
            .collect();
        for x in [0.41, 0.43, 0.46, 0.50] {
            let expect = truncated_tail_cdf(mu, sigma, floor, x);
            let got = draws.iter().filter(|&&d| d <= x).count() as f64 / f64::from(n);
            let tol = 5.0 * (expect * (1.0 - expect) / f64::from(n)).sqrt() + 1e-3;
            assert!(
                (got - expect).abs() < tol,
                "at {x}: empirical {got} vs analytic {expect}"
            );
        }
    }

    #[test]
    fn truncated_tail_cdf_brackets() {
        assert_eq!(truncated_tail_cdf(0.352, 0.04, 0.44, 0.43), 0.0);
        let far = truncated_tail_cdf(0.352, 0.04, 0.44, 1.0);
        assert!((far - 1.0).abs() < 1e-9);
        // Monotone between.
        let a = truncated_tail_cdf(0.352, 0.04, 0.44, 0.45);
        let b = truncated_tail_cdf(0.352, 0.04, 0.44, 0.47);
        assert!((0.0..1.0).contains(&a) && a < b);
    }

    #[test]
    fn unit_open_never_returns_zero() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let u = sample_unit_open(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
