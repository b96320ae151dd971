//! Blocked/unrolled GEMM kernels for the trial-batched forward pass and
//! training.
//!
//! Two families live here:
//!
//! * **Bit-exact `f32` kernels** ([`matmul_exact_into`], [`dense_cols_into`])
//!   used by [`crate::batched`] and by every dense product of
//!   [`Dense`](crate::layers::Dense): the forward pass (and so
//!   `Network::forward`/`accuracy`) and both backward products of training,
//!   `dx = dY * W^T` and `dw = X^T * dY` over explicit transposes. These are
//!   register-tiled rewrites of
//!   [`Matrix::matmul`](crate::tensor::Matrix::matmul) that produce *the same
//!   bits* for every output element, so the trial-batched evaluator and the
//!   SGD loop can swap them in under golden-pinned accuracy statistics and
//!   byte-identical trained weights. `Matrix::matmul` and
//!   `Matrix::matmul_transposed` keep their naive loops as the reference.
//!   Exactness rests on the per-element contract of `Matrix::matmul`: each
//!   `out[i][j]` is a single `f32` accumulator starting at `+0.0`, folded
//!   over `k` in ascending order, skipping terms whose left operand is
//!   `±0.0`. Register tiling changes which *elements* are in flight together
//!   but never the per-element fold order, and skipping a `±0.0` product is
//!   bit-identical to adding it (the accumulator can never be `-0.0`: it
//!   starts at `+0.0` and IEEE-754 addition only produces `-0.0` from
//!   `-0.0 + -0.0` or exact negative cancellation in rounding modes other
//!   than round-to-nearest). The argument assumes finite inputs:
//!   `0.0 * inf` is NaN, not `±0.0`. Weights, activations and gradients are
//!   finite throughout the pipeline — fault injection corrupts quantized
//!   codes, never raw `f32` bits.
//!
//! * **Integer kernels** ([`dot_i16`], [`gemm_i32_blocked_into`],
//!   [`round_shift_saturate`]) for the fixed-point accelerator paths. `i64`
//!   wrapping accumulation is associative and commutative, so any blocking /
//!   unrolling factor yields results identical to the naive triple loop —
//!   which the property suite in `crates/nn/tests/gemm_props.rs` checks for
//!   arbitrary shapes, block sizes (including remainder tiles), and `i32`
//!   extremes.

/// Column tile width of the `f32` micro-kernel. 128 lanes mean the four-row
/// kernel amortises each broadcast-A load over a long run of B columns; the
/// accumulator arrays no longer fit the register file, but the spilled rows
/// are hot in L1 and the wide fixed-length inner loops autovectorize cleanly
/// under AVX2/AVX-512 (measured fastest among {16, 32, 64, 128, 256} on the
/// benchmark shapes — 256 regresses once the spill traffic dominates).
pub const NR: usize = 128;

/// `out = a * b` for row-major `a` (`m x k`), `b` (`k x n`), bit-identical to
/// [`Matrix::matmul`](crate::tensor::Matrix::matmul) on finite inputs.
///
/// Processes four rows of `a` at a time against [`NR`]-wide column tiles of
/// `b`; remainder tiles (right edge, trailing rows) fall back to narrower
/// variants with the same per-element fold order.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n`, `m*n`.
pub fn matmul_exact_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    // Runtime dispatch: the same per-element fold compiled under wider SIMD
    // feature sets. No variant enables FMA — fusing the multiply-add would
    // change rounding and break bit-identity with `Matrix::matmul`; plain
    // lane-parallel mul+add over independent accumulators cannot.
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked.
            return unsafe { matmul_core_avx512(a, b, m, k, n, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            return unsafe { matmul_core_avx2(a, b, m, k, n, out) };
        }
    }
    matmul_core(a, b, m, k, n, out);
}

/// [`matmul_core`] compiled with AVX-512F codegen (identical source, wider
/// autovectorization of the fixed-width accumulator loops).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_core_avx512(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_core(a, b, m, k, n, out);
}

/// [`matmul_core`] compiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_core_avx2(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_core(a, b, m, k, n, out);
}

/// The dispatch body: four rows at a time against [`NR`]-wide tiles,
/// remainder rows and ragged right edges via narrower
/// variants with the same fold order. `inline(always)` (here and in the
/// micro-kernels) so the `target_feature` wrappers recompile the whole loop
/// nest under their feature set.
#[inline(always)]
fn matmul_core(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut rows = out;
    let mut lhs = a;
    let mut m_rem = m;
    while m_rem >= 4 {
        let (o0, rest) = rows.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, rest) = rest.split_at_mut(n);
        let (o3, rest) = rest.split_at_mut(n);
        rows = rest;
        rows4(
            &lhs[..k],
            &lhs[k..2 * k],
            &lhs[2 * k..3 * k],
            &lhs[3 * k..4 * k],
            b,
            n,
            o0,
            o1,
            o2,
            o3,
        );
        lhs = &lhs[4 * k..];
        m_rem -= 4;
    }
    if m_rem >= 2 {
        let (o0, rest) = rows.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        rows = rest;
        rows2(&lhs[..k], &lhs[k..2 * k], b, n, o0, o1);
        lhs = &lhs[2 * k..];
        m_rem -= 2;
    }
    if m_rem == 1 {
        row1(&lhs[..k], b, n, &mut rows[..n]);
    }
}

/// Four-row micro-kernel: all rows share every loaded B tile, giving four
/// independent accumulator arrays (many parallel add chains per SIMD width)
/// that hide the add latency the two-row kernel stalls on. Unlike the narrow
/// kernels it never skips a `k` term — with four rows in flight an all-zero
/// term is too rare to pay for the branch — and adding the extra `±0.0 * b`
/// terms is bit-identical to skipping them (see module docs).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &[f32],
    n: usize,
    out0: &mut [f32],
    out1: &mut [f32],
    out2: &mut [f32],
    out3: &mut [f32],
) {
    let mut j = 0;
    while j < n {
        let nb = NR.min(n - j);
        let mut acc0 = [0.0f32; NR];
        let mut acc1 = [0.0f32; NR];
        let mut acc2 = [0.0f32; NR];
        let mut acc3 = [0.0f32; NR];
        if nb == NR {
            for kk in 0..a0.len() {
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                let bs = &b[kk * n + j..kk * n + j + NR];
                for jj in 0..NR {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                    acc2[jj] += x2 * bs[jj];
                    acc3[jj] += x3 * bs[jj];
                }
            }
        } else {
            for kk in 0..a0.len() {
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                let bs = &b[kk * n + j..kk * n + j + nb];
                for jj in 0..nb {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                    acc2[jj] += x2 * bs[jj];
                    acc3[jj] += x3 * bs[jj];
                }
            }
        }
        out0[j..j + nb].copy_from_slice(&acc0[..nb]);
        out1[j..j + nb].copy_from_slice(&acc1[..nb]);
        out2[j..j + nb].copy_from_slice(&acc2[..nb]);
        out3[j..j + nb].copy_from_slice(&acc3[..nb]);
        j += nb;
    }
}

/// Two-row micro-kernel: both rows share every loaded B tile.
#[inline(always)]
fn rows2(a0: &[f32], a1: &[f32], b: &[f32], n: usize, out0: &mut [f32], out1: &mut [f32]) {
    let mut j = 0;
    while j < n {
        let nb = NR.min(n - j);
        let mut acc0 = [0.0f32; NR];
        let mut acc1 = [0.0f32; NR];
        if nb == NR {
            for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                if x0 == 0.0 && x1 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + NR];
                for jj in 0..NR {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                }
            }
        } else {
            for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                if x0 == 0.0 && x1 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + nb];
                for jj in 0..nb {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                }
            }
        }
        out0[j..j + nb].copy_from_slice(&acc0[..nb]);
        out1[j..j + nb].copy_from_slice(&acc1[..nb]);
        j += nb;
    }
}

/// Single-row micro-kernel for the odd last row.
#[inline(always)]
fn row1(a0: &[f32], b: &[f32], n: usize, out0: &mut [f32]) {
    let mut j = 0;
    while j < n {
        let nb = NR.min(n - j);
        let mut acc0 = [0.0f32; NR];
        if nb == NR {
            for (kk, &x0) in a0.iter().enumerate() {
                if x0 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + NR];
                for jj in 0..NR {
                    acc0[jj] += x0 * bs[jj];
                }
            }
        } else {
            for (kk, &x0) in a0.iter().enumerate() {
                if x0 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + nb];
                for jj in 0..nb {
                    acc0[jj] += x0 * bs[jj];
                }
            }
        }
        out0[j..j + nb].copy_from_slice(&acc0[..nb]);
        j += nb;
    }
}

/// Recomputes only the dirty output columns of a dense layer:
/// `out[i][j] = (sum_k x[i][k] * w[k][j]) + bias[j]` for `j in cols`,
/// bit-identical to the full [`matmul_exact_into`]-plus-bias path.
///
/// `w` is row-major `k x n` (the dense layer's `[in x out]` weights); the
/// dirty column is gathered once into `col_buf` and streamed against every
/// row of `x`. Untouched columns of `out` are left as-is — the caller seeds
/// `out` with the cached clean activations.
///
/// # Panics
///
/// Panics on slice length mismatches or a column index `>= n`.
#[allow(clippy::too_many_arguments)]
pub fn dense_cols_into(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
    cols: &[usize],
    col_buf: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(x.len(), m * k, "input length mismatch");
    assert_eq!(w.len(), k * n, "weight length mismatch");
    assert_eq!(bias.len(), n, "bias length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    for &j in cols {
        assert!(j < n, "column {j} out of range");
        col_buf.clear();
        col_buf.extend((0..k).map(|kk| w[kk * n + j]));
        let bj = bias[j];
        // Eight rows in flight: each element keeps its own ascending-`k`
        // fold (bit-identity preserved, branchlessly — see module docs),
        // while the independent chains hide the add latency a single
        // accumulator serializes on.
        let mut i = 0;
        while i + 8 <= m {
            let rows: [&[f32]; 8] = std::array::from_fn(|r| &x[(i + r) * k..(i + r + 1) * k]);
            let mut acc = [0.0f32; 8];
            for (kk, &wv) in col_buf.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[kk] * wv;
                }
            }
            for (r, a) in acc.iter().enumerate() {
                out[(i + r) * n + j] = a + bj;
            }
            i += 8;
        }
        while i < m {
            let xr = &x[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (&xv, &wv) in xr.iter().zip(col_buf.iter()) {
                acc += xv * wv;
            }
            out[i * n + j] = acc + bj;
            i += 1;
        }
    }
}

/// 4-way unrolled `i16 x i16 -> i64` dot product:
/// `acc + sum_k w[k] * x[k]`.
///
/// Integer addition is associative, so the unrolled partial sums are exactly
/// the sequential left-fold the scalar executor computes. The accumulator
/// cannot overflow in practice (`2^15 * 2^15 * len` needs `len > 2^33` to
/// reach `i64::MAX`), matching `pe::mac` semantics in dante-accel.
#[must_use]
pub fn dot_i16(acc: i64, w: &[i16], x: &[i16]) -> i64 {
    assert_eq!(w.len(), x.len(), "dot length mismatch");
    let mut s = [0i64; 4];
    let mut wc = w.chunks_exact(4);
    let mut xc = x.chunks_exact(4);
    for (cw, cx) in (&mut wc).zip(&mut xc) {
        s[0] += i64::from(cw[0]) * i64::from(cx[0]);
        s[1] += i64::from(cw[1]) * i64::from(cx[1]);
        s[2] += i64::from(cw[2]) * i64::from(cx[2]);
        s[3] += i64::from(cw[3]) * i64::from(cx[3]);
    }
    let mut tail = 0i64;
    for (&wv, &xv) in wc.remainder().iter().zip(xc.remainder()) {
        tail += i64::from(wv) * i64::from(xv);
    }
    acc + (s[0] + s[1]) + (s[2] + s[3]) + tail
}

/// Naive reference `i32` GEMM with wrapping `i64` accumulation:
/// `out[i][j] = sum_k a[i][k] * b[k][j] (mod 2^64)`.
///
/// # Panics
///
/// Panics on slice length mismatches.
#[must_use]
pub fn gemm_i32_naive(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i64> {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for kk in 0..k {
                acc = acc.wrapping_add(i64::from(a[i * k + kk]) * i64::from(b[kk * n + j]));
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Blocked `i32` GEMM with wrapping `i64` accumulation, identical to
/// [`gemm_i32_naive`] for **any** block sizes `(mb, kb, nb)` — wrapping
/// addition is associative and commutative, so reordering the `k` loop across
/// cache blocks cannot change the result even at `i32` extremes.
///
/// # Panics
///
/// Panics on slice length mismatches or a zero block size.
pub fn gemm_i32_blocked_into(
    a: &[i32],
    b: &[i32],
    m: usize,
    k: usize,
    n: usize,
    (mb, kb, nb): (usize, usize, usize),
    out: &mut [i64],
) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    assert!(mb > 0 && kb > 0 && nb > 0, "block sizes must be positive");
    out.fill(0);
    for i0 in (0..m).step_by(mb) {
        let i1 = (i0 + mb).min(m);
        for k0 in (0..k).step_by(kb) {
            let k1 = (k0 + kb).min(k);
            for j0 in (0..n).step_by(nb) {
                let j1 = (j0 + nb).min(n);
                for i in i0..i1 {
                    for kk in k0..k1 {
                        let av = i64::from(a[i * k + kk]);
                        let brow = &b[kk * n..kk * n + n];
                        let orow = &mut out[i * n..i * n + n];
                        for j in j0..j1 {
                            orow[j] = orow[j].wrapping_add(av * i64::from(brow[j]));
                        }
                    }
                }
            }
        }
    }
}

/// The GEMM epilogue: scales a raw `i64` accumulator by
/// `multiplier / 2^shift` with round-half-away-from-zero and saturates to
/// `i16` — the same fixed-point semantics as `pe::requantize` in dante-accel
/// (cross-checked there against this implementation at the extremes).
///
/// # Panics
///
/// Panics if `shift >= 63`.
#[must_use]
pub fn round_shift_saturate(acc: i64, multiplier: i32, shift: u32) -> i16 {
    assert!(shift < 63, "shift {shift} out of range");
    let prod = i128::from(acc) * i128::from(multiplier);
    let bias = (1i128 << shift) >> 1;
    let rounded = if prod >= 0 {
        (prod + bias) >> shift
    } else {
        -((-prod + bias) >> shift)
    };
    rounded.clamp(i128::from(i16::MIN), i128::from(i16::MAX)) as i16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, zero_frac: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen::<f64>() < zero_frac {
                    0.0
                } else {
                    rng.gen::<f32>() * 2.0 - 1.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn exact_kernel_matches_matmul_bitwise_across_shapes() {
        let mut rng = StdRng::seed_from_u64(0x6E44);
        // Shapes chosen to hit: even/odd m (pair + remainder row), n
        // multiples of NR, ragged right edges, n < NR, k = 1.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 16),
            (3, 7, 10),
            (4, 784, 256),
            (5, 16, 33),
            (7, 5, 17),
            (256, 9, 10),
        ] {
            for &zero_frac in &[0.0, 0.5, 0.95] {
                let a = random_matrix(&mut rng, m, k, zero_frac);
                let b = random_matrix(&mut rng, k, n, 0.0);
                let reference = a.matmul(&b);
                let mut out = vec![0.0f32; m * n];
                matmul_exact_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    reference
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "({m},{k},{n}) zero_frac {zero_frac}"
                );
            }
        }
    }

    #[test]
    fn dense_cols_match_full_product_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xC015);
        let (m, k, n) = (5usize, 12usize, 20usize);
        let x = random_matrix(&mut rng, m, k, 0.4);
        let w = random_matrix(&mut rng, k, n, 0.0);
        let bias: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
        // Full reference: matmul + bias (the Dense::forward recipe).
        let mut reference = x.matmul(&w).into_vec();
        for row in reference.chunks_exact_mut(n) {
            for (o, &b) in row.iter_mut().zip(&bias) {
                *o += b;
            }
        }
        // Start from garbage in the dirty columns, clean values elsewhere.
        let mut out = reference.clone();
        let cols = [0usize, 3, 19];
        for row in out.chunks_exact_mut(n) {
            for &c in &cols {
                row[c] = f32::NAN;
            }
        }
        let mut col_buf = Vec::new();
        dense_cols_into(
            x.as_slice(),
            w.as_slice(),
            &bias,
            m,
            k,
            n,
            &cols,
            &mut col_buf,
            &mut out,
        );
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dot_i16_matches_sequential_fold() {
        let mut rng = StdRng::seed_from_u64(0xD071);
        for len in [0usize, 1, 3, 4, 7, 64, 129] {
            let w: Vec<i16> = (0..len).map(|_| rng.gen::<i16>()).collect();
            let x: Vec<i16> = (0..len).map(|_| rng.gen::<i16>()).collect();
            let reference = w
                .iter()
                .zip(&x)
                .fold(7i64, |acc, (&a, &b)| acc + i64::from(a) * i64::from(b));
            assert_eq!(dot_i16(7, &w, &x), reference, "len {len}");
        }
    }

    #[test]
    fn blocked_i32_gemm_matches_naive_on_a_known_case() {
        let a = vec![1i32, 2, 3, 4, 5, 6];
        let b = vec![7i32, 8, 9, 10, 11, 12];
        let naive = gemm_i32_naive(&a, &b, 2, 3, 2);
        assert_eq!(naive, vec![58, 64, 139, 154]);
        let mut blocked = vec![0i64; 4];
        gemm_i32_blocked_into(&a, &b, 2, 3, 2, (1, 2, 1), &mut blocked);
        assert_eq!(blocked, naive);
    }

    #[test]
    fn round_shift_saturate_rounds_half_away_and_clamps() {
        // 3 * 1 / 2^1 = 1.5 -> 2; -3 * 1 / 2^1 = -1.5 -> -2.
        assert_eq!(round_shift_saturate(3, 1, 1), 2);
        assert_eq!(round_shift_saturate(-3, 1, 1), -2);
        // Saturation at both rails.
        assert_eq!(round_shift_saturate(i64::MAX, i32::MAX, 0), i16::MAX);
        assert_eq!(round_shift_saturate(i64::MIN, i32::MAX, 0), i16::MIN);
        // Exact zero shift is the identity on in-range values.
        assert_eq!(round_shift_saturate(-1234, 1, 0), -1234);
    }

    /// Release-mode kernel speed probe (not a correctness test):
    /// `cargo test --release -p dante-nn -- --ignored gemm_speed --nocapture`.
    #[test]
    #[ignore = "manual perf probe; run in release with --nocapture"]
    fn gemm_speed_probe() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (m, k, n) = (256usize, 784usize, 256usize);
        // ~50% zeros mimics post-ReLU activations.
        let a = random_matrix(&mut rng, m, k, 0.5);
        let b = random_matrix(&mut rng, k, n, 0.0);
        let reps = 20u32;

        let t0 = std::time::Instant::now();
        let mut sink = 0.0f64;
        for _ in 0..reps {
            sink += f64::from(a.matmul(&b).as_slice()[0]);
        }
        let scalar = t0.elapsed().as_secs_f64();

        let mut out = vec![0.0f32; m * n];
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            matmul_exact_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
            sink += f64::from(out[0]);
        }
        let tiled = t0.elapsed().as_secs_f64();

        let macs = (m * k * n) as f64 * f64::from(reps);
        println!(
            "matmul:      {:>8.1} ms  {:>6.2} GMAC/s",
            scalar * 1e3,
            macs / scalar / 1e9
        );
        println!(
            "tiled exact: {:>8.1} ms  {:>6.2} GMAC/s  ({:.2}x, sink {sink:e})",
            tiled * 1e3,
            macs / tiled / 1e9,
            scalar / tiled
        );
    }
}
