//! Bit-for-bit equivalence of the matmul kernels against a naive
//! reference oracle.
//!
//! The kernels (`matmul_into`, `matmul_tn_into`, `matmul_nt_into`) hold
//! each output row in register panels of at most 32 floats across the
//! whole shared dimension; `matmul_nt` folds its shared dimension in
//! chunks of 32 steps, passing partial sums through the output row. They
//! change only the *order rows and panels are visited*, never the
//! per-output-element accumulation sequence — so every float they produce
//! must equal the naive triple loop's output down to the last bit (NaN
//! positions included; payload bits are compiler-unspecified, see
//! `prop_assert_bits_eq`).
//!
//! The oracle below is the original naive kernel kept verbatim, including
//! its zero-skip fast path and lazy finiteness guard, while the kernels
//! never skip. They must still agree: `matmul` and `matmul_tn` seed every
//! accumulator with `+0.0`, which no IEEE sum turns into `-0.0` (a sum is
//! `-0.0` only when both addends are), so a skipped `0·b` term — `±0`
//! whenever the right operand is all-finite, the only case the oracle
//! skips — is an identity add. With a non-finite right operand the oracle
//! skips nothing and `0·∞` propagates as NaN in both.
//!
//! The property suites drive both through random shapes, panel-boundary
//! shapes (several panels plus 8-, 16- and 24-float tails), degenerate
//! 1×N/N×1 shapes, NaN/∞ operands and all-zero rows, with shared
//! dimensions past one and two `matmul_nt` chunks.

use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use muffin_tensor::Matrix;

fn config() -> Config {
    Config::cases(96).with_seed(0x7E45_0006)
}

/// The original `matmul` kernel: naive i-k-j with the lazy zero-skip
/// guard. Kept as the oracle the panel kernel must match bitwise.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    let mut skip_zeros: Option<bool> = None;
    for i in 0..m {
        for kk in 0..k {
            let av = a.get(i, kk);
            if av == 0.0
                && *skip_zeros.get_or_insert_with(|| {
                    b.iter_rows().flatten().all(|x| x.is_finite())
                })
            {
                continue;
            }
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(kk, j));
            }
        }
    }
    out
}

/// The original `matmul_tn` kernel (Aᵀ·B without materialising Aᵀ).
fn naive_matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows());
    let (r_dim, c_dim, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(c_dim, n);
    let mut skip_zeros: Option<bool> = None;
    for r in 0..r_dim {
        for i in 0..c_dim {
            let av = a.get(r, i);
            if av == 0.0
                && *skip_zeros.get_or_insert_with(|| {
                    b.iter_rows().flatten().all(|x| x.is_finite())
                })
            {
                continue;
            }
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(r, j));
            }
        }
    }
    out
}

/// The original `matmul_nt` kernel: one sequential-from-zero dot
/// product per output element, folded exactly like `Iterator::sum`.
fn naive_matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols());
    let (m, p) = (a.rows(), b.rows());
    let mut out = Matrix::zeros(m, p);
    for i in 0..m {
        for j in 0..p {
            let dot: f32 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
            out.set(i, j, dot);
        }
    }
    out
}

/// Asserts two same-shape matrices are equal bit by bit for every non-NaN
/// element (+0.0 distinguished from -0.0, infinities exact) and agree on
/// NaN *positions*.
///
/// NaN payload/sign bits are deliberately not compared: when two NaNs
/// meet in an addition, IEEE 754 and LLVM both leave the surviving
/// payload unspecified, and the compiler may emit the commutative `fadd`
/// with either operand order — so two compilations of the *same* source
/// can legitimately differ in which NaN's bits survive. Everything the
/// workspace's determinism contract covers (the golden snapshot, training
/// numerics) is non-NaN, where equality really is bit-for-bit.
fn prop_assert_bits_eq(actual: &Matrix, expected: &Matrix, label: &str) -> Result<(), String> {
    prop_assert_eq!(actual.shape(), expected.shape());
    for (r, (got, want)) in actual.iter_rows().zip(expected.iter_rows()).enumerate() {
        for (c, (x, y)) in got.iter().zip(want.iter()).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{label} diverges at ({r},{c}): {x:?} ({:#010x}) vs {y:?} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
    Ok(())
}

/// Runs all three kernels against their oracles on one operand
/// pair shaped for `matmul` (a: m×k, b: k×n).
fn assert_all_kernels_match(a: &Matrix, b: &Matrix) -> Result<(), String> {
    if a.cols() != b.rows() {
        // Tuple shrinking resizes `a` and `b` independently; skip the
        // shapes it decouples rather than panicking mid-shrink.
        return Ok(());
    }
    prop_assert_bits_eq(&a.matmul(b), &naive_matmul(a, b), "matmul")?;
    // Reuse the same data for the transposed variants via explicit
    // transposes, so every generated pattern exercises all three kernels.
    let at = a.transpose();
    prop_assert_bits_eq(&at.matmul_tn(b), &naive_matmul_tn(&at, b), "matmul_tn")?;
    let bt = b.transpose();
    prop_assert_bits_eq(&a.matmul_nt(&bt), &naive_matmul_nt(a, &bt), "matmul_nt")?;
    Ok(())
}

#[test]
fn blocked_kernels_match_oracle_on_random_shapes() {
    check(
        "blocked == naive on random shapes",
        config(),
        |g: &mut Gen| {
            let m = g.usize_in(1..=24);
            let k = g.usize_in(1..=24);
            let n = g.usize_in(1..=24);
            (g.matrix_exact(m, k, -8.0, 8.0), g.matrix_exact(k, n, -8.0, 8.0))
        },
        |(a, b)| assert_all_kernels_match(a, b),
    );
}

#[test]
fn blocked_kernels_match_oracle_across_tile_boundaries() {
    // Output widths straddling the lane width (8) and the 32-float panel
    // give one-panel products of one to four lanes; 33–104 give several
    // panels with tails of 8, 16 and 24 floats (padded 40, 48, 72, 104)
    // or none (64, 96). As shared dimensions, 33–104 split `matmul_nt`
    // into two to four chunks, ragged or whole.
    let dims = [
        1usize, 7, 8, 9, 24, 25, 31, 32, 33, 40, 48, 63, 64, 65, 70, 72, 96, 97, 104,
    ];
    check(
        "blocked == naive at tile-boundary shapes",
        Config::cases(96).with_seed(0x7E45_0106),
        |g: &mut Gen| {
            let m = dims[g.usize_in(0..=dims.len() - 1)];
            let k = dims[g.usize_in(0..=dims.len() - 1)];
            let n = dims[g.usize_in(0..=dims.len() - 1)];
            (g.matrix_exact(m, k, -4.0, 4.0), g.matrix_exact(k, n, -4.0, 4.0))
        },
        |(a, b)| assert_all_kernels_match(a, b),
    );
}

#[test]
fn blocked_kernels_match_oracle_on_vector_shapes() {
    // 1×N, N×1 and 1×1 degenerate shapes: single-row, single-column and
    // scalar products, which hit every kernel's shortest code paths. The
    // 1-row products up to 104 wide are the serving and controller shapes.
    check(
        "blocked == naive on 1xN / Nx1 shapes",
        config(),
        |g: &mut Gen| {
            let n = g.usize_in(1..=104);
            let shape = g.usize_in(0..=2);
            let (m, k, p) = match shape {
                0 => (1, n, g.usize_in(1..=104)),
                1 => (g.usize_in(1..=16), n, 1),
                _ => (1, 1, 1),
            };
            (g.matrix_exact(m, k, -8.0, 8.0), g.matrix_exact(k, p, -8.0, 8.0))
        },
        |(a, b)| assert_all_kernels_match(a, b),
    );
}

#[test]
fn blocked_kernels_match_oracle_with_nonfinite_operands() {
    // NaN/∞ in either operand: disables the oracle's zero-skip (for `b`)
    // and checks non-finite values propagate through identical paths.
    // `±0` coefficients against ∞ must give NaN in every panel and every
    // `matmul_nt` chunk, so widths reach 104 and shared dimensions 72.
    check(
        "blocked == naive with NaN/∞ operands",
        config(),
        |g: &mut Gen| {
            let m = g.usize_in(1..=12);
            let k = g.usize_in(1..=72);
            let n = g.usize_in(1..=104);
            let mut a = g.matrix_exact(m, k, -5.0, 5.0);
            let mut b = g.matrix_exact(k, n, -5.0, 5.0);
            for x in a.iter_rows_mut().flatten() {
                if g.bool(0.3) {
                    *x = if g.bool(0.5) { 0.0 } else { -0.0 };
                }
            }
            // About one non-finite value per column, so that some output
            // columns stay finite however long the shared dimension.
            let rate = 1.0 / k as f32;
            for x in b.iter_rows_mut().flatten() {
                if g.bool(rate) {
                    *x = if g.bool(0.5) { f32::NAN } else { f32::NEG_INFINITY };
                }
            }
            (a, b)
        },
        |(a, b)| assert_all_kernels_match(a, b),
    );
}

#[test]
fn blocked_kernels_match_oracle_with_zero_rows() {
    // All-zero rows and scattered `±0` coefficients: every term the
    // oracle skips is one the kernels add, in every panel and every
    // `matmul_nt` chunk, and `matmul_nt` keeps the sign of a dot product
    // whose every term is `-0.0`.
    check(
        "blocked == naive with all-zero rows",
        config(),
        |g: &mut Gen| {
            let m = g.usize_in(2..=16);
            let k = g.usize_in(2..=72);
            let n = g.usize_in(1..=104);
            let mut a = g.matrix_exact(m, k, -5.0, 5.0);
            let mut b = g.matrix_exact(k, n, -5.0, 5.0);
            for r in 0..m {
                if g.bool(0.5) {
                    a.row_mut(r).fill(if g.bool(0.5) { 0.0 } else { -0.0 });
                }
            }
            for x in a.iter_rows_mut().flatten() {
                if g.bool(0.1) {
                    *x = -0.0;
                }
            }
            // Signed zeros too: the skip condition treats -0.0 as zero.
            for x in b.iter_rows_mut().flatten() {
                if g.bool(0.2) {
                    *x = -0.0;
                }
            }
            (a, b)
        },
        |(a, b)| assert_all_kernels_match(a, b),
    );
}
