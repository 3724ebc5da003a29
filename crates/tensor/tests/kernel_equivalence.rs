//! Bit-for-bit equivalence of the matmul kernels against a naive
//! reference oracle.
//!
//! The kernels (`matmul_into`, `matmul_tn_into`, `matmul_nt_into`) run a
//! register-blocked path for outputs at most 32 floats wide (padded) and
//! cache-blocked loops otherwise. Both promise that they changed only the
//! *order loops visit rows and tiles*, never the per-output-element
//! accumulation sequence — so every float they produce must equal the
//! naive triple loop's output down to the last bit (NaN positions
//! included; payload bits are compiler-unspecified, see
//! `prop_assert_bits_eq`). The oracle below is the pre-blocking kernel kept
//! verbatim (including its zero-skip fast path and lazy finiteness guard);
//! the property suites drive both through random shapes, tile-boundary and
//! width-switch shapes, degenerate 1×N/N×1 shapes, NaN/∞ operands and
//! all-zero rows.

use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use muffin_tensor::{instrument, Matrix};

fn config() -> Config {
    Config::cases(96).with_seed(0x7E45_0006)
}

/// The pre-blocking `matmul` kernel: naive i-k-j with the lazy zero-skip
/// guard. Kept as the oracle the blocked kernel must match bitwise.
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

/// The pre-blocking `matmul_tn` kernel (Aᵀ·B without materialising Aᵀ).
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

/// The pre-blocking `matmul_nt` kernel: one sequential-from-zero dot
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

/// Runs all three blocked kernels against their oracles on one operand
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
    // The kernels tile at 64; shapes straddling 64 (and the lane width 8)
    // exercise full tiles, ragged tail tiles, and their combinations.
    // 24–40 straddle the 32-float small-width switch: padded widths of
    // three and four lanes, and the first blocked widths past it.
    let dims = [1usize, 7, 8, 9, 24, 25, 31, 32, 33, 40, 63, 64, 65, 70];
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
    // scalar products, which hit every kernel's shortest code paths.
    check(
        "blocked == naive on 1xN / Nx1 shapes",
        config(),
        |g: &mut Gen| {
            let n = g.usize_in(1..=80);
            let shape = g.usize_in(0..=2);
            let (m, k, p) = match shape {
                0 => (1, n, g.usize_in(1..=16)),
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
    // NaN/∞ in either operand: disables the zero-skip fast path (for `b`)
    // and checks non-finite values propagate through identical paths.
    check(
        "blocked == naive with NaN/∞ operands",
        config(),
        |g: &mut Gen| {
            let m = g.usize_in(1..=12);
            let k = g.usize_in(1..=12);
            let n = g.usize_in(1..=40);
            let mut a = g.matrix_exact(m, k, -5.0, 5.0);
            let mut b = g.matrix_exact(k, n, -5.0, 5.0);
            for x in a.iter_rows_mut().flatten() {
                if g.bool(0.3) {
                    *x = 0.0;
                }
            }
            for x in b.iter_rows_mut().flatten() {
                if g.bool(0.1) {
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
    // All-zero rows (and heavily sparse operands) drive the zero-skip
    // fast path through whole rank-4 groups and their scalar fallback.
    check(
        "blocked == naive with all-zero rows",
        config(),
        |g: &mut Gen| {
            let m = g.usize_in(2..=16);
            let k = g.usize_in(2..=16);
            let n = g.usize_in(1..=40);
            let mut a = g.matrix_exact(m, k, -5.0, 5.0);
            let mut b = g.matrix_exact(k, n, -5.0, 5.0);
            for r in 0..m {
                if g.bool(0.5) {
                    a.row_mut(r).fill(0.0);
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

// --- finiteness pre-scan accounting -------------------------------------
//
// The blocked kernels hoist the zero-skip finiteness guard into one eager
// pre-scan of the right-hand operand per call. These tests pin the count
// via the thread-local `instrument` counter: a regression back to lazy or
// per-hit re-scanning would produce identical floats and only show up as
// a slowdown, so it is asserted structurally here.

fn scans_during(f: impl FnOnce()) -> u64 {
    let before = instrument::finiteness_scans();
    f();
    instrument::finiteness_scans() - before
}

/// Output widths on each side of the 32-float small-width switch, so the
/// accounting below covers the register-blocked and the blocked path.
const SCAN_WIDTHS: [usize; 2] = [5, 40];

#[test]
fn matmul_scans_its_operand_exactly_once_per_call() {
    for n in SCAN_WIDTHS {
        let a = Matrix::filled(9, 7, 0.0); // all zeros: maximal skip traffic
        let b = Matrix::filled(7, n, 2.0);
        let mut out = Matrix::zeros(0, 0);
        assert_eq!(scans_during(|| a.matmul_into(&b, &mut out)), 1);
        assert_eq!(scans_during(|| drop(a.matmul(&b))), 1);
        assert_eq!(
            scans_during(|| {
                for _ in 0..10 {
                    a.matmul_into(&b, &mut out);
                }
            }),
            10,
            "one scan per call, not amortised across calls"
        );
    }
}

#[test]
fn matmul_tn_scans_its_operand_exactly_once_per_call() {
    for n in SCAN_WIDTHS {
        let a = Matrix::filled(6, 9, 0.0);
        let b = Matrix::filled(6, n, 1.5);
        let mut out = Matrix::zeros(0, 0);
        assert_eq!(scans_during(|| a.matmul_tn_into(&b, &mut out)), 1);
    }
}

#[test]
fn matmul_nt_never_scans() {
    // The nt kernel has no zero-skip fast path, hence nothing to guard.
    for p in SCAN_WIDTHS {
        let a = Matrix::filled(5, 8, 1.0);
        let b = Matrix::filled(p, 8, 1.0);
        let mut out = Matrix::zeros(0, 0);
        assert_eq!(scans_during(|| a.matmul_nt_into(&b, &mut out)), 0);
    }
}

#[test]
fn empty_products_do_not_scan() {
    // Early-outs (any zero dimension) return before the pre-scan.
    let a = Matrix::zeros(0, 4);
    let b = Matrix::zeros(4, 3);
    let mut out = Matrix::zeros(0, 0);
    assert_eq!(scans_during(|| a.matmul_into(&b, &mut out)), 0);
}
