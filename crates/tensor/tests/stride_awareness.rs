//! Stride-awareness of the padded `Matrix` backing store.
//!
//! `Matrix` rows are padded to the SIMD lane width, so every logical
//! operation must index through the row stride and never through a dense
//! `rows * cols` layout. These suites pin that contract three ways:
//! index-oracle agreement for the block-copy operations, byte-stable JSON
//! (padding never leaves the process), and a NaN-poisoning test proving
//! no kernel or serializer ever *reads* a padding lane.

use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use muffin_tensor::{tanh_in_place, Matrix, LANE_WIDTH};

fn config() -> Config {
    Config::cases(64).with_seed(0x7E45_0206)
}

/// Generates a matrix whose column count is *not* a lane multiple (so the
/// store genuinely has padding), up to `max_dim` in either dimension.
fn gen_padded(g: &mut Gen, max_dim: usize) -> Matrix {
    let rows = g.usize_in(1..=max_dim);
    let mut cols = g.usize_in(1..=max_dim);
    if cols % LANE_WIDTH == 0 {
        cols -= 1; // 8 → 7 etc.; max_dim small enough that this stays ≥ 1
    }
    g.matrix_exact(rows, cols.max(1), -9.0, 9.0)
}

/// Overwrites every padding lane of `m` with NaN via the raw-store view.
/// Normal operation keeps padding zeroed; this deliberately violates that
/// to make any accidental read of a padding lane explode into the output.
fn poison_padding(m: &mut Matrix) {
    let (cols, stride) = (m.cols(), m.stride());
    for chunk in m.padded_data_mut().chunks_exact_mut(stride.max(1)) {
        for x in &mut chunk[cols..] {
            *x = f32::NAN;
        }
    }
}

#[test]
fn storage_is_32_byte_aligned_with_lane_stride() {
    check(
        "layout invariants",
        config(),
        |g| gen_padded(g, 13),
        |m| {
            prop_assert_eq!(
                m.stride(),
                (m.cols() + LANE_WIDTH - 1) / LANE_WIDTH * LANE_WIDTH
            );
            prop_assert!(
                m.stride() > m.cols(),
                "gen_padded must produce real padding"
            );
            prop_assert_eq!(m.padded_data().len(), m.rows() * m.stride());
            prop_assert_eq!(m.padded_data().as_ptr() as usize % 32, 0);
            // Freshly constructed storage has zeroed padding.
            let (cols, stride) = (m.cols(), m.stride());
            for chunk in m.padded_data().chunks_exact(stride) {
                prop_assert!(chunk[cols..].iter().all(|&x| x == 0.0));
            }
            Ok(())
        },
    );
}

#[test]
fn json_round_trip_is_byte_identical_and_logical_only() {
    check(
        "padded JSON == unpadded JSON",
        config(),
        |g| gen_padded(g, 11),
        |m| {
            let text = muffin_json::to_string(m);
            // An unpadded twin: same logical elements laid into a matrix whose
            // construction path never saw this instance's padded store.
            let twin = Matrix::from_vec(m.rows(), m.cols(), m.to_vec()).expect("shape");
            prop_assert_eq!(&text, &muffin_json::to_string(&twin));
            // Round trip restores every element bit (serialisation is exact).
            let back: Matrix = muffin_json::from_str(&text).map_err(|e| e.to_string())?;
            prop_assert_eq!(back.shape(), m.shape());
            for (x, y) in back.iter_rows().flatten().zip(m.iter_rows().flatten()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            Ok(())
        },
    );
}

#[test]
fn block_copy_operations_agree_with_index_oracle() {
    check(
        "hcat/select_rows_into/col_sums_into/zip_apply vs get()",
        config(),
        |g: &mut Gen| {
            let a = gen_padded(g, 9);
            let b_cols = g.usize_in(1..=9);
            let b = g.matrix_exact(a.rows(), b_cols, -9.0, 9.0);
            let picks: Vec<usize> = (0..g.usize_in(1..=6))
                .map(|_| g.usize_in(0..=a.rows() - 1))
                .collect();
            (a, b, picks)
        },
        |(a, b, picks)| {
            // hcat: element (r, c) comes from the part owning column c.
            let cat = Matrix::hcat(&[a, b]).map_err(|e| e.to_string())?;
            prop_assert_eq!(cat.shape(), (a.rows(), a.cols() + b.cols()));
            for r in 0..cat.rows() {
                for c in 0..cat.cols() {
                    let want = if c < a.cols() {
                        a.get(r, c)
                    } else {
                        b.get(r, c - a.cols())
                    };
                    prop_assert_eq!(cat.get(r, c).to_bits(), want.to_bits());
                }
            }

            // select_rows_into: row i of the output is row picks[i].
            let mut sel = Matrix::zeros(3, 3);
            a.select_rows_into(picks, &mut sel);
            prop_assert_eq!(sel.shape(), (picks.len(), a.cols()));
            for (i, &src) in picks.iter().enumerate() {
                for c in 0..a.cols() {
                    prop_assert_eq!(sel.get(i, c).to_bits(), a.get(src, c).to_bits());
                }
            }

            // col_sums_into: ascending-row fold per column.
            let mut sums = vec![f32::NAN; 2];
            a.col_sums_into(&mut sums);
            prop_assert_eq!(sums.len(), a.cols());
            for (c, &s) in sums.iter().enumerate() {
                let mut want = 0.0f32;
                for r in 0..a.rows() {
                    want += a.get(r, c);
                }
                prop_assert_eq!(s.to_bits(), want.to_bits());
            }

            // zip_apply: element-wise, logical positions only.
            let other = a.map(|x| x * 0.5 - 1.0);
            let mut applied = a.clone();
            applied.zip_apply(&other, |x, y| x - y);
            for r in 0..a.rows() {
                for c in 0..a.cols() {
                    let want = a.get(r, c) - other.get(r, c);
                    prop_assert_eq!(applied.get(r, c).to_bits(), want.to_bits());
                }
            }
            Ok(())
        },
    );
}

#[test]
fn nothing_reads_poisoned_padding() {
    check(
        "kernels and serializer ignore padding lanes",
        Config::cases(48).with_seed(0x7E45_0306),
        |g: &mut Gen| {
            let a = gen_padded(g, 10);
            // Output widths 25–103 span one to four 32-float register
            // panels, whose last lanes do read the right operand's padding.
            let b_cols = if g.bool(0.5) {
                g.usize_in(1..=10)
            } else {
                g.usize_in(25..=103)
            };
            let b_cols = if b_cols % LANE_WIDTH == 0 {
                b_cols - 1
            } else {
                b_cols
            };
            let b = g.matrix_exact(a.cols(), b_cols, -6.0, 6.0);
            (a, b)
        },
        |(a, b)| {
            let (at, bt) = (a.transpose(), b.transpose());
            let (mut pa, mut pb, mut pat, mut pbt) = (a.clone(), b.clone(), at.clone(), bt.clone());
            for m in [&mut pa, &mut pb, &mut pat, &mut pbt] {
                poison_padding(m);
            }

            // Every kernel output must be bitwise what the clean operands
            // give — a single padding-lane read would surface as NaN.
            let pairs = [
                (a.matmul(b), pa.matmul(&pb)),
                (at.matmul_tn(b), pat.matmul_tn(&pb)),
                (a.matmul_nt(&bt), pa.matmul_nt(&pbt)),
                (a.transpose(), pa.transpose()),
                (a.softmax_rows(), pa.softmax_rows()),
                (a + a, &pa + &pa),
                (a.hadamard(a), pa.hadamard(&pa)),
                (a.scaled(-2.0), pa.scaled(-2.0)),
            ]
            .map(|(clean, poisoned)| (clean.to_vec(), poisoned.to_vec()));
            for (clean, poisoned) in &pairs {
                for (x, y) in clean.iter().zip(poisoned.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }

            // Reductions, row reads and the serializer are logical-only too.
            prop_assert_eq!(a.sum().to_bits(), pa.sum().to_bits());
            prop_assert_eq!(a.norm().to_bits(), pa.norm().to_bits());
            prop_assert_eq!(a.col_sums(), pa.col_sums());
            prop_assert_eq!(a.argmax_rows(), pa.argmax_rows());
            prop_assert_eq!(a.to_vec(), pa.to_vec());
            prop_assert_eq!(muffin_json::to_string(a), muffin_json::to_string(&pa));
            prop_assert!(pa == *a, "logical equality must ignore padding");

            // And kernels never *write* padding either: outputs produced
            // from poisoned inputs still carry pristine zero padding.
            for prod in [pa.matmul(&pb), pat.matmul_tn(&pb), pa.matmul_nt(&pbt)] {
                let (cols, stride) = (prod.cols(), prod.stride());
                for chunk in prod.padded_data().chunks_exact(stride.max(1)) {
                    prop_assert!(chunk[cols..].iter().all(|&x| x == 0.0));
                }
            }

            // The tanh kernel, run over logical rows as the layers run it,
            // gives the clean operand's outputs and leaves every poisoned
            // padding lane as it was (row tails go through a zero-filled
            // lane group, not through the padding).
            for (clean, poisoned) in [(a, &pa), (b, &pb)] {
                let (mut want, mut got) = (clean.clone(), poisoned.clone());
                want.iter_rows_mut().for_each(tanh_in_place);
                got.iter_rows_mut().for_each(tanh_in_place);
                for (x, y) in want.to_vec().iter().zip(got.to_vec().iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                let (cols, stride) = (got.cols(), got.stride());
                let rows = got.padded_data().chunks_exact(stride);
                for (after, before) in rows.zip(poisoned.padded_data().chunks_exact(stride)) {
                    prop_assert!(after[cols..]
                        .iter()
                        .zip(&before[cols..])
                        .all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn resize_zeroed_scrubs_previously_poisoned_store() {
    // `resize_zeroed` re-establishes the all-zero-padding invariant even
    // if the store was deliberately corrupted beforehand.
    let mut m = Matrix::filled(4, 5, 3.0);
    poison_padding(&mut m);
    m.resize_zeroed(3, 6);
    assert!(m.padded_data().iter().all(|&x| x == 0.0));
}

#[test]
fn row_range_is_byte_identical_to_select_rows_even_with_poisoned_padding() {
    check(
        "row_range == select_rows bytes, padding stays zero",
        config(),
        |g| {
            let m = gen_padded(g, 9);
            let start = g.usize_in(0..=m.rows());
            let end = g.usize_in(start..=m.rows());
            (m, start, end)
        },
        |(m, start, end)| {
            // Poison the source's padding: the block copy must not leak it
            // into the output's (zero by contract) padding lanes.
            let mut poisoned = m.clone();
            poison_padding(&mut poisoned);
            let indices: Vec<usize> = (*start..*end).collect();
            let want = m.select_rows(&indices);
            let got = poisoned.row_range(*start..*end);
            prop_assert_eq!(got.shape(), want.shape());
            for (x, y) in got.padded_data().iter().zip(want.padded_data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // Reuse path scrubs a previously poisoned destination too.
            let mut reused = gen_reuse_target();
            poison_padding(&mut reused);
            poisoned.row_range_into(*start..*end, &mut reused);
            for (x, y) in reused.padded_data().iter().zip(want.padded_data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            Ok(())
        },
    );
}

/// A small scratch matrix for the `row_range_into` reuse check.
fn gen_reuse_target() -> Matrix {
    Matrix::filled(3, 5, 1.25)
}

#[test]
#[should_panic(expected = "out of bounds")]
fn row_range_panics_past_the_last_row() {
    let m = Matrix::filled(4, 3, 1.0);
    let _ = m.row_range(2..5);
}
