//! Benches for the tensor substrate: the matmul, tanh and softmax kernels
//! every training loop in the workspace sits on.

use muffin_bench::timing::{black_box, Harness};
use muffin_tensor::{tanh_in_place, Init, Matrix, Rng64};

fn bench_matmul(h: &mut Harness) {
    for &n in &[16usize, 64, 128] {
        let mut rng = Rng64::seed(1);
        let a = Matrix::random(n, n, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        let b = Matrix::random(n, n, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        h.bench(&format!("matmul/square/{n}"), || black_box(a.matmul(&b)));
    }
    // The allocation-free variant the training loop uses: same kernel,
    // output buffer reused across calls.
    let mut rng = Rng64::seed(1);
    let a = Matrix::random(128, 128, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let b = Matrix::random(128, 128, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let mut out = Matrix::zeros(128, 128);
    h.bench("matmul_into/square/128", || {
        a.matmul_into(&b, &mut out);
        black_box(out.get(0, 0))
    });
}

/// Rows first written for the cache-blocked kernels the register-panel
/// kernels replaced; the names stay so that `scripts/bench-compare.sh`
/// still pairs them with older results. They time several-panel products:
/// a ragged width that forces a padded stride and a tail panel, the
/// head-training batch shape, and the transposed variants over a shared
/// dimension of four 32-step chunks.
fn bench_matmul_blocked(h: &mut Harness) {
    let mut rng = Rng64::seed(4);
    let mut out = Matrix::zeros(0, 0);

    // 100 is not a multiple of the lane width: the stride pads 100 → 104,
    // three 32-float panels and an 8-float tail of which 4 are logical.
    let a = Matrix::random(100, 100, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let b = Matrix::random(100, 100, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    h.bench("matmul_blocked/ragged/100", || {
        a.matmul_into(&b, &mut out);
        black_box(out.get(0, 0))
    });

    // Batch-shaped product (tall-skinny times small), the head-training
    // shape: one 32-float panel.
    let x = Matrix::random(512, 64, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let w = Matrix::random(64, 32, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    h.bench("matmul_blocked/tall/512x64x32", || {
        x.matmul_into(&w, &mut out);
        black_box(out.get(0, 0))
    });

    let s = Matrix::random(128, 128, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let t = Matrix::random(128, 128, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    h.bench("matmul_blocked/tn/128", || {
        s.matmul_tn_into(&t, &mut out);
        black_box(out.get(0, 0))
    });
    h.bench("matmul_blocked/nt/128", || {
        s.matmul_nt_into(&t, &mut out);
        black_box(out.get(0, 0))
    });
}

fn bench_matmul_transposed_variants(h: &mut Harness) {
    let mut rng = Rng64::seed(2);
    let a = Matrix::random(256, 64, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let b = Matrix::random(256, 32, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let bt = Matrix::random(32, 64, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    h.bench("matmul_tn/256x64_256x32", || black_box(a.matmul_tn(&b)));
    h.bench("matmul_nt/256x64_32x64", || black_box(a.matmul_nt(&bt)));
}

/// The tanh kernel over the hidden activations of one `[13,16,18]` tanh
/// head step, 64 rows × 47 values, row by row as `Mlp` applies it: whole
/// lane groups, then row tails of 5, 0 and 2 values in zero-filled
/// groups. The kernel is branch-free, so its time does not depend on the
/// values, which repeated application moves only slowly towards 0.
fn bench_tanh(h: &mut Harness) {
    let mut rng = Rng64::seed(5);
    let mut blocks: Vec<Matrix> = [13, 16, 18]
        .map(|width| Matrix::random(64, width, Init::ScaledNormal { std_dev: 2.0 }, &mut rng))
        .into();
    h.bench("tanh_in_place/64x47", || {
        for block in &mut blocks {
            block.iter_rows_mut().for_each(tanh_in_place);
        }
        black_box(blocks[0].get(0, 0))
    });
}

fn bench_softmax(h: &mut Harness) {
    let mut rng = Rng64::seed(3);
    let logits = Matrix::random(512, 8, Init::ScaledNormal { std_dev: 2.0 }, &mut rng);
    h.bench("softmax_rows/512x8", || black_box(logits.softmax_rows()));
    h.bench("argmax_rows/512x8", || black_box(logits.argmax_rows()));
}

fn main() {
    let mut h = Harness::new("tensor_ops");
    bench_matmul(&mut h);
    bench_matmul_blocked(&mut h);
    bench_matmul_transposed_variants(&mut h);
    bench_tanh(&mut h);
    bench_softmax(&mut h);
    h.finish();
}
