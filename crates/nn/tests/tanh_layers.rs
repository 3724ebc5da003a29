//! The tanh layers against an element-wise oracle, bit for bit.
//!
//! `Mlp` and `RnnCell` run `muffin_tensor::tanh_in_place` over each
//! logical row. Each oracle below repeats the layer's own linear algebra
//! and runs the kernel on one element at a time, so what is checked here
//! is the layers' row and tail handling; `muffin-tensor`'s
//! `tanh_exactness` pins the kernel itself to fdlibm's `tanhf`.
//! Neither side calls the host's `f32::tanh`, so these tests hold on any
//! libm. Widths 5, 13, 18 and 47 leave row tails of 5, 5, 2 and 7 lanes,
//! so the zero-filled tail group runs as well as whole lane groups.

use muffin_nn::{Activation, Mlp, MlpCache, MlpSpec, Parameterized, RnnCell};
use muffin_tensor::{tanh_in_place, Init, Matrix, Rng64};

const WIDTHS: [usize; 4] = [5, 13, 18, 47];

/// The kernel on a one-element slice.
fn tanh_one(x: f32) -> f32 {
    let mut v = [x];
    tanh_in_place(&mut v);
    v[0]
}

fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    for (i, (x, y)) in got.to_vec().iter().zip(want.to_vec()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// `Mlp::forward` with the kernel applied element by element.
fn oracle_forward(mlp: &Mlp, x: &Matrix) -> Matrix {
    let last = mlp.layers().len() - 1;
    let mut h = x.clone();
    for (i, layer) in mlp.layers().iter().enumerate() {
        h = layer.forward(&h);
        if i < last {
            h.map_in_place(tanh_one);
        }
    }
    h
}

#[test]
fn tanh_mlp_forward_passes_equal_the_element_wise_oracle() {
    let mut rng = Rng64::seed(0x7A4B);
    // Each width as the one hidden layer, then all four chained.
    let hiddens = WIDTHS.map(|w| vec![w]).into_iter().chain([WIDTHS.to_vec()]);
    let mut cache = MlpCache::new();
    for hidden in hiddens {
        let spec = MlpSpec::new(7, &hidden, 3).with_activation(Activation::Tanh);
        let mlp = Mlp::new(&spec, &mut rng);
        for rows in [1, 9, 64] {
            let x = Matrix::random(rows, 7, Init::ScaledNormal { std_dev: 4.0 }, &mut rng);
            let want = oracle_forward(&mlp, &x);
            let what = format!("hidden {hidden:?}, {rows} rows");
            assert_same_bits(&mlp.forward(&x), &want, &format!("forward, {what}"));
            mlp.forward_train_into(&x, &mut cache);
            assert_same_bits(
                cache.logits(),
                &want,
                &format!("forward_train_into, {what}"),
            );
        }
    }
}

#[test]
fn rnn_steps_equal_the_element_wise_oracle() {
    let mut rng = Rng64::seed(0x7A4C);
    let input = 4;
    for hidden in WIDTHS {
        // The cell's parameters, visited as wx, wh, bias, are overwritten
        // with these so that the oracle can use them.
        let wx = Matrix::random(input, hidden, Init::ScaledNormal { std_dev: 1.5 }, &mut rng);
        let wh = Matrix::random(
            hidden,
            hidden,
            Init::ScaledNormal { std_dev: 1.5 },
            &mut rng,
        );
        let bias: Vec<f32> = (0..hidden).map(|i| i as f32 * 0.25 - 2.0).collect();
        let mut cell = RnnCell::new(input, hidden, &mut rng);
        let mut sources = [wx.padded_data(), wh.padded_data(), &bias].into_iter();
        cell.visit_params(&mut |p, _| p.copy_from_slice(sources.next().expect("three buffers")));
        for rows in [1, 3] {
            let x = Matrix::random(rows, input, Init::ScaledNormal { std_dev: 2.0 }, &mut rng);
            let h = Matrix::random(rows, hidden, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            let mut want = x.matmul(&wx);
            want.axpy(1.0, &h.matmul(&wh));
            want.add_row_in_place(&bias);
            want.map_in_place(tanh_one);
            let (got, _) = cell.forward(&x, &h);
            assert_same_bits(&got, &want, &format!("hidden {hidden}, {rows} rows"));
        }
    }
}
