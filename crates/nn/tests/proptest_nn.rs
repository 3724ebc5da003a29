//! Property-based tests for the neural-network substrate, running on the
//! in-repo `muffin-check` harness with pinned seeds.

use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use muffin_nn::{
    accuracy, cross_entropy_loss, one_hot, weighted_mse_loss, Activation, Linear, Mlp, MlpSpec,
    Optimizer, Parameterized, SgdConfig,
};
use muffin_tensor::{Init, Matrix, Rng64};

fn config() -> Config {
    Config::cases(32).with_seed(0x7E45_0002)
}

#[test]
fn linear_forward_is_affine() {
    check(
        "linear layers are affine maps",
        config(),
        |g| (g.u64() % 1000, g.f32_in(0.1, 3.0)),
        |&(seed, scale)| {
            let mut rng = Rng64::seed(seed);
            let layer = Linear::new(4, 3, &mut rng);
            let x = Matrix::random(5, 4, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            let y = Matrix::random(5, 4, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            // f(x + y) − f(y) == f(x) − f(0)  (affine maps differ by constant)
            let lhs = &layer.forward(&(&x + &y)) - &layer.forward(&y);
            let rhs = &layer.forward(&x) - &layer.forward(&Matrix::zeros(5, 4));
            for (a, b) in lhs.iter_rows().flatten().zip(rhs.iter_rows().flatten()) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
            // Scaling the zero-bias part is homogeneous.
            let f0 = layer.forward(&Matrix::zeros(5, 4));
            let fx = &layer.forward(&x) - &f0;
            let fsx = &layer.forward(&x.scaled(scale)) - &f0;
            for (a, b) in fsx.iter_rows().flatten().zip(fx.iter_rows().flatten()) {
                prop_assert!((a - b * scale).abs() < 1e-2 * scale.max(1.0));
            }
            Ok(())
        },
    );
}

#[test]
fn cross_entropy_is_nonnegative_and_finite() {
    check(
        "CE loss >= 0, grad rows sum to 0",
        config(),
        |g| (g.u64() % 1000, g.usize_in(1..=31)),
        |&(seed, n)| {
            let mut rng = Rng64::seed(seed);
            let logits = Matrix::random(n, 5, Init::ScaledNormal { std_dev: 3.0 }, &mut rng);
            let labels: Vec<usize> = (0..n).map(|_| rng.below(5)).collect();
            let (loss, grad) = cross_entropy_loss(&logits, &labels);
            prop_assert!(loss >= 0.0);
            prop_assert!(loss.is_finite());
            prop_assert!(grad.iter_rows().flatten().all(|g| g.is_finite()));
            // Gradient rows sum to zero: softmax minus one-hot.
            for row in grad.iter_rows() {
                let s: f32 = row.iter().sum();
                prop_assert!(s.abs() < 1e-5, "row sum {s}");
            }
            Ok(())
        },
    );
}

#[test]
fn weighted_mse_scales_linearly_with_weights() {
    check(
        "uniform weight rescale cancels in Eq. 2",
        config(),
        |g| (g.u64() % 1000, g.f32_in(0.5, 4.0)),
        |&(seed, factor)| {
            let mut rng = Rng64::seed(seed);
            let pred = Matrix::random(6, 3, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            let labels: Vec<usize> = (0..6).map(|_| rng.below(3)).collect();
            let targets = one_hot(&labels, 3);
            let w1 = vec![1.0f32; 6];
            let w2 = vec![factor; 6];
            // Uniform re-scaling of all weights cancels in the normalised loss.
            let (l1, g1) = weighted_mse_loss(&pred, &targets, &w1);
            let (l2, g2) = weighted_mse_loss(&pred, &targets, &w2);
            prop_assert!((l1 - l2).abs() < 1e-4, "{l1} vs {l2}");
            for (a, b) in g1.iter_rows().flatten().zip(g2.iter_rows().flatten()) {
                prop_assert!((a - b).abs() < 1e-5);
            }
            Ok(())
        },
    );
}

#[test]
fn one_sgd_step_decreases_loss_on_fixed_batch() {
    check(
        "one SGD step cannot raise fixed-batch loss",
        config(),
        |g| g.u64() % 500,
        |&seed| {
            let mut rng = Rng64::seed(seed);
            let spec = MlpSpec::new(3, &[6], 2).with_activation(Activation::Tanh);
            let mut mlp = Mlp::new(&spec, &mut rng);
            let x = Matrix::random(16, 3, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            let labels: Vec<usize> = (0..16).map(|_| rng.below(2)).collect();
            let (logits, cache) = mlp.forward_train(&x);
            let (before, grad) = cross_entropy_loss(&logits, &labels);
            mlp.zero_grad();
            mlp.backward(&cache, &grad);
            let mut opt = Optimizer::sgd(SgdConfig { momentum: 0.0, weight_decay: 0.0 });
            opt.step(&mut mlp, 0.01);
            let (after, _) = cross_entropy_loss(&mlp.forward(&x), &labels);
            prop_assert!(after <= before + 1e-5, "loss rose: {before} -> {after}");
            Ok(())
        },
    );
}

#[test]
fn forward_over_any_row_subset_equals_those_rows_of_the_full_batch() {
    // Consensus gating runs the head on the disputed rows alone, which
    // changes no answer only because a row's logits do not depend on the
    // other rows of its batch. Hidden widths 5, 13 and 18 end in lane tails.
    check(
        "Mlp::forward gives a row the same bits in any batch",
        config(),
        |g| {
            let depth = g.usize_in(0..=3);
            let hidden: Vec<usize> = (0..depth).map(|_| g.usize_in(0..=2)).collect();
            let rows = g.usize_in(1..=40);
            let keep: Vec<bool> = (0..rows).map(|_| g.bool(0.5)).collect();
            (g.u64() % 1000, g.usize_in(0..=23), hidden, keep)
        },
        |(seed, input, hidden, keep)| {
            let input = input % 24 + 1;
            let hidden: Vec<usize> = hidden.iter().map(|&i| [5, 13, 18][i % 3]).collect();
            let subset: Vec<usize> = (0..keep.len()).filter(|&r| keep[r]).collect();
            for act in Activation::SEARCHABLE {
                let mut rng = Rng64::seed(*seed);
                let mlp = Mlp::new(
                    &MlpSpec::new(input, &hidden, 8).with_activation(act),
                    &mut rng,
                );
                let x = Matrix::random(
                    keep.len(),
                    input,
                    Init::ScaledNormal { std_dev: 2.0 },
                    &mut rng,
                );
                let full = mlp.forward(&x);
                let part = mlp.forward(&x.select_rows(&subset));
                prop_assert_eq!(part.shape(), (subset.len(), 8));
                for (r, &s) in subset.iter().enumerate() {
                    let (a, b) = (part.row(r), full.row(s));
                    prop_assert!(
                        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{act} {hidden:?}, row {s}: {a:?} vs {b:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn predictions_are_always_valid_classes() {
    check(
        "predict emits in-range classes",
        config(),
        |g| (g.u64() % 1000, g.usize_in(2..=8)),
        |&(seed, classes)| {
            let mut rng = Rng64::seed(seed);
            let mlp = Mlp::new(&MlpSpec::new(4, &[5], classes), &mut rng);
            let x = Matrix::random(10, 4, Init::ScaledNormal { std_dev: 2.0 }, &mut rng);
            let preds = mlp.predict(&x);
            prop_assert!(preds.iter().all(|&p| p < classes));
            let labels: Vec<usize> = (0..10).map(|_| rng.below(classes)).collect();
            let acc = accuracy(&preds, &labels);
            prop_assert!((0.0..=1.0).contains(&acc));
            Ok(())
        },
    );
}

#[test]
fn grad_clipping_never_increases_norm() {
    check(
        "clip_grad_norm caps the gradient norm",
        config(),
        |g| (g.u64() % 1000, g.f32_in(0.1, 10.0)),
        |&(seed, max_norm)| {
            let mut rng = Rng64::seed(seed);
            let mut mlp = Mlp::new(&MlpSpec::new(3, &[4], 2), &mut rng);
            let x = Matrix::random(8, 3, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            let labels: Vec<usize> = (0..8).map(|_| rng.below(2)).collect();
            let (logits, cache) = mlp.forward_train(&x);
            let (_, grad) = cross_entropy_loss(&logits, &labels);
            mlp.zero_grad();
            mlp.backward(&cache, &grad);
            let before = mlp.grad_norm();
            mlp.clip_grad_norm(max_norm);
            let after = mlp.grad_norm();
            prop_assert!(after <= before + 1e-5);
            prop_assert!(after <= max_norm + 1e-3);
            Ok(())
        },
    );
}

/// `(params, grads)` buffers, visited in order.
struct Params(Vec<(Vec<f32>, Vec<f32>)>);

impl Parameterized for Params {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for (p, g) in &mut self.0 {
            f(p, g);
        }
    }
}

/// A value that is an exact zero, a subnormal (either sign) or uniform.
fn sgd_value(g: &mut Gen, lo: f32, hi: f32) -> f32 {
    if g.bool(0.2) {
        0.0
    } else if g.bool(0.25) {
        let bits = 1 + (g.u64() % 0x007F_FFFF) as u32;
        let sign = if g.bool(0.5) { 0x8000_0000 } else { 0 };
        f32::from_bits(sign | bits)
    } else {
        g.f32_in(lo, hi)
    }
}

#[test]
fn sgd_step_is_the_indexed_update_bit_for_bit() {
    check(
        "SGD step == grad = g + wd*p; v = m*v + grad; p -= lr*v",
        config(),
        |g| {
            // Per buffer: params, grads and the velocity the optimizer
            // starts from.
            let buffers: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..g.usize_in(1..=4))
                .map(|_| {
                    let mut len = g.usize_in(1..=40);
                    if len % 8 == 0 {
                        len += 1;
                    }
                    let p = (0..len).map(|_| sgd_value(g, -2.0, 2.0)).collect();
                    let grad = (0..len).map(|_| sgd_value(g, -1.0, 1.0)).collect();
                    // Tiny velocities decay into subnormals; start some there.
                    let v = (0..len).map(|_| sgd_value(g, -1e-3, 1e-3)).collect();
                    (p, grad, v)
                })
                .collect();
            (buffers, g.bool(0.5), g.f32_in(0.01, 0.5))
        },
        |(buffers, decay, lr)| {
            if buffers
                .iter()
                .any(|(p, g, v)| g.len() != p.len() || v.len() != p.len())
            {
                // Shrinking resizes the three vectors independently.
                return Ok(());
            }
            let config = SgdConfig {
                momentum: 0.9,
                weight_decay: if *decay { 1e-4 } else { 0.0 },
            };
            let mut model = Params(
                buffers
                    .iter()
                    .map(|(p, g, _)| (p.clone(), g.clone()))
                    .collect(),
            );
            let mut velocity: Vec<Vec<f32>> = buffers.iter().map(|(_, _, v)| v.clone()).collect();
            let mut optimizer = Optimizer::Sgd {
                config,
                velocity: velocity.clone(),
            };
            let mut want: Vec<Vec<f32>> = buffers.iter().map(|(p, _, _)| p.clone()).collect();
            // Three steps on the same gradients carry the velocity forward.
            for _ in 0..3 {
                optimizer.step(&mut model, *lr);
                for ((p, (_, g, _)), v) in want.iter_mut().zip(buffers.iter()).zip(&mut velocity) {
                    for i in 0..p.len() {
                        let grad = g[i] + config.weight_decay * p[i];
                        v[i] = config.momentum * v[i] + grad;
                        p[i] -= *lr * v[i];
                    }
                }
            }
            let Optimizer::Sgd {
                velocity: got_velocity,
                ..
            } = &optimizer
            else {
                return Err("the optimizer stopped being SGD".into());
            };
            for (((got_p, _), want_p), (got_v, want_v)) in model
                .0
                .iter()
                .zip(&want)
                .zip(got_velocity.iter().zip(&velocity))
            {
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got_p), bits(want_p));
                prop_assert_eq!(bits(got_v), bits(want_v));
            }
            Ok(())
        },
    );
}
