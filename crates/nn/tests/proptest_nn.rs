//! Property-based tests for the neural-network substrate, running on the
//! in-repo `muffin-check` harness with pinned seeds.

use muffin_check::{check, prop_assert, Config};
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
