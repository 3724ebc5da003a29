//! Benches for the neural-network substrate: forward passes, the training
//! step muffin heads take, and the Eq. 2 weighted-MSE loss they train with.

use muffin_bench::timing::{black_box, Harness};
use muffin_nn::{
    one_hot, weighted_cross_entropy_loss, weighted_mse_loss, Activation, Mlp, MlpCache, MlpSpec,
    Optimizer, Parameterized, SgdConfig,
};
use muffin_tensor::{Init, Matrix, Rng64};

/// Classes every head predicts, as in the benchmark's scenarios.
const CLASSES: usize = 8;
/// Mini-batch size and gradient-norm clip of head training.
const BATCH: usize = 64;
const GRAD_CLIP: f32 = 5.0;

fn bench_mlp_passes(h: &mut Harness) {
    let mut rng = Rng64::seed(4);
    // A muffin-head-sized network on a 64-sample batch.
    let spec = MlpSpec::new(16, &[16, 18, 12, 8], 8);
    let mlp = Mlp::new(&spec, &mut rng);
    let x = Matrix::random(64, 16, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    h.bench("head_forward/64x16", || black_box(mlp.forward(&x)));
}

/// One `ClassifierTrainer::fit` step (forward, Eq. 2 loss, backward,
/// clip, SGD) for each head shape the fixed-seed `search-cold` search
/// trains, on a batch of softmax rows like the body outputs heads see.
fn bench_head_train_steps(h: &mut Harness) {
    let heads: [(&str, usize, &[usize], Activation); 4] = [
        ("in8_12_8_tanh", 8, &[12, 8], Activation::Tanh),
        ("in8_13_16_18_tanh", 8, &[13, 16, 18], Activation::Tanh),
        (
            "in16_12_16_12_8_leaky_relu",
            16,
            &[12, 16, 12, 8],
            Activation::LeakyRelu,
        ),
        ("in16_10_12_13_relu", 16, &[10, 12, 13], Activation::Relu),
    ];
    for (name, inputs, hidden, activation) in heads {
        let mut rng = Rng64::seed(6);
        let spec = MlpSpec::new(inputs, hidden, CLASSES).with_activation(activation);
        let mut mlp = Mlp::new(&spec, &mut rng);
        let logits = Matrix::random(BATCH, inputs, Init::ScaledNormal { std_dev: 2.0 }, &mut rng);
        let x = logits.softmax_rows();
        let labels: Vec<usize> = (0..BATCH).map(|_| rng.below(CLASSES)).collect();
        let targets = one_hot(&labels, CLASSES);
        let weights: Vec<f32> = (0..BATCH).map(|i| 1.0 + (i % 3) as f32).collect();
        let mut optimizer = Optimizer::sgd(SgdConfig::default());
        let mut cache = MlpCache::new();
        h.bench(&format!("head_train_step/{name}"), || {
            mlp.forward_train_into(&x, &mut cache);
            let (loss, grad) = weighted_mse_loss(cache.logits(), &targets, &weights);
            mlp.zero_grad();
            mlp.backward_in_place(&mut cache, &grad);
            mlp.clip_grad_norm(GRAD_CLIP);
            optimizer.step(&mut mlp, 0.4);
            black_box(loss)
        });
    }
}

fn bench_losses(h: &mut Harness) {
    let mut rng = Rng64::seed(5);
    let logits = Matrix::random(256, 8, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
    let labels: Vec<usize> = (0..256).map(|i| i % 8).collect();
    let targets = one_hot(&labels, 8);
    let weights: Vec<f32> = (0..256).map(|i| 1.0 + (i % 3) as f32).collect();
    h.bench("weighted_mse/256x8", || black_box(weighted_mse_loss(&logits, &targets, &weights)));
    h.bench("weighted_cross_entropy/256x8", || {
        black_box(weighted_cross_entropy_loss(&logits, &labels, Some(&weights)))
    });
}

fn main() {
    let mut h = Harness::new("nn_training");
    bench_mlp_passes(&mut h);
    bench_head_train_steps(&mut h);
    bench_losses(&mut h);
    h.finish();
}
