use crate::{Activation, Linear, Parameterized};
use muffin_tensor::{Matrix, Rng64};

/// Architecture description for an [`Mlp`].
///
/// In Muffin terms this describes both the synthetic *backbones* standing in
/// for the off-the-shelf CNNs and the *muffin head* whose shape the RNN
/// controller searches (e.g. the paper's `[16, 18, 12, 8]` heads).
///
/// # Example
///
/// ```
/// use muffin_nn::{Activation, MlpSpec};
///
/// let spec = MlpSpec::new(16, &[18, 12], 8).with_activation(Activation::Relu);
/// assert_eq!(spec.layer_dims(), vec![16, 18, 12, 8]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    input_dim: usize,
    hidden: Vec<usize>,
    output_dim: usize,
    activation: Activation,
}

muffin_json::impl_json!(struct MlpSpec { input_dim, hidden, output_dim, activation });

impl MlpSpec {
    /// Creates a spec with the given input width, hidden widths and output
    /// width, defaulting to ReLU hidden activations.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "dimensions must be positive");
        assert!(hidden.iter().all(|&h| h > 0), "hidden widths must be positive");
        Self { input_dim, hidden: hidden.to_vec(), output_dim, activation: Activation::Relu }
    }

    /// Sets the hidden activation function.
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden layer widths.
    pub fn hidden(&self) -> &[usize] {
        &self.hidden
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Hidden activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Full layer-width chain `[input, hidden…, output]`.
    pub fn layer_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.input_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.output_dim);
        dims
    }

    /// Number of trainable parameters an [`Mlp`] built from this spec has.
    pub fn param_count(&self) -> usize {
        self.layer_dims().windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }
}

/// Per-layer forward caches needed for backpropagation.
///
/// The cache owns reusable buffers: feeding it to
/// [`Mlp::forward_train_into`] and [`Mlp::backward_in_place`] across many
/// mini-batches performs no per-batch heap allocation once the buffers have
/// reached their steady-state sizes.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Input to each linear layer (first entry is the network input). Entry
    /// `i + 1` is layer `i`'s activated output, which the in-place backward
    /// differentiates the activation from.
    inputs: Vec<Matrix>,
    /// Pre-activation output of each linear layer: the logits, and the
    /// point GELU is differentiated at.
    pre_activations: Vec<Matrix>,
    /// Ping/pong gradient buffers for the backward sweep.
    grad: Matrix,
    grad_next: Matrix,
    /// Per-layer weight/bias gradient scratch.
    dw: Matrix,
    db: Vec<f32>,
}

impl Default for MlpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MlpCache {
    /// An empty cache; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self {
            inputs: Vec::new(),
            pre_activations: Vec::new(),
            grad: Matrix::zeros(0, 0),
            grad_next: Matrix::zeros(0, 0),
            dw: Matrix::zeros(0, 0),
            db: Vec::new(),
        }
    }

    /// Logits of the most recent [`Mlp::forward_train_into`] pass.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has populated the cache yet.
    pub fn logits(&self) -> &Matrix {
        self.pre_activations
            .last()
            .expect("MlpCache::logits before any forward pass")
    }
}

/// A feed-forward multi-layer perceptron with manual backpropagation.
///
/// The final layer is linear (no activation); classification uses softmax
/// externally via [`Mlp::predict_proba`].
///
/// # Example
///
/// ```
/// use muffin_nn::{Mlp, MlpSpec};
/// use muffin_tensor::{Matrix, Rng64};
///
/// let mut rng = Rng64::seed(5);
/// let mlp = Mlp::new(&MlpSpec::new(4, &[8, 8], 3), &mut rng);
/// let probs = mlp.predict_proba(&Matrix::zeros(2, 4));
/// assert_eq!(probs.shape(), (2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    spec: MlpSpec,
    layers: Vec<Linear>,
}

muffin_json::impl_json!(struct Mlp { spec, layers });

impl Mlp {
    /// Builds a randomly initialised network from `spec`.
    pub fn new(spec: &MlpSpec, rng: &mut Rng64) -> Self {
        let dims = spec.layer_dims();
        let layers = dims.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect();
        Self { spec: spec.clone(), layers }
    }

    /// The architecture this network was built from.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// The layers, input side first.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Forward pass returning raw logits.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != spec.input_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i < last {
                self.spec.activation.apply_in_place(&mut h);
            }
        }
        h
    }

    /// Forward pass that also returns the caches needed by [`Mlp::backward`].
    ///
    /// Allocates a fresh [`MlpCache`]; hot loops should hold one cache and
    /// call [`Mlp::forward_train_into`] instead.
    pub fn forward_train(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut cache = MlpCache::new();
        self.forward_train_into(x, &mut cache);
        (cache.logits().clone(), cache)
    }

    /// Forward pass writing every per-layer cache into `cache`, reusing its
    /// buffers. The logits are available as [`MlpCache::logits`].
    /// Byte-identical to [`Mlp::forward_train`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != spec.input_dim()`.
    pub fn forward_train_into(&self, x: &Matrix, cache: &mut MlpCache) {
        let n = self.layers.len();
        cache.inputs.resize(n, Matrix::zeros(0, 0));
        cache.pre_activations.resize(n, Matrix::zeros(0, 0));
        cache.inputs[0].copy_from(x);
        let act = self.spec.activation;
        let last = n - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(&cache.inputs[i], &mut cache.pre_activations[i]);
            if i < last {
                // Input to the next layer is the activated pre-activation.
                let next = &mut cache.inputs[i + 1];
                next.copy_from(&cache.pre_activations[i]);
                act.apply_in_place(next);
            }
        }
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the network input.
    ///
    /// Allocates per layer; hot loops should call
    /// [`Mlp::backward_in_place`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `cache` does not correspond to the most recent
    /// [`Mlp::forward_train`] batch shape.
    pub fn backward(&mut self, cache: &MlpCache, grad_logits: &Matrix) -> Matrix {
        let mut grad = grad_logits.clone();
        let act = self.spec.activation;
        let last = self.layers.len() - 1;
        for i in (0..self.layers.len()).rev() {
            if i < last {
                // Chain through the activation of layer i.
                let z = &cache.pre_activations[i];
                grad = grad.zip_map(z, |g, zv| g * act.derivative(zv));
            }
            grad = self.layers[i].backward(&cache.inputs[i], &grad);
        }
        grad
    }

    /// Backward pass reusing the scratch buffers inside `cache`.
    ///
    /// Accumulates parameter gradients exactly like [`Mlp::backward`]
    /// (byte-identical floats) but performs no per-call allocation and
    /// skips the never-consumed input gradient of the first layer. Every
    /// activation but GELU is differentiated from its cached output, the
    /// next layer's input, so `tanh`/`exp` run once per element per step.
    ///
    /// # Panics
    ///
    /// Panics if `cache` was not populated by [`Mlp::forward_train_into`]
    /// with a matching batch shape.
    pub fn backward_in_place(&mut self, cache: &mut MlpCache, grad_logits: &Matrix) {
        let MlpCache {
            inputs,
            pre_activations,
            grad,
            grad_next,
            dw,
            db,
        } = cache;
        grad.copy_from(grad_logits);
        let act = self.spec.activation;
        let last = self.layers.len() - 1;
        for i in (0..self.layers.len()).rev() {
            if i < last {
                // Chain through the activation of layer i.
                if act == Activation::Gelu {
                    grad.zip_apply(&pre_activations[i], |g, zv| g * act.derivative(zv));
                } else {
                    grad.zip_apply(&inputs[i + 1], |g, y| g * act.derivative_from_output(y));
                }
            }
            if i > 0 {
                self.layers[i].backward_into(&inputs[i], grad, dw, db, grad_next);
                std::mem::swap(grad, grad_next);
            } else {
                self.layers[i].accumulate_grads(&inputs[i], grad, dw, db);
            }
        }
    }

    /// Softmax class probabilities for each row of `x`.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        self.forward(x).softmax_rows()
    }

    /// Hard class predictions (argmax of the logits).
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    /// Class probabilities and hard predictions from a **single** forward
    /// pass. Byte-identical to calling [`Mlp::predict_proba`] and
    /// [`Mlp::predict`] separately: predictions are the argmax of the raw
    /// logits, not of the softmax output.
    pub fn predict_outputs(&self, x: &Matrix) -> (Matrix, Vec<usize>) {
        let logits = self.forward(x);
        let preds = logits.argmax_rows();
        (logits.softmax_rows(), preds)
    }
}

impl Parameterized for Mlp {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn num_params(&mut self) -> usize {
        self.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy_loss;
    use crate::{Optimizer, SgdConfig};
    use muffin_tensor::Init;

    #[test]
    fn spec_param_count_matches_network() {
        let spec = MlpSpec::new(10, &[16, 8], 4);
        let mut rng = Rng64::seed(0);
        let mut mlp = Mlp::new(&spec, &mut rng);
        assert_eq!(spec.param_count(), mlp.param_count());
        assert_eq!(spec.param_count(), mlp.num_params());
        assert_eq!(spec.param_count(), 10 * 16 + 16 + 16 * 8 + 8 + 8 * 4 + 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn spec_rejects_zero_dims() {
        MlpSpec::new(0, &[4], 2);
    }

    #[test]
    fn forward_without_hidden_layers_is_linear() {
        let mut rng = Rng64::seed(1);
        let mlp = Mlp::new(&MlpSpec::new(3, &[], 2), &mut rng);
        let x = Matrix::zeros(1, 3);
        // Zero input through a linear layer gives exactly the bias (zeros).
        assert_eq!(mlp.forward(&x).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut rng = Rng64::seed(2);
        let mlp = Mlp::new(&MlpSpec::new(5, &[7, 6], 3), &mut rng);
        let x = Matrix::random(4, 5, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        let a = mlp.forward(&x);
        let (b, _) = mlp.forward_train(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = Rng64::seed(3);
        let spec = MlpSpec::new(3, &[4], 2).with_activation(Activation::Tanh);
        let mut mlp = Mlp::new(&spec, &mut rng);
        let x = Matrix::random(5, 3, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        let labels = [0usize, 1, 0, 1, 0];

        let (logits, cache) = mlp.forward_train(&x);
        let (_, grad_logits) = cross_entropy_loss(&logits, &labels);
        mlp.zero_grad();
        mlp.backward(&cache, &grad_logits);

        // Collect analytic gradients.
        let mut analytic = Vec::new();
        mlp.visit_params(&mut |_, g| analytic.push(g.to_vec()));

        // Finite differences over a few parameters of each buffer.
        let h = 1e-2f32;
        let mut buffer_idx = 0;
        let mut base_mlp = mlp.clone();
        base_mlp.visit_params(&mut |_, _| {});
        for probe in 0..analytic.len() {
            for k in [0usize] {
                let mut up = mlp.clone();
                let mut i = 0;
                up.visit_params(&mut |p, _| {
                    if i == probe && k < p.len() {
                        p[k] += h;
                    }
                    i += 1;
                });
                let (lu, _) = cross_entropy_loss(&up.forward(&x), &labels);
                let mut down = mlp.clone();
                let mut i = 0;
                down.visit_params(&mut |p, _| {
                    if i == probe && k < p.len() {
                        p[k] -= h;
                    }
                    i += 1;
                });
                let (ld, _) = cross_entropy_loss(&down.forward(&x), &labels);
                let numeric = (lu - ld) / (2.0 * h);
                let got = analytic[probe][k];
                assert!(
                    (numeric - got).abs() < 2e-2,
                    "buffer {probe}[{k}]: numeric {numeric} vs analytic {got}"
                );
            }
            buffer_idx += 1;
        }
        assert!(buffer_idx > 0);
    }

    #[test]
    fn training_reduces_loss_on_separable_data() {
        let mut rng = Rng64::seed(4);
        let spec = MlpSpec::new(2, &[8], 2);
        let mut mlp = Mlp::new(&spec, &mut rng);
        // Linearly separable blobs.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let class = i % 2;
            let center = if class == 0 { -1.5 } else { 1.5 };
            rows.push(vec![center + rng.normal() * 0.3, center + rng.normal() * 0.3]);
            labels.push(class);
        }
        let x = Matrix::from_rows(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>()).unwrap();
        let mut opt = Optimizer::sgd(SgdConfig::default());
        let (logits, _) = mlp.forward_train(&x);
        let (initial_loss, _) = cross_entropy_loss(&logits, &labels);
        for _ in 0..100 {
            let (logits, cache) = mlp.forward_train(&x);
            let (_, grad) = cross_entropy_loss(&logits, &labels);
            mlp.zero_grad();
            mlp.backward(&cache, &grad);
            opt.step(&mut mlp, 0.1);
        }
        let (logits, _) = mlp.forward_train(&x);
        let (final_loss, _) = cross_entropy_loss(&logits, &labels);
        assert!(final_loss < initial_loss * 0.2, "{initial_loss} -> {final_loss}");
        assert_eq!(mlp.predict(&x), labels);
    }

    #[test]
    fn in_place_paths_match_allocating_paths_bit_for_bit() {
        // GELU is not searchable but takes its own branch in the in-place
        // backward, so it is checked too.
        for act in Activation::SEARCHABLE.into_iter().chain([Activation::Gelu]) {
            in_place_paths_match_allocating_paths_for(act);
        }
    }

    fn in_place_paths_match_allocating_paths_for(act: Activation) {
        let mut rng = Rng64::seed(6);
        let spec = MlpSpec::new(4, &[7, 5], 3).with_activation(act);
        let mlp = Mlp::new(&spec, &mut rng);
        let mut cache = MlpCache::new();
        // Reuse the same cache across batches of different sizes: results
        // must stay byte-identical to the allocating path every time.
        for batch in [6usize, 2, 9] {
            let x = Matrix::random(batch, 4, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
            let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();

            let (logits, alloc_cache) = mlp.forward_train(&x);
            mlp.forward_train_into(&x, &mut cache);
            assert_eq!(cache.logits(), &logits);

            let (_, grad) = cross_entropy_loss(&logits, &labels);
            let mut a = mlp.clone();
            a.zero_grad();
            a.backward(&alloc_cache, &grad);
            let mut b = mlp.clone();
            b.zero_grad();
            b.backward_in_place(&mut cache, &grad);

            let mut grads_a = Vec::new();
            a.visit_params(&mut |_, g| grads_a.push(g.to_vec()));
            let mut grads_b = Vec::new();
            b.visit_params(&mut |_, g| grads_b.push(g.to_vec()));
            for (ga, gb) in grads_a.iter().zip(grads_b.iter()) {
                for (x, y) in ga.iter().zip(gb.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{act} at batch {batch}");
                }
            }
        }
    }

    #[test]
    fn predict_proba_rows_are_distributions() {
        let mut rng = Rng64::seed(5);
        let mlp = Mlp::new(&MlpSpec::new(3, &[5], 4), &mut rng);
        let x = Matrix::random(6, 3, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        let p = mlp.predict_proba(&x);
        for row in p.iter_rows() {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn network_is_deterministic_given_seed() {
        let spec = MlpSpec::new(4, &[6], 2);
        let a = Mlp::new(&spec, &mut Rng64::seed(9));
        let b = Mlp::new(&spec, &mut Rng64::seed(9));
        let x = Matrix::filled(1, 4, 0.5);
        assert_eq!(a.forward(&x), b.forward(&x));
    }
}
