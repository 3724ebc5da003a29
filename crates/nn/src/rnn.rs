use crate::Parameterized;
use muffin_tensor::{tanh_in_place, Init, Matrix, Rng64};

/// Forward cache for one [`RnnCell`] step, consumed by
/// [`RnnCell::backward`] during backpropagation through time.
#[derive(Debug, Clone)]
pub struct RnnCache {
    input: Matrix,
    h_prev: Matrix,
    h_new: Matrix,
}

impl RnnCache {
    /// The hidden state produced by this step.
    pub fn hidden(&self) -> &Matrix {
        &self.h_new
    }
}

/// A vanilla recurrent cell `h' = tanh(x · Wx + h · Wh + b)`.
///
/// This is the recurrent core of the Muffin controller (component ④ of the
/// paper's framework): at every decision step the cell consumes an embedding
/// of the previous action and emits the hidden state that a per-step
/// fully-connected head turns into a categorical distribution over choices.
///
/// # Example
///
/// ```
/// use muffin_nn::RnnCell;
/// use muffin_tensor::{Matrix, Rng64};
///
/// let mut rng = Rng64::seed(0);
/// let cell = RnnCell::new(4, 8, &mut rng);
/// let h0 = Matrix::zeros(1, 8);
/// let x = Matrix::zeros(1, 4);
/// let (h1, _cache) = cell.forward(&x, &h0);
/// assert_eq!(h1.shape(), (1, 8));
/// ```
#[derive(Debug, Clone)]
pub struct RnnCell {
    wx: Matrix,
    wh: Matrix,
    bias: Vec<f32>,
    grad_wx: Matrix,
    grad_wh: Matrix,
    grad_bias: Vec<f32>,
}

muffin_json::impl_json!(struct RnnCell { wx, wh, bias, grad_wx, grad_wh, grad_bias });

impl RnnCell {
    /// Creates a cell mapping `input_dim` inputs to `hidden_dim` state.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut Rng64) -> Self {
        Self {
            wx: Matrix::random(input_dim, hidden_dim, Init::XavierUniform, rng),
            wh: Matrix::random(hidden_dim, hidden_dim, Init::XavierUniform, rng),
            bias: vec![0.0; hidden_dim],
            grad_wx: Matrix::zeros(input_dim, hidden_dim),
            grad_wh: Matrix::zeros(hidden_dim, hidden_dim),
            grad_bias: vec![0.0; hidden_dim],
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.wx.rows()
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.wh.rows()
    }

    /// One recurrent step. Returns the new hidden state and the cache
    /// required by [`RnnCell::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x` or `h_prev` have the wrong number of columns.
    pub fn forward(&self, x: &Matrix, h_prev: &Matrix) -> (Matrix, RnnCache) {
        let mut z = x.matmul(&self.wx);
        let hh = h_prev.matmul(&self.wh);
        z.axpy(1.0, &hh);
        z.add_row_in_place(&self.bias);
        z.iter_rows_mut().for_each(tanh_in_place);
        let cache = RnnCache { input: x.clone(), h_prev: h_prev.clone(), h_new: z.clone() };
        (z, cache)
    }

    /// Backward through one step.
    ///
    /// `grad_h` is `∂L/∂h'` for this step (including any gradient flowing
    /// back from later steps). Accumulates parameter gradients and returns
    /// `(∂L/∂x, ∂L/∂h_prev)`.
    pub fn backward(&mut self, cache: &RnnCache, grad_h: &Matrix) -> (Matrix, Matrix) {
        // dtanh: h' = tanh(z) so dz = grad_h * (1 - h'^2).
        let dz = grad_h.zip_map(&cache.h_new, |g, h| g * (1.0 - h * h));
        self.grad_wx.axpy(1.0, &cache.input.matmul_tn(&dz));
        self.grad_wh.axpy(1.0, &cache.h_prev.matmul_tn(&dz));
        for (gb, g) in self.grad_bias.iter_mut().zip(dz.col_sums()) {
            *gb += g;
        }
        let dx = dz.matmul_nt(&self.wx);
        let dh_prev = dz.matmul_nt(&self.wh);
        (dx, dh_prev)
    }
}

impl Parameterized for RnnCell {
    // Weight visits hand out padded backing stores; padding stays zero
    // under every optimizer update (see `Linear::visit_params`).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.wx.padded_data_mut(), self.grad_wx.padded_data_mut());
        f(self.wh.padded_data_mut(), self.grad_wh.padded_data_mut());
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn num_params(&mut self) -> usize {
        self.wx.len() + self.wh.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_state_is_bounded_by_tanh() {
        let mut rng = Rng64::seed(1);
        let cell = RnnCell::new(3, 5, &mut rng);
        let x = Matrix::random(2, 3, Init::ScaledNormal { std_dev: 5.0 }, &mut rng);
        let h = Matrix::random(2, 5, Init::ScaledNormal { std_dev: 5.0 }, &mut rng);
        let (h1, _) = cell.forward(&x, &h);
        assert!(h1.iter_rows().flatten().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn zero_weights_give_zero_state() {
        let mut rng = Rng64::seed(2);
        let mut cell = RnnCell::new(2, 3, &mut rng);
        cell.visit_params(&mut |p, _| p.fill(0.0));
        let (h1, _) = cell.forward(&Matrix::filled(1, 2, 1.0), &Matrix::filled(1, 3, 1.0));
        assert!(h1.iter_rows().flatten().all(|&v| v == 0.0));
    }

    #[test]
    fn backward_matches_finite_difference_on_wx() {
        let mut rng = Rng64::seed(3);
        let mut cell = RnnCell::new(2, 3, &mut rng);
        let x = Matrix::random(2, 2, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        let h0 = Matrix::random(2, 3, Init::ScaledNormal { std_dev: 0.5 }, &mut rng);

        // Loss = sum(h1).
        let (_, cache) = cell.forward(&x, &h0);
        cell.zero_grad();
        let grad_h = Matrix::filled(2, 3, 1.0);
        cell.backward(&cache, &grad_h);
        let mut analytic = 0.0;
        let mut idx = 0;
        cell.visit_params(&mut |_, g| {
            if idx == 0 {
                analytic = g[0];
            }
            idx += 1;
        });

        let h = 1e-2f32;
        let mut up = cell.clone();
        let mut idx = 0;
        up.visit_params(&mut |p, _| {
            if idx == 0 {
                p[0] += h;
            }
            idx += 1;
        });
        let (h_up, _) = up.forward(&x, &h0);
        let mut down = cell.clone();
        let mut idx = 0;
        down.visit_params(&mut |p, _| {
            if idx == 0 {
                p[0] -= h;
            }
            idx += 1;
        });
        let (h_down, _) = down.forward(&x, &h0);
        let numeric = (h_up.sum() - h_down.sum()) / (2.0 * h);
        assert!((numeric - analytic).abs() < 1e-2, "numeric {numeric} vs analytic {analytic}");
    }

    #[test]
    fn backward_propagates_to_previous_hidden_state() {
        let mut rng = Rng64::seed(4);
        let mut cell = RnnCell::new(2, 3, &mut rng);
        let x = Matrix::random(1, 2, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        let h0 = Matrix::random(1, 3, Init::ScaledNormal { std_dev: 0.5 }, &mut rng);
        let (_, cache) = cell.forward(&x, &h0);
        let (dx, dh) = cell.backward(&cache, &Matrix::filled(1, 3, 1.0));
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dh.shape(), h0.shape());
        // A random configuration should carry some gradient back.
        assert!(dh.norm() > 0.0);
    }

    #[test]
    fn cache_exposes_hidden() {
        let mut rng = Rng64::seed(5);
        let cell = RnnCell::new(2, 2, &mut rng);
        let (h1, cache) = cell.forward(&Matrix::zeros(1, 2), &Matrix::zeros(1, 2));
        assert_eq!(cache.hidden(), &h1);
    }

    #[test]
    fn dims_accessors() {
        let mut rng = Rng64::seed(6);
        let cell = RnnCell::new(7, 9, &mut rng);
        assert_eq!(cell.input_dim(), 7);
        assert_eq!(cell.hidden_dim(), 9);
    }
}
