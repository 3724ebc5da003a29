/// A model whose flat parameter/gradient buffers can be visited in a stable
/// order.
///
/// Optimizers identify each buffer by visitation order, so implementors
/// must visit the same buffers in the same order on every call.
///
/// # Example
///
/// ```
/// use muffin_nn::{Linear, Optimizer, Parameterized, SgdConfig};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(0);
/// let mut layer = Linear::new(2, 2, &mut rng);
/// let mut opt = Optimizer::sgd(SgdConfig::default());
/// layer.zero_grad();
/// opt.step(&mut layer, 0.1);
/// ```
pub trait Parameterized {
    /// Calls `f(params, grads)` for every parameter buffer.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Zeroes all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill(0.0));
    }

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Global L2 norm of the current gradient.
    fn grad_norm(&mut self) -> f32 {
        let mut sq = 0.0;
        self.visit_params(&mut |_, g| sq += g.iter().map(|x| x * x).sum::<f32>());
        sq.sqrt()
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            self.visit_params(&mut |_, g| {
                for x in g.iter_mut() {
                    *x *= scale;
                }
            });
        }
    }
}

/// Configuration for SGD.
///
/// Defaults match the paper's backbone recipe apart from the learning rate,
/// which the schedule controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Momentum coefficient (`0.0` disables momentum).
    pub momentum: f32,
    /// Decoupled L2 weight decay applied at each step.
    pub weight_decay: f32,
}

muffin_json::impl_json!(struct SgdConfig { momentum, weight_decay });

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }
}

/// First-order gradient optimizers.
///
/// State (momentum / Adam moments) is allocated lazily on the first step and
/// keyed by parameter-buffer visitation order.
#[derive(Debug, Clone)]
pub enum Optimizer {
    /// Stochastic gradient descent with optional momentum and weight decay.
    Sgd {
        /// Hyper-parameters.
        config: SgdConfig,
        /// Momentum buffers, one per parameter buffer.
        velocity: Vec<Vec<f32>>,
    },
    /// Adam with bias correction.
    Adam {
        /// Exponential decay for the first moment.
        beta1: f32,
        /// Exponential decay for the second moment.
        beta2: f32,
        /// Numerical stabiliser.
        eps: f32,
        /// First-moment buffers.
        m: Vec<Vec<f32>>,
        /// Second-moment buffers.
        v: Vec<Vec<f32>>,
        /// Step counter for bias correction.
        t: u32,
    },
}

// Serialised so a search checkpoint can persist the controller's Adam
// moments and resume with bit-identical updates.
muffin_json::impl_json!(tagged Optimizer {
    Sgd { config, velocity },
    Adam { beta1, beta2, eps, m, v, t },
});

impl Optimizer {
    /// Creates an SGD optimizer.
    pub fn sgd(config: SgdConfig) -> Self {
        Optimizer::Sgd {
            config,
            velocity: Vec::new(),
        }
    }

    /// Creates an Adam optimizer with the usual defaults
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    pub fn adam() -> Self {
        Optimizer::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one update with learning rate `lr` to `model`'s parameters
    /// using its accumulated gradients.
    pub fn step<M: Parameterized + ?Sized>(&mut self, model: &mut M, lr: f32) {
        match self {
            Optimizer::Sgd { config, velocity } => {
                let momentum = config.momentum;
                let weight_decay = config.weight_decay;
                let mut idx = 0;
                model.visit_params(&mut |p, g| {
                    if velocity.len() <= idx {
                        velocity.push(vec![0.0; p.len()]);
                    }
                    let vel = &mut velocity[idx];
                    assert_eq!(vel.len(), p.len(), "parameter buffer changed size");
                    // Zipped, not indexed: no bounds checks, so the loop
                    // vectorises with the same three operations in order.
                    for ((p, &g), v) in p.iter_mut().zip(g.iter()).zip(vel.iter_mut()) {
                        let grad = g + weight_decay * *p;
                        *v = momentum * *v + grad;
                        *p -= lr * *v;
                    }
                    idx += 1;
                });
            }
            Optimizer::Adam {
                beta1,
                beta2,
                eps,
                m,
                v,
                t,
            } => {
                *t += 1;
                let t_f = *t as f32;
                let bias1 = 1.0 - beta1.powf(t_f);
                let bias2 = 1.0 - beta2.powf(t_f);
                let (b1, b2, e) = (*beta1, *beta2, *eps);
                let mut idx = 0;
                model.visit_params(&mut |p, g| {
                    if m.len() <= idx {
                        m.push(vec![0.0; p.len()]);
                        v.push(vec![0.0; p.len()]);
                    }
                    let (mi, vi) = (&mut m[idx], &mut v[idx]);
                    debug_assert_eq!(mi.len(), p.len(), "parameter buffer changed size");
                    for i in 0..p.len() {
                        mi[i] = b1 * mi[i] + (1.0 - b1) * g[i];
                        vi[i] = b2 * vi[i] + (1.0 - b2) * g[i] * g[i];
                        let m_hat = mi[i] / bias1;
                        let v_hat = vi[i] / bias2;
                        p[i] -= lr * m_hat / (v_hat.sqrt() + e);
                    }
                    idx += 1;
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-parameter quadratic bowl: loss = (p - 3)^2.
    struct Bowl {
        p: Vec<f32>,
        g: Vec<f32>,
    }

    impl Bowl {
        fn new(start: f32) -> Self {
            Self {
                p: vec![start],
                g: vec![0.0],
            }
        }

        fn compute_grad(&mut self) {
            self.g[0] = 2.0 * (self.p[0] - 3.0);
        }
    }

    impl Parameterized for Bowl {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
            f(&mut self.p, &mut self.g);
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut bowl = Bowl::new(0.0);
        let mut opt = Optimizer::sgd(SgdConfig {
            momentum: 0.0,
            weight_decay: 0.0,
        });
        for _ in 0..200 {
            bowl.compute_grad();
            opt.step(&mut bowl, 0.1);
        }
        assert!((bowl.p[0] - 3.0).abs() < 1e-3, "p = {}", bowl.p[0]);
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut bowl = Bowl::new(-5.0);
        let mut opt = Optimizer::sgd(SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
        });
        for _ in 0..300 {
            bowl.compute_grad();
            opt.step(&mut bowl, 0.02);
        }
        assert!((bowl.p[0] - 3.0).abs() < 1e-2, "p = {}", bowl.p[0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut bowl = Bowl::new(10.0);
        let mut opt = Optimizer::adam();
        for _ in 0..2000 {
            bowl.compute_grad();
            opt.step(&mut bowl, 0.05);
        }
        assert!((bowl.p[0] - 3.0).abs() < 1e-2, "p = {}", bowl.p[0]);
    }

    #[test]
    fn weight_decay_pulls_toward_zero() {
        let mut bowl = Bowl::new(3.0);
        // Gradient of the bowl is zero at 3.0, so with weight decay the
        // equilibrium shifts below 3.
        let mut opt = Optimizer::sgd(SgdConfig {
            momentum: 0.0,
            weight_decay: 0.5,
        });
        for _ in 0..500 {
            bowl.compute_grad();
            opt.step(&mut bowl, 0.05);
        }
        assert!(bowl.p[0] < 2.9, "p = {}", bowl.p[0]);
    }

    #[test]
    fn zero_grad_resets() {
        let mut bowl = Bowl::new(0.0);
        bowl.compute_grad();
        assert_ne!(bowl.g[0], 0.0);
        bowl.zero_grad();
        assert_eq!(bowl.g[0], 0.0);
    }

    #[test]
    fn grad_norm_and_clipping() {
        let mut bowl = Bowl::new(0.0);
        bowl.compute_grad(); // grad = -6
        assert!((bowl.grad_norm() - 6.0).abs() < 1e-6);
        bowl.clip_grad_norm(1.0);
        assert!((bowl.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_when_under_limit() {
        let mut bowl = Bowl::new(0.0);
        bowl.compute_grad();
        bowl.clip_grad_norm(100.0);
        assert!((bowl.grad_norm() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn num_params_counts_scalars() {
        let mut bowl = Bowl::new(0.0);
        assert_eq!(bowl.num_params(), 1);
    }

    #[test]
    fn optimizer_state_round_trips_bit_exact() {
        // Warm up an Adam state so the moments are non-trivial floats.
        let mut bowl = Bowl::new(10.0);
        let mut opt = Optimizer::adam();
        for _ in 0..7 {
            bowl.compute_grad();
            opt.step(&mut bowl, 0.05);
        }
        let text = muffin_json::to_string(&opt);
        let restored: Optimizer = muffin_json::from_str(&text).expect("parse");
        // Stepping both from identical state must produce identical
        // parameters — the property checkpoint/resume relies on.
        let mut resumed_bowl = Bowl {
            p: bowl.p.clone(),
            g: bowl.g.clone(),
        };
        let mut resumed_opt = restored;
        for _ in 0..5 {
            bowl.compute_grad();
            opt.step(&mut bowl, 0.05);
            resumed_bowl.compute_grad();
            resumed_opt.step(&mut resumed_bowl, 0.05);
        }
        assert_eq!(bowl.p[0].to_bits(), resumed_bowl.p[0].to_bits());

        let sgd = Optimizer::sgd(SgdConfig::default());
        let text = muffin_json::to_string(&sgd);
        assert!(matches!(
            muffin_json::from_str::<Optimizer>(&text).expect("parse"),
            Optimizer::Sgd { .. }
        ));
    }
}
