use muffin_tensor::{tanh_in_place, Matrix};
use std::fmt;

/// Non-linear activation functions available to the muffin head search
/// space and the backbone networks.
///
/// The muffin-head search space in the paper varies the activation function
/// along with depth and widths, so this enum is part of the public search
/// configuration.
///
/// # Example
///
/// ```
/// use muffin_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.apply(3.0), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `f(x) = x` — used on output layers.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope `0.01` for negative inputs.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

muffin_json::impl_json!(enum Activation { Identity, Relu, LeakyRelu, Sigmoid, Tanh, Gelu });

impl Activation {
    /// All activations offered to the controller's search space.
    pub const SEARCHABLE: [Activation; 4] =
        [Activation::Relu, Activation::LeakyRelu, Activation::Tanh, Activation::Sigmoid];

    /// Applies the activation to a single pre-activation value.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => tanh(x),
            Activation::Gelu => {
                // tanh approximation of GELU.
                let c = (2.0 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + tanh(c * (x + 0.044_715 * x * x * x)))
            }
        }
    }

    /// Applies the activation to every logical element of `m` in place,
    /// with the bits of [`Activation::apply`]. Tanh runs the vectorised
    /// kernel over each logical row, so no padding lane is read or written.
    pub(crate) fn apply_in_place(self, m: &mut Matrix) {
        if self == Activation::Tanh {
            m.iter_rows_mut().for_each(tanh_in_place);
        } else {
            m.map_in_place(|v| self.apply(v));
        }
    }

    /// Derivative of the activation with respect to the pre-activation `x`.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = tanh(x);
                1.0 - t * t
            }
            Activation::Gelu => {
                // Numerical derivative of the tanh approximation is accurate
                // enough for training and keeps the code honest to `apply`.
                let h = 1e-3;
                (self.apply(x + h) - self.apply(x - h)) / (2.0 * h)
            }
        }
    }

    /// [`Activation::derivative`] at `x`, computed from the output
    /// `y = apply(x)` alone. These are the operations `derivative` runs
    /// after its own `apply`, so the bits are the same without evaluating
    /// `tanh`/`exp` again. ReLU stays exact for a NaN `x` because
    /// `f32::max(NaN, 0.0)` is `0.0`.
    ///
    /// # Panics
    ///
    /// Panics for GELU, whose derivative needs the pre-activation.
    pub(crate) fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Gelu => panic!("the GELU derivative needs the pre-activation"),
        }
    }
}

/// One value's `tanh` through the kernel: a zero-filled lane group.
fn tanh(x: f32) -> f32 {
    let mut lane = [x];
    tanh_in_place(&mut lane);
    lane[0]
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::LeakyRelu => "leaky_relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Gelu => "gelu",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Gelu,
    ];

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-5.0), 0.0);
        assert_eq!(Activation::Relu.apply(5.0), 5.0);
    }

    #[test]
    fn leaky_relu_leaks() {
        assert!((Activation::LeakyRelu.apply(-2.0) + 0.02).abs() < 1e-7);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
        assert!(Activation::Sigmoid.apply(100.0) <= 1.0);
        assert!(Activation::Sigmoid.apply(-100.0) >= 0.0);
    }

    #[test]
    fn tanh_is_odd() {
        let a = Activation::Tanh;
        assert!((a.apply(0.7) + a.apply(-0.7)).abs() < 1e-6);
    }

    #[test]
    fn gelu_matches_known_values() {
        // GELU(0) = 0; GELU(x) ≈ x for large x; GELU(x) ≈ 0 for very negative x.
        assert!(Activation::Gelu.apply(0.0).abs() < 1e-6);
        assert!((Activation::Gelu.apply(6.0) - 6.0).abs() < 1e-3);
        assert!(Activation::Gelu.apply(-6.0).abs() < 1e-3);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-3f32;
        for act in ALL {
            for &x in &[-2.0f32, -0.5, -0.1, 0.1, 0.5, 2.0] {
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "{act}: d/dx at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn output_derivative_has_the_bits_of_the_input_derivative() {
        let tiny = f32::from_bits(1); // 2^-149, the smallest subnormal
        let magnitudes = [0.0, tiny, 1e-30, 0.5, 9.0, 20.0, f32::INFINITY];
        let xs = magnitudes.iter().flat_map(|&m| [m, -m]);
        for act in ALL.into_iter().filter(|&a| a != Activation::Gelu) {
            for x in xs.clone() {
                let want = act.derivative(x);
                let got = act.derivative_from_output(act.apply(x));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{act} at {x:e}: {got} vs {want}"
                );
            }
            // NaN bits are not comparable; the two must agree on NaN-ness and
            // otherwise on bits (ReLU's 0, leaky ReLU's 0.01, identity's 1).
            let want = act.derivative(f32::NAN);
            let got = act.derivative_from_output(act.apply(f32::NAN));
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{act} at NaN: {got} vs {want}"
            );
        }
        for act in [Activation::Tanh, Activation::Sigmoid] {
            assert!(
                act.derivative_from_output(act.apply(f32::NAN)).is_nan(),
                "{act}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "pre-activation")]
    fn gelu_has_no_output_derivative() {
        Activation::Gelu.derivative_from_output(0.5);
    }

    #[test]
    fn searchable_excludes_identity() {
        assert!(!Activation::SEARCHABLE.contains(&Activation::Identity));
        assert_eq!(Activation::SEARCHABLE.len(), 4);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::LeakyRelu.to_string(), "leaky_relu");
    }
}
