//! Neural-network substrate for the Muffin fairness framework.
//!
//! Implements everything the Muffin reproduction trains, from scratch on
//! top of [`muffin_tensor`]:
//!
//! * [`Linear`] layers with manual backpropagation,
//! * [`Activation`] functions (ReLU, LeakyReLU, Tanh, Sigmoid, GELU),
//! * losses, including the paper's **weighted MSE** (Eq. 2 of the paper)
//!   used to train the muffin head on the fairness proxy dataset,
//! * [`Optimizer`]s (SGD with momentum, Adam) over any [`Parameterized`]
//!   model,
//! * an [`Mlp`] feed-forward network (backbones and muffin heads),
//! * an [`RnnCell`] with backpropagation-through-time caches for the
//!   REINFORCE controller,
//! * learning-rate [`LrSchedule`]s matching the paper's training recipe
//!   (start 0.1, decay 0.9 every 20 steps),
//! * a reusable [`ClassifierTrainer`] driving full training runs.
//!
//! # Example
//!
//! ```
//! use muffin_nn::{Activation, ClassifierTrainer, LossKind, Mlp, MlpSpec};
//! use muffin_tensor::{Matrix, Rng64};
//! use muffin_trace::Tracer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::seed(0);
//! // XOR-ish toy problem.
//! let x = Matrix::from_rows(&[&[0., 0.], &[0., 1.], &[1., 0.], &[1., 1.]])?;
//! let y = vec![0usize, 1, 1, 0];
//! let spec = MlpSpec::new(2, &[8], 2).with_activation(Activation::Tanh);
//! let mut mlp = Mlp::new(&spec, &mut rng);
//! let trainer = ClassifierTrainer::new(400, 4).with_learning_rate(0.5);
//! trainer.fit(&mut mlp, &x, &y, None, LossKind::CrossEntropy, &mut rng, &Tracer::noop());
//! assert_eq!(mlp.predict(&x), y);
//! # Ok(())
//! # }
//! ```

mod activation;
mod gru;
mod linear;
mod loss;
mod metrics;
mod mlp;
mod norm;
mod optim;
mod rnn;
mod schedule;
mod train;

pub use activation::Activation;
pub use gru::{GruCache, GruCell};
pub use linear::Linear;
pub use loss::{
    cross_entropy_loss, mse_loss, one_hot, weighted_cross_entropy_loss, weighted_mse_loss,
    LossKind,
};
pub use metrics::{accuracy, confusion_matrix, per_class_accuracy};
pub use mlp::{Mlp, MlpCache, MlpSpec};
pub use norm::{LayerNorm, LayerNormCache};
pub use optim::{Optimizer, Parameterized, SgdConfig};
pub use rnn::{RnnCache, RnnCell};
pub use schedule::LrSchedule;
pub use train::{ClassifierTrainer, TrainReport};
