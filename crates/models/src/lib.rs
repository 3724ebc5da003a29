//! Off-the-shelf model pool and single-attribute fairness baselines for
//! the Muffin framework.
//!
//! The paper unites pre-trained CNNs (ResNet, DenseNet, MobileNet,
//! ShuffleNet). Rebuilding those on GPU-scale image data is out of scope
//! (see `DESIGN.md`), so this crate trains **projection-based backbones**:
//! each [`Architecture`] fixes a random feature projection (its
//! "inductive bias" — which view of the input the network gets) plus an
//! MLP whose capacity scales with the real CNN's size. What Muffin needs
//! from its model pool is exactly what these backbones reproduce:
//!
//! * accuracy that grows with model capacity,
//! * per-group accuracy gaps on the disadvantaged attributes,
//! * genuinely **complementary errors** between models (paper Observation
//!   3): different projections misread different hard samples, so pairs of
//!   models disagree on a meaningful fraction of unprivileged-group data.
//!
//! The crate also implements the two single-attribute fairness baselines
//! the paper compares against (Table I, Fig. 2):
//!
//! * **D** — data balancing via group-targeted oversampling, and
//! * **L** — a fair loss that up-weights unprivileged groups during
//!   training.
//!
//! # Example
//!
//! ```
//! use muffin_data::IsicLike;
//! use muffin_models::{Architecture, BackboneConfig, ModelPool};
//! use muffin_tensor::Rng64;
//!
//! let mut rng = Rng64::seed(1);
//! let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
//! let archs = [Architecture::resnet18(), Architecture::shufflenet_v2_x1_0()];
//! let pool = ModelPool::train(&split.train, &archs, &BackboneConfig::fast(), &mut rng);
//! assert_eq!(pool.len(), 2);
//! let eval = pool.get(0).expect("trained").evaluate(&split.test);
//! assert!(eval.accuracy > 0.2); // far above the 12.5% chance level
//! ```

mod architecture;
mod backbone;
mod baselines;
mod ensemble;
mod evaluation;
mod frozen;
mod identity;
mod persist;
mod pool;

pub use architecture::{Architecture, ModelFamily};
pub use backbone::BackboneConfig;
pub use baselines::{FairnessMethod, MethodApplication};
pub use ensemble::{oracle_accuracy, Ensemble, EnsembleRule};
pub use evaluation::{
    unprivileged_by_accuracy, AttributeEvaluation, IntersectionEvaluation, ModelEvaluation,
};
pub use frozen::FrozenModel;
pub use identity::{fnv1a64, format_model_id, ModelIdentity, PoolManifest, PoolRelation};
pub use persist::PoolIoError;
pub use pool::ModelPool;
