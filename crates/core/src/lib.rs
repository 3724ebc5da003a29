//! # Muffin — multi-dimension AI fairness by uniting off-the-shelf models
//!
//! A from-scratch Rust reproduction of *"Muffin: A Framework Toward
//! Multi-Dimension AI Fairness by Uniting Off-the-Shelf Models"*
//! (DAC 2023). Real-world datasets carry **several** sensitive attributes
//! (age, disease site, gender, skin tone), and single-attribute fairness
//! fixes behave like a seesaw: improving one attribute's fairness degrades
//! another's. Muffin escapes the seesaw by *uniting* frozen off-the-shelf
//! models:
//!
//! * a **model-fusing structure** ([`FusingStructure`]) feeds the output
//!   probabilities of selected pool models (the "muffin body") into a
//!   small MLP (the "muffin head") that arbitrates disagreements, with
//!   consensus gating;
//! * the head trains on a **fairness proxy dataset** ([`ProxyDataset`])
//!   holding only unprivileged-group samples, weighted by the paper's
//!   Algorithm 1 so samples that are unprivileged under *several*
//!   attributes pull more gradient (Eq. 2);
//! * each candidate earns the **multi-fairness reward**
//!   ([`multi_fairness_reward`], Eq. 3);
//! * an **RNN controller** ([`RnnController`]) trained with REINFORCE
//!   (Eq. 4) searches over model pairings and head shapes, driven by
//!   [`MuffinSearch`].
//!
//! The substrates live in sibling crates: `muffin-tensor` (matrix math),
//! `muffin-nn` (layers/losses/optimizers), `muffin-data` (synthetic
//! dermatology datasets with multi-attribute group structure) and
//! `muffin-models` (the off-the-shelf pool and the D/L baselines).
//!
//! # Quickstart
//!
//! ```
//! use muffin::{MuffinSearch, SearchConfig};
//! use muffin_data::IsicLike;
//! use muffin_models::{Architecture, BackboneConfig, ModelPool};
//! use muffin_tensor::Rng64;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng64::seed(7);
//! // 1. A dataset with two entangled unfair attributes (age, site).
//! let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
//! // 2. An off-the-shelf model pool.
//! let pool = ModelPool::train(
//!     &split.train,
//!     &[Architecture::resnet18(), Architecture::densenet121()],
//!     &BackboneConfig::fast(),
//!     &mut rng,
//! );
//! // 3. Search for a fusing structure optimising both attributes at once.
//! let config = SearchConfig::fast(&["age", "site"]).with_episodes(3);
//! let search = MuffinSearch::new(pool, split, config)?;
//! let outcome = search.run(&mut rng)?;
//! println!("best: {} reward {:.2}", outcome.best().head_desc, outcome.best().reward);
//! # Ok(())
//! # }
//! ```

mod analysis;
mod body_cache;
mod checkpoint;
mod controller;
mod distill;
mod error;
mod explain;
mod fusing;
mod halving;
mod pareto;
mod privilege;
mod proxy;
mod random_search;
mod report;
mod reward;
mod reward_variants;
mod search;

pub use analysis::{per_group_accuracy_table, DisagreementBreakdown, FusionComposition};
pub use body_cache::BodyOutputCache;
pub use checkpoint::{
    fnv1a64, EvalCacheFile, PersistenceOptions, SearchCheckpoint, SearchFingerprint,
    CHECKPOINT_VERSION,
};
pub use controller::{
    Candidate, ControllerConfig, ControllerState, RnnController, SampledEpisode, SearchSpace,
};
pub use distill::{distill_student, DistillConfig, DistilledStudent};
pub use error::MuffinError;
pub use explain::{TrustReport, TrustSlice};
pub use fusing::{FusingStructure, HeadSpec, HeadTrainConfig};
pub use halving::{promote, promotion_count, successive_halving, HalvingConfig};
pub use pareto::{dominates_min, pareto_max_min_indices, pareto_min_indices};
pub use privilege::PrivilegeMap;
pub use proxy::ProxyDataset;
pub use random_search::random_search;
pub use report::{fmt_improvement, fmt_percent, TextTable};
pub use reward::{multi_fairness_reward, RewardConfig};
pub use reward_variants::RewardKind;
pub use search::{EpisodeRecord, MuffinSearch, SearchConfig, SearchOutcome};

// Re-exported so downstream users (CLI, benches) size and share one pool
// without depending on `muffin-par` directly.
pub use muffin_par::{available_parallelism, WorkerPool};

// Re-exported so downstream users attach observability without depending
// on `muffin-trace` directly.
pub use muffin_trace::{summarize, TraceLog, Tracer};

// Re-export the fairness metric primitives so downstream users need only
// this crate for the paper's Section 3.1 definitions.
pub use muffin_data::{
    group_accuracies, group_accuracy_gap, intersectional_group_accuracies,
    intersectional_unfairness, joint_group_ids, joint_unfairness, unfairness_score, GroupAccuracy,
    Scenario, ScenarioError, ScenarioFamily, ScenarioRegistry,
};
pub use muffin_models::{
    unprivileged_by_accuracy, AttributeEvaluation, IntersectionEvaluation, ModelEvaluation,
};
