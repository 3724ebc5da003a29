//! Synthetic dermatology dataset substrate for the Muffin fairness
//! framework.
//!
//! The Muffin paper evaluates on two dermatology image datasets (ISIC2019
//! and Fitzpatrick17K) that we cannot redistribute, and on GPU-trained CNN
//! backbones we cannot rebuild here. Crucially, though, every Muffin
//! component consumes only *model outputs and group labels* — never pixels.
//! This crate therefore provides seeded generative simulators that
//! reproduce the **statistical structure** the paper's evaluation depends
//! on:
//!
//! * multiple sensitive attributes per sample (age × site × gender for the
//!   ISIC-like dataset; skin tone × lesion type for the Fitzpatrick-like
//!   dataset),
//! * large accuracy gaps on some attributes (age, site) and a small gap on
//!   others (gender), produced by group-conditional prototype rotations,
//!   noise inflation and population imbalance,
//! * **entanglement** between attributes: the rotation planes of age and
//!   site share a coordinate, so fitting one group's distortion drags the
//!   decision boundary away from the other's — the paper's seesaw,
//! * correlation between unprivileged group memberships, which is what
//!   makes the paper's Algorithm-1 multi-attribute weighting meaningful.
//!
//! # Example
//!
//! ```
//! use muffin_data::IsicLike;
//! use muffin_tensor::Rng64;
//!
//! let dataset = IsicLike::small().generate(&mut Rng64::seed(7));
//! assert_eq!(dataset.num_classes(), 8);
//! assert_eq!(dataset.schema().attribute_names(), vec!["age", "site", "gender"]);
//! let split = dataset.split_default(&mut Rng64::seed(8));
//! assert!(split.train.len() > split.test.len());
//! ```
//!
//! Beyond the paper's two schemas, the [`ScenarioRegistry`] resolves
//! named scenario recipes — including tabular- and education-style
//! schemas with **intersectional** cell effects — and parses user-written
//! scenario JSON files (schema documented in `docs/SCENARIOS.md`).

#![deny(missing_docs)]

mod attribute;
mod corruption;
mod dataset;
mod fairness;
mod fitzpatrick;
mod generator;
mod io;
mod isic;
mod scenario;

pub use attribute::{AttributeId, AttributeSchema, GroupId, SensitiveAttribute};
pub use dataset::{Dataset, DatasetSplit};
pub use fairness::{
    group_accuracies, group_accuracy_gap, intersectional_group_accuracies,
    intersectional_unfairness, joint_group_ids, joint_unfairness, unfairness_score, GroupAccuracy,
};
pub use fitzpatrick::FitzpatrickLike;
pub use generator::{
    AttributeSpec, CellEffect, DataGenerator, GeneratorConfig, GroupSpec, InteractionSpec,
};
pub use io::DatasetIoError;
pub use isic::IsicLike;
pub use scenario::{
    Scenario, ScenarioError, ScenarioFamily, ScenarioRegistry, SCENARIO_FORMAT_VERSION,
    SCENARIO_SCHEMA_FIELDS,
};
