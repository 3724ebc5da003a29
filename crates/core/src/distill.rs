//! Distilling a fused Muffin model into a single compact student.
//!
//! Figure 9(b) of the paper shows the cost of uniting models: the fused
//! system carries every body's parameters. This extension (the repo's
//! future-work direction) recovers deployability by **distillation**: a
//! single student MLP is trained on the *fused model's* predictions over
//! the training set, inheriting much of the muffin head's fairness benefit
//! at a fraction of the parameters.

use crate::{FusingStructure, MuffinError};
use muffin_data::Dataset;
use muffin_models::ModelPool;
use muffin_nn::{Activation, ClassifierTrainer, LossKind, LrSchedule, Mlp, MlpSpec};
use muffin_tensor::{Matrix, Rng64};
use muffin_trace::Tracer;

/// Configuration for distilling a fused model into a student MLP.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Hidden widths of the student network (on raw features).
    pub student_hidden: Vec<usize>,
    /// Student activation.
    pub activation: Activation,
    /// Training epochs.
    pub epochs: u32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

muffin_json::impl_json!(struct DistillConfig { student_hidden, activation, epochs, batch_size, schedule });

impl Default for DistillConfig {
    fn default() -> Self {
        Self {
            student_hidden: vec![64, 32],
            activation: Activation::Relu,
            epochs: 60,
            batch_size: 64,
            schedule: LrSchedule::paper(),
        }
    }
}

/// A distilled student with its parameter footprint.
#[derive(Debug, Clone)]
pub struct DistilledStudent {
    student: Mlp,
    teacher_params: u64,
}

impl DistilledStudent {
    /// The student network.
    pub fn student(&self) -> &Mlp {
        &self.student
    }

    /// Student parameter count.
    pub fn student_params(&self) -> usize {
        self.student.param_count()
    }

    /// The fused teacher's total reported parameters.
    pub fn teacher_params(&self) -> u64 {
        self.teacher_params
    }

    /// Compression ratio `teacher / student`.
    pub fn compression(&self) -> f64 {
        self.teacher_params as f64 / self.student_params() as f64
    }

    /// Hard predictions on raw features.
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.student.predict(features)
    }

    /// Evaluates the student on a dataset.
    pub fn evaluate(&self, dataset: &Dataset) -> muffin_models::ModelEvaluation {
        muffin_models::ModelEvaluation::of(
            &self.predict(dataset.features()),
            dataset,
            format!("distilled[{:?}]", self.student.spec().hidden()),
        )
    }
}

/// Distills `fusing` (the teacher) into a single student MLP trained on
/// the teacher's predictions over `train`.
///
/// Hard-label distillation is used: the student fits the teacher's argmax
/// outputs with cross-entropy. The teacher's fairness behaviour transfers
/// because the student learns the *corrected* labels on unprivileged
/// regions, not the original annotations' error pattern.
///
/// # Errors
///
/// Returns [`MuffinError::InvalidConfig`] if the student spec is
/// degenerate or `train` is empty.
pub fn distill_student(
    fusing: &FusingStructure,
    pool: &ModelPool,
    train: &Dataset,
    config: &DistillConfig,
    rng: &mut Rng64,
) -> Result<DistilledStudent, MuffinError> {
    if train.is_empty() {
        return Err(MuffinError::InvalidConfig("cannot distill on an empty dataset".into()));
    }
    if config.student_hidden.contains(&0) {
        return Err(MuffinError::InvalidConfig("student widths must be positive".into()));
    }
    let teacher_labels = fusing.predict(pool, train.features());
    let spec = MlpSpec::new(train.feature_dim(), &config.student_hidden, train.num_classes())
        .with_activation(config.activation);
    let mut student = Mlp::new(&spec, rng);
    let trainer =
        ClassifierTrainer::new(config.epochs, config.batch_size).with_schedule(config.schedule);
    trainer.fit(
        &mut student,
        train.features(),
        &teacher_labels,
        None,
        LossKind::CrossEntropy,
        rng,
        &Tracer::noop(),
    );
    Ok(DistilledStudent { student, teacher_params: fusing.total_reported_params(pool) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeadSpec, HeadTrainConfig, PrivilegeMap, ProxyDataset};
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig};
    use muffin_nn::accuracy;

    fn fixture() -> (FusingStructure, ModelPool, muffin_data::DatasetSplit, Rng64) {
        let mut rng = Rng64::seed(130);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let age = split.train.schema().by_name("age").unwrap();
        let site = split.train.schema().by_name("site").unwrap();
        let privilege = PrivilegeMap::infer(&pool, &split.val, &[age, site], 0.02);
        let proxy = ProxyDataset::build(&split.train, &privilege).expect("proxy");
        let mut fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 12], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        fusing.train_head(&pool, &split.train, &proxy, &HeadTrainConfig::fast(), &mut rng);
        (fusing, pool, split, rng)
    }

    #[test]
    fn student_is_dramatically_smaller_than_teacher() {
        let (fusing, pool, split, mut rng) = fixture();
        let config = DistillConfig { epochs: 10, ..DistillConfig::default() };
        let distilled =
            distill_student(&fusing, &pool, &split.train, &config, &mut rng).expect("distills");
        assert!(
            distilled.compression() > 100.0,
            "compression {}x too small",
            distilled.compression()
        );
    }

    #[test]
    fn student_approximates_the_teacher() {
        let (fusing, pool, split, mut rng) = fixture();
        let config = DistillConfig { epochs: 25, ..DistillConfig::default() };
        let distilled =
            distill_student(&fusing, &pool, &split.train, &config, &mut rng).expect("distills");
        let teacher_preds = fusing.predict(&pool, split.test.features());
        let student_preds = distilled.predict(split.test.features());
        let agreement = accuracy(&student_preds, &teacher_preds);
        assert!(agreement > 0.6, "student/teacher agreement {agreement}");
        let teacher_acc = accuracy(&teacher_preds, split.test.labels());
        let student_acc = accuracy(&student_preds, split.test.labels());
        assert!(
            student_acc > teacher_acc - 0.15,
            "student {student_acc} lost too much vs teacher {teacher_acc}"
        );
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let (fusing, pool, split, mut rng) = fixture();
        let config = DistillConfig { student_hidden: vec![0], ..DistillConfig::default() };
        assert!(distill_student(&fusing, &pool, &split.train, &config, &mut rng).is_err());
        let empty = split.train.subset(&[]);
        assert!(distill_student(
            &fusing,
            &pool,
            &empty,
            &DistillConfig::default(),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn evaluation_reports_all_attributes() {
        let (fusing, pool, split, mut rng) = fixture();
        let config = DistillConfig { epochs: 5, ..DistillConfig::default() };
        let distilled =
            distill_student(&fusing, &pool, &split.train, &config, &mut rng).expect("distills");
        let eval = distilled.evaluate(&split.test);
        assert_eq!(eval.attributes.len(), 3);
        assert!(eval.model.contains("distilled"));
    }
}
