use crate::{Architecture, FrozenModel};
use muffin_data::Dataset;
use muffin_nn::{ClassifierTrainer, LossKind, LrSchedule, Mlp, MlpSpec};
use muffin_tensor::{Init, Matrix, Rng64};
use muffin_trace::Tracer;

/// Training configuration for the simulated off-the-shelf backbones.
///
/// The paper trains every competitor "from scratch with the same
/// hyperparameters": learning rate 0.1 decaying ×0.9 every 20 steps, batch
/// size 64 — which [`BackboneConfig::default`] mirrors at CPU scale.
///
/// # Example
///
/// ```
/// use muffin_models::BackboneConfig;
///
/// let cfg = BackboneConfig::default();
/// assert_eq!(cfg.batch_size, 64);
/// ```
#[derive(Debug, Clone)]
pub struct BackboneConfig {
    /// Training epochs.
    pub epochs: u32,
    /// Mini-batch size (the paper uses 64).
    pub batch_size: usize,
    /// Learning-rate schedule (the paper's step decay by default).
    pub schedule: LrSchedule,
}

muffin_json::impl_json!(struct BackboneConfig { epochs, batch_size, schedule });

impl Default for BackboneConfig {
    fn default() -> Self {
        Self { epochs: 60, batch_size: 64, schedule: LrSchedule::paper() }
    }
}

impl BackboneConfig {
    /// A fast configuration for tests and examples (12 epochs).
    pub fn fast() -> Self {
        Self { epochs: 12, batch_size: 64, schedule: LrSchedule::paper() }
    }

    /// Overrides the epoch count.
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }
}

/// Trains one backbone: fixes the architecture's random projection, then
/// fits its MLP with cross-entropy on (optionally weighted/resampled)
/// training data.
///
/// `sample_weights` and `indices` are the hooks the fairness baselines
/// use: `indices` resamples the training set (data balancing, method D)
/// and `sample_weights` reweights the loss (fair loss, method L).
pub(crate) fn train_backbone(
    name: String,
    architecture: &Architecture,
    train: &Dataset,
    config: &BackboneConfig,
    sample_weights: Option<&[f32]>,
    indices: Option<&[usize]>,
    rng: &mut Rng64,
) -> FrozenModel {
    // The projection is the architecture's fixed "view" of the features —
    // seeded by the architecture, not the experiment, so the same
    // architecture always looks at the data the same way. Distinct views
    // are what make pool members' errors complementary (Observation 3).
    let mut proj_rng = Rng64::seed(architecture.seed_offset().wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let projection = Matrix::random(
        train.feature_dim(),
        architecture.projection_dim(),
        Init::XavierUniform,
        &mut proj_rng,
    );

    let (features, labels, weights): (Matrix, Vec<usize>, Option<Vec<f32>>) = match indices {
        Some(idx) => {
            let f = train.features().select_rows(idx);
            let l = idx.iter().map(|&i| train.labels()[i]).collect();
            let w = sample_weights.map(|w| idx.iter().map(|&i| w[i]).collect());
            (f, l, w)
        }
        None => {
            (train.features().clone(), train.labels().to_vec(), sample_weights.map(<[f32]>::to_vec))
        }
    };
    let projected = features.matmul(&projection);

    let spec = MlpSpec::new(architecture.projection_dim(), architecture.hidden(), train.num_classes());
    let mut mlp = Mlp::new(&spec, rng);
    let trainer =
        ClassifierTrainer::new(config.epochs, config.batch_size).with_schedule(config.schedule);
    let loss = if weights.is_some() { LossKind::WeightedCrossEntropy } else { LossKind::CrossEntropy };
    trainer.fit(&mut mlp, &projected, &labels, weights.as_deref(), loss, rng, &Tracer::noop());

    FrozenModel::from_parts(name, architecture.clone(), projection, mlp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_nn::accuracy;

    #[test]
    fn backbone_learns_above_chance() {
        let mut rng = Rng64::seed(5);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let model = train_backbone(
            "test".into(),
            &Architecture::resnet18(),
            &split.train,
            &BackboneConfig::fast(),
            None,
            None,
            &mut rng,
        );
        let acc = accuracy(&model.predict(split.test.features()), split.test.labels());
        assert!(acc > 0.3, "accuracy {acc} should beat 12.5% chance comfortably");
    }

    #[test]
    fn same_architecture_same_projection() {
        let mut rng = Rng64::seed(6);
        let ds = IsicLike::small().generate(&mut rng);
        let a = train_backbone(
            "a".into(),
            &Architecture::resnet18(),
            &ds,
            &BackboneConfig::fast().with_epochs(1),
            None,
            None,
            &mut Rng64::seed(1),
        );
        let b = train_backbone(
            "b".into(),
            &Architecture::resnet18(),
            &ds,
            &BackboneConfig::fast().with_epochs(1),
            None,
            None,
            &mut Rng64::seed(2),
        );
        // Different training seeds, same architecture: identical projection.
        let x = Matrix::filled(1, ds.feature_dim(), 1.0);
        assert_eq!(a.project(&x), b.project(&x));
    }

    #[test]
    fn different_architectures_see_different_views() {
        let mut rng = Rng64::seed(7);
        let ds = IsicLike::small().generate(&mut rng);
        let cfg = BackboneConfig::fast().with_epochs(1);
        let a = train_backbone(
            "a".into(),
            &Architecture::resnet18(),
            &ds,
            &cfg,
            None,
            None,
            &mut Rng64::seed(1),
        );
        let b = train_backbone(
            "b".into(),
            &Architecture::densenet121(),
            &ds,
            &cfg,
            None,
            None,
            &mut Rng64::seed(1),
        );
        let x = Matrix::filled(1, ds.feature_dim(), 1.0);
        assert_ne!(a.project(&x).row(0)[..4], b.project(&x).row(0)[..4]);
    }

    #[test]
    fn resampling_indices_changes_training_emphasis() {
        let mut rng = Rng64::seed(8);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        // Train only on class-0 samples: model should then heavily favor class 0.
        let only_zero: Vec<usize> = split
            .train
            .labels()
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == 0)
            .map(|(i, _)| i)
            .collect();
        let model = train_backbone(
            "skewed".into(),
            &Architecture::resnet18(),
            &split.train,
            &BackboneConfig::fast(),
            None,
            Some(&only_zero),
            &mut rng,
        );
        let preds = model.predict(split.test.features());
        let zero_rate = preds.iter().filter(|&&p| p == 0).count() as f32 / preds.len() as f32;
        assert!(zero_rate > 0.9, "zero rate {zero_rate}");
    }
}
