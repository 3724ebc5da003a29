use crate::backbone::train_backbone;
use crate::{Architecture, BackboneConfig, FrozenModel};
use muffin_data::Dataset;
use muffin_tensor::Rng64;

/// The Muffin "model pool": a set of trained, frozen off-the-shelf models
/// the controller selects the muffin body from.
///
/// # Example
///
/// ```
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(4);
/// let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::resnet18(), Architecture::densenet121()],
///     &BackboneConfig::fast(),
///     &mut rng,
/// );
/// assert!(pool.by_name("DenseNet121").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ModelPool {
    models: Vec<FrozenModel>,
}

muffin_json::impl_json!(struct ModelPool { models });

impl ModelPool {
    /// Builds a pool from already trained models.
    pub fn new(models: Vec<FrozenModel>) -> Self {
        Self { models }
    }

    /// Trains one backbone per architecture on `train` and freezes them.
    pub fn train(
        train: &Dataset,
        architectures: &[Architecture],
        config: &BackboneConfig,
        rng: &mut Rng64,
    ) -> Self {
        Self::train_traced(
            train,
            architectures,
            config,
            rng,
            &muffin_trace::Tracer::noop(),
        )
    }

    /// Like [`ModelPool::train`], recording one `models.train_backbone`
    /// span per architecture into `tracer`. With a no-op tracer this is
    /// exactly `train`: tracing never touches the RNG, so the pool is
    /// bit-identical either way.
    pub fn train_traced(
        train: &Dataset,
        architectures: &[Architecture],
        config: &BackboneConfig,
        rng: &mut Rng64,
        tracer: &muffin_trace::Tracer,
    ) -> Self {
        let models = architectures
            .iter()
            .map(|arch| {
                let mut span = tracer.span("models.train_backbone");
                span.field("architecture", arch.name());
                span.field("samples", train.len());
                train_backbone(
                    arch.name().to_string(),
                    arch,
                    train,
                    config,
                    None,
                    None,
                    rng,
                )
            })
            .collect();
        Self { models }
    }

    /// Number of models in the pool.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The model at `index`, if any.
    pub fn get(&self, index: usize) -> Option<&FrozenModel> {
        self.models.get(index)
    }

    /// Looks a model up by name.
    pub fn by_name(&self, name: &str) -> Option<&FrozenModel> {
        self.models.iter().find(|m| m.name() == name)
    }

    /// Index of the named model, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name() == name)
    }

    /// Iterator over the pool members.
    pub fn iter(&self) -> impl Iterator<Item = &FrozenModel> {
        self.models.iter()
    }

    /// Adds a model (e.g. a baseline-optimised variant) to the pool and
    /// returns its index.
    pub fn push(&mut self, model: FrozenModel) -> usize {
        self.models.push(model);
        self.models.len() - 1
    }

    /// Checks that every model reads the features and predicts the classes
    /// of `data`. The error names the first model that does not, by index
    /// and name, with both numbers: `models[1] (ShuffleNet_V2_X1_0)
    /// predicts 8 classes, but the data has 9`.
    ///
    /// # Errors
    ///
    /// Returns the message above for the first mismatched model.
    pub fn check_data(&self, data: &Dataset) -> Result<(), String> {
        for (i, model) in self.models.iter().enumerate() {
            let model_name = format!("models[{i}] ({})", model.name());
            if model.feature_dim() != data.feature_dim() {
                return Err(format!(
                    "{model_name} reads {} features, but the data has {}",
                    model.feature_dim(),
                    data.feature_dim()
                ));
            }
            if model.num_classes() != data.num_classes() {
                return Err(format!(
                    "{model_name} predicts {} classes, but the data has {}",
                    model.num_classes(),
                    data.num_classes()
                ));
            }
        }
        Ok(())
    }
}

impl FromIterator<FrozenModel> for ModelPool {
    fn from_iter<T: IntoIterator<Item = FrozenModel>>(iter: T) -> Self {
        Self {
            models: iter.into_iter().collect(),
        }
    }
}

impl Extend<FrozenModel> for ModelPool {
    fn extend<T: IntoIterator<Item = FrozenModel>>(&mut self, iter: T) {
        self.models.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_nn::accuracy;

    fn small_pool() -> (ModelPool, muffin_data::DatasetSplit) {
        let mut rng = Rng64::seed(20);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::shufflenet_v2_x1_0()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        (pool, split)
    }

    #[test]
    fn pool_preserves_architecture_order() {
        let (pool, _) = small_pool();
        assert_eq!(pool.get(0).unwrap().name(), "ResNet-18");
        assert_eq!(pool.get(1).unwrap().name(), "ShuffleNet_V2_X1_0");
        assert_eq!(pool.index_of("ShuffleNet_V2_X1_0"), Some(1));
    }

    #[test]
    fn models_disagree_on_some_samples() {
        // Observation 3 of the paper: independently trained models make
        // complementary errors.
        let (pool, split) = small_pool();
        let a = pool.get(0).unwrap().predict(split.test.features());
        let b = pool.get(1).unwrap().predict(split.test.features());
        let disagreement = a.iter().zip(&b).filter(|(x, y)| x != y).count() as f32 / a.len() as f32;
        assert!(
            disagreement > 0.05,
            "disagreement {disagreement} too low for fusing to help"
        );
        assert!(
            disagreement < 0.9,
            "disagreement {disagreement} suspiciously high"
        );
    }

    #[test]
    fn bigger_models_are_usually_stronger() {
        let (pool, split) = small_pool();
        let big = accuracy(
            &pool.get(0).unwrap().predict(split.test.features()),
            split.test.labels(),
        );
        let small = accuracy(
            &pool.get(1).unwrap().predict(split.test.features()),
            split.test.labels(),
        );
        // At this reduced test scale (1.2k samples, 12 epochs) the ordering
        // is noisy; the full-scale ordering is asserted by the Fig. 1
        // experiment binary. Only guard against a dramatic inversion here.
        assert!(big > small - 0.10, "ResNet-18 {big} vs ShuffleNet {small}");
        assert!(big > 0.3 && small > 0.3, "both models must beat chance");
    }

    #[test]
    fn push_and_collect() {
        let (pool, _) = small_pool();
        let mut collected: ModelPool = pool.iter().cloned().collect();
        assert_eq!(collected.len(), 2);
        let m = pool.get(0).unwrap().clone();
        let idx = collected.push(m);
        assert_eq!(idx, 2);
        assert_eq!(collected.len(), 3);
    }
}
