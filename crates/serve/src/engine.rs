use muffin::{BodyOutputCache, FusingStructure, HeadSpec, HeadTrainConfig, MuffinError};
use muffin_data::IsicLike;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::{Matrix, Rng64};

/// An immutable fused model ready to serve: the frozen pool, the trained
/// fusing structure and the feature width requests must match.
///
/// The engine is `Sync`, so one instance is shared by reference across all
/// serving workers; every batch goes through the **checked** request path
/// ([`FusingStructure::try_predict_cached`]) so a malformed structure (e.g.
/// deserialized from a corrupt checkpoint) surfaces as an error reply, not
/// a worker panic.
#[derive(Debug)]
pub struct ServeEngine {
    pool: ModelPool,
    fusing: FusingStructure,
    num_features: usize,
}

impl ServeEngine {
    /// Wraps a pool and a fusing structure for serving. `num_features` is
    /// the feature width every request row must have.
    pub fn new(pool: ModelPool, fusing: FusingStructure, num_features: usize) -> Self {
        Self {
            pool,
            fusing,
            num_features,
        }
    }

    /// Builds a small self-contained demo deployment: the `IsicLike` small
    /// dataset, a two-model pool (ResNet-18 + DenseNet121, fast training)
    /// and a `[16,8] relu` head trained on the age-proxy — everything the
    /// `muffin serve` / `muffin loadgen` commands need without files on
    /// disk. Returns the engine plus the test-split feature matrix for
    /// load generation. Deterministic in `seed`.
    pub fn demo(seed: u64) -> (ServeEngine, Matrix) {
        let mut rng = Rng64::seed(seed);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let mut map = muffin::PrivilegeMap::new();
        map.set(
            split.train.schema().by_name("age").expect("age"),
            vec![4, 5],
        );
        let proxy =
            muffin::ProxyDataset::build(&split.train, &map).expect("isic-like has age groups");
        let mut fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 8], muffin_nn::Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("two-model body is valid");
        fusing.train_head(
            &pool,
            &split.train,
            &proxy,
            &HeadTrainConfig::fast(),
            &mut rng,
        );
        let num_features = split.train.feature_dim();
        (
            Self::new(pool, fusing, num_features),
            split.test.features().clone(),
        )
    }

    /// Feature width every request row must have.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.pool
            .get(0)
            .map(|m| m.num_classes())
            .unwrap_or_default()
    }

    /// Runs one fused forward pass over a batch of request rows and
    /// returns one class per row.
    ///
    /// Body outputs go through a per-batch [`BodyOutputCache`], so each
    /// pool model runs exactly one forward per batch however many rows the
    /// batch coalesced.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] if the batch width does not
    /// match [`ServeEngine::num_features`], a feature is NaN or infinite,
    /// or the fusing structure fails validation against the pool.
    pub fn predict_batch(&self, features: Matrix) -> Result<Vec<usize>, MuffinError> {
        if features.cols() != self.num_features {
            return Err(MuffinError::InvalidConfig(format!(
                "request batch has {} features per row, the engine expects {}",
                features.cols(),
                self.num_features
            )));
        }
        for (r, row) in features.iter_rows().enumerate() {
            if let Some(c) = non_finite(row) {
                return Err(MuffinError::InvalidConfig(format!(
                    "request batch row {r}, column {c} is {}: features must be finite",
                    row[c]
                )));
            }
        }
        let cache = BodyOutputCache::new(&self.pool, features);
        self.fusing.try_predict_cached(&cache)
    }
}

/// Column of the first NaN or infinite value in `row`. The backbones would
/// answer such a row anyway (ReLU maps NaN to 0), with a class that means
/// nothing.
pub(crate) fn non_finite(row: &[f32]) -> Option<usize> {
    row.iter().position(|v| !v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_engine_serves_its_own_samples() {
        let (engine, samples) = ServeEngine::demo(7);
        assert_eq!(engine.num_features(), samples.cols());
        assert!(engine.num_classes() > 0);
        let preds = engine
            .predict_batch(samples.clone())
            .expect("well-formed batch");
        assert_eq!(preds.len(), samples.rows());
        assert!(preds.iter().all(|&c| c < engine.num_classes()));
    }

    #[test]
    fn wrong_width_batches_error_instead_of_panicking() {
        let (engine, _) = ServeEngine::demo(7);
        let bad = Matrix::zeros(3, engine.num_features() + 1);
        let err = engine.predict_batch(bad).unwrap_err();
        assert!(matches!(err, MuffinError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn non_finite_features_error_naming_row_and_column() {
        let (engine, samples) = ServeEngine::demo(7);
        for (bad, shown) in [
            (f32::NAN, "NaN"),
            (f32::INFINITY, "inf"),
            (f32::NEG_INFINITY, "-inf"),
        ] {
            let mut batch = samples.row_range(0..3);
            batch.set(2, 5, bad);
            let err = engine.predict_batch(batch).unwrap_err();
            let want = format!("request batch row 2, column 5 is {shown}");
            assert!(
                matches!(&err, MuffinError::InvalidConfig(m) if m.contains(&want)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn batch_prediction_is_row_independent() {
        let (engine, samples) = ServeEngine::demo(7);
        let full = engine
            .predict_batch(samples.row_range(0..8))
            .expect("batch of 8");
        for r in 0..8 {
            let single = engine
                .predict_batch(samples.row_range(r..r + 1))
                .expect("batch of 1");
            assert_eq!(single, vec![full[r]], "row {r} depends on its batch");
        }
    }
}
