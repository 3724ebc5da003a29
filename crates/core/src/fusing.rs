use crate::{BodyOutputCache, MuffinError, ProxyDataset};
use muffin_data::Dataset;
use muffin_models::ModelPool;
use muffin_nn::{Activation, ClassifierTrainer, LossKind, LrSchedule, Mlp, MlpSpec};
use muffin_tensor::{Matrix, Rng64};
use muffin_trace::Tracer;
use std::fmt;

/// Architecture of the muffin head: the MLP the controller searches over
/// (paper component ① — hidden widths like `[16, 18, 12, 8]` plus the
/// activation function).
///
/// # Example
///
/// ```
/// use muffin::HeadSpec;
/// use muffin_nn::Activation;
///
/// let spec = HeadSpec::new(vec![16, 18, 12, 8], Activation::Relu);
/// assert_eq!(spec.to_string(), "[16,18,12,8] relu");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadSpec {
    hidden: Vec<usize>,
    activation: Activation,
}

muffin_json::impl_json!(struct HeadSpec { hidden, activation });

impl HeadSpec {
    /// Creates a head spec from hidden widths and an activation.
    ///
    /// # Panics
    ///
    /// Panics if any width is zero.
    pub fn new(hidden: Vec<usize>, activation: Activation) -> Self {
        assert!(
            hidden.iter().all(|&h| h > 0),
            "head widths must be positive"
        );
        Self { hidden, activation }
    }

    /// Hidden layer widths.
    pub fn hidden(&self) -> &[usize] {
        &self.hidden
    }

    /// Hidden activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The MLP spec for a head with this shape.
    pub fn to_mlp_spec(&self, input_dim: usize, num_classes: usize) -> MlpSpec {
        MlpSpec::new(input_dim, &self.hidden, num_classes).with_activation(self.activation)
    }
}

impl fmt::Display for HeadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, h) in self.hidden.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{h}")?;
        }
        write!(f, "] {}", self.activation)
    }
}

/// Training configuration for the muffin head.
#[derive(Debug, Clone)]
pub struct HeadTrainConfig {
    /// Training epochs.
    pub epochs: u32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Loss — the paper's Eq. 2 weighted MSE by default.
    pub loss: LossKind,
}

muffin_json::impl_json!(struct HeadTrainConfig { epochs, batch_size, schedule, loss });

impl Default for HeadTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 64,
            schedule: LrSchedule::StepDecay {
                initial: 0.4,
                decay: 0.9,
                every: 12,
            },
            loss: LossKind::WeightedMse,
        }
    }
}

impl HeadTrainConfig {
    /// A fast configuration for tests (8 epochs).
    pub fn fast() -> Self {
        Self {
            epochs: 8,
            ..Self::default()
        }
    }
}

/// The paper's model-fusing structure: a "muffin body" of selected frozen
/// pool models whose output probabilities feed a trained "muffin head"
/// MLP.
///
/// At inference the structure applies **consensus gating**: when every
/// selected model predicts the same class the consensus stands (the paper:
/// "the proposed technique is not going to change the output if all models
/// reached consensus"); the head arbitrates only disagreements.
///
/// # Example
///
/// ```
/// use muffin::{FusingStructure, HeadSpec, HeadTrainConfig, PrivilegeMap, ProxyDataset};
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_nn::Activation;
/// use muffin_tensor::Rng64;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Rng64::seed(11);
/// let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::resnet18(), Architecture::densenet121()],
///     &BackboneConfig::fast(),
///     &mut rng,
/// );
/// let mut map = PrivilegeMap::new();
/// map.set(split.train.schema().by_name("age").unwrap(), vec![4, 5]);
/// let proxy = ProxyDataset::build(&split.train, &map)?;
/// let mut fusing = FusingStructure::new(
///     vec![0, 1],
///     HeadSpec::new(vec![16, 8], Activation::Relu),
///     &pool,
///     &mut rng,
/// )?;
/// fusing.train_head(&pool, &split.train, &proxy, &HeadTrainConfig::fast(), &mut rng);
/// let preds = fusing.predict(&pool, split.test.features());
/// assert_eq!(preds.len(), split.test.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FusingStructure {
    model_indices: Vec<usize>,
    head_spec: HeadSpec,
    head: Mlp,
    num_classes: usize,
    consensus_gating: bool,
}

muffin_json::impl_json!(struct FusingStructure { model_indices, head_spec, head, num_classes, consensus_gating });

impl FusingStructure {
    /// Creates an untrained fusing structure selecting `model_indices` from
    /// `pool`.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::EmptyPool`] if no model is selected and
    /// [`MuffinError::InvalidConfig`] if an index is out of range or
    /// duplicated.
    pub fn new(
        model_indices: Vec<usize>,
        head_spec: HeadSpec,
        pool: &ModelPool,
        rng: &mut Rng64,
    ) -> Result<Self, MuffinError> {
        if model_indices.is_empty() {
            return Err(MuffinError::EmptyPool);
        }
        for &i in &model_indices {
            if i >= pool.len() {
                return Err(MuffinError::InvalidConfig(format!(
                    "model index {i} out of range for pool of {}",
                    pool.len()
                )));
            }
        }
        let mut seen = model_indices.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != model_indices.len() {
            return Err(MuffinError::InvalidConfig(
                "duplicate model selected".into(),
            ));
        }
        let num_classes = pool
            .get(model_indices[0])
            .expect("validated index")
            .num_classes();
        let input_dim = num_classes * model_indices.len();
        let head = Mlp::new(&head_spec.to_mlp_spec(input_dim, num_classes), rng);
        Ok(Self {
            model_indices,
            head_spec,
            head,
            num_classes,
            consensus_gating: true,
        })
    }

    /// Disables or enables consensus gating (ablation: the head then
    /// overrides even unanimous bodies).
    pub fn set_consensus_gating(&mut self, enabled: bool) {
        self.consensus_gating = enabled;
    }

    /// Whether consensus gating is active.
    pub fn consensus_gating(&self) -> bool {
        self.consensus_gating
    }

    /// Indices of the selected pool models (the muffin body).
    pub fn model_indices(&self) -> &[usize] {
        &self.model_indices
    }

    /// The head architecture.
    pub fn head_spec(&self) -> &HeadSpec {
        &self.head_spec
    }

    /// Trainable parameters in the head.
    pub fn head_param_count(&self) -> usize {
        self.head.param_count()
    }

    /// Total parameters including the (frozen) bodies' reported CNN sizes —
    /// the x-axis of the paper's Figure 9(b).
    pub fn total_reported_params(&self, pool: &ModelPool) -> u64 {
        let body: u64 = self
            .model_indices
            .iter()
            .filter_map(|&i| pool.get(i))
            .map(|m| m.reported_params())
            .sum();
        body + self.head_param_count() as u64
    }

    /// Trains the head on the proxy dataset with the paper's Eq. 2 loss
    /// (or the configured alternative). Body parameters stay frozen.
    ///
    /// Each body model runs one forward pass over the proxy rows of
    /// `source`; the head then trains on their concatenated probabilities
    /// through [`FusingStructure::train_head_on_inputs`].
    pub fn train_head(
        &mut self,
        pool: &ModelPool,
        source: &Dataset,
        proxy: &ProxyDataset,
        config: &HeadTrainConfig,
        rng: &mut Rng64,
    ) {
        let (bodies, labels) = proxy.bodies(pool, source);
        self.train_head_on_inputs(
            &bodies.head_inputs(&self.model_indices),
            &labels,
            proxy.weights(),
            config,
            rng,
            &Tracer::noop(),
        );
    }

    /// Trains the head directly on precomputed head inputs (concatenated
    /// body probabilities, e.g. [`BodyOutputCache::head_inputs`]).
    ///
    /// Records a `fusing.train_head` span (epochs, steps, final loss,
    /// samples) plus one `nn.epoch` span per epoch into `tracer`. Tracing
    /// never touches `rng`, so the trained head is bit-identical with a
    /// capturing or a no-op tracer.
    pub fn train_head_on_inputs(
        &mut self,
        inputs: &Matrix,
        labels: &[usize],
        weights: &[f32],
        config: &HeadTrainConfig,
        rng: &mut Rng64,
        tracer: &Tracer,
    ) {
        let start = std::time::Instant::now();
        let trainer =
            ClassifierTrainer::new(config.epochs, config.batch_size).with_schedule(config.schedule);
        let report = trainer.fit(
            &mut self.head,
            inputs,
            labels,
            Some(weights),
            config.loss,
            rng,
            tracer,
        );
        if tracer.is_enabled() {
            tracer.record_span(
                "fusing.train_head",
                vec![
                    muffin_trace::Field::new("epochs", config.epochs as usize),
                    muffin_trace::Field::new("steps", report.steps as usize),
                    muffin_trace::Field::new("final_loss", report.final_loss().unwrap_or(f32::NAN)),
                    muffin_trace::Field::new("samples", labels.len()),
                ],
                start.elapsed(),
            );
        }
    }

    /// Predicts classes for `features`: consensus where the body agrees,
    /// head output where it disagrees.
    ///
    /// Runs [`FusingStructure::try_predict_cached`] over a fresh
    /// [`BodyOutputCache`] of `features`, so each body model runs a single
    /// forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the structure's body is invalid for `pool` — a structure
    /// built through [`FusingStructure::new`] against this pool never is.
    /// Request paths handling structures from untrusted sources (e.g.
    /// deserialized checkpoints) should call
    /// [`FusingStructure::try_predict_cached`] instead.
    pub fn predict(&self, pool: &ModelPool, features: &Matrix) -> Vec<usize> {
        self.try_predict_cached(&BodyOutputCache::borrowing(pool, features))
            .expect("fusing structure validated against this pool")
    }

    /// Predicts classes from cached body outputs, validating the structure
    /// against the cache's pool up front and returning an error instead of
    /// panicking — the serving request path's entry point.
    ///
    /// Consensus gating decides first, from the bodies' cached
    /// predictions: a row where every body agrees takes their answer and
    /// never reaches the head. The head runs once, on the disputed rows
    /// alone (every row with gating off), reading each body's cached
    /// probabilities for those rows side by side. The head answers each
    /// row from that row alone, so the answers equal a head run over every
    /// row. Each call reads each body's cache slot twice, once for its
    /// predictions and once for its probabilities, whatever the gate
    /// decides.
    ///
    /// A [`FusingStructure`] deserialized from JSON bypasses the
    /// constructor's checks, so a serving path must not assume its body
    /// and head fit the pool or each other.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] if the structure selects no
    /// body models, selects an index out of range for the cache's pool,
    /// selects a model whose class count differs from the structure's, or
    /// has a head whose input width differs from the selected models'
    /// summed class counts.
    pub fn try_predict_cached(
        &self,
        cache: &BodyOutputCache<'_>,
    ) -> Result<Vec<usize>, MuffinError> {
        self.validate_body(cache.pool())?;
        let votes: Vec<&[usize]> = self
            .model_indices
            .iter()
            .map(|&i| cache.predictions(i))
            .collect();
        let probs: Vec<&Matrix> = self.model_indices.iter().map(|&i| cache.probs(i)).collect();
        let mut preds = votes[0].to_vec();
        let disputed: Vec<usize> = (0..preds.len())
            .filter(|&s| !self.consensus_gating || votes.iter().any(|v| v[s] != preds[s]))
            .collect();
        if disputed.is_empty() {
            return Ok(preds);
        }
        let mut inputs = Matrix::zeros(disputed.len(), self.num_classes * probs.len());
        for (r, &s) in disputed.iter().enumerate() {
            let blocks = inputs.row_mut(r).chunks_exact_mut(self.num_classes);
            for (block, p) in blocks.zip(&probs) {
                block.copy_from_slice(p.row(s));
            }
        }
        for (&s, class) in disputed.iter().zip(self.head.predict(&inputs)) {
            preds[s] = class;
        }
        Ok(preds)
    }

    /// Checks that the structure fits `pool`: it selects at least one
    /// model, every selected index is in range, every selected model
    /// predicts the structure's classes, and the head's first layer reads
    /// exactly their concatenated probabilities. The constructor
    /// guarantees all of it, JSON deserialization none.
    fn validate_body(&self, pool: &ModelPool) -> Result<(), MuffinError> {
        if self.model_indices.is_empty() {
            return Err(MuffinError::InvalidConfig(
                "fusing structure selects no body models".into(),
            ));
        }
        let mut width = 0;
        for &i in &self.model_indices {
            let model = pool.get(i).ok_or_else(|| {
                MuffinError::InvalidConfig(format!(
                    "model index {i} out of range for pool of {}",
                    pool.len()
                ))
            })?;
            if model.num_classes() != self.num_classes {
                return Err(MuffinError::InvalidConfig(format!(
                    "body model {i} ({}) predicts {} classes, but the structure has {}",
                    model.name(),
                    model.num_classes(),
                    self.num_classes
                )));
            }
            width += model.num_classes();
        }
        let head_width = self.head.layers().first().map_or(0, |l| l.in_dim());
        if head_width != width {
            return Err(MuffinError::InvalidConfig(format!(
                "the head reads {head_width} inputs, but the body {:?} outputs {width} probabilities",
                self.model_indices
            )));
        }
        Ok(())
    }

    /// Evaluates the fused model on `dataset`.
    pub fn evaluate(&self, pool: &ModelPool, dataset: &Dataset) -> muffin_models::ModelEvaluation {
        let cache = BodyOutputCache::borrowing(pool, dataset.features());
        self.evaluate_cached(pool, &cache, dataset, &Tracer::noop())
    }

    /// Evaluates the fused model on `dataset` from `cache`, which must
    /// hold `dataset`'s features, observing the prediction latency into
    /// `tracer`'s `fusing.predict_batch` histogram.
    pub(crate) fn evaluate_cached(
        &self,
        pool: &ModelPool,
        cache: &BodyOutputCache<'_>,
        dataset: &Dataset,
        tracer: &Tracer,
    ) -> muffin_models::ModelEvaluation {
        let start = std::time::Instant::now();
        let preds = self
            .try_predict_cached(cache)
            .expect("fusing structure validated against the cache's pool");
        tracer.observe("fusing.predict_batch", start.elapsed());
        let names: Vec<&str> = self
            .model_indices
            .iter()
            .filter_map(|&i| pool.get(i))
            .map(|m| m.name())
            .collect();
        let label = format!("Muffin({} | {})", names.join("+"), self.head_spec);
        muffin_models::ModelEvaluation::of(&preds, dataset, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PrivilegeMap;
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig};
    use muffin_nn::accuracy;

    fn setup() -> (ModelPool, muffin_data::DatasetSplit, ProxyDataset, Rng64) {
        let mut rng = Rng64::seed(50);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let mut map = PrivilegeMap::new();
        map.set(split.train.schema().by_name("age").unwrap(), vec![4, 5]);
        map.set(
            split.train.schema().by_name("site").unwrap(),
            vec![5, 6, 7, 8],
        );
        let proxy = ProxyDataset::build(&split.train, &map).expect("proxy");
        (pool, split, proxy, rng)
    }

    #[test]
    fn rejects_empty_selection() {
        let (pool, _, _, mut rng) = setup();
        let err = FusingStructure::new(
            vec![],
            HeadSpec::new(vec![8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, MuffinError::EmptyPool);
    }

    #[test]
    fn rejects_out_of_range_and_duplicates() {
        let (pool, _, _, mut rng) = setup();
        let spec = HeadSpec::new(vec![8], Activation::Relu);
        assert!(matches!(
            FusingStructure::new(vec![9], spec.clone(), &pool, &mut rng),
            Err(MuffinError::InvalidConfig(_))
        ));
        assert!(matches!(
            FusingStructure::new(vec![0, 0], spec, &pool, &mut rng),
            Err(MuffinError::InvalidConfig(_))
        ));
    }

    #[test]
    fn head_input_dim_is_models_times_classes() {
        let (pool, split, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        let cache = BodyOutputCache::new(&pool, split.test.features().clone());
        let inputs = cache.head_inputs(fusing.model_indices());
        assert_eq!(inputs.cols(), 2 * 8);
        assert_eq!(inputs.rows(), split.test.len());
    }

    #[test]
    fn consensus_gating_respects_unanimous_body() {
        let (pool, split, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        // Untrained head: wherever the two bodies agree, the fused output
        // must equal the consensus anyway.
        let preds = fusing.predict(&pool, split.test.features());
        let a = pool.get(0).unwrap().predict(split.test.features());
        let b = pool.get(1).unwrap().predict(split.test.features());
        for i in 0..preds.len() {
            if a[i] == b[i] {
                assert_eq!(preds[i], a[i], "consensus overridden at {i}");
            }
        }
    }

    #[test]
    fn trained_head_beats_untrained_on_proxy_groups() {
        let (pool, split, proxy, mut rng) = setup();
        let mut fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 12], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        let before = accuracy(
            &fusing.predict(&pool, split.test.features()),
            split.test.labels(),
        );
        fusing.train_head(
            &pool,
            &split.train,
            &proxy,
            &HeadTrainConfig::default(),
            &mut rng,
        );
        let after = accuracy(
            &fusing.predict(&pool, split.test.features()),
            split.test.labels(),
        );
        assert!(
            after >= before - 0.02,
            "training should not degrade accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn fused_model_at_least_matches_best_body_overall() {
        let (pool, split, proxy, mut rng) = setup();
        let mut fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 12], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        fusing.train_head(
            &pool,
            &split.train,
            &proxy,
            &HeadTrainConfig::default(),
            &mut rng,
        );
        let fused = accuracy(
            &fusing.predict(&pool, split.test.features()),
            split.test.labels(),
        );
        let best_body = (0..2)
            .map(|i| {
                accuracy(
                    &pool.get(i).unwrap().predict(split.test.features()),
                    split.test.labels(),
                )
            })
            .fold(f32::MIN, f32::max);
        assert!(
            fused > best_body - 0.05,
            "fused {fused} vs best body {best_body}"
        );
    }

    #[test]
    fn total_params_include_bodies_and_head() {
        let (pool, _, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        let expected_body = 11_689_512u64 + 7_978_856;
        assert_eq!(
            fusing.total_reported_params(&pool),
            expected_body + fusing.head_param_count() as u64
        );
    }

    #[test]
    fn parallel_prediction_matches_serial() {
        let (pool, split, proxy, mut rng) = setup();
        let mut fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 12], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        fusing.train_head(
            &pool,
            &split.train,
            &proxy,
            &HeadTrainConfig::fast(),
            &mut rng,
        );
        // Predictions are per-row: fanning contiguous row ranges out over
        // any number of workers reproduces the whole-matrix prediction.
        let features = split.test.features();
        let serial = fusing.predict(&pool, features);
        for workers in [1usize, 2, 4, 32] {
            let size = features.rows().div_ceil(workers);
            let chunks: Vec<std::ops::Range<usize>> = (0..features.rows())
                .step_by(size)
                .map(|start| start..(start + size).min(features.rows()))
                .collect();
            let parallel: Vec<usize> = muffin_par::WorkerPool::new(workers)
                .map(&chunks, |_, range| {
                    fusing.predict(&pool, &features.row_range(range.clone()))
                })
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn cached_prediction_matches_uncached() {
        let (pool, split, proxy, mut rng) = setup();
        let mut fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 12], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        fusing.train_head(
            &pool,
            &split.train,
            &proxy,
            &HeadTrainConfig::fast(),
            &mut rng,
        );
        // The uncached reference, from direct model calls: the head reads
        // the bodies' concatenated probabilities and arbitrates wherever
        // their hard predictions disagree.
        let features = split.test.features();
        let probs: Vec<Matrix> = (0..2)
            .map(|i| pool.get(i).unwrap().predict_proba(features))
            .collect();
        let head = fusing
            .head
            .predict(&Matrix::hcat(&[&probs[0], &probs[1]]).unwrap());
        let bodies: Vec<Vec<usize>> = (0..2)
            .map(|i| pool.get(i).unwrap().predict(features))
            .collect();
        let uncached: Vec<usize> = (0..head.len())
            .map(|s| {
                if bodies[0][s] == bodies[1][s] {
                    bodies[0][s]
                } else {
                    head[s]
                }
            })
            .collect();
        let cache = BodyOutputCache::new(&pool, features.clone());
        assert_eq!(fusing.try_predict_cached(&cache).unwrap(), uncached);
        assert_eq!(fusing.predict(&pool, features), uncached);
        let eval = fusing.evaluate_cached(&pool, &cache, &split.test, &Tracer::noop());
        let direct = fusing.evaluate(&pool, &split.test);
        assert_eq!(eval.accuracy.to_bits(), direct.accuracy.to_bits());
        // Gating off must flow through the cached path too.
        fusing.set_consensus_gating(false);
        assert_eq!(fusing.try_predict_cached(&cache).unwrap(), head);
    }

    #[test]
    fn deserialized_structure_with_empty_body_errors_instead_of_panicking() {
        let (pool, split, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        // JSON deserialization bypasses the constructor's validation, so a
        // hand-edited or corrupted checkpoint can carry an empty body.
        let json = muffin_json::to_string(&fusing)
            .replace("\"model_indices\":[0,1]", "\"model_indices\":[]");
        let hollow: FusingStructure = muffin_json::from_str(&json).expect("parse");
        assert!(hollow.model_indices().is_empty());
        let cache = BodyOutputCache::new(&pool, split.test.features().clone());
        let err = hollow.try_predict_cached(&cache).unwrap_err();
        assert!(matches!(err, MuffinError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn deserialized_structure_with_out_of_range_body_errors() {
        let (pool, split, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        let json = muffin_json::to_string(&fusing)
            .replace("\"model_indices\":[0,1]", "\"model_indices\":[0,9]");
        let wild: FusingStructure = muffin_json::from_str(&json).expect("parse");
        let cache = BodyOutputCache::new(&pool, split.test.features().clone());
        let err = wild.try_predict_cached(&cache).unwrap_err();
        assert!(
            matches!(&err, MuffinError::InvalidConfig(m) if m.contains("out of range")),
            "{err:?}"
        );
    }

    #[test]
    fn deserialized_structure_whose_head_does_not_fit_its_body_errors() {
        let (pool, split, _, mut rng) = setup();
        let spec = HeadSpec::new(vec![8], Activation::Relu);
        let pair = FusingStructure::new(vec![0, 1], spec.clone(), &pool, &mut rng).expect("valid");
        let single = FusingStructure::new(vec![0], spec, &pool, &mut rng).expect("valid");
        let edit = |fusing: &FusingStructure, from: &str, to: &str| -> FusingStructure {
            let json = muffin_json::to_string(fusing);
            assert!(json.contains(from), "{json}");
            muffin_json::from_str(&json.replace(from, to)).expect("parse")
        };
        let misfits = [
            (
                edit(&pair, "\"model_indices\":[0,1]", "\"model_indices\":[0]"),
                "the head reads 16 inputs, but the body [0] outputs 8 probabilities",
            ),
            (
                edit(&single, "\"model_indices\":[0]", "\"model_indices\":[0,1]"),
                "the head reads 8 inputs, but the body [0, 1] outputs 16 probabilities",
            ),
            (
                edit(&pair, "\"num_classes\":8", "\"num_classes\":9"),
                "body model 0 (ResNet-18) predicts 8 classes, but the structure has 9",
            ),
        ];
        // Rows where the two bodies agree, where no head ever runs, and rows
        // where they disagree, which reach the head of a two-body structure.
        let features = split.test.features();
        let (a, b) = (
            pool.get(0).unwrap().predict(features),
            pool.get(1).unwrap().predict(features),
        );
        let (agreed, disputed): (Vec<usize>, Vec<usize>) =
            (0..features.rows()).partition(|&s| a[s] == b[s]);
        assert!(!agreed.is_empty() && !disputed.is_empty());
        for rows in [agreed, disputed] {
            let cache = BodyOutputCache::new(&pool, features.select_rows(&rows));
            for (misfit, want) in &misfits {
                let err = misfit.try_predict_cached(&cache).unwrap_err();
                assert!(
                    matches!(&err, MuffinError::InvalidConfig(m) if m.contains(want)),
                    "{err:?}"
                );
            }
        }
    }

    #[test]
    fn head_spec_display_matches_paper_notation() {
        let spec = HeadSpec::new(vec![16, 10, 10, 8], Activation::Tanh);
        assert_eq!(spec.to_string(), "[16,10,10,8] tanh");
    }

    #[test]
    fn three_model_bodies_fuse_and_gate() {
        let mut rng = Rng64::seed(51);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[
                Architecture::resnet18(),
                Architecture::densenet121(),
                Architecture::mobilenet_v2(),
            ],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let mut fusing = FusingStructure::new(
            vec![0, 1, 2],
            HeadSpec::new(vec![16], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        let features = split.test.features();
        let cache = BodyOutputCache::new(&pool, features.clone());
        let all_rows = cache.head_inputs(fusing.model_indices());
        assert_eq!(all_rows.cols(), 3 * 8);
        // Unanimous three-way agreement must pass through untouched, and
        // each disputed row, which alone reaches the head, must get the
        // head's answer over the full `hcat`.
        let head = fusing.head.predict(&all_rows);
        let preds = fusing.predict(&pool, features);
        let bodies: Vec<Vec<usize>> = (0..3)
            .map(|i| pool.get(i).unwrap().predict(features))
            .collect();
        let mut disputed = 0;
        for s in 0..preds.len() {
            if bodies.iter().all(|b| b[s] == bodies[0][s]) {
                assert_eq!(preds[s], bodies[0][s], "consensus overridden at {s}");
            } else {
                disputed += 1;
                assert_eq!(preds[s], head[s], "disputed row {s}");
            }
        }
        assert!(
            0 < disputed && disputed < preds.len(),
            "{disputed} of {}",
            preds.len()
        );
        // With gating off every row is disputed.
        fusing.set_consensus_gating(false);
        assert_eq!(fusing.predict(&pool, features), head);
    }

    #[test]
    fn single_model_body_with_gating_is_the_model_itself() {
        let (pool, split, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0],
            HeadSpec::new(vec![8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        // One body always "agrees with itself" → gating passes it through.
        assert_eq!(
            fusing.predict(&pool, split.test.features()),
            pool.get(0).unwrap().predict(split.test.features())
        );
    }

    #[test]
    fn evaluation_label_names_the_bodies_and_head() {
        let (pool, split, _, mut rng) = setup();
        let fusing = FusingStructure::new(
            vec![0, 1],
            HeadSpec::new(vec![16, 8], Activation::Tanh),
            &pool,
            &mut rng,
        )
        .expect("valid");
        let eval = fusing.evaluate(&pool, &split.test);
        assert!(eval.model.contains("ResNet-18"));
        assert!(eval.model.contains("DenseNet121"));
        assert!(eval.model.contains("[16,8] tanh"));
    }

    #[test]
    fn gating_can_be_disabled() {
        let (pool, _, _, mut rng) = setup();
        let mut fusing = FusingStructure::new(
            vec![0],
            HeadSpec::new(vec![8], Activation::Relu),
            &pool,
            &mut rng,
        )
        .expect("valid");
        assert!(fusing.consensus_gating());
        fusing.set_consensus_gating(false);
        assert!(!fusing.consensus_gating());
    }
}
