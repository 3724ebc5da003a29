use muffin_models::ModelPool;
use muffin_tensor::Matrix;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Per-model cached body outputs on one fixed feature matrix.
#[derive(Debug)]
struct BodyOutput {
    probs: Matrix,
    preds: Vec<usize>,
}

/// Lazily computed, shareable cache of frozen-body outputs on one dataset
/// split.
///
/// Muffin's pool models are frozen: their probabilities and predictions on
/// a fixed feature matrix never change, so each (model × split) forward
/// pass needs to run **once** per search, not once per candidate. The cache
/// holds one slot per pool model; a slot is filled on first access (a
/// *miss*, counted) and every later access returns the stored output (a
/// *hit*). Slots are [`OnceLock`]s, so a cache shared by reference across
/// search workers computes each forward exactly once regardless of
/// scheduling — hit/miss totals are deterministic for every worker count.
///
/// Probabilities and predictions are produced by a single backbone forward
/// via [`muffin_models::FrozenModel::outputs`], byte-identical to the
/// separate `predict_proba`/`predict` calls they replace.
///
/// # Example
///
/// ```
/// use muffin::BodyOutputCache;
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(3);
/// let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::resnet18()],
///     &BackboneConfig::fast(),
///     &mut rng,
/// );
/// let cache = BodyOutputCache::new(&pool, split.val.features().clone());
/// assert_eq!(cache.misses(), 0);
/// let preds = cache.predictions(0).to_vec();
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(preds, pool.get(0).unwrap().predict(split.val.features()));
/// assert_eq!(cache.predictions(0), preds); // second access: a hit
/// assert_eq!(cache.hits(), 1);
/// ```
#[derive(Debug)]
pub struct BodyOutputCache<'p> {
    pool: &'p ModelPool,
    features: Cow<'p, Matrix>,
    slots: Vec<OnceLock<BodyOutput>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'p> BodyOutputCache<'p> {
    /// Creates an empty cache over `pool` for the given feature matrix.
    /// No forward pass runs until a slot is first accessed.
    pub fn new(pool: &'p ModelPool, features: Matrix) -> Self {
        Self::over(pool, Cow::Owned(features))
    }

    /// Like [`BodyOutputCache::new`], borrowing `features` instead of
    /// owning them: callers scoring a matrix they already hold skip the
    /// copy.
    pub(crate) fn borrowing(pool: &'p ModelPool, features: &'p Matrix) -> Self {
        Self::over(pool, Cow::Borrowed(features))
    }

    fn over(pool: &'p ModelPool, features: Cow<'p, Matrix>) -> Self {
        let slots = (0..pool.len()).map(|_| OnceLock::new()).collect();
        Self {
            pool,
            features,
            slots,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The feature matrix all cached outputs are computed on.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// The pool whose models the cache runs, one slot per model.
    pub(crate) fn pool(&self) -> &'p ModelPool {
        self.pool
    }

    /// Number of cache accesses that found an already-computed slot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache accesses that computed a slot (at most one per
    /// pool model over the cache's lifetime).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn slot(&self, model: usize) -> &BodyOutput {
        let lock = self.slots.get(model).unwrap_or_else(|| {
            panic!(
                "model index {model} out of range for pool of {}",
                self.slots.len()
            )
        });
        if let Some(out) = lock.get() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return out;
        }
        let mut computed = false;
        let out = lock.get_or_init(|| {
            computed = true;
            let (mut probs, preds) = self
                .pool
                .get(model)
                .expect("index validated against pool length")
                .outputs(&self.features);
            // A slot lives as long as the cache, and the probabilities may
            // sit in a forward buffer sized for a wider hidden layer.
            probs.release_spare_pages();
            BodyOutput { probs, preds }
        });
        // If another thread won the init race, this access still served a
        // cached value: count it as a hit so misses always equal the number
        // of forward passes actually run.
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Cached class probabilities of pool model `model` on the cache's
    /// features (computing them on first access).
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range for the pool.
    pub fn probs(&self, model: usize) -> &Matrix {
        &self.slot(model).probs
    }

    /// Cached hard predictions of pool model `model` (computing them on
    /// first access). Identical to `FrozenModel::predict` on the same
    /// features.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of range for the pool.
    pub fn predictions(&self, model: usize) -> &[usize] {
        &self.slot(model).preds
    }

    /// Concatenated cached probabilities for the given body — the muffin
    /// head's input representation.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for the pool.
    pub fn head_inputs(&self, model_indices: &[usize]) -> Matrix {
        let probs: Vec<&Matrix> = model_indices.iter().map(|&i| self.probs(i)).collect();
        Matrix::hcat(&probs).expect("equal row counts by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig};
    use muffin_tensor::Rng64;

    fn setup() -> (ModelPool, muffin_data::DatasetSplit) {
        let mut rng = Rng64::seed(60);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        (pool, split)
    }

    #[test]
    fn cached_outputs_match_direct_model_calls_bit_for_bit() {
        let (pool, split) = setup();
        let cache = BodyOutputCache::new(&pool, split.val.features().clone());
        for i in 0..pool.len() {
            let model = pool.get(i).unwrap();
            assert_eq!(cache.predictions(i), model.predict(split.val.features()));
            let direct = model.predict_proba(split.val.features());
            for (x, y) in cache
                .probs(i)
                .iter_rows()
                .flatten()
                .zip(direct.iter_rows().flatten())
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn each_model_is_computed_exactly_once() {
        let (pool, split) = setup();
        let cache = BodyOutputCache::new(&pool, split.val.features().clone());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.probs(0);
        cache.predictions(0);
        cache.probs(0);
        cache.probs(1);
        assert_eq!(cache.misses(), 2, "one forward per model");
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn head_inputs_match_hcat_of_probabilities() {
        let (pool, split) = setup();
        let cache = BodyOutputCache::new(&pool, split.val.features().clone());
        let inputs = cache.head_inputs(&[1, 0]);
        let expect = Matrix::hcat(&[cache.probs(1), cache.probs(0)]).unwrap();
        assert_eq!(inputs, expect);
        assert_eq!(inputs.cols(), 2 * pool.get(0).unwrap().num_classes());
    }

    #[test]
    fn shared_across_threads_computes_once() {
        let (pool, split) = setup();
        let cache = BodyOutputCache::new(&pool, split.val.features().clone());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..pool.len() {
                        cache.predictions(i);
                    }
                });
            }
        });
        assert_eq!(cache.misses(), pool.len() as u64, "one forward per model");
        assert_eq!(
            cache.hits() + cache.misses(),
            4 * pool.len() as u64,
            "every access accounted for"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_model_panics() {
        let (pool, split) = setup();
        let cache = BodyOutputCache::new(&pool, split.val.features().clone());
        cache.probs(pool.len());
    }
}
