use crate::checkpoint::{
    EvalCacheFile, PersistenceOptions, SearchCheckpoint, SearchFingerprint, CHECKPOINT_VERSION,
};
use crate::{
    BodyOutputCache, Candidate, ControllerConfig, FusingStructure, HeadTrainConfig, MuffinError,
    PrivilegeMap, ProxyDataset, RewardConfig, RewardKind, RnnController, SampledEpisode,
    SearchSpace,
};
use muffin_data::{AttributeId, Dataset, DatasetSplit};
use muffin_models::{ModelEvaluation, ModelPool};
use muffin_par::WorkerPool;
use muffin_tensor::{Rng64, SplitMix64};
use muffin_trace::{Field, Tracer};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Configuration of a full Muffin search.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Reinforcement-learning episodes (the paper uses 500).
    pub episodes: u32,
    /// Number of body slots the controller fills (paper default: 2).
    pub num_slots: usize,
    /// Names of the unfair attributes being optimised (e.g. age and site).
    pub target_attributes: Vec<String>,
    /// Muffin-head training configuration.
    pub head: HeadTrainConfig,
    /// Reward configuration (Eq. 3).
    pub reward: RewardConfig,
    /// Reward shape (the paper's Eq. 3 ratio by default; alternatives for
    /// the reward ablation).
    pub reward_kind: RewardKind,
    /// Controller hyper-parameters (Eq. 4).
    pub controller: ControllerConfig,
    /// Margin used when inferring unprivileged groups from the pool.
    pub privilege_margin: f32,
    /// Pool models forced into every candidate's body (Table I fixes the
    /// base model and searches only for its partner).
    pub required_models: Vec<usize>,
    /// REINFORCE batch size `m` of Eq. 4: the controller accumulates this
    /// many episodes before each policy update.
    pub reinforce_batch: usize,
}

muffin_json::impl_json!(struct SearchConfig {
    episodes, num_slots, target_attributes, head, reward, reward_kind, controller,
    privilege_margin, required_models, reinforce_batch,
});

impl SearchConfig {
    /// The paper's configuration for the given unfair attributes:
    /// 500 episodes, two body slots.
    pub fn paper(target_attributes: &[&str]) -> Self {
        Self {
            episodes: 500,
            num_slots: 2,
            target_attributes: target_attributes.iter().map(|s| s.to_string()).collect(),
            head: HeadTrainConfig::default(),
            reward: RewardConfig::default(),
            reward_kind: RewardKind::PaperRatio,
            controller: ControllerConfig::default(),
            privilege_margin: 0.02,
            required_models: Vec::new(),
            reinforce_batch: 1,
        }
    }

    /// A fast configuration for tests and examples (few episodes).
    pub fn fast(target_attributes: &[&str]) -> Self {
        Self {
            episodes: 30,
            head: HeadTrainConfig::fast(),
            ..Self::paper(target_attributes)
        }
    }

    /// Overrides the episode budget.
    pub fn with_episodes(mut self, episodes: u32) -> Self {
        self.episodes = episodes;
        self
    }

    /// Overrides the number of body slots.
    pub fn with_slots(mut self, num_slots: usize) -> Self {
        self.num_slots = num_slots;
        self
    }

    /// Forces pool models into every candidate's body.
    pub fn with_required_models(mut self, required: Vec<usize>) -> Self {
        self.required_models = required;
        self
    }

    /// Overrides the reward shape (ablation).
    pub fn with_reward_kind(mut self, kind: RewardKind) -> Self {
        self.reward_kind = kind;
        self
    }

    /// Overrides the Eq. 4 REINFORCE batch size `m`.
    pub fn with_reinforce_batch(mut self, m: usize) -> Self {
        self.reinforce_batch = m;
        self
    }
}

/// Metrics of one evaluated candidate during the search.
#[derive(Debug, Clone)]
pub struct EpisodeRecord {
    /// Episode number (0-based). Re-evaluations of a cached candidate keep
    /// the episode index of their first evaluation in `first_seen`.
    pub episode: u32,
    /// The controller's raw action vector.
    pub actions: Vec<usize>,
    /// Names of the selected body models.
    pub model_names: Vec<String>,
    /// Head description, e.g. `[16,18,12,8] relu`.
    pub head_desc: String,
    /// Validation accuracy of the fused model.
    pub accuracy: f32,
    /// Validation unfairness per target attribute, in config order.
    pub unfairness: Vec<f32>,
    /// Eq. 3 reward.
    pub reward: f32,
    /// Trainable parameters in the head.
    pub head_params: usize,
    /// Total parameters including frozen bodies (reported CNN sizes).
    pub total_params: u64,
    /// Seed used for head initialisation/training, for exact rebuilds.
    pub head_seed: u64,
    /// Episode at which this candidate was first evaluated.
    pub first_seen: u32,
}

muffin_json::impl_json!(struct EpisodeRecord {
    episode, actions, model_names, head_desc, accuracy, unfairness, reward,
    head_params, total_params, head_seed, first_seen,
});

/// Result of a completed search: full history plus the best structures.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// One record per episode (cached candidates repeat their metrics).
    pub history: Vec<EpisodeRecord>,
    /// Index into `history` of the highest-reward candidate.
    pub best_by_reward: usize,
    /// The names of the targeted attributes, in reward order.
    pub target_attributes: Vec<String>,
}

muffin_json::impl_json!(struct SearchOutcome { history, best_by_reward, target_attributes });

impl SearchOutcome {
    /// Distinct evaluated candidates (first occurrence of each action
    /// vector).
    pub fn distinct(&self) -> Vec<&EpisodeRecord> {
        let mut seen = std::collections::HashSet::new();
        self.history
            .iter()
            .filter(|r| seen.insert(r.actions.clone()))
            .collect()
    }

    /// The best record overall by reward.
    pub fn best(&self) -> &EpisodeRecord {
        &self.history[self.best_by_reward]
    }

    /// Lexicographic (unfairness ↑, reward ↓) order used by the `best_*`
    /// selectors. `total_cmp` keeps the comparator a total order even if a
    /// reward is NaN (NaN rewards lose ties instead of winning randomly).
    fn selection_order(ua: f32, ra: f32, ub: f32, rb: f32) -> std::cmp::Ordering {
        ua.total_cmp(&ub).then(rb.total_cmp(&ra))
    }

    /// The distinct record with the lowest unfairness on `attr_index`
    /// (ties broken by reward) — the paper's Muffin-Age / Muffin-Site /
    /// Muffin-Balance selections.
    ///
    /// Records whose unfairness on `attr_index` is missing or non-finite
    /// (`run` stores NaN when an attribute was absent from an evaluation)
    /// are excluded: a NaN entry must never win the paper's Table I picks.
    pub fn best_for_attribute(&self, attr_index: usize) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| attr_index < r.unfairness.len() && r.unfairness[attr_index].is_finite())
            .min_by(|a, b| {
                Self::selection_order(
                    a.unfairness[attr_index],
                    a.reward,
                    b.unfairness[attr_index],
                    b.reward,
                )
            })
    }

    /// The distinct record with the lowest **summed** unfairness over all
    /// targets (Muffin-Balance in the Fitzpatrick experiment).
    ///
    /// Records with any non-finite unfairness entry are excluded — one NaN
    /// would poison the sum and the comparison.
    pub fn best_balanced(&self) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| r.unfairness.iter().all(|u| u.is_finite()))
            .min_by(|a, b| {
                let ua: f32 = a.unfairness.iter().sum();
                let ub: f32 = b.unfairness.iter().sum();
                Self::selection_order(ua, a.reward, ub, b.reward)
            })
    }

    /// Like [`SearchOutcome::best_for_attribute`] but restricted to
    /// candidates that genuinely **unite** at least two models — the
    /// paper's Muffin-Age / Muffin-Site always pair models; degenerate
    /// single-model bodies (duplicate slot picks) are excluded.
    pub fn best_united_for_attribute(&self, attr_index: usize) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| {
                r.model_names.len() >= 2
                    && attr_index < r.unfairness.len()
                    && r.unfairness[attr_index].is_finite()
            })
            .min_by(|a, b| {
                Self::selection_order(
                    a.unfairness[attr_index],
                    a.reward,
                    b.unfairness[attr_index],
                    b.reward,
                )
            })
    }

    /// Like [`SearchOutcome::best_balanced`] but restricted to candidates
    /// uniting at least two models.
    pub fn best_united_balanced(&self) -> Option<&EpisodeRecord> {
        self.distinct()
            .into_iter()
            .filter(|r| r.model_names.len() >= 2 && r.unfairness.iter().all(|u| u.is_finite()))
            .min_by(|a, b| {
                let ua: f32 = a.unfairness.iter().sum();
                let ub: f32 = b.unfairness.iter().sum();
                Self::selection_order(ua, a.reward, ub, b.reward)
            })
    }

    /// Serialises the outcome to a JSON file so search histories can be
    /// archived or plotted externally.
    ///
    /// # Errors
    ///
    /// Returns an error string if serialisation or the write fails.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let json = muffin_json::to_string(self);
        std::fs::write(path, json).map_err(|e| e.to_string())
    }

    /// Loads an outcome previously written by [`SearchOutcome::save_json`].
    ///
    /// # Errors
    ///
    /// Returns an error string naming the file if it cannot be read or
    /// parsed, or if its `best_by_reward` is not an index into its
    /// `history`.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let outcome: Self =
            muffin_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if outcome.best_by_reward >= outcome.history.len() {
            return Err(format!(
                "{}: best_by_reward {} is not an index into its {}-episode history",
                path.display(),
                outcome.best_by_reward,
                outcome.history.len()
            ));
        }
        Ok(outcome)
    }
}

/// The Muffin automated tool: iterates components ①–④ of the paper's
/// framework — sample a model-fusing structure, train its head on the
/// fairness proxy dataset, compute the multi-fairness reward, and update
/// the RNN controller.
///
/// # Example
///
/// ```no_run
/// use muffin::{MuffinSearch, SearchConfig};
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = Rng64::seed(7);
/// let split = IsicLike::new().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::resnet18(), Architecture::densenet121()],
///     &BackboneConfig::default(),
///     &mut rng,
/// );
/// let search = MuffinSearch::new(pool, split, SearchConfig::paper(&["age", "site"]))?;
/// let outcome = search.run(&mut rng)?;
/// println!("best reward {:.2}", outcome.best().reward);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MuffinSearch {
    pool: ModelPool,
    split: DatasetSplit,
    config: SearchConfig,
    space: SearchSpace,
    privilege: PrivilegeMap,
    proxy: ProxyDataset,
    tracer: Tracer,
}

/// The frozen-body outputs one search shares across all its candidate
/// evaluations: the head-training inputs over the proxy rows of the
/// training split (with their labels) and the dataset candidates are
/// scored on. Each (model × split) forward runs once, on first access,
/// however many candidates and workers read it.
pub(crate) struct SearchBodies<'s> {
    proxy: BodyOutputCache<'s>,
    proxy_labels: Vec<usize>,
    scored_on: &'s Dataset,
    scored: BodyOutputCache<'s>,
}

/// The REINFORCE loop's state between batches: what a checkpoint stores,
/// plus the run-local bookkeeping a resume rebuilds from it.
struct LoopState {
    controller: RnnController,
    /// Seed of the per-episode head-seed stream.
    seed_stream_seed: u64,
    /// Every episode's head seed, pre-derived from `seed_stream_seed`.
    head_seeds: Vec<u64>,
    /// Episodes completed.
    episode: u32,
    history: Vec<EpisodeRecord>,
    /// Evaluated candidates by action vector.
    cache: HashMap<Vec<usize>, EpisodeRecord>,
    /// Action vectors whose records were loaded from the eval-cache file.
    disk_origin: HashSet<Vec<usize>>,
    best_idx: usize,
    best_reward: f32,
    /// Episode of the last checkpoint written (or resumed from).
    last_checkpoint: u32,
    /// Body-cache `(hits, misses)` already reported to the tracer.
    body_accesses: (u64, u64),
}

impl LoopState {
    /// The evaluated candidates, sorted by action vector.
    fn cache_records(&self) -> Vec<EpisodeRecord> {
        let mut records: Vec<EpisodeRecord> = self.cache.values().cloned().collect();
        records.sort_by(|a, b| a.actions.cmp(&b.actions));
        records
    }
}

impl MuffinSearch {
    /// Prepares a search: infers the privilege map from the pool on the
    /// validation split and builds the Algorithm-1 proxy dataset.
    ///
    /// # Errors
    ///
    /// Returns an error if the pool is empty, a pool model's feature or
    /// class count differs from the data's, the episode budget, the
    /// REINFORCE batch or the number of body slots is zero, a required
    /// model is out of range, an attribute name is unknown, or no
    /// unprivileged samples exist.
    pub fn new(
        pool: ModelPool,
        split: DatasetSplit,
        config: SearchConfig,
    ) -> Result<Self, MuffinError> {
        if pool.is_empty() {
            return Err(MuffinError::EmptyPool);
        }
        pool.check_data(&split.train)
            .map_err(MuffinError::InvalidConfig)?;
        if config.episodes == 0 {
            return Err(MuffinError::InvalidConfig(
                "episodes must be positive".into(),
            ));
        }
        if config.reinforce_batch == 0 {
            return Err(MuffinError::InvalidConfig(
                "reinforce_batch must be positive".into(),
            ));
        }
        if let Some(&bad) = config.required_models.iter().find(|&&i| i >= pool.len()) {
            return Err(MuffinError::InvalidConfig(format!(
                "required model {bad} out of range for pool of {}",
                pool.len()
            )));
        }
        let space = SearchSpace::paper_default(pool.len())
            .with_slots(config.num_slots)?
            .with_required_models(config.required_models.clone())?;
        let attrs: Vec<AttributeId> = config
            .target_attributes
            .iter()
            .map(|name| {
                split
                    .train
                    .schema()
                    .by_name(name)
                    .ok_or_else(|| MuffinError::UnknownAttribute(name.clone()))
            })
            .collect::<Result<_, _>>()?;
        let privilege = PrivilegeMap::infer(&pool, &split.val, &attrs, config.privilege_margin);
        let proxy = ProxyDataset::build(&split.train, &privilege)?;
        Ok(Self {
            pool,
            split,
            config,
            space,
            privilege,
            proxy,
            tracer: Tracer::noop(),
        })
    }

    /// Attaches a tracer: every run records spans for episodes, head
    /// training epochs and batch evaluations, plus cache-hit counters.
    ///
    /// The default is the no-op tracer, and tracing never touches any RNG,
    /// so the [`SearchOutcome`] is bit-identical with tracing on or off
    /// (enforced by the golden-snapshot and trace-determinism suites).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer runs record into ([`Tracer::noop`] unless
    /// [`MuffinSearch::with_tracer`] was used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The model pool being searched over.
    pub fn pool(&self) -> &ModelPool {
        &self.pool
    }

    /// The train/val/test split driving the search.
    pub fn split(&self) -> &DatasetSplit {
        &self.split
    }

    /// The privilege map inferred from the pool.
    pub fn privilege(&self) -> &PrivilegeMap {
        &self.privilege
    }

    /// The Algorithm-1 proxy dataset.
    pub fn proxy(&self) -> &ProxyDataset {
        &self.proxy
    }

    /// The search configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The controller search space for this pool and configuration: the
    /// paper default shaped by `num_slots`/`required_models`. Built and
    /// checked by the constructor.
    pub fn space(&self) -> SearchSpace {
        self.space.clone()
    }

    /// The body-output caches for one search scoring candidates on
    /// `scored_on`.
    pub(crate) fn bodies<'s>(&'s self, scored_on: &'s Dataset) -> SearchBodies<'s> {
        let (proxy, proxy_labels) = self.proxy.bodies(&self.pool, &self.split.train);
        SearchBodies {
            proxy,
            proxy_labels,
            scored_on,
            scored: BodyOutputCache::borrowing(&self.pool, scored_on.features()),
        }
    }

    /// Trains `candidate`'s head from `head_seed` on the proxy inputs in
    /// `bodies` and scores the structure on `bodies`' dataset. A pure
    /// function of (candidate, head seed).
    fn train_and_score(
        &self,
        candidate: &Candidate,
        bodies: &SearchBodies<'_>,
        head_seed: u64,
        tracer: &Tracer,
    ) -> Result<(FusingStructure, ModelEvaluation), MuffinError> {
        let mut head_rng = Rng64::seed(head_seed);
        let mut fusing = FusingStructure::new(
            candidate.model_indices.clone(),
            candidate.head.clone(),
            &self.pool,
            &mut head_rng,
        )?;
        fusing.train_head_on_inputs(
            &bodies.proxy.head_inputs(&candidate.model_indices),
            &bodies.proxy_labels,
            self.proxy.weights(),
            &self.config.head,
            &mut head_rng,
            tracer,
        );
        let eval = fusing.evaluate_cached(&self.pool, &bodies.scored, bodies.scored_on, tracer);
        Ok((fusing, eval))
    }

    /// The candidate evaluation every search strategy runs: decodes
    /// `actions`, trains and scores the candidate
    /// ([`MuffinSearch::train_and_score`]) and records it as first seen at
    /// `episode`.
    pub(crate) fn evaluate_record(
        &self,
        bodies: &SearchBodies<'_>,
        actions: &[usize],
        head_seed: u64,
        episode: u32,
        tracer: &Tracer,
    ) -> Result<EpisodeRecord, MuffinError> {
        let candidate = self.space.decode(actions)?;
        let (fusing, eval) = self.train_and_score(&candidate, bodies, head_seed, tracer)?;
        let targets: Vec<&str> = self
            .config
            .target_attributes
            .iter()
            .map(String::as_str)
            .collect();
        Ok(EpisodeRecord {
            episode,
            actions: actions.to_vec(),
            model_names: candidate
                .model_indices
                .iter()
                .filter_map(|&i| self.pool.get(i))
                .map(|m| m.name().to_string())
                .collect(),
            head_desc: candidate.head.to_string(),
            accuracy: eval.accuracy,
            unfairness: targets
                .iter()
                .map(|n| eval.attribute(n).map_or(f32::NAN, |a| a.unfairness))
                .collect(),
            reward: self
                .config
                .reward_kind
                .evaluate(&eval, &targets, self.config.reward),
            head_params: fusing.head_param_count(),
            total_params: fusing.total_reported_params(&self.pool),
            head_seed,
            first_seen: episode,
        })
    }

    /// Trains and evaluates one candidate on a dataset, returning the
    /// trained structure and its evaluation. Deterministic in `head_seed`.
    ///
    /// # Errors
    ///
    /// Propagates candidate-construction errors.
    pub fn evaluate_candidate(
        &self,
        candidate: &Candidate,
        eval_on: &Dataset,
        head_seed: u64,
    ) -> Result<(FusingStructure, ModelEvaluation), MuffinError> {
        let bodies = self.bodies(eval_on);
        self.train_and_score(candidate, &bodies, head_seed, &Tracer::noop())
    }

    /// Rebuilds the trained structure of a history record exactly.
    ///
    /// # Errors
    ///
    /// Propagates candidate-construction errors.
    pub fn rebuild(&self, record: &EpisodeRecord) -> Result<FusingStructure, MuffinError> {
        let candidate = self.space.decode(&record.actions)?;
        let (fusing, _) = self.evaluate_candidate(&candidate, &self.split.val, record.head_seed)?;
        Ok(fusing)
    }

    /// Runs the reinforcement-learning loop serially and returns the
    /// history. Equivalent to [`MuffinSearch::run_with_pool`] with a
    /// single-worker pool — and guaranteed to produce the **same outcome**
    /// as any parallel run with the same `rng` seed.
    ///
    /// # Errors
    ///
    /// Propagates candidate-construction errors (which indicate a bug, not
    /// a user error, since sampled actions are always in range).
    pub fn run(&self, rng: &mut Rng64) -> Result<SearchOutcome, MuffinError> {
        self.run_with_pool(rng, &WorkerPool::serial())
    }

    /// Runs the reinforcement-learning loop, evaluating each REINFORCE
    /// batch's uncached candidates on `pool`.
    ///
    /// Candidates are trained once and cached by action vector; repeated
    /// samples reuse the cached metrics (the controller still receives the
    /// reward each time, as in the paper's episode loop).
    ///
    /// **Determinism:** the outcome is bit-identical for every worker
    /// count. REINFORCE (Eq. 4) only needs episode rewards at the batch
    /// boundary, so each batch is processed in three phases:
    ///
    /// 1. sample the whole batch from the controller on the caller's RNG
    ///    stream (policy is frozen within a batch);
    /// 2. evaluate the batch's distinct uncached candidates concurrently —
    ///    each evaluation is a pure function of (candidate, head seed),
    ///    with head seeds pre-derived per episode from a [`SplitMix64`]
    ///    stream that is split off the caller's RNG once at the start;
    /// 3. merge the records back in episode order and apply one batched
    ///    policy update.
    ///
    /// Because no evaluation touches the shared RNG and results are merged
    /// index-ordered, scheduling cannot influence the search trajectory.
    ///
    /// # Errors
    ///
    /// Same as [`MuffinSearch::run`].
    pub fn run_with_pool(
        &self,
        rng: &mut Rng64,
        pool: &WorkerPool,
    ) -> Result<SearchOutcome, MuffinError> {
        self.run_persistent(rng, pool, &PersistenceOptions::default())
    }

    /// Builds the staleness fingerprint of a run starting from the given
    /// caller-RNG state: the exact identity a checkpoint or evaluation
    /// cache must carry to be replayed into this search.
    fn fingerprint(&self, rng_state: [u64; 4]) -> SearchFingerprint {
        SearchFingerprint::new(
            rng_state,
            &self.config,
            &self.space,
            &muffin_json::to_string(&self.pool),
            self.pool.manifest(),
            &muffin_json::to_string(&self.split),
        )
    }

    /// Like [`MuffinSearch::run_with_pool`], with durable persistence.
    ///
    /// Depending on `opts`, the run additionally:
    ///
    /// * writes a [`SearchCheckpoint`] atomically at REINFORCE batch
    ///   boundaries (`checkpoint` + `checkpoint_every`);
    /// * **resumes** from such a checkpoint (`resume`), continuing the
    ///   interrupted trajectory so the final [`SearchOutcome`] is
    ///   byte-identical to an uninterrupted run at any worker count;
    /// * loads and rewrites a cross-run [`EvalCacheFile`] (`eval_cache`),
    ///   skipping head training for candidates already evaluated by an
    ///   earlier run with the same fingerprint — each skipped evaluation
    ///   is counted on the `search.cache_hit_disk` tracer counter.
    ///
    /// To stop a run early at episode `k`, run it with an episode budget
    /// of `k`, a multiple of the REINFORCE batch: its final checkpoint
    /// resumes a run with the full budget to the same outcome as an
    /// uninterrupted one.
    ///
    /// The run restores its loop state (fresh, or from the checkpoint and
    /// eval cache), then alternates one REINFORCE batch with a checkpoint
    /// when one is due, and finally rewrites the eval cache.
    ///
    /// Checkpoints are only taken at batch boundaries because the policy
    /// update schedule is part of the trajectory: resuming mid-batch
    /// under a different episode budget would realign the Eq. 4 update
    /// boundaries and silently diverge. For the same reason a resumed
    /// run must share the checkpoint's REINFORCE batch size, which the
    /// fingerprint enforces.
    ///
    /// # Errors
    ///
    /// In addition to [`MuffinSearch::run`]'s errors:
    ///
    /// * [`MuffinError::InvalidConfig`] if `resume` is set without a
    ///   `checkpoint` path;
    /// * [`MuffinError::Io`] / [`MuffinError::StaleArtifact`] for
    ///   unreadable, corrupt or mismatched persistence files.
    pub fn run_persistent(
        &self,
        rng: &mut Rng64,
        pool: &WorkerPool,
        opts: &PersistenceOptions,
    ) -> Result<SearchOutcome, MuffinError> {
        if opts.resume && opts.checkpoint.is_none() {
            return Err(MuffinError::InvalidConfig(
                "resume requires a checkpoint path".into(),
            ));
        }
        // Serialising the pool and split for hashing is not free; skip it
        // entirely for plain in-memory runs.
        let fingerprint = (opts.checkpoint.is_some() || opts.eval_cache.is_some())
            .then(|| self.fingerprint(rng.state()));

        let mut run_span = self.tracer.span("search.run");
        run_span.field("episodes", self.config.episodes as usize);
        run_span.field("slots", self.config.num_slots);
        run_span.field("pool_models", self.pool.len());
        run_span.field("reinforce_batch", self.config.reinforce_batch);
        let mut state = self.restore(rng, opts, fingerprint.as_ref())?;
        let bodies = self.bodies(&self.split.val);
        while state.episode < self.config.episodes {
            self.step_batch(&mut state, rng, pool, &bodies)?;
            if let (Some(path), Some(fp)) = (&opts.checkpoint, &fingerprint) {
                self.checkpoint(&mut state, rng, opts, path, fp)?;
            }
        }
        run_span.finish();
        self.write_eval_cache(opts, fingerprint.as_ref(), &state)?;

        Ok(SearchOutcome {
            history: state.history,
            best_by_reward: state.best_idx,
            target_attributes: self.config.target_attributes.clone(),
        })
    }

    /// Builds the loop state a run starts from: a fresh controller and
    /// head-seed stream drawn from the caller's RNG, or — on resume — the
    /// checkpoint's, plus any records warm-loaded from the eval cache.
    fn restore(
        &self,
        rng: &mut Rng64,
        opts: &PersistenceOptions,
        fingerprint: Option<&SearchFingerprint>,
    ) -> Result<LoopState, MuffinError> {
        // The controller always consumes the caller's RNG first, resumed
        // or not: on resume both its parameters and the RNG are then
        // overwritten from the checkpoint, so construction order stays a
        // frozen part of the stream contract.
        let controller = RnnController::new(self.space.clone(), self.config.controller, rng);
        let mut state = LoopState {
            controller,
            seed_stream_seed: 0,
            head_seeds: Vec::new(),
            episode: 0,
            history: Vec::new(),
            cache: HashMap::new(),
            disk_origin: HashSet::new(),
            best_idx: 0,
            best_reward: f32::MIN,
            last_checkpoint: 0,
            body_accesses: (0, 0),
        };
        if opts.resume {
            let path = opts
                .checkpoint
                .as_ref()
                .expect("validated by run_persistent");
            let fp = fingerprint.expect("checkpoint path set");
            self.resume_from(&mut state, rng, path, fp)?;
        } else {
            state.seed_stream_seed = rng.next_u64();
            state.history = Vec::with_capacity(self.config.episodes as usize);
        }
        if let Some(path) = &opts.eval_cache {
            let fp = fingerprint.expect("eval cache path set");
            self.warm_from_eval_cache(&mut state, path, fp)?;
        }

        // Per-episode head seeds, pre-derived so evaluation order (and the
        // cache hit pattern) can never perturb the controller's stream.
        let mut seed_stream = SplitMix64::new(state.seed_stream_seed);
        state.head_seeds = (0..self.config.episodes)
            .map(|_| seed_stream.next_u64())
            .collect();
        // Replay best-candidate tracking over the (possibly restored)
        // history; identical to having tracked it live.
        for (i, record) in state.history.iter().enumerate() {
            if record.reward > state.best_reward {
                state.best_reward = record.reward;
                state.best_idx = i;
            }
        }
        state.last_checkpoint = state.episode;
        Ok(state)
    }

    /// Loads the checkpoint at `path` into `state` and the caller's RNG.
    /// The checkpoint must have been written by this exact run
    /// ([`SearchCheckpoint::load`]): a pool that grew since is rejected
    /// like any other pool change.
    fn resume_from(
        &self,
        state: &mut LoopState,
        rng: &mut Rng64,
        path: &std::path::Path,
        fingerprint: &SearchFingerprint,
    ) -> Result<(), MuffinError> {
        let ckpt = SearchCheckpoint::load(path, fingerprint)?;
        if ckpt.episode > self.config.episodes {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} already covers {} episodes, more than the requested {}",
                path.display(),
                ckpt.episode,
                self.config.episodes
            )));
        }
        // A checkpoint ending mid-batch (the final snapshot of a finished
        // run whose last batch was partial) can only stand in for a run
        // with that same episode budget.
        let on_boundary = ckpt.episode % self.config.reinforce_batch as u32 == 0;
        if !on_boundary && ckpt.episode != self.config.episodes {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} ends mid-batch at episode {} (written by a {}-episode run); \
                 it can only resume a run with that same episode budget",
                path.display(),
                ckpt.episode,
                ckpt.target_episodes
            )));
        }
        state.controller.import_state(ckpt.controller)?;
        *rng = Rng64::from_state(ckpt.rng_state);
        state.seed_stream_seed = ckpt.seed_stream_seed;
        state.episode = ckpt.episode;
        state.history = ckpt.history;
        for record in ckpt.cache {
            state.cache.insert(record.actions.clone(), record);
        }
        self.tracer.progress(|| {
            format!(
                "resumed from {} at episode {}",
                path.display(),
                ckpt.episode
            )
        });
        Ok(())
    }

    /// Adds the records of the cross-run eval cache at `path` (when it
    /// exists and matches `fingerprint`, [`EvalCacheFile::load`]) to
    /// `state`'s candidate cache.
    fn warm_from_eval_cache(
        &self,
        state: &mut LoopState,
        path: &std::path::Path,
        fingerprint: &SearchFingerprint,
    ) -> Result<(), MuffinError> {
        let Some(file) = EvalCacheFile::load(path, fingerprint)? else {
            return Ok(());
        };
        self.tracer.progress(|| {
            format!(
                "eval cache {}: {} record(s)",
                path.display(),
                file.records.len()
            )
        });
        for record in file.records {
            state.disk_origin.insert(record.actions.clone());
            // A resumed checkpoint's entry wins, though the two are
            // bit-identical whenever both exist.
            state.cache.entry(record.actions.clone()).or_insert(record);
        }
        Ok(())
    }

    /// Runs one REINFORCE batch: samples it under the frozen policy,
    /// evaluates its distinct uncached candidates on `workers`, merges the
    /// records in episode order and applies one policy update.
    fn step_batch(
        &self,
        state: &mut LoopState,
        rng: &mut Rng64,
        workers: &WorkerPool,
        bodies: &SearchBodies<'_>,
    ) -> Result<(), MuffinError> {
        let tracer = &self.tracer;
        let mut batch_span = tracer.span("search.batch");
        let batch_len =
            (self.config.reinforce_batch as u32).min(self.config.episodes - state.episode) as usize;

        // Phase 1: sample the whole batch under the frozen policy.
        let sampled: Vec<SampledEpisode> = (0..batch_len)
            .map(|_| state.controller.sample(rng))
            .collect();

        // Phase 2: evaluate each distinct uncached action vector once,
        // keyed to the episode of its first occurrence in this batch.
        let mut jobs: Vec<usize> = Vec::new();
        for (k, s) in sampled.iter().enumerate() {
            if !state.cache.contains_key(&s.actions)
                && !jobs.iter().any(|&j| sampled[j].actions == s.actions)
            {
                jobs.push(k);
            }
        }
        batch_span.field("episodes", batch_len);
        // Worker-queue occupancy: distinct uncached candidates handed to
        // the pool this batch.
        batch_span.field("jobs", jobs.len());
        tracer.count("search.cache_miss", jobs.len() as u64);
        tracer.count("search.cache_hit", (batch_len - jobs.len()) as u64);
        // Episodes served by records loaded from --eval-cache. Only
        // emitted when non-zero so cold runs keep their exact
        // pre-persistence trace shape.
        let disk_hits = sampled
            .iter()
            .filter(|s| state.disk_origin.contains(&s.actions))
            .count() as u64;
        if disk_hits > 0 {
            tracer.count("search.cache_hit_disk", disk_hits);
        }

        // Workers measure their own durations and record into per-job
        // forks; the forks are absorbed below in job order, so the event
        // log is identical for every worker count.
        let forks: Vec<Tracer> = jobs.iter().map(|_| tracer.fork()).collect();
        let (episode, head_seeds) = (state.episode, &state.head_seeds);
        let evaluated = workers.map(&jobs, |idx, &k| {
            let eval_start = Instant::now();
            let first_seen = episode + k as u32;
            let result = self.evaluate_record(
                bodies,
                &sampled[k].actions,
                head_seeds[first_seen as usize],
                first_seen,
                &forks[idx],
            );
            (result, eval_start.elapsed())
        });
        // All evaluations are done (workers.map is a barrier), so the
        // per-batch hit/miss deltas are deterministic at any worker count;
        // emitted from this thread to keep the log shape fixed.
        let hits = bodies.proxy.hits() + bodies.scored.hits();
        let misses = bodies.proxy.misses() + bodies.scored.misses();
        tracer.count("fusing.body_cache_hit", hits - state.body_accesses.0);
        tracer.count("fusing.body_cache_miss", misses - state.body_accesses.1);
        state.body_accesses = (hits, misses);
        let mut eval_time: HashMap<Vec<usize>, Duration> = HashMap::new();
        for ((&k, (result, took)), fork) in jobs.iter().zip(evaluated).zip(&forks) {
            tracer.absorb(fork);
            eval_time.insert(sampled[k].actions.clone(), took);
            state.cache.insert(sampled[k].actions.clone(), result?);
        }

        // Phase 3: merge records in episode order and update the policy
        // once per batch (Eq. 4 with m = batch_len).
        let mut pending: Vec<(SampledEpisode, f32)> = Vec::with_capacity(batch_len);
        for (k, s) in sampled.into_iter().enumerate() {
            let mut record = state
                .cache
                .get(&s.actions)
                .expect("evaluated or cached above")
                .clone();
            record.episode = episode + k as u32;
            if record.reward > state.best_reward {
                state.best_reward = record.reward;
                state.best_idx = state.history.len();
            }
            if tracer.is_enabled() {
                let cached = record.first_seen != record.episode;
                let took = if cached {
                    Duration::ZERO
                } else {
                    eval_time.get(&s.actions).copied().unwrap_or(Duration::ZERO)
                };
                let mut fields = vec![
                    Field::new("episode", record.episode as usize),
                    Field::new("first_seen", record.first_seen as usize),
                    Field::new("cached", i64::from(cached)),
                    Field::new("reward", record.reward),
                    Field::new("accuracy", record.accuracy),
                ];
                for (name, u) in self.config.target_attributes.iter().zip(&record.unfairness) {
                    fields.push(Field::new(format!("U_{name}"), *u));
                }
                tracer.record_span("search.episode", fields, took);
            }
            pending.push((s, record.reward));
            state.history.push(record);
        }
        state.controller.update_batch(&pending);
        state.episode += batch_len as u32;
        batch_span.finish();
        tracer.progress(|| {
            format!(
                "episode {}/{}: {} new evaluation(s), best reward {:.3}",
                state.episode,
                self.config.episodes,
                jobs.len(),
                state.best_reward,
            )
        });
        Ok(())
    }

    /// Writes a [`SearchCheckpoint`] to `path` when one is due: every
    /// `checkpoint_every` episodes and at the end of the run.
    ///
    /// The batch boundary is the only point the whole loop state is
    /// summarised by (rng, controller, history, cache) — the only point a
    /// checkpoint can resume from without drift.
    fn checkpoint(
        &self,
        state: &mut LoopState,
        rng: &Rng64,
        opts: &PersistenceOptions,
        path: &std::path::Path,
        fingerprint: &SearchFingerprint,
    ) -> Result<(), MuffinError> {
        let due = state.episode - state.last_checkpoint >= opts.checkpoint_every
            || state.episode == self.config.episodes;
        if !due {
            return Ok(());
        }
        SearchCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint.clone(),
            target_episodes: self.config.episodes,
            episode: state.episode,
            rng_state: rng.state(),
            seed_stream_seed: state.seed_stream_seed,
            controller: state.controller.export_state(),
            history: state.history.clone(),
            cache: state.cache_records(),
            exchanges_applied: 0,
        }
        .save(path)?;
        state.last_checkpoint = state.episode;
        self.tracer.count("search.checkpoint_write", 1);
        Ok(())
    }

    /// Rewrites the cross-run evaluation cache (when configured) with the
    /// union of what was loaded and what this run evaluated, merging with
    /// any concurrent writer's entries ([`EvalCacheFile::save_merged`]).
    fn write_eval_cache(
        &self,
        opts: &PersistenceOptions,
        fingerprint: Option<&SearchFingerprint>,
        state: &LoopState,
    ) -> Result<(), MuffinError> {
        let (Some(path), Some(fp)) = (&opts.eval_cache, fingerprint) else {
            return Ok(());
        };
        EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.clone(),
            records: state.cache_records(),
        }
        .save_merged(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig};

    fn setup(episodes: u32) -> (MuffinSearch, Rng64) {
        let mut rng = Rng64::seed(77);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[
                Architecture::resnet18(),
                Architecture::densenet121(),
                Architecture::shufflenet_v2_x1_0(),
            ],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let config = SearchConfig::fast(&["age", "site"]).with_episodes(episodes);
        let search = MuffinSearch::new(pool, split, config).expect("valid search");
        (search, rng)
    }

    #[test]
    fn construction_builds_proxy_and_privilege() {
        let (search, _) = setup(5);
        assert!(!search.proxy().is_empty());
        assert_eq!(search.privilege().len(), 2);
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let mut rng = Rng64::seed(1);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let err = MuffinSearch::new(pool, split, SearchConfig::fast(&["nope"])).unwrap_err();
        assert_eq!(err, MuffinError::UnknownAttribute("nope".into()));
    }

    #[test]
    fn zero_episodes_is_invalid() {
        let mut rng = Rng64::seed(2);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let err = MuffinSearch::new(pool, split, SearchConfig::fast(&["age"]).with_episodes(0))
            .unwrap_err();
        assert!(matches!(err, MuffinError::InvalidConfig(_)));
    }

    #[test]
    fn a_pool_that_does_not_fit_the_data_is_rejected() {
        let mut rng = Rng64::seed(4);
        let isic = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &isic.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        // Same 24 features, 9 classes instead of 8.
        let fitzpatrick = muffin_data::FitzpatrickLike::new()
            .with_num_samples(300)
            .generate(&mut rng)
            .split_default(&mut rng);
        let err =
            MuffinSearch::new(pool, fitzpatrick, SearchConfig::fast(&["skin_tone"])).unwrap_err();
        assert_eq!(
            err,
            MuffinError::InvalidConfig(
                "models[0] (ResNet-18) predicts 8 classes, but the data has 9".into()
            )
        );
    }

    #[test]
    fn both_constructors_reject_the_same_bad_configs() {
        let mut rng = Rng64::seed(3);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let config = || SearchConfig::fast(&["age"]);
        // Each bad config, with the word its error message must name.
        let bad = [
            ("num_slots", config().with_slots(0)),
            ("episodes", config().with_episodes(0)),
            ("reinforce_batch", config().with_reinforce_batch(0)),
            ("required model", config().with_required_models(vec![1])),
        ];
        for (named, config) in bad {
            let err = MuffinSearch::new(pool.clone(), split.clone(), config).unwrap_err();
            assert!(
                matches!(&err, MuffinError::InvalidConfig(m) if m.contains(named)),
                "{named}: {err:?}"
            );
        }
    }

    #[test]
    fn run_produces_one_record_per_episode() {
        let (search, mut rng) = setup(6);
        let outcome = search.run(&mut rng).expect("search runs");
        assert_eq!(outcome.history.len(), 6);
        assert_eq!(outcome.target_attributes, vec!["age", "site"]);
        for r in &outcome.history {
            assert_eq!(r.unfairness.len(), 2);
            assert!(r.reward.is_finite());
            assert!(r.accuracy > 0.0);
            assert!(r.total_params > 1_000_000);
        }
    }

    #[test]
    fn best_record_has_max_reward() {
        let (search, mut rng) = setup(8);
        let outcome = search.run(&mut rng).expect("search runs");
        let max = outcome
            .history
            .iter()
            .map(|r| r.reward)
            .fold(f32::MIN, f32::max);
        assert_eq!(outcome.best().reward, max);
    }

    #[test]
    fn cached_candidates_reuse_metrics() {
        let (search, mut rng) = setup(12);
        let outcome = search.run(&mut rng).expect("search runs");
        let distinct = outcome.distinct();
        // With a tiny space and 12 episodes there are usually repeats; at
        // minimum distinct <= total.
        assert!(distinct.len() <= outcome.history.len());
        // Records with equal actions must carry equal rewards.
        for r in &outcome.history {
            let first = outcome
                .history
                .iter()
                .find(|o| o.actions == r.actions)
                .expect("exists");
            assert_eq!(first.reward, r.reward);
            assert_eq!(first.head_seed, r.head_seed);
        }
    }

    #[test]
    fn rebuild_reproduces_recorded_metrics() {
        let (search, mut rng) = setup(4);
        let outcome = search.run(&mut rng).expect("search runs");
        let record = outcome.best();
        let fusing = search.rebuild(record).expect("rebuild");
        let eval = fusing.evaluate(search.pool(), &search.split().val);
        assert!(
            (eval.accuracy - record.accuracy).abs() < 1e-6,
            "rebuild must be exact"
        );
    }

    #[test]
    fn outcome_json_round_trips() {
        let (search, mut rng) = setup(4);
        let outcome = search.run(&mut rng).expect("search runs");
        let path = std::env::temp_dir().join("muffin_outcome_roundtrip.json");
        outcome.save_json(&path).expect("save");
        let loaded = SearchOutcome::load_json(&path).expect("load");
        assert_eq!(loaded.history.len(), outcome.history.len());
        assert_eq!(loaded.best().actions, outcome.best().actions);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_outcome_error_carries_line_and_column() {
        let path = std::env::temp_dir().join("muffin_outcome_malformed.json");
        // Stray comma on line 2.
        std::fs::write(&path, "{\n  \"history\": [,]\n}").expect("write");
        let msg = SearchOutcome::load_json(&path).unwrap_err();
        assert!(msg.contains("line 2"), "missing line in: {msg}");
        assert!(msg.contains("column"), "missing column in: {msg}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn outcome_whose_best_is_not_in_its_history_is_rejected() {
        let path = std::env::temp_dir().join("muffin_outcome_best_out_of_range.json");
        std::fs::write(
            &path,
            r#"{"history":[],"best_by_reward":0,"target_attributes":["age"]}"#,
        )
        .expect("write");
        let msg = SearchOutcome::load_json(&path).unwrap_err();
        assert!(msg.contains("best_by_reward 0"), "{msg}");
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn united_selectors_skip_single_model_bodies() {
        let (search, mut rng) = setup(10);
        let outcome = search.run(&mut rng).expect("search runs");
        if let Some(r) = outcome.best_united_for_attribute(0) {
            assert!(r.model_names.len() >= 2);
        }
        if let Some(r) = outcome.best_united_balanced() {
            assert!(r.model_names.len() >= 2);
        }
    }

    fn synthetic_record(episode: u32, unfairness: Vec<f32>, reward: f32) -> EpisodeRecord {
        EpisodeRecord {
            episode,
            actions: vec![episode as usize, 0, 0],
            model_names: vec!["A".into(), "B".into()],
            head_desc: "[8] relu".into(),
            accuracy: 0.8,
            unfairness,
            reward,
            head_params: 100,
            total_params: 2_000_000,
            head_seed: episode as u64,
            first_seen: episode,
        }
    }

    #[test]
    fn nan_unfairness_never_wins_selection() {
        // Regression: partial_cmp(..).unwrap_or(Equal) let NaN records win
        // min_by arbitrarily depending on iteration order.
        let outcome = SearchOutcome {
            history: vec![
                synthetic_record(0, vec![f32::NAN, 0.0], 9.0),
                synthetic_record(1, vec![0.3, 0.4], 1.0),
                synthetic_record(2, vec![0.2, f32::INFINITY], 2.0),
                synthetic_record(3, vec![0.5, 0.1], 3.0),
            ],
            best_by_reward: 0,
            target_attributes: vec!["age".into(), "site".into()],
        };
        // Attribute 0: NaN (record 0) excluded; 0.2 (record 2) wins.
        assert_eq!(outcome.best_for_attribute(0).unwrap().episode, 2);
        // Attribute 1: record 0 has unfairness 0.0 — finite, so it wins.
        assert_eq!(outcome.best_for_attribute(1).unwrap().episode, 0);
        // Balanced: records 0 (NaN) and 2 (∞) excluded; among the finite
        // records, 3 sums to 0.6 and beats 1's 0.7.
        assert_eq!(outcome.best_balanced().unwrap().episode, 3);
        assert_eq!(outcome.best_united_for_attribute(0).unwrap().episode, 2);
        assert_eq!(outcome.best_united_balanced().unwrap().episode, 3);
    }

    #[test]
    fn all_nan_history_selects_nothing() {
        let outcome = SearchOutcome {
            history: vec![synthetic_record(0, vec![f32::NAN], 1.0)],
            best_by_reward: 0,
            target_attributes: vec!["age".into()],
        };
        assert!(outcome.best_for_attribute(0).is_none());
        assert!(outcome.best_balanced().is_none());
        assert!(outcome.best_united_for_attribute(0).is_none());
        assert!(outcome.best_united_balanced().is_none());
    }

    #[test]
    fn head_seeds_follow_the_pinned_splitmix_stream() {
        // The per-episode head-seed derivation is a frozen contract: the
        // controller consumes the caller's RNG first, then one draw seeds a
        // SplitMix64 stream whose k-th output is episode k's head seed.
        let (search, rng) = setup(8);
        let mut replay = rng.clone();
        let outcome = search.run(&mut rng.clone()).expect("search runs");

        let _controller =
            RnnController::new(search.space(), search.config().controller, &mut replay);
        let mut stream = SplitMix64::new(replay.next_u64());
        let expected: Vec<u64> = (0..8).map(|_| stream.next_u64()).collect();
        for r in &outcome.history {
            assert_eq!(
                r.head_seed, expected[r.first_seen as usize],
                "episode {} (first seen {}) diverged from the seed stream",
                r.episode, r.first_seen
            );
        }
        // 64-bit stream seeds: distinct across first occurrences (the old
        // 32-bit-entropy derivation collided readily).
        let mut firsts: Vec<u64> = outcome.distinct().iter().map(|r| r.head_seed).collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), outcome.distinct().len());
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let (search, rng) = setup(9);
        let serial = search
            .run_with_pool(&mut rng.clone(), &WorkerPool::serial())
            .expect("serial run");
        for workers in [2usize, 4] {
            let parallel = search
                .run_with_pool(&mut rng.clone(), &WorkerPool::new(workers))
                .expect("parallel run");
            assert_eq!(serial.best_by_reward, parallel.best_by_reward);
            assert_eq!(serial.history.len(), parallel.history.len());
            for (s, p) in serial.history.iter().zip(&parallel.history) {
                assert_eq!(s.actions, p.actions);
                assert_eq!(s.reward.to_bits(), p.reward.to_bits());
                assert_eq!(s.accuracy.to_bits(), p.accuracy.to_bits());
                assert_eq!(s.head_seed, p.head_seed);
                assert_eq!(s.first_seen, p.first_seen);
            }
        }
    }

    #[test]
    fn batched_reinforce_runs_and_fills_history() {
        let (mut search, rng) = setup(10);
        // Exercise a partial final batch (10 episodes, batch of 4).
        search.config.reinforce_batch = 4;
        let outcome = search.run(&mut rng.clone()).expect("search runs");
        assert_eq!(outcome.history.len(), 10);
        for (i, r) in outcome.history.iter().enumerate() {
            assert_eq!(r.episode, i as u32);
            assert!(r.first_seen <= r.episode);
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_strips_deterministically() {
        let (search, rng) = setup(6);
        let untraced = search.run(&mut rng.clone()).expect("untraced run");

        let run_traced = |workers: &WorkerPool| {
            let (fresh, traced_rng) = setup(6);
            let tracer = Tracer::capturing();
            let fresh = fresh.with_tracer(tracer.clone());
            let outcome = fresh
                .run_with_pool(&mut traced_rng.clone(), workers)
                .expect("traced run");
            (outcome, tracer.finish())
        };
        let (serial_outcome, serial_log) = run_traced(&WorkerPool::serial());
        let (parallel_outcome, parallel_log) = run_traced(&WorkerPool::new(3));

        // Tracing must not perturb the search.
        for (a, b) in untraced.history.iter().zip(&serial_outcome.history) {
            assert_eq!(a.actions, b.actions);
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        }
        assert_eq!(
            muffin_json::to_string(&serial_outcome),
            muffin_json::to_string(&parallel_outcome),
        );

        // The event log (modulo timings) is identical at any worker count.
        assert_eq!(
            muffin_json::to_string(&serial_log.stripped()),
            muffin_json::to_string(&parallel_log.stripped()),
        );

        // The log carries the promised structure.
        let count = |name: &str| serial_log.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("search.run"), 1);
        assert_eq!(count("search.episode"), 6);
        let distinct = serial_outcome.distinct().len();
        assert_eq!(count("fusing.train_head"), distinct);
        assert_eq!(
            count("nn.epoch"),
            distinct * search.config().head.epochs as usize
        );
        let hits = serial_log
            .events
            .iter()
            .find(|e| e.name == "search.cache_hit")
            .expect("cache-hit counter");
        assert_eq!(
            hits.data,
            muffin_trace::EventData::Counter {
                value: (6 - distinct) as u64
            }
        );
    }

    #[test]
    fn best_for_attribute_minimises_that_attribute() {
        let (search, mut rng) = setup(8);
        let outcome = search.run(&mut rng).expect("search runs");
        let best_age = outcome.best_for_attribute(0).expect("non-empty");
        for r in outcome.distinct() {
            assert!(best_age.unfairness[0] <= r.unfairness[0] + 1e-6);
        }
        let balanced = outcome.best_balanced().expect("non-empty");
        let sum: f32 = balanced.unfairness.iter().sum();
        for r in outcome.distinct() {
            assert!(sum <= r.unfairness.iter().sum::<f32>() + 1e-6);
        }
    }
}
