//! Sharded multi-island REINFORCE search over a shared eval cache.
//!
//! [`run_sharded`] runs a *fleet* of search islands — independent
//! [`MuffinSearch::run_persistent`] loops with distinct controller seeds
//! derived from one root seed — that cooperate through two channels:
//!
//! * a **shared on-disk eval cache**, so no candidate fusing structure is
//!   trained twice across the fleet, and
//! * periodic **elite exchange**: at REINFORCE-batch-aligned round
//!   barriers, the fleet's best candidates nudge every island's policy
//!   via a teacher-forced [`RnnController::replay`] +
//!   [`RnnController::update_batch`] step.
//!
//! # Determinism model
//!
//! The merged [`SearchOutcome`] depends only on `(seed, config,
//! ShardedConfig identity knobs)` — never on process scheduling:
//!
//! * **Seed derivation.** One [`SplitMix64`] stream off the root seed
//!   yields, in island order, a controller entry seed and a screen seed
//!   per island. Island `i`'s trajectory is a function of its seeds and
//!   the barrier inputs alone.
//! * **Immutable round snapshots.** Islands read a frozen per-round cache
//!   file (`cache-screen.json`, then `cache-round-{r}.json`) and never
//!   write it (`eval_cache_read_only`); only the supervisor writes cache
//!   files, single-threaded, at barriers. Concurrent islands therefore
//!   cannot observe each other mid-round, so `--shards`/worker counts are
//!   pure concurrency knobs.
//! * **Deterministic reduce.** Barrier unions and elite selection iterate
//!   islands in index order with total-order comparators, and the final
//!   merge sorts shard histories by island index before concatenating —
//!   completion order is irrelevant.
//! * **Crash idempotence.** Per-island checkpoints resume bit-identically
//!   (the PR 4 contract); [`SearchCheckpoint::exchanges_applied`] is
//!   bumped *before* the post-exchange segment launches so an exchange is
//!   never applied twice; barrier files are only recomputed when missing,
//!   from end-of-round checkpoints that no island has advanced past.
//!
//! The shared cache's fingerprint carries the canonical root-seed RNG
//! state and is matched ignoring the RNG component
//! ([`SearchFingerprint::mismatch_ignoring_rng`]): evaluations depend
//! only on (config, space, pool, data), so any island may consume any
//! other island's records.

use crate::checkpoint::{
    EvalCacheFile, PersistenceOptions, SearchCheckpoint, SearchFingerprint, CHECKPOINT_VERSION,
};
use crate::halving::{promote, rung_budgets};
use crate::search::{EpisodeRecord, SearchConfig, SearchOutcome};
use crate::{MuffinError, MuffinSearch, RnnController, SampledEpisode};
use muffin_data::DatasetSplit;
use muffin_models::ModelPool;
use muffin_par::WorkerPool;
use muffin_tensor::{Rng64, SplitMix64};
use muffin_trace::Tracer;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Configuration of a sharded search fleet.
///
/// The first seven fields are **identity-bearing**: they shape the merged
/// outcome and are pinned by the fleet manifest on resume. `shards` and
/// `island_workers` are pure concurrency knobs — any value produces
/// byte-identical results.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of search islands the episode budget is split across.
    pub islands: usize,
    /// Per-island episodes between elite-exchange barriers; `0` disables
    /// exchange (one round). Segments end at the first REINFORCE-batch
    /// boundary at or after each multiple, so the effective cadence
    /// rounds up to batch boundaries.
    pub exchange_every: u32,
    /// Fleet-wide distinct elites broadcast at each barrier.
    pub elites: usize,
    /// Successive-halving screen budget per island (candidates entering
    /// rung 0); `0` disables the screen.
    pub screen_budget: u32,
    /// Screen rungs (final rung evaluates at the full head budget).
    pub screen_rungs: u32,
    /// Fraction promoted between screen rungs.
    pub screen_keep: f32,
    /// Head epochs in the cheapest screen rung.
    pub screen_epochs: u32,
    /// Islands run concurrently (capped at `islands`). Concurrency only.
    pub shards: usize,
    /// Worker threads inside each island's evaluation pool. Concurrency
    /// only.
    pub island_workers: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            islands: 4,
            exchange_every: 10,
            elites: 2,
            screen_budget: 0,
            screen_rungs: 2,
            screen_keep: 0.5,
            screen_epochs: 2,
            shards: 1,
            island_workers: 1,
        }
    }
}

impl ShardedConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] naming the violated field.
    pub fn validate(&self) -> Result<(), MuffinError> {
        if self.islands == 0 {
            return Err(MuffinError::InvalidConfig(
                "islands must be positive".into(),
            ));
        }
        if self.shards == 0 || self.island_workers == 0 {
            return Err(MuffinError::InvalidConfig(
                "shards and island_workers must be positive".into(),
            ));
        }
        if self.screen_budget > 0 {
            if self.screen_rungs == 0 || self.screen_epochs == 0 {
                return Err(MuffinError::InvalidConfig(
                    "screen_rungs and screen_epochs must be positive".into(),
                ));
            }
            if !(self.screen_keep > 0.0 && self.screen_keep < 1.0) {
                return Err(MuffinError::InvalidConfig(
                    "screen_keep must be in (0, 1)".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Identity record pinned in `<shard-dir>/fleet.json`: a resumed fleet
/// must use the same identity knobs or the merged bytes would drift.
#[derive(Debug, Clone)]
struct FleetManifest {
    version: u32,
    seed: u64,
    islands: usize,
    exchange_every: u32,
    elites: usize,
    screen_budget: u32,
    screen_rungs: u32,
    screen_keep: f32,
    screen_epochs: u32,
}

muffin_json::impl_json!(struct FleetManifest {
    version, seed, islands, exchange_every, elites, screen_budget, screen_rungs,
    screen_keep, screen_epochs,
});

impl FleetManifest {
    fn new(seed: u64, sharded: &ShardedConfig) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            seed,
            islands: sharded.islands,
            exchange_every: sharded.exchange_every,
            elites: sharded.elites,
            screen_budget: sharded.screen_budget,
            screen_rungs: sharded.screen_rungs,
            screen_keep: sharded.screen_keep,
            screen_epochs: sharded.screen_epochs,
        }
    }
}

/// Prefixes an island-scoped error with the offending shard's index, so
/// operators (and the fault-injection suite) can tell *which* shard's
/// artifact went bad.
fn shard_error(island: usize, e: MuffinError) -> MuffinError {
    match e {
        MuffinError::Io(m) => MuffinError::Io(format!("shard {island}: {m}")),
        MuffinError::StaleArtifact(m) => MuffinError::StaleArtifact(format!("shard {island}: {m}")),
        other => other,
    }
}

/// Deterministically merges per-shard episode histories into one
/// [`SearchOutcome`].
///
/// Shards are sorted by island index (so the caller may supply them in
/// any completion order), histories are concatenated, episodes are
/// renumbered globally, `first_seen` is recomputed as the global first
/// occurrence of each action vector, and `best_by_reward` is the first
/// strict maximum — the same rule the single-process loop uses.
///
/// # Errors
///
/// [`MuffinError::InvalidConfig`] on an empty shard list, duplicate
/// island indices, or an entirely empty merged history.
pub fn merge_shard_histories(
    mut shards: Vec<(usize, Vec<EpisodeRecord>)>,
    target_attributes: Vec<String>,
) -> Result<SearchOutcome, MuffinError> {
    if shards.is_empty() {
        return Err(MuffinError::InvalidConfig(
            "cannot merge an empty shard list".into(),
        ));
    }
    shards.sort_by_key(|&(island, _)| island);
    if shards.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(MuffinError::InvalidConfig(
            "duplicate island index in shard histories".into(),
        ));
    }
    let mut history: Vec<EpisodeRecord> = shards.into_iter().flat_map(|(_, h)| h).collect();
    if history.is_empty() {
        return Err(MuffinError::InvalidConfig(
            "merged shard history is empty".into(),
        ));
    }
    let mut first_seen: HashMap<Vec<usize>, u32> = HashMap::new();
    let mut best_idx = 0usize;
    let mut best_reward = f32::MIN;
    for (global, record) in history.iter_mut().enumerate() {
        let global = global as u32;
        record.episode = global;
        record.first_seen = *first_seen.entry(record.actions.clone()).or_insert(global);
        if record.reward > best_reward {
            best_reward = record.reward;
            best_idx = global as usize;
        }
    }
    Ok(SearchOutcome {
        history,
        best_by_reward: best_idx,
        target_attributes,
    })
}

/// Paths of every artifact a fleet writes under its shard directory.
struct FleetPaths {
    dir: PathBuf,
}

impl FleetPaths {
    fn manifest(&self) -> PathBuf {
        self.dir.join("fleet.json")
    }
    fn shard_checkpoint(&self, island: usize) -> PathBuf {
        self.dir.join(format!("shard-{island}.ckpt.json"))
    }
    /// Round input caches: the screen snapshot feeds round 0, round `r`'s
    /// barrier snapshot feeds round `r + 1`.
    fn cache_screen(&self) -> PathBuf {
        self.dir.join("cache-screen.json")
    }
    fn cache_round(&self, round: u32) -> PathBuf {
        self.dir.join(format!("cache-round-{round}.json"))
    }
    fn elites_round(&self, round: u32) -> PathBuf {
        self.dir.join(format!("elites-round-{round}.json"))
    }
    fn round_input(&self, round: u32) -> PathBuf {
        if round == 0 {
            self.cache_screen()
        } else {
            self.cache_round(round - 1)
        }
    }
}

/// Runs a sharded multi-island search and returns the merged outcome.
///
/// `dir` holds all fleet state: the identity manifest, one checkpoint per
/// island, per-round cache snapshots and elite files. With `resume` the
/// fleet continues from whatever state the directory holds (any subset of
/// islands at any boundary); without it, stale fleet artifacts in `dir`
/// are removed first.
///
/// `warm_cache`, when given, is an external shared-mode eval-cache file:
/// read before the screen so a previous fleet's work is reused, and
/// rewritten afterwards (merge-on-write) with everything this fleet
/// evaluated — the cross-fleet cache-sharing workflow.
///
/// The merged bytes are invariant under `sharded.shards`,
/// `sharded.island_workers`, shard completion order, and kill/resume at
/// any point (see the module docs for the model, and the
/// sharded-equivalence + CLI fault-injection suites for the proof).
///
/// # Errors
///
/// Configuration errors up front; [`MuffinError::Io`] /
/// [`MuffinError::StaleArtifact`] (prefixed with the offending shard
/// index where island-scoped) on artifact problems.
pub fn run_sharded(
    pool: ModelPool,
    split: DatasetSplit,
    config: SearchConfig,
    sharded: &ShardedConfig,
    seed: u64,
    dir: impl AsRef<Path>,
    resume: bool,
    warm_cache: Option<&Path>,
    tracer: &Tracer,
) -> Result<SearchOutcome, MuffinError> {
    sharded.validate()?;
    let paths = FleetPaths {
        dir: dir.as_ref().to_path_buf(),
    };
    std::fs::create_dir_all(&paths.dir).map_err(|e| {
        MuffinError::Io(format!(
            "cannot create shard dir {}: {e}",
            paths.dir.display()
        ))
    })?;

    let islands = sharded.islands;
    let island_episodes = config.episodes.div_ceil(islands as u32).max(1);
    let island_config = config.clone().with_episodes(island_episodes);
    let segment = if sharded.exchange_every == 0 {
        island_episodes
    } else {
        sharded.exchange_every.min(island_episodes)
    };
    let rounds = island_episodes.div_ceil(segment);

    // Pin the identity knobs across resumes.
    let manifest = FleetManifest::new(seed, sharded);
    if resume && paths.manifest().exists() {
        let text = std::fs::read_to_string(paths.manifest())
            .map_err(|e| MuffinError::Io(format!("cannot read fleet manifest: {e}")))?;
        let existing: FleetManifest = muffin_json::from_str(&text)
            .map_err(|e| MuffinError::StaleArtifact(format!("fleet manifest is corrupt: {e}")))?;
        if muffin_json::to_string(&existing) != muffin_json::to_string(&manifest) {
            return Err(MuffinError::StaleArtifact(format!(
                "fleet manifest {} pins different identity knobs (seed/islands/exchange/elites/\
                 screen); resume with the original values or use a fresh shard dir",
                paths.manifest().display()
            )));
        }
    } else {
        // Fresh fleet: clear every artifact a previous fleet in this
        // directory could have left, then pin the manifest.
        let mut stale: Vec<PathBuf> = vec![paths.cache_screen()];
        for i in 0..islands {
            stale.push(paths.shard_checkpoint(i));
        }
        for r in 0..rounds {
            stale.push(paths.cache_round(r));
            stale.push(paths.elites_round(r));
        }
        for p in stale {
            std::fs::remove_file(p).ok();
        }
        crate::checkpoint::write_atomic(&paths.manifest(), &muffin_json::to_string(&manifest))?;
    }

    // Serialise identity inputs once; build per-island fingerprints (the
    // entry RNG state differs per island) and the fleet fingerprint used
    // by shared cache artifacts (canonical root-seed entry state).
    let pool_json = muffin_json::to_string(&pool);
    let split_json = muffin_json::to_string(&split);

    // Seed derivation: one SplitMix64 stream, two draws per island in
    // island order — controller entry seed, then screen seed.
    let mut stream = SplitMix64::new(seed);
    let island_seeds: Vec<(u64, u64)> = (0..islands)
        .map(|_| (stream.next_u64(), stream.next_u64()))
        .collect();

    // Island 0 runs full validation and infers the privilege map; the
    // rest share it so every island trains on the identical proxy data.
    let first = MuffinSearch::new(pool.clone(), split.clone(), island_config.clone())?;
    let privilege = first.privilege().clone();
    let space = first.space();
    let forks: Vec<Tracer> = (0..islands).map(|_| tracer.fork()).collect();
    let mut fleet: Vec<MuffinSearch> = vec![first.with_tracer(forks[0].clone())];
    for fork in forks.iter().take(islands).skip(1) {
        fleet.push(
            MuffinSearch::with_privilege(
                pool.clone(),
                split.clone(),
                island_config.clone(),
                privilege.clone(),
            )?
            .with_tracer(fork.clone()),
        );
    }

    let island_fp: Vec<SearchFingerprint> = island_seeds
        .iter()
        .map(|&(search_seed, _)| {
            SearchFingerprint::new(
                Rng64::seed(search_seed).state(),
                &island_config,
                &space,
                &pool_json,
                pool.manifest(),
                &split_json,
            )
        })
        .collect();
    let fleet_fp = SearchFingerprint::new(
        Rng64::seed(seed).state(),
        &island_config,
        &space,
        &pool_json,
        pool.manifest(),
        &split_json,
    );

    let mut run_span = tracer.span("sharded.run");
    run_span.field("islands", islands);
    run_span.field("rounds", rounds as usize);
    run_span.field("episodes_per_island", island_episodes as usize);
    run_span.field("screen_budget", sharded.screen_budget as usize);

    let outer = WorkerPool::new(sharded.shards.min(islands));

    // ---- Screen phase: successive-halving warm-up feeding round 0. ----
    if !paths.cache_screen().exists() {
        let screened: Vec<Vec<EpisodeRecord>> = if sharded.screen_budget > 0 {
            let indices: Vec<usize> = (0..islands).collect();
            outer
                .map(&indices, |_, &i| {
                    run_screen(&fleet[i], sharded, island_seeds[i].1).map_err(|e| shard_error(i, e))
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()?
        } else {
            vec![Vec::new(); islands]
        };
        for fork in &forks {
            tracer.absorb(fork);
        }
        // Union: external warm records first, then islands in order;
        // first entry per action vector wins.
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut records: Vec<EpisodeRecord> = Vec::new();
        if let Some(warm) = warm_cache {
            if let Some(file) = EvalCacheFile::load_shared(warm, &fleet_fp)? {
                tracer.progress(|| format!("warm cache: {} record(s)", file.records.len()));
                for record in file.records {
                    if seen.insert(record.actions.clone()) {
                        records.push(record);
                    }
                }
            }
        }
        for island_records in screened {
            for record in island_records {
                if seen.insert(record.actions.clone()) {
                    records.push(record);
                }
            }
        }
        records.sort_by(|a, b| a.actions.cmp(&b.actions));
        tracer.progress(|| format!("screen snapshot: {} record(s)", records.len()));
        EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fleet_fp.clone(),
            records,
        }
        .save(paths.cache_screen())?;
    }

    // ---- Rounds: segments between elite-exchange barriers. ----
    let mut round_elites: Vec<EpisodeRecord> = Vec::new();
    for round in 0..rounds {
        let end = (segment * (round + 1)).min(island_episodes);
        let input_cache = paths.round_input(round);
        if round > 0 {
            round_elites = EvalCacheFile::load_shared(&paths.elites_round(round - 1), &fleet_fp)?
                .map(|f| f.records)
                .unwrap_or_default();
        }
        let indices: Vec<usize> = (0..islands).collect();
        let elites_ref = &round_elites;
        let input_ref = &input_cache;
        let results = outer.map(&indices, |_, &i| {
            run_island_segment(
                &fleet[i],
                &paths.shard_checkpoint(i),
                &island_fp[i],
                island_seeds[i].0,
                input_ref,
                elites_ref,
                round,
                end,
                island_episodes,
                sharded,
            )
            .map_err(|e| shard_error(i, e))
        });
        // Deterministic absorption order regardless of which island's
        // thread finished first.
        for fork in &forks {
            tracer.absorb(fork);
        }
        results.into_iter().collect::<Result<Vec<_>, _>>()?;

        // Barrier: publish the round's elites and cache snapshot before
        // any next-round segment may launch. Skipped when both files
        // already exist (crash-resume past a completed barrier).
        if round + 1 < rounds {
            let elites_path = paths.elites_round(round);
            let cache_path = paths.cache_round(round);
            if !(elites_path.exists() && cache_path.exists()) {
                let checkpoints: Vec<SearchCheckpoint> = (0..islands)
                    .map(|i| {
                        SearchCheckpoint::load(paths.shard_checkpoint(i), &island_fp[i])
                            .map_err(|e| shard_error(i, e))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let elites = select_elites(&checkpoints, sharded.elites);
                tracer.count("sharded.elite_exchange", elites.len() as u64);
                EvalCacheFile {
                    version: CHECKPOINT_VERSION,
                    fingerprint: fleet_fp.clone(),
                    records: elites,
                }
                .save(&elites_path)?;
                let mut union: BTreeMap<Vec<usize>, EpisodeRecord> = BTreeMap::new();
                for ckpt in &checkpoints {
                    for record in &ckpt.cache {
                        union
                            .entry(record.actions.clone())
                            .or_insert_with(|| record.clone());
                    }
                }
                EvalCacheFile {
                    version: CHECKPOINT_VERSION,
                    fingerprint: fleet_fp.clone(),
                    records: union.into_values().collect(),
                }
                .save(&cache_path)?;
            }
        }
    }

    // ---- Reduce: merge final checkpoints in island-index order. ----
    let mut shard_histories: Vec<(usize, Vec<EpisodeRecord>)> = Vec::with_capacity(islands);
    let mut final_cache: BTreeMap<Vec<usize>, EpisodeRecord> = BTreeMap::new();
    for i in 0..islands {
        let ckpt = SearchCheckpoint::load(paths.shard_checkpoint(i), &island_fp[i])
            .map_err(|e| shard_error(i, e))?;
        if ckpt.episode != island_episodes {
            return Err(MuffinError::StaleArtifact(format!(
                "shard {i}: checkpoint stopped at episode {} of {island_episodes}",
                ckpt.episode
            )));
        }
        for record in &ckpt.cache {
            final_cache
                .entry(record.actions.clone())
                .or_insert_with(|| record.clone());
        }
        shard_histories.push((i, ckpt.history));
    }
    if let Some(warm) = warm_cache {
        EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fleet_fp.clone(),
            records: final_cache.into_values().collect(),
        }
        .save_merged(warm)?;
    }
    run_span.finish();
    merge_shard_histories(shard_histories, config.target_attributes.clone())
}

/// One island's successive-halving screen: cheap low-epoch rungs promote
/// by reward into a final rung evaluated at the full head budget, whose
/// records seed the fleet's round-0 cache.
fn run_screen(
    search: &MuffinSearch,
    sharded: &ShardedConfig,
    screen_seed: u64,
) -> Result<Vec<EpisodeRecord>, MuffinError> {
    let space = search.space();
    let sizes = space.step_sizes();
    let budgets = rung_budgets(
        sharded.screen_budget,
        sharded.screen_rungs,
        sharded.screen_keep,
    );
    let full_epochs = search.config().head.epochs;
    let bodies = search.bodies(&search.split().val);
    let mut rng = Rng64::seed(screen_seed);

    // Rung-0 population: distinct random action vectors (the attempt cap
    // covers spaces smaller than the budget).
    let rung0 = budgets.first().copied().unwrap_or(0) as usize;
    let mut population: Vec<Vec<usize>> = Vec::new();
    let mut attempts = 0usize;
    while population.len() < rung0 && attempts < rung0.saturating_mul(20) {
        let actions: Vec<usize> = sizes.iter().map(|&n| rng.below(n)).collect();
        if !population.contains(&actions) {
            population.push(actions);
        }
        attempts += 1;
    }

    let mut epochs = sharded.screen_epochs.min(full_epochs);
    let mut promoted_records: Vec<EpisodeRecord> = Vec::new();
    for rung in 0..sharded.screen_rungs {
        population.truncate(budgets[rung as usize] as usize);
        if population.is_empty() {
            break;
        }
        let last = rung + 1 == sharded.screen_rungs;
        // The final rung runs the full budget and drops the `@ep` tag:
        // its records are real evaluations the search loop can serve
        // from cache.
        let rung_epochs = (!last).then_some(epochs);
        let mut scored: Vec<EpisodeRecord> = Vec::with_capacity(population.len());
        for actions in &population {
            let head_seed = rng.next_u64();
            scored.push(search.evaluate_record(
                &bodies,
                actions,
                head_seed,
                rung_epochs,
                0,
                &Tracer::noop(),
            )?);
        }
        search
            .tracer()
            .count("sharded.screen_eval", scored.len() as u64);
        if last {
            promoted_records = scored;
            break;
        }
        let rewards: Vec<f32> = scored.iter().map(|r| r.reward).collect();
        population = promote(&rewards, sharded.screen_keep)
            .into_iter()
            .map(|i| scored[i].actions.clone())
            .collect();
        epochs = epochs.saturating_mul(2).min(full_epochs);
    }
    Ok(promoted_records)
}

/// Runs one island's segment of one round: apply the pending elite
/// exchange (at most once, guarded by `exchanges_applied`), then resume
/// the island's persistent loop until the round's halt boundary.
#[allow(clippy::too_many_arguments)]
fn run_island_segment(
    search: &MuffinSearch,
    checkpoint: &Path,
    fingerprint: &SearchFingerprint,
    search_seed: u64,
    input_cache: &Path,
    elites: &[EpisodeRecord],
    round: u32,
    end: u32,
    island_episodes: u32,
    sharded: &ShardedConfig,
) -> Result<(), MuffinError> {
    let mut resume = false;
    if checkpoint.exists() {
        let mut ckpt = SearchCheckpoint::load(checkpoint, fingerprint)?;
        if round > 0 && ckpt.episode < end && ckpt.exchanges_applied < round {
            apply_elite_exchange(search, &mut ckpt, elites, round)?;
            ckpt.save(checkpoint)?;
        }
        if ckpt.episode >= end {
            // This round's segment already completed (fleet resume).
            return Ok(());
        }
        resume = true;
    }
    let opts = PersistenceOptions {
        checkpoint: Some(checkpoint.to_path_buf()),
        checkpoint_every: 0,
        resume,
        eval_cache: Some(input_cache.to_path_buf()),
        eval_cache_shared: true,
        eval_cache_read_only: true,
        halt_after: (end < island_episodes).then_some(end),
    };
    let mut rng = Rng64::seed(search_seed);
    match search.run_persistent(&mut rng, &WorkerPool::new(sharded.island_workers), &opts) {
        // Non-final rounds halt at the boundary by design; the final
        // round returns the island outcome, which the reduce step
        // reconstructs from the checkpoint instead.
        Ok(_) => Ok(()),
        Err(MuffinError::Halted { .. }) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Nudges an island's checkpointed policy toward the fleet's elites: a
/// throwaway controller imports the checkpoint state, replays each elite
/// teacher-forced, applies one batched REINFORCE update at the elites'
/// observed rewards, and exports the state back. `exchanges_applied` is
/// bumped in the same checkpoint write, so a crash after the save can
/// never replay the exchange.
fn apply_elite_exchange(
    search: &MuffinSearch,
    ckpt: &mut SearchCheckpoint,
    elites: &[EpisodeRecord],
    round: u32,
) -> Result<(), MuffinError> {
    if !elites.is_empty() {
        let mut controller = RnnController::new(
            search.space(),
            search.config().controller,
            &mut Rng64::seed(0),
        );
        controller.import_state(ckpt.controller.clone())?;
        let batch: Vec<(SampledEpisode, f32)> = elites
            .iter()
            .map(|e| controller.replay(&e.actions).map(|ep| (ep, e.reward)))
            .collect::<Result<_, _>>()?;
        controller.update_batch(&batch);
        ckpt.controller = controller.export_state();
    }
    ckpt.exchanges_applied = round;
    Ok(())
}

/// The fleet-wide elite set at a barrier: distinct finite-reward records
/// (first writer wins per action vector, islands in index order), ranked
/// by reward descending under `total_cmp` with action-vector ascending as
/// the tie break, truncated to `count`.
fn select_elites(checkpoints: &[SearchCheckpoint], count: usize) -> Vec<EpisodeRecord> {
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    let mut pool: Vec<EpisodeRecord> = Vec::new();
    for ckpt in checkpoints {
        for record in &ckpt.history {
            if record.reward.is_finite() && seen.insert(record.actions.clone()) {
                pool.push(record.clone());
            }
        }
    }
    pool.sort_by(|a, b| {
        b.reward
            .total_cmp(&a.reward)
            .then_with(|| a.actions.cmp(&b.actions))
    });
    pool.truncate(count);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(island: usize, episode: u32, reward: f32) -> EpisodeRecord {
        EpisodeRecord {
            episode,
            actions: vec![island, episode as usize],
            model_names: vec!["m".into()],
            head_desc: "h".into(),
            accuracy: 0.5,
            unfairness: vec![0.1],
            reward,
            head_params: 1,
            total_params: 2,
            head_seed: 9,
            first_seen: episode,
        }
    }

    #[test]
    fn merge_is_independent_of_shard_order() {
        let shard = |i: usize| {
            (
                i,
                vec![record(i, 0, i as f32), record(i, 1, 10.0 - i as f32)],
            )
        };
        let sorted = merge_shard_histories(vec![shard(0), shard(1), shard(2)], vec!["age".into()])
            .expect("merge");
        let reversed =
            merge_shard_histories(vec![shard(2), shard(1), shard(0)], vec!["age".into()])
                .expect("merge");
        let shuffled =
            merge_shard_histories(vec![shard(1), shard(2), shard(0)], vec!["age".into()])
                .expect("merge");
        let json = |o: &SearchOutcome| muffin_json::to_string(o);
        assert_eq!(json(&sorted), json(&reversed));
        assert_eq!(json(&sorted), json(&shuffled));
        // Episodes renumbered globally, best is the strict maximum.
        assert_eq!(
            sorted.history.iter().map(|r| r.episode).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        assert_eq!(sorted.best_by_reward, 1); // island 0 episode 1, reward 10
    }

    #[test]
    fn merge_recomputes_first_seen_globally() {
        let mut duplicate = record(0, 0, 1.0);
        duplicate.actions = vec![7, 7];
        let mut later = duplicate.clone();
        later.episode = 1;
        let merged = merge_shard_histories(
            vec![(1, vec![later]), (0, vec![duplicate])],
            vec!["age".into()],
        )
        .expect("merge");
        assert_eq!(merged.history[0].first_seen, 0);
        assert_eq!(merged.history[1].first_seen, 0, "same actions, later shard");
    }

    #[test]
    fn merge_rejects_duplicates_and_empty_input() {
        assert!(merge_shard_histories(Vec::new(), vec![]).is_err());
        assert!(merge_shard_histories(vec![(0, vec![]), (1, vec![])], vec![]).is_err());
        let dup = vec![(3, vec![record(3, 0, 1.0)]), (3, vec![record(3, 0, 1.0)])];
        assert!(merge_shard_histories(dup, vec![]).is_err());
    }

    #[test]
    fn elite_selection_is_total_ordered_and_distinct() {
        let fp = {
            let config = crate::SearchConfig::fast(&["age"]);
            let space = crate::SearchSpace::paper_default(3);
            SearchFingerprint::new(
                [0, 1, 2, 3],
                &config,
                &space,
                "pool",
                muffin_models::PoolManifest::default(),
                "data",
            )
        };
        let mut throwaway = RnnController::new(
            crate::SearchSpace::paper_default(3),
            crate::ControllerConfig::default(),
            &mut Rng64::seed(1),
        );
        let controller_state = throwaway.export_state();
        let ckpt = |history: Vec<EpisodeRecord>| SearchCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.clone(),
            target_episodes: 4,
            episode: history.len() as u32,
            rng_state: [1, 2, 3, 4],
            seed_stream_seed: 5,
            controller: controller_state.clone(),
            history,
            cache: vec![],
            exchanges_applied: 0,
        };
        let mut nan = record(0, 2, f32::NAN);
        nan.actions = vec![9, 9];
        let a = ckpt(vec![record(0, 0, 1.0), record(0, 1, 5.0), nan]);
        // Island 1 re-evaluated island 0's [0, 0] candidate: distinctness
        // keeps the island-0 copy.
        let mut dup = record(0, 0, 1.0);
        dup.episode = 3;
        let b = ckpt(vec![dup, record(1, 1, 3.0)]);
        let elites = select_elites(&[a, b], 2);
        assert_eq!(elites.len(), 2);
        assert_eq!(elites[0].reward, 5.0);
        assert_eq!(elites[1].reward, 3.0);
        let top = select_elites(&[], 2);
        assert!(top.is_empty());
    }

    #[test]
    fn sharded_config_validates() {
        assert!(ShardedConfig::default().validate().is_ok());
        let bad = ShardedConfig {
            islands: 0,
            ..ShardedConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ShardedConfig {
            shards: 0,
            ..ShardedConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ShardedConfig {
            screen_budget: 4,
            screen_keep: 1.5,
            ..ShardedConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rung_budget_allocation_feeds_the_screen() {
        // The screen's budget split: geometric, conserving, non-increasing.
        assert_eq!(rung_budgets(6, 2, 0.5), vec![4, 2]);
        assert_eq!(rung_budgets(0, 3, 0.5).iter().sum::<u32>(), 0);
        assert_eq!(rung_budgets(7, 3, 0.5).iter().sum::<u32>(), 7);
    }
}
