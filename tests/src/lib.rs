//! Shared helpers for the cross-crate integration tests of the Muffin
//! workspace. The tests themselves live in this package's `tests/`
//! directory.

use muffin::{
    random_search, MuffinSearch, PersistenceOptions, SearchConfig, SearchOutcome, Tracer,
    WorkerPool,
};
use muffin_data::{DatasetSplit, IsicLike};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;
use std::path::{Path, PathBuf};

/// Builds a small, deterministic ISIC-like split plus a three-model pool —
/// the shared fixture most integration tests start from.
pub fn small_fixture(seed: u64) -> (DatasetSplit, ModelPool, Rng64) {
    let mut rng = Rng64::seed(seed);
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
    (split, pool, rng)
}

/// Seed of the golden-snapshot recipe. Everything about the recipe is
/// frozen: changing any part of it invalidates the committed snapshot.
pub const GOLDEN_SEED: u64 = 20230717;

/// The frozen search the golden snapshot captures: the `small_fixture`
/// pool, two target attributes, 8 episodes with a REINFORCE batch of 3
/// (so the snapshot also pins batched-update and partial-batch behaviour).
pub fn golden_search() -> (MuffinSearch, Rng64) {
    golden_search_over(8)
}

/// The golden recipe with an episode budget of `episodes` instead of 8.
fn golden_search_over(episodes: u32) -> (MuffinSearch, Rng64) {
    let (split, pool, rng) = small_fixture(GOLDEN_SEED);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(episodes)
        .with_reinforce_batch(3);
    let search = MuffinSearch::new(pool, split, config).expect("golden recipe is valid");
    (search, rng)
}

/// Runs the golden recipe on `workers` and serialises the outcome exactly
/// as [`SearchOutcome::save_json`] would write it.
pub fn golden_outcome_json(workers: &WorkerPool) -> String {
    let (search, rng) = golden_search();
    let outcome: SearchOutcome = search
        .run_with_pool(&mut rng.clone(), workers)
        .expect("golden search runs");
    muffin_json::to_string(&outcome)
}

/// Path of the committed golden snapshot
/// (`tests/golden/search_outcome.json` from the repository root).
pub fn golden_snapshot_path() -> PathBuf {
    golden_path("search_outcome.json")
}

/// Path of a committed golden file under `tests/golden/`.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// [`random_search`] over the golden recipe's search, from the recipe's
/// RNG, serialised as [`SearchOutcome::save_json`] would write it.
pub fn golden_random_search_json() -> String {
    let (search, rng) = golden_search();
    let outcome = random_search(&search, &mut rng.clone()).expect("golden random search runs");
    muffin_json::to_string(&outcome)
}

/// The golden recipe run on `workers` under a capturing tracer: its
/// event log with every timing zeroed ([`muffin_trace::TraceLog::stripped`]),
/// as JSON.
pub fn golden_trace_json(workers: &WorkerPool) -> String {
    let (search, rng) = golden_search();
    let search = search.with_tracer(Tracer::capturing());
    search
        .run_with_pool(&mut rng.clone(), workers)
        .expect("golden search runs");
    muffin_json::to_string(&search.tracer().finish().stripped())
}

/// Runs the golden recipe **interrupted**: a first run stops at episode
/// `stop_at` (a multiple of the recipe's REINFORCE batch of 3) and leaves
/// its final checkpoint, a second run resumes from that checkpoint at the
/// full budget, and the resumed outcome is serialised exactly as
/// [`SearchOutcome::save_json`] would write it.
///
/// `tag` keeps concurrent tests' checkpoint files apart.
pub fn golden_outcome_json_resumed(workers: &WorkerPool, stop_at: u32, tag: &str) -> String {
    let dir = std::env::temp_dir().join("muffin_golden_resume");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join(format!("ckpt_{tag}_{stop_at}_w{}.json", workers.workers()));
    std::fs::remove_file(&ckpt).ok();

    let (search, rng) = golden_search_over(stop_at);
    search
        .run_persistent(&mut rng.clone(), workers, &checkpoint_to(&ckpt))
        .expect("shortened golden search runs");

    let (search, rng) = golden_search();
    let outcome = search
        .run_persistent(&mut rng.clone(), workers, &resume_from(&ckpt))
        .expect("resumed golden search runs");
    std::fs::remove_file(&ckpt).ok();
    muffin_json::to_string(&outcome)
}

/// Persistence that checkpoints to `path` at every REINFORCE batch
/// boundary.
pub fn checkpoint_to(path: &Path) -> PersistenceOptions {
    PersistenceOptions {
        checkpoint: Some(path.to_path_buf()),
        ..PersistenceOptions::default()
    }
}

/// [`checkpoint_to`] `path`, resuming from the checkpoint already there.
pub fn resume_from(path: &Path) -> PersistenceOptions {
    PersistenceOptions {
        resume: true,
        ..checkpoint_to(path)
    }
}

/// Persistence through the cross-run eval cache at `path` alone.
pub fn eval_cache_at(path: &Path) -> PersistenceOptions {
    PersistenceOptions {
        eval_cache: Some(path.to_path_buf()),
        ..PersistenceOptions::default()
    }
}
