//! Checkpoint/resume and persistent-evaluation-cache suite.
//!
//! The contract under test: interrupting a checkpointed search and
//! resuming it — at any worker count, with or without a warm cross-run
//! evaluation cache — produces a `SearchOutcome` byte-identical to the
//! uninterrupted run, and every stale or damaged persistence artifact is
//! rejected loudly instead of silently drifting the trajectory.

use muffin::{
    EvalCacheFile, MuffinError, MuffinSearch, PersistenceOptions, SearchCheckpoint, SearchConfig,
    Tracer, WorkerPool,
};
use muffin_integration_tests::{checkpoint_to, eval_cache_at, resume_from, small_fixture};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::Rng64;
use std::path::PathBuf;

const SEED: u64 = 4242;

fn search_with(episodes: u32, batch: usize) -> (MuffinSearch, Rng64) {
    let (split, pool, rng) = small_fixture(SEED);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(episodes)
        .with_reinforce_batch(batch);
    (
        MuffinSearch::new(pool, split, config).expect("valid search"),
        rng,
    )
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("muffin_checkpoint_resume_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

fn outcome_json(search: &MuffinSearch, rng: &Rng64, opts: &PersistenceOptions) -> String {
    let outcome = search
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), opts)
        .expect("search runs");
    muffin_json::to_string(&outcome)
}

#[test]
fn resume_after_halt_is_byte_identical_at_any_worker_count() {
    // A run stopped at episode 4 (a batch boundary) by a 4-episode budget,
    // resumed at the full budget of 7, whose last batch is partial.
    let (search, rng) = search_with(7, 2);
    let clean = outcome_json(&search, &rng, &PersistenceOptions::default());
    let (short, _) = search_with(4, 2);

    for workers in [1usize, 4] {
        let ckpt = tmp(&format!("halt_resume_w{workers}.json"));
        let pool = WorkerPool::new(workers);
        let stopped = short
            .run_persistent(&mut rng.clone(), &pool, &checkpoint_to(&ckpt))
            .expect("the shorter run completes");
        assert_eq!(stopped.history.len(), 4);

        let resumed = search
            .run_persistent(&mut rng.clone(), &pool, &resume_from(&ckpt))
            .expect("resume runs");
        assert_eq!(
            muffin_json::to_string(&resumed),
            clean,
            "workers = {workers}"
        );
        std::fs::remove_file(ckpt).ok();
    }
}

#[test]
fn resuming_a_finished_run_is_a_noop_with_identical_bytes() {
    let (search, rng) = search_with(5, 2);
    let ckpt = tmp("finished_noop.json");
    let clean = outcome_json(&search, &rng, &checkpoint_to(&ckpt));
    // The final checkpoint (episode 5, a partial batch) is on disk; a
    // resume with the same budget replays history without any new work.
    let resumed = outcome_json(&search, &rng, &resume_from(&ckpt));
    assert_eq!(resumed, clean);
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn checkpoint_every_spaces_writes_at_batch_boundaries() {
    let (search, rng) = search_with(9, 3);
    let ckpt = tmp("spacing.json");
    // Boundaries are 3, 6, 9; a 4-episode spacing must skip episode 3,
    // write at 6, and always write the final snapshot at 9.
    let opts = PersistenceOptions {
        checkpoint_every: 4,
        ..checkpoint_to(&ckpt)
    };
    let tracer = Tracer::capturing();
    let (split, pool) = (search.split().clone(), search.pool().clone());
    let search = MuffinSearch::new(pool, split, search.config().clone())
        .expect("valid")
        .with_tracer(tracer.clone());
    search
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &opts)
        .expect("runs");
    assert_eq!(tracer.counter_value("search.checkpoint_write"), 2);
    let final_ckpt = std::fs::read_to_string(&ckpt).expect("checkpoint exists");
    assert!(
        final_ckpt.contains("\"episode\":9"),
        "final snapshot covers the whole run"
    );
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn warm_eval_cache_reports_disk_hits_and_leaves_outcome_unchanged() {
    let (search, rng) = search_with(6, 2);
    let cache = tmp("eval_cache_warm.json");
    let opts = eval_cache_at(&cache);

    // Cold run: no disk hits, cache file written at the end.
    let cold_tracer = Tracer::capturing();
    let (split, pool) = (search.split().clone(), search.pool().clone());
    let cold_search = MuffinSearch::new(pool, split, search.config().clone())
        .expect("valid")
        .with_tracer(cold_tracer.clone());
    let cold = cold_search
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &opts)
        .expect("cold run");
    assert_eq!(cold_tracer.counter_value("search.cache_hit_disk"), 0);
    assert!(cache.exists(), "cold run must write the cache");

    // Warm run: every episode is served from disk; outcome unchanged.
    let warm_tracer = Tracer::capturing();
    let (split, pool) = (search.split().clone(), search.pool().clone());
    let warm_search = MuffinSearch::new(pool, split, search.config().clone())
        .expect("valid")
        .with_tracer(warm_tracer.clone());
    let warm = warm_search
        .run_persistent(&mut rng.clone(), &WorkerPool::new(3), &opts)
        .expect("warm run");
    let hits = warm_tracer.counter_value("search.cache_hit_disk");
    assert_eq!(hits, 6, "all six episodes served from the disk cache");
    assert_eq!(warm_tracer.counter_value("search.cache_miss"), 0);
    assert_eq!(muffin_json::to_string(&warm), muffin_json::to_string(&cold));
    std::fs::remove_file(cache).ok();
}

#[test]
fn eval_cache_from_a_shorter_run_accelerates_a_longer_one() {
    // Same fingerprint (episode budget excluded): a 4-episode run's cache
    // must serve the first batches of an 8-episode run bit-identically.
    let (short, rng) = search_with(4, 2);
    let cache = tmp("eval_cache_extend.json");
    let opts = eval_cache_at(&cache);
    short
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &opts)
        .expect("short run");

    let (long, long_rng) = search_with(8, 2);
    let clean = outcome_json(&long, &long_rng, &PersistenceOptions::default());
    let tracer = Tracer::capturing();
    let (split, pool) = (long.split().clone(), long.pool().clone());
    let long = MuffinSearch::new(pool, split, long.config().clone())
        .expect("valid")
        .with_tracer(tracer.clone());
    let warm = long
        .run_persistent(&mut long_rng.clone(), &WorkerPool::serial(), &opts)
        .expect("long warm run");
    assert!(tracer.counter_value("search.cache_hit_disk") >= 1);
    assert_eq!(muffin_json::to_string(&warm), clean);
    std::fs::remove_file(cache).ok();
}

#[test]
fn mismatched_fingerprints_are_rejected_loudly() {
    let (search, rng) = search_with(4, 2);
    let ckpt = tmp("fingerprint_reject.json");
    let cache = tmp("fingerprint_reject_cache.json");
    search
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &PersistenceOptions {
                eval_cache: Some(cache.clone()),
                ..checkpoint_to(&ckpt)
            },
        )
        .expect("seed run");

    // Different caller seed → different fingerprint → loud rejection.
    let err = search
        .run_persistent(
            &mut Rng64::seed(SEED ^ 1),
            &WorkerPool::serial(),
            &resume_from(&ckpt),
        )
        .expect_err("wrong seed must be rejected");
    assert!(
        matches!(&err, MuffinError::StaleArtifact(msg) if msg.contains("rng seed/state")),
        "unexpected error: {err}"
    );

    // Different REINFORCE batch → different config fingerprint.
    let (other, other_rng) = search_with(4, 4);
    let err = other
        .run_persistent(
            &mut other_rng.clone(),
            &WorkerPool::serial(),
            &resume_from(&ckpt),
        )
        .expect_err("different batch must be rejected");
    assert!(
        matches!(&err, MuffinError::StaleArtifact(msg) if msg.contains("configuration")),
        "unexpected error: {err}"
    );

    // The same run over a pool grown by one appended model: a checkpoint
    // resumes only the pool it was written for, and the rejection names
    // the added model by id.
    let (split, mut pool, grown_rng) = small_fixture(SEED);
    let added = ModelPool::train(
        &split.train,
        &[Architecture::mobilenet_v3_small()],
        &BackboneConfig::fast(),
        &mut Rng64::seed(29),
    );
    let added_id = added.get(0).expect("one model").identity().to_string();
    pool.extend(added.iter().cloned());
    let grown = MuffinSearch::new(pool, split, search.config().clone()).expect("valid search");
    let err = grown
        .run_persistent(
            &mut grown_rng.clone(),
            &WorkerPool::serial(),
            &resume_from(&ckpt),
        )
        .expect_err("grown pool must be rejected");
    assert!(
        matches!(&err, MuffinError::StaleArtifact(msg)
            if msg.contains("model pool grew") && msg.contains(&added_id)),
        "unexpected error: {err}"
    );

    // An eval cache follows the same rule: its records were trained from
    // the old run's head seeds, so a search over the grown pool rejects
    // it by the added model's id and leaves the file as it was.
    let cache_bytes = std::fs::read(&cache).expect("seed run wrote the cache");
    let err = grown
        .run_persistent(
            &mut grown_rng.clone(),
            &WorkerPool::serial(),
            &eval_cache_at(&cache),
        )
        .expect_err("a cache written before growth must be rejected");
    assert!(
        matches!(&err, MuffinError::StaleArtifact(msg)
            if msg.contains("model pool grew") && msg.contains(&added_id)),
        "unexpected error: {err}"
    );
    assert_eq!(std::fs::read(&cache).expect("cache bytes"), cache_bytes);

    // Same checkpoint misused as an eval cache: also rejected (different
    // schema ⇒ corrupt), never silently read.
    let err = search
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &eval_cache_at(&ckpt),
        )
        .expect_err("checkpoint is not an eval cache");
    assert!(
        matches!(err, MuffinError::StaleArtifact(_)),
        "unexpected error: {err}"
    );
    std::fs::remove_file(ckpt).ok();
    std::fs::remove_file(cache).ok();
}

#[test]
fn corrupt_and_truncated_checkpoints_are_rejected() {
    let (search, rng) = search_with(4, 2);
    let ckpt = tmp("corrupt_reject.json");
    search
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &checkpoint_to(&ckpt),
        )
        .expect("seed run");

    // Truncate the file mid-JSON, as a crash during a non-atomic write
    // would have left it.
    let full = std::fs::read_to_string(&ckpt).expect("read");
    std::fs::write(&ckpt, &full[..full.len() / 2]).expect("truncate");
    let err = search
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &resume_from(&ckpt))
        .expect_err("truncated checkpoint must be rejected");
    assert!(
        matches!(&err, MuffinError::StaleArtifact(msg) if msg.contains("corrupt")),
        "unexpected error: {err}"
    );

    // Garbage bytes.
    std::fs::write(&ckpt, "not json at all").expect("write");
    assert!(search
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &resume_from(&ckpt),)
        .is_err());

    // Missing file.
    std::fs::remove_file(&ckpt).ok();
    let err = search
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &resume_from(&ckpt))
        .expect_err("missing checkpoint must be rejected");
    assert!(matches!(err, MuffinError::Io(_)), "unexpected error: {err}");
}

#[test]
fn mid_batch_checkpoint_cannot_seed_a_longer_run() {
    // 5 episodes at batch 2 ⇒ the final checkpoint sits mid-batch at
    // episode 5. Resuming into an 8-episode run from there would realign
    // the Eq. 4 update boundaries, so it must be rejected.
    let (short, rng) = search_with(5, 2);
    let ckpt = tmp("mid_batch_extend.json");
    short
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &checkpoint_to(&ckpt),
        )
        .expect("short run");

    let (long, _) = search_with(8, 2);
    let err = long
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &resume_from(&ckpt))
        .expect_err("mid-batch extension must be rejected");
    assert!(
        matches!(&err, MuffinError::StaleArtifact(msg) if msg.contains("mid-batch")),
        "unexpected error: {err}"
    );
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn boundary_checkpoint_can_seed_a_longer_run() {
    // 4 episodes at batch 2 ends exactly on a boundary; extending to 8
    // episodes from that checkpoint must match the uninterrupted 8-episode
    // run byte for byte (trajectory prefixes are identical).
    let (short, rng) = search_with(4, 2);
    let ckpt = tmp("boundary_extend.json");
    short
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &checkpoint_to(&ckpt),
        )
        .expect("short run");

    let (long, _) = search_with(8, 2);
    let clean = outcome_json(&long, &rng, &PersistenceOptions::default());
    let extended = long
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &resume_from(&ckpt))
        .expect("extension runs");
    assert_eq!(muffin_json::to_string(&extended), clean);
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn persistence_options_validate_their_dependencies() {
    let (search, rng) = search_with(3, 1);
    let err = search
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &PersistenceOptions {
                resume: true,
                ..PersistenceOptions::default()
            },
        )
        .expect_err("resume without checkpoint");
    assert!(matches!(err, MuffinError::InvalidConfig(_)));
}

#[test]
fn checkpoint_file_parses_as_the_documented_schema() {
    let (search, rng) = search_with(4, 2);
    let ckpt = tmp("schema.json");
    search
        .run_persistent(
            &mut rng.clone(),
            &WorkerPool::serial(),
            &checkpoint_to(&ckpt),
        )
        .expect("run");
    let text = std::fs::read_to_string(&ckpt).expect("read");
    let parsed: SearchCheckpoint = muffin_json::from_str(&text).expect("schema parses");
    assert_eq!(parsed.version, muffin::CHECKPOINT_VERSION);
    assert_eq!(parsed.episode, 4);
    assert_eq!(parsed.target_episodes, 4);
    assert_eq!(parsed.history.len(), 4);
    assert!(!parsed.cache.is_empty());
    assert!(parsed
        .cache
        .windows(2)
        .all(|w| w[0].actions <= w[1].actions));
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn files_whose_config_holds_a_null_space_still_load() {
    // Checkpoints and eval caches written before `SearchConfig::space` was
    // removed carry `"space":null` as the last key of `fingerprint.config`.
    // Loading skips the key, and the fingerprint compares the config as
    // re-serialised, so such files resume and warm a search unchanged.
    let (short, rng) = search_with(4, 2);
    let ckpt = tmp("null_space.json");
    let cache = tmp("null_space_cache.json");
    let both = |resume| PersistenceOptions {
        resume,
        eval_cache: Some(cache.clone()),
        ..checkpoint_to(&ckpt)
    };
    short
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &both(false))
        .expect("short run");
    let written: EvalCacheFile =
        muffin_json::from_str(&std::fs::read_to_string(&cache).expect("read")).expect("parse");
    for path in [&ckpt, &cache] {
        let text = std::fs::read_to_string(path).expect("read");
        let config_end = "\"reinforce_batch\":2}";
        assert_eq!(text.matches(config_end).count(), 1, "{}", path.display());
        let older = text.replace(config_end, "\"reinforce_batch\":2,\"space\":null}");
        std::fs::write(path, older).expect("write");
    }

    let loaded = EvalCacheFile::load(&cache, &written.fingerprint)
        .expect("the older cache loads")
        .expect("present");
    assert_eq!(
        muffin_json::to_string(&loaded.records),
        muffin_json::to_string(&written.records)
    );

    let (long, _) = search_with(8, 2);
    let clean = outcome_json(&long, &rng, &PersistenceOptions::default());
    let resumed = long
        .run_persistent(&mut rng.clone(), &WorkerPool::serial(), &both(true))
        .expect("the older checkpoint resumes");
    assert_eq!(muffin_json::to_string(&resumed), clean);
    std::fs::remove_file(ckpt).ok();
    std::fs::remove_file(cache).ok();
}
