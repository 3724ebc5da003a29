//! Every search trains and scores candidates through per-run
//! [`muffin::BodyOutputCache`]s. Their hit/miss counters must be
//! deterministic: present in stripped traces with the expected totals and
//! byte-identical at every worker count.
//!
//! That cached body outputs equal direct model calls bit for bit is the
//! cache's own unit test; the searches' outcomes and traces are pinned by
//! the golden files (`golden_snapshot.rs`).

use muffin::{MuffinSearch, SearchConfig, Tracer, WorkerPool};
use muffin_integration_tests::small_fixture;

fn search() -> (MuffinSearch, muffin_tensor::Rng64) {
    let (split, pool, rng) = small_fixture(4242);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(8)
        .with_reinforce_batch(3);
    let search = MuffinSearch::new(pool, split, config).expect("valid search");
    (search, rng)
}

#[test]
fn body_cache_counters_appear_in_stripped_traces_and_are_deterministic() {
    let run_traced = |workers: &WorkerPool| {
        let (search, rng) = search();
        let tracer = Tracer::capturing();
        let search = search.with_tracer(tracer.clone());
        let outcome = search
            .run_with_pool(&mut rng.clone(), workers)
            .expect("traced run");
        (outcome, tracer.finish())
    };
    let (serial_outcome, serial_log) = run_traced(&WorkerPool::serial());
    let (parallel_outcome, parallel_log) = run_traced(&WorkerPool::new(4));
    assert_eq!(
        muffin_json::to_string(&serial_outcome),
        muffin_json::to_string(&parallel_outcome)
    );

    // The counters exist and carry the expected totals: one miss per
    // (model × split) forward actually run, everything else hits.
    let counter = |log: &muffin::TraceLog, name: &str| {
        log.events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .data
            .clone()
    };
    let hit = counter(&serial_log, "fusing.body_cache_hit");
    let miss = counter(&serial_log, "fusing.body_cache_miss");
    let miss_total = match miss {
        muffin_trace::EventData::Counter { value } => value,
        other => panic!("miss counter has wrong shape: {other:?}"),
    };
    // 3 pool models × 2 splits (proxy + val) is the ceiling; at least one
    // model must have been evaluated on both splits.
    assert!(
        (2..=6).contains(&miss_total),
        "miss total {miss_total} outside [2, 6]"
    );
    let hit_total = match hit {
        muffin_trace::EventData::Counter { value } => value,
        other => panic!("hit counter has wrong shape: {other:?}"),
    };
    // Every distinct candidate trains (proxy accesses) and evaluates (val
    // accesses); with 8 episodes there are far more accesses than slots.
    assert!(
        hit_total > miss_total,
        "hits {hit_total} vs misses {miss_total}"
    );

    // Stripped logs (timings removed) are byte-identical across worker
    // counts — including the counters.
    assert_eq!(
        muffin_json::to_string(&serial_log.stripped()),
        muffin_json::to_string(&parallel_log.stripped()),
    );
}
