//! The contract of `muffin-par`'s threading through the search: a parallel
//! `MuffinSearch::run` must be **byte-identical** — down to the serialised
//! JSON — to the serial path for the same seed, at every worker count.
//! This is the test `scripts/ci.sh` runs explicitly.

use muffin::{BodyOutputCache, HeadSpec, HeadTrainConfig, MuffinSearch, SearchConfig, WorkerPool};
use muffin_integration_tests::small_fixture;
use muffin_nn::Activation;

fn outcome_json(workers: usize) -> String {
    let (split, pool, mut rng) = small_fixture(4242);
    let config = SearchConfig::fast(&["age", "site"])
        .with_episodes(10)
        .with_reinforce_batch(5);
    let search = MuffinSearch::new(pool, split, config).expect("setup");
    let outcome = search
        .run_with_pool(&mut rng, &WorkerPool::new(workers))
        .expect("run");
    muffin_json::to_string(&outcome)
}

#[test]
fn parallel_search_outcome_json_is_byte_identical_to_serial() {
    let serial = outcome_json(1);
    for workers in [2usize, 3, 4, 7] {
        let parallel = outcome_json(workers);
        assert!(
            serial == parallel,
            "outcome JSON diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn run_and_run_with_pool_serial_agree() {
    let (split, pool, mut rng) = small_fixture(515);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(6).with_reinforce_batch(3);
    let search = MuffinSearch::new(pool, split, config).expect("setup");
    let a = search.run(&mut rng.clone()).expect("run");
    let b = search.run_with_pool(&mut rng, &WorkerPool::serial()).expect("run_with_pool");
    assert_eq!(muffin_json::to_string(&a), muffin_json::to_string(&b));
}

#[test]
fn fused_batch_inference_is_worker_count_invariant() {
    let (split, pool, mut rng) = small_fixture(626);
    let mut fusing = muffin::FusingStructure::new(
        vec![0, 1],
        HeadSpec::new(vec![16, 8], Activation::Relu),
        &pool,
        &mut rng,
    )
    .expect("valid");
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let privilege = muffin::PrivilegeMap::infer(&pool, &split.val, &[age, site], 0.02);
    let proxy = muffin::ProxyDataset::build(&split.train, &privilege).expect("proxy");
    fusing.train_head(&pool, &split.train, &proxy, &HeadTrainConfig::fast(), &mut rng);

    // Batch inference fans contiguous row ranges out over the workers,
    // each scored through its own body-output cache (as the serving
    // engine does per batch); the result must not depend on the split.
    let features = split.test.features();
    let serial = fusing.predict(&pool, features);
    for workers in [2usize, 5, 16] {
        let (rows, step) = (features.rows(), features.rows().div_ceil(workers));
        let ranges: Vec<std::ops::Range<usize>> = (0..rows)
            .step_by(step)
            .map(|start| start..(start + step).min(rows))
            .collect();
        let pooled: Vec<usize> = WorkerPool::new(workers)
            .map(&ranges, |_, range| {
                let cache = BodyOutputCache::new(&pool, features.row_range(range.clone()));
                fusing.try_predict_cached(&cache).expect("valid structure")
            })
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(serial, pooled, "workers={workers}");
    }
}
