//! Benches for the model-fusing structure, including the consensus-gating
//! ablation called out in `DESIGN.md`: gated prediction vs head-always
//! prediction, and Algorithm-1-weighted vs uniform head training.

use muffin::{FusingStructure, HeadSpec, HeadTrainConfig, PrivilegeMap, ProxyDataset};
use muffin_bench::timing::{black_box, Harness};
use muffin_data::{DatasetSplit, IsicLike};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_nn::Activation;
use muffin_tensor::Rng64;

fn fixture() -> (ModelPool, DatasetSplit, ProxyDataset) {
    let mut rng = Rng64::seed(10);
    let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
    let pool = ModelPool::train(
        &split.train,
        &[Architecture::resnet18(), Architecture::densenet121()],
        &BackboneConfig::fast(),
        &mut rng,
    );
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let privilege = PrivilegeMap::infer(&pool, &split.val, &[age, site], 0.02);
    let proxy = ProxyDataset::build(&split.train, &privilege).expect("proxy");
    (pool, split, proxy)
}

fn bench_head_training(h: &mut Harness) {
    let (pool, split, proxy) = fixture();
    let uniform = proxy.with_uniform_weights();
    h.sample_size(5);
    for (label, data) in [("weighted", &proxy), ("uniform", &uniform)] {
        h.bench(&format!("head_training/{label}"), || {
            let mut rng = Rng64::seed(99);
            let mut fusing = FusingStructure::new(
                vec![0, 1],
                HeadSpec::new(vec![16, 12], Activation::Relu),
                &pool,
                &mut rng,
            )
            .expect("valid");
            fusing.train_head(&pool, &split.train, data, &HeadTrainConfig::fast(), &mut rng);
            black_box(fusing);
        });
    }
}

fn bench_prediction_gating_ablation(h: &mut Harness) {
    let (pool, split, proxy) = fixture();
    let mut rng = Rng64::seed(42);
    let mut fusing = FusingStructure::new(
        vec![0, 1],
        HeadSpec::new(vec![16, 12], Activation::Relu),
        &pool,
        &mut rng,
    )
    .expect("valid");
    fusing.train_head(&pool, &split.train, &proxy, &HeadTrainConfig::fast(), &mut rng);

    h.sample_size(10);
    h.bench("fused_prediction/consensus_gated", || {
        black_box(fusing.predict(&pool, split.test.features()))
    });
    fusing.set_consensus_gating(false);
    h.bench("fused_prediction/head_always", || {
        black_box(fusing.predict(&pool, split.test.features()))
    });
    fusing.set_consensus_gating(true);
    // The search hot path: body outputs computed once up front, every
    // candidate prediction served from the cache.
    let cache = muffin::BodyOutputCache::new(&pool, split.test.features().clone());
    black_box(fusing.try_predict_cached(&cache).expect("valid")); // warm the slots
    h.bench("fused_prediction/body_cached", || {
        black_box(fusing.try_predict_cached(&cache).expect("valid"))
    });
    // The serving path at one row: a fresh cache, so both bodies run, then
    // the gate, on a row the bodies agree on (the head never runs) and on
    // one they dispute.
    let features = split.test.features();
    let votes: Vec<Vec<usize>> = (0..2).map(|i| cache.predictions(i).to_vec()).collect();
    for (label, consensus) in [("consensus", true), ("disputed", false)] {
        let s = (0..features.rows())
            .position(|s| (votes[0][s] == votes[1][s]) == consensus)
            .expect("the test split has both kinds of row");
        let row = features.row_range(s..s + 1);
        h.bench(&format!("fused_prediction/one_row/{label}"), || {
            let cache = muffin::BodyOutputCache::new(&pool, row.clone());
            black_box(fusing.try_predict_cached(&cache).expect("valid"))
        });
    }
}

fn bench_proxy_build(h: &mut Harness) {
    let mut rng = Rng64::seed(11);
    let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let mut privilege = PrivilegeMap::new();
    privilege.set(age, vec![4, 5]);
    privilege.set(site, vec![5, 6, 7, 8]);
    h.bench("algorithm1_proxy_build", || {
        black_box(ProxyDataset::build(&split.train, &privilege).expect("proxy"))
    });
}

fn main() {
    let mut h = Harness::new("fusing");
    bench_head_training(&mut h);
    bench_prediction_gating_ablation(&mut h);
    bench_proxy_build(&mut h);
    h.finish();
}
