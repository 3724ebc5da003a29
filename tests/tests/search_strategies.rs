//! Integration tests comparing the two search strategies and the
//! distillation pipeline end to end.

use muffin::{
    distill_student, random_search, DistillConfig, MuffinSearch, RewardKind, SearchConfig,
};
use muffin_integration_tests::small_fixture;
use muffin_tensor::Rng64;

#[test]
fn reinforce_and_random_search_produce_valid_outcomes() {
    let (split, pool, mut rng) = small_fixture(3000);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(8);
    let search = MuffinSearch::new(pool, split, config).expect("setup");

    let rl = search.run(&mut rng).expect("rl");
    let random = random_search(&search, &mut Rng64::seed(1)).expect("random");

    for outcome in [&rl, &random] {
        assert!(!outcome.history.is_empty());
        assert!(outcome.best().reward.is_finite());
        assert!(outcome.best().accuracy > 0.125, "above 8-class chance");
    }
}

#[test]
fn reinforce_batching_changes_the_trajectory_but_stays_valid() {
    let run = |m: usize| {
        let (split, pool, mut rng) = small_fixture(3100);
        let config =
            SearchConfig::fast(&["age", "site"]).with_episodes(8).with_reinforce_batch(m);
        let search = MuffinSearch::new(pool, split, config).expect("setup");
        search.run(&mut rng).expect("run")
    };
    let per_episode = run(1);
    let batched = run(4);
    assert_eq!(per_episode.history.len(), batched.history.len());
    for r in &batched.history {
        assert!(r.reward.is_finite());
    }
}

#[test]
fn alternative_reward_kinds_run_end_to_end() {
    for kind in [
        RewardKind::PaperRatio,
        RewardKind::LinearPenalty { lambda: 0.5 },
        RewardKind::WorstAttribute,
    ] {
        let (split, pool, mut rng) = small_fixture(3200);
        let config =
            SearchConfig::fast(&["age", "site"]).with_episodes(5).with_reward_kind(kind);
        let search = MuffinSearch::new(pool, split, config).expect("setup");
        let outcome = search.run(&mut rng).expect("run");
        assert_eq!(outcome.history.len(), 5, "{kind:?}");
    }
}

#[test]
fn distilled_student_tracks_its_teacher_end_to_end() {
    let (split, pool, mut rng) = small_fixture(3300);
    let config = SearchConfig::fast(&["age", "site"]).with_episodes(6);
    let search = MuffinSearch::new(pool, split.clone(), config).expect("setup");
    let outcome = search.run(&mut rng).expect("run");
    let fusing = search.rebuild(outcome.best()).expect("rebuild");

    let distilled = distill_student(
        &fusing,
        search.pool(),
        &split.train,
        &DistillConfig { epochs: 15, ..DistillConfig::default() },
        &mut rng,
    )
    .expect("distills");

    let teacher = fusing.evaluate(search.pool(), &split.test);
    let student = distilled.evaluate(&split.test);
    assert!(distilled.compression() > 50.0);
    assert!(
        student.accuracy > teacher.accuracy - 0.15,
        "student {} vs teacher {}",
        student.accuracy,
        teacher.accuracy
    );
}
