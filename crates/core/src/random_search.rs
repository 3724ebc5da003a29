use crate::{EpisodeRecord, MuffinSearch, SearchOutcome};
use muffin_tensor::Rng64;
use std::collections::HashMap;

/// A uniform-random search over the same space as [`MuffinSearch::run`].
///
/// This is the controller ablation: the paper attributes Muffin's
/// efficiency to the REINFORCE-trained RNN controller; random search over
/// the identical candidate space, with the identical per-candidate
/// training and reward, isolates how much the controller contributes.
/// The `ablation_controller` bench binary compares best-reward-so-far
/// curves of the two.
///
/// # Example
///
/// ```no_run
/// use muffin::{random_search, MuffinSearch, SearchConfig};
/// # use muffin_data::IsicLike;
/// # use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// # use muffin_tensor::Rng64;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut rng = Rng64::seed(0);
/// # let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// # let pool = ModelPool::train(&split.train, &[Architecture::resnet18()],
/// #     &BackboneConfig::fast(), &mut rng);
/// let search = MuffinSearch::new(pool, split, SearchConfig::fast(&["age", "site"]))?;
/// let outcome = random_search(&search, &mut rng)?;
/// println!("random-search best reward: {:.3}", outcome.best().reward);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates candidate-construction errors, exactly like
/// [`MuffinSearch::run`].
pub fn random_search(
    search: &MuffinSearch,
    rng: &mut Rng64,
) -> Result<SearchOutcome, crate::MuffinError> {
    let tracer = search.tracer();
    let mut run_span = tracer.span("search.random");
    run_span.field("episodes", search.config().episodes as usize);
    let sizes = search.space().step_sizes();
    let bodies = search.bodies(&search.split().val);
    let mut cache: HashMap<Vec<usize>, EpisodeRecord> = HashMap::new();
    let mut history = Vec::with_capacity(search.config().episodes as usize);
    let mut best_idx = 0usize;
    let mut best_reward = f32::MIN;

    for episode in 0..search.config().episodes {
        let actions: Vec<usize> = sizes.iter().map(|&n| rng.below(n)).collect();
        let record = if let Some(cached) = cache.get(&actions) {
            tracer.count("search.cache_hit", 1);
            let mut r = cached.clone();
            r.episode = episode;
            r
        } else {
            tracer.count("search.cache_miss", 1);
            let head_seed = rng.uniform(0.0, 1.0).to_bits() as u64 ^ (episode as u64) << 32;
            let record = search.evaluate_record(&bodies, &actions, head_seed, episode, tracer)?;
            cache.insert(actions, record.clone());
            record
        };
        if record.reward > best_reward {
            best_reward = record.reward;
            best_idx = history.len();
        }
        history.push(record);
        tracer.progress(|| {
            format!(
                "random episode {}/{}: best reward {best_reward:.3}",
                episode + 1,
                search.config().episodes,
            )
        });
    }
    run_span.finish();

    Ok(SearchOutcome {
        history,
        best_by_reward: best_idx,
        target_attributes: search.config().target_attributes.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchConfig;
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig, ModelPool};

    fn setup() -> (MuffinSearch, Rng64) {
        let mut rng = Rng64::seed(88);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let config = SearchConfig::fast(&["age", "site"]).with_episodes(8);
        (MuffinSearch::new(pool, split, config).expect("setup"), rng)
    }

    #[test]
    fn random_search_fills_the_episode_budget() {
        let (search, mut rng) = setup();
        let outcome = random_search(&search, &mut rng).expect("runs");
        assert_eq!(outcome.history.len(), 8);
        assert!(outcome.best().reward.is_finite());
    }

    #[test]
    fn random_search_is_deterministic_per_seed() {
        let (search, _) = setup();
        let a = random_search(&search, &mut Rng64::seed(5)).expect("runs");
        let b = random_search(&search, &mut Rng64::seed(5)).expect("runs");
        let acts = |o: &SearchOutcome| {
            o.history
                .iter()
                .map(|r| r.actions.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(acts(&a), acts(&b));
    }

    #[test]
    fn random_search_candidates_are_rebuildable() {
        let (search, mut rng) = setup();
        let outcome = random_search(&search, &mut rng).expect("runs");
        let fusing = search.rebuild(outcome.best()).expect("rebuild");
        let eval = fusing.evaluate(search.pool(), &search.split().val);
        assert!((eval.accuracy - outcome.best().accuracy).abs() < 1e-6);
    }
}
