//! Successive-halving search over the Muffin candidate space.
//!
//! A third search strategy besides the paper's REINFORCE controller and
//! plain [`crate::random_search`]: sample a wide rung of random
//! candidates, train every head with a *small* epoch budget, keep the best
//! fraction, retrain the survivors with a larger budget, and repeat. The
//! resource (head-training epochs) grows geometrically as the population
//! shrinks, so the total cost stays close to one full-budget sweep while
//! many more candidates get screened.

use crate::{EpisodeRecord, MuffinError, MuffinSearch, SearchOutcome};
use muffin_tensor::Rng64;
use muffin_trace::Tracer;

/// Configuration of a successive-halving run.
#[derive(Debug, Clone, Copy)]
pub struct HalvingConfig {
    /// Candidates sampled into the first rung.
    pub initial_population: usize,
    /// Fraction kept at each rung (e.g. `0.5` halves the population).
    pub keep_fraction: f32,
    /// Head-training epochs in the first rung.
    pub initial_epochs: u32,
    /// Multiplier applied to the epoch budget at each rung.
    pub epoch_growth: f32,
    /// Number of rungs.
    pub rungs: u32,
}

impl Default for HalvingConfig {
    fn default() -> Self {
        Self {
            initial_population: 32,
            keep_fraction: 0.5,
            initial_epochs: 8,
            epoch_growth: 2.0,
            rungs: 3,
        }
    }
}

impl HalvingConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] naming the violated field.
    pub fn validate(&self) -> Result<(), MuffinError> {
        if self.initial_population == 0 {
            return Err(MuffinError::InvalidConfig("initial_population must be positive".into()));
        }
        if !(0.0..1.0).contains(&self.keep_fraction) || self.keep_fraction <= 0.0 {
            return Err(MuffinError::InvalidConfig("keep_fraction must be in (0, 1)".into()));
        }
        if self.initial_epochs == 0 || self.rungs == 0 {
            return Err(MuffinError::InvalidConfig("epochs and rungs must be positive".into()));
        }
        if self.epoch_growth < 1.0 {
            return Err(MuffinError::InvalidConfig("epoch_growth must be >= 1".into()));
        }
        Ok(())
    }
}

/// Number of candidates promoted out of a rung of `k`:
/// `⌈k · keep_fraction⌉`, at least 1 and at most `k` (0 when the rung is
/// empty).
pub fn promotion_count(k: usize, keep_fraction: f32) -> usize {
    if k == 0 {
        return 0;
    }
    ((k as f32 * keep_fraction).ceil() as usize).clamp(1, k)
}

/// Indices of the candidates promoted to the next rung: the top
/// [`promotion_count`] of `rewards` ordered by `f32::total_cmp`
/// descending. NaN rewards are **never** promoted (even if that leaves
/// fewer than the nominal count), and ties break toward the lower index,
/// so promotion is fully deterministic.
///
/// The returned indices are in rank order (best first).
pub fn promote(rewards: &[f32], keep_fraction: f32) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..rewards.len())
        .filter(|&i| !rewards[i].is_nan())
        .collect();
    ranked.sort_by(|&a, &b| rewards[b].total_cmp(&rewards[a]).then(a.cmp(&b)));
    ranked.truncate(promotion_count(rewards.len(), keep_fraction));
    ranked
}

/// Runs successive halving over `search`'s candidate space and returns the
/// survivors' final-rung evaluations as a [`SearchOutcome`] (one record
/// per candidate-evaluation, across all rungs).
///
/// # Errors
///
/// Returns configuration errors up front and propagates candidate
/// construction failures.
pub fn successive_halving(
    search: &MuffinSearch,
    config: &HalvingConfig,
    rng: &mut Rng64,
) -> Result<SearchOutcome, MuffinError> {
    config.validate()?;
    let sizes = search.space().step_sizes();
    let bodies = search.bodies(&search.split().val);

    // Rung 0 population: distinct random action vectors.
    let mut population: Vec<Vec<usize>> = Vec::new();
    let mut attempts = 0;
    while population.len() < config.initial_population && attempts < config.initial_population * 20
    {
        let actions: Vec<usize> = sizes.iter().map(|&n| rng.below(n)).collect();
        if !population.contains(&actions) {
            population.push(actions);
        }
        attempts += 1;
    }

    let mut history: Vec<EpisodeRecord> = Vec::new();
    let mut best_idx = 0usize;
    let mut best_reward = f32::MIN;
    let mut epochs = config.initial_epochs;
    let mut episode = 0u32;

    for rung in 0..config.rungs {
        let mut scored: Vec<(Vec<usize>, f32)> = Vec::with_capacity(population.len());
        for actions in &population {
            let head_seed = (rung as u64) << 48 ^ rng.uniform(0.0, 1.0).to_bits() as u64;
            // Rung-specific head budget.
            let record = search.evaluate_record(
                &bodies,
                actions,
                head_seed,
                Some(epochs),
                episode,
                &Tracer::noop(),
            )?;
            let reward = record.reward;
            if reward > best_reward {
                best_reward = reward;
                best_idx = history.len();
            }
            history.push(record);
            scored.push((actions.clone(), reward));
            episode += 1;
        }
        // Keep the top fraction for the next rung (NaN never promoted).
        let rewards: Vec<f32> = scored.iter().map(|&(_, r)| r).collect();
        population = promote(&rewards, config.keep_fraction)
            .into_iter()
            .map(|i| scored[i].0.clone())
            .collect();
        epochs = ((epochs as f32) * config.epoch_growth).round() as u32;
    }

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
        let mut rng = Rng64::seed(120);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let config = SearchConfig::fast(&["age", "site"]);
        (MuffinSearch::new(pool, split, config).expect("setup"), rng)
    }

    fn tiny_config() -> HalvingConfig {
        HalvingConfig {
            initial_population: 6,
            keep_fraction: 0.5,
            initial_epochs: 2,
            epoch_growth: 2.0,
            rungs: 2,
        }
    }

    #[test]
    fn population_shrinks_and_budget_grows() {
        let (search, mut rng) = setup();
        let outcome = successive_halving(&search, &tiny_config(), &mut rng).expect("runs");
        // Rung 0: 6 evaluations at 2 epochs; rung 1: 3 at 4 epochs.
        assert_eq!(outcome.history.len(), 9);
        let rung0 = outcome.history.iter().filter(|r| r.head_desc.ends_with("@2ep")).count();
        let rung1 = outcome.history.iter().filter(|r| r.head_desc.ends_with("@4ep")).count();
        assert_eq!(rung0, 6);
        assert_eq!(rung1, 3);
    }

    #[test]
    fn survivors_are_the_best_of_their_rung() {
        let (search, mut rng) = setup();
        let outcome = successive_halving(&search, &tiny_config(), &mut rng).expect("runs");
        let rung0: Vec<&EpisodeRecord> =
            outcome.history.iter().filter(|r| r.head_desc.ends_with("@2ep")).collect();
        let rung1: Vec<&EpisodeRecord> =
            outcome.history.iter().filter(|r| r.head_desc.ends_with("@4ep")).collect();
        let mut rung0_rewards: Vec<f32> = rung0.iter().map(|r| r.reward).collect();
        rung0_rewards.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let cutoff = rung0_rewards[2]; // top 3 of 6
        for r in rung1 {
            let origin = rung0.iter().find(|o| o.actions == r.actions).expect("from rung 0");
            assert!(origin.reward >= cutoff - 1e-6, "non-survivor advanced");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = HalvingConfig { keep_fraction: 1.5, ..tiny_config() };
        assert!(bad.validate().is_err());
        let bad = HalvingConfig { initial_population: 0, ..tiny_config() };
        assert!(bad.validate().is_err());
        let bad = HalvingConfig { epoch_growth: 0.5, ..tiny_config() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn halving_is_deterministic_per_seed() {
        let (search, _) = setup();
        let a = successive_halving(&search, &tiny_config(), &mut Rng64::seed(3)).expect("runs");
        let b = successive_halving(&search, &tiny_config(), &mut Rng64::seed(3)).expect("runs");
        let acts =
            |o: &SearchOutcome| o.history.iter().map(|r| r.actions.clone()).collect::<Vec<_>>();
        assert_eq!(acts(&a), acts(&b));
    }
}
