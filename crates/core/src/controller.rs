use crate::{HeadSpec, MuffinError};
use muffin_nn::{Activation, Linear, Optimizer, Parameterized, RnnCache, RnnCell};
use muffin_tensor::{Matrix, Rng64};

/// The controller's discrete search space (paper component ①).
///
/// Decision steps, in order:
///
/// 1. one pool-model choice per body slot (`num_slots` steps),
/// 2. the head depth (number of hidden layers),
/// 3. one width choice per *potential* hidden layer (`max_depth` steps;
///    widths beyond the chosen depth are ignored when decoding),
/// 4. the activation function.
///
/// # Example
///
/// ```
/// use muffin::SearchSpace;
///
/// let space = SearchSpace::paper_default(6);
/// assert_eq!(space.num_steps(), 2 + 1 + 4 + 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    pool_size: usize,
    num_slots: usize,
    depth_choices: Vec<usize>,
    width_choices: Vec<usize>,
    activation_choices: Vec<Activation>,
    required_models: Vec<usize>,
}

muffin_json::impl_json!(struct SearchSpace {
    pool_size, num_slots, depth_choices, width_choices, activation_choices, required_models,
});

impl SearchSpace {
    /// Creates a search space.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] if any choice list is empty,
    /// the pool is empty, or `num_slots` is zero.
    pub fn new(
        pool_size: usize,
        num_slots: usize,
        depth_choices: Vec<usize>,
        width_choices: Vec<usize>,
        activation_choices: Vec<Activation>,
    ) -> Result<Self, MuffinError> {
        if pool_size == 0 {
            return Err(MuffinError::EmptyPool);
        }
        if num_slots == 0 {
            return Err(MuffinError::InvalidConfig(
                "num_slots must be positive".into(),
            ));
        }
        if depth_choices.is_empty() || depth_choices.contains(&0) {
            return Err(MuffinError::InvalidConfig(
                "depth choices must be positive".into(),
            ));
        }
        if width_choices.is_empty() || width_choices.contains(&0) {
            return Err(MuffinError::InvalidConfig(
                "width choices must be positive".into(),
            ));
        }
        if activation_choices.is_empty() {
            return Err(MuffinError::InvalidConfig(
                "need at least one activation".into(),
            ));
        }
        Ok(Self {
            pool_size,
            num_slots,
            depth_choices,
            width_choices,
            activation_choices,
            required_models: Vec::new(),
        })
    }

    /// The space used throughout the paper's experiments: two paired
    /// models and four-layer-max heads with widths drawn from the paper's
    /// Table I structures (8–18 units).
    pub fn paper_default(pool_size: usize) -> Self {
        Self::new(
            pool_size,
            2,
            vec![2, 3, 4],
            vec![8, 10, 12, 13, 16, 18],
            Activation::SEARCHABLE.to_vec(),
        )
        .expect("builtin space is valid")
    }

    /// Same space with a different number of body slots (Fig. 9b sweeps
    /// 1–4 paired models).
    pub fn with_slots(mut self, num_slots: usize) -> Result<Self, MuffinError> {
        if num_slots == 0 {
            return Err(MuffinError::InvalidConfig(
                "num_slots must be positive".into(),
            ));
        }
        self.num_slots = num_slots;
        Ok(self)
    }

    /// Forces the listed pool models into every candidate's body (Table I:
    /// the base model is fixed and the controller searches its partner).
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] if an index is out of range.
    pub fn with_required_models(mut self, required: Vec<usize>) -> Result<Self, MuffinError> {
        if let Some(&bad) = required.iter().find(|&&i| i >= self.pool_size) {
            return Err(MuffinError::InvalidConfig(format!(
                "required model {bad} out of range for pool of {}",
                self.pool_size
            )));
        }
        self.required_models = required;
        Ok(self)
    }

    /// The models forced into every candidate.
    pub fn required_models(&self) -> &[usize] {
        &self.required_models
    }

    /// Number of body slots.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Pool size the space indexes into.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Maximum head depth.
    pub fn max_depth(&self) -> usize {
        *self
            .depth_choices
            .iter()
            .max()
            .expect("validated non-empty")
    }

    /// Number of decision steps in one episode.
    pub fn num_steps(&self) -> usize {
        self.num_slots + 1 + self.max_depth() + 1
    }

    /// Number of choices available at each step.
    pub fn step_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![self.pool_size; self.num_slots];
        sizes.push(self.depth_choices.len());
        sizes.extend(std::iter::repeat_n(
            self.width_choices.len(),
            self.max_depth(),
        ));
        sizes.push(self.activation_choices.len());
        sizes
    }

    /// The largest choice count over all steps.
    pub fn max_choices(&self) -> usize {
        self.step_sizes()
            .into_iter()
            .max()
            .expect("at least one step")
    }

    /// Decodes an action vector into a candidate structure.
    ///
    /// Duplicate model selections collapse (the body keeps distinct models
    /// in first-seen order), matching the paper's "select models" intent.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] if the action vector has the
    /// wrong length or an action is out of range.
    pub fn decode(&self, actions: &[usize]) -> Result<Candidate, MuffinError> {
        let sizes = self.step_sizes();
        if actions.len() != sizes.len() {
            return Err(MuffinError::InvalidConfig(format!(
                "expected {} actions, got {}",
                sizes.len(),
                actions.len()
            )));
        }
        for (t, (&a, &n)) in actions.iter().zip(&sizes).enumerate() {
            if a >= n {
                return Err(MuffinError::InvalidConfig(format!(
                    "action {a} out of range {n} at step {t}"
                )));
            }
        }
        let mut model_indices: Vec<usize> = Vec::new();
        for &m in self
            .required_models
            .iter()
            .chain(&actions[..self.num_slots])
        {
            if !model_indices.contains(&m) {
                model_indices.push(m);
            }
        }
        let depth = self.depth_choices[actions[self.num_slots]];
        let widths: Vec<usize> = (0..depth)
            .map(|l| self.width_choices[actions[self.num_slots + 1 + l]])
            .collect();
        let activation = self.activation_choices[actions[self.num_slots + 1 + self.max_depth()]];
        Ok(Candidate {
            model_indices,
            head: HeadSpec::new(widths, activation),
        })
    }
}

/// A decoded candidate: the selected body models plus the head shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Distinct pool indices forming the muffin body.
    pub model_indices: Vec<usize>,
    /// The muffin-head architecture.
    pub head: HeadSpec,
}

muffin_json::impl_json!(struct Candidate { model_indices, head });

/// Hyper-parameters of the REINFORCE controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// RNN hidden width.
    pub hidden_dim: usize,
    /// Action-embedding width.
    pub embed_dim: usize,
    /// Adam learning rate for the policy update.
    pub learning_rate: f32,
    /// The paper's exponential reward discount γ (Eq. 4).
    pub gamma: f32,
    /// Decay of the exponential-moving-average baseline `b` (Eq. 4).
    pub baseline_decay: f32,
    /// Entropy-bonus weight keeping exploration alive.
    pub entropy_weight: f32,
}

muffin_json::impl_json!(struct ControllerConfig {
    hidden_dim, embed_dim, learning_rate, gamma, baseline_decay, entropy_weight,
});

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 48,
            embed_dim: 24,
            learning_rate: 0.01,
            gamma: 0.95,
            baseline_decay: 0.9,
            entropy_weight: 0.01,
        }
    }
}

/// Serialisable snapshot of everything a trained [`RnnController`] has
/// learned: the flattened parameter buffers (in [`Parameterized`]
/// visitation order), the optimizer moments, the EMA reward baseline and
/// the update counter.
///
/// Captured by [`RnnController::export_state`] and restored with
/// [`RnnController::import_state`]; a restored controller continues
/// training bit-identically, which is what lets a search checkpoint resume
/// without drift.
#[derive(Debug, Clone)]
pub struct ControllerState {
    /// Every parameter buffer, concatenated in visitation order.
    pub params: Vec<f32>,
    /// Optimizer hyper-parameters plus accumulated moments.
    pub optimizer: Optimizer,
    /// The EMA reward baseline `b` of Eq. 4 (`None` before any update).
    pub baseline: Option<f32>,
    /// Number of policy updates applied so far.
    pub updates: u64,
}

muffin_json::impl_json!(struct ControllerState { params, optimizer, baseline, updates });

/// One sampled episode: the action vector plus the forward caches the
/// policy-gradient update needs.
#[derive(Debug, Clone)]
pub struct SampledEpisode {
    /// The sampled action at each step.
    pub actions: Vec<usize>,
    /// Log-probability of each sampled action under the sampling policy.
    pub log_probs: Vec<f32>,
    caches: Vec<StepCache>,
}

#[derive(Debug, Clone)]
struct StepCache {
    rnn: RnnCache,
    embed_input: Matrix,
    probs: Vec<f32>,
    action: usize,
}

/// The paper's RNN controller (component ④): at every step a recurrent
/// cell consumes an embedding of the previous decision and a per-step
/// fully-connected head emits a categorical distribution over the step's
/// choices. Parameters are updated with the Monte-Carlo policy gradient of
/// Eq. 4, using an exponential-moving-average baseline and discount γ.
///
/// # Example
///
/// ```
/// use muffin::{ControllerConfig, RnnController, SearchSpace};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(0);
/// let space = SearchSpace::paper_default(4);
/// let mut controller = RnnController::new(space.clone(), ControllerConfig::default(), &mut rng);
/// let episode = controller.sample(&mut rng);
/// assert_eq!(episode.actions.len(), space.num_steps());
/// controller.update(&episode, 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct RnnController {
    space: SearchSpace,
    config: ControllerConfig,
    embed: Linear,
    cell: RnnCell,
    heads: Vec<Linear>,
    optimizer: Optimizer,
    baseline: Option<f32>,
    updates: u64,
}

impl RnnController {
    /// Creates a controller for `space`.
    pub fn new(space: SearchSpace, config: ControllerConfig, rng: &mut Rng64) -> Self {
        let vocab = space.max_choices() + 1; // +1 start token
        let embed = Linear::new(vocab, config.embed_dim, rng);
        let cell = RnnCell::new(config.embed_dim, config.hidden_dim, rng);
        let heads = space
            .step_sizes()
            .iter()
            .map(|&n| Linear::new(config.hidden_dim, n, rng))
            .collect();
        Self {
            space,
            config,
            embed,
            cell,
            heads,
            optimizer: Optimizer::adam(),
            baseline: None,
            updates: 0,
        }
    }

    /// The search space this controller samples from.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The current reward baseline `b` (None before the first update).
    pub fn baseline(&self) -> Option<f32> {
        self.baseline
    }

    /// Number of policy updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    fn one_hot_token(&self, token: usize) -> Matrix {
        let vocab = self.space.max_choices() + 1;
        let mut x = Matrix::zeros(1, vocab);
        x.set(0, token, 1.0);
        x
    }

    fn rollout(&self, mut pick: impl FnMut(&[f32]) -> usize) -> SampledEpisode {
        let sizes = self.space.step_sizes();
        let mut h = Matrix::zeros(1, self.config.hidden_dim);
        let mut prev_token = self.space.max_choices(); // start token
        let mut actions = Vec::with_capacity(sizes.len());
        let mut log_probs = Vec::with_capacity(sizes.len());
        let mut caches = Vec::with_capacity(sizes.len());
        for (t, _) in sizes.iter().enumerate() {
            let embed_input = self.one_hot_token(prev_token);
            let x = self.embed.forward(&embed_input);
            let (h_new, rnn_cache) = self.cell.forward(&x, &h);
            h = h_new;
            let logits = self.heads[t].forward(&h);
            let probs_matrix = logits.softmax_rows();
            let probs = probs_matrix.row(0).to_vec();
            let action = pick(&probs);
            log_probs.push(probs[action].max(1e-20).ln());
            caches.push(StepCache {
                rnn: rnn_cache,
                embed_input,
                probs,
                action,
            });
            actions.push(action);
            prev_token = action;
        }
        SampledEpisode {
            actions,
            log_probs,
            caches,
        }
    }

    /// Samples one episode from the current policy.
    pub fn sample(&self, rng: &mut Rng64) -> SampledEpisode {
        self.rollout(|probs| rng.categorical(probs))
    }

    /// The greedy (argmax) rollout — the controller's current best guess.
    pub fn greedy(&self) -> SampledEpisode {
        self.rollout(muffin_tensor::argmax)
    }

    /// Applies one REINFORCE update (paper Eq. 4 with `m = 1`) for
    /// `episode` with the observed `reward`. Returns the advantage
    /// `R − b` used.
    pub fn update(&mut self, episode: &SampledEpisode, reward: f32) -> f32 {
        self.update_batch(&[(episode.clone(), reward)])
    }

    /// Applies one **batched** REINFORCE update — the paper's Eq. 4 in
    /// full, averaging the policy gradient over the `m` episodes of the
    /// batch before stepping:
    ///
    /// ```text
    /// ∇J(θ) = 1/m Σ_{k=1..m} Σ_{t=1..T} γ^{T−t} ∇ log π(a_t|a_{t−1:1}) (R_k − b)
    /// ```
    ///
    /// Returns the mean advantage over the batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty.
    pub fn update_batch(&mut self, batch: &[(SampledEpisode, f32)]) -> f32 {
        assert!(!batch.is_empty(), "REINFORCE batch must be non-empty");
        let m = batch.len() as f32;
        let mean_reward: f32 = batch.iter().map(|(_, r)| r).sum::<f32>() / m;
        let baseline = *self.baseline.get_or_insert(mean_reward);
        self.baseline = Some(
            self.config.baseline_decay * baseline
                + (1.0 - self.config.baseline_decay) * mean_reward,
        );

        self.embed.zero_grad();
        self.cell.zero_grad();
        for head in &mut self.heads {
            head.zero_grad();
        }

        let mut mean_advantage = 0.0;
        for (episode, reward) in batch {
            let advantage = reward - baseline;
            mean_advantage += advantage / m;
            let steps = episode.caches.len();
            let mut dh_carry = Matrix::zeros(1, self.config.hidden_dim);
            for t in (0..steps).rev() {
                let cache = &episode.caches[t];
                let discount = self.config.gamma.powi((steps - 1 - t) as i32);
                // d(-logπ·A)/dlogits = A·(p − onehot); plus entropy bonus
                // pushing toward uniform: d(−βH)/dz_i = β·p_i·(log p_i + H).
                let entropy: f32 = -cache
                    .probs
                    .iter()
                    .map(|&p| if p > 0.0 { p * p.ln() } else { 0.0 })
                    .sum::<f32>();
                let mut dlogits = Matrix::zeros(1, cache.probs.len());
                for (i, &p) in cache.probs.iter().enumerate() {
                    let pg = discount * advantage * (p - if i == cache.action { 1.0 } else { 0.0 });
                    let ent = self.config.entropy_weight
                        * p
                        * (if p > 0.0 { p.ln() } else { 0.0 } + entropy);
                    dlogits.set(0, i, (pg + ent) / m);
                }
                let dh_head = self.heads[t].backward(cache.rnn.hidden(), &dlogits);
                let dh_total = &dh_head + &dh_carry;
                let (dx, dh_prev) = self.cell.backward(&cache.rnn, &dh_total);
                self.embed.backward(&cache.embed_input, &dx);
                dh_carry = dh_prev;
            }
        }

        self.clip_grad_norm(5.0);
        // Split the borrow: step needs &mut optimizer and &mut params.
        let mut opt = std::mem::replace(&mut self.optimizer, Optimizer::adam());
        opt.step(self, self.config.learning_rate);
        self.optimizer = opt;
        self.updates += 1;
        mean_advantage
    }

    /// Snapshots the controller's learnable state for serialisation.
    ///
    /// Takes `&mut self` because parameter visitation is defined on
    /// mutable buffers; the state is not modified.
    pub fn export_state(&mut self) -> ControllerState {
        let mut params = Vec::new();
        self.visit_params(&mut |p, _| params.extend_from_slice(p));
        ControllerState {
            params,
            optimizer: self.optimizer.clone(),
            baseline: self.baseline,
            updates: self.updates,
        }
    }

    /// Restores state captured by [`RnnController::export_state`] into a
    /// structurally identical controller (same space and config).
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::InvalidConfig`] if the flattened parameter
    /// count does not match this controller's architecture — the loudest
    /// available signal that the checkpoint belongs to a different space.
    pub fn import_state(&mut self, state: ControllerState) -> Result<(), MuffinError> {
        // The flat checkpoint mirrors `visit_params` buffers verbatim
        // (including matrix padding lanes), so the expected length is the
        // visited total, not the logical `num_params` count.
        let mut expected = 0;
        self.visit_params(&mut |p, _| expected += p.len());
        if state.params.len() != expected {
            return Err(MuffinError::InvalidConfig(format!(
                "controller state has {} parameters, expected {expected}",
                state.params.len()
            )));
        }
        let mut offset = 0;
        self.visit_params(&mut |p, _| {
            p.copy_from_slice(&state.params[offset..offset + p.len()]);
            offset += p.len();
        });
        self.optimizer = state.optimizer;
        self.baseline = state.baseline;
        self.updates = state.updates;
        Ok(())
    }
}

impl Parameterized for RnnController {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.embed.visit_params(f);
        self.cell.visit_params(f);
        for head in &mut self.heads {
            head.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RnnController {
        /// Probability vector of step `t` under the current policy.
        ///
        /// # Panics
        ///
        /// Panics if `t` is out of range or `prefix` is shorter than `t`.
        fn step_probs(&self, t: usize, prefix: &[usize]) -> Vec<f32> {
            assert!(t < self.heads.len(), "step out of range");
            assert!(prefix.len() >= t, "prefix must cover steps before t");
            let mut h = Matrix::zeros(1, self.config.hidden_dim);
            let mut prev_token = self.space.max_choices();
            for (step, _) in (0..=t).enumerate() {
                let x = self.embed.forward(&self.one_hot_token(prev_token));
                let (h_new, _) = self.cell.forward(&x, &h);
                h = h_new;
                if step == t {
                    return self.heads[t].forward(&h).softmax_rows().row(0).to_vec();
                }
                prev_token = prefix[step];
            }
            unreachable!("loop returns at step t");
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::paper_default(4)
    }

    #[test]
    fn paper_space_has_expected_steps() {
        let s = space();
        assert_eq!(s.step_sizes(), vec![4, 4, 3, 6, 6, 6, 6, 4]);
        assert_eq!(s.max_choices(), 6);
    }

    #[test]
    fn decode_builds_candidate() {
        let s = space();
        //               m0 m1 depth  w w w w  act
        let actions = vec![1, 3, 2, 0, 5, 2, 1, 0];
        let c = s.decode(&actions).expect("valid actions");
        assert_eq!(c.model_indices, vec![1, 3]);
        // depth choice index 2 → 4 layers, widths [8, 18, 12, 10].
        assert_eq!(c.head.hidden(), &[8, 18, 12, 10]);
        assert_eq!(c.head.activation(), Activation::Relu);
    }

    #[test]
    fn decode_collapses_duplicate_models() {
        let s = space();
        let actions = vec![2, 2, 0, 0, 0, 0, 0, 1];
        let c = s.decode(&actions).expect("valid actions");
        assert_eq!(c.model_indices, vec![2]);
        assert_eq!(c.head.hidden().len(), 2); // depth choice 0 → 2 layers
    }

    #[test]
    fn decode_rejects_bad_lengths_and_ranges() {
        let s = space();
        assert!(s.decode(&[0; 3]).is_err());
        assert!(s.decode(&[9, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn sampling_is_in_range_and_deterministic_per_seed() {
        let mut rng = Rng64::seed(1);
        let controller = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        let e1 = controller.sample(&mut Rng64::seed(5));
        let e2 = controller.sample(&mut Rng64::seed(5));
        assert_eq!(e1.actions, e2.actions);
        for (a, n) in e1.actions.iter().zip(space().step_sizes()) {
            assert!(*a < n);
        }
        assert!(e1.log_probs.iter().sum::<f32>() < 0.0);
    }

    #[test]
    fn rewarded_actions_become_more_likely() {
        let mut rng = Rng64::seed(2);
        let mut controller = RnnController::new(
            space(),
            ControllerConfig {
                entropy_weight: 0.0,
                ..ControllerConfig::default()
            },
            &mut rng,
        );
        // Reward only episodes whose first action is 3.
        let before = controller.step_probs(0, &[])[3];
        for _ in 0..200 {
            let episode = controller.sample(&mut rng);
            let reward = if episode.actions[0] == 3 { 2.0 } else { 0.0 };
            controller.update(&episode, reward);
        }
        let after = controller.step_probs(0, &[])[3];
        assert!(after > before + 0.15, "P(action 3): {before} -> {after}");
    }

    #[test]
    fn baseline_tracks_rewards() {
        let mut rng = Rng64::seed(3);
        let mut controller = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        assert!(controller.baseline().is_none());
        for _ in 0..50 {
            let e = controller.sample(&mut rng);
            controller.update(&e, 4.0);
        }
        let b = controller.baseline().expect("set after updates");
        assert!((b - 4.0).abs() < 0.5, "baseline {b} should approach 4.0");
        assert_eq!(controller.updates(), 50);
    }

    #[test]
    fn greedy_rollout_is_deterministic() {
        let mut rng = Rng64::seed(4);
        let controller = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        assert_eq!(controller.greedy().actions, controller.greedy().actions);
    }

    #[test]
    fn advantage_is_reward_minus_baseline() {
        let mut rng = Rng64::seed(5);
        let mut controller = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        let e = controller.sample(&mut rng);
        // First update: baseline initialises to the reward → advantage 0.
        let adv = controller.update(&e, 3.0);
        assert_eq!(adv, 0.0);
        let e2 = controller.sample(&mut rng);
        let adv2 = controller.update(&e2, 5.0);
        assert!(adv2 > 0.0);
    }

    #[test]
    fn batched_update_matches_eq4_averaging() {
        // A batch of m identical episodes must produce the same update as
        // one episode at the same advantage (gradients average, not sum).
        let mut rng = Rng64::seed(7);
        let config = ControllerConfig {
            entropy_weight: 0.0,
            ..ControllerConfig::default()
        };
        let mut single = RnnController::new(space(), config, &mut rng);
        let mut batched = single.clone();
        let e = single.sample(&mut Rng64::seed(9));
        // Prime both baselines identically.
        single.update(&e, 2.0);
        batched.update(&e, 2.0);
        // Now: one high-reward episode vs a batch of three copies.
        single.update(&e, 5.0);
        batched.update_batch(&[(e.clone(), 5.0), (e.clone(), 5.0), (e.clone(), 5.0)]);
        let p_single = single.step_probs(0, &[]);
        let p_batched = batched.step_probs(0, &[]);
        for (a, b) in p_single.iter().zip(&p_batched) {
            assert!((a - b).abs() < 1e-4, "single {a} vs batched {b}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batch_is_rejected() {
        let mut rng = Rng64::seed(8);
        let mut controller = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        controller.update_batch(&[]);
    }

    #[test]
    fn batched_training_still_learns() {
        let mut rng = Rng64::seed(10);
        let mut controller = RnnController::new(
            space(),
            ControllerConfig {
                entropy_weight: 0.0,
                ..ControllerConfig::default()
            },
            &mut rng,
        );
        let before = controller.step_probs(0, &[])[1];
        for _ in 0..60 {
            let batch: Vec<(SampledEpisode, f32)> = (0..4)
                .map(|_| {
                    let e = controller.sample(&mut rng);
                    let r = if e.actions[0] == 1 { 2.0 } else { 0.0 };
                    (e, r)
                })
                .collect();
            controller.update_batch(&batch);
        }
        let after = controller.step_probs(0, &[])[1];
        assert!(after > before + 0.1, "P(action 1): {before} -> {after}");
    }

    #[test]
    fn entropy_bonus_resists_collapse() {
        let mut rng = Rng64::seed(6);
        let mut with_entropy = RnnController::new(
            space(),
            ControllerConfig {
                entropy_weight: 0.5,
                ..ControllerConfig::default()
            },
            &mut rng,
        );
        // Hammer one action with reward.
        for _ in 0..150 {
            let e = with_entropy.sample(&mut rng);
            let reward = if e.actions[0] == 0 { 2.0 } else { 0.0 };
            with_entropy.update(&e, reward);
        }
        let probs = with_entropy.step_probs(0, &[]);
        assert!(
            probs.iter().all(|&p| p > 0.005),
            "entropy keeps support: {probs:?}"
        );
    }

    #[test]
    fn exported_state_resumes_training_bit_identically() {
        let mut rng = Rng64::seed(11);
        let mut original = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        for _ in 0..5 {
            let e = original.sample(&mut rng);
            original.update(&e, 1.0);
        }
        // Serialise, rebuild a fresh controller structure, restore.
        let json = muffin_json::to_string(&original.export_state());
        let state: ControllerState = muffin_json::from_str(&json).expect("parse");
        let mut restored =
            RnnController::new(space(), ControllerConfig::default(), &mut Rng64::seed(999));
        restored.import_state(state).expect("shapes match");
        assert_eq!(restored.baseline(), original.baseline());
        assert_eq!(restored.updates(), original.updates());
        // Continue training both on identical streams: must stay in
        // lockstep down to the bit.
        let mut rng_a = Rng64::seed(55);
        let mut rng_b = Rng64::seed(55);
        for _ in 0..4 {
            let ea = original.sample(&mut rng_a);
            let eb = restored.sample(&mut rng_b);
            assert_eq!(ea.actions, eb.actions);
            original.update(&ea, 0.5);
            restored.update(&eb, 0.5);
        }
        let pa = original.step_probs(0, &[]);
        let pb = restored.step_probs(0, &[]);
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn import_rejects_mismatched_parameter_count() {
        let mut rng = Rng64::seed(12);
        let mut controller = RnnController::new(space(), ControllerConfig::default(), &mut rng);
        let mut state = controller.export_state();
        state.params.pop();
        assert!(matches!(
            controller.import_state(state),
            Err(MuffinError::InvalidConfig(_))
        ));
    }

    #[test]
    fn required_models_lead_every_decoded_body() {
        let s = space().with_required_models(vec![2]).expect("in range");
        let actions = vec![0, 1, 0, 0, 0, 0, 0, 0];
        let c = s.decode(&actions).expect("valid actions");
        assert_eq!(c.model_indices, vec![2, 0, 1]);
        // Sampling a slot equal to the required model collapses it.
        let actions = vec![2, 2, 0, 0, 0, 0, 0, 0];
        let c = s.decode(&actions).expect("valid actions");
        assert_eq!(c.model_indices, vec![2]);
    }

    #[test]
    fn required_models_out_of_range_are_rejected() {
        assert!(space().with_required_models(vec![99]).is_err());
        assert!(space().with_required_models(vec![0, 3]).is_ok());
    }

    #[test]
    fn required_models_accessor_round_trips() {
        let s = space().with_required_models(vec![1, 3]).expect("in range");
        assert_eq!(s.required_models(), &[1, 3]);
        assert!(space().required_models().is_empty());
    }

    #[test]
    fn slots_can_be_reconfigured() {
        let s = space().with_slots(4).expect("valid");
        assert_eq!(s.num_slots(), 4);
        assert_eq!(s.num_steps(), 4 + 1 + 4 + 1);
        assert!(space().with_slots(0).is_err());
    }
}
