use crate::backbone::train_backbone;
use crate::{Architecture, BackboneConfig, FrozenModel};
use muffin_data::{AttributeId, Dataset};
use muffin_tensor::Rng64;
use std::fmt;

/// The two single-attribute fairness interventions the paper compares
/// against (Table I, Figure 2).
///
/// Both target exactly **one** sensitive attribute — which is precisely
/// their weakness: Figure 2 shows that improving one attribute worsens the
/// other (the seesaw), the phenomenon Muffin is built to escape.
///
/// # Example
///
/// ```
/// use muffin_models::FairnessMethod;
///
/// assert_eq!(FairnessMethod::DataBalancing.short_name(), "D");
/// assert_eq!(FairnessMethod::FairLoss.short_name(), "L");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FairnessMethod {
    /// Method **D** (paper ref. \[33\]): re-balance the training data by oversampling the
    /// target attribute's minority groups to parity with the largest group.
    DataBalancing,
    /// Method **L** (paper ref. \[34\]): train with a cost-sensitive (fair) loss that
    /// weights every sample inversely to its group's frequency under the
    /// target attribute.
    FairLoss,
}

muffin_json::impl_json!(enum FairnessMethod { DataBalancing, FairLoss });

impl FairnessMethod {
    /// The paper's one-letter tag (`D` or `L`).
    pub fn short_name(self) -> &'static str {
        match self {
            FairnessMethod::DataBalancing => "D",
            FairnessMethod::FairLoss => "L",
        }
    }

    /// Retrains `architecture` from scratch with this intervention applied
    /// to `target` and freezes the result.
    ///
    /// The returned model is named `"<arch>+<D|L>(<attribute>)"`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for `train`'s schema.
    pub fn apply(
        self,
        architecture: &Architecture,
        train: &Dataset,
        target: AttributeId,
        config: &BackboneConfig,
        rng: &mut Rng64,
    ) -> FrozenModel {
        let attr = train.schema().get(target).expect("target attribute in range");
        let name = format!("{}+{}({})", architecture.name(), self.short_name(), attr.name());
        match self {
            FairnessMethod::DataBalancing => {
                let indices = oversampled_indices(train, target, rng);
                train_backbone(name, architecture, train, config, None, Some(&indices), rng)
            }
            FairnessMethod::FairLoss => {
                let weights = inverse_frequency_weights(train, target);
                train_backbone(name, architecture, train, config, Some(&weights), None, rng)
            }
        }
    }
}

impl fmt::Display for FairnessMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A record of which method was applied to which attribute — used by the
/// experiment harness to label Table I / Figure 2 rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodApplication {
    /// The intervention.
    pub method: FairnessMethod,
    /// Index of the targeted attribute.
    pub attribute: usize,
    /// Name of the targeted attribute.
    pub attribute_name: String,
}

muffin_json::impl_json!(struct MethodApplication { method, attribute, attribute_name });

impl MethodApplication {
    /// Creates a labelled application record.
    pub fn new(method: FairnessMethod, attribute: AttributeId, attribute_name: &str) -> Self {
        Self { method, attribute: attribute.index(), attribute_name: attribute_name.to_string() }
    }

    /// The paper's label, e.g. `D(Age)`.
    pub fn label(&self) -> String {
        format!("{}({})", self.method.short_name(), self.attribute_name)
    }
}

/// Training indices with every group of `target` oversampled to parity
/// with the largest group.
fn oversampled_indices(train: &Dataset, target: AttributeId, rng: &mut Rng64) -> Vec<usize> {
    let num_groups = train.schema().get(target).expect("attribute in range").num_groups();
    let mut by_group: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
    for (i, &g) in train.groups(target).iter().enumerate() {
        by_group[g as usize].push(i);
    }
    let max_count = by_group.iter().map(Vec::len).max().unwrap_or(0);
    let mut indices: Vec<usize> = (0..train.len()).collect();
    for members in by_group.iter().filter(|m| !m.is_empty()) {
        let deficit = max_count - members.len();
        for _ in 0..deficit {
            indices.push(members[rng.below(members.len())]);
        }
    }
    rng.shuffle(&mut indices);
    indices
}

/// Per-sample weights inversely proportional to the group frequency under
/// `target`, normalised to mean 1.
fn inverse_frequency_weights(train: &Dataset, target: AttributeId) -> Vec<f32> {
    let num_groups = train.schema().get(target).expect("attribute in range").num_groups();
    let mut counts = vec![0usize; num_groups];
    for &g in train.groups(target) {
        counts[g as usize] += 1;
    }
    let n = train.len() as f32;
    let present = counts.iter().filter(|&&c| c > 0).count() as f32;
    let weights: Vec<f32> = train
        .groups(target)
        .iter()
        .map(|&g| n / (present * counts[g as usize] as f32))
        .collect();
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_tensor::Rng64;

    fn split() -> muffin_data::DatasetSplit {
        let mut rng = Rng64::seed(30);
        IsicLike::small().generate(&mut rng).split_default(&mut rng)
    }

    #[test]
    fn oversampling_balances_group_counts() {
        let s = split();
        let target = s.train.schema().by_name("age").expect("age");
        let indices = oversampled_indices(&s.train, target, &mut Rng64::seed(1));
        let num_groups = s.train.schema().get(target).unwrap().num_groups();
        let mut counts = vec![0usize; num_groups];
        for &i in &indices {
            counts[usize::from(s.train.groups(target)[i])] += 1;
        }
        let max = *counts.iter().max().unwrap();
        for (g, &c) in counts.iter().enumerate() {
            if c > 0 {
                assert_eq!(c, max, "group {g} not balanced: {counts:?}");
            }
        }
    }

    #[test]
    fn inverse_frequency_weights_have_mean_one() {
        let s = split();
        let target = s.train.schema().by_name("site").expect("site");
        let w = inverse_frequency_weights(&s.train, target);
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean weight {mean}");
    }

    #[test]
    fn rare_groups_get_heavier_weights() {
        let s = split();
        let target = s.train.schema().by_name("site").expect("site");
        let w = inverse_frequency_weights(&s.train, target);
        // oral/genital (group 7, share 6%) must outweigh anterior torso
        // (group 0, share 17%).
        let rare = s
            .train
            .groups(target)
            .iter()
            .position(|&g| g == 7)
            .map(|i| w[i])
            .expect("rare group present");
        let common = s
            .train
            .groups(target)
            .iter()
            .position(|&g| g == 0)
            .map(|i| w[i])
            .expect("common group present");
        assert!(rare > common * 1.5, "rare {rare} vs common {common}");
    }

    #[test]
    fn applied_model_is_named_after_method() {
        let s = split();
        let target = s.train.schema().by_name("age").expect("age");
        let mut rng = Rng64::seed(2);
        let model = FairnessMethod::FairLoss.apply(
            &Architecture::shufflenet_v2_x1_0(),
            &s.train,
            target,
            &BackboneConfig::fast().with_epochs(2),
            &mut rng,
        );
        assert_eq!(model.name(), "ShuffleNet_V2_X1_0+L(age)");
    }

    #[test]
    fn method_application_label_matches_paper_style() {
        let s = split();
        let target = s.train.schema().by_name("age").expect("age");
        let app = MethodApplication::new(FairnessMethod::DataBalancing, target, "age");
        assert_eq!(app.label(), "D(age)");
    }

    #[test]
    fn data_balancing_improves_target_attribute_fairness() {
        let s = split();
        let target = s.train.schema().by_name("age").expect("age");
        let mut rng = Rng64::seed(3);
        let cfg = BackboneConfig::fast();
        let vanilla = crate::ModelPool::train(
            &s.train,
            &[Architecture::resnet18()],
            &cfg,
            &mut Rng64::seed(4),
        );
        let balanced = FairnessMethod::DataBalancing.apply(
            &Architecture::resnet18(),
            &s.train,
            target,
            &cfg,
            &mut rng,
        );
        let u_vanilla =
            vanilla.get(0).unwrap().evaluate(&s.test).attribute("age").unwrap().unfairness;
        let u_balanced = balanced.evaluate(&s.test).attribute("age").unwrap().unfairness;
        // On the small dataset variance is high; require a non-worsening
        // with modest tolerance rather than a strict improvement.
        assert!(
            u_balanced < u_vanilla + 0.1,
            "D should not substantially worsen its own target: {u_vanilla} -> {u_balanced}"
        );
    }
}
