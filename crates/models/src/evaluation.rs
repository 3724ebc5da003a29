use muffin_data::{
    group_accuracies, group_accuracy_gap, intersectional_group_accuracies, joint_unfairness,
    unfairness_score, AttributeId, Dataset, GroupAccuracy,
};
use muffin_nn::accuracy;
use std::fmt;

/// Fairness evaluation of one model for one sensitive attribute.
#[derive(Debug, Clone)]
pub struct AttributeEvaluation {
    /// The attribute's index in the dataset schema.
    pub attribute: usize,
    /// The attribute's name.
    pub name: String,
    /// The paper's L1 unfairness score `U`.
    pub unfairness: f32,
    /// Max-minus-min group accuracy.
    pub accuracy_gap: f32,
    /// Per-group accuracies.
    pub groups: Vec<GroupAccuracy>,
}

muffin_json::impl_json!(struct AttributeEvaluation { attribute, name, unfairness, accuracy_gap, groups });

/// Fairness evaluation of one model over the **joint cells** of one
/// attribute pair — the intersectional counterpart of
/// [`AttributeEvaluation`].
///
/// Cells are indexed row-major: the cell for groups `(g_a, g_b)` sits at
/// `g_a · num_groups_b + g_b`, matching
/// [`muffin_data::joint_group_ids`].
#[derive(Debug, Clone)]
pub struct IntersectionEvaluation {
    /// Index of the first attribute in the dataset schema.
    pub attr_a: usize,
    /// Index of the second attribute in the schema (`attr_a < attr_b`).
    pub attr_b: usize,
    /// Pair label, e.g. `age×gender`.
    pub name: String,
    /// The paper's U computed over the joint cells.
    pub unfairness: f32,
    /// Max-minus-min joint-cell accuracy.
    pub accuracy_gap: f32,
    /// Per-cell accuracies, row-major.
    pub cells: Vec<GroupAccuracy>,
}

muffin_json::impl_json!(struct IntersectionEvaluation { attr_a, attr_b, name, unfairness, accuracy_gap, cells });

/// Full evaluation of one model on one dataset: overall accuracy plus one
/// [`AttributeEvaluation`] per sensitive attribute.
///
/// # Example
///
/// ```
/// use muffin_data::IsicLike;
/// use muffin_models::{Architecture, BackboneConfig, ModelPool};
/// use muffin_tensor::Rng64;
///
/// let mut rng = Rng64::seed(3);
/// let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
/// let pool = ModelPool::train(
///     &split.train,
///     &[Architecture::mobilenet_v3_small()],
///     &BackboneConfig::fast(),
///     &mut rng,
/// );
/// let eval = pool.get(0).expect("model").evaluate(&split.test);
/// println!("{eval}");
/// assert_eq!(eval.attributes.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ModelEvaluation {
    /// Name of the evaluated model.
    pub model: String,
    /// Overall accuracy `A(f', D)`.
    pub accuracy: f32,
    /// Per-attribute fairness results, in schema order.
    pub attributes: Vec<AttributeEvaluation>,
    /// Joint-cell fairness results for every attribute pair `(i, j)` with
    /// `i < j`, ordered lexicographically by the pair.
    pub intersections: Vec<IntersectionEvaluation>,
}

muffin_json::impl_json!(struct ModelEvaluation { model, accuracy, attributes, intersections });

impl ModelEvaluation {
    /// Evaluates `predictions` against `dataset`'s labels and groups.
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != dataset.len()`.
    pub fn of(predictions: &[usize], dataset: &Dataset, model: String) -> Self {
        assert_eq!(predictions.len(), dataset.len(), "predictions/dataset mismatch");
        let overall = accuracy(predictions, dataset.labels());
        let attributes = dataset
            .schema()
            .iter()
            .map(|(id, attr)| {
                let groups = dataset.groups(id);
                AttributeEvaluation {
                    attribute: id.index(),
                    name: attr.name().to_string(),
                    unfairness: unfairness_score(
                        predictions,
                        dataset.labels(),
                        groups,
                        attr.num_groups(),
                    ),
                    accuracy_gap: group_accuracy_gap(
                        predictions,
                        dataset.labels(),
                        groups,
                        attr.num_groups(),
                    ),
                    groups: group_accuracies(
                        predictions,
                        dataset.labels(),
                        groups,
                        attr.num_groups(),
                    ),
                }
            })
            .collect();
        let schema_attrs: Vec<_> = dataset.schema().iter().collect();
        let mut intersections = Vec::new();
        for i in 0..schema_attrs.len() {
            for j in (i + 1)..schema_attrs.len() {
                let (id_a, attr_a) = &schema_attrs[i];
                let (id_b, attr_b) = &schema_attrs[j];
                let (ga, gb) = (dataset.groups(*id_a), dataset.groups(*id_b));
                let (na, nb) = (attr_a.num_groups(), attr_b.num_groups());
                intersections.push(IntersectionEvaluation {
                    attr_a: i,
                    attr_b: j,
                    name: dataset.schema().pair_label(*id_a, *id_b),
                    unfairness: joint_unfairness(
                        predictions,
                        dataset.labels(),
                        &[ga, gb],
                        &[na, nb],
                    ),
                    accuracy_gap: joint_accuracy_gap(predictions, dataset.labels(), ga, na, gb, nb),
                    cells: intersectional_group_accuracies(
                        predictions,
                        dataset.labels(),
                        ga,
                        na,
                        gb,
                        nb,
                    ),
                });
            }
        }
        Self { model, accuracy: overall, attributes, intersections }
    }

    /// The evaluation for the named attribute, if present.
    pub fn attribute(&self, name: &str) -> Option<&AttributeEvaluation> {
        self.attributes.iter().find(|a| a.name == name)
    }

    /// Sum of joint-cell unfairness over every unordered pair of the listed
    /// attributes (all pairs when `names` is empty) — the intersectional
    /// counterpart of [`multi_unfairness`](Self::multi_unfairness). With
    /// fewer than two listed attributes, falls back to the marginal sum so
    /// single-attribute searches stay well-defined.
    pub fn multi_joint_unfairness(&self, names: &[&str]) -> f32 {
        let selected: Vec<usize> = self
            .attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| names.is_empty() || names.contains(&a.name.as_str()))
            .map(|(i, _)| i)
            .collect();
        if selected.len() < 2 {
            return self.multi_unfairness(names);
        }
        self.intersections
            .iter()
            .filter(|ix| selected.contains(&ix.attr_a) && selected.contains(&ix.attr_b))
            .map(|ix| ix.unfairness)
            .sum()
    }

    /// The paper's Eq. 1 multi-dimension unfairness: the sum of the listed
    /// attributes' scores (all attributes when `names` is empty).
    pub fn multi_unfairness(&self, names: &[&str]) -> f32 {
        self.attributes
            .iter()
            .filter(|a| names.is_empty() || names.contains(&a.name.as_str()))
            .map(|a| a.unfairness)
            .sum()
    }
}

fn joint_accuracy_gap(
    predictions: &[usize],
    labels: &[usize],
    groups_a: &[u16],
    num_groups_a: usize,
    groups_b: &[u16],
    num_groups_b: usize,
) -> f32 {
    let (joint, cells) =
        muffin_data::joint_group_ids(&[groups_a, groups_b], &[num_groups_a, num_groups_b]);
    group_accuracy_gap(predictions, labels, &joint, cells)
}

impl fmt::Display for ModelEvaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: accuracy {:.2}%", self.model, self.accuracy * 100.0)?;
        for attr in &self.attributes {
            writeln!(
                f,
                "  {}: U = {:.4}, gap = {:.2}%",
                attr.name,
                attr.unfairness,
                attr.accuracy_gap * 100.0
            )?;
        }
        for ix in &self.intersections {
            writeln!(
                f,
                "  {}: U∩ = {:.4}, gap = {:.2}%",
                ix.name,
                ix.unfairness,
                ix.accuracy_gap * 100.0
            )?;
        }
        Ok(())
    }
}

/// Determines the unprivileged groups of `attr` from model behaviour: the
/// groups whose accuracy falls below the overall accuracy.
///
/// This is the data-driven counterpart of the paper's unprivileged-group
/// notion — it needs no knowledge of how the synthetic dataset was
/// designed.
///
/// # Panics
///
/// Panics if `predictions.len() != dataset.len()` or `attr` is out of
/// range.
pub fn unprivileged_by_accuracy(
    predictions: &[usize],
    dataset: &Dataset,
    attr: AttributeId,
) -> Vec<u16> {
    assert_eq!(predictions.len(), dataset.len(), "predictions/dataset mismatch");
    let overall = accuracy(predictions, dataset.labels());
    let num_groups = dataset.schema().get(attr).expect("attribute in range").num_groups();
    group_accuracies(predictions, dataset.labels(), dataset.groups(attr), num_groups)
        .iter()
        .filter(|g| g.count > 0 && g.accuracy < overall)
        .map(|g| g.group)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::{AttributeSchema, SensitiveAttribute};
    use muffin_tensor::Matrix;

    impl ModelEvaluation {
        /// The joint-cell evaluation for one attribute pair, accepting the
        /// names in either order.
        fn intersection(&self, a: &str, b: &str) -> Option<&IntersectionEvaluation> {
            self.intersections.iter().find(|ix| {
                let (named_a, named_b) = (
                    self.attributes.get(ix.attr_a).map(|x| x.name.as_str()),
                    self.attributes.get(ix.attr_b).map(|x| x.name.as_str()),
                );
                (named_a == Some(a) && named_b == Some(b))
                    || (named_a == Some(b) && named_b == Some(a))
            })
        }
    }

    fn toy_dataset() -> Dataset {
        // 6 samples; group 1 of attribute "a" is systematically hard.
        let features = Matrix::zeros(6, 2);
        let labels = vec![0, 0, 0, 1, 1, 1];
        let schema = AttributeSchema::new(vec![SensitiveAttribute::new("a", &["g0", "g1"])]);
        let groups = vec![vec![0, 0, 0, 1, 1, 1]];
        Dataset::new(features, labels, 2, schema, groups)
    }

    #[test]
    fn evaluation_separates_attributes_and_overall() {
        let ds = toy_dataset();
        // Predict class 0 always: group 0 perfect, group 1 all wrong.
        let eval = ModelEvaluation::of(&[0; 6], &ds, "const".into());
        assert!((eval.accuracy - 0.5).abs() < 1e-6);
        let a = eval.attribute("a").expect("attribute a");
        assert!((a.unfairness - 1.0).abs() < 1e-6);
        assert!((a.accuracy_gap - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multi_unfairness_sums_selected_attributes() {
        let ds = toy_dataset();
        let eval = ModelEvaluation::of(&[0; 6], &ds, "const".into());
        assert!((eval.multi_unfairness(&["a"]) - 1.0).abs() < 1e-6);
        assert!((eval.multi_unfairness(&[]) - 1.0).abs() < 1e-6);
        assert_eq!(eval.multi_unfairness(&["missing"]), 0.0);
    }

    #[test]
    fn unprivileged_by_accuracy_flags_low_groups() {
        let ds = toy_dataset();
        let unpriv = unprivileged_by_accuracy(&[0; 6], &ds, AttributeId::new(0));
        assert_eq!(unpriv, vec![1]);
    }

    #[test]
    fn unprivileged_is_empty_for_uniform_accuracy() {
        let ds = toy_dataset();
        // Perfect predictions: no group below overall.
        let unpriv = unprivileged_by_accuracy(&[0, 0, 0, 1, 1, 1], &ds, AttributeId::new(0));
        assert!(unpriv.is_empty());
    }

    #[test]
    fn display_mentions_every_attribute() {
        let ds = toy_dataset();
        let text = ModelEvaluation::of(&[0; 6], &ds, "const".into()).to_string();
        assert!(text.contains("const"));
        assert!(text.contains("a: U ="));
    }

    fn two_attr_dataset() -> Dataset {
        // Marginals look fair, but the (g1, h1) joint cell is always wrong
        // under the `hidden` predictions below.
        let features = Matrix::zeros(4, 2);
        let labels = vec![0, 0, 0, 0];
        let schema = AttributeSchema::new(vec![
            SensitiveAttribute::new("a", &["g0", "g1"]),
            SensitiveAttribute::new("b", &["h0", "h1"]),
        ]);
        let groups = vec![vec![0, 0, 1, 1], vec![0, 1, 0, 1]];
        Dataset::new(features, labels, 2, schema, groups)
    }

    #[test]
    fn intersections_expose_hidden_joint_disadvantage() {
        let ds = two_attr_dataset();
        let hidden = [0, 1, 1, 0]; // each marginal group 50% right, cell (1,1) wrong
        let eval = ModelEvaluation::of(&hidden, &ds, "hidden".into());
        assert!(eval.attribute("a").expect("a").unfairness < 1e-6);
        assert!(eval.attribute("b").expect("b").unfairness < 1e-6);
        let ix = eval.intersection("a", "b").expect("pair");
        assert_eq!(ix.name, "a×b");
        assert!(ix.unfairness > 0.5, "joint U must expose the cell, got {}", ix.unfairness);
        // Hand-computed oracle: overall 1/2; cells (0,0)=1, (0,1)=0,
        // (1,0)=1, (1,1)=0 → U∩ = 4·(1/2) = 2.
        assert!((ix.unfairness - 2.0).abs() < 1e-6);
        assert!((ix.accuracy_gap - 1.0).abs() < 1e-6);
        assert_eq!(ix.cells.len(), 4);
    }

    #[test]
    fn intersection_lookup_is_order_insensitive() {
        let ds = two_attr_dataset();
        let eval = ModelEvaluation::of(&[0; 4], &ds, "m".into());
        assert!(eval.intersection("b", "a").is_some());
        assert!(eval.intersection("a", "missing").is_none());
    }

    #[test]
    fn multi_joint_unfairness_sums_pairs_and_degenerates_to_marginal() {
        let ds = two_attr_dataset();
        let hidden = [0, 1, 1, 0];
        let eval = ModelEvaluation::of(&hidden, &ds, "m".into());
        assert!((eval.multi_joint_unfairness(&["a", "b"]) - 2.0).abs() < 1e-6);
        assert!((eval.multi_joint_unfairness(&[]) - 2.0).abs() < 1e-6);
        // Single attribute → marginal fallback (which is ~0 here).
        assert!(eval.multi_joint_unfairness(&["a"]).abs() < 1e-6);
    }

    #[test]
    fn single_attribute_dataset_has_no_intersections() {
        let ds = toy_dataset();
        let eval = ModelEvaluation::of(&[0; 6], &ds, "m".into());
        assert!(eval.intersections.is_empty());
    }
}
