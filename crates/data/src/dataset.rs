use crate::{AttributeId, AttributeSchema, GroupId};
use muffin_tensor::{Matrix, Rng64};

/// A labelled dataset with per-sample sensitive-attribute group membership.
///
/// Rows of `features` are samples. `group_ids[attr][sample]` records which
/// group of attribute `attr` the sample belongs to.
///
/// # Example
///
/// ```
/// use muffin_data::IsicLike;
/// use muffin_tensor::Rng64;
///
/// let ds = IsicLike::small().generate(&mut Rng64::seed(1));
/// let age = ds.schema().by_name("age").expect("age attribute");
/// let young = ds.group_indices(age, muffin_data::GroupId::new(0));
/// assert!(!young.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
    schema: AttributeSchema,
    group_ids: Vec<Vec<u16>>,
}

muffin_json::impl_json!(struct Dataset { features, labels, num_classes, schema, group_ids });

impl Dataset {
    /// Assembles a dataset from parts.
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree, labels exceed `num_classes`, or group
    /// ids exceed their attribute's group count.
    pub fn new(
        features: Matrix,
        labels: Vec<usize>,
        num_classes: usize,
        schema: AttributeSchema,
        group_ids: Vec<Vec<u16>>,
    ) -> Self {
        let dataset = Self { features, labels, num_classes, schema, group_ids };
        dataset.check_invariants().unwrap_or_else(|msg| panic!("{msg}"));
        dataset
    }

    /// Checks the invariants every dataset holds: one label per feature
    /// row, every label below `num_classes`, one group vector per schema
    /// attribute with one entry per row, and every group id below its
    /// attribute's group count. The error names the field, the index and
    /// the bound of the first violation.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let (n, len, classes) = (self.features.rows(), self.labels.len(), self.num_classes);
        if len != n {
            return Err(format!("labels/features mismatch: {len} labels for {n} feature rows"));
        }
        if let Some(i) = self.labels.iter().position(|&l| l >= classes) {
            let label = self.labels[i];
            return Err(format!(
                "label out of range: labels[{i}] = {label}, must be below num_classes = {classes}"
            ));
        }
        let (vectors, attrs) = (self.group_ids.len(), self.schema.len());
        if vectors != attrs {
            return Err(format!(
                "one group vector per attribute required: group_ids has {vectors} vectors for \
                 {attrs} schema attributes"
            ));
        }
        for ((a, attr), groups) in self.schema.iter().zip(&self.group_ids) {
            let (a, len, limit) = (a.index(), groups.len(), attr.num_groups());
            if len != n {
                return Err(format!(
                    "group ids/features mismatch: group_ids[{a}] has {len} entries for {n} rows"
                ));
            }
            if let Some(i) = groups.iter().position(|&g| g as usize >= limit) {
                return Err(format!(
                    "group id out of range: group_ids[{a}][{i}] = {}, must be below the {limit} \
                     groups of attribute {}",
                    groups[i],
                    attr.name()
                ));
            }
        }
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature matrix (`samples × feature_dim`).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Ground-truth class labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The sensitive-attribute schema.
    pub fn schema(&self) -> &AttributeSchema {
        &self.schema
    }

    /// Group membership of every sample for one attribute.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range.
    pub fn groups(&self, attr: AttributeId) -> &[u16] {
        &self.group_ids[attr.index()]
    }

    /// Indices of all samples in `group` of `attr`.
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range.
    pub fn group_indices(&self, attr: AttributeId, group: GroupId) -> Vec<usize> {
        self.group_ids[attr.index()]
            .iter()
            .enumerate()
            .filter(|(_, &g)| g as usize == group.index())
            .map(|(i, _)| i)
            .collect()
    }

    /// A new dataset restricted to `indices` (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let features = self.features.select_rows(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        let group_ids = self
            .group_ids
            .iter()
            .map(|groups| indices.iter().map(|&i| groups[i]).collect())
            .collect();
        Dataset {
            features,
            labels,
            num_classes: self.num_classes,
            schema: self.schema.clone(),
            group_ids,
        }
    }

    /// Splits into train/validation/test by the given fractions.
    ///
    /// The split is a shuffled partition; `train_frac + val_frac` must be
    /// less than `1.0` and the remainder becomes the test set.
    ///
    /// # Panics
    ///
    /// Panics if fractions are out of range.
    pub fn split(&self, train_frac: f32, val_frac: f32, rng: &mut Rng64) -> DatasetSplit {
        assert!(train_frac > 0.0 && val_frac >= 0.0, "fractions must be positive");
        assert!(train_frac + val_frac < 1.0, "train+val must leave room for test");
        let mut indices: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut indices);
        let n_train = (self.len() as f32 * train_frac).round() as usize;
        let n_val = (self.len() as f32 * val_frac).round() as usize;
        let train = self.subset(&indices[..n_train]);
        let val = self.subset(&indices[n_train..n_train + n_val]);
        let test = self.subset(&indices[n_train + n_val..]);
        DatasetSplit { train, val, test }
    }

    /// The paper's split: 64% train, 16% validation, 20% test.
    pub fn split_default(&self, rng: &mut Rng64) -> DatasetSplit {
        self.split(0.64, 0.16, rng)
    }
}

/// Train/validation/test partition of a [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetSplit {
    /// Training portion (64% by default, matching the paper).
    pub train: Dataset,
    /// Validation portion (16% by default).
    pub val: Dataset,
    /// Held-out test portion (20% by default).
    pub test: Dataset,
}

muffin_json::impl_json!(struct DatasetSplit { train, val, test });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SensitiveAttribute;

    fn tiny() -> Dataset {
        let features = Matrix::from_fn(10, 3, |r, c| (r * 3 + c) as f32);
        let labels = (0..10).map(|i| i % 2).collect();
        let schema = AttributeSchema::new(vec![SensitiveAttribute::new("a", &["g0", "g1"])]);
        let groups = vec![(0..10u16).map(|i| i % 2).collect()];
        Dataset::new(features, labels, 2, schema, groups)
    }

    #[test]
    fn construction_validates_lengths() {
        let d = tiny();
        assert_eq!(d.len(), 10);
        assert_eq!(d.feature_dim(), 3);
    }

    #[test]
    #[should_panic(expected = "labels/features mismatch")]
    fn rejects_label_length_mismatch() {
        let features = Matrix::zeros(3, 2);
        Dataset::new(features, vec![0, 1], 2, AttributeSchema::new(vec![]), vec![]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let features = Matrix::zeros(1, 2);
        Dataset::new(features, vec![5], 2, AttributeSchema::new(vec![]), vec![]);
    }

    #[test]
    #[should_panic(expected = "group id out of range")]
    fn rejects_out_of_range_group() {
        let features = Matrix::zeros(1, 2);
        let schema = AttributeSchema::new(vec![SensitiveAttribute::new("a", &["only"])]);
        Dataset::new(features, vec![0], 2, schema, vec![vec![3]]);
    }

    #[test]
    fn group_indices_filter_correctly() {
        let d = tiny();
        let attr = AttributeId::new(0);
        let g1 = d.group_indices(attr, GroupId::new(1));
        assert_eq!(g1, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn subset_preserves_alignment() {
        let d = tiny();
        let s = d.subset(&[4, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels(), &[0, 0]);
        assert_eq!(s.features().row(0), d.features().row(4));
        assert_eq!(s.groups(AttributeId::new(0))[0], 0);
    }

    #[test]
    fn split_partitions_without_overlap() {
        let d = tiny();
        let mut rng = Rng64::seed(3);
        let split = d.split(0.6, 0.2, &mut rng);
        assert_eq!(split.train.len() + split.val.len() + split.test.len(), d.len());
        assert_eq!(split.train.len(), 6);
        assert_eq!(split.val.len(), 2);
        assert_eq!(split.test.len(), 2);
    }

    #[test]
    fn split_default_uses_paper_fractions() {
        let d = tiny();
        let split = d.split_default(&mut Rng64::seed(4));
        assert_eq!(split.train.len(), 6); // 64% of 10 rounds to 6
        assert_eq!(split.val.len(), 2);
        assert_eq!(split.test.len(), 2);
    }

    #[test]
    #[should_panic(expected = "room for test")]
    fn split_requires_test_remainder() {
        tiny().split(0.9, 0.1, &mut Rng64::seed(5));
    }

    #[test]
    fn split_is_deterministic() {
        let d = tiny();
        let a = d.split_default(&mut Rng64::seed(6));
        let b = d.split_default(&mut Rng64::seed(6));
        assert_eq!(a.train.labels(), b.train.labels());
        assert_eq!(a.test.features(), b.test.features());
    }
}
