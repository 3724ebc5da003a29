use crate::{BodyOutputCache, MuffinError, PrivilegeMap};
use muffin_data::{AttributeId, Dataset};
use muffin_models::ModelPool;

/// The fairness proxy dataset (paper component ② and Algorithm 1).
///
/// The muffin head is trained **only on unprivileged-group samples**, each
/// weighted by its group's Algorithm-1 weight:
///
/// 1. every image receives `w[img] = ` the number of unprivileged groups
///    (across all unfair attributes) it belongs to;
/// 2. every unprivileged group receives
///    `w[g] = Σ_{img ∈ g} w[img] / N_g` — the mean image weight of its
///    members;
/// 3. during training each sample contributes once **per unprivileged
///    membership**, weighted by that group's `w[g]`; equivalently (and
///    how this implementation realises it) a sample's training weight is
///    the **sum** of `w[g]` over the unprivileged groups it belongs to.
///
/// A sample in the overlap of several unfair attributes therefore pulls
/// roughly twice the gradient of a singly-unprivileged one — the paper's
/// holistic multi-attribute optimisation ("we associate the data with a
/// higher weight if it appears in the groups under multiple unfair
/// attributes").
///
/// # Example
///
/// ```
/// use muffin::{PrivilegeMap, ProxyDataset};
/// use muffin_data::IsicLike;
/// use muffin_tensor::Rng64;
///
/// # fn main() -> Result<(), muffin::MuffinError> {
/// let ds = IsicLike::small().generate(&mut Rng64::seed(1));
/// let mut map = PrivilegeMap::new();
/// map.set(ds.schema().by_name("age").unwrap(), vec![4, 5]);
/// map.set(ds.schema().by_name("site").unwrap(), vec![5, 6, 7, 8]);
/// let proxy = ProxyDataset::build(&ds, &map)?;
/// assert!(proxy.len() < ds.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProxyDataset {
    indices: Vec<usize>,
    weights: Vec<f32>,
    group_weights: Vec<(usize, u16, f32)>,
}

muffin_json::impl_json!(struct ProxyDataset { indices, weights, group_weights });

impl ProxyDataset {
    /// Runs Algorithm 1 over `dataset` and assembles the proxy dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MuffinError::EmptyProxy`] if no sample falls in any
    /// unprivileged group, and [`MuffinError::InvalidConfig`] if `privilege`
    /// targets no attribute.
    pub fn build(dataset: &Dataset, privilege: &PrivilegeMap) -> Result<Self, MuffinError> {
        if privilege.is_empty() {
            return Err(MuffinError::InvalidConfig(
                "privilege map targets no attribute".into(),
            ));
        }

        // Algorithm 1, first loop: w[img] += 1 per unprivileged membership.
        let mut image_weights = vec![0u32; dataset.len()];
        for attr in privilege.attributes() {
            let groups = dataset.groups(attr);
            for (i, &g) in groups.iter().enumerate() {
                if privilege.is_unprivileged(attr, g) {
                    image_weights[i] += 1;
                }
            }
        }

        // Algorithm 1, second loop: w[g] = mean image weight per group.
        let mut group_weights: Vec<(usize, u16, f32)> = Vec::new();
        for attr in privilege.attributes() {
            let groups = dataset.groups(attr);
            for &g in privilege.unprivileged_groups(attr) {
                let members: Vec<usize> = groups
                    .iter()
                    .enumerate()
                    .filter(|(_, &gg)| gg == g)
                    .map(|(i, _)| i)
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let mean = members.iter().map(|&i| image_weights[i] as f32).sum::<f32>()
                    / members.len() as f32;
                group_weights.push((attr.index(), g, mean));
            }
        }

        // Proxy support: the union of unprivileged samples. Each sample
        // contributes once per unprivileged membership at that group's
        // weight, realised as a single entry with the summed weight.
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        for (i, &image_weight) in image_weights.iter().enumerate() {
            if image_weight == 0 {
                continue;
            }
            let mut total = 0.0;
            for attr in privilege.attributes() {
                let g = dataset.groups(attr)[i];
                if privilege.is_unprivileged(attr, g) {
                    if let Some(&(_, _, w)) = group_weights
                        .iter()
                        .find(|&&(a, gg, _)| a == attr.index() && gg == g)
                    {
                        total += w;
                    }
                }
            }
            indices.push(i);
            weights.push(if total == 0.0 { 1.0 } else { total });
        }

        if indices.is_empty() {
            return Err(MuffinError::EmptyProxy);
        }
        Ok(Self { indices, weights, group_weights })
    }

    /// A proxy over the same support but with **uniform** weights — the
    /// "original dataset" arm of the paper's Figure 9(a) ablation.
    pub fn with_uniform_weights(&self) -> Self {
        Self {
            indices: self.indices.clone(),
            weights: vec![1.0; self.indices.len()],
            group_weights: self.group_weights.clone(),
        }
    }

    /// Builds a proxy directly from indices and weights (no Algorithm 1) —
    /// the escape hatch for custom weighting schemes and for restricting
    /// the support, e.g. to disagreement samples.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or `indices` is empty.
    pub fn from_parts(indices: Vec<usize>, weights: Vec<f32>) -> Self {
        assert_eq!(indices.len(), weights.len(), "indices/weights mismatch");
        assert!(!indices.is_empty(), "proxy support must be non-empty");
        Self { indices, weights, group_weights: Vec::new() }
    }

    /// Number of proxy samples.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the proxy is empty (never true for a built proxy).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Indices into the source dataset.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Per-proxy-sample training weights, aligned with [`Self::indices`].
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// What muffin-head training reads: a body-output cache over the proxy
    /// rows of `source`, and those rows' labels.
    pub(crate) fn bodies<'p>(
        &self,
        pool: &'p ModelPool,
        source: &Dataset,
    ) -> (BodyOutputCache<'p>, Vec<usize>) {
        let labels = self.indices.iter().map(|&i| source.labels()[i]).collect();
        let features = source.features().select_rows(&self.indices);
        (BodyOutputCache::new(pool, features), labels)
    }

    /// Algorithm 1's per-group weights as `(attribute, group, weight)`.
    pub fn group_weights(&self) -> &[(usize, u16, f32)] {
        &self.group_weights
    }

    /// The weight of one group, if it was unprivileged.
    pub fn group_weight(&self, attr: AttributeId, group: u16) -> Option<f32> {
        self.group_weights
            .iter()
            .find(|&&(a, g, _)| a == attr.index() && g == group)
            .map(|&(_, _, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::{AttributeSchema, SensitiveAttribute};
    use muffin_tensor::{Matrix, Rng64};

    /// 8 samples, two attributes with two groups each.
    /// attr0 unprivileged group: 1 (samples 4..8)
    /// attr1 unprivileged group: 1 (samples 2,3,6,7)
    fn toy() -> (Dataset, PrivilegeMap) {
        let features = Matrix::zeros(8, 2);
        let labels = vec![0; 8];
        let schema = AttributeSchema::new(vec![
            SensitiveAttribute::new("a", &["p", "u"]),
            SensitiveAttribute::new("b", &["p", "u"]),
        ]);
        let groups = vec![
            vec![0, 0, 0, 0, 1, 1, 1, 1],
            vec![0, 0, 1, 1, 0, 0, 1, 1],
        ];
        let ds = Dataset::new(features, labels, 2, schema, groups);
        let mut map = PrivilegeMap::new();
        map.set(AttributeId::new(0), vec![1]);
        map.set(AttributeId::new(1), vec![1]);
        (ds, map)
    }

    #[test]
    fn algorithm_one_image_weights_are_membership_counts() {
        let (ds, map) = toy();
        let proxy = ProxyDataset::build(&ds, &map).expect("proxy");
        // Support: samples 2..8 (sample 0,1 privileged in both).
        assert_eq!(proxy.indices(), &[2, 3, 4, 5, 6, 7]);
        // attr0 group1 members {4,5,6,7} have image weights {1,1,2,2} → mean 1.5.
        assert_eq!(proxy.group_weight(AttributeId::new(0), 1), Some(1.5));
        // attr1 group1 members {2,3,6,7} have image weights {1,1,2,2} → mean 1.5.
        assert_eq!(proxy.group_weight(AttributeId::new(1), 1), Some(1.5));
    }

    #[test]
    fn overlap_samples_weigh_double() {
        let (ds, map) = toy();
        let proxy = ProxyDataset::build(&ds, &map).expect("proxy");
        // Samples 2..6 belong to one unprivileged group (weight 1.5);
        // samples 6,7 belong to both (weight 1.5 + 1.5 = 3.0).
        for (&i, &w) in proxy.indices().iter().zip(proxy.weights()) {
            let expected = if i >= 6 { 3.0 } else { 1.5 };
            assert!((w - expected).abs() < 1e-6, "sample {i}: weight {w}");
        }
    }

    #[test]
    fn asymmetric_overlap_weights_heavier_group_more() {
        // attr0 unprivileged group fully contained in attr1's → its members
        // all have weight 2, so w[g0] = 2 > w[g1].
        let features = Matrix::zeros(6, 1);
        let labels = vec![0; 6];
        let schema = AttributeSchema::new(vec![
            SensitiveAttribute::new("a", &["p", "u"]),
            SensitiveAttribute::new("b", &["p", "u"]),
        ]);
        let groups = vec![
            vec![0, 0, 0, 0, 1, 1], // a: samples 4,5
            vec![0, 0, 1, 1, 1, 1], // b: samples 2..6 (superset)
        ];
        let ds = Dataset::new(features, labels, 2, schema, groups);
        let mut map = PrivilegeMap::new();
        map.set(AttributeId::new(0), vec![1]);
        map.set(AttributeId::new(1), vec![1]);
        let proxy = ProxyDataset::build(&ds, &map).expect("proxy");
        let wa = proxy.group_weight(AttributeId::new(0), 1).unwrap();
        let wb = proxy.group_weight(AttributeId::new(1), 1).unwrap();
        assert!((wa - 2.0).abs() < 1e-6);
        assert!((wb - 1.5).abs() < 1e-6);
        assert!(wa > wb, "the doubly-unprivileged group must weigh more");
    }

    #[test]
    fn empty_privilege_map_is_invalid() {
        let (ds, _) = toy();
        let err = ProxyDataset::build(&ds, &PrivilegeMap::new()).unwrap_err();
        assert!(matches!(err, MuffinError::InvalidConfig(_)));
    }

    #[test]
    fn no_unprivileged_samples_is_an_error() {
        let (ds, _) = toy();
        let mut map = PrivilegeMap::new();
        // Target a group that has no members... group ids must be in range,
        // so use an in-range group that nobody belongs to: impossible here;
        // instead target attribute 0 with empty set.
        map.set(AttributeId::new(0), vec![]);
        let err = ProxyDataset::build(&ds, &map).unwrap_err();
        assert_eq!(err, MuffinError::EmptyProxy);
    }

    #[test]
    fn uniform_variant_keeps_support() {
        let (ds, map) = toy();
        let proxy = ProxyDataset::build(&ds, &map).expect("proxy");
        let uniform = proxy.with_uniform_weights();
        assert_eq!(uniform.indices(), proxy.indices());
        assert!(uniform.weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn realistic_dataset_builds_nonempty_proxy() {
        let ds = muffin_data::IsicLike::small().generate(&mut Rng64::seed(3));
        let mut map = PrivilegeMap::new();
        map.set(ds.schema().by_name("age").unwrap(), vec![4, 5]);
        map.set(ds.schema().by_name("site").unwrap(), vec![5, 6, 7, 8]);
        let proxy = ProxyDataset::build(&ds, &map).expect("proxy");
        assert!(proxy.len() > ds.len() / 10, "unprivileged union should be sizeable");
        assert!(proxy.len() < ds.len(), "proxy must exclude privileged-only samples");
        // Heavier weights exist because of age∩site overlap (correlation).
        let max = proxy.weights().iter().copied().fold(f32::MIN, f32::max);
        let min = proxy.weights().iter().copied().fold(f32::MAX, f32::min);
        assert!(max > min, "overlap should produce non-uniform weights");
    }
}
