use muffin_data::{AttributeId, Dataset};
use muffin_models::ModelPool;

/// Which groups of which attributes are unprivileged.
///
/// The paper's pipeline trains the muffin head only on unprivileged-group
/// data (component ②). This map records, for each *targeted* unfair
/// attribute, the set of groups considered unprivileged. It can be
/// declared manually or inferred from pool behaviour with
/// [`PrivilegeMap::infer`].
///
/// # Example
///
/// ```
/// use muffin::PrivilegeMap;
/// use muffin_data::AttributeId;
///
/// let mut map = PrivilegeMap::new();
/// map.set(AttributeId::new(0), vec![4, 5]);
/// assert!(map.is_unprivileged(AttributeId::new(0), 5));
/// assert!(!map.is_unprivileged(AttributeId::new(0), 0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrivilegeMap {
    entries: Vec<(usize, Vec<u16>)>,
}

muffin_json::impl_json!(struct PrivilegeMap { entries });

impl PrivilegeMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares the unprivileged groups of one attribute, replacing any
    /// previous entry.
    pub fn set(&mut self, attr: AttributeId, mut groups: Vec<u16>) {
        groups.sort_unstable();
        groups.dedup();
        if let Some(entry) = self.entries.iter_mut().find(|(a, _)| *a == attr.index()) {
            entry.1 = groups;
        } else {
            self.entries.push((attr.index(), groups));
        }
    }

    /// The attributes this map targets, in insertion order.
    pub fn attributes(&self) -> Vec<AttributeId> {
        self.entries.iter().map(|&(a, _)| AttributeId::new(a)).collect()
    }

    /// Unprivileged groups of `attr` (empty if the attribute is untargeted).
    pub fn unprivileged_groups(&self, attr: AttributeId) -> &[u16] {
        self.entries
            .iter()
            .find(|(a, _)| *a == attr.index())
            .map_or(&[], |(_, groups)| groups.as_slice())
    }

    /// Whether `group` of `attr` is unprivileged.
    pub fn is_unprivileged(&self, attr: AttributeId, group: u16) -> bool {
        self.unprivileged_groups(attr).contains(&group)
    }

    /// Number of targeted attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no attribute is targeted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Infers the map from pool behaviour: for each attribute in `attrs`, a
    /// group is unprivileged when its **pool-average** accuracy falls below
    /// the pool-average overall accuracy by more than `margin`.
    ///
    /// This is the data-driven counterpart of the paper's unprivileged
    /// groups and requires no knowledge of how the data was generated.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty or an attribute is out of range.
    pub fn infer(pool: &ModelPool, dataset: &Dataset, attrs: &[AttributeId], margin: f32) -> Self {
        assert!(!pool.is_empty(), "cannot infer privilege from an empty pool");
        let evals: Vec<_> = pool.iter().map(|m| m.evaluate(dataset)).collect();
        let overall: f32 =
            evals.iter().map(|e| e.accuracy).sum::<f32>() / evals.len() as f32;
        let mut map = Self::new();
        for &attr in attrs {
            let schema_attr = dataset.schema().get(attr).expect("attribute in range");
            let num_groups = schema_attr.num_groups();
            let mut group_acc = vec![0.0f32; num_groups];
            let mut group_present = vec![false; num_groups];
            for eval in &evals {
                let attr_eval = &eval.attributes[attr.index()];
                for g in &attr_eval.groups {
                    if g.count > 0 {
                        group_acc[g.group as usize] += g.accuracy;
                        group_present[g.group as usize] = true;
                    }
                }
            }
            let unpriv: Vec<u16> = (0..num_groups)
                .filter(|&g| {
                    group_present[g] && group_acc[g] / evals.len() as f32 + margin < overall
                })
                .map(|g| g as u16)
                .collect();
            map.set(attr, unpriv);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muffin_data::IsicLike;
    use muffin_models::{Architecture, BackboneConfig};
    use muffin_tensor::Rng64;

    #[test]
    fn set_deduplicates_and_sorts() {
        let mut map = PrivilegeMap::new();
        map.set(AttributeId::new(0), vec![3, 1, 3, 2]);
        assert_eq!(map.unprivileged_groups(AttributeId::new(0)), &[1, 2, 3]);
    }

    #[test]
    fn set_replaces_existing_entry() {
        let mut map = PrivilegeMap::new();
        map.set(AttributeId::new(0), vec![1]);
        map.set(AttributeId::new(0), vec![2]);
        assert_eq!(map.unprivileged_groups(AttributeId::new(0)), &[2]);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn untargeted_attribute_has_no_unprivileged_groups() {
        let map = PrivilegeMap::new();
        assert!(map.unprivileged_groups(AttributeId::new(7)).is_empty());
        assert!(map.is_empty());
    }

    #[test]
    fn unprivileged_samples_take_the_union() {
        let mut rng = Rng64::seed(1);
        let ds = IsicLike::small().generate(&mut rng);
        let age = ds.schema().by_name("age").unwrap();
        let site = ds.schema().by_name("site").unwrap();
        let mut map = PrivilegeMap::new();
        map.set(age, vec![4, 5]);
        map.set(site, vec![7]);
        // The proxy dataset's support is the samples in any unprivileged
        // group of any targeted attribute.
        let proxy = crate::ProxyDataset::build(&ds, &map).expect("proxy");
        let samples = proxy.indices();
        assert!(!samples.is_empty());
        for &i in samples {
            let in_age = [4, 5].contains(&ds.groups(age)[i]);
            let in_site = ds.groups(site)[i] == 7;
            assert!(in_age || in_site);
        }
        // And nothing outside the union was included.
        let count_manual = (0..ds.len())
            .filter(|&i| [4, 5].contains(&ds.groups(age)[i]) || ds.groups(site)[i] == 7)
            .count();
        assert_eq!(samples.len(), count_manual);
    }

    #[test]
    fn infer_finds_designed_unprivileged_groups() {
        let mut rng = Rng64::seed(2);
        let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
        let pool = muffin_models::ModelPool::train(
            &split.train,
            &[Architecture::resnet18(), Architecture::densenet121()],
            &BackboneConfig::fast(),
            &mut rng,
        );
        let age = split.train.schema().by_name("age").unwrap();
        let map = PrivilegeMap::infer(&pool, &split.val, &[age], 0.02);
        let found = map.unprivileged_groups(age);
        // The designed unprivileged age groups are 4 and 5; inference on a
        // small sample may pick up a borderline extra group but must find
        // the designed ones.
        assert!(found.contains(&5), "group 5 (81+) must be flagged, got {found:?}");
        assert!(found.contains(&4), "group 4 (66-80) must be flagged, got {found:?}");
        assert!(!found.contains(&2), "majority group 2 must not be flagged, got {found:?}");
    }
}
