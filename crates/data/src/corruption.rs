//! Dataset corruption utilities for robustness experiments.
//!
//! Real clinical labels are noisy, and noise is rarely uniform across
//! groups — mislabeling is itself often biased. These utilities inject
//! controlled label noise (uniform or group-targeted) so the extension
//! experiments can ask: *does Muffin's fairness improvement survive label
//! noise?* (The paper leaves robustness unexamined; this is the repo's
//! future-work extension.)

use crate::{AttributeId, Dataset};
use muffin_tensor::Rng64;

impl Dataset {
    /// Returns a copy with each label independently resampled to a wrong
    /// class with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_label_noise(&self, rate: f32, rng: &mut Rng64) -> Dataset {
        assert!((0.0..=1.0).contains(&rate), "noise rate must lie in [0, 1]");
        self.with_noise_mask(rng, |_| rate)
    }

    /// Returns a copy where only the listed groups of `attr` receive label
    /// noise at `rate` — biased annotation, the harder real-world case.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]` or `attr` is out of range.
    pub fn with_group_label_noise(
        &self,
        attr: AttributeId,
        groups: &[u16],
        rate: f32,
        rng: &mut Rng64,
    ) -> Dataset {
        assert!((0.0..=1.0).contains(&rate), "noise rate must lie in [0, 1]");
        let membership: Vec<bool> =
            self.groups(attr).iter().map(|g| groups.contains(g)).collect();
        self.with_noise_mask(rng, |i| if membership[i] { rate } else { 0.0 })
    }

    fn with_noise_mask(&self, rng: &mut Rng64, rate_of: impl Fn(usize) -> f32) -> Dataset {
        let num_classes = self.num_classes();
        let labels: Vec<usize> = self
            .labels()
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                if num_classes > 1 && rng.chance(rate_of(i)) {
                    // Resample uniformly over the *wrong* classes.
                    let offset = 1 + rng.below(num_classes - 1);
                    (label + offset) % num_classes
                } else {
                    label
                }
            })
            .collect();
        let group_ids: Vec<Vec<u16>> =
            self.schema().iter().map(|(id, _)| self.groups(id).to_vec()).collect();
        Dataset::new(
            self.features().clone(),
            labels,
            num_classes,
            self.schema().clone(),
            group_ids,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IsicLike;

    #[test]
    fn zero_noise_is_identity() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(1));
        let noisy = ds.with_label_noise(0.0, &mut Rng64::seed(2));
        assert_eq!(noisy.labels(), ds.labels());
    }

    #[test]
    fn full_noise_flips_every_label() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(3));
        let noisy = ds.with_label_noise(1.0, &mut Rng64::seed(4));
        let unchanged =
            noisy.labels().iter().zip(ds.labels()).filter(|(a, b)| a == b).count();
        assert_eq!(unchanged, 0, "a flipped label must always differ");
    }

    #[test]
    fn noise_rate_is_approximately_respected() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(5));
        let noisy = ds.with_label_noise(0.3, &mut Rng64::seed(6));
        let flipped = noisy.labels().iter().zip(ds.labels()).filter(|(a, b)| a != b).count();
        let rate = flipped as f32 / ds.len() as f32;
        assert!((rate - 0.3).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    fn labels_stay_in_range() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(7));
        let noisy = ds.with_label_noise(0.5, &mut Rng64::seed(8));
        assert!(noisy.labels().iter().all(|&l| l < ds.num_classes()));
    }

    #[test]
    fn group_noise_only_touches_target_groups() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(9));
        let age = ds.schema().by_name("age").expect("age");
        let noisy = ds.with_group_label_noise(age, &[4, 5], 0.9, &mut Rng64::seed(10));
        for i in 0..ds.len() {
            let in_target = [4, 5].contains(&ds.groups(age)[i]);
            if !in_target {
                assert_eq!(noisy.labels()[i], ds.labels()[i], "untargeted sample {i} changed");
            }
        }
        let flipped_in_target = (0..ds.len())
            .filter(|&i| [4, 5].contains(&ds.groups(age)[i]))
            .filter(|&i| noisy.labels()[i] != ds.labels()[i])
            .count();
        assert!(flipped_in_target > 0, "targeted noise must flip something");
    }

    #[test]
    #[should_panic(expected = "noise rate")]
    fn out_of_range_rate_is_rejected() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(11));
        ds.with_label_noise(1.5, &mut Rng64::seed(12));
    }

    #[test]
    fn features_and_groups_are_untouched() {
        let ds = IsicLike::small().generate(&mut Rng64::seed(13));
        let noisy = ds.with_label_noise(0.4, &mut Rng64::seed(14));
        assert_eq!(noisy.features(), ds.features());
        for (id, _) in ds.schema().iter() {
            assert_eq!(noisy.groups(id), ds.groups(id));
        }
    }
}
