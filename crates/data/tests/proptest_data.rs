//! Property-based tests for the dataset substrate, running on the in-repo
//! `muffin-check` harness with pinned seeds.

use muffin_check::{check, prop_assert, prop_assert_eq, prop_assert_ne, Config, Gen};
use muffin_data::{
    group_accuracies, unfairness_score, AttributeSpec, DataGenerator, GeneratorConfig, GroupSpec,
    IsicLike,
};
use muffin_tensor::Rng64;

fn cases() -> Config {
    Config::cases(24).with_seed(0x7E45_0003)
}

fn config(groups: u16, correlation: f32) -> GeneratorConfig {
    let mut gs = vec![GroupSpec::new("g0", 0.5)];
    for g in 1..groups {
        gs.push(GroupSpec::new(format!("g{g}"), 0.5 / (groups - 1) as f32).with_angle(40.0));
    }
    GeneratorConfig {
        num_samples: 400,
        feature_dim: 8,
        num_classes: 3,
        class_sep: 2.0,
        base_noise: 1.0,
        spectral_decay: 0.85,
        attributes: vec![
            AttributeSpec::new("a", gs.clone(), vec![(0, 1)]),
            AttributeSpec::new("b", gs, vec![(1, 2)]),
        ],
        correlation,
        interactions: vec![],
    }
}

#[test]
fn same_seed_same_dataset() {
    check(
        "generation is seed-deterministic",
        cases(),
        |g: &mut Gen| (g.u16_in(2..=4), g.f32_in(0.0, 1.0), g.u64() % 300),
        |&(groups, corr, seed)| {
            let gen = DataGenerator::new(config(groups, corr)).expect("valid");
            let a = gen.generate(&mut Rng64::seed(seed));
            let b = gen.generate(&mut Rng64::seed(seed));
            prop_assert_eq!(a.features(), b.features());
            prop_assert_eq!(a.labels(), b.labels());
            Ok(())
        },
    );
}

#[test]
fn different_seeds_differ() {
    check(
        "adjacent seeds give different data",
        cases(),
        |g: &mut Gen| (g.u16_in(2..=4), g.u64() % 300),
        |&(groups, seed)| {
            let gen = DataGenerator::new(config(groups, 0.3)).expect("valid");
            let a = gen.generate(&mut Rng64::seed(seed));
            let b = gen.generate(&mut Rng64::seed(seed + 1));
            prop_assert_ne!(a.features(), b.features());
            Ok(())
        },
    );
}

#[test]
fn subset_of_subset_composes() {
    check("subset composition", cases(), |g: &mut Gen| g.u64() % 300, |&seed| {
        let ds = IsicLike::small().with_num_samples(100).generate(&mut Rng64::seed(seed));
        let outer: Vec<usize> = (0..50).collect();
        let inner: Vec<usize> = (0..25).map(|i| i * 2).collect();
        let two_step = ds.subset(&outer).subset(&inner);
        let direct: Vec<usize> = inner.iter().map(|&i| outer[i]).collect();
        let one_step = ds.subset(&direct);
        prop_assert_eq!(two_step.labels(), one_step.labels());
        prop_assert_eq!(two_step.features(), one_step.features());
        Ok(())
    });
}

#[test]
fn group_accuracy_counts_partition_the_dataset() {
    check(
        "group counts partition the samples",
        cases(),
        |g: &mut Gen| (g.u64() % 300, g.usize_in(2..=5)),
        |&(seed, num_groups)| {
            let mut rng = Rng64::seed(seed);
            let n = 120;
            let preds: Vec<usize> = (0..n).map(|_| rng.below(4)).collect();
            let labels: Vec<usize> = (0..n).map(|_| rng.below(4)).collect();
            let groups: Vec<u16> = (0..n).map(|_| rng.below(num_groups) as u16).collect();
            let accs = group_accuracies(&preds, &labels, &groups, num_groups);
            let total: usize = accs.iter().map(|g| g.count).sum();
            prop_assert_eq!(total, n);
            Ok(())
        },
    );
}

#[test]
fn unfairness_is_zero_iff_groups_match_overall() {
    check("equal group accuracies give U = 0", cases(), |g: &mut Gen| g.u64() % 300, |&seed| {
        let mut rng = Rng64::seed(seed);
        // Construct two groups with identical accuracy by mirroring.
        let n = 40;
        let labels: Vec<usize> = (0..n).map(|_| rng.below(2)).collect();
        let mut preds = labels.clone();
        // Flip exactly the first 5 of each group.
        let groups: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        let mut flipped = [0usize; 2];
        for i in 0..n {
            let g = groups[i] as usize;
            if flipped[g] < 5 {
                preds[i] = 1 - labels[i];
                flipped[g] += 1;
            }
        }
        let u = unfairness_score(&preds, &labels, &groups, 2);
        prop_assert!(u.abs() < 1e-6, "equal group accuracies must give U = 0, got {u}");
        Ok(())
    });
}

#[test]
fn label_noise_monotonically_increases_flips() {
    check("more noise flips more labels", cases(), |g: &mut Gen| g.u64() % 200, |&seed| {
        let ds = IsicLike::small().with_num_samples(300).generate(&mut Rng64::seed(seed));
        let flips = |rate: f32| {
            let noisy = ds.with_label_noise(rate, &mut Rng64::seed(seed ^ 0x55));
            noisy.labels().iter().zip(ds.labels()).filter(|(a, b)| a != b).count()
        };
        let low = flips(0.1);
        let high = flips(0.5);
        prop_assert!(high > low, "50% noise ({high}) must flip more than 10% ({low})");
        Ok(())
    });
}
