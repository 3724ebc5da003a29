//! Property tests for the successive-halving primitives: promotion must
//! keep the top fraction under IEEE `total_cmp` while never promoting NaN
//! rewards, and degenerate inputs (one candidate, empty and all-NaN
//! reward vectors) must not panic. Runs on the in-repo `muffin-check`
//! harness with pinned seeds.

use muffin::{promote, promotion_count};
use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen, Shrink};

fn config() -> Config {
    Config::cases(64).with_seed(0x7E45_0800)
}

/// A random reward vector with a controllable NaN rate, plus the keep
/// fraction used for promotion.
#[derive(Clone, Debug)]
struct PromoteCase {
    rewards: Vec<f32>,
    keep_fraction: f32,
}

impl PromoteCase {
    fn generate(g: &mut Gen) -> Self {
        let len = g.usize_in(0..=24);
        let nan_rate = g.f32_in(0.0, 0.6);
        let rewards = (0..len)
            .map(|_| {
                if g.bool(nan_rate) {
                    f32::NAN
                } else {
                    g.f32_in(-2.0, 2.0)
                }
            })
            .collect();
        Self {
            rewards,
            keep_fraction: g.f32_in(0.05, 0.95),
        }
    }
}

impl Shrink for PromoteCase {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if !self.rewards.is_empty() {
            out.push(Self {
                rewards: Vec::new(),
                ..self.clone()
            });
            out.push(Self {
                rewards: self.rewards[..self.rewards.len() / 2].to_vec(),
                ..self.clone()
            });
            out.push(Self {
                rewards: self.rewards[1..].to_vec(),
                ..self.clone()
            });
        }
        if self.rewards.iter().any(|r| r.is_nan()) {
            out.push(Self {
                rewards: self
                    .rewards
                    .iter()
                    .copied()
                    .filter(|r| !r.is_nan())
                    .collect(),
                ..self.clone()
            });
        }
        if self.keep_fraction != 0.5 {
            out.push(Self {
                keep_fraction: 0.5,
                ..self.clone()
            });
        }
        out
    }
}

#[test]
fn promotion_keeps_the_top_fraction_and_never_nan() {
    check(
        "promotion keeps the top fraction",
        config(),
        PromoteCase::generate,
        |case| {
            let promoted = promote(&case.rewards, case.keep_fraction);
            let finite: Vec<usize> = (0..case.rewards.len())
                .filter(|&i| !case.rewards[i].is_nan())
                .collect();

            // Exactly min(⌈k·keep⌉ clamped to [1,k], #non-NaN) survive.
            let expected =
                promotion_count(case.rewards.len(), case.keep_fraction).min(finite.len());
            prop_assert_eq!(promoted.len(), expected);

            // NaN rewards are never promoted, and indices are in range & unique.
            let mut seen = std::collections::HashSet::new();
            for &i in &promoted {
                prop_assert!(i < case.rewards.len(), "index {i} out of range");
                prop_assert!(!case.rewards[i].is_nan(), "promoted a NaN reward at {i}");
                prop_assert!(seen.insert(i), "index {i} promoted twice");
            }

            // Every promoted reward >= every excluded non-NaN reward (total_cmp).
            let excluded: Vec<usize> = finite
                .iter()
                .copied()
                .filter(|i| !seen.contains(i))
                .collect();
            for &p in &promoted {
                for &e in &excluded {
                    prop_assert!(
                        case.rewards[p].total_cmp(&case.rewards[e]) != std::cmp::Ordering::Less,
                        "promoted rewards[{p}]={} < excluded rewards[{e}]={}",
                        case.rewards[p],
                        case.rewards[e]
                    );
                }
            }

            // Promoted list is ordered best-first.
            prop_assert!(
                promoted
                    .windows(2)
                    .all(|w| case.rewards[w[0]].total_cmp(&case.rewards[w[1]])
                        != std::cmp::Ordering::Less),
                "promotion order is not best-first: {promoted:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn promotion_count_is_clamped_to_valid_bounds() {
    check(
        "promotion count stays in [1, k]",
        config(),
        PromoteCase::generate,
        |case| {
            let k = case.rewards.len();
            let count = promotion_count(k, case.keep_fraction);
            if k == 0 {
                prop_assert_eq!(count, 0);
            } else {
                prop_assert!((1..=k).contains(&count), "count {count} outside [1, {k}]");
            }
            Ok(())
        },
    );
}

// Degenerate inputs exercised with fixed values, so they get explicit
// coverage in addition to whatever the generators happen to draw.

#[test]
fn degenerate_inputs_do_not_panic() {
    // A single candidate always survives promotion regardless of fraction.
    assert_eq!(promote(&[0.25], 0.01), vec![0]);
    assert_eq!(promotion_count(1, 0.01), 1);

    // Empty and all-NaN reward vectors promote nothing.
    assert!(promote(&[], 0.5).is_empty());
    assert!(promote(&[f32::NAN, f32::NAN], 0.5).is_empty());
}
