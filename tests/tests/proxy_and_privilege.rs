//! Integration tests for privilege inference and the Algorithm-1 proxy
//! dataset on realistic generated data.

use muffin::{PrivilegeMap, ProxyDataset};
use muffin_data::IsicLike;
use muffin_integration_tests::small_fixture;
use muffin_tensor::Rng64;

#[test]
fn inference_matches_the_designed_disadvantage() {
    let (split, pool, _) = small_fixture(1000);
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let gender = split.train.schema().by_name("gender").expect("gender");
    let map = PrivilegeMap::infer(&pool, &split.val, &[age, site, gender], 0.02);

    // Designed: age groups 4,5; site groups 5..9 are disadvantaged.
    let found_age = map.unprivileged_groups(age);
    assert!(found_age.contains(&4) && found_age.contains(&5), "age: {found_age:?}");
    let found_site = map.unprivileged_groups(site);
    for g in [6u16, 7] {
        assert!(found_site.contains(&g), "site must flag group {g}: {found_site:?}");
    }
    // Gender was designed fair: at most one borderline group may appear.
    assert!(
        map.unprivileged_groups(gender).len() <= 1,
        "gender should be (nearly) fair: {:?}",
        map.unprivileged_groups(gender)
    );
}

#[test]
fn proxy_support_is_exactly_the_unprivileged_union() {
    let (split, pool, _) = small_fixture(1100);
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let map = PrivilegeMap::infer(&pool, &split.val, &[age, site], 0.02);
    let proxy = ProxyDataset::build(&split.train, &map).expect("proxy");
    let expected: Vec<usize> = (0..split.train.len())
        .filter(|&i| {
            [age, site]
                .iter()
                .any(|&a| map.is_unprivileged(a, split.train.groups(a)[i]))
        })
        .collect();
    assert_eq!(proxy.indices(), expected.as_slice());
}

#[test]
fn overlap_samples_receive_strictly_heavier_weights() {
    let ds = IsicLike::small().generate(&mut Rng64::seed(5));
    let age = ds.schema().by_name("age").expect("age");
    let site = ds.schema().by_name("site").expect("site");
    let mut map = PrivilegeMap::new();
    map.set(age, vec![4, 5]);
    map.set(site, vec![5, 6, 7, 8]);
    let proxy = ProxyDataset::build(&ds, &map).expect("proxy");

    let is_unpriv_age = |i: usize| [4, 5].contains(&ds.groups(age)[i]);
    let is_unpriv_site = |i: usize| ds.groups(site)[i] >= 5;
    let mut max_single = f32::MIN;
    let mut min_double = f32::MAX;
    let mut doubles = 0;
    for (&i, &w) in proxy.indices().iter().zip(proxy.weights()) {
        if is_unpriv_age(i) && is_unpriv_site(i) {
            min_double = min_double.min(w);
            doubles += 1;
        } else {
            max_single = max_single.max(w);
        }
    }
    assert!(doubles > 0, "correlation must create age∩site overlap");
    assert!(
        min_double > max_single,
        "doubly-unprivileged min {min_double} must exceed singly max {max_single}"
    );
}

#[test]
fn group_weights_are_at_least_one() {
    let (split, pool, _) = small_fixture(1200);
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let map = PrivilegeMap::infer(&pool, &split.val, &[age, site], 0.02);
    let proxy = ProxyDataset::build(&split.train, &map).expect("proxy");
    // Every member of an unprivileged group has image weight >= 1, so
    // every Algorithm-1 group weight (a mean of image weights) is >= 1.
    for &(_, _, w) in proxy.group_weights() {
        assert!((1.0..=2.0 + 1e-6).contains(&w), "group weight {w} outside [1, 2]");
    }
}

#[test]
fn uniform_proxy_matches_weighted_support_but_not_weights() {
    let (split, pool, _) = small_fixture(1300);
    let age = split.train.schema().by_name("age").expect("age");
    let site = split.train.schema().by_name("site").expect("site");
    let map = PrivilegeMap::infer(&pool, &split.val, &[age, site], 0.02);
    let weighted = ProxyDataset::build(&split.train, &map).expect("proxy");
    let uniform = weighted.with_uniform_weights();
    assert_eq!(weighted.indices(), uniform.indices());
    assert!(uniform.weights().iter().all(|&w| w == 1.0));
    let spread = weighted.weights().iter().copied().fold(f32::MIN, f32::max)
        - weighted.weights().iter().copied().fold(f32::MAX, f32::min);
    assert!(spread > 0.1, "Algorithm 1 weights must be non-uniform, spread {spread}");
}
