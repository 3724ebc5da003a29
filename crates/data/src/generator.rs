use crate::{AttributeSchema, Dataset, SensitiveAttribute};
use muffin_tensor::{Matrix, Rng64};

/// One group of a synthetic sensitive attribute.
///
/// A group's *disadvantage* is produced by three mechanisms mirroring why
/// real unprivileged groups lose accuracy:
///
/// * `share` — population share; rare groups are under-represented in
///   training exactly like the paper's minority age/site groups,
/// * `angle_deg` — rotation of the class-signal subspace for this group's
///   samples; a model fit to the majority misreads rotated samples, and
///   because attributes rotate **overlapping planes**, re-fitting one
///   group's rotation drags accuracy on another attribute down (the
///   paper's seesaw),
/// * `noise_mult` — extra observation noise (e.g. poorly lit lesion photos).
///
/// # Example
///
/// ```
/// use muffin_data::GroupSpec;
///
/// let g = GroupSpec::new("oral/genital", 0.06).with_angle(80.0).with_noise_mult(1.9);
/// assert_eq!((g.angle_deg(), g.noise_mult()), (80.0, 1.9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    name: String,
    share: f32,
    angle_deg: f32,
    noise_mult: f32,
}

muffin_json::impl_json!(struct GroupSpec { name, share, angle_deg, noise_mult });

impl GroupSpec {
    /// Creates a privileged group with the given population share.
    ///
    /// # Panics
    ///
    /// Panics if `share` is not positive.
    pub fn new(name: impl Into<String>, share: f32) -> Self {
        assert!(share > 0.0, "group share must be positive");
        Self { name: name.into(), share, angle_deg: 0.0, noise_mult: 1.0 }
    }

    /// Sets the class-signal rotation angle (degrees) for this group.
    pub fn with_angle(mut self, angle_deg: f32) -> Self {
        self.angle_deg = angle_deg;
        self
    }

    /// Sets the observation-noise multiplier for this group.
    ///
    /// # Panics
    ///
    /// Panics if `noise_mult` is not positive.
    pub fn with_noise_mult(mut self, noise_mult: f32) -> Self {
        assert!(noise_mult > 0.0, "noise multiplier must be positive");
        self.noise_mult = noise_mult;
        self
    }

    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Population share (unnormalised weight).
    pub fn share(&self) -> f32 {
        self.share
    }

    /// Rotation angle in degrees.
    pub fn angle_deg(&self) -> f32 {
        self.angle_deg
    }

    /// Observation-noise multiplier.
    pub fn noise_mult(&self) -> f32 {
        self.noise_mult
    }
}

/// A synthetic sensitive attribute: its groups plus the coordinate planes
/// its rotations act on.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeSpec {
    name: String,
    groups: Vec<GroupSpec>,
    planes: Vec<(usize, usize)>,
}

muffin_json::impl_json!(struct AttributeSpec { name, groups, planes });

impl AttributeSpec {
    /// Creates an attribute from its groups and rotation planes.
    ///
    /// Planes are `(i, j)` coordinate pairs; a group with angle `θ` has its
    /// class signal rotated by `θ` in every listed plane. Attributes that
    /// share a coordinate are *entangled*.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or a plane is degenerate (`i == j`).
    pub fn new(name: impl Into<String>, groups: Vec<GroupSpec>, planes: Vec<(usize, usize)>) -> Self {
        assert!(!groups.is_empty(), "attribute needs at least one group");
        assert!(planes.iter().all(|&(i, j)| i != j), "rotation plane must use two distinct axes");
        Self { name: name.into(), groups, planes }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Group specifications.
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Rotation planes.
    pub fn planes(&self) -> &[(usize, usize)] {
        &self.planes
    }

    fn to_schema_attribute(&self) -> SensitiveAttribute {
        let names: Vec<&str> = self.groups.iter().map(GroupSpec::name).collect();
        SensitiveAttribute::new(self.name.clone(), &names)
    }
}

/// Extra disadvantage applied to **one joint cell** of two attributes.
///
/// The marginal [`GroupSpec`] rotations act per attribute; a cell effect
/// acts only on samples that fall in a specific *intersection* (e.g. the
/// `old × female` cell), so a dataset can look fair under every marginal
/// attribute while one joint cell is systematically misread — the hidden
/// intersectional disadvantage MIFair and Chen & Sarro measure.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEffect {
    group_a: String,
    group_b: String,
    angle_deg: f32,
    noise_mult: f32,
}

muffin_json::impl_json!(struct CellEffect { group_a, group_b, angle_deg, noise_mult });

impl CellEffect {
    /// Creates a no-op effect targeting the `(group_a, group_b)` cell.
    ///
    /// Group names refer to the parent [`InteractionSpec`]'s two attributes.
    pub fn new(group_a: impl Into<String>, group_b: impl Into<String>) -> Self {
        Self { group_a: group_a.into(), group_b: group_b.into(), angle_deg: 0.0, noise_mult: 1.0 }
    }

    /// Sets the extra class-signal rotation (degrees) for this cell.
    pub fn with_angle(mut self, angle_deg: f32) -> Self {
        self.angle_deg = angle_deg;
        self
    }

    /// Sets the extra observation-noise multiplier for this cell.
    ///
    /// # Panics
    ///
    /// Panics if `noise_mult` is not positive.
    pub fn with_noise_mult(mut self, noise_mult: f32) -> Self {
        assert!(noise_mult > 0.0, "noise multiplier must be positive");
        self.noise_mult = noise_mult;
        self
    }

    /// Name of the targeted group in the interaction's first attribute.
    pub fn group_a(&self) -> &str {
        &self.group_a
    }

    /// Name of the targeted group in the interaction's second attribute.
    pub fn group_b(&self) -> &str {
        &self.group_b
    }

    /// Extra rotation angle in degrees.
    pub fn angle_deg(&self) -> f32 {
        self.angle_deg
    }

    /// Extra observation-noise multiplier.
    pub fn noise_mult(&self) -> f32 {
        self.noise_mult
    }
}

/// Intersectional disadvantage between two attributes: a set of
/// [`CellEffect`]s plus the coordinate planes they rotate.
///
/// Effects are applied **after** all marginal group rotations and consume
/// no randomness, so a config with an empty `interactions` list generates
/// byte-identical datasets to one predating the field.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionSpec {
    attr_a: String,
    attr_b: String,
    planes: Vec<(usize, usize)>,
    cells: Vec<CellEffect>,
}

muffin_json::impl_json!(struct InteractionSpec { attr_a, attr_b, planes, cells });

impl InteractionSpec {
    /// Creates an interaction between two named attributes rotating the
    /// given planes.
    ///
    /// # Panics
    ///
    /// Panics if the attribute names coincide or a plane is degenerate.
    pub fn new(
        attr_a: impl Into<String>,
        attr_b: impl Into<String>,
        planes: Vec<(usize, usize)>,
    ) -> Self {
        let (attr_a, attr_b) = (attr_a.into(), attr_b.into());
        assert!(attr_a != attr_b, "interaction needs two distinct attributes");
        assert!(planes.iter().all(|&(i, j)| i != j), "rotation plane must use two distinct axes");
        Self { attr_a, attr_b, planes, cells: Vec::new() }
    }

    /// Adds a cell effect.
    pub fn with_cell(mut self, cell: CellEffect) -> Self {
        self.cells.push(cell);
        self
    }

    /// First attribute name.
    pub fn attr_a(&self) -> &str {
        &self.attr_a
    }

    /// Second attribute name.
    pub fn attr_b(&self) -> &str {
        &self.attr_b
    }

    /// Rotation planes shared by every cell effect.
    pub fn planes(&self) -> &[(usize, usize)] {
        &self.planes
    }

    /// Cell effects.
    pub fn cells(&self) -> &[CellEffect] {
        &self.cells
    }
}

/// Full configuration of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of samples to generate.
    pub num_samples: usize,
    /// Feature dimensionality.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Scale of the class prototypes (higher → easier problem).
    pub class_sep: f32,
    /// Baseline observation-noise level.
    pub base_noise: f32,
    /// Per-coordinate energy decay: class signal and noise in coordinate
    /// `k` scale by `decay^k`, concentrating information in low
    /// coordinates so plane rotations matter.
    pub spectral_decay: f32,
    /// Sensitive attributes.
    pub attributes: Vec<AttributeSpec>,
    /// Probability that a sample's group draws reuse one shared
    /// disadvantage latent across attributes (creates the overlap between
    /// unprivileged groups that Algorithm 1 exploits).
    pub correlation: f32,
    /// Intersectional cell effects applied after the marginal rotations.
    pub interactions: Vec<InteractionSpec>,
}

muffin_json::impl_json!(struct GeneratorConfig {
    num_samples, feature_dim, num_classes, class_sep, base_noise, spectral_decay, attributes, correlation, interactions,
});

impl GeneratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_samples == 0 {
            return Err("num_samples must be positive".into());
        }
        if self.num_classes < 2 {
            return Err("need at least two classes".into());
        }
        if self.feature_dim == 0 {
            return Err("feature_dim must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.correlation) {
            return Err("correlation must lie in [0, 1]".into());
        }
        if self.attributes.is_empty() {
            return Err("need at least one sensitive attribute".into());
        }
        for attr in &self.attributes {
            for &(i, j) in attr.planes() {
                if i >= self.feature_dim || j >= self.feature_dim {
                    return Err(format!(
                        "attribute {} rotates plane ({i},{j}) outside feature_dim {}",
                        attr.name(),
                        self.feature_dim
                    ));
                }
            }
        }
        for inter in &self.interactions {
            let label = format!("interaction {}×{}", inter.attr_a(), inter.attr_b());
            let attr_of = |name: &str| self.attributes.iter().find(|a| a.name() == name);
            let Some(a) = attr_of(inter.attr_a()) else {
                return Err(format!("{label} names unknown attribute {}", inter.attr_a()));
            };
            let Some(b) = attr_of(inter.attr_b()) else {
                return Err(format!("{label} names unknown attribute {}", inter.attr_b()));
            };
            for &(i, j) in inter.planes() {
                if i >= self.feature_dim || j >= self.feature_dim {
                    return Err(format!(
                        "{label} rotates plane ({i},{j}) outside feature_dim {}",
                        self.feature_dim
                    ));
                }
            }
            for cell in inter.cells() {
                if !a.groups().iter().any(|g| g.name() == cell.group_a()) {
                    return Err(format!(
                        "{label} cell names unknown group {} of {}",
                        cell.group_a(),
                        inter.attr_a()
                    ));
                }
                if !b.groups().iter().any(|g| g.name() == cell.group_b()) {
                    return Err(format!(
                        "{label} cell names unknown group {} of {}",
                        cell.group_b(),
                        inter.attr_b()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Seeded synthetic dataset generator.
///
/// # Example
///
/// ```
/// use muffin_data::{AttributeSpec, DataGenerator, GeneratorConfig, GroupSpec};
/// use muffin_tensor::Rng64;
///
/// # fn main() -> Result<(), String> {
/// let config = GeneratorConfig {
///     num_samples: 200,
///     feature_dim: 8,
///     num_classes: 3,
///     class_sep: 2.0,
///     base_noise: 0.8,
///     spectral_decay: 0.85,
///     attributes: vec![AttributeSpec::new(
///         "age",
///         vec![GroupSpec::new("young", 0.7), GroupSpec::new("old", 0.3).with_angle(60.0)],
///         vec![(0, 1)],
///     )],
///     correlation: 0.0,
///     interactions: vec![],
/// };
/// let dataset = DataGenerator::new(config)?.generate(&mut Rng64::seed(1));
/// assert_eq!(dataset.len(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DataGenerator {
    config: GeneratorConfig,
}

impl DataGenerator {
    /// Creates a generator after validating `config`.
    ///
    /// # Errors
    ///
    /// Returns the validation message if the configuration is inconsistent.
    pub fn new(config: GeneratorConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The schema the generated datasets carry.
    pub fn schema(&self) -> AttributeSchema {
        AttributeSchema::new(
            self.config.attributes.iter().map(AttributeSpec::to_schema_attribute).collect(),
        )
    }

    /// Generates a dataset.
    ///
    /// Identical `(config, seed)` pairs produce identical datasets.
    pub fn generate(&self, rng: &mut Rng64) -> Dataset {
        let cfg = &self.config;
        let n = cfg.num_samples;
        let d = cfg.feature_dim;

        // Spectral envelope concentrating signal (and noise) in low coords.
        let envelope: Vec<f32> = (0..d).map(|k| cfg.spectral_decay.powi(k as i32)).collect();

        // Class prototypes: random directions under the envelope, scaled.
        let mut prototypes = Vec::with_capacity(cfg.num_classes);
        for _ in 0..cfg.num_classes {
            let mut proto: Vec<f32> = (0..d).map(|k| rng.normal() * envelope[k]).collect();
            let norm: f32 = proto.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            for x in &mut proto {
                *x = *x / norm * cfg.class_sep;
            }
            prototypes.push(proto);
        }

        let shares: Vec<Vec<f32>> = cfg
            .attributes
            .iter()
            .map(|a| a.groups().iter().map(GroupSpec::share).collect())
            .collect();

        // Resolve interaction names to indices once; validation guarantees
        // every lookup succeeds. Applying these after the marginal loop
        // consumes no randomness, so configs without interactions generate
        // byte-identical datasets to pre-interaction builds.
        struct ResolvedCell {
            group_a: usize,
            group_b: usize,
            angle_rad: f32,
            noise_mult: f32,
        }
        struct ResolvedInteraction<'a> {
            attr_a: usize,
            attr_b: usize,
            planes: &'a [(usize, usize)],
            cells: Vec<ResolvedCell>,
        }
        let attr_index = |name: &str| {
            cfg.attributes.iter().position(|a| a.name() == name).expect("validated attribute")
        };
        let group_index = |attr: usize, name: &str| {
            cfg.attributes[attr]
                .groups()
                .iter()
                .position(|g| g.name() == name)
                .expect("validated group")
        };
        let resolved: Vec<ResolvedInteraction> = cfg
            .interactions
            .iter()
            .map(|inter| {
                let (attr_a, attr_b) = (attr_index(inter.attr_a()), attr_index(inter.attr_b()));
                ResolvedInteraction {
                    attr_a,
                    attr_b,
                    planes: inter.planes(),
                    cells: inter
                        .cells()
                        .iter()
                        .map(|c| ResolvedCell {
                            group_a: group_index(attr_a, c.group_a()),
                            group_b: group_index(attr_b, c.group_b()),
                            angle_rad: c.angle_deg().to_radians(),
                            noise_mult: c.noise_mult(),
                        })
                        .collect(),
                }
            })
            .collect();

        let mut features = Matrix::zeros(n, d);
        let mut labels = Vec::with_capacity(n);
        let mut group_ids: Vec<Vec<u16>> = vec![Vec::with_capacity(n); cfg.attributes.len()];

        for s in 0..n {
            // Shared disadvantage latent: correlated group membership.
            let latent = rng.uniform(0.0, 1.0);
            let mut sample_groups = Vec::with_capacity(cfg.attributes.len());
            for (a, attr_shares) in shares.iter().enumerate() {
                let draw =
                    if rng.chance(cfg.correlation) { latent } else { rng.uniform(0.0, 1.0) };
                let g = quantile_group(attr_shares, draw);
                group_ids[a].push(g as u16);
                sample_groups.push(g);
            }

            let class = rng.below(cfg.num_classes);
            labels.push(class);

            // Start from the class prototype, rotate per attribute/group.
            let mut signal = prototypes[class].clone();
            let mut noise_mult = 1.0f32;
            for (attr, &g) in cfg.attributes.iter().zip(&sample_groups) {
                let spec = &attr.groups()[g];
                noise_mult *= spec.noise_mult();
                let angle = spec.angle_deg().to_radians();
                if angle != 0.0 {
                    let (sin, cos) = angle.sin_cos();
                    for &(i, j) in attr.planes() {
                        let (xi, xj) = (signal[i], signal[j]);
                        signal[i] = xi * cos - xj * sin;
                        signal[j] = xi * sin + xj * cos;
                    }
                }
            }

            // Intersectional cell effects: only samples landing in a
            // targeted joint cell get the extra rotation/noise.
            for inter in &resolved {
                let (ga, gb) = (sample_groups[inter.attr_a], sample_groups[inter.attr_b]);
                for cell in &inter.cells {
                    if cell.group_a != ga || cell.group_b != gb {
                        continue;
                    }
                    noise_mult *= cell.noise_mult;
                    if cell.angle_rad != 0.0 {
                        let (sin, cos) = cell.angle_rad.sin_cos();
                        for &(i, j) in inter.planes {
                            let (xi, xj) = (signal[i], signal[j]);
                            signal[i] = xi * cos - xj * sin;
                            signal[j] = xi * sin + xj * cos;
                        }
                    }
                }
            }

            let row = features.row_mut(s);
            for k in 0..d {
                row[k] = signal[k] + rng.normal() * cfg.base_noise * noise_mult * envelope[k];
            }
        }

        Dataset::new(features, labels, cfg.num_classes, self.schema(), group_ids)
    }
}

/// Maps a `[0, 1)` draw onto a group index through the cumulative shares.
fn quantile_group(shares: &[f32], draw: f32) -> usize {
    let total: f32 = shares.iter().sum();
    let mut target = draw * total;
    for (i, &s) in shares.iter().enumerate() {
        if target < s {
            return i;
        }
        target -= s;
    }
    shares.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GroupSpec {
        /// Whether the generator *designed* this group to be disadvantaged.
        ///
        /// The Muffin pipeline itself determines privilege empirically
        /// from model accuracy; this designed flag exists for tests.
        fn is_disadvantaged(&self) -> bool {
            self.angle_deg.abs() > 15.0 || self.noise_mult > 1.25
        }
    }

    impl AttributeSpec {
        /// Indices of groups designed to be disadvantaged.
        pub(crate) fn designed_unprivileged(&self) -> Vec<u16> {
            self.groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.is_disadvantaged())
                .map(|(i, _)| i as u16)
                .collect()
        }
    }

    fn two_attr_config() -> GeneratorConfig {
        GeneratorConfig {
            num_samples: 2000,
            feature_dim: 10,
            num_classes: 4,
            class_sep: 2.0,
            base_noise: 0.7,
            spectral_decay: 0.85,
            attributes: vec![
                AttributeSpec::new(
                    "age",
                    vec![
                        GroupSpec::new("young", 0.6),
                        GroupSpec::new("old", 0.4).with_angle(60.0).with_noise_mult(1.5),
                    ],
                    vec![(0, 1)],
                ),
                AttributeSpec::new(
                    "site",
                    vec![
                        GroupSpec::new("torso", 0.7),
                        GroupSpec::new("oral", 0.3).with_angle(70.0),
                    ],
                    vec![(1, 2)],
                ),
            ],
            correlation: 0.5,
            interactions: vec![],
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = DataGenerator::new(two_attr_config()).expect("valid");
        let a = gen.generate(&mut Rng64::seed(9));
        let b = gen.generate(&mut Rng64::seed(9));
        assert_eq!(a.features(), b.features());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn group_shares_are_respected() {
        let gen = DataGenerator::new(two_attr_config()).expect("valid");
        let ds = gen.generate(&mut Rng64::seed(10));
        let age = ds.schema().by_name("age").expect("age");
        let old = ds.group_indices(age, crate::GroupId::new(1)).len() as f32 / ds.len() as f32;
        assert!((old - 0.4).abs() < 0.05, "old share {old}");
    }

    #[test]
    fn correlation_creates_group_overlap() {
        let mut cfg = two_attr_config();
        cfg.correlation = 1.0;
        let gen = DataGenerator::new(cfg).expect("valid");
        let ds = gen.generate(&mut Rng64::seed(11));
        let age = ds.schema().by_name("age").expect("age");
        let site = ds.schema().by_name("site").expect("site");
        // With full correlation, every "oral" sample (top 30% latent) is
        // also "old" (top 40% latent).
        let oral: Vec<usize> = ds.group_indices(site, crate::GroupId::new(1));
        let also_old =
            oral.iter().filter(|&&i| ds.groups(age)[i] == 1).count() as f32 / oral.len() as f32;
        assert!(also_old > 0.95, "overlap {also_old}");
    }

    #[test]
    fn zero_correlation_gives_independent_groups() {
        let mut cfg = two_attr_config();
        cfg.correlation = 0.0;
        let gen = DataGenerator::new(cfg).expect("valid");
        let ds = gen.generate(&mut Rng64::seed(12));
        let age = ds.schema().by_name("age").expect("age");
        let site = ds.schema().by_name("site").expect("site");
        let oral: Vec<usize> = ds.group_indices(site, crate::GroupId::new(1));
        let also_old =
            oral.iter().filter(|&&i| ds.groups(age)[i] == 1).count() as f32 / oral.len() as f32;
        // Independent: P(old | oral) ≈ P(old) = 0.4.
        assert!((also_old - 0.4).abs() < 0.08, "overlap {also_old}");
    }

    #[test]
    fn rotated_groups_have_shifted_signal() {
        // With no noise, group-1 samples of a class should differ from
        // group-0 samples of the same class in the rotated plane.
        let mut cfg = two_attr_config();
        cfg.base_noise = 1e-6;
        cfg.num_samples = 400;
        let gen = DataGenerator::new(cfg).expect("valid");
        let ds = gen.generate(&mut Rng64::seed(13));
        let age = ds.schema().by_name("age").expect("age");
        let young: Vec<usize> = ds
            .group_indices(age, crate::GroupId::new(0))
            .into_iter()
            .filter(|&i| ds.labels()[i] == 0 && ds.groups(crate::AttributeId::new(1))[i] == 0)
            .collect();
        let old: Vec<usize> = ds
            .group_indices(age, crate::GroupId::new(1))
            .into_iter()
            .filter(|&i| ds.labels()[i] == 0 && ds.groups(crate::AttributeId::new(1))[i] == 0)
            .collect();
        if let (Some(&a), Some(&b)) = (young.first(), old.first()) {
            let fa = ds.features().row(a);
            let fb = ds.features().row(b);
            let dist: f32 = fa.iter().zip(fb).map(|(x, y)| (x - y).powi(2)).sum();
            assert!(dist > 0.1, "rotation should separate groups, dist {dist}");
        } else {
            panic!("expected samples in both groups");
        }
    }

    #[test]
    fn validation_catches_bad_plane() {
        let mut cfg = two_attr_config();
        cfg.feature_dim = 2;
        assert!(GeneratorConfig::validate(&cfg).is_err());
    }

    #[test]
    fn validation_catches_bad_correlation() {
        let mut cfg = two_attr_config();
        cfg.correlation = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_single_class() {
        let mut cfg = two_attr_config();
        cfg.num_classes = 1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn quantile_group_maps_cumulatively() {
        let shares = [0.5, 0.3, 0.2];
        assert_eq!(quantile_group(&shares, 0.0), 0);
        assert_eq!(quantile_group(&shares, 0.49), 0);
        assert_eq!(quantile_group(&shares, 0.51), 1);
        assert_eq!(quantile_group(&shares, 0.99), 2);
    }

    #[test]
    fn designed_unprivileged_flags_rotated_groups() {
        let cfg = two_attr_config();
        assert_eq!(cfg.attributes[0].designed_unprivileged(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "distinct axes")]
    fn degenerate_plane_is_rejected() {
        AttributeSpec::new("bad", vec![GroupSpec::new("g", 1.0)], vec![(2, 2)]);
    }

    #[test]
    fn empty_interactions_keep_generation_byte_identical() {
        let gen_plain = DataGenerator::new(two_attr_config()).expect("valid");
        let mut cfg = two_attr_config();
        // An interaction whose cells never fire must not perturb anything
        // either — it consumes no randomness and rotates no sample.
        cfg.interactions = vec![InteractionSpec::new("age", "site", vec![(3, 4)])];
        let gen_inert = DataGenerator::new(cfg).expect("valid");
        let a = gen_plain.generate(&mut Rng64::seed(21));
        let b = gen_inert.generate(&mut Rng64::seed(21));
        assert_eq!(a.features(), b.features());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn cell_effect_shifts_only_the_targeted_cell() {
        let mut cfg = two_attr_config();
        cfg.base_noise = 1e-6;
        cfg.num_samples = 1200;
        let plain = DataGenerator::new(cfg.clone()).expect("valid").generate(&mut Rng64::seed(5));
        cfg.interactions = vec![InteractionSpec::new("age", "site", vec![(2, 3)])
            .with_cell(CellEffect::new("old", "oral").with_angle(90.0))];
        let shifted = DataGenerator::new(cfg).expect("valid").generate(&mut Rng64::seed(5));
        let age = plain.schema().by_name("age").expect("age");
        let site = plain.schema().by_name("site").expect("site");
        for s in 0..plain.len() {
            let in_cell = plain.groups(age)[s] == 1 && plain.groups(site)[s] == 1;
            let moved = plain
                .features()
                .row(s)
                .iter()
                .zip(shifted.features().row(s))
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max)
                > 1e-4;
            assert_eq!(moved, in_cell, "sample {s}: moved={moved} in_cell={in_cell}");
        }
    }

    #[test]
    fn interaction_validation_catches_unknown_attribute_and_group() {
        let mut cfg = two_attr_config();
        cfg.interactions = vec![InteractionSpec::new("age", "venue", vec![(0, 1)])];
        let err = cfg.validate().expect_err("unknown attribute");
        assert!(err.contains("unknown attribute venue"), "{err}");

        let mut cfg = two_attr_config();
        cfg.interactions = vec![InteractionSpec::new("age", "site", vec![(0, 1)])
            .with_cell(CellEffect::new("old", "plantar"))];
        let err = cfg.validate().expect_err("unknown group");
        assert!(err.contains("unknown group plantar"), "{err}");

        let mut cfg = two_attr_config();
        cfg.interactions = vec![InteractionSpec::new("age", "site", vec![(0, 99)])];
        let err = cfg.validate().expect_err("bad plane");
        assert!(err.contains("outside feature_dim"), "{err}");
    }

    #[test]
    #[should_panic(expected = "two distinct attributes")]
    fn self_interaction_is_rejected() {
        InteractionSpec::new("age", "age", vec![(0, 1)]);
    }
}
