use std::fmt;

/// Index of a sensitive attribute within an [`AttributeSchema`].
///
/// # Example
///
/// ```
/// use muffin_data::AttributeId;
///
/// let id = AttributeId::new(1);
/// assert_eq!(id.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttributeId(usize);

muffin_json::impl_json!(newtype AttributeId);

impl AttributeId {
    /// Wraps a raw attribute index.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for AttributeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr#{}", self.0)
    }
}

/// Index of a group within one sensitive attribute.
///
/// Stored compactly as `u16`: the paper's attributes have at most nine
/// groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(u16);

muffin_json::impl_json!(newtype GroupId);

impl GroupId {
    /// Wraps a raw group index.
    pub fn new(index: u16) -> Self {
        Self(index)
    }

    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for GroupId {
    fn from(v: u16) -> Self {
        Self(v)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group#{}", self.0)
    }
}

/// A sensitive attribute (e.g. `age`, `site`, `gender`) and the names of
/// its groups.
///
/// # Example
///
/// ```
/// use muffin_data::SensitiveAttribute;
///
/// let attr = SensitiveAttribute::new("gender", &["male", "female"]);
/// assert_eq!(attr.num_groups(), 2);
/// assert_eq!(attr.group_name(muffin_data::GroupId::new(1)), Some("female"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SensitiveAttribute {
    name: String,
    groups: Vec<String>,
}

muffin_json::impl_json!(struct SensitiveAttribute { name, groups });

impl SensitiveAttribute {
    /// Creates an attribute from its name and group names.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(name: impl Into<String>, groups: &[&str]) -> Self {
        assert!(!groups.is_empty(), "an attribute needs at least one group");
        Self { name: name.into(), groups: groups.iter().map(|s| s.to_string()).collect() }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Name of one group, if in range.
    pub fn group_name(&self, group: GroupId) -> Option<&str> {
        self.groups.get(group.index()).map(String::as_str)
    }
}

/// The ordered set of sensitive attributes a dataset carries.
///
/// # Example
///
/// ```
/// use muffin_data::{AttributeSchema, SensitiveAttribute};
///
/// let schema = AttributeSchema::new(vec![
///     SensitiveAttribute::new("age", &["young", "old"]),
///     SensitiveAttribute::new("site", &["torso", "head"]),
/// ]);
/// assert_eq!(schema.len(), 2);
/// assert!(schema.by_name("site").is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeSchema {
    attributes: Vec<SensitiveAttribute>,
}

muffin_json::impl_json!(struct AttributeSchema { attributes });

impl AttributeSchema {
    /// Creates a schema from an ordered attribute list.
    pub fn new(attributes: Vec<SensitiveAttribute>) -> Self {
        Self { attributes }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The attribute at `id`, if in range.
    pub fn get(&self, id: AttributeId) -> Option<&SensitiveAttribute> {
        self.attributes.get(id.index())
    }

    /// Iterator over `(id, attribute)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttributeId, &SensitiveAttribute)> {
        self.attributes.iter().enumerate().map(|(i, a)| (AttributeId::new(i), a))
    }

    /// Looks up an attribute id by name.
    pub fn by_name(&self, name: &str) -> Option<AttributeId> {
        self.attributes.iter().position(|a| a.name() == name).map(AttributeId::new)
    }

    /// All attribute names in schema order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(SensitiveAttribute::name).collect()
    }

    /// Label of one attribute pair, e.g. `age×gender`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn pair_label(&self, a: AttributeId, b: AttributeId) -> String {
        format!("{}×{}", self.attributes[a.index()].name(), self.attributes[b.index()].name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> AttributeSchema {
        AttributeSchema::new(vec![
            SensitiveAttribute::new("age", &["0-35", "36-65", "66+"]),
            SensitiveAttribute::new("gender", &["male", "female"]),
        ])
    }

    #[test]
    fn group_lookup_round_trips() {
        let names = ["torso", "head", "oral"];
        let attr = SensitiveAttribute::new("site", &names);
        for (i, name) in names.into_iter().enumerate() {
            assert_eq!(attr.group_name(GroupId::new(i as u16)), Some(name));
        }
    }

    #[test]
    fn group_lookup_unknown_is_none() {
        let attr = SensitiveAttribute::new("site", &["torso"]);
        assert!(attr.group_name(GroupId::new(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn attribute_requires_groups() {
        SensitiveAttribute::new("empty", &[]);
    }

    #[test]
    fn schema_by_name_finds_attribute() {
        let s = schema();
        let id = s.by_name("gender").expect("exists");
        assert_eq!(s.get(id).map(|a| a.num_groups()), Some(2));
        assert!(s.by_name("missing").is_none());
    }

    #[test]
    fn schema_iteration_is_ordered() {
        let s = schema();
        let names: Vec<&str> = s.iter().map(|(_, a)| a.name()).collect();
        assert_eq!(names, vec!["age", "gender"]);
    }

    #[test]
    fn ids_display_readably() {
        assert_eq!(AttributeId::new(2).to_string(), "attr#2");
        assert_eq!(GroupId::new(3).to_string(), "group#3");
    }

    #[test]
    fn group_id_from_u16() {
        let g: GroupId = 4u16.into();
        assert_eq!(g.index(), 4);
    }

    #[test]
    fn pair_label_joins_attribute_names() {
        let s = schema();
        let (age, gender) = (AttributeId::new(0), AttributeId::new(1));
        assert_eq!(s.pair_label(age, gender), "age×gender");
    }
}
