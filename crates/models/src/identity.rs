//! Content-addressed model identity: stable per-model ids, the ordered
//! [`PoolManifest`], and the pool-relation classifier that tells a pool
//! *extension* apart from any other pool *change*.
//!
//! Muffin unites *off-the-shelf* models, and off-the-shelf pools evolve:
//! new backbones arrive, stale ones retire. Search artifacts (checkpoints,
//! eval caches) serve only the pool they were written for and reject any
//! edited pool with a message that names the models involved. The unit of
//! identity is the [`fnv1a64`] hash of a model's own serialised bytes —
//! two models are the same exactly when they would behave identically,
//! regardless of where they sit in the pool.

use crate::{FrozenModel, ModelPool};

/// The 64-bit FNV-1a hash: the repository's canonical content hash, used
/// for per-model identity here and for pool/data fingerprints in
/// `muffin-core`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Renders a model id the way every operator-facing message spells it:
/// sixteen lowercase hex digits.
pub fn format_model_id(id: u64) -> String {
    format!("{id:016x}")
}

/// One manifest entry: a model's name and its content id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIdentity {
    /// The model's human-facing name (architecture name).
    pub name: String,
    /// [`fnv1a64`] over the model's serialised JSON bytes.
    pub id: u64,
}

muffin_json::impl_json!(struct ModelIdentity { name, id });

impl std::fmt::Display for ModelIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (id {})", self.name, format_model_id(self.id))
    }
}

/// The ordered list of model identities in a pool.
///
/// The manifest is what search artifacts record about the pool they were
/// built against: enough to recognise the same pool later, to detect a
/// pure extension, and to name exactly which models differ otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolManifest {
    entries: Vec<ModelIdentity>,
}

muffin_json::impl_json!(struct PoolManifest { entries });

impl PoolManifest {
    /// Builds a manifest from explicit entries (tests, tooling).
    pub fn new(entries: Vec<ModelIdentity>) -> Self {
        Self { entries }
    }

    /// The ordered entries.
    pub fn entries(&self) -> &[ModelIdentity] {
        &self.entries
    }

    /// Number of models recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the manifest records no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at pool index `index`, if any.
    pub fn get(&self, index: usize) -> Option<&ModelIdentity> {
        self.entries.get(index)
    }

    /// Pool index of the model with content id `id`, if present.
    pub fn index_of_id(&self, id: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }

    /// The entry with name `name`, if present.
    pub fn by_name(&self, name: &str) -> Option<&ModelIdentity> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Classifies how this (older) manifest relates to `new`.
    pub fn relation_to(&self, new: &Self) -> PoolRelation {
        if self.entries == new.entries {
            return PoolRelation::Identical;
        }
        if new.entries.len() > self.entries.len()
            && new.entries[..self.entries.len()] == self.entries[..]
        {
            return PoolRelation::Grew {
                added: new.entries[self.entries.len()..].to_vec(),
            };
        }
        let mutated: Vec<ModelIdentity> = self
            .entries
            .iter()
            .filter(|old| new.by_name(&old.name).is_some_and(|n| n.id != old.id))
            .cloned()
            .collect();
        let removed: Vec<ModelIdentity> = self
            .entries
            .iter()
            .filter(|old| new.by_name(&old.name).is_none())
            .cloned()
            .collect();
        let added: Vec<ModelIdentity> = new
            .entries
            .iter()
            .filter(|n| self.by_name(&n.name).is_none())
            .cloned()
            .collect();
        PoolRelation::Changed {
            added,
            removed,
            mutated,
        }
    }
}

/// How a newer pool relates to the one a search artifact was built
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolRelation {
    /// Same models, same ids, same order.
    Identical,
    /// The old pool is a strict prefix of the new one: every recorded
    /// model is still at its old index and `added` models were appended.
    /// This is the shape `muffin pool add` produces. Neither a checkpoint
    /// nor an eval cache carries across it; the rejection names `added`.
    Grew {
        /// The appended models, in pool order.
        added: Vec<ModelIdentity>,
    },
    /// Anything else: models were removed, retrained in place (same name,
    /// different id), inserted mid-pool, or reordered. Artifacts keyed by
    /// pool index are invalid against such a pool.
    Changed {
        /// Models present only in the new pool (by name).
        added: Vec<ModelIdentity>,
        /// Models present only in the old pool (by name).
        removed: Vec<ModelIdentity>,
        /// Models whose name survived but whose content id changed
        /// (reported with their **old** identity).
        mutated: Vec<ModelIdentity>,
    },
}

impl PoolRelation {
    /// A one-line operator-facing description of the relation, naming the
    /// models involved by name and id.
    pub fn describe(&self) -> String {
        fn list(entries: &[ModelIdentity]) -> String {
            entries
                .iter()
                .map(ModelIdentity::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        }
        match self {
            Self::Identical => "model pool is identical".to_string(),
            Self::Grew { added } => format!("model pool grew: added {}", list(added)),
            Self::Changed {
                added,
                removed,
                mutated,
            } => {
                let mut parts = Vec::new();
                if !added.is_empty() {
                    parts.push(format!("added {}", list(added)));
                }
                if !removed.is_empty() {
                    parts.push(format!("removed {}", list(removed)));
                }
                if !mutated.is_empty() {
                    parts.push(format!("mutated {}", list(mutated)));
                }
                if parts.is_empty() {
                    parts.push("models reordered or moved".to_string());
                }
                format!("model pool changed: {}", parts.join("; "))
            }
        }
    }
}

impl FrozenModel {
    /// The model's stable content id: [`fnv1a64`] over its own serialised
    /// JSON bytes. Independent of pool position; changes exactly when the
    /// model's behaviour-bearing bytes change.
    pub fn content_id(&self) -> u64 {
        fnv1a64(muffin_json::to_string(self).as_bytes())
    }

    /// The model's [`ModelIdentity`] (name + content id).
    pub fn identity(&self) -> ModelIdentity {
        ModelIdentity {
            name: self.name().to_string(),
            id: self.content_id(),
        }
    }
}

impl ModelPool {
    /// The pool's ordered [`PoolManifest`].
    pub fn manifest(&self) -> PoolManifest {
        PoolManifest {
            entries: self.iter().map(FrozenModel::identity).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn entry(name: &str, id: u64) -> ModelIdentity {
        ModelIdentity {
            name: name.to_string(),
            id,
        }
    }

    #[test]
    fn relation_classifies_identical_grown_and_changed_pools() {
        let old = PoolManifest::new(vec![entry("a", 1), entry("b", 2)]);
        assert_eq!(old.relation_to(&old), PoolRelation::Identical);

        let grown = PoolManifest::new(vec![entry("a", 1), entry("b", 2), entry("c", 3)]);
        assert_eq!(
            old.relation_to(&grown),
            PoolRelation::Grew {
                added: vec![entry("c", 3)]
            }
        );

        // Same models, swapped order: not a safe extension.
        let reordered = PoolManifest::new(vec![entry("b", 2), entry("a", 1)]);
        match old.relation_to(&reordered) {
            PoolRelation::Changed {
                added,
                removed,
                mutated,
            } => {
                assert!(added.is_empty() && removed.is_empty() && mutated.is_empty());
            }
            other => panic!("reorder must be Changed, got {other:?}"),
        }

        // Removal, retrain-in-place and addition are all named.
        let edited = PoolManifest::new(vec![entry("a", 9), entry("d", 4)]);
        let relation = old.relation_to(&edited);
        assert_eq!(
            relation,
            PoolRelation::Changed {
                added: vec![entry("d", 4)],
                removed: vec![entry("b", 2)],
                mutated: vec![entry("a", 1)],
            }
        );
        let msg = relation.describe();
        assert!(msg.contains("added d (id 0000000000000004)"), "{msg}");
        assert!(msg.contains("removed b (id 0000000000000002)"), "{msg}");
        assert!(msg.contains("mutated a (id 0000000000000001)"), "{msg}");
    }

    #[test]
    fn an_insertion_mid_pool_is_a_change_not_growth() {
        let old = PoolManifest::new(vec![entry("a", 1), entry("b", 2)]);
        let inserted = PoolManifest::new(vec![entry("a", 1), entry("c", 3), entry("b", 2)]);
        match old.relation_to(&inserted) {
            PoolRelation::Changed { added, .. } => assert_eq!(added, vec![entry("c", 3)]),
            other => panic!("mid-pool insertion must be Changed, got {other:?}"),
        }
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let manifest = PoolManifest::new(vec![entry("a", u64::MAX), entry("b", 0)]);
        let json = muffin_json::to_string(&manifest);
        let back: PoolManifest = muffin_json::from_str(&json).expect("parse");
        assert_eq!(manifest, back);
    }
}
