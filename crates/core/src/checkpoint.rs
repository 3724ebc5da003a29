//! Durable persistence for the search loop: checkpoints and the
//! cross-run evaluation cache.
//!
//! The search (paper Sec. 3.2 ④) is the expensive phase of the pipeline —
//! every distinct candidate trains a muffin head from scratch. This module
//! makes that work durable in two layers:
//!
//! * [`SearchCheckpoint`] — a complete, versioned snapshot of a run in
//!   flight: RNG stream position, controller parameters + optimizer
//!   moments + EMA baseline, the episode history and the action-vector →
//!   [`EpisodeRecord`] evaluation cache. Written atomically (temp file +
//!   rename) at REINFORCE batch boundaries, so a killed run resumes
//!   **bit-identically** — the resumed [`SearchOutcome`] is byte-equal to
//!   an uninterrupted run at any worker count (enforced by the
//!   golden-snapshot suite).
//! * [`EvalCacheFile`] — just the evaluation cache, shared **across**
//!   runs of one recipe and seed: a repeated search skips already-trained
//!   candidates and reports each skip on the `search.cache_hit_disk`
//!   trace counter.
//!
//! Both artifacts carry a [`SearchFingerprint`] identifying the exact
//! run they belong to. Loading rejects loudly
//! ([`MuffinError::StaleArtifact`]) on any mismatch rather than silently
//! producing a drifted search, and a cache write never merges in records
//! of another run, so a cache changes wall-clock time, never the outcome.
//!
//! Both serve only the pool they were written for: after `muffin pool
//! add` each is rejected, naming the added models by id, and the operator
//! starts a new search with a fresh cache path. A cached record was
//! trained from its own run's head seed, which a search over the grown
//! pool would not draw, so serving it would change the outcome.
//!
//! [`SearchOutcome`]: crate::SearchOutcome

use crate::controller::ControllerState;
use crate::search::{EpisodeRecord, SearchConfig};
use crate::{MuffinError, SearchSpace};
use muffin_models::{PoolManifest, PoolRelation};
use std::path::Path;

/// Format version written into every checkpoint and eval-cache file.
/// Bumped whenever the serialised layout changes incompatibly; loading a
/// file with a different version is a [`MuffinError::StaleArtifact`].
/// Version 2 added [`SearchCheckpoint::exchanges_applied`] (always 0);
/// version 3 added the per-model [`PoolManifest`] to
/// [`SearchFingerprint`] for content-addressed pool lifecycle.
pub const CHECKPOINT_VERSION: u32 = 3;

/// The 64-bit FNV-1a hash, used to fingerprint the model pool and the
/// dataset split without embedding them in the checkpoint. Canonically
/// defined in `muffin-models` ([`muffin_models::fnv1a64`]), where it also
/// provides per-model content ids.
pub use muffin_models::fnv1a64;

/// Identity of a search run, for staleness detection.
///
/// Two runs share a fingerprint exactly when they are guaranteed to walk
/// the same search trajectory prefix: same caller-RNG entry state, same
/// configuration (modulo the episode budget — a longer run's trajectory
/// extends a shorter one's, so cached evaluations stay valid), same
/// decoded search space, and the same pool and dataset bytes.
#[derive(Debug, Clone)]
pub struct SearchFingerprint {
    /// The caller's [`Rng64`](muffin_tensor::Rng64) state on entry to the
    /// run, before the controller consumed anything.
    pub rng_state: [u64; 4],
    /// The search configuration with `episodes` normalised to zero.
    pub config: SearchConfig,
    /// The controller's decoded search space.
    pub space: SearchSpace,
    /// [`fnv1a64`] over the serialised model pool.
    pub pool_hash: u64,
    /// The pool's ordered per-model content ids, so a rejection names
    /// each model added, removed or mutated since the artifact was
    /// written.
    pub manifest: PoolManifest,
    /// [`fnv1a64`] over the serialised train/val/test split.
    pub data_hash: u64,
}

muffin_json::impl_json!(struct SearchFingerprint {
    rng_state, config, space, pool_hash, manifest, data_hash,
});

impl SearchFingerprint {
    /// Builds the fingerprint for a run. `config.episodes` is normalised
    /// to zero so artifacts stay valid across episode-budget changes.
    pub fn new(
        rng_state: [u64; 4],
        config: &SearchConfig,
        space: &SearchSpace,
        pool_json: &str,
        manifest: PoolManifest,
        split_json: &str,
    ) -> Self {
        let mut config = config.clone();
        config.episodes = 0;
        Self {
            rng_state,
            config,
            space: space.clone(),
            pool_hash: fnv1a64(pool_json.as_bytes()),
            manifest,
            data_hash: fnv1a64(split_json.as_bytes()),
        }
    }

    /// Names the first component differing from `other`, or `None` when
    /// the fingerprints match. Field-by-field so rejection messages say
    /// *what* went stale (reseeded run, edited config, retrained pool,
    /// regenerated data) instead of a bare "mismatch". Pool mismatches
    /// name the added/removed/mutated models by id when the manifests
    /// can tell (see [`PoolRelation::describe`]).
    pub fn mismatch(&self, other: &Self) -> Option<String> {
        if self.rng_state != other.rng_state {
            return Some("rng seed/state changed".to_string());
        }
        self.mismatch_ignoring_rng(other)
    }

    /// Like [`Self::mismatch`] but ignores the caller-RNG entry state:
    /// the rule [`EvalCacheFile::load_warm`] applies when `shared` is set.
    ///
    /// A record written under another seed is a valid evaluation of its
    /// candidate, but with that seed's head seed, so a run that consumes
    /// it no longer reproduces its own cold outcome. Every search and
    /// every cache write uses the strict [`Self::mismatch`].
    pub fn mismatch_ignoring_rng(&self, other: &Self) -> Option<String> {
        if muffin_json::to_string(&self.config) != muffin_json::to_string(&other.config) {
            return Some("search configuration changed".to_string());
        }
        // Pool before space: a grown pool also grows the space's pool
        // size, and the manifest diff is the message operators need.
        if self.pool_hash != other.pool_hash || self.manifest != other.manifest {
            return Some(self.describe_pool_mismatch(other));
        }
        if muffin_json::to_string(&self.space) != muffin_json::to_string(&other.space) {
            return Some("search space changed".to_string());
        }
        if self.data_hash != other.data_hash {
            return Some("dataset split changed".to_string());
        }
        None
    }

    /// Operator-facing description of a pool mismatch between an artifact
    /// fingerprint (`other`, read from disk) and the current run
    /// (`self`), naming models by id wherever the manifests can tell.
    fn describe_pool_mismatch(&self, other: &Self) -> String {
        match other.manifest.relation_to(&self.manifest) {
            // Manifests agree but pool_hash differs: pre-manifest callers
            // (unit fixtures) or byte-level drift outside any model.
            PoolRelation::Identical => "model pool changed".to_string(),
            relation => relation.describe(),
        }
    }
}

/// A complete snapshot of a search run at a REINFORCE batch boundary.
///
/// Everything the loop in
/// [`MuffinSearch::run_persistent`](crate::MuffinSearch::run_persistent)
/// carries across batches is here; restoring it and continuing produces
/// the byte-identical [`SearchOutcome`](crate::SearchOutcome) an
/// uninterrupted run would have returned.
#[derive(Debug, Clone)]
pub struct SearchCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Identity of the run this snapshot belongs to.
    pub fingerprint: SearchFingerprint,
    /// The episode budget of the interrupted run.
    pub target_episodes: u32,
    /// Completed episodes (always a batch boundary, except in the final
    /// checkpoint of a finished run whose last batch was partial).
    pub episode: u32,
    /// The caller RNG's state at the boundary.
    pub rng_state: [u64; 4],
    /// Seed of the [`SplitMix64`](muffin_tensor::SplitMix64) stream the
    /// per-episode head seeds are derived from (one draw off the caller
    /// RNG at run start).
    pub seed_stream_seed: u64,
    /// The controller's learnable state.
    pub controller: ControllerState,
    /// One record per completed episode, in order.
    pub history: Vec<EpisodeRecord>,
    /// The evaluation cache, sorted by action vector for a deterministic
    /// serialisation.
    pub cache: Vec<EpisodeRecord>,
    /// Always written as 0. Kept so that the version-3 layout and the
    /// struct literal in `e2e-bench`'s checkpoint replica stay valid.
    pub exchanges_applied: u32,
}

muffin_json::impl_json!(struct SearchCheckpoint {
    version, fingerprint, target_episodes, episode, rng_state, seed_stream_seed,
    controller, history, cache, exchanges_applied,
});

impl SearchCheckpoint {
    /// Writes the checkpoint atomically: the JSON goes to a `.tmp`
    /// sibling first and is renamed over `path`, so a crash mid-write
    /// leaves the previous checkpoint intact rather than a truncated one.
    ///
    /// # Errors
    ///
    /// [`MuffinError::Io`] naming the path on any filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MuffinError> {
        write_atomic(path.as_ref(), &muffin_json::to_string(self))
    }

    /// Loads and validates a checkpoint written by
    /// [`SearchCheckpoint::save`].
    ///
    /// # Errors
    ///
    /// * [`MuffinError::Io`] if the file cannot be read;
    /// * [`MuffinError::StaleArtifact`] if it does not parse, its version
    ///   is unsupported, its episode count disagrees with its history, or
    ///   its fingerprint names a different run than `expected`. A pool
    ///   that grew since the checkpoint is such a difference; the message
    ///   names each added model by id.
    pub fn load(path: impl AsRef<Path>, expected: &SearchFingerprint) -> Result<Self, MuffinError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            MuffinError::Io(format!("cannot read checkpoint {}: {e}", path.display()))
        })?;
        let ckpt: Self = muffin_json::from_str(&text).map_err(|e| {
            MuffinError::StaleArtifact(format!(
                "checkpoint {} is corrupt or truncated: {e}",
                path.display()
            ))
        })?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} has version {}, this build reads version {CHECKPOINT_VERSION}",
                path.display(),
                ckpt.version
            )));
        }
        if ckpt.episode as usize != ckpt.history.len() {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} records {} episodes but holds {} history entries",
                path.display(),
                ckpt.episode,
                ckpt.history.len()
            )));
        }
        if let Some(what) = expected.mismatch(&ckpt.fingerprint) {
            return Err(MuffinError::StaleArtifact(format!(
                "checkpoint {} belongs to a different run: {what}",
                path.display()
            )));
        }
        Ok(ckpt)
    }
}

/// The cross-run evaluation cache: trained-candidate metrics keyed by
/// action vector, reusable by any run sharing the same
/// [`SearchFingerprint`].
///
/// Because a matching fingerprint pins the whole search trajectory,
/// every cached record is bit-identical to what a fresh evaluation would
/// produce — loading the cache changes wall-clock time and the
/// `search.cache_hit_disk` counter, never the
/// [`SearchOutcome`](crate::SearchOutcome).
#[derive(Debug, Clone)]
pub struct EvalCacheFile {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Identity of the runs this cache serves.
    pub fingerprint: SearchFingerprint,
    /// Cached evaluations, sorted by action vector.
    pub records: Vec<EpisodeRecord>,
}

muffin_json::impl_json!(struct EvalCacheFile { version, fingerprint, records });

impl EvalCacheFile {
    /// Writes the cache atomically (see [`SearchCheckpoint::save`]).
    ///
    /// # Errors
    ///
    /// [`MuffinError::Io`] naming the path on any filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MuffinError> {
        write_atomic(path.as_ref(), &muffin_json::to_string(self))
    }

    /// Loads and validates an evaluation cache.
    ///
    /// A missing or empty file yields `Ok(None)` — a cold cache is the
    /// normal first-run state, not an error. An unreadable, corrupt,
    /// wrong-version or wrong-fingerprint file is rejected loudly so a
    /// stale cache can never silently feed wrong metrics into a search.
    ///
    /// # Errors
    ///
    /// * [`MuffinError::Io`] if the file exists but cannot be read;
    /// * [`MuffinError::StaleArtifact`] if it does not parse or does not
    ///   match `expected`. A pool that grew since the cache was written
    ///   is such a difference; the message names each added model by id.
    pub fn load(
        path: impl AsRef<Path>,
        expected: &SearchFingerprint,
    ) -> Result<Option<Self>, MuffinError> {
        Self::load_warm(path, expected, false)
    }

    /// [`Self::load`], except that `shared` accepts a cache written under
    /// another seed ([`SearchFingerprint::mismatch_ignoring_rng`]). No
    /// search passes `true`.
    ///
    /// # Errors
    ///
    /// As [`Self::load`].
    pub fn load_warm(
        path: impl AsRef<Path>,
        expected: &SearchFingerprint,
        shared: bool,
    ) -> Result<Option<Self>, MuffinError> {
        let path = path.as_ref();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(MuffinError::Io(format!(
                    "cannot read eval cache {}: {e}",
                    path.display()
                )))
            }
        };
        if text.trim().is_empty() {
            return Ok(None);
        }
        let cache: Self = muffin_json::from_str(&text).map_err(|e| {
            MuffinError::StaleArtifact(format!(
                "eval cache {} is corrupt or truncated: {e}",
                path.display()
            ))
        })?;
        if cache.version != CHECKPOINT_VERSION {
            return Err(MuffinError::StaleArtifact(format!(
                "eval cache {} has version {}, this build reads version {CHECKPOINT_VERSION}",
                path.display(),
                cache.version
            )));
        }
        let stale = if shared {
            expected.mismatch_ignoring_rng(&cache.fingerprint)
        } else {
            expected.mismatch(&cache.fingerprint)
        };
        if let Some(what) = stale {
            return Err(MuffinError::StaleArtifact(format!(
                "eval cache {} belongs to a different run: {what} — \
                 delete it or pass a fresh path",
                path.display()
            )));
        }
        Ok(Some(cache))
    }

    /// Writes the cache with **merge-on-write** semantics, safe for
    /// concurrent writers sharing one path.
    ///
    /// Plain [`Self::save`] is last-writer-wins: two processes finishing
    /// around the same time would each temp+rename their own snapshot and
    /// silently drop the other's entries. `save_merged` instead takes a
    /// sibling `<path>.lock` file (atomic `create_new`), re-reads the
    /// current file, unions its records with `self.records` keyed by
    /// action vector (entries are content-addressed, so the union is
    /// conflict-free; on a duplicate key the existing record wins), and
    /// only then renames the merged snapshot into place.
    ///
    /// Only a file [`Self::load`] accepts under this cache's own
    /// fingerprint is merged. Existing content that does not parse or
    /// belongs to a different run — another seed included — is treated
    /// as absent and overwritten, matching [`Self::save`], so records
    /// trained from another seed's head seeds never enter this run's
    /// cache.
    ///
    /// A lock older than ten seconds is presumed abandoned (writer
    /// crashed between `create_new` and the guard drop) and is stolen.
    ///
    /// # Errors
    ///
    /// [`MuffinError::Io`] on filesystem failure or when the lock cannot
    /// be acquired within five seconds.
    pub fn save_merged(&self, path: impl AsRef<Path>) -> Result<(), MuffinError> {
        let path = path.as_ref();
        let _lock = LockGuard::acquire(path)?;
        let mut merged: std::collections::BTreeMap<Vec<usize>, EpisodeRecord> = self
            .records
            .iter()
            .map(|r| (r.actions.clone(), r.clone()))
            .collect();
        if let Ok(Some(existing)) = Self::load(path, &self.fingerprint) {
            for record in existing.records {
                merged.insert(record.actions.clone(), record);
            }
        }
        let file = Self {
            version: self.version,
            fingerprint: self.fingerprint.clone(),
            records: merged.into_values().collect(),
        };
        write_atomic(path, &muffin_json::to_string(&file))
    }
}

/// Holds `<path>.lock` for the merge-on-write critical section of
/// [`EvalCacheFile::save_merged`]; removes it on drop (including the
/// error paths).
struct LockGuard(std::path::PathBuf);

impl LockGuard {
    const STALE_AFTER: std::time::Duration = std::time::Duration::from_secs(10);
    const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

    fn acquire(target: &Path) -> Result<Self, MuffinError> {
        let mut name = target
            .file_name()
            .ok_or_else(|| MuffinError::Io(format!("{} has no file name", target.display())))?
            .to_os_string();
        name.push(".lock");
        let lock = target.with_file_name(name);
        let start = std::time::Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock)
            {
                Ok(_) => return Ok(Self(lock)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    // Steal locks abandoned by a crashed writer.
                    if let Ok(meta) = std::fs::metadata(&lock) {
                        let abandoned = meta
                            .modified()
                            .ok()
                            .and_then(|m| m.elapsed().ok())
                            .is_some_and(|age| age > Self::STALE_AFTER);
                        if abandoned {
                            std::fs::remove_file(&lock).ok();
                            continue;
                        }
                    }
                    if start.elapsed() > Self::TIMEOUT {
                        return Err(MuffinError::Io(format!(
                            "timed out waiting for cache lock {}",
                            lock.display()
                        )));
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(MuffinError::Io(format!(
                        "cannot create cache lock {}: {e}",
                        lock.display()
                    )))
                }
            }
        }
    }
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// How [`MuffinSearch::run_persistent`](crate::MuffinSearch::run_persistent)
/// persists its progress. The default persists nothing, which is exactly
/// [`MuffinSearch::run_with_pool`](crate::MuffinSearch::run_with_pool).
#[derive(Debug, Clone, Default)]
pub struct PersistenceOptions {
    /// Checkpoint file, written atomically during the run. `None`
    /// disables checkpointing.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Minimum episodes between checkpoint writes. Checkpoints land on
    /// the next REINFORCE batch boundary at or after this spacing; `0`
    /// checkpoints at every boundary.
    pub checkpoint_every: u32,
    /// Resume from `checkpoint` instead of starting fresh. The file must
    /// exist, parse, and fingerprint-match the current run.
    pub resume: bool,
    /// Cross-run evaluation cache file: loaded (if present) before the
    /// run and rewritten with the merged cache afterwards
    /// ([`EvalCacheFile::save_merged`]).
    pub eval_cache: Option<std::path::PathBuf>,
}

/// Writes `contents` to a `.tmp` sibling of `path` and renames it into
/// place — the old file survives any crash before the rename commits.
///
/// The temp file is flushed to stable storage (`File::sync_all`) **before**
/// the rename: without it, a power loss shortly after the rename could
/// commit the new name while the data blocks were still only in the page
/// cache, leaving an empty or truncated checkpoint where a valid old one
/// used to be. The parent directory is synced best-effort afterwards so
/// the rename itself is durable too (some filesystems refuse to fsync a
/// directory handle; losing only the rename re-exposes the intact old
/// file, which is safe).
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), MuffinError> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| MuffinError::Io(format!("{} has no file name", path.display())))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        use std::io::Write as _;
        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| MuffinError::Io(format!("cannot create {}: {e}", tmp.display())))?;
        file.write_all(contents.as_bytes())
            .map_err(|e| MuffinError::Io(format!("cannot write {}: {e}", tmp.display())))?;
        file.sync_all()
            .map_err(|e| MuffinError::Io(format!("cannot sync {}: {e}", tmp.display())))?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| MuffinError::Io(format!("cannot rename {} into place: {e}", tmp.display())))?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_flushes_and_renames_the_tmp_file_away() {
        let dir = std::env::temp_dir().join("muffin_write_atomic_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.json");
        let tmp = dir.join("state.json.tmp");

        write_atomic(&path, "first").expect("first write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "first");
        assert!(!tmp.exists(), "tmp sibling must be renamed away");

        // Overwrite: the new contents replace the old atomically and the
        // synced tmp file is again gone.
        write_atomic(&path, "second, longer contents").expect("second write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("read"),
            "second, longer contents"
        );
        assert!(!tmp.exists(), "tmp sibling must be renamed away");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_atomic_rejects_a_pathless_target() {
        let err = write_atomic(Path::new("/"), "x").unwrap_err();
        assert!(matches!(err, MuffinError::Io(_)));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    fn fingerprint(seed_word: u64) -> SearchFingerprint {
        let config = SearchConfig::fast(&["age"]);
        let space = SearchSpace::paper_default(3);
        SearchFingerprint::new(
            [seed_word, 1, 2, 3],
            &config,
            &space,
            "pool",
            PoolManifest::default(),
            "data",
        )
    }

    fn entry(name: &str, id: u64) -> muffin_models::ModelIdentity {
        muffin_models::ModelIdentity {
            name: name.to_string(),
            id,
        }
    }

    #[test]
    fn fingerprint_normalises_episodes_and_names_mismatches() {
        let a = fingerprint(0);
        // Same run with a different episode budget: identical fingerprint.
        let mut config = SearchConfig::fast(&["age"]).with_episodes(5000);
        let space = SearchSpace::paper_default(3);
        let b = SearchFingerprint::new(
            [0, 1, 2, 3],
            &config,
            &space,
            "pool",
            PoolManifest::default(),
            "data",
        );
        assert_eq!(a.mismatch(&b), None);

        let c = fingerprint(9);
        assert_eq!(a.mismatch(&c).as_deref(), Some("rng seed/state changed"));

        config.reinforce_batch = 4;
        let d = SearchFingerprint::new(
            [0, 1, 2, 3],
            &config,
            &space,
            "pool",
            PoolManifest::default(),
            "data",
        );
        assert_eq!(a.mismatch(&d).as_deref(), Some("search configuration changed"));

        let e = SearchFingerprint::new(
            [0, 1, 2, 3],
            &a.config,
            &space,
            "other pool",
            PoolManifest::default(),
            "data",
        );
        assert_eq!(a.mismatch(&e).as_deref(), Some("model pool changed"));
        let f = SearchFingerprint::new(
            [0, 1, 2, 3],
            &a.config,
            &space,
            "pool",
            PoolManifest::default(),
            "other data",
        );
        assert_eq!(a.mismatch(&f).as_deref(), Some("dataset split changed"));
    }

    #[test]
    fn pool_mismatches_name_the_differing_models_by_id() {
        let mut old = fingerprint(0);
        old.manifest = PoolManifest::new(vec![entry("ResNet-18", 0xaa), entry("DenseNet121", 0xbb)]);
        // `pool remove DenseNet121` + retrain of ResNet-18 + a new model.
        let mut new = fingerprint(0);
        new.pool_hash ^= 1;
        new.manifest =
            PoolManifest::new(vec![entry("ResNet-18", 0xcc), entry("MobileNet_V2", 0xdd)]);
        let msg = new.mismatch(&old).expect("pools differ");
        assert!(msg.contains("removed DenseNet121 (id 00000000000000bb)"), "{msg}");
        assert!(msg.contains("mutated ResNet-18 (id 00000000000000aa)"), "{msg}");
        assert!(msg.contains("added MobileNet_V2 (id 00000000000000dd)"), "{msg}");

        // A pure extension reads as growth, not generic change.
        let mut grown = fingerprint(0);
        grown.pool_hash ^= 1;
        grown.manifest = PoolManifest::new(vec![
            entry("ResNet-18", 0xaa),
            entry("DenseNet121", 0xbb),
            entry("MobileNet_V2", 0xdd),
        ]);
        let msg = grown.mismatch(&old).expect("pools differ");
        assert!(
            msg.contains("model pool grew: added MobileNet_V2 (id 00000000000000dd)"),
            "{msg}"
        );
    }

    #[test]
    fn missing_or_empty_eval_cache_is_cold_not_fatal() {
        let fp = fingerprint(0);
        let dir = std::env::temp_dir().join("muffin_ckpt_unit");
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(EvalCacheFile::load(dir.join("absent.json"), &fp)
            .expect("missing file is cold")
            .is_none());
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "").expect("write");
        assert!(EvalCacheFile::load(&empty, &fp)
            .expect("empty file is cold")
            .is_none());
        std::fs::remove_file(empty).ok();
    }

    #[test]
    fn corrupt_and_mismatched_artifacts_are_rejected_loudly() {
        let fp = fingerprint(0);
        let dir = std::env::temp_dir().join("muffin_ckpt_unit");
        std::fs::create_dir_all(&dir).expect("mkdir");

        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{\"version\": 1,").expect("write");
        let err = EvalCacheFile::load(&corrupt, &fp).unwrap_err();
        assert!(matches!(err, MuffinError::StaleArtifact(_)), "{err}");
        let err = SearchCheckpoint::load(&corrupt, &fp).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");

        let stale = dir.join("stale.json");
        let cache = EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint(7),
            records: vec![],
        };
        cache.save(&stale).expect("save");
        let err = EvalCacheFile::load(&stale, &fp).unwrap_err();
        assert!(err.to_string().contains("rng seed/state"), "{err}");

        let old = dir.join("old_version.json");
        let cache = EvalCacheFile {
            version: 99,
            fingerprint: fingerprint(0),
            records: vec![],
        };
        cache.save(&old).expect("save");
        let err = EvalCacheFile::load(&old, &fp).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        for f in ["corrupt.json", "stale.json", "old_version.json"] {
            std::fs::remove_file(dir.join(f)).ok();
        }
    }

    fn record(tag: usize) -> EpisodeRecord {
        EpisodeRecord {
            episode: tag as u32,
            actions: vec![tag, tag + 1],
            model_names: vec!["m".into()],
            head_desc: format!("h{tag}"),
            accuracy: 0.5,
            unfairness: vec![0.1],
            reward: tag as f32,
            head_params: 1,
            total_params: 2,
            head_seed: tag as u64,
            first_seen: tag as u32,
        }
    }

    #[test]
    fn shared_mode_accepts_a_cache_from_a_different_seed() {
        let dir = std::env::temp_dir().join("muffin_ckpt_unit");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shared.json");
        let cache = EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fingerprint(7),
            records: vec![record(1)],
        };
        cache.save(&path).expect("save");

        // Strict load: rejected (different rng entry state).
        let err = EvalCacheFile::load(&path, &fingerprint(0)).unwrap_err();
        assert!(err.to_string().contains("rng seed/state"), "{err}");
        // Shared load: accepted.
        let loaded = EvalCacheFile::load_warm(&path, &fingerprint(0), true)
            .expect("shared load")
            .expect("present");
        assert_eq!(loaded.records.len(), 1);
        // Shared load still rejects a genuinely different run.
        let mut other = fingerprint(0);
        other.pool_hash ^= 1;
        let err = EvalCacheFile::load_warm(&path, &other, true).unwrap_err();
        assert!(err.to_string().contains("model pool"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_merged_unions_with_the_existing_file() {
        let dir = std::env::temp_dir().join("muffin_ckpt_unit_merge");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cache.json");
        std::fs::remove_file(&path).ok();
        let fp = fingerprint(0);

        let a = EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.clone(),
            records: vec![record(1), record(3)],
        };
        a.save_merged(&path).expect("first write");
        // Second writer carries a disjoint set plus one overlapping key.
        let b = EvalCacheFile {
            version: CHECKPOINT_VERSION,
            fingerprint: fp.clone(),
            records: vec![record(2), record(3)],
        };
        b.save_merged(&path).expect("second write");

        let merged = EvalCacheFile::load(&path, &fp)
            .expect("load")
            .expect("present");
        let actions: Vec<Vec<usize>> = merged.records.iter().map(|r| r.actions.clone()).collect();
        assert_eq!(actions, vec![vec![1, 2], vec![2, 3], vec![3, 4]]);
        assert!(!path.with_extension("json.lock").exists());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_merged_never_merges_a_cache_written_under_another_seed() {
        let dir = std::env::temp_dir().join("muffin_ckpt_unit_seeds");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cache.json");
        std::fs::remove_file(&path).ok();
        let write = |seed_word: u64, tag: usize| {
            EvalCacheFile {
                version: CHECKPOINT_VERSION,
                fingerprint: fingerprint(seed_word),
                records: vec![record(tag)],
            }
            .save_merged(&path)
            .expect("merged write");
        };
        write(7, 1);
        write(0, 2);

        // The seed-7 record was trained from another seed's head seed: a
        // strict load under seed 0 must see only this run's record.
        let loaded = EvalCacheFile::load(&path, &fingerprint(0))
            .expect("load")
            .expect("present");
        let actions: Vec<Vec<usize>> = loaded.records.iter().map(|r| r.actions.clone()).collect();
        assert_eq!(actions, vec![vec![2, 3]]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_writers_lose_no_cache_entries() {
        let dir = std::env::temp_dir().join("muffin_ckpt_unit_stress");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("cache.json");
        std::fs::remove_file(&path).ok();
        let fp = fingerprint(0);

        const WRITERS: usize = 2;
        const WRITES_EACH: usize = 12;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = path.clone();
                let fp = fp.clone();
                scope.spawn(move || {
                    for i in 0..WRITES_EACH {
                        let file = EvalCacheFile {
                            version: CHECKPOINT_VERSION,
                            fingerprint: fp.clone(),
                            records: vec![record(1000 * (w + 1) + i)],
                        };
                        file.save_merged(&path).expect("merged write");
                    }
                });
            }
        });

        let merged = EvalCacheFile::load(&path, &fp)
            .expect("load")
            .expect("present");
        assert_eq!(
            merged.records.len(),
            WRITERS * WRITES_EACH,
            "every writer's entries must survive"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_tmp_and_replaces_content() {
        let dir = std::env::temp_dir().join("muffin_ckpt_unit");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("atomic.json");
        write_atomic(&path, "first").expect("write");
        write_atomic(&path, "second").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "second");
        assert!(
            !dir.join("atomic.json.tmp").exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_file(path).ok();
    }
}
