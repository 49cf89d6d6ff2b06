//! The on-disk artifact store: content-addressed, versioned, atomic.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/<model-slug>/x<scale>/v<version>-<digest>.sesrckpt
//! <root>/tmp/                      (staging area for atomic writes)
//! ```
//!
//! * **content-addressed** — `<digest>` is the FNV-1a 64 hash of the full
//!   encoded checkpoint, so re-saving identical weights dedupes to the
//!   existing file instead of writing a twin;
//! * **versioned** — `<version>` is a monotonically increasing integer per
//!   `(model, scale)` directory; [`ModelStore::resolve`] returns the highest
//!   one, so retraining simply appends and serving picks up the newest
//!   artifact;
//! * **atomic** — every save stages the full bytes in `<root>/tmp/` and
//!   publishes them with a no-replace hard link, so a crashed writer can
//!   never leave a half-written artifact where a loader would find it and
//!   concurrent writers can never overwrite each other (version-number ties
//!   between them are broken deterministically by digest at resolve time).

use crate::checkpoint::Checkpoint;
use crate::error::{Result, StoreError};
use sesr_telemetry::{Counter, Level, Probe, Telemetry};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// File extension of stored artifacts.
pub const ARTIFACT_EXTENSION: &str = "sesrckpt";

/// Monotonic staging-file counter so concurrent saves in one process never
/// collide on a temp name.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One stored artifact, as reported by save/list/resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredArtifact {
    /// Canonical model identity slug (e.g. `"sesr-m2"`); the display-case id
    /// lives in the checkpoint header.
    pub model_id: String,
    /// Upscaling factor (1 for classifiers).
    pub scale: usize,
    /// Monotonic version within the `(model, scale)` directory.
    pub version: u32,
    /// Content address: FNV-1a 64 of the encoded checkpoint.
    pub digest: u64,
    /// Absolute path of the artifact file.
    pub path: PathBuf,
}

/// Telemetry hooks for the two timed store operations: `publish` (a save
/// that writes bytes) and `hydrate` (a load + validation). Attached via
/// [`ModelStore::with_telemetry`]; absent by default, in which case the
/// store records nothing.
#[derive(Debug, Clone)]
struct StoreTelemetry {
    /// Journals `store.publish` and feeds the `store.publish_ns` histogram.
    publish: Probe,
    /// Journals `store.hydrate` and feeds the `store.hydrate_ns` histogram.
    hydrate: Probe,
    publishes: Arc<Counter>,
    hydrates: Arc<Counter>,
}

/// A directory-backed store of trained-weight artifacts.
#[derive(Debug, Clone)]
pub struct ModelStore {
    root: PathBuf,
    telemetry: Option<StoreTelemetry>,
}

impl ModelStore {
    /// Open (creating directories as needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::io(&root, &e))?;
        Ok(ModelStore {
            root,
            telemetry: None,
        })
    }

    /// Record save/load timings into `hub`: successful saves that write bytes
    /// count as `store.publishes` with their duration in the
    /// `store.publish_ns` histogram (deduped re-saves are not publishes);
    /// successful loads count as `store.hydrates` / `store.hydrate_ns`. Both
    /// also land in the journal, tagged with the artifact's version.
    pub fn with_telemetry(mut self, hub: Arc<Telemetry>) -> Self {
        self.telemetry = Some(StoreTelemetry {
            publish: hub.probe("store.publish", Level::Info, Some("store.publish_ns")),
            hydrate: hub.probe("store.hydrate", Level::Debug, Some("store.hydrate_ns")),
            publishes: hub.metrics().counter("store.publishes"),
            hydrates: hub.metrics().counter("store.hydrates"),
        });
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn model_dir(&self, model_id: &str, scale: usize) -> PathBuf {
        self.root.join(slugify(model_id)).join(format!("x{scale}"))
    }

    /// Persist a checkpoint, returning its artifact record.
    ///
    /// The write is atomic (staged in `<root>/tmp`, then renamed) and
    /// content-addressed: saving a checkpoint whose bytes already exist for
    /// this `(model, scale)` returns the existing artifact untouched.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, checkpoint: &Checkpoint) -> Result<StoredArtifact> {
        let started = Instant::now();
        let (artifact, published) = self.save_impl(checkpoint)?;
        if published {
            if let Some(telemetry) = &self.telemetry {
                telemetry.publishes.incr();
                telemetry
                    .publish
                    .observe(u64::from(artifact.version), started.elapsed());
            }
        }
        Ok(artifact)
    }

    /// [`ModelStore::save`] body; the flag reports whether new bytes were
    /// published (false on the content-address dedupe path).
    fn save_impl(&self, checkpoint: &Checkpoint) -> Result<(StoredArtifact, bool)> {
        let model_id = &checkpoint.meta.model_id;
        if model_id.is_empty() || model_id.chars().any(|c| c.is_control()) {
            // A newline would let the id inject extra `key=value` header
            // lines; refuse at the boundary instead of writing a container
            // that can never be read back faithfully.
            return Err(StoreError::corrupt(format!(
                "model id {model_id:?} is empty or contains control characters"
            )));
        }
        let bytes = checkpoint.to_bytes();
        let digest = crate::checkpoint::fnv1a64(&bytes);
        let dir = self.model_dir(&checkpoint.meta.model_id, checkpoint.meta.scale);
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, &e))?;

        let existing = self.versions_in(&dir)?;
        if let Some(artifact) = existing.iter().find(|a| a.digest == digest) {
            return Ok((artifact.clone(), false));
        }
        let mut version = existing.iter().map(|a| a.version).max().unwrap_or(0) + 1;

        let tmp_dir = self.root.join("tmp");
        fs::create_dir_all(&tmp_dir).map_err(|e| StoreError::io(&tmp_dir, &e))?;
        let tmp_path = tmp_dir.join(format!(
            "{}-{}.partial",
            std::process::id(),
            // lint: allow(atomic-ordering): unique temp-file suffix; only uniqueness matters, not ordering
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp_path, &bytes).map_err(|e| StoreError::io(&tmp_path, &e))?;
        // Publish with hard_link, which (unlike rename) fails if the target
        // already exists: a concurrent saver claiming the same version cannot
        // overwrite us, we just bump the version and retry. Concurrent savers
        // may still end up sharing a version number under different digests
        // (distinct file names), which resolve() breaks deterministically by
        // preferring the higher digest.
        let final_path = loop {
            let candidate = dir.join(format!("v{version:04}-{digest:016x}.{ARTIFACT_EXTENSION}"));
            match fs::hard_link(&tmp_path, &candidate) {
                Ok(()) => break candidate,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    version += 1;
                }
                Err(e) => {
                    let _ = fs::remove_file(&tmp_path);
                    return Err(StoreError::io(&candidate, &e));
                }
            }
        };
        let _ = fs::remove_file(&tmp_path);

        Ok((
            StoredArtifact {
                model_id: slugify(&checkpoint.meta.model_id),
                scale: checkpoint.meta.scale,
                version,
                digest,
                path: final_path,
            },
            true,
        ))
    }

    /// Load and fully validate the checkpoint at `artifact`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and every [`Checkpoint::from_bytes`] validation
    /// error; additionally rejects artifacts whose file digest no longer
    /// matches their content-address file name.
    pub fn load(&self, artifact: &StoredArtifact) -> Result<Checkpoint> {
        let started = Instant::now();
        let bytes = fs::read(&artifact.path).map_err(|e| StoreError::io(&artifact.path, &e))?;
        let actual = crate::checkpoint::fnv1a64(&bytes);
        if actual != artifact.digest {
            return Err(StoreError::ChecksumMismatch {
                stored: artifact.digest,
                computed: actual,
            });
        }
        let checkpoint = Checkpoint::from_bytes(&bytes)?;
        if let Some(telemetry) = &self.telemetry {
            telemetry.hydrates.incr();
            telemetry
                .hydrate
                .observe(u64::from(artifact.version), started.elapsed());
        }
        Ok(checkpoint)
    }

    /// Resolve the newest artifact for `(model_id, scale)`: highest version,
    /// ties broken deterministically by the higher content digest (ties can
    /// only arise from concurrent cross-process saves).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when nothing is stored for the pair,
    /// [`StoreError::Io`] on directory-scan failure.
    pub fn resolve(&self, model_id: &str, scale: usize) -> Result<StoredArtifact> {
        let dir = self.model_dir(model_id, scale);
        let mut versions = self.versions_in(&dir)?;
        versions.sort_by_key(|a| (a.version, a.digest));
        versions.pop().ok_or_else(|| StoreError::NotFound {
            model_id: model_id.to_string(),
            scale,
        })
    }

    /// Resolve-then-load convenience for the common hydration path.
    ///
    /// # Errors
    ///
    /// Everything [`ModelStore::resolve`] and [`ModelStore::load`] can
    /// return.
    pub fn load_latest(&self, model_id: &str, scale: usize) -> Result<Checkpoint> {
        let artifact = self.resolve(model_id, scale)?;
        self.load(&artifact)
    }

    /// Distinct model-id slugs with at least one stored artifact, sorted.
    ///
    /// This is the enumeration entry point for multi-model serving: a gateway
    /// can discover every servable model instead of probing known ids by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on directory-scan failure.
    pub fn list_model_ids(&self) -> Result<Vec<String>> {
        let mut ids: Vec<String> = self
            .list()?
            .into_iter()
            .map(|artifact| artifact.model_id)
            .collect();
        ids.dedup();
        Ok(ids)
    }

    /// Full version history for `(model_id, scale)`, ascending by
    /// `(version, digest)`; empty when nothing is stored for the pair.
    ///
    /// [`ModelStore::resolve`] returns the last element of this list.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on directory-scan failure.
    pub fn list_versions(&self, model_id: &str, scale: usize) -> Result<Vec<StoredArtifact>> {
        let mut versions = self.versions_in(&self.model_dir(model_id, scale))?;
        versions.sort_by_key(|a| (a.version, a.digest));
        Ok(versions)
    }

    /// Every artifact in the store, across all models and scales, sorted by
    /// `(model, scale, version)`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on directory-scan failure.
    pub fn list(&self) -> Result<Vec<StoredArtifact>> {
        let mut out = Vec::new();
        for model_entry in read_dir_or_empty(&self.root)? {
            let model_dir = model_entry;
            if !model_dir.is_dir() || model_dir.file_name().is_some_and(|n| n == "tmp") {
                continue;
            }
            for scale_entry in read_dir_or_empty(&model_dir)? {
                if scale_entry.is_dir() {
                    out.extend(self.versions_in(&scale_entry)?);
                }
            }
        }
        out.sort_by(|a, b| {
            (&a.model_id, a.scale, a.version, a.digest).cmp(&(
                &b.model_id,
                b.scale,
                b.version,
                b.digest,
            ))
        });
        Ok(out)
    }

    /// Parse every artifact file name in one `(model, scale)` directory. The
    /// model id and scale are read from each file's header-free name parts;
    /// the authoritative header is validated at load time.
    fn versions_in(&self, dir: &Path) -> Result<Vec<StoredArtifact>> {
        let mut out = Vec::new();
        for path in read_dir_or_empty(dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(&format!(".{ARTIFACT_EXTENSION}")) else {
                continue;
            };
            let Some((version_part, digest_part)) = stem.split_once('-') else {
                continue;
            };
            let Some(version) = version_part
                .strip_prefix('v')
                .and_then(|v| v.parse::<u32>().ok())
            else {
                continue;
            };
            let Ok(digest) = u64::from_str_radix(digest_part, 16) else {
                continue;
            };
            let scale = dir
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix('x'))
                .and_then(|n| n.parse::<usize>().ok())
                .unwrap_or(0);
            let model_id = dir
                .parent()
                .and_then(|p| p.file_name())
                .and_then(|n| n.to_str())
                .unwrap_or("")
                .to_string();
            out.push(StoredArtifact {
                model_id,
                scale,
                version,
                digest,
                path: path.clone(),
            });
        }
        Ok(out)
    }
}

/// `read_dir` that treats a missing directory as empty (a store with no
/// artifacts for a model is not an error) but propagates real I/O failures.
fn read_dir_or_empty(dir: &Path) -> Result<Vec<PathBuf>> {
    match fs::read_dir(dir) {
        Ok(entries) => {
            let mut out = Vec::new();
            for entry in entries {
                let entry = entry.map_err(|e| StoreError::io(dir, &e))?;
                out.push(entry.path());
            }
            Ok(out)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(StoreError::io(dir, &e)),
    }
}

/// Lowercase a model id into a filesystem-safe directory name (every
/// non-alphanumeric character becomes `-`). This is the canonical identity
/// slug for stored artifacts; `sesr_models::SrModelKind::slug`/`parse` use
/// it too, so store listings round-trip back to model kinds.
pub fn slugify(model_id: &str) -> String {
    model_id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sesr_nn::{Conv2d, Sequential};
    use std::sync::atomic::AtomicU64 as TestCounter;

    static TEST_DIR_COUNTER: TestCounter = TestCounter::new(0);

    fn temp_store() -> (PathBuf, ModelStore) {
        let dir = std::env::temp_dir().join(format!(
            "sesr_store_test_{}_{}",
            std::process::id(),
            TEST_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let store = ModelStore::open(&dir).unwrap();
        (dir, store)
    }

    fn test_checkpoint(seed: u64) -> Checkpoint {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new("store_test");
        net.push(Conv2d::new(3, 4, 3, 1, 1, &mut rng));
        Checkpoint::from_layer("SESR-M2", 2, seed, &net)
    }

    #[test]
    fn save_load_roundtrip() {
        let (dir, store) = temp_store();
        let ckpt = test_checkpoint(1);
        let artifact = store.save(&ckpt).unwrap();
        assert_eq!(artifact.version, 1);
        assert!(artifact.path.starts_with(&dir));
        let loaded = store.load(&artifact).unwrap();
        assert_eq!(loaded, ckpt);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_checkpoints_dedupe_different_ones_version_up() {
        let (dir, store) = temp_store();
        let first = store.save(&test_checkpoint(1)).unwrap();
        let again = store.save(&test_checkpoint(1)).unwrap();
        assert_eq!(first, again, "identical bytes must dedupe");
        let newer = store.save(&test_checkpoint(2)).unwrap();
        assert_eq!(newer.version, 2);
        let resolved = store.resolve("SESR-M2", 2).unwrap();
        assert_eq!(resolved, newer, "resolve must return the newest version");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_missing_is_a_typed_not_found() {
        let (dir, store) = temp_store();
        let err = store.resolve("SESR-M2", 2).unwrap_err();
        assert!(err.is_not_found());
        let err = store.load_latest("EDSR", 4).unwrap_err();
        assert!(err.is_not_found());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_spans_models_scales_and_encodings() {
        let (dir, store) = temp_store();
        store.save(&test_checkpoint(1)).unwrap();
        store.save(&test_checkpoint(2)).unwrap();
        let mut other = test_checkpoint(3);
        other.meta.model_id = "FSRCNN".to_string();
        store.save(&other).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 3);
        assert_eq!(listed[0].model_id, "fsrcnn");
        assert_eq!(listed[1].model_id, "sesr-m2");
        assert_eq!(listed[2].version, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_model_ids_and_versions_enumerate_the_store() {
        let (dir, store) = temp_store();
        assert!(store.list_model_ids().unwrap().is_empty());
        assert!(store.list_versions("SESR-M2", 2).unwrap().is_empty());

        store.save(&test_checkpoint(1)).unwrap();
        store.save(&test_checkpoint(2)).unwrap();
        let mut other = test_checkpoint(3);
        other.meta.model_id = "FSRCNN".to_string();
        store.save(&other).unwrap();

        assert_eq!(store.list_model_ids().unwrap(), ["fsrcnn", "sesr-m2"]);
        let versions = store.list_versions("SESR-M2", 2).unwrap();
        assert_eq!(
            versions.iter().map(|a| a.version).collect::<Vec<_>>(),
            [1, 2],
            "history must be ascending"
        );
        assert_eq!(
            versions.last().unwrap(),
            &store.resolve("SESR-M2", 2).unwrap(),
            "resolve returns the last list_versions entry"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_counts_publishes_and_hydrates() {
        let (dir, store) = temp_store();
        let hub = Arc::new(Telemetry::new());
        let store = store.with_telemetry(Arc::clone(&hub));

        let artifact = store.save(&test_checkpoint(1)).unwrap();
        store.save(&test_checkpoint(1)).unwrap(); // dedupe: not a publish
        store.save(&test_checkpoint(2)).unwrap();
        store.load(&artifact).unwrap();
        store.load_latest("SESR-M2", 2).unwrap();

        let snapshot = hub.snapshot();
        assert_eq!(snapshot.counter("store.publishes"), Some(2));
        assert_eq!(snapshot.counter("store.hydrates"), Some(2));
        assert_eq!(snapshot.histogram("store.publish_ns").unwrap().count, 2);
        assert_eq!(snapshot.histogram("store.hydrate_ns").unwrap().count, 2);
        let names: Vec<_> = snapshot.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"store.publish"));
        assert!(names.contains(&"store.hydrate"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_rejects_unsanitary_model_ids() {
        let (dir, store) = temp_store();
        for bad in ["", "m\nmodel=other", "tab\tid"] {
            let mut ckpt = test_checkpoint(1);
            ckpt.meta.model_id = bad.to_string();
            assert!(
                matches!(store.save(&ckpt), Err(StoreError::Corrupt { .. })),
                "model id {bad:?} must be refused at the store boundary"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resolve_breaks_version_ties_by_digest() {
        // Concurrent cross-process savers can claim the same version number
        // under different digests; resolution must not depend on read_dir
        // order.
        let (dir, store) = temp_store();
        let model_dir = dir.join("sesr-m2").join("x2");
        fs::create_dir_all(&model_dir).unwrap();
        fs::write(model_dir.join("v0002-00000000000000aa.sesrckpt"), b"x").unwrap();
        fs::write(model_dir.join("v0002-00000000000000ff.sesrckpt"), b"y").unwrap();
        let resolved = store.resolve("SESR-M2", 2).unwrap();
        assert_eq!(resolved.version, 2);
        assert_eq!(resolved.digest, 0xff);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_file_is_rejected_on_load() {
        let (dir, store) = temp_store();
        let artifact = store.save(&test_checkpoint(1)).unwrap();
        let mut bytes = fs::read(&artifact.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&artifact.path, &bytes).unwrap();
        let err = store.load(&artifact).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_partial_files_are_left_in_the_model_tree() {
        let (dir, store) = temp_store();
        store.save(&test_checkpoint(1)).unwrap();
        // The staging dir exists but holds nothing after a successful save.
        let staged: Vec<_> = fs::read_dir(dir.join("tmp")).unwrap().collect();
        assert!(staged.is_empty());
        fs::remove_dir_all(&dir).ok();
    }
}
