//! Dataset persistence.
//!
//! Generated datasets are deterministic given `(config, seed)`, but
//! experiments that must share *exactly* the same data across machines or
//! toolchains can serialise a [`Dataset`] to JSON and reload it.

use crate::Dataset;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

/// Error raised when saving or loading a dataset.
#[derive(Debug)]
pub enum DatasetIoError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file contents are not a valid serialised dataset.
    Parse(String),
}

impl fmt::Display for DatasetIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetIoError::Io(e) => write!(f, "dataset io failed: {e}"),
            DatasetIoError::Parse(msg) => write!(f, "dataset parse failed: {msg}"),
        }
    }
}

impl Error for DatasetIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DatasetIoError::Io(e) => Some(e),
            DatasetIoError::Parse(_) => None,
        }
    }
}

/// `e`, with its message prefixed by the file it concerns.
fn naming(path: &Path, e: std::io::Error) -> DatasetIoError {
    DatasetIoError::Io(std::io::Error::new(
        e.kind(),
        format!("{}: {e}", path.display()),
    ))
}

impl Dataset {
    /// Serialises the dataset to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetIoError::Io`], naming the file, if it cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), DatasetIoError> {
        let path = path.as_ref();
        fs::write(path, muffin_json::to_string(self)).map_err(|e| naming(path, e))
    }

    /// Loads a dataset previously written by [`Dataset::save_json`].
    ///
    /// The decoded dataset must hold the invariants [`Dataset::new`]
    /// asserts, and every feature must be finite.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetIoError::Io`] if the file cannot be read and
    /// [`DatasetIoError::Parse`] if it is not a valid dataset; both name
    /// the file. A broken invariant is named with the file, the field and
    /// index (e.g. `labels[5]`) and the bound it breaks.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Dataset, DatasetIoError> {
        let path = path.as_ref();
        let text = fs::read_to_string(path).map_err(|e| naming(path, e))?;
        let dataset: Dataset = muffin_json::from_str(&text)
            .map_err(|e| DatasetIoError::Parse(format!("{}: {e}", path.display())))?;
        // Only outside input can carry a NaN or an infinity: the
        // generators never produce one.
        let non_finite = dataset
            .features()
            .iter_rows()
            .enumerate()
            .find_map(|(r, row)| {
                let c = row.iter().position(|v| !v.is_finite())?;
                let v = row[c];
                Some(format!("non-finite feature: features[{r}][{c}] = {v}"))
            });
        dataset
            .check_invariants()
            .and_then(|()| non_finite.map_or(Ok(()), Err))
            .map_err(|msg| DatasetIoError::Parse(format!("{}: {msg}", path.display())))?;
        Ok(dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IsicLike;
    use muffin_json::Json;
    use muffin_tensor::Rng64;

    /// The entry `key` of a JSON object.
    fn field<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
        match json {
            Json::Obj(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1,
            other => panic!("expected an object, found {}", other.kind()),
        }
    }

    /// The elements of a JSON array.
    fn items(json: &mut Json) -> &mut Vec<Json> {
        match json {
            Json::Arr(items) => items,
            other => panic!("expected an array, found {}", other.kind()),
        }
    }

    /// Saves a valid 20-sample dataset as `name`, applies `edit` to its
    /// JSON, and loads it back, returning the parse error's message.
    fn load_edited(name: &str, edit: impl FnOnce(&mut Json)) -> String {
        let dir = std::env::temp_dir().join("muffin_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let ds = IsicLike::small()
            .with_num_samples(20)
            .generate(&mut Rng64::seed(2));
        let mut json = muffin_json::parse(&muffin_json::to_string(&ds)).expect("valid json");
        edit(&mut json);
        std::fs::write(&path, muffin_json::to_string(&json)).expect("write");
        let err = Dataset::load_json(&path).expect_err("the edit breaks an invariant");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, DatasetIoError::Parse(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&path.display().to_string()),
            "file not named: {msg}"
        );
        msg
    }

    #[test]
    fn a_label_missing_for_a_row_is_rejected() {
        let msg = load_edited("short_labels.json", |json| {
            items(field(json, "labels")).pop();
        });
        assert!(msg.contains("19 labels for 20 feature rows"), "{msg}");
    }

    #[test]
    fn a_label_outside_num_classes_is_rejected_by_index() {
        let msg = load_edited("label99.json", |json| {
            items(field(json, "labels"))[5] = Json::Int(99);
        });
        assert!(msg.contains("labels[5] = 99"), "{msg}");
        assert!(msg.contains("below num_classes = 8"), "{msg}");
    }

    #[test]
    fn group_vectors_must_match_the_schema_and_the_rows() {
        let msg = load_edited("one_group_vector.json", |json| {
            items(field(json, "group_ids")).pop();
        });
        assert!(
            msg.contains("group_ids has 2 vectors for 3 schema attributes"),
            "{msg}"
        );
        let msg = load_edited("short_group_vector.json", |json| {
            items(&mut items(field(json, "group_ids"))[1]).pop();
        });
        assert!(
            msg.contains("group_ids[1] has 19 entries for 20 rows"),
            "{msg}"
        );
    }

    #[test]
    fn a_group_id_outside_its_attribute_is_rejected_by_index() {
        let msg = load_edited("group77.json", |json| {
            items(&mut items(field(json, "group_ids"))[0])[3] = Json::Int(77);
        });
        assert!(msg.contains("group_ids[0][3] = 77"), "{msg}");
        assert!(msg.contains("groups of attribute age"), "{msg}");
    }

    #[test]
    fn non_finite_features_are_rejected_by_row_and_column() {
        // The writer spells NaN and infinities as null, read back as NaN.
        let msg = load_edited("nan_feature.json", |json| {
            let features = field(json, "features");
            let cols = match field(features, "cols") {
                Json::Int(cols) => *cols as usize,
                other => panic!("cols is {}", other.kind()),
            };
            items(field(features, "data"))[2 * cols + 1] = Json::Null;
        });
        assert!(msg.contains("features[2][1] = NaN"), "{msg}");
    }

    #[test]
    fn save_load_round_trips() {
        let ds = IsicLike::small()
            .with_num_samples(50)
            .generate(&mut Rng64::seed(1));
        let dir = std::env::temp_dir().join("muffin_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.json");
        ds.save_json(&path).expect("save");
        let loaded = Dataset::load_json(&path).expect("load");
        assert_eq!(loaded.features(), ds.features());
        assert_eq!(loaded.labels(), ds.labels());
        assert_eq!(loaded.schema(), ds.schema());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Dataset::load_json("/nonexistent/muffin.json").unwrap_err();
        assert!(matches!(err, DatasetIoError::Io(_)));
        assert!(err.to_string().contains("io failed"));
    }

    #[test]
    fn garbage_file_is_a_parse_error() {
        let dir = std::env::temp_dir().join("muffin_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").expect("write");
        let err = Dataset::load_json(&path).unwrap_err();
        assert!(matches!(err, DatasetIoError::Parse(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_file_error_carries_line_and_column() {
        let dir = std::env::temp_dir().join("muffin_io_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("malformed.json");
        // Bad literal on line 3, column 15.
        std::fs::write(&path, "{\n  \"features\": {\n    \"rows\": 1,,\n  }\n}").expect("write");
        let err = Dataset::load_json(&path).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, DatasetIoError::Parse(_)));
        assert!(msg.contains("line 3"), "missing line in: {msg}");
        assert!(msg.contains("column"), "missing column in: {msg}");
        std::fs::remove_file(path).ok();
    }
}
