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

impl From<std::io::Error> for DatasetIoError {
    fn from(e: std::io::Error) -> Self {
        DatasetIoError::Io(e)
    }
}

impl Dataset {
    /// Serialises the dataset to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetIoError::Io`] if the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), DatasetIoError> {
        let json = muffin_json::to_string(self);
        fs::write(path, json)?;
        Ok(())
    }

    /// Loads a dataset previously written by [`Dataset::save_json`].
    ///
    /// # Errors
    ///
    /// Returns [`DatasetIoError::Io`] if the file cannot be read and
    /// [`DatasetIoError::Parse`] if it is not a valid dataset.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Dataset, DatasetIoError> {
        let text = fs::read_to_string(path)?;
        muffin_json::from_str(&text).map_err(|e| DatasetIoError::Parse(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IsicLike;
    use muffin_tensor::Rng64;

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
