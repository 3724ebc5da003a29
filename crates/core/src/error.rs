use std::error::Error;
use std::fmt;

/// Errors surfaced by the Muffin framework.
///
/// # Example
///
/// ```
/// use muffin::MuffinError;
///
/// let err = MuffinError::EmptyPool;
/// assert!(err.to_string().contains("pool"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MuffinError {
    /// The model pool has no members to select from.
    EmptyPool,
    /// No unprivileged samples exist, so a proxy dataset cannot be built.
    EmptyProxy,
    /// A configuration value is inconsistent; the message names it.
    InvalidConfig(String),
    /// A requested attribute does not exist in the dataset schema.
    UnknownAttribute(String),
    /// A checkpoint or evaluation-cache file failed an IO operation; the
    /// message names the path and the underlying error.
    Io(String),
    /// A checkpoint or evaluation-cache file exists but cannot be used:
    /// corrupt JSON, an unsupported version, or a fingerprint that does
    /// not match the current run. The message says which.
    StaleArtifact(String),
}

impl fmt::Display for MuffinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MuffinError::EmptyPool => f.write_str("model pool is empty"),
            MuffinError::EmptyProxy => {
                f.write_str("no unprivileged samples available for the proxy dataset")
            }
            MuffinError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MuffinError::UnknownAttribute(name) => write!(f, "unknown attribute: {name}"),
            MuffinError::Io(msg) => write!(f, "io error: {msg}"),
            MuffinError::StaleArtifact(msg) => write!(f, "stale artifact: {msg}"),
        }
    }
}

impl Error for MuffinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_specific() {
        assert_eq!(MuffinError::EmptyPool.to_string(), "model pool is empty");
        assert!(MuffinError::InvalidConfig("episodes must be > 0".into())
            .to_string()
            .contains("episodes"));
        assert!(MuffinError::UnknownAttribute("tone".into())
            .to_string()
            .contains("tone"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MuffinError>();
    }
}
