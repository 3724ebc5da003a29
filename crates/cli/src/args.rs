//! Minimal `--key value` argument parsing, dependency-free.

/// Options that are boolean flags: they take no value and parse as `true`
/// when present. Everything else follows the strict `--key value` shape.
const FLAG_OPTIONS: &[&str] = &["verbose", "resume", "dry-run"];

/// Command groups: these subcommands take a second word naming the action
/// (e.g. `muffin trace summarize`), parsed into a two-word command.
const COMMAND_GROUPS: &[&str] = &["trace", "pool"];

/// Parsed command line: a subcommand plus `--key value` options.
///
/// # Example
///
/// ```
/// use muffin_cli::Args;
///
/// let args = Args::parse_from(["search", "--episodes", "50", "--attrs", "age,site"])
///     .expect("valid");
/// assert_eq!(args.command(), "search");
/// assert_eq!(args.get_u32("episodes", 10).unwrap(), 50);
/// assert_eq!(args.get_list("attrs"), vec!["age", "site"]);
/// ```
#[derive(Debug, Clone)]
pub struct Args {
    command: String,
    /// `(key, value)` pairs in command-line order, repeats included, so
    /// that [`Args::reject_unknown_or_repeated`] can refuse a repeated flag.
    options: Vec<(String, String)>,
}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message if no subcommand is present, an option is missing
    /// its value, or a positional argument appears after the subcommand.
    pub fn parse_from<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = args.into_iter().map(Into::into);
        let mut command = iter.next().ok_or("missing subcommand")?;
        if command.starts_with("--") {
            return Err(format!("expected a subcommand, got option {command}"));
        }
        if COMMAND_GROUPS.contains(&command.as_str()) {
            let action = iter
                .next()
                .ok_or_else(|| format!("{command} expects an action, e.g. {command} summarize"))?;
            if action.starts_with("--") {
                return Err(format!("{command} expects an action, got option {action}"));
            }
            command = format!("{command} {action}");
        }
        let mut options = Vec::new();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected positional argument: {key}"));
            };
            if FLAG_OPTIONS.contains(&name) {
                options.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("option --{name} is missing its value"))?;
            options.push((name.to_string(), value));
        }
        Ok(Self { command, options })
    }

    /// Parses the process arguments.
    ///
    /// # Errors
    ///
    /// Same as [`Args::parse_from`].
    pub fn from_env() -> Result<Self, String> {
        Self::parse_from(std::env::args().skip(1))
    }

    /// The subcommand name.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A `u64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but unparsable.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v}")),
        }
    }

    /// A `u32` option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but unparsable.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v}")),
        }
    }

    /// A `usize` option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message if the value is present but unparsable.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got {v}")),
        }
    }

    /// Whether a boolean flag (`--verbose` or `--resume`) was supplied.
    pub fn get_flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Rejects any option not in `known`, the flags the command reads,
    /// and any option given more than once.
    ///
    /// # Errors
    ///
    /// Returns a message naming the command and the first unknown or
    /// repeated flag.
    pub(crate) fn reject_unknown_or_repeated(&self, known: &[&str]) -> Result<(), String> {
        for (i, (key, _)) in self.options.iter().enumerate() {
            if !known.contains(&key.as_str()) {
                return Err(format!("{} does not take --{key}", self.command));
            }
            if self.options[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(format!("{} was given --{key} more than once", self.command));
            }
        }
        Ok(())
    }

    /// A comma-separated list option (empty vec when absent).
    pub fn get_list(&self, key: &str) -> Vec<&str> {
        self.get(key)
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_and_options() {
        let args =
            Args::parse_from(["generate", "--samples", "500", "--out", "x.json"]).expect("valid");
        assert_eq!(args.command(), "generate");
        assert_eq!(args.get("out"), Some("x.json"));
        assert_eq!(args.get_usize("samples", 0).unwrap(), 500);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(Args::parse_from(Vec::<String>::new()).is_err());
        assert!(Args::parse_from(["--oops", "1"]).is_err());
    }

    #[test]
    fn dangling_option_is_an_error() {
        let err = Args::parse_from(["run", "--seed"]).unwrap_err();
        assert!(err.contains("--seed"));
    }

    #[test]
    fn positional_after_subcommand_is_an_error() {
        assert!(Args::parse_from(["run", "stray"]).is_err());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let args = Args::parse_from(["run"]).expect("valid");
        assert_eq!(args.get_u64("seed", 7).unwrap(), 7);
        assert!(args.get_list("attrs").is_empty());
        assert!(args.require("data").is_err());
    }

    #[test]
    fn unparsable_numbers_are_reported() {
        let args = Args::parse_from(["run", "--seed", "abc"]).expect("valid");
        let err = args.get_u64("seed", 0).unwrap_err();
        assert!(err.contains("abc"));
    }

    #[test]
    fn list_trims_and_skips_empties() {
        let args = Args::parse_from(["run", "--attrs", " age, ,site "]).expect("valid");
        assert_eq!(args.get_list("attrs"), vec!["age", "site"]);
    }

    #[test]
    fn verbose_flag_takes_no_value() {
        let args = Args::parse_from(["search", "--verbose", "--seed", "3"]).expect("valid");
        assert!(args.get_flag("verbose"));
        assert_eq!(args.get_u64("seed", 0).unwrap(), 3);

        let args = Args::parse_from(["search", "--seed", "3", "--verbose"]).expect("valid");
        assert!(args.get_flag("verbose"));

        let args = Args::parse_from(["search"]).expect("valid");
        assert!(!args.get_flag("verbose"));
    }

    #[test]
    fn resume_flag_takes_no_value() {
        let args =
            Args::parse_from(["search", "--resume", "--checkpoint", "c.json"]).expect("valid");
        assert!(args.get_flag("resume"));
        assert_eq!(args.get("checkpoint"), Some("c.json"));
        assert!(!Args::parse_from(["search"])
            .expect("valid")
            .get_flag("resume"));
    }

    #[test]
    fn pool_group_and_dry_run_flag_parse() {
        let args = Args::parse_from(["pool", "gc", "--pool", "p.json", "--dry-run"]).expect("valid");
        assert_eq!(args.command(), "pool gc");
        assert!(args.get_flag("dry-run"));
        assert_eq!(args.get("pool"), Some("p.json"));
        assert!(Args::parse_from(["pool"]).is_err());
    }

    #[test]
    fn trace_group_parses_a_two_word_command() {
        let args = Args::parse_from(["trace", "summarize", "--trace", "log.json"]).expect("valid");
        assert_eq!(args.command(), "trace summarize");
        assert_eq!(args.get("trace"), Some("log.json"));
    }

    #[test]
    fn a_repeated_flag_is_rejected_by_name() {
        let args = Args::parse_from(["generate", "--samples", "50", "--samples", "60"])
            .expect("repeats parse; the command rejects them");
        let err = args.reject_unknown_or_repeated(&["samples"]).unwrap_err();
        assert!(
            err.contains("--samples") && err.contains("more than once"),
            "{err}"
        );
        let args = Args::parse_from(["search", "--verbose", "--verbose"]).expect("valid");
        assert!(args.reject_unknown_or_repeated(&["verbose"]).is_err());
        let args = Args::parse_from(["generate", "--samples", "50"]).expect("valid");
        assert!(args.reject_unknown_or_repeated(&["samples"]).is_ok());
    }

    #[test]
    fn trace_without_action_is_an_error() {
        let err = Args::parse_from(["trace"]).unwrap_err();
        assert!(err.contains("action"), "{err}");
        let err = Args::parse_from(["trace", "--trace", "log.json"]).unwrap_err();
        assert!(err.contains("action"), "{err}");
    }
}
