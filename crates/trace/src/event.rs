//! The trace event model: what a [`Tracer`](crate::Tracer) records and
//! what an event log file contains.
//!
//! The schema keeps **wall-clock measurements strictly apart** from the
//! rest of each event: everything nondeterministic lives in the
//! [`Timing`] struct, so [`TraceLog::stripped`] can zero it and two
//! seeded runs of the same workload compare byte-identical
//! ([`TraceLog::to_json_string`]) no matter how long each step took.

use std::fmt;

/// A single deterministic payload value attached to an event.
///
/// The three variants keep integers, floats and strings apart so values
/// round-trip through JSON without type drift (an episode index stays an
/// integer, a reward stays a float).
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An integer payload (episode numbers, sample counts, cache flags).
    Int {
        /// The value.
        v: i64,
    },
    /// A float payload (rewards, losses, unfairness scores).
    Num {
        /// The value.
        v: f64,
    },
    /// A string payload (model names, head descriptions).
    Text {
        /// The value.
        v: String,
    },
}

muffin_json::impl_json!(tagged FieldValue { Int { v }, Num { v }, Text { v } });

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int { v }
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Int { v: i64::from(v) }
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int { v: v as i64 }
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Num { v }
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        // Go through the f32's shortest decimal so the JSON stays minimal
        // (mirrors `ToJson for f32`).
        if v.is_finite() {
            FieldValue::Num {
                v: format!("{v}").parse::<f64>().expect("float reformat"),
            }
        } else {
            FieldValue::Num { v: f64::from(v) }
        }
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text { v: v.to_owned() }
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text { v }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Int { v } => write!(f, "{v}"),
            FieldValue::Num { v } => write!(f, "{v}"),
            FieldValue::Text { v } => write!(f, "{v}"),
        }
    }
}

/// A named deterministic payload entry on an event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name, e.g. `reward` or `U_age`.
    pub name: String,
    /// Field value.
    pub value: FieldValue,
}

muffin_json::impl_json!(struct Field { name, value });

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, value: impl Into<FieldValue>) -> Self {
        Self {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// Wall-clock measurements of an event, **isolated** from the
/// deterministic payload so logs stay diffable modulo time.
///
/// All values are microseconds. `start_us` is relative to the tracer's
/// creation instant (monotonic, via `std::time::Instant`). For
/// [`EventData::Histogram`] summaries, `duration_us` holds the summed
/// observation time, `min_us`/`max_us` the extreme observations, and
/// `p50_us`/`p99_us` the percentile estimates from the histogram's
/// log-scaled buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timing {
    /// Microseconds from tracer creation to the event's start.
    pub start_us: u64,
    /// Duration in microseconds (total observed time for histograms).
    pub duration_us: u64,
    /// Smallest observation in microseconds (histograms only).
    pub min_us: u64,
    /// Largest observation in microseconds (histograms only).
    pub max_us: u64,
    /// Estimated median observation in microseconds (histograms only).
    pub p50_us: u64,
    /// Estimated 99th-percentile observation in microseconds
    /// (histograms only).
    pub p99_us: u64,
}

muffin_json::impl_json!(struct Timing { start_us, duration_us, min_us, max_us, p50_us, p99_us });

impl Timing {
    /// The all-zero timing used by [`TraceLog::stripped`].
    pub fn zero() -> Self {
        Self::default()
    }
}

/// The deterministic payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// A completed span: a named unit of work with payload fields. The
    /// wall-clock cost lives in the event's [`Timing`].
    Span {
        /// Payload fields recorded on the span.
        fields: Vec<Field>,
    },
    /// Final value of a named counter (emitted by
    /// [`Tracer::finish`](crate::Tracer::finish), one per counter, sorted
    /// by name).
    Counter {
        /// Accumulated count.
        value: u64,
    },
    /// Summary of a named duration histogram (emitted by
    /// [`Tracer::finish`](crate::Tracer::finish)). Only the observation
    /// count is deterministic; the observed times live in [`Timing`].
    Histogram {
        /// Number of observations.
        count: u64,
    },
}

muffin_json::impl_json!(tagged EventData {
    Span { fields },
    Counter { value },
    Histogram { count },
});

/// One entry of a trace event log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Position in the log (0-based, assigned at record time).
    pub seq: u64,
    /// Event name, e.g. `search.episode` or `nn.epoch`.
    pub name: String,
    /// Span-nesting depth at record time (0 = top level).
    pub depth: u32,
    /// Deterministic payload.
    pub data: EventData,
    /// Isolated wall-clock measurements.
    pub timing: Timing,
}

muffin_json::impl_json!(struct TraceEvent { seq, name, depth, data, timing });

impl TraceEvent {
    /// Looks up a payload field by name (spans only).
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        match &self.data {
            EventData::Span { fields } => fields.iter().find(|f| f.name == name).map(|f| &f.value),
            _ => None,
        }
    }
}

/// Current trace log schema version, written into every log.
///
/// Version history: v1 carried `start_us`/`duration_us`/`min_us`/`max_us`
/// timings; v2 added the `p50_us`/`p99_us` percentile estimates to
/// [`Timing`].
pub const TRACE_LOG_VERSION: u32 = 2;

/// A complete event log, as produced by
/// [`Tracer::finish`](crate::Tracer::finish) and written by the CLI's
/// `--trace-out`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Schema version ([`TRACE_LOG_VERSION`]).
    pub version: u32,
    /// Events in record order.
    pub events: Vec<TraceEvent>,
}

muffin_json::impl_json!(struct TraceLog { version, events });

impl TraceLog {
    /// An empty log at the current schema version.
    pub fn new(events: Vec<TraceEvent>) -> Self {
        Self {
            version: TRACE_LOG_VERSION,
            events,
        }
    }

    /// A copy with every [`Timing`] zeroed — the determinism contract:
    /// two seeded runs of the same workload produce byte-identical
    /// stripped logs.
    pub fn stripped(&self) -> TraceLog {
        let events = self
            .events
            .iter()
            .map(|e| TraceEvent {
                timing: Timing::zero(),
                ..e.clone()
            })
            .collect();
        TraceLog {
            version: self.version,
            events,
        }
    }

    /// Deterministic compact JSON for this log.
    pub fn to_json_string(&self) -> String {
        muffin_json::to_string(self)
    }

    /// Writes the log as JSON.
    ///
    /// # Errors
    ///
    /// Returns an error string naming the file if the write fails.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json_string()).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Loads a log previously written by [`TraceLog::save_json`].
    ///
    /// # Errors
    ///
    /// Returns an error string naming the file if it cannot be read or
    /// parsed.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        muffin_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup_finds_span_fields_only() {
        let event = TraceEvent {
            seq: 0,
            name: "x".into(),
            depth: 0,
            data: EventData::Span {
                fields: vec![Field::new("reward", 1.5f64)],
            },
            timing: Timing::zero(),
        };
        assert_eq!(event.field("reward"), Some(&FieldValue::Num { v: 1.5 }));
        assert_eq!(event.field("missing"), None);
        let counter = TraceEvent {
            data: EventData::Counter { value: 3 },
            ..event
        };
        assert_eq!(counter.field("reward"), None);
    }

    #[test]
    fn stripped_zeroes_every_timing() {
        let log = TraceLog::new(vec![TraceEvent {
            seq: 0,
            name: "x".into(),
            depth: 1,
            data: EventData::Counter { value: 1 },
            timing: Timing {
                start_us: 5,
                duration_us: 9,
                min_us: 1,
                max_us: 2,
                p50_us: 1,
                p99_us: 2,
            },
        }]);
        let stripped = log.stripped();
        assert_eq!(stripped.events[0].timing, Timing::zero());
        // Everything else survives.
        assert_eq!(stripped.events[0].name, "x");
        assert_eq!(stripped.events[0].depth, 1);
    }

    #[test]
    fn field_value_conversions_preserve_type() {
        assert_eq!(FieldValue::from(3usize), FieldValue::Int { v: 3 });
        assert_eq!(FieldValue::from(7u32), FieldValue::Int { v: 7 });
        assert_eq!(FieldValue::from(0.1f32), FieldValue::Num { v: 0.1 });
        assert_eq!(FieldValue::from("a"), FieldValue::Text { v: "a".into() });
    }
}
