//! JSON round-trip coverage for every trace event variant, plus the
//! determinism properties of the log serialisation.

use muffin_trace::{
    EventData, Field, FieldValue, Timing, TraceEvent, TraceLog, Tracer, TRACE_LOG_VERSION,
};
use std::time::Duration;

fn event(seq: u64, name: &str, data: EventData, timing: Timing) -> TraceEvent {
    TraceEvent {
        seq,
        name: name.into(),
        depth: seq as u32 % 3,
        data,
        timing,
    }
}

fn sample_log() -> TraceLog {
    TraceLog::new(vec![
        event(
            0,
            "search.episode",
            EventData::Span {
                fields: vec![
                    Field::new("episode", 4usize),
                    Field::new("reward", 1.625f64),
                    Field::new("U_age", 0.25f32),
                    Field::new("cached", 1i64),
                    Field::new("head", "[16,8] relu"),
                ],
            },
            Timing {
                start_us: 10,
                duration_us: 900,
                ..Timing::zero()
            },
        ),
        event(
            1,
            "search.cache_hit",
            EventData::Counter { value: 17 },
            Timing::zero(),
        ),
        event(
            2,
            "fusing.predict_batch",
            EventData::Histogram { count: 12 },
            Timing {
                start_us: 0,
                duration_us: 3400,
                min_us: 120,
                max_us: 610,
                p50_us: 240,
                p99_us: 600,
            },
        ),
    ])
}

#[test]
fn every_event_variant_round_trips_through_json() {
    let log = sample_log();
    let text = muffin_json::to_string(&log);
    let back: TraceLog = muffin_json::from_str(&text).expect("parse");
    assert_eq!(back, log);
    assert_eq!(back.version, TRACE_LOG_VERSION);
    // And a second encode is byte-identical (deterministic writer).
    assert_eq!(muffin_json::to_string(&back), text);
}

#[test]
fn every_field_value_variant_round_trips() {
    for value in [
        FieldValue::Int { v: -3 },
        FieldValue::Int { v: i64::MAX },
        FieldValue::Num { v: 0.1 },
        FieldValue::Num { v: f64::NAN }, // written as null, decoded as NaN
        FieldValue::Text {
            v: "with \"quotes\" and \\".into(),
        },
    ] {
        let text = muffin_json::to_string(&value);
        let back: FieldValue = muffin_json::from_str(&text).expect("parse");
        match (&value, &back) {
            (FieldValue::Num { v: a }, FieldValue::Num { v: b }) if a.is_nan() => {
                assert!(b.is_nan());
            }
            _ => assert_eq!(back, value),
        }
    }
}

#[test]
fn save_and_load_round_trip_on_disk() {
    let log = sample_log();
    let path = std::env::temp_dir().join("muffin_trace_roundtrip.json");
    log.save_json(&path).expect("save");
    let back = TraceLog::load_json(&path).expect("load");
    assert_eq!(back, log);
    std::fs::remove_file(path).ok();
}

#[test]
fn malformed_log_reports_line_and_column() {
    let path = std::env::temp_dir().join("muffin_trace_malformed.json");
    std::fs::write(&path, "{\n  \"version\": 1,\n  \"events\": [,]\n}").expect("write");
    let msg = TraceLog::load_json(&path).unwrap_err();
    assert!(msg.contains("line 3"), "missing line in: {msg}");
    assert!(msg.contains("column"), "missing column in: {msg}");
    std::fs::remove_file(path).ok();
}

#[test]
fn stripped_logs_of_two_identical_workloads_are_byte_identical() {
    let run = |pause_us: u64| {
        let tracer = Tracer::capturing();
        for i in 0..4u64 {
            let mut span = tracer.span("work.step");
            span.field("i", i as usize);
            // Different wall-clock per run; identical payloads.
            std::thread::sleep(Duration::from_micros(pause_us * (i + 1)));
        }
        tracer.count("work.items", 4);
        tracer.observe("work.io", Duration::from_micros(pause_us + 1));
        tracer.finish()
    };
    let a = run(50);
    let b = run(350);
    assert_ne!(
        muffin_json::to_string(&a),
        muffin_json::to_string(&b),
        "raw logs should differ in timing"
    );
    assert_eq!(
        muffin_json::to_string(&a.stripped()),
        muffin_json::to_string(&b.stripped()),
        "stripped logs must be byte-identical"
    );
}

#[test]
fn noop_tracer_yields_an_empty_log_that_round_trips() {
    let log = Tracer::noop().finish();
    assert!(log.events.is_empty());
    let back: TraceLog = muffin_json::from_str(&muffin_json::to_string(&log)).expect("parse");
    assert_eq!(back, log);
}
