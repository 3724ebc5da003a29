use crate::event::{EventData, Field, FieldValue, Timing, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of log2-scaled histogram buckets. Bucket 0 holds observations
/// of exactly 0 µs; bucket `b` (b ≥ 1) holds `[2^(b-1), 2^b)` µs, and the
/// last bucket absorbs everything from ~18 minutes up.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The bucket an observation of `us` microseconds lands in: the number of
/// significant bits, clamped into the fixed bucket range. Deterministic —
/// the same observation always lands in the same bucket.
fn bucket_index(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `b` in microseconds.
fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Inclusive upper bound of bucket `b` in microseconds (the last bucket is
/// open-ended; callers clamp to the observed maximum).
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        (1u64 << b) - 1
    }
}

#[derive(Debug, Default)]
struct HistogramState {
    count: u64,
    total_us: u64,
    min_us: u64,
    max_us: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramState {
    fn observe_us(&mut self, us: u64) {
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.buckets[bucket_index(us)] += 1;
    }

    fn merge(&mut self, other: &HistogramState) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min_us = other.min_us;
            self.max_us = other.max_us;
        } else {
            self.min_us = self.min_us.min(other.min_us);
            self.max_us = self.max_us.max(other.max_us);
        }
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            total_us: self.total_us,
            min_us: self.min_us,
            max_us: self.max_us,
            buckets: self.buckets,
        }
    }
}

/// A point-in-time copy of one named duration histogram: summary stats
/// plus the log2-scaled bucket counts, with percentile estimation.
///
/// Obtained from [`Tracer::histogram`] (e.g. by a load generator building
/// a latency report) or reconstructed implicitly by [`Tracer::finish`],
/// which stamps `percentile_us(0.50)` / `percentile_us(0.99)` into the
/// emitted histogram event's `Timing`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations in microseconds.
    pub total_us: u64,
    /// Smallest observation in microseconds.
    pub min_us: u64,
    /// Largest observation in microseconds.
    pub max_us: u64,
    /// Observation counts per log2 bucket; bucket `b ≥ 1` covers
    /// `[2^(b-1), 2^b)` µs and bucket 0 holds zero-duration observations.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.total_us / self.count
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in microseconds.
    ///
    /// Walks the buckets to the observation of rank `ceil(q · count)` and
    /// interpolates linearly by rank inside that bucket, then clamps the
    /// estimate into `[min_us, max_us]` so a one-element histogram reports
    /// its single observation exactly. Integer arithmetic only — the same
    /// bucket contents always yield the same estimate.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = bucket_lo(b);
                let hi = bucket_hi(b).min(self.max_us).max(lo);
                let into = rank - seen; // 1-based rank within this bucket
                let est = lo as u128 + (hi - lo) as u128 * into as u128 / n as u128;
                return (est as u64).clamp(self.min_us, self.max_us);
            }
            seen += n;
        }
        self.max_us
    }
}

#[derive(Debug, Default)]
struct State {
    events: Vec<TraceEvent>,
    seq: u64,
    depth: u32,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramState>,
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    state: Mutex<State>,
}

/// A structured, hermetic tracer: spans, counters, duration histograms
/// and a verbosity-gated progress channel.
///
/// The **no-op tracer** ([`Tracer::noop`], also [`Default`]) records
/// nothing, prints nothing, and adds only a branch per call site, so
/// instrumented code behaves identically with tracing off — the
/// workspace's determinism contract (`SearchOutcome` bytes are unchanged
/// by tracing, because a tracer never touches any RNG).
///
/// A **capturing tracer** ([`Tracer::capturing`]) accumulates
/// [`TraceEvent`]s; [`Tracer::finish`] drains them (appending one
/// `Counter` and one `Histogram` summary event per name, sorted) into a
/// [`TraceLog`] whose wall-clock measurements live only in the isolated
/// [`Timing`] field.
///
/// Handles are cheap clones sharing one buffer, and every method takes
/// `&self`, so a tracer can be threaded through nested calls freely. For
/// work fanned out across threads, [`Tracer::fork`] + [`Tracer::absorb`]
/// keep the event **order** deterministic: each job records into its own
/// fork and the caller absorbs the forks in job order.
///
/// # Example
///
/// ```
/// use muffin_trace::Tracer;
///
/// let tracer = Tracer::capturing();
/// {
///     let mut span = tracer.span("work.step");
///     span.field("items", 3usize);
/// }
/// tracer.count("work.cache_hit", 1);
/// let log = tracer.finish();
/// assert_eq!(log.events.len(), 2);
/// assert_eq!(log.events[0].name, "work.step");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
    /// Whether progress lines go to stderr (the CLI's `--verbose`).
    verbose: bool,
}

impl Tracer {
    /// The no-op tracer: captures nothing, prints nothing.
    pub fn noop() -> Self {
        Self::default()
    }

    /// A tracer that records events.
    pub fn capturing() -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
            verbose: false,
        }
    }

    /// Enables (or disables) progress lines on stderr.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Whether progress lines are emitted at all.
    pub fn verbose(&self) -> bool {
        self.verbose
    }

    /// Whether events are being captured.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Emits a progress line through the verbosity gate. The closure runs
    /// only when the gate is open, so quiet runs pay no formatting cost.
    pub fn progress(&self, msg: impl FnOnce() -> String) {
        if self.verbose {
            eprintln!("{}", msg());
        }
    }

    /// Opens a span. The returned guard records a `Span` event when
    /// dropped (or when [`Span::finish`] is called); attach payload with
    /// [`Span::field`]. On a no-op tracer the guard is inert.
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        let inner = self.shared.as_ref().map(|shared| {
            let depth = {
                let mut state = shared.state.lock().expect("tracer poisoned");
                let depth = state.depth;
                state.depth += 1;
                depth
            };
            SpanInner {
                name: name.into(),
                start: Instant::now(),
                depth,
                fields: Vec::new(),
            }
        });
        Span {
            tracer: self,
            inner,
        }
    }

    /// Records a completed span whose duration was measured elsewhere
    /// (e.g. on a worker thread) — the deterministic way to log
    /// concurrent work: measure on the worker, record in job order on the
    /// calling thread.
    pub fn record_span(&self, name: impl Into<String>, fields: Vec<Field>, took: Duration) {
        let Some(shared) = &self.shared else { return };
        let took_us = duration_us(took);
        let now_us = duration_us(shared.epoch.elapsed());
        let mut state = shared.state.lock().expect("tracer poisoned");
        let depth = state.depth;
        push_event(
            &mut state,
            name.into(),
            depth,
            EventData::Span { fields },
            Timing {
                start_us: now_us.saturating_sub(took_us),
                duration_us: took_us,
                ..Timing::zero()
            },
        );
    }

    /// Adds `delta` to the named counter. Counters are aggregated and
    /// emitted as one `Counter` event each by [`Tracer::finish`].
    pub fn count(&self, name: &str, delta: u64) {
        let Some(shared) = &self.shared else { return };
        let mut state = shared.state.lock().expect("tracer poisoned");
        match state.counters.get_mut(name) {
            Some(total) => *total += delta,
            None => {
                state.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of a counter (0 when absent) — for assertions.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.shared
            .as_ref()
            .map(|shared| {
                let state = shared.state.lock().expect("tracer poisoned");
                state.counters.get(name).copied().unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Adds one observation to the named duration histogram. Aggregation
    /// (count / total / min / max) is order-insensitive, so observations
    /// may safely come from worker threads; summaries are emitted by
    /// [`Tracer::finish`].
    pub fn observe(&self, name: &str, took: Duration) {
        let Some(shared) = &self.shared else { return };
        let us = duration_us(took);
        let mut state = shared.state.lock().expect("tracer poisoned");
        match state.histograms.get_mut(name) {
            Some(hist) => hist.observe_us(us),
            None => {
                let mut hist = HistogramState::default();
                hist.observe_us(us);
                state.histograms.insert(name.to_string(), hist);
            }
        }
    }

    /// A snapshot of the named histogram's current state (buckets and
    /// summary stats), or `None` on a no-op tracer or before the first
    /// observation. Lets callers read percentiles mid-run without
    /// draining the tracer.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let shared = self.shared.as_ref()?;
        let state = shared.state.lock().expect("tracer poisoned");
        state.histograms.get(name).map(HistogramState::snapshot)
    }

    /// Number of events recorded so far (excluding pending counter and
    /// histogram summaries).
    pub fn events_recorded(&self) -> usize {
        self.shared
            .as_ref()
            .map(|shared| shared.state.lock().expect("tracer poisoned").events.len())
            .unwrap_or(0)
    }

    /// A child tracer for one unit of concurrent work: capturing if and
    /// only if `self` captures, never verbose. Record into the fork on
    /// the worker, then pass it to [`Tracer::absorb`] in a deterministic
    /// order on the calling thread.
    pub fn fork(&self) -> Tracer {
        if self.is_enabled() {
            Tracer::capturing()
        } else {
            Tracer::noop()
        }
    }

    /// Merges a fork's recordings into this tracer: events are appended
    /// in the fork's order (re-sequenced, depths offset by the current
    /// depth), counters and histograms merge into the aggregates.
    pub fn absorb(&self, fork: &Tracer) {
        let (Some(shared), Some(child)) = (&self.shared, &fork.shared) else {
            return;
        };
        let mut child_state = std::mem::take(&mut *child.state.lock().expect("tracer poisoned"));
        let mut state = shared.state.lock().expect("tracer poisoned");
        let base_depth = state.depth;
        for event in child_state.events.drain(..) {
            let depth = base_depth + event.depth;
            push_event(&mut state, event.name, depth, event.data, event.timing);
        }
        for (name, value) in child_state.counters {
            match state.counters.get_mut(&name) {
                Some(total) => *total += value,
                None => {
                    state.counters.insert(name, value);
                }
            }
        }
        for (name, hist) in child_state.histograms {
            match state.histograms.get_mut(&name) {
                Some(existing) => existing.merge(&hist),
                None => {
                    state.histograms.insert(name, hist);
                }
            }
        }
    }

    /// Drains everything recorded into a [`TraceLog`]: the events in
    /// record order, then one `Counter` event per counter and one
    /// `Histogram` event per histogram (each sorted by name, so the log
    /// is deterministic). The tracer is empty afterwards.
    ///
    /// A no-op tracer yields an empty log.
    pub fn finish(&self) -> TraceLog {
        let Some(shared) = &self.shared else {
            return TraceLog::new(Vec::new());
        };
        let mut state = shared.state.lock().expect("tracer poisoned");
        let mut drained = std::mem::take(&mut *state);
        drop(state);
        for (name, value) in std::mem::take(&mut drained.counters) {
            push_event(
                &mut drained,
                name,
                0,
                EventData::Counter { value },
                Timing::zero(),
            );
        }
        for (name, hist) in std::mem::take(&mut drained.histograms) {
            let snap = hist.snapshot();
            push_event(
                &mut drained,
                name,
                0,
                EventData::Histogram { count: hist.count },
                Timing {
                    start_us: 0,
                    duration_us: hist.total_us,
                    min_us: hist.min_us,
                    max_us: hist.max_us,
                    p50_us: snap.percentile_us(0.50),
                    p99_us: snap.percentile_us(0.99),
                },
            );
        }
        TraceLog::new(drained.events)
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn push_event(state: &mut State, name: String, depth: u32, data: EventData, timing: Timing) {
    let seq = state.seq;
    state.seq += 1;
    state.events.push(TraceEvent {
        seq,
        name,
        depth,
        data,
        timing,
    });
}

struct SpanInner {
    name: String,
    start: Instant,
    depth: u32,
    fields: Vec<Field>,
}

/// Guard for an open span; see [`Tracer::span`].
pub struct Span<'a> {
    tracer: &'a Tracer,
    inner: Option<SpanInner>,
}

impl Span<'_> {
    /// Attaches a deterministic payload field to the span.
    pub fn field(&mut self, name: impl Into<String>, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push(Field::new(name, value));
        }
    }

    /// Closes the span now (otherwise it closes on drop).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let Some(shared) = &self.tracer.shared else {
            return;
        };
        let took_us = duration_us(inner.start.elapsed());
        // `duration_since` saturates to zero if the span somehow predates
        // the tracer epoch.
        let start_us = duration_us(inner.start.duration_since(shared.epoch));
        let mut state = shared.state.lock().expect("tracer poisoned");
        state.depth = state.depth.saturating_sub(1);
        push_event(
            &mut state,
            inner.name,
            inner.depth,
            EventData::Span {
                fields: inner.fields,
            },
            Timing {
                start_us,
                duration_us: took_us,
                ..Timing::zero()
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_records_and_prints_nothing() {
        let tracer = Tracer::noop();
        {
            let mut span = tracer.span("a");
            span.field("x", 1usize);
        }
        tracer.count("c", 5);
        tracer.observe("h", Duration::from_micros(10));
        tracer.progress(|| panic!("progress closure must not run when quiet"));
        assert!(!tracer.is_enabled());
        assert!(!tracer.verbose());
        assert_eq!(tracer.events_recorded(), 0);
        let log = tracer.finish();
        assert!(log.events.is_empty());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let tracer = Tracer::capturing();
        {
            let _outer = tracer.span("outer");
            {
                let _inner = tracer.span("inner");
            }
        }
        let log = tracer.finish();
        // Spans close inner-first.
        assert_eq!(log.events[0].name, "inner");
        assert_eq!(log.events[0].depth, 1);
        assert_eq!(log.events[1].name, "outer");
        assert_eq!(log.events[1].depth, 0);
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
    }

    #[test]
    fn counters_aggregate_and_emit_sorted() {
        let tracer = Tracer::capturing();
        tracer.count("b.second", 1);
        tracer.count("a.first", 2);
        tracer.count("b.second", 3);
        assert_eq!(tracer.counter_value("b.second"), 4);
        let log = tracer.finish();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].name, "a.first");
        assert_eq!(log.events[0].data, EventData::Counter { value: 2 });
        assert_eq!(log.events[1].name, "b.second");
        assert_eq!(log.events[1].data, EventData::Counter { value: 4 });
    }

    #[test]
    fn histograms_track_count_min_max_total() {
        let tracer = Tracer::capturing();
        tracer.observe("h", Duration::from_micros(10));
        tracer.observe("h", Duration::from_micros(30));
        tracer.observe("h", Duration::from_micros(20));
        let log = tracer.finish();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].data, EventData::Histogram { count: 3 });
        assert_eq!(log.events[0].timing.min_us, 10);
        assert_eq!(log.events[0].timing.max_us, 30);
        assert_eq!(log.events[0].timing.duration_us, 60);
    }

    #[test]
    fn bucket_index_is_log2_scaled_and_clamped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_lo(b)), b, "lower bound of {b}");
            assert_eq!(bucket_index(bucket_hi(b)), b, "upper bound of {b}");
        }
    }

    #[test]
    fn bucket_counts_sum_to_observation_count() {
        let tracer = Tracer::capturing();
        for us in [0u64, 1, 7, 100, 5_000, 5_000, 1_000_000] {
            tracer.observe("h", Duration::from_micros(us));
        }
        let snap = tracer.histogram("h").expect("snapshot");
        assert_eq!(snap.count, 7);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        assert_eq!(snap.buckets[0], 1, "one zero-duration observation");
        assert_eq!(snap.buckets[bucket_index(5_000)], 2);
    }

    #[test]
    fn percentiles_are_bounded_and_ordered() {
        let tracer = Tracer::capturing();
        for us in 1..=1000u64 {
            tracer.observe("h", Duration::from_micros(us));
        }
        let snap = tracer.histogram("h").expect("snapshot");
        let p50 = snap.percentile_us(0.50);
        let p99 = snap.percentile_us(0.99);
        assert!(snap.min_us <= p50 && p50 <= p99 && p99 <= snap.max_us);
        // Log buckets quantise, but the estimates must stay in the right
        // ballpark: the true p50 is 500, inside bucket [256, 511].
        assert!((256..=511).contains(&p50), "p50 estimate {p50}");
        assert!(p99 >= 512, "p99 estimate {p99}");
        assert_eq!(snap.percentile_us(0.0), snap.min_us);
        assert_eq!(snap.percentile_us(1.0), snap.max_us);
    }

    #[test]
    fn single_observation_reports_itself_at_every_percentile() {
        let tracer = Tracer::capturing();
        tracer.observe("h", Duration::from_micros(37));
        let snap = tracer.histogram("h").expect("snapshot");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.percentile_us(q), 37, "q={q}");
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_none_and_zero_count_percentile_is_zero() {
        let tracer = Tracer::capturing();
        assert!(tracer.histogram("missing").is_none());
        assert!(Tracer::noop().histogram("h").is_none());
        let empty = HistogramSnapshot {
            count: 0,
            total_us: 0,
            min_us: 0,
            max_us: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(empty.percentile_us(0.5), 0);
    }

    #[test]
    fn absorb_merges_histogram_buckets() {
        let tracer = Tracer::capturing();
        tracer.observe("h", Duration::from_micros(10));
        let fork = tracer.fork();
        fork.observe("h", Duration::from_micros(10));
        fork.observe("h", Duration::from_micros(100_000));
        tracer.absorb(&fork);
        let snap = tracer.histogram("h").expect("snapshot");
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[bucket_index(10)], 2);
        assert_eq!(snap.buckets[bucket_index(100_000)], 1);
        assert_eq!(snap.max_us, 100_000);
    }

    #[test]
    fn finish_stamps_percentiles_into_histogram_timing() {
        let tracer = Tracer::capturing();
        for us in [10u64, 20, 30, 40, 1_000] {
            tracer.observe("h", Duration::from_micros(us));
        }
        let expected = tracer.histogram("h").expect("snapshot");
        let log = tracer.finish();
        let event = &log.events[0];
        assert_eq!(event.timing.p50_us, expected.percentile_us(0.50));
        assert_eq!(event.timing.p99_us, expected.percentile_us(0.99));
        assert!(event.timing.p50_us >= 10 && event.timing.p99_us <= 1_000);
        // stripped() zeroes the percentile fields with the rest of Timing.
        let stripped = log.stripped();
        assert_eq!(stripped.events[0].timing.p50_us, 0);
        assert_eq!(stripped.events[0].timing.p99_us, 0);
    }

    #[test]
    fn finish_drains_the_tracer() {
        let tracer = Tracer::capturing();
        tracer.count("c", 1);
        tracer.observe("h", Duration::from_micros(1));
        assert_eq!(tracer.finish().events.len(), 2);
        assert_eq!(tracer.finish().events.len(), 0);
    }

    #[test]
    fn fork_and_absorb_merge_deterministically() {
        let tracer = Tracer::capturing();
        let _guard = tracer.span("parent");
        let forks: Vec<Tracer> = (0..3).map(|_| tracer.fork()).collect();
        for (i, fork) in forks.iter().enumerate() {
            fork.record_span(
                format!("job{i}"),
                vec![Field::new("i", i)],
                Duration::from_micros(5),
            );
            fork.count("jobs", 1);
            fork.observe("job_us", Duration::from_micros(i as u64 + 1));
        }
        // Absorb out of completion order is irrelevant: the caller picks
        // the order.
        for fork in &forks {
            tracer.absorb(fork);
        }
        drop(_guard);
        assert_eq!(tracer.counter_value("jobs"), 3);
        let log = tracer.finish();
        let names: Vec<&str> = log.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["job0", "job1", "job2", "parent", "jobs", "job_us"]
        );
        // Fork events are nested under the open parent span.
        assert_eq!(log.events[0].depth, 1);
        let hist = log.events.iter().find(|e| e.name == "job_us").unwrap();
        assert_eq!(hist.data, EventData::Histogram { count: 3 });
        assert_eq!(hist.timing.min_us, 1);
        assert_eq!(hist.timing.max_us, 3);
    }

    #[test]
    fn fork_of_noop_is_noop() {
        let tracer = Tracer::noop();
        let fork = tracer.fork();
        assert!(!fork.is_enabled());
        fork.count("c", 1);
        tracer.absorb(&fork);
        assert_eq!(tracer.finish().events.len(), 0);
    }

    #[test]
    fn quiet_capturing_tracer_never_formats_progress() {
        let quiet = Tracer::capturing().with_verbose(false);
        assert!(!quiet.verbose());
        quiet.progress(|| panic!("must not format when quiet"));
    }

    #[test]
    fn clones_share_the_buffer() {
        let tracer = Tracer::capturing();
        let clone = tracer.clone();
        clone.count("shared", 2);
        assert_eq!(tracer.counter_value("shared"), 2);
        let _span = clone.span("from-clone");
        drop(_span);
        assert_eq!(tracer.events_recorded(), 1);
    }

    #[test]
    fn record_span_uses_current_depth() {
        let tracer = Tracer::capturing();
        let guard = tracer.span("outer");
        tracer.record_span("measured", Vec::new(), Duration::from_micros(7));
        drop(guard);
        let log = tracer.finish();
        assert_eq!(log.events[0].name, "measured");
        assert_eq!(log.events[0].depth, 1);
        assert_eq!(log.events[0].timing.duration_us, 7);
    }
}
