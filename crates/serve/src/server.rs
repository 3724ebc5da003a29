use crate::engine::non_finite;
use crate::ServeEngine;
use muffin_par::BoundedQueue;
use muffin_tensor::Matrix;
use muffin_trace::Tracer;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Why a request did not get an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full: the request was shed immediately.
    /// The caller may retry; the server never blocks it.
    Overloaded,
    /// The server shut down before replying.
    Closed,
    /// The request itself is malformed (wrong feature width or a NaN or
    /// infinite feature).
    InvalidRequest(String),
    /// The engine failed on the batch containing this request.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "overloaded: admission queue full, request shed"),
            ServeError::Closed => write!(f, "server closed before replying"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving-loop configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission queue capacity; a push into a full queue is shed.
    pub queue_depth: usize,
    /// Maximum requests coalesced into one fused forward pass.
    pub max_batch: usize,
    /// Long-lived worker threads draining the queue.
    pub workers: usize,
    /// Artificial per-batch service delay — zero in production, nonzero in
    /// tests and load drills to force queue buildup and load shedding.
    pub worker_delay: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            max_batch: 16,
            workers: 2,
            worker_delay: Duration::ZERO,
        }
    }
}

/// Atomic counters shared by clients and workers; read out as a
/// [`ServeStatsSnapshot`] when the session ends.
#[derive(Debug, Default)]
struct ServeStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
}

impl ServeStats {
    fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

/// End-of-session admission statistics.
///
/// `submitted == completed + shed + errors` once [`serve_scoped`] returns:
/// every accepted request is answered (workers drain the closed queue
/// before exiting) and every rejected one was counted where it failed.
/// Batch count and shed totals depend on thread scheduling, which is why
/// they live here and in the loadgen report rather than in the
/// deterministic trace event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStatsSnapshot {
    /// Requests that passed validation and attempted admission.
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests rejected because the admission queue was full.
    pub shed: u64,
    /// Requests answered with an error (bad width, a non-finite feature
    /// or an engine failure).
    pub errors: u64,
    /// Fused forward passes run (each serving 1..=max_batch requests).
    pub batches: u64,
}

/// One admitted request: the feature row, its enqueue instant (for the
/// `serve.request` latency histogram) and the reply channel.
struct Job {
    sample: Vec<f32>,
    enqueued: Instant,
    reply: mpsc::Sender<Result<usize, ServeError>>,
}

/// Handle the `client_fn` of [`serve_scoped`] uses to submit requests.
/// Shareable across client threads (`&ServeClient` is `Send + Sync`).
pub struct ServeClient<'a> {
    queue: &'a BoundedQueue<Job>,
    stats: &'a ServeStats,
    num_features: usize,
}

impl ServeClient<'_> {
    /// Submits one sample and blocks until its batch is served.
    ///
    /// # Errors
    ///
    /// * [`ServeError::InvalidRequest`] — wrong feature width or a NaN or
    ///   infinite feature (counted as an error, never enqueued, so it
    ///   cannot fail the batch it would have joined).
    /// * [`ServeError::Overloaded`] — admission queue full; the request
    ///   was shed without blocking and the shed counter incremented.
    /// * [`ServeError::Internal`] — the engine rejected the batch.
    /// * [`ServeError::Closed`] — the session ended before a reply.
    pub fn request(&self, sample: &[f32]) -> Result<usize, ServeError> {
        if sample.len() != self.num_features {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::InvalidRequest(format!(
                "expected {} features, got {}",
                self.num_features,
                sample.len()
            )));
        }
        if let Some(c) = non_finite(sample) {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::InvalidRequest(format!(
                "feature {c} is {}, features must be finite",
                sample[c]
            )));
        }
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            sample: sample.to_vec(),
            enqueued: Instant::now(),
            reply: tx,
        };
        if self.queue.try_push(job).is_err() {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        match rx.recv() {
            Ok(result) => result,
            // The worker dropped the sender without replying — only
            // possible if the whole session is tearing down.
            Err(_) => Err(ServeError::Closed),
        }
    }

    /// Feature width every request must have.
    pub fn num_features(&self) -> usize {
        self.num_features
    }
}

/// Runs a serving session: spawns `config.workers` long-lived worker
/// threads over a bounded admission queue, hands `client_fn` a
/// [`ServeClient`], and tears the session down when `client_fn` returns —
/// the queue closes, workers drain every already-admitted request, reply,
/// and exit.
///
/// Workers record one `serve.request` histogram observation per completed
/// request into `tracer`; see the crate docs for the determinism contract.
///
/// Returns `client_fn`'s result plus the final admission statistics.
pub fn serve_scoped<R, F>(
    engine: &ServeEngine,
    config: &ServeConfig,
    tracer: &Tracer,
    client_fn: F,
) -> (R, ServeStatsSnapshot)
where
    F: FnOnce(&ServeClient<'_>) -> R,
{
    let queue = BoundedQueue::new(config.queue_depth);
    let stats = ServeStats::default();
    let result = std::thread::scope(|scope| {
        // Closes the queue even if `client_fn` panics — otherwise the
        // workers would block on `pop` forever and the scope could never
        // join them to propagate the panic.
        struct CloseOnExit<'a>(&'a BoundedQueue<Job>);
        impl Drop for CloseOnExit<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let _close = CloseOnExit(&queue);
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| worker_loop(engine, config, &queue, &stats, tracer));
        }
        let client = ServeClient {
            queue: &queue,
            stats: &stats,
            num_features: engine.num_features(),
        };
        client_fn(&client)
        // `_close` drops here: workers finish the admitted backlog, see
        // the drained+closed queue, and exit; the scope joins them.
    });
    (result, stats.snapshot())
}

/// One worker: block on the queue, coalesce up to `max_batch` requests,
/// run a single fused forward, reply to every request in the batch.
/// Exits when the queue is closed and drained.
fn worker_loop(
    engine: &ServeEngine,
    config: &ServeConfig,
    queue: &BoundedQueue<Job>,
    stats: &ServeStats,
    tracer: &Tracer,
) {
    let max_batch = config.max_batch.max(1);
    while let Some(first) = queue.pop() {
        let mut batch = vec![first];
        while batch.len() < max_batch {
            match queue.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        if !config.worker_delay.is_zero() {
            std::thread::sleep(config.worker_delay);
        }
        let mut features = Matrix::zeros(batch.len(), engine.num_features());
        for (r, job) in batch.iter().enumerate() {
            features.row_mut(r).copy_from_slice(&job.sample);
        }
        match engine.predict_batch(features) {
            Ok(preds) => {
                stats.batches.fetch_add(1, Ordering::Relaxed);
                for (job, class) in batch.into_iter().zip(preds) {
                    tracer.observe("serve.request", job.enqueued.elapsed());
                    stats.completed.fetch_add(1, Ordering::Relaxed);
                    // A client that gave up (channel dropped) is not an
                    // error for the server.
                    let _ = job.reply.send(Ok(class));
                }
            }
            Err(err) => {
                let msg = err.to_string();
                for job in batch {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(Err(ServeError::Internal(msg.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn demo() -> (ServeEngine, Matrix) {
        ServeEngine::demo(7)
    }

    #[test]
    fn served_answers_match_direct_batch_prediction() {
        let (engine, samples) = demo();
        let direct = engine
            .predict_batch(samples.row_range(0..16))
            .expect("direct");
        let config = ServeConfig {
            workers: 3,
            max_batch: 4,
            ..ServeConfig::default()
        };
        let samples = &samples;
        let (served, stats) = serve_scoped(&engine, &config, &Tracer::noop(), |client| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..16)
                    .map(|i| s.spawn(move || client.request(samples.row(i)).expect("served")))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Vec<usize>>()
            })
        });
        assert_eq!(served, direct, "batch coalescing changed an answer");
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.errors, 0);
        assert!(stats.batches >= 1 && stats.batches <= 16);
    }

    #[test]
    fn saturated_queue_sheds_immediately_instead_of_blocking_or_panicking() {
        let (engine, samples) = demo();
        // One slow worker, a one-slot queue, no coalescing: six requests
        // released simultaneously cannot all be admitted.
        let config = ServeConfig {
            queue_depth: 1,
            max_batch: 1,
            workers: 1,
            worker_delay: Duration::from_millis(200),
        };
        let clients = 6;
        let barrier = Barrier::new(clients);
        let samples = &samples;
        let ((), stats) = serve_scoped(&engine, &config, &Tracer::noop(), |client| {
            std::thread::scope(|s| {
                for _ in 0..clients {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        match client.request(samples.row(0)) {
                            Ok(_) | Err(ServeError::Overloaded) => {}
                            Err(other) => panic!("unexpected serve error: {other}"),
                        }
                    });
                }
            })
        });
        assert!(stats.shed >= 1, "no request was shed: {stats:?}");
        assert_eq!(
            stats.submitted,
            stats.completed + stats.shed,
            "a request vanished: {stats:?}"
        );
    }

    #[test]
    fn wrong_width_requests_get_an_error_reply_and_are_never_enqueued() {
        let (engine, samples) = demo();
        let ((), stats) = serve_scoped(
            &engine,
            &ServeConfig::default(),
            &Tracer::noop(),
            |client| {
                let err = client.request(&[1.0, 2.0]).unwrap_err();
                assert!(matches!(err, ServeError::InvalidRequest(_)), "{err}");
                // A well-formed request on the same session still works.
                client.request(samples.row(0)).expect("served");
            },
        );
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.submitted, 1, "invalid request must not be admitted");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn request_histogram_count_equals_completed_for_every_worker_count() {
        let (engine, samples) = demo();
        let samples = &samples;
        for workers in [1usize, 4] {
            let tracer = Tracer::capturing();
            let config = ServeConfig {
                workers,
                ..ServeConfig::default()
            };
            let ((), stats) = serve_scoped(&engine, &config, &tracer, |client| {
                std::thread::scope(|s| {
                    for c in 0..4 {
                        s.spawn(move || {
                            for i in 0..8 {
                                client.request(samples.row(8 * c + i)).expect("served");
                            }
                        });
                    }
                })
            });
            assert_eq!(stats.completed, 32);
            let snap = tracer.histogram("serve.request").expect("histogram");
            assert_eq!(snap.count, 32, "workers={workers}");
        }
    }
}
