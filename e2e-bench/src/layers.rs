//! The traced run: per-layer metrics of one workload.
//!
//! The workload runs under a capturing [`Tracer`]; the program's own spans
//! and counters give the search-side layers. The benchmark's timers
//! around public calls give the rest, including two replicas that re-run
//! recorded work through public APIs and check it against the trace: the
//! controller replayed from the search seed, and the best candidate's head
//! re-trained from its `head_seed` with every step timed.

use crate::pipeline::{
    batches, check_same_outcome, prepare, search_call, serving_structure, WorkDir, Workload,
    SEARCH_SEED, SERVE_BATCH, WORKERS,
};
use crate::report::Report;
use crate::stats::{median, percentile, Ratio};
use muffin::{
    BodyOutputCache, EpisodeRecord, EvalCacheFile, MuffinSearch, RnnController, SearchCheckpoint,
    SearchFingerprint, SearchOutcome, Tracer, CHECKPOINT_VERSION,
};
use muffin_nn::{one_hot, weighted_mse_loss, LossKind, Mlp, MlpCache, Optimizer, Parameterized};
use muffin_serve::{serve_scoped, ServeConfig};
use muffin_tensor::{Matrix, Rng64};
use muffin_trace::{EventData, FieldValue, TraceEvent};
use std::time::{Duration, Instant};

/// Repetitions of each timed persistence call.
const PERSIST_REPEATS: usize = 5;
/// Gradient-norm clip of `ClassifierTrainer::new`, which head training
/// uses (with the default SGD settings); the replica must match both to
/// match the loss.
const GRAD_CLIP: f32 = 5.0;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Durations in microseconds of the spans named `name` among `events`.
fn span_us(events: &[TraceEvent], name: &str) -> Vec<f64> {
    events
        .iter()
        .filter(|e| e.name == name && matches!(e.data, EventData::Span { .. }))
        .map(|e| e.timing.duration_us as f64)
        .collect()
}

/// Median of `values`, or NaN (which marks the run incorrect) for none.
fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(values)
    }
}

/// The search-side counters one search call moves.
const COUNTERS: [&str; 4] = [
    "search.cache_hit",
    "search.cache_miss",
    "fusing.body_cache_hit",
    "fusing.body_cache_miss",
];

fn counters(tracer: &Tracer) -> [u64; 4] {
    COUNTERS.map(|name| tracer.counter_value(name))
}

/// The controller replayed from the search seed: per-call timings, whether
/// it sampled exactly the recorded actions, and its final state.
struct ControllerReplay {
    sample_us: Vec<f64>,
    update_us: Vec<f64>,
    matches: bool,
    controller: RnnController,
    rng: Rng64,
    seed_stream_seed: u64,
}

/// Replays the search loop's controller calls: the controller takes the
/// search RNG first, one draw seeds the head-seed stream, then each
/// REINFORCE batch is sampled whole and updated once with the recorded
/// rewards.
fn replay_controller(search: &MuffinSearch, outcome: &SearchOutcome) -> ControllerReplay {
    let mut rng = Rng64::seed(SEARCH_SEED);
    let controller = RnnController::new(search.space(), search.config().controller, &mut rng);
    let seed_stream_seed = rng.next_u64();
    let mut replay = ControllerReplay {
        sample_us: Vec::new(),
        update_us: Vec::new(),
        matches: true,
        controller,
        rng,
        seed_stream_seed,
    };
    for batch in outcome.history.chunks(search.config().reinforce_batch) {
        let mut pending = Vec::with_capacity(batch.len());
        for record in batch {
            let start = Instant::now();
            let sampled = replay.controller.sample(&mut replay.rng);
            replay.sample_us.push(us(start.elapsed()));
            replay.matches &= sampled.actions == record.actions;
            pending.push((sampled, record.reward));
        }
        let start = Instant::now();
        replay.controller.update_batch(&pending);
        replay.update_us.push(us(start.elapsed()));
    }
    replay
}

/// Per-epoch time of each step of head training, and the final loss.
struct HeadReplay {
    /// Per epoch, microseconds in: row gather, forward, loss, backward,
    /// optimizer step (with gradient clipping).
    phases_us: [Vec<f64>; 5],
    final_loss: f32,
}

/// Re-trains `record`'s head exactly as the search did — same inputs from
/// the body-output cache, same `head_seed`, same epochs, batches, shuffle
/// and update rule — through public `nn` calls, timing each step.
fn replay_head(search: &MuffinSearch, record: &EpisodeRecord) -> Result<HeadReplay, String> {
    let config = &search.config().head;
    if config.loss != LossKind::WeightedMse {
        return Err(format!(
            "the replica trains WeightedMse heads, not {:?}",
            config.loss
        ));
    }
    let candidate = search
        .space()
        .decode(&record.actions)
        .map_err(|e| e.to_string())?;
    let train = &search.split().train;
    let proxy = search.proxy();
    let bodies = BodyOutputCache::new(search.pool(), train.features().select_rows(proxy.indices()));
    let x = bodies.head_inputs(&candidate.model_indices);
    let labels: Vec<usize> = proxy.indices().iter().map(|&i| train.labels()[i]).collect();
    let weights = proxy.weights();
    let num_classes = search
        .pool()
        .get(candidate.model_indices[0])
        .ok_or("candidate names no pool model")?
        .num_classes();

    let mut rng = Rng64::seed(record.head_seed);
    let spec = candidate
        .head
        .to_mlp_spec(num_classes * candidate.model_indices.len(), num_classes);
    let mut mlp = Mlp::new(&spec, &mut rng);
    let targets = one_hot(&labels, num_classes);
    let mut optimizer = Optimizer::sgd(Default::default());
    let mut indices: Vec<usize> = (0..x.rows()).collect();
    let mut cache = MlpCache::new();
    let (mut bx, mut bt) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut bw: Vec<f32> = Vec::new();
    let mut phases_us: [Vec<f64>; 5] = Default::default();
    let mut final_loss = f32::NAN;
    for epoch in 0..config.epochs {
        rng.shuffle(&mut indices);
        let lr = config.schedule.at(epoch);
        let mut spent = [Duration::ZERO; 5];
        let mut epoch_loss = 0.0f32;
        let mut steps = 0u32;
        for chunk in indices.chunks(config.batch_size) {
            let t0 = Instant::now();
            x.select_rows_into(chunk, &mut bx);
            bw.clear();
            bw.extend(chunk.iter().map(|&i| weights[i]));
            if bw.iter().sum::<f32>() <= 0.0 {
                spent[0] += t0.elapsed();
                continue;
            }
            targets.select_rows_into(chunk, &mut bt);
            let t1 = Instant::now();
            mlp.forward_train_into(&bx, &mut cache);
            let t2 = Instant::now();
            let (loss, grad) = weighted_mse_loss(cache.logits(), &bt, &bw);
            let t3 = Instant::now();
            mlp.zero_grad();
            mlp.backward_in_place(&mut cache, &grad);
            let t4 = Instant::now();
            mlp.clip_grad_norm(GRAD_CLIP);
            optimizer.step(&mut mlp, lr);
            let t5 = Instant::now();
            for (slot, (from, to)) in
                spent
                    .iter_mut()
                    .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5)])
            {
                *slot += to - from;
            }
            epoch_loss += loss;
            steps += 1;
        }
        for (phase, took) in phases_us.iter_mut().zip(spent) {
            phase.push(us(took));
        }
        final_loss = if steps > 0 {
            epoch_loss / steps as f32
        } else {
            0.0
        };
    }
    Ok(HeadReplay {
        phases_us,
        final_loss,
    })
}

/// The `final_loss` the search recorded for `record`'s head: the `k`-th
/// `fusing.train_head` span of the search call that trained it, where `k`
/// is the record's position among distinct candidates (heads are trained,
/// and their spans absorbed, in first-seen order).
fn recorded_final_loss(
    events: &[TraceEvent],
    outcome: &SearchOutcome,
    record: &EpisodeRecord,
) -> Option<f32> {
    let k = outcome
        .distinct()
        .iter()
        .position(|r| r.actions == record.actions)?;
    let span = events
        .iter()
        .filter(|e| e.name == "fusing.train_head")
        .nth(k)?;
    match span.field("final_loss")? {
        FieldValue::Num { v } => Some(*v as f32),
        _ => None,
    }
}

/// Runs `workload` once under a capturing tracer and reports per-layer
/// metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let budget = Duration::from_secs(seconds);
    let mut report = Report::default();
    let work = WorkDir::create(&format!("{}-traced", workload.name()))?;
    let tracer = Tracer::capturing();

    let prepared = prepare(seed, workload, &tracer)?;
    let mut search = prepared.search;

    // The search, traced; then untraced and traced calls alternate for the
    // tracing-overhead row.
    let before = counters(&tracer);
    let call_start = tracer.events_recorded();
    let (outcome, first_traced) = search_call(&search)?;
    let call_end = tracer.events_recorded();
    let delta: Vec<u64> = counters(&tracer)
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect();
    let mut traced_s = vec![first_traced.as_secs_f64()];
    let mut untraced_s = Vec::new();
    let mut reproduced = Ok(());
    let overhead_start = Instant::now();
    while untraced_s.is_empty() || overhead_start.elapsed() < budget / 2 {
        search = search.with_tracer(Tracer::noop());
        let (again, took) = search_call(&search)?;
        untraced_s.push(took.as_secs_f64());
        reproduced = reproduced.and(check_same_outcome(&outcome, &again));
        search = search.with_tracer(tracer.clone());
        traced_s.push(search_call(&search)?.1.as_secs_f64());
    }
    report.check("untraced searches reproduce the traced outcome", reproduced);
    let predict_p50 = tracer
        .histogram("fusing.predict_batch")
        .map_or(f64::NAN, |h| h.percentile_us(0.5) as f64);
    let log = tracer.finish();
    let call = &log.events[call_start..call_end];

    report.metric("data.generate_ms", ms(prepared.generate), "ms");
    report.metric("models.train_backbone_ms", ms(prepared.train_pool), "ms");
    let val = search.split().val.features();
    let mut forward_ms = Vec::new();
    for _ in 0..PERSIST_REPEATS {
        let start = Instant::now();
        for model in search.pool().iter() {
            std::hint::black_box(model.outputs(val));
        }
        forward_ms.push(ms(start.elapsed()));
    }
    report.metric("models.body_forward_ms", median(&forward_ms), "ms");
    report.metric("core.search_new_ms", ms(prepared.search_new), "ms");

    // Head training and reward evaluation: counts cover the first search,
    // per-span medians every traced search of the run.
    report.metric(
        "fusing.heads_trained",
        span_us(call, "fusing.train_head").len() as f64,
        "count",
    );
    report.metric(
        "fusing.train_head_ms_p50",
        median_or_nan(&span_us(&log.events, "fusing.train_head")) / 1e3,
        "ms",
    );
    report.metric("nn.epochs", span_us(call, "nn.epoch").len() as f64, "count");
    report.metric(
        "nn.epoch_us_p50",
        median_or_nan(&span_us(&log.events, "nn.epoch")),
        "us",
    );

    let best = outcome.best();
    let head = replay_head(&search, best)?;
    let recorded = recorded_final_loss(call, &outcome, best);
    let head_verified = recorded.is_some_and(|r| r.to_bits() == head.final_loss.to_bits());
    report.note(format!(
        "head replica: final loss {} vs recorded {:?}: {}",
        head.final_loss,
        recorded,
        if head_verified {
            "verified"
        } else {
            "UNVERIFIED, nn.* step times unverified"
        }
    ));
    for (name, phase) in [
        "nn.gather_us",
        "nn.forward_us",
        "nn.loss_us",
        "nn.backward_us",
        "nn.optim_us",
    ]
    .into_iter()
    .zip(&head.phases_us)
    {
        report.metric(name, median_or_nan(phase), "us");
    }
    report.metric(
        "nn.replica_verified",
        f64::from(u8::from(head_verified)),
        "flag",
    );
    report.metric("fusing.predict_batch_us_p50", predict_p50, "us");

    let mut replay = replay_controller(&search, &outcome);
    report.note(format!(
        "controller replay: {}",
        if replay.matches {
            "verified"
        } else {
            "UNVERIFIED, controller.* times unverified"
        }
    ));
    report.metric("controller.sample_us_p50", median(&replay.sample_us), "us");
    report.metric("controller.update_us_p50", median(&replay.update_us), "us");
    report.metric(
        "controller.replay_verified",
        f64::from(u8::from(replay.matches)),
        "flag",
    );

    // Caches and the worker pool, over the search call.
    let episodes = outcome.history.len() as u64;
    let cache_hit = Ratio {
        part: delta[0],
        base: delta[0] + delta[1],
    };
    let body_hit = Ratio {
        part: delta[2],
        base: delta[2] + delta[3],
    };
    report.note(format!("search.cache_hit_ratio {cache_hit}"));
    report.note(format!("fusing.body_cache_hit_ratio {body_hit}"));
    report.metric("search.cache_hit_ratio", cache_hit.value(), "ratio");
    report.metric("fusing.body_cache_hit_ratio", body_hit.value(), "ratio");
    let eval_us: f64 = span_us(call, "search.episode").iter().sum();
    let batch_us: f64 = span_us(call, "search.batch").iter().sum();
    report.metric(
        "par.worker_idle_frac",
        1.0 - eval_us / (WORKERS as f64 * batch_us),
        "ratio",
    );

    // Persistence: the calls a checkpoint of this search's final state
    // makes, replicated and timed.
    let space = search.space();
    let mut fingerprint_ms = Vec::new();
    let mut fingerprint = None;
    for _ in 0..PERSIST_REPEATS {
        let start = Instant::now();
        fingerprint = Some(SearchFingerprint::new(
            Rng64::seed(SEARCH_SEED).state(),
            search.config(),
            &space,
            &muffin_json::to_string(search.pool()),
            search.pool().manifest(),
            &muffin_json::to_string(search.split()),
        ));
        fingerprint_ms.push(ms(start.elapsed()));
    }
    let fingerprint = fingerprint.expect("at least one fingerprint");
    let mut cached: Vec<EpisodeRecord> = outcome
        .distinct()
        .into_iter()
        .map(|r| EpisodeRecord {
            episode: r.first_seen,
            ..r.clone()
        })
        .collect();
    cached.sort_by(|a, b| a.actions.cmp(&b.actions));
    let checkpoint = SearchCheckpoint {
        version: CHECKPOINT_VERSION,
        fingerprint: fingerprint.clone(),
        target_episodes: search.config().episodes,
        episode: episodes as u32,
        rng_state: replay.rng.state(),
        seed_stream_seed: replay.seed_stream_seed,
        controller: replay.controller.export_state(),
        history: outcome.history.clone(),
        cache: cached.clone(),
        exchanges_applied: 0,
    };
    let replica_path = work.file("checkpoint.json");
    let mut save_ms = Vec::new();
    for _ in 0..PERSIST_REPEATS {
        let start = Instant::now();
        checkpoint.save(&replica_path).map_err(|e| e.to_string())?;
        save_ms.push(ms(start.elapsed()));
    }
    let replica_bytes = std::fs::metadata(&replica_path)
        .map_err(|e| e.to_string())?
        .len();
    let cache_path = work.file("eval-cache.json");
    EvalCacheFile {
        version: CHECKPOINT_VERSION,
        fingerprint: fingerprint.clone(),
        records: cached,
    }
    .save(&cache_path)
    .map_err(|e| e.to_string())?;
    let mut load_ms = Vec::new();
    for _ in 0..PERSIST_REPEATS {
        let start = Instant::now();
        EvalCacheFile::load_warm(&cache_path, &fingerprint, false).map_err(|e| e.to_string())?;
        load_ms.push(ms(start.elapsed()));
    }
    report.metric("checkpoint.bytes", replica_bytes as f64, "bytes");
    report.metric("checkpoint.save_ms", median(&save_ms), "ms");
    report.metric("checkpoint.fingerprint_ms", median(&fingerprint_ms), "ms");
    report.metric("checkpoint.eval_cache_load_ms", median(&load_ms), "ms");

    // Serving: the split of a `SERVE_BATCH`-row batch into body forward and
    // head plus gating, then a closed-loop session (1 client, 1 worker).
    let (fusing, engine) = serving_structure(&search, seed)?;
    let test = search.split().test.features();
    let expected = fusing.predict(search.pool(), test);
    let mut body_us = Vec::new();
    let mut head_us = Vec::new();
    let mut calls = 0u64;
    let mut wrong = 0u64;
    let start = Instant::now();
    while body_us.is_empty() || start.elapsed() < budget / 8 {
        for range in batches(test, SERVE_BATCH) {
            let t0 = Instant::now();
            let bodies = BodyOutputCache::new(search.pool(), test.row_range(range.clone()));
            for &m in fusing.model_indices() {
                bodies.probs(m);
            }
            let t1 = Instant::now();
            let got = fusing.try_predict_cached(&bodies);
            head_us.push(us(t1.elapsed()));
            body_us.push(us(t1 - t0));
            calls += 1;
            wrong += u64::from(!got.is_ok_and(|got| got[..] == expected[range]));
        }
    }
    report.metric("serve.body_forward_us", median(&body_us), "us");
    report.metric("serve.head_gate_us", median(&head_us), "us");

    // The p99 of a 1-row request sits where timer interrupts start to hit
    // requests (about 1% of ~10 µs requests at 1000 Hz), so it swings from
    // run to run; it is reported here rather than gating.
    let mut request_us = Vec::new();
    let start = Instant::now();
    let mut row = 0;
    while request_us.is_empty() || start.elapsed() < budget / 8 {
        let request = test.row_range(row..row + 1);
        let sent = Instant::now();
        let got = engine.predict_batch(request);
        request_us.push(us(sent.elapsed()));
        calls += 1;
        wrong += u64::from(!got.is_ok_and(|got| got == expected[row..row + 1]));
        row = (row + 1) % test.rows();
    }
    let request_p99 = percentile(&request_us, 0.99);
    report.note(format!(
        "1-row requests: {} samples, {} beyond p99{}",
        request_p99.samples,
        request_p99.beyond,
        if request_p99.is_supported() {
            ""
        } else {
            " (fewer than 10: unsupported)"
        }
    ));
    report.metric("serve.request_p99_us", request_p99.value, "us");

    let session = ServeConfig {
        queue_depth: 64,
        max_batch: SERVE_BATCH,
        workers: 1,
        worker_delay: Duration::ZERO,
    };
    let (latencies_us, stats) = serve_scoped(&engine, &session, &Tracer::noop(), |client| {
        let mut latencies_us = Vec::new();
        let start = Instant::now();
        let mut row = 0;
        while latencies_us.is_empty() || start.elapsed() < budget / 8 {
            let sent = Instant::now();
            let got = client.request(test.row(row));
            latencies_us.push(us(sent.elapsed()));
            calls += 1;
            wrong += u64::from(got != Ok(expected[row]));
            row = (row + 1) % test.rows();
        }
        latencies_us
    });
    report.ops(calls, wrong);
    let p99 = percentile(&latencies_us, 0.99);
    report.note(format!(
        "closed loop: {} requests, {} beyond p99, {} batches, {} shed, {} errors",
        p99.samples, p99.beyond, stats.batches, stats.shed, stats.errors
    ));
    report.metric(
        "serve.closed_loop_p50_us",
        percentile(&latencies_us, 0.5).value,
        "us",
    );
    report.metric("serve.closed_loop_p99_us", p99.value, "us");
    report.metric(
        "serve.mean_batch",
        stats.completed as f64 / stats.batches.max(1) as f64,
        "requests",
    );

    let traced = median(&traced_s);
    let untraced = median(&untraced_s);
    report.note(format!(
        "trace overhead: traced {traced:.4} s vs untraced {untraced:.4} s over {} and {} calls",
        traced_s.len(),
        untraced_s.len()
    ));
    report.metric(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );
    Ok(report)
}
