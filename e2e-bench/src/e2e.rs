//! The untraced run: end-to-end metrics of one workload, with tracing off.
//!
//! The host this benchmark was built on is shared: while another tenant
//! runs on the sibling hardware thread, the same code runs 1.5–2× slower,
//! in phases of a tenth of a second to many seconds, and the share of slow
//! time ranges from almost none to almost all of a run. Any central
//! statistic of a run's samples then follows that share, and a decile on
//! either side jumps to the other level in runs with little time on its
//! side. Each timed quantity is therefore sampled many times, in short
//! units spread over the run, searches and scoring interleaved, and
//! reported as its fastest sample: the least time or latency, the highest
//! rate: the program's speed on the quietest core the run saw, which it
//! reaches as long as a single sample falls in a quiet moment. How quiet
//! that is still drifts over tens of minutes with the host's tenants.

use crate::pipeline::{
    self, batches, check_history, check_rebuild, check_same_outcome, prepare, quality_search,
    search_call, serving_structure, Check, Workload, QUALITY_EPISODES, SERVE_BATCH,
};
use crate::report::Report;
use crate::stats::{median, percentile, quartiles};
use muffin::{SearchOutcome, Tracer};
use muffin_serve::ServeEngine;
use muffin_tensor::Matrix;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Length of one scoring window, half batches and half 1-row requests:
/// short enough that quiet moments hold whole windows, long enough for
/// thousands of requests, so that its p95 has over a hundred beyond it.
const WINDOW: Duration = Duration::from_millis(50);

/// The fastest of a run's times or latencies.
fn fastest_time(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The fastest of a run's rates.
fn fastest_rate(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Scoring measurements over the test split, one entry per window.
#[derive(Default)]
struct Scoring {
    /// Per window: test rows scored per second in `SERVE_BATCH`-row
    /// batches.
    rows_per_s: Vec<f64>,
    /// Per window: median latency of a 1-row `predict_batch`, in µs.
    p50_us: Vec<f64>,
    /// Per window: 95th-percentile latency of a 1-row `predict_batch`.
    p95_us: Vec<f64>,
    /// 1-row requests timed.
    requests: usize,
    /// Fewest 1-row requests beyond the p95 of any window.
    min_beyond_p95: Option<usize>,
    /// `predict_batch` calls made.
    calls: u64,
    /// Calls that errored or disagreed with `FusingStructure::predict`.
    failed: u64,
    /// Next row a 1-row request sends.
    row: usize,
}

impl Scoring {
    /// One window: half its time in passes over `features` in
    /// `SERVE_BATCH`-row batches, half in single-row requests. Every answer
    /// is compared with `expected`.
    fn window(&mut self, engine: &ServeEngine, features: &Matrix, expected: &[usize]) {
        let window = Instant::now();
        let mut rows = 0;
        while rows == 0 || window.elapsed() < WINDOW / 2 {
            for range in batches(features, SERVE_BATCH) {
                let got = engine.predict_batch(features.row_range(range.clone()));
                self.answer(got, &expected[range]);
            }
            rows += features.rows();
        }
        self.rows_per_s
            .push(rows as f64 / window.elapsed().as_secs_f64());

        let mut latencies_us = Vec::new();
        while latencies_us.is_empty() || window.elapsed() < WINDOW {
            let row = self.row;
            let request = features.row_range(row..row + 1);
            let sent = Instant::now();
            let got = engine.predict_batch(request);
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            self.answer(got, &expected[row..row + 1]);
            self.row = (row + 1) % features.rows();
        }
        let p95 = percentile(&latencies_us, 0.95);
        self.p50_us.push(percentile(&latencies_us, 0.50).value);
        self.p95_us.push(p95.value);
        self.requests += latencies_us.len();
        self.min_beyond_p95 = Some(
            self.min_beyond_p95
                .map_or(p95.beyond, |b| b.min(p95.beyond)),
        );
    }

    fn answer(&mut self, got: Result<Vec<usize>, muffin::MuffinError>, want: &[usize]) {
        self.calls += 1;
        if !got.is_ok_and(|got| got == want) {
            self.failed += 1;
        }
    }
}

/// Folds a check over several outcomes into one, naming the first failure.
fn check_all(outcomes: &[SearchOutcome], check: impl Fn(&SearchOutcome) -> Check) -> Check {
    for (i, outcome) in outcomes.iter().enumerate() {
        check(outcome).map_err(|e| format!("search {i}: {e}"))?;
    }
    Ok(())
}

/// `name: n=… min … p10 … q1 … median … q3 … p90 … max …` for a sample
/// set.
fn summary(name: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{name}: n={} min {min:.6} p10 {:.6} q1 {q1:.6} median {:.6} q3 {q3:.6} p90 {:.6} max {max:.6}",
        samples.len(),
        percentile(samples, 0.1).value,
        median(samples),
        percentile(samples, 0.9).value,
    )
}

/// Runs `workload` untraced for about `seconds` and reports its
/// end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let budget = Duration::from_secs(seconds);
    let mut report = Report::default();

    // Set-up, repeated: generate → split → train pool → MuffinSearch::new
    // → train the served structure.
    let mut setup_secs = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let search = prepare(seed, workload, &Tracer::noop())?.search;
        let served = serving_structure(&search, seed)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        setup = Some((search, served));
    }
    let (search, (fusing, engine)) = setup.expect("at least one set-up");
    let test = search.split().test.features();
    let expected = fusing.predict(search.pool(), test);

    // Searches, each followed by scoring windows for the workload's share
    // of its duration.
    let mut search_secs = Vec::new();
    let mut outcomes = Vec::new();
    let mut scoring = Scoring::default();
    let start = Instant::now();
    while outcomes.is_empty() || start.elapsed() < budget {
        let (outcome, took) = search_call(&search)?;
        report.ops(1, 0);
        search_secs.push(took.as_secs_f64());
        outcomes.push(outcome);
        let scoring_for = took.mul_f64(workload.scoring_per_search());
        let scoring_start = Instant::now();
        scoring.window(&engine, test, &expected);
        while scoring_start.elapsed() < scoring_for {
            scoring.window(&engine, test, &expected);
        }
    }

    // The quality guard, untimed: one longer search on the same data.
    let long = quality_search(&search, workload)?;
    let (quality, _) = search_call(&long)?;
    report.ops(1, 0);

    let episodes = workload.config().episodes;
    report.check(
        "history length equals the budget and best is the reward argmax",
        check_all(&outcomes, |o| check_history(o, episodes))
            .and(check_history(&quality, QUALITY_EPISODES)),
    );
    report.check(
        "repeated searches are byte-identical",
        check_all(&outcomes, |o| check_same_outcome(&outcomes[0], o)),
    );
    report.check(
        "rebuild(best) reproduces the recorded accuracy and every U bit-for-bit",
        check_rebuild(&long, quality.best()),
    );
    report.ops(scoring.calls, scoring.failed);
    report.note(format!(
        "scoring: {} predict_batch calls, {} failed or differing from FusingStructure::predict",
        scoring.calls, scoring.failed
    ));
    report.note(format!(
        "1-row requests: {} in {} windows, at least {} beyond each window's p95",
        scoring.requests,
        scoring.p95_us.len(),
        scoring.min_beyond_p95.unwrap_or(0)
    ));
    let best = quality.best();
    report.note(format!(
        "{QUALITY_EPISODES}-episode search: best {} head {} reward {} (episode {}), mean reward {}, {} distinct candidates, proxy {} samples",
        best.model_names.join("+"),
        best.head_desc,
        best.reward,
        best.first_seen,
        quality.history.iter().map(|r| f64::from(r.reward)).sum::<f64>() / f64::from(QUALITY_EPISODES),
        quality.distinct().len(),
        long.proxy().len()
    ));
    report.note(summary("set-up s", &setup_secs));
    report.note(summary("search s", &search_secs));
    report.note(summary("window rows/s", &scoring.rows_per_s));
    report.note(summary("window p50 us", &scoring.p50_us));
    report.note(summary("window p95 us", &scoring.p95_us));

    report.metric("setup_s", median(&setup_secs), "s");
    report.metric("search_s", fastest_time(&search_secs), "s");
    report.metric("best_reward", f64::from(best.reward), "reward");
    report.metric(
        "score_rows_per_s",
        fastest_rate(&scoring.rows_per_s),
        "rows/s",
    );
    report.metric("request_p50_us", fastest_time(&scoring.p50_us), "us");
    report.metric("request_p95_us", fastest_time(&scoring.p95_us), "us");
    report.metric(
        "peak_rss_mb",
        pipeline::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    Ok(report)
}
