//! The pipeline every workload runs — generate, split, train the pool,
//! prepare the search, search, rebuild, score — plus the correctness
//! checks on its outputs.

use muffin::{
    Candidate, EpisodeRecord, FusingStructure, HeadSpec, MuffinSearch, ScenarioRegistry,
    SearchConfig, SearchOutcome, Tracer, WorkerPool,
};
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_nn::Activation;
use muffin_serve::ServeEngine;
use muffin_tensor::{Matrix, Rng64};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Attributes the search makes fair (the paper's ISIC pair).
pub const TARGETS: [&str; 2] = ["age", "site"];
/// REINFORCE batch `m`: episodes reach the worker pool, and the
/// controller's update, four at a time (the CLI default is 1).
pub const REINFORCE_BATCH: usize = 4;
/// Search worker threads, on either workload. With two, a search waits
/// for the slower core at every batch and slows whenever either core's
/// host neighbour is busy: over two ten-seed sets, the fastest
/// two-worker `search-cold` search of a run spread 0.15 and 0.27
/// (interquartile range over median).
pub const WORKERS: usize = 1;
/// Episodes of one search, on either workload: one REINFORCE batch, so
/// that a run holds dozens of searches and some fall in quiet moments of
/// the host (see `e2e.rs`).
pub const EPISODES: u32 = 4;
/// Episodes of the untimed search whose best reward the untraced run
/// reports. The best reward follows the generated data: over two sets of
/// ten data seeds it spread 0.15 and 0.24 (interquartile range over
/// median) for one-batch searches, 0.15 and 0.15 for 48-episode ones.
pub const QUALITY_EPISODES: u32 = 48;
/// Rows per scoring batch: the serving layer's default `max_batch`.
pub const SERVE_BATCH: usize = 16;
/// Seed of every search's RNG (controller and head seeds). The run seed
/// generates the data; the search seed is fixed so that the candidates a
/// search samples, and with them its cost, are the same in every run:
/// 16-episode searches from different seeds on one dataset took 1.3–2.7 s.
pub const SEARCH_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// The four-model pool every workload trains.
pub fn architectures() -> Vec<Architecture> {
    vec![
        Architecture::resnet18(),
        Architecture::densenet121(),
        Architecture::mobilenet_v2(),
        Architecture::shufflenet_v2_x1_0(),
    ]
}

/// One benchmark workload. Both run the whole pipeline; they differ in
/// the head training a search does and in how the run's time is split
/// between searching and scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Searches that train every head they sample with the paper's
    /// 60-epoch configuration; scoring takes a third of the run.
    Cold,
    /// Scoring with a fused structure; short fast-config searches on one
    /// worker take a fifth of the run.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Cold, Workload::Serve];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "search-cold",
            Workload::Serve => "serve-fused",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scoring time per unit of search time.
    pub fn scoring_per_search(self) -> f64 {
        match self {
            Workload::Cold => 0.5,
            Workload::Serve => 4.0,
        }
    }

    /// The configuration of the workload's searches.
    ///
    /// The controller's learning rate is zero: it still samples, and
    /// computes and applies every REINFORCE update, but its policy stays at
    /// its seeded initial state. The candidates a search trains then depend
    /// on the search seed alone, not on rewards from the run's data, so
    /// every run does the same work. With a learning policy a
    /// 24-episode budget took 2.1–3.9 s across data seeds.
    pub fn config(self) -> SearchConfig {
        let mut config = match self {
            Workload::Cold => SearchConfig::paper(&TARGETS),
            Workload::Serve => SearchConfig::fast(&TARGETS),
        };
        config.controller.learning_rate = 0.0;
        config
            .with_episodes(EPISODES)
            .with_reinforce_batch(REINFORCE_BATCH)
    }
}

/// A prepared search and what preparing it cost, per layer.
pub struct Prepared {
    /// The search, ready to run.
    pub search: MuffinSearch,
    /// Dataset generation.
    pub generate: Duration,
    /// Pool training.
    pub train_pool: Duration,
    /// `MuffinSearch::new`: privilege inference and proxy build.
    pub search_new: Duration,
}

/// Generates the builtin `isic` scenario from `seed`, splits it, trains
/// the pool and prepares the workload's search, recording into `tracer`.
pub fn prepare(seed: u64, workload: Workload, tracer: &Tracer) -> Result<Prepared, String> {
    let scenario = ScenarioRegistry::builtin("isic").ok_or("builtin scenario `isic` is missing")?;
    let mut rng = Rng64::seed(seed);
    let start = Instant::now();
    let dataset = scenario.generator().generate(&mut rng);
    let generate = start.elapsed();
    let split = dataset.split_default(&mut rng);
    let start = Instant::now();
    let pool = ModelPool::train_traced(
        &split.train,
        &architectures(),
        &BackboneConfig::fast(),
        &mut rng,
        tracer,
    );
    let train_pool = start.elapsed();
    let start = Instant::now();
    let search = MuffinSearch::new(pool, split, workload.config()).map_err(|e| e.to_string())?;
    let search_new = start.elapsed();
    Ok(Prepared {
        search: search.with_tracer(tracer.clone()),
        generate,
        train_pool,
        search_new,
    })
}

/// `search`'s pool and split under a `QUALITY_EPISODES` budget.
pub fn quality_search(search: &MuffinSearch, workload: Workload) -> Result<MuffinSearch, String> {
    let config = workload.config().with_episodes(QUALITY_EPISODES);
    MuffinSearch::new(search.pool().clone(), search.split().clone(), config)
        .map_err(|e| e.to_string())
}

/// Runs one search on `WORKERS` threads and times it.
pub fn search_call(search: &MuffinSearch) -> Result<(SearchOutcome, Duration), String> {
    let pool = WorkerPool::new(WORKERS);
    let mut rng = Rng64::seed(SEARCH_SEED);
    let start = Instant::now();
    let outcome = search
        .run_with_pool(&mut rng, &pool)
        .map_err(|e| format!("search failed: {e}"))?;
    Ok((outcome, start.elapsed()))
}

/// The structure every workload scores with: the pool's two largest
/// models under the paper's example head, a fixed point of the search
/// space trained on the run's proxy data from `head_seed`.
///
/// The shape is pinned because serving cost follows the shape, and the
/// shape a search picks changes with the data: over five seeds the chosen
/// structures scored 213k–408k rows/s, a spread no run length removes.
pub fn serving_structure(
    search: &MuffinSearch,
    head_seed: u64,
) -> Result<(FusingStructure, ServeEngine), String> {
    let candidate = Candidate {
        model_indices: vec![0, 1],
        head: HeadSpec::new(vec![16, 18, 12, 8], Activation::Relu),
    };
    let (fusing, _) = search
        .evaluate_candidate(&candidate, &search.split().val, head_seed)
        .map_err(|e| format!("training the served structure failed: {e}"))?;
    let engine = ServeEngine::new(
        search.pool().clone(),
        fusing.clone(),
        search.split().test.feature_dim(),
    );
    Ok((fusing, engine))
}

/// A directory for scratch files, removed on drop.
pub struct WorkDir {
    dir: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<name>-<pid>` under the working directory.
    pub fn create(name: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// A file in the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
        // Removes the parent too once no other run is using it.
        if let Some(parent) = self.dir.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Outcome of a correctness check: `Err` names what went wrong.
pub type Check = Result<(), String>;

/// The history holds one record per budgeted episode and `best_by_reward`
/// is the first record of maximal reward.
pub fn check_history(outcome: &SearchOutcome, episodes: u32) -> Check {
    if outcome.history.len() != episodes as usize {
        return Err(format!(
            "history holds {} records for a budget of {episodes}",
            outcome.history.len()
        ));
    }
    let argmax = outcome.history.iter().enumerate().fold(0, |best, (i, r)| {
        if r.reward > outcome.history[best].reward {
            i
        } else {
            best
        }
    });
    if outcome.best_by_reward != argmax {
        return Err(format!(
            "best_by_reward is {} but the reward argmax is {argmax}",
            outcome.best_by_reward
        ));
    }
    Ok(())
}

/// `rebuild(record)`, re-evaluated on the validation split, reproduces the
/// recorded accuracy and every target attribute's unfairness bit-for-bit.
pub fn check_rebuild(search: &MuffinSearch, record: &EpisodeRecord) -> Check {
    let fusing = search
        .rebuild(record)
        .map_err(|e| format!("rebuild failed: {e}"))?;
    let eval = fusing.evaluate(search.pool(), &search.split().val);
    if eval.accuracy.to_bits() != record.accuracy.to_bits() {
        return Err(format!(
            "rebuilt accuracy {} differs from the recorded {}",
            eval.accuracy, record.accuracy
        ));
    }
    for (name, &recorded) in search
        .config()
        .target_attributes
        .iter()
        .zip(&record.unfairness)
    {
        let u = eval.attribute(name).map_or(f32::NAN, |a| a.unfairness);
        if u.to_bits() != recorded.to_bits() {
            return Err(format!(
                "rebuilt U_{name} {u} differs from the recorded {recorded}"
            ));
        }
    }
    Ok(())
}

/// Two outcomes serialise to the same bytes.
pub fn check_same_outcome(a: &SearchOutcome, b: &SearchOutcome) -> Check {
    if muffin_json::to_string(a) == muffin_json::to_string(b) {
        Ok(())
    } else {
        Err("outcomes differ".into())
    }
}

/// Contiguous row ranges of at most `rows` rows covering `features`.
pub fn batches(features: &Matrix, rows: usize) -> Vec<std::ops::Range<usize>> {
    (0..features.rows())
        .step_by(rows)
        .map(|start| start..(start + rows).min(features.rows()))
        .collect()
}
