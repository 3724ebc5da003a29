use crate::Args;
use muffin::{
    distill_student, summarize, DistillConfig, MuffinSearch, PersistenceOptions, SearchConfig,
    SearchOutcome, TextTable, TraceLog, Tracer, WorkerPool,
};
use muffin_data::{Dataset, FitzpatrickLike, IsicLike};
use muffin_models::{format_model_id, Architecture, BackboneConfig, ModelIdentity, ModelPool};
use muffin_serve::{run_loadgen, serve_scoped, LoadgenConfig, ServeConfig, ServeEngine};
use muffin_tensor::Rng64;
use std::time::Duration;

/// Usage text printed by `muffin help` and on argument errors.
pub const USAGE: &str = "\
muffin — multi-dimension AI fairness by uniting off-the-shelf models

USAGE:
  muffin <COMMAND> [--key value]...
  A flag the command does not take is rejected before any file is read,
  and every output path is checked before any training or search.

COMMANDS:
  generate    Generate a synthetic dataset
              --dataset isic|fitzpatrick (default isic)
              --samples N (default 8000)  --seed S (default 7)
              --out FILE (required)
  train-pool  Train and freeze an off-the-shelf model pool
              --data FILE (required)      --out FILE (required)
              --archs A,B,... (default: the full zoo)
              --epochs N (default 60)     --seed S (default 7)
              --split-seed S (default 7)
  evaluate    Evaluate every pool model on the test split
              --data FILE  --pool FILE (required)
              --split-seed S (default 7)
  pool list   Show every pool model with its content id
              --pool FILE (required)
  pool add    Train new models and append them to an existing pool
              --pool FILE  --data FILE  --archs A,B,... (required)
              --epochs N (default 60)     --seed S (default 7)
              --split-seed S (default 7)
              Appending keeps every existing model at its index. A
              checkpoint of the old pool is rejected, naming the added
              models: start a new search (see docs/OPERATIONS.md §11).
  pool remove Remove one model from a pool, by name or 16-hex content id
              --pool FILE  --model NAME|ID (required)
              --outcome FILE (optional: refuse to remove a model that the
                outcome's best fused candidate uses; the outcome file is
                never touched)
              Removal changes surviving models' indices: artifacts
              recorded against the old pool are rejected, naming the
              removed model by id.
  pool gc     Drop every model the outcome's best candidate does not use
              --pool FILE  --outcome FILE (required)
              --dry-run (print what would be removed, change nothing)
  search      Run the Muffin reinforcement-learning search
              --data FILE  --pool FILE (required)
              --attrs a,b (required)      --episodes N (default 150)
              --slots N (default 2)       --seed S (default 7)
              --split-seed S (default 7)  --out FILE (required)
              --batch M (default 1: Eq. 4 REINFORCE batch size; the
                controller updates once per M episodes)
              --workers N (default: available parallelism; candidate
                evaluations of each REINFORCE batch run on N threads —
                the outcome is identical for every N)
              --distill-out FILE (optional: distil the best candidate
                into a single student MLP and save it as JSON)
              --student-hidden w1,w2 (default 64,32; needs
                --distill-out)
              --trace-out FILE (optional: record a structured event log
                of the run — spans, counters, latency histograms — as
                deterministic JSON; timings live in an isolated field)
              --checkpoint FILE (optional: write a resumable snapshot of
                the run — RNG position, controller state, history and
                the evaluation cache — atomically at REINFORCE batch
                boundaries; pass it on any run you may extend)
              --checkpoint-every N (default 10, needs --checkpoint:
                minimum episodes between checkpoint writes; snapshots
                land on the next batch boundary, and the final state is
                always written)
              --resume (continue from --checkpoint instead of starting
                fresh; the resumed outcome is byte-identical to an
                uninterrupted run, at the same or a larger --episodes
                budget, and no candidate in the checkpoint is trained
                again. The checkpoint must match the run's seed, config,
                pool and data, or it is rejected; after `pool add` the
                rejection names each added model)
              --verbose (print progress lines to stderr; without it the
                run is silent apart from the result)
  matrix      Benchmark grid: one Muffin search per scenario × reward cell
              --scenarios a,b,... (required: registry names from
                `docs/SCENARIOS.md` — e.g. isic-intersect, adult-income —
                or paths to scenario JSON files)
              --rewards r,r,... (default paper,intersect; each of
                paper|linear[:lambda]|worst|intersect)
              --episodes N (default 12: search episodes per cell)
              --batch M (default 4)       --slots N (default 2)
              --samples N (default 1200 per scenario; 0 keeps each
                scenario's own default)
              --epochs N (default 6: backbone training epochs)
              --archs A,B,... (default ResNet-18,DenseNet121,MobileNet_V2)
              --seed S (default 7: folded with the scenario name and
                reward tag, so every cell is independently seeded)
              --workers N (default: available parallelism; cells run
                concurrently — the report bytes are identical for every N)
              --out-dir DIR (default results/matrix: writes matrix.json
                and a rendered matrix.md)
              --bench-out FILE (optional: per-cell wall-clock timings as
                a bench-suite JSON for scripts/bench-compare.sh; timings
                never enter matrix.json/matrix.md)
              --verbose (phase progress on stderr)
  serve       Serve the demo fused model over stdin, one request per line
              --seed S (default 7: demo pool/head training seed)
              Each input line is comma-separated feature values; each
              output line is `ok <class>` or `error: ...`, answered before
              the next line is read. EOF shuts the server down cleanly
              and prints admission statistics.
  loadgen     Closed-loop load generator against the demo fused model
              --seed S (default 7)        --clients N (default 4)
              --requests N (default 200: issued per client)
              --queue-depth N (default 64) --batch N (default 16)
              --workers N (default 2)
              --worker-delay-us N (default 0: artificial per-batch
                service delay, for load-shedding drills)
              --out FILE (optional: write the throughput/latency report
                as a bench-suite JSON that scripts/bench-compare.sh can
                diff and gate)
              --trace-out FILE (optional: record the serving event log;
                the serve.request histogram carries bucketed p50/p99)
              Shed requests are reported, never fatal: the exit code
              stays 0 under saturation.
  report      Summarise a saved search outcome
              --outcome FILE (required)   --top N (default 5)
  trace summarize
              Render a saved event log as a per-phase timing table
              --trace FILE (required)
  help        Print this message
";

/// A command's handler.
type Handler = fn(&Args) -> Result<(), String>;

/// Every command: its name, every flag its handler reads, and the handler.
/// [`run`] rejects any other flag before the handler starts.
const COMMANDS: &[(&str, &[&str], Handler)] = &[
    ("generate", &["dataset", "samples", "seed", "out"], generate),
    (
        "train-pool",
        &["data", "split-seed", "out", "archs", "epochs", "seed"],
        train_pool,
    ),
    ("evaluate", &["data", "split-seed", "pool"], evaluate),
    ("pool list", &["pool"], pool_list),
    (
        "pool add",
        &["pool", "data", "split-seed", "archs", "epochs", "seed"],
        pool_add,
    ),
    ("pool remove", &["pool", "model", "outcome"], pool_remove),
    ("pool gc", &["pool", "outcome", "dry-run"], pool_gc),
    (
        "search",
        &[
            "data",
            "pool",
            "split-seed",
            "attrs",
            "out",
            "episodes",
            "slots",
            "seed",
            "batch",
            "workers",
            "trace-out",
            "verbose",
            "checkpoint",
            "checkpoint-every",
            "resume",
            "distill-out",
            "student-hidden",
        ],
        search,
    ),
    (
        "matrix",
        &[
            "scenarios",
            "rewards",
            "episodes",
            "samples",
            "slots",
            "batch",
            "epochs",
            "seed",
            "workers",
            "out-dir",
            "bench-out",
            "verbose",
            "archs",
        ],
        crate::matrix::matrix,
    ),
    ("serve", &["seed"], serve),
    (
        "loadgen",
        &[
            "queue-depth",
            "batch",
            "workers",
            "worker-delay-us",
            "seed",
            "clients",
            "requests",
            "out",
            "trace-out",
            "verbose",
        ],
        loadgen,
    ),
    ("report", &["outcome", "top"], report),
    ("trace summarize", &["trace"], trace_summarize),
    ("help", &[], help),
];

/// Runs one CLI invocation.
///
/// All output goes to stdout; errors are returned as strings for `main`
/// to print on stderr. A flag the command does not read is rejected
/// before any file is read or written.
///
/// # Errors
///
/// Returns a human-readable message for any argument, IO or pipeline
/// failure.
pub fn run(args: &Args) -> Result<(), String> {
    let Some(&(_, flags, handler)) = COMMANDS.iter().find(|(name, ..)| *name == args.command())
    else {
        return Err(format!("unknown command: {}\n\n{USAGE}", args.command()));
    };
    args.reject_unknown_or_repeated(flags)?;
    handler(args)
}

fn help(_: &Args) -> Result<(), String> {
    println!("{USAGE}");
    Ok(())
}

/// Fails, naming the flag and the path, unless every given output path
/// can be written: commands call it once their arguments are valid and
/// before any training or search. It truncates nothing and leaves no file
/// behind: an existing file is only opened for appending, and a missing
/// one is created and removed again.
pub(crate) fn check_outputs(outputs: &[(&str, Option<&str>)]) -> Result<(), String> {
    use std::fs::OpenOptions;
    for &(flag, path) in outputs {
        let Some(path) = path else { continue };
        let probe = match OpenOptions::new().append(true).open(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(path)
                .and_then(|_| std::fs::remove_file(path)),
            opened => opened.map(drop),
        };
        probe.map_err(|e| format!("cannot write {flag} {path}: {e}"))?;
    }
    Ok(())
}

fn generate(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let samples = args.get_usize("samples", 8_000)?;
    if samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    let seed = args.get_u64("seed", 7)?;
    let name = args.get("dataset").unwrap_or("isic");
    if !["isic", "fitzpatrick"].contains(&name) {
        return Err(format!(
            "unknown dataset: {name} (expected isic|fitzpatrick)"
        ));
    }
    check_outputs(&[("--out", Some(out))])?;
    let mut rng = Rng64::seed(seed);
    let dataset = if name == "isic" {
        IsicLike::new().with_num_samples(samples).generate(&mut rng)
    } else {
        FitzpatrickLike::new()
            .with_num_samples(samples)
            .generate(&mut rng)
    };
    dataset.save_json(out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} samples, {} classes, attributes {:?} to {out}",
        dataset.len(),
        dataset.num_classes(),
        dataset.schema().attribute_names()
    );
    Ok(())
}

fn load_split(args: &Args) -> Result<(Dataset, muffin_data::DatasetSplit), String> {
    let data_path = args.require("data")?;
    let dataset = Dataset::load_json(data_path).map_err(|e| e.to_string())?;
    let split_seed = args.get_u64("split-seed", 7)?;
    let split = dataset.split_default(&mut Rng64::seed(split_seed));
    Ok((dataset, split))
}

fn train_pool(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let epochs = args.get_u32("epochs", 60)?;
    let seed = args.get_u64("seed", 7)?;

    let requested = args.get_list("archs");
    let architectures: Vec<Architecture> = if requested.is_empty() {
        Architecture::zoo()
    } else {
        requested
            .iter()
            .map(|name| {
                Architecture::by_name(name).ok_or_else(|| format!("unknown architecture: {name}"))
            })
            .collect::<Result<_, _>>()?
    };
    check_outputs(&[("--out", Some(out))])?;
    let (_, split) = load_split(args)?;

    let config = BackboneConfig::default().with_epochs(epochs);
    let mut rng = Rng64::seed(seed);
    let pool = ModelPool::train(&split.train, &architectures, &config, &mut rng);
    pool.save_json(out).map_err(|e| e.to_string())?;
    println!("trained and froze {} models into {out}", pool.len());
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), String> {
    let (dataset, split) = load_split(args)?;
    let (pool, path) = load_pool(args)?;
    check_pool_fits(&pool, &path, &dataset, args)?;
    let attr_names: Vec<String> = split
        .test
        .schema()
        .attribute_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut header = vec!["model".to_string(), "accuracy".to_string()];
    header.extend(attr_names.iter().map(|n| format!("U_{n}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for model in pool.iter() {
        let eval = model.evaluate(&split.test);
        let mut row = vec![eval.model.clone(), format!("{:.2}%", eval.accuracy * 100.0)];
        row.extend(
            eval.attributes
                .iter()
                .map(|a| format!("{:.4}", a.unfairness)),
        );
        table.row_owned(row);
    }
    println!("{table}");
    Ok(())
}

fn load_pool(args: &Args) -> Result<(ModelPool, String), String> {
    let path = args.require("pool")?.to_string();
    let pool = ModelPool::load_json(&path).map_err(|e| e.to_string())?;
    Ok((pool, path))
}

/// Fails unless every model of the pool loaded from `pool_path` reads the
/// features and predicts the classes of `dataset`, loaded from `--data`.
fn check_pool_fits(
    pool: &ModelPool,
    pool_path: &str,
    dataset: &Dataset,
    args: &Args,
) -> Result<(), String> {
    let data_path = args.require("data")?;
    pool.check_data(dataset)
        .map_err(|e| format!("pool {pool_path} does not fit data {data_path}: {e}"))
}

/// Resolves `--model NAME|ID` against a pool, returning the model's index
/// and identity. Names win over ids (a name can't be 16 hex digits of an
/// id by accident in practice, but the order makes lookups predictable).
fn find_pool_model(pool: &ModelPool, selector: &str) -> Result<(usize, ModelIdentity), String> {
    let manifest = pool.manifest();
    if let Some(entry) = manifest.by_name(selector) {
        let index = manifest
            .index_of_id(entry.id)
            .expect("entry comes from the manifest");
        return Ok((index, entry.clone()));
    }
    if selector.len() == 16 {
        if let Ok(id) = u64::from_str_radix(selector, 16) {
            if let Some(index) = manifest.index_of_id(id) {
                let entry = manifest.get(index).expect("index from the manifest");
                return Ok((index, entry.clone()));
            }
        }
    }
    Err(format!(
        "no pool model named {selector} (nor with that content id); try `muffin pool list`"
    ))
}

fn pool_list(args: &Args) -> Result<(), String> {
    let (pool, path) = load_pool(args)?;
    println!("{path}: {} model(s)", pool.len());
    let mut table = TextTable::new(&["index", "model", "id", "params"]);
    for (index, model) in pool.iter().enumerate() {
        let identity = model.identity();
        table.row_owned(vec![
            index.to_string(),
            identity.name,
            format_model_id(identity.id),
            model.reported_params().to_string(),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn pool_add(args: &Args) -> Result<(), String> {
    let (mut pool, path) = load_pool(args)?;
    let requested = args.get_list("archs");
    if requested.is_empty() {
        return Err("pool add requires --archs naming at least one architecture".into());
    }
    let architectures: Vec<Architecture> = requested
        .iter()
        .map(|name| {
            Architecture::by_name(name).ok_or_else(|| format!("unknown architecture: {name}"))
        })
        .collect::<Result<_, _>>()?;
    for arch in &architectures {
        if pool.by_name(arch.name()).is_some() {
            return Err(format!(
                "model {} is already in the pool; `pool remove` it first to retrain it",
                arch.name()
            ));
        }
    }
    let (dataset, split) = load_split(args)?;
    check_pool_fits(&pool, &path, &dataset, args)?;
    let epochs = args.get_u32("epochs", 60)?;
    let seed = args.get_u64("seed", 7)?;
    check_outputs(&[("--pool", Some(path.as_str()))])?;
    let config = BackboneConfig::default().with_epochs(epochs);
    let mut rng = Rng64::seed(seed);
    let trained = ModelPool::train(&split.train, &architectures, &config, &mut rng);
    let added: Vec<ModelIdentity> = trained.iter().map(|m| m.identity()).collect();
    pool.extend(trained.iter().cloned());
    pool.save_json(&path).map_err(|e| e.to_string())?;
    println!("appended {} model(s) to {path}:", added.len());
    for identity in &added {
        println!("  {identity}");
    }
    println!(
        "existing models kept their indices; checkpoints of the old pool are rejected: \
         start a new `muffin search`"
    );
    Ok(())
}

fn pool_remove(args: &Args) -> Result<(), String> {
    let (pool, path) = load_pool(args)?;
    let (index, identity) = find_pool_model(&pool, args.require("model")?)?;
    if let Some(outcome_path) = args.get("outcome") {
        let outcome = SearchOutcome::load_json(outcome_path)?;
        let best = outcome.best();
        if best.model_names.iter().any(|name| name == &identity.name) {
            return Err(format!(
                "refusing to remove {identity}: the best fused candidate in {outcome_path} \
                 unites {}",
                best.model_names.join(" + ")
            ));
        }
    }
    check_outputs(&[("--pool", Some(path.as_str()))])?;
    let remaining: ModelPool = pool
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != index)
        .map(|(_, model)| model.clone())
        .collect();
    remaining.save_json(&path).map_err(|e| e.to_string())?;
    println!(
        "removed {identity} from {path}; {} model(s) remain",
        remaining.len()
    );
    println!(
        "note: removal re-indexes the pool — artifacts recorded against the old pool \
         will be rejected naming this model"
    );
    Ok(())
}

fn pool_gc(args: &Args) -> Result<(), String> {
    let (pool, path) = load_pool(args)?;
    let outcome = SearchOutcome::load_json(args.require("outcome")?)?;
    let dry_run = args.get_flag("dry-run");
    if !dry_run {
        check_outputs(&[("--pool", Some(path.as_str()))])?;
    }
    let best = outcome.best();
    let garbage: Vec<ModelIdentity> = pool
        .iter()
        .filter(|model| !best.model_names.iter().any(|name| name == model.name()))
        .map(|model| model.identity())
        .collect();
    if garbage.is_empty() {
        println!("nothing to collect: the best candidate unites every pool model");
        return Ok(());
    }
    let verb = if dry_run { "would remove" } else { "removing" };
    println!(
        "{verb} {} model(s) not united by the best candidate ({}):",
        garbage.len(),
        best.model_names.join(" + ")
    );
    for identity in &garbage {
        println!("  {identity}");
    }
    if dry_run {
        return Ok(());
    }
    let kept: ModelPool = pool
        .iter()
        .filter(|model| best.model_names.iter().any(|name| name == model.name()))
        .cloned()
        .collect();
    kept.save_json(&path).map_err(|e| e.to_string())?;
    println!("{path}: {} model(s) remain", kept.len());
    Ok(())
}

fn search(args: &Args) -> Result<(), String> {
    // Validate every argument before loading any file, so bad flags fail
    // fast even when the inputs are large.
    let out = args.require("out")?;
    let attrs = args.get_list("attrs");
    if attrs.is_empty() {
        return Err("--attrs requires at least one attribute name".into());
    }
    let episodes = args.get_u32("episodes", 150)?;
    let slots = args.get_usize("slots", 2)?;
    if slots == 0 {
        return Err("--slots must be at least 1".into());
    }
    let seed = args.get_u64("seed", 7)?;
    let workers = args.get_usize("workers", muffin::available_parallelism())?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let batch = args.get_usize("batch", 1)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let distill_out = args.get("distill-out");
    let mut distill = DistillConfig::default();
    if let Some(v) = args.get("student-hidden") {
        if distill_out.is_none() {
            return Err("--student-hidden requires --distill-out".into());
        }
        distill.student_hidden = v
            .split(',')
            .map(|w| w.trim().parse().ok().filter(|&w: &usize| w > 0))
            .collect::<Option<_>>()
            .ok_or_else(|| format!("--student-hidden expects positive widths, got {v}"))?;
    }
    let trace_out = args.get("trace-out");
    let checkpoint = args.get("checkpoint");
    let checkpoint_every = args.get_u32("checkpoint-every", 10)?;
    let resume = args.get_flag("resume");
    if resume && checkpoint.is_none() {
        return Err("--resume requires --checkpoint".into());
    }
    if args.get("checkpoint-every").is_some() && checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint".into());
    }
    if let (true, Some(path)) = (resume, checkpoint) {
        if !std::path::Path::new(path).exists() {
            return Err(format!("cannot resume: checkpoint {path} does not exist"));
        }
    }
    check_outputs(&[
        ("--out", Some(out)),
        ("--trace-out", trace_out),
        ("--checkpoint", checkpoint),
        ("--distill-out", distill_out),
    ])?;

    let tracer = if trace_out.is_some() {
        Tracer::capturing()
    } else {
        Tracer::noop()
    }
    .with_verbose(args.get_flag("verbose"));

    let (dataset, split) = load_split(args)?;
    let (pool, pool_path) = load_pool(args)?;
    check_pool_fits(&pool, &pool_path, &dataset, args)?;

    let config = SearchConfig::paper(&attrs)
        .with_episodes(episodes)
        .with_slots(slots)
        .with_reinforce_batch(batch);

    let search = MuffinSearch::new(pool, split, config)
        .map_err(|e| e.to_string())?
        .with_tracer(tracer);
    search.tracer().progress(|| {
        format!(
            "proxy: {} unprivileged samples; space: {} steps; workers: {workers}",
            search.proxy().len(),
            search.space().num_steps()
        )
    });
    let persistence = PersistenceOptions {
        checkpoint: checkpoint.map(std::path::PathBuf::from),
        checkpoint_every,
        resume,
    };
    let outcome = search
        .run_persistent(
            &mut Rng64::seed(seed),
            &WorkerPool::new(workers),
            &persistence,
        )
        .map_err(|e| e.to_string())?;
    outcome.save_json(out)?;
    if let Some(path) = trace_out {
        let log = search.tracer().finish();
        log.save_json(path)?;
        println!("trace log ({} events) written to {path}", log.events.len());
    }
    let best = outcome.best();
    if let Some(student_path) = distill_out {
        let fusing = search.rebuild(best).map_err(|e| e.to_string())?;
        let distilled = distill_student(
            &fusing,
            search.pool(),
            &search.split().train,
            &distill,
            &mut Rng64::seed(seed ^ 0xD15),
        )
        .map_err(|e| e.to_string())?;
        let json = muffin_json::to_string(distilled.student());
        std::fs::write(student_path, json)
            .map_err(|e| format!("cannot write --distill-out {student_path}: {e}"))?;
        println!(
            "distilled student ({} params, {:.0}x smaller) written to {student_path}",
            distilled.student_params(),
            distilled.compression()
        );
    }
    println!(
        "best (episode {}): {} head {} | reward {:.3} acc {:.2}% U {:?}",
        best.first_seen,
        best.model_names.join("+"),
        best.head_desc,
        best.reward,
        best.accuracy * 100.0,
        best.unfairness
    );
    println!("full history written to {out}");
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 7)?;
    let (engine, _) = ServeEngine::demo(seed);
    // The stdin loop below waits for each reply before it reads the next
    // line, so the queue never holds more than one request: one worker
    // serves them all, and no batch ever coalesces.
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    println!(
        "serving demo fused model: {} features per request, {} classes",
        engine.num_features(),
        engine.num_classes(),
    );
    println!("ready (one comma-separated feature row per line; EOF to stop)");
    let (io_result, stats) = serve_scoped(&engine, &config, &Tracer::noop(), |client| {
        use std::io::BufRead as _;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let sample: Result<Vec<f32>, String> = line
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse::<f32>()
                        .map_err(|_| format!("not a number: {v}"))
                })
                .collect();
            match sample {
                // Width and non-finite errors come back from the client as
                // error replies.
                Ok(sample) => match client.request(&sample) {
                    Ok(class) => println!("ok {class}"),
                    Err(err) => println!("error: {err}"),
                },
                Err(msg) => println!("error: invalid request: {msg}"),
            }
        }
        Ok::<(), String>(())
    });
    io_result?;
    println!(
        "served {} ok, {} shed, {} errors in {} batches",
        stats.completed, stats.shed, stats.errors, stats.batches
    );
    Ok(())
}

fn loadgen(args: &Args) -> Result<(), String> {
    let queue_depth = args.get_usize("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    let max_batch = args.get_usize("batch", 16)?;
    if max_batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let workers = args.get_usize("workers", 2)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let serve = ServeConfig {
        queue_depth,
        max_batch,
        workers,
        worker_delay: Duration::from_micros(args.get_u64("worker-delay-us", 0)?),
    };
    let seed = args.get_u64("seed", 7)?;
    let clients = args.get_usize("clients", 4)?;
    if clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    let requests_per_client = args.get_u64("requests", 200)?;
    if requests_per_client == 0 {
        return Err("--requests must be at least 1".into());
    }
    let out = args.get("out");
    let trace_out = args.get("trace-out");
    check_outputs(&[("--out", out), ("--trace-out", trace_out)])?;
    let (engine, samples) = ServeEngine::demo(seed);
    let config = LoadgenConfig {
        seed,
        clients,
        requests_per_client,
        serve,
    };
    let tracer = Tracer::capturing().with_verbose(args.get_flag("verbose"));
    let report = run_loadgen(&engine, &samples, &config, &tracer)?;
    if let Some(path) = out {
        std::fs::write(path, report.to_bench_suite_json())
            .map_err(|e| format!("cannot write --out {path}: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = trace_out {
        let log = tracer.finish();
        log.save_json(path)?;
        println!("trace log ({} events) written to {path}", log.events.len());
    }
    println!(
        "loadgen: {} requests from {} clients -> {} completed, {} shed, \
         {} errors in {} batches ({:.1} req/s)",
        report.requests,
        report.clients,
        report.stats.completed,
        report.stats.shed,
        report.stats.errors,
        report.stats.batches,
        report.throughput_rps(),
    );
    println!(
        "latency (us): p50 {} p99 {} min {} max {} mean {}",
        report.p50_us, report.p99_us, report.min_us, report.max_us, report.mean_us
    );
    Ok(())
}

fn trace_summarize(args: &Args) -> Result<(), String> {
    let log = TraceLog::load_json(args.require("trace")?)?;
    println!("{}", summarize(&log));
    Ok(())
}

fn report(args: &Args) -> Result<(), String> {
    let outcome = SearchOutcome::load_json(args.require("outcome")?)?;
    let top = args.get_usize("top", 5)?;
    println!(
        "{} episodes, {} distinct candidates, targets {:?}\n",
        outcome.history.len(),
        outcome.distinct().len(),
        outcome.target_attributes
    );
    let mut ranked: Vec<_> = outcome.distinct();
    ranked.sort_by(|a, b| {
        b.reward
            .partial_cmp(&a.reward)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut table = TextTable::new(&["rank", "reward", "acc", "unfairness", "body", "head"]);
    for (i, r) in ranked.iter().take(top).enumerate() {
        table.row_owned(vec![
            (i + 1).to_string(),
            format!("{:.3}", r.reward),
            format!("{:.2}%", r.accuracy * 100.0),
            r.unfairness
                .iter()
                .map(|u| format!("{u:.3}"))
                .collect::<Vec<_>>()
                .join("/"),
            r.model_names.join("+"),
            r.head_desc.clone(),
        ]);
    }
    println!("{table}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("muffin_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let args = Args::parse_from(["frobnicate"]).expect("parse");
        let err = run(&args).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn help_succeeds() {
        let args = Args::parse_from(["help"]).expect("parse");
        run(&args).expect("help runs");
    }

    #[test]
    fn generate_requires_out() {
        let args = Args::parse_from(["generate"]).expect("parse");
        assert!(run(&args).unwrap_err().contains("--out"));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let out = tmp("never_written.json");
        let args =
            Args::parse_from(["generate", "--dataset", "cifar", "--out", &out]).expect("parse");
        assert!(run(&args).unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn full_cli_pipeline_runs() {
        let data = tmp("data.json");
        let pool = tmp("pool.json");
        let outcome = tmp("outcome.json");

        run(&Args::parse_from([
            "generate",
            "--samples",
            "400",
            "--seed",
            "3",
            "--out",
            &data,
        ])
        .expect("parse"))
        .expect("generate");

        run(&Args::parse_from([
            "train-pool",
            "--data",
            &data,
            "--archs",
            "ResNet-18,DenseNet121",
            "--epochs",
            "3",
            "--out",
            &pool,
        ])
        .expect("parse"))
        .expect("train-pool");

        run(&Args::parse_from(["evaluate", "--data", &data, "--pool", &pool]).expect("parse"))
            .expect("evaluate");

        let student = tmp("student.json");
        let trace = tmp("trace.json");
        run(&Args::parse_from([
            "search",
            "--data",
            &data,
            "--pool",
            &pool,
            "--attrs",
            "age,site",
            "--episodes",
            "3",
            "--batch",
            "3",
            "--workers",
            "2",
            "--out",
            &outcome,
            "--distill-out",
            &student,
            "--student-hidden",
            "16",
            "--trace-out",
            &trace,
        ])
        .expect("parse"))
        .expect("search");
        assert!(std::fs::read_to_string(&student)
            .expect("student written")
            .contains("spec"));

        // The trace log parses and records the search structure.
        let log = TraceLog::load_json(&trace).expect("trace log parses");
        assert_eq!(
            log.events
                .iter()
                .filter(|e| e.name == "search.episode")
                .count(),
            3
        );
        assert!(log.events.iter().any(|e| e.name == "search.run"));

        run(&Args::parse_from(["report", "--outcome", &outcome]).expect("parse")).expect("report");
        run(&Args::parse_from(["trace", "summarize", "--trace", &trace]).expect("parse"))
            .expect("trace summarize");

        for f in [data, pool, outcome, student, trace] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn search_rejects_zero_workers() {
        let args = Args::parse_from([
            "search",
            "--data",
            "x.json",
            "--pool",
            "p.json",
            "--attrs",
            "age",
            "--out",
            "o.json",
            "--workers",
            "0",
        ])
        .expect("parse");
        // Rejected before any file is touched: x.json does not exist.
        assert!(run(&args).unwrap_err().contains("--workers"));
    }

    #[test]
    fn search_rejects_non_numeric_batch() {
        let args = Args::parse_from([
            "search", "--data", "x.json", "--pool", "p.json", "--attrs", "age", "--out", "o.json",
            "--batch", "lots",
        ])
        .expect("parse");
        let err = run(&args).unwrap_err();
        assert!(err.contains("--batch") && err.contains("lots"), "{err}");
    }

    #[test]
    fn search_rejects_resume_and_stop_after_without_checkpoint() {
        let base = [
            "search", "--data", "x.json", "--pool", "p.json", "--attrs", "age", "--out", "o.json",
        ];
        let mut with_resume = base.to_vec();
        with_resume.push("--resume");
        let err = run(&Args::parse_from(with_resume).expect("parse")).unwrap_err();
        assert!(
            err.contains("--resume") && err.contains("--checkpoint"),
            "{err}"
        );

        // Stopping early is a shorter --episodes budget: search takes no
        // --stop-after, with or without a checkpoint.
        let mut with_stop = base.to_vec();
        with_stop.extend(["--stop-after", "4"]);
        let err = run(&Args::parse_from(with_stop).expect("parse")).unwrap_err();
        assert!(err.contains("does not take --stop-after"), "{err}");

        let mut with_checkpoint = base.to_vec();
        with_checkpoint.extend(["--checkpoint", "c.json", "--stop-after", "4"]);
        let err = run(&Args::parse_from(with_checkpoint).expect("parse")).unwrap_err();
        assert!(err.contains("does not take --stop-after"), "{err}");
    }

    #[test]
    fn search_rejects_resume_from_a_missing_checkpoint() {
        let args = Args::parse_from([
            "search",
            "--data",
            "x.json",
            "--pool",
            "p.json",
            "--attrs",
            "age",
            "--out",
            "o.json",
            "--checkpoint",
            "/nonexistent-dir/ckpt.json",
            "--resume",
        ])
        .expect("parse");
        let err = run(&args).unwrap_err();
        assert!(err.contains("cannot resume"), "{err}");
    }

    #[test]
    fn search_writability_check_preserves_existing_persistence_files() {
        // The fail-fast writability probe must not truncate: an existing
        // checkpoint is operator state, and a missing output path must not
        // be left behind as an empty file.
        let checkpoint = tmp("existing_checkpoint_probe.json");
        let trace = tmp("existing_trace_probe.json");
        let out = tmp("missing_outcome_probe.json");
        std::fs::write(&checkpoint, "{\"episode\":4}").expect("seed checkpoint");
        std::fs::write(&trace, "{\"events\":[]}").expect("seed trace");
        std::fs::remove_file(&out).ok();
        let args = Args::parse_from([
            "search",
            "--data",
            "x.json",
            "--pool",
            "p.json",
            "--attrs",
            "age",
            "--out",
            &out,
            "--checkpoint",
            &checkpoint,
            "--resume",
            "--trace-out",
            &trace,
        ])
        .expect("parse");
        // Fails later (x.json missing), but only after the probe ran.
        let err = run(&args).unwrap_err();
        assert!(err.contains("x.json"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&checkpoint).expect("checkpoint still readable"),
            "{\"episode\":4}"
        );
        assert_eq!(
            std::fs::read_to_string(&trace).expect("trace still readable"),
            "{\"events\":[]}"
        );
        assert!(!std::path::Path::new(&out).exists(), "the probe left {out}");
        std::fs::remove_file(checkpoint).ok();
        std::fs::remove_file(trace).ok();
    }

    #[test]
    fn search_rejects_unwritable_trace_path_before_running() {
        let args = Args::parse_from([
            "search",
            "--data",
            "x.json",
            "--pool",
            "p.json",
            "--attrs",
            "age",
            "--out",
            "o.json",
            "--trace-out",
            "/nonexistent-dir/trace.json",
        ])
        .expect("parse");
        let err = run(&args).unwrap_err();
        assert!(err.contains("--trace-out"), "{err}");
    }

    #[test]
    fn trace_summarize_requires_a_readable_log() {
        let args = Args::parse_from(["trace", "summarize"]).expect("parse");
        assert!(run(&args).unwrap_err().contains("--trace"));
        let args = Args::parse_from(["trace", "summarize", "--trace", "/nonexistent.json"])
            .expect("parse");
        assert!(run(&args).is_err());
    }

    #[test]
    fn train_pool_rejects_unknown_architecture() {
        let data = tmp("data2.json");
        run(&Args::parse_from(["generate", "--samples", "300", "--out", &data]).expect("parse"))
            .expect("generate");
        let args = Args::parse_from([
            "train-pool",
            "--data",
            &data,
            "--archs",
            "VGG-16",
            "--out",
            "/dev/null",
        ])
        .expect("parse");
        assert!(run(&args).unwrap_err().contains("unknown architecture"));
        std::fs::remove_file(data).ok();
    }
}
