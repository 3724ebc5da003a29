//! The `muffin matrix` command: a scenario × reward benchmark grid.
//!
//! For every named scenario the command generates the dataset, trains a
//! small off-the-shelf pool, then runs one Muffin search per reward shape
//! and tabulates the best candidate of each cell — accuracy, marginal
//! unfairness and the joint-cell (intersectional) unfairness the marginal
//! scores cannot see. The grid is the experiment `docs/SCENARIOS.md` and
//! `EXPERIMENTS.md` build on: it shows where the paper's Eq. 3 reward and
//! the intersectional variant rank candidates differently.
//!
//! Everything is derived from fixed seeds (`--seed` folded with the
//! scenario name and reward tag — each part's FNV-1a hash is mixed in
//! through a SplitMix64 step, see [`fold_seed`]), cells run
//! independently, and
//! the two report files (`matrix.json`, `matrix.md`) contain no
//! wall-clock data — so the report bytes are identical for every
//! `--workers` count. Timings, when wanted, go to a separate
//! `--bench-out` file shaped for `scripts/bench-compare.sh`.

use crate::Args;
use muffin::{
    fnv1a64, MuffinSearch, RewardKind, Scenario, ScenarioRegistry, SearchConfig, TextTable,
    WorkerPool,
};
use muffin_data::DatasetSplit;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_tensor::{Rng64, SplitMix64};
use std::path::PathBuf;

/// Derives a per-scenario / per-cell seed by folding each part's FNV-1a
/// hash into the accumulator through a SplitMix64 step.
///
/// The previous plain XOR (`seed ^ fnv1a64(a) ^ fnv1a64(b)`) was
/// symmetric and self-cancelling: any two cells whose part hashes XORed
/// to the same value — e.g. swapped (scenario, tag) pairs — silently
/// shared a seed. The multiply-fold makes the accumulator depend on the
/// order and on every bit of every part.
fn fold_seed(base: u64, parts: &[&str]) -> u64 {
    let mut acc = base;
    for part in parts {
        acc = SplitMix64::new(acc ^ fnv1a64(part.as_bytes())).next_u64();
    }
    acc
}

/// One parsed `--rewards` entry: the canonical tag used in reports, plus
/// the reward shape it names.
#[derive(Debug)]
struct RewardSpec {
    tag: String,
    kind: RewardKind,
}

/// Parses one reward spec: `paper`, `linear[:lambda]`, `worst` or
/// `intersect`.
fn parse_reward(spec: &str) -> Result<RewardSpec, String> {
    let unknown = || {
        format!("unknown reward `{spec}` (expected paper, linear[:lambda], worst or intersect)")
    };
    if let Some(rest) = spec.strip_prefix("linear") {
        let lambda = match rest.strip_prefix(':') {
            None if rest.is_empty() => 0.5,
            None => return Err(unknown()),
            Some(v) => {
                let lambda: f32 = v
                    .parse()
                    .map_err(|_| format!("reward `{spec}`: lambda must be a number, got {v}"))?;
                if !lambda.is_finite() || lambda < 0.0 {
                    return Err(format!(
                        "reward `{spec}`: lambda must be finite and non-negative"
                    ));
                }
                lambda
            }
        };
        return Ok(RewardSpec {
            tag: spec.to_string(),
            kind: RewardKind::LinearPenalty { lambda },
        });
    }
    let kind = match spec {
        "paper" => RewardKind::PaperRatio,
        "worst" => RewardKind::WorstAttribute,
        "intersect" => RewardKind::IntersectionalRatio,
        _ => return Err(unknown()),
    };
    Ok(RewardSpec {
        tag: spec.to_string(),
        kind,
    })
}

/// One completed grid cell: the best candidate a search with this reward
/// found on this scenario, measured on the validation split.
struct MatrixCell {
    /// Scenario name.
    scenario: String,
    /// Canonical reward tag (`paper`, `linear:0.5`, ...).
    reward: String,
    /// Target attribute names, in reward order.
    attrs: Vec<String>,
    /// Body model names of the best candidate.
    body: Vec<String>,
    /// Head description of the best candidate.
    head: String,
    /// Episodes the search ran.
    episodes_run: usize,
    /// Distinct candidates the search evaluated.
    distinct: usize,
    /// The winning candidate's reward under this cell's reward shape.
    best_reward: f32,
    /// Validation accuracy of the best candidate.
    accuracy: f32,
    /// Marginal unfairness per target attribute, in `attrs` order.
    unfairness: Vec<f32>,
    /// Joint-cell unfairness summed over target-attribute pairs (equals
    /// the marginal sum when fewer than two attributes are targeted).
    joint_unfairness: f32,
}

muffin_json::impl_json!(struct MatrixCell {
    scenario, reward, attrs, body, head, episodes_run, distinct, best_reward,
    accuracy, unfairness, joint_unfairness,
});

/// The full grid report persisted as `matrix.json`.
struct MatrixReport {
    /// Base seed the per-cell seeds are folded from.
    seed: u64,
    /// Episode budget per cell.
    episodes: u32,
    /// REINFORCE batch size per cell.
    batch: usize,
    /// Body slots per candidate.
    slots: usize,
    /// Samples per scenario (0 = each scenario's own default).
    samples: usize,
    /// Backbone training epochs.
    epochs: u32,
    /// Pool architectures, one pool per scenario.
    architectures: Vec<String>,
    /// Scenario names, in grid row order.
    scenarios: Vec<String>,
    /// Reward tags, in grid column order.
    rewards: Vec<String>,
    /// Cells in row-major (scenario-major) order.
    cells: Vec<MatrixCell>,
}

muffin_json::impl_json!(struct MatrixReport {
    seed, episodes, batch, slots, samples, epochs, architectures, scenarios,
    rewards, cells,
});

/// A scenario ready to be searched: its split and frozen pool.
struct PreparedScenario {
    scenario: Scenario,
    split: DatasetSplit,
    pool: ModelPool,
}

/// Renders one markdown pipe table: scenario rows × reward columns.
fn md_grid(
    title: &str,
    report: &MatrixReport,
    value: impl Fn(&MatrixCell) -> String,
) -> String {
    let mut out = format!("## {title}\n\n| scenario |");
    for tag in &report.rewards {
        out.push_str(&format!(" {tag} |"));
    }
    out.push_str("\n|---|");
    for _ in &report.rewards {
        out.push_str("---:|");
    }
    out.push('\n');
    for (si, name) in report.scenarios.iter().enumerate() {
        out.push_str(&format!("| {name} |"));
        for ri in 0..report.rewards.len() {
            let cell = &report.cells[si * report.rewards.len() + ri];
            out.push_str(&format!(" {} |", value(cell)));
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// Renders the full `matrix.md` report. Pure function of the report
/// struct, so the bytes are independent of worker count and wall clock.
fn render_markdown(report: &MatrixReport) -> String {
    let mut out = String::from("# Muffin scenario × reward matrix\n\n");
    out.push_str(&format!(
        "Seed {}, {} episodes per cell (REINFORCE batch {}), {} body slots; \
         pool {} trained for {} epochs per scenario; {}.\n\n",
        report.seed,
        report.episodes,
        report.batch,
        report.slots,
        report.architectures.join(" + "),
        report.epochs,
        if report.samples == 0 {
            "scenario-default sample counts".to_string()
        } else {
            format!("{} samples per scenario", report.samples)
        },
    ));
    out.push_str(&md_grid("Best reward", report, |c| {
        format!("{:.4}", c.best_reward)
    }));
    out.push_str(&md_grid("Accuracy", report, |c| {
        format!("{:.2}%", c.accuracy * 100.0)
    }));
    out.push_str(&md_grid("Joint-cell unfairness U∩", report, |c| {
        format!("{:.4}", c.joint_unfairness)
    }));
    out.push_str("## Best structures\n\n");
    out.push_str("| scenario | reward | body | head | marginal U |\n");
    out.push_str("|---|---|---|---|---|\n");
    for cell in &report.cells {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            cell.scenario,
            cell.reward,
            cell.body.join("+"),
            cell.head,
            cell.attrs
                .iter()
                .zip(&cell.unfairness)
                .map(|(a, u)| format!("{a} {u:.4}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    out.push('\n');
    out
}

/// Renders per-cell wall-clock timings as a bench-suite JSON that
/// `scripts/bench-compare.sh` can diff and gate.
fn render_bench_suite(report: &MatrixReport, elapsed_ns: &[u128]) -> String {
    use muffin_json::Json;
    let mut results = Vec::new();
    for (cell, &ns) in report.cells.iter().zip(elapsed_ns) {
        let mut entry = Json::object();
        entry.insert("name", Json::Str(format!("{}/{}", cell.scenario, cell.reward)));
        entry.insert("iters_per_sample", Json::Int(i128::from(report.episodes)));
        entry.insert("samples", Json::Int(1));
        entry.insert("median_ns", Json::Float(ns as f64));
        entry.insert("min_ns", Json::Float(ns as f64));
        entry.insert("max_ns", Json::Float(ns as f64));
        results.push(entry);
    }
    let mut root = Json::object();
    root.insert("suite", Json::Str("matrix".into()));
    root.insert("results", Json::Arr(results));
    let mut text = root.to_string_pretty();
    text.push('\n');
    text
}

/// Runs `muffin matrix`. See `USAGE` in `commands.rs` for the flags.
pub(crate) fn matrix(args: &Args) -> Result<(), String> {
    // Validate the whole grid spec before generating or training anything.
    let scenario_specs = args.get_list("scenarios");
    if scenario_specs.is_empty() {
        return Err("--scenarios requires at least one scenario name or file".into());
    }
    let reward_specs = args.get_list("rewards");
    let reward_specs = if reward_specs.is_empty() {
        vec!["paper", "intersect"]
    } else {
        reward_specs
    };
    let rewards: Vec<RewardSpec> = reward_specs
        .iter()
        .map(|s| parse_reward(s))
        .collect::<Result<_, _>>()?;
    for (i, r) in rewards.iter().enumerate() {
        if rewards[..i].iter().any(|p| p.tag == r.tag) {
            return Err(format!("duplicate reward `{}`", r.tag));
        }
    }
    let episodes = args.get_u32("episodes", 12)?;
    if episodes == 0 {
        return Err("--episodes must be at least 1".into());
    }
    let samples = args.get_usize("samples", 1_200)?;
    let slots = args.get_usize("slots", 2)?;
    if slots == 0 {
        return Err("--slots must be at least 1".into());
    }
    let batch = args.get_usize("batch", 4)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let epochs = args.get_u32("epochs", 6)?;
    let seed = args.get_u64("seed", 7)?;
    let workers = args.get_usize("workers", muffin::available_parallelism())?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let out_dir = PathBuf::from(args.get("out-dir").unwrap_or("results/matrix"));
    let bench_out = args.get("bench-out");
    let verbose = args.get_flag("verbose");

    let requested_archs = args.get_list("archs");
    let architectures: Vec<Architecture> = if requested_archs.is_empty() {
        vec![
            Architecture::resnet18(),
            Architecture::densenet121(),
            Architecture::mobilenet_v2(),
        ]
    } else {
        requested_archs
            .iter()
            .map(|name| {
                Architecture::by_name(name).ok_or_else(|| format!("unknown architecture: {name}"))
            })
            .collect::<Result<_, _>>()?
    };

    // Resolve every scenario up front: an unknown name or malformed file
    // fails fast, with the registry/parser error verbatim.
    let mut scenarios: Vec<Scenario> = Vec::new();
    for spec in &scenario_specs {
        let mut scenario = ScenarioRegistry::resolve(spec).map_err(|e| e.to_string())?;
        if samples > 0 {
            scenario = scenario.with_num_samples(samples);
        }
        if scenarios.iter().any(|s| s.name() == scenario.name()) {
            return Err(format!("duplicate scenario `{}`", scenario.name()));
        }
        scenarios.push(scenario);
    }

    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create --out-dir {}: {e}", out_dir.display()))?;
    crate::commands::check_outputs(&[("--bench-out", bench_out)])?;

    let pool = WorkerPool::new(workers);

    // Phase A — one dataset + frozen model pool per scenario, in parallel.
    // All randomness is folded from the scenario name, so the grid is
    // stable under reordering and additions.
    if verbose {
        eprintln!(
            "matrix: preparing {} scenario(s) on {workers} worker(s)",
            scenarios.len()
        );
    }
    let prepared = pool.map(&scenarios, |_, scenario| {
        let scen_seed = fold_seed(seed, &[scenario.name()]);
        let mut rng = Rng64::seed(scen_seed);
        let dataset = scenario.generator().generate(&mut rng);
        let split = dataset.split_default(&mut rng);
        let config = BackboneConfig::fast().with_epochs(epochs);
        let pool = ModelPool::train(&split.train, &architectures, &config, &mut rng);
        PreparedScenario {
            scenario: scenario.clone(),
            split,
            pool,
        }
    });

    // Phase B — one search per scenario × reward cell, in parallel, each
    // on a serial inner pool (the grid itself is the parallelism). Cells
    // never print; all reporting happens after the index-ordered reduce.
    if verbose {
        eprintln!(
            "matrix: searching {} cell(s) ({} scenario(s) × {} reward(s))",
            prepared.len() * rewards.len(),
            prepared.len(),
            rewards.len()
        );
    }
    let grid: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|si| (0..rewards.len()).map(move |ri| (si, ri)))
        .collect();
    let outcomes = pool.map(&grid, |_, &(si, ri)| {
        run_cell(&prepared[si], &rewards[ri], CellParams {
            seed,
            episodes,
            slots,
            batch,
        })
    });
    let mut cells = Vec::with_capacity(outcomes.len());
    let mut elapsed_ns = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let (cell, ns) = outcome?;
        cells.push(cell);
        elapsed_ns.push(ns);
    }

    let report = MatrixReport {
        seed,
        episodes,
        batch,
        slots,
        samples,
        epochs,
        architectures: architectures.iter().map(|a| a.name().to_string()).collect(),
        scenarios: scenarios.iter().map(|s| s.name().to_string()).collect(),
        rewards: rewards.iter().map(|r| r.tag.clone()).collect(),
        cells,
    };

    let json_path = out_dir.join("matrix.json");
    let mut json_text = muffin_json::to_string_pretty(&report);
    json_text.push('\n');
    std::fs::write(&json_path, json_text)
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    let md_path = out_dir.join("matrix.md");
    std::fs::write(&md_path, render_markdown(&report))
        .map_err(|e| format!("cannot write {}: {e}", md_path.display()))?;
    if let Some(path) = bench_out {
        std::fs::write(path, render_bench_suite(&report, &elapsed_ns))
            .map_err(|e| format!("cannot write --bench-out {path}: {e}"))?;
        println!("cell timings written to {path}");
    }

    let mut table = TextTable::new(&["scenario", "reward", "best", "acc", "U∩", "body"]);
    for cell in &report.cells {
        table.row_owned(vec![
            cell.scenario.clone(),
            cell.reward.clone(),
            format!("{:.3}", cell.best_reward),
            format!("{:.2}%", cell.accuracy * 100.0),
            format!("{:.4}", cell.joint_unfairness),
            cell.body.join("+"),
        ]);
    }
    println!("{table}");
    println!(
        "matrix: {}×{} grid, {} episodes per cell; report written to {} and {}",
        report.scenarios.len(),
        report.rewards.len(),
        report.episodes,
        md_path.display(),
        json_path.display(),
    );
    Ok(())
}

/// Shared per-cell search knobs.
#[derive(Clone, Copy)]
struct CellParams {
    seed: u64,
    episodes: u32,
    slots: usize,
    batch: usize,
}

/// Runs one grid cell: a full search under the cell's reward shape, then
/// a re-evaluation of the winner for the joint-unfairness columns.
/// Returns the cell plus its wall-clock nanoseconds (reported only via
/// `--bench-out`, never in the deterministic report files).
fn run_cell(
    prepared: &PreparedScenario,
    reward: &RewardSpec,
    params: CellParams,
) -> Result<(MatrixCell, u128), String> {
    let started = std::time::Instant::now();
    let scenario = &prepared.scenario;
    let attrs: Vec<&str> = scenario.default_attrs().iter().map(String::as_str).collect();
    let label = format!("{} × {}", scenario.name(), reward.tag);
    let config = SearchConfig::fast(&attrs)
        .with_episodes(params.episodes)
        .with_slots(params.slots)
        .with_reinforce_batch(params.batch)
        .with_reward_kind(reward.kind);
    let search = MuffinSearch::new(prepared.pool.clone(), prepared.split.clone(), config)
        .map_err(|e| format!("{label}: {e}"))?;
    let cell_seed = fold_seed(params.seed, &[scenario.name(), &reward.tag]);
    let outcome = search
        .run(&mut Rng64::seed(cell_seed))
        .map_err(|e| format!("{label}: {e}"))?;
    let best = outcome.best();
    // Re-evaluate the winner to read the joint-cell unfairness the search
    // history does not carry (only `intersect` cells optimised for it).
    let candidate = search
        .space()
        .decode(&best.actions)
        .map_err(|e| format!("{label}: {e}"))?;
    let (_, eval) = search
        .evaluate_candidate(&candidate, &search.split().val, best.head_seed)
        .map_err(|e| format!("{label}: {e}"))?;
    let cell = MatrixCell {
        scenario: scenario.name().to_string(),
        reward: reward.tag.clone(),
        attrs: scenario.default_attrs().to_vec(),
        body: best.model_names.clone(),
        head: best.head_desc.clone(),
        episodes_run: outcome.history.len(),
        distinct: outcome.distinct().len(),
        best_reward: best.reward,
        accuracy: eval.accuracy,
        unfairness: best.unfairness.clone(),
        joint_unfairness: eval.multi_joint_unfairness(&attrs),
    };
    Ok((cell, started.elapsed().as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reward_specs_parse_and_reject() {
        assert_eq!(parse_reward("paper").unwrap().kind, RewardKind::PaperRatio);
        assert_eq!(
            parse_reward("worst").unwrap().kind,
            RewardKind::WorstAttribute
        );
        assert_eq!(
            parse_reward("intersect").unwrap().kind,
            RewardKind::IntersectionalRatio
        );
        match parse_reward("linear").unwrap().kind {
            RewardKind::LinearPenalty { lambda } => assert!((lambda - 0.5).abs() < 1e-6),
            other => panic!("wrong kind: {other:?}"),
        }
        let spec = parse_reward("linear:0.75").unwrap();
        assert_eq!(spec.tag, "linear:0.75");
        match spec.kind {
            RewardKind::LinearPenalty { lambda } => assert!((lambda - 0.75).abs() < 1e-6),
            other => panic!("wrong kind: {other:?}"),
        }
        assert!(parse_reward("fair").unwrap_err().contains("unknown reward"));
        assert!(parse_reward("linear:x").unwrap_err().contains("lambda"));
        assert!(parse_reward("linear:-1").unwrap_err().contains("lambda"));
        assert!(parse_reward("linearise").unwrap_err().contains("unknown"));
    }

    #[test]
    fn cell_seeds_are_order_sensitive_and_collision_free() {
        // The old XOR fold was symmetric: swapping (scenario, tag) — or
        // any pair of parts whose hashes XOR to the same value — silently
        // shared one seed. The SplitMix64 fold must not.
        assert_ne!(
            fold_seed(7, &["isic-age", "paper"]),
            fold_seed(7, &["paper", "isic-age"])
        );
        // A crafted XOR collision from the old scheme: parts ("ab", "ba")
        // and ("ba", "ab") of course, but also any base; the fold must
        // separate every grid cell pairwise.
        let scenarios = ["isic-age", "isic-site", "isic-intersect", "fitz-skin"];
        let tags = ["paper", "intersect", "worst", "linear:0.75"];
        let mut seen = std::collections::HashSet::new();
        for s in &scenarios {
            assert!(seen.insert(fold_seed(7, &[s])), "scenario seed collided");
            for t in &tags {
                assert!(seen.insert(fold_seed(7, &[s, t])), "cell seed collided");
            }
        }
        // Pin the exact streams: these constants are part of the grid's
        // reproducibility contract — changing the fold changes every
        // committed matrix artifact.
        assert_eq!(fold_seed(7, &["isic-age"]), 3_428_123_955_328_576_630);
        assert_eq!(
            fold_seed(7, &["isic-age", "paper"]),
            2_214_657_400_447_323_925
        );
        assert_eq!(
            fold_seed(7, &["isic-age", "intersect"]),
            15_723_222_128_181_611_331
        );
    }

    #[test]
    fn markdown_grid_is_row_major_and_fixed_width() {
        let cell = |s: &str, r: &str, v: f32| MatrixCell {
            scenario: s.into(),
            reward: r.into(),
            attrs: vec!["age".into(), "gender".into()],
            body: vec!["ResNet-18".into()],
            head: "[8] relu".into(),
            episodes_run: 2,
            distinct: 2,
            best_reward: v,
            accuracy: 0.5,
            unfairness: vec![0.1, 0.2],
            joint_unfairness: 0.3,
        };
        let report = MatrixReport {
            seed: 7,
            episodes: 2,
            batch: 1,
            slots: 2,
            samples: 400,
            epochs: 2,
            architectures: vec!["ResNet-18".into()],
            scenarios: vec!["a".into(), "b".into()],
            rewards: vec!["paper".into(), "intersect".into()],
            cells: vec![
                cell("a", "paper", 1.0),
                cell("a", "intersect", 2.0),
                cell("b", "paper", 3.0),
                cell("b", "intersect", 4.0),
            ],
        };
        let md = render_markdown(&report);
        assert!(md.contains("| a | 1.0000 | 2.0000 |"), "{md}");
        assert!(md.contains("| b | 3.0000 | 4.0000 |"), "{md}");
        assert!(md.contains("## Accuracy"), "{md}");
        assert!(md.contains("| a | 50.00% | 50.00% |"), "{md}");
        assert!(md.contains("age 0.1000, gender 0.2000"), "{md}");
        // JSON round-trips through the schema the docs describe.
        let back: MatrixReport =
            muffin_json::from_str(&muffin_json::to_string(&report)).expect("round trip");
        assert_eq!(back.cells.len(), 4);
        assert_eq!(back.rewards, report.rewards);
    }

    #[test]
    fn bench_suite_has_the_shape_bench_compare_reads() {
        let report = MatrixReport {
            seed: 7,
            episodes: 2,
            batch: 1,
            slots: 2,
            samples: 0,
            epochs: 2,
            architectures: vec![],
            scenarios: vec!["a".into()],
            rewards: vec!["paper".into()],
            cells: vec![MatrixCell {
                scenario: "a".into(),
                reward: "paper".into(),
                attrs: vec![],
                body: vec![],
                head: String::new(),
                episodes_run: 2,
                distinct: 1,
                best_reward: 0.0,
                accuracy: 0.0,
                unfairness: vec![],
                joint_unfairness: 0.0,
            }],
        };
        let text = render_bench_suite(&report, &[1_234]);
        let json: muffin_json::Json = muffin_json::from_str(&text).expect("parses");
        assert_eq!(
            json.get("suite"),
            Some(&muffin_json::Json::Str("matrix".into()))
        );
        let results = match json.get("results") {
            Some(muffin_json::Json::Arr(items)) => items.clone(),
            other => panic!("missing results: {other:?}"),
        };
        assert_eq!(
            results[0].get("name"),
            Some(&muffin_json::Json::Str("a/paper".into()))
        );
        for key in ["iters_per_sample", "samples", "median_ns", "min_ns", "max_ns"] {
            assert!(results[0].get(key).is_some(), "missing {key}");
        }
    }
}
