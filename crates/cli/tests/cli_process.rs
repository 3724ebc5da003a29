//! End-to-end process tests for the `muffin` binary: quiet runs must be
//! silent on stderr, `--verbose` must report progress there, and
//! `--trace-out` must produce a parseable event log that
//! `trace summarize` renders.

use muffin_trace::TraceLog;
use std::path::PathBuf;
use std::process::{Command, Output};

fn muffin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_muffin"))
        .args(args)
        .output()
        .expect("spawn muffin binary")
}

fn tmp(name: &str) -> String {
    let dir: PathBuf = std::env::temp_dir().join("muffin_cli_process_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn quiet_search_is_silent_on_stderr_and_verbose_is_not() {
    let data = tmp("data.json");
    let pool = tmp("pool.json");
    let outcome = tmp("outcome.json");
    let trace = tmp("trace.json");
    let student = tmp("student.json");

    let gen = muffin(&[
        "generate",
        "--samples",
        "300",
        "--seed",
        "3",
        "--out",
        &data,
    ]);
    assert!(
        gen.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    assert!(gen.stderr.is_empty(), "generate must not write to stderr");

    let train = muffin(&[
        "train-pool",
        "--data",
        &data,
        "--archs",
        "ResNet-18,DenseNet121",
        "--epochs",
        "2",
        "--out",
        &pool,
    ]);
    assert!(
        train.status.success(),
        "train-pool failed: {}",
        String::from_utf8_lossy(&train.stderr)
    );
    assert!(
        train.stderr.is_empty(),
        "train-pool must not write to stderr"
    );

    let search_args = |extra: &[&str]| {
        let mut v = vec![
            "search",
            "--data",
            &data,
            "--pool",
            &pool,
            "--attrs",
            "age,site",
            "--episodes",
            "2",
            "--out",
            &outcome,
        ];
        v.extend_from_slice(extra);
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };

    // Quiet run, distilling the best candidate: stderr stays empty, and
    // the student is an MLP of the default hidden widths.
    let quiet_args = search_args(&["--distill-out", &student]);
    let quiet = muffin(&quiet_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        quiet.status.success(),
        "search failed: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    assert!(
        quiet.stderr.is_empty(),
        "quiet search leaked to stderr: {}",
        String::from_utf8_lossy(&quiet.stderr)
    );
    let student_json = std::fs::read_to_string(&student).expect("student written");
    let mlp: muffin_nn::Mlp = muffin_json::from_str(&student_json).expect("student parses");
    assert_eq!(mlp.spec().hidden(), &[64, 32]);

    // Verbose run: progress lines appear on stderr, result stays on stdout.
    let verbose_args = search_args(&["--verbose", "--trace-out", &trace]);
    let verbose = muffin(&verbose_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        verbose.status.success(),
        "{}",
        String::from_utf8_lossy(&verbose.stderr)
    );
    let stderr = String::from_utf8_lossy(&verbose.stderr);
    assert!(
        stderr.contains("proxy:"),
        "missing proxy progress line: {stderr}"
    );
    assert!(
        stderr.contains("episode"),
        "missing episode progress lines: {stderr}"
    );
    assert!(String::from_utf8_lossy(&verbose.stdout).contains("best"));

    // The trace log parses and summarize renders a per-phase table.
    let log = TraceLog::load_json(&trace).expect("trace log parses");
    assert!(!log.events.is_empty());
    let summary = muffin(&["trace", "summarize", "--trace", &trace]);
    assert!(summary.status.success());
    let text = String::from_utf8_lossy(&summary.stdout);
    assert!(text.contains("phase"), "missing table header: {text}");
    assert!(text.contains("search.episode"), "missing phase row: {text}");
    assert!(
        text.contains("search.cache_miss"),
        "missing counter row: {text}"
    );

    for f in [data, pool, outcome, trace, student] {
        std::fs::remove_file(f).ok();
    }
}

/// Generates the shared dataset + model pool used by the checkpoint/resume
/// process tests exactly once per test binary run.
fn fixture() -> (String, String) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(String, String)> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let data = tmp("ckpt_data.json");
            let pool = tmp("ckpt_pool.json");
            let gen = muffin(&[
                "generate",
                "--samples",
                "300",
                "--seed",
                "5",
                "--out",
                &data,
            ]);
            assert!(
                gen.status.success(),
                "generate failed: {}",
                String::from_utf8_lossy(&gen.stderr)
            );
            let train = muffin(&[
                "train-pool",
                "--data",
                &data,
                "--archs",
                "ResNet-18,DenseNet121",
                "--epochs",
                "2",
                "--out",
                &pool,
            ]);
            assert!(
                train.status.success(),
                "train-pool failed: {}",
                String::from_utf8_lossy(&train.stderr)
            );
            (data, pool)
        })
        .clone()
}

/// `search` arguments for the shared fixture: 6 episodes, REINFORCE batch
/// of 2, seed 11 — plus whatever `extra` flags the test needs.
fn search_cmd(data: &str, pool: &str, out: &str, extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = [
        "search",
        "--data",
        data,
        "--pool",
        pool,
        "--attrs",
        "age,site",
        "--episodes",
        "6",
        "--batch",
        "2",
        "--seed",
        "11",
        "--out",
        out,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

fn run_search(args: &[String]) -> Output {
    muffin(&args.iter().map(String::as_str).collect::<Vec<_>>())
}

/// `args` with its `--episodes` budget replaced by `episodes`: how a
/// search stops early, to be resumed later at the full budget.
fn stopped_at(mut args: Vec<String>, episodes: &str) -> Vec<String> {
    let at = args.iter().position(|a| a == "--episodes").expect("budget") + 1;
    args[at] = episodes.to_string();
    args
}

#[test]
fn stop_after_then_resume_reproduces_a_clean_run_byte_for_byte() {
    let (data, pool) = fixture();
    let clean_out = tmp("stop_clean.json");
    let stopped_out = tmp("stop_stopped.json");
    let resumed_out = tmp("stop_resumed.json");
    let ckpt = tmp("stop_ckpt.json");
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&stopped_out).ok();

    let clean = run_search(&search_cmd(&data, &pool, &clean_out, &["--workers", "1"]));
    assert!(
        clean.status.success(),
        "clean search failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // Stop at episode 2, a batch boundary, by running a 2-episode budget.
    let stopped = run_search(&stopped_at(
        search_cmd(
            &data,
            &pool,
            &stopped_out,
            &["--workers", "2", "--checkpoint", &ckpt],
        ),
        "2",
    ));
    assert!(
        stopped.status.success(),
        "shortened search failed: {}",
        String::from_utf8_lossy(&stopped.stderr)
    );
    let stopped_outcome = muffin::SearchOutcome::load_json(&stopped_out).expect("outcome parses");
    assert_eq!(stopped_outcome.history.len(), 2);

    // Resume on a different worker count: bytes must still match.
    let resumed = run_search(&search_cmd(
        &data,
        &pool,
        &resumed_out,
        &["--workers", "4", "--checkpoint", &ckpt, "--resume"],
    ));
    assert!(
        resumed.status.success(),
        "resumed search failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean_out).expect("clean outcome"),
        std::fs::read_to_string(&resumed_out).expect("resumed outcome"),
        "stop + resume diverged from the uninterrupted run"
    );

    // A budget that ends mid-batch leaves a checkpoint only a run with
    // that same budget can resume.
    let mid_batch = run_search(&stopped_at(
        search_cmd(&data, &pool, &stopped_out, &["--checkpoint", &ckpt]),
        "3",
    ));
    assert!(mid_batch.status.success());
    let refused = run_search(&search_cmd(
        &data,
        &pool,
        &resumed_out,
        &["--checkpoint", &ckpt, "--resume"],
    ));
    assert_eq!(refused.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("ends mid-batch at episode 3"),
        "unhelpful mid-batch error: {stderr}"
    );

    for f in [clean_out, stopped_out, resumed_out, ckpt] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn killing_a_checkpointed_search_mid_run_still_resumes_to_identical_bytes() {
    let (data, pool) = fixture();
    let clean_out = tmp("kill_clean.json");
    let killed_out = tmp("kill_killed.json");
    let resumed_out = tmp("kill_resumed.json");
    let ckpt = tmp("kill_ckpt.json");
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&killed_out).ok();

    let clean = run_search(&search_cmd(&data, &pool, &clean_out, &["--workers", "1"]));
    assert!(
        clean.status.success(),
        "clean search failed: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    // Checkpoint every batch, then kill the process as soon as the first
    // checkpoint lands on disk. Checkpoint writes are atomic (temp +
    // rename), so whatever instant the kill hits, the file is complete.
    let args = search_cmd(
        &data,
        &pool,
        &killed_out,
        &[
            "--workers",
            "2",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "1",
        ],
    );
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_muffin"))
        .args(&args)
        .spawn()
        .expect("spawn muffin binary");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        if std::fs::metadata(&ckpt)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            child.kill().ok();
            break;
        }
        // If the run already finished, resuming is a no-op and the bytes
        // still have to match — the race is benign either way.
        if child.try_wait().expect("poll child").is_some() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint appeared within 120s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    child.wait().expect("reap child");

    let resumed = run_search(&search_cmd(
        &data,
        &pool,
        &resumed_out,
        &["--workers", "1", "--checkpoint", &ckpt, "--resume"],
    ));
    assert!(
        resumed.status.success(),
        "resumed search failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean_out).expect("clean outcome"),
        std::fs::read_to_string(&resumed_out).expect("resumed outcome"),
        "kill + resume diverged from the uninterrupted run"
    );

    for f in [clean_out, killed_out, resumed_out, ckpt] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn corrupt_or_mismatched_checkpoints_are_rejected_loudly() {
    let (data, pool) = fixture();
    let stopped_out = tmp("reject_stopped.json");
    let resumed_out = tmp("reject_resumed.json");
    let ckpt = tmp("reject_ckpt.json");
    std::fs::remove_file(&ckpt).ok();

    let stopped = run_search(&stopped_at(
        search_cmd(&data, &pool, &stopped_out, &["--checkpoint", &ckpt]),
        "2",
    ));
    assert!(
        stopped.status.success(),
        "shortened search failed: {}",
        String::from_utf8_lossy(&stopped.stderr)
    );
    let valid = std::fs::read_to_string(&ckpt).expect("checkpoint written");

    // A different seed no longer matches the checkpoint's fingerprint.
    let mut mismatch_args = search_cmd(
        &data,
        &pool,
        &resumed_out,
        &["--checkpoint", &ckpt, "--resume"],
    );
    let seed_at = mismatch_args.iter().position(|a| a == "11").expect("seed");
    mismatch_args[seed_at] = "12".to_string();
    let mismatch = run_search(&mismatch_args);
    assert!(!mismatch.status.success(), "seed mismatch must fail");
    let stderr = String::from_utf8_lossy(&mismatch.stderr);
    assert!(
        stderr.contains("stale artifact") && stderr.contains("rng seed/state"),
        "unhelpful mismatch error: {stderr}"
    );

    // A truncated checkpoint is rejected as corrupt, not silently ignored.
    std::fs::write(&ckpt, &valid[..valid.len() / 2]).expect("truncate checkpoint");
    let corrupt = run_search(&search_cmd(
        &data,
        &pool,
        &resumed_out,
        &["--checkpoint", &ckpt, "--resume"],
    ));
    assert!(!corrupt.status.success(), "corrupt checkpoint must fail");
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(
        stderr.contains("stale artifact"),
        "unhelpful corruption error: {stderr}"
    );

    for f in [stopped_out, resumed_out, ckpt] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn pool_lifecycle_grows_rejects_stale_resume_and_guards_chosen_models() {
    let (data, fixture_pool) = fixture();
    let pool = tmp("lifecycle_pool.json");
    let out = tmp("lifecycle_out.json");
    let ckpt = tmp("lifecycle_ckpt.json");
    std::fs::copy(&fixture_pool, &pool).expect("copy fixture pool");
    for f in [&out, &ckpt] {
        std::fs::remove_file(f).ok();
    }

    // Phase 1: search on the 2-model pool, stopping at episode 4 with a
    // checkpoint on disk.
    let stopped = run_search(&stopped_at(
        search_cmd(&data, &pool, &out, &["--checkpoint", &ckpt]),
        "4",
    ));
    assert!(
        stopped.status.success(),
        "shortened search failed: {}",
        String::from_utf8_lossy(&stopped.stderr)
    );

    // Phase 2: grow the pool with two freshly trained models. Existing
    // models must keep their indices (prefix growth).
    let add = muffin(&[
        "pool", "add", "--pool", &pool, "--data", &data,
        "--archs", "ShuffleNet_V2_X0_5,MobileNet_V3_Small",
        "--epochs", "2", "--seed", "29",
    ]);
    assert!(
        add.status.success(),
        "pool add failed: {}",
        String::from_utf8_lossy(&add.stderr)
    );
    let add_stdout = String::from_utf8_lossy(&add.stdout);
    assert!(
        add_stdout.contains("appended 2 model(s)"),
        "missing append notice: {add_stdout}"
    );

    // Re-adding an existing model is rejected by name, not silently
    // duplicated.
    let dup = muffin(&[
        "pool", "add", "--pool", &pool, "--data", &data, "--archs", "ResNet-18",
    ]);
    assert!(!dup.status.success(), "duplicate pool add must fail");
    assert!(
        String::from_utf8_lossy(&dup.stderr).contains("already in the pool"),
        "unhelpful duplicate error: {}",
        String::from_utf8_lossy(&dup.stderr)
    );

    // Phase 3: a checkpoint serves only the pool it was written for. Over
    // the grown pool it is rejected, naming every added model by id, and
    // neither the checkpoint nor the outcome file is touched.
    let added: Vec<&str> = add_stdout
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .collect();
    assert_eq!(
        added.len(),
        2,
        "pool add must list both models: {add_stdout}"
    );
    let ckpt_bytes = std::fs::read(&ckpt).expect("checkpoint bytes");
    let out_before = std::fs::read(&out).expect("outcome bytes");
    let resumed = run_search(&search_cmd(
        &data,
        &pool,
        &out,
        &["--checkpoint", &ckpt, "--resume"],
    ));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(
        resumed.status.code(),
        Some(1),
        "resume over a grown pool must fail: {stderr}"
    );
    assert!(stderr.contains("model pool grew"), "{stderr}");
    for identity in &added {
        assert!(
            identity.contains("(id ") && stderr.contains(identity),
            "the rejection must name {identity}: {stderr}"
        );
    }
    assert!(
        ckpt_bytes == std::fs::read(&ckpt).expect("checkpoint bytes after"),
        "a rejected resume rewrote the checkpoint"
    );
    assert_eq!(
        out_before,
        std::fs::read(&out).expect("outcome bytes after"),
        "a rejected resume rewrote the outcome"
    );

    // The operator starts a new search over the grown pool.
    let fresh = run_search(&search_cmd(&data, &pool, &out, &[]));
    assert!(
        fresh.status.success(),
        "new search over the grown pool failed: {}",
        String::from_utf8_lossy(&fresh.stderr)
    );
    let outcome = muffin::SearchOutcome::load_json(&out).expect("outcome parses");

    // Phase 4: `pool list` names every model with its content id.
    let list = muffin(&["pool", "list", "--pool", &pool]);
    assert!(list.status.success());
    let list_stdout = String::from_utf8_lossy(&list.stdout);
    assert!(
        list_stdout.contains("4 model(s)") && list_stdout.contains("ShuffleNet_V2_X0_5"),
        "pool list missing models: {list_stdout}"
    );

    // Phase 5: removing a model the best candidate unites is rejected
    // loudly, naming the model by identity.
    let chosen = outcome.best().model_names[0].clone();
    let reject = muffin(&[
        "pool", "remove", "--pool", &pool, "--model", &chosen, "--outcome", &out,
    ]);
    assert!(!reject.status.success(), "removing a chosen model must fail");
    let reject_err = String::from_utf8_lossy(&reject.stderr);
    assert!(
        reject_err.contains("refusing to remove") && reject_err.contains("(id "),
        "rejection must name the model id: {reject_err}"
    );

    // Removing a never-chosen model succeeds and never touches the outcome
    // file: the recorded snapshot stays byte-identical.
    let outcome_bytes = std::fs::read(&out).expect("outcome bytes");
    let pool_models = muffin_models::ModelPool::load_json(&pool).expect("pool parses");
    let unchosen = pool_models
        .iter()
        .map(|m| m.name().to_string())
        .find(|name| !outcome.best().model_names.contains(name))
        .expect("a 4-model pool has an unchosen model");
    let remove = muffin(&[
        "pool", "remove", "--pool", &pool, "--model", &unchosen, "--outcome", &out,
    ]);
    assert!(
        remove.status.success(),
        "removing an unchosen model failed: {}",
        String::from_utf8_lossy(&remove.stderr)
    );
    assert_eq!(
        outcome_bytes,
        std::fs::read(&out).expect("outcome bytes after remove"),
        "pool remove must not rewrite the outcome file"
    );

    // Phase 6: `pool gc --dry-run` reports garbage without writing; the
    // real gc keeps exactly the united models.
    let before_gc = std::fs::read(&pool).expect("pool bytes");
    let dry = muffin(&["pool", "gc", "--pool", &pool, "--outcome", &out, "--dry-run"]);
    assert!(dry.status.success());
    assert_eq!(
        before_gc,
        std::fs::read(&pool).expect("pool bytes after dry run"),
        "gc --dry-run must not rewrite the pool"
    );
    let gc = muffin(&["pool", "gc", "--pool", &pool, "--outcome", &out]);
    assert!(
        gc.status.success(),
        "pool gc failed: {}",
        String::from_utf8_lossy(&gc.stderr)
    );
    let kept = muffin_models::ModelPool::load_json(&pool).expect("gc'd pool parses");
    let mut kept_names: Vec<&str> = kept.iter().map(|m| m.name()).collect();
    let mut united: Vec<&str> = outcome.best().model_names.iter().map(String::as_str).collect();
    kept_names.sort_unstable();
    united.sort_unstable();
    united.dedup();
    assert_eq!(kept_names, united, "gc kept the wrong models");

    for f in [pool, out, ckpt] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn pool_lifecycle_rejects_an_outcome_whose_best_is_not_in_its_history() {
    let (_, fixture_pool) = fixture();
    let pool = tmp("bad_best_pool.json");
    let outcome = tmp("bad_best_outcome.json");
    std::fs::copy(&fixture_pool, &pool).expect("copy fixture pool");
    std::fs::write(
        &outcome,
        r#"{"history":[],"best_by_reward":0,"target_attributes":["age"]}"#,
    )
    .expect("write outcome");
    let before = std::fs::read(&pool).expect("pool bytes");
    for command in [
        format!("pool gc --pool {pool} --outcome {outcome}"),
        format!("pool remove --pool {pool} --model ResNet-18 --outcome {outcome}"),
    ] {
        let args: Vec<&str> = command.split_whitespace().collect();
        let result = muffin(&args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains("best_by_reward"), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        let after = std::fs::read(&pool).expect("pool bytes");
        assert!(before == after, "{command} rewrote the pool");
    }
    for f in [pool, outcome] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn a_dataset_with_a_label_out_of_range_is_rejected_by_every_command_without_a_panic() {
    let (data, pool) = fixture();
    let bad = tmp("label99_data.json");
    let out = tmp("label99_out.json");
    std::fs::remove_file(&out).ok();
    let mut json = muffin_json::parse(&std::fs::read_to_string(&data).expect("fixture data"))
        .expect("fixture data parses");
    let muffin_json::Json::Obj(entries) = &mut json else {
        panic!("fixture data is not an object")
    };
    let Some((_, muffin_json::Json::Arr(labels))) = entries.iter_mut().find(|(k, _)| k == "labels")
    else {
        panic!("fixture data has no labels array")
    };
    labels[5] = muffin_json::Json::Int(99);
    std::fs::write(&bad, muffin_json::to_string(&json)).expect("write broken dataset");
    for command in [
        format!("train-pool --data {bad} --archs ResNet-18 --epochs 1 --out {out}"),
        format!("evaluate --data {bad} --pool {pool}"),
        format!("search --data {bad} --pool {pool} --attrs age,site --episodes 1 --out {out}"),
    ] {
        let result = muffin(&command.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains(&bad) && stderr.contains("labels[5] = 99"),
            "{command}: the error must name the file and the label: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(
            !std::path::Path::new(&out).exists(),
            "{command} wrote its output"
        );
    }
    std::fs::remove_file(bad).ok();
}

#[test]
fn a_pool_with_a_non_finite_or_unchained_parameter_is_rejected_without_a_panic() {
    let (data, pool) = fixture();
    let out = tmp("bad_pool_out.json");
    std::fs::remove_file(&out).ok();
    let text = std::fs::read_to_string(&pool).expect("fixture pool");
    // The fixture's first model is ResNet-18: projection 16 wide, then
    // layers 16→64→32→8. The writer cannot spell infinity, so the string
    // "1e999" is written as the bare number.
    type Edit = fn(&mut muffin_json::Json);
    let edits: [(&str, &str, Edit); 4] = [
        ("inf_weight", "mlp.layers[0].weight[0][1] = inf", |model| {
            let weight = json_field(json_layer(model, 0), "weight");
            json_items(json_field(weight, "data"))[1] = muffin_json::Json::Str("1e999".into());
        }),
        ("null_projection", "projection[0][0] = NaN", |model| {
            let projection = json_field(model, "projection");
            json_items(json_field(projection, "data"))[0] = muffin_json::Json::Null;
        }),
        (
            "short_weight",
            "mlp.layers[1].weight has 63 rows",
            |model| {
                let weight = json_field(json_layer(model, 1), "weight");
                *json_field(weight, "rows") = muffin_json::Json::Int(63);
                json_items(json_field(weight, "data")).truncate(63 * 32);
            },
        ),
        ("short_bias", "mlp.layers[0].bias has 63 values", |model| {
            json_items(json_field(json_layer(model, 0), "bias")).pop();
        }),
    ];
    for (name, field, edit) in edits {
        let bad = tmp(&format!("{name}_pool.json"));
        let mut json = muffin_json::parse(&text).expect("fixture pool parses");
        edit(&mut json_items(json_field(&mut json, "models"))[0]);
        let written = muffin_json::to_string(&json).replace("\"1e999\"", "1e999");
        std::fs::write(&bad, written).expect("write broken pool");
        for command in [
            format!("evaluate --data {data} --pool {bad}"),
            format!("search --data {data} --pool {bad} --attrs age,site --episodes 1 --out {out}"),
        ] {
            let result = muffin(&command.split_whitespace().collect::<Vec<_>>());
            let stderr = String::from_utf8_lossy(&result.stderr);
            assert_eq!(result.status.code(), Some(1), "{command}: {stderr}");
            assert!(
                stderr.contains(&bad)
                    && stderr.contains("models[0] (ResNet-18)")
                    && stderr.contains(field),
                "{command}: the error must name the file, the model and {field}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{command}: {stderr}");
            assert!(
                !std::path::Path::new(&out).exists(),
                "{command} wrote its output"
            );
        }
        std::fs::remove_file(bad).ok();
    }
}

#[test]
fn a_pool_that_does_not_fit_the_data_is_rejected_before_any_work() {
    let (data, fixture_pool) = fixture();
    // The fixture pool was trained on 8-class `isic` data with 24 features.
    let fitzpatrick = tmp("misfit_fitzpatrick.json");
    let gen = muffin(&[
        "generate",
        "--dataset",
        "fitzpatrick",
        "--samples",
        "300",
        "--seed",
        "5",
        "--out",
        &fitzpatrick,
    ]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    // The fixture data with its last feature column dropped.
    let narrow = tmp("misfit_narrow.json");
    let mut json = muffin_json::parse(&std::fs::read_to_string(&data).expect("fixture data"))
        .expect("fixture data parses");
    let features = json_field(&mut json, "features");
    *json_field(features, "cols") = muffin_json::Json::Int(23);
    let values = std::mem::take(json_items(json_field(features, "data")));
    *json_items(json_field(features, "data")) = values
        .chunks(24)
        .flat_map(|row| row[..23].to_vec())
        .collect();
    std::fs::write(&narrow, muffin_json::to_string(&json)).expect("write narrow data");
    // `pool add` rewrites its pool on success, so it gets a copy.
    let pool = tmp("misfit_pool.json");
    std::fs::copy(&fixture_pool, &pool).expect("copy the fixture pool");
    let before = std::fs::read(&pool).expect("pool bytes");
    let out = tmp("misfit_out.json");
    std::fs::remove_file(&out).ok();
    for (bad, numbers) in [
        (&fitzpatrick, "predicts 8 classes, but the data has 9"),
        (&narrow, "reads 24 features, but the data has 23"),
    ] {
        for command in [
            format!("evaluate --data {bad} --pool {pool}"),
            format!("search --data {bad} --pool {pool} --attrs age --episodes 1 --out {out}"),
            format!("pool add --data {bad} --pool {pool} --archs MobileNet_V2 --epochs 1"),
        ] {
            let result = muffin(&command.split_whitespace().collect::<Vec<_>>());
            let stderr = String::from_utf8_lossy(&result.stderr);
            assert_eq!(result.status.code(), Some(1), "{command}: {stderr}");
            assert!(
                stderr.contains(&pool)
                    && stderr.contains("models[0] (ResNet-18)")
                    && stderr.contains(numbers),
                "{command}: the error must name the pool, the model and {numbers}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{command}: {stderr}");
            assert!(result.stdout.is_empty(), "{command} printed results");
            assert!(
                !std::path::Path::new(&out).exists(),
                "{command} wrote its output"
            );
            assert!(
                std::fs::read(&pool).expect("pool bytes") == before,
                "{command} rewrote the pool"
            );
        }
    }
    for f in [fitzpatrick, narrow, pool] {
        std::fs::remove_file(f).ok();
    }
}

/// The entry `key` of a JSON object.
fn json_field<'a>(json: &'a mut muffin_json::Json, key: &str) -> &'a mut muffin_json::Json {
    match json {
        muffin_json::Json::Obj(entries) => {
            &mut entries.iter_mut().find(|(k, _)| k == key).expect(key).1
        }
        other => panic!("expected an object, found {}", other.kind()),
    }
}

/// The elements of a JSON array.
fn json_items(json: &mut muffin_json::Json) -> &mut Vec<muffin_json::Json> {
    match json {
        muffin_json::Json::Arr(items) => items,
        other => panic!("expected an array, found {}", other.kind()),
    }
}

/// Layer `l` of a pool model's JSON.
fn json_layer(model: &mut muffin_json::Json, l: usize) -> &mut muffin_json::Json {
    &mut json_items(json_field(json_field(model, "mlp"), "layers"))[l]
}

#[test]
fn serve_answers_stdin_requests_and_shuts_down_cleanly_on_eof() {
    use std::io::Write as _;
    // The demo deployment is IsicLike-small: 24 features per request.
    let good_row = vec!["0.5"; 24].join(",");
    // Rows that parse but are not finite: NaN, infinity, and a literal
    // past f32's range, which parses to infinity.
    let nan_row = good_row.replacen("0.5", "nan", 1);
    let inf_row = format!("0.5,inf{}", &good_row[7..]);
    let huge_row = format!("{}1e999", &good_row[..good_row.len() - 3]);
    let input = format!(
        "{good_row}\n1.0,2.0\nnot,numbers,at,all\n\n{nan_row}\n{inf_row}\n{huge_row}\n{good_row}\n"
    );
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_muffin"))
        .args(["serve", "--seed", "9"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn muffin serve");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(input.as_bytes())
        .expect("write requests");
    // Dropping stdin sends EOF: the server must exit on its own.
    let out = child.wait_with_output().expect("reap muffin serve");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ready"), "missing ready line: {stdout}");
    let ok_lines = stdout.lines().filter(|l| l.starts_with("ok ")).count();
    assert_eq!(ok_lines, 2, "expected 2 served requests: {stdout}");
    // The short row is answered with an error reply, not a crash...
    assert!(
        stdout.contains("error: invalid request: expected 24 features, got 2"),
        "missing width-error reply: {stdout}"
    );
    // ...and so is the unparsable row.
    assert!(
        stdout.contains("error: invalid request: not a number"),
        "missing parse-error reply: {stdout}"
    );
    // Non-finite features are refused, naming the feature, and counted.
    for want in [
        "error: invalid request: feature 0 is NaN, features must be finite",
        "error: invalid request: feature 1 is inf, features must be finite",
        "error: invalid request: feature 23 is inf, features must be finite",
    ] {
        assert!(stdout.contains(want), "missing {want:?}: {stdout}");
    }
    assert!(
        stdout.contains("served 2 ok, 0 shed, 4 errors"),
        "missing shutdown stats: {stdout}"
    );
}

/// Runs `muffin loadgen`, asserting success, and returns its stdout.
fn run_loadgen(extra: &[&str]) -> String {
    let mut args = vec!["loadgen"];
    args.extend_from_slice(extra);
    let out = muffin(&args);
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn loadgen_archives_a_bench_shaped_throughput_and_latency_report() {
    let report_path = tmp("loadgen_report.json");
    let stdout = run_loadgen(&[
        "--seed",
        "13",
        "--clients",
        "3",
        "--requests",
        "40",
        "--out",
        &report_path,
    ]);
    assert!(stdout.contains("120 requests"), "{stdout}");
    assert!(stdout.contains("p50"), "{stdout}");
    let report: muffin_json::Json =
        muffin_json::from_str(&std::fs::read_to_string(&report_path).expect("report written"))
            .expect("report parses");
    assert_eq!(
        report.get("suite"),
        Some(&muffin_json::Json::Str("serve".into()))
    );
    let results = match report.get("results") {
        Some(muffin_json::Json::Arr(items)) => items.clone(),
        other => panic!("missing results array: {other:?}"),
    };
    let names: Vec<_> = results
        .iter()
        .filter_map(|r| r.get("name").cloned())
        .collect();
    for expected in ["request_p50", "request_p99", "req_interval"] {
        assert!(
            names.contains(&muffin_json::Json::Str(expected.into())),
            "missing {expected} in {names:?}"
        );
    }
    // Non-saturating run: every request completed.
    let loadgen = report.get("loadgen").expect("loadgen counters");
    assert_eq!(loadgen.get("completed"), Some(&muffin_json::Json::Int(120)));
    assert_eq!(loadgen.get("shed"), Some(&muffin_json::Json::Int(0)));
    std::fs::remove_file(report_path).ok();
}

#[test]
fn saturated_loadgen_sheds_and_still_exits_zero() {
    let report_path = tmp("loadgen_shed_report.json");
    run_loadgen(&[
        "--seed",
        "13",
        "--clients",
        "6",
        "--requests",
        "5",
        "--queue-depth",
        "1",
        "--batch",
        "1",
        "--workers",
        "1",
        "--worker-delay-us",
        "30000",
        "--out",
        &report_path,
    ]);
    let report: muffin_json::Json =
        muffin_json::from_str(&std::fs::read_to_string(&report_path).expect("report written"))
            .expect("report parses");
    let loadgen = report.get("loadgen").expect("loadgen counters");
    let shed = match loadgen.get("shed") {
        Some(&muffin_json::Json::Int(n)) => n,
        other => panic!("missing shed counter: {other:?}"),
    };
    let completed = match loadgen.get("completed") {
        Some(&muffin_json::Json::Int(n)) => n,
        other => panic!("missing completed counter: {other:?}"),
    };
    assert!(shed > 0, "saturation produced no sheds");
    assert_eq!(completed + shed, 30, "a request vanished");
    std::fs::remove_file(report_path).ok();
}

#[test]
fn stripped_loadgen_traces_are_byte_identical_across_runs_and_worker_counts() {
    let stripped = |name: &str, workers: &str| {
        let trace_path = tmp(name);
        // Non-saturating closed loop (queue depth >= clients): zero sheds,
        // so the histogram count equals the request count deterministically.
        run_loadgen(&[
            "--seed",
            "21",
            "--clients",
            "4",
            "--requests",
            "25",
            "--queue-depth",
            "64",
            "--workers",
            workers,
            "--trace-out",
            &trace_path,
        ]);
        let log = TraceLog::load_json(&trace_path).expect("trace parses");
        std::fs::remove_file(&trace_path).ok();
        muffin_json::to_string(&log.stripped())
    };
    let first = stripped("lg_trace_a.json", "1");
    let second = stripped("lg_trace_b.json", "1");
    let more_workers = stripped("lg_trace_c.json", "4");
    assert_eq!(first, second, "same config diverged across runs");
    assert_eq!(first, more_workers, "worker count leaked into the trace");
    // The histogram made it into the log with the full request count.
    let log: TraceLog = muffin_json::from_str(&first).expect("stripped log parses");
    let histogram = log
        .events
        .iter()
        .find(|e| e.name == "serve.request")
        .expect("serve.request histogram event");
    match histogram.data {
        muffin_trace::EventData::Histogram { count } => assert_eq!(count, 100),
        ref other => panic!("serve.request is not a histogram: {other:?}"),
    }
}

#[test]
fn serve_and_loadgen_reject_bad_flags_before_training_anything() {
    for args in [
        ["loadgen", "--workers", "0"],
        ["loadgen", "--queue-depth", "0"],
        ["loadgen", "--batch", "0"],
        ["loadgen", "--clients", "0"],
        ["loadgen", "--requests", "0"],
    ] {
        let out = muffin(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[1]), "{args:?}: {stderr}");
    }
    // `serve` answers one stdin line before it reads the next, so it has
    // no queue, batch or worker count to set: each flag is refused by
    // name, even with a valid value.
    for args in [
        ["serve", "--queue-depth", "64"],
        ["serve", "--batch", "16"],
        ["serve", "--workers", "2"],
    ] {
        let out = muffin(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("serve does not take {}", args[1])),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn zero_slots_is_rejected_before_any_file_is_read() {
    // The input paths do not exist: the flag check must fire before any
    // file is opened, naming the flag instead of panicking. The search
    // cases also cover a bad student width and a flag missing the flag
    // it depends on.
    let out_dir = tmp("zero_slots_matrix");
    let data = tmp("zero_samples_data.json");
    std::fs::remove_file(&data).ok();
    let search = "search --data /nonexistent/data.json --pool /nonexistent/pool.json \
                  --attrs age --out /nonexistent/outcome.json";
    let distill = format!("{search} --distill-out /nonexistent/student.json");
    let matrix = format!("matrix --scenarios german-credit --out-dir {out_dir} --slots 0");
    let isic = format!("generate --out {data} --samples 0");
    let fitzpatrick = format!("generate --dataset fitzpatrick --out {data} --samples 0");
    for (command, flag) in [
        (format!("{search} --slots 0"), "--slots"),
        (
            format!("{distill} --student-hidden 8,x"),
            "--student-hidden",
        ),
        (format!("{distill} --student-hidden 0"), "--student-hidden"),
        (format!("{search} --student-hidden 8,4"), "--distill-out"),
        (
            format!("{search} --checkpoint-every 3"),
            "--checkpoint-every",
        ),
        (matrix, "--slots"),
        (isic, "--samples"),
        (fitzpatrick, "--samples"),
    ] {
        let args: Vec<&str> = command.split_whitespace().collect();
        let out = muffin(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains(flag), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(!stderr.contains("/nonexistent"), "{command}: {stderr}");
    }
    let created = std::path::Path::new(&out_dir).exists();
    assert!(!created, "a rejected matrix created --out-dir");
    let written = std::path::Path::new(&data).exists();
    assert!(!written, "a rejected generate wrote --out");
}

#[test]
fn every_command_rejects_flags_it_does_not_read_before_any_file_is_read() {
    // One flag each command does not read, among the flags it needs: each
    // must fail naming the flag, before the (nonexistent) inputs are
    // loaded and without writing any output it names.
    let out = tmp("unknown_flag_out.json");
    let trace = tmp("unknown_flag_trace.json");
    let out_dir = tmp("unknown_flag_matrix");
    let data = "/nonexistent/data.json";
    let pool = "/nonexistent/pool.json";
    let outcome = "/nonexistent/outcome.json";
    let search = format!("search --data {data} --pool {pool} --attrs age --out {out}");
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_dir_all(&out_dir).ok();
    // The flag under test is the last one of each command.
    for command in [
        format!("generate --out {out} --sample 50"),
        format!("generate --out {out} --verbose"),
        format!("train-pool --data {data} --out {out} --trace-out {trace}"),
        format!("evaluate --data {data} --pool {pool} --top 3"),
        format!("pool list --pool {pool} --verbose"),
        format!("pool add --pool {pool} --data {data} --archs ResNet-18 --out {out}"),
        format!("pool remove --pool {pool} --model ResNet-18 --dry-run"),
        format!("pool gc --pool {pool} --outcome {outcome} --top 1"),
        // A typo of --episodes, and a flag of the removed sharded fleet.
        format!("{search} --episode 3"),
        format!("{search} --shards 2"),
        // Flags of the removed cross-run eval cache.
        format!("{search} --eval-cache {out}"),
        format!("matrix --scenarios german-credit --out-dir {out_dir} --attrs age"),
        format!("matrix --scenarios german-credit --out-dir {out_dir} --cache-dir {out_dir}"),
        "serve --clients 4".to_string(),
        "serve --worker-delay-us 5".to_string(),
        format!("loadgen --out {out} --samples 10"),
        format!("report --outcome {outcome} --episodes 3"),
        format!("trace summarize --trace {outcome} --top 3"),
        "help --verbose".to_string(),
    ] {
        let args: Vec<&str> = command.split_whitespace().collect();
        let flag = args.iter().rfind(|a| a.starts_with("--")).expect("a flag");
        let result = muffin(&args);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains(flag), "{command}: {stderr}");
        assert!(!stderr.contains("/nonexistent"), "{command}: {stderr}");
        for path in [&out, &trace, &out_dir] {
            let written = std::path::Path::new(path).exists();
            assert!(!written, "{command} wrote {path}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage_code() {
    let out = muffin(&["search", "--workers"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "dangling option is a usage error"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workers"));

    let out = muffin(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
}

/// A small user-written scenario file exercising the full schema: two
/// attributes, shares/angles/noise, and an intersectional cell effect.
const CUSTOM_SCENARIO: &str = r#"{
  "version": 1,
  "name": "custom-credit",
  "family": "tabular",
  "description": "process-test scenario with an old-female cell effect",
  "default_attrs": ["gender", "age"],
  "generator": {
    "num_samples": 300,
    "feature_dim": 8,
    "num_classes": 2,
    "class_sep": 2.0,
    "base_noise": 1.0,
    "attributes": [
      {
        "name": "gender",
        "groups": [
          {"name": "male", "share": 0.65},
          {"name": "female", "share": 0.35, "angle_deg": 40.0, "noise_mult": 1.4}
        ],
        "planes": [[0, 1]]
      },
      {
        "name": "age",
        "groups": [
          {"name": "young", "share": 0.7},
          {"name": "old", "share": 0.3, "angle_deg": 55.0, "noise_mult": 1.6}
        ],
        "planes": [[1, 2]]
      }
    ],
    "correlation": 0.4,
    "interactions": [
      {
        "attr_a": "gender",
        "attr_b": "age",
        "planes": [[0, 2]],
        "cells": [
          {"group_a": "female", "group_b": "old", "angle_deg": 60.0, "noise_mult": 1.8}
        ]
      }
    ]
  }
}"#;

/// `matrix` arguments for a 2×2 grid over one builtin and one user
/// scenario file, sized for a debug-build process test.
fn matrix_cmd(scenario_file: &str, out_dir: &str, extra: &[&str]) -> Vec<String> {
    let scenarios = format!("german-credit,{scenario_file}");
    let mut v: Vec<String> = [
        "matrix",
        "--scenarios",
        &scenarios,
        "--rewards",
        "paper,intersect",
        "--samples",
        "300",
        "--episodes",
        "2",
        "--epochs",
        "2",
        "--archs",
        "ResNet-18,DenseNet121",
        "--seed",
        "11",
        "--out-dir",
        out_dir,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

#[test]
fn matrix_reports_are_byte_identical_across_worker_counts() {
    let scenario_file = tmp("matrix_custom_scenario.json");
    std::fs::write(&scenario_file, CUSTOM_SCENARIO).expect("write scenario file");
    let dir_serial = tmp("matrix_serial");
    let dir_parallel = tmp("matrix_parallel");

    let serial = muffin(
        &matrix_cmd(&scenario_file, &dir_serial, &["--workers", "1"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(
        serial.status.success(),
        "serial matrix failed: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    assert!(
        serial.stderr.is_empty(),
        "quiet matrix leaked to stderr: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let stdout = String::from_utf8_lossy(&serial.stdout);
    assert!(stdout.contains("2×2 grid"), "missing grid summary: {stdout}");
    assert!(
        stdout.contains("custom-credit"),
        "missing file-scenario row: {stdout}"
    );

    let parallel = muffin(
        &matrix_cmd(&scenario_file, &dir_parallel, &["--workers", "4"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    assert!(
        parallel.status.success(),
        "parallel matrix failed: {}",
        String::from_utf8_lossy(&parallel.stderr)
    );

    for name in ["matrix.json", "matrix.md"] {
        let a = std::fs::read_to_string(std::path::Path::new(&dir_serial).join(name))
            .expect("serial report");
        let b = std::fs::read_to_string(std::path::Path::new(&dir_parallel).join(name))
            .expect("parallel report");
        assert_eq!(a, b, "{name} diverged across worker counts");
    }

    // The JSON report parses and covers every cell of the grid.
    let json: muffin_json::Json = muffin_json::from_str(
        &std::fs::read_to_string(std::path::Path::new(&dir_serial).join("matrix.json"))
            .expect("json report"),
    )
    .expect("report parses");
    match json.get("cells") {
        Some(muffin_json::Json::Arr(cells)) => assert_eq!(cells.len(), 4),
        other => panic!("missing cells array: {other:?}"),
    }

    std::fs::remove_file(scenario_file).ok();
    for d in [dir_serial, dir_parallel] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn matrix_rejects_bad_grids_before_any_work() {
    let out_dir = tmp("matrix_never_created");
    std::fs::remove_dir_all(&out_dir).ok();

    let bad_scenario = muffin(&[
        "matrix",
        "--scenarios",
        "no-such-scenario",
        "--out-dir",
        &out_dir,
    ]);
    assert!(!bad_scenario.status.success());
    let stderr = String::from_utf8_lossy(&bad_scenario.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
    assert!(
        stderr.contains("german-credit"),
        "error must list the builtins: {stderr}"
    );

    let bad_reward = muffin(&[
        "matrix",
        "--scenarios",
        "german-credit",
        "--rewards",
        "paper,bogus",
        "--out-dir",
        &out_dir,
    ]);
    assert!(!bad_reward.status.success());
    let stderr = String::from_utf8_lossy(&bad_reward.stderr);
    assert!(stderr.contains("unknown reward"), "{stderr}");

    let bad_lambda = muffin(&[
        "matrix",
        "--scenarios",
        "german-credit",
        "--rewards",
        "linear:nope",
        "--out-dir",
        &out_dir,
    ]);
    assert!(!bad_lambda.status.success());
    assert!(String::from_utf8_lossy(&bad_lambda.stderr).contains("lambda"));

    // A malformed scenario file is rejected with the parser's
    // line/column position, before anything is generated or trained.
    let broken = tmp("matrix_broken_scenario.json");
    std::fs::write(&broken, "{\n  \"version\": 1,\n  \"name\": \"x\" oops\n}")
        .expect("write broken scenario");
    let bad_file = muffin(&["matrix", "--scenarios", &broken, "--out-dir", &out_dir]);
    assert!(!bad_file.status.success());
    let stderr = String::from_utf8_lossy(&bad_file.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
    std::fs::remove_file(broken).ok();

    // Validation happens before the output directory is created.
    assert!(
        !std::path::Path::new(&out_dir).exists(),
        "a rejected grid must not create --out-dir"
    );
}

#[test]
fn a_repeated_flag_is_rejected_before_any_work() {
    let out = tmp("repeated_flag.json");
    std::fs::remove_file(&out).ok();
    let result = muffin(&[
        "generate",
        "--samples",
        "50",
        "--samples",
        "60",
        "--out",
        &out,
    ]);
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("--samples") && stderr.contains("more than once"),
        "the error must name the repeated flag: {stderr}"
    );
    assert!(
        !std::path::Path::new(&out).exists(),
        "a rejected command wrote its --out file"
    );
}

#[test]
fn load_errors_name_the_file() {
    let (data, _) = fixture();
    let missing = tmp("absent_artifact.json");
    std::fs::remove_file(&missing).ok();
    let malformed = tmp("malformed_artifact.json");
    std::fs::write(&malformed, "{\n  \"history\": [\n").expect("write");
    for file in [missing.as_str(), malformed.as_str()] {
        for args in [
            vec!["report", "--outcome", file],
            vec!["trace", "summarize", "--trace", file],
            vec!["evaluate", "--data", file, "--pool", file],
            vec!["evaluate", "--data", &data, "--pool", file],
            vec!["pool", "list", "--pool", file],
        ] {
            let result = muffin(&args);
            let stderr = String::from_utf8_lossy(&result.stderr);
            assert_eq!(result.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(file), "{args:?} must name {file}: {stderr}");
            if file == malformed {
                assert!(stderr.contains("line 3"), "{args:?}: {stderr}");
            }
        }
    }
    std::fs::remove_file(malformed).ok();
}

#[test]
fn unwritable_outputs_are_named_before_any_work() {
    // Every output path is checked once the arguments are valid and
    // before any training or search: each command exits 1 naming the
    // path, prints no result and writes none of its other outputs.
    let (data, pool) = fixture();
    let out = tmp("unwritable_other_out.json");
    let out_dir = tmp("unwritable_matrix");
    std::fs::remove_file(&out).ok();
    std::fs::remove_dir_all(&out_dir).ok();
    let search = format!("search --data {data} --pool {pool} --attrs age --episodes 1");
    for (command, path) in [
        (
            "generate --samples 10 --out /nonexistent/x.json".to_string(),
            "/nonexistent/x.json",
        ),
        (
            format!(
                "train-pool --data {data} --archs ResNet-18 --epochs 1 --out /nonexistent/p.json"
            ),
            "/nonexistent/p.json",
        ),
        (
            format!(
                "matrix --scenarios german-credit --samples 300 --episodes 1 --epochs 1 \
                 --archs ResNet-18 --out-dir {out_dir} --bench-out /nonexistent/m.json"
            ),
            "/nonexistent/m.json",
        ),
        (
            format!("{search} --out /nonexistent/o.json"),
            "/nonexistent/o.json",
        ),
        (
            format!("{search} --out {out} --distill-out /nonexistent/s.json"),
            "/nonexistent/s.json",
        ),
        (
            format!("{search} --out {out} --checkpoint /nonexistent/c.json"),
            "/nonexistent/c.json",
        ),
        (
            "loadgen --requests 1 --trace-out /nonexistent/t.json".to_string(),
            "/nonexistent/t.json",
        ),
    ] {
        let result = muffin(&command.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(1), "{command}: {stderr}");
        assert!(
            stderr.contains("cannot write --") && stderr.contains(path),
            "{command} must name {path}: {stderr}"
        );
        assert!(result.stdout.is_empty(), "{command} printed results");
        assert!(
            !std::path::Path::new(&out).exists(),
            "{command} wrote {out}"
        );
        let report = std::path::Path::new(&out_dir).join("matrix.json");
        assert!(!report.exists(), "{command} wrote {}", report.display());
    }
    std::fs::remove_dir_all(&out_dir).ok();
}
