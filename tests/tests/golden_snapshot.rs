//! Golden-snapshot determinism suite: the serialised `SearchOutcome` of a
//! frozen recipe is committed at `tests/golden/search_outcome.json`, and
//! re-running the recipe — serially or on a four-worker pool — must
//! reproduce it byte for byte. Two more files pin the rest of the
//! candidate-evaluation surface on the same fixture: the `random_search`
//! outcome, and the recipe's stripped trace log (every span, counter and
//! histogram count a traced search records).
//!
//! If an intentional behaviour change invalidates a golden file,
//! regenerate them all with `scripts/regen-golden.sh` and commit the diff
//! alongside the change that caused it.

use muffin::WorkerPool;
use muffin_integration_tests::{
    golden_outcome_json, golden_outcome_json_resumed, golden_path, golden_random_search_json,
    golden_snapshot_path, golden_trace_json,
};

fn assert_matches_golden(actual: &str, name: &str, label: &str) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed golden file {}: {e}\n\
             generate it with scripts/regen-golden.sh",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "{label} diverged from tests/golden/{name} ({} vs {} bytes).\n\
         If this change is intentional, refresh the golden files with \
         scripts/regen-golden.sh and commit the updated files.",
        actual.len(),
        expected.len()
    );
}

fn committed_snapshot() -> String {
    let path = golden_snapshot_path();
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read committed golden snapshot {}: {e}\n\
             generate it with scripts/regen-golden.sh",
            path.display()
        )
    })
}

fn assert_matches_snapshot(actual: &str, label: &str) {
    let expected = committed_snapshot();
    assert!(
        actual == expected,
        "{label} SearchOutcome diverged from tests/golden/search_outcome.json \
         ({} vs {} bytes).\n\
         If this change is intentional, refresh the snapshot with \
         scripts/regen-golden.sh and commit the updated file.",
        actual.len(),
        expected.len()
    );
}

#[test]
fn serial_search_reproduces_the_committed_snapshot() {
    assert_matches_snapshot(&golden_outcome_json(&WorkerPool::serial()), "serial");
}

#[test]
fn four_worker_search_reproduces_the_committed_snapshot() {
    assert_matches_snapshot(&golden_outcome_json(&WorkerPool::new(4)), "4-worker");
}

// The golden recipe runs 8 episodes with a REINFORCE batch of 3, so the
// interruptible batch boundaries are episodes 3 and 6. Stopping at either
// (a 3- or 6-episode budget) and resuming at the full budget must
// reproduce the committed snapshot byte for byte — the checkpoint/resume
// path may not perturb the trajectory at any worker count.

#[test]
fn kill_at_first_boundary_and_resume_reproduces_the_snapshot() {
    assert_matches_snapshot(
        &golden_outcome_json_resumed(&WorkerPool::serial(), 3, "serial"),
        "serial kill-at-3 + resume",
    );
}

#[test]
fn kill_at_second_boundary_and_resume_reproduces_the_snapshot() {
    assert_matches_snapshot(
        &golden_outcome_json_resumed(&WorkerPool::serial(), 6, "serial"),
        "serial kill-at-6 + resume",
    );
}

#[test]
fn four_worker_kill_and_resume_reproduces_the_snapshot() {
    assert_matches_snapshot(
        &golden_outcome_json_resumed(&WorkerPool::new(4), 3, "par"),
        "4-worker kill-at-3 + resume",
    );
}

// The matmul kernels promise byte-identical floats regardless of how work
// is sliced, so the committed snapshot must be reproduced at
// *every* worker count, not just the serial and 4-worker recipes above —
// a kernel whose result depended on batch shape or scratch-buffer reuse
// would diverge somewhere in this sweep.

#[test]
fn blocked_kernels_reproduce_the_snapshot_at_every_worker_count() {
    for workers in [2usize, 3, 5, 8] {
        assert_matches_snapshot(
            &golden_outcome_json(&WorkerPool::new(workers)),
            &format!("{workers}-worker (kernel sweep)"),
        );
    }
}

#[test]
fn random_search_reproduces_the_committed_outcome() {
    assert_matches_golden(
        &golden_random_search_json(),
        "random_search_outcome.json",
        "random_search SearchOutcome",
    );
}

#[test]
fn stripped_trace_reproduces_the_committed_log() {
    for workers in [WorkerPool::serial(), WorkerPool::new(4)] {
        assert_matches_golden(
            &golden_trace_json(&workers),
            "search_trace.json",
            &format!("{}-worker stripped trace log", workers.workers()),
        );
    }
}

/// Regeneration path, invoked by `scripts/regen-golden.sh`:
/// `cargo test ... -- --ignored regenerate_golden_snapshot`.
#[test]
#[ignore = "rewrites the files under tests/golden/; run via scripts/regen-golden.sh"]
fn regenerate_golden_snapshot() {
    let files = [
        (
            "search_outcome.json",
            golden_outcome_json(&WorkerPool::serial()),
        ),
        ("random_search_outcome.json", golden_random_search_json()),
        (
            "search_trace.json",
            golden_trace_json(&WorkerPool::serial()),
        ),
    ];
    for (name, json) in files {
        let path = golden_path(name);
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {} ({} bytes)", path.display(), json.len());
    }
}
