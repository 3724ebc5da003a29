//! Property tests for `muffin-par`: the pooled map must be observationally
//! identical to a sequential map for every input length and worker count,
//! and a panicking stage must propagate instead of deadlocking.

use muffin_check::{check, prop_assert, prop_assert_eq, Config, Gen};
use muffin_par::WorkerPool;

#[test]
fn pooled_map_equals_sequential_map() {
    check(
        "pooled map == sequential map",
        Config::cases(96),
        |g: &mut Gen| {
            // Lengths from empty to well past the worker count, worker
            // counts including 1 and counts larger than the input.
            let items = g.vec_f32(0..=48, -1e3, 1e3);
            let workers = g.usize_in(1..=12);
            (items, workers)
        },
        |(items, workers)| {
            let stage = |i: usize, x: &f32| (i as f32).mul_add(0.5, x.sin());
            let pooled = WorkerPool::new(*workers).map(items, stage);
            let sequential: Vec<f32> =
                items.iter().enumerate().map(|(i, x)| stage(i, x)).collect();
            prop_assert_eq!(pooled.len(), sequential.len());
            for (i, (p, s)) in pooled.iter().zip(&sequential).enumerate() {
                prop_assert_eq!(p.to_bits(), s.to_bits(), "index {} diverged", i);
            }
            Ok(())
        },
    );
}

#[test]
fn pooled_map_is_worker_count_invariant() {
    check(
        "map result independent of worker count",
        Config::cases(48),
        |g: &mut Gen| g.vec_usize(0..=32, 0..=1_000),
        |items| {
            let reference = WorkerPool::serial().map(items, |i, &x| x.wrapping_mul(i + 1));
            for workers in [2usize, 3, 5, 64] {
                let pooled = WorkerPool::new(workers).map(items, |i, &x| x.wrapping_mul(i + 1));
                prop_assert_eq!(&pooled, &reference, "workers={}", workers);
            }
            Ok(())
        },
    );
}

#[test]
fn panicking_stage_propagates_for_any_panic_site() {
    // Every case panics on purpose; silence the default hook so the run
    // does not spew dozens of expected backtraces.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    check(
        "panic propagates, no deadlock",
        Config::cases(32),
        |g: &mut Gen| {
            let len = g.usize_in(1..=24);
            let panic_at = g.usize_in(0..=len - 1);
            let workers = g.usize_in(1..=8);
            (len, panic_at, workers)
        },
        |&(len, panic_at, workers)| {
            let items: Vec<usize> = (0..len).collect();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                WorkerPool::new(workers).map(&items, |_, &x| {
                    if x == panic_at {
                        panic!("stage failed at {x}");
                    }
                    x * 2
                })
            }));
            prop_assert!(
                outcome.is_err(),
                "panic at {} with {} workers must unwind out of map",
                panic_at,
                workers
            );
            Ok(())
        },
    );
    std::panic::set_hook(prev);
}

#[test]
fn chunked_map_composes_to_full_map() {
    check(
        "per-chunk map == whole map",
        Config::cases(48),
        |g: &mut Gen| {
            let items = g.vec_f32(0..=40, -10.0, 10.0);
            let chunks = g.usize_in(1..=9);
            (items, chunks)
        },
        |(items, chunks)| {
            let pool = WorkerPool::new(*chunks);
            let size = items.len().div_ceil(*chunks).max(1);
            let slices: Vec<&[f32]> = items.chunks(size).collect();
            let per_chunk = pool.map(&slices, |_, slice| {
                slice.iter().map(|x| x * 2.0).collect::<Vec<f32>>()
            });
            let flat: Vec<f32> = per_chunk.into_iter().flatten().collect();
            let whole: Vec<f32> = items.iter().map(|x| x * 2.0).collect();
            prop_assert_eq!(flat, whole);
            Ok(())
        },
    );
}
