//! Heap allocations of one 1-row `ServeEngine::predict_batch`.
//!
//! At one row an allocation costs about as much as the arithmetic it holds,
//! so the request path keeps them few: consensus gating decides before the
//! head runs, a consensus row never reaches the head, and `Mlp::forward`
//! runs every network through two buffers. The counting allocator below
//! counts only the calling thread's allocations, so tests running on other
//! threads of this binary do not disturb a count.

use muffin::{FusingStructure, HeadSpec};
use muffin_data::IsicLike;
use muffin_models::{Architecture, BackboneConfig, ModelPool};
use muffin_nn::Activation;
use muffin_serve::ServeEngine;
use muffin_tensor::{Matrix, Rng64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Most allocations a 1-row request may make when its two bodies agree:
/// the cache's slot list; per body, the projected features, the two
/// forward buffers and the predictions; the gate's vote and probability
/// lists and the answer.
const CONSENSUS_MAX: usize = 12;
/// Most allocations when they disagree: the consensus ones, plus the
/// disputed-row list, the head's input, its two forward buffers and its
/// predictions.
const DISPUTED_MAX: usize = 17;

/// Passes every call to the system allocator, counting this thread's
/// allocations while [`COUNT`] holds a count.
struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

thread_local! {
    /// Allocations and reallocations made by this thread since counting
    /// began, or `None` while not counting. A const-initialised `Cell`
    /// never allocates and registers no destructor, so the allocator may
    /// touch it.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count() {
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.take()).expect("counting")
}

/// The served shape of the repository benchmark, with an untrained head:
/// ResNet-18 + DenseNet121 under a `[16,18,12,8] relu` head. Returns the
/// engine, the test rows and whether the two bodies agree on each.
fn engine() -> (ServeEngine, Matrix, Vec<bool>) {
    let mut rng = Rng64::seed(7);
    let split = IsicLike::small().generate(&mut rng).split_default(&mut rng);
    let pool = ModelPool::train(
        &split.train,
        &[Architecture::resnet18(), Architecture::densenet121()],
        &BackboneConfig::fast(),
        &mut rng,
    );
    let fusing = FusingStructure::new(
        vec![0, 1],
        HeadSpec::new(vec![16, 18, 12, 8], Activation::Relu),
        &pool,
        &mut rng,
    )
    .expect("two-model body is valid");
    let rows = split.test.features().clone();
    let (a, b) = (
        pool.get(0).unwrap().predict(&rows),
        pool.get(1).unwrap().predict(&rows),
    );
    let agree = a.iter().zip(&b).map(|(x, y)| x == y).collect();
    (ServeEngine::new(pool, fusing, rows.cols()), rows, agree)
}

#[test]
fn one_row_requests_allocate_little_and_a_consensus_row_skips_the_head() {
    let (engine, rows, agree) = engine();
    for (consensus, max) in [(true, CONSENSUS_MAX), (false, DISPUTED_MAX)] {
        let row = agree
            .iter()
            .position(|&a| a == consensus)
            .expect("the test split has both kinds of row");
        let request = rows.row_range(row..row + 1);
        let mut answer = Ok(Vec::new());
        let made = allocations(|| answer = engine.predict_batch(request));
        assert_eq!(answer.expect("served").len(), 1);
        assert!(
            made <= max,
            "a 1-row request on a {} row made {made} allocations, at most {max} allowed",
            if consensus { "consensus" } else { "disputed" },
        );
    }
}
