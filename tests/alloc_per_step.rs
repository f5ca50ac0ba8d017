//! Allocation regression test for the engines' per-step paths.
//!
//! A node step applies one pair drawn from δ to a constant-size state
//! (the paper's requirement M4), so in steady state it should not touch
//! the heap. A counting global allocator with a per-thread counter
//! measures whole runs — setup included, so the bounds are conservative
//! — and the test divides by the number of node steps taken:
//!
//! * serial sync MIS on gnp(2000, deg 8): at most 0.01 allocations per
//!   node-round (one per node-round when δ's choice set lived on the
//!   heap);
//! * `Synchronized(SingleLetter(MIS))` on gnp(16, deg 8) under a uniform
//!   adversary: at most 0.05 allocations per async node step (3.56 when
//!   every step cloned the compiled state).
//!
//! Both engines run on the calling thread, so the thread-local counter
//! sees exactly the run's allocations even while other tests run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stoneage::core::{SingleLetter, Synchronized};
use stoneage::graph::{generators, validate, Graph};
use stoneage::protocols::{decode_mis, MisProtocol};
use stoneage::sim::adversary::UniformRandom;
use stoneage::sim::{Detail, Simulation};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only touches a const-initialized thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller's `realloc` contract guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller's `dealloc` contract guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `gnp(n)` with expected degree 8.
fn gnp_deg8(n: usize, seed: u64) -> Graph {
    generators::gnp(n, 8.0 / (n - 1) as f64, seed)
}

#[test]
fn serial_sync_mis_is_allocation_free_per_node_round() {
    let g = gnp_deg8(2000, 1);
    let p = MisProtocol::new();
    let (out, allocations) = counted(|| {
        Simulation::sync(&p, &g)
            .seed(7)
            .run()
            .expect("MIS terminates")
    });
    assert!(validate::is_maximal_independent_set(
        &g,
        &decode_mis(&out.outputs)
    ));
    let node_rounds = out.rounds().expect("sync outcome") * g.node_count() as u64;
    let per = allocations as f64 / node_rounds as f64;
    assert!(
        per <= 0.01,
        "{allocations} allocations over {node_rounds} node-rounds = {per:.4} per node-round"
    );
}

#[test]
fn synchronized_mis_is_allocation_free_per_async_step() {
    let g = gnp_deg8(16, 2);
    let p = Synchronized::new(SingleLetter::new(MisProtocol::new()));
    let adversary = UniformRandom { seed: 3 };
    let (out, allocations) = counted(|| {
        Simulation::asynchronous(&p, &g, &adversary)
            .seed(4)
            .run()
            .expect("synchronized MIS terminates")
    });
    assert!(validate::is_maximal_independent_set(
        &g,
        &decode_mis(&out.outputs)
    ));
    let Detail::Async { total_steps, .. } = out.detail else {
        panic!("not an async outcome");
    };
    let per = allocations as f64 / total_steps as f64;
    assert!(
        per <= 0.05,
        "{allocations} allocations over {total_steps} node steps = {per:.4} per step"
    );
}
