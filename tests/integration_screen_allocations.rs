//! The int8 screen holds no score block.  This binary's allocator records
//! the largest allocation each thread makes, so a test can see what a join
//! call allocates: the fp32 block path allocates its `outer × inner` block
//! of scores, a screened join over the same rows nothing near it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;

use cej_core::{JoinResult, TensorJoin, TensorPath};
use cej_exec::ExecPool;
use cej_relational::SimilarityPredicate;
use cej_vector::{BufferBudget, Screen};
use cej_workload::uniform_matrix;

thread_local! {
    /// The largest allocation this thread made since it was last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest allocation.
struct Recording;

impl Recording {
    fn record(size: usize) {
        // a thread being torn down has no slot left; its allocations are
        // not the ones measured
        let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the allocator's; recording a size
// in a `const`-initialised thread-local `Cell` allocates nothing.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// `join()`'s result and the largest allocation it made on this thread.
fn largest_during(join: impl FnOnce() -> JoinResult) -> (JoinResult, usize) {
    LARGEST.with(|largest| largest.set(0));
    let result = join();
    (result, LARGEST.with(Cell::get))
}

#[test]
fn a_screened_join_allocates_no_score_block() {
    if Screen::detect().is_none() {
        let _ = writeln!(
            std::io::stderr(),
            "screen allocations: no AVX-512 VNNI on this CPU, nothing screens"
        );
        return;
    }
    // the widest scan_join_warm statement, on a one-thread pool so that
    // every allocation of the call is this thread's
    let left = uniform_matrix(96, 64, 66, true);
    let right = uniform_matrix(19_200, 64, 67, true);
    let (join, pool) = (TensorJoin::default(), ExecPool::new(1));
    let block_bytes = BufferBudget::block_bytes(96, 19_200);
    for predicate in [
        SimilarityPredicate::TopK(3),
        SimilarityPredicate::Threshold(0.45),
    ] {
        // a side prepared for one outer row is not quantised: the fp32
        // block path, which allocates the block
        let side = join.prepare(&right, 1, predicate);
        let (block, largest) =
            largest_during(|| join.join(&left, &side, predicate, &pool).unwrap());
        assert_eq!(block.stats.tensor_path, Some(TensorPath::Fp32Block));
        assert!(largest >= block_bytes, "{predicate:?}: {largest} B");
        // a side prepared for 96 rows screens and allocates no block
        let side = join.prepare(&right, 96, predicate);
        let (screened, largest) =
            largest_during(|| join.join(&left, &side, predicate, &pool).unwrap());
        assert_eq!(screened.stats.tensor_path, Some(TensorPath::Int8Screen));
        assert!(largest < block_bytes / 10, "{predicate:?}: {largest} B");
        assert!(!screened.is_empty());
        assert_eq!(
            screened.sorted_pairs(),
            block.sorted_pairs(),
            "{predicate:?}"
        );
    }
}
