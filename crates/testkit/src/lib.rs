//! Test support shared by the workspace's zero-allocation pins
//! (`crates/proto/tests/zero_alloc_decode.rs`,
//! `crates/sim/tests/zero_alloc_engine.rs`,
//! `crates/monitor/tests/zero_alloc_recorder.rs`). A dev-dependency
//! only: no shipped crate links it.
//!
//! A test binary installs the allocator once and reads the calling
//! thread's count around the region it pins:
//!
//! ```
//! #[global_allocator]
//! static A: p2ps_testkit::CountingAlloc = p2ps_testkit::CountingAlloc;
//!
//! let before = p2ps_testkit::thread_allocs();
//! let v = Vec::<u8>::with_capacity(64);
//! assert_eq!(p2ps_testkit::thread_allocs() - before, 1);
//! drop(v);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper counting every allocation (and
/// reallocation) the current thread makes. The count is per thread, so
/// the tests of one binary, which the default harness runs on several
/// threads, do not see each other — and work a test hands to *another*
/// thread is not counted.
pub struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: touching it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (and reallocations) the calling thread has made so far.
/// Counts only while a [`CountingAlloc`] is the `#[global_allocator]`.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter update touches no allocator
// state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
