//! A counting global allocator for allocation-discipline tests.
//!
//! Install [`CountingAlloc`] as the `#[global_allocator]` of a test
//! binary and read [`allocation_count`] around the region under test:
//! the delta is the number of heap allocations (including
//! reallocations) the region performed. The counter is process-global,
//! so it also sees every other thread — the test harness starting and
//! reporting tests included. [`thread_allocation_count`] counts only
//! the calling thread's allocations, which is the exact measure for a
//! region that runs on one thread. Frees are not counted — the
//! discipline the simulator's slot loop promises is "no new or grown
//! allocations in steady state", and a free can never violate it.
//!
//! This crate deliberately opts out of the workspace `unsafe_code =
//! "forbid"` lint (see its `Cargo.toml`): wrapping the system
//! allocator is the one place the workspace needs an `unsafe impl`.
//! It must only ever be used as a dev-dependency.
//!
//! # Examples
//!
//! ```
//! use neofog_alloc_probe::{allocation_count, CountingAlloc};
//!
//! // In a test binary: #[global_allocator]
//! // static GLOBAL: CountingAlloc = CountingAlloc;
//! let before = allocation_count();
//! let v: Vec<u8> = Vec::with_capacity(16);
//! drop(v);
//! let after = allocation_count();
//! // With the allocator installed, `after - before` would be 1.
//! let _ = after - before;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or re-enters.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation, process-wide and for the calling thread.
fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The number of allocations and reallocations performed so far by a
/// binary whose `#[global_allocator]` is a [`CountingAlloc`]. Always
/// zero when the allocator is not installed.
#[must_use]
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The number of allocations and reallocations the *calling thread*
/// has performed so far (same rules as [`allocation_count`]). Immune
/// to other threads, but blind to work the region hands to threads it
/// spawns.
#[must_use]
pub fn thread_allocation_count() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// A [`System`]-delegating allocator that counts `alloc` and `realloc`
/// calls. Declare it as the test binary's `#[global_allocator]`.
pub struct CountingAlloc;

// SAFETY: delegates verbatim to the system allocator, upholding its
// contract unchanged; the counter is a relaxed atomic side effect with
// no influence on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
