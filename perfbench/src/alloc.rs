//! A counting global allocator: every allocation (and reallocation) made
//! by a thread bumps that thread's counter, so a caller can count the
//! allocations of one call by reading the counter around it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation count.
pub struct Counting;

fn bump() {
    // `try_with` never fails for a const-initialised `Cell` (it has no
    // destructor), but an allocation during thread teardown must not
    // panic either way.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter update
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the calling thread so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_this_threads_allocations() {
        let before = super::count();
        let v: Vec<u64> = Vec::with_capacity(16);
        let b = Box::new(7u32);
        let after = super::count();
        drop((v, b));
        // The test binary installs the counting allocator too.
        assert_eq!(after - before, 2);
    }
}
