//! A counting global allocator for the memory experiments (figures 8
//! and 10).
//!
//! The paper measured process memory with Redhat's system monitor; a
//! counting allocator measures the same quantity (live heap bytes)
//! deterministically and without OS assistance. Register it in a binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//! ```
//!
//! then bracket the region of interest with [`CountingAllocator::reset_peak`]
//! and [`CountingAllocator::peak`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live and peak heap byte counters shared by all instances (the global
/// allocator is a single static anyway).
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper around the system allocator that tracks live
/// and peak allocated bytes.
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (const, for use in statics).
    pub const fn new() -> Self {
        CountingAllocator
    }

    /// Currently allocated bytes.
    pub fn live() -> u64 {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak allocated bytes since the last [`CountingAllocator::reset_peak`].
    pub fn peak() -> u64 {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live value and returns the live
    /// value (the measurement baseline).
    pub fn reset_peak() -> u64 {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        live
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

fn on_alloc(size: u64) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    // A relaxed max loop; precision beyond a few racing allocations is
    // irrelevant at megabyte scales.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(found) => peak = found,
        }
    }
}

fn on_dealloc(size: u64) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY-FREE NOTE: this crate forbids `unsafe`, but implementing
// `GlobalAlloc` requires unsafe fn signatures; the bodies only delegate
// to `System` and adjust counters.
#[allow(unsafe_code)]
mod alloc_impl {
    use super::*;

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = unsafe { System.alloc(layout) };
            if !ptr.is_null() {
                on_alloc(layout.size() as u64);
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_dealloc(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
            if !new_ptr.is_null() {
                on_dealloc(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            new_ptr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is not registered in unit tests (that would affect
    // every test in the crate); exercise the counter logic directly. The
    // counters are global, so the tests take turns.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_track_alloc_dealloc() {
        let _turn = COUNTERS.lock().unwrap();
        let base = CountingAllocator::reset_peak();
        on_alloc(1000);
        assert!(CountingAllocator::live() >= base + 1000);
        assert!(CountingAllocator::peak() >= base + 1000);
        on_dealloc(1000);
        assert!(CountingAllocator::peak() >= base + 1000);
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let _turn = COUNTERS.lock().unwrap();
        on_alloc(5000);
        let live = CountingAllocator::reset_peak();
        assert_eq!(CountingAllocator::peak(), live);
        on_dealloc(5000);
    }
}
