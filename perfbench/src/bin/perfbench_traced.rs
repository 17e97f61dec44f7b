//! Traced runs of the benchmark, with a counting global allocator for
//! `process.allocs_per_call`. The untraced binary has no such allocator,
//! so the end-to-end figures never pay for the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counter shards, so threads rarely share a cache line.
const SHARDS: usize = 64;

#[repr(align(64))]
struct Shard(AtomicU64);

static COUNTS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];

thread_local! {
    static SLOT: u8 = const { 0 };
}

fn shard() -> &'static AtomicU64 {
    // The address of a thread-local differs per thread; during thread
    // teardown it may be gone, and shard 0 takes the count.
    let index = SLOT
        .try_with(|slot| (slot as *const u8 as usize >> 6) % SHARDS)
        .unwrap_or(0);
    &COUNTS[index].0
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds a relaxed counter increment, so `System`'s
// guarantees hold for the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        shard().fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        shard().fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shard().fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    COUNTS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

fn main() {
    let _ = perfbench::ALLOCATIONS.set(allocations);
    std::process::exit(perfbench::run(std::env::args().skip(1)));
}
