//! The two meters every measurement here rests on: the calling thread's CPU
//! clock, and a counting global allocator.
//!
//! CPU time rather than wall time: on a shared virtual machine the same
//! binary swings by a quarter in wall time between runs, while the thread's
//! own CPU time excludes the intervals it was not scheduled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call, and the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    u64::try_from(ts.tv_sec).expect("non-negative CPU time") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("non-negative CPU time")
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls, bytes, and the peak of live bytes.
/// Relaxed atomics suffice: the counts publish no other data.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `ptr`/`layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        note_alloc(new_size);
        // SAFETY: forwarded with the caller's guarantees on all arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

/// A reading of the allocation counters.
#[derive(Clone, Copy, Debug)]
pub struct HeapMark {
    /// Allocation calls so far (reallocations included).
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Current allocation counters.
pub fn heap_mark() -> HeapMark {
    HeapMark { allocs: ALLOCS.load(Relaxed), bytes: ALLOC_BYTES.load(Relaxed) }
}

/// Restarts peak tracking from the current live size; returns that size.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live heap size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// CPU nanoseconds of a fixed piece of work that never changes with the
/// program: a small discrete-event loop (binary-heap calendar, boxed
/// payloads, scattered table updates) running warm in cache, like the
/// simulator's event loop. Its cost tracks how fast the host runs it now.
pub fn reference_ns() -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let t = thread_cpu_ns();
    let mut heap = BinaryHeap::new();
    let mut table = vec![0u64; 4096];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1024u64 {
        heap.push(Reverse((i, Box::new([i; 8]))));
    }
    for _ in 0..20_000 {
        let Reverse((at, payload)) = heap.pop().expect("calendar never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x % 4096) as usize];
        *slot = slot.wrapping_add(payload[0]);
        heap.push(Reverse((at + 1 + x % 1000, Box::new([x; 8]))));
    }
    std::hint::black_box((&heap, &table));
    thread_cpu_ns() - t
}

/// CPU nanoseconds of a fixed piece of work that runs cold: allocate 4096
/// fresh 128-byte nodes, chase them in a shuffled order, free them — the
/// memory behaviour of building a network from scratch.
pub fn cold_reference_ns() -> u64 {
    const N: usize = 4096;
    let t = thread_cpu_ns();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut order: Vec<usize> = (0..N).collect();
    for i in (1..N).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut nodes: Vec<Box<[u64; 16]>> = (0..N).map(|i| Box::new([i as u64; 16])).collect();
    for w in order.windows(2) {
        nodes[w[0]][0] = w[1] as u64;
    }
    let (mut at, mut acc) = (order[0], 0u64);
    for _ in 1..N {
        acc = acc.wrapping_add(nodes[at][1]);
        at = nodes[at][0] as usize;
    }
    std::hint::black_box(acc);
    drop(nodes);
    thread_cpu_ns() - t
}
