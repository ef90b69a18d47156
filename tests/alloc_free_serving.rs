//! Zero-allocation steady-state serving, asserted by a counting allocator.
//!
//! The claim is not "fewer" allocations but **zero** on the warm
//! single-query path: every per-query buffer lives in a pooled
//! `QueryScratch`, the query context borrows an index-owned `QueryEnv`,
//! and results drain into a caller-owned buffer through
//! `Index::query_into`, the one single-query entry point. This binary
//! installs a global allocator that counts every `alloc`/`realloc` and
//! proves the claim: after a warm-up pass over the query set, replaying
//! the same queries performs not a single heap allocation.
//!
//! Three configurations are proven inside the single `#[test]` (a second
//! test function would run concurrently and pollute the counter): the
//! serial path (`threads(1)`), the pool-parallel single-query path
//! (`threads(2)`), whose two per-query `broadcast`s used to box one task
//! per lane — the hole the pre-sized shared-task slots in `sofa-exec`
//! closed — and a serial index whose inserted rows still sit in leaf
//! tails, whose words the refine sweep stages on the stack.

use sofa::{Builder, Neighbor, QueryKind, SofaIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus a relaxed counter of allocation events (alloc +
/// realloc; deallocations are free of new memory and not counted).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation unchanged to `System`; the counter is
// a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push((x * 0.19 + r).sin() + 0.6 * (x * (0.5 + (r % 7.0) * 0.13)).cos());
        }
    }
    data
}

/// Runs the warm-up + measured replay over `sofa`, returning the number
/// of allocation events the measured pass performed.
fn measure_warm_replay(sofa: &SofaIndex, queries: &[f32], n: usize) -> u64 {
    let mut out: Vec<Neighbor> = Vec::new();

    // Warm-up: create the pooled scratch, size every buffer (queues,
    // heaps, DFT spectrum, word/context buffers, broadcast scope cache)
    // to this query set, and resolve the kernel-dispatch OnceLock.
    for _ in 0..2 {
        for (qi, q) in queries.chunks(n).enumerate() {
            let kind = QueryKind::Knn { k: [1usize, 5, 10][qi % 3] };
            sofa.query_into(q, &kind, &mut out).expect("warmup query");
        }
    }

    // Measured pass: the same queries (so collected-leaf counts and heap
    // sizes are reproduced exactly) must allocate nothing at all.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..4 {
        for (qi, q) in queries.chunks(n).enumerate() {
            let kind = QueryKind::Knn { k: [1usize, 5, 10][qi % 3] };
            sofa.query_into(q, &kind, &mut out).expect("measured query");
            assert!(!out.is_empty());
        }
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_knn_performs_zero_heap_allocations() {
    let n = 96;
    let data = dataset(600, n, 0);
    let queries = dataset(24, n, 9000);

    // threads(1): the serial path — the per-query algorithm and nothing
    // else.
    let serial = Builder::default()
        .threads(1)
        .leaf_capacity(40)
        .sample_ratio(0.2)
        .build_sofa(&data, n)
        .expect("build");
    let allocations = measure_warm_replay(&serial, &queries, n);
    assert_eq!(
        allocations, 0,
        "steady-state serial query_into path allocated {allocations} time(s) across 96 queries"
    );

    // threads(2): the pool-parallel single-query path — collect and
    // refine each broadcast over the pool. The broadcasts carry borrowed
    // shared tasks and a cached scope state, so this path must be just as
    // allocation-free as the serial one.
    let parallel = Builder::default()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.2)
        .build_sofa(&data, n)
        .expect("build");
    assert!(parallel.pool().threads() > 1, "test must exercise the broadcast path");
    let allocations = measure_warm_replay(&parallel, &queries, n);
    assert_eq!(
        allocations, 0,
        "steady-state pool-parallel query_into path allocated {allocations} time(s) \
         across 96 queries"
    );

    // Leaf tails: 200 rows inserted with auto-repack off stay in their
    // leaves' tails. Querying with inserted rows makes each one's leaf,
    // tail included, reach the refine sweep.
    let mut tails = Builder::default()
        .threads(1)
        .leaf_capacity(40)
        .sample_ratio(0.2)
        .auto_repack_pct(None)
        .build_sofa(&data[..400 * n], n)
        .expect("build");
    tails.insert_all(&data[400 * n..]).expect("insert");
    let stats = tails.stats();
    assert!(stats.packed_leaves < stats.leaves, "inserts must leave tails: {stats:?}");
    let tail_queries = &data[400 * n..][..24 * n];
    let allocations = measure_warm_replay(&tails, tail_queries, n);
    assert_eq!(
        allocations, 0,
        "steady-state query_into over leaf tails allocated {allocations} time(s) \
         across 96 queries"
    );
}
