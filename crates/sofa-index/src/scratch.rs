//! Pooled per-query working state.
//!
//! Every buffer a query needs — the normalized query, its
//! `QueryContext` values, query word, [`RootLbd`] penalty table, the
//! 16 KiB symbol table the refine sweep prices words from, a k-NN heap,
//! one priority queue per refinement lane and a DFS stack per lane — is
//! owned by a [`QueryScratch`] with no lifetimes attached, so the index
//! keeps a pool of them (one per worker lane in the steady state) and
//! each query checks one out, resets it, and returns it on drop. After
//! warm-up a query performs **zero** heap allocations on one lane or on
//! all of them (asserted by the workspace's counting-allocator test),
//! and batch lanes reuse one scratch for every query they claim.

use crate::bsf::{KnnSet, Neighbor};
use parking_lot::Mutex;
use sofa_summaries::{RootLbd, TransformScratch};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::AtomicBool;

/// A leaf waiting in a refinement priority queue, ordered by ascending
/// lower bound.
#[derive(Copy, Clone, Debug, PartialEq)]
pub(crate) struct QueueEntry {
    pub lbd: f32,
    pub subtree: u32,
    pub node: u32,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lbd
            .total_cmp(&other.lbd)
            .then_with(|| self.subtree.cmp(&other.subtree))
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One refinement queue: a min-queue on leaf lower bound.
pub(crate) type LeafQueue = BinaryHeap<Reverse<QueueEntry>>;

/// Every buffer one query needs, with no lifetime parameters so the index
/// can pool instances across queries. See the module docs.
pub(crate) struct QueryScratch {
    /// The z-normalized query.
    pub q: Vec<f32>,
    /// The query's exact values per word position (feeds
    /// `QueryContext::borrowed`).
    pub values: Vec<f32>,
    /// Transform scratch (cached DFT executor + spectrum for SFA).
    pub transform: TransformScratch,
    /// The query's word (quantized values).
    pub qword: Vec<u8>,
    /// The query's symbol table (`QueryContext::lut_into`): `word_len ×
    /// 256` entries, read by every refine lane.
    pub lut: Vec<f32>,
    /// Reusable root-key XOR-penalty table.
    pub root_lbd: RootLbd,
    /// Reusable k-best set (heap + atomic bound).
    pub knn: KnnSet,
    /// Range-query hit accumulator (unordered during the sweep; sorted
    /// at drain). Unused — and empty — for k-NN/IP queries.
    pub range: Mutex<Vec<Neighbor>>,
    /// Refinement priority queues, one per pool lane.
    pub queues: Vec<Mutex<LeafQueue>>,
    /// Per-queue abandon flags for the refinement phase.
    pub done: Vec<AtomicBool>,
    /// Per-lane collect-DFS stacks (one per pool lane; each lane locks
    /// only its own, so the locks are uncontended). Every subtree past
    /// the root gate is walked on one, so each starts with room for a
    /// deep tree's path: a lane that first collects after warm-up must
    /// not allocate.
    pub lanes: Vec<Mutex<Vec<u32>>>,
}

impl QueryScratch {
    /// Creates a scratch sized for an index with `word_len`-symbol words,
    /// `series_len`-point series and `lanes` pool lanes (one refinement
    /// queue and one DFS stack per lane).
    pub fn new(word_len: usize, series_len: usize, lanes: usize) -> Self {
        QueryScratch {
            q: Vec::with_capacity(series_len),
            values: vec![0.0; word_len],
            transform: TransformScratch::default(),
            qword: Vec::with_capacity(word_len),
            lut: Vec::with_capacity(word_len * sofa_simd::LUT_STRIDE),
            root_lbd: RootLbd::empty(),
            knn: KnnSet::new(1),
            range: Mutex::new(Vec::new()),
            queues: (0..lanes).map(|_| Mutex::new(BinaryHeap::new())).collect(),
            done: (0..lanes).map(|_| AtomicBool::new(false)).collect(),
            lanes: (0..lanes).map(|_| Mutex::new(Vec::with_capacity(64))).collect(),
        }
    }

    /// Re-arms the per-query state: empties the k-NN set for `k`
    /// neighbors, clears the queues (an abandoned queue keeps its
    /// leftover entries past the previous query) and lowers the abandon
    /// flags. Buffer capacities are retained throughout.
    pub fn begin(&mut self, k: usize) {
        self.knn.reset(k);
        self.range.get_mut().clear();
        for queue in &mut self.queues {
            queue.get_mut().clear();
        }
        for flag in &mut self.done {
            *flag.get_mut() = false;
        }
    }
}

/// The index's pool of scratches: a stack protected by one uncontended
/// mutex. Checkout pops (or lazily creates, during warm-up) a scratch;
/// dropping the guard pushes it back.
pub(crate) type ScratchPool = Mutex<Vec<Box<QueryScratch>>>;

/// RAII checkout of one [`QueryScratch`] from a [`ScratchPool`].
pub(crate) struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    scratch: Option<Box<QueryScratch>>,
}

impl<'a> ScratchGuard<'a> {
    /// Pops a scratch from `pool`, or builds one with `make` when the
    /// pool is empty (first queries, or more concurrent queries than ever
    /// before).
    pub fn checkout(pool: &'a ScratchPool, make: impl FnOnce() -> QueryScratch) -> Self {
        let scratch = pool.lock().pop();
        ScratchGuard { pool, scratch: Some(scratch.unwrap_or_else(|| Box::new(make()))) }
    }
}

impl Deref for ScratchGuard<'_> {
    type Target = QueryScratch;
    fn deref(&self) -> &QueryScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut QueryScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool.lock().push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn scratch_checkout_returns_on_drop() {
        let pool: ScratchPool = Mutex::new(Vec::with_capacity(4));
        {
            let mut guard = ScratchGuard::checkout(&pool, || QueryScratch::new(8, 64, 2));
            guard.begin(3);
            assert_eq!(guard.values.len(), 8);
            assert_eq!(guard.queues.len(), 2);
            assert!(pool.lock().is_empty());
        }
        assert_eq!(pool.lock().len(), 1);
        // A second checkout reuses the same allocation.
        let guard = ScratchGuard::checkout(&pool, || panic!("must reuse pooled scratch"));
        assert_eq!(guard.values.len(), 8);
    }

    #[test]
    fn begin_clears_leftover_state() {
        let mut s = QueryScratch::new(4, 16, 2);
        s.queues[0].get_mut().push(Reverse(QueueEntry { lbd: 1.0, subtree: 0, node: 0 }));
        *s.done[1].get_mut() = true;
        s.knn.offer(crate::bsf::Neighbor { row: 1, dist_sq: 0.5 });
        s.begin(2);
        assert!(s.queues[0].get_mut().is_empty());
        assert!(!s.done[1].load(Ordering::Relaxed));
        assert_eq!(s.knn.bound(), f32::INFINITY);
    }
}
