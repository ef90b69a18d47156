//! Shared best-so-far (BSF) state for parallel query answering.
//!
//! MESSI's workers share one BSF value that every pruning decision reads
//! and every improved real distance tightens (paper §IV-C). For k-NN the
//! BSF is the *k-th best* distance: [`KnnSet`] keeps the k best neighbors
//! in a mutex-protected heap and mirrors the k-th distance, as `f32` bits,
//! into one [`std::sync::atomic::AtomicU32`] that every worker loads
//! without the lock, so the hot pruning path stays lock-free.

use parking_lot::Mutex;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

/// One answer: a row id and its squared z-normalized Euclidean distance.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Neighbor {
    /// Row index into the indexed dataset.
    pub row: u32,
    /// Squared distance to the query.
    pub dist_sq: f32,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq.total_cmp(&other.dist_sq).then_with(|| self.row.cmp(&other.row))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One inner-product answer: a row id and its dot product with the
/// z-normalized query — the result type of [`crate::Index::knn_ip`],
/// ordered best (largest dot) first.
///
/// Internally the engine runs max-inner-product through the L2 funnel by
/// minimizing the score `2n - q·x` (see `sofa-index/src/prune.rs`); this
/// type is the user-facing conversion back.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct IpNeighbor {
    /// Row index into the indexed dataset.
    pub row: u32,
    /// Inner product `q·x` between the z-normalized query and the row.
    pub ip: f32,
}

/// Thread-safe set of the k best neighbors found so far.
///
/// `bound()` is `+inf` until k neighbors exist, then the k-th best squared
/// distance — the value all pruning compares against.
#[derive(Debug)]
pub struct KnnSet {
    k: usize,
    /// Max-heap on distance: the root is the current k-th best.
    heap: Mutex<Vec<Neighbor>>,
    /// The `f32` bits of [`KnnSet::bound`], written under the heap's lock
    /// and read without it.
    bound: AtomicU32,
}

impl KnnSet {
    /// Creates a set tracking the `k` nearest neighbors. The heap grows
    /// with the neighbors offered, not with `k`, so any `k` is safe.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        KnnSet { k, heap: Mutex::new(Vec::new()), bound: AtomicU32::new(f32::INFINITY.to_bits()) }
    }

    /// The current pruning bound (k-th best squared distance, or `+inf`).
    #[inline]
    #[must_use]
    pub fn bound(&self) -> f32 {
        f32::from_bits(self.bound.load(AtomicOrdering::Acquire))
    }

    /// Publishes a new pruning bound to the lock-free readers.
    fn store_bound(&self, value: f32) {
        self.bound.store(value.to_bits(), AtomicOrdering::Release);
    }

    /// Re-arms the set for a fresh query tracking `k` neighbors, reusing
    /// the heap allocation (allocation-free once the capacity has reached
    /// the most neighbors a query held). This is what lets one pooled
    /// [`crate::Index`] scratch serve every query of a lane.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k >= 1, "k must be at least 1");
        self.k = k;
        self.heap.get_mut().clear();
        self.store_bound(f32::INFINITY);
    }

    /// Moves the neighbors found (best first) into `out`, leaving the set
    /// empty but with its capacity intact. `out` is appended to, not
    /// cleared.
    pub fn drain_sorted_into(&self, out: &mut Vec<Neighbor>) {
        let mut heap = self.heap.lock();
        heap.sort_unstable();
        out.extend_from_slice(&heap);
        heap.clear();
    }

    /// Offers a candidate; returns `true` if it entered the k-best set.
    /// Duplicate rows are ignored.
    ///
    /// The set kept is the k smallest neighbors in the `(dist_sq, row)`
    /// total order, so the outcome is independent of offer order: ties at
    /// the k-th distance deterministically keep the lowest row, no matter
    /// which worker or tile reaches them first.
    pub fn offer(&self, candidate: Neighbor) -> bool {
        // Cheap rejection without the lock; a tie with the k-th best
        // distance must take the lock to resolve by row.
        if candidate.dist_sq > self.bound() {
            return false;
        }
        let mut heap = self.heap.lock();
        if heap.iter().any(|n| n.row == candidate.row) {
            return false;
        }
        if heap.len() == self.k && candidate >= *heap.last().expect("non-empty") {
            return false;
        }
        heap.push(candidate);
        heap.sort_unstable(); // k is small (<= 50 in the paper's sweeps)
        if heap.len() > self.k {
            heap.pop();
        }
        if heap.len() == self.k {
            self.store_bound(heap.last().expect("non-empty").dist_sq);
        }
        true
    }

    /// The neighbors found, best first.
    #[must_use]
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_inner();
        v.sort_unstable();
        v
    }

    /// Snapshot of the neighbors, best first.
    #[must_use]
    pub fn sorted(&self) -> Vec<Neighbor> {
        let mut v = self.heap.lock().clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_k_grows_with_the_offers() {
        // The heap must not be sized by `k`: `k + 1` overflows at
        // `usize::MAX`, and reserving 2^40 entries aborts the process.
        let offers = [(7u32, 3.0f32), (2, 1.0), (9, 3.0), (4, 0.5), (2, 1.0)];
        let expect = {
            let set = KnnSet::new(offers.len());
            for (row, dist_sq) in offers {
                set.offer(Neighbor { row, dist_sq });
            }
            set.into_sorted()
        };
        assert_eq!(expect.len(), 4, "the duplicate row is dropped");
        let mut set = KnnSet::new(usize::MAX);
        for k in [usize::MAX, 1 << 40] {
            set.reset(k);
            for (row, dist_sq) in offers {
                set.offer(Neighbor { row, dist_sq });
            }
            assert_eq!(set.bound(), f32::INFINITY, "fewer than k neighbors");
            let mut out = Vec::new();
            set.drain_sorted_into(&mut out);
            assert_eq!(out, expect, "k = {k}");
        }
    }

    #[test]
    fn knn_keeps_k_best() {
        let set = KnnSet::new(3);
        for (row, dist) in [(1u32, 9.0f32), (2, 1.0), (3, 4.0), (4, 16.0), (5, 2.0)] {
            set.offer(Neighbor { row, dist_sq: dist });
        }
        let best = set.into_sorted();
        assert_eq!(best.len(), 3);
        assert_eq!(best[0], Neighbor { row: 2, dist_sq: 1.0 });
        assert_eq!(best[1], Neighbor { row: 5, dist_sq: 2.0 });
        assert_eq!(best[2], Neighbor { row: 3, dist_sq: 4.0 });
    }

    #[test]
    fn knn_bound_transitions_from_infinity() {
        let set = KnnSet::new(2);
        assert_eq!(set.bound(), f32::INFINITY);
        set.offer(Neighbor { row: 1, dist_sq: 3.0 });
        assert_eq!(set.bound(), f32::INFINITY); // only 1 of 2 found
        set.offer(Neighbor { row: 2, dist_sq: 5.0 });
        assert_eq!(set.bound(), 5.0);
        set.offer(Neighbor { row: 3, dist_sq: 1.0 });
        assert_eq!(set.bound(), 3.0);
    }

    #[test]
    fn knn_rejects_duplicates_and_worse() {
        let set = KnnSet::new(1);
        assert!(set.offer(Neighbor { row: 7, dist_sq: 2.0 }));
        assert!(!set.offer(Neighbor { row: 7, dist_sq: 2.0 }));
        assert!(!set.offer(Neighbor { row: 8, dist_sq: 3.0 }));
        assert!(set.offer(Neighbor { row: 9, dist_sq: 1.0 }));
        assert_eq!(set.sorted()[0].row, 9);
    }

    #[test]
    fn ties_resolve_to_lowest_row_regardless_of_order() {
        // The k-best set is the k smallest (dist, row) pairs: a tie at
        // the k-th distance keeps the lowest row no matter which worker
        // offered first.
        for order in [[5u32, 9], [9, 5]] {
            let set = KnnSet::new(1);
            for row in order {
                set.offer(Neighbor { row, dist_sq: 2.0 });
            }
            assert_eq!(set.sorted()[0].row, 5, "offer order {order:?}");
        }
        // A tie that loses on row must not evict anything.
        let set = KnnSet::new(1);
        assert!(set.offer(Neighbor { row: 3, dist_sq: 2.0 }));
        assert!(!set.offer(Neighbor { row: 4, dist_sq: 2.0 }));
        assert!(set.offer(Neighbor { row: 2, dist_sq: 2.0 }));
        assert_eq!(set.sorted()[0].row, 2);
    }

    #[test]
    fn neighbor_ordering_breaks_ties_by_row() {
        let a = Neighbor { row: 1, dist_sq: 2.0 };
        let b = Neighbor { row: 2, dist_sq: 2.0 };
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn knn_rejects_zero_k() {
        let _ = KnnSet::new(0);
    }
}
