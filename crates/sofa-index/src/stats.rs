//! Index-structure statistics (paper Figure 8) plus kernel observability.
//!
//! Figure 8 compares MESSI and SOFA on three structural properties:
//! average tree depth, average leaf size (fill), and the number of
//! subtrees hanging off the root. [`IndexStats`] computes all three plus
//! a few extras the analysis text mentions (node counts, max depth) and —
//! since the query hot path is runtime-dispatched — reports *which kernel
//! tier serves queries* and the cumulative block-sweep counters, so a
//! dispatch regression (e.g. an AVX2 machine silently falling back to the
//! portable tier, or the block sweep never abandoning) is observable from
//! production stats rather than only from benchmarks.

use crate::{Index, NodeKind, QueryStats};
use sofa_summaries::Summarization;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone per-index counters updated by the query path (relaxed
/// atomics; exactness never depends on them).
#[derive(Debug, Default)]
pub(crate) struct KernelCounters {
    /// Queries answered (single calls and batch members alike).
    pub queries: AtomicU64,
    /// Queries abandoned mid-flight by cooperative cancellation (deadline
    /// or explicit cancel). Disjoint from `queries`: a cancelled query
    /// was *not* answered, so `queries` stays an exact served audit.
    pub queries_cancelled: AtomicU64,
    /// 8-candidate groups swept by the symbol-table word lower-bound
    /// kernel (`lut_lower_bound`).
    pub block_groups_swept: AtomicU64,
    /// Candidate lanes pruned by the block sweep (whole-group abandons
    /// plus individual lanes whose lower bound met the BSF).
    pub block_lanes_abandoned: AtomicU64,
    /// 8-candidate groups swept by the quantized refine kernel.
    pub quant_groups_swept: AtomicU64,
    /// Candidate lanes the quantized tier pruned after the word bound let
    /// them through — exact `f32` scans that never happened.
    pub quant_lanes_killed: AtomicU64,
    /// Estimated refine-phase bytes read (word bounds + quant codes +
    /// exact rows), the bandwidth the funnel exists to reduce.
    pub refine_bytes: AtomicU64,
}

impl KernelCounters {
    /// Adds one finished query to the totals. A cancelled query produced
    /// no answer, so it moves only `queries_cancelled`; an answered one
    /// counts once in `queries` and adds its sweep work.
    pub(crate) fn record(&self, stats: &QueryStats) {
        let add = |total: &AtomicU64, n: usize| total.fetch_add(n as u64, Ordering::Relaxed);
        if stats.cancelled != 0 {
            add(&self.queries_cancelled, 1);
            return;
        }
        add(&self.queries, 1);
        add(&self.block_groups_swept, stats.block_groups_swept);
        add(&self.block_lanes_abandoned, stats.block_lanes_abandoned);
        add(&self.quant_groups_swept, stats.quant_groups_swept);
        add(&self.quant_lanes_killed, stats.quant_lanes_killed);
        add(&self.refine_bytes, stats.refine_bytes);
    }
}

/// Structural statistics of a built index.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexStats {
    /// Number of subtrees under the root (Figure 8 bottom).
    pub subtrees: usize,
    /// Total nodes across all subtrees.
    pub nodes: usize,
    /// Total leaves.
    pub leaves: usize,
    /// Leaves with no tail rows: every row sits in the leaf's packed run
    /// (read in place, with quant codes). The other `leaves -
    /// packed_leaves` hold rows inserted since the last
    /// [`Index::repack_leaves`], which the refine sweep stages.
    pub packed_leaves: usize,
    /// Mean leaf depth, root children = depth 0 (Figure 8 top).
    pub avg_depth: f64,
    /// Deepest leaf.
    pub max_depth: usize,
    /// Mean series per leaf (Figure 8 middle).
    pub avg_leaf_size: f64,
    /// Largest leaf.
    pub max_leaf_size: usize,
    /// Indexed series.
    pub n_series: usize,
    /// Whether the storage arenas are still served straight out of a
    /// memory-mapped snapshot ([`Index::open`](crate::Index::open));
    /// `false` for built indexes and for opened indexes that a mutation
    /// has copy-on-write promoted to owned storage.
    pub mapped_storage: bool,
    /// The kernel tier serving this process's dispatched kernels
    /// (`"scalar"`, `"portable"` or `"avx2"`).
    pub kernel_tier: &'static str,
    /// Queries answered by this index so far.
    pub queries_served: u64,
    /// Queries abandoned by cooperative cancellation (deadline expiry or
    /// explicit cancel) — never counted in `queries_served`.
    pub queries_cancelled: u64,
    /// 8-candidate groups swept by the symbol-table word lower-bound
    /// kernel (`lut_lower_bound`).
    pub block_groups_swept: u64,
    /// Candidate lanes pruned by the block sweep.
    pub block_lanes_abandoned: u64,
    /// 8-candidate groups swept by the quantized refine kernel.
    pub quant_groups_swept: u64,
    /// Candidate lanes the quantized tier pruned after the word bound let
    /// them through — exact `f32` scans that never happened.
    pub quant_lanes_killed: u64,
    /// Mean estimated refine-phase bytes read per query (word bounds +
    /// quant codes + exact rows) — the memory traffic the quantized tier
    /// cuts. `0.0` before the first query.
    pub refine_bytes_per_query: f64,
    /// Percentage of leaves holding tail rows (`100 · (leaves -
    /// packed_leaves) / leaves`). Tail rows are priced by the same word
    /// kernel as packed ones, but staged and without the quantized tier;
    /// with [`crate::IndexConfig::auto_repack_pct`] set to `None` this
    /// only falls when [`Index::repack_leaves`] is called.
    pub fallback_leaf_pct: f64,
}

impl<S: Summarization> Index<S> {
    /// Computes structural statistics by walking every subtree, plus the
    /// kernel-dispatch counters accumulated since the build.
    #[must_use]
    pub fn stats(&self) -> IndexStats {
        let mut nodes = 0usize;
        let mut leaves = 0usize;
        let mut packed_leaves = 0usize;
        let mut depth_sum = 0usize;
        let mut max_depth = 0usize;
        let mut size_sum = 0usize;
        let mut max_leaf = 0usize;
        for st in &self.subtrees {
            nodes += st.nodes.len();
            for node in &st.nodes {
                if let NodeKind::Leaf { rows, .. } = &node.kind {
                    leaves += 1;
                    packed_leaves += usize::from(node.tail_len() == 0);
                    size_sum += rows.len();
                    max_leaf = max_leaf.max(rows.len());
                }
            }
            for d in st.leaf_depths() {
                depth_sum += d;
                max_depth = max_depth.max(d);
            }
        }
        IndexStats {
            subtrees: self.subtrees.len(),
            nodes,
            leaves,
            packed_leaves,
            avg_depth: if leaves == 0 { 0.0 } else { depth_sum as f64 / leaves as f64 },
            max_depth,
            avg_leaf_size: if leaves == 0 { 0.0 } else { size_sum as f64 / leaves as f64 },
            max_leaf_size: max_leaf,
            n_series: self.n_series(),
            mapped_storage: self.is_mapped(),
            kernel_tier: sofa_simd::active_tier().name(),
            queries_served: self.counters.queries.load(Ordering::Relaxed),
            queries_cancelled: self.counters.queries_cancelled.load(Ordering::Relaxed),
            block_groups_swept: self.counters.block_groups_swept.load(Ordering::Relaxed),
            block_lanes_abandoned: self.counters.block_lanes_abandoned.load(Ordering::Relaxed),
            quant_groups_swept: self.counters.quant_groups_swept.load(Ordering::Relaxed),
            quant_lanes_killed: self.counters.quant_lanes_killed.load(Ordering::Relaxed),
            refine_bytes_per_query: {
                let q = self.counters.queries.load(Ordering::Relaxed);
                if q == 0 {
                    0.0
                } else {
                    self.counters.refine_bytes.load(Ordering::Relaxed) as f64 / q as f64
                }
            },
            fallback_leaf_pct: if leaves == 0 {
                0.0
            } else {
                100.0 * (leaves - packed_leaves) as f64 / leaves as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use sofa_summaries::{ISax, SaxConfig};

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                let r = r as f32;
                data.push((x * 0.13 + r * 0.7).sin() + 0.5 * (x * (0.3 + r * 0.01)).cos());
            }
        }
        data
    }

    #[test]
    fn stats_account_for_every_series() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx =
            Index::build(sax, &dataset(700, 64), IndexConfig::with_threads(2).leaf_capacity(50))
                .unwrap();
        let s = idx.stats();
        assert_eq!(s.n_series, 700);
        let total: usize = idx.subtrees().iter().map(|t| t.n_rows()).sum();
        assert_eq!(total, 700);
        assert!(s.leaves >= s.subtrees);
        assert!(s.avg_leaf_size > 0.0);
        assert!((s.avg_leaf_size * s.leaves as f64 - 700.0).abs() < 1e-9);
        assert!(s.max_depth as f64 >= s.avg_depth);
        assert!(s.max_leaf_size <= 50 || s.leaves == 1);
    }

    #[test]
    fn fallback_leaf_pct_tracks_leaves_with_tails() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(
            sax,
            &dataset(400, 64),
            IndexConfig::with_threads(1).leaf_capacity(10).auto_repack_pct(None),
        )
        .unwrap();
        assert_eq!(idx.stats().fallback_leaf_pct, 0.0);
        idx.insert_all(&dataset(200, 64)).unwrap();
        let s = idx.stats();
        assert!(s.fallback_leaf_pct > 0.0, "inserts must surface leaves with tails: {s:?}");
        let expect = 100.0 * (s.leaves - s.packed_leaves) as f64 / s.leaves as f64;
        assert!((s.fallback_leaf_pct - expect).abs() < 1e-12);
        idx.repack_leaves();
        assert_eq!(idx.stats().fallback_leaf_pct, 0.0);
    }

    #[test]
    fn smaller_leaves_mean_deeper_trees() {
        let build = |leaf: usize| {
            let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
            Index::build(sax, &dataset(800, 64), IndexConfig::with_threads(1).leaf_capacity(leaf))
                .unwrap()
                .stats()
        };
        let fine = build(10);
        let coarse = build(400);
        assert!(fine.leaves > coarse.leaves);
        assert!(fine.avg_depth >= coarse.avg_depth);
        assert!(fine.avg_leaf_size < coarse.avg_leaf_size);
    }

    #[test]
    fn builds_pack_every_leaf_and_queries_feed_counters() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx =
            Index::build(sax, &dataset(600, 64), IndexConfig::with_threads(2).leaf_capacity(40))
                .unwrap();
        let before = idx.stats();
        assert_eq!(before.packed_leaves, before.leaves, "bulk build must pack every leaf");
        assert_eq!(before.fallback_leaf_pct, 0.0);
        assert_eq!(before.queries_served, 0);
        assert!(["scalar", "portable", "avx2"].contains(&before.kernel_tier));

        let q = dataset(1, 64);
        // A large k keeps the bound loose, so leaves beyond the home leaf
        // must be refined — the block sweep has to run.
        idx.knn(&q, 100).unwrap();
        let after = idx.stats();
        assert_eq!(after.queries_served, 1);
        assert!(after.block_groups_swept > 0, "block sweep never ran: {after:?}");
    }

    #[test]
    fn kernel_totals_are_the_sums_of_the_query_stats() {
        use crate::{QueryKind, RowFilter};
        use parking_lot::Mutex;
        use sofa_exec::CancelToken;
        use std::sync::Arc;

        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        let data = dataset(600, 64);
        let idx = Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(40)).unwrap();
        let filter = Arc::new(RowFilter::from_fn(600, |r| r % 3 != 0));
        let kinds = [
            QueryKind::Knn { k: 50 },
            QueryKind::KnnFiltered { k: 20, filter },
            QueryKind::Range { r_sq: 40.0 },
            QueryKind::Ip { k: 30 },
        ];
        let (mut sum, mut out, mut queries) = (QueryStats::default(), Vec::new(), 0);
        for (i, q) in data.chunks_exact(64).step_by(23).enumerate() {
            sum.add(&idx.query_into(q, &kinds[i % kinds.len()], &mut out).unwrap());
            queries += 1;
        }
        assert!(sum.block_lanes_abandoned > 0 && sum.quant_groups_swept > 0, "{sum:?}");
        let s = idx.stats();
        assert_eq!(s.queries_served, queries);
        assert_eq!(s.queries_cancelled, 0);
        assert_eq!(s.block_groups_swept, sum.block_groups_swept as u64);
        assert_eq!(s.block_lanes_abandoned, sum.block_lanes_abandoned as u64);
        assert_eq!(s.quant_groups_swept, sum.quant_groups_swept as u64);
        assert_eq!(s.quant_lanes_killed, sum.quant_lanes_killed as u64);
        let bytes = s.refine_bytes_per_query * s.queries_served as f64;
        assert_eq!(bytes.round() as usize, sum.refine_bytes);

        // Batch members whose token has already fired move only
        // `queries_cancelled`, and their slots stay unwritten.
        let fired = CancelToken::new();
        fired.cancel();
        let outs = [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
        let pair = [QueryKind::Knn { k: 5 }, QueryKind::Range { r_sq: 40.0 }];
        idx.query_batch_into_cancel(&data[..128], &pair, &outs, &[fired.clone(), fired]).unwrap();
        assert!(outs.iter().all(|out| out.lock().is_empty()));
        let after = idx.stats();
        assert_eq!(after.queries_cancelled, 2);
        assert_eq!(IndexStats { queries_cancelled: 0, ..after }, s);
    }
}
