//! Exact query answering (paper §IV-C, Figure 5 stage 2).
//!
//! The three GEMINI phases — approximate seed, parallel collect, parallel
//! refine — are documented on the crate root. All pruning decisions flow
//! through one crate-private `PruneBound` policy object: the
//! same funnel answers **k-NN** (shrinking k-th-best bound), **range**
//! (fixed epsilon radius, strict pruning, ties at the radius kept), and
//! **max-inner-product** (the Parseval score-to-L2-radius conversion),
//! each exactly. Every surviving candidate pays a SIMD lower-bound check
//! before its exact score is computed, both early-abandoned against the
//! policy's squared-L2 threshold.
//!
//! Filtered queries thread a [`RowFilter`] predicate *into* the funnel:
//! the approximate seed skips rejected rows (so the bound never tightens
//! on an inadmissible row — a correctness requirement, not an
//! optimization), and the refine sweeps AND the per-group live mask into
//! the SIMD kernels ([`lut_lower_bound`] / [`quant_lower_bound_masked`]),
//! where dead lanes price as `+inf` and accelerate whole-group abandons.
//! Live lanes stay bit-identical to the unfiltered sweep across every
//! kernel tier.
//!
//! The funnel narrows in four bounds, each tighter and costlier than the
//! one before:
//!
//! 1. **Root gate** (collect): one [`RootLbd`] XOR evaluation per subtree
//!    prices its 1-bit-per-position root label — a few bit operations,
//!    run on every subtree of every query.
//! 2. **Leaf envelope** (collect): every leaf behind a passing gate is
//!    priced by its [`crate::SymbolEnvelope`], the per-position min/max
//!    symbols of its rows ([`QueryContext::envelope_mindist`], one pass
//!    over `word_len` positions). The leaf is pruned on that bound or
//!    queued under it, so queues also abandon on it. The rare subtree
//!    that split below its root prices its inner nodes with a scalar
//!    `mindist_node` DFS on the way down.
//! 3. **Word bound** (refine): each queued leaf's candidates are priced
//!    8 at a time by [`lut_lower_bound`]: the query's symbol table (built
//!    once per query) indexed by the candidates' words, read straight
//!    from the word arena.
//! 4. **Quantized bound** (refine): near-full surviving groups are
//!    re-priced from 1-byte codes before the exact `f32` scan.
//!
//! The envelope bound is `>=` the root gate and `<=` every member row's
//! word bound in `f32` (same operations, wider interval), so it prunes
//! only leaves the word bound would empty, and answers are unchanged.
//!
//! Parallel phases execute on the index's persistent
//! [`sofa_exec::ExecPool`] (no per-query thread spawning), and every
//! per-query buffer — context values, query word, symbol table, queues,
//! k-NN heap, range hit list, DFS stacks — comes from a pooled
//! crate-private query scratch, so the steady-state serial path
//! performs zero heap allocations and [`Index::knn_batch`] lanes reuse
//! one scratch per lane across the whole mini-batch.

use crate::bsf::{IpNeighbor, Neighbor};
use crate::filter::RowFilter;
use crate::node::{root_key, LeafPack, NodeKind, Subtree, SymbolEnvelope, MAX_WORD_LEN};
use crate::prune::{IpBound, KnnBound, PruneBound, RangeBound};
use crate::scratch::{LeafQueue, QueryScratch, QueueEntry};
use crate::{Index, IndexError};
use parking_lot::Mutex;
use sofa_exec::CancelToken;
use sofa_simd::{dot, znormalize};
use sofa_simd::{lut_lower_bound, quant_lower_bound, quant_lower_bound_masked, BLOCK_LANES};
use sofa_summaries::{mindist_node, mindist_simd, QueryContext, RootLbd, Summarization};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Minimum word-bound survivors in an 8-lane group before the quantized
/// refine tier prices it. The integer sweep streams the whole group's
/// codes (`8n` bytes) until every lane resolves, so a sparse group —
/// where most lanes are already dead and the few survivors keep the
/// sweep alive to the end — costs more than the `f32` scans it could
/// retire. Only near-full groups, where one pass over the codes can
/// kill several rows at a quarter of their `f32` traffic, clear the
/// bar. The value was set when the quantized tier was introduced, from
/// its on/off arms on one index (`repro` throughput profile, 1-core AVX2
/// container), and has not been re-tuned on `perfbench` since.
const QUANT_MIN_SURVIVORS: usize = 6;

/// Counters describing how much work one query performed — the raw
/// material for the paper's pruning-power discussion (§V-E).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Leaves pushed into the priority queues: non-empty leaves whose
    /// envelope bound the policy did not prune at collect time.
    pub leaves_collected: usize,
    /// Leaves whose series were actually examined.
    pub leaves_refined: usize,
    /// Nodes pruned at collect time: whole subtrees at the root gate,
    /// inner nodes below a root in the collect DFS, and leaves pruned by
    /// their envelope bound.
    pub nodes_pruned: usize,
    /// Per-series lower-bound evaluations (predicate-rejected rows are
    /// never evaluated and excluded here).
    pub series_lbd_checked: usize,
    /// Per-series exact evaluations (survived the LBD).
    pub series_refined: usize,
    /// Queues abandoned because their minimum exceeded the bound.
    pub queues_abandoned: usize,
    /// 8-candidate groups swept by the symbol-table word lower-bound
    /// kernel (`lut_lower_bound`).
    pub block_groups_swept: usize,
    /// Candidate lanes pruned by the block sweep (whole-group abandons
    /// plus individual lanes at or above the bound).
    pub block_lanes_abandoned: usize,
    /// 8-candidate groups swept by the quantized refine kernel (the
    /// compressed middle tier between the word bound and the exact scan).
    pub quant_groups_swept: usize,
    /// Candidate lanes the quantized tier pruned after the word bound let
    /// them through — exact `f32` scans that never happened.
    pub quant_lanes_killed: usize,
    /// Refine-phase candidate lanes a [`RowFilter`] predicate rejected
    /// before any bound was evaluated (each masked lane is counted once,
    /// whether its group was swept masked or skipped outright). Zero for
    /// unfiltered queries.
    pub predicate_lanes_masked: usize,
    /// Rows a range query returned (`d² <= r²`). Zero for k-NN/IP
    /// queries, whose answer count is just `min(k, candidates)`.
    pub range_hits: usize,
    /// Estimated refine-phase bytes read: words swept + quant codes swept
    /// + exact rows scanned. The funnel's bandwidth metric.
    pub refine_bytes: usize,
    /// 1 if this query was abandoned by cooperative cancellation (its
    /// deadline expired or it was shed mid-flight). A cancelled query
    /// produced **no** answer — the other counters describe the partial
    /// work it burned before the checkpoint fired — and it is counted in
    /// [`crate::IndexStats::queries_cancelled`], not `queries_served`.
    pub cancelled: usize,
}

#[derive(Default)]
struct AtomicStats {
    leaves_collected: AtomicUsize,
    leaves_refined: AtomicUsize,
    nodes_pruned: AtomicUsize,
    series_lbd_checked: AtomicUsize,
    series_refined: AtomicUsize,
    queues_abandoned: AtomicUsize,
    block_groups_swept: AtomicUsize,
    block_lanes_abandoned: AtomicUsize,
    quant_groups_swept: AtomicUsize,
    quant_lanes_killed: AtomicUsize,
    predicate_lanes_masked: AtomicUsize,
    refine_bytes: AtomicUsize,
}

/// Per-query scratch of the quantized refine tier: the query's codes
/// under the index-wide grid and its reconstruction-error norm. The grid
/// is shared by every leaf, so both are computed at most once per query —
/// lazily, on the first group that engages the tier — and reused across
/// every leaf a worker refines. `err_q == NaN` marks the codes as
/// not-yet-computed.
struct QuantScratch {
    codes: [u8; crate::node::QUANT_REFINE_MAX_LEN],
    err_q: f64,
}

impl QuantScratch {
    fn new() -> Self {
        Self { codes: [0; crate::node::QUANT_REFINE_MAX_LEN], err_q: f64::NAN }
    }
}

impl AtomicStats {
    fn snapshot(&self) -> QueryStats {
        QueryStats {
            leaves_collected: self.leaves_collected.load(Ordering::Relaxed),
            leaves_refined: self.leaves_refined.load(Ordering::Relaxed),
            nodes_pruned: self.nodes_pruned.load(Ordering::Relaxed),
            series_lbd_checked: self.series_lbd_checked.load(Ordering::Relaxed),
            series_refined: self.series_refined.load(Ordering::Relaxed),
            queues_abandoned: self.queues_abandoned.load(Ordering::Relaxed),
            block_groups_swept: self.block_groups_swept.load(Ordering::Relaxed),
            block_lanes_abandoned: self.block_lanes_abandoned.load(Ordering::Relaxed),
            quant_groups_swept: self.quant_groups_swept.load(Ordering::Relaxed),
            quant_lanes_killed: self.quant_lanes_killed.load(Ordering::Relaxed),
            predicate_lanes_masked: self.predicate_lanes_masked.load(Ordering::Relaxed),
            range_hits: 0,
            refine_bytes: self.refine_bytes.load(Ordering::Relaxed),
            cancelled: 0,
        }
    }
}

/// What one query asks for — the argument of [`Index::query_into`], the
/// per-query entry of a mixed batch ([`Index::query_batch_into_cancel`])
/// and the ticket a serving front-end coalesces into ticks.
///
/// Results always travel as [`Neighbor`] vectors, best first:
///
/// * `Knn`/`KnnFiltered` — `dist_sq` is the squared z-normalized
///   Euclidean distance.
/// * `Range` — every row with `dist_sq <= r_sq` (ties at the radius
///   included), sorted by `(dist_sq, row)`.
/// * `Ip` — `dist_sq` carries the **score** `2n - q·x` (ascending score
///   = descending inner product); convert with
///   [`sofa_summaries::ip_from_score`] or use [`Index::knn_ip`], which
///   recomputes exact dot products for the answer rows.
#[derive(Clone, Debug)]
pub enum QueryKind {
    /// Exact k-nearest-neighbors under squared Euclidean distance.
    Knn {
        /// How many neighbors to return.
        k: usize,
    },
    /// k-NN restricted to the rows a [`RowFilter`] admits — exactly the
    /// result of running k-NN over the admitted subset alone.
    KnnFiltered {
        /// How many neighbors to return.
        k: usize,
        /// The row predicate (must cover exactly `n_series` rows).
        filter: Arc<RowFilter>,
    },
    /// Every row within squared radius `r_sq` of the query.
    Range {
        /// Squared inclusion radius (finite, non-negative).
        r_sq: f32,
    },
    /// Top-k rows by inner product with the z-normalized query.
    Ip {
        /// How many rows to return.
        k: usize,
    },
}

impl QueryKind {
    /// The admission check of every query path — direct calls, batches,
    /// shards and the server all run this one function: `query` must
    /// hold `series_len` values, `k` must be at least 1, a radius finite
    /// and non-negative, and a filter must cover exactly `n_rows` rows
    /// (checked when the row count is known).
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] naming the first violation.
    pub fn validate(
        &self,
        query: &[f32],
        series_len: usize,
        n_rows: Option<usize>,
    ) -> Result<(), IndexError> {
        let bad = |msg: String| Err(IndexError::BadQuery(msg));
        if query.len() != series_len {
            return bad(format!("query length {} != series length {series_len}", query.len()));
        }
        match self {
            QueryKind::Knn { k: 0 }
            | QueryKind::KnnFiltered { k: 0, .. }
            | QueryKind::Ip { k: 0 } => bad("k must be at least 1".into()),
            QueryKind::KnnFiltered { filter, .. } if n_rows.is_some_and(|n| n != filter.len()) => {
                bad(format!(
                    "filter covers {} rows but the index holds {}",
                    filter.len(),
                    n_rows.unwrap_or_default()
                ))
            }
            QueryKind::Range { r_sq } if !(r_sq.is_finite() && *r_sq >= 0.0) => {
                bad(format!("range radius² must be finite and non-negative, got {r_sq}"))
            }
            _ => Ok(()),
        }
    }

    /// The `k` the scratch's result set is armed with (range queries
    /// don't use the k-NN set; 1 keeps the reset cheap).
    fn set_k(&self) -> usize {
        match self {
            QueryKind::Knn { k } | QueryKind::KnnFiltered { k, .. } | QueryKind::Ip { k } => *k,
            QueryKind::Range { .. } => 1,
        }
    }
}

/// Checks a row-major batch of `kinds.len()` queries before it runs: the
/// buffer holds exactly one series per kind, `n_outs` output slots and
/// `n_cancels` tokens (0 = uncancellable) match the query count, and
/// every query passes [`QueryKind::validate`] against `n_rows` rows.
///
/// # Errors
/// Returns [`IndexError::BadQuery`] naming the first violation.
pub fn validate_batch(
    queries: &[f32],
    kinds: &[QueryKind],
    n_outs: usize,
    n_cancels: usize,
    series_len: usize,
    n_rows: usize,
) -> Result<(), IndexError> {
    let m = kinds.len();
    if queries.len() != m * series_len || n_outs != m || (n_cancels != 0 && n_cancels != m) {
        return Err(IndexError::BadQuery(format!(
            "{} floats of series length {series_len} for {m} kinds, {n_outs} output slots \
             and {n_cancels} cancellation tokens",
            queries.len()
        )));
    }
    for (query, kind) in queries.chunks_exact(series_len).zip(kinds) {
        kind.validate(query, series_len, Some(n_rows))?;
    }
    Ok(())
}

/// Has this query's cancellation token fired? (`None` = uncancellable.)
#[inline]
fn fired(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(CancelToken::is_cancelled)
}

/// Moves one answered query's results out of the scratch into `out`
/// (cleared first, best first): the sorted hit list for range, the
/// k-NN/IP set for every other kind.
fn drain_results(scratch: &mut QueryScratch, kind: &QueryKind, out: &mut Vec<Neighbor>) {
    out.clear();
    if let QueryKind::Range { .. } = kind {
        let hits = scratch.range.get_mut();
        // Deterministic output independent of worker interleaving.
        hits.sort_unstable();
        out.append(hits);
    } else {
        scratch.knn.drain_sorted_into(out);
    }
}

impl<S: Summarization> Index<S> {
    /// Answers one query of any [`QueryKind`] into a caller-owned buffer
    /// (cleared first, best first, in the kind's result encoding) and
    /// returns its work counters. Every other single-query method is a
    /// thin wrapper over this one.
    ///
    /// With a warmed-up scratch pool and a buffer that has held a
    /// result this large before, the call performs no heap allocation.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] when [`QueryKind::validate`]
    /// rejects the query.
    pub fn query_into(
        &self,
        query: &[f32],
        kind: &QueryKind,
        out: &mut Vec<Neighbor>,
    ) -> Result<QueryStats, IndexError> {
        kind.validate(query, self.series_len, Some(self.n_series()))?;
        let mut scratch = self.scratch();
        let stats =
            self.query_on_scratch(&mut scratch, query, kind, None, self.pool.threads() == 1);
        drain_results(&mut scratch, kind, out);
        Ok(stats)
    }

    /// Exact 1-NN under z-normalized Euclidean distance.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch.
    pub fn nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
        Ok(self.knn(query, 1)?[0])
    }

    /// Exact k-NN, best first. Returns `min(k, n_series)` neighbors.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch or `k == 0`.
    pub fn knn(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, IndexError> {
        self.knn_with_stats(query, k).map(|(nn, _)| nn)
    }

    /// Exact k-NN plus per-query work counters.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch or `k == 0`.
    pub fn knn_with_stats(
        &self,
        query: &[f32],
        k: usize,
    ) -> Result<(Vec<Neighbor>, QueryStats), IndexError> {
        let mut out = Vec::new();
        let stats = self.query_into(query, &QueryKind::Knn { k }, &mut out)?;
        Ok((out, stats))
    }

    /// Exact k-NN over the rows `filter` admits, best first — exactly the
    /// answer k-NN would give if the index held only the admitted subset.
    ///
    /// The predicate is enforced *inside* the pruning funnel: rejected
    /// rows never seed or tighten the best-so-far, and refine-phase lane
    /// groups AND the bitmap into the SIMD sweeps (dead lanes price as
    /// `+inf` and speed up whole-group abandons) — not by post-filtering
    /// a wider answer, which would be both wrong at the bound and slower.
    /// (This form copies `filter`; pass a shared [`QueryKind::KnnFiltered`]
    /// to [`Index::query_into`] to avoid the copy.)
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch, `k == 0`,
    /// or a filter whose row count differs from the index's.
    pub fn knn_filtered(
        &self,
        query: &[f32],
        k: usize,
        filter: &RowFilter,
    ) -> Result<Vec<Neighbor>, IndexError> {
        let kind = QueryKind::KnnFiltered { k, filter: Arc::new(filter.clone()) };
        let mut out = Vec::new();
        self.query_into(query, &kind, &mut out)?;
        Ok(out)
    }

    /// Exact range search: every row with squared distance `<= r_sq`,
    /// sorted by `(dist_sq, row)`. Ties exactly at the radius are
    /// **included** — all pruning for this query type is strict.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch or a
    /// non-finite/negative radius.
    pub fn range(&self, query: &[f32], r_sq: f32) -> Result<Vec<Neighbor>, IndexError> {
        let mut out = Vec::new();
        self.query_into(query, &QueryKind::Range { r_sq }, &mut out)?;
        Ok(out)
    }

    /// Exact top-k rows by inner product with the z-normalized query,
    /// best (largest dot) first; ties broken by lowest row.
    ///
    /// Internally this runs through the same L2 pruning funnel as k-NN:
    /// maximizing `q·x` over z-normalized rows is minimizing the Parseval
    /// score `2n - q·x`, and the current k-th-best score converts to a
    /// squared-L2 radius every existing `mindist` bound prunes against
    /// (see `sofa-summaries`'s `ip_l2_radius` and its soundness property
    /// test). The returned `ip` values are exact dot products recomputed
    /// per answer row.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch or `k == 0`.
    pub fn knn_ip(&self, query: &[f32], k: usize) -> Result<Vec<IpNeighbor>, IndexError> {
        let (mut out, mut q) = (Vec::new(), query.to_vec());
        self.query_into(query, &QueryKind::Ip { k }, &mut out)?;
        znormalize(&mut q);
        let ip = |n: &Neighbor| IpNeighbor { row: n.row, ip: dot(&q, self.series(n.row as usize)) };
        Ok(out.iter().map(ip).collect())
    }

    /// Exact k-NN for a batch of queries (row-major), best first per
    /// query — [`Index::query_batch_into_cancel`] with one uniform kind.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] if the buffer is not a whole
    /// number of series or `k == 0`.
    pub fn knn_batch(&self, queries: &[f32], k: usize) -> Result<Vec<Vec<Neighbor>>, IndexError> {
        let kinds = vec![QueryKind::Knn { k }; queries.len() / self.series_len];
        let outs: Vec<Mutex<Vec<Neighbor>>> = kinds.iter().map(|_| Mutex::default()).collect();
        self.query_batch_into_cancel(queries, &kinds, &outs, &[])?;
        Ok(outs.into_iter().map(Mutex::into_inner).collect())
    }

    /// A mixed batch: query `i` (row-major in `queries`) runs as
    /// `kinds[i]` into `outs[i]` (cleared first, best first; see
    /// [`QueryKind`] for each kind's encoding). Queries are distributed
    /// across the worker pool — each runs the serial per-query path, so
    /// a batch keeps every lane busy with zero intra-query
    /// synchronization (the FAISS mini-batch model the paper uses for
    /// its flat competitor, applied to the tree). A batch of `m` queries
    /// runs on `min(m, threads())` pool lanes, each lane reusing one
    /// pooled scratch for every query it claims, so a warm batch
    /// allocates nothing; a lone query keeps intra-query parallelism.
    /// This is the engine behind micro-batching front-ends.
    ///
    /// Exactly one [`crate::IndexStats::queries_served`] count is
    /// recorded per answered slot, the same as `m` individual calls.
    ///
    /// `cancels` is either empty (no cancellation) or one
    /// [`CancelToken`] per query. A query whose token fires — its
    /// deadline passed or a canceller called [`CancelToken::cancel`] —
    /// is abandoned at the next checkpoint (group-sweep granularity
    /// inside collect and refine): its output slot is **not** written,
    /// it is **not** counted in `queries_served` (it lands in
    /// `queries_cancelled` instead), and its partial work is discarded —
    /// a query either completes exactly or produces nothing.
    /// Abandonment always latches the token's fired flag first, so a
    /// caller that observes `!is_cancelled_now()` after this returns
    /// knows that slot holds a complete exact answer.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] when [`validate_batch`] rejects
    /// the batch.
    pub fn query_batch_into_cancel(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[Mutex<Vec<Neighbor>>],
        cancels: &[CancelToken],
    ) -> Result<(), IndexError> {
        validate_batch(
            queries,
            kinds,
            outs.len(),
            cancels.len(),
            self.series_len,
            self.n_series(),
        )?;
        if !kinds.is_empty() {
            self.batch_dispatch(queries, kinds, outs, cancels);
        }
        Ok(())
    }

    /// Validated batch execution: a lone query keeps intra-query
    /// parallelism; otherwise pool lanes claim queries off an atomic
    /// counter and run the serial per-query path, one pooled scratch per
    /// lane for the whole batch.
    fn batch_dispatch(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[Mutex<Vec<Neighbor>>],
        cancels: &[CancelToken],
    ) {
        let n_queries = outs.len();
        if n_queries == 1 {
            // A lone query still gets intra-query parallelism, with the
            // token (if any) threaded through the phases.
            let mut scratch = self.scratch();
            let stats = self.query_on_scratch(
                &mut scratch,
                queries,
                &kinds[0],
                cancels.first(),
                self.pool.threads() == 1,
            );
            if stats.cancelled == 0 {
                drain_results(&mut scratch, &kinds[0], &mut outs[0].lock());
            }
            return;
        }
        if self.pool.threads() == 1 {
            let mut scratch = self.scratch();
            for i in 0..n_queries {
                self.batch_query_on_scratch(&mut scratch, queries, kinds, outs, cancels, i);
            }
            return;
        }
        let next_query = AtomicUsize::new(0);
        // A tick smaller than the pool leaves the excess lanes asleep:
        // per-tick dispatch cost scales with the queries available.
        self.pool.broadcast_limit(n_queries, |_| {
            // One scratch per lane for the whole batch: queues, heaps,
            // context buffers and the DFT executor are reused across
            // every query this lane claims.
            let mut scratch = self.scratch();
            loop {
                let i = next_query.fetch_add(1, Ordering::Relaxed);
                if i >= n_queries {
                    break;
                }
                self.batch_query_on_scratch(&mut scratch, queries, kinds, outs, cancels, i);
            }
        });
    }

    /// One batch lane's handling of query `i`: run the serial per-query
    /// path with its token (if any); on completion write the output slot
    /// and mark the token complete, on cancellation leave the slot
    /// untouched (the caller must treat unmarked slots as unanswered).
    fn batch_query_on_scratch(
        &self,
        scratch: &mut QueryScratch,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[Mutex<Vec<Neighbor>>],
        cancels: &[CancelToken],
        i: usize,
    ) {
        let n = self.series_len;
        let query = &queries[i * n..(i + 1) * n];
        let stats = self.query_on_scratch(scratch, query, &kinds[i], cancels.get(i), true);
        if stats.cancelled == 0 {
            drain_results(scratch, &kinds[i], &mut outs[i].lock());
        }
    }

    /// Normalizes `query` into the scratch and answers it as `kind` —
    /// on the pool when `serial` is false, inline otherwise. The results
    /// are left in the scratch (`knn` or `range` per the kind); if
    /// `cancel` fired the snapshot has `cancelled == 1` and the scratch
    /// contents must be discarded.
    fn query_on_scratch(
        &self,
        scratch: &mut QueryScratch,
        query: &[f32],
        kind: &QueryKind,
        cancel: Option<&CancelToken>,
        serial: bool,
    ) -> QueryStats {
        if fired(cancel) {
            // Expired before any work: skip even the query transform.
            return self.finish_query(&AtomicStats::default(), true);
        }
        self.prepare_scratch(scratch, query, kind.set_k());
        let s: &QueryScratch = scratch;
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        let stats = AtomicStats::default();
        let knn = KnnBound { set: &s.knn };
        match kind {
            QueryKind::Knn { .. } => self.drive(s, &ctx, &knn, None, true, serial, &stats, cancel),
            QueryKind::KnnFiltered { filter, .. } => {
                self.drive(s, &ctx, &knn, Some(filter), true, serial, &stats, cancel);
            }
            QueryKind::Range { r_sq } => {
                // No approximate seed: the radius is fixed (seeding can't
                // tighten it), and the hit list has no row dedup, so
                // scoring the home leaf twice would double-report.
                let pb = RangeBound { r_sq: *r_sq, hits: &s.range };
                self.drive(s, &ctx, &pb, None, false, serial, &stats, cancel);
            }
            QueryKind::Ip { .. } => {
                let pb = IpBound { set: &s.knn, n: self.series_len };
                self.drive(s, &ctx, &pb, None, true, serial, &stats, cancel);
            }
        }
        let mut snapshot = self.finish_query(&stats, fired(cancel));
        if snapshot.cancelled == 0 && matches!(kind, QueryKind::Range { .. }) {
            snapshot.range_hits = s.range.lock().len();
        }
        snapshot
    }

    /// Runs the three funnel phases under one [`PruneBound`] policy: the
    /// optional approximate seed, then collect, then refine — serially
    /// inline or with pool lanes claiming subtrees/queues.
    #[allow(clippy::too_many_arguments)]
    fn drive<B: PruneBound>(
        &self,
        s: &QueryScratch,
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        seed: bool,
        serial: bool,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        // --- Phase 1: approximate search seeds the bound (skipped for
        // range queries, whose bound is fixed).
        if seed {
            self.approximate_into(&s.q, &s.qword, ctx, &s.root_lbd, pb, filter);
        }

        // --- Phase 2: collect unpruned leaves into priority queues.
        let push_counter = AtomicUsize::new(0);
        if serial {
            {
                let mut stack = s.lanes[0].lock();
                for (i, subtree) in self.subtrees.iter().enumerate() {
                    if fired(cancel) {
                        break;
                    }
                    debug_assert!(i <= u32::MAX as usize, "subtree index exceeds u32");
                    self.collect_subtree(
                        subtree,
                        i as u32,
                        ctx,
                        &s.root_lbd,
                        pb,
                        &s.queues,
                        &push_counter,
                        &mut stack,
                        stats,
                        cancel,
                    );
                }
            }
            if !fired(cancel) {
                self.refine_from_queues(
                    0, &s.q, &s.lut, &s.queues, &s.done, ctx, pb, filter, stats, cancel,
                );
            }
            return;
        }
        // Pool lanes claim subtrees off an atomic counter.
        let next_subtree = AtomicUsize::new(0);
        self.pool.broadcast(|lane| {
            let mut stack = s.lanes[lane].lock();
            loop {
                let i = next_subtree.fetch_add(1, Ordering::Relaxed);
                if i >= self.subtrees.len() || fired(cancel) {
                    break;
                }
                debug_assert!(i <= u32::MAX as usize, "subtree index exceeds u32");
                self.collect_subtree(
                    &self.subtrees[i],
                    i as u32,
                    ctx,
                    &s.root_lbd,
                    pb,
                    &s.queues,
                    &push_counter,
                    &mut stack,
                    stats,
                    cancel,
                );
            }
        });

        // --- Phase 3: refine from the queues, one lane per worker slot.
        if !fired(cancel) {
            self.pool.broadcast(|worker| {
                self.refine_from_queues(
                    worker, &s.q, &s.lut, &s.queues, &s.done, ctx, pb, filter, stats, cancel,
                );
            });
        }
    }

    /// Snapshots one query's counters and routes it to the right
    /// index-lifetime audit: `queries_served` for completed queries,
    /// `queries_cancelled` for abandoned ones (whose partial sweep work
    /// is still visible in the returned per-query counters).
    fn finish_query(&self, stats: &AtomicStats, cancelled: bool) -> QueryStats {
        let mut snapshot = stats.snapshot();
        if cancelled {
            snapshot.cancelled = 1;
            self.counters.record_cancelled();
        } else {
            self.record_query_counters(&snapshot);
        }
        snapshot
    }

    /// Fills the scratch's per-query state: normalized query, context
    /// values, query word, root-penalty table, symbol table, k-NN set,
    /// range hit list and queue flags. Performs no allocation once the
    /// buffers are warm.
    fn prepare_scratch(&self, s: &mut QueryScratch, query: &[f32], k: usize) {
        s.q.clear();
        s.q.extend_from_slice(query);
        sofa_simd::znormalize(&mut s.q);
        self.summarization.query_values_reusing(&s.q, &mut s.transform, &mut s.values);
        s.begin(k);
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        // The query word is the quantization of the context's values — no
        // second transform needed.
        ctx.word_into(&mut s.qword);
        s.root_lbd.rebuild(&ctx);
        ctx.lut_into(&mut s.lut);
    }

    /// Mirrors one query's sweep counters into the index-lifetime totals
    /// reported by [`crate::IndexStats`].
    fn record_query_counters(&self, stats: &QueryStats) {
        self.counters.record_query();
        self.counters.record_block_sweep(
            stats.block_groups_swept as u64,
            stats.block_lanes_abandoned as u64,
        );
        self.counters.record_quant_sweep(
            stats.quant_groups_swept as u64,
            stats.quant_lanes_killed as u64,
            stats.refine_bytes as u64,
        );
    }

    /// Approximate 1-NN only (the paper's "Approximate Search" stage used
    /// on its own): descend to the query's home leaf and return the best
    /// real distance there. The answer is not guaranteed exact.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch.
    pub fn approximate_nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
        QueryKind::Knn { k: 1 }.validate(query, self.series_len, None)?;
        let mut scratch = self.scratch();
        self.prepare_scratch(&mut scratch, query, 1);
        let s: &QueryScratch = &scratch;
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        self.approximate_into(&s.q, &s.qword, &ctx, &s.root_lbd, &KnnBound { set: &s.knn }, None);
        s.knn.sorted().first().copied().ok_or_else(|| IndexError::BadQuery("index is empty".into()))
    }

    /// Approximate search (paper §IV-C): identify the leaf with the
    /// smallest lower-bound distance and seed the bound from its series.
    ///
    /// The query's home subtree (exact root-key match) is tried first; the
    /// descent then follows the child with the smaller node-level mindist,
    /// which is robust even when individual word bits of the query are
    /// noisy. When no subtree matches the key, the subtree whose root has
    /// the smallest mindist is used instead — evaluated through the
    /// precomputed [`RootLbd`] table, once per subtree (the former
    /// `min_by` recomputed the full scalar `mindist_node` for both sides
    /// of every comparison).
    ///
    /// Filtered queries skip rejected rows *before* scoring: a filtered
    /// row must never tighten the bound, or an admissible farther
    /// neighbor could be wrongly pruned.
    fn approximate_into<B: PruneBound>(
        &self,
        q: &[f32],
        qword: &[u8],
        ctx: &QueryContext<'_>,
        root_lbd: &RootLbd,
        pb: &B,
        filter: Option<&RowFilter>,
    ) {
        let admits = |row: u32| filter.map_or(true, |f| f.admits(row as usize));
        let key = root_key(qword, self.summarization.symbol_bits());
        let subtree = match self.subtrees.binary_search_by_key(&key, |s| s.key) {
            Ok(i) => &self.subtrees[i],
            Err(_) => {
                let mut best = (f32::INFINITY, 0usize);
                for (i, st) in self.subtrees.iter().enumerate() {
                    let d = root_lbd.eval(st.key);
                    if d < best.0 {
                        best = (d, i);
                    }
                }
                &self.subtrees[best.1]
            }
        };
        let mut node = &subtree.nodes[0];
        loop {
            match &node.kind {
                NodeKind::Leaf { rows, pack, .. } => {
                    if let Some(pack) = pack {
                        // Packed leaf: stream the contiguous arena run.
                        let start = pack.start as usize;
                        for i in 0..rows.len() {
                            let slot = start + i;
                            let row = self.slot_to_row[slot];
                            if !admits(row) {
                                continue;
                            }
                            pb.score_and_offer(q, self.series_at_slot(slot), row);
                        }
                        return;
                    }
                    for &row in rows {
                        if !admits(row) {
                            continue;
                        }
                        // An abandoned distance (> bound) is rejected by
                        // the policy's offer anyway, so no exactness
                        // hazard here.
                        pb.score_and_offer(q, self.series(row as usize), row);
                    }
                    return;
                }
                NodeKind::Inner { left, right, .. } => {
                    let l = &subtree.nodes[*left as usize];
                    let r = &subtree.nodes[*right as usize];
                    let dl = mindist_node(ctx, &l.prefixes, &l.bits);
                    let dr = mindist_node(ctx, &r.prefixes, &r.bits);
                    node = if dl <= dr { l } else { r };
                }
            }
        }
    }

    /// Prices one subtree against the bound and pushes its surviving
    /// leaves into the queues. One [`RootLbd`] XOR evaluation gates the
    /// whole subtree; every leaf behind the gate is then priced by its
    /// [`crate::SymbolEnvelope`] ([`QueryContext::envelope_mindist`]) and
    /// pruned or queued under that bound. A subtree that split below its
    /// root is walked by a scalar DFS that prices inner nodes with
    /// `mindist_node` (a child's interval nests inside its parent's, so a
    /// pruned node prunes everything below it) and leaves by their
    /// envelopes.
    ///
    /// The envelope bound is `>=` both node bounds (every row of a leaf
    /// shares its label) and `<=` every row's symbol-table sum in `f32`
    /// (same operations, wider interval), so it prunes only leaves whose
    /// every row the refine sweep would prune, and answers are unchanged.
    /// (The per-row path of unpacked leaves sums the same terms through
    /// `mindist_simd`, in another order; there the two agree to `f32`
    /// rounding, like any two evaluations of one lower bound.)
    ///
    /// Collect is filter-agnostic: node and envelope bounds hold for every
    /// row under a node, admitted or not, so pruning decisions are
    /// unchanged and the predicate is applied at refine granularity.
    #[allow(clippy::too_many_arguments)]
    fn collect_subtree<B: PruneBound>(
        &self,
        subtree: &Subtree,
        subtree_idx: u32,
        ctx: &QueryContext<'_>,
        root_lbd: &RootLbd,
        pb: &B,
        queues: &[Mutex<LeafQueue>],
        push_counter: &AtomicUsize,
        stack: &mut Vec<u32>,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        // The root's 1-bit-per-position label is fully determined by the
        // subtree key: the precomputed XOR-penalty evaluation prices the
        // whole subtree in a few bit operations (this gate runs for every
        // subtree of every query).
        if pb.prunes(root_lbd.eval(subtree.key)) {
            stats.nodes_pruned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let collect_leaf = |id: u32, rows: &[u32], envelope: &SymbolEnvelope| {
            if rows.is_empty() {
                return;
            }
            let lbd = ctx.envelope_mindist(envelope.min(), envelope.max());
            if pb.prunes(lbd) {
                stats.nodes_pruned.fetch_add(1, Ordering::Relaxed);
            } else {
                push_leaf(lbd, subtree_idx, id, queues, push_counter);
                stats.leaves_collected.fetch_add(1, Ordering::Relaxed);
            }
        };
        match &subtree.nodes[0].kind {
            // Single-leaf subtree (wide forests produce thousands).
            NodeKind::Leaf { rows, envelope, .. } => {
                collect_leaf(0, rows, envelope);
                return;
            }
            NodeKind::Inner { left, right, .. } => {
                stack.clear();
                stack.push(*left);
                stack.push(*right);
            }
        }
        while let Some(id) = stack.pop() {
            if fired(cancel) {
                return;
            }
            let node = &subtree.nodes[id as usize];
            match &node.kind {
                NodeKind::Leaf { rows, envelope, .. } => collect_leaf(id, rows, envelope),
                NodeKind::Inner { left, right, .. } => {
                    if pb.prunes(mindist_node(ctx, &node.prefixes, &node.bits)) {
                        stats.nodes_pruned.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
    }

    /// Drains queues starting at `worker`'s own queue: pop the minimum
    /// leaf, abandon the whole queue once its minimum is pruned by the
    /// policy, otherwise refine the leaf's series.
    #[allow(clippy::too_many_arguments)]
    fn refine_from_queues<B: PruneBound>(
        &self,
        worker: usize,
        q: &[f32],
        lut: &[f32],
        queues: &[Mutex<LeafQueue>],
        done: &[AtomicBool],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        cancel: Option<&CancelToken>,
    ) {
        let nq = queues.len();
        let mut quant = QuantScratch::new();
        loop {
            let mut progressed = false;
            for offset in 0..nq {
                // Cancellation checkpoint per popped leaf: an expired
                // query stops draining its queues mid-refine.
                if fired(cancel) {
                    return;
                }
                let qi = (worker + offset) % nq;
                if done[qi].load(Ordering::Acquire) {
                    continue;
                }
                let entry = queues[qi].lock().pop();
                let Some(Reverse(entry)) = entry else {
                    done[qi].store(true, Ordering::Release);
                    continue;
                };
                progressed = true;
                if pb.prunes(entry.lbd) {
                    // Everything left in this queue has a larger lower
                    // bound: abandon it wholesale (paper §IV-C).
                    done[qi].store(true, Ordering::Release);
                    stats.queues_abandoned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                self.refine_leaf(entry, q, lut, ctx, pb, filter, stats, &mut quant, cancel);
            }
            if !progressed && done.iter().all(|d| d.load(Ordering::Acquire)) {
                break;
            }
            if !progressed {
                // All queues momentarily empty but not flagged: flag them.
                for d in done {
                    d.store(true, Ordering::Release);
                }
            }
        }
    }

    /// Evaluates every series in a leaf: lower bounds first, exact scores
    /// only for survivors; both early-abandon on the policy's threshold.
    ///
    /// Packed leaves (the bulk-built common case) take the batched path:
    /// the symbol-table kernel lower-bounds 8 candidates per call over the
    /// leaf's contiguous run of the word arena, then exact distances
    /// stream over its run of the series arena. Leaves touched by online
    /// inserts fall back to the per-row path until
    /// [`Index::repack_leaves`] (which the auto-repack trigger runs for
    /// you by default).
    #[allow(clippy::too_many_arguments)]
    fn refine_leaf<B: PruneBound>(
        &self,
        entry: QueueEntry,
        q: &[f32],
        lut: &[f32],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        qscratch: &mut QuantScratch,
        cancel: Option<&CancelToken>,
    ) {
        // Chaos hook: `ext-chaos` arms this to panic or stall inside the
        // refine funnel, underneath every batching/serving layer.
        let _ = sofa_exec::failpoint::fire("sofa-index::refine_leaf");
        let subtree = &self.subtrees[entry.subtree as usize];
        let node = &subtree.nodes[entry.node as usize];
        stats.leaves_refined.fetch_add(1, Ordering::Relaxed);
        match &node.kind {
            NodeKind::Leaf { rows, pack: Some(pack), .. } => {
                self.refine_leaf_packed(
                    pack,
                    rows.len(),
                    q,
                    lut,
                    pb,
                    filter,
                    stats,
                    qscratch,
                    cancel,
                );
            }
            NodeKind::Leaf { rows, pack: None, .. } => {
                self.refine_leaf_rows(rows, q, ctx, pb, filter, stats);
            }
            NodeKind::Inner { .. } => unreachable!("queues only hold leaves"),
        }
    }

    /// The batched refinement path over a packed leaf — a three-stage
    /// funnel. The word lower bound prices 8 lanes per call from the
    /// query's symbol table `lut`, indexed by the lanes' words in the
    /// word arena; word survivors are re-priced by the scalar-quantized
    /// tier (one integer sweep over 1-byte codes, ~4x less traffic than the
    /// raw series); only lanes both tiers fail to kill pay the exact
    /// `f32` scan. Both cheap tiers are conservative lower bounds, so the
    /// funnel never changes results — only how much memory they cost.
    ///
    /// With a [`RowFilter`], each group's live mask pre-ANDs the
    /// predicate into the sweep: a fully rejected group skips every
    /// kernel, a partially rejected one masks its dead lanes in both
    /// kernels (they price `+inf`/auto-resolve, accelerating whole-group
    /// abandons), and a fully admitted one prices exactly as unfiltered.
    #[allow(clippy::too_many_arguments)]
    fn refine_leaf_packed<B: PruneBound>(
        &self,
        pack: &LeafPack,
        n_rows: usize,
        q: &[f32],
        lut: &[f32],
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
        qscratch: &mut QuantScratch,
        cancel: Option<&CancelToken>,
    ) {
        let start = pack.start as usize;
        let n = self.series_len;
        let l = self.word_len;
        let words = &self.words[start * l..(start + n_rows) * l];
        let n_groups = n_rows.div_ceil(BLOCK_LANES);
        // The leaf's last, partial group is staged here, padded by
        // repeating its last real word: pad lanes mirror that candidate,
        // and the kernel never reads past the leaf's run (or the arena).
        let mut tail = [0u8; BLOCK_LANES * MAX_WORD_LEN];
        let quant = match (&self.quant_grid, pack.quant.as_ref()) {
            (Some(grid), Some(qb)) if self.quant_refine_enabled() => Some((grid, qb)),
            _ => None,
        };
        let mut lbs = [0.0f32; BLOCK_LANES];
        let mut qthr = [0i32; BLOCK_LANES];
        let mut qsums = [0i32; BLOCK_LANES];
        let mut refined = 0usize;
        let mut lanes_abandoned = 0usize;
        let mut quant_groups = 0usize;
        let mut quant_killed = 0usize;
        let mut predicate_masked = 0usize;
        for g in 0..n_groups {
            // Cancellation checkpoint at group-sweep granularity: the
            // partial offers already made are discarded wholesale by the
            // caller, so bailing mid-leaf cannot skew exactness.
            if fired(cancel) {
                break;
            }
            let bound = pb.l2_bound();
            let lanes = (n_rows - g * BLOCK_LANES).min(BLOCK_LANES);
            // Predicate mask: bit `i` lives iff the filter admits lane
            // `i`'s row. Pad lanes past `lanes` never get a bit, so a
            // bitmap that ends mid-group can't admit a phantom row (the
            // unfiltered path ignores pads via `take(lanes)`).
            let (live, masked) = match filter {
                None => (0xFFu8, 0usize),
                Some(f) => {
                    let mut m = 0u8;
                    for i in 0..lanes {
                        if f.admits(self.slot_to_row[start + g * BLOCK_LANES + i] as usize) {
                            m |= 1 << i;
                        }
                    }
                    (m, lanes - m.count_ones() as usize)
                }
            };
            predicate_masked += masked;
            if live == 0 {
                // Whole group predicate-rejected: no kernel runs at all.
                continue;
            }
            let run = &words[g * BLOCK_LANES * l..];
            let group_words = if lanes == BLOCK_LANES {
                &run[..BLOCK_LANES * l]
            } else {
                let (real, pads) = tail[..BLOCK_LANES * l].split_at_mut(run.len());
                real.copy_from_slice(run);
                for pad in pads.chunks_exact_mut(l) {
                    pad.copy_from_slice(&run[run.len() - l..]);
                }
                &tail[..BLOCK_LANES * l]
            };
            let group_abandoned = lut_lower_bound(lut, group_words, bound, live, &mut lbs);
            if group_abandoned {
                // Every live lane's (partial) sum exceeded the bound: the
                // whole group is pruned in one shot.
                lanes_abandoned += lanes - masked;
                continue;
            }
            // Quantized middle tier: one integer sweep re-prices the
            // whole group from 1-byte codes before any lane touches the
            // f32 arena. Only engaged when enough lanes survived the word
            // bound: the sweep reads all 8 lanes' codes (`8n` bytes,
            // roughly the traffic of two `f32` row scans), so pricing a
            // lone straggler costs more than the one scan it could save.
            // Dead lanes carry `+inf` word bounds, so they never count as
            // survivors.
            let mut quant_priced = false;
            if let Some((grid, qb)) = quant {
                let survivors = lbs.iter().take(lanes).filter(|&&l| !pb.prunes(l)).count();
                if survivors >= QUANT_MIN_SURVIVORS {
                    if qscratch.err_q.is_nan() {
                        // First engagement anywhere in this query: encode
                        // the query under the index-wide grid. Every
                        // later leaf reuses the same codes.
                        qscratch.err_q = grid.quantize_query(q, &mut qscratch.codes[..n]);
                    }
                    qb.thresholds(g, pb.l2_bound(), qscratch.err_q, &mut qthr);
                    quant_groups += 1;
                    let all_resolved = if masked == 0 {
                        quant_lower_bound(
                            &qscratch.codes[..n],
                            qb.group_codes(g),
                            &qthr,
                            &mut qsums,
                        )
                    } else {
                        quant_lower_bound_masked(
                            &qscratch.codes[..n],
                            qb.group_codes(g),
                            &qthr,
                            live,
                            &mut qsums,
                        )
                    };
                    if all_resolved {
                        // Every live lane's integer sum crossed its
                        // threshold: all word survivors die without
                        // touching f32 data (partial sums only grow, so
                        // the verdict is already final, and the threshold
                        // guarantee is strict — safe for range ties).
                        for (i, &l) in lbs.iter().enumerate().take(lanes) {
                            if live & (1 << i) == 0 {
                                continue; // counted in predicate_masked
                            }
                            if pb.prunes(l) {
                                lanes_abandoned += 1;
                            } else {
                                quant_killed += 1;
                            }
                        }
                        continue;
                    }
                    quant_priced = true;
                }
            }
            for (i, &lbd) in lbs.iter().enumerate().take(lanes) {
                if live & (1 << i) == 0 {
                    continue; // predicate-rejected; counted once per group
                }
                // Re-ask the policy: its bound tightens as lanes refine.
                if pb.prunes(lbd) {
                    lanes_abandoned += 1;
                    continue;
                }
                if quant_priced {
                    let (_, qb) = quant.expect("quant_priced implies a quant block");
                    let qlb = qb.lane_bound(qsums[i], qb.group_errs(g)[i], qscratch.err_q);
                    if pb.prunes_f64(qlb) {
                        quant_killed += 1;
                        continue;
                    }
                }
                refined += 1;
                let slot = start + g * BLOCK_LANES + i;
                pb.score_and_offer(q, self.series_at_slot(slot), self.slot_to_row[slot]);
            }
        }
        // Refine-traffic estimate: words are 8 lanes of `l` bytes per
        // group, quant codes 8 bytes per position per group, exact rows n
        // f32 each.
        let bytes = n_groups * BLOCK_LANES * l + quant_groups * n * BLOCK_LANES + refined * n * 4;
        stats.series_lbd_checked.fetch_add(n_rows - predicate_masked, Ordering::Relaxed);
        stats.series_refined.fetch_add(refined, Ordering::Relaxed);
        stats.block_groups_swept.fetch_add(n_groups, Ordering::Relaxed);
        stats.block_lanes_abandoned.fetch_add(lanes_abandoned, Ordering::Relaxed);
        stats.quant_groups_swept.fetch_add(quant_groups, Ordering::Relaxed);
        stats.quant_lanes_killed.fetch_add(quant_killed, Ordering::Relaxed);
        stats.predicate_lanes_masked.fetch_add(predicate_masked, Ordering::Relaxed);
        stats.refine_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The per-row fallback path (leaves invalidated by online inserts).
    fn refine_leaf_rows<B: PruneBound>(
        &self,
        rows: &[u32],
        q: &[f32],
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &AtomicStats,
    ) {
        let mut refined = 0usize;
        let mut checked = 0usize;
        let mut predicate_masked = 0usize;
        for &row in rows {
            if let Some(f) = filter {
                if !f.admits(row as usize) {
                    predicate_masked += 1;
                    continue;
                }
            }
            checked += 1;
            let bound = pb.l2_bound();
            let lbd = mindist_simd(ctx, self.word(row as usize), bound);
            if pb.prunes(lbd) {
                continue;
            }
            refined += 1;
            pb.score_and_offer(q, self.series(row as usize), row);
        }
        stats.series_lbd_checked.fetch_add(checked, Ordering::Relaxed);
        stats.series_refined.fetch_add(refined, Ordering::Relaxed);
        stats.predicate_lanes_masked.fetch_add(predicate_masked, Ordering::Relaxed);
        // Per-row traffic: one symbol word per row plus the exact rows.
        let bytes = checked * self.word_len + refined * self.series_len * 4;
        stats.refine_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Pushes one surviving leaf into the queues, round-robin on the shared
/// push counter.
#[inline]
fn push_leaf(
    lbd: f32,
    subtree: u32,
    node: u32,
    queues: &[Mutex<LeafQueue>],
    push_counter: &AtomicUsize,
) {
    let slot = push_counter.fetch_add(1, Ordering::Relaxed) % queues.len();
    queues[slot].lock().push(Reverse(QueueEntry { lbd, subtree, node }));
}
