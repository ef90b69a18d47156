//! Exact query answering (paper §IV-C, Figure 5 stage 2).
//!
//! The three GEMINI phases — home-leaf seed, parallel collect, parallel
//! refine — are documented on the crate root. One leaf-scoring routine,
//! `Index::refine_leaf`, scores every leaf a query reads: the seed runs
//! it on the query's home leaf, collect skips that leaf, and refine runs
//! it on every leaf collect queued. All pruning decisions flow
//! through one crate-private `PruneBound` policy object: the
//! same funnel answers **k-NN** (shrinking k-th-best bound), **range**
//! (fixed epsilon radius, strict pruning, ties at the radius kept), and
//! **max-inner-product** (the Parseval score-to-L2-radius conversion),
//! each exactly. Every surviving candidate pays a SIMD lower-bound check
//! before its exact score is computed, both early-abandoned against the
//! policy's squared-L2 threshold.
//!
//! Filtered queries thread a [`RowFilter`] predicate *into* the funnel:
//! every leaf sweep, the seed's included, ANDs the per-group live mask
//! into the SIMD kernels ([`lut_lower_bound`] /
//! [`quant_lower_bound_masked`]), where dead lanes price as `+inf` and
//! accelerate whole-group abandons. A rejected row is never scored, so
//! the bound never tightens on an inadmissible row (a correctness
//! requirement, not an optimization). Live lanes stay bit-identical to
//! the unfiltered sweep across every kernel tier.
//!
//! The funnel narrows in four bounds, each tighter and costlier than the
//! one before:
//!
//! 1. **Root gate** (collect): one [`RootLbd`] XOR evaluation per subtree
//!    prices the half-lines its root key pins — a few bit operations, run
//!    on every subtree of every query.
//! 2. **Node envelope** (collect): behind a passing gate, a DFS from the
//!    subtree root prices every node it reaches by its
//!    [`crate::SymbolEnvelope`], the per-position min/max symbols of the
//!    rows below it ([`QueryContext::envelope_mindist`], one pass over
//!    `word_len` positions). A node is pruned on that bound, with
//!    everything below it; a leaf that survives is queued under it, so
//!    queues also abandon on it. On a subtree that never split, the DFS
//!    prices its one leaf.
//! 3. **Word bound** (refine): each queued leaf's candidates are priced
//!    8 at a time by [`lut_lower_bound`]: the query's symbol table (built
//!    once per query) indexed by the candidates' words, read straight
//!    from the word arena — or, for rows in the leaf's tail, staged on
//!    the stack.
//! 4. **Quantized bound** (refine): near-full surviving groups of the
//!    packed run are re-priced from 1-byte codes before the exact `f32`
//!    scan.
//!
//! The envelope bound is `>=` the root gate and `<=` every member row's
//! word bound in `f32` (same operations, wider interval), so it prunes
//! only nodes the word bound would empty, and answers are unchanged.
//!
//! Every query takes one path: collect and refine each run as one
//! [`sofa_exec::ExecPool::broadcast_limit`] over the query's lanes —
//! every pool lane for a direct call or a batch of one, a single lane
//! (a plain call) for each member of a larger batch, whose lanes split
//! the queries instead. Every per-query buffer — context values, query
//! word, symbol table, queues, k-NN heap, range hit list, DFS stacks —
//! comes from a pooled crate-private query scratch, so a warm query
//! performs zero heap allocations on any lane count and
//! [`Index::knn_batch`] lanes reuse one scratch per lane across the
//! whole mini-batch.

use crate::bsf::{IpNeighbor, Neighbor};
use crate::filter::RowFilter;
use crate::node::{root_key, NodeKind, Subtree, MAX_WORD_LEN};
use crate::prune::{IpBound, KnnBound, PruneBound, RangeBound};
use crate::scratch::{LeafQueue, QueryScratch, QueueEntry};
use crate::{Index, IndexError};
use parking_lot::Mutex;
use sofa_exec::CancelToken;
use sofa_simd::{dot, znormalize};
use sofa_simd::{lut_lower_bound, quant_lower_bound, quant_lower_bound_masked, BLOCK_LANES};
use sofa_summaries::{QueryContext, RootLbd, Summarization};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
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
/// container). Re-measured on `perfbench` at leaf capacity 500: a gate
/// of 3 saves CPU on the 256-value workloads but costs the smooth
/// 96-value one, whose rows sit in L3 and scan cheaply, so it stays 6.
const QUANT_MIN_SURVIVORS: usize = 6;

/// Subtrees a collect lane claims per step of the shared counter. One
/// atomic per chunk rather than per subtree keeps a one-lane query's
/// collect as cheap as a plain loop (about 40 atomics on a forest of
/// 2.5k subtrees), and lanes still balance over the many chunks such a
/// forest holds.
const COLLECT_CHUNK: usize = 64;

/// Counters describing how much work one query performed — the raw
/// material for the paper's pruning-power discussion (§V-E).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Leaves the query took up for refining: the seeded home leaf, plus
    /// the leaves pushed into the priority queues (those whose envelope
    /// bound the policy did not prune at collect time).
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
    /// Per-series exact evaluations (survived the LBD), the home leaf's
    /// seed scans included.
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
    /// Estimated bytes the leaf sweeps read, the home leaf's seed
    /// included: words swept + quant codes swept + exact rows scanned.
    /// The funnel's bandwidth metric.
    pub refine_bytes: usize,
    /// 1 if this query was abandoned by cooperative cancellation (its
    /// deadline expired or it was shed mid-flight). A cancelled query
    /// produced **no** answer — the other counters describe the partial
    /// work it burned before the checkpoint fired — and it is counted in
    /// [`crate::IndexStats::queries_cancelled`], not `queries_served`.
    pub cancelled: usize,
}

impl QueryStats {
    /// Adds `other`'s work into `self`: each lane counts one phase in its
    /// own `QueryStats` and adds it into the query's total once.
    pub(crate) fn add(&mut self, other: &QueryStats) {
        self.leaves_collected += other.leaves_collected;
        self.leaves_refined += other.leaves_refined;
        self.nodes_pruned += other.nodes_pruned;
        self.series_lbd_checked += other.series_lbd_checked;
        self.series_refined += other.series_refined;
        self.queues_abandoned += other.queues_abandoned;
        self.block_groups_swept += other.block_groups_swept;
        self.block_lanes_abandoned += other.block_lanes_abandoned;
        self.quant_groups_swept += other.quant_groups_swept;
        self.quant_lanes_killed += other.quant_lanes_killed;
        self.predicate_lanes_masked += other.predicate_lanes_masked;
        self.range_hits += other.range_hits;
        self.refine_bytes += other.refine_bytes;
        self.cancelled += other.cancelled;
    }
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
    /// hold `series_len` finite values, `k` must be at least 1, a radius
    /// finite and non-negative, and a filter must cover exactly `n_rows`
    /// rows (checked when the row count is known). A NaN or infinite
    /// value would otherwise z-normalize to an all-zero query and be
    /// answered as the constant query.
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
        if let Some(i) = query.iter().position(|v| !v.is_finite()) {
            return bad(format!("query value {i} is {}, not finite", query[i]));
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

    /// The `k` the scratch's result set is armed with: at most the
    /// `rows` the index holds, since no answer holds more and the set
    /// reserves room for `k` (range queries don't use the k-NN set; 1
    /// keeps the reset cheap).
    fn set_k(&self, rows: usize) -> usize {
        match self {
            QueryKind::Knn { k } | QueryKind::KnnFiltered { k, .. } | QueryKind::Ip { k } => {
                (*k).min(rows).max(1)
            }
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
        let stats = self.query_on_scratch(&mut scratch, query, kind, None, self.pool.threads());
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
    /// across the worker pool and each runs the same per-query funnel
    /// as [`Index::query_into`] on the one lane that claimed it, so a
    /// batch keeps every lane busy with zero intra-query synchronization
    /// (the FAISS mini-batch model the paper uses for its flat
    /// competitor, applied to the tree). A batch of `m` queries runs on
    /// `min(m, threads())` pool lanes, each lane reusing one pooled
    /// scratch for every query it claims, so a warm batch allocates
    /// nothing; a batch of one runs on every lane, as a direct call
    /// does. This is the engine behind micro-batching front-ends.
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

    /// Validated batch execution: pool lanes claim queries off an atomic
    /// counter, one pooled scratch per lane for the whole batch. A lone
    /// query runs on every pool lane; in a larger batch each query runs on
    /// the one lane that claimed it.
    fn batch_dispatch(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[Mutex<Vec<Neighbor>>],
        cancels: &[CancelToken],
    ) {
        let (n, n_queries) = (self.series_len, outs.len());
        let lanes = if n_queries == 1 { self.pool.threads() } else { 1 };
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
                let query = &queries[i * n..(i + 1) * n];
                let stats =
                    self.query_on_scratch(&mut scratch, query, &kinds[i], cancels.get(i), lanes);
                // A cancelled query leaves its slot untouched: the caller
                // treats it as unanswered.
                if stats.cancelled == 0 {
                    drain_results(&mut scratch, &kinds[i], &mut outs[i].lock());
                }
            }
        });
    }

    /// Normalizes `query` into the scratch and answers it as `kind` on
    /// `lanes` pool lanes, then records it in the index-lifetime
    /// counters. The results are left in the scratch (`knn` or `range`
    /// per the kind); if `cancel` fired the returned stats have
    /// `cancelled == 1` and the scratch contents must be discarded.
    fn query_on_scratch(
        &self,
        scratch: &mut QueryScratch,
        query: &[f32],
        kind: &QueryKind,
        cancel: Option<&CancelToken>,
        lanes: usize,
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        // A query expired before any work skips even the transform.
        if !fired(cancel) {
            self.prepare_scratch(scratch, query, kind.set_k(self.n_series()));
            let s: &QueryScratch = scratch;
            let ctx = QueryContext::borrowed(&self.query_env, &s.values);
            let knn = KnnBound { set: &s.knn };
            stats = match kind {
                QueryKind::Knn { .. } => self.drive(s, &ctx, &knn, None, lanes, cancel),
                QueryKind::KnnFiltered { filter, .. } => {
                    self.drive(s, &ctx, &knn, Some(filter), lanes, cancel)
                }
                QueryKind::Range { r_sq } => {
                    let pb = RangeBound { r_sq: *r_sq, hits: &s.range };
                    self.drive(s, &ctx, &pb, None, lanes, cancel)
                }
                QueryKind::Ip { .. } => {
                    let pb = IpBound { set: &s.knn, n: self.series_len };
                    self.drive(s, &ctx, &pb, None, lanes, cancel)
                }
            };
        }
        // One cancellation verdict decides both the answer and the audit:
        // an abandoned query keeps the partial work it burned in its
        // counters but reports no hits.
        stats.cancelled = usize::from(fired(cancel));
        if stats.cancelled == 0 && matches!(kind, QueryKind::Range { .. }) {
            stats.range_hits = scratch.range.get_mut().len();
        }
        self.counters.record(&stats);
        stats
    }

    /// Runs the three funnel phases under one [`PruneBound`] policy on
    /// `lanes` pool lanes: the seed refines the query's home leaf on the
    /// calling thread, then collect (lanes claim subtrees,
    /// [`COLLECT_CHUNK`] at a time, skipping the home leaf), then refine
    /// (each lane drains the queues from its own). Every leaf is scored
    /// by [`Index::refine_leaf`] exactly once, so a range query's hit
    /// list sees each row once. Each lane counts its work in its own
    /// [`QueryStats`] and adds it into the returned total once per phase.
    /// On one lane each phase is a plain call.
    fn drive<B: PruneBound>(
        &self,
        s: &QueryScratch,
        ctx: &QueryContext<'_>,
        pb: &B,
        filter: Option<&RowFilter>,
        lanes: usize,
        cancel: Option<&CancelToken>,
    ) -> QueryStats {
        // --- Phase 1: the home leaf seeds the bound (a k-NN or IP set
        // then holds the home leaf's exact top k; a range radius is
        // fixed, and its hits there are simply the first ones found).
        let home = self.home_leaf(&s.qword, ctx, &s.root_lbd);
        let mut seed = QueryStats { leaves_collected: 1, ..QueryStats::default() };
        let mut quant = QuantScratch::new();
        self.refine_leaf(home, &s.q, &s.lut, pb, filter, &mut seed, &mut quant, cancel);
        let total = Mutex::new(seed);

        // --- Phase 2: collect unpruned leaves into priority queues.
        let (next_chunk, push_counter) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let n_subtrees = self.subtrees.len();
        self.pool.broadcast_limit(lanes, |lane| {
            let mut stats = QueryStats::default();
            let mut stack = s.lanes[lane].lock();
            'claim: loop {
                let first = next_chunk.fetch_add(COLLECT_CHUNK, Ordering::Relaxed);
                if first >= n_subtrees {
                    break;
                }
                for i in first..(first + COLLECT_CHUNK).min(n_subtrees) {
                    if fired(cancel) {
                        break 'claim;
                    }
                    debug_assert!(i <= u32::MAX as usize, "subtree index exceeds u32");
                    self.collect_subtree(
                        &self.subtrees[i],
                        i as u32,
                        ctx,
                        &s.root_lbd,
                        pb,
                        &home,
                        &s.queues,
                        &push_counter,
                        &mut stack,
                        &mut stats,
                        cancel,
                    );
                }
            }
            total.lock().add(&stats);
        });

        // --- Phase 3: refine from the queues, one lane per worker slot.
        if !fired(cancel) {
            self.pool.broadcast_limit(lanes, |lane| {
                let mut stats = QueryStats::default();
                self.refine_from_queues(lane, s, pb, filter, &mut stats, cancel);
                total.lock().add(&stats);
            });
        }
        total.into_inner()
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

    /// Approximate 1-NN only (the paper's "Approximate Search" stage used
    /// on its own): descend to the query's home leaf and return the best
    /// real distance there, found by the same leaf sweep that seeds
    /// every exact query. The answer is not guaranteed exact.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] on a length mismatch.
    pub fn approximate_nn(&self, query: &[f32]) -> Result<Neighbor, IndexError> {
        QueryKind::Knn { k: 1 }.validate(query, self.series_len, None)?;
        let mut scratch = self.scratch();
        self.prepare_scratch(&mut scratch, query, 1);
        let s: &QueryScratch = &scratch;
        let ctx = QueryContext::borrowed(&self.query_env, &s.values);
        let home = self.home_leaf(&s.qword, &ctx, &s.root_lbd);
        let pb = KnnBound { set: &s.knn };
        let (mut stats, mut quant) = (QueryStats::default(), QuantScratch::new());
        self.refine_leaf(home, &s.q, &s.lut, &pb, None, &mut stats, &mut quant, None);
        s.knn.sorted().first().copied().ok_or_else(|| IndexError::BadQuery("index is empty".into()))
    }

    /// The query's home leaf (paper §IV-C's approximate search): the
    /// leaf whose series seed the bound before collect.
    ///
    /// The query's home subtree (exact root-key match) is tried first; the
    /// descent then follows the child with the smaller envelope bound,
    /// which is robust even when individual word bits of the query are
    /// noisy. When no subtree matches the key, the subtree whose root key
    /// has the smallest bound is used instead — evaluated through the
    /// precomputed [`RootLbd`] table, once per subtree. The entry is
    /// never queued, so its `lbd` is the trivial bound 0.
    fn home_leaf(&self, qword: &[u8], ctx: &QueryContext<'_>, root_lbd: &RootLbd) -> QueueEntry {
        let key = root_key(qword, self.summarization.symbol_bits());
        let subtree = match self.subtrees.binary_search_by_key(&key, |s| s.key) {
            Ok(i) => i,
            Err(_) => {
                let mut best = (f32::INFINITY, 0);
                for (i, st) in self.subtrees.iter().enumerate() {
                    let d = root_lbd.eval(st.key);
                    if d < best.0 {
                        best = (d, i);
                    }
                }
                best.1
            }
        };
        let nodes = &self.subtrees[subtree].nodes;
        let price = |id: u32| {
            let envelope = &nodes[id as usize].envelope;
            ctx.envelope_mindist(envelope.min(), envelope.max())
        };
        let mut node = 0;
        while let NodeKind::Inner { left, right, .. } = &nodes[node as usize].kind {
            node = if price(*left) <= price(*right) { *left } else { *right };
        }
        QueueEntry { lbd: 0.0, subtree: subtree as u32, node }
    }

    /// Prices one subtree against the bound and pushes its surviving
    /// leaves into the queues. One [`RootLbd`] XOR evaluation gates the
    /// whole subtree; behind the gate, a DFS from the root prices every
    /// node it reaches by its [`crate::SymbolEnvelope`]
    /// ([`QueryContext::envelope_mindist`]). A pruned node prunes
    /// everything below it (a child's envelope nests inside its
    /// parent's); a surviving leaf is queued under its bound.
    ///
    /// The envelope bound is `>=` the root gate (every symbol below a
    /// subtree sits in its key's half-lines) and `<=` every row's
    /// symbol-table sum in `f32` (same operations, wider interval), so it
    /// prunes only nodes whose every row the refine sweep would prune,
    /// and answers are unchanged.
    ///
    /// Collect is filter-agnostic: the bounds hold for every row under a
    /// node, admitted or not, so pruning decisions are unchanged and the
    /// predicate is applied at refine granularity. The `home` leaf is
    /// skipped unpriced: the seed has already refined it.
    #[allow(clippy::too_many_arguments)]
    fn collect_subtree<B: PruneBound>(
        &self,
        subtree: &Subtree,
        subtree_idx: u32,
        ctx: &QueryContext<'_>,
        root_lbd: &RootLbd,
        pb: &B,
        home: &QueueEntry,
        queues: &[Mutex<LeafQueue>],
        push_counter: &AtomicUsize,
        stack: &mut Vec<u32>,
        stats: &mut QueryStats,
        cancel: Option<&CancelToken>,
    ) {
        // The precomputed XOR-penalty evaluation prices the whole subtree
        // from its key in a few bit operations (this gate runs for every
        // subtree of every query).
        if pb.prunes(root_lbd.eval(subtree.key)) {
            stats.nodes_pruned += 1;
            return;
        }
        stack.clear();
        stack.push(0);
        while let Some(id) = stack.pop() {
            if fired(cancel) {
                return;
            }
            if subtree_idx == home.subtree && id == home.node {
                continue; // the seed refined it
            }
            let node = &subtree.nodes[id as usize];
            let lbd = ctx.envelope_mindist(node.envelope.min(), node.envelope.max());
            if pb.prunes(lbd) {
                stats.nodes_pruned += 1;
                continue;
            }
            match &node.kind {
                NodeKind::Leaf { .. } => {
                    push_leaf(lbd, subtree_idx, id, queues, push_counter);
                    stats.leaves_collected += 1;
                }
                NodeKind::Inner { left, right, .. } => {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
        }
    }

    /// Drains queues starting at `worker`'s own queue: pop the minimum
    /// leaf, abandon the whole queue once its minimum is pruned by the
    /// policy, otherwise refine the leaf's series.
    fn refine_from_queues<B: PruneBound>(
        &self,
        worker: usize,
        s: &QueryScratch,
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &mut QueryStats,
        cancel: Option<&CancelToken>,
    ) {
        let (queues, done, nq) = (&s.queues, &s.done, s.queues.len());
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
                    stats.queues_abandoned += 1;
                    continue;
                }
                self.refine_leaf(entry, &s.q, &s.lut, pb, filter, stats, &mut quant, cancel);
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

    /// Evaluates every series in a leaf — a three-stage funnel over 8-lane
    /// groups. The word lower bound prices 8 lanes per call from the
    /// query's symbol table `lut`, indexed by the lanes' words; word
    /// survivors are re-priced by the scalar-quantized tier (one integer
    /// sweep over 1-byte codes, ~4x less traffic than the raw series);
    /// only lanes both tiers fail to kill pay the exact `f32` scan. Both
    /// cheap tiers are conservative lower bounds, so the funnel never
    /// changes results — only how much memory they cost.
    ///
    /// A group inside the leaf's packed run reads its words in place from
    /// the word arena and may take the quantized tier. A group that
    /// reaches past the run (the leaf's last, partial group, or one into
    /// its tail of inserted rows) has its words staged on the stack
    /// through `row_to_slot`, padded by repeating its last real word, and
    /// priced by the same kernel; tail rows have no codes, so those
    /// survivors go straight to the exact scan.
    ///
    /// With a [`RowFilter`], each group's live mask pre-ANDs the
    /// predicate into the sweep: a fully rejected group skips every
    /// kernel, a partially rejected one masks its dead lanes in both
    /// kernels (they price `+inf`/auto-resolve, accelerating whole-group
    /// abandons), and a fully admitted one prices exactly as unfiltered.
    #[allow(clippy::too_many_arguments)]
    fn refine_leaf<B: PruneBound>(
        &self,
        entry: QueueEntry,
        q: &[f32],
        lut: &[f32],
        pb: &B,
        filter: Option<&RowFilter>,
        stats: &mut QueryStats,
        qscratch: &mut QuantScratch,
        cancel: Option<&CancelToken>,
    ) {
        // Chaos hook: `ext-chaos` arms this to panic or stall inside the
        // refine funnel, underneath every batching/serving layer.
        let _ = sofa_exec::failpoint::fire("sofa-index::refine_leaf");
        let subtree = &self.subtrees[entry.subtree as usize];
        let NodeKind::Leaf { rows, pack, .. } = &subtree.nodes[entry.node as usize].kind else {
            unreachable!("queues only hold leaves")
        };
        stats.leaves_refined += 1;
        let (start, packed) = (pack.start as usize, pack.len as usize);
        // Storage slot of the leaf's `r`-th row: in place within its
        // packed run, through `row_to_slot` in its tail.
        let slot_of = |r: usize| {
            if r < packed {
                start + r
            } else {
                self.row_to_slot[rows[r] as usize] as usize
            }
        };
        let n = self.series_len;
        let l = self.word_len;
        let n_rows = rows.len();
        let n_groups = n_rows.div_ceil(BLOCK_LANES);
        let mut staged = [0u8; BLOCK_LANES * MAX_WORD_LEN];
        let quant = self.quant_grid.as_ref().zip(pack.quant.as_ref());
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
            let first = g * BLOCK_LANES;
            let lanes = (n_rows - first).min(BLOCK_LANES);
            // Predicate mask: bit `i` lives iff the filter admits lane
            // `i`'s row. Pad lanes past `lanes` never get a bit, so a
            // bitmap that ends mid-group can't admit a phantom row (the
            // unfiltered path ignores pads via `take(lanes)`).
            let (live, masked) = match filter {
                None => (0xFFu8, 0usize),
                Some(f) => {
                    let mut m = 0u8;
                    for (i, &row) in rows[first..first + lanes].iter().enumerate() {
                        if f.admits(row as usize) {
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
            let group_words = if first + BLOCK_LANES <= packed {
                &self.words[(start + first) * l..(start + first + BLOCK_LANES) * l]
            } else {
                for (i, word) in staged[..BLOCK_LANES * l].chunks_exact_mut(l).enumerate() {
                    word.copy_from_slice(self.word_at_slot(slot_of(first + i.min(lanes - 1))));
                }
                &staged[..BLOCK_LANES * l]
            };
            let group_abandoned = lut_lower_bound(lut, group_words, bound, live, &mut lbs);
            if group_abandoned {
                // Every live lane's (partial) sum exceeded the bound: the
                // whole group is pruned in one shot.
                lanes_abandoned += lanes - masked;
                continue;
            }
            // Quantized middle tier, for groups inside the packed run: one
            // integer sweep re-prices the whole group from 1-byte codes
            // before any lane touches the f32 arena. Only engaged when
            // enough lanes survived the word bound: the sweep reads all 8
            // lanes' codes (`8n` bytes, roughly the traffic of two `f32`
            // row scans), so pricing a lone straggler costs more than the
            // one scan it could save. Dead lanes carry `+inf` word bounds,
            // so they never count as survivors.
            let mut quant_priced = false;
            if let Some((grid, qb)) = quant.filter(|_| first + lanes <= packed) {
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
                let r = first + i;
                pb.score_and_offer(q, self.series_at_slot(slot_of(r)), rows[r]);
            }
        }
        // Refine-traffic estimate: words are 8 lanes of `l` bytes per
        // group, quant codes 8 bytes per position per group, exact rows n
        // f32 each.
        let bytes = n_groups * BLOCK_LANES * l + quant_groups * n * BLOCK_LANES + refined * n * 4;
        stats.series_lbd_checked += n_rows - predicate_masked;
        stats.series_refined += refined;
        stats.block_groups_swept += n_groups;
        stats.block_lanes_abandoned += lanes_abandoned;
        stats.quant_groups_swept += quant_groups;
        stats.quant_lanes_killed += quant_killed;
        stats.predicate_lanes_masked += predicate_masked;
        stats.refine_bytes += bytes;
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
