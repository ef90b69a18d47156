//! N-way index sharding: row-partitioned shards, per-shard pools, and a
//! zero-allocation top-k merge.
//!
//! A [`ShardedIndex`] owns `N` independently built [`Index`]es over
//! consecutive row ranges of one logical dataset. A query fans out to
//! every shard in parallel (each shard runs on its own
//! [`ExecPool`], so one logical index spans cores or — eventually —
//! sockets), and the per-shard top-k lists merge through one reusable
//! [`KnnSet`]: shard-local row ids are rebased to global ids as they are
//! offered, and the set's `(dist_sq, row)` total order makes the merged
//! answer **bit-identical** to an unsharded index over the same rows —
//! z-normalization is per-row, distances are per-row, and ties resolve
//! by global row id on both paths.
//!
//! Sharding does not lift the `u32` row-id limit: merged answers carry
//! global `u32` ids, so [`ShardedIndex::new`] returns
//! [`IndexError::TooManyRows`] once the shards' combined row count
//! exceeds `u32::MAX`.
//!
//! A shard that panics fails its tick like any executor panic: the
//! fan-out re-raises it once every lane has finished, and behind a
//! [`crate::Server`] the tick's containment and solo retry handle it.
//! A query only reads the shards, so no shard needs fencing off after.

use crate::{CancelToken, ResultSlot};
use sofa_exec::sync::lock;
use sofa_index::{
    validate_batch, ExecPool, Index, IndexError, KnnSet, Neighbor, QueryKind, RowFilter,
};
use sofa_summaries::Summarization;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Reusable merge state: per-shard, per-slot result buffers plus the
/// top-k set. Warm ticks reuse every buffer in here.
struct MergeScratch {
    /// `shard_outs[s][slot]` holds shard `s`'s answer for tick slot
    /// `slot`; grown on demand, never shrunk.
    shard_outs: Vec<Vec<ResultSlot>>,
    set: KnnSet,
}

/// `N` row-partitioned [`Index`] shards serving as one logical index.
///
/// Build each shard over its own row range (in global row order — shard
/// 0 holds rows `[0, n_0)`, shard 1 rows `[n_0, n_0 + n_1)`, …), then
/// assemble with [`ShardedIndex::new`]. The `sofa` facade's
/// `build_*_sharded` builders do the partitioning for you.
pub struct ShardedIndex<S: Summarization> {
    shards: Vec<Index<S>>,
    /// Global row id of each shard's row 0 (cumulative row counts).
    bases: Vec<u32>,
    /// Fan-out pool of `min(shards, available parallelism)` lanes: each
    /// lane claims shards off a shared counter and drives each claimed
    /// shard's own pool.
    fan: ExecPool,
    series_len: usize,
    n_series: usize,
    /// Logical queries answered. Each *shard*'s
    /// [`sofa_index::IndexStats::queries_served`] also counts every
    /// logical query (each query visits every shard), so shard counters
    /// measure per-shard work while this field is the
    /// one-count-per-query figure comparable to an unsharded index.
    queries_served: AtomicU64,
    merge: Mutex<MergeScratch>,
}

impl<S: Summarization> ShardedIndex<S> {
    /// Assembles shards (ordered by global row range) into one logical
    /// index, with a fresh fan-out pool of one lane per shard, capped at
    /// the machine's available parallelism (so the shard count never
    /// decides how many threads are spawned).
    ///
    /// # Errors
    /// [`IndexError::BadDataset`] if `shards` is empty or the series
    /// lengths disagree; [`IndexError::TooManyRows`] if the combined
    /// row count exceeds the `u32` id space.
    pub fn new(shards: Vec<Index<S>>) -> Result<Self, IndexError> {
        if shards.is_empty() {
            return Err(IndexError::BadDataset("a sharded index needs at least one shard".into()));
        }
        let series_len = shards[0].series_len();
        if shards.iter().any(|s| s.series_len() != series_len) {
            return Err(IndexError::BadDataset(format!(
                "shard series lengths disagree: {:?}",
                shards.iter().map(Index::series_len).collect::<Vec<_>>()
            )));
        }
        let n_series: usize = shards.iter().map(Index::n_series).sum();
        if u32::try_from(n_series).is_err() {
            return Err(IndexError::TooManyRows { rows: n_series });
        }
        let mut bases = Vec::with_capacity(shards.len());
        let mut base = 0u32;
        for shard in &shards {
            bases.push(base);
            base += shard.n_series() as u32;
        }
        let merge = MergeScratch {
            shard_outs: (0..shards.len()).map(|_| Vec::new()).collect(),
            set: KnnSet::new(1),
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(ShardedIndex {
            fan: ExecPool::new(shards.len().min(cores)),
            shards,
            bases,
            series_len,
            n_series,
            queries_served: AtomicU64::new(0),
            merge: Mutex::new(merge),
        })
    }

    /// Length of every indexed series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Total number of indexed series across all shards.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.n_series
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in global row order.
    #[must_use]
    pub fn shards(&self) -> &[Index<S>] {
        &self.shards
    }

    /// Logical queries answered by this sharded index — one count per
    /// query, the figure comparable to an unsharded
    /// [`sofa_index::IndexStats::queries_served`]. (Each shard's own
    /// counter also advances once per logical query, measuring
    /// per-shard work.)
    #[must_use]
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Answers a single query of any [`QueryKind`] across all shards,
    /// bit-identical to an unsharded index over the same rows, with
    /// global row ids. Results use the funnel encoding of [`QueryKind`]
    /// (an `Ip` answer carries scores `2n - q·x` in `dist_sq`, ascending
    /// score = best first; convert with
    /// [`sofa_summaries::ip_from_score`]). A `KnnFiltered` kind takes a
    /// filter over *global* row ids; each shard sees its rebased slice.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] when [`QueryKind::validate`]
    /// rejects the query.
    ///
    /// # Panics
    /// If a shard panics (see [`ShardedIndex::query_tick_cancel`]).
    pub fn query(&self, query: &[f32], kind: QueryKind) -> Result<Vec<Neighbor>, IndexError> {
        let slot = [ResultSlot::new(Vec::new())];
        self.query_tick_cancel(query, std::slice::from_ref(&kind), &slot, &[])?;
        let [slot] = slot;
        Ok(slot.into_inner())
    }

    /// Answers one mixed-kind tick of queries (row-major, kind
    /// `kinds[i]` for query `i`) into `outs[i]` (cleared first, best
    /// first, global row ids) — the [`crate::TickExec`] entry point,
    /// shaped for the coalescer. The fan-out pool's lanes claim shards
    /// off a shared counter, each claimed shard's batch engine running
    /// over the whole tick; per-slot merging is then kind-aware:
    ///
    /// * k-NN, filtered k-NN and inner-product slots merge through the
    ///   reusable [`KnnSet`] with shard rows rebased to global ids (an
    ///   IP score rides in `dist_sq` and merges by the same
    ///   ascending-best order).
    /// * Range slots concatenate every shard's hits, rebase,
    ///   and sort by `(dist_sq, row)` — identical to an unsharded range
    ///   sweep.
    ///
    /// Global [`RowFilter`]s are re-sliced per shard before fan-out, so
    /// each shard validates and applies a filter over exactly its own
    /// rows.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] when
    /// [`sofa_index::validate_batch`] rejects the tick (filters are
    /// checked against the global row count; each shard re-checks its
    /// rebased slice).
    ///
    /// # Panics
    /// Re-raises a shard's panic once every fan-out lane has finished;
    /// behind a [`crate::Server`] the panic is contained per tick.
    pub fn query_tick_cancel(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        cancels: &[CancelToken],
    ) -> Result<(), IndexError> {
        validate_batch(queries, kinds, outs.len(), cancels.len(), self.series_len, self.n_series)?;
        let m = kinds.len();
        if m == 0 {
            return Ok(());
        }
        // A global row filter must become shard-local before fan-out:
        // each shard validates filters against its own row count and
        // its funnel tests shard-local row ids.
        let needs_rebase = kinds.iter().any(|k| matches!(k, QueryKind::KnnFiltered { .. }));
        let shard_kinds: Vec<Vec<QueryKind>> = if needs_rebase {
            self.bases
                .iter()
                .zip(&self.shards)
                .map(|(&base, shard)| {
                    kinds
                        .iter()
                        .map(|kind| match kind {
                            QueryKind::KnnFiltered { k, filter } => QueryKind::KnnFiltered {
                                k: *k,
                                filter: Arc::new(RowFilter::from_fn(shard.n_series(), |r| {
                                    filter.admits(base as usize + r)
                                })),
                            },
                            other => other.clone(),
                        })
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut guard = lock(&self.merge);
        let MergeScratch { shard_outs, set } = &mut *guard;
        for per_shard in shard_outs.iter_mut() {
            while per_shard.len() < m {
                per_shard.push(ResultSlot::new(Vec::new()));
            }
        }
        let shard_outs: &[Vec<ResultSlot>] = shard_outs;
        let shards = &self.shards;
        let shard_kinds = &shard_kinds;
        let next_shard = AtomicUsize::new(0);
        self.fan.broadcast(|_| loop {
            let s = next_shard.fetch_add(1, Ordering::Relaxed);
            if s >= shards.len() {
                break;
            }
            let kinds_for_s: &[QueryKind] = if needs_rebase { &shard_kinds[s] } else { kinds };
            shards[s]
                .query_batch_into_cancel(queries, kinds_for_s, &shard_outs[s][..m], cancels)
                .expect("tick inputs were validated");
        });
        let mut answered = 0u64;
        for (slot, kind) in kinds.iter().enumerate().take(m) {
            // A fired token means some shard may have abandoned this
            // query — its slots are unwritten or stale. Leave the
            // output untouched; the caller sees the latched token.
            if cancels.get(slot).is_some_and(CancelToken::is_cancelled_now) {
                continue;
            }
            match kind {
                QueryKind::Knn { k } | QueryKind::KnnFiltered { k, .. } | QueryKind::Ip { k } => {
                    // No merged answer holds more than every shard's rows.
                    set.reset((*k).min(self.n_series).max(1));
                    for (per_shard, &base) in shard_outs.iter().zip(&self.bases) {
                        for nb in per_shard[slot].lock().iter() {
                            set.offer(Neighbor { row: nb.row + base, dist_sq: nb.dist_sq });
                        }
                    }
                    let mut out = outs[slot].lock();
                    out.clear();
                    set.drain_sorted_into(&mut out);
                }
                QueryKind::Range { .. } => {
                    let mut out = outs[slot].lock();
                    out.clear();
                    for (per_shard, &base) in shard_outs.iter().zip(&self.bases) {
                        out.extend(
                            per_shard[slot]
                                .lock()
                                .iter()
                                .map(|nb| Neighbor { row: nb.row + base, dist_sq: nb.dist_sq }),
                        );
                    }
                    out.sort_unstable();
                }
            }
            answered += 1;
        }
        self.queries_served.fetch_add(answered, Ordering::Relaxed);
        Ok(())
    }
}

impl<S: Summarization> std::fmt::Debug for ShardedIndex<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("n_series", &self.n_series)
            .field("series_len", &self.series_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_index::IndexConfig;
    use sofa_summaries::{ISax, SaxConfig};

    const LEN: usize = 16;

    fn dataset(rows: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut out = Vec::with_capacity(rows * LEN);
        for _ in 0..rows * LEN {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            out.push(((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5);
        }
        out
    }

    fn build(data: &[f32], threads: usize) -> Index<ISax> {
        let pool = ExecPool::shared(threads);
        let mut data = data.to_vec();
        sofa_index::znormalize_rows(&mut data, LEN, &pool);
        let sax = ISax::new(LEN, &SaxConfig { word_len: 8, alphabet: 16 });
        let cfg = IndexConfig::with_threads(threads).leaf_capacity(16);
        Index::build_with_pool(sax, data, cfg, pool).expect("build shard")
    }

    fn sharded(data: &[f32], n_shards: usize, threads: usize) -> ShardedIndex<ISax> {
        let rows = data.len() / LEN;
        let per = rows.div_ceil(n_shards);
        let shards: Vec<Index<ISax>> = (0..n_shards)
            .map(|s| {
                let lo = (s * per).min(rows) * LEN;
                let hi = ((s + 1) * per).min(rows) * LEN;
                build(&data[lo..hi], threads)
            })
            .collect();
        ShardedIndex::new(shards).expect("assemble shards")
    }

    #[test]
    fn sharded_knn_is_bit_identical_to_unsharded() {
        let data = dataset(300, 7);
        let whole = build(&data, 2);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for n_shards in [1, 2, 3, 8] {
            let parts = sharded(&data, n_shards, 1);
            assert_eq!(parts.n_series(), 300);
            assert_eq!(parts.n_shards(), n_shards);
            // More shards than cores share the cores' lanes.
            assert_eq!(parts.fan.threads(), n_shards.min(cores));
            for qi in (0..300).step_by(29) {
                let q = &data[qi * LEN..(qi + 1) * LEN];
                for k in [1, 5] {
                    assert_eq!(
                        parts.query(q, QueryKind::Knn { k }).unwrap(),
                        whole.knn(q, k).unwrap(),
                        "query row {qi}, k {k}, {n_shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn tick_answers_match_per_query_answers() {
        let data = dataset(200, 11);
        let parts = sharded(&data, 2, 1);
        let queries: Vec<f32> = data[..4 * LEN].to_vec();
        let ks = [1usize, 3, 5, 2];
        let kinds: Vec<QueryKind> = ks.iter().map(|&k| QueryKind::Knn { k }).collect();
        let outs: Vec<ResultSlot> = (0..4).map(|_| ResultSlot::new(Vec::new())).collect();
        parts.query_tick_cancel(&queries, &kinds, &outs, &[]).unwrap();
        for (slot, &k) in ks.iter().enumerate() {
            let q = &queries[slot * LEN..(slot + 1) * LEN];
            assert_eq!(
                *outs[slot].lock(),
                parts.query(q, QueryKind::Knn { k }).unwrap(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn one_logical_query_counts_once() {
        let data = dataset(120, 3);
        let parts = sharded(&data, 3, 1);
        let q = &data[..LEN];
        parts.query(q, QueryKind::Knn { k: 2 }).unwrap();
        let outs: Vec<ResultSlot> = (0..2).map(|_| ResultSlot::new(Vec::new())).collect();
        let kinds = [QueryKind::Knn { k: 1 }, QueryKind::Knn { k: 1 }];
        parts.query_tick_cancel(&data[..2 * LEN], &kinds, &outs, &[]).unwrap();
        // 3 logical queries total; each shard also saw each of them once.
        assert_eq!(parts.queries_served(), 3);
        for stats in parts.shards().iter().map(Index::stats) {
            assert_eq!(stats.queries_served, 3);
        }
    }

    #[test]
    fn assembly_and_tick_validation_errors() {
        assert!(matches!(ShardedIndex::<ISax>::new(Vec::new()), Err(IndexError::BadDataset(_))));
        let data = dataset(100, 5);
        let parts = sharded(&data, 2, 1);
        assert!(matches!(
            parts.query(&data[..LEN - 1], QueryKind::Knn { k: 1 }),
            Err(IndexError::BadQuery(_))
        ));
        assert!(matches!(
            parts.query(&data[..LEN], QueryKind::Knn { k: 0 }),
            Err(IndexError::BadQuery(_))
        ));
        let outs: Vec<ResultSlot> = (0..1).map(|_| ResultSlot::new(Vec::new())).collect();
        assert!(matches!(
            parts.query_tick_cancel(&data[..2 * LEN], &[QueryKind::Knn { k: 1 }], &outs, &[]),
            Err(IndexError::BadQuery(_))
        ));
    }
}
