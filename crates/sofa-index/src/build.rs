//! Parallel index construction (paper §IV-G, Figure 5, stage 1).
//!
//! MESSI's build pipeline: raw series are z-normalized and summarized in
//! parallel chunks (each worker owns a disjoint slice of the summary
//! buffer, so no synchronization is needed), rows are grouped by their
//! root key, and the resulting root-child groups are built into subtrees
//! in parallel — each subtree is independent, so workers claim groups off
//! an atomic counter and never contend. Each group starts as one leaf and
//! grows by `Subtree::split_while_overfull`, the routine online inserts
//! also use (iSAX 2.0's balanced splits): a leaf over capacity splits on
//! the position and bit of its symbol envelope that divide its rows most
//! evenly.
//!
//! All parallelism executes on a persistent [`ExecPool`] — one created
//! for the index (sized by `IndexConfig::num_threads`) or shared across
//! indexes via [`Index::build_with_pool`]. Ingest is zero-copy:
//! [`Index::build_owned`] takes ownership of the buffer and normalizes it
//! in place, so even the borrowing [`Index::build`] performs exactly one
//! copy of the dataset.

use crate::arena::Arena;
use crate::config::IndexConfig;
use crate::node::{root_key, NodeKind, Subtree};
use crate::{for_each_chunk, Index, IndexError};
use sofa_exec::ExecPool;
use sofa_simd::znormalize_finite;
use sofa_summaries::Summarization;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

impl<S: Summarization> Index<S> {
    /// Builds an index over `raw_data` (row-major series of the
    /// summarization's length). The data is copied once and z-normalized;
    /// the original buffer is untouched. Prefer [`Index::build_owned`]
    /// when the buffer can be handed over — it avoids even that copy.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] for an empty buffer, one that
    /// is not a whole number of series, or one holding a NaN or ±inf.
    pub fn build(
        summarization: S,
        raw_data: &[f32],
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        Self::build_owned(summarization, raw_data.to_vec(), config)
    }

    /// Zero-copy ingest: builds an index that takes ownership of `data`
    /// and z-normalizes it in place — no duplicate of the dataset is ever
    /// held, halving peak build memory versus copy-based ingest.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] for an empty buffer, one that
    /// is not a whole number of series, or one holding a NaN or ±inf.
    pub fn build_owned(
        summarization: S,
        data: Vec<f32>,
        config: IndexConfig,
    ) -> Result<Self, IndexError> {
        let pool = ExecPool::shared(config.num_threads.max(1));
        Self::build_with_pool(summarization, data, config, pool)
    }

    /// [`Index::build_owned`] on a caller-supplied worker pool, so a
    /// server embedding several indexes can run them all on one set of
    /// threads. The pool's lane count decides the build parallelism
    /// (`config.num_threads` only sizes pools the index creates itself).
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] for an empty buffer, one that
    /// is not a whole number of series, or one holding a NaN or ±inf.
    pub fn build_with_pool(
        summarization: S,
        mut data: Vec<f32>,
        config: IndexConfig,
        pool: Arc<ExecPool>,
    ) -> Result<Self, IndexError> {
        let n = summarization.series_len();
        if n == 0 || data.is_empty() {
            return Err(IndexError::BadDataset("empty dataset".into()));
        }
        if data.len() % n != 0 {
            return Err(IndexError::BadDataset(format!(
                "buffer of {} floats is not a multiple of series length {n}",
                data.len()
            )));
        }
        let n_series = data.len() / n;
        if n_series > u32::MAX as usize {
            // Row ids, storage slots and leaf row lists are all `u32`;
            // past that the silent casts below would truncate.
            return Err(IndexError::TooManyRows { rows: n_series });
        }
        let l = summarization.word_len();
        let symbol_bits = summarization.symbol_bits();
        if l > crate::node::MAX_WORD_LEN {
            return Err(IndexError::BadDataset("word length > 64 unsupported".into()));
        }

        // --- Phase 1: normalize + summarize (parallel, Figure 7 "Transformation").
        let t0 = Instant::now();
        let mut words = vec![0u8; n_series * l];
        let mut keys = vec![0u64; n_series];
        let lanes = pool.threads();
        let rows_per_chunk = n_series.div_ceil(lanes);
        let first_bad = AtomicUsize::new(usize::MAX);
        let chunks = data
            .chunks_mut(rows_per_chunk * n)
            .zip(words.chunks_mut(rows_per_chunk * l))
            .zip(keys.chunks_mut(rows_per_chunk))
            .collect();
        for_each_chunk(&pool, chunks, |c, ((data_chunk, words_chunk), keys_chunk)| {
            let mut transformer = summarization.transformer();
            for (i, ((series, word), key)) in data_chunk
                .chunks_mut(n)
                .zip(words_chunk.chunks_mut(l))
                .zip(keys_chunk.iter_mut())
                .enumerate()
            {
                if !znormalize_finite(series) {
                    first_bad.fetch_min(c * rows_per_chunk + i, Ordering::Relaxed);
                }
                transformer.word_into(series, word);
                *key = root_key(word, symbol_bits);
            }
        });
        let first_bad = first_bad.into_inner();
        if first_bad < n_series {
            return Err(IndexError::BadDataset(format!(
                "row {first_bad} holds a NaN or infinite value"
            )));
        }
        let transform_secs = t0.elapsed().as_secs_f64();

        // --- Phase 2: group rows by root key.
        let t1 = Instant::now();
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for (row, &key) in keys.iter().enumerate() {
            // Lossless: row < n_series, checked against u32::MAX above.
            groups.entry(key).or_default().push(row as u32);
        }
        let groups: Vec<(u64, Vec<u32>)> = groups.into_iter().collect();
        // Storage starts in row order: a row id is its slot.
        let identity: Vec<u32> = (0..n_series as u32).collect();

        // --- Phase 3: build subtrees in parallel (Figure 7 "Indexing").
        // Pool lanes claim root-child groups off an atomic counter; each
        // subtree is independent, so there is no contention beyond the
        // counter and the result vector.
        let next_group = AtomicUsize::new(0);
        let done = parking_lot::Mutex::new(Vec::with_capacity(groups.len()));
        pool.broadcast(|_| loop {
            let g = next_group.fetch_add(1, Ordering::Relaxed);
            if g >= groups.len() {
                break;
            }
            let (key, rows) = &groups[g];
            let mut subtree = Subtree::single_leaf(*key, rows.clone(), &words, &identity, l);
            subtree.split_while_overfull(0, &words, &identity, l, config.leaf_capacity);
            done.lock().push(subtree);
        });
        let mut subtrees = done.into_inner();
        subtrees.sort_by_key(|s| s.key);

        // --- Phase 4: pack leaves. Every leaf starts as a pure tail over
        // the identity slot maps; `repack_leaves` permutes storage into
        // leaf-contiguous order and records each leaf's run.
        let query_env = sofa_summaries::QueryEnv::new(&summarization);
        let mut index = Index {
            summarization,
            config,
            pool,
            data: data.into(),
            words: words.into(),
            slot_to_row: identity.clone(),
            row_to_slot: identity,
            subtrees,
            series_len: n,
            word_len: l,
            build_breakdown: (0.0, 0.0),
            counters: crate::stats::KernelCounters::default(),
            query_env,
            quant_grid: None,
            scratches: parking_lot::Mutex::new(Vec::with_capacity(lanes + 2)),
            tail_rows: n_series,
        };
        index.repack_leaves();
        let tree_secs = t1.elapsed().as_secs_f64();
        index.build_breakdown = (transform_secs, tree_secs);
        Ok(index)
    }

    /// Folds every leaf's tail into its packed run: permutes the series
    /// and word arenas so each leaf's rows occupy one contiguous run of
    /// storage slots (in leaf order), the shape the refine sweep reads in
    /// place, and encodes quant codes for the runs that grew. The bulk
    /// build runs it over leaves that are all tail; the auto-repack
    /// trigger ([`crate::IndexConfig::auto_repack_pct`]) runs it once
    /// tails hold enough rows. An index without tail rows is left as is.
    ///
    /// Only leaves with tails are re-encoded; every other leaf keeps its
    /// codes, and its run moves whole if an earlier subtree grew.
    /// Subtrees sit in key order and only tails change a subtree's size,
    /// so everything before the first subtree with a tail keeps its
    /// slots: the slot assignment, the permutation's cycle scan and the
    /// data movement all run over the arena suffix from there.
    /// The permutation is applied in place (cycle-walking with one
    /// temporary row), so no second copy of the dataset is ever held.
    pub fn repack_leaves(&mut self) {
        let n = self.series_len;
        let l = self.word_len;
        let total = self.slot_to_row.len();
        let Some(first) = self.subtrees.iter().position(Subtree::has_tail) else { return };
        let scan_lo: usize = self.subtrees[..first].iter().map(Subtree::n_rows).sum();
        // Slot assignment: leaves in (subtree, arena) order, rows in leaf
        // order. `bases[s]` is the first slot of suffix subtree `s`.
        let mut suffix_rows: Vec<u32> = Vec::with_capacity(total - scan_lo);
        let mut bases: Vec<usize> = Vec::with_capacity(self.subtrees.len() - first);
        for st in &self.subtrees[first..] {
            bases.push(scan_lo + suffix_rows.len());
            for leaf in st.leaves() {
                suffix_rows.extend_from_slice(leaf.rows());
            }
        }
        debug_assert_eq!(suffix_rows.len(), total - scan_lo);
        for (i, &row) in suffix_rows.iter().enumerate() {
            debug_assert!(
                self.row_to_slot[row as usize] as usize >= scan_lo,
                "row {row} of a subtree with a tail sits below the untouched prefix"
            );
            // Lossless: slots are bounded by the row count, which the
            // build rejected past u32::MAX.
            self.row_to_slot[row as usize] = (scan_lo + i) as u32;
        }
        // In-place permutation of the suffix of both arenas (in
        // suffix-local slot coordinates): content currently at storage
        // slot `scan_lo + i` moves to `scan_lo + dest[i]`. Fixed points
        // (runs that keep their slots) are skipped without touching the
        // data; the prefix is not even scanned.
        let dest: Vec<u32> = self.slot_to_row[scan_lo..]
            .iter()
            .map(|&row| self.row_to_slot[row as usize] - scan_lo as u32)
            .collect();
        // `make_mut` promotes mapped (snapshot-opened) arenas to owned
        // copies.
        let data = self.data.make_mut();
        let words = self.words.make_mut();
        permute_rows(&mut data[scan_lo * n..], &mut words[scan_lo * l..], n, l, &dest);
        self.slot_to_row[scan_lo..].copy_from_slice(&suffix_rows);

        if self.quant_grid.is_none() && (1..=crate::node::QUANT_REFINE_MAX_LEN).contains(&n) {
            // Train the index-wide quantizer once, on a strided row sample
            // (value ranges converge long before the full arena is seen;
            // rows outside the sampled ranges clamp and stay sound). The
            // grid then serves every leaf encode and every query.
            const GRID_SAMPLE_MAX_ROWS: usize = 1 << 16;
            let total_rows = self.data.len() / n;
            self.quant_grid = if total_rows <= GRID_SAMPLE_MAX_ROWS {
                sofa_summaries::QuantGrid::train(&self.data, n)
            } else {
                let stride = total_rows.div_ceil(GRID_SAMPLE_MAX_ROWS);
                let mut sample = Vec::with_capacity(total_rows.div_ceil(stride) * n);
                for r in (0..total_rows).step_by(stride) {
                    sample.extend_from_slice(&self.data[r * n..(r + 1) * n]);
                }
                sofa_summaries::QuantGrid::train(&sample, n)
            };
        }
        // Leaf packs, one batch of suffix subtrees per pool lane (subtrees
        // are disjoint, so `chunks_mut` hands each lane its own slice).
        let data = &self.data;
        let quant_grid = self.quant_grid.as_ref();
        let suffix = &mut self.subtrees[first..];
        let per_lane = suffix.len().div_ceil(self.pool.threads()).max(1);
        let chunks = suffix.chunks_mut(per_lane).zip(bases.chunks(per_lane)).collect();
        for_each_chunk(&self.pool, chunks, |_, (chunk, base_chunk)| {
            for (st, &base) in chunk.iter_mut().zip(base_chunk) {
                let mut next = base;
                for node in &mut st.nodes {
                    let NodeKind::Leaf { rows, pack, .. } = &mut node.kind else {
                        continue;
                    };
                    // Lossless: slots are < n_series <= u32::MAX.
                    pack.start = next as u32;
                    if pack.len as usize != rows.len() {
                        let run = &data[next * n..(next + rows.len()) * n];
                        pack.len = rows.len() as u32;
                        pack.quant = quant_grid.and_then(|grid| {
                            let qb = sofa_summaries::QuantBlock::build(grid, run, n)?;
                            Some(qb.map_codes(Arena::from))
                        });
                    }
                    next += rows.len();
                }
            }
        });
        self.tail_rows = 0;
    }

    /// The subtree forest (read-only).
    #[must_use]
    pub fn subtrees(&self) -> &[Subtree] {
        &self.subtrees
    }
}

/// Applies the slot permutation `dest` (content at slot `old` moves to
/// slot `dest[old]`) to both arenas in place, walking permutation cycles
/// with one temporary row each — peak extra memory is one series plus one
/// word, never a second dataset copy.
fn permute_rows(data: &mut [f32], words: &mut [u8], n: usize, l: usize, dest: &[u32]) {
    let count = dest.len();
    debug_assert_eq!(data.len(), count * n);
    debug_assert_eq!(words.len(), count * l);
    let mut visited = vec![false; count];
    let mut tmp_series = vec![0f32; n];
    let mut tmp_word = vec![0u8; l];
    for start in 0..count {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut slot = dest[start] as usize;
        if slot == start {
            continue;
        }
        // Lift the cycle's first row, then bubble it around: each step
        // deposits the in-hand row at its destination and picks up the
        // displaced one.
        tmp_series.copy_from_slice(&data[start * n..(start + 1) * n]);
        tmp_word.copy_from_slice(&words[start * l..(start + 1) * l]);
        while slot != start {
            visited[slot] = true;
            for (held, stored) in tmp_series.iter_mut().zip(data[slot * n..].iter_mut()) {
                std::mem::swap(held, stored);
            }
            for (held, stored) in tmp_word.iter_mut().zip(words[slot * l..].iter_mut()) {
                std::mem::swap(held, stored);
            }
            slot = dest[slot] as usize;
        }
        data[start * n..(start + 1) * n].copy_from_slice(&tmp_series);
        words[start * l..(start + 1) * l].copy_from_slice(&tmp_word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa_summaries::{ISax, SaxConfig};

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                data.push(
                    (x * 0.2 + r as f32).sin() + 0.5 * (x * (0.5 + (r % 7) as f32 * 0.2)).cos(),
                );
            }
        }
        data
    }

    fn sax_index(count: usize, n: usize, leaf: usize, threads: usize) -> Index<ISax> {
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        Index::build(
            sax,
            &dataset(count, n),
            IndexConfig::with_threads(threads).leaf_capacity(leaf),
        )
        .expect("build")
    }

    #[test]
    fn every_row_lands_in_exactly_one_leaf() {
        let idx = sax_index(500, 64, 32, 2);
        let mut seen = vec![false; 500];
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                for &r in leaf.rows() {
                    assert!(!seen[r as usize], "row {r} appears twice");
                    seen[r as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some rows missing from the tree");
    }

    #[test]
    fn leaves_respect_capacity_or_are_unsplittable() {
        let idx = sax_index(1000, 64, 50, 2);
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                // An over-full leaf is only allowed when no position can
                // separate its rows: every word is the same.
                if let Some((&first, rest)) = leaf.rows().split_first() {
                    if rest.len() >= 50 {
                        let word = idx.word(first as usize);
                        for &r in rest {
                            assert_eq!(idx.word(r as usize), word, "splittable over-full leaf");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn build_deterministic_across_thread_counts() {
        // The tree structure may vary with threads in MESSI, but our
        // bulk build is deterministic: same groups, same splits.
        let a = sax_index(400, 64, 30, 1);
        let b = sax_index(400, 64, 30, 4);
        assert_eq!(a.subtrees().len(), b.subtrees().len());
        for (x, y) in a.subtrees().iter().zip(b.subtrees().iter()) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.n_rows(), y.n_rows());
        }
    }

    #[test]
    fn words_are_stored_per_row() {
        let idx = sax_index(50, 64, 10, 2);
        assert_eq!(idx.word(0).len(), 8);
        assert_eq!(idx.n_series(), 50);
        // Words must correspond to the (z-normalized) stored series.
        let mut tr = idx.summarization().transformer();
        for r in 0..50 {
            let expect = tr.word(idx.series(r), 8);
            assert_eq!(idx.word(r), &expect[..], "row {r}");
        }
    }

    #[test]
    fn too_many_rows_error_is_typed_and_displayed() {
        let e = IndexError::TooManyRows { rows: 5_000_000_000 };
        assert_eq!(e.clone(), IndexError::TooManyRows { rows: 5_000_000_000 });
        assert!(e.to_string().contains("u32 row-id space"), "{e}");
    }

    #[test]
    fn rejects_bad_input() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        assert!(matches!(
            Index::build(sax, &[], IndexConfig::default()),
            Err(IndexError::BadDataset(_))
        ));
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        assert!(matches!(
            Index::build(sax, &vec![0.0; 65], IndexConfig::default()),
            Err(IndexError::BadDataset(_))
        ));
    }

    #[test]
    fn build_owned_matches_borrowing_build() {
        let n = 64;
        let data = dataset(300, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let a = Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(30))
            .expect("build");
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let b = Index::build_owned(sax, data, IndexConfig::with_threads(2).leaf_capacity(30))
            .expect("build_owned");
        assert_eq!(a.n_series(), b.n_series());
        assert_eq!(a.subtrees().len(), b.subtrees().len());
        for r in 0..a.n_series() {
            assert_eq!(a.word(r), b.word(r), "row {r}");
            assert_eq!(a.series(r), b.series(r), "row {r}");
        }
    }

    #[test]
    fn build_with_shared_pool_reuses_it() {
        let n = 64;
        let pool = sofa_exec::ExecPool::shared(2);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx = Index::build_with_pool(
            sax,
            dataset(200, n),
            IndexConfig::with_threads(2).leaf_capacity(25),
            Arc::clone(&pool),
        )
        .expect("build");
        assert!(Arc::ptr_eq(idx.pool(), &pool));
        assert_eq!(idx.pool().threads(), 2);
    }

    #[test]
    fn build_breakdown_reports_phases() {
        let idx = sax_index(200, 64, 20, 2);
        let (transform, tree) = idx.build_breakdown();
        assert!(transform >= 0.0 && tree >= 0.0);
    }

    /// Structural invariant of the packed layout: every leaf's contiguous
    /// slot run holds exactly its first `len` rows, in order, and its
    /// codes cover exactly that run.
    fn assert_layout_consistent(idx: &Index<ISax>) {
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                let pack = leaf.pack().expect("leaves carry packs");
                if let Some(qb) = &pack.quant {
                    assert_eq!(qb.n(), pack.len as usize);
                }
                for (i, &row) in leaf.rows()[..pack.len as usize].iter().enumerate() {
                    let slot = pack.start as usize + i;
                    assert_eq!(idx.slot_to_row[slot], row, "slot {slot} holds the wrong row");
                    assert_eq!(idx.row_to_slot[row as usize] as usize, slot);
                }
            }
        }
    }

    #[test]
    fn incremental_repack_restores_packing_and_exactness() {
        let n = 64;
        let data = dataset(700, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(
            sax,
            &data[..400 * n],
            IndexConfig::with_threads(2).leaf_capacity(12).auto_repack_pct(None),
        )
        .expect("build");
        idx.insert_all(&data[400 * n..]).expect("insert");
        let before = idx.stats();
        assert!(before.packed_leaves < before.leaves, "inserts must leave tails");
        assert!(idx.subtrees().iter().any(|st| st.has_tail()));
        assert_layout_consistent(&idx);

        idx.repack_leaves();
        let after = idx.stats();
        assert_eq!(after.packed_leaves, after.leaves, "repack must fold every tail");
        assert!(!idx.subtrees().iter().any(|st| st.has_tail()));
        assert_layout_consistent(&idx);

        // Answers agree with a bulk-built index over the same data.
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let bulk = Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(12))
            .expect("build");
        for q in dataset(8, n).chunks(n) {
            let a = idx.knn(q, 5).expect("query");
            let b = bulk.knn(q, 5).expect("query");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.row, y.row);
            }
        }
    }

    #[test]
    fn incremental_repack_is_a_noop_on_a_clean_index() {
        let n = 64;
        let idx0 = sax_index(500, n, 20, 2);
        let starts: Vec<u32> = idx0
            .subtrees()
            .iter()
            .flat_map(|st| st.leaves().map(|l| l.pack().unwrap().start))
            .collect();
        let mut idx = idx0;
        idx.repack_leaves();
        let after: Vec<u32> = idx
            .subtrees()
            .iter()
            .flat_map(|st| st.leaves().map(|l| l.pack().unwrap().start))
            .collect();
        assert_eq!(starts, after, "clean subtrees must keep their runs");
        assert_layout_consistent(&idx);
    }

    #[test]
    fn deep_tree_collect_descends_below_its_root() {
        // Hand every row the same root key region by using one shared
        // prototype shape: a concentrated tree that splits deep.
        let n = 64;
        let mut data = Vec::with_capacity(1200 * n);
        for r in 0..1200 {
            for t in 0..n {
                // One square-wave base shape (segment signs, hence root
                // keys, stay fixed) with per-row amplitude modulation
                // spanning several quantile boundaries: every row lands
                // in one root subtree, which then splits deep.
                let base = if (t / 8) % 2 == 0 { 1.0f32 } else { -1.0 };
                let x = t as f32;
                data.push(base * (1.0 + 0.6 * ((x * 0.1 + r as f32 * 0.7).sin())));
            }
        }
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx =
            Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(8)).expect("build");
        assert!(
            idx.subtrees().iter().any(|st| st.nodes.len() > 1),
            "a concentrated tree must split below a root"
        );
        // A root-gated or single-leaf subtree counts exactly 1 collected
        // or pruned node, so a larger total proves the DFS descended.
        let (_, stats) = idx.knn_with_stats(&data[..n], 3).expect("query");
        assert!(
            stats.leaves_collected + stats.nodes_pruned > idx.stats().subtrees,
            "collect DFS never went below a root: {stats:?}"
        );
    }

    #[test]
    fn subtrees_sorted_by_key() {
        let idx = sax_index(800, 64, 25, 2);
        let keys: Vec<u64> = idx.subtrees().iter().map(|s| s.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
