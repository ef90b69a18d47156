//! Parallel index construction (paper §IV-G, Figure 5, stage 1).
//!
//! MESSI's build pipeline: raw series are z-normalized and summarized in
//! parallel chunks (each worker owns a disjoint slice of the summary
//! buffer, so no synchronization is needed), rows are grouped by their
//! root key, and the resulting root-child groups are built into subtrees
//! in parallel — each subtree is independent, so workers claim groups off
//! an atomic counter and never contend. We materialize each subtree with
//! a recursive bulk build, which produces exactly the tree that repeated
//! leaf-splitting (iSAX 2.0's balanced splits) would: a leaf over capacity
//! splits on the position whose next bit partitions its rows most evenly.
//!
//! All parallelism executes on a persistent [`ExecPool`] — one created
//! for the index (sized by `IndexConfig::num_threads`) or shared across
//! indexes via [`Index::build_with_pool`]. Ingest is zero-copy:
//! [`Index::build_owned`] takes ownership of the buffer and normalizes it
//! in place, so even the borrowing [`Index::build`] performs exactly one
//! copy of the dataset.

use crate::config::IndexConfig;
use crate::node::{root_key, Node, NodeKind, Subtree, SymbolEnvelope};
use crate::{Index, IndexError};
use sofa_exec::ExecPool;
use sofa_simd::znormalize;
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
    /// Returns [`IndexError::BadDataset`] for an empty buffer or one that
    /// is not a whole number of series.
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
    /// Returns [`IndexError::BadDataset`] for an empty buffer or one that
    /// is not a whole number of series.
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
    /// Returns [`IndexError::BadDataset`] for an empty buffer or one that
    /// is not a whole number of series.
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
        pool.run(|scope| {
            let summarization = &summarization;
            for ((data_chunk, words_chunk), keys_chunk) in data
                .chunks_mut(rows_per_chunk * n)
                .zip(words.chunks_mut(rows_per_chunk * l))
                .zip(keys.chunks_mut(rows_per_chunk))
            {
                scope.spawn(move || {
                    let mut transformer = summarization.transformer();
                    for ((series, word), key) in data_chunk
                        .chunks_mut(n)
                        .zip(words_chunk.chunks_mut(l))
                        .zip(keys_chunk.iter_mut())
                    {
                        znormalize(series);
                        transformer.word_into(series, word);
                        *key = root_key(word, symbol_bits);
                    }
                });
            }
        });
        let transform_secs = t0.elapsed().as_secs_f64();

        // --- Phase 2: group rows by root key.
        let t1 = Instant::now();
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for (row, &key) in keys.iter().enumerate() {
            // Lossless: row < n_series, checked against u32::MAX above.
            groups.entry(key).or_default().push(row as u32);
        }
        let groups: Vec<(u64, Vec<u32>)> = groups.into_iter().collect();

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
            let subtree = build_subtree(*key, rows.clone(), &words, l, symbol_bits, &config);
            done.lock().push(subtree);
        });
        let mut subtrees = done.into_inner();
        subtrees.sort_by_key(|s| s.key);

        // --- Phase 4: pack leaves. Storage starts in row order (identity
        // slot maps); `repack_leaves` permutes it into leaf-contiguous
        // order and records each leaf's run.
        let query_env = sofa_summaries::QueryEnv::new(&summarization);
        let quant_enabled = std::sync::atomic::AtomicBool::new(config.quant_refine);
        let mut index = Index {
            summarization,
            config,
            pool,
            data: data.into(),
            words: words.into(),
            row_to_slot: (0..n_series as u32).collect(),
            slot_to_row: (0..n_series as u32).collect(),
            subtrees,
            series_len: n,
            word_len: l,
            build_breakdown: (0.0, 0.0),
            counters: crate::stats::KernelCounters::default(),
            query_env,
            quant_grid: None,
            quant_enabled,
            scratches: parking_lot::Mutex::new(Vec::with_capacity(lanes + 2)),
            unpacked_leaves: 0,
            total_leaves: 0,
        };
        index.repack_leaves();
        let tree_secs = t1.elapsed().as_secs_f64();
        index.build_breakdown = (transform_secs, tree_secs);
        Ok(index)
    }

    /// Rebuilds the leaf-contiguous storage layout: permutes the series
    /// and word arenas so every leaf's candidates occupy one contiguous
    /// run of storage slots (in leaf order), the shape the batched
    /// lower-bound sweep reads, and rebuilds each leaf's pack.
    ///
    /// The bulk build calls this automatically. Online inserts instead
    /// trigger the cheaper [`Index::repack_incremental`] (when
    /// [`crate::IndexConfig::auto_repack_pct`] is set, the default);
    /// call this full variant to force every pack to rebuild — e.g.
    /// after changing assumptions about the stored layout. The
    /// permutation is applied in place (cycle-walking with one temporary
    /// row), so no second copy of the dataset is ever held.
    pub fn repack_leaves(&mut self) {
        self.repack_core(true);
    }

    /// Incremental repack: restores the packed layout like
    /// [`Index::repack_leaves`], but only subtrees with stale leaves
    /// (leaves touched by online inserts or splits) rebuild their packs.
    /// Untouched subtrees reuse their existing packs
    /// — their arena runs are either left in place entirely or shifted by
    /// a constant (when an earlier subtree grew), which only updates each
    /// pack's start slot. This is what the auto-repack trigger runs.
    ///
    /// Cost model: every part of the repack scales with the *touched*
    /// portion of the arena. Subtrees are stored in key order, so all
    /// moved rows live at or above the first stale subtree's base slot:
    /// the slot assignment, the permutation's cycle scan and the data
    /// movement all run over that suffix only, and the clean prefix is
    /// never read or written.
    pub fn repack_incremental(&mut self) {
        self.repack_core(false);
    }

    /// The one repack implementation (see [`Index::repack_leaves`] /
    /// [`Index::repack_incremental`]): `full` rebuilds every subtree's
    /// packs, `!full` only the stale ones.
    fn repack_core(&mut self, full: bool) {
        let n = self.series_len;
        let l = self.word_len;
        let total = self.slot_to_row.len();
        // Everything before the first stale subtree is untouched: subtrees
        // sit in key order, size changes always mark a subtree stale
        // (inserts, splits, and brand-new subtrees all do), so the clean
        // prefix keeps its exact cumulative bases — and every moved or
        // appended row's current slot lies at or above `scan_lo`, the
        // first stale subtree's base. The slot maps, the permutation and
        // the data movement below all operate on that suffix only.
        let first_stale = if full {
            0
        } else {
            self.subtrees.iter().position(|st| st.stale_leaves > 0).unwrap_or(self.subtrees.len())
        };
        // Slot assignment: leaves in (subtree, arena) order, rows in leaf
        // order. `bases[s]` is the first slot of subtree `s`;
        // `old_bases[s]` is where its run currently starts (the first
        // leaf's pack), used to shift clean subtrees without rebuilding.
        let mut suffix_rows: Vec<u32> = Vec::new();
        let mut bases: Vec<usize> = Vec::with_capacity(self.subtrees.len());
        let mut old_bases: Vec<Option<u32>> = Vec::with_capacity(self.subtrees.len());
        let mut leaves = 0usize;
        let mut cursor = 0usize;
        let mut scan_lo = total;
        for (si, st) in self.subtrees.iter().enumerate() {
            bases.push(cursor);
            if si == first_stale {
                scan_lo = cursor;
            }
            let mut first_pack = None;
            for node in &st.nodes {
                if let NodeKind::Leaf { rows, pack, .. } = &node.kind {
                    if first_pack.is_none() {
                        first_pack = pack.as_ref().map(|p| p.start);
                    }
                    if si >= first_stale {
                        suffix_rows.extend_from_slice(rows);
                    }
                    cursor += rows.len();
                    leaves += 1;
                }
            }
            old_bases.push(first_pack);
        }
        self.total_leaves = leaves;
        self.unpacked_leaves = 0;
        debug_assert_eq!(cursor, total);
        debug_assert_eq!(suffix_rows.len(), total - scan_lo);
        for (i, &row) in suffix_rows.iter().enumerate() {
            debug_assert!(
                self.row_to_slot[row as usize] as usize >= scan_lo,
                "row {row} of a stale subtree sits below the clean prefix"
            );
            // Lossless: slots are bounded by the row count, which the
            // build rejected past u32::MAX.
            self.row_to_slot[row as usize] = (scan_lo + i) as u32;
        }
        // In-place permutation of the suffix of both arenas (in
        // suffix-local slot coordinates): content currently at storage
        // slot `scan_lo + i` moves to `scan_lo + dest[i]`. Fixed points
        // (runs that keep their slots) are skipped without touching the
        // data; the clean prefix is not even scanned.
        let dest: Vec<u32> = self.slot_to_row[scan_lo..]
            .iter()
            .map(|&row| self.row_to_slot[row as usize] - scan_lo as u32)
            .collect();
        if scan_lo < total {
            // `make_mut` promotes mapped (snapshot-opened) arenas to owned
            // copies; guarded so a clean repack of a mapped index stays
            // zero-copy.
            let data = self.data.make_mut();
            let words = self.words.make_mut();
            permute_rows(&mut data[scan_lo * n..], &mut words[scan_lo * l..], n, l, &dest);
        }
        self.slot_to_row[scan_lo..].copy_from_slice(&suffix_rows);

        // Leaf packs, one subtree batch per pool lane (subtrees are
        // disjoint, so `chunks_mut` hands each lane its own slice).
        let quant_on = self.config.quant_refine && n <= crate::node::QUANT_REFINE_MAX_LEN && n > 0;
        if quant_on && self.quant_grid.is_none() {
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
        let data = &self.data;
        let quant_grid = if quant_on { self.quant_grid.as_ref() } else { None };
        let per_lane = self.subtrees.len().div_ceil(self.pool.threads()).max(1);
        self.pool.run(|scope| {
            for ((chunk, base_chunk), old_base_chunk) in self
                .subtrees
                .chunks_mut(per_lane)
                .zip(bases.chunks(per_lane))
                .zip(old_bases.chunks(per_lane))
            {
                scope.spawn(move || {
                    for ((st, &base), &old_base) in
                        chunk.iter_mut().zip(base_chunk.iter()).zip(old_base_chunk.iter())
                    {
                        if !full && st.stale_leaves == 0 {
                            if let Some(old) = old_base {
                                // Clean subtree: every leaf is packed and
                                // no label changed since its packs were
                                // built, so they are reused verbatim. Its
                                // contiguous run may have shifted as a
                                // whole (an earlier subtree grew); only
                                // the start slots need the delta.
                                let delta = base as i64 - i64::from(old);
                                if delta != 0 {
                                    for node in st.nodes.iter_mut() {
                                        if let NodeKind::Leaf { pack: Some(pack), .. } =
                                            &mut node.kind
                                        {
                                            // Lossless: the shifted start is
                                            // this run's new base slot, a
                                            // valid slot index < u32::MAX.
                                            pack.start = (i64::from(pack.start) + delta) as u32;
                                        }
                                    }
                                }
                                continue;
                            }
                        }
                        let mut next = base;
                        for node in st.nodes.iter_mut() {
                            if let NodeKind::Leaf { rows, pack, .. } = &mut node.kind {
                                let start = next;
                                next += rows.len();
                                let quant = quant_grid.and_then(|grid| {
                                    sofa_summaries::QuantBlock::build(
                                        grid,
                                        &data[start * n..next * n],
                                        n,
                                    )
                                });
                                // Lossless: start < n_series <= u32::MAX.
                                *pack = Some(crate::node::LeafPack { start: start as u32, quant });
                            }
                        }
                        st.stale_leaves = 0;
                    }
                });
            }
        });
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

/// Builds one subtree over `rows`, whose words all share root key `key`.
fn build_subtree(
    key: u64,
    rows: Vec<u32>,
    words: &[u8],
    l: usize,
    symbol_bits: u8,
    config: &IndexConfig,
) -> Subtree {
    // Root-child label: one bit per position, taken from the key.
    let prefixes: Vec<u8> = (0..l).map(|j| ((key >> j) & 1) as u8).collect();
    let bits = vec![1u8; l];
    let mut nodes = Vec::new();
    build_node(rows, prefixes, bits, &mut nodes, words, l, symbol_bits, config.leaf_capacity);
    Subtree { key, nodes, stale_leaves: 0 }
}

/// Recursively materializes the node for `rows`, returning its arena id.
#[allow(clippy::too_many_arguments)]
fn build_node(
    rows: Vec<u32>,
    prefixes: Vec<u8>,
    bits: Vec<u8>,
    arena: &mut Vec<Node>,
    words: &[u8],
    l: usize,
    symbol_bits: u8,
    leaf_capacity: usize,
) -> u32 {
    let id = u32::try_from(arena.len()).expect("node-id space (u32) exhausted");
    let leaf = |rows: Vec<u32>| {
        // Build-time words are in row order: a row id is its slot.
        let envelope = SymbolEnvelope::of_slots(l, words, rows.iter().map(|&r| r as usize));
        NodeKind::Leaf { rows, pack: None, envelope }
    };
    if rows.len() <= leaf_capacity {
        arena.push(Node { prefixes, bits, kind: leaf(rows) });
        return id;
    }
    // Balanced split (iSAX 2.0): among positions with spare cardinality,
    // pick the one whose next bit divides the rows most evenly. Positions
    // where every row agrees on the next bit cannot separate anything.
    let mut best: Option<(usize, usize)> = None; // (imbalance, position)
    for j in 0..l {
        if bits[j] >= symbol_bits {
            continue;
        }
        let shift = symbol_bits - bits[j] - 1;
        let ones = rows.iter().filter(|&&r| (words[r as usize * l + j] >> shift) & 1 == 1).count();
        let zeros = rows.len() - ones;
        if ones == 0 || zeros == 0 {
            continue;
        }
        let imbalance = ones.abs_diff(zeros);
        let better = match best {
            None => true,
            Some((bi, bj)) => imbalance < bi || (imbalance == bi && bits[j] < bits[bj]),
        };
        if better {
            best = Some((imbalance, j));
        }
    }
    let Some((_, split_pos)) = best else {
        // No position separates the rows (identical words up to full
        // cardinality): keep an over-full leaf, as iSAX-family indices do.
        arena.push(Node { prefixes, bits, kind: leaf(rows) });
        return id;
    };

    let shift = symbol_bits - bits[split_pos] - 1;
    let (zeros, ones): (Vec<u32>, Vec<u32>) =
        rows.iter().partition(|&&r| (words[r as usize * l + split_pos] >> shift) & 1 == 0);

    // Reserve the inner node's slot before recursing so children ids are
    // stable.
    arena.push(Node {
        prefixes: prefixes.clone(),
        bits: bits.clone(),
        kind: NodeKind::Inner { left: 0, right: 0, split_pos: split_pos as u16 },
    });

    let child_label = |bit: u8| {
        let mut p = prefixes.clone();
        let mut b = bits.clone();
        p[split_pos] = (p[split_pos] << 1) | bit;
        b[split_pos] += 1;
        (p, b)
    };
    let (lp, lb) = child_label(0);
    let left = build_node(zeros, lp, lb, arena, words, l, symbol_bits, leaf_capacity);
    let (rp, rb) = child_label(1);
    let right = build_node(ones, rp, rb, arena, words, l, symbol_bits, leaf_capacity);
    match &mut arena[id as usize].kind {
        NodeKind::Inner { left: lslot, right: rslot, .. } => {
            *lslot = left;
            *rslot = right;
        }
        NodeKind::Leaf { .. } => unreachable!("slot was reserved as inner"),
    }
    id
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
                if leaf.rows().len() > 50 {
                    // Over-full leaves are only allowed when no position
                    // can separate the rows.
                    let rows = leaf.rows();
                    let l = 8;
                    #[allow(clippy::needless_range_loop)]
                    for j in 0..l {
                        if leaf.bits[j] >= 8 {
                            continue;
                        }
                        let shift = 8 - leaf.bits[j] - 1;
                        let ones = rows
                            .iter()
                            .filter(|&&r| (idx.word(r as usize)[j] >> shift) & 1 == 1)
                            .count();
                        assert!(
                            ones == 0 || ones == rows.len(),
                            "splittable over-full leaf (pos {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_labels_cover_their_rows() {
        // Every row's word must match its leaf's prefix at every position.
        let idx = sax_index(600, 64, 40, 3);
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                for &r in leaf.rows() {
                    let w = idx.word(r as usize);
                    #[allow(clippy::needless_range_loop)]
                    for j in 0..8 {
                        let b = leaf.bits[j];
                        if b == 0 {
                            continue;
                        }
                        assert_eq!(
                            crate::node::symbol_prefix(w[j], b, 8),
                            leaf.prefixes[j],
                            "row {r} violates leaf label at position {j}"
                        );
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

    /// Structural invariant of the packed layout: every packed leaf's
    /// contiguous slot run holds exactly its rows, in order.
    fn assert_layout_consistent(idx: &Index<ISax>) {
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                let pack = leaf.pack().expect("leaf must be packed");
                if let Some(qb) = &pack.quant {
                    assert_eq!(qb.n(), leaf.rows().len());
                }
                for (i, &row) in leaf.rows().iter().enumerate() {
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
        assert!(before.packed_leaves < before.leaves, "inserts must leave stale leaves");
        assert!(idx.subtrees().iter().any(|st| st.stale_leaves > 0));

        idx.repack_incremental();
        let after = idx.stats();
        assert_eq!(after.packed_leaves, after.leaves, "incremental repack must pack everything");
        assert!(idx.subtrees().iter().all(|st| st.stale_leaves == 0));
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
        idx.repack_incremental();
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
