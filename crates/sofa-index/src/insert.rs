//! Incremental insertion — the iSAX-2.0-style online path of the index
//! family.
//!
//! MESSI (and SOFA) are described as batch-built indexes, but every member
//! of the iSAX family also supports online insertion: append the series,
//! compute its word, descend the home subtree to a leaf, and when the leaf
//! exceeds its capacity split it by increasing the cardinality of the
//! position whose next bit divides the leaf's rows most evenly (paper
//! §IV-B: "when the number of series in a leaf node exceeds its capacity,
//! the leaf splits into two new leaves, becoming an inner node"). This
//! module implements that path so the index stays usable for workloads
//! that trickle in after the initial bulk build.
//!
//! Inserts keep every exactness invariant: the new row's word respects its
//! leaf's prefix (checked by tests), so queries started after an insert
//! see the new series.

use crate::node::{root_key, Node, NodeKind, Subtree, SymbolEnvelope};
use crate::{Index, IndexError};
use sofa_summaries::Summarization;

impl<S: Summarization> Index<S> {
    /// Inserts one series, returning its row id.
    ///
    /// The series is z-normalized and summarized with the index's learned
    /// model. Note that an SFA model learned at build time is *not*
    /// re-learned — the paper's batch protocol; drifting data would call
    /// for a rebuild.
    ///
    /// # Errors
    /// Returns [`IndexError::BadQuery`] if the series length mismatches.
    pub fn insert(&mut self, series: &[f32]) -> Result<u32, IndexError> {
        let row = self.insert_without_repack(series)?;
        self.maybe_auto_repack();
        Ok(row)
    }

    /// The insert body, without the auto-repack check —
    /// [`Index::insert_all`] defers that to the end of the burst so a
    /// batch of inserts never pays more than one repack.
    fn insert_without_repack(&mut self, series: &[f32]) -> Result<u32, IndexError> {
        if series.len() != self.series_len {
            return Err(IndexError::BadQuery(format!(
                "series length {} != index series length {}",
                series.len(),
                self.series_len
            )));
        }
        let next_row = self.data.len() / self.series_len;
        if next_row > u32::MAX as usize {
            // Row ids and storage slots are `u32`; one more row would
            // silently truncate every cast downstream.
            return Err(IndexError::TooManyRows { rows: next_row + 1 });
        }
        // Append normalized values and the word. The new row takes the
        // next storage slot (the arena tail), so existing packed runs are
        // undisturbed; only the leaf receiving the row loses its pack.
        let mut z = series.to_vec();
        sofa_simd::znormalize(&mut z);
        let mut word = vec![0u8; self.word_len];
        self.summarization.transformer().word_into(&z, &mut word);
        // Lossless: `next_row <= u32::MAX` was checked above.
        let row = next_row as u32;
        // Appends promote mapped (snapshot-opened) arenas to owned copies
        // (whole-arena copy-on-write, paid once per opened index).
        self.data.make_mut().extend_from_slice(&z);
        self.words.make_mut().extend_from_slice(&word);
        self.row_to_slot.push(row);
        self.slot_to_row.push(row);

        let symbol_bits = self.summarization.symbol_bits();
        let key = root_key(&word, symbol_bits);
        let subtree_idx = match self.subtrees.binary_search_by_key(&key, |s| s.key) {
            Ok(i) => i,
            Err(i) => {
                // New root child: a fresh subtree holding one leaf.
                let prefixes: Vec<u8> =
                    (0..self.word_len).map(|j| ((key >> j) & 1) as u8).collect();
                let bits = vec![1u8; self.word_len];
                let subtree = Subtree {
                    key,
                    nodes: vec![Node {
                        prefixes,
                        bits,
                        kind: NodeKind::Leaf {
                            rows: vec![],
                            pack: None,
                            envelope: SymbolEnvelope::empty(self.word_len),
                        },
                    }],
                    stale_leaves: 1,
                };
                self.subtrees.insert(i, subtree);
                // The new leaf starts un-packed (it is about to receive
                // its first row).
                self.total_leaves += 1;
                self.unpacked_leaves += 1;
                i
            }
        };

        // Descend to the home leaf by the word's bits.
        let subtree = &mut self.subtrees[subtree_idx];
        let mut id = 0u32;
        loop {
            match &subtree.nodes[id as usize].kind {
                NodeKind::Leaf { .. } => break,
                NodeKind::Inner { left, right, split_pos } => {
                    let pos = *split_pos as usize;
                    let child_bits = subtree.nodes[id as usize].bits[pos] + 1;
                    let bit = (word[pos] >> (symbol_bits - child_bits)) & 1;
                    id = if bit == 0 { *left } else { *right };
                }
            }
        }
        let mut newly_unpacked = 0usize;
        match &mut subtree.nodes[id as usize].kind {
            NodeKind::Leaf { rows, pack, envelope } => {
                rows.push(row);
                envelope.widen(&word);
                // The leaf's contiguous run no longer covers all its rows:
                // drop the pack so refinement falls back to the exact
                // per-row path until `repack_leaves` runs.
                if pack.take().is_some() {
                    newly_unpacked += 1;
                }
            }
            NodeKind::Inner { .. } => unreachable!("descent ends at a leaf"),
        }
        // Each split turns one (un-packed) leaf into an inner node with
        // two un-packed leaves: +1 leaf, +1 un-packed, net.
        let splits = split_while_overfull(
            subtree,
            id,
            &self.words,
            &self.row_to_slot,
            self.word_len,
            symbol_bits,
            self.config.leaf_capacity,
        );
        // Stale-leaf accounting is per subtree (the incremental repack
        // rebuilds exactly the subtrees whose count is non-zero) with the
        // global tally kept alongside for the trigger threshold.
        subtree.stale_leaves += newly_unpacked + splits;
        self.total_leaves += splits;
        self.unpacked_leaves += newly_unpacked + splits;
        Ok(row)
    }

    /// The auto-repack trigger (ROADMAP PR-3 deferred item): once
    /// un-packed leaves exceed the configured percentage of the tree,
    /// restore the packed layout on the worker pool right away instead of
    /// waiting for an operator call. The trigger runs the *incremental*
    /// repack — only subtrees with stale leaves rebuild their packs,
    /// untouched subtrees reuse theirs — so the dominant repack cost
    /// (data movement and quant encoding) scales with the touched portion
    /// of the tree (slot bookkeeping remains one O(n) scan; see
    /// [`Index::repack_incremental`]), keeping long-running serving
    /// instances on the batched leaf sweep.
    fn maybe_auto_repack(&mut self) {
        let Some(pct) = self.config.auto_repack_pct else { return };
        // Amortization floor: a repack still permutes shifted arena runs,
        // so it must be paid for by a batch of un-packed leaves. Without
        // the floor, a tree with single-digit leaf counts (the default
        // leaf_capacity is 20k) would exceed any percentage after one
        // insert and repack on *every* insert — quadratic bursts.
        const MIN_UNPACKED: usize = 8;
        if self.unpacked_leaves >= MIN_UNPACKED
            && self.unpacked_leaves * 100 > self.total_leaves.max(1) * pct as usize
        {
            self.repack_incremental();
        }
    }

    /// Inserts every series in a row-major buffer, returning the first new
    /// row id.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] if the buffer is not a whole
    /// number of series.
    pub fn insert_all(&mut self, buffer: &[f32]) -> Result<u32, IndexError> {
        if buffer.is_empty() || buffer.len() % self.series_len != 0 {
            return Err(IndexError::BadDataset(
                "buffer must be a non-empty whole number of series".into(),
            ));
        }
        // Checked: with exactly u32::MAX + 1 rows already stored the
        // plain cast would wrap the returned first-row id to 0 (the
        // per-row inserts below would each error, but only after this
        // value was computed).
        let first = u32::try_from(self.data.len() / self.series_len)
            .map_err(|_| IndexError::TooManyRows { rows: self.data.len() / self.series_len })?;
        for series in buffer.chunks(self.series_len) {
            self.insert_without_repack(series)?;
        }
        // One auto-repack check for the whole burst: the trigger fires at
        // most once per `insert_all`, amortized over every row above.
        self.maybe_auto_repack();
        Ok(first)
    }
}

/// Splits `leaf` — and any over-full child produced by the split — using
/// the balanced-split rule, mutating the subtree arena in place. `words`
/// is in storage order; `row_to_slot` maps the row ids stored in leaves to
/// it. Each child leaf's envelope is rebuilt from its rows' words. Returns
/// the number of splits performed (each adds one leaf).
fn split_while_overfull(
    subtree: &mut Subtree,
    leaf: u32,
    words: &[u8],
    row_to_slot: &[u32],
    l: usize,
    symbol_bits: u8,
    leaf_capacity: usize,
) -> usize {
    let slot = |r: u32| row_to_slot[r as usize] as usize;
    let word_bit = |r: u32, j: usize, shift: u8| (words[slot(r) * l + j] >> shift) & 1;
    let mut splits = 0usize;
    let mut pending = vec![leaf];
    while let Some(id) = pending.pop() {
        let (rows, prefixes, bits) = {
            let node = &subtree.nodes[id as usize];
            let NodeKind::Leaf { rows, .. } = &node.kind else { continue };
            if rows.len() <= leaf_capacity {
                continue;
            }
            (rows.clone(), node.prefixes.clone(), node.bits.clone())
        };

        // Balanced split position (same rule as the bulk build).
        let mut best: Option<(usize, usize)> = None;
        for j in 0..l {
            if bits[j] >= symbol_bits {
                continue;
            }
            let shift = symbol_bits - bits[j] - 1;
            let ones = rows.iter().filter(|&&r| word_bit(r, j, shift) == 1).count();
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
            continue; // unsplittable: allow the over-full leaf
        };

        let shift = symbol_bits - bits[split_pos] - 1;
        let (zeros, ones): (Vec<u32>, Vec<u32>) =
            rows.iter().partition(|&&r| word_bit(r, split_pos, shift) == 0);

        let child = |bit: u8, rows: Vec<u32>| {
            let mut p = prefixes.clone();
            let mut b = bits.clone();
            p[split_pos] = (p[split_pos] << 1) | bit;
            b[split_pos] += 1;
            let envelope = SymbolEnvelope::of_slots(l, words, rows.iter().map(|&r| slot(r)));
            // Split children start un-packed: their rows are subsets of
            // the parent's (no longer contiguous) run.
            Node { prefixes: p, bits: b, kind: NodeKind::Leaf { rows, pack: None, envelope } }
        };
        let left = u32::try_from(subtree.nodes.len()).expect("node-id space (u32) exhausted");
        subtree.nodes.push(child(0, zeros));
        let right = u32::try_from(subtree.nodes.len()).expect("node-id space (u32) exhausted");
        subtree.nodes.push(child(1, ones));
        subtree.nodes[id as usize].kind =
            NodeKind::Inner { left, right, split_pos: split_pos as u16 };
        splits += 1;
        pending.push(left);
        pending.push(right);
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::symbol_prefix;
    use crate::IndexConfig;
    use sofa_summaries::{ISax, SaxConfig};

    fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                let r = (r + seed) as f32;
                data.push((x * 0.21 + r).sin() + 0.6 * (x * (0.3 + (r % 13.0) * 0.07)).cos());
            }
        }
        data
    }

    fn empty_then_insert(data: &[f32], n: usize, leaf: usize) -> Index<ISax> {
        // Bootstrap with the first series, then insert the rest online.
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx =
            Index::build(sax, &data[..n], IndexConfig::with_threads(1).leaf_capacity(leaf))
                .expect("build");
        idx.insert_all(&data[n..]).expect("insert");
        idx
    }

    #[test]
    fn inserted_index_matches_bulk_built_queries() {
        let n = 64;
        let data = dataset(500, n, 0);
        let incremental = empty_then_insert(&data, n, 30);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let bulk = Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(30))
            .expect("build");
        let queries = dataset(6, n, 900);
        for q in queries.chunks(n) {
            let a = incremental.nn(q).expect("query");
            let b = bulk.nn(q).expect("query");
            assert!(
                (a.dist_sq - b.dist_sq).abs() < 1e-4 * a.dist_sq.max(1.0),
                "incremental {a:?} vs bulk {b:?}"
            );
        }
    }

    #[test]
    fn inserts_split_leaves() {
        let n = 64;
        let data = dataset(400, n, 3);
        let idx = empty_then_insert(&data, n, 10);
        let stats = idx.stats();
        assert!(stats.leaves > 1, "splitting must have happened: {stats:?}");
        assert_eq!(stats.n_series, 400);
    }

    #[test]
    fn every_inserted_row_respects_its_leaf_label() {
        let n = 64;
        let data = dataset(300, n, 7);
        let idx = empty_then_insert(&data, n, 20);
        for st in idx.subtrees() {
            for leaf in st.leaves() {
                for &r in leaf.rows() {
                    let w = idx.word(r as usize);
                    for (j, (&prefix, &b)) in leaf.prefixes.iter().zip(leaf.bits.iter()).enumerate()
                    {
                        if b == 0 {
                            continue;
                        }
                        assert_eq!(
                            symbol_prefix(w[j], b, 8),
                            prefix,
                            "row {r} violates label at {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inserted_series_are_findable() {
        let n = 64;
        let base = dataset(100, n, 0);
        let extra = dataset(50, n, 5000);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(sax, &base, IndexConfig::with_threads(1).leaf_capacity(16))
            .expect("build");
        let first = idx.insert_all(&extra).expect("insert");
        assert_eq!(first, 100);
        // Each inserted series must find itself as its own 1-NN.
        for (i, s) in extra.chunks(n).enumerate() {
            let nn = idx.nn(s).expect("query");
            assert!(nn.dist_sq < 1e-4, "inserted series {i} not found: {nn:?}");
        }
    }

    #[test]
    fn auto_repack_triggers_on_bursts_and_respects_opt_out() {
        let n = 64;
        let data = dataset(600, n, 11);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx =
            Index::build(sax, &data[..300 * n], IndexConfig::with_threads(1).leaf_capacity(10))
                .expect("build");
        idx.insert_all(&data[300 * n..]).expect("insert");
        // The burst runs the trigger exactly once, at the end; afterwards
        // the un-packed share must sit below the (floored) threshold.
        let s = idx.stats();
        let unpacked = s.leaves - s.packed_leaves;
        assert!(
            unpacked < 8 || unpacked * 100 <= s.leaves * 25,
            "auto-repack did not hold the threshold: {unpacked}/{} un-packed",
            s.leaves
        );

        // Opting out leaves the fallback leaves in place until a manual
        // repack.
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut manual = Index::build(
            sax,
            &data[..300 * n],
            IndexConfig::with_threads(1).leaf_capacity(10).auto_repack_pct(None),
        )
        .expect("build");
        manual.insert_all(&data[300 * n..]).expect("insert");
        let s = manual.stats();
        assert!(s.packed_leaves < s.leaves, "opt-out must not repack: {s:?}");
        manual.repack_leaves();
        let s = manual.stats();
        assert_eq!(s.packed_leaves, s.leaves);
    }

    #[test]
    fn insert_splits_stay_exact() {
        // Concentrated square-wave data: every row shares one root key, so
        // the single subtree splits deep.
        let n = 64;
        let square = |r: usize, t: usize| {
            let base = if (t / 8) % 2 == 0 { 1.0f32 } else { -1.0 };
            base * (1.0 + 0.6 * ((t as f32 * 0.1 + r as f32 * 0.7).sin()))
        };
        let mut data = Vec::with_capacity(900 * n);
        for r in 0..900 {
            for t in 0..n {
                data.push(square(r, t));
            }
        }
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(
            sax,
            &data,
            // Auto-repack off so the queries below walk the split leaves
            // as the inserts left them (not a rebuild).
            IndexConfig::with_threads(1).leaf_capacity(8).auto_repack_pct(None),
        )
        .expect("build");

        // Insert enough rows to force splits across the tree.
        let mut extra = Vec::with_capacity(400 * n);
        for r in 900..1300 {
            for t in 0..n {
                extra.push(square(r, t));
            }
        }
        idx.insert_all(&extra).expect("insert");

        // Exactness is untouched: every inserted row finds itself, and
        // results match a bulk-built index over the same rows.
        let mut all = data.clone();
        all.extend_from_slice(&extra);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let bulk =
            Index::build(sax, &all, IndexConfig::with_threads(1).leaf_capacity(8)).expect("build");
        for r in (0..1300).step_by(97) {
            let q = &all[r * n..(r + 1) * n];
            let (a, stats) = idx.knn_with_stats(q, 3).expect("query");
            let b = bulk.knn(q, 3).expect("query");
            for (x, y) in a.iter().zip(&b) {
                assert!(
                    (x.dist_sq - y.dist_sq).abs() < 1e-4 * x.dist_sq.max(1.0),
                    "patched {x:?} vs bulk {y:?}"
                );
            }
            assert!(stats.leaves_collected > 0 || stats.nodes_pruned > 0, "{stats:?}");
        }
    }

    #[test]
    fn insert_rejects_wrong_length() {
        let n = 32;
        let data = dataset(10, n, 0);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(sax, &data, IndexConfig::default()).expect("build");
        assert!(idx.insert(&[0.0; 31]).is_err());
        assert!(idx.insert_all(&[0.0; 33]).is_err());
    }

    #[test]
    fn insert_creates_new_subtrees_when_needed() {
        let n = 64;
        // Bootstrap with a smooth series, then insert a very different one
        // whose root key should differ.
        let smooth: Vec<f32> = (0..n).map(|t| (t as f32 * 0.1).sin()).collect();
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut idx = Index::build(sax, &smooth, IndexConfig::with_threads(1).leaf_capacity(4))
            .expect("build");
        let before = idx.subtrees().len();
        let spiky: Vec<f32> =
            (0..n).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 } * (t as f32 * 0.9).cos()).collect();
        idx.insert(&spiky).expect("insert");
        assert!(idx.subtrees().len() >= before);
        let nn = idx.nn(&spiky).expect("query");
        assert!(nn.dist_sq < 1e-4);
    }
}
