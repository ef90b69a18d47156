//! Incremental insertion — the iSAX-2.0-style online path of the index
//! family.
//!
//! MESSI (and SOFA) are described as batch-built indexes, but every member
//! of the iSAX family also supports online insertion: append the series,
//! compute its word, descend the home subtree to a leaf, and when the leaf
//! exceeds its capacity split it (paper §IV-B: "when the number of series
//! in a leaf node exceeds its capacity, the leaf splits into two new
//! leaves, becoming an inner node") with `Subtree::split_while_overfull`,
//! the routine the bulk build uses. This module implements that path so
//! the index stays usable for workloads that trickle in after the initial
//! bulk build.
//!
//! Inserts keep every exactness invariant: the descent follows each inner
//! node's split bit and widens every envelope on the way (checked by
//! tests), so every node's bound covers the new row for queries started
//! after the insert. An insert rebuilds nothing: the row is appended to
//! the arenas and to its leaf's tail (see [`crate::LeafPack`]), whose
//! words the refine sweep stages and prices with the same symbol-table
//! kernel as packed rows — as FAISS's `IndexIVF::add` appends codes to
//! an inverted list.

use crate::node::{root_key, routes_right, NodeKind, Subtree};
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
    /// Returns [`IndexError::BadQuery`] if the series length mismatches
    /// or the series holds a NaN or ±inf; the index is then unchanged.
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
        // next storage slot (the arena end), so every packed run stays in
        // place; the row joins its leaf's tail.
        let mut z = series.to_vec();
        if !sofa_simd::znormalize_finite(&mut z) {
            return Err(IndexError::BadQuery("series holds a NaN or infinite value".into()));
        }
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

        let key = root_key(&word, self.summarization.symbol_bits());
        let subtree_idx = match self.subtrees.binary_search_by_key(&key, |s| s.key) {
            Ok(i) => i,
            Err(i) => {
                // New root child: a fresh subtree holding one empty leaf.
                let subtree = Subtree::single_leaf(key, vec![], &[], &[], self.word_len);
                self.subtrees.insert(i, subtree);
                i
            }
        };

        // Descend to the home leaf by the split bits, widening every
        // envelope on the path.
        let subtree = &mut self.subtrees[subtree_idx];
        let mut id = 0u32;
        loop {
            let node = &mut subtree.nodes[id as usize];
            node.envelope.widen(&word);
            match &mut node.kind {
                NodeKind::Leaf { rows, .. } => {
                    rows.push(row);
                    break;
                }
                NodeKind::Inner { left, right, split_pos, split_bit } => {
                    id = if routes_right(&word, *split_pos, *split_bit) { *right } else { *left };
                }
            }
        }
        // A split moves the leaf's packed rows into its children's tails.
        let unpacked = subtree.split_while_overfull(
            id,
            &self.words,
            &self.row_to_slot,
            self.word_len,
            self.config.leaf_capacity,
        );
        self.tail_rows += 1 + unpacked;
        Ok(row)
    }

    /// The auto-repack trigger: once tail rows exceed the configured
    /// percentage of all rows, [`Index::repack_leaves`] folds them back
    /// into packed runs (and quant codes) on the worker pool. Tail rows
    /// are priced by the same kernel as packed ones, so this is a
    /// compaction, not a correctness or fallback concern: it restores the
    /// in-place word reads and the quantized tier.
    fn maybe_auto_repack(&mut self) {
        let Some(pct) = self.config.auto_repack_pct else { return };
        // Amortization floor: a repack permutes the arena suffix from the
        // first subtree with a tail, so a handful of rows in a tiny index
        // must not trigger one per insert.
        const MIN_TAIL_ROWS: usize = 64;
        if self.tail_rows >= MIN_TAIL_ROWS && self.tail_rows * 100 > self.n_series() * pct as usize
        {
            self.repack_leaves();
        }
    }

    /// Inserts every series in a row-major buffer, returning the first new
    /// row id.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] if the buffer is not a whole
    /// number of series, and [`IndexError::BadQuery`] if it holds a NaN
    /// or ±inf; either leaves the index unchanged.
    pub fn insert_all(&mut self, buffer: &[f32]) -> Result<u32, IndexError> {
        if buffer.is_empty() || buffer.len() % self.series_len != 0 {
            return Err(IndexError::BadDataset(
                "buffer must be a non-empty whole number of series".into(),
            ));
        }
        // Checked before the first append, so a refused burst adds no row.
        if let Some(i) = buffer.iter().position(|x| !x.is_finite()) {
            return Err(IndexError::BadQuery(format!(
                "series {} of the buffer holds a NaN or infinite value",
                i / self.series_len
            )));
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

#[cfg(test)]
mod tests {
    use super::*;
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
        // The burst runs the trigger exactly once, at the end: 300 tail
        // rows (plus the packed rows splits moved into tails) are far past
        // 25% of 600 rows, so every tail was folded back.
        assert_eq!(idx.tail_rows, 0, "auto-repack did not fire");
        let s = idx.stats();
        assert_eq!(s.packed_leaves, s.leaves, "{s:?}");

        // Opting out leaves the tails in place until a manual repack; the
        // counter agrees with the tree.
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
        let tails: usize =
            manual.subtrees().iter().flat_map(|st| st.nodes.iter()).map(|n| n.tail_len()).sum();
        assert!(manual.tail_rows >= 300 && manual.tail_rows == tails, "{tails} tail rows");
        manual.repack_leaves();
        let s = manual.stats();
        assert_eq!((s.packed_leaves, manual.tail_rows), (s.leaves, 0));
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
    fn non_finite_rows_are_refused_at_build_and_insert() {
        let n = 32;
        let sax = || ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let config = || IndexConfig::with_threads(2).leaf_capacity(8);
        let mut idx = Index::build(sax(), &dataset(100, n, 0), config()).expect("build");
        let state = |idx: &Index<ISax>| {
            let leaves: Vec<Vec<u32>> = idx
                .subtrees()
                .iter()
                .flat_map(|st| st.leaves())
                .map(|l| l.rows().to_vec())
                .collect();
            (idx.n_series(), idx.slot_to_row.len(), idx.tail_rows, leaves)
        };
        let before = state(&idx);
        let q = dataset(1, n, 500);
        let answer = idx.knn(&q, 3).expect("query");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = dataset(50, n, 7);
            data[17 * n + 5] = bad;
            match Index::build(sax(), &data, config()).err() {
                Some(IndexError::BadDataset(detail)) => {
                    assert!(detail.contains("row 17"), "{detail}")
                }
                other => panic!("{bad}: expected BadDataset, got {other:?}"),
            }
            // A burst holding one bad row appends none of its rows.
            match idx.insert_all(&data) {
                Err(IndexError::BadQuery(detail)) => {
                    assert!(detail.contains("series 17"), "{detail}")
                }
                other => panic!("{bad}: expected BadQuery, got {other:?}"),
            }
            let one = idx.insert(&data[17 * n..18 * n]);
            assert!(matches!(one, Err(IndexError::BadQuery(_))), "{bad}: {one:?}");
            assert!(state(&idx) == before, "{bad}: a refused insert changed the index");
            assert_eq!(idx.knn(&q, 3).expect("query"), answer, "{bad}");
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
