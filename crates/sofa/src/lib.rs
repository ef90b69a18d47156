//! # SOFA — fast and exact data-series similarity search
//!
//! A from-scratch Rust reproduction of *"Fast and Exact Similarity Search
//! in less than a Blink of an Eye"* (Schäfer, Brand, Leser, Peng,
//! Palpanas — ICDE 2025): the **SOFA** index, which combines the learned
//! **Symbolic Fourier Approximation** (SFA) summarization with a
//! MESSI-style parallel tree index to answer *exact* similarity queries
//! under z-normalized Euclidean distance.
//!
//! ## Quick start
//!
//! [`Builder`] learns the SFA model, sizes the worker pool and builds the
//! tree; [`SofaIndex`] is the index it returns. Every query goes through
//! one door, [`index::Index::query_into`], which takes a [`QueryKind`]:
//!
//! ```
//! use sofa::{Builder, QueryKind};
//!
//! // 1000 series of length 128, row-major.
//! let n = 128;
//! let data: Vec<f32> = (0..1000 * n)
//!     .map(|i| ((i / n) as f32 * 0.7 + (i % n) as f32 * 0.21).sin())
//!     .collect();
//!
//! let index = Builder::default().build_sofa(&data, n).expect("build");
//! let query: Vec<f32> = (0..n).map(|t| (t as f32 * 0.21).sin()).collect();
//!
//! // Exact k-NN into a reused buffer, plus the query's work counters.
//! let mut top5 = Vec::new();
//! let stats = index.query_into(&query, &QueryKind::Knn { k: 5 }, &mut top5).expect("query");
//! assert_eq!(top5.len(), 5);
//! println!("row {} at squared distance {}", top5[0].row, top5[0].dist_sq);
//! assert!(stats.series_refined <= 1000);
//!
//! // Every row within a squared radius, through the same door.
//! let mut ball = Vec::new();
//! index.query_into(&query, &QueryKind::Range { r_sq: top5[4].dist_sq }, &mut ball).unwrap();
//! assert!(ball.len() >= 5);
//!
//! // Convenience forms allocate their answer: `nn`, `knn`, `range`, ...
//! assert_eq!(index.nn(&query).unwrap(), top5[0]);
//!
//! // Batch queries amortize dispatch across the worker pool: one call,
//! // one Vec of per-query answers, every pool lane kept busy.
//! let batch: Vec<f32> = (0..4 * n).map(|i| (i as f32 * 0.13).sin()).collect();
//! let answers = index.knn_batch(&batch, 3).expect("batch");
//! assert_eq!(answers.len(), 4);
//! ```
//!
//! Ingest can be zero-copy — hand the buffer over and no duplicate is
//! ever made ([`Builder::build_sofa_owned`]) — and several indexes can
//! share one persistent worker pool:
//!
//! ```
//! use sofa::{Builder, ExecPool};
//!
//! let n = 64;
//! let data: Vec<f32> = (0..500 * n).map(|i| (i as f32 * 0.37).sin()).collect();
//! let pool = ExecPool::shared(2);
//! let a = Builder::default().pool(pool.clone()).build_sofa_owned(data.clone(), n).unwrap();
//! let b = Builder::default().pool(pool).build_messi_owned(data, n).unwrap();
//! assert_eq!(a.n_series(), b.n_series());
//! assert_eq!(a.summarization().model().word_len(), 16);
//! ```
//!
//! ## What's in the box
//!
//! * [`SofaIndex`] — the paper's contribution: SFA + tree index.
//! * [`MessiIndex`] — the same tree over iSAX: the MESSI baseline.
//! * [`ShardedSofaIndex`] — N-way row-partitioned SOFA shards behind one
//!   logical index, and [`Server`], the coalescing
//!   front-end that answers concurrent single queries in batch ticks.
//! * [`baselines::UcrScan`] / [`baselines::FlatL2`] — the paper's other
//!   competitors (parallel SIMD scan; FAISS-flat-style brute force).
//! * [`data`] — synthetic analogues of the paper's 17-dataset benchmark
//!   and UCR-like ablation families.
//! * Lower layers re-exported under [`summaries`], [`fft`], [`stats`],
//!   [`simd`], [`index`] for direct use.
//!
//! All methods return *exact* answers; the index only prunes candidates
//! whose lower-bound distance already exceeds the best result, per the
//! GEMINI framework.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sofa_baselines as baselines;
pub use sofa_data as data;
pub use sofa_exec as exec;
pub use sofa_fft as fft;
pub use sofa_index as index;
pub use sofa_serve as serve;
pub use sofa_simd as simd;
pub use sofa_stats as stats;
pub use sofa_summaries as summaries;

pub use sofa_exec::{CancelToken, ExecPool};
pub use sofa_index::{
    describe, SectionInfo, SnapshotCapabilities, SnapshotInfo, SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
};
pub use sofa_index::{
    IndexConfig, IndexError, IndexStats, IpNeighbor, Neighbor, QueryKind, QueryStats, RowFilter,
};
pub use sofa_serve::{
    AdmissionPolicy, ServeConfig, ServeError, ServeStats, Server, ShardedIndex, TickExec,
};
pub use sofa_summaries::{BinningStrategy, CoefficientSelection};

use sofa_index::Index;
use sofa_summaries::{ISax, SaxConfig, Sfa, SfaConfig};
use std::sync::Arc;

/// The constructor of [`SofaIndex`], [`MessiIndex`] (plain or reopened
/// from a snapshot) and [`ShardedSofaIndex`] with the paper's defaults:
/// it learns the SFA model from the z-normalized data and sizes the
/// worker pool.
#[derive(Clone, Debug)]
pub struct Builder {
    word_len: usize,
    alphabet: usize,
    leaf_capacity: usize,
    threads: usize,
    sample_ratio: f64,
    min_sample: usize,
    binning: BinningStrategy,
    selection: CoefficientSelection,
    seed: u64,
    pool: Option<Arc<ExecPool>>,
    auto_repack_pct: Option<u32>,
}

impl Default for Builder {
    fn default() -> Self {
        let index = IndexConfig::default();
        Builder {
            word_len: 16,
            alphabet: 256,
            leaf_capacity: index.leaf_capacity,
            threads: index.num_threads,
            sample_ratio: 0.01,
            min_sample: 256,
            binning: BinningStrategy::EquiWidth,
            selection: CoefficientSelection::HighestVariance,
            seed: 0x50FA,
            pool: None,
            auto_repack_pct: index.auto_repack_pct,
        }
    }
}

impl Builder {
    /// Word length `l` (default 16).
    #[must_use]
    pub fn word_len(mut self, l: usize) -> Self {
        self.word_len = l;
        self
    }

    /// Alphabet size (power of two up to 256; default 256).
    #[must_use]
    pub fn alphabet(mut self, alpha: usize) -> Self {
        self.alphabet = alpha;
        self
    }

    /// Leaf capacity (default: that of [`IndexConfig::default`]).
    #[must_use]
    pub fn leaf_capacity(mut self, cap: usize) -> Self {
        self.leaf_capacity = cap;
        self
    }

    /// Worker threads (default: available parallelism).
    #[must_use]
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    /// MCB sampling ratio (default 1%).
    #[must_use]
    pub fn sample_ratio(mut self, r: f64) -> Self {
        self.sample_ratio = r;
        self
    }

    /// Minimum MCB sample size regardless of ratio (default 256). Lower it
    /// to make small-scale sampling-rate sweeps meaningful.
    #[must_use]
    pub fn min_sample(mut self, m: usize) -> Self {
        self.min_sample = m.max(1);
        self
    }

    /// SFA binning strategy (default equi-width).
    #[must_use]
    pub fn binning(mut self, b: BinningStrategy) -> Self {
        self.binning = b;
        self
    }

    /// SFA coefficient selection (default highest variance).
    #[must_use]
    pub fn selection(mut self, s: CoefficientSelection) -> Self {
        self.selection = s;
        self
    }

    /// Sampling seed for deterministic learning.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the index on an existing worker pool instead of creating a
    /// private one, so a server embedding several indexes shares one set
    /// of threads. Overrides [`Builder::threads`] for execution (the
    /// pool's lane count applies).
    #[must_use]
    pub fn pool(mut self, pool: Arc<ExecPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Auto-repack threshold in percent: after an online insert, when
    /// more than this share of rows sit in leaf tails (inserted since
    /// their leaf was packed), the index folds them back into packed runs
    /// on its worker pool (default 25, and never for fewer than 64 tail
    /// rows). Tail rows are answered exactly either way. `None` disables
    /// the trigger — call `repack_leaves()` manually.
    #[must_use]
    pub fn auto_repack_pct(mut self, pct: Option<u32>) -> Self {
        self.auto_repack_pct = pct;
        self
    }

    fn index_config(&self) -> IndexConfig {
        // The worker count must follow the *effective* execution width:
        // a shared pool overrides `threads`.
        let lanes = self.pool.as_ref().map_or(self.threads, |p| p.threads());
        IndexConfig::with_threads(lanes)
            .leaf_capacity(self.leaf_capacity)
            .auto_repack_pct(self.auto_repack_pct)
    }

    /// The shared pool if one was supplied, else a fresh pool with
    /// [`Builder::threads`] lanes.
    fn make_pool(&self) -> Arc<ExecPool> {
        self.pool.clone().unwrap_or_else(|| ExecPool::shared(self.threads))
    }

    /// Builds a [`SofaIndex`] over row-major `data` of `series_len`,
    /// copying the buffer exactly once. Prefer
    /// [`Builder::build_sofa_owned`] to avoid even that copy.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer, or
    /// one holding a NaN or infinite value.
    pub fn build_sofa(&self, data: &[f32], series_len: usize) -> Result<SofaIndex, IndexError> {
        self.build_sofa_owned(data.to_vec(), series_len)
    }

    /// Zero-copy ingest: builds a [`SofaIndex`] that takes ownership of
    /// `data`. The buffer is z-normalized in place, the SFA model learns
    /// from that view, and the same allocation becomes the index's
    /// storage — no duplicate of the dataset is ever held (the borrowing
    /// path used to hold two).
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer, or
    /// one holding a NaN or infinite value.
    pub fn build_sofa_owned(
        &self,
        mut data: Vec<f32>,
        series_len: usize,
    ) -> Result<SofaIndex, IndexError> {
        if series_len == 0 || data.is_empty() || data.len() % series_len != 0 {
            return Err(IndexError::BadDataset(
                "data must be a non-empty whole number of series".into(),
            ));
        }
        let pool = self.make_pool();
        // SFA learns from the z-normalized view of the data, because the
        // index stores (and measures distances between) z-normalized
        // series. Normalization is idempotent, so normalizing in place
        // here and handing the same buffer to the index builder is safe.
        // A NaN or ±inf row would poison the SFA model (or stop its
        // learning), so the pass that normalizes every row refuses it.
        if let Some(row) = sofa_index::znormalize_rows(&mut data, series_len, &pool) {
            return Err(IndexError::BadDataset(format!("row {row} holds a NaN or infinite value")));
        }
        let cfg = SfaConfig {
            word_len: self.word_len,
            alphabet: self.alphabet,
            binning: self.binning,
            selection: self.selection,
            sample_ratio: self.sample_ratio,
            min_sample: self.min_sample,
            seed: self.seed,
            ..Default::default()
        };
        let sfa = Sfa::learn(&data, series_len, &cfg);
        Index::build_with_pool(sfa, data, self.index_config(), pool)
    }

    /// Opens a [`SofaIndex`] snapshot written by
    /// [`Index::snapshot`], serving straight from the mapped file
    /// (no deserialization of the dataset). Only [`Builder::pool`] and
    /// [`Builder::threads`] apply — every structural parameter comes
    /// from the snapshot itself.
    ///
    /// # Errors
    /// Returns `IndexError::SnapshotIo` / `SnapshotFormat` /
    /// `SnapshotCorrupt` / `SnapshotLayout` when the file is missing,
    /// foreign, damaged, or was written by an incompatible layout.
    pub fn open_sofa<P: AsRef<std::path::Path>>(&self, path: P) -> Result<SofaIndex, IndexError> {
        Index::open_with_pool(path, self.make_pool())
    }

    /// Opens a [`MessiIndex`] snapshot written by
    /// [`Index::snapshot`] (see [`Builder::open_sofa`]).
    ///
    /// # Errors
    /// As [`Builder::open_sofa`].
    pub fn open_messi<P: AsRef<std::path::Path>>(&self, path: P) -> Result<MessiIndex, IndexError> {
        Index::open_with_pool(path, self.make_pool())
    }

    /// Builds a [`MessiIndex`] over row-major `data` of `series_len`,
    /// copying the buffer exactly once. Prefer
    /// [`Builder::build_messi_owned`] to avoid even that copy.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer, or
    /// one holding a NaN or infinite value.
    pub fn build_messi(&self, data: &[f32], series_len: usize) -> Result<MessiIndex, IndexError> {
        self.build_messi_owned(data.to_vec(), series_len)
    }

    /// Zero-copy ingest: builds a [`MessiIndex`] that takes ownership of
    /// `data` (z-normalized in place, no duplicate ever held).
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer, or
    /// one holding a NaN or infinite value.
    pub fn build_messi_owned(
        &self,
        data: Vec<f32>,
        series_len: usize,
    ) -> Result<MessiIndex, IndexError> {
        if series_len == 0 || data.is_empty() || data.len() % series_len != 0 {
            return Err(IndexError::BadDataset(
                "data must be a non-empty whole number of series".into(),
            ));
        }
        let sax =
            ISax::new(series_len, &SaxConfig { word_len: self.word_len, alphabet: self.alphabet });
        Index::build_with_pool(sax, data, self.index_config(), self.make_pool())
    }

    /// Builds an N-way row-partitioned [`ShardedSofaIndex`]: `data` is
    /// split into `n_shards` contiguous row ranges (clamped to the row
    /// count), each shard learns its own SFA model over its rows and
    /// runs on its own pool, and queries fan out and merge into answers
    /// bit-identical to an unsharded build over the same rows. Without
    /// an explicit [`Builder::pool`], each shard gets
    /// `max(1, threads / n_shards)` lanes so the sharded whole uses the
    /// same thread budget as an unsharded build.
    ///
    /// # Errors
    /// Returns [`IndexError::BadDataset`] on an empty or ragged buffer
    /// or `n_shards == 0`.
    pub fn build_sofa_sharded(
        &self,
        data: &[f32],
        series_len: usize,
        n_shards: usize,
    ) -> Result<ShardedSofaIndex, IndexError> {
        let (per_shard, builder) = self.shard_plan(data, series_len, n_shards)?;
        let shards = data
            .chunks(per_shard * series_len)
            .map(|chunk| builder.build_sofa_owned(chunk.to_vec(), series_len))
            .collect::<Result<Vec<_>, _>>()?;
        ShardedIndex::new(shards)
    }

    /// Validates a sharded build and derives the rows-per-shard split
    /// and the per-shard builder (thread budget divided across shards
    /// unless a shared pool overrides it).
    fn shard_plan(
        &self,
        data: &[f32],
        series_len: usize,
        n_shards: usize,
    ) -> Result<(usize, Builder), IndexError> {
        if series_len == 0 || data.is_empty() || data.len() % series_len != 0 {
            return Err(IndexError::BadDataset(
                "data must be a non-empty whole number of series".into(),
            ));
        }
        if n_shards == 0 {
            return Err(IndexError::BadDataset("n_shards must be at least 1".into()));
        }
        let rows = data.len() / series_len;
        let shards = n_shards.min(rows);
        let mut builder = self.clone();
        if builder.pool.is_none() {
            builder.threads = (self.threads / shards).max(1);
        }
        Ok((rows.div_ceil(shards), builder))
    }
}

/// The SOFA index: SFA summarization + MESSI-style tree (the paper's
/// contribution). Build it with [`Builder::build_sofa`]; the learned
/// model is [`Index::summarization`].
pub type SofaIndex = Index<Sfa>;

/// The MESSI baseline: iSAX summarization + the same tree. Build it with
/// [`Builder::build_messi`].
pub type MessiIndex = Index<ISax>;

/// An N-way sharded SOFA index (see [`Builder::build_sofa_sharded`]).
pub type ShardedSofaIndex = ShardedIndex<Sfa>;

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                let r = (r + seed) as f32;
                data.push((x * 0.19 + r).sin() + 0.5 * (x * 1.2 - r * 0.4).cos());
            }
        }
        data
    }

    #[test]
    fn sofa_and_messi_agree() {
        let n = 64;
        let data = dataset(500, n, 0);
        let sofa = Builder::default()
            .leaf_capacity(50)
            .threads(2)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .unwrap();
        let messi = Builder::default().leaf_capacity(50).threads(2).build_messi(&data, n).unwrap();
        let queries = dataset(5, n, 700);
        for q in queries.chunks(n) {
            let a = sofa.nn(q).unwrap();
            let b = messi.nn(q).unwrap();
            assert!((a.dist_sq - b.dist_sq).abs() < 1e-3 * a.dist_sq.max(1.0));
        }
    }

    #[test]
    fn builder_parameters_apply() {
        let n = 64;
        let data = dataset(300, n, 0);
        let sofa = Builder::default()
            .word_len(8)
            .alphabet(64)
            .leaf_capacity(25)
            .threads(1)
            .build_sofa(&data, n)
            .unwrap();
        assert_eq!(sofa.summarization().model().word_len(), 8);
        assert_eq!(sofa.summarization().model().alphabet, 64);
        assert!(sofa.stats().max_leaf_size <= 25 || sofa.stats().leaves == 1);
    }

    #[test]
    fn builder_defaults_come_from_index_config() {
        let (facade, index) = (Builder::default().index_config(), IndexConfig::default());
        assert_eq!(facade.leaf_capacity, index.leaf_capacity);
        assert_eq!(facade.auto_repack_pct, index.auto_repack_pct);
    }

    #[test]
    fn build_rejects_bad_input() {
        let b = Builder::default();
        assert!(b.build_sofa(&[], 64).is_err());
        assert!(b.build_sofa(&vec![0.0; 65], 64).is_err());
        assert!(b.build_messi(&vec![0.0; 65], 64).is_err());
        assert!(b.build_sofa_owned(vec![0.0; 65], 64).is_err());
        assert!(b.build_messi_owned(Vec::new(), 64).is_err());
    }

    #[test]
    fn owned_build_matches_borrowing_build() {
        let n = 64;
        let data = dataset(400, n, 2);
        let borrow = Builder::default()
            .threads(2)
            .leaf_capacity(40)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .unwrap();
        let owned = Builder::default()
            .threads(2)
            .leaf_capacity(40)
            .sample_ratio(0.5)
            .build_sofa_owned(data.clone(), n)
            .unwrap();
        assert_eq!(borrow.n_series(), owned.n_series());
        let queries = dataset(4, n, 808);
        for q in queries.chunks(n) {
            let a = borrow.nn(q).unwrap();
            let b = owned.nn(q).unwrap();
            assert_eq!(a.row, b.row);
            assert_eq!(a.dist_sq, b.dist_sq);
        }
    }

    #[test]
    fn shared_pool_across_sofa_and_messi() {
        let n = 64;
        let data = dataset(300, n, 1);
        let pool = ExecPool::shared(2);
        let sofa = Builder::default()
            .pool(Arc::clone(&pool))
            .leaf_capacity(30)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .unwrap();
        let messi = Builder::default()
            .pool(Arc::clone(&pool))
            .leaf_capacity(30)
            .build_messi(&data, n)
            .unwrap();
        assert!(Arc::ptr_eq(sofa.pool(), &pool));
        assert!(Arc::ptr_eq(messi.pool(), &pool));
        let q = dataset(1, n, 77);
        let a = sofa.nn(&q).unwrap();
        let b = messi.nn(&q).unwrap();
        assert!((a.dist_sq - b.dist_sq).abs() < 1e-3 * a.dist_sq.max(1.0));
    }

    #[test]
    fn facade_knn_batch_matches_knn() {
        let n = 64;
        let data = dataset(350, n, 4);
        let sofa = Builder::default().threads(2).leaf_capacity(40).build_sofa(&data, n).unwrap();
        let queries = dataset(6, n, 1234);
        let batch = sofa.knn_batch(&queries, 4).unwrap();
        assert_eq!(batch.len(), 6);
        for (qi, q) in queries.chunks(n).enumerate() {
            assert_eq!(batch[qi], sofa.knn(q, 4).unwrap(), "query {qi}");
        }
    }

    #[test]
    fn facade_surface() {
        let n = 64;
        let data = dataset(200, n, 3);
        let sofa = Builder::default().threads(2).leaf_capacity(30).build_sofa(&data, n).unwrap();
        assert_eq!(sofa.n_series(), 200);
        assert_eq!(sofa.series_len(), n);
        assert!(sofa.summarization().mean_selected_coefficient() >= 0.0);
        let (t, b) = sofa.build_breakdown();
        assert!(t >= 0.0 && b >= 0.0);
        let q = dataset(1, n, 50);
        let (nn, stats) = sofa.knn_with_stats(&q, 3).unwrap();
        assert_eq!(nn.len(), 3);
        assert!(stats.series_lbd_checked <= 200);
    }
}
