//! MESSI-style parallel in-memory tree index for exact similarity search.
//!
//! This crate is the index half of SOFA (paper §IV). It implements the
//! MESSI architecture (Peng, Fatourou, Palpanas — ICDE 2020) *generically
//! over the summarization*:
//!
//! * instantiated with [`sofa_summaries::ISax`] it is **MESSI**,
//! * instantiated with [`sofa_summaries::Sfa`] it is **SOFA**.
//!
//! The structure (paper §IV-B): a forest of **subtrees** hanging off an
//! implicit root. Each root child is labelled by the first bit of every
//! word position; inner nodes refine one position by one bit (the iSAX
//! variable-cardinality trick, which works identically for SFA words since
//! both are vectors of symbols over per-position ordered breakpoint
//! tables); leaves hold row ids of the indexed series.
//!
//! Query answering (paper §IV-C) follows GEMINI exactly:
//!
//! 1. **Approximate search** descends to the query's home leaf and
//!    computes real distances there, seeding the best-so-far (BSF).
//! 2. **Collect**: workers traverse subtrees in parallel, prune whole
//!    subtrees whose root-key lower bound exceeds the BSF, price every
//!    leaf behind that gate by its per-position min/max symbol envelope,
//!    and push the leaves that survive into a fixed number of priority
//!    queues ordered by that envelope bound.
//! 3. **Refine**: workers drain the queues; a popped leaf whose lower
//!    bound exceeds the BSF abandons its entire queue (everything behind
//!    it is farther). Surviving leaves evaluate per-series lower bounds
//!    8 at a time with the SIMD symbol-table kernel (early-abandoned
//!    against the BSF) and only then compute real distances (also
//!    early-abandoned), updating the shared atomic BSF.
//!
//! The result is exact: every pruning step is justified by a lower bound.
//! The crate-level tests and the workspace property tests verify that the
//! index returns byte-identical nearest neighbors to a brute-force scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arena;
pub mod bsf;
pub mod build;
pub mod config;
pub mod filter;
pub mod insert;
pub mod node;
pub(crate) mod prune;
pub mod query;
pub(crate) mod scratch;
pub mod snapshot;
pub mod stats;

pub use bsf::{AtomicDistance, IpNeighbor, KnnSet, Neighbor};
pub use config::IndexConfig;
pub use filter::RowFilter;
pub use node::{LeafPack, Node, NodeKind, Subtree, SymbolEnvelope};
pub use query::{validate_batch, QueryKind, QueryStats};
pub use snapshot::{
    describe, SectionInfo, SectionReader, SnapshotCapabilities, SnapshotInfo,
    SnapshotSummarization, SNAPSHOT_FORMAT_VERSION, SNAPSHOT_MAGIC, SNAPSHOT_RENAME_FAILPOINT,
    SNAPSHOT_WRITE_FAILPOINT,
};
pub use sofa_exec::ExecPool;
pub use stats::IndexStats;

use sofa_summaries::Summarization;
use std::sync::Arc;

/// Errors surfaced while building or querying an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The dataset buffer was empty or not a whole number of series.
    BadDataset(String),
    /// A query's length does not match the indexed series length.
    BadQuery(String),
    /// The build (or an insert) would exceed `u32::MAX` rows — row ids,
    /// storage slots and leaf row lists are all `u32`, so a larger index
    /// would silently truncate ids. Shard the dataset across indexes
    /// instead.
    TooManyRows {
        /// The row count that was requested.
        rows: usize,
    },
    /// A snapshot read or write failed at the filesystem layer.
    SnapshotIo {
        /// The operation that failed ("open", "write", "rename", …).
        op: String,
        /// The underlying error's message.
        detail: String,
    },
    /// The file is not a snapshot this build can read: bad magic, foreign
    /// format version or byte order, or a malformed/missing section.
    SnapshotFormat {
        /// The section (or "header") the failure was detected in.
        section: String,
        /// What was wrong.
        detail: String,
    },
    /// The file parses as a snapshot but its contents fail validation —
    /// a checksum mismatch or a violated structural invariant. Opens
    /// fail closed; rebuild from the source data.
    SnapshotCorrupt {
        /// The section the corruption was detected in.
        section: String,
        /// What was wrong.
        detail: String,
    },
    /// The snapshot's layout parameters disagree with each other or with
    /// the decoded summarization model (e.g. an arena whose extent does
    /// not match the declared row count and series length).
    SnapshotLayout {
        /// The section whose parameters mismatch.
        section: String,
        /// What was inconsistent.
        detail: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::BadDataset(msg) => write!(f, "bad dataset: {msg}"),
            IndexError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            IndexError::TooManyRows { rows } => {
                write!(f, "too many rows: {rows} exceeds the u32 row-id space")
            }
            IndexError::SnapshotIo { op, detail } => {
                write!(f, "snapshot {op} failed: {detail}")
            }
            IndexError::SnapshotFormat { section, detail } => {
                write!(f, "snapshot format error in {section}: {detail}")
            }
            IndexError::SnapshotCorrupt { section, detail } => {
                write!(f, "snapshot corruption in {section}: {detail}")
            }
            IndexError::SnapshotLayout { section, detail } => {
                write!(f, "snapshot layout mismatch in {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// An exact similarity-search index over fixed-length data series.
///
/// Owns a z-normalized copy of the data, the per-series words, and the
/// subtree forest. `S` supplies the summarization (iSAX → MESSI,
/// SFA → SOFA).
pub struct Index<S: Summarization> {
    pub(crate) summarization: S,
    pub(crate) config: IndexConfig,
    /// Persistent worker pool executing every parallel phase (build,
    /// collect, refine, batch queries). Created per index by
    /// [`Index::build`], or shared between indexes via
    /// [`Index::build_with_pool`].
    pub(crate) pool: Arc<ExecPool>,
    /// Z-normalized series in **storage order**: after the build's packing
    /// phase, each leaf's series occupy one contiguous run (the FAISS
    /// contiguous-per-list layout), so leaf refinement streams instead of
    /// gathering. `row_to_slot`/`slot_to_row` translate between original
    /// row ids (the public API, leaf `rows`, query results) and storage
    /// slots. Either heap-owned (built) or a window into a mapped
    /// snapshot (opened); see [`arena::Arena`].
    pub(crate) data: arena::Arena<f32>,
    /// Per-series words in storage order (`n_series * word_len`), same
    /// ownership story as `data`.
    pub(crate) words: arena::Arena<u8>,
    /// Original row id -> storage slot.
    pub(crate) row_to_slot: Vec<u32>,
    /// Storage slot -> original row id.
    pub(crate) slot_to_row: Vec<u32>,
    /// Subtrees sorted by root key.
    pub(crate) subtrees: Vec<Subtree>,
    pub(crate) series_len: usize,
    pub(crate) word_len: usize,
    /// Wall-clock seconds spent in each build phase
    /// (transform, tree construction incl. leaf packing) — Figure 7's
    /// breakdown.
    pub(crate) build_breakdown: (f64, f64),
    /// Cumulative kernel/dispatch observability counters (see
    /// [`IndexStats`]).
    pub(crate) counters: stats::KernelCounters,
    /// Query-independent mindist evaluation state (breakpoint tables,
    /// weights), built once so per-query contexts allocate nothing.
    pub(crate) query_env: sofa_summaries::QueryEnv,
    /// The index-wide scalar quantizer of the compressed refine tier
    /// ([`IndexConfig::quant_refine`]): trained once on a sample of the
    /// data, reused verbatim by every leaf encode and every query —
    /// `None` when the tier is disabled or the data is degenerate
    /// (constant/non-finite), where the quantized bound is vacuous.
    pub(crate) quant_grid: Option<sofa_summaries::QuantGrid>,
    /// Runtime switch for the quantized refine tier. Starts as
    /// [`IndexConfig::quant_refine`]; [`Index::set_quant_refine`] flips it
    /// without a rebuild (the codes, once built, stay resident), so
    /// serving systems can A/B the tier on a live index — and the
    /// benchmarks can compare both arms on one index, with one layout.
    pub(crate) quant_enabled: std::sync::atomic::AtomicBool,
    /// Pool of per-query scratches (one per worker lane in the steady
    /// state); see [`scratch`].
    pub(crate) scratches: scratch::ScratchPool,
    /// Leaves currently lacking packed storage (maintained by
    /// `insert`/`repack_leaves`; drives the auto-repack trigger).
    pub(crate) unpacked_leaves: usize,
    /// Total leaves (same maintenance).
    pub(crate) total_leaves: usize,
}

impl<S: Summarization> Index<S> {
    /// Number of indexed series.
    #[must_use]
    pub fn n_series(&self) -> usize {
        self.data.len().checked_div(self.series_len).unwrap_or(0)
    }

    /// Length of every indexed series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The summarization model in use.
    #[must_use]
    pub fn summarization(&self) -> &S {
        &self.summarization
    }

    /// The build configuration.
    #[must_use]
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The worker pool answering this index's parallel phases. Hand a
    /// clone to other indexes (via [`Index::build_with_pool`]) to share
    /// one set of threads across a whole server.
    #[must_use]
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// Z-normalized series `row` (original row id; storage may be
    /// leaf-permuted internally).
    #[must_use]
    pub fn series(&self, row: usize) -> &[f32] {
        self.series_at_slot(self.row_to_slot[row] as usize)
    }

    /// Word of series `row` (original row id).
    #[must_use]
    pub fn word(&self, row: usize) -> &[u8] {
        self.word_at_slot(self.row_to_slot[row] as usize)
    }

    /// Z-normalized series at storage `slot` (leaf-contiguous order).
    #[inline]
    #[must_use]
    pub(crate) fn series_at_slot(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.series_len..(slot + 1) * self.series_len]
    }

    /// Word at storage `slot`.
    #[inline]
    #[must_use]
    pub(crate) fn word_at_slot(&self, slot: usize) -> &[u8] {
        &self.words[slot * self.word_len..(slot + 1) * self.word_len]
    }

    /// `(transform_seconds, tree_seconds)` measured during the build —
    /// the Figure 7 stacked-bar data.
    #[must_use]
    pub fn build_breakdown(&self) -> (f64, f64) {
        self.build_breakdown
    }

    /// Enables or disables the quantized refine tier at query time,
    /// without a rebuild. Only meaningful when the index was built with
    /// [`IndexConfig::quant_refine`] (otherwise no codes exist and the
    /// funnel is two-stage regardless); results are exact either way.
    pub fn set_quant_refine(&self, on: bool) {
        self.quant_enabled.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether the quantized refine tier is currently consulted by
    /// queries (see [`Index::set_quant_refine`]).
    #[must_use]
    pub fn quant_refine_enabled(&self) -> bool {
        self.quant_enabled.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether this index still serves its storage arenas straight out of
    /// a memory-mapped snapshot ([`Index::open`]). Mutations (inserts,
    /// repacks that move rows) copy-on-write promote the arenas to owned
    /// storage, after which this returns `false`.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped() || self.words.is_mapped()
    }

    /// Checks one query scratch out of the pool (creating it on warm-up).
    pub(crate) fn scratch(&self) -> scratch::ScratchGuard<'_> {
        scratch::ScratchGuard::checkout(&self.scratches, || {
            scratch::QueryScratch::new(self.word_len, self.series_len, self.pool.threads())
        })
    }
}

/// Z-normalizes each `series_len` row of `data` in parallel on the pool.
///
/// The one ingest-normalization implementation shared by the facade and
/// the baselines (the index's own build instead fuses normalization into
/// its transform phase).
///
/// # Panics
/// Panics if `series_len` is zero or the buffer is not a whole number of
/// series (a trailing partial row would otherwise be silently mangled).
pub fn znormalize_rows(data: &mut [f32], series_len: usize, pool: &ExecPool) {
    assert!(series_len > 0, "series length must be positive");
    assert_eq!(data.len() % series_len, 0, "buffer must hold whole series");
    let n_rows = data.len() / series_len;
    let rows_per_chunk = n_rows.div_ceil(pool.threads());
    pool.run(|scope| {
        for chunk in data.chunks_mut(rows_per_chunk.max(1) * series_len) {
            scope.spawn(move || {
                for row in chunk.chunks_mut(series_len) {
                    sofa_simd::znormalize(row);
                }
            });
        }
    });
}
