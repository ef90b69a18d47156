//! Micro-batching serving front-end for the SOFA/MESSI indexes.
//!
//! The batch path answers a query for less CPU than the single-query
//! pool path — one pool wake-up per batch instead of two per query, and
//! lanes that each answer whole queries — but only callers who already
//! hold a batch get it. This crate gives *concurrent
//! single-query callers* the batch rate — the FAISS argument that
//! batching is where CPU throughput lives, applied behind a queue:
//!
//! * [`Server`] — callers submit one query each into a ticketed bounded
//!   queue; a collector thread coalesces them into latency-bounded
//!   **ticks** (a fill target or a ~100–250µs window, whichever fills
//!   first), answers the whole tick through the index's batch engine,
//!   and fans results back out through per-ticket slots. Tickets,
//!   queues, tick buffers and result vectors are all pooled, and the
//!   tick itself runs on [`sofa_index::Index::query_batch_into_cancel`]'s pooled
//!   per-lane scratches — so the warm tick path performs no heap
//!   allocation.
//! * [`ShardedIndex`] — N-way row-partitioned sharding with a per-shard
//!   [`sofa_exec::ExecPool`] and a zero-allocation top-k merge through
//!   the existing [`sofa_index::KnnSet`] drain, so one logical index
//!   spans cores (its merged row ids stay global `u32`s). A sharded
//!   index answers bit-identically to an unsharded one over the same
//!   rows: z-normalization is per-row and ties resolve by global row id
//!   in both.
//! * [`TickExec`] — the tick-execution trait connecting the two: any
//!   index shape (plain, sharded, or a custom backend) that can answer
//!   a tick of queries can sit behind a [`Server`].
//! * [`ServeStats`] — per-tick fill, queue depth, ticket-wait and
//!   robustness counters for the `repro --json` observability surface.
//!
//! # Robustness
//!
//! The serving path is built to degrade, not collapse:
//!
//! * **Deadlines** ([`ServeConfig::deadline`]) attach a [`CancelToken`]
//!   to each submission; expired tickets are dropped before tick
//!   formation, and the index's collect/refine loops poll the token at
//!   group-sweep granularity so an in-flight query abandons cleanly.
//!   Cancellation never yields a partial answer — a query completes
//!   exactly or returns [`ServeError::DeadlineExceeded`].
//! * **Load shedding** ([`AdmissionPolicy::Shed`]) rejects submissions
//!   with [`ServeError::Overloaded`] when the queue or the estimated
//!   sojourn exceeds policy, bounding the latency of admitted queries.
//! * **Self-healing ticks** — a panicking executor aborts only its own
//!   tick: the collector retries the tick's tickets one-per-tick to
//!   isolate the offender ([`ServeError::Aborted`]) and keeps serving.
//!   A panicking shard of a [`ShardedIndex`] is such an executor panic:
//!   it fails its tick, and every later tick queries every shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;
mod shard;
mod stats;

pub use server::{AdmissionPolicy, ServeConfig, ServeError, Server, TICK_FAILPOINT};
pub use shard::ShardedIndex;
pub use stats::ServeStats;

pub use sofa_exec::CancelToken;

use sofa_index::{Index, Neighbor, QueryKind};
use sofa_summaries::Summarization;

/// One tick-output slot: the collector hands [`TickExec::run_tick`] one
/// slot per coalesced query and the executor leaves that query's
/// neighbors (best first) in it. The mutex matches the batch engine's
/// lane-claiming writers; slots are pooled and reused across ticks.
pub type ResultSlot = parking_lot::Mutex<Vec<Neighbor>>;

/// An executor that can answer one coalesced tick of queries.
///
/// Implemented by [`sofa_index::Index`] (any summarization, so both
/// SOFA and MESSI trees serve), by [`ShardedIndex`], and by `Arc`s of
/// either — which is how a benchmark or application shares one index
/// between a [`Server`] and direct callers.
pub trait TickExec: Send + Sync + 'static {
    /// Length every query must have.
    fn series_len(&self) -> usize;

    /// How many rows the executor serves, when it knows — used to
    /// validate [`sofa_index::RowFilter`] lengths at admission instead
    /// of mid-tick. Executors that can't say (e.g. test stubs) return
    /// `None` and filtered submissions are validated by the tick itself.
    fn n_rows(&self) -> Option<usize> {
        None
    }

    /// Answers `queries` (row-major, per-query kind `kinds[i]`) into
    /// `outs[i]` (cleared first, best first). A tick may mix kinds
    /// freely — k-NN, filtered k-NN, range and inner-product
    /// submissions coalesce into the same tick. Results use the funnel
    /// encoding of [`QueryKind`] (an `Ip` slot carries scores).
    ///
    /// `cancels` is either empty (no cancellation) or one token per
    /// query; an implementation that honors it must leave a cancelled
    /// query's slot unwritten (the query's token is latched fired
    /// before abandonment, so the caller distinguishes completed from
    /// abandoned slots by `is_cancelled_now`). Implementations that
    /// ignore `cancels` are still correct — the collector re-checks
    /// every token after the tick.
    ///
    /// # Panics
    /// Implementations may panic on malformed input (length not a
    /// multiple of [`TickExec::series_len`], mismatched `kinds`/`outs`
    /// lengths, or an invalid kind). [`Server`] validates every
    /// submission before it can reach a tick and contains executor
    /// panics to the panicking tick, so a panic never takes the server
    /// down.
    fn run_tick(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        cancels: &[CancelToken],
    );
}

impl<S: Summarization + 'static> TickExec for Index<S> {
    fn series_len(&self) -> usize {
        Index::series_len(self)
    }

    fn n_rows(&self) -> Option<usize> {
        Some(self.n_series())
    }

    fn run_tick(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        cancels: &[CancelToken],
    ) {
        self.query_batch_into_cancel(queries, kinds, outs, cancels).expect("server-validated tick");
    }
}

impl<S: Summarization + 'static> TickExec for ShardedIndex<S> {
    fn series_len(&self) -> usize {
        ShardedIndex::series_len(self)
    }

    fn n_rows(&self) -> Option<usize> {
        Some(self.n_series())
    }

    fn run_tick(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        cancels: &[CancelToken],
    ) {
        self.query_tick_cancel(queries, kinds, outs, cancels).expect("server-validated tick");
    }
}

impl<T: TickExec + ?Sized> TickExec for std::sync::Arc<T> {
    fn series_len(&self) -> usize {
        (**self).series_len()
    }

    fn n_rows(&self) -> Option<usize> {
        (**self).n_rows()
    }

    fn run_tick(
        &self,
        queries: &[f32],
        kinds: &[QueryKind],
        outs: &[ResultSlot],
        cancels: &[CancelToken],
    ) {
        (**self).run_tick(queries, kinds, outs, cancels);
    }
}
