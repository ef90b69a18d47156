//! Persistent worker-pool runtime for the SOFA stack.
//!
//! Every parallel phase of the reproduction — index construction, the
//! collect/refine stages of exact query answering, the baseline scans,
//! and the batch query surface — used to spawn fresh scoped threads on
//! each call. Thread creation costs tens of microseconds per worker,
//! which is invisible next to a billion-series build but dominates the
//! sub-millisecond query latencies the paper measures ("in less than a
//! blink of an eye") and caps the QPS a server embedding the index can
//! sustain.
//!
//! [`ExecPool`] replaces that pattern with a fixed set of worker threads
//! created once per index (or shared between indexes) and reused across
//! all calls:
//!
//! * [`ExecPool::broadcast`] runs one closure once per parallel lane —
//!   the one way onto the pool, and the shape of the atomic-counter work
//!   loops of the build and query phases. The closure may borrow from
//!   the caller's stack (like [`std::thread::scope`]): the call does not
//!   return until every lane has finished.
//!   [`ExecPool::broadcast_limit`] caps the lane count for small batches.
//! * The calling thread *participates*: it runs lane 0 itself and then
//!   executes its own broadcast's still-queued lanes, so a pool of `t`
//!   threads provides `t` parallel lanes using `t - 1` background
//!   workers, a 1-lane pool degenerates to a plain call with no
//!   synchronization, and a lane that broadcasts again cannot deadlock
//!   (a blocked caller keeps draining its own lanes instead of sleeping
//!   while some are queued). Waiting callers never execute *other*
//!   broadcasts' lanes, so a short query sharing the pool with a long
//!   build keeps its latency.
//! * Panics inside lanes are caught, the broadcast is still drained, and
//!   the first payload is re-thrown on the caller — the same observable
//!   behavior as a panicking scoped thread.
//! * Dropping the pool signals shutdown and joins the workers.
//!
//! Multiple caller threads may broadcast on one shared pool
//! concurrently; lanes from all broadcasts interleave on the same queue
//! ("work-stealing-lite": one shared injector queue, chunky lanes, no
//! per-worker deques).
//!
//! # Safety
//!
//! This crate is not `#![forbid(unsafe_code)]`: handing a borrowing
//! closure to a *persistent* thread requires erasing its lifetime,
//! exactly as `crossbeam`/`rayon` do internally. The one erasure is the
//! broadcast task in `pool.rs`: each queued lane carries a raw pointer to
//! the caller's `Fn(usize) + Sync` closure, and
//! [`ExecPool::broadcast_limit`] blocks until every lane has run — even
//! when lane 0 panics — so the pointer never outlives the closure. See
//! the safety comments at `Task` and at the push.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod failpoint;
mod pool;
pub mod sync;

pub use pool::ExecPool;
pub use sync::{install_panic_note_hook, CancelToken};
