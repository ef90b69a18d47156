//! The pool implementation: a shared FIFO task queue, persistent worker
//! threads, and caller-participating broadcasts.
//!
//! Synchronization is deliberately simple — one mutex-protected queue
//! plus per-broadcast completion state — because the workspace's lanes
//! are chunky (a data chunk to summarize, a run of subtrees to traverse,
//! a leaf queue to drain): queue traffic is a handful of operations per
//! parallel phase, not per series.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::sync::lock;

/// Completion state shared between one broadcast's queued lanes and its
/// caller. States are pooled (see `ExecPool::checkout_scope`): a
/// completed state is returned to the pool's cache and reused by later
/// broadcasts, so warm broadcasts allocate nothing.
#[derive(Default)]
struct ScopeState {
    /// Queued lanes not yet finished.
    pending: Mutex<usize>,
    /// Signaled when `pending` drops to zero.
    done: Condvar,
    /// First panic payload raised by a queued lane of this broadcast.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// One queued lane of a broadcast: a *borrowed* `Fn(usize) + Sync`
/// closure that lives on the broadcasting caller's stack, the lane to
/// call it with, and the broadcast's completion state. No box, no clone
/// — the queue carries a pointer pair, so a warm [`ExecPool::broadcast`]
/// performs zero heap allocations (the serving path issues two
/// broadcasts per pool-parallel query).
struct Task {
    /// Type-erased `&F`.
    data: *const (),
    /// Monomorphized trampoline reconstructing `&F` and calling it.
    call: unsafe fn(*const (), usize),
    /// Lane index passed to the closure.
    lane: usize,
    /// Completion state of the broadcast this lane belongs to.
    scope: Arc<ScopeState>,
}

// SAFETY: `data` points at a `Sync` closure (enforced by the only
// constructor, `ExecPool::broadcast_limit`, whose `F: Fn(usize) + Sync`
// bound makes `&F` shareable across threads), and the broadcasting
// caller blocks until every lane has executed, so the referent outlives
// every use of the pointer. `call`, `lane` and `scope` are `Send` as is.
unsafe impl Send for Task {}

/// Calls the broadcast closure at `data` for `lane`.
///
/// # Safety
/// `data` must point to a live `F` for the duration of the call.
unsafe fn shared_call<F: Fn(usize) + Sync>(data: *const (), lane: usize) {
    // SAFETY: the caller guarantees `data` points to a live `F`.
    let f = unsafe { &*data.cast::<F>() };
    f(lane);
}

impl Task {
    /// Runs this lane, recording a panic and signaling completion.
    fn execute(self) {
        let Task { data, call, lane, scope } = self;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Chaos hook: lets tests inject a panic or delay into an
            // arbitrary lane. Disarmed cost is one relaxed load; the
            // ignored `Error` action degrades to a no-op here (no error
            // channel).
            let _ = crate::failpoint::fire("sofa-exec::lane");
            // SAFETY: see `Task` — the broadcasting caller keeps the
            // closure alive until this broadcast fully drains.
            unsafe { call(data, lane) }
        }));
        if let Err(payload) = result {
            let mut slot = lock(&scope.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut pending = lock(&scope.pending);
        *pending -= 1;
        if *pending == 0 {
            scope.done.notify_all();
        }
    }
}

/// Queue state guarded by one mutex; `shutdown` tells idle workers to exit.
#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct Inner {
    queue: Mutex<QueueState>,
    /// Signaled when a task is pushed (or shutdown begins).
    available: Condvar,
}

impl Inner {
    /// Removes the first queued lane belonging to `scope`, if any.
    fn pop_scope(&self, scope: &Arc<ScopeState>) -> Option<Task> {
        let mut queue = lock(&self.queue);
        let pos = queue.tasks.iter().position(|t| Arc::ptr_eq(&t.scope, scope))?;
        queue.tasks.remove(pos)
    }

    fn push(&self, task: Task) {
        lock(&self.queue).tasks.push_back(task);
        self.available.notify_one();
    }
}

/// A persistent, shareable worker pool running borrowing closures on
/// every lane.
///
/// Create one per index with [`ExecPool::new`] (or let the index builders
/// do it), or share one across indexes via [`ExecPool::shared`] /
/// `Arc<ExecPool>`. See the crate docs for the execution model.
pub struct ExecPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    lanes: usize,
    /// Completed broadcast states awaiting reuse; keeps warm broadcasts
    /// from allocating a fresh `Arc<ScopeState>` each time.
    scope_cache: Mutex<Vec<Arc<ScopeState>>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("lanes", &self.lanes)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Default for ExecPool {
    /// A pool sized to the machine's available parallelism.
    fn default() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl ExecPool {
    /// Creates a pool providing `threads` parallel lanes (clamped to at
    /// least 1). The calling thread is lane 0 of every broadcast it makes,
    /// so `threads - 1` background workers are spawned; `threads == 1`
    /// spawns none and executes everything on the caller.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let lanes = threads.max(1);
        let inner =
            Arc::new(Inner { queue: Mutex::new(QueueState::default()), available: Condvar::new() });
        let workers = (1..lanes)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sofa-exec-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        ExecPool { inner, workers, lanes, scope_cache: Mutex::new(Vec::new()) }
    }

    /// Pops a reusable broadcast state (or creates the first few). A
    /// cached state is always quiescent: its last broadcast drained fully
    /// (pending 0) and any panic payload was taken before it was returned.
    fn checkout_scope(&self) -> Arc<ScopeState> {
        lock(&self.scope_cache).pop().unwrap_or_default()
    }

    /// Returns a drained broadcast state to the cache for the next one.
    fn return_scope(&self, state: Arc<ScopeState>) {
        debug_assert_eq!(*lock(&state.pending), 0);
        debug_assert!(lock(&state.panic).is_none());
        lock(&self.scope_cache).push(state);
    }

    /// [`ExecPool::new`] wrapped in an [`Arc`], ready to hand to several
    /// indexes.
    #[must_use]
    pub fn shared(threads: usize) -> Arc<Self> {
        Arc::new(Self::new(threads))
    }

    /// Number of parallel lanes (background workers plus the caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.lanes
    }

    /// Runs `f(lane)` once per parallel lane, in parallel; lane 0 executes
    /// on the calling thread. This is the natural shape for the
    /// atomic-counter work loops used by the build and query phases. On a
    /// 1-lane pool this is a plain call with zero synchronization.
    ///
    /// `f` may borrow from the caller's stack frame (like
    /// [`std::thread::scope`]): the call does not return until every lane
    /// has finished. The lanes share that one *borrowed* closure: each
    /// queued lane is a pointer pair into the caller's stack frame rather
    /// than a box, and the completion state comes from the pool's cache —
    /// so a warm broadcast performs **zero heap allocations**, which is
    /// what extends the serving path's zero-allocation guarantee to
    /// queries on several lanes (each query makes two
    /// [`ExecPool::broadcast_limit`] calls, collect and refine, which are
    /// plain calls when it runs on one lane).
    ///
    /// # Panics
    /// Re-raises the first panic from any lane, after all lanes finish
    /// (so borrows stay valid throughout).
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.broadcast_limit(self.lanes, f);
    }

    /// [`ExecPool::broadcast`] over at most `max_lanes` lanes (clamped to
    /// `[1, threads()]`): `f(lane)` runs once for each `lane <
    /// min(threads(), max_lanes)`, lane 0 on the calling thread.
    ///
    /// This is the right-sized dispatch for small work batches — a
    /// micro-batch tick of 3 queries on an 8-lane pool wakes 2 workers,
    /// not 7, so the per-tick synchronization cost scales with the work
    /// actually available rather than with the pool width.
    ///
    /// # Panics
    /// Re-raises the first panic from any lane, after all lanes finish.
    pub fn broadcast_limit<F>(&self, max_lanes: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let lanes = self.lanes.min(max_lanes.max(1));
        if lanes == 1 {
            f(0);
            return;
        }
        let state = self.checkout_scope();
        *lock(&state.pending) = lanes - 1;
        for lane in 1..lanes {
            // SAFETY (erasure): `&f` outlives every use of the pointer —
            // `f(0)` plus `help_until_done` below block until every lane
            // has executed, even when `f(0)` panics; `F: Sync` makes the
            // shared `&F` sound across threads.
            self.inner.push(Task {
                data: (&raw const f).cast::<()>(),
                call: shared_call::<F>,
                lane,
                scope: Arc::clone(&state),
            });
        }
        let result = catch_unwind(AssertUnwindSafe(|| f(0)));
        self.help_until_done(&state);
        let panic = lock(&state.panic).take();
        self.return_scope(state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        if let Err(payload) = result {
            resume_unwind(payload);
        }
    }

    /// Executes this broadcast's queued lanes until none are pending,
    /// then sleeps while the stragglers finish on other threads.
    ///
    /// Only the *waiting broadcast's own* lanes are taken: foreign
    /// broadcasts' lanes are left to the background workers and their own
    /// callers, so a sub-millisecond query sharing the pool with a long
    /// build is never held hostage executing someone else's chunk
    /// (tail-latency isolation). Progress is still guaranteed without
    /// stealing: every blocked caller drains its own broadcast while its
    /// lanes are queued, and only sleeps once they are all running on
    /// live threads — which, by induction over the (finite) nesting
    /// depth, are making progress themselves.
    fn help_until_done(&self, state: &Arc<ScopeState>) {
        loop {
            if *lock(&state.pending) == 0 {
                return;
            }
            if let Some(task) = self.inner.pop_scope(state) {
                task.execute();
                continue;
            }
            // All of this broadcast's lanes are running on other threads.
            // Every lane was queued before `f(0)` ran, so none can be
            // added, and it is safe to sleep until a finishing lane
            // signals `done`; the final decrement takes `pending`'s lock,
            // which we hold here, so the wakeup cannot be lost.
            let pending = lock(&state.pending);
            if *pending > 0 {
                drop(state.done.wait(pending).unwrap_or_else(PoisonError::into_inner));
            }
        }
    }
}

impl Drop for ExecPool {
    /// Graceful shutdown: workers finish any queued lanes, then exit and
    /// are joined. (By construction the queue is empty here: every
    /// broadcast drains its own lanes before returning.)
    fn drop(&mut self) {
        lock(&self.inner.queue).shutdown = true;
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Background worker: pop-execute until shutdown with an empty queue.
fn worker_loop(inner: &Inner) {
    loop {
        let task = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break Some(task);
                }
                if queue.shutdown {
                    break None;
                }
                queue = inner.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match task {
            Some(task) => task.execute(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn lanes_clamped_and_counted() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::new(1).threads(), 1);
        assert_eq!(ExecPool::new(3).threads(), 3);
    }

    #[test]
    fn broadcast_covers_every_lane_once() {
        for threads in [1, 2, 4] {
            let pool = ExecPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(|lane| {
                hits[lane].fetch_add(1, Ordering::Relaxed);
            });
            for (lane, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "lane {lane} with {threads} threads");
            }
        }
    }

    #[test]
    fn broadcast_limit_caps_lane_count() {
        let pool = ExecPool::new(4);
        for (max, expect) in [(0, 1), (1, 1), (3, 3), (4, 4), (9, 4)] {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast_limit(max, |lane| {
                hits[lane].fetch_add(1, Ordering::Relaxed);
            });
            for (lane, h) in hits.iter().enumerate() {
                let want = usize::from(lane < expect);
                assert_eq!(h.load(Ordering::Relaxed), want, "lane {lane} with max {max}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_scopes() {
        let pool = ExecPool::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = ExecPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|lane| {
                if lane == 1 {
                    panic!("task boom");
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task boom");
        // The pool must still execute work afterwards.
        let counter = AtomicUsize::new(0);
        pool.broadcast(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn closure_panic_waits_for_spawned_tasks() {
        // Lane 0 (the caller) panics first: the other lanes only finish
        // once it is panicking, and each must still finish before the
        // panic resumes, because they borrow from the caller's frame.
        let pool = ExecPool::new(4);
        let panicking = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|lane| {
                if lane == 0 {
                    panicking.store(true, Ordering::SeqCst);
                    panic!("closure boom");
                }
                while !panicking.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("closure boom"));
        assert_eq!(finished.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        // Every lane broadcasts again on the same pool, so each worker
        // lane waits on a broadcast of its own while the caller waits on
        // the outer one.
        let pool = ExecPool::new(2);
        let total = AtomicUsize::new(0);
        pool.broadcast(|_| {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shared_pool_serves_concurrent_scopes() {
        // Caller threads here simulate independent clients of one shared
        // pool (the server embedding scenario).
        let pool = ExecPool::shared(2);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let counter = &counter;
                s.spawn(move || {
                    for _ in 0..25 {
                        pool.broadcast(|_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 25 * 2);
    }

    #[test]
    fn waiting_callers_only_run_their_own_scope() {
        // Park the pool's one worker inside a broadcast, so the queued
        // lanes of later broadcasts can only run on caller threads. Each
        // round, two callers' lane 0 meet at a barrier, so both callers'
        // lane 1 sit in the queue when they start helping. Own-broadcast-
        // only helping means each caller runs only its own lane 1:
        // concurrent broadcasts never steal each other's work (the
        // tail-latency isolation guarantee for shared pools).
        let pool = ExecPool::new(2);
        let parked = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let barrier = std::sync::Barrier::new(2);
        let foreign = AtomicUsize::new(0);
        let pause = || std::thread::sleep(std::time::Duration::from_millis(1));
        std::thread::scope(|s| {
            s.spawn(|| {
                pool.broadcast(|_| {
                    parked.fetch_add(1, Ordering::SeqCst);
                    while !release.load(Ordering::SeqCst) {
                        pause();
                    }
                });
            });
            // Both lanes run: the parking caller holds lane 0, so lane 1
            // is on the worker.
            while parked.load(Ordering::SeqCst) < 2 {
                pause();
            }
            std::thread::scope(|callers| {
                for _ in 0..2 {
                    callers.spawn(|| {
                        let me = std::thread::current().id();
                        for _ in 0..50 {
                            pool.broadcast(|lane| {
                                if lane == 0 {
                                    barrier.wait();
                                }
                                if std::thread::current().id() != me {
                                    foreign.fetch_add(1, Ordering::Relaxed);
                                }
                            });
                        }
                    });
                }
            });
            release.store(true, Ordering::SeqCst);
        });
        assert_eq!(foreign.load(Ordering::Relaxed), 0, "lanes run by a foreign caller");
    }

    #[test]
    fn broadcast_panic_propagates_and_scope_state_stays_reusable() {
        let pool = ExecPool::new(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|lane| {
                if lane == 2 {
                    panic!("lane boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker-lane panic must propagate to the caller");
        // The recycled scope state must serve the next broadcast cleanly.
        let counter = AtomicUsize::new(0);
        pool.broadcast(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn sequential_scopes_share_one_cached_state() {
        // The allocation half of the broadcast fast path: after warm-up,
        // every broadcast checks the same state out and back in, a
        // panicking one included.
        let pool = ExecPool::new(2);
        for i in 0..20 {
            pool.broadcast(|_| {});
            pool.broadcast_limit(2, |_| {});
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(|lane| assert!(lane != i % 2, "lane boom"));
            }));
        }
        assert_eq!(lock(&pool.scope_cache).len(), 1);
    }

    #[test]
    fn drop_joins_workers() {
        // Dropping must terminate cleanly even right after heavy use.
        let pool = ExecPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.broadcast(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn debug_and_default() {
        let pool = ExecPool::default();
        assert!(pool.threads() >= 1);
        let s = format!("{pool:?}");
        assert!(s.contains("ExecPool"));
    }
}
