//! The pool implementation: a shared FIFO task queue, persistent worker
//! threads, and caller-participating scopes.
//!
//! Synchronization is deliberately simple — one mutex-protected queue
//! plus per-scope completion state — because the workspace's tasks are
//! chunky (a data chunk to summarize, a subtree to traverse, a leaf
//! queue to drain): queue traffic is a handful of operations per parallel
//! phase, not per series.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::sync::lock;

/// A lifetime-erased unit of work. The erasure is sound because the
/// [`Scope`] that spawned it keeps its `run` caller blocked until the
/// task has executed (see [`Scope::spawn`]).
type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// A *borrowed* broadcast task: one lane's invocation of a shared
/// `Fn(usize) + Sync` closure that lives on the broadcasting caller's
/// stack. No box, no clone — the queue carries only this pointer pair, so
/// a warm [`ExecPool::broadcast`] performs zero heap allocations (the
/// serving path issues two broadcasts per pool-parallel query).
struct SharedTask {
    /// Type-erased `&F`.
    data: *const (),
    /// Monomorphized trampoline reconstructing `&F` and calling it.
    call: unsafe fn(*const (), usize),
    /// Lane index passed to the closure.
    lane: usize,
}

// SAFETY: `data` points at a `Sync` closure (enforced by the only
// constructor, `ExecPool::broadcast`, whose `F: Fn(usize) + Sync` bound
// makes `&F` shareable across threads), and the broadcasting caller
// blocks until every lane has executed, so the referent outlives every
// use of the pointer.
unsafe impl Send for SharedTask {}

/// Calls the broadcast closure at `data` for `lane`.
///
/// # Safety
/// `data` must point to a live `F` for the duration of the call.
unsafe fn shared_call<F: Fn(usize) + Sync>(data: *const (), lane: usize) {
    let f = unsafe { &*data.cast::<F>() };
    f(lane);
}

/// The payload of one queued task.
enum TaskBody {
    /// An owned, lifetime-erased closure ([`Scope::spawn`]).
    Boxed(TaskFn),
    /// One lane of a borrowed broadcast closure ([`ExecPool::broadcast`]).
    Shared(SharedTask),
}

/// Completion state shared between one scope's tasks and its `run` caller.
/// States are pooled (see `ExecPool::checkout_scope`): a completed state
/// is returned to the pool's cache and reused by later scopes, so warm
/// broadcasts allocate nothing.
#[derive(Default)]
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: Mutex<usize>,
    /// Signaled when `pending` drops to zero.
    done: Condvar,
    /// First panic payload raised by a task of this scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    /// Runs one task body, recording a panic and signaling completion.
    fn execute(self: &Arc<Self>, body: TaskBody) {
        // Chaos hook: lets tests inject a panic or delay into an
        // arbitrary lane. Disarmed cost is one relaxed load; the ignored
        // `Error` action degrades to a no-op here (no error channel).
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = crate::failpoint::fire("sofa-exec::lane");
        }))
        .and_then(|()| match body {
            TaskBody::Boxed(func) => catch_unwind(AssertUnwindSafe(func)),
            // SAFETY: see `SharedTask` — the broadcasting caller keeps
            // the closure alive until this scope fully drains.
            TaskBody::Shared(task) => {
                catch_unwind(AssertUnwindSafe(|| unsafe { (task.call)(task.data, task.lane) }))
            }
        });
        if let Err(payload) = result {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// One queued task: the body plus its scope's completion state.
struct Task {
    body: TaskBody,
    scope: Arc<ScopeState>,
}

impl Task {
    fn execute(self) {
        let scope = self.scope;
        scope.execute(self.body);
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
    /// Removes the first queued task belonging to `scope`, if any.
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

/// A persistent, shareable worker pool with scoped-borrow-safe execution.
///
/// Create one per index with [`ExecPool::new`] (or let the index builders
/// do it), or share one across indexes via [`ExecPool::shared`] /
/// `Arc<ExecPool>`. See the crate docs for the execution model.
pub struct ExecPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    lanes: usize,
    /// Completed scope states awaiting reuse; keeps warm `run`/`broadcast`
    /// calls from allocating a fresh `Arc<ScopeState>` each time.
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
    /// least 1). The calling thread participates in every scope it runs,
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

    /// Pops a reusable scope state (or creates the first few). A cached
    /// state is always quiescent: its last scope drained fully (pending
    /// 0) and any panic payload was taken before it was returned.
    fn checkout_scope(&self) -> Arc<ScopeState> {
        lock(&self.scope_cache).pop().unwrap_or_default()
    }

    /// Returns a drained scope state to the cache for the next scope.
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

    /// Opens a scope: `f` receives a [`Scope`] whose
    /// [`spawn`](Scope::spawn)ed closures may borrow from the enclosing
    /// stack frame. Does not return until `f` and every spawned task have
    /// finished; the calling thread executes this scope's queued tasks
    /// while it waits (never other scopes' — see `help_until_done`).
    ///
    /// # Panics
    /// Re-raises the first panic from `f` or any spawned task, after the
    /// scope has fully drained (so borrows stay valid throughout).
    pub fn run<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope = Scope { pool: self, state: self.checkout_scope(), _scope: PhantomData };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until_done(&scope.state);
        let panic = lock(&scope.state.panic).take();
        self.return_scope(scope.state);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Runs `f(lane)` once per parallel lane, in parallel; lane 0 executes
    /// on the calling thread. This is the natural shape for the
    /// atomic-counter work loops used by the build and query phases. On a
    /// 1-lane pool this is a plain call with zero synchronization.
    ///
    /// Unlike [`ExecPool::run`], the lanes share one *borrowed* closure:
    /// each queued task is a pre-sized pointer pair into the caller's
    /// stack frame rather than a fresh box, and the scope state comes
    /// from the pool's cache — so a warm broadcast performs **zero heap
    /// allocations**, which is what extends the serving path's
    /// zero-allocation guarantee to queries on several lanes (each query
    /// makes two [`ExecPool::broadcast_limit`] calls, collect and refine,
    /// which are plain calls when it runs on one lane).
    ///
    /// # Panics
    /// Re-raises the first panic from any lane, after all lanes finish.
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
            // SAFETY (erasure): `&f` outlives this call — `f(0)` plus
            // `help_until_done` below block until every lane has
            // executed, mirroring the `Scope::spawn` argument; `F: Sync`
            // makes the shared `&F` sound across threads.
            self.inner.push(Task {
                body: TaskBody::Shared(SharedTask {
                    data: (&raw const f).cast::<()>(),
                    call: shared_call::<F>,
                    lane,
                }),
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

    /// Executes this scope's queued tasks until none are pending, then
    /// sleeps while the stragglers finish on other threads.
    ///
    /// Only the *waiting scope's own* tasks are taken: foreign scopes'
    /// tasks are left to the background workers and their own callers, so
    /// a sub-millisecond query sharing the pool with a long build is
    /// never held hostage executing someone else's chunk (tail-latency
    /// isolation). Progress is still guaranteed without stealing: every
    /// blocked `run` caller drains its own scope while its tasks are
    /// queued, and only sleeps once they are all running on live threads
    /// — which, by induction over the (finite) nesting depth, are making
    /// progress themselves.
    fn help_until_done(&self, state: &Arc<ScopeState>) {
        loop {
            if *lock(&state.pending) == 0 {
                return;
            }
            if let Some(task) = self.inner.pop_scope(state) {
                task.execute();
                continue;
            }
            // All of this scope's tasks are running on other threads. No
            // new task of this scope can be enqueued anymore (spawning
            // ended when the scope closure returned), so it is safe to
            // sleep until a finishing task signals `done`; the final
            // decrement takes `pending`'s lock, which we hold here, so
            // the wakeup cannot be lost.
            let pending = lock(&state.pending);
            if *pending > 0 {
                drop(state.done.wait(pending).unwrap_or_else(PoisonError::into_inner));
            }
        }
    }
}

impl Drop for ExecPool {
    /// Graceful shutdown: workers finish any queued tasks, then exit and
    /// are joined. (By construction the queue is empty here: every `run`
    /// drains its own scope before returning.)
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

/// A live scope handle passed to the closure of [`ExecPool::run`].
///
/// `'scope` is invariant (see the `PhantomData` field): everything a
/// spawned closure borrows must outlive the whole `run` call, which is
/// what makes the lifetime erasure in [`Scope::spawn`] sound.
pub struct Scope<'pool, 'scope> {
    pool: &'pool ExecPool,
    state: Arc<ScopeState>,
    /// Invariant in `'scope` so the compiler cannot shrink it to a region
    /// inside the scope closure's body.
    _scope: PhantomData<std::cell::Cell<&'scope ()>>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Queues `f` for execution on the pool. The closure may borrow
    /// anything that lives at least `'scope` — in particular locals of
    /// the stack frame that called [`ExecPool::run`].
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        *lock(&self.state.pending) += 1;
        let func: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the only consumer of `func` is `Task::execute`, which
        // runs before the enclosing `ExecPool::run` returns: `run` calls
        // `help_until_done`, which blocks until this scope's `pending`
        // count — incremented above — reaches zero, and the count is only
        // decremented after the closure has been consumed. `'scope` is a
        // generic lifetime parameter of `run` (held invariant by the
        // marker field), so every borrow inside `f` outlives the entire
        // `run` call and is therefore live whenever the closure executes.
        // Extending the lifetime bound to `'static` changes no data, only
        // the type-level bound; `Box<dyn FnOnce() + Send>` has the same
        // layout for both lifetimes.
        let func: TaskFn = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(func)
        };
        self.pool.inner.push(Task { body: TaskBody::Boxed(func), scope: Arc::clone(&self.state) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn lanes_clamped_and_counted() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::new(1).threads(), 1);
        assert_eq!(ExecPool::new(3).threads(), 3);
    }

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = ExecPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.run(|scope| {
            for _ in 0..32 {
                let counter = &counter;
                scope.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn scope_mutable_chunks() {
        // The build-phase shape: disjoint &mut chunks processed in
        // parallel.
        let pool = ExecPool::new(3);
        let mut data = vec![0u64; 30];
        pool.run(|scope| {
            for (i, chunk) in data.chunks_mut(10).enumerate() {
                scope.spawn(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = (i * 10 + j) as u64;
                    }
                });
            }
        });
        let expect: Vec<u64> = (0..30).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn run_returns_value() {
        let pool = ExecPool::new(2);
        let x = pool.run(|_| 41) + 1;
        assert_eq!(x, 42);
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
            pool.run(|scope| {
                scope.spawn(|| panic!("task boom"));
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
        let pool = ExecPool::new(2);
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|scope| {
                for _ in 0..8 {
                    let finished = &finished;
                    scope.spawn(move || {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("closure boom");
            });
        }));
        assert!(caught.is_err());
        // All tasks ran to completion before the panic resumed.
        assert_eq!(finished.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = ExecPool::new(2);
        let total = AtomicUsize::new(0);
        pool.run(|outer| {
            for _ in 0..4 {
                let pool = &pool;
                let total = &total;
                outer.spawn(move || {
                    pool.run(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
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
        // On a 0-worker pool, tasks can only execute on caller threads.
        // Own-scope-only helping means each caller's tasks run on that
        // caller — concurrent scopes never steal each other's work (the
        // tail-latency isolation guarantee for shared pools).
        let pool = ExecPool::new(1);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pool = &pool;
                s.spawn(move || {
                    let me = std::thread::current().id();
                    for _ in 0..50 {
                        pool.run(|scope| {
                            scope.spawn(move || {
                                assert_eq!(
                                    std::thread::current().id(),
                                    me,
                                    "task executed by a foreign caller"
                                );
                            });
                        });
                    }
                });
            }
        });
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
        // every run/broadcast checks the same state out and back in.
        let pool = ExecPool::new(2);
        for _ in 0..20 {
            pool.broadcast(|_| {});
            pool.run(|scope| scope.spawn(|| {}));
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
