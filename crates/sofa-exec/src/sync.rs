//! Small synchronization utilities shared across the workspace.
//!
//! [`lock`] is the poison-recovering mutex helper that used to be
//! duplicated in `sofa-exec::pool`, `sofa-serve::server`, and
//! `sofa-serve::shard`; every crate that runs user closures under a
//! mutex needs it, because a panicking closure must not wedge the
//! runtime behind [`std::sync::PoisonError`].
//!
//! [`CancelToken`] is the cooperative-cancellation handle threaded from
//! the serving layer through `TickExec` into the index's collect/refine
//! loops. It is deliberately tiny — a shared flag plus an optional
//! deadline — so hot loops can poll it at group-sweep granularity for
//! the cost of one relaxed atomic load (the common case) and an
//! occasional `Instant::now()`.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::Instant;

/// Locks a mutex, recovering the guard if a previous holder panicked
/// (tasks run user closures; a poisoned lock must not wedge the runtime).
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs (once, process-wide) a panic-hook note that prefixes every
/// panic report with the panicking thread's name.
///
/// Pool workers are named `sofa-exec-{i}` and the serve collector
/// `sofa-serve-collector`, so with this hook a chaos-test backtrace
/// identifies the failing lane even when the payload itself is opaque.
/// The previous hook is chained, not replaced, and repeated calls are
/// no-ops.
pub fn install_panic_note_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let thread = std::thread::current();
            eprintln!("[sofa] panic in thread '{}'", thread.name().unwrap_or("<unnamed>"));
            prev(info);
        }));
    });
}

/// How often a polling loop consults the wall clock.
///
/// Deadline checks cost an `Instant::now()` syscall-ish read; group
/// sweeps are sub-microsecond. Polling time every call would double the
/// cost of short sweeps, so [`CancelToken::is_cancelled`] amortizes the
/// clock read over this many flag-only polls.
const DEADLINE_POLL_STRIDE: u32 = 16;

/// Shared cancellation state: flag + optional absolute deadline.
#[derive(Debug, Default)]
struct CancelState {
    /// Set by [`CancelToken::cancel`]; checked (relaxed) by every poll.
    flag: AtomicBool,
    /// Absolute expiry; `None` means no deadline.
    deadline: Option<Instant>,
    /// Poll counter driving the deadline-check stride; shared across
    /// clones (one clone per query, polled by whichever lane runs it).
    polls: AtomicU32,
}

/// A cooperative cancellation token: a shared `AtomicBool` plus an
/// optional deadline.
///
/// Clones share the same state. Cancellation is *cooperative* — workers
/// poll [`CancelToken::is_cancelled`] at natural checkpoints (group
/// sweeps, queue drains) and abandon the work when it fires.
/// Cancellation never yields a partial answer: the worker either
/// completes the work exactly or abandons it whole. Because any
/// abandonment latches the fired flag first, an issuer that observes
/// `!is_cancelled_now()` *after* the worker returned knows the answer
/// in the output slot is complete and exact.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl CancelToken {
    /// A token with no deadline; fires only on explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that also fires once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { state: Arc::new(CancelState { deadline: Some(deadline), ..CancelState::default() }) }
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.state.flag.store(true, Ordering::Relaxed);
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline
    }

    /// Cheap poll: has this token fired?
    ///
    /// Always reads the shared flag (one relaxed load); consults the
    /// clock only every `DEADLINE_POLL_STRIDE` (16) calls, latching the
    /// flag when the deadline has passed so subsequent polls (and other
    /// clones) see it without re-reading time.
    pub fn is_cancelled(&self) -> bool {
        if self.state.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.state.deadline {
            let polls = self.state.polls.fetch_add(1, Ordering::Relaxed);
            if polls % DEADLINE_POLL_STRIDE == 0 && Instant::now() >= deadline {
                self.state.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Non-amortized check: reads the clock immediately if a deadline is
    /// set. For cold paths (admission, pre-tick triage) where one clock
    /// read is irrelevant and latched staleness is not acceptable.
    pub fn is_cancelled_now(&self) -> bool {
        if self.state.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.state.deadline {
            if Instant::now() >= deadline {
                self.state.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7usize));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        assert!(b.is_cancelled());
    }

    #[test]
    fn deadline_fires_and_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        // Non-amortized path sees the expiry immediately.
        assert!(t.is_cancelled_now());
        // And the latch makes the cheap path see it on the very next poll.
        assert!(t.clone().is_cancelled());
    }

    #[test]
    fn amortized_poll_eventually_sees_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let mut fired = false;
        for _ in 0..(2 * DEADLINE_POLL_STRIDE as usize) {
            if t.is_cancelled() {
                fired = true;
                break;
            }
        }
        assert!(fired);
    }

    #[test]
    fn no_deadline_never_fires_without_cancel() {
        let t = CancelToken::new();
        for _ in 0..100 {
            assert!(!t.is_cancelled());
        }
        assert!(!t.is_cancelled_now());
    }
}
