//! Runtime-registered named failpoints for chaos testing.
//!
//! A *failpoint* is a named hook compiled into a hot path — the serve
//! collector loop, the pool worker lanes, the refine funnel — that does
//! nothing in production but can be armed at runtime by a test or the
//! `ext-chaos` experiment to panic, sleep, or return an error at that
//! exact site. This is how the robustness layer (per-tick containment
//! and solo retry, deadline shedding) is exercised deterministically
//! instead of hoping a real fault shows up.
//!
//! The cost when disarmed is two relaxed atomic loads and a predictable
//! not-taken branch ([`fire`] checks the armed counts before touching
//! the registry mutex), so the hooks can live inside per-tick and
//! per-leaf loops.
//!
//! [`arm`] is process-global: any thread that reaches the site fires it,
//! which is what cross-thread sites (the serve tick, pool lanes) need.
//! A site that fires on the calling thread — the snapshot writer — is
//! better armed with [`arm_local`], which fires only on the arming
//! thread, so concurrent tests cannot consume each other's fires.
//!
//! ```
//! use sofa_exec::failpoint;
//! use std::time::Duration;
//!
//! failpoint::arm("doc::slow", failpoint::FailAction::Sleep(Duration::from_micros(1)), Some(1));
//! assert!(failpoint::fire("doc::slow").is_ok()); // slept once, then disarmed
//! assert!(failpoint::fire("doc::slow").is_ok()); // no-op
//! failpoint::clear_all();
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::sync::lock;

/// What an armed failpoint does when [`fire`]d.
#[derive(Clone, Debug)]
pub enum FailAction {
    /// Panic with a message naming the failpoint (exercises containment).
    Panic,
    /// Sleep for the given duration (exercises deadlines / shedding).
    Sleep(Duration),
    /// Return [`FailpointError`] from [`fire`] (exercises error paths).
    /// At call sites with no error channel the result is ignored and
    /// this action degrades to a no-op.
    Error,
}

/// The error produced by an armed [`FailAction::Error`] failpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailpointError {
    /// Name of the failpoint that fired.
    pub name: String,
}

impl fmt::Display for FailpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failpoint '{}' fired", self.name)
    }
}

impl std::error::Error for FailpointError {}

/// One armed failpoint: its action and an optional remaining-hit budget.
struct Armed {
    action: FailAction,
    /// `None` = fire every time; `Some(n)` = fire `n` more times, then
    /// auto-disarm (so "panic exactly one tick" needs no cleanup race).
    remaining: Option<usize>,
}

/// Number of globally armed failpoints; the [`fire`] fast path.
static ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Number of thread-scoped failpoints armed on any thread; the other
/// half of the [`fire`] fast path.
static LOCAL_ARMED_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Name → armed action, for this thread only (see [`arm_local`]).
    static LOCAL: RefCell<HashMap<String, Armed>> = RefCell::new(HashMap::new());
}

/// Name → armed action. Touched only when `ARMED_COUNT > 0` or by the
/// arm/clear management calls.
static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();

fn registry() -> &'static Mutex<HashMap<String, Armed>> {
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms failpoint `name` with `action`. `times` limits how many fires
/// trigger before the point auto-disarms (`None` = unlimited). Re-arming
/// an armed point replaces its action and budget.
pub fn arm(name: &str, action: FailAction, times: Option<usize>) {
    let mut map = lock(registry());
    let prev = map.insert(name.to_string(), Armed { action, remaining: times });
    if prev.is_none() {
        ARMED_COUNT.fetch_add(1, Ordering::Release);
    }
}

/// Disarms failpoint `name` (no-op if not armed).
pub fn clear(name: &str) {
    let mut map = lock(registry());
    if map.remove(name).is_some() {
        ARMED_COUNT.fetch_sub(1, Ordering::Release);
    }
}

/// Disarms every failpoint. Tests should call this on exit so a
/// panicking assertion cannot leave a trap armed for the next test.
pub fn clear_all() {
    let mut map = lock(registry());
    let n = map.len();
    map.clear();
    ARMED_COUNT.fetch_sub(n, Ordering::Release);
}

/// A failpoint armed for the current thread only; dropping the guard
/// disarms it (if its budget has not already). Returned by [`arm_local`].
/// Not `Send`: the entry lives in the arming thread's registry.
#[must_use = "dropping the guard disarms the failpoint"]
pub struct LocalFailpoint {
    name: String,
    _not_send: PhantomData<*const ()>,
}

/// Arms failpoint `name` with `action` for the calling thread only: a
/// [`fire`] on any other thread ignores it, so parallel tests that reach
/// the same site cannot consume or trigger each other's fires. `times`
/// and re-arming behave as in [`arm`]. The point stays armed until its
/// budget runs out or the returned guard drops.
pub fn arm_local(name: &str, action: FailAction, times: Option<usize>) -> LocalFailpoint {
    let prev =
        LOCAL.with(|m| m.borrow_mut().insert(name.to_string(), Armed { action, remaining: times }));
    if prev.is_none() {
        LOCAL_ARMED_COUNT.fetch_add(1, Ordering::Release);
    }
    LocalFailpoint { name: name.to_string(), _not_send: PhantomData }
}

impl Drop for LocalFailpoint {
    fn drop(&mut self) {
        if LOCAL.with(|m| m.borrow_mut().remove(&self.name)).is_some() {
            LOCAL_ARMED_COUNT.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Fires failpoint `name`: a no-op branch unless some failpoint is
/// armed. A point armed for this thread ([`arm_local`]) takes precedence
/// over a global one ([`arm`]). Panics on [`FailAction::Panic`], sleeps
/// on [`FailAction::Sleep`], returns `Err` on [`FailAction::Error`].
#[inline]
pub fn fire(name: &str) -> Result<(), FailpointError> {
    if ARMED_COUNT.load(Ordering::Acquire) == 0 && LOCAL_ARMED_COUNT.load(Ordering::Acquire) == 0 {
        return Ok(());
    }
    fire_slow(name)
}

/// Takes one hit of `name` from `map`: its action, or `None` when it is
/// not armed there. An exhausted budget removes the entry and decrements
/// `count`.
fn take_hit(
    map: &mut HashMap<String, Armed>,
    name: &str,
    count: &AtomicUsize,
) -> Option<FailAction> {
    let armed = map.get_mut(name)?;
    match &mut armed.remaining {
        Some(0) => None,
        Some(n) => {
            *n -= 1;
            let action = armed.action.clone();
            if *n == 0 {
                map.remove(name);
                count.fetch_sub(1, Ordering::Release);
            }
            Some(action)
        }
        None => Some(armed.action.clone()),
    }
}

#[cold]
fn fire_slow(name: &str) -> Result<(), FailpointError> {
    let local = LOCAL.with(|m| take_hit(&mut m.borrow_mut(), name, &LOCAL_ARMED_COUNT));
    let action = match local {
        Some(action) => action,
        None => match take_hit(&mut lock(registry()), name, &ARMED_COUNT) {
            Some(action) => action,
            None => return Ok(()),
        },
    };
    match action {
        FailAction::Panic => panic!("failpoint '{name}' fired: injected panic"),
        FailAction::Sleep(d) => {
            std::thread::sleep(d);
            Ok(())
        }
        FailAction::Error => Err(FailpointError { name: name.to_string() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Failpoint state is process-global; keep every scenario in one test
    // so parallel test threads cannot observe each other's armed points.
    #[test]
    fn failpoint_lifecycle() {
        // Disarmed: pure no-op.
        assert!(fire("fp::unarmed").is_ok());

        // Error action with a 2-hit budget, then auto-disarm.
        arm("fp::err", FailAction::Error, Some(2));
        assert!(fire("fp::err").is_err());
        assert!(fire("fp::err").is_err());
        assert!(fire("fp::err").is_ok());

        // Unlimited error until cleared; other names unaffected.
        arm("fp::forever", FailAction::Error, None);
        assert!(fire("fp::forever").is_err());
        assert!(fire("fp::other").is_ok());
        assert!(fire("fp::forever").is_err());
        clear("fp::forever");
        assert!(fire("fp::forever").is_ok());

        // Panic action is catchable and auto-disarms after its budget.
        arm("fp::boom", FailAction::Panic, Some(1));
        let caught = std::panic::catch_unwind(|| fire("fp::boom"));
        assert!(caught.is_err());
        assert!(fire("fp::boom").is_ok());

        // Sleep action completes and returns Ok.
        arm("fp::nap", FailAction::Sleep(Duration::from_micros(10)), Some(1));
        let t0 = std::time::Instant::now();
        assert!(fire("fp::nap").is_ok());
        assert!(t0.elapsed() >= Duration::from_micros(10));

        clear_all();
        assert_eq!(ARMED_COUNT.load(Ordering::Acquire), 0);
    }

    #[test]
    fn local_arming_fires_only_on_the_arming_thread() {
        let name = "fp::local";
        let guard = arm_local(name, FailAction::Error, None);
        // Another thread reaching the same site is untouched...
        let other = std::thread::spawn(move || fire(name).is_ok()).join().expect("join");
        assert!(other, "a thread-scoped failpoint fired on another thread");
        // ...and the arming thread still fires.
        assert!(fire(name).is_err());
        drop(guard);
        assert!(fire(name).is_ok());

        // A budgeted local point auto-disarms; its guard then drops clean.
        let guard = arm_local(name, FailAction::Error, Some(1));
        assert!(fire(name).is_err());
        assert!(fire(name).is_ok());
        drop(guard);
    }
}
