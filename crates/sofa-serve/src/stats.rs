//! Coalescer observability: lock-free counters updated by submitters
//! and the collector, snapshotted on demand.
//!
//! These are the serving-side companions to
//! [`sofa_index::IndexStats`]'s per-query counters: the index reports
//! how much *pruning work* each query cost, this reports how well the
//! front-end *amortized* that work (tick fill), what the queueing added
//! on top (depth, ticket sojourn), and how the robustness layer behaved
//! (shed / expired / aborted counts, sojourn percentiles).

use sofa_exec::sync::lock;
use sofa_stats::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Sojourn histogram domain: `log10(sojourn_us + 1)` over `[0, 7]` —
/// 1µs to 10s at ~12% relative resolution with 140 equi-width bins.
const SOJOURN_LOG_LO: f64 = 0.0;
const SOJOURN_LOG_HI: f64 = 7.0;
const SOJOURN_BINS: usize = 140;

/// Internal counters; [`StatCounters::snapshot`] renders them as a
/// [`ServeStats`].
pub(crate) struct StatCounters {
    ticks: AtomicU64,
    /// Sum of tick fills (answered or not) — the coalescing numerator.
    coalesced: AtomicU64,
    /// Tickets answered exactly (outcome Done).
    queries: AtomicU64,
    max_fill: AtomicU64,
    max_depth: AtomicU64,
    wait_us_sum: AtomicU64,
    wait_us_max: AtomicU64,
    /// Tick execution time — drives the admission sojourn estimate.
    tick_us_sum: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    aborted: AtomicU64,
    /// Completed-ticket sojourns in `log10(us + 1)`; collector-only
    /// writes, so the mutex is uncontended on the serve path.
    sojourn: Mutex<Histogram>,
}

impl Default for StatCounters {
    fn default() -> Self {
        StatCounters {
            ticks: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            max_fill: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            wait_us_sum: AtomicU64::new(0),
            wait_us_max: AtomicU64::new(0),
            tick_us_sum: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            sojourn: Mutex::new(Histogram::new(SOJOURN_LOG_LO, SOJOURN_LOG_HI, SOJOURN_BINS)),
        }
    }
}

impl StatCounters {
    /// Records one dispatched tick that coalesced `fill` queries and
    /// executed in `exec` (solo containment retries are not ticks).
    pub(crate) fn note_tick(&self, fill: u64, exec: Duration) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(fill, Ordering::Relaxed);
        self.max_fill.fetch_max(fill, Ordering::Relaxed);
        let us = u64::try_from(exec.as_micros()).unwrap_or(u64::MAX);
        self.tick_us_sum.fetch_add(us, Ordering::Relaxed);
    }

    /// Records the queue depth observed right after a submission.
    pub(crate) fn note_depth(&self, depth: u64) {
        self.max_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records one answered ticket's enqueue-to-completion sojourn.
    pub(crate) fn note_done(&self, sojourn: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let us = u64::try_from(sojourn.as_micros()).unwrap_or(u64::MAX);
        self.wait_us_sum.fetch_add(us, Ordering::Relaxed);
        self.wait_us_max.fetch_max(us, Ordering::Relaxed);
        lock(&self.sojourn).add(((us as f64) + 1.0).log10());
    }

    /// Records one submission rejected at admission.
    pub(crate) fn note_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one ticket answered `DeadlineExceeded`.
    pub(crate) fn note_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one ticket aborted by tick containment.
    pub(crate) fn note_aborted(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Estimated sojourn (µs) of a submission that would queue behind
    /// `pending` others, from the mean tick execution time so far:
    /// the new ticket waits for the backlog's ticks plus its own.
    /// `None` until the first tick completes (nothing to estimate
    /// from — admission must not shed on no data).
    pub(crate) fn estimated_sojourn_us(&self, pending: usize, fill_target: usize) -> Option<f64> {
        let ticks = self.ticks.load(Ordering::Relaxed);
        if ticks == 0 {
            return None;
        }
        let mean_tick_us = self.tick_us_sum.load(Ordering::Relaxed) as f64 / ticks as f64;
        let ticks_ahead = 1.0 + pending as f64 / fill_target.max(1) as f64;
        Some(mean_tick_us * ticks_ahead)
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let ticks = self.ticks.load(Ordering::Relaxed);
        let coalesced = self.coalesced.load(Ordering::Relaxed);
        let queries = self.queries.load(Ordering::Relaxed);
        let wait_us_sum = self.wait_us_sum.load(Ordering::Relaxed);
        let (p50, p99) = {
            let hist = lock(&self.sojourn);
            (percentile_us(&hist, 0.50), percentile_us(&hist, 0.99))
        };
        ServeStats {
            ticks,
            queries,
            max_tick_fill: self.max_fill.load(Ordering::Relaxed),
            mean_tick_fill: if ticks == 0 { 0.0 } else { coalesced as f64 / ticks as f64 },
            max_queue_depth: self.max_depth.load(Ordering::Relaxed),
            mean_ticket_wait_us: if queries == 0 {
                0.0
            } else {
                wait_us_sum as f64 / queries as f64
            },
            max_ticket_wait_us: self.wait_us_max.load(Ordering::Relaxed),
            p50_sojourn_us: p50,
            p99_sojourn_us: p99,
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
        }
    }
}

/// Reads percentile `q` out of the log-µs histogram: first bin whose
/// cumulative count reaches `q * total`, decoded back to microseconds.
/// Resolution is the bin width (~12% relative), which is plenty for a
/// p99-vs-deadline bound.
fn percentile_us(hist: &Histogram, q: f64) -> f64 {
    let total = hist.total();
    if total == 0 {
        return 0.0;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let centers = hist.centers();
    let mut cum = 0u64;
    for (count, center) in hist.counts().iter().zip(&centers) {
        cum += count;
        if cum >= target {
            return 10f64.powf(*center) - 1.0;
        }
    }
    10f64.powf(SOJOURN_LOG_HI) - 1.0
}

/// A point-in-time snapshot of one [`crate::Server`]'s coalescing and
/// robustness behavior since start.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Ticks dispatched (batch calls into the executor; containment
    /// retries after a panic are not counted as ticks).
    pub ticks: u64,
    /// Queries answered exactly — one count per ticket that resolved
    /// `Done`, matching the one-count-per-query convention of
    /// [`sofa_index::IndexStats::queries_served`]. Shed, expired and
    /// aborted tickets are counted in their own fields, never here.
    pub queries: u64,
    /// Largest tick fill seen (bounded by the configured fill target).
    pub max_tick_fill: u64,
    /// Mean queries coalesced per tick — the amortization factor the
    /// server achieved; 1.0 means no coalescing happened.
    pub mean_tick_fill: f64,
    /// Deepest submission queue observed at enqueue time.
    pub max_queue_depth: u64,
    /// Mean enqueue-to-completion sojourn of *answered* tickets in
    /// microseconds (includes the coalescing window *and* the tick's
    /// own execution).
    pub mean_ticket_wait_us: f64,
    /// Worst single answered-ticket sojourn in microseconds.
    pub max_ticket_wait_us: u64,
    /// Median answered-ticket sojourn in microseconds (histogram
    /// resolution ~12%).
    pub p50_sojourn_us: f64,
    /// 99th-percentile answered-ticket sojourn in microseconds — the
    /// figure the shedding policy bounds under overload.
    pub p99_sojourn_us: f64,
    /// Submissions rejected at admission ([`crate::ServeError::Overloaded`]).
    pub shed: u64,
    /// Tickets answered [`crate::ServeError::DeadlineExceeded`].
    pub expired: u64,
    /// Tickets aborted by panic containment ([`crate::ServeError::Aborted`]).
    pub aborted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_means_and_maxima() {
        let c = StatCounters::default();
        c.note_tick(4, Duration::from_micros(50));
        c.note_tick(8, Duration::from_micros(150));
        c.note_depth(3);
        c.note_depth(1);
        for _ in 0..12 {
            c.note_done(Duration::from_micros(100));
        }
        c.note_shed();
        c.note_expired();
        c.note_aborted();
        let s = c.snapshot();
        assert_eq!(s.ticks, 2);
        assert_eq!(s.queries, 12);
        assert_eq!(s.max_tick_fill, 8);
        assert!((s.mean_tick_fill - 6.0).abs() < f64::EPSILON);
        assert_eq!(s.max_queue_depth, 3);
        assert_eq!(s.max_ticket_wait_us, 100);
        assert!((s.mean_ticket_wait_us - 100.0).abs() < 1e-9);
        assert_eq!((s.shed, s.expired, s.aborted), (1, 1, 1));
    }

    #[test]
    fn empty_counters_snapshot_to_zeroes() {
        assert_eq!(StatCounters::default().snapshot(), ServeStats::default());
    }

    #[test]
    fn sojourn_percentiles_decode_from_log_bins() {
        let c = StatCounters::default();
        // 95 fast tickets at ~100µs, five stragglers at ~10ms.
        for _ in 0..95 {
            c.note_done(Duration::from_micros(100));
        }
        for _ in 0..5 {
            c.note_done(Duration::from_millis(10));
        }
        let s = c.snapshot();
        assert!(
            (80.0..=125.0).contains(&s.p50_sojourn_us),
            "p50 {} should sit near 100µs",
            s.p50_sojourn_us
        );
        assert!(
            (8_000.0..=12_500.0).contains(&s.p99_sojourn_us),
            "p99 {} should sit near 10ms",
            s.p99_sojourn_us
        );
        assert!(s.p50_sojourn_us <= s.p99_sojourn_us);
    }

    #[test]
    fn sojourn_estimate_needs_at_least_one_tick() {
        let c = StatCounters::default();
        assert!(c.estimated_sojourn_us(4, 16).is_none());
        c.note_tick(16, Duration::from_micros(800));
        // Empty queue: one mean tick. Two ticks of backlog: three.
        assert!((c.estimated_sojourn_us(0, 16).unwrap() - 800.0).abs() < 1e-9);
        assert!((c.estimated_sojourn_us(32, 16).unwrap() - 2400.0).abs() < 1e-9);
    }
}
