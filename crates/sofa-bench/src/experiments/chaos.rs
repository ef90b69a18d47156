//! Extension experiment: fault injection against the serving stack
//! (`ext-chaos`).
//!
//! Two scenarios, both on a real SOFA index build:
//!
//! 1. **Chaos**: the open-loop harness drives the server while a
//!    controller thread keeps arming failpoints — tick panics
//!    (`sofa-serve::tick`), refine panics deep inside the index
//!    (`sofa-index::refine_leaf`), pool-lane panics (`sofa-exec::lane`)
//!    and injected tick delays. The books must balance exactly: every
//!    submission resolves (no hung submitter — the run terminating *is*
//!    the proof), `ok + aborted == total`, the server's `queries`
//!    counter equals the observed `ok` count, every successful answer
//!    is bit-identical to the direct path, and the server still serves
//!    after the faults stop.
//! 2. **Shedding**: 2x overload against a deadline + shed admission
//!    policy. Outcomes partition into answered / shed / expired, and
//!    the p99 sojourn of *answered* queries stays bounded by the
//!    configured deadline — overload degrades into refusals, not into
//!    unbounded latency for the admitted.

use super::Suite;
use crate::report::{f1, f2, Report};
use sofa::baselines::FlatL2;
use sofa::exec::failpoint::{self, FailAction};
use sofa::serve::TICK_FAILPOINT;
use sofa::{
    AdmissionPolicy, Builder, Neighbor, QueryKind, ServeConfig, ServeError, Server, SofaIndex,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop submitter threads.
const SUBMITTERS: usize = 32;

/// Neighbors requested per chaos submission; deep enough that the
/// refine funnel (where one of the failpoints lives) does real work.
const CHAOS_K: usize = 3;

/// Per-submission outcome tally for one load run.
#[derive(Default)]
struct Outcomes {
    ok: AtomicU64,
    aborted: AtomicU64,
    expired: AtomicU64,
    shed: AtomicU64,
    deviations: AtomicU64,
}

/// Drives `total` open-loop submissions through `server`, checking each
/// successful answer against `reference` (per query-stream position).
/// Every submission must resolve to Ok / Aborted / DeadlineExceeded /
/// Overloaded — anything else (ShutDown, a validation error) fails the
/// run on the spot.
fn drive(
    server: &Server<Arc<SofaIndex>>,
    queries: &[f32],
    n: usize,
    reference: &[Vec<Neighbor>],
    offered_qps: f64,
    total: usize,
    outcomes: &Outcomes,
) -> f64 {
    let nq = queries.len() / n;
    let interval = Duration::from_secs_f64(1.0 / offered_qps);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let arrival = start + interval.mul_f64(i as f64);
                let now = Instant::now();
                if arrival > now {
                    std::thread::sleep(arrival - now);
                }
                let qi = i % nq;
                let q = &queries[qi * n..][..n];
                match server.query(q, QueryKind::Knn { k: CHAOS_K }) {
                    Ok(got) => {
                        if got != reference[qi] {
                            outcomes.deviations.fetch_add(1, Ordering::Relaxed);
                        }
                        outcomes.ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::Aborted) => {
                        outcomes.aborted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::DeadlineExceeded) => {
                        outcomes.expired.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::Overloaded) => {
                        outcomes.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("submission {i}: unexpected outcome {e}"),
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// `ext-chaos`: fault injection and load shedding.
pub fn ext_chaos(suite: &Suite) -> Report {
    let mut r = Report::new("ext-chaos", "serving robustness under fault injection");
    let threads = suite.cfg.max_threads();
    let n_queries = (suite.cfg.n_queries * 8).clamp(32, 256);
    let spec = suite.specs().iter().find(|s| s.name == "Deep1b").expect("registry").clone();
    let count = spec.scaled_count(suite.cfg.scale, suite.cfg.min_series).min(2_000);
    let dataset = spec.generate(count, n_queries);
    let n = dataset.series_len();
    let queries = dataset.queries();
    let nq = queries.len() / n;

    let index = Arc::new(
        Builder::default()
            .threads(threads)
            .leaf_capacity(suite.cfg.leaf_capacity)
            .sample_ratio(suite.cfg.sample_ratio)
            .build_sofa(dataset.data(), n)
            .expect("SOFA build"),
    );
    let flat = FlatL2::new(dataset.data(), n, threads);

    // Reference answers (and the exactness anchor: the direct path's
    // best neighbor must match the brute force before we trust it as
    // the chaos-run oracle).
    let reference: Vec<Vec<Neighbor>> = queries
        .chunks(n)
        .map(|q| {
            let direct = index.knn(q, CHAOS_K).expect("direct query");
            let truth = flat.nn(q).dist_sq;
            assert!(
                (direct[0].dist_sq - truth).abs() <= 1e-3 * truth.max(1.0),
                "direct path disagrees with brute force"
            );
            direct
        })
        .collect();

    // Closed-loop single-query rate sets the offered loads.
    let (_, pool_secs) = crate::timed(|| {
        for q in queries.chunks(n) {
            index.nn(q).expect("query");
        }
    });
    let pool_qps = nq as f64 / pool_secs;

    // ---- Scenario 1: fault injection under load. --------------------
    let server = Server::new(Arc::clone(&index), ServeConfig::new().fill_target(16));
    let offered = pool_qps;
    let total = ((offered * 0.4) as usize).clamp(nq, 4096);
    let outcomes = Outcomes::default();
    let stop = AtomicBool::new(false);
    let mut injected = 0u64;
    let span = std::thread::scope(|scope| {
        // The chaos controller: keep (re)arming faults until the load
        // finishes. One-shot budgets make each arm a single injected
        // fault; delays stretch ticks without violating anything.
        let controller = scope.spawn(|| {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                failpoint::arm(TICK_FAILPOINT, FailAction::Panic, Some(1));
                std::thread::sleep(Duration::from_micros(400));
                failpoint::arm("sofa-index::refine_leaf", FailAction::Panic, Some(1));
                std::thread::sleep(Duration::from_micros(400));
                failpoint::arm("sofa-exec::lane", FailAction::Panic, Some(1));
                std::thread::sleep(Duration::from_micros(400));
                failpoint::arm(
                    TICK_FAILPOINT,
                    FailAction::Sleep(Duration::from_micros(300)),
                    Some(2),
                );
                std::thread::sleep(Duration::from_micros(400));
                rounds += 1;
            }
            failpoint::clear_all();
            rounds * 4
        });
        let span = drive(&server, queries, n, &reference, offered, total, &outcomes);
        stop.store(true, Ordering::Relaxed);
        injected = controller.join().expect("controller");
        span
    });
    failpoint::clear_all();

    let ok = outcomes.ok.load(Ordering::Relaxed);
    let aborted = outcomes.aborted.load(Ordering::Relaxed);
    let deviations = outcomes.deviations.load(Ordering::Relaxed);
    let stats = server.stats();
    // The books must balance: every ticket resolved exactly once, the
    // server's own audit agrees, and no successful answer was wrong.
    assert_eq!(ok + aborted, total as u64, "lost or double-answered tickets");
    assert_eq!(stats.queries, ok, "queries audit must equal observed Ok outcomes");
    assert_eq!(stats.aborted, aborted, "aborted audit must equal observed Aborted outcomes");
    assert_eq!(deviations, 0, "successful answers must stay exact under chaos");
    // And the server must have outlived its faults.
    let q0 = &queries[..n];
    assert_eq!(
        server.query(q0, QueryKind::Knn { k: CHAOS_K }).expect("post-chaos query"),
        reference[0]
    );
    drop(server);

    r.para(&format!(
        "Chaos run: {total} open-loop submissions at {} QPS against a \
         {count}-series SOFA index while a controller injected {injected} \
         faults (tick panics, refine-leaf panics, pool-lane panics, tick \
         delays). Every submission resolved: {ok} answered exactly, \
         {aborted} aborted by per-tick containment, 0 exactness \
         deviations, 0 lost tickets; the server answered cleanly after \
         the faults stopped. Mean tick fill {}.",
        f2(offered),
        f1(stats.mean_tick_fill),
    ));
    r.metric("chaos_submissions", total as f64);
    r.metric("chaos_ok", ok as f64);
    r.metric("chaos_aborted", aborted as f64);
    r.metric("chaos_injected_faults", injected as f64);
    r.metric("chaos_exactness_deviations", deviations as f64);
    r.metric("chaos_lost_tickets", (total as u64 - ok - aborted) as f64);
    r.metric("chaos_span_s", span);

    // ---- Scenario 2: shedding keeps admitted sojourns bounded. ------
    let mean_single_ms = 1e3 * pool_secs / nq as f64;
    let deadline = Duration::from_secs_f64((8.0 * mean_single_ms / 1e3).clamp(2e-3, 20e-3));
    let server = Server::new(
        Arc::clone(&index),
        ServeConfig::new()
            .fill_target(16)
            .deadline(deadline)
            .admission(AdmissionPolicy::Shed { max_queue: 32, max_sojourn: deadline }),
    );
    let outcomes = Outcomes::default();
    let offered = pool_qps * 2.0;
    let total = ((offered * 0.4) as usize).clamp(nq, 8192);
    drive(&server, queries, n, &reference, offered, total, &outcomes);
    let stats = server.stats();
    let ok = outcomes.ok.load(Ordering::Relaxed);
    let shed = outcomes.shed.load(Ordering::Relaxed);
    let expired = outcomes.expired.load(Ordering::Relaxed);
    assert_eq!(ok + shed + expired, total as u64, "lost tickets under overload");
    assert_eq!(outcomes.deviations.load(Ordering::Relaxed), 0);
    assert_eq!(stats.queries, ok);
    // The robustness contract: whatever the overload, the p99 sojourn
    // of *answered* queries is bounded by the deadline (1.25x covers
    // the log-histogram's decode resolution).
    let deadline_us = 1e6 * deadline.as_secs_f64();
    assert!(
        stats.p99_sojourn_us <= deadline_us * 1.25,
        "p99 sojourn {}us must stay within the {}us deadline",
        stats.p99_sojourn_us,
        deadline_us
    );
    drop(server);

    r.para(&format!(
        "Shedding at 2x overload ({} QPS offered, {deadline:?} deadline, \
         shed at queue 32): {ok} answered / {shed} shed / {expired} \
         expired of {total}. p99 sojourn of answered queries {} µs \
         against a {} µs deadline — overload became refusals, not \
         latency.",
        f2(offered),
        f1(stats.p99_sojourn_us),
        f1(deadline_us),
    ));
    r.metric("shed_submissions", total as f64);
    r.metric("shed_ok", ok as f64);
    r.metric("shed_shed", shed as f64);
    r.metric("shed_expired", expired as f64);
    r.metric("shed_deadline_us", deadline_us);
    r.metric("shed_p99_sojourn_us", stats.p99_sojourn_us);
    r.metric("shed_p50_sojourn_us", stats.p50_sojourn_us);

    r
}
