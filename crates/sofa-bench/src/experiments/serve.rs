//! Extension experiment: the micro-batching serve front-end (`ext-serve`).
//!
//! `ext-throughput` ends on a gap: `knn_batch` answers a query stream
//! ~2x faster than one-`knn`-per-call on the same pool, but a server
//! cannot call `knn_batch` — requests arrive one at a time on
//! independent connections. The `sofa-serve` coalescer closes that gap
//! *transparently*: concurrent callers submit single queries, a
//! collector groups whatever is waiting into one latency-bounded
//! `knn_batch` tick (fill target or a sub-millisecond window, whichever
//! comes first), and per-ticket slots fan the answers back out.
//!
//! The load harness here is **open-loop**: arrivals follow a fixed
//! schedule at an offered rate regardless of completions (the serving-
//! systems methodology — a closed loop throttles itself to the system
//! under test and hides queueing delay, exactly the cost a coalescer
//! must pay for and a contended pool must be charged for). Latency is
//! the **sojourn** from the *scheduled* arrival to completion, so
//! schedule slip shows up in p99 instead of disappearing. The offered
//! rate is set to 2x the measured closed-loop pool single-query QPS —
//! above the single-query path's capacity, inside the coalesced path's.
//!
//! Three arms answer the same open-loop stream on the same index build:
//! the **coalesced** server, the **direct** pool path (every submitter
//! calls `nn` itself — the PR-5 serving story), and a **2-way sharded**
//! server (row-partitioned shards, per-shard pools, zero-allocation
//! top-k merge). Exactness is gated first: coalesced answers must be
//! bit-identical to direct `knn` answers and match the flat brute force,
//! and the sharded index must be bit-identical to the unsharded one —
//! `serve_exactness_deviations` and `serve_shard_exactness_deviations`
//! must stay 0. `ServeStats` (tick fill, queue depth, ticket wait) are
//! reported as metrics, and the coalescer's one-count-per-query
//! `queries_served` accounting is asserted on the live counters.

use super::Suite;
use crate::report::{f1, f2, f3, Report};
use sofa::baselines::FlatL2;
use sofa::stats::percentile;
use sofa::{Builder, QueryKind, ServeConfig, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Open-loop submitter threads ("connections"). Enough that the
/// submitters themselves are never the bottleneck at 2x the pool
/// single-query rate; they spend most of their time asleep or blocked
/// on a ticket, so oversubscription is cheap. Each submitter has at
/// most one query in flight, so this also caps the coalescer's
/// achievable tick fill — it must comfortably exceed `TICK_FILL`.
const SUBMITTERS: usize = 64;

/// Tick fill target for the timed serving arms. Larger than the library
/// default (16): under saturation the queue always holds a tick's worth,
/// and at len-256 a 32-query tick amortizes the per-tick pool broadcast
/// twice as far, which is where the coalescer's capacity comes from.
const TICK_FILL: usize = 32;

/// The coalescer config used by the timed arms: `TICK_FILL`-query ticks,
/// the default 200µs window, and queue room for two full ticks plus
/// slack so backpressure never bounds the tick size.
fn bench_config() -> ServeConfig {
    ServeConfig::new().fill_target(TICK_FILL).queue_capacity(4 * TICK_FILL)
}

/// One open-loop arm's measurement.
struct OpenLoop {
    achieved_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives `run` with `total` arrivals on a fixed open-loop schedule at
/// `offered_qps`, cycling through the query stream. Sojourn latency is
/// measured from each query's *scheduled* arrival, so queueing delay
/// (including schedule slip when the system cannot keep up) is charged
/// to the arm rather than silently stretching the schedule.
fn open_loop(
    queries: &[f32],
    n: usize,
    offered_qps: f64,
    total: usize,
    run: impl Fn(&[f32]) + Sync,
) -> OpenLoop {
    let nq = queries.len() / n;
    let interval = Duration::from_secs_f64(1.0 / offered_qps);
    let next = AtomicUsize::new(0);
    let sojourns: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(total));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let arrival = start + interval.mul_f64(i as f64);
                    let now = Instant::now();
                    if arrival > now {
                        std::thread::sleep(arrival - now);
                    }
                    let q = &queries[(i % nq) * n..][..n];
                    run(q);
                    local.push(crate::ms(arrival.elapsed().as_secs_f64()));
                }
                sojourns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend(local);
            });
        }
    });
    let span = start.elapsed().as_secs_f64();
    let ms = sojourns.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    OpenLoop {
        achieved_qps: total as f64 / span,
        p50_ms: percentile(&ms, 50.0),
        p99_ms: percentile(&ms, 99.0),
    }
}

/// Runs one serving profile and appends its table and metrics to `r`;
/// metric keys get `suffix` appended (empty for the primary Deep1b
/// profile, mirroring `ext-throughput`'s naming).
fn serve_profile(suite: &Suite, r: &mut Report, spec_name: &str, count_cap: usize, suffix: &str) {
    let threads = suite.cfg.max_threads();
    let n_queries = (suite.cfg.n_queries * 16).clamp(64, 512);
    let spec = suite.specs().iter().find(|s| s.name == spec_name).expect("registry").clone();
    let count = spec.scaled_count(suite.cfg.scale, suite.cfg.min_series).min(count_cap);
    let dataset = spec.generate(count, n_queries);
    let n = dataset.series_len();
    let queries = dataset.queries();
    let m = |name: &str| format!("{name}{suffix}");

    let index = Arc::new(
        Builder::default()
            .threads(threads)
            .leaf_capacity(suite.cfg.leaf_capacity)
            .sample_ratio(suite.cfg.sample_ratio)
            .quant_refine(suite.cfg.quant_refine)
            .build_sofa(dataset.data(), n)
            .expect("SOFA build"),
    );
    let flat = FlatL2::new(dataset.data(), n, threads);

    // Warm: page in the data, wake the pool, fill the scratch pool.
    let warm = &queries[..(16 * n).min(queries.len())];
    index.knn_batch(warm, 1).expect("warmup");
    for q in warm.chunks(n) {
        index.nn(q).expect("warmup");
        let _ = flat.nn(q);
    }

    // Closed-loop pool single-query baseline: the PR-5 serving path,
    // measured with the same semantics as ext-throughput's
    // `sofa_single_pool_qps` (one caller, one `knn` per query).
    let mut pool_ms = Vec::with_capacity(n_queries);
    let (_, pool_secs) = crate::timed(|| {
        for q in queries.chunks(n) {
            let (_, secs) = crate::timed(|| {
                index.nn(q).expect("query");
            });
            pool_ms.push(crate::ms(secs));
        }
    });
    let pool_qps = n_queries as f64 / pool_secs;

    // Exactness gate through the coalescer, before anything is timed: a
    // fast wrong answer is worthless. Coalesced top-5 must be
    // bit-identical to the direct path and agree with the brute force.
    let server = Server::new(Arc::clone(&index), bench_config());
    let mut serve_dev = 0usize;
    for q in queries.chunks(n) {
        let via = server.query(q, QueryKind::Knn { k: 5 }).expect("coalesced query");
        let direct = index.knn(q, 5).expect("direct query");
        let truth = flat.nn(q).dist_sq;
        if via != direct || (via[0].dist_sq - truth).abs() > 1e-3 * truth.max(1.0) {
            serve_dev += 1;
        }
    }
    assert_eq!(serve_dev, 0, "coalesced answers must be bit-identical to the direct path");
    r.metric(&m("serve_exactness_deviations"), serve_dev as f64);

    // Open-loop arms: offer 2x the single-query path's capacity.
    let offered = pool_qps * 2.0;
    let total = ((offered * 0.4) as usize).clamp(n_queries, 8192);
    r.para(&format!(
        "Workload: {} × {count} series of length {n}, {threads} pool \
         lanes. Open-loop load: {total} arrivals at {} QPS offered (2x \
         the measured closed-loop pool single-query rate) from \
         {SUBMITTERS} submitter threads; latency is sojourn from the \
         scheduled arrival. `coalesced` answers through the sofa-serve \
         micro-batching server ({TICK_FILL}-query fill target, 200 µs \
         window), `direct (pool)` has every submitter call `nn` \
         itself on the shared pool, `sharded coalesced` serves a 2-way \
         row-partitioned index through the same server.",
        spec.name,
        f2(offered),
    ));

    let before = index.stats().queries_served;
    let coalesced = open_loop(queries, n, offered, total, |q| {
        server.query(q, QueryKind::Knn { k: 1 }).expect("coalesced query");
    });
    let served_delta = index.stats().queries_served - before;
    assert_eq!(served_delta, total as u64, "one queries_served count per coalesced query");
    let serve_stats = server.stats();
    drop(server);

    let direct = open_loop(queries, n, offered, total, |q| {
        index.nn(q).expect("direct query");
    });

    // 2-way sharded arm: bit-identical answers first, then the same
    // open-loop stream through a server over the sharded index.
    let sharded = Arc::new(
        Builder::default()
            .threads(threads)
            .leaf_capacity(suite.cfg.leaf_capacity)
            .sample_ratio(suite.cfg.sample_ratio)
            .quant_refine(suite.cfg.quant_refine)
            .build_sofa_sharded(dataset.data(), n, 2)
            .expect("sharded build"),
    );
    let mut shard_dev = 0usize;
    for q in queries.chunks(n) {
        if sharded.query(q, QueryKind::Knn { k: 5 }).expect("sharded query")
            != index.knn(q, 5).expect("direct query")
        {
            shard_dev += 1;
        }
    }
    assert_eq!(shard_dev, 0, "sharded answers must be bit-identical to unsharded");
    r.metric(&m("serve_shard_exactness_deviations"), shard_dev as f64);
    let shard_server = Server::new(Arc::clone(&sharded), bench_config());
    let shard_arm = open_loop(queries, n, offered, total, |q| {
        shard_server.query(q, QueryKind::Knn { k: 1 }).expect("sharded coalesced query");
    });
    drop(shard_server);

    r.table(
        &["arm", "load", "QPS", "p50 (ms)", "p99 (ms)"],
        &[
            vec![
                "single (pool)".into(),
                "closed loop".into(),
                f2(pool_qps),
                f3(percentile(&pool_ms, 50.0)),
                f3(percentile(&pool_ms, 99.0)),
            ],
            vec![
                "coalesced (sofa-serve)".into(),
                "open loop 2x".into(),
                f2(coalesced.achieved_qps),
                f3(coalesced.p50_ms),
                f3(coalesced.p99_ms),
            ],
            vec![
                "direct (pool)".into(),
                "open loop 2x".into(),
                f2(direct.achieved_qps),
                f3(direct.p50_ms),
                f3(direct.p99_ms),
            ],
            vec![
                "sharded coalesced (2-way)".into(),
                "open loop 2x".into(),
                f2(shard_arm.achieved_qps),
                f3(shard_arm.p50_ms),
                f3(shard_arm.p99_ms),
            ],
        ],
    );

    r.metric(&m("serve_pool_single_qps"), pool_qps);
    r.metric(&m("serve_pool_single_p50_ms"), percentile(&pool_ms, 50.0));
    r.metric(&m("serve_offered_qps"), offered);
    r.metric(&m("serve_coalesced_qps"), coalesced.achieved_qps);
    r.metric(&m("serve_coalesced_p50_ms"), coalesced.p50_ms);
    r.metric(&m("serve_coalesced_p99_ms"), coalesced.p99_ms);
    r.metric(&m("serve_direct_qps"), direct.achieved_qps);
    r.metric(&m("serve_direct_p50_ms"), direct.p50_ms);
    r.metric(&m("serve_direct_p99_ms"), direct.p99_ms);
    r.metric(&m("serve_vs_pool_single_speedup"), coalesced.achieved_qps / pool_qps);
    r.metric(&m("serve_vs_direct_speedup"), coalesced.achieved_qps / direct.achieved_qps);
    r.metric(&m("serve_sharded_qps"), shard_arm.achieved_qps);
    r.metric(&m("serve_sharded_p99_ms"), shard_arm.p99_ms);
    r.metric(&m("serve_mean_tick_fill"), serve_stats.mean_tick_fill);
    r.metric(&m("serve_max_tick_fill"), serve_stats.max_tick_fill as f64);
    r.metric(&m("serve_max_queue_depth"), serve_stats.max_queue_depth as f64);
    r.metric(&m("serve_mean_ticket_wait_us"), serve_stats.mean_ticket_wait_us);
    r.para(&format!(
        "Coalescing on {}: the server sustains {} QPS against the \
         single-query path's {} QPS closed-loop capacity ({:.2}x) and \
         the contended direct path's {} QPS under the same open-loop \
         load ({:.2}x), at p50/p99 sojourn {} / {} ms vs {} / {} ms \
         direct. Ticks filled to {} queries on average (max {}), queue \
         depth peaked at {}, mean ticket wait {} µs. Exactness: 0 \
         deviations through the coalescer and the 2-way shard merge.",
        spec.name,
        f2(coalesced.achieved_qps),
        f2(pool_qps),
        coalesced.achieved_qps / pool_qps,
        f2(direct.achieved_qps),
        coalesced.achieved_qps / direct.achieved_qps,
        f3(coalesced.p50_ms),
        f3(coalesced.p99_ms),
        f3(direct.p50_ms),
        f3(direct.p99_ms),
        f1(serve_stats.mean_tick_fill),
        serve_stats.max_tick_fill,
        serve_stats.max_queue_depth,
        f1(serve_stats.mean_ticket_wait_us),
    ));
}

/// `ext-serve`: the micro-batching coalescer and 2-way sharding under
/// open-loop load, on the two ext-throughput serving profiles.
pub fn ext_serve(suite: &Suite) -> Report {
    let mut r = Report::new("ext-serve", "micro-batching serve front-end (coalescer + shards)");
    serve_profile(suite, &mut r, "Deep1b", 4_000, "");
    serve_profile(suite, &mut r, "LenDB", 4_000, "_len256");
    r
}
