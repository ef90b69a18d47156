//! Integration suite for the `sofa-serve` micro-batching front-end.
//!
//! The contract under test: answers that travel through the coalescer —
//! whatever tick they land in, however contended the queue — are
//! **bit-identical** to direct per-query `knn` calls and match the
//! `FlatL2` ground truth; a sharded index is bit-identical to an
//! unsharded one over the same rows; shutdown never hangs or drops a
//! submitter; and the `queries_served` counter advances exactly once
//! per logical query on every path (direct, batch, coalesced, sharded).
//!
//! Submitter threads are simulated with `std::thread::scope` *here
//! only* — the library crates spawn nothing beyond their own pools and
//! the server's single collector thread.

use sofa::baselines::FlatL2;
use sofa::{Builder, Neighbor, QueryKind, ServeConfig, ServeError, Server, SofaIndex};
use std::sync::Arc;
use std::time::Duration;

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push((x * 0.21 + r).sin() + 0.7 * (x * (0.3 + (r % 9.0) * 0.13)).cos());
        }
    }
    data
}

fn build(data: &[f32], n: usize, threads: usize) -> SofaIndex {
    Builder::default()
        .threads(threads)
        .leaf_capacity(32)
        .sample_ratio(0.3)
        .build_sofa(data, n)
        .expect("build")
}

/// Concurrent submissions through the coalescer return exactly what the
/// direct path returns (bitwise), and the direct path matches the flat
/// brute force.
#[test]
fn coalesced_answers_are_bit_identical_and_exact() {
    let n = 64;
    let count = 600;
    let data = dataset(count, n, 0);
    let index = Arc::new(build(&data, n, 2));
    let truth = FlatL2::new(&data, n, 1);
    let server = Server::new(
        Arc::clone(&index),
        ServeConfig::new().fill_target(4).max_wait(Duration::from_micros(150)),
    );

    let n_callers = 6;
    let per_caller = 12;
    std::thread::scope(|s| {
        for caller in 0..n_callers {
            let server = &server;
            let index = &index;
            let truth = &truth;
            let data = &data;
            s.spawn(move || {
                for j in 0..per_caller {
                    let row = (caller * 131 + j * 17) % count;
                    let q: Vec<f32> = data[row * n..(row + 1) * n]
                        .iter()
                        .map(|&x| x * (1.0 + 0.001 * ((j % 5) as f32 - 2.0)))
                        .collect();
                    let via: Vec<Neighbor> =
                        server.query(&q, QueryKind::Knn { k: 5 }).expect("coalesced");
                    let direct = index.knn(&q, 5).expect("direct");
                    assert_eq!(via, direct, "caller {caller} query {j}: coalesced != direct");
                    let t = truth.nn(&q).dist_sq;
                    assert!(
                        (via[0].dist_sq - t).abs() <= 1e-3 * t.max(1.0),
                        "caller {caller} query {j}: {} vs flat {t}",
                        via[0].dist_sq
                    );
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries, (n_callers * per_caller) as u64);
    assert!(stats.ticks <= stats.queries, "ticks cannot exceed queries");
    assert!(stats.max_tick_fill >= 1);
}

/// One logical query advances `queries_served` exactly once, whether it
/// travels the direct path, a `knn_batch` lane, or a coalesced tick.
#[test]
fn queries_served_counts_once_per_query_on_every_path() {
    let n = 48;
    let data = dataset(300, n, 3);
    let index = Arc::new(build(&data, n, 2));
    let before = index.stats().queries_served;

    for row in 0..3 {
        index.nn(&data[row * n..(row + 1) * n]).expect("direct");
    }
    index.knn_batch(&data[..4 * n], 2).expect("batch");
    let server = Server::new(Arc::clone(&index), ServeConfig::default());
    for row in 0..5 {
        server.query(&data[row * n..(row + 1) * n], QueryKind::Knn { k: 1 }).expect("coalesced");
    }
    drop(server);

    assert_eq!(
        index.stats().queries_served - before,
        3 + 4 + 5,
        "each path must count one queries_served per logical query"
    );
}

/// Shutdown with tickets still pending: every submitter gets either its
/// exact answer or `ServeError::ShutDown` — never a hang — and new
/// submissions after shutdown are rejected.
#[test]
fn shutdown_answers_or_aborts_pending_submitters() {
    let n = 32;
    let count = 200;
    let data = dataset(count, n, 7);
    let index = Arc::new(build(&data, n, 1));
    // A large window and an unreachable fill target force tickets to sit
    // in the queue until shutdown sweeps them.
    let server = Server::new(
        Arc::clone(&index),
        ServeConfig::new().fill_target(64).max_wait(Duration::from_millis(50)),
    );

    std::thread::scope(|s| {
        for caller in 0..4 {
            let server = &server;
            let index = &index;
            let data = &data;
            s.spawn(move || {
                for j in 0..8 {
                    let row = (caller * 37 + j * 11) % count;
                    let q = &data[row * n..(row + 1) * n];
                    match server.query(q, QueryKind::Knn { k: 3 }) {
                        Ok(via) => {
                            assert_eq!(via, index.knn(q, 3).expect("direct"));
                        }
                        Err(ServeError::ShutDown) => return,
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(2));
        server.shutdown();
    });
    assert!(matches!(server.query(&data[..n], QueryKind::Knn { k: 1 }), Err(ServeError::ShutDown)));
}

/// More submitters than queue slots: backpressure blocks them instead of
/// growing memory, nothing is lost, and every answer stays exact.
#[test]
fn oversubscribed_queue_applies_backpressure_without_losing_answers() {
    let n = 32;
    let count = 240;
    let data = dataset(count, n, 11);
    let index = Arc::new(build(&data, n, 1));
    let server =
        Server::new(Arc::clone(&index), ServeConfig::new().fill_target(2).queue_capacity(2));

    let n_callers = 12;
    let per_caller = 6;
    std::thread::scope(|s| {
        for caller in 0..n_callers {
            let server = &server;
            let index = &index;
            let data = &data;
            s.spawn(move || {
                for j in 0..per_caller {
                    let row = (caller * 53 + j * 19) % count;
                    let q = &data[row * n..(row + 1) * n];
                    let via = server.query(q, QueryKind::Knn { k: 2 }).expect("coalesced");
                    assert_eq!(via, index.knn(q, 2).expect("direct"));
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries, (n_callers * per_caller) as u64);
    assert!(
        stats.max_queue_depth <= 2,
        "queue depth {} exceeded its capacity bound",
        stats.max_queue_depth
    );
}

/// Facade-built sharded indexes are bit-identical to the unsharded
/// index over the same rows — per-query, and served through the
/// coalescer — and the sharded logical query counter matches.
#[test]
fn sharded_index_matches_unsharded_bitwise() {
    let n = 64;
    let count = 500;
    let data = dataset(count, n, 5);
    let whole = build(&data, n, 2);
    for n_shards in [2, 3] {
        let sharded = Builder::default()
            .threads(2)
            .leaf_capacity(32)
            .sample_ratio(0.3)
            .build_sofa_sharded(&data, n, n_shards)
            .expect("sharded build");
        assert_eq!(sharded.n_shards(), n_shards);
        assert_eq!(sharded.n_series(), count);
        for qi in (0..count).step_by(41) {
            let q = &data[qi * n..(qi + 1) * n];
            for k in [1, 5] {
                assert_eq!(
                    sharded.query(q, QueryKind::Knn { k }).expect("sharded"),
                    whole.knn(q, k).expect("whole"),
                    "row {qi}, k {k}, {n_shards} shards"
                );
            }
        }
    }

    // Served through the coalescer, the sharded index still answers
    // bit-identically, and one logical query counts once.
    let sharded = Arc::new(
        Builder::default()
            .threads(2)
            .leaf_capacity(32)
            .sample_ratio(0.3)
            .build_sofa_sharded(&data, n, 2)
            .expect("sharded build"),
    );
    let before = sharded.queries_served();
    let server = Server::new(Arc::clone(&sharded), ServeConfig::default());
    std::thread::scope(|s| {
        for caller in 0..4 {
            let server = &server;
            let whole = &whole;
            let data = &data;
            s.spawn(move || {
                for j in 0..6 {
                    let row = (caller * 101 + j * 29) % count;
                    let q = &data[row * n..(row + 1) * n];
                    let via = server.query(q, QueryKind::Knn { k: 4 }).expect("coalesced");
                    assert_eq!(via, whole.knn(q, 4).expect("whole"));
                }
            });
        }
    });
    drop(server);
    assert_eq!(sharded.queries_served() - before, 24);
}

/// Degenerate shard counts: asking for more shards than rows clamps,
/// and a one-shard "sharded" index equals the plain index.
#[test]
fn shard_count_edge_cases() {
    let n = 32;
    let data = dataset(40, n, 13);
    let whole = build(&data, n, 1);
    let one = Builder::default()
        .threads(1)
        .leaf_capacity(32)
        .sample_ratio(0.3)
        .build_sofa_sharded(&data, n, 1)
        .expect("1-shard build");
    let many = Builder::default()
        .threads(1)
        .leaf_capacity(32)
        .sample_ratio(0.3)
        .build_sofa_sharded(&data, n, 1000)
        .expect("clamped build");
    assert!(many.n_shards() <= 40, "shards must clamp to the row count");
    for qi in 0..8 {
        let q = &data[qi * n..(qi + 1) * n];
        let want = whole.knn(q, 3).expect("whole");
        assert_eq!(one.query(q, QueryKind::Knn { k: 3 }).expect("one"), want);
        assert_eq!(many.query(q, QueryKind::Knn { k: 3 }).expect("many"), want);
    }
}

/// Satellite stress for the shutdown/submit race: many short server
/// lifetimes, each with submitters racing a shutdown fired at a sliding
/// offset (before, during and after their submissions). Every ticket
/// must resolve — an exact answer or an explicit `ShutDown` — with no
/// hang (the scope returning is the proof) and balanced books: the
/// server's `queries` audit equals the answers the submitters observed.
#[test]
fn shutdown_submit_race_resolves_every_ticket() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let n = 32;
    let count = 200;
    let data = dataset(count, n, 21);
    let index = Arc::new(build(&data, n, 2));
    for cycle in 0..20usize {
        let server = Server::new(
            Arc::clone(&index),
            ServeConfig::new().fill_target(4).max_wait(Duration::from_micros(100)),
        );
        let answered = AtomicU64::new(0);
        std::thread::scope(|s| {
            for caller in 0..6usize {
                let server = &server;
                let index = &index;
                let data = &data;
                let answered = &answered;
                s.spawn(move || {
                    for j in 0..10usize {
                        let row = (caller * 31 + j * 7 + cycle) % count;
                        let q = &data[row * n..(row + 1) * n];
                        match server.query(q, QueryKind::Knn { k: 2 }) {
                            Ok(via) => {
                                assert_eq!(via, index.knn(q, 2).expect("direct"));
                                answered.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::ShutDown) => return,
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                });
            }
            // Slide the shutdown across the submission window so some
            // cycles race the very first enqueue and some the last.
            std::thread::sleep(Duration::from_micros((cycle * 120) as u64));
            server.shutdown();
        });
        let stats = server.stats();
        assert_eq!(
            stats.queries,
            answered.load(Ordering::Relaxed),
            "cycle {cycle}: audit must equal observed answers"
        );
        assert!(matches!(
            server.query(&data[..n], QueryKind::Knn { k: 1 }),
            Err(ServeError::ShutDown)
        ));
        drop(server);
    }
}
