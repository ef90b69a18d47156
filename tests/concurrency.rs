//! Concurrency suite for the persistent worker-pool runtime.
//!
//! The two guarantees the `sofa-exec` refactor must uphold:
//!
//! 1. **Pool reuse under concurrent callers** — one index answers
//!    queries from many caller threads at once (the serving scenario),
//!    every answer exactly matching the `FlatL2` ground truth, with no
//!    deadlock between scopes interleaving on the shared pool.
//! 2. **Batch/serial equivalence** — `knn_batch` returns, for every
//!    query of the batch, exactly what per-query `knn` returns.
//!
//! Caller threads are simulated with `std::thread::scope` *here only*:
//! the library crates themselves spawn nothing — all their parallelism
//! runs on `ExecPool` lanes.

use sofa::baselines::FlatL2;
use sofa::{Builder, ExecPool, Neighbor};
use std::sync::Arc;

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

fn assert_same(got: &[Neighbor], want: &[Neighbor], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: result sizes differ");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.row, w.row, "{what}: {got:?} vs {want:?}");
        assert!(
            (g.dist_sq - w.dist_sq).abs() <= 1e-3 * w.dist_sq.max(1.0),
            "{what}: {g:?} vs {w:?}"
        );
    }
}

/// (a) One `SofaIndex` serving many concurrent caller threads returns
/// exact results matching `FlatL2` for every query of every caller.
#[test]
fn concurrent_callers_get_exact_answers() {
    let n = 64;
    let data = dataset(600, n, 0);
    let index = Builder::default()
        .threads(2)
        .leaf_capacity(50)
        .sample_ratio(0.3)
        .build_sofa(&data, n)
        .expect("build");
    let truth = FlatL2::new(&data, n, 1);

    let n_callers = 4;
    let queries_per_caller = 8;
    std::thread::scope(|s| {
        for caller in 0..n_callers {
            let index = &index;
            let truth = &truth;
            s.spawn(move || {
                let queries = dataset(queries_per_caller, n, 1000 + caller * 97);
                for (qi, q) in queries.chunks(n).enumerate() {
                    let got = index.knn(q, 3).expect("query");
                    let want = truth.knn_one(q, 3);
                    assert_same(&got, &want, &format!("caller {caller} query {qi}"));
                }
            });
        }
    });
}

/// (a') The same, on one *shared* pool serving two different indexes at
/// once — the server-embedding scenario the tentpole targets.
#[test]
fn shared_pool_two_indexes_concurrent_callers() {
    let n = 64;
    let data = dataset(400, n, 3);
    let pool = ExecPool::shared(2);
    let sofa = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(40)
        .sample_ratio(0.3)
        .build_sofa(&data, n)
        .expect("build sofa");
    let messi = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(40)
        .build_messi(&data, n)
        .expect("build messi");
    let truth = FlatL2::new(&data, n, 1);

    std::thread::scope(|s| {
        for caller in 0..4 {
            let sofa = &sofa;
            let messi = &messi;
            let truth = &truth;
            s.spawn(move || {
                let queries = dataset(6, n, 5000 + caller * 31);
                for q in queries.chunks(n) {
                    let want = truth.knn_one(q, 2);
                    assert_same(&sofa.knn(q, 2).expect("sofa"), &want, "sofa");
                    assert_same(&messi.knn(q, 2).expect("messi"), &want, "messi");
                }
            });
        }
    });
}

/// (b) `knn_batch` equals per-query `knn` for every query in the batch,
/// for both tree indexes and the flat baseline, across thread counts.
#[test]
fn knn_batch_equals_per_query_knn() {
    let n = 64;
    let data = dataset(500, n, 7);
    let queries = dataset(20, n, 9999);
    for threads in [1usize, 2, 3] {
        let sofa = Builder::default()
            .threads(threads)
            .leaf_capacity(40)
            .sample_ratio(0.3)
            .build_sofa(&data, n)
            .expect("build");
        let messi = Builder::default()
            .threads(threads)
            .leaf_capacity(40)
            .build_messi(&data, n)
            .expect("build");
        let flat = FlatL2::new(&data, n, threads);
        for k in [1usize, 5] {
            let sofa_batch = sofa.knn_batch(&queries, k).expect("batch");
            let messi_batch = messi.knn_batch(&queries, k).expect("batch");
            let flat_batch = flat.knn_batch(&queries, k);
            for (qi, q) in queries.chunks(n).enumerate() {
                let label = format!("threads={threads} k={k} query {qi}");
                assert_eq!(
                    sofa_batch[qi],
                    sofa.knn(q, k).expect("query"),
                    "sofa batch != knn ({label})"
                );
                assert_eq!(
                    messi_batch[qi],
                    messi.knn(q, k).expect("query"),
                    "messi batch != knn ({label})"
                );
                assert_eq!(flat_batch[qi], flat.knn_one(q, k), "flat batch != knn ({label})");
            }
        }
    }
}

/// Concurrent `knn_batch` calls from several caller threads interleave
/// on the pool without deadlock or wrong answers.
#[test]
fn concurrent_batches_share_the_pool() {
    let n = 64;
    let data = dataset(400, n, 11);
    let index = Builder::default()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.3)
        .build_sofa(&data, n)
        .expect("build");
    let truth = FlatL2::new(&data, n, 1);
    std::thread::scope(|s| {
        for caller in 0..3 {
            let index = &index;
            let truth = &truth;
            s.spawn(move || {
                let queries = dataset(10, n, 2000 + caller * 53);
                let batch = index.knn_batch(&queries, 2).expect("batch");
                for (qi, q) in queries.chunks(n).enumerate() {
                    assert_same(
                        &batch[qi],
                        &truth.knn_one(q, 2),
                        &format!("caller {caller} query {qi}"),
                    );
                }
            });
        }
    });
}

/// Online inserts still compose with pool-backed queries: insert from
/// the owning thread, then serve concurrent readers exactly.
#[test]
fn insert_then_concurrent_queries() {
    let n = 64;
    let base = dataset(200, n, 0);
    let extra = dataset(100, n, 6000);
    let mut index = Builder::default()
        .threads(2)
        .leaf_capacity(20)
        .sample_ratio(0.5)
        .build_sofa(&base, n)
        .expect("build");
    index.insert_all(&extra).expect("insert");
    let mut all = base.clone();
    all.extend_from_slice(&extra);
    let truth = FlatL2::new(&all, n, 1);
    std::thread::scope(|s| {
        for caller in 0..3 {
            let index = &index;
            let truth = &truth;
            s.spawn(move || {
                let queries = dataset(5, n, 3000 + caller * 17);
                for q in queries.chunks(n) {
                    assert_same(
                        &index.knn(q, 2).expect("query"),
                        &truth.knn_one(q, 2),
                        "post-insert",
                    );
                }
            });
        }
    });
}
