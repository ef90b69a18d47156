//! Exactness under the forced-scalar kernel tier.
//!
//! This binary pins the dispatcher to the scalar tier before any kernel
//! runs (the in-process equivalent of `SOFA_FORCE_SCALAR=1`, which CI
//! also exercises across the whole suite) and replays the SOFA/MESSI
//! query workload against a tier-independent brute force. Together with
//! `crates/sofa-index/tests/exactness.rs` — the same assertions under
//! default dispatch — this proves the neighbor sets are identical between
//! `SOFA_FORCE_SCALAR=1` and the dispatched (AVX2/portable) path: both
//! must equal the same deterministic ground truth, row for row.
//!
//! Integration tests get their own process, so pinning the tier here
//! cannot leak into other suites.

use sofa::simd::{euclidean_sq_scalar, force_tier, KernelTier};
use sofa::{Builder, ExecPool, Neighbor, QueryKind, ServeConfig, Server};
use std::sync::Arc;

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push(
                (x * 0.17 + r).sin()
                    + 0.8 * (x * (0.4 + (r % 11.0) * 0.11) + r * 0.3).cos()
                    + 0.3 * (x * 2.1 - r).sin(),
            );
        }
    }
    data
}

/// Brute-force k-NN over z-normalized copies using only the scalar
/// reference kernel — ground truth no dispatch decision can perturb.
fn brute_force_knn(data: &[f32], n: usize, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut q = query.to_vec();
    sofa::simd::znormalize(&mut q);
    let mut all: Vec<Neighbor> = data
        .chunks(n)
        .enumerate()
        .map(|(row, series)| {
            let mut s = series.to_vec();
            sofa::simd::znormalize(&mut s);
            Neighbor { row: row as u32, dist_sq: euclidean_sq_scalar(&q, &s) }
        })
        .collect();
    all.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.row.cmp(&b.row)));
    all.truncate(k);
    all
}

/// One test function so the tier is pinned exactly once, before any
/// kernel call in this process.
#[test]
fn full_query_suite_is_exact_under_forced_scalar_tier() {
    force_tier(KernelTier::Scalar).expect("tier must be pinned before any kernel runs");
    assert_eq!(sofa::simd::active_tier(), KernelTier::Scalar);

    let n = 64;
    let data = dataset(500, n, 0);
    let pool = ExecPool::shared(2);
    let sofa = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("SOFA build");
    let messi = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(40)
        .build_messi(&data, n)
        .expect("MESSI build");
    assert_eq!(sofa.stats().kernel_tier, "scalar");

    let queries = dataset(8, n, 9000);
    for (qi, q) in queries.chunks(n).enumerate() {
        for k in [1usize, 5, 10] {
            let want = brute_force_knn(&data, n, q, k);
            for (name, got) in
                [("SOFA", sofa.knn(q, k).unwrap()), ("MESSI", messi.knn(q, k).unwrap())]
            {
                assert_eq!(got.len(), want.len(), "{name} query {qi} k={k}");
                for (g, w) in got.iter().zip(want.iter()) {
                    assert_eq!(g.row, w.row, "{name} query {qi} k={k}: {got:?} vs {want:?}");
                    let tol = 1e-3 * w.dist_sq.max(1.0);
                    assert!(
                        (g.dist_sq - w.dist_sq).abs() <= tol,
                        "{name} query {qi} k={k}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    // Batch answers must match single-query answers under this tier too.
    let batch = sofa.knn_batch(&queries, 5).expect("batch");
    for (qi, q) in queries.chunks(n).enumerate() {
        assert_eq!(batch[qi], sofa.knn(q, 5).unwrap(), "batch query {qi}");
    }

    // Coalesced serving stays exact under the forced tier: concurrent
    // answers through the sofa-serve micro-batching server, and a 2-way
    // sharded index, are bit-identical to the direct path.
    let sofa = Arc::new(sofa);
    let server = Server::new(Arc::clone(&sofa), ServeConfig::new().fill_target(3));
    std::thread::scope(|s| {
        for caller in 0..3usize {
            let server = &server;
            let sofa = &sofa;
            let queries = &queries;
            s.spawn(move || {
                for (qi, q) in queries.chunks(n).enumerate() {
                    let k = 1 + (caller + qi) % 5;
                    assert_eq!(
                        server.query(q, QueryKind::Knn { k }).expect("coalesced"),
                        sofa.knn(q, k).expect("direct"),
                        "caller {caller} query {qi} k={k}: coalesced != direct under scalar tier"
                    );
                }
            });
        }
    });
    drop(server);
    let Ok(sofa) = Arc::try_unwrap(sofa) else {
        panic!("server must have released its index handle");
    };
    let sharded = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa_sharded(&data, n, 2)
        .expect("sharded build");
    for (qi, q) in queries.chunks(n).enumerate() {
        assert_eq!(
            sharded.query(q, QueryKind::Knn { k: 5 }).expect("sharded"),
            sofa.knn(q, 5).expect("direct"),
            "query {qi}: sharded != unsharded under scalar tier"
        );
    }

    // Online inserts (un-packed fallback refinement) stay exact, and
    // repacking restores the block path with identical answers.
    let mut sofa = sofa;
    let extra = dataset(60, n, 7777);
    sofa.insert_all(&extra).expect("insert");
    let mut all = data.clone();
    all.extend_from_slice(&extra);
    let probe = dataset(3, n, 31415);
    let before_repack: Vec<_> =
        probe.chunks(n).map(|q| sofa.knn(q, 5).expect("query after insert")).collect();
    for (q, got) in probe.chunks(n).zip(before_repack.iter()) {
        let want = brute_force_knn(&all, n, q, 5);
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.row, w.row, "post-insert exactness");
        }
    }
    sofa.repack_leaves();
    assert_eq!(sofa.stats().packed_leaves, sofa.stats().leaves);
    for (q, before) in probe.chunks(n).zip(before_repack.iter()) {
        assert_eq!(&sofa.knn(q, 5).expect("query after repack"), before, "repack changed answers");
    }
}
