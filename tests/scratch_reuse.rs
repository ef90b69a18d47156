//! Query-scratch reuse never leaks state between queries.
//!
//! Since the collect-batching PR, every per-query buffer (normalized
//! query, context values, query word, root-penalty table, k-NN heap,
//! refinement queues, DFS stacks) comes from a pooled `QueryScratch`
//! that is reset and reused across queries — a 1-lane index answers its
//! entire lifetime of queries from **one** scratch. A reset bug (a stale
//! queue entry, an un-lowered abandon flag, a leftover k-NN bound, a
//! dirty DFT buffer) would poison *subsequent* queries, not the first
//! one, so this suite replays 1000 queries of varying `k` through one
//! index and checks every single answer against a scalar brute force.

use sofa::{Builder, Neighbor, QueryKind};

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push(
                (x * 0.23 + r).sin()
                    + 0.7 * (x * (0.3 + (r % 13.0) * 0.09) + r * 0.5).cos()
                    + 0.2 * (x * 1.7 - r).sin(),
            );
        }
    }
    data
}

/// Brute-force k-NN over z-normalized copies — deterministic ground
/// truth, recomputed from scratch for every query (no shared state to
/// leak by construction).
fn brute_force_knn(zdata: &[f32], n: usize, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut q = query.to_vec();
    sofa::simd::znormalize(&mut q);
    let mut all: Vec<Neighbor> = zdata
        .chunks(n)
        .enumerate()
        .map(|(row, series)| Neighbor {
            row: row as u32,
            dist_sq: sofa::simd::euclidean_sq_scalar(&q, series),
        })
        .collect();
    all.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.row.cmp(&b.row)));
    all.truncate(k);
    all
}

fn assert_matches(got: &[Neighbor], want: &[Neighbor], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g.row, w.row, "{what}: {got:?} vs {want:?}");
        let tol = 1e-3 * w.dist_sq.max(1.0);
        assert!((g.dist_sq - w.dist_sq).abs() <= tol, "{what}: {g:?} vs {w:?}");
    }
}

#[test]
fn one_scratch_serves_1000_queries_exactly() {
    let n = 64;
    let count = 400;
    let data = dataset(count, n, 0);
    let mut zdata = data.clone();
    for row in zdata.chunks_mut(n) {
        sofa::simd::znormalize(row);
    }
    // threads(1): the serial path, where one pooled scratch is checked
    // out and returned by every single query — maximum reuse pressure.
    let sofa = Builder::default()
        .threads(1)
        .leaf_capacity(24)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");

    let n_queries = 1000;
    let queries = dataset(n_queries, n, 5000);
    // `query_into` with one shared output buffer: the fully reused path.
    let mut out: Vec<Neighbor> = Vec::new();
    for (qi, q) in queries.chunks(n).enumerate() {
        // Vary k so the reusable heap grows and shrinks between queries;
        // any capacity- or bound-carryover would surface as a wrong set.
        let k = [1usize, 3, 7][qi % 3];
        let want = brute_force_knn(&zdata, n, q, k);
        sofa.query_into(q, &QueryKind::Knn { k }, &mut out).expect("query");
        assert_matches(&out, &want, &format!("query_into query {qi} k={k}"));
        // Every 97th query, cross-check the allocating API against the
        // same scratch state.
        if qi % 97 == 0 {
            let got = sofa.knn(q, k).expect("query");
            assert_matches(&got, &want, &format!("knn query {qi} k={k}"));
        }
    }
}

#[test]
fn batch_lanes_reuse_scratches_exactly() {
    let n = 64;
    let count = 300;
    let data = dataset(count, n, 3);
    let mut zdata = data.clone();
    for row in zdata.chunks_mut(n) {
        sofa::simd::znormalize(row);
    }
    // Multi-lane pool: `knn_batch` gives each lane one scratch for the
    // whole batch, and single `knn` calls in between recycle the same
    // pool entries.
    let sofa = Builder::default()
        .threads(4)
        .leaf_capacity(20)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");

    let queries = dataset(250, n, 7777);
    for k in [1usize, 5] {
        let batch = sofa.knn_batch(&queries, k).expect("batch");
        for (qi, q) in queries.chunks(n).enumerate() {
            let want = brute_force_knn(&zdata, n, q, k);
            assert_matches(&batch[qi], &want, &format!("batch query {qi} k={k}"));
        }
    }
    // Interleave batch and single calls: scratches must come back clean
    // either way.
    for (qi, q) in queries.chunks(n).take(50).enumerate() {
        let want = brute_force_knn(&zdata, n, q, 2);
        let got = sofa.knn(q, 2).expect("query");
        assert_matches(&got, &want, &format!("post-batch query {qi}"));
    }
}
