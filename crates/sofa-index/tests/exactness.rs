//! The GEMINI exactness guarantee, end to end: for any dataset and query,
//! the index (MESSI with iSAX, SOFA with SFA) must return exactly the same
//! nearest neighbors as a brute-force scan over the z-normalized data.

use sofa_index::{Index, IndexConfig, Neighbor, RowFilter};
use sofa_simd::euclidean_sq;
use sofa_summaries::{ISax, SaxConfig, Sfa, SfaConfig, Summarization};

fn znormed_dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
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

/// Brute-force k-NN over z-normalized copies (the ground truth).
fn brute_force_knn(data: &[f32], n: usize, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut q = query.to_vec();
    sofa_simd::znormalize(&mut q);
    let mut all: Vec<Neighbor> = data
        .chunks(n)
        .enumerate()
        .map(|(row, series)| {
            let mut s = series.to_vec();
            sofa_simd::znormalize(&mut s);
            Neighbor { row: row as u32, dist_sq: euclidean_sq(&q, &s) }
        })
        .collect();
    all.sort_by(|a, b| a.dist_sq.total_cmp(&b.dist_sq).then(a.row.cmp(&b.row)));
    all.truncate(k);
    all
}

fn check_exactness<S: Summarization>(index: &Index<S>, data: &[f32], n: usize, queries: &[f32]) {
    for (qi, q) in queries.chunks(n).enumerate() {
        for k in [1usize, 3, 10] {
            let got = index.knn(q, k).expect("query");
            let want = brute_force_knn(data, n, q, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                let tol = 1e-3 * w.dist_sq.max(1.0);
                assert!(
                    (g.dist_sq - w.dist_sq).abs() <= tol,
                    "query {qi} k={k}: index {g:?} vs brute {w:?}"
                );
            }
        }
    }
}

#[test]
fn sofa_returns_exact_neighbors() {
    let n = 64;
    let data = znormed_dataset(1200, n, 0);
    let queries = znormed_dataset(10, n, 5000);
    // Learn SFA on z-normalized copies of the data (as the index will
    // store them).
    let mut znormed = data.clone();
    for row in znormed.chunks_mut(n) {
        sofa_simd::znormalize(row);
    }
    let sfa = Sfa::learn(
        &znormed,
        n,
        &SfaConfig { word_len: 16, alphabet: 256, sample_ratio: 0.5, ..Default::default() },
    );
    let index =
        Index::build(sfa, &data, IndexConfig::with_threads(2).leaf_capacity(64)).expect("build");
    check_exactness(&index, &data, n, &queries);
}

#[test]
fn messi_returns_exact_neighbors() {
    let n = 96;
    let data = znormed_dataset(900, n, 7);
    let queries = znormed_dataset(8, n, 9000);
    let sax = ISax::new(n, &SaxConfig { word_len: 16, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(3).leaf_capacity(50)).expect("build");
    check_exactness(&index, &data, n, &queries);
}

#[test]
fn exact_across_thread_counts() {
    let n = 64;
    let data = znormed_dataset(600, n, 3);
    let queries = znormed_dataset(4, n, 700);
    for threads in [1usize, 2, 4] {
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let index = Index::build(sax, &data, IndexConfig::with_threads(threads).leaf_capacity(40))
            .expect("build");
        check_exactness(&index, &data, n, &queries);
    }
}

#[test]
fn exact_across_leaf_sizes() {
    let n = 64;
    let data = znormed_dataset(800, n, 21);
    let queries = znormed_dataset(4, n, 4321);
    for leaf in [5usize, 17, 100, 2000] {
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let index = Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(leaf))
            .expect("build");
        check_exactness(&index, &data, n, &queries);
    }
}

#[test]
fn query_in_dataset_finds_itself() {
    let n = 64;
    let data = znormed_dataset(500, n, 2);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(30)).expect("build");
    for row in [0usize, 250, 499] {
        let q = &data[row * n..(row + 1) * n];
        let nn = index.nn(q).expect("query");
        assert!(nn.dist_sq < 1e-4, "row {row}: self-distance {}", nn.dist_sq);
    }
}

#[test]
fn knn_is_sorted_and_distinct() {
    let n = 64;
    let data = znormed_dataset(400, n, 1);
    let queries = znormed_dataset(3, n, 999);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(25)).expect("build");
    for q in queries.chunks(n) {
        let got = index.knn(q, 20).expect("query");
        assert_eq!(got.len(), 20);
        for w in got.windows(2) {
            assert!(w[0].dist_sq <= w[1].dist_sq);
            assert_ne!(w[0].row, w[1].row);
        }
    }
}

#[test]
fn k_larger_than_dataset_returns_everything() {
    let n = 32;
    let data = znormed_dataset(10, n, 0);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(4)).expect("build");
    let q = znormed_dataset(1, n, 55);
    let got = index.knn(&q, 50).expect("query");
    assert_eq!(got.len(), 10);
}

#[test]
fn approximate_answer_upper_bounds_exact() {
    let n = 64;
    let data = znormed_dataset(800, n, 9);
    let queries = znormed_dataset(6, n, 1111);
    let sax = ISax::new(n, &SaxConfig { word_len: 16, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(64)).expect("build");
    for q in queries.chunks(n) {
        let approx = index.approximate_nn(q).expect("approx");
        let exact = index.nn(q).expect("exact");
        assert!(
            approx.dist_sq >= exact.dist_sq - 1e-5,
            "approximate {} < exact {}",
            approx.dist_sq,
            exact.dist_sq
        );
    }
}

#[test]
fn knn_batch_matches_per_query_knn() {
    let n = 64;
    let data = znormed_dataset(700, n, 6);
    let queries = znormed_dataset(9, n, 2222);
    for threads in [1usize, 3] {
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let index = Index::build(sax, &data, IndexConfig::with_threads(threads).leaf_capacity(40))
            .expect("build");
        for k in [1usize, 5] {
            let batch = index.knn_batch(&queries, k).expect("batch");
            assert_eq!(batch.len(), 9);
            for (qi, q) in queries.chunks(n).enumerate() {
                let single = index.knn(q, k).expect("query");
                assert_eq!(batch[qi], single, "query {qi} k={k} threads={threads}");
            }
        }
    }
}

#[test]
fn knn_batch_is_exact_against_brute_force() {
    let n = 64;
    let data = znormed_dataset(600, n, 13);
    let queries = znormed_dataset(6, n, 777);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(32)).expect("build");
    let batch = index.knn_batch(&queries, 3).expect("batch");
    for (qi, q) in queries.chunks(n).enumerate() {
        let want = brute_force_knn(&data, n, q, 3);
        for (g, w) in batch[qi].iter().zip(want.iter()) {
            let tol = 1e-3 * w.dist_sq.max(1.0);
            assert!((g.dist_sq - w.dist_sq).abs() <= tol, "query {qi}: {g:?} vs {w:?}");
        }
    }
}

#[test]
fn knn_batch_edge_cases() {
    let n = 32;
    let data = znormed_dataset(50, n, 0);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(8)).expect("build");
    assert!(index.knn_batch(&data[..n], 0).is_err());
    assert!(index.knn_batch(&data[..n + 1], 1).is_err());
    assert!(index.knn_batch(&[], 1).expect("empty batch").is_empty());
    let one = index.knn_batch(&data[..n], 2).expect("batch of one");
    assert_eq!(one.len(), 1);
    assert_eq!(one[0], index.knn(&data[..n], 2).expect("query"));
}

#[test]
fn query_errors() {
    let n = 32;
    let data = znormed_dataset(20, n, 0);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let index = Index::build(sax, &data, IndexConfig::default()).expect("build");
    assert!(index.nn(&[0.0; 31]).is_err());
    assert!(index.knn(&[0.0; 32], 0).is_err());
}

#[test]
fn quant_tier_is_exact_through_build_insert_and_repack() {
    // The quantized refine tier must change refine-phase traffic, never
    // results: with the tier on and off, every lifecycle phase — fresh
    // build (packed leaves with codes), online inserts (stale per-row
    // leaves, dropped codes), explicit repack (codes rebuilt) — must
    // match brute force.
    let n = 128;
    let data = znormed_dataset(900, n, 17);
    let extra = znormed_dataset(200, n, 7100);
    let queries = znormed_dataset(6, n, 8200);
    for quant in [true, false] {
        let sax = ISax::new(n, &SaxConfig { word_len: 16, alphabet: 256 });
        let config = IndexConfig::with_threads(2)
            .leaf_capacity(48)
            .auto_repack_pct(None)
            .quant_refine(quant);
        let mut index = Index::build(sax, &data, config).expect("build");
        check_exactness(&index, &data, n, &queries);

        // The tier must actually engage (and only when enabled).
        let (_, stats) = index.knn_with_stats(&queries[..n], 5).expect("query");
        if quant {
            assert!(stats.quant_groups_swept > 0, "tier never engaged: {stats:?}");
            assert!(stats.refine_bytes > 0);
        } else {
            assert_eq!(stats.quant_groups_swept, 0, "tier ran while disabled: {stats:?}");
            assert_eq!(stats.quant_lanes_killed, 0);
        }

        // Online inserts leave stale (pack-less) leaves: the funnel must
        // fall back to per-row refinement for those and stay exact.
        index.insert_all(&extra).expect("insert");
        let mut all = data.clone();
        all.extend_from_slice(&extra);
        check_exactness(&index, &all, n, &queries);

        // Repack restores the packed layout (and the codes, when on).
        index.repack_leaves();
        check_exactness(&index, &all, n, &queries);
        let s = index.stats();
        assert_eq!(s.packed_leaves, s.leaves);
    }
}

#[test]
fn quant_on_and_off_agree_bit_for_bit() {
    // The tier is a pre-filter in front of the same exact f32 kernel, so
    // the two configurations must return *identical* neighbors — same
    // rows, same distance bits.
    let n = 64;
    let data = znormed_dataset(1100, n, 29);
    let queries = znormed_dataset(8, n, 5900);
    let build = |quant: bool| {
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(40).quant_refine(quant))
            .expect("build")
    };
    let with = build(true);
    let without = build(false);
    for (qi, q) in queries.chunks(n).enumerate() {
        for k in [1usize, 7] {
            let a = with.knn(q, k).expect("query");
            let b = without.knn(q, k).expect("query");
            // Distance bits, not rows: equal-distance ties may order
            // differently under parallel refinement.
            let ab: Vec<u32> = a.iter().map(|x| x.dist_sq.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|x| x.dist_sq.to_bits()).collect();
            assert_eq!(ab, bb, "query {qi} k={k} diverged: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn stats_reflect_pruning() {
    let n = 64;
    let data = znormed_dataset(2000, n, 4);
    let queries = znormed_dataset(2, n, 3456);
    let sax = ISax::new(n, &SaxConfig { word_len: 16, alphabet: 256 });
    let index =
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(32)).expect("build");
    for q in queries.chunks(n) {
        let (_, stats) = index.knn_with_stats(q, 1).expect("query");
        // The refinement must touch no more series than exist, and the LBD
        // must have filtered at least some real-distance computations.
        assert!(stats.series_lbd_checked <= 2000);
        assert!(stats.series_refined <= stats.series_lbd_checked);
        assert!(stats.leaves_refined <= stats.leaves_collected);
    }
}

/// Every row shares one root key and sits in one leaf, so that leaf's run
/// ends at the last slot of the word arena, and `8k + t` rows leave a
/// `t`-lane group last. The sweep must stage that group without reading
/// past the arena and stay exact, filtered or not.
#[test]
fn last_leaf_tail_groups_at_arena_end_are_exact() {
    let n = 64;
    for tail in 1..=7usize {
        let count = 8 * 5 + tail;
        // Alternating ±1 steps per 16-point segment plus small ripples:
        // every row's PAA means keep the steps' signs, hence one root key.
        let data: Vec<f32> = (0..count)
            .flat_map(|r| {
                (0..n).map(move |t| {
                    let step = if (t / 16) % 2 == 0 { 1.0 } else { -1.0 };
                    step + 0.1 * ((t * (r + 3)) as f32 * 0.37).sin()
                })
            })
            .collect();
        let sax = ISax::new(n, &SaxConfig { word_len: 4, alphabet: 256 });
        let index = Index::build(sax, &data, IndexConfig::with_threads(1).leaf_capacity(1000))
            .expect("build");
        let stats = index.stats();
        assert_eq!((stats.leaves, stats.packed_leaves), (1, 1), "tail {tail}: one packed leaf");
        let queries = [&data[(count - 1) * n..], &data[..n], &data[(count / 2) * n..][..n]];
        check_exactness(&index, &data, n, &queries.concat());
        let last = (count - 1) as u32;
        let hit = index.knn(&data[(count - 1) * n..], 1).expect("query");
        assert_eq!(hit[0].row, last, "tail {tail}: the last row finds itself");
        // Only the tail group's rows admitted: the answer comes from them.
        let filter = RowFilter::from_fn(count, |row| row >= count - tail);
        let got = index.knn_filtered(&data[..n], tail, &filter).expect("filtered");
        let mut rows: Vec<u32> = got.iter().map(|nb| nb.row).collect();
        rows.sort_unstable();
        assert_eq!(rows, ((count - tail) as u32..=last).collect::<Vec<_>>(), "tail {tail}");
    }
}
