//! The GEMINI exactness guarantee, end to end: for any dataset and query,
//! the index (MESSI with iSAX, SOFA with SFA) must return exactly the same
//! nearest neighbors as a brute-force scan over the z-normalized data.

use sofa_index::{Index, IndexConfig, Neighbor, NodeKind, QueryKind, RowFilter};
use sofa_simd::euclidean_sq;
use sofa_summaries::{ip_score, ISax, QueryContext, SaxConfig, Sfa, SfaConfig, Summarization};
use std::sync::Arc;

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
    // results: every lifecycle phase — fresh build (packed leaves with
    // codes), online inserts (packs and codes kept, inserted rows in leaf
    // tails without codes), explicit repack (tails folded in, their codes
    // built) — must match brute force.
    let n = 128;
    let data = znormed_dataset(900, n, 17);
    let extra = znormed_dataset(200, n, 7100);
    let queries = znormed_dataset(6, n, 8200);
    let sax = ISax::new(n, &SaxConfig { word_len: 16, alphabet: 256 });
    let config = IndexConfig::with_threads(2).leaf_capacity(48).auto_repack_pct(None);
    let mut index = Index::build(sax, &data, config).expect("build");
    check_exactness(&index, &data, n, &queries);

    // The tier must actually engage.
    let (_, stats) = index.knn_with_stats(&queries[..n], 5).expect("query");
    assert!(stats.quant_groups_swept > 0, "tier never engaged: {stats:?}");
    assert!(stats.refine_bytes > 0);

    // Online inserts join leaf tails: the funnel stages their words for
    // the same kernel and must stay exact.
    index.insert_all(&extra).expect("insert");
    let mut all = data.clone();
    all.extend_from_slice(&extra);
    check_exactness(&index, &all, n, &queries);

    // Repack restores the packed layout and the codes.
    index.repack_leaves();
    check_exactness(&index, &all, n, &queries);
    let s = index.stats();
    assert_eq!(s.packed_leaves, s.leaves);
}

#[test]
fn quant_on_and_off_agree_bit_for_bit() {
    // The tier is a pre-filter in front of the same exact f32 kernel, so
    // rows priced with it and rows priced without it must yield
    // *identical* neighbors — same rows, same distance bits. The "off"
    // arm is an index whose rows all sit in leaf tails, which carry no
    // codes: one row built, the rest inserted with repacking disabled.
    let n = 64;
    let data = znormed_dataset(1100, n, 29);
    let queries = znormed_dataset(8, n, 5900);
    let sax = || ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let config = IndexConfig::with_threads(2).leaf_capacity(40).auto_repack_pct(None);
    let with = Index::build(sax(), &data, config.clone()).expect("build");
    let mut without = Index::build(sax(), &data[..n], config).expect("build");
    without.insert_all(&data[n..]).expect("insert");
    for (qi, q) in queries.chunks(n).enumerate() {
        let (_, on) = with.knn_with_stats(q, 7).expect("query");
        let (_, off) = without.knn_with_stats(q, 7).expect("query");
        assert!(on.quant_groups_swept > 0, "tier never engaged: {on:?}");
        assert_eq!(off.quant_groups_swept, 0, "tail rows met the tier: {off:?}");
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
    let filter = Arc::new(RowFilter::from_fn(2000, |r| r % 3 != 0));
    let mut out = Vec::new();
    for q in queries.chunks(n) {
        index.query_into(q, &QueryKind::Knn { k: 5 }, &mut out).expect("knn");
        let kinds = [
            QueryKind::Knn { k: 5 },
            QueryKind::KnnFiltered { k: 5, filter: Arc::clone(&filter) },
            QueryKind::Range { r_sq: out[4].dist_sq },
            QueryKind::Ip { k: 5 },
        ];
        for kind in &kinds {
            let stats = index.query_into(q, kind, &mut out).expect("query");
            // The refinement must touch no more series than exist, and the
            // LBD must have filtered at least some real-distance
            // computations.
            assert!(stats.series_lbd_checked <= 2000, "{kind:?}");
            assert!(stats.series_refined <= stats.series_lbd_checked, "{kind:?}");
            assert!(stats.leaves_refined <= stats.leaves_collected, "{kind:?}");
            // Every kind, range included, refines its home leaf first.
            assert!(stats.leaves_refined >= 1, "{kind:?}");
        }
    }
}

/// Every admitted row's exact score under `kind`'s encoding (squared
/// distance, or the IP score `2n - q·x`), sorted by `(score, row)` — the
/// order the index answers in, computed by the same kernels the index
/// scores with, so answers compare bit for bit.
fn oracle(data: &[f32], n: usize, query: &[f32], ip: bool) -> Vec<Neighbor> {
    let mut q = query.to_vec();
    sofa_simd::znormalize(&mut q);
    let mut all: Vec<Neighbor> = data
        .chunks(n)
        .enumerate()
        .map(|(row, series)| {
            let mut x = series.to_vec();
            sofa_simd::znormalize(&mut x);
            let dist_sq = if ip {
                ip_score(n, sofa_simd::dot(&q, &x))
            } else {
                sofa_simd::euclidean_sq_early_abandon(&q, &x, f32::INFINITY)
            };
            Neighbor { row: row as u32, dist_sq }
        })
        .collect();
    all.sort_unstable();
    all
}

/// Every built row shares one root key and sits in one leaf, so that
/// leaf's packed run ends at the last slot of the built word arena, and
/// `8k + r` rows leave an `r`-lane group last. Rows inserted afterwards
/// (auto-repack off) join that leaf's tail, interleaved at the arena end
/// with rows of the opposite shape that open a second, all-tail leaf, so
/// tail rows do not sit next to the packed run and groups straddle the
/// packed/tail boundary. The sweep must stage such groups through the
/// slot map without reading past the arena, and every query kind must
/// match brute force bit for bit — k-NN, k-NN filtered down to the tail,
/// range at exactly a tail row's distance (the tie kept) and inner
/// product.
#[test]
fn last_leaf_tail_groups_at_arena_end_are_exact() {
    let n = 64;
    // Alternating ±1 steps per 16-point segment plus small ripples: every
    // row's PAA means keep the steps' signs, hence one root key per sign.
    let series = |r: usize, sign: f32| {
        (0..n).map(move |t| {
            let step = if (t / 16) % 2 == 0 { sign } else { -sign };
            step + 0.1 * ((t * (r + 3)) as f32 * 0.37).sin()
        })
    };
    for r in 0..8usize {
        let packed = 8 * 5 + r;
        for inserted in 0..=9usize {
            let total = packed + 2 * inserted;
            let data: Vec<f32> = (0..total)
                .flat_map(|row| {
                    let flipped = row >= packed && (row - packed) % 2 == 1;
                    series(row, if flipped { -1.0 } else { 1.0 })
                })
                .collect();
            let tag = format!("packed {packed}, inserted {inserted}");
            let sax = ISax::new(n, &SaxConfig { word_len: 4, alphabet: 256 });
            let config = IndexConfig::with_threads(1).leaf_capacity(1000).auto_repack_pct(None);
            let mut index = Index::build(sax, &data[..packed * n], config).expect("build");
            if inserted > 0 {
                index.insert_all(&data[packed * n..]).expect("insert");
            }
            let stats = index.stats();
            let leaves = 1 + usize::from(inserted > 0);
            assert_eq!((stats.subtrees, stats.leaves), (leaves, leaves), "{tag}: leaves");
            assert_eq!(stats.packed_leaves, usize::from(inserted == 0), "{tag}");
            let main = index.subtrees().iter().map(|st| st.root()).find(|l| l.rows()[0] == 0);
            let pack = main.and_then(|leaf| leaf.pack()).expect("the built leaf");
            assert_eq!(pack.len as usize, packed, "{tag}: inserts keep the pack");

            // The rows the filter admits: the built leaf's tail, or the
            // last group of a leaf without one.
            let in_tail = |row: usize| {
                if inserted > 0 {
                    row >= packed && (row - packed) % 2 == 0
                } else {
                    row >= packed - r.max(1)
                }
            };
            let tail = if inserted > 0 { inserted } else { r.max(1) };
            let last = if inserted > 0 { total - 2 } else { total - 1 };
            let probe: Vec<f32> = series(total + 7, 1.0).collect();
            let queries =
                [&data[last * n..][..n], &data[..n], &data[(total / 2) * n..][..n], &probe];
            let mut out = Vec::new();
            for (qi, q) in queries.into_iter().enumerate() {
                let dists = oracle(&data, n, q, false);
                for k in [1usize, 3, 10] {
                    index.query_into(q, &QueryKind::Knn { k }, &mut out).expect("knn");
                    assert_eq!(out, dists[..k], "{tag} q{qi}: knn k={k}");
                }
                let filter = Arc::new(RowFilter::from_fn(total, in_tail));
                let kind = QueryKind::KnnFiltered { k: tail, filter };
                index.query_into(q, &kind, &mut out).expect("filtered");
                let want: Vec<Neighbor> =
                    dists.iter().copied().filter(|nb| in_tail(nb.row as usize)).collect();
                assert_eq!(out, want, "{tag} q{qi}: knn over the tail rows");
                // A radius sitting bit-exactly on the last tail row's distance.
                let tie = dists.iter().find(|nb| nb.row as usize == last).expect("row");
                index
                    .query_into(q, &QueryKind::Range { r_sq: tie.dist_sq }, &mut out)
                    .expect("range");
                let want: Vec<Neighbor> =
                    dists.iter().copied().filter(|nb| nb.dist_sq <= tie.dist_sq).collect();
                assert_eq!(out, want, "{tag} q{qi}: range at the last tail row's distance");
                assert!(out.contains(tie), "{tag} q{qi}: the tied row was dropped");
                let scores = oracle(&data, n, q, true);
                index.query_into(q, &QueryKind::Ip { k: 5 }, &mut out).expect("ip");
                assert_eq!(out, scores[..5], "{tag} q{qi}: ip");
            }
        }
    }
}

/// Every node's envelope must be exactly the per-position min/max of the
/// words of the rows below it, recomputed here from the index's word
/// accessor, and every row must lie on its ancestors' split side: bit
/// `split_bit` of its symbol at `split_pos` is 0 under a left child and 1
/// under a right one.
fn assert_envelopes_match_words<S: Summarization>(index: &Index<S>, stage: &str) {
    let l = index.summarization().word_len();
    for (si, st) in index.subtrees().iter().enumerate() {
        // Children have larger ids than their parents: a reverse sweep
        // meets both children before the parent.
        let mut want = vec![(vec![u8::MAX; l], vec![0u8; l]); st.nodes.len()];
        for id in (0..st.nodes.len()).rev() {
            let (mut min, mut max) = (vec![u8::MAX; l], vec![0u8; l]);
            let words: Vec<&[u8]> = match &st.nodes[id].kind {
                NodeKind::Leaf { rows, .. } => {
                    rows.iter().map(|&r| index.word(r as usize)).collect()
                }
                NodeKind::Inner { left, right, .. } => {
                    let (a, b) = (&want[*left as usize], &want[*right as usize]);
                    vec![&a.0[..], &a.1[..], &b.0[..], &b.1[..]]
                }
            };
            for word in words {
                for (j, &s) in word.iter().enumerate() {
                    min[j] = min[j].min(s);
                    max[j] = max[j].max(s);
                }
            }
            let env = &st.nodes[id].envelope;
            assert_eq!(env.min(), &min[..], "{stage}: subtree {si} node {id} min symbols");
            assert_eq!(env.max(), &max[..], "{stage}: subtree {si} node {id} max symbols");
            want[id] = (min, max);
        }
        // Routing: walk down with the (position, bit, side) of every
        // ancestor's split.
        let mut stack = vec![(0u32, Vec::<(usize, u8, u8)>::new())];
        while let Some((id, path)) = stack.pop() {
            match &st.nodes[id as usize].kind {
                NodeKind::Leaf { rows, .. } => {
                    for &r in rows {
                        let w = index.word(r as usize);
                        for &(pos, bit, side) in &path {
                            assert_eq!(
                                (w[pos] >> bit) & 1,
                                side,
                                "{stage}: subtree {si} row {r} is on the wrong side of a split"
                            );
                        }
                    }
                }
                NodeKind::Inner { left, right, split_pos, split_bit } => {
                    for (child, side) in [(*left, 0u8), (*right, 1)] {
                        let mut path = path.clone();
                        path.push((usize::from(*split_pos), *split_bit, side));
                        stack.push((child, path));
                    }
                }
            }
        }
    }
}

/// One kernel prices every row, so each leaf's envelope bound must be
/// `<=` the symbol-table sum of each of its tail rows bit for bit, on the
/// dispatched kernel tier and the scalar reference alike — the collect
/// phase prunes a leaf on that bound only if the refine sweep would prune
/// every row.
fn assert_envelope_bounds_tail_rows<S: Summarization>(index: &Index<S>, queries: &[f32], n: usize) {
    let l = index.summarization().word_len();
    let mut tails = 0usize;
    for q in queries.chunks(n) {
        let mut zq = q.to_vec();
        sofa_simd::znormalize(&mut zq);
        let ctx = QueryContext::new(index.summarization(), &zq);
        let mut lut = Vec::new();
        ctx.lut_into(&mut lut);
        for leaf in index.subtrees().iter().flat_map(|st| st.leaves()) {
            let env = &leaf.envelope;
            let bound = ctx.envelope_mindist(env.min(), env.max());
            let tail = &leaf.rows()[leaf.pack().expect("a leaf").len as usize..];
            tails += tail.len();
            for group in tail.chunks(8) {
                let mut words: Vec<u8> =
                    group.iter().flat_map(|&r| index.word(r as usize).to_vec()).collect();
                while words.len() < 8 * l {
                    words.extend_from_within(words.len() - l..);
                }
                let (mut scalar, mut dispatched) = ([0.0f32; 8], [0.0f32; 8]);
                sofa_simd::lut_lower_bound_scalar(&lut, &words, f32::INFINITY, 0xFF, &mut scalar);
                sofa_simd::lut_lower_bound(&lut, &words, f32::INFINITY, 0xFF, &mut dispatched);
                for lane in 0..group.len() {
                    assert!(
                        bound <= scalar[lane] && bound <= dispatched[lane],
                        "envelope {bound} > tail row {} sums {} / {}",
                        group[lane],
                        scalar[lane],
                        dispatched[lane]
                    );
                }
            }
        }
    }
    assert!(tails > 0, "no tail rows to check");
}

#[test]
fn leaf_envelopes_track_build_inserts_repack_and_open() {
    let n = 64;
    let data = znormed_dataset(500, n, 0);
    // Inserts from a different generator seed: new root keys create new
    // subtrees, and the small capacity makes inserts split leaves.
    let extra = znormed_dataset(400, n, 7919);
    let queries = znormed_dataset(8, n, 5000);
    let mut znormed = data.clone();
    for row in znormed.chunks_mut(n) {
        sofa_simd::znormalize(row);
    }
    let sfa = Sfa::learn(
        &znormed,
        n,
        &SfaConfig { word_len: 8, alphabet: 16, sample_ratio: 0.5, ..Default::default() },
    );
    let config = IndexConfig::with_threads(1).leaf_capacity(12).auto_repack_pct(None);
    let mut index = Index::build(sfa, &data, config).expect("build");
    assert_envelopes_match_words(&index, "build");

    let (subtrees, leaves) = (index.stats().subtrees, index.stats().leaves);
    index.insert_all(&extra).expect("insert");
    assert!(index.stats().subtrees > subtrees, "inserts created no subtree");
    assert!(
        index.stats().leaves - leaves > index.stats().subtrees - subtrees,
        "inserts split no leaf"
    );
    assert_envelopes_match_words(&index, "insert");
    assert_envelope_bounds_tail_rows(&index, &queries, n);

    index.repack_leaves();
    assert_envelopes_match_words(&index, "repack");

    let path = std::env::temp_dir().join(format!(
        "sofa-envelope-{}-{:?}.idx",
        std::process::id(),
        std::thread::current().id()
    ));
    index.snapshot(&path).expect("snapshot");
    let opened: Index<Sfa> =
        Index::open_with_pool(&path, sofa_exec::ExecPool::shared(1)).expect("open");
    std::fs::remove_file(&path).expect("remove snapshot");
    assert_envelopes_match_words(&opened, "open");

    let mut all = data.clone();
    all.extend_from_slice(&extra);
    for q in queries.chunks(n) {
        let (want, want_stats) = index.knn_with_stats(q, 5).expect("writer query");
        let (got, got_stats) = opened.knn_with_stats(q, 5).expect("opened query");
        assert_eq!(got, want);
        assert_eq!(got_stats, want_stats);
        let brute = brute_force_knn(&all, n, q, 5);
        for (g, w) in got.iter().zip(&brute) {
            assert!((g.dist_sq - w.dist_sq).abs() <= 1e-3 * w.dist_sq.max(1.0), "{g:?} vs {w:?}");
        }
    }
}
