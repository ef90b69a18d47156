//! Deep-tree exactness under churn: concentrated root keys (one
//! hierarchically clustered prototype family, so the index builds deep
//! subtrees the collect DFS must descend), online insert bursts that
//! split leaves mid-query-stream, and repacks of the subtrees with tails
//! — must return brute-force answers at every stage, for 500 queries
//! across the suite.
//!
//! CI replays this binary under `SOFA_FORCE_SCALAR=1` as well, so the
//! deep-tree path is proven exact on every dispatch tier.

use sofa::baselines::FlatL2;
use sofa::data::registry;
use sofa::{Builder, SofaIndex};

/// Builds the deep-tree workload: a concentrated Deep1b-like archive.
fn deep_spec() -> sofa::data::DatasetSpec {
    let mut spec = registry()
        .into_iter()
        .find(|s| s.name == "Deep1b")
        .expect("registry")
        .with_concentration(0.97);
    spec.instance_noise = 0.25;
    spec
}

/// Asserts `index` agrees with `flat` on every query (k-NN distances
/// within float tolerance, rank by rank).
fn assert_exact(index: &SofaIndex, flat: &FlatL2, queries: &[f32], n: usize, k: usize, tag: &str) {
    for (qi, q) in queries.chunks(n).enumerate() {
        let got = index.knn(q, k).expect("query");
        let want = flat.knn_one(q, k);
        assert_eq!(got.len(), want.len(), "{tag} query {qi}");
        for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
            let tol = 1e-3 * w.dist_sq.max(1.0);
            assert!(
                (g.dist_sq - w.dist_sq).abs() <= tol,
                "{tag} query {qi} rank {rank}: sofa {g:?} vs flat {w:?}"
            );
        }
    }
}

#[test]
fn deep_tree_serving_stays_exact_through_inserts_and_incremental_repacks() {
    let spec = deep_spec();
    let count = 3_000usize;
    // 5 phases x 100 queries = 500 exactness checks across the churn
    // cycle (the CI forced-scalar leg doubles that across tiers).
    let per_phase = 100usize;
    let dataset = spec.generate(count + count / 4, 2 * per_phase);
    let n = dataset.series_len();
    let all = dataset.data();
    let initial = count * n;

    // Query stream: hold-out probes (same cluster family, never indexed)
    // plus known-item near-duplicates of indexed rows.
    let holdout = dataset.queries();
    let dups: Vec<f32> = (0..per_phase)
        .flat_map(|qi| {
            let row = (qi * 131) % count;
            dataset
                .series(row)
                .iter()
                .enumerate()
                .map(|(t, &x)| x * (1.0 + 0.001 * (((t + qi) % 5) as f32 - 2.0)))
                .collect::<Vec<f32>>()
        })
        .collect();

    // Small leaves + a 12-symbol word force genuinely deep subtrees at
    // this scale; auto-repack is off so inserted rows and split leaves
    // stay in leaf tails until the explicit repacks below.
    let mut index = Builder::default()
        .threads(2)
        .leaf_capacity(8)
        .word_len(12)
        .sample_ratio(0.05)
        .auto_repack_pct(None)
        .build_sofa(&all[..initial], n)
        .expect("build");
    let stats = index.stats();
    assert!(stats.max_depth >= 4, "workload must build a deep tree: {stats:?}");

    // Phase 1: freshly built (every leaf packed).
    let flat = FlatL2::new(&all[..initial], n, 2);
    assert_exact(&index, &flat, &holdout[..per_phase * n], n, 3, "phase1-holdout");

    // Phase 2: known-item stream on the packed tree; also prove the
    // collect DFS goes below a root. A root-gated or single-leaf subtree
    // counts exactly 1 collected or pruned node, so a query whose total
    // exceeds the subtree count descended into a split subtree; most of
    // the stream must.
    let subtrees = stats.subtrees;
    let descended = dups
        .chunks(n)
        .filter(|q| {
            let (_, s) = index.knn_with_stats(q, 1).expect("stats query");
            s.leaves_collected + s.nodes_pruned > subtrees
        })
        .count();
    assert!(
        descended * 2 > per_phase,
        "collect DFS went below a root on only {descended}/{per_phase} queries \
         ({subtrees} subtrees)"
    );
    assert_exact(&index, &flat, &dups, n, 1, "phase2-dups");

    // Phase 3: first insert burst — leaves split and grow tails
    // mid-stream; queries must stay exact with NO repack.
    let burst1 = initial + (count / 8) * n;
    index.insert_all(&all[initial..burst1]).expect("insert");
    assert!(index.stats().fallback_leaf_pct > 0.0, "burst must leave tails: {:?}", index.stats());
    let flat = FlatL2::new(&all[..burst1], n, 2);
    assert_exact(&index, &flat, &holdout[..per_phase * n], n, 3, "phase3-tails");

    // Phase 4: repack (only subtrees with tails rebuild), then the
    // second half of the hold-out stream.
    index.repack_leaves();
    let s = index.stats();
    assert_eq!(s.packed_leaves, s.leaves, "repack must fold every tail");
    assert_eq!(s.fallback_leaf_pct, 0.0);
    assert_exact(&index, &flat, &holdout[per_phase * n..], n, 5, "phase4-repacked");

    // Phase 5: second burst + repack, replay the known-item stream
    // (their rows moved slots in the repack).
    index.insert_all(&all[burst1..]).expect("insert");
    index.repack_leaves();
    let flat = FlatL2::new(all, n, 2);
    assert_exact(&index, &flat, &dups, n, 3, "phase5-after-churn");
}
