//! Snapshot round-trip exactness: an index reopened from its snapshot
//! must answer 500 mixed queries bit-identically to the live index
//! that wrote it, and row-identically to a brute-force ground truth —
//! with the quantized refine tier's grid and without one (series longer
//! than the tier covers), and through the micro-batching `Server`
//! front-end.

use sofa::baselines::FlatL2;
use sofa::summaries::Summarization;
use sofa::{describe, Builder, ExecPool, QueryKind, ServeConfig, Server, SofaIndex};
use std::sync::atomic::{AtomicUsize, Ordering};
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

fn tmp_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sofa-roundtrip-{}-{tag}-{id}.idx", std::process::id()))
}

/// 500 mixed queries: varying k, single-path and batch-path, verified
/// bit-for-bit against the live index and row-for-row against FlatL2.
fn run_query_suite(name: &str, live: &SofaIndex, opened: &SofaIndex, flat: &FlatL2, n: usize) {
    let queries = dataset(500, n, 40_000);
    for (qi, q) in queries.chunks(n).enumerate() {
        let k = 1 + qi % 10;
        let a = live.knn(q, k).expect("live query");
        let b = opened.knn(q, k).expect("opened query");
        assert_eq!(a.len(), b.len(), "{name} query {qi} k={k}");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.row, y.row, "{name} query {qi} k={k}");
            assert_eq!(
                x.dist_sq.to_bits(),
                y.dist_sq.to_bits(),
                "{name} query {qi} k={k}: dist bits differ"
            );
        }
        let truth = flat.knn_one(q, k);
        for (y, w) in b.iter().zip(truth.iter()) {
            assert_eq!(y.row, w.row, "{name} query {qi} k={k}: snapshot vs FlatL2");
        }
    }
}

#[test]
fn sofa_round_trip_500_queries_bit_identical() {
    let n = 64;
    let data = dataset(900, n, 0);
    let pool = ExecPool::shared(2);
    let live = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(60)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");
    let flat = FlatL2::new(&data, n, 2);

    let path = tmp_path("sofa");
    let bytes = live.snapshot(&path).expect("snapshot");
    assert!(bytes > 0);
    let opened = Builder::default().pool(Arc::clone(&pool)).open_sofa(&path).expect("open");
    assert!(opened.is_mapped() && !live.is_mapped());
    assert_eq!(opened.n_series(), live.n_series());
    assert_eq!(opened.summarization().name(), live.summarization().name());
    // The quantized refine tier survives the round trip.
    assert!(describe(&path).expect("describe").capabilities.quant_grid_present);

    run_query_suite("sofa", &live, &opened, &flat, n);

    // Batch path agrees with the single-query path on the mapped index.
    let queries = dataset(16, n, 55_000);
    let batch = opened.knn_batch(&queries, 5).expect("batch");
    for (qi, q) in queries.chunks(n).enumerate() {
        assert_eq!(batch[qi], live.knn(q, 5).expect("live"), "batch query {qi}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn messi_round_trip_matches_live_and_flat() {
    let n = 64;
    let data = dataset(700, n, 3);
    let live =
        Builder::default().threads(2).leaf_capacity(50).build_messi(&data, n).expect("build");
    let flat = FlatL2::new(&data, n, 2);

    let path = tmp_path("messi");
    live.snapshot(&path).expect("snapshot");
    let pool = ExecPool::shared(2);
    let opened = Builder::default().pool(Arc::clone(&pool)).open_messi(&path).expect("open");
    assert!(opened.is_mapped());
    assert!(Arc::ptr_eq(opened.pool(), &pool));

    let queries = dataset(100, n, 91_000);
    for (qi, q) in queries.chunks(n).enumerate() {
        let k = 1 + qi % 7;
        let a = live.knn(q, k).expect("live");
        let b = opened.knn(q, k).expect("opened");
        assert_eq!(a, b, "query {qi} k={k}");
        for (y, w) in b.iter().zip(flat.knn_one(q, k).iter()) {
            assert_eq!(y.row, w.row, "query {qi} k={k}: snapshot vs FlatL2");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn quant_disabled_build_round_trips_without_grid() {
    // Series longer than the quantized tier covers leave the index
    // without a grid: the funnel goes straight from the word bound to
    // the exact scan, on the live index and on the reopened one alike.
    let n = 2056;
    let data = dataset(160, n, 7);
    let live = Builder::default()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");

    let path = tmp_path("noquant");
    live.snapshot(&path).expect("snapshot");
    assert!(!describe(&path).expect("describe").capabilities.quant_grid_present);
    let opened = SofaIndex::open(&path).expect("open");

    let flat = FlatL2::new(&data, n, 2);
    let queries = dataset(30, n, 123);
    for (qi, q) in queries.chunks(n).enumerate() {
        let a = live.knn(q, 3).expect("live");
        let b = opened.knn(q, 3).expect("opened");
        assert_eq!(a, b, "query {qi}");
        for (y, w) in b.iter().zip(flat.knn_one(q, 3).iter()) {
            assert_eq!(y.row, w.row, "query {qi} vs FlatL2");
        }
        let (_, stats) = opened.knn_with_stats(q, 3).expect("stats");
        assert_eq!(stats.quant_groups_swept, 0, "query {qi} met a tier with no grid");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn server_over_reopened_snapshot_is_bit_identical() {
    let n = 64;
    let data = dataset(600, n, 11);
    let live = Arc::new(
        Builder::default()
            .threads(2)
            .leaf_capacity(50)
            .sample_ratio(0.5)
            .build_sofa(&data, n)
            .expect("build"),
    );
    let path = tmp_path("server");
    live.snapshot(&path).expect("snapshot");
    let opened = Arc::new(SofaIndex::open(&path).expect("open"));

    let server = Server::new(Arc::clone(&opened), ServeConfig::new().fill_target(3));
    let queries = dataset(18, n, 2222);
    std::thread::scope(|s| {
        for caller in 0..3usize {
            let server = &server;
            let live = &live;
            let queries = &queries;
            s.spawn(move || {
                for (qi, q) in queries.chunks(n).enumerate() {
                    let k = 1 + (caller + qi) % 5;
                    assert_eq!(
                        server.query(q, QueryKind::Knn { k }).expect("coalesced"),
                        live.knn(q, k).expect("live"),
                        "caller {caller} query {qi} k={k}"
                    );
                }
            });
        }
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopened_index_keeps_growing_and_snapshots_again() {
    let n = 64;
    let data = dataset(300, n, 21);
    let live = Builder::default()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");
    let path = tmp_path("regrow");
    live.snapshot(&path).expect("snapshot");

    let mut opened = SofaIndex::open(&path).expect("open");
    let extra = dataset(50, n, 40);
    opened.insert_all(&extra).expect("insert");
    assert!(!opened.is_mapped(), "inserts must promote mapped arenas to owned");
    opened.repack_leaves();

    // The grown index snapshots and reopens, answering over all rows.
    let path2 = tmp_path("regrow2");
    opened.snapshot(&path2).expect("second snapshot");
    let second = SofaIndex::open(&path2).expect("second open");
    assert_eq!(second.n_series(), 350);
    let mut all = Vec::new();
    for chunk in data.chunks(n).chain(extra.chunks(n)) {
        all.extend_from_slice(chunk);
    }
    let flat = FlatL2::new(&all, n, 2);
    for q in dataset(20, n, 31_337).chunks(n) {
        assert_eq!(second.nn(q).expect("query").row, flat.nn(q).row);
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}

#[test]
fn snapshot_with_leaf_tails_reopens_with_identical_answers_and_stats() {
    let n = 64;
    let data = dataset(600, n, 5);
    let extra = dataset(90, n, 7_000);
    let pool = ExecPool::shared(1);
    let mut live = Builder::default()
        .pool(Arc::clone(&pool))
        .leaf_capacity(10)
        .sample_ratio(0.5)
        .auto_repack_pct(None)
        .build_sofa(&data, n)
        .expect("build");
    // Which (subtree key, node) holds a packed run before the inserts.
    let packed_before: Vec<(u64, usize)> = live
        .subtrees()
        .iter()
        .flat_map(|st| {
            let packed = st.nodes.iter().map(|n| n.pack().is_some_and(|p| p.len > 0));
            packed.enumerate().filter(|&(_, p)| p).map(move |(i, _)| (st.key, i))
        })
        .collect();
    let keys_before: Vec<u64> = live.subtrees().iter().map(|st| st.key).collect();
    live.insert_all(&extra).expect("insert");
    let stats = live.stats();
    assert!(stats.packed_leaves < stats.leaves, "inserts must leave tails: {stats:?}");
    // The inserts split a packed leaf, orphaning its run, and opened a new
    // subtree: the open's slot walk must skip both kinds of tail slot.
    let subtrees = live.subtrees();
    let split = packed_before.iter().any(|&(key, i)| {
        subtrees.iter().find(|st| st.key == key).is_some_and(|st| !st.nodes[i].is_leaf())
    });
    assert!(split, "the inserts must split a packed leaf");
    let new_subtree = subtrees.iter().any(|st| !keys_before.contains(&st.key));
    assert!(new_subtree, "the inserts must open a subtree");

    // Written before any compaction: the file carries each leaf's packed
    // length, and the tails come back from the tree and the slot map.
    let path = tmp_path("tails");
    live.snapshot(&path).expect("snapshot");
    let opened = Builder::default().pool(Arc::clone(&pool)).open_sofa(&path).expect("open");
    std::fs::remove_file(&path).ok();
    // Every leaf comes back with its rows, its pack start and its length.
    assert_eq!(opened.subtrees().len(), live.subtrees().len());
    for (a, b) in live.subtrees().iter().zip(opened.subtrees()) {
        assert_eq!((a.key, a.nodes.len()), (b.key, b.nodes.len()));
        for (i, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(x.rows(), y.rows(), "subtree {:#x} node {i}", a.key);
            let run = |n: &sofa::index::Node| n.pack().map(|p| (p.start, p.len));
            assert_eq!(run(x), run(y), "subtree {:#x} node {i}", a.key);
        }
    }
    let reopened = opened.stats();
    assert_eq!(
        (reopened.leaves, reopened.packed_leaves, reopened.fallback_leaf_pct),
        (stats.leaves, stats.packed_leaves, stats.fallback_leaf_pct)
    );

    let filter = Arc::new(sofa::RowFilter::from_fn(live.n_series(), |row| row % 3 != 0));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (qi, q) in dataset(24, n, 12_345).chunks(n).chain(extra.chunks(n).step_by(9)).enumerate() {
        let r_sq = live.knn(q, 20).expect("knn")[19].dist_sq;
        let kinds = [
            QueryKind::Knn { k: 1 + qi % 10 },
            QueryKind::KnnFiltered { k: 5, filter: Arc::clone(&filter) },
            QueryKind::Range { r_sq },
            QueryKind::Ip { k: 5 },
        ];
        for kind in &kinds {
            let want = live.query_into(q, kind, &mut a).expect("live");
            let got = opened.query_into(q, kind, &mut b).expect("opened");
            assert_eq!(a, b, "query {qi} {kind:?}");
            assert_eq!(got, want, "query {qi} {kind:?}: stats");
        }
    }
}
