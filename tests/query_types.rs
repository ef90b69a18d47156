//! Oracle suite for the generalized query funnel: range, filtered kNN
//! and max-inner-product must return **bit-identical** answers to a
//! brute-force oracle, on every path — direct calls, through the
//! `sofa-serve` coalescer in mixed-kind ticks, and across shard merges.
//! CI replays this binary under `SOFA_FORCE_SCALAR=1`, so the
//! predicate-masked and IP kernels are proven exact on every dispatch
//! tier.
//!
//! The oracle reproduces the refine phase's exact arithmetic: rows and
//! queries are z-normalized with the same dispatched kernel the build
//! uses, and distances come from `euclidean_sq_early_abandon` with an
//! infinite bound — the identical accumulation order the funnel uses
//! for any candidate it runs to completion, so comparisons are in bits,
//! not tolerances.

use sofa::simd::{dot, euclidean_sq_early_abandon, znormalize};
use sofa::summaries::{ip_from_score, ip_score};
use sofa::{
    Builder, IndexConfig, IndexError, IpNeighbor, Neighbor, QueryKind, RowFilter, ServeConfig,
    ServeError, Server, ShardedSofaIndex, SofaIndex,
};
use std::sync::Arc;
use std::time::Duration;

/// A named predicate pattern: `(label, admit-fn)`.
type Pattern = (&'static str, Box<dyn Fn(usize) -> bool>);

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let rr = (r + seed) as f32;
            data.push((x * 0.19 + rr).sin() + 0.6 * (x * (0.31 + (rr % 11.0) * 0.17)).cos());
        }
    }
    data
}

/// Brute-force ground truth over the same z-normalized rows the index
/// stores, scored with the same dispatched kernels the funnel scores
/// with.
struct Oracle {
    rows: Vec<f32>,
    n: usize,
    count: usize,
}

impl Oracle {
    fn new(data: &[f32], n: usize) -> Self {
        let mut rows = data.to_vec();
        // The facade normalizes rows once (so the SFA model learns from
        // the normalized view) and `Index::build` normalizes again;
        // z-normalization is only *approximately* idempotent, so the
        // oracle must replay both passes to match the stored rows in
        // bits.
        for row in rows.chunks_mut(n) {
            znormalize(row);
            znormalize(row);
        }
        Oracle { rows, n, count: data.len() / n }
    }

    /// Appends rows inserted online: `insert` z-normalizes each row once.
    fn insert(&mut self, data: &[f32]) {
        let start = self.rows.len();
        self.rows.extend_from_slice(data);
        self.rows[start..].chunks_mut(self.n).for_each(znormalize);
        self.count = self.rows.len() / self.n;
    }

    fn znorm_query(&self, query: &[f32]) -> Vec<f32> {
        let mut q = query.to_vec();
        znormalize(&mut q);
        q
    }

    /// Every admitted row's exact distance, sorted by `(dist_sq, row)` —
    /// the same total order `KnnSet` keeps.
    fn dists(&self, query: &[f32], admit: impl Fn(usize) -> bool) -> Vec<Neighbor> {
        let q = self.znorm_query(query);
        let mut out: Vec<Neighbor> = (0..self.count)
            .filter(|&r| admit(r))
            .map(|r| {
                let x = &self.rows[r * self.n..(r + 1) * self.n];
                let d = euclidean_sq_early_abandon(&q, x, f32::INFINITY);
                Neighbor { row: r as u32, dist_sq: d }
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn knn(&self, query: &[f32], k: usize, admit: impl Fn(usize) -> bool) -> Vec<Neighbor> {
        let mut all = self.dists(query, admit);
        all.truncate(k);
        all
    }

    fn range(&self, query: &[f32], r_sq: f32) -> Vec<Neighbor> {
        let mut all = self.dists(query, |_| true);
        all.retain(|nb| nb.dist_sq <= r_sq);
        all
    }

    /// Top-k by inner product with the z-normalized query, ranked by the
    /// Parseval score `2n - q·x` (ascending), ties by row — the order
    /// the IP funnel ranks in. Returns the true dot products.
    fn top_ip(&self, query: &[f32], k: usize) -> Vec<IpNeighbor> {
        let q = self.znorm_query(query);
        let mut scored: Vec<(f32, u32, f32)> = (0..self.count)
            .map(|r| {
                let x = &self.rows[r * self.n..(r + 1) * self.n];
                let ip = dot(&q, x);
                (ip_score(self.n, ip), r as u32, ip)
            })
            .collect();
        scored.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, row, ip)| IpNeighbor { row, ip }).collect()
    }
}

impl Oracle {
    /// The answer to `query` as `kind`, in the funnel's encoding (`Ip`
    /// rows carry their Parseval score in `dist_sq`).
    fn answer(&self, query: &[f32], kind: &QueryKind) -> Vec<Neighbor> {
        match kind {
            QueryKind::Knn { k } => self.knn(query, *k, |_| true),
            QueryKind::KnnFiltered { k, filter } => self.knn(query, *k, |r| filter.admits(r)),
            QueryKind::Range { r_sq } => self.range(query, *r_sq),
            QueryKind::Ip { k } => self
                .top_ip(query, *k)
                .into_iter()
                .map(|w| Neighbor { row: w.row, dist_sq: ip_score(self.n, w.ip) })
                .collect(),
        }
    }
}

/// One index reached through every query path: direct calls, batches,
/// the serve coalescer and a shard merge over the same rows.
struct Paths {
    index: Arc<SofaIndex>,
    server: Server<Arc<SofaIndex>>,
    sharded: ShardedSofaIndex,
}

impl Paths {
    fn build(data: &[f32], n: usize, threads: usize, shards: usize) -> Self {
        let builder = Builder::default().threads(threads).leaf_capacity(24).sample_ratio(0.4);
        let index = Arc::new(builder.clone().build_sofa(data, n).expect("build"));
        let server = Server::new(Arc::clone(&index), ServeConfig::new());
        let sharded = builder.build_sofa_sharded(data, n, shards).expect("sharded build");
        Paths { index, server, sharded }
    }

    /// Every path's answer to `query` as `kind`: the unsharded paths of
    /// [`unsharded_answers`] and the shards.
    fn answers(&self, query: &[f32], kind: &QueryKind) -> Vec<(&'static str, Vec<Neighbor>)> {
        let mut all = unsharded_answers(&self.index, &self.server, query, kind);
        all.push(("sharded", self.sharded.query(query, kind.clone()).expect("sharded")));
        all
    }

    /// Asserts that every path answers `query` as `kind` with `want`, bit
    /// for bit.
    fn assert_all(&self, query: &[f32], kind: &QueryKind, want: &[Neighbor], tag: &str) {
        for (path, got) in self.answers(query, kind) {
            assert_bits_eq(&got, want, &format!("{tag} {path} {kind:?}"));
        }
    }
}

/// `index`'s answer to `query` as `kind` on every unsharded path: direct
/// `query_into`, a batch of one, each member of a batch of two, and
/// `server`.
fn unsharded_answers(
    index: &SofaIndex,
    server: &Server<Arc<SofaIndex>>,
    query: &[f32],
    kind: &QueryKind,
) -> Vec<(&'static str, Vec<Neighbor>)> {
    let mut direct = Vec::new();
    index.query_into(query, kind, &mut direct).expect("direct");
    let mut all = vec![("direct", direct)];
    for (tag, m) in [("batch of one", 1), ("batch of two", 2)] {
        let outs: Vec<_> = (0..m).map(|_| Default::default()).collect();
        let kinds = vec![kind.clone(); m];
        index
            .query_batch_into_cancel(&query.repeat(m), &kinds, outs.as_slice(), &[])
            .expect("batch");
        all.extend(outs.into_iter().map(|out| (tag, out.into_inner())));
    }
    all.push(("served", server.query(query, kind.clone()).expect("served")));
    all
}

fn assert_bits_eq(got: &[Neighbor], want: &[Neighbor], tag: &str) {
    assert_eq!(got.len(), want.len(), "{tag}: cardinality");
    for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.row, w.row, "{tag} rank {rank}: row");
        assert_eq!(
            g.dist_sq.to_bits(),
            w.dist_sq.to_bits(),
            "{tag} rank {rank}: dist {} vs {}",
            g.dist_sq,
            w.dist_sq
        );
    }
}

fn build(data: &[f32], n: usize) -> SofaIndex {
    build_on(2, data, n)
}

fn build_on(threads: usize, data: &[f32], n: usize) -> SofaIndex {
    Builder::default()
        .threads(threads)
        .leaf_capacity(24)
        .sample_ratio(0.4)
        .build_sofa(data, n)
        .expect("build")
}

/// Range queries return exactly the brute-force ball — including rows
/// tied bit-exactly at the radius.
#[test]
fn range_matches_brute_force_including_ties_at_radius() {
    let n = 64;
    let count = 900;
    let data = dataset(count, n, 3);
    let oracle = Oracle::new(&data, n);
    let index = build(&data, n);
    for qi in 0..12 {
        let q = &data[(qi * 37 % count) * n..][..n];
        let all = oracle.dists(q, |_| true);
        // A radius sitting bit-exactly on a stored distance: the tied
        // row (and any bit-equal twins) must be returned.
        let tie = all[10].dist_sq;
        for (r_sq, tag) in [
            (tie, "tie"),
            (all[0].dist_sq * 0.5, "tiny"),
            (all[count - 1].dist_sq, "all"),
            (0.0, "zero"),
        ] {
            let got = index.range(q, r_sq).expect("range");
            assert_bits_eq(&got, &oracle.range(q, r_sq), &format!("q{qi} {tag}"));
        }
        let mut hits = Vec::new();
        let stats =
            index.query_into(q, &QueryKind::Range { r_sq: tie }, &mut hits).expect("range stats");
        assert_eq!(stats.range_hits, hits.len(), "range_hits counter");
        assert!(hits.iter().any(|nb| nb.dist_sq.to_bits() == tie.to_bits()), "tie row kept");
    }
}

/// Filtered kNN is bit-identical to brute-force post-filtering at every
/// selectivity, and never returns a rejected row.
#[test]
fn filtered_knn_is_bit_identical_to_post_filtering() {
    let n = 64;
    let count = 900;
    let data = dataset(count, n, 7);
    let oracle = Oracle::new(&data, n);
    let index = build(&data, n);
    let cases: Vec<Pattern> = vec![
        ("half", Box::new(|r| r % 2 == 0)),
        ("tenth", Box::new(|r| r % 10 == 3)),
        ("block", Box::new(move |r| r >= count / 2)),
        ("one", Box::new(|r| r == 421)),
    ];
    for (tag, admit) in &cases {
        let filter = RowFilter::from_fn(count, admit);
        for qi in 0..8 {
            let q = &data[(qi * 101 % count) * n..][..n];
            let got = index.knn_filtered(q, 10, &filter).expect("filtered");
            assert!(got.iter().all(|nb| admit(nb.row as usize)), "rejected row leaked");
            let want = oracle.knn(q, 10, admit);
            assert_bits_eq(&got, &want, &format!("q{qi} {tag}"));
        }
    }
    // The masked kernels actually mask: a selective predicate must
    // reject candidate lanes inside the funnel, not after it.
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 10 == 3));
    let kind = QueryKind::KnnFiltered { k: 10, filter };
    let stats = index.query_into(&data[..n], &kind, &mut Vec::new()).expect("stats");
    assert!(stats.predicate_lanes_masked > 0, "predicate never masked a lane");
}

/// Max-inner-product answers carry the true dot products and rank
/// exactly as the brute-force Parseval ordering, on one lane and on a
/// pool. The query set includes a constant query: it z-normalizes to
/// zeros, so every row sits at squared distance `≈ n` with many exact
/// ties, and k-NN must then keep the lowest rows of the tie, as the
/// `(dist_sq, row)` order says, whatever the lane count.
#[test]
fn ip_queries_match_brute_force() {
    let n = 64;
    let count = 700;
    let data = dataset(count, n, 11);
    let oracle = Oracle::new(&data, n);
    let constant = vec![0.25f32; n];
    let queries = (0..10).map(|qi| &data[(qi * 67 % count) * n..][..n]).chain([&constant[..]]);
    for threads in [1, 2] {
        let index = build_on(threads, &data, n);
        for (qi, q) in queries.clone().enumerate() {
            let tag = format!("threads={threads} q{qi}");
            let got = index.knn_ip(q, 5).expect("knn_ip");
            let want = oracle.top_ip(q, 5);
            assert_eq!(got.len(), want.len(), "{tag}");
            for (rank, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(g.row, w.row, "{tag} rank {rank}");
                assert_eq!(g.ip.to_bits(), w.ip.to_bits(), "{tag} rank {rank}: ip");
            }
            let best = index.knn_ip(q, 1).expect("top-1 ip")[0];
            assert_eq!(best.row, want[0].row);
            assert_eq!(best.ip.to_bits(), want[0].ip.to_bits());
            let nn = index.knn(q, 5).expect("knn");
            assert_bits_eq(&nn, &oracle.knn(q, 5, |_| true), &format!("{tag} knn"));
        }
    }
}

/// Mixed-kind ticks through the serve coalescer return exactly what the
/// direct per-query calls return, under concurrent submission.
#[test]
fn serve_mixed_ticks_agree_with_direct_calls() {
    let n = 64;
    let count = 600;
    let data = dataset(count, n, 19);
    let index = Arc::new(build(&data, n));
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 3 != 1));
    // A small fill target + wait window so concurrent submitters of
    // *different* kinds coalesce into shared ticks.
    let server = Server::new(
        Arc::clone(&index),
        ServeConfig::new().fill_target(4).max_wait(Duration::from_micros(200)),
    );
    std::thread::scope(|s| {
        for caller in 0..8 {
            let server = &server;
            let index = &index;
            let filter = &filter;
            let data = &data;
            s.spawn(move || {
                for i in 0..10 {
                    let q = &data[((caller * 31 + i * 7) % count) * n..][..n];
                    match (caller + i) % 4 {
                        0 => {
                            let got = server.query(q, QueryKind::Knn { k: 5 }).expect("serve knn");
                            assert_bits_eq(&got, &index.knn(q, 5).expect("knn"), "mixed knn");
                        }
                        1 => {
                            let kind = QueryKind::KnnFiltered { k: 5, filter: Arc::clone(filter) };
                            let got = server.query(q, kind).expect("serve filtered");
                            let want = index.knn_filtered(q, 5, filter).expect("filtered");
                            assert_bits_eq(&got, &want, "mixed filtered");
                        }
                        2 => {
                            let r_sq = index.nn(q).expect("nn").dist_sq * 4.0;
                            let got =
                                server.query(q, QueryKind::Range { r_sq }).expect("serve range");
                            assert_bits_eq(
                                &got,
                                &index.range(q, r_sq).expect("range"),
                                "mixed range",
                            );
                        }
                        _ => {
                            let got = server.query(q, QueryKind::Ip { k: 3 }).expect("serve ip");
                            let want = index.knn_ip(q, 3).expect("knn_ip");
                            for (g, w) in got.iter().zip(want.iter()) {
                                assert_eq!(g.row, w.row, "mixed ip row");
                                // The served answer carries the funnel
                                // score; recovering the dot costs one f64
                                // rounding.
                                let ip = ip_from_score(n, g.dist_sq);
                                assert!((ip - w.ip).abs() <= 1e-3 * w.ip.abs().max(1.0));
                            }
                        }
                    }
                }
            });
        }
    });
    let stats = server.stats();
    assert_eq!(stats.queries, 80);
}

mod adversarial {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary dataset whose row count is deliberately *not* aligned
    /// to the 8-lane kernel groups most of the time, so the last block
    /// group is padded and the predicate bitmap is shorter than the
    /// padded group.
    fn arb_dataset(n: usize) -> impl Strategy<Value = Vec<f32>> {
        (9usize..48).prop_flat_map(move |rows| proptest::collection::vec(-8.0f32..8.0, rows * n))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Hostile predicate shapes — an all-zero bitmap, a single
        /// surviving row, alternating lanes, and a bitmap whose tail
        /// group is padding — are bit-identical to brute-force
        /// post-filtering.
        #[test]
        fn hostile_filters_match_post_filtering(
            data in arb_dataset(32),
            survivor_sel in 0usize..1000,
        ) {
            let n = 32;
            let count = data.len() / n;
            let index = Builder::default()
                .word_len(8)
                .leaf_capacity(8)
                .threads(2)
                .sample_ratio(1.0)
                .build_sofa(&data, n)
                .expect("build");
            let oracle = Oracle::new(&data, n);
            let survivor = survivor_sel % count;
            let patterns: Vec<Pattern> = vec![
                ("all-zero", Box::new(|_| false)),
                ("single-survivor", Box::new(move |r| r == survivor)),
                ("alternating", Box::new(|r| r % 2 == 0)),
                // Rejecting the tail rows puts every admitted row next
                // to masked padding lanes in the final 8-wide group.
                ("tail-padding", Box::new(move |r| r < count.saturating_sub(count % 8 + 1))),
            ];
            let q = &data[survivor * n..][..n];
            for (tag, admit) in &patterns {
                let filter = RowFilter::from_fn(count, admit);
                let got = index.knn_filtered(q, 5, &filter).expect("filtered");
                prop_assert!(
                    got.iter().all(|nb| admit(nb.row as usize)),
                    "{tag}: rejected row leaked"
                );
                let want = oracle.knn(q, 5, admit);
                prop_assert_eq!(got.len(), want.len(), "{} cardinality", tag);
                for (g, w) in got.iter().zip(want.iter()) {
                    prop_assert_eq!(g.row, w.row, "{} row", tag);
                    prop_assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits(), "{} dist", tag);
                }
            }
        }

        /// A radius sitting bit-exactly on a stored row's distance keeps
        /// that row in the answer on arbitrary data.
        #[test]
        fn range_keeps_ties_exactly_at_the_radius(
            data in arb_dataset(32),
            tie_sel in 0usize..1000,
        ) {
            let n = 32;
            let count = data.len() / n;
            let index = Builder::default()
                .word_len(8)
                .leaf_capacity(8)
                .threads(2)
                .sample_ratio(1.0)
                .build_sofa(&data, n)
                .expect("build");
            let oracle = Oracle::new(&data, n);
            let q = &data[..n];
            let all = oracle.dists(q, |_| true);
            let tie = all[tie_sel % count];
            let got = index.range(q, tie.dist_sq).expect("range");
            let want = oracle.range(q, tie.dist_sq);
            prop_assert_eq!(got.len(), want.len(), "cardinality at r_sq={}", tie.dist_sq);
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert_eq!(g.row, w.row);
                prop_assert_eq!(g.dist_sq.to_bits(), w.dist_sq.to_bits());
            }
            prop_assert!(
                got.iter().any(|nb| nb.row == tie.row),
                "row {} tied exactly at the radius was dropped", tie.row
            );
        }
    }
}

/// Shard fan-out + merge is bit-identical to an unsharded build over
/// the same rows, for every query kind.
#[test]
fn sharded_queries_agree_with_unsharded() {
    let n = 64;
    let count = 800;
    let data = dataset(count, n, 23);
    let unsharded = build(&data, n);
    let sharded: ShardedSofaIndex = Builder::default()
        .threads(2)
        .leaf_capacity(24)
        .sample_ratio(0.4)
        .build_sofa_sharded(&data, n, 3)
        .expect("sharded build");
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 4 != 2));
    for qi in 0..10 {
        let q = &data[(qi * 83 % count) * n..][..n];
        let knn = sharded.query(q, QueryKind::Knn { k: 7 }).expect("sharded knn");
        assert_bits_eq(&knn, &unsharded.knn(q, 7).expect("knn"), "shard knn");

        let kf = QueryKind::KnnFiltered { k: 7, filter: Arc::clone(&filter) };
        let filt = sharded.query(q, kf).expect("sharded filtered");
        let want = unsharded.knn_filtered(q, 7, &filter).expect("filtered");
        assert_bits_eq(&filt, &want, "shard filtered");

        let r_sq = unsharded.nn(q).expect("nn").dist_sq * 6.0;
        let rng = sharded.query(q, QueryKind::Range { r_sq }).expect("sharded range");
        assert_bits_eq(&rng, &unsharded.range(q, r_sq).expect("range"), "shard range");

        let ip = sharded.query(q, QueryKind::Ip { k: 4 }).expect("sharded ip");
        let want_ip = unsharded.knn_ip(q, 4).expect("knn_ip");
        assert_eq!(ip.len(), want_ip.len(), "shard ip cardinality");
        for (g, w) in ip.iter().zip(want_ip.iter()) {
            assert_eq!(g.row, w.row, "shard ip row");
            // Sharded IP answers travel as funnel scores in `dist_sq`.
            assert_eq!(
                g.dist_sq.to_bits(),
                ip_score(n, w.ip).to_bits(),
                "shard ip score for row {}",
                g.row
            );
        }
    }
}

/// A query holding NaN or ±inf is refused on every path — direct calls
/// of every kind, batches, shards and the server — instead of being
/// z-normalized to zeros and answered as the constant query. A constant
/// finite query is still answered.
#[test]
fn non_finite_queries_are_rejected_on_every_path() {
    let n = 64;
    let count = 500;
    let data = dataset(count, n, 29);
    let index = Arc::new(build(&data, n));
    let sharded: ShardedSofaIndex = Builder::default()
        .threads(2)
        .leaf_capacity(24)
        .build_sofa_sharded(&data, n, 2)
        .expect("sharded");
    let server = Server::new(Arc::clone(&index), ServeConfig::new());
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 2 == 0));
    let kinds = [
        QueryKind::Knn { k: 3 },
        QueryKind::KnnFiltered { k: 3, filter: Arc::clone(&filter) },
        QueryKind::Range { r_sq: 100.0 },
        QueryKind::Ip { k: 3 },
    ];
    let is_bad = |r: Result<Vec<Neighbor>, IndexError>| matches!(r, Err(IndexError::BadQuery(_)));
    let constant = vec![1.0f32; n];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut q = data[..n].to_vec();
        q[3] = bad;
        for kind in &kinds {
            let tag = format!("{bad} {kind:?}");
            let direct = index.query_into(&q, kind, &mut Vec::new());
            assert!(matches!(direct, Err(IndexError::BadQuery(_))), "{tag}");
            assert!(is_bad(sharded.query(&q, kind.clone())), "sharded {tag}");
            assert!(
                matches!(
                    server.query(&q, kind.clone()),
                    Err(ServeError::Index(IndexError::BadQuery(_)))
                ),
                "served {tag}"
            );
        }
        assert!(is_bad(index.knn(&q, 3)), "{bad} knn");
        assert!(index.knn_ip(&q, 3).is_err(), "{bad} knn_ip");
        // One bad query fails its whole batch.
        let mut batch = constant.clone();
        batch.extend_from_slice(&q);
        assert!(matches!(index.knn_batch(&batch, 3), Err(IndexError::BadQuery(_))), "{bad} batch");
    }
    // A constant finite query z-normalizes to zeros legitimately: every
    // path answers it, and the server still serves after the refusals.
    let want = index.knn(&constant, 3).expect("constant knn");
    assert_eq!(want.len(), 3);
    assert_eq!(index.knn_batch(&constant, 3).expect("constant batch")[0], want);
    assert_bits_eq(
        &sharded.query(&constant, QueryKind::Knn { k: 3 }).expect("sharded"),
        &want,
        "sharded",
    );
    assert_bits_eq(
        &server.query(&constant, QueryKind::Knn { k: 3 }).expect("served"),
        &want,
        "served",
    );
}

/// A `k` above the row count is answered with every row on every path,
/// as `k = n` would be: the result sets are armed with at most the rows
/// the index holds, so a huge `k` neither overflows (`usize::MAX`) nor
/// reserves memory by it (2^36 rows aborted the process). `knn_batch`
/// takes the same door.
#[test]
fn huge_k_is_answered_as_k_equals_n_on_every_path() {
    let n = 32;
    let count = 90;
    let data = dataset(count, n, 31);
    let oracle = Oracle::new(&data, n);
    let paths = Paths::build(&data, n, 2, 3);
    let filter = Arc::new(RowFilter::from_fn(count, |r| r % 3 != 0));
    let kinds = |k: usize| {
        [
            QueryKind::Knn { k },
            QueryKind::KnnFiltered { k, filter: Arc::clone(&filter) },
            QueryKind::Ip { k },
        ]
    };
    for qi in [0, 41, 89] {
        let q = &data[qi * n..][..n];
        for k in [count + 1, 1usize << 36, usize::MAX] {
            for (huge, at_n) in kinds(k).iter().zip(kinds(count).iter()) {
                let mut want = Vec::new();
                paths.index.query_into(q, at_n, &mut want).expect("k = n");
                assert_bits_eq(&want, &oracle.answer(q, at_n), &format!("q{qi} k = n {at_n:?}"));
                paths.assert_all(q, huge, &want, &format!("q{qi} k={k}"));
            }
            let batch = paths.index.knn_batch(&q.repeat(3), k).expect("knn_batch");
            for got in &batch {
                assert_bits_eq(got, &oracle.knn(q, count, |_| true), &format!("q{qi} knn_batch"));
            }
        }
    }
}

/// The hostile inputs of the exactness roadmap, on all four kinds and
/// every path, against the brute-force oracle bit for bit: `k` above the
/// row count, filters admitting fewer than `k` rows (and none), radius 0
/// and `f32::MAX`, and a one-row index.
#[test]
fn hostile_inputs_match_the_oracle_on_every_path() {
    let n = 32;
    for (count, shards) in [(100, 3), (1, 1)] {
        let data = dataset(count, n, 37);
        let oracle = Oracle::new(&data, n);
        for threads in [1, 2] {
            let paths = Paths::build(&data, n, threads, shards);
            let three = Arc::new(RowFilter::from_fn(count, |r| r % 37 == 5));
            let kinds = [
                QueryKind::Knn { k: 1 },
                QueryKind::Knn { k: count + 900 },
                QueryKind::KnnFiltered { k: 10, filter: three },
                QueryKind::KnnFiltered { k: 3, filter: Arc::new(RowFilter::none(count)) },
                QueryKind::KnnFiltered { k: count + 1, filter: Arc::new(RowFilter::all(count)) },
                QueryKind::Range { r_sq: 0.0 },
                QueryKind::Range { r_sq: f32::MAX },
                QueryKind::Ip { k: 1 },
                QueryKind::Ip { k: count + 900 },
            ];
            for qi in [0, count / 2, count - 1] {
                let q = &data[qi * n..][..n];
                for kind in &kinds {
                    let want = oracle.answer(q, kind);
                    let tag = format!("rows={count} threads={threads} q{qi}");
                    paths.assert_all(q, kind, &want, &tag);
                }
            }
            if count == 100 {
                // The oracle itself sees the shapes the inputs promise.
                let q = &data[..n];
                assert_eq!(oracle.answer(q, &kinds[1]).len(), count, "k > n: every row");
                assert_eq!(oracle.answer(q, &kinds[2]).len(), 3, "3-row filter at k = 10");
                assert_eq!(oracle.answer(q, &kinds[6]).len(), count, "radius f32::MAX");
            }
        }
    }
}

/// `count` rows around `protos` prototypes, each its prototype plus
/// seeded noise of amplitude 0.02, so most rows share a few root keys.
fn concentrated(count: usize, n: usize, protos: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    let mut noise = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 0.04
    };
    (0..count)
        .flat_map(|r| (0..n).map(move |t| (r % protos, t as f32)))
        .map(|(p, x)| {
            let p = p as f32;
            (x * 0.19 + p * 1.7).sin() + 0.6 * (x * (0.31 + p * 0.17)).cos() + noise()
        })
        .collect()
}

/// All four kinds against the oracle, bit for bit, on every unsharded
/// path of `index`.
fn assert_kinds_exact(index: &Arc<SofaIndex>, oracle: &Oracle, queries: &[f32], tag: &str) {
    let n = oracle.n;
    let server = Server::new(Arc::clone(index), ServeConfig::new());
    let filter = Arc::new(RowFilter::from_fn(oracle.count, |r| r % 3 != 0));
    for (qi, q) in queries.chunks(n).enumerate() {
        let r_sq = oracle.dists(q, |_| true)[15].dist_sq;
        let kinds = [
            QueryKind::Knn { k: 10 },
            QueryKind::KnnFiltered { k: 10, filter: Arc::clone(&filter) },
            QueryKind::Range { r_sq },
            QueryKind::Ip { k: 10 },
        ];
        for kind in &kinds {
            let want = oracle.answer(q, kind);
            for (path, got) in unsharded_answers(index, &server, q, kind) {
                assert_bits_eq(&got, &want, &format!("{tag} q{qi} {path} {kind:?}"));
            }
        }
    }
}

/// At the default leaf capacity (no override) on rows concentrated
/// enough that subtrees split, every kind stays exact on the direct,
/// batch and served paths: after the build, after inserts that split
/// packed leaves, and after a snapshot round trip. An index reopens at
/// the capacity stored in its file, whatever the default.
#[test]
fn default_leaf_capacity_splits_and_stays_exact_through_inserts_and_reopen() {
    let n = 64;
    let cap = IndexConfig::default().leaf_capacity;
    let (base, extra) = (4 * cap, cap / 2);
    let rows = concentrated(base, n, 3, 41);
    // One prototype's rows, so they crowd the same leaves.
    let inserts = concentrated(extra, n, 1, 42);
    let fresh = concentrated(4, n, 3, 43);
    // A mirrored row: its root key matches no subtree of these three
    // prototypes' rows, so the seed descends from the subtree the root
    // gate prices lowest.
    let mirrored: Vec<f32> = rows[..n].iter().map(|v| -v).collect();
    let queries: Vec<f32> = [
        &rows[..n],
        &rows[(base / 2) * n..][..n],
        &inserts[(extra - 1) * n..],
        &fresh[..],
        &mirrored[..],
    ]
    .concat();

    let mut oracle = Oracle::new(&rows, n);
    let mut index = Arc::new(Builder::default().build_sofa(&rows, n).expect("build"));
    let built = index.stats();
    assert_eq!(index.config().leaf_capacity, cap);
    assert!(built.leaves > built.subtrees, "the default capacity must split: {built:?}");
    assert_kinds_exact(&index, &oracle, &queries, "built");

    // The burst splits leaves, and a split moves its leaf's packed rows
    // into tails, so it crosses the auto-repack threshold; the last eight
    // rows stay in tails.
    let grow = Arc::get_mut(&mut index).expect("server released");
    let (burst, trickle) = inserts.split_at((extra - 8) * n);
    grow.insert_all(burst).expect("insert");
    grow.insert_all(trickle).expect("insert");
    oracle.insert(&inserts);
    let grown = index.stats();
    assert!(grown.leaves > built.leaves, "inserts must split leaves: {built:?} -> {grown:?}");
    assert!(grown.fallback_leaf_pct > 0.0, "inserted rows sit in leaf tails: {grown:?}");
    assert_kinds_exact(&index, &oracle, &queries, "inserted");

    let reopen = |index: &SofaIndex, tag: &str| {
        let path =
            std::env::temp_dir().join(format!("sofa-query-types-{tag}-{}.idx", std::process::id()));
        index.snapshot(&path).expect("snapshot");
        let opened = Builder::default().open_sofa(&path);
        let _ = std::fs::remove_file(&path);
        opened.expect("open")
    };
    let reopened = Arc::new(reopen(&index, "default-cap"));
    assert_eq!(reopened.config().leaf_capacity, cap);
    assert_eq!(reopened.stats().leaves, grown.leaves);
    assert_kinds_exact(&reopened, &oracle, &queries, "reopened");
    // A file written at another capacity (the paper's 20,000) keeps it.
    let paper = Builder::default().leaf_capacity(20_000).build_sofa(&rows, n).expect("build");
    assert_eq!(reopen(&paper, "paper-cap").config().leaf_capacity, 20_000);
}
