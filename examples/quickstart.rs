//! Quickstart: build a SOFA index, answer exact 1-NN and k-NN queries,
//! and cross-check against a brute-force scan.
//!
//! Run with:
//! ```sh
//! cargo run --release -p sofa --example quickstart
//! ```

use sofa::baselines::UcrScan;
use sofa::data::{Generator, SignalKind};
use sofa::Builder;
use std::time::Instant;

fn main() {
    let series_len = 256;
    let n_series = 20_000;
    let n_queries = 10;

    println!("generating {n_series} synthetic seismic series of length {series_len}...");
    // Data and queries share the prototype pool (same seed) but use
    // different instance streams: hold-out queries with close — but never
    // identical — matches, like the paper's workloads.
    let kind = SignalKind::Seismic { hf: 0.6, snr: 5.0 };
    let mut generator = Generator::with_options(kind.clone(), series_len, 42, 0, 128, 0.25);
    let data = generator.generate_flat(n_series);
    let mut query_gen = Generator::with_options(kind, series_len, 42, 1, 128, 0.25);
    let queries = query_gen.generate_flat(n_queries);

    println!("building SOFA index (SFA word length 16, alphabet 256)...");
    let t = Instant::now();
    let index = Builder::default().build_sofa(&data, series_len).expect("index build");
    println!(
        "  built in {:.2?}: {} subtrees, {} leaves, avg depth {:.1}",
        t.elapsed(),
        index.stats().subtrees,
        index.stats().leaves,
        index.stats().avg_depth
    );

    // A scan baseline to demonstrate exactness.
    let scan = UcrScan::new(&data, series_len, 4);

    println!("\nanswering {n_queries} exact 1-NN queries:");
    let mut index_total = 0.0;
    let mut scan_total = 0.0;
    for (qi, q) in queries.chunks(series_len).enumerate() {
        let t = Instant::now();
        let (nn_set, stats) = index.knn_with_stats(q, 1).expect("query");
        let nn = nn_set[0];
        let index_ms = t.elapsed().as_secs_f64() * 1e3;
        index_total += index_ms;

        let t = Instant::now();
        let scan_nn = scan.nn(q);
        let scan_ms = t.elapsed().as_secs_f64() * 1e3;
        scan_total += scan_ms;

        assert_eq!(nn.row, scan_nn.row, "index and scan must agree");
        println!(
            "  q{qi}: row {:>6}  dist {:>8.3}  | SOFA {index_ms:>7.2} ms (checked {:>5} of {n_series} series) | scan {scan_ms:>7.2} ms",
            nn.row,
            nn.dist_sq.sqrt(),
            stats.series_refined,
        );
    }
    println!(
        "\nmean query time: SOFA {:.2} ms vs scan {:.2} ms ({:.1}x faster)",
        index_total / n_queries as f64,
        scan_total / n_queries as f64,
        scan_total / index_total
    );

    // k-NN.
    let q = &queries[..series_len];
    let top5 = index.knn(q, 5).expect("knn");
    println!("\ntop-5 neighbors of query 0:");
    for (i, nb) in top5.iter().enumerate() {
        println!("  #{i}: row {:>6}  distance {:.4}", nb.row, nb.dist_sq.sqrt());
    }
}
