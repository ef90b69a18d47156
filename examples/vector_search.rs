//! Vector-dataset search: SOFA vs a FAISS-flat-style exact scan.
//!
//! The paper includes three billion-scale vector collections (SIFT1B,
//! BigANN, Deep1B) and compares against FAISS `IndexFlatL2` with queries
//! processed in mini-batches equal to the core count. This example runs
//! the same protocol on a SIFT-like descriptor workload: batch queries
//! through the flat index, sequential queries through SOFA, verify both
//! return identical exact answers, and report timings.
//!
//! Run with:
//! ```sh
//! cargo run --release -p sofa --example vector_search
//! ```

use sofa::baselines::FlatL2;
use sofa::data::registry;
use sofa::Builder;
use std::time::Instant;

fn main() {
    let spec = registry().into_iter().find(|s| s.name == "SIFT1b").expect("registry");
    let n_series = 30_000;
    let n_queries = 16;
    println!(
        "dataset: {} analogue (descriptor vectors, length {}), {} vectors",
        spec.name, spec.series_len, n_series
    );
    let dataset = spec.generate(n_series, n_queries);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("building SOFA index and FlatL2 baseline...");
    let t = Instant::now();
    let sofa =
        Builder::default().build_sofa(dataset.data(), dataset.series_len()).expect("sofa build");
    println!("  SOFA built in {:.2?}", t.elapsed());
    let t = Instant::now();
    let flat = FlatL2::new(dataset.data(), dataset.series_len(), threads);
    println!("  FlatL2 built in {:.2?} (norms precomputed)", t.elapsed());

    // FAISS protocol: one mini-batch of queries, parallel across cores.
    let k = 10;
    let t = Instant::now();
    let flat_results = flat.knn_batch(dataset.queries(), k);
    let flat_total = t.elapsed().as_secs_f64() * 1e3;

    // SOFA protocol: sequential queries, intra-query parallelism.
    let t = Instant::now();
    let mut sofa_results = Vec::new();
    for qi in 0..dataset.n_queries() {
        sofa_results.push(sofa.knn(dataset.query(qi), k).expect("query"));
    }
    let sofa_total = t.elapsed().as_secs_f64() * 1e3;

    // Exactness: identical k-NN sets.
    for (qi, (a, b)) in sofa_results.iter().zip(flat_results.iter()).enumerate() {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x.dist_sq - y.dist_sq).abs() < 1e-2 * x.dist_sq.max(1.0),
                "query {qi}: {x:?} vs {y:?}"
            );
        }
    }
    println!("\nboth methods returned identical exact {k}-NN answers for all queries");
    println!(
        "  SOFA  : {:.2} ms total, {:.2} ms/query (sequential queries)",
        sofa_total,
        sofa_total / n_queries as f64
    );
    println!(
        "  FlatL2: {:.2} ms total, {:.2} ms/query (batched across {} threads)",
        flat_total,
        flat_total / n_queries as f64,
        threads
    );

    println!("\nsample: top-3 neighbors of query 0");
    for nb in &sofa_results[0][..3] {
        println!("  row {:>6} at distance {:.4}", nb.row, nb.dist_sq.sqrt());
    }
}
