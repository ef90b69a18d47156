//! Seismic-catalog similarity search — the paper's flagship scenario.
//!
//! Twelve of the paper's seventeen benchmark datasets are seismic archives
//! (STEAD, LenDB, SCEDC, ...): given a window anchored at a P-wave onset,
//! find the most similar historical waveform. This example builds SOFA and
//! MESSI indexes over a high-frequency seismic workload and shows the
//! paper's headline effect: on high-frequency signals SAX summaries
//! flat-line and MESSI prunes poorly, while SFA's variance-selected
//! Fourier coefficients keep their discriminating power.
//!
//! Run with:
//! ```sh
//! cargo run --release -p sofa --example seismic_search
//! ```

use sofa::data::registry;
use sofa::Builder;
use std::time::Instant;

fn main() {
    // LenDB is the paper's most extreme case (38x over MESSI). Its
    // synthetic analogue is broadband high-frequency noise.
    let spec = registry().into_iter().find(|s| s.name == "LenDB").expect("registry");
    let n_series = 20_000;
    let n_queries = 20;
    println!("dataset: {} (series length {}, {} series)", spec.name, spec.series_len, n_series);
    let dataset = spec.generate(n_series, n_queries);

    println!("building SOFA and MESSI indexes...");
    let t = Instant::now();
    let sofa =
        Builder::default().build_sofa(dataset.data(), dataset.series_len()).expect("sofa build");
    let sofa_build = t.elapsed();
    let t = Instant::now();
    let messi =
        Builder::default().build_messi(dataset.data(), dataset.series_len()).expect("messi build");
    let messi_build = t.elapsed();
    println!("  SOFA  built in {sofa_build:.2?} | MESSI built in {messi_build:.2?}");
    println!(
        "  SFA selected coefficients with mean index {:.1} (higher = more high-frequency)",
        sofa.summarization().mean_selected_coefficient()
    );

    let mut sofa_ms = Vec::new();
    let mut messi_ms = Vec::new();
    let mut sofa_refined = 0usize;
    let mut messi_refined = 0usize;
    println!("\nrunning {n_queries} exact 1-NN queries:");
    for qi in 0..dataset.n_queries() {
        let q = dataset.query(qi);

        let t = Instant::now();
        let (s_nn, s_stats) = sofa.knn_with_stats(q, 1).expect("sofa query");
        sofa_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sofa_refined += s_stats.series_refined;

        let t = Instant::now();
        let (m_nn, m_stats) = messi.knn_with_stats(q, 1).expect("messi query");
        messi_ms.push(t.elapsed().as_secs_f64() * 1e3);
        messi_refined += m_stats.series_refined;

        assert!(
            (s_nn[0].dist_sq - m_nn[0].dist_sq).abs() < 1e-2 * s_nn[0].dist_sq.max(1.0),
            "both methods are exact, so they must agree"
        );
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sofa_mean = mean(&sofa_ms);
    let messi_mean = mean(&messi_ms);
    println!("\nresults over {n_queries} queries on {} ({} series):", spec.name, n_series);
    println!("  SOFA : mean {sofa_mean:>7.2} ms | {:>9} real-distance computations", sofa_refined);
    println!(
        "  MESSI: mean {messi_mean:>7.2} ms | {:>9} real-distance computations",
        messi_refined
    );
    println!(
        "  speedup {:.1}x, pruning advantage {:.1}x fewer refinements",
        messi_mean / sofa_mean,
        messi_refined as f64 / sofa_refined.max(1) as f64
    );
    println!("\n(paper Figure 12 reports up to 38x on the real LenDB at 37M series)");
}
