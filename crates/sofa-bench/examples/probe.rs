//! Developer probe: per-dataset work counters for SOFA vs MESSI.
//!
//! Prints, for a handful of registry datasets, the mean query time and the
//! three counters that explain it — real-distance refinements, per-series
//! lower-bound checks, and leaves collected — for both methods. This is
//! the tool used while tuning the generators and the index hot paths; it
//! answers "who is pruning, and who is paying overhead?" at a glance.
//!
//! ```sh
//! cargo run --release -p sofa-bench --example probe
//! ```

use sofa::data::registry;
use sofa::Builder;
use std::time::Instant;

fn main() {
    for name in ["SALD", "Deep1b", "Astro", "SIFT1b", "BigANN", "LenDB"] {
        let spec = registry().into_iter().find(|s| s.name == name).unwrap();
        let d = spec.generate(20_000, 10);
        let n = d.series_len();
        let sofa = Builder::default()
            .threads(1)
            .leaf_capacity(500)
            .sample_ratio(0.05)
            .build_sofa(d.data(), n)
            .unwrap();
        let messi =
            Builder::default().threads(1).leaf_capacity(500).build_messi(d.data(), n).unwrap();
        let mut st = 0.0;
        let mut mt = 0.0;
        let mut sr = 0;
        let mut mr = 0;
        let mut s_lbd = 0;
        let mut m_lbd = 0;
        let mut s_leaves = 0;
        let mut m_leaves = 0;
        for qi in 0..d.n_queries() {
            let q = d.query(qi);
            let t = Instant::now();
            let (_, s) = sofa.knn_with_stats(q, 1).unwrap();
            st += t.elapsed().as_secs_f64();
            sr += s.series_refined;
            s_lbd += s.series_lbd_checked;
            s_leaves += s.leaves_collected;
            let t = Instant::now();
            let (_, s) = messi.knn_with_stats(q, 1).unwrap();
            mt += t.elapsed().as_secs_f64();
            mr += s.series_refined;
            m_lbd += s.series_lbd_checked;
            m_leaves += s.leaves_collected;
        }
        println!(
            "{name}: sofa {:.2}ms messi {:.2}ms | refined {sr}/{mr} | lbd {s_lbd}/{m_lbd} | leaves {s_leaves}/{m_leaves}",
            st * 100.0,
            mt * 100.0
        );
    }
}
