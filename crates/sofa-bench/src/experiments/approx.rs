//! Extension experiment: approximate-search quality.
//!
//! The paper's conclusion names "approximate similarity search using SFA"
//! as future work. The index already contains the ingredient: the
//! approximate stage of exact query answering (descend to the most
//! promising leaf, §IV-C) can be used *on its own* as an approximate
//! answer. This experiment quantifies how good that answer already is:
//! recall@1 (how often the approximate answer IS the exact 1-NN) and the
//! mean distance ratio `d_approx / d_exact`, per dataset, for SOFA vs
//! MESSI — together with the speedup that skipping the exact phases buys.

use super::Suite;
use crate::report::{f2, f3, Report};
use sofa::stats::mean;
use sofa::Builder;

/// Runs the approximate-quality extension experiment (`ext-approx`).
pub fn ext_approx(suite: &Suite) -> Report {
    let mut r =
        Report::new("ext-approx", "Extension: approximate search quality (paper §VI future work)");
    r.para(
        "One-leaf approximate answering vs exact answering. `recall@1` is \
         the fraction of queries whose approximate answer equals the exact \
         nearest neighbor; `dist ratio` is the mean of approximate over \
         exact distance (1.0 = always exact); `speedup` is exact time over \
         approximate time. SFA's tighter summarization should land queries \
         in better leaves than iSAX on high-frequency data.",
    );
    let threads = suite.cfg.max_threads();
    let mut rows = Vec::new();
    let mut agg: Vec<(f64, f64, f64)> = Vec::new();
    for spec in suite.specs() {
        let dataset = suite.dataset(spec);
        let n = dataset.series_len();
        let sofa = Builder::default()
            .threads(threads)
            .leaf_capacity(suite.cfg.leaf_capacity)
            .sample_ratio(suite.cfg.sample_ratio)
            .build_sofa(dataset.data(), n)
            .expect("sofa build");
        let messi = Builder::default()
            .threads(threads)
            .leaf_capacity(suite.cfg.leaf_capacity)
            .build_messi(dataset.data(), n)
            .expect("messi build");

        let mut cells = vec![spec.name.to_string()];
        for (mi, (approx, exact)) in [
            (
                Box::new(|q: &[f32]| sofa.approximate_nn(q).expect("approx"))
                    as Box<dyn Fn(&[f32]) -> sofa::Neighbor>,
                Box::new(|q: &[f32]| sofa.nn(q).expect("exact"))
                    as Box<dyn Fn(&[f32]) -> sofa::Neighbor>,
            ),
            (
                Box::new(|q: &[f32]| messi.approximate_nn(q).expect("approx")),
                Box::new(|q: &[f32]| messi.nn(q).expect("exact")),
            ),
        ]
        .into_iter()
        .enumerate()
        {
            let mut hits = 0usize;
            let mut ratios = Vec::new();
            let mut t_approx = Vec::new();
            let mut t_exact = Vec::new();
            for qi in 0..dataset.n_queries() {
                let q = dataset.query(qi);
                let (a, secs) = crate::timed(|| approx(q));
                t_approx.push(secs);
                let (e, secs) = crate::timed(|| exact(q));
                t_exact.push(secs);
                if a.row == e.row {
                    hits += 1;
                }
                if e.dist_sq > 0.0 {
                    ratios.push(f64::from((a.dist_sq / e.dist_sq).sqrt()));
                } else {
                    ratios.push(1.0);
                }
            }
            let recall = hits as f64 / dataset.n_queries() as f64;
            let ratio = mean(&ratios);
            let speedup = mean(&t_exact) / mean(&t_approx).max(1e-12);
            cells.push(f2(recall));
            cells.push(f3(ratio));
            cells.push(f2(speedup));
            if mi == 0 {
                agg.push((recall, ratio, speedup));
            }
        }
        rows.push(cells);
    }
    r.table(
        &[
            "dataset",
            "SOFA recall@1",
            "SOFA dist ratio",
            "SOFA speedup",
            "MESSI recall@1",
            "MESSI dist ratio",
            "MESSI speedup",
        ],
        &rows,
    );
    let mean_recall = mean(&agg.iter().map(|a| a.0).collect::<Vec<_>>());
    let mean_ratio = mean(&agg.iter().map(|a| a.1).collect::<Vec<_>>());
    r.para(&format!(
        "SOFA approximate answers average recall@1 = {} with mean distance \
         ratio {} across the 17 datasets — the starting point the paper's \
         future-work direction would build on.",
        f2(mean_recall),
        f3(mean_ratio)
    ));
    r
}
