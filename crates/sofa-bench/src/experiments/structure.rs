//! Figures 7 and 8: index-construction time breakdown and index structure.

use super::Suite;
use crate::report::{f1, f2, Report};
use crate::timed;
use sofa::baselines::FlatL2;
use sofa::Builder;
use sofa_summaries::{Sfa, SfaConfig};

/// Figure 7: mean index-creation time by phase and core count for FAISS
/// (norm precompute), MESSI (SAX transform + tree) and SOFA (bin learning
/// + SFA transform + tree).
pub fn fig7(suite: &Suite) -> Report {
    let mut r = Report::new("fig7", "Mean index creation time by phase and cores");
    r.para(
        "Paper: MESSI builds fastest (~15 s at 1 B series), SOFA pays extra for \
         the DFT (O(n log n) vs O(n) for PAA) and for learning MCB bins from a \
         1% sample (a small green sliver), FAISS sits between. The same ordering \
         and phase structure should appear here at the scaled series counts.",
    );
    let mut rows = Vec::new();
    for &threads in &suite.cfg.threads {
        let mut faiss_total = 0.0f64;
        let mut messi = (0.0f64, 0.0f64); // transform, tree
        let mut sofa = (0.0f64, 0.0f64, 0.0f64); // learn, transform, tree
        let count = suite.specs().len() as f64;
        for spec in suite.specs() {
            let dataset = suite.dataset(spec);
            let n = dataset.series_len();

            let (_, t_faiss) = timed(|| FlatL2::new(dataset.data(), n, threads));
            faiss_total += t_faiss;

            let (messi_ix, _) = timed(|| {
                Builder::default()
                    .threads(threads)
                    .leaf_capacity(suite.cfg.leaf_capacity)
                    .build_messi(dataset.data(), n)
                    .expect("messi build")
            });
            let (mt, mtree) = messi_ix.build_breakdown();
            messi.0 += mt;
            messi.1 += mtree;

            // SOFA with the learning phase measured separately (the green
            // bar of Figure 7).
            let mut z = dataset.data().to_vec();
            for row in z.chunks_mut(n) {
                sofa::simd::znormalize(row);
            }
            let (sfa, t_learn) = timed(|| {
                Sfa::learn(
                    &z,
                    n,
                    &SfaConfig { sample_ratio: suite.cfg.sample_ratio, ..Default::default() },
                )
            });
            let (sofa_ix, _) = timed(|| {
                sofa_index::Index::build(
                    sfa,
                    &z,
                    sofa_index::IndexConfig::with_threads(threads)
                        .leaf_capacity(suite.cfg.leaf_capacity),
                )
                .expect("sofa build")
            });
            let (st, stree) = sofa_ix.build_breakdown();
            sofa.0 += t_learn;
            sofa.1 += st;
            sofa.2 += stree;
        }
        rows.push(vec![
            threads.to_string(),
            "FAISS (repro)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            f2(faiss_total / count * 1e3),
        ]);
        rows.push(vec![
            threads.to_string(),
            "MESSI".into(),
            "-".into(),
            f2(messi.0 / count * 1e3),
            f2(messi.1 / count * 1e3),
            f2((messi.0 + messi.1) / count * 1e3),
        ]);
        rows.push(vec![
            threads.to_string(),
            "SOFA".into(),
            f2(sofa.0 / count * 1e3),
            f2(sofa.1 / count * 1e3),
            f2(sofa.2 / count * 1e3),
            f2((sofa.0 + sofa.1 + sofa.2) / count * 1e3),
        ]);
    }
    r.table(
        &["cores", "method", "learn bins (ms)", "transform (ms)", "indexing (ms)", "total (ms)"],
        &rows,
    );
    r
}

/// Figure 8: average depth, average leaf size and subtree count, MESSI vs
/// SOFA, averaged over the 17 datasets.
pub fn fig8(suite: &Suite) -> Report {
    let mut r = Report::new("fig8", "Index structure: depth, leaf fill, subtrees");
    r.para(
        "Paper: the two indexes have similar structure overall, with SOFA \
         slightly deeper, slightly emptier leaves, and slightly fewer root \
         subtrees. At this run's scale the default leaf capacity would leave \
         every root child unsplit (structureless), so the build here uses a \
         proportionally smaller capacity to surface the tree shape.",
    );
    let threads = suite.cfg.max_threads();
    let leaf_capacity = (suite.cfg.leaf_capacity / 10).max(8);
    let mut rows = Vec::new();
    let mut agg = [[0.0f64; 4]; 2]; // [method][depth, leaf, subtrees, leaves]
    let count = suite.specs().len() as f64;
    for spec in suite.specs() {
        let dataset = suite.dataset(spec);
        let n = dataset.series_len();
        let messi = Builder::default()
            .threads(threads)
            .leaf_capacity(leaf_capacity)
            .build_messi(dataset.data(), n)
            .expect("messi build");
        let sofa = Builder::default()
            .threads(threads)
            .leaf_capacity(leaf_capacity)
            .sample_ratio(suite.cfg.sample_ratio)
            .build_sofa(dataset.data(), n)
            .expect("sofa build");
        for (m, stats) in [(0usize, messi.stats()), (1, sofa.stats())] {
            agg[m][0] += stats.avg_depth;
            agg[m][1] += stats.avg_leaf_size;
            agg[m][2] += stats.subtrees as f64;
            agg[m][3] += stats.leaves as f64;
        }
    }
    for (m, name) in [(0usize, "MESSI"), (1, "SOFA")] {
        rows.push(vec![
            name.into(),
            f2(agg[m][0] / count),
            f1(agg[m][1] / count),
            f1(agg[m][2] / count),
            f1(agg[m][3] / count),
        ]);
    }
    r.table(&["method", "avg depth", "avg leaf size", "avg subtrees", "avg leaves"], &rows);
    r
}
