//! Query-time experiments: Tables II/III, Figures 9, 10, 12 and 13.

use super::Suite;
use crate::methods::{Built, MethodKind};
use crate::report::{f1, f2, f3, Report};
use sofa::stats::{mean, median, pearson, Summary};
use sofa::Builder;

/// Table II: mean and median 1-NN query time per method and core count
/// over the mixed 17-dataset workload.
pub fn tab2(suite: &Suite) -> Report {
    let mut r = Report::new("tab2", "1-NN query times (ms), mixed workload");
    r.para(&format!(
        "Paper (Table II, 36 cores): FAISS 248/344 (median/mean), MESSI \
         112/299, SOFA 58/209, UCR Suite-P 557/587 — SOFA fastest. \
         This run: {} queries per dataset, thread counts {:?}.",
        suite.cfg.n_queries, suite.cfg.threads
    ));
    let mut rows = Vec::new();
    for kind in MethodKind::ALL {
        for &threads in &suite.cfg.threads {
            let mut all_times = Vec::new();
            for spec in suite.specs() {
                let dataset = suite.dataset(spec);
                let built = Built::build(kind, &dataset, threads, &suite.cfg);
                all_times.extend(built.time_workload(&dataset, 1));
            }
            rows.push(vec![
                kind.name().into(),
                threads.to_string(),
                f2(median(&all_times)),
                f2(mean(&all_times)),
            ]);
        }
    }
    r.table(&["method", "cores", "median (ms)", "mean (ms)"], &rows);
    r
}

/// Table III / Figure 9: median k-NN query times at the maximum core
/// count, k in {1, 3, 5, 10, 20, 50}.
pub fn tab3(suite: &Suite) -> Report {
    let mut r = Report::new("tab3", "k-NN query times (ms), mixed workload, max cores");
    r.para(
        "Paper (Table III): SOFA stays fastest at every k and all methods \
         scale gently with k (58 ms at k=1 to 98 ms at k=50 for SOFA). The \
         UCR suite row is 1-NN only, as in the paper.",
    );
    let ks = [1usize, 3, 5, 10, 20, 50];
    let threads = suite.cfg.max_threads();
    let mut rows = Vec::new();
    for kind in MethodKind::ALL {
        let mut cells = vec![kind.name().to_string()];
        // Build once per dataset, reuse across k.
        let built: Vec<_> = suite
            .specs()
            .iter()
            .map(|spec| {
                let dataset = suite.dataset(spec);
                (Built::build(kind, &dataset, threads, &suite.cfg), dataset)
            })
            .collect();
        for &k in &ks {
            if kind == MethodKind::UcrScan && k > 1 {
                cells.push("-".into());
                continue;
            }
            let mut all_times = Vec::new();
            for (b, dataset) in &built {
                all_times.extend(b.time_workload(dataset, k));
            }
            cells.push(f2(median(&all_times)));
        }
        rows.push(cells);
    }
    r.table(&["method", "1-NN", "3-NN", "5-NN", "10-NN", "20-NN", "50-NN"], &rows);
    r
}

/// Figure 10: the distribution (box-plot summary) of 1-NN query times per
/// method and core count.
pub fn fig10(suite: &Suite) -> Report {
    let mut r = Report::new("fig10", "Query-time distribution by cores (box-plot stats, ms)");
    r.para(
        "Paper: SOFA has the lowest medians; MESSI and SOFA show high variance \
         across datasets while FAISS and the UCR suite cluster tightly (no \
         data-dependent pruning).",
    );
    let mut rows = Vec::new();
    for kind in MethodKind::ALL {
        for &threads in &suite.cfg.threads {
            let mut all_times = Vec::new();
            for spec in suite.specs() {
                let dataset = suite.dataset(spec);
                let built = Built::build(kind, &dataset, threads, &suite.cfg);
                all_times.extend(built.time_workload(&dataset, 1));
            }
            let s = Summary::of(&all_times);
            rows.push(vec![
                kind.name().into(),
                threads.to_string(),
                f2(s.min),
                f2(s.q1),
                f2(s.median),
                f2(s.q3),
                f2(s.max),
            ]);
        }
    }
    r.table(&["method", "cores", "min", "q1", "median", "q3", "max"], &rows);
    r
}

/// Shared per-dataset SOFA-vs-MESSI measurement backing Figures 12/13.
#[derive(Clone, Debug)]
pub struct DatasetComparison {
    /// Dataset name.
    pub name: String,
    /// Mean SOFA 1-NN time (ms).
    pub sofa_ms: f64,
    /// Mean MESSI 1-NN time (ms).
    pub messi_ms: f64,
    /// Mean index of the DFT coefficients SOFA selected.
    pub mean_coeff: f64,
    /// Expected position in the paper's Figure 12 ordering.
    pub expected_rank: usize,
    /// Real-distance refinements per query (SOFA, MESSI) — pruning power.
    pub refined: (f64, f64),
}

/// Measures every dataset once with SOFA and MESSI (used by fig12/fig13).
#[must_use]
pub fn compute_comparison(suite: &Suite) -> Vec<DatasetComparison> {
    let threads = suite.cfg.max_threads();
    let mut out = Vec::new();
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
        let mut sofa_times = Vec::new();
        let mut messi_times = Vec::new();
        let mut sofa_refined = 0usize;
        let mut messi_refined = 0usize;
        for qi in 0..dataset.n_queries() {
            let q = dataset.query(qi);
            let (res, secs) = crate::timed(|| sofa.knn_with_stats(q, 1).expect("query"));
            sofa_times.push(crate::ms(secs));
            sofa_refined += res.1.series_refined;
            let (res, secs) = crate::timed(|| messi.knn_with_stats(q, 1).expect("query"));
            messi_times.push(crate::ms(secs));
            messi_refined += res.1.series_refined;
        }
        let nq = dataset.n_queries() as f64;
        out.push(DatasetComparison {
            name: spec.name.to_string(),
            sofa_ms: mean(&sofa_times),
            messi_ms: mean(&messi_times),
            mean_coeff: sofa.summarization().mean_selected_coefficient(),
            expected_rank: spec.expected_speedup_rank,
            refined: (sofa_refined as f64 / nq, messi_refined as f64 / nq),
        });
    }
    out
}

/// Figure 12: per-dataset relative query time (SOFA / MESSI), ascending.
pub fn fig12(suite: &Suite) -> Report {
    let mut r = Report::new("fig12", "Relative 1-NN query time per dataset (MESSI = 100%)");
    r.para(
        "Paper: SOFA beats MESSI on all 17 datasets, from 2.66% relative time \
         (38x, LenDB) to 86.52% (Deep1B); high-frequency datasets benefit most. \
         `refined/query` shows the mechanism: how many real-distance \
         computations each method needed.",
    );
    let mut comp = suite.comparison().as_ref().clone();
    comp.sort_by(|a, b| {
        (a.sofa_ms / a.messi_ms).partial_cmp(&(b.sofa_ms / b.messi_ms)).expect("ratio")
    });
    let rows: Vec<Vec<String>> = comp
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                f1(100.0 * c.sofa_ms / c.messi_ms),
                f2(c.messi_ms / c.sofa_ms),
                c.expected_rank.to_string(),
                format!("{:.0} / {:.0}", c.refined.0, c.refined.1),
            ]
        })
        .collect();
    r.table(
        &["dataset", "relative time %", "speedup x", "paper rank", "refined/query (SOFA/MESSI)"],
        &rows,
    );
    r
}

/// Figure 13: mean selected coefficient index vs speedup, with Pearson r.
pub fn fig13(suite: &Suite) -> Report {
    let mut r = Report::new("fig13", "Selected-coefficient index vs speedup over MESSI");
    let comp = suite.comparison();
    let xs: Vec<f64> = comp.iter().map(|c| c.mean_coeff).collect();
    let ys: Vec<f64> = comp.iter().map(|c| c.messi_ms / c.sofa_ms).collect();
    let rho = pearson(&xs, &ys);
    r.para(&format!(
        "Paper: Pearson correlation 0.51 — datasets whose selected Fourier \
         coefficients sit at higher indices (more high-frequency content) \
         speed up more. This run: Pearson r = {}.",
        f3(rho)
    ));
    let rows: Vec<Vec<String>> = comp
        .iter()
        .map(|c| vec![c.name.clone(), f2(c.mean_coeff), f2(c.messi_ms / c.sofa_ms)])
        .collect();
    r.table(&["dataset", "mean selected DFT coefficient", "speedup over MESSI"], &rows);
    r
}
