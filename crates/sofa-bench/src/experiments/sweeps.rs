//! Parameter sweeps: Figure 11 (leaf size) and Table IV (sampling rate).

use super::Suite;
use crate::report::{f2, Report};
use sofa::stats::{mean, median};
use sofa::{BinningStrategy, Builder};

/// Figure 11: 1-NN query time as the leaf capacity grows, for MESSI,
/// SOFA with equi-depth and SOFA with equi-width binning.
pub fn fig11(suite: &Suite) -> Report {
    let mut r = Report::new("fig11", "Query time vs leaf size");
    r.para(&format!(
        "Paper: query times fall with leaf size and plateau around 10k series \
         (of 20k max) — larger leaves amortize queue operations until leaf \
         scans dominate. Sweep over the {}-dataset slice, leaf sizes scaled \
         to this run's series counts.",
        suite.sweep_specs().len()
    ));
    let threads = suite.cfg.max_threads();
    let base = suite.cfg.leaf_capacity;
    let leaf_sizes: Vec<usize> = [base / 8, base / 4, base / 2, base, base * 2, base * 4].to_vec();
    let mut rows = Vec::new();
    for leaf in leaf_sizes {
        let leaf = leaf.max(2);
        let mut messi_t = Vec::new();
        let mut sofa_ed_t = Vec::new();
        let mut sofa_ew_t = Vec::new();
        for spec in suite.sweep_specs() {
            let dataset = suite.dataset(&spec);
            let n = dataset.series_len();
            let messi = Builder::default()
                .threads(threads)
                .leaf_capacity(leaf)
                .build_messi(dataset.data(), n)
                .expect("messi build");
            let sofa_ew = Builder::default()
                .threads(threads)
                .leaf_capacity(leaf)
                .sample_ratio(suite.cfg.sample_ratio)
                .build_sofa(dataset.data(), n)
                .expect("sofa build");
            let sofa_ed = Builder::default()
                .threads(threads)
                .leaf_capacity(leaf)
                .sample_ratio(suite.cfg.sample_ratio)
                .binning(BinningStrategy::EquiDepth)
                .build_sofa(dataset.data(), n)
                .expect("sofa build");
            for qi in 0..dataset.n_queries() {
                let q = dataset.query(qi);
                let (_, s) = crate::timed(|| messi.nn(q).expect("query"));
                messi_t.push(crate::ms(s));
                let (_, s) = crate::timed(|| sofa_ew.nn(q).expect("query"));
                sofa_ew_t.push(crate::ms(s));
                let (_, s) = crate::timed(|| sofa_ed.nn(q).expect("query"));
                sofa_ed_t.push(crate::ms(s));
            }
        }
        rows.push(vec![
            leaf.to_string(),
            f2(mean(&messi_t)),
            f2(mean(&sofa_ed_t)),
            f2(mean(&sofa_ew_t)),
        ]);
    }
    r.table(&["leaf size", "MESSI (ms)", "SOFA + ED (ms)", "SOFA + EW (ms)"], &rows);
    r
}

/// Table IV: SOFA query times as the MCB sampling rate varies.
pub fn tab4(suite: &Suite) -> Report {
    let mut r = Report::new("tab4", "SOFA query time vs MCB sampling rate");
    r.para(
        "Paper (Table IV): median times stabilize around a 1% sample (58 ms); \
         mean times keep improving slightly to ~5%; below 1% both degrade a \
         little. The sweep shape — flat beyond ~1%, slightly worse below — is \
         the claim under test.",
    );
    let threads = suite.cfg.max_threads();
    let mut rows = Vec::new();
    for rate in [0.001f64, 0.005, 0.01, 0.05, 0.10, 0.15, 0.20] {
        let mut times = Vec::new();
        for spec in suite.sweep_specs() {
            let dataset = suite.dataset(&spec);
            let n = dataset.series_len();
            let sofa = Builder::default()
                .threads(threads)
                .leaf_capacity(suite.cfg.leaf_capacity)
                .sample_ratio(rate)
                // Let the ratio bite at laptop-scale series counts instead
                // of being clamped by the billion-scale minimum.
                .min_sample(16)
                .build_sofa(dataset.data(), n)
                .expect("sofa build");
            for qi in 0..dataset.n_queries() {
                let (_, s) = crate::timed(|| sofa.nn(dataset.query(qi)).expect("query"));
                times.push(crate::ms(s));
            }
        }
        rows.push(vec![format!("{:.1}%", rate * 100.0), f2(mean(&times)), f2(median(&times))]);
    }
    r.table(&["sampling rate", "mean (ms)", "median (ms)"], &rows);
    r
}
