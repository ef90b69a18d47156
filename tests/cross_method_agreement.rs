//! The exactness contract across all four methods of the paper's
//! evaluation: SOFA, MESSI, UCR-Suite-P and FlatL2 must return the same
//! nearest-neighbor distances on every dataset profile of the benchmark
//! registry, because all four are exact.

use sofa::baselines::{FlatL2, UcrScan};
use sofa::data::registry;
use sofa::Builder;

#[test]
fn all_methods_agree_on_every_dataset_profile() {
    // A scaled-down slice of the 17-dataset registry covering all three
    // frequency profiles.
    let names = ["LenDB", "OBS", "Astro", "SIFT1b", "Deep1b", "SALD"];
    for spec in registry().into_iter().filter(|s| names.contains(&s.name)) {
        let dataset = spec.generate(600, 3);
        let n = dataset.series_len();

        let sofa = Builder::default()
            .leaf_capacity(64)
            .threads(2)
            .sample_ratio(0.25)
            .build_sofa(dataset.data(), n)
            .expect("sofa build");
        let messi = Builder::default()
            .leaf_capacity(64)
            .threads(2)
            .build_messi(dataset.data(), n)
            .expect("messi build");
        let scan = UcrScan::new(dataset.data(), n, 2);
        let flat = FlatL2::new(dataset.data(), n, 2);

        for qi in 0..dataset.n_queries() {
            let q = dataset.query(qi);
            let a = sofa.nn(q).expect("sofa").dist_sq;
            let b = messi.nn(q).expect("messi").dist_sq;
            let c = scan.nn(q).dist_sq;
            let d = flat.nn(q).dist_sq;
            let tol = 2e-3 * a.max(1.0);
            assert!((a - b).abs() < tol, "{}: sofa {a} vs messi {b}", spec.name);
            assert!((a - c).abs() < tol, "{}: sofa {a} vs scan {c}", spec.name);
            assert!((a - d).abs() < tol, "{}: sofa {a} vs flat {d}", spec.name);
        }
    }
}

#[test]
fn knn_sets_agree_between_sofa_and_scan() {
    let spec = registry().into_iter().find(|s| s.name == "SCEDC").expect("registry");
    let dataset = spec.generate(500, 2);
    let n = dataset.series_len();
    let sofa = Builder::default()
        .leaf_capacity(50)
        .threads(2)
        .sample_ratio(0.25)
        .build_sofa(dataset.data(), n)
        .expect("build");
    let scan = UcrScan::new(dataset.data(), n, 2);
    for qi in 0..dataset.n_queries() {
        let q = dataset.query(qi);
        for k in [1usize, 5, 20] {
            let a = sofa.knn(q, k).expect("query");
            let b = scan.knn(q, k);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(
                    (x.dist_sq - y.dist_sq).abs() < 2e-3 * x.dist_sq.max(1.0),
                    "k={k}: {x:?} vs {y:?}"
                );
            }
        }
    }
}

#[test]
fn sofa_prunes_more_than_messi_on_high_frequency_data() {
    // The mechanism behind the paper's headline speedup (Figure 12): on
    // high-frequency data SOFA's lower bounds prune far more candidate
    // series than MESSI's.
    let spec = registry().into_iter().find(|s| s.name == "LenDB").expect("registry");
    let dataset = spec.generate(2000, 5);
    let n = dataset.series_len();
    let sofa = Builder::default()
        .leaf_capacity(100)
        .threads(2)
        .sample_ratio(0.25)
        .build_sofa(dataset.data(), n)
        .expect("build");
    let messi = Builder::default()
        .leaf_capacity(100)
        .threads(2)
        .build_messi(dataset.data(), n)
        .expect("build");
    let mut sofa_refined = 0usize;
    let mut messi_refined = 0usize;
    for qi in 0..dataset.n_queries() {
        let q = dataset.query(qi);
        sofa_refined += sofa.knn_with_stats(q, 1).expect("query").1.series_refined;
        messi_refined += messi.knn_with_stats(q, 1).expect("query").1.series_refined;
    }
    assert!(
        sofa_refined * 2 < messi_refined,
        "SOFA should refine far fewer series: sofa={sofa_refined} messi={messi_refined}"
    );
}
