//! End-to-end workflow tests exercising the public facade the way the
//! examples and the benchmark harness do.

use sofa::data::{registry, ucr_like_archive, Dataset};
use sofa::summaries::{tlb_of, ISax, SaxConfig, Sfa, SfaConfig};
use sofa::{BinningStrategy, Builder, CoefficientSelection};

#[test]
fn full_workflow_on_registry_dataset() {
    let spec = registry().into_iter().find(|s| s.name == "STEAD").expect("registry");
    let dataset = spec.generate(800, 4);
    let n = dataset.series_len();

    let index = Builder::default()
        .leaf_capacity(100)
        .threads(2)
        .sample_ratio(0.2)
        .build_sofa(dataset.data(), n)
        .expect("build");

    // Structure sanity (Figure 8 quantities).
    let stats = index.stats();
    assert_eq!(stats.n_series, 800);
    assert!(stats.subtrees >= 1);
    assert!(stats.avg_leaf_size > 0.0);

    // Query + work counters.
    let (neighbors, qstats) = index.knn_with_stats(dataset.query(0), 10).expect("query");
    assert_eq!(neighbors.len(), 10);
    assert!(qstats.series_refined <= qstats.series_lbd_checked);

    // Approximate answer never beats the exact one.
    let approx = index.approximate_nn(dataset.query(0)).expect("approx");
    assert!(approx.dist_sq >= neighbors[0].dist_sq - 1e-5);
}

#[test]
fn all_sfa_variants_build_and_answer() {
    let spec = registry().into_iter().find(|s| s.name == "OBS").expect("registry");
    let dataset = spec.generate(300, 2);
    let n = dataset.series_len();
    for binning in [BinningStrategy::EquiWidth, BinningStrategy::EquiDepth] {
        for selection in [CoefficientSelection::HighestVariance, CoefficientSelection::FirstL] {
            let index = Builder::default()
                .binning(binning)
                .selection(selection)
                .leaf_capacity(50)
                .threads(1)
                .sample_ratio(0.5)
                .build_sofa(dataset.data(), n)
                .expect("build");
            let nn = index.nn(dataset.query(0)).expect("query");
            assert!(nn.dist_sq.is_finite());
        }
    }
}

#[test]
fn tlb_pipeline_over_ucr_archive() {
    // The §V-E ablation end-to-end on a small slice: learn on train,
    // query with test, TLB must favor SFA EW+VAR over iSAX on average.
    let archive = ucr_like_archive(64, 60, 5);
    let slice = &archive[..8];
    let word_len = 16;
    let alpha = 16;
    let mut sfa_total = 0.0;
    let mut sax_total = 0.0;
    for ds in slice {
        let sfa = Sfa::learn(
            &ds.train,
            64,
            &SfaConfig { word_len, alphabet: alpha, sample_ratio: 1.0, ..Default::default() },
        );
        let sax = ISax::new(64, &SaxConfig { word_len, alphabet: alpha });
        sfa_total += tlb_of(&sfa, &ds.train, &ds.test, 40).mean_tlb;
        sax_total += tlb_of(&sax, &ds.train, &ds.test, 40).mean_tlb;
    }
    assert!(
        sfa_total > sax_total,
        "mean TLB: SFA {} should beat iSAX {}",
        sfa_total / 8.0,
        sax_total / 8.0
    );
}

#[test]
fn dataset_container_roundtrip() {
    let spec = &registry()[0];
    let mut dataset = spec.generate(50, 2);
    dataset.znormalize();
    for i in 0..dataset.n_series() {
        let row = dataset.series(i);
        let mean: f32 = row.iter().sum::<f32>() / row.len() as f32;
        assert!(mean.abs() < 1e-4);
    }
    let truncated = dataset.truncated(10);
    assert_eq!(truncated.n_series(), 10);
    assert_eq!(truncated.n_queries(), 2);
}

#[test]
fn messi_builder_and_isax_access() {
    let dataset = Dataset::new(
        "inline".into(),
        64,
        (0..300 * 64).map(|i| ((i % 64) as f32 * 0.2 + (i / 64) as f32).sin()).collect(),
        (0..64).map(|t| (t as f32 * 0.2).sin()).collect(),
    );
    let messi = Builder::default()
        .word_len(8)
        .leaf_capacity(30)
        .threads(2)
        .build_messi(dataset.data(), 64)
        .expect("build");
    assert_eq!(messi.summarization().paa().segments(), 8);
    let nn = messi.nn(dataset.query(0)).expect("query");
    assert!(nn.dist_sq >= 0.0);
}

#[test]
fn index_handles_tiny_and_degenerate_datasets() {
    // One series.
    let one: Vec<f32> = (0..64).map(|t| (t as f32 * 0.3).sin()).collect();
    let idx = Builder::default().sample_ratio(1.0).build_sofa(&one, 64).expect("build");
    let nn = idx.nn(&one).expect("query");
    assert_eq!(nn.row, 0);

    // All-constant series (z-normalize to zeros).
    let flat = vec![5.0f32; 10 * 64];
    let idx = Builder::default().sample_ratio(1.0).build_sofa(&flat, 64).expect("build");
    let nn = idx.nn(&flat[..64]).expect("query");
    assert_eq!(nn.dist_sq, 0.0);
}
