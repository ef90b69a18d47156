//! Online-insertion workflow: an index that grows after its initial build
//! must stay exact with respect to a scan over the same (grown) data.

use sofa::baselines::UcrScan;
use sofa::data::registry;
use sofa::Builder;

#[test]
fn sofa_stays_exact_after_online_inserts() {
    let spec = registry().into_iter().find(|s| s.name == "STEAD").expect("registry");
    let dataset = spec.generate(600, 4);
    let n = dataset.series_len();
    let initial = 400 * n;

    let mut index = Builder::default()
        .leaf_capacity(40)
        .threads(2)
        .sample_ratio(0.25)
        .build_sofa(&dataset.data()[..initial], n)
        .expect("build");
    let first = index.insert_all(&dataset.data()[initial..]).expect("insert");
    assert_eq!(first, 400);
    assert_eq!(index.n_series(), 600);

    let scan = UcrScan::new(dataset.data(), n, 2);
    for qi in 0..dataset.n_queries() {
        let q = dataset.query(qi);
        let a = index.nn(q).expect("index query");
        let b = scan.nn(q);
        assert!(
            (a.dist_sq - b.dist_sq).abs() < 2e-3 * a.dist_sq.max(1.0),
            "query {qi}: index {a:?} vs scan {b:?}"
        );
        // k-NN agreement too.
        let ak = index.knn(q, 5).expect("index knn");
        let bk = scan.knn(q, 5);
        for (x, y) in ak.iter().zip(bk.iter()) {
            assert!((x.dist_sq - y.dist_sq).abs() < 2e-3 * x.dist_sq.max(1.0));
        }
    }
}

#[test]
fn messi_stays_exact_after_online_inserts() {
    let spec = registry().into_iter().find(|s| s.name == "OBS").expect("registry");
    let dataset = spec.generate(500, 3);
    let n = dataset.series_len();
    let initial = 250 * n;

    let mut index = Builder::default()
        .leaf_capacity(25)
        .threads(2)
        .build_messi(&dataset.data()[..initial], n)
        .expect("build");
    index.insert_all(&dataset.data()[initial..]).expect("insert");

    let scan = UcrScan::new(dataset.data(), n, 2);
    for qi in 0..dataset.n_queries() {
        let q = dataset.query(qi);
        let a = index.nn(q).expect("index query");
        let b = scan.nn(q);
        assert!((a.dist_sq - b.dist_sq).abs() < 2e-3 * a.dist_sq.max(1.0));
    }
}

#[test]
fn inserted_series_become_nearest_neighbors() {
    let spec = registry().into_iter().find(|s| s.name == "Iquique").expect("registry");
    let dataset = spec.generate(300, 2);
    let n = dataset.series_len();
    let mut index = Builder::default()
        .leaf_capacity(30)
        .threads(1)
        .sample_ratio(0.5)
        .build_sofa(dataset.data(), n)
        .expect("build");

    // Insert the queries themselves: each must then be its own 1-NN.
    index.insert_all(dataset.queries()).expect("insert");
    for qi in 0..dataset.n_queries() {
        let nn = index.nn(dataset.query(qi)).expect("query");
        assert!(nn.dist_sq < 1e-4, "query {qi} should find itself: {nn:?}");
        assert!(nn.row as usize >= 300, "should be an inserted row: {nn:?}");
    }
}
