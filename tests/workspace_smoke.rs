//! Fast workspace smoke test: a tiny SOFA and MESSI index must agree
//! exactly with the `FlatL2` brute-force baseline. This is the cheapest
//! end-to-end check of the whole stack (data -> summaries -> index ->
//! facade) and is meant to catch facade regressions in seconds.

use sofa::baselines::FlatL2;
use sofa::{Builder, IndexError};

/// ~200 short series with mild cluster structure so pruning has work to do.
fn tiny_dataset(rows: usize, n: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(rows * n);
    for r in 0..rows {
        let cluster = (r % 8) as f32;
        for t in 0..n {
            let x = t as f32;
            // The small per-row phase term keeps every row unique (no ties).
            data.push(
                (x * (0.15 + 0.02 * cluster) + r as f32 * 0.013).sin()
                    + 0.3 * (x * 0.9 - cluster).cos(),
            );
        }
    }
    data
}

#[test]
fn sofa_and_messi_match_flat_l2_on_tiny_data() {
    let n = 32;
    let rows = 200;
    let data = tiny_dataset(rows, n);

    let sofa = Builder::default()
        .word_len(8)
        .leaf_capacity(16)
        .threads(2)
        .sample_ratio(1.0)
        .build_sofa(&data, n)
        .expect("sofa build");
    let messi = Builder::default()
        .word_len(8)
        .leaf_capacity(16)
        .threads(2)
        .build_messi(&data, n)
        .expect("messi build");
    let flat = FlatL2::new(&data, n, 2);

    // Queries: a handful of indexed rows (self-match must be exact zero)
    // plus perturbed rows (non-trivial nearest neighbor).
    for r in [0usize, 7, 63, 199] {
        let q = &data[r * n..(r + 1) * n];
        let s = sofa.nn(q).expect("sofa query");
        let m = messi.nn(q).expect("messi query");
        let f = flat.nn(q);
        assert!(s.dist_sq < 1e-6, "self-query should be exact: {s:?}");
        assert_eq!(s.row, r as u32, "sofa should find the row itself");
        assert_eq!(m.row, r as u32, "messi should find the row itself");
        assert_eq!(f.row, r as u32, "flat should find the row itself");
    }

    for r in [3usize, 42, 150] {
        let q: Vec<f32> = data[r * n..(r + 1) * n]
            .iter()
            .enumerate()
            .map(|(i, &x)| x + 0.05 * ((i * 7 % 5) as f32 - 2.0))
            .collect();
        let s = sofa.nn(&q).expect("sofa query");
        let m = messi.nn(&q).expect("messi query");
        let f = flat.nn(&q);
        let tol = 1e-4 * f.dist_sq.max(1.0);
        assert!((s.dist_sq - f.dist_sq).abs() < tol, "sofa {s:?} vs flat {f:?}");
        assert!((m.dist_sq - f.dist_sq).abs() < tol, "messi {m:?} vs flat {f:?}");

        // k-NN agreement, best-first.
        let sk = sofa.knn(&q, 5).expect("sofa knn");
        let fk = flat.knn_one(&q, 5);
        assert_eq!(sk.len(), 5);
        assert_eq!(fk.len(), 5);
        for (x, y) in sk.iter().zip(fk.iter()) {
            assert!(
                (x.dist_sq - y.dist_sq).abs() < 1e-4 * y.dist_sq.max(1.0),
                "knn drift: {x:?} vs {y:?}"
            );
        }
    }
}

#[test]
fn facade_rejects_malformed_input_cheaply() {
    assert!(Builder::default().build_sofa(&[], 16).is_err());
    assert!(Builder::default().build_sofa(&[0.0; 17], 16).is_err());
    let data = tiny_dataset(20, 16);
    let idx =
        Builder::default().word_len(8).sample_ratio(1.0).build_sofa(&data, 16).expect("build");
    assert!(idx.nn(&[0.0; 15]).is_err(), "query length mismatch must error");
}

#[test]
fn facade_refuses_non_finite_rows() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut data = tiny_dataset(20, 16);
        data[7 * 16 + 3] = bad;
        // Every row is sampled, so the model would learn from the bad one.
        let sofa = Builder::default().word_len(8).sample_ratio(1.0).build_sofa(&data, 16);
        match sofa.err() {
            Some(IndexError::BadDataset(detail)) => assert!(detail.contains("row 7"), "{detail}"),
            other => panic!("{bad}: expected BadDataset, got {other:?}"),
        }
        let messi = Builder::default().word_len(8).build_messi(&data, 16);
        assert!(matches!(messi.err(), Some(IndexError::BadDataset(_))), "{bad}");
    }
}
