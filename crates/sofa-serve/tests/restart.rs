//! Restart-from-snapshot serving: a server wrapped around an index
//! opened from a snapshot must answer exactly like one wrapped around
//! the live index that wrote it.

use sofa_index::{Index, IndexConfig, QueryKind};
use sofa_serve::{ServeConfig, Server};
use sofa_summaries::{ISax, SaxConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push((x * 0.23 + r).sin() + 0.5 * (x * 0.9 - r * 0.3).cos());
        }
    }
    data
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sofa-serve-restart-{}-{tag}-{id}.idx", std::process::id()))
}

#[test]
fn server_over_opened_snapshot_matches_live_index() {
    let n = 64;
    let data = dataset(800, n, 0);
    let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
    let live = Arc::new(
        Index::build(sax, &data, IndexConfig::with_threads(2).leaf_capacity(60)).expect("build"),
    );

    let path = tmp_path("serve");
    live.snapshot(&path).expect("snapshot");
    let reopened = Arc::new(Index::<ISax>::open(&path).expect("open"));
    assert!(reopened.is_mapped());

    // "Restart": the server process comes back up on the mapped file.
    let before = Server::new(Arc::clone(&live), ServeConfig::new().fill_target(4));
    let after = Server::new(Arc::clone(&reopened), ServeConfig::new().fill_target(4));

    let queries = dataset(24, n, 500);
    std::thread::scope(|s| {
        for chunk in queries.chunks(n * 6) {
            s.spawn(|| {
                for q in chunk.chunks(n) {
                    let a = before.query(q, QueryKind::Knn { k: 5 }).expect("live serve");
                    let b = after.query(q, QueryKind::Knn { k: 5 }).expect("snapshot serve");
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert_eq!(x.row, y.row);
                        assert_eq!(x.dist_sq.to_bits(), y.dist_sq.to_bits());
                    }
                }
            });
        }
    });
    assert_eq!(after.stats().queries, 24);
    std::fs::remove_file(&path).ok();
}
