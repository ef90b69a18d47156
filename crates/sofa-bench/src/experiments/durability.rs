//! Extension experiment: crash-safe persistence (`ext-durability`).
//!
//! `ext-chaos` shows the serving stack survives faults; this shows the
//! *storage* does. Four scenarios, all on real SOFA index builds:
//!
//! 1. **Restart economics**: snapshot the index, drop it, reopen from
//!    the mapped file, and compare open-to-first-query against a full
//!    rebuild from raw data. The snapshot path must be at least 10x
//!    faster — that is the whole point of persisting.
//! 2. **Cold vs warm serving**: latency of the first (page-faulting)
//!    query after `open` against the steady state, on the direct path
//!    and through the micro-batching `Server` front-end.
//! 3. **Exactness across the round trip**: every query on the reopened
//!    index must be bit-identical to the live index and row-identical
//!    to brute force — zero deviations tolerated.
//! 4. **Corruption & torn writes**: truncations at section boundaries,
//!    bit flips in every section, foreign files, and failpoint-injected
//!    crashes mid-snapshot must all fail closed (typed errors, old
//!    snapshot intact, no tmp litter), after which rebuilding from raw
//!    data recovers service.

use super::Suite;
use crate::report::{f1, f2, Report};
use sofa::baselines::FlatL2;
use sofa::exec::failpoint::{self, FailAction};
use sofa::index::{SNAPSHOT_RENAME_FAILPOINT, SNAPSHOT_WRITE_FAILPOINT};
use sofa::{describe, Builder, ExecPool, IndexError, QueryKind, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// Snapshot target in the OS temp directory, unique per process so
/// concurrent harness runs cannot collide.
fn snapshot_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sofa-bench-durability-{}-{tag}.idx", std::process::id()))
}

fn is_snapshot_error(err: &IndexError) -> bool {
    matches!(
        err,
        IndexError::SnapshotIo { .. }
            | IndexError::SnapshotFormat { .. }
            | IndexError::SnapshotCorrupt { .. }
            | IndexError::SnapshotLayout { .. }
    )
}

/// `ext-durability`: atomic snapshots, mmap serving, fail-closed opens.
pub fn ext_durability(suite: &Suite) -> Report {
    let mut r = Report::new("ext-durability", "crash-safe persistence and recovery");
    let threads = suite.cfg.max_threads();
    let n_queries = (suite.cfg.n_queries * 8).clamp(32, 256);
    let spec = suite.specs().iter().find(|s| s.name == "Deep1b").expect("registry").clone();
    // Restart economics need a dataset large enough that index work
    // dominates fixed process costs, so this experiment has its own
    // floor above the harness-wide quick-mode minimum.
    let count = spec.scaled_count(suite.cfg.scale, suite.cfg.min_series).clamp(10_000, 100_000);
    let dataset = spec.generate(count, n_queries);
    let n = dataset.series_len();
    let queries = dataset.queries();
    let nq = queries.len() / n;

    // One shared pool for every build and open below: a restarting
    // server reuses its worker threads, so thread spawn-up belongs to
    // neither side of the rebuild-vs-reopen comparison.
    let pool = ExecPool::shared(threads);
    let builder = || {
        Builder::default()
            .pool(Arc::clone(&pool))
            .leaf_capacity(suite.cfg.leaf_capacity)
            .sample_ratio(suite.cfg.sample_ratio)
            .quant_refine(suite.cfg.quant_refine)
    };

    // ---- Scenario 1: restart economics. -----------------------------
    let (live, build_secs) =
        crate::timed(|| builder().build_sofa(dataset.data(), n).expect("build"));
    let path = snapshot_path("main");
    let (bytes, snap_secs) = crate::timed(|| live.snapshot(&path).expect("snapshot"));

    // Rebuild-from-raw-data: what a restart costs without persistence.
    let (_, rebuild_secs) =
        crate::timed(|| builder().build_sofa(dataset.data(), n).expect("rebuild"));

    // Open-to-first-query: map the file, validate, answer one query.
    let q0 = &queries[..n];
    let open_start = Instant::now();
    let opened = builder().open_sofa(&path).expect("open");
    let open_secs = open_start.elapsed().as_secs_f64();
    let first = opened.nn(q0).expect("first query");
    let open_to_first_secs = open_start.elapsed().as_secs_f64();
    assert!(opened.is_mapped(), "opened index must serve from the mapped file");
    let speedup = rebuild_secs / open_to_first_secs;
    assert!(
        speedup >= 10.0,
        "open-to-first-query ({open_to_first_secs:.4}s) must be at least 10x faster than a \
         rebuild ({rebuild_secs:.4}s), got {speedup:.1}x"
    );

    let info = describe(&path).expect("describe");
    r.para(&format!(
        "Restart economics on a {count}-series SOFA index: full rebuild \
         from raw data takes {}s; writing the {:.1} MiB snapshot takes \
         {}s and reopening it to the first answered query takes {}s — \
         {}x faster than rebuilding. The snapshot holds {} checksummed \
         sections and the opened index serves straight from the mapped \
         file (no dataset deserialization).",
        f2(rebuild_secs),
        bytes as f64 / (1024.0 * 1024.0),
        f2(snap_secs),
        f2(open_to_first_secs),
        f1(speedup),
        info.sections.len(),
    ));
    r.metric("build_s", build_secs);
    r.metric("rebuild_s", rebuild_secs);
    r.metric("snapshot_write_s", snap_secs);
    r.metric("snapshot_bytes", bytes as f64);
    r.metric("open_s", open_secs);
    r.metric("open_to_first_query_s", open_to_first_secs);
    r.metric("open_vs_rebuild_speedup", speedup);

    // ---- Scenario 2: cold vs warm serving. --------------------------
    // A fresh open so the first pass over the queries faults the mapped
    // pages in (the index above already answered a query); the second
    // pass runs warm. Both paths must stay exact throughout.
    let cold_index = builder().open_sofa(&path).expect("open for cold pass");
    let (_, cold_secs) = crate::timed(|| {
        for q in queries.chunks(n) {
            cold_index.nn(q).expect("cold query");
        }
    });
    let (_, warm_secs) = crate::timed(|| {
        for q in queries.chunks(n) {
            cold_index.nn(q).expect("warm query");
        }
    });
    drop(cold_index);
    let cold_ms = 1e3 * cold_secs / nq as f64;
    let warm_ms = 1e3 * warm_secs / nq as f64;

    let server = Server::new(
        Arc::new(builder().open_sofa(&path).expect("open for serving")),
        ServeConfig::new().fill_target(8),
    );
    let (_, served_secs) = crate::timed(|| {
        for q in queries.chunks(n) {
            server.query(q, QueryKind::Knn { k: 1 }).expect("served query");
        }
    });
    let served_ms = 1e3 * served_secs / nq as f64;
    drop(server);

    r.para(&format!(
        "Cold vs warm serving from the mapped snapshot: {} ms/query on \
         the first (page-faulting) pass, {} ms/query warm, {} ms/query \
         through the micro-batching server front-end on a freshly opened \
         index.",
        f2(cold_ms),
        f2(warm_ms),
        f2(served_ms),
    ));
    r.metric("cold_ms_per_query", cold_ms);
    r.metric("warm_ms_per_query", warm_ms);
    r.metric("served_ms_per_query", served_ms);

    // ---- Scenario 3: exactness across the round trip. ---------------
    let flat = FlatL2::new(dataset.data(), n, threads);
    let mut deviations = 0u64;
    for (qi, q) in queries.chunks(n).enumerate() {
        let k = 1 + qi % 5;
        let a = live.knn(q, k).expect("live");
        let b = opened.knn(q, k).expect("opened");
        if a.len() != b.len()
            || a.iter()
                .zip(b.iter())
                .any(|(x, y)| x.row != y.row || x.dist_sq.to_bits() != y.dist_sq.to_bits())
        {
            deviations += 1;
            continue;
        }
        let truth = flat.nn(q);
        if b[0].row != truth.row {
            deviations += 1;
        }
    }
    assert_eq!(first.row, flat.nn(q0).row, "first query after open must already be exact");
    assert_eq!(deviations, 0, "reopened index deviated on {deviations} of {nq} queries");
    r.para(&format!(
        "Round-trip exactness: all {nq} queries (k = 1..5) on the \
         reopened index are bit-identical to the live index that wrote \
         the snapshot and agree with brute force on the nearest row — \
         0 deviations.",
    ));
    r.metric("roundtrip_queries", nq as f64);
    r.metric("roundtrip_deviations", deviations as f64);

    // ---- Scenario 4: corruption and torn writes fail closed. --------
    let good = std::fs::read(&path).expect("read snapshot");
    let victim = snapshot_path("victim");
    let mut cases = 0u64;
    let mut failed_closed = 0u64;
    let mut check = |damaged: &[u8]| {
        std::fs::write(&victim, damaged).expect("write damaged");
        cases += 1;
        match builder().open_sofa(&victim) {
            Err(e) if is_snapshot_error(&e) => failed_closed += 1,
            Err(e) => panic!("untyped failure on damaged snapshot: {e}"),
            Ok(_) => panic!("damaged snapshot must not open"),
        }
    };
    // Truncation at every section boundary, a bit flip inside every
    // section, a foreign file, and an empty file.
    for s in &info.sections {
        check(&good[..usize::try_from(s.offset).expect("offset")]);
        let mid = usize::try_from(s.offset + s.len / 2).expect("mid");
        if s.len > 0 {
            let mut flipped = good.clone();
            flipped[mid] ^= 0x10;
            check(&flipped);
        }
    }
    check(b"not a snapshot");
    check(b"");
    std::fs::remove_file(&victim).ok();

    // Torn writes: a crash injected before a section write and at the
    // rename must leave the existing snapshot untouched.
    let mut torn = 0u64;
    for (point, fires) in [(SNAPSHOT_WRITE_FAILPOINT, 2), (SNAPSHOT_RENAME_FAILPOINT, 1)] {
        failpoint::arm(point, FailAction::Error, Some(fires));
        let err = live.snapshot(&path).expect_err("injected crash");
        failpoint::clear(point);
        assert!(is_snapshot_error(&err), "{point}: {err}");
        assert_eq!(std::fs::read(&path).expect("read"), good, "{point}: old snapshot damaged");
        torn += 1;
    }
    builder().open_sofa(&path).expect("old snapshot still opens after torn writes");

    // Recovery: with the snapshot gone, rebuilding from raw data serves.
    std::fs::remove_file(&path).ok();
    let rebuilt = builder().build_sofa(dataset.data(), n).expect("recovery rebuild");
    assert_eq!(rebuilt.nn(q0).expect("recovered query").row, flat.nn(q0).row);

    r.para(&format!(
        "Corruption matrix: {failed_closed}/{cases} damaged snapshots \
         (truncation at every section boundary, a bit flip in every \
         section, foreign and empty files) failed closed with typed \
         errors — none opened, none panicked. {torn} injected \
         mid-snapshot crashes left the previous snapshot byte-identical \
         and reopenable, and a rebuild from raw data restored service \
         after total snapshot loss.",
    ));
    r.metric("corruption_cases", cases as f64);
    r.metric("corruption_failed_closed", failed_closed as f64);
    r.metric("torn_write_cases", torn as f64);

    r
}
