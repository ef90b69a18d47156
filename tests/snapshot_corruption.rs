//! Corruption-matrix tests: every damaged, truncated, torn, or foreign
//! snapshot must fail closed with a typed `IndexError::Snapshot*` —
//! never a panic, never a silently wrong index — and recovery by
//! rebuilding must always work afterwards.

use sofa::exec::failpoint::{self, FailAction};
use sofa::index::{SNAPSHOT_RENAME_FAILPOINT, SNAPSHOT_WRITE_FAILPOINT};
use sofa::{describe, Builder, IndexError, SofaIndex, SNAPSHOT_FORMAT_VERSION};
use std::sync::atomic::{AtomicUsize, Ordering};

fn dataset(count: usize, n: usize, seed: usize) -> Vec<f32> {
    let mut data = Vec::with_capacity(count * n);
    for r in 0..count {
        for t in 0..n {
            let x = t as f32;
            let r = (r + seed) as f32;
            data.push((x * 0.21 + r).sin() + 0.6 * (x * 1.3 - r * 0.2).cos());
        }
    }
    data
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sofa-corrupt-{}-{tag}-{id}.idx", std::process::id()))
}

fn build_small() -> (SofaIndex, Vec<f32>, usize) {
    let n = 64;
    let data = dataset(400, n, 0);
    let idx = Builder::default()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("build");
    (idx, data, n)
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

/// Truncating the file at (and one byte before) every section boundary
/// must fail closed — this walks the *real* section table, so every
/// section added in the future is covered automatically.
#[test]
fn truncation_at_every_section_boundary_fails_closed() {
    let (idx, _, _) = build_small();
    let path = tmp_path("trunc");
    idx.snapshot(&path).expect("snapshot");
    let bytes = std::fs::read(&path).expect("read");
    let info = describe(&path).expect("describe");
    // Meta, summarization, data, words, mapping, tree and quant.
    assert_eq!(info.sections.len(), 7, "expected a full section table");

    let mut cuts: Vec<usize> = vec![0, 1, 8, 16, bytes.len() - 1];
    for s in &info.sections {
        let start = usize::try_from(s.offset).expect("offset fits");
        let end = usize::try_from(s.offset + s.len).expect("end fits");
        cuts.extend([start, start + 1, end.saturating_sub(1), end.min(bytes.len() - 1)]);
    }
    cuts.sort_unstable();
    cuts.dedup();

    let target = tmp_path("trunc-cut");
    for cut in cuts {
        std::fs::write(&target, &bytes[..cut]).expect("write truncated");
        match SofaIndex::open(&target) {
            Err(e) => assert!(is_snapshot_error(&e), "cut at {cut}: unexpected error {e:?}"),
            Ok(_) => panic!("truncation at byte {cut} of {} must not open", bytes.len()),
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&target).ok();
}

/// A bit flip inside every individual section must be caught by that
/// section's checksum (or a downstream validation) — including the
/// header/table region itself.
#[test]
fn bit_flip_in_every_section_fails_closed() {
    let (idx, _, _) = build_small();
    let path = tmp_path("flip");
    idx.snapshot(&path).expect("snapshot");
    let bytes = std::fs::read(&path).expect("read");
    let info = describe(&path).expect("describe");

    // One flip per section, at the middle byte, across all bit positions
    // of a probe mask; plus the header region.
    let mut probes: Vec<(usize, &str)> = vec![(9, "header"), (24, "header-table")];
    for s in &info.sections {
        if s.len == 0 {
            continue;
        }
        let mid = usize::try_from(s.offset + s.len / 2).expect("fits");
        probes.push((mid, s.name));
    }

    let target = tmp_path("flip-one");
    for (pos, section) in probes {
        for mask in [0x01u8, 0x80u8] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= mask;
            std::fs::write(&target, &damaged).expect("write damaged");
            match SofaIndex::open(&target) {
                Err(e) => {
                    assert!(is_snapshot_error(&e), "{section} flip at {pos}: {e:?}");
                }
                // A flip in pure padding between sections is the only
                // position a checksum cannot see; the probe positions
                // above are all inside checksummed ranges, so opening
                // must fail.
                Ok(_) => panic!("bit flip in {section} (byte {pos}, mask {mask:#x}) must not open"),
            }
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&target).ok();
}

#[test]
fn bad_magic_wrong_version_and_foreign_files_are_rejected() {
    let (idx, _, _) = build_small();
    let path = tmp_path("magic");
    idx.snapshot(&path).expect("snapshot");
    let good = std::fs::read(&path).expect("read");

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&path, &bad).expect("write");
    match SofaIndex::open(&path) {
        Err(IndexError::SnapshotFormat { section, .. }) => assert_eq!(section, "header"),
        Err(e) => panic!("bad magic: wrong error {e:?}"),
        Ok(_) => panic!("bad magic must not open"),
    }

    // Wrong format version (header checksum is recomputed over the
    // edited header so only the version check can reject it).
    let mut versioned = good.clone();
    let v = (SNAPSHOT_FORMAT_VERSION + 1).to_ne_bytes();
    versioned[8..12].copy_from_slice(&v);
    std::fs::write(&path, &versioned).expect("write");
    match SofaIndex::open(&path) {
        Err(e) => assert!(is_snapshot_error(&e), "wrong version: {e:?}"),
        Ok(_) => panic!("future format version must not open"),
    }

    // Foreign file / zero-length file.
    for content in [&b"not a snapshot at all, sorry"[..], &b""[..]] {
        std::fs::write(&path, content).expect("write");
        match SofaIndex::open(&path) {
            Err(IndexError::SnapshotFormat { section, .. }) => assert_eq!(section, "header"),
            Err(e) => panic!("foreign file: wrong error {e:?}"),
            Ok(_) => panic!("foreign file must not open"),
        }
    }

    // Missing file.
    std::fs::remove_file(&path).ok();
    assert!(matches!(SofaIndex::open(&path), Err(IndexError::SnapshotIo { .. })));
}

/// A torn write (crash mid-snapshot, injected via failpoints) must
/// leave an existing snapshot untouched and no tmp litter; recovery by
/// rebuilding must still serve.
#[test]
fn torn_write_preserves_old_snapshot_and_rebuild_recovers() {
    let (idx, data, n) = build_small();
    let path = tmp_path("torn");
    idx.snapshot(&path).expect("first snapshot");
    let before = std::fs::read(&path).expect("read");
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().and_then(|f| f.to_str()).expect("name")
    ));

    for (point, fires) in [
        (SNAPSHOT_WRITE_FAILPOINT, 1),
        (SNAPSHOT_WRITE_FAILPOINT, 4),
        (SNAPSHOT_RENAME_FAILPOINT, 1),
    ] {
        // Armed for this thread only: the snapshot writer fires on the
        // calling thread, and a sibling test's `snapshot()` must neither
        // consume the injected crash nor trip over it.
        let crash = failpoint::arm_local(point, FailAction::Error, Some(fires));
        let err = idx.snapshot(&path).expect_err("injected crash must abort the snapshot");
        drop(crash);
        assert!(matches!(err, IndexError::SnapshotIo { .. }), "{point}: {err:?}");
        assert_eq!(std::fs::read(&path).expect("read"), before, "{point}: old snapshot damaged");
        assert!(!tmp.exists(), "{point}: tmp litter left behind");
        SofaIndex::open(&path).expect("old snapshot must still open");
    }

    // Recovery path: even with the snapshot gone entirely, rebuilding
    // from the raw data serves the same answers.
    std::fs::remove_file(&path).ok();
    let rebuilt = Builder::default()
        .threads(2)
        .leaf_capacity(40)
        .sample_ratio(0.5)
        .build_sofa(&data, n)
        .expect("rebuild");
    for q in dataset(10, n, 999).chunks(n) {
        assert_eq!(rebuilt.nn(q).expect("query").row, idx.nn(q).expect("query").row);
    }
}

/// `describe` exposes the verified section table; hostile section
/// tables (overlapping or out-of-bounds entries) are rejected before
/// any section is interpreted.
#[test]
fn describe_round_trips_and_rejects_hostile_tables() {
    let (idx, _, _) = build_small();
    let path = tmp_path("table");
    idx.snapshot(&path).expect("snapshot");
    let info = describe(&path).expect("describe");
    assert_eq!(info.format_version, SNAPSHOT_FORMAT_VERSION);
    assert_eq!(info.file_len, std::fs::metadata(&path).expect("stat").len());
    for w in info.sections.windows(2) {
        assert!(w[0].offset + w[0].len <= w[1].offset, "sections must not overlap");
    }

    // Corrupt one table entry's length field: caught by the header
    // checksum before any offset is trusted.
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[24 + 12] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("write");
    match describe(&path) {
        Err(e) => assert!(is_snapshot_error(&e), "{e:?}"),
        Ok(_) => panic!("hostile table must not describe"),
    }
    std::fs::remove_file(&path).ok();
}

/// Flips that cancel in a checksum whose differences only move toward
/// higher bits: bit 7 of byte 7 of an 8-byte word is bit 63 of the word
/// (on a little-endian host, the sign bit of the odd-index f32 in it),
/// and two such flips in one section must still fail closed, whether
/// they sit in one 1 MiB digest chunk or in two, and when they sit at
/// the same offset of two chunks.
#[test]
fn cancelling_sign_flips_in_the_data_arena_fail_closed() {
    const CHUNK: usize = 1 << 20;
    let n = 64;
    // 4,500 rows of 64 f32: a data arena of just over one digest chunk.
    let data = dataset(4_500, n, 3);
    let idx = Builder::default()
        .threads(2)
        .leaf_capacity(200)
        .sample_ratio(0.2)
        .build_sofa(&data, n)
        .expect("build");
    let path = tmp_path("cancel");
    idx.snapshot(&path).expect("snapshot");
    let bytes = std::fs::read(&path).expect("read");
    let info = describe(&path).expect("describe");
    let section = info.sections.iter().find(|s| s.name == "data").expect("data section");
    let start = usize::try_from(section.offset).expect("offset fits");
    assert!(section.len > u64::try_from(CHUNK).expect("fits") + 800, "data spans two chunks");
    assert_eq!(start % 8, 0, "sections are word-aligned");

    let target = tmp_path("cancel-pair");
    for (case, words) in [
        ("one chunk", [1usize, 100]),
        ("two chunks", [1, CHUNK / 8 + 5]),
        ("same offset, two chunks", [3, CHUNK / 8 + 3]),
    ] {
        let mut damaged = bytes.clone();
        for w in words {
            damaged[start + 8 * w + 7] ^= 0x80;
        }
        std::fs::write(&target, &damaged).expect("write damaged");
        match SofaIndex::open(&target) {
            Err(IndexError::SnapshotCorrupt { section, .. }) => {
                assert_eq!(section, "data", "{case}")
            }
            Err(e) => panic!("{case}: expected SnapshotCorrupt, got {e:?}"),
            Ok(_) => panic!("{case}: two sign flips in the data arena must not open"),
        }
        assert!(describe(&target).is_err(), "{case}: describe must reject it too");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&target).ok();
}
