//! Smoke tests for the experiment harness: every cheap experiment must run
//! to completion at quick sizes and produce a well-formed report. The
//! expensive ones (full query sweeps) are exercised by the `repro` binary;
//! these tests protect the harness plumbing from regressions.

use sofa_bench::experiments::{find, Suite};
use sofa_bench::BenchConfig;

fn quick_suite() -> Suite {
    // Even smaller than BenchConfig::quick(): single-digit seconds total.
    Suite::new(BenchConfig {
        scale: 1_000_000,
        min_series: 300,
        n_queries: 2,
        threads: vec![1],
        leaf_capacity: 50,
        sample_ratio: 0.5,
    })
}

#[test]
fn tab1_reports_all_17_datasets() {
    let suite = quick_suite();
    let report = (find("tab1").expect("registered").run)(&suite);
    let md = report.render();
    for name in ["LenDB", "SCEDC", "Deep1b", "SIFT1b", "SALD"] {
        assert!(md.contains(name), "missing {name} in:\n{md}");
    }
    assert!(md.contains("| dataset |"));
}

#[test]
fn fig4_reports_zero_violations() {
    let suite = quick_suite();
    let report = (find("fig4").expect("registered").run)(&suite);
    let md = report.render();
    // The violations column must be 0 for both methods: the report rows
    // are "| method | pairs | violations | tightness |".
    for line in md.lines().filter(|l| l.starts_with("| iSAX") || l.starts_with("| SFA")) {
        let cols: Vec<&str> = line.split('|').map(str::trim).collect();
        assert_eq!(cols[3], "0", "LBD violations in {line}");
    }
}

#[test]
fn fig2_3_emits_words_of_requested_lengths() {
    let suite = quick_suite();
    let report = (find("fig2-3").expect("registered").run)(&suite);
    let md = report.render();
    // Rows: | l | sax word | rmse | sfa word | rmse |
    for l in ["| 4 |", "| 8 |", "| 12 |"] {
        assert!(md.contains(l), "missing row {l}");
    }
}

#[test]
fn fig8_structure_counts_are_positive() {
    let suite = quick_suite();
    let report = (find("fig8").expect("registered").run)(&suite);
    let md = report.render();
    assert!(md.contains("MESSI"));
    assert!(md.contains("SOFA"));
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(find("fig99").is_none());
}
