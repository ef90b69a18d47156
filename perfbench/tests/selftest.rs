//! Self-test of the benchmark: a tiny run of every workload prints every
//! metric with its unit, a wrong answer fails the gate, and the prune
//! counters repeat exactly for a seed.

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::run::{run, Args};
use perfbench::workload::{Workload, ALL};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> Report {
    let args = Args {
        workload: workload.tiny(),
        seed: 3,
        seconds: 0.05,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest"),
        corrupt,
    };
    run(&args).expect("tiny run completes")
}

fn assert_prints(report: &Report, expected: &[(&str, &str)], what: &str) {
    let printed: Vec<(&str, &str)> =
        report.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
    let mut want = expected.to_vec();
    let mut got = printed.clone();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "{what}: printed metrics differ from the declared ones");
    for (name, v, _) in &report.metrics {
        assert!(v.is_finite(), "{what}: {name} = {v}");
    }
    assert!(report.notes.iter().any(|(k, _)| k == "steal_pct"), "{what}: no steal_pct note");
    assert_eq!(
        report.failed, 0,
        "{what}: {} of {} operations failed",
        report.failed, report.attempted
    );
    assert!(report.result_json().starts_with("{\"correct\": true"), "{what}");
}

#[test]
fn every_workload_prints_every_metric_and_passes_the_gate() {
    for w in ALL {
        assert_prints(&tiny(w.clone(), false, false), &END_TO_END, w.name);
        assert_prints(&tiny(w.clone(), true, false), &PER_LAYER, w.name);
    }
}

#[test]
fn a_wrong_answer_raises_failed_frac() {
    let report = tiny(ALL[2].clone(), false, true);
    assert!(report.failed_frac() > 0.0, "the gate accepted a wrong answer");
    assert!(report.result_json().starts_with("{\"correct\": false"));
}

#[test]
fn prune_counters_and_tlb_repeat_for_a_seed() {
    let exact = |r: &Report| -> Vec<(String, u64)> {
        r.metrics
            .iter()
            .filter(|(n, _, _)| {
                n.starts_with("index.") && !n.ends_with("_s") && !n.ends_with("_ms")
                    || n == "summaries.tlb"
            })
            .map(|(n, v, _)| (n.clone(), v.to_bits()))
            .collect()
    };
    let (a, b) = (tiny(ALL[0].clone(), true, false), tiny(ALL[0].clone(), true, false));
    assert!(exact(&a).len() >= 8);
    assert_eq!(exact(&a), exact(&b));
    assert!(a.notes.iter().any(|(k, v)| k == "counters_repeat" && v == "true"));
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name)), "{} undeclared", w.name);
    }
}
