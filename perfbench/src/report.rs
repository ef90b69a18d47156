//! Metric names and units, summary statistics, and the result line.

/// End-to-end metrics, printed by an untraced run (`--trace 0`). Every
/// other figure a run measures (direct and serve latencies, the serve
/// rate, direct CPU cost, the insert rate and tail, and the per-layer
/// figures an untraced run gets for free) is printed as an annotation:
/// too host-sensitive to gate on a shared machine.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("batch_qps", "1/s"),
    ("batch_cpu_us", "us"),
    ("serve_cpu_us", "us"),
    ("restart_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 38] = [
    ("fft.rdft_ns", "ns"),
    ("summaries.learn_s", "s"),
    ("summaries.word_us", "us"),
    ("summaries.query_values_us", "us"),
    ("summaries.tlb", "ratio"),
    ("simd.l2_gbs", "GB/s"),
    ("simd.block_lb_ns", "ns"),
    ("simd.quant_lb_ns", "ns"),
    ("exec.broadcast_us", "us"),
    ("index.build_s", "s"),
    ("index.lbd_checked", "count"),
    ("index.rows_refined", "count"),
    ("index.leaves_refined", "count"),
    ("index.refine_bytes", "bytes"),
    ("index.quant_lanes_killed", "count"),
    ("index.prune_ratio", "ratio"),
    ("index.fallback_leaf_pct", "%"),
    ("index.auto_repacks", "count"),
    ("index.repack_ms", "ms"),
    ("snapshot.write_s", "s"),
    ("snapshot.open_s", "s"),
    ("snapshot.bytes_ratio", "ratio"),
    ("snapshot.first_query_ms", "ms"),
    ("serve.tick_fill", "count"),
    ("serve.ticket_wait_us", "us"),
    ("serve.ticks", "count"),
    ("baselines.flat_cpu_us", "us"),
    ("baselines.flat_over_batch_cpu", "x"),
    ("trace.overhead_pct", "%"),
    ("self.bench_s", "s"),
    ("self.data_s", "s"),
    ("self.fft_s", "s"),
    ("self.summaries_s", "s"),
    ("self.simd_s", "s"),
    ("self.exec_s", "s"),
    ("self.index_s", "s"),
    ("self.serve_s", "s"),
    ("self.baselines_s", "s"),
];

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The highest of p99, p90 and p50 that leaves at least ten samples
/// beyond it among `n` samples.
#[must_use]
pub fn tail_percentile(n: usize) -> f64 {
    match n {
        1000.. => 99.0,
        100.. => 90.0,
        _ => 50.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 when empty.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What one run prints.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries, inserts, snapshot writes and opens).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Context printed beside the metrics, never gated: steal share,
    /// sample counts, the percentile each tail metric reports, the
    /// kernel tier, thread count and input sizes.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// Records an annotation.
    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    /// Keeps the metrics named in `printed` and turns every other one into
    /// an annotation (`"<value> <unit>"`).
    pub fn keep_only(&mut self, printed: &[(&str, &str)]) {
        let (kept, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.metrics)
            .into_iter()
            .partition(|(n, _, _)| printed.iter().any(|(p, _)| p == n));
        self.metrics = kept;
        for (name, v, unit) in rest {
            self.note(&name, format!("{v} {unit}"));
        }
    }

    /// `failed / attempted`.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The annotation line: a JSON object under the key `annotations`.
    #[must_use]
    pub fn notes_json(&self) -> String {
        let body: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"annotations\": {{{}}}}}", body.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// A non-finite value makes the run incorrect and prints as 0.
    #[must_use]
    pub fn result_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_percentile(2_000), 99.0);
        assert_eq!(tail_percentile(120), 90.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("setup_s", 0.5, "s");
        let line = r.result_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r.result_json().starts_with("{\"correct\": false"));
    }
}
