//! Markdown report assembly for the experiment suite, plus the
//! machine-readable metrics channel behind `repro --json`.

use std::fmt::Write as _;

/// One experiment's output: a title, contextual notes (including the
/// paper's reference values), data tables, and named scalar metrics for
/// machine-readable trend tracking across PRs.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Experiment id (`tab2`, `fig12`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Markdown body.
    body: String,
    /// Named scalar metrics (QPS, latency percentiles, pruning ratios…)
    /// in insertion order.
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Starts a report.
    #[must_use]
    pub fn new(id: &str, title: &str) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            body: String::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a machine-readable metric (overwrites an existing key).
    pub fn metric(&mut self, key: &str, value: f64) {
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key.to_string(), value));
        }
    }

    /// The recorded metrics, in insertion order.
    #[must_use]
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// Appends a paragraph.
    pub fn para(&mut self, text: &str) {
        let _ = writeln!(self.body, "{text}\n");
    }

    /// Appends a warn-level note: rendered bold in the markdown body and
    /// echoed to stderr so an operator skimming a long `repro` run cannot
    /// miss it (e.g. the fallback-leaf share climbing past its threshold).
    pub fn warn(&mut self, text: &str) {
        eprintln!("warn[{}]: {text}", self.id);
        let _ = writeln!(self.body, "**WARN:** {text}\n");
    }

    /// Appends a markdown table.
    ///
    /// # Panics
    /// Panics if any row's width differs from the header's.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let _ = writeln!(self.body, "| {} |", header.join(" | "));
        let _ = writeln!(self.body, "|{}|", vec!["---"; header.len()].join("|"));
        for row in rows {
            assert_eq!(row.len(), header.len(), "ragged table row");
            let _ = writeln!(self.body, "| {} |", row.join(" | "));
        }
        let _ = writeln!(self.body);
    }

    /// Renders the full markdown section.
    #[must_use]
    pub fn render(&self) -> String {
        format!("## {} — {}\n\n{}", self.id, self.title, self.body)
    }
}

/// Renders a set of experiment reports as a JSON document:
/// `{"kernel_tier": "...", "experiments": {"<id>": {"<metric>": value}}}`.
///
/// The workspace has no serde (offline, vendored deps only), so this is a
/// minimal hand-rolled emitter; ids and metric keys are plain identifiers
/// (quotes/backslashes are escaped anyway), non-finite values become
/// `null`.
#[must_use]
pub fn render_json(reports: &[Report]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"kernel_tier\": \"{}\",", sofa_simd::active_tier().name());
    out.push_str("  \"experiments\": {\n");
    let with_metrics: Vec<&Report> = reports.iter().filter(|r| !r.metrics.is_empty()).collect();
    for (i, r) in with_metrics.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", esc(&r.id));
        for (j, (k, v)) in r.metrics.iter().enumerate() {
            let comma = if j + 1 < r.metrics.len() { "," } else { "" };
            let _ = writeln!(out, "      \"{}\": {}{comma}", esc(k), num(*v));
        }
        let comma = if i + 1 < with_metrics.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// Formats a float with 1 decimal place.
#[must_use]
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 2 decimal places.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimal places.
#[must_use]
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_table_and_text() {
        let mut r = Report::new("tab9", "demo");
        r.para("hello");
        r.table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        let s = r.render();
        assert!(s.contains("## tab9 — demo"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
        assert!(s.contains("hello"));
    }

    #[test]
    fn warn_renders_bold_note() {
        let mut r = Report::new("x", "y");
        r.warn("fallback share at 60%");
        assert!(r.render().contains("**WARN:** fallback share at 60%"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut r = Report::new("x", "y");
        r.table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(f3(0.1234), "0.123");
    }

    #[test]
    fn metrics_roundtrip_into_json() {
        let mut a = Report::new("ext-chaos", "t");
        a.metric("qps", 123.5);
        a.metric("qps", 124.5); // overwrite, not duplicate
        a.metric("p99_ms", 0.75);
        let b = Report::new("no-metrics", "t");
        let json = render_json(&[a, b]);
        assert!(json.contains("\"experiments\""));
        assert!(json.contains("\"ext-chaos\""));
        assert!(json.contains("\"qps\": 124.5"));
        assert!(json.contains("\"p99_ms\": 0.75"));
        assert!(!json.contains("no-metrics"), "metric-less reports are omitted");
        assert!(json.contains("\"kernel_tier\""));
        // Non-finite values must not produce invalid JSON.
        let mut c = Report::new("x", "t");
        c.metric("bad", f64::INFINITY);
        assert!(render_json(&[c]).contains("\"bad\": null"));
    }
}
