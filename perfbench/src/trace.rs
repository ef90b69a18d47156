//! In-memory spans recorded by the benchmark around its calls into each
//! crate, so a traced run can say which layer a run's time went to.
//!
//! A span is named `<layer>.<call>` (`index.knn`, `serve.knn`, ...); the
//! layer is the crate the call enters, or `bench` for the benchmark's own
//! phases. Spans carry the id of the span that caused them and the id of
//! the request they belong to. Recording is off in untraced runs, where
//! [`Tracer::span`] only runs its closure.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Request this span serves (0 when it serves no single request).
    pub request: u64,
}

impl Span {
    /// The layer: the part of the name before the first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of `parent`, serving
    /// `request`. `f` receives the span's id to pass to its children (0
    /// when recording is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned by a panicking recorder").push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its children cover (children on parallel threads may
/// overlap; their union is subtracted once). Sorted by layer name.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut by_layer: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_unstable();
        let (mut covered, mut cursor) = (0u64, s.start_ns);
        for (lo, hi) in kids {
            let (lo, hi) = (lo.max(cursor), hi.min(s.end_ns));
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
        }
        *by_layer.entry(s.layer()).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    by_layer.into_iter().map(|(layer, ns)| (layer, ns as f64 * 1e-9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span { id, name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "bench.pass", 0, 100, 0),
            span(2, "serve.knn", 10, 50, 1),
            span(3, "serve.knn", 30, 70, 1), // overlaps 2 (another client)
            span(4, "index.knn", 80, 90, 1),
        ];
        let t = self_time_by_layer(&spans);
        let get = |l: &str| t.iter().find(|(n, _)| *n == l).unwrap().1;
        assert!((get("bench") - 30e-9).abs() < 1e-15); // 100 - (60 + 10)
        assert!((get("serve") - 80e-9).abs() < 1e-15);
        assert!((get("index") - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("index.knn", 0, 1, |id| id), 0);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.span("bench.run", 0, 0, |id| t.span("index.knn", id, 7, |_| id));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.iter().find(|s| s.name == "index.knn").unwrap().parent, outer);
    }
}
