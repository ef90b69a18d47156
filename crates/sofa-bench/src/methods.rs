//! Uniform wrappers over the four exact-search methods of the paper's
//! evaluation, so experiments can sweep them interchangeably.

use crate::BenchConfig;
use sofa::baselines::{FlatL2, UcrScan};
use sofa::data::Dataset;
use sofa::{Builder, MessiIndex, Neighbor, SofaIndex};

/// The competitors of §V.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// SOFA: SFA + tree index (the paper's contribution).
    Sofa,
    /// MESSI: iSAX + tree index.
    Messi,
    /// UCR-Suite-P parallel scan.
    UcrScan,
    /// FAISS-IndexFlatL2-style brute force (batched queries).
    FlatL2,
}

impl MethodKind {
    /// All four methods in the paper's reporting order.
    pub const ALL: [MethodKind; 4] =
        [MethodKind::FlatL2, MethodKind::Messi, MethodKind::Sofa, MethodKind::UcrScan];

    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Sofa => "SOFA",
            MethodKind::Messi => "MESSI",
            MethodKind::UcrScan => "UCR Suite-P",
            MethodKind::FlatL2 => "FAISS IndexFlatL2 (repro)",
        }
    }
}

/// A built method ready to answer queries.
pub enum Built {
    /// SOFA index.
    Sofa(Box<SofaIndex>),
    /// MESSI index.
    Messi(Box<MessiIndex>),
    /// Parallel scan.
    Scan(UcrScan),
    /// Flat brute force.
    Flat(FlatL2),
}

impl Built {
    /// Builds `kind` over the dataset with `threads` workers.
    ///
    /// # Panics
    /// Panics if the underlying build fails (dataset invariants are
    /// guaranteed by the generators).
    #[must_use]
    pub fn build(kind: MethodKind, dataset: &Dataset, threads: usize, cfg: &BenchConfig) -> Built {
        let n = dataset.series_len();
        match kind {
            MethodKind::Sofa => Built::Sofa(Box::new(
                Builder::default()
                    .threads(threads)
                    .leaf_capacity(cfg.leaf_capacity)
                    .sample_ratio(cfg.sample_ratio)
                    .build_sofa(dataset.data(), n)
                    .expect("SOFA build"),
            )),
            MethodKind::Messi => Built::Messi(Box::new(
                Builder::default()
                    .threads(threads)
                    .leaf_capacity(cfg.leaf_capacity)
                    .build_messi(dataset.data(), n)
                    .expect("MESSI build"),
            )),
            MethodKind::UcrScan => Built::Scan(UcrScan::new(dataset.data(), n, threads)),
            MethodKind::FlatL2 => Built::Flat(FlatL2::new(dataset.data(), n, threads)),
        }
    }

    /// Exact k-NN for one query.
    ///
    /// # Panics
    /// Panics on invalid queries (harness always passes valid ones).
    #[must_use]
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        match self {
            Built::Sofa(ix) => ix.knn(query, k).expect("query"),
            Built::Messi(ix) => ix.knn(query, k).expect("query"),
            Built::Scan(s) => s.knn(query, k),
            Built::Flat(f) => f.knn_one(query, k),
        }
    }

    /// Per-query mean time in milliseconds over the dataset's workload.
    ///
    /// SOFA/MESSI/scan answer queries sequentially (intra-query
    /// parallelism, the paper's exploratory-analysis model); FlatL2 runs
    /// the whole workload as one parallel mini-batch and attributes the
    /// mean per query (the paper's FAISS protocol). Returns one duration
    /// per query.
    #[must_use]
    pub fn time_workload(&self, dataset: &Dataset, k: usize) -> Vec<f64> {
        let n_queries = dataset.n_queries();
        match self {
            Built::Flat(f) => {
                let (_, secs) = crate::timed(|| f.knn_batch(dataset.queries(), k));
                vec![crate::ms(secs) / n_queries as f64; n_queries]
            }
            _ => (0..n_queries)
                .map(|qi| {
                    let (_, secs) = crate::timed(|| self.knn(dataset.query(qi), k));
                    crate::ms(secs)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sofa::data::registry;

    #[test]
    fn all_methods_build_and_agree() {
        let cfg = BenchConfig::quick();
        let spec = &registry()[6]; // Iquique analogue (small)
        let dataset = spec.generate(300, 2);
        let mut dists = Vec::new();
        for kind in MethodKind::ALL {
            let built = Built::build(kind, &dataset, 2, &cfg);
            let nn = built.knn(dataset.query(0), 1);
            dists.push(nn[0].dist_sq);
        }
        for d in &dists[1..] {
            assert!((d - dists[0]).abs() < 2e-3 * dists[0].max(1.0), "{dists:?}");
        }
    }

    #[test]
    fn workload_timing_shape() {
        let cfg = BenchConfig::quick();
        let spec = &registry()[6];
        let dataset = spec.generate(200, 3);
        let built = Built::build(MethodKind::FlatL2, &dataset, 2, &cfg);
        let times = built.time_workload(&dataset, 1);
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t >= 0.0));
    }
}
