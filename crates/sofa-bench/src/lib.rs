//! Benchmark harness for the SOFA reproduction.
//!
//! Every table and figure of the paper's evaluation (§V) has a
//! corresponding experiment here, runnable through the `repro` binary:
//!
//! | id       | paper artifact | experiment |
//! |----------|----------------|------------|
//! | `tab1`   | Table I        | benchmark registry characteristics |
//! | `fig1`   | Figure 1       | PAA vs DFT summarization quality + value distributions |
//! | `fig2-3` | Figures 2–3    | SAX vs SFA words on one series |
//! | `fig4`   | Figure 4       | mindist construction worked example |
//! | `fig7`   | Figure 7       | index-creation time breakdown by cores |
//! | `fig8`   | Figure 8       | index structure: depth / leaf fill / subtrees |
//! | `tab2`   | Table II       | 1-NN query times per method x cores |
//! | `tab3`   | Table III/Fig 9| k-NN query times |
//! | `fig10`  | Figure 10      | query-time distributions by cores |
//! | `fig11`  | Figure 11      | leaf-size sweep |
//! | `fig12`  | Figure 12      | per-dataset SOFA/MESSI relative time |
//! | `fig13`  | Figure 13      | selected-coefficient index vs speedup correlation |
//! | `tab4`   | Table IV       | MCB sampling-rate sweep |
//! | `tab5`   | Table V/Fig 14L| TLB on UCR-like datasets |
//! | `tab6`   | Table VI/Fig14R| TLB on the 17-dataset registry |
//! | `fig15`  | Figure 15      | critical-difference analysis |
//! | `ext-approx` | extension | approximate-search quality: recall@1 and distance ratio of the approximate stage |
//! | `ext-numeric` | extension | numeric summarization pruning power |
//! | `ext-chaos` | extension | serving robustness under fault injection (also `--profile chaos`) |
//!
//! Experiments return [`report::Report`]s (markdown with embedded data
//! tables) that the binary prints and can append to `EXPERIMENTS.md`.

#![warn(missing_docs)]

pub mod experiments;
pub mod methods;
pub mod report;

use std::time::Instant;

/// Global sizing knobs for the experiment suite.
///
/// The paper runs 1 billion series on a 36-core server; this harness
/// defaults to a laptop-scale slice of the same benchmark (the `scale`
/// divisor shrinks every dataset's series count, floored at `min_series`).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Divisor applied to each dataset's paper series count.
    pub scale: u64,
    /// Minimum series per dataset after scaling.
    pub min_series: usize,
    /// Queries per dataset (paper: 100).
    pub n_queries: usize,
    /// Thread counts to sweep (paper: 9/18/36 cores).
    pub threads: Vec<usize>,
    /// Index leaf capacity (paper default 20,000 at billion scale; scaled
    /// down with the data so trees keep comparable shape).
    pub leaf_capacity: usize,
    /// MCB sampling ratio for SOFA.
    pub sample_ratio: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: 5_000,
            min_series: 2_000,
            n_queries: 15,
            threads: vec![1, 2, 4],
            leaf_capacity: 500,
            sample_ratio: 0.05,
        }
    }
}

impl BenchConfig {
    /// A fast configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Self {
        BenchConfig {
            scale: 100_000,
            min_series: 600,
            n_queries: 3,
            threads: vec![2],
            leaf_capacity: 100,
            sample_ratio: 0.2,
        }
    }

    /// The maximum configured thread count.
    #[must_use]
    pub fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Milliseconds from seconds, for report tables.
#[must_use]
pub fn ms(secs: f64) -> f64 {
    secs * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_smaller() {
        let q = BenchConfig::quick();
        let d = BenchConfig::default();
        assert!(q.min_series < d.min_series);
        assert!(q.n_queries < d.n_queries);
        assert_eq!(q.max_threads(), 2);
    }

    #[test]
    fn timed_measures() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(ms(0.5), 500.0);
    }
}
