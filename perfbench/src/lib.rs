//! The SOFA workspace's benchmark: three seeded workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from traced runs, and an
//! exactness gate on every run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hf256 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (name → value and unit). The line
//! before it carries annotations that are never gated: the steal share
//! each phase ran under, sample counts and the percentile each tail
//! metric reports.

pub mod gate;
pub mod report;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workload;
