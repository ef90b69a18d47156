//! Dataset substrate for the SOFA benchmark.
//!
//! The paper evaluates on 17 real datasets totalling one billion series
//! (Table I) — seismic archives (SeisBench), astronomy light curves,
//! neuro-imaging series, and billion-scale vector collections. Those
//! archives are not redistributable here, so this crate builds **synthetic
//! analogues**: one generator per dataset, tuned to the property the paper
//! identifies as the performance driver — *where the spectral variance
//! sits* (high-frequency broadband bursts vs. smooth low-frequency drifts)
//! and how non-Gaussian the value distribution is (Figure 1). Counts are
//! scaled to laptop RAM; shapes, lengths and the relative frequency
//! ordering of the 17 datasets are preserved (see `DESIGN.md` §2 for the
//! substitution argument).
//!
//! Contents:
//! * [`gen`] — the signal generators (seismic event traces, colored noise,
//!   random walks, light curves, descriptor vectors),
//! * [`registry()`](registry::registry) — the 17 named dataset specs of Table I with their
//!   generator profiles, plus scaling helpers,
//! * [`ucr`] — seeded "UCR archive"-like dataset families for the TLB
//!   ablation (Tables V, Figure 14 left),
//! * [`workload`] — the [`workload::Dataset`] container and query
//!   workload generation,
//! * [`io`] — `fvecs`/`bvecs` readers and writers, so real vector
//!   collections (SIFT1B, BigANN, Deep1B) can be dropped in when
//!   available.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod io;
pub mod registry;
pub mod ucr;
pub mod workload;

pub use gen::{Generator, SignalKind};
pub use registry::{registry, DatasetSpec, FrequencyProfile};
pub use ucr::{ucr_like_archive, UcrDataset};
pub use workload::Dataset;
