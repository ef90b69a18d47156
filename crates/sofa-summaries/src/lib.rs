//! Symbolic and numeric summarizations of data series, with their
//! lower-bounding distances (LBDs).
//!
//! This crate implements both summarization families the paper compares:
//!
//! * **iSAX** (§IV-D) — Piecewise Aggregate Approximation (mean per
//!   segment) quantized with *fixed* equal-depth bins of the standard
//!   normal distribution. The de-facto standard behind MESSI and the whole
//!   iSAX index family.
//! * **SFA** (§IV-E) — the Symbolic Fourier Approximation: a Discrete
//!   Fourier Transform, *variance-based* selection of the most informative
//!   real/imaginary coefficient values (the paper's novel feature-selection
//!   strategy), and *learned* per-value quantization bins (Multiple
//!   Coefficient Binning, equi-width by default). SFA adapts to the actual
//!   data distribution in the frequency domain, which is why SOFA wins on
//!   high-frequency, non-Gaussian datasets.
//!
//! Both reduce a series to a **word**: `l` symbols of a `2^bits` alphabet
//! (`u8` symbols, alphabet up to 256 — the paper's default). A common
//! breakpoint-interval representation ([`traits::Summarization`]) lets one
//! generic tree index (crate `sofa-index`) host either summarization: a
//! symbol denotes an interval between learned (SFA) or fixed (SAX)
//! breakpoints, a bit-prefix of a symbol denotes the union of adjacent
//! intervals (the iSAX variable-cardinality trick that drives node splits),
//! and the LBD between a query's *exact* values and a word is the weighted
//! sum of squared distances to those intervals ([`lbd`]).
//!
//! The [`lbd::mindist_simd`] kernel is the paper's Algorithm 3: 8-lane
//! blocks, three comparison masks (below / inside / above the interval)
//! blended branchlessly, with early abandoning against the best-so-far
//! distance after every block.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod dft;
pub mod lbd;
pub mod mcb;
pub mod numeric;
pub mod paa;
pub mod quant;
pub mod sax;
pub mod sfa;
pub mod tlb;
pub mod traits;

pub use block::{mindist_block, mindist_block_masked, WordBlock};
pub use dft::DftSummary;
pub use lbd::{
    ip_bound_from_mindist, ip_from_score, ip_l2_radius, ip_score, mindist_node, mindist_scalar,
    mindist_simd, QueryContext, QueryEnv, RootLbd, IP_MARGIN_SCALE,
};
pub use mcb::{BinningStrategy, CoeffPos, CoefficientSelection, McbConfig, McbModel};
pub use numeric::{Apca, ApcaSegment, OrthoPoly, Pla};
pub use paa::Paa;
pub use quant::{QuantBlock, QuantGrid};
pub use sax::{ISax, SaxConfig};
pub use sfa::{Sfa, SfaConfig};
pub use tlb::{tlb_of, TlbReport};
pub use traits::{SeriesTransformer, Summarization, TransformScratch};
