//! SIMD kernel layer for SOFA.
//!
//! The SOFA paper (§II-B, §IV-H) relies on data-level parallelism for two
//! hot kernels:
//!
//! 1. the **real Euclidean distance** between a query and a candidate series
//!    (with early abandoning against the best-so-far distance), and
//! 2. the **lower-bounding distance** between a query's DFT coefficients and
//!    an SFA word, which requires a three-way conditional per lane
//!    (above/below/inside the quantization interval) resolved branchlessly
//!    with masks (Algorithm 3 / Figure 6 of the paper).
//!
//! Every kernel exists in up to three tiers, selected once per process by
//! [`dispatch::active_tier`]:
//!
//! * a **scalar** reference (forced with `SOFA_FORCE_SCALAR=1`),
//! * a **portable** tier over the fixed-width vector type [`F32x8`] — a
//!   plain `[f32; 8]` wrapper with full-bitmask lane masks whose lane-wise
//!   operations auto-vectorize on every mainstream target
//!   (`SOFA_FORCE_PORTABLE=1` forces it), and
//! * an **AVX2+FMA** tier of explicit `std::arch` kernels (the private
//!   `arch` module, x86-64 only), chosen by default when the CPU
//!   supports it.
//!
//! Besides the per-pair kernels this crate provides the transposed,
//! throughput-oriented primitive the index's leaf sweep runs on:
//! [`block::lut_lower_bound`] lower-bounds **8 candidate words per call**
//! by summing a per-query symbol table indexed by the raw `u8` words, with
//! whole-group early abandoning; [`block::block_lower_bound`] computes the
//! same sums from resolved intervals and is its test reference (see
//! [`block`] for both layout contracts).
//!
//! `unsafe` is confined to the private `arch` module (intrinsics + raw-pointer
//! loads behind the runtime feature check); everything else is safe Rust,
//! which keeps the kernels testable and portable while preserving the
//! blocked, mask-select structure the paper describes.
//!
//! Higher layers (the SFA mindist in `sofa-summaries`, the scan baselines
//! in `sofa-baselines`, the tree index in `sofa-index`) all funnel their
//! inner loops through this crate.

#![deny(unsafe_code)] // `arch` opts back in; the rest of the crate is safe
#![warn(missing_docs)]

mod arch;
pub mod block;
pub mod dispatch;
pub mod distance;
pub mod quant;
pub mod vector;
pub mod znorm;

pub use block::{
    block_lower_bound, block_lower_bound_portable, block_lower_bound_scalar, lut_lower_bound,
    lut_lower_bound_scalar, BLOCK_LANES, BOUNDS_STRIDE, LUT_STRIDE,
};
pub use dispatch::{active_tier, force_tier, KernelTier};
pub use distance::{
    dot, dot_portable, dot_scalar, euclidean_sq, euclidean_sq_early_abandon,
    euclidean_sq_early_abandon_portable, euclidean_sq_early_abandon_scalar, euclidean_sq_portable,
    euclidean_sq_scalar, DistanceKernel,
};
pub use quant::{
    quant_lower_bound, quant_lower_bound_masked, quant_lower_bound_portable,
    quant_lower_bound_scalar, QUANT_MAX_POSITIONS,
};
pub use vector::{F32x8, Mask8, LANES};
pub use znorm::{znormalize, znormalize_into, ZNormStats};
