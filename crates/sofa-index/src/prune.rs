//! The pruning seam: one funnel, many query types.
//!
//! Every phase of the GEMINI funnel — home-leaf seed, collect, refine,
//! quantized middle tier — makes exactly three kinds of decisions:
//!
//! 1. *what threshold do kernels early-abandon against* (a squared-L2
//!    value),
//! 2. *does a squared-L2 lower bound prove a candidate can't matter*, and
//! 3. *score a surviving candidate exactly and record it if it
//!    qualifies*.
//!
//! [`PruneBound`] captures those three decisions, so the identical
//! collect/refine machinery in [`crate::query`] serves:
//!
//! * **k-NN** ([`KnnBound`]) — the shrinking k-th-best bound, pruning
//!   strictly on `lb > bound` and scoring `d <= bound`: a candidate tied
//!   *at* the bound can still enter the set through the `(dist_sq, row)`
//!   tie-break, and ties are common, not measure-zero — a constant query
//!   z-normalizes to zeros and puts every row at distance `≈ n`.
//! * **range / epsilon** ([`RangeBound`]) — a *fixed* radius, pruning
//!   strictly on `lb > r²` and accepting `d <= r²`, so candidates tied
//!   exactly at the radius are returned (the kernels abandon on strict
//!   `>`, and [`sofa_summaries::QuantBlock::thresholds`] guarantees
//!   strict `>` too, so no tier can drop an exact tie).
//! * **max-inner-product** ([`IpBound`]) — the Parseval conversion of
//!   [`sofa_summaries::ip_score`]: maximizing `q·x` over z-normalized
//!   rows is minimizing the score `2n - q·x`, and
//!   [`sofa_summaries::ip_l2_radius`] converts the current k-th-best
//!   score into a squared-L2 radius the existing `mindist` family prunes
//!   against (soundness margin included; see `sofa-summaries/src/lbd.rs`
//!   for the derivation and the property test that the bound never
//!   crosses the true score).
//!
//! Bounds only ever *tighten* between two reads, so a phase re-reading
//! `l2_bound()` more often than the pre-seam code read `knn.bound()` can
//! only prune more — never a survivor it shouldn't — which keeps every
//! instantiation exact.

use crate::bsf::{KnnSet, Neighbor};
use parking_lot::Mutex;
use sofa_simd::euclidean_sq_early_abandon;
use sofa_summaries::{ip_l2_radius, ip_score};

/// One query type's pruning-and-scoring policy (see the module docs).
///
/// `Sync` because collect/refine workers share one instance across pool
/// lanes.
pub(crate) trait PruneBound: Sync {
    /// The current pruning threshold in the squared-L2 domain — what the
    /// SIMD kernels early-abandon against. May be `+inf` (nothing prunes
    /// yet) or negative (everything prunes, e.g. an inner-product bound
    /// already better than any candidate could be).
    fn l2_bound(&self) -> f32;

    /// Does a squared-L2 lower bound `lb` prove its candidate(s) cannot
    /// contribute to the answer?
    fn prunes(&self, lb: f32) -> bool;

    /// [`PruneBound::prunes`] for the quantized tier's `f64` lane bound.
    fn prunes_f64(&self, lb: f64) -> bool;

    /// Scores candidate `x` (row id `row`) exactly against the
    /// z-normalized query `q` and records it if it qualifies.
    fn score_and_offer(&self, q: &[f32], x: &[f32], row: u32);
}

/// Top-k under squared Euclidean distance: the classic MESSI bound.
pub(crate) struct KnnBound<'a> {
    pub set: &'a KnnSet,
}

impl PruneBound for KnnBound<'_> {
    #[inline]
    fn l2_bound(&self) -> f32 {
        self.set.bound()
    }

    #[inline]
    fn prunes(&self, lb: f32) -> bool {
        lb > self.set.bound()
    }

    #[inline]
    fn prunes_f64(&self, lb: f64) -> bool {
        lb > f64::from(self.set.bound())
    }

    #[inline]
    fn score_and_offer(&self, q: &[f32], x: &[f32], row: u32) {
        let bound = self.set.bound();
        // Strict early abandon (`partial > bound`), so a row tied with
        // the k-th best comes back exact and the set's row tie-break
        // decides it.
        let d = euclidean_sq_early_abandon(q, x, bound);
        if d <= bound {
            self.set.offer(Neighbor { row, dist_sq: d });
        }
    }
}

/// Fixed epsilon-radius search: every row with `d² <= r²`.
///
/// The threshold never moves, pruning is *strict* (`lb > r²`), and ties
/// exactly at the radius are accepted — the three places this differs
/// from k-NN.
pub(crate) struct RangeBound<'a> {
    pub r_sq: f32,
    pub hits: &'a Mutex<Vec<Neighbor>>,
}

impl PruneBound for RangeBound<'_> {
    #[inline]
    fn l2_bound(&self) -> f32 {
        self.r_sq
    }

    #[inline]
    fn prunes(&self, lb: f32) -> bool {
        lb > self.r_sq
    }

    #[inline]
    fn prunes_f64(&self, lb: f64) -> bool {
        lb > f64::from(self.r_sq)
    }

    #[inline]
    fn score_and_offer(&self, q: &[f32], x: &[f32], row: u32) {
        // The early-abandon check is strict (`partial > bound` bails), and
        // partial sums of squares only grow, so a row at exactly d² == r²
        // is never abandoned and comes back exact.
        let d = euclidean_sq_early_abandon(q, x, self.r_sq);
        if d <= self.r_sq {
            self.hits.lock().push(Neighbor { row, dist_sq: d });
        }
    }
}

/// Top-k by inner product over z-normalized rows, run through the L2
/// funnel via the Parseval score conversion (module docs).
///
/// The shared [`KnnSet`] tracks *scores* (`2n - q·x`, ascending-best);
/// [`IpBound::l2_bound`] converts its k-th-best score to the squared-L2
/// radius every existing mindist bound prunes against.
pub(crate) struct IpBound<'a> {
    pub set: &'a KnnSet,
    /// Series length `n` (the score offset and margin scale).
    pub n: usize,
}

impl PruneBound for IpBound<'_> {
    #[inline]
    fn l2_bound(&self) -> f32 {
        ip_l2_radius(self.n, self.set.bound())
    }

    #[inline]
    fn prunes(&self, lb: f32) -> bool {
        lb > self.l2_bound()
    }

    #[inline]
    fn prunes_f64(&self, lb: f64) -> bool {
        lb > f64::from(self.l2_bound())
    }

    #[inline]
    fn score_and_offer(&self, q: &[f32], x: &[f32], row: u32) {
        // No early abandon for a dot product (partial sums aren't
        // monotone), and the score is cheap: one fused kernel pass.
        self.set.offer(Neighbor { row, dist_sq: ip_score(self.n, sofa_simd::dot(q, x)) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knn_bound_tracks_the_set() {
        let set = KnnSet::new(1);
        let pb = KnnBound { set: &set };
        assert_eq!(pb.l2_bound(), f32::INFINITY);
        assert!(!pb.prunes(1e30));
        pb.score_and_offer(&[0.0, 0.0], &[1.0, 1.0], 7);
        assert_eq!(pb.l2_bound(), 2.0);
        // A candidate tied at the bound may still win on row order.
        assert!(!pb.prunes(2.0));
        assert!(pb.prunes(2.0000002));
        assert!(!pb.prunes(1.999));
        assert!(!pb.prunes_f64(2.0));
        assert!(pb.prunes_f64(2.0000002));
    }

    #[test]
    fn range_bound_is_fixed_strict_and_keeps_ties() {
        let hits = Mutex::new(Vec::new());
        let pb = RangeBound { r_sq: 4.0, hits: &hits };
        assert!(!pb.prunes(4.0)); // a tie at the radius must be scored
        assert!(pb.prunes(4.0000005));
        assert!(!pb.prunes_f64(4.0));
        pb.score_and_offer(&[0.0, 0.0], &[2.0, 0.0], 1); // d² == r² exactly
        pb.score_and_offer(&[0.0, 0.0], &[3.0, 0.0], 2); // outside
        pb.score_and_offer(&[0.0, 0.0], &[1.0, 0.0], 3); // inside
        let got = hits.into_inner();
        assert_eq!(got.len(), 2);
        assert!(got.iter().any(|n| n.row == 1 && n.dist_sq == 4.0));
        assert!(got.iter().any(|n| n.row == 3 && n.dist_sq == 1.0));
    }

    #[test]
    fn ip_bound_converts_scores_to_l2_radius() {
        let set = KnnSet::new(1);
        let pb = IpBound { set: &set, n: 4 };
        // Empty set: infinite radius, nothing finite prunes.
        assert_eq!(pb.l2_bound(), f32::INFINITY);
        assert!(!pb.prunes(1e30));
        // Offer a perfectly aligned row: dot = 4, score = 2*4 - 4 = 4.
        let q = [1.0f32, 1.0, 1.0, 1.0];
        pb.score_and_offer(&q, &q, 0);
        assert_eq!(set.bound(), 4.0);
        let radius = pb.l2_bound();
        // score B=4, n=4: radius = 2*(B - n + n*margin) = small positive.
        assert!(radius > 0.0 && radius < 1.0, "radius {radius}");
        assert!(!pb.prunes(radius));
        assert!(pb.prunes(radius * 1.001));
        assert!(!pb.prunes(0.0));
    }
}
