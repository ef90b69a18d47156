//! The exactness gate: brute-force references for a fixed subset of
//! queries, and the checks an index answer must pass against them.
//!
//! References are computed outside every timed region, by a scan of
//! every row's distance and inner product with the same kernels the
//! index scores with, over rows z-normalized as the index stores them.
//! The k-NN references come from it, filtered k-NN by filtering
//! afterwards, the exact range ball and the inner-product top-k. An index
//! answer must equal its reference bit for bit: the same rows, in the
//! same order (by distance, ties by row), with the same distance bits. A
//! near-tie answered with the wrong row fails.
//!
//! The one comparison with a tolerance is the cross-check against
//! `FlatL2`, whose norm expansion rounds differently.

use sofa_index::Neighbor;
use sofa_summaries::ip_score;

/// Distance and inner product of every row to each gate query (all
/// z-normalized).
pub struct Scan {
    /// `dist[q][row]`, as the index's early-abandoning kernel computes it
    /// when it does not abandon.
    pub dist: Vec<Vec<f32>>,
    /// `ip[q][row]`.
    pub ip: Vec<Vec<f32>>,
}

impl Scan {
    /// Scans `rows` (raw, row-major, `len` values each) against the
    /// z-normalized `queries`, the queries split across `threads` threads.
    /// The first `built` rows are z-normalized twice, as the set-up and
    /// then the index build normalize them, and the rest once, as
    /// `insert` normalizes a row: z-normalization is only approximately
    /// idempotent, and the gate compares bits.
    #[must_use]
    pub fn new(
        rows: &[f32],
        len: usize,
        built: usize,
        queries: &[Vec<f32>],
        threads: usize,
    ) -> Self {
        let n_rows = rows.len() / len;
        let mut dist = vec![vec![0.0f32; n_rows]; queries.len()];
        let mut ip = vec![vec![0.0f32; n_rows]; queries.len()];
        let threads = threads.clamp(1, queries.len().max(1));
        let mut work: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, (q, (d, p))) in queries.iter().zip(dist.iter_mut().zip(ip.iter_mut())).enumerate() {
            work[i % threads].push((q, d, p));
        }
        std::thread::scope(|s| {
            for mut mine in work {
                s.spawn(move || {
                    let mut z = vec![0.0f32; len];
                    for (r, row) in rows.chunks(len).enumerate() {
                        z.copy_from_slice(row);
                        sofa_simd::znormalize(&mut z);
                        if r < built {
                            sofa_simd::znormalize(&mut z);
                        }
                        for (q, d, p) in &mut mine {
                            d[r] = sofa_simd::euclidean_sq_early_abandon(q, &z, f32::INFINITY);
                            p[r] = sofa_simd::dot(q, &z);
                        }
                    }
                });
            }
        });
        Self { dist, ip }
    }
}

/// The `k` rows among the first `n_rows` that `admit` accepts, ordered by
/// `score` and then by row, as the index's result sets order them.
fn top_k_by(
    n_rows: usize,
    k: usize,
    admit: impl Fn(usize) -> bool,
    score: impl Fn(usize) -> f32,
) -> Vec<Neighbor> {
    let mut all: Vec<Neighbor> = (0..n_rows)
        .filter(|&r| admit(r))
        .map(|r| Neighbor { row: r as u32, dist_sq: score(r) })
        .collect();
    let k = k.min(all.len());
    if k < all.len() {
        all.select_nth_unstable(k);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

/// The k-NN (or, with `admit`, filtered k-NN) reference over the first
/// `n_rows` rows.
#[must_use]
pub fn top_k(
    dist: &[f32],
    n_rows: usize,
    k: usize,
    admit: impl Fn(usize) -> bool,
) -> Vec<Neighbor> {
    top_k_by(n_rows, k, admit, |r| dist[r])
}

/// The range reference: every row among the first `n_rows` whose distance
/// is at most `r_sq`, nearest first.
#[must_use]
pub fn ball(dist: &[f32], n_rows: usize, r_sq: f32) -> Vec<Neighbor> {
    let mut inside: Vec<Neighbor> = (0..n_rows)
        .filter(|&r| dist[r] <= r_sq)
        .map(|r| Neighbor { row: r as u32, dist_sq: dist[r] })
        .collect();
    inside.sort_unstable();
    inside
}

/// The inner-product reference over the first `n_rows` rows of length
/// `len`, as the index ranks it: by the score `2·len − ip` it minimizes,
/// ties by row. Each entry carries its score.
#[must_use]
pub fn top_k_ip(ip: &[f32], n_rows: usize, len: usize, k: usize) -> Vec<Neighbor> {
    top_k_by(n_rows, k, |_| true, |r| ip_score(len, ip[r]))
}

/// Bitwise equality of two answers: same rows, same distance bits.
#[must_use]
pub fn identical(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.row == y.row && x.dist_sq.to_bits() == y.dist_sq.to_bits())
}

/// An inner-product answer `(row, ip)` has the reference's rows in its
/// order, each with the scan's inner product to the bit.
#[must_use]
pub fn ip_identical(answer: &[(u32, f32)], reference: &[Neighbor], ip: &[f32]) -> bool {
    answer.len() == reference.len()
        && answer
            .iter()
            .zip(reference)
            .all(|(&(row, v), r)| row == r.row && v.to_bits() == ip[row as usize].to_bits())
}

/// A k-NN answer agrees with `FlatL2`'s within rounding: its i-th
/// distance is the baseline's i-th, to a relative 2e-3 (the baseline's
/// norm expansion rounds differently, so rows that tie within that may
/// swap).
#[must_use]
pub fn close_to_flat(answer: &[Neighbor], flat: &[Neighbor]) -> bool {
    answer.len() == flat.len()
        && answer
            .iter()
            .zip(flat)
            .all(|(a, f)| (a.dist_sq - f.dist_sq).abs() <= 2e-3 * f.dist_sq.abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nb(row: u32, dist_sq: f32) -> Neighbor {
        Neighbor { row, dist_sq }
    }

    #[test]
    fn references_order_by_distance_then_row() {
        let dist = [5.0, 1.0, 3.0, 2.0, 9.0, 2.0];
        assert_eq!(top_k(&dist, 6, 3, |_| true), vec![nb(1, 1.0), nb(3, 2.0), nb(5, 2.0)]);
        assert_eq!(top_k(&dist, 6, 3, |r| r != 3), vec![nb(1, 1.0), nb(5, 2.0), nb(2, 3.0)]);
        // Rows beyond the first n_rows do not exist yet.
        assert_eq!(top_k(&dist, 2, 3, |_| true), vec![nb(1, 1.0), nb(0, 5.0)]);
        // The ball keeps a row exactly on the radius.
        assert_eq!(ball(&dist, 6, 3.0), vec![nb(1, 1.0), nb(3, 2.0), nb(5, 2.0), nb(2, 3.0)]);
        let ip = [0.5, 3.0, -1.0, 2.0];
        let want: Vec<u32> = top_k_ip(&ip, 4, 4, 2).iter().map(|n| n.row).collect();
        assert_eq!(want, [1, 3]);
    }

    #[test]
    fn gate_rejects_a_near_tie_answered_with_the_wrong_row() {
        // Row 3 is the true 2nd neighbor; row 4 lies 0.01% farther.
        let dist = [5.0, 1.0, 3.0, 2.0, 2.0002];
        let reference = top_k(&dist, 5, 2, |_| true);
        assert!(identical(&reference, &[nb(1, 1.0), nb(3, 2.0)]));
        assert!(!identical(&reference, &[nb(1, 1.0), nb(4, 2.0002)]));
        // The true row, one ulp off its distance.
        assert!(!identical(&reference, &[nb(1, 1.0), nb(3, f32::from_bits(2.0f32.to_bits() + 1))]));
        // A ball missing a row just inside its radius.
        assert!(!identical(&ball(&dist, 5, 2.0001), &[nb(1, 1.0)]));
        // FlatL2 tolerates the near-tie, and nothing farther.
        assert!(close_to_flat(&[nb(1, 1.0), nb(4, 2.0002)], &reference));
        assert!(!close_to_flat(&[nb(1, 1.0), nb(2, 3.0)], &reference));
    }

    #[test]
    fn ip_answers_must_carry_the_scanned_products() {
        let ip = [0.5, 3.0, -1.0, 2.0];
        let reference = top_k_ip(&ip, 4, 4, 2);
        assert!(ip_identical(&[(1, 3.0), (3, 2.0)], &reference, &ip));
        assert!(!ip_identical(&[(1, 3.0), (0, 0.5)], &reference, &ip));
        assert!(!ip_identical(&[(1, 3.0), (3, 2.000_001)], &reference, &ip));
    }

    #[test]
    fn scan_normalizes_rows_as_the_index_stores_them() {
        let len = 8;
        let rows: Vec<f32> = (0..5 * len).map(|i| ((i * 7) % 11) as f32 + 0.1).collect();
        let mut q: Vec<f32> = (0..len).map(|i| i as f32).collect();
        sofa_simd::znormalize(&mut q);
        let scan = Scan::new(&rows, len, 3, std::slice::from_ref(&q), 2);
        for r in 0..5 {
            let mut z = rows[r * len..(r + 1) * len].to_vec();
            for _ in 0..if r < 3 { 2 } else { 1 } {
                sofa_simd::znormalize(&mut z);
            }
            let d = sofa_simd::euclidean_sq_early_abandon(&q, &z, f32::INFINITY);
            assert_eq!(scan.dist[0][r].to_bits(), d.to_bits());
            assert_eq!(scan.ip[0][r].to_bits(), sofa_simd::dot(&q, &z).to_bits());
        }
    }
}
