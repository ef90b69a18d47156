//! The 17-dataset benchmark registry (paper Table I).
//!
//! Each entry names one of the paper's datasets and carries the synthetic
//! generator profile that stands in for it (see crate docs and DESIGN.md §2
//! for why the substitution preserves the relevant behaviour). Counts are
//! the paper's, scaled down by [`DatasetSpec::scaled_count`] to fit
//! laptop-scale runs; series lengths are the paper's exactly.
//!
//! The `expected_speedup_rank` field records the ordering of Figure 12
//! (relative SOFA-vs-MESSI query time, ascending — rank 0 = LenDB, the
//! 38x case), which the `fig12`/`fig13` reproductions compare against.

use crate::gen::{Generator, SignalKind};
use crate::workload::Dataset;

/// Spectral character of a dataset, as discussed in §V-D of the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FrequencyProfile {
    /// Energy concentrated near Nyquist; PAA flat-lines (LenDB, SCEDC...).
    High,
    /// Energy spread across the band (OBS, Iquique...).
    Mixed,
    /// Energy concentrated in the lowest coefficients (SALD, Deep1B...).
    Low,
}

/// One benchmark dataset: the paper's metadata plus our generator profile.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as in Table I.
    pub name: &'static str,
    /// Number of series in the paper's benchmark.
    pub paper_count: u64,
    /// Series length (paper's, kept exactly).
    pub series_len: usize,
    /// Spectral profile class.
    pub profile: FrequencyProfile,
    /// Generator standing in for the real data.
    pub kind: SignalKind,
    /// Position in Figure 12's ascending relative-time ordering
    /// (0 = largest SOFA speedup).
    pub expected_speedup_rank: usize,
    /// Instance noise relative to prototype scale: how far apart members
    /// of the same cluster sit. Descriptor collections are tightly
    /// clustered (near-duplicate patches), seismic archives less so.
    pub instance_noise: f32,
    /// Root-key concentration (see [`Generator::concentration`]): the
    /// probability that an instance comes from the hierarchically
    /// clustered prototype *family* (a binary cluster tree over the base
    /// prototype) instead of a uniform pool pick. `0` (every registry
    /// default) keeps the historical wide-forest workloads
    /// byte-identical; deep-tree profiles raise it via
    /// [`DatasetSpec::with_concentration`] so a few deep, separably
    /// branched subtrees dominate at bench scale.
    pub concentration: f32,
    /// Deterministic per-dataset seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Returns this spec with the given root-key concentration — the
    /// deep-tree variant of the dataset (used by the deep-tree exactness
    /// suite).
    #[must_use]
    pub fn with_concentration(mut self, concentration: f32) -> Self {
        self.concentration = concentration.clamp(0.0, 1.0);
        self
    }

    /// Scales the paper's series count by `1/divisor`, clamped to
    /// `[min_count, paper_count]`.
    #[must_use]
    pub fn scaled_count(&self, divisor: u64, min_count: usize) -> usize {
        ((self.paper_count / divisor.max(1)) as usize).max(min_count)
    }

    /// Materializes the dataset: `count` indexed series plus `n_queries`
    /// hold-out query series.
    ///
    /// Data and queries share the prototype pool (the archive's cluster
    /// structure) but use different instance streams, so every query has
    /// close — but never identical — matches among the indexed series.
    /// Seismic queries follow the paper's protocol of windows anchored at
    /// the P-wave onset: our generator always places an event in the
    /// window, so every generated series qualifies.
    #[must_use]
    pub fn generate(&self, count: usize, n_queries: usize) -> Dataset {
        // Prototype-pool size grows with the dataset so clusters have
        // roughly constant occupancy.
        let prototypes = (count / 16).clamp(8, 256);
        let noise = self.instance_noise;
        let mut g = Generator::with_options(
            self.kind.clone(),
            self.series_len,
            self.seed,
            0,
            prototypes,
            noise,
        )
        .concentration(self.concentration);
        let data = g.generate_flat(count);
        let mut qg = Generator::with_options(
            self.kind.clone(),
            self.series_len,
            self.seed,
            1,
            prototypes,
            noise,
        )
        .concentration(self.concentration);
        let queries = qg.generate_flat(n_queries);
        Dataset::new(self.name.to_string(), self.series_len, data, queries)
    }
}

/// The 17 datasets of Table I with generator profiles matching the
/// frequency ordering the paper reports in Figures 12/13.
#[must_use]
pub fn registry() -> Vec<DatasetSpec> {
    use FrequencyProfile::{High, Low, Mixed};
    use SignalKind::{
        Broadband, Descriptor, Embedding, LightCurve, RandomWalk, Seismic, SmoothOscillation,
    };
    let specs = [
        // name, paper_count, len, profile, kind, fig12 rank, instance noise
        ("LenDB", 37_345_260, 256, High, Broadband { hf: 0.95 }, 0, 0.25),
        ("SCEDC", 100_000_000, 256, High, Broadband { hf: 0.90 }, 1, 0.25),
        ("Meier2019JGR", 6_361_998, 256, High, Broadband { hf: 0.85 }, 2, 0.25),
        ("SIFT1b", 100_000_000, 128, High, Descriptor { spike_prob: 0.10 }, 3, 0.30),
        ("OBS", 15_508_794, 256, Mixed, Seismic { hf: 0.75, snr: 3.0 }, 4, 0.25),
        ("BigANN", 100_000_000, 100, High, Descriptor { spike_prob: 0.07 }, 5, 0.30),
        ("Iquique", 578_853, 256, Mixed, Seismic { hf: 0.55, snr: 5.0 }, 6, 0.25),
        ("Astro", 100_000_000, 256, Low, LightCurve, 7, 0.2),
        ("OBST2024", 4_160_286, 256, Mixed, Seismic { hf: 0.50, snr: 4.0 }, 8, 0.25),
        ("NEIC", 93_473_541, 256, Mixed, Seismic { hf: 0.45, snr: 5.0 }, 9, 0.25),
        ("STEAD", 87_323_433, 256, Mixed, Seismic { hf: 0.40, snr: 6.0 }, 10, 0.25),
        ("ETHZ", 4_999_932, 256, Mixed, Seismic { hf: 0.38, snr: 5.0 }, 11, 0.25),
        ("TXED", 35_851_641, 256, Mixed, Seismic { hf: 0.32, snr: 5.0 }, 12, 0.25),
        ("PNW", 31_982_766, 256, Mixed, Seismic { hf: 0.30, snr: 6.0 }, 13, 0.25),
        ("ISC_EHB_DepthPhases", 100_000_000, 256, Low, Seismic { hf: 0.22, snr: 6.0 }, 14, 0.25),
        ("SALD", 100_000_000, 128, Low, SmoothOscillation, 15, 0.2),
        ("Deep1b", 100_000_000, 96, Low, Embedding { correlation: 0.9 }, 16, 0.15),
    ];
    let _ = RandomWalk; // imported for doc symmetry; used by ucr families
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (name, paper_count, series_len, profile, kind, rank, instance_noise))| {
            DatasetSpec {
                name,
                paper_count,
                series_len,
                profile,
                kind,
                expected_speedup_rank: rank,
                instance_noise,
                concentration: 0.0,
                seed: 0x50FA_0000 + i as u64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_17_datasets_totalling_a_billion() {
        let r = registry();
        assert_eq!(r.len(), 17);
        let total: u64 = r.iter().map(|d| d.paper_count).sum();
        assert_eq!(total, 1_017_586_504, "paper reports 1,017,586,504 series");
    }

    #[test]
    fn lengths_match_table_one() {
        let r = registry();
        let by_name = |n: &str| r.iter().find(|d| d.name == n).unwrap();
        assert_eq!(by_name("Astro").series_len, 256);
        assert_eq!(by_name("BigANN").series_len, 100);
        assert_eq!(by_name("Deep1b").series_len, 96);
        assert_eq!(by_name("SALD").series_len, 128);
        assert_eq!(by_name("SIFT1b").series_len, 128);
        assert_eq!(by_name("LenDB").series_len, 256);
    }

    #[test]
    fn speedup_ranks_are_a_permutation() {
        let r = registry();
        let mut ranks: Vec<usize> = r.iter().map(|d| d.expected_speedup_rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn scaled_count_clamps() {
        let r = registry();
        let iquique = r.iter().find(|d| d.name == "Iquique").unwrap();
        assert_eq!(iquique.scaled_count(1_000_000, 500), 500);
        assert_eq!(iquique.scaled_count(1, 0), 578_853);
    }

    #[test]
    fn generate_produces_requested_shape() {
        let r = registry();
        let d = r[0].generate(100, 5);
        assert_eq!(d.n_series(), 100);
        assert_eq!(d.n_queries(), 5);
        assert_eq!(d.series_len(), 256);
    }

    #[test]
    fn generation_is_deterministic_per_spec() {
        let r = registry();
        let a = r[3].generate(20, 2);
        let b = r[3].generate(20, 2);
        assert_eq!(a.data(), b.data());
        assert_eq!(a.queries(), b.queries());
    }

    #[test]
    fn concentration_variant_keeps_shape_and_changes_stream() {
        let r = registry();
        let base = r[0].generate(60, 4);
        let deep = r[0].clone().with_concentration(0.97).generate(60, 4);
        assert_eq!(deep.n_series(), 60);
        assert_eq!(deep.series_len(), base.series_len());
        assert_ne!(base.data(), deep.data(), "concentration must reshape the stream");
        // Clamping.
        assert_eq!(r[0].clone().with_concentration(7.0).concentration, 1.0);
    }

    #[test]
    fn queries_are_disjoint_from_data() {
        let r = registry();
        let d = r[0].generate(50, 5);
        for q in 0..d.n_queries() {
            for i in 0..d.n_series() {
                assert_ne!(d.query(q), d.series(i), "query {q} equals series {i}");
            }
        }
    }

    #[test]
    fn high_profile_datasets_use_hf_generators() {
        for spec in registry() {
            if let SignalKind::Broadband { hf } = spec.kind {
                assert!(hf >= 0.8, "{}: broadband hf={hf}", spec.name);
                assert_eq!(spec.profile, FrequencyProfile::High);
            }
        }
    }
}
