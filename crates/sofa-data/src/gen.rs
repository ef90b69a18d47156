//! Signal generators.
//!
//! Each generator produces series whose *spectral profile* mimics one of
//! the paper's dataset families. The decisive knob is how much energy sits
//! in high frequencies: SAX's PAA front end low-pass-filters every series,
//! so high-frequency energy is exactly what it loses and what SFA's
//! variance-based coefficient selection retains (paper §IV-E2, Figure 1).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Normal(0,1) sample via Box–Muller (keeps `rand_distr` out of the
/// dependency tree).
pub(crate) fn gauss(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::EPSILON {
            continue;
        }
        let u2: f64 = rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        return (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
    }
}

/// The family of shapes a generator can produce.
#[derive(Clone, Debug, PartialEq)]
pub enum SignalKind {
    /// Seismic event trace: colored background noise, then a P-wave onset
    /// and a stronger S-wave burst, both band-limited wave packets with
    /// exponential decay. `hf` in `[0,1]` sets the carrier band (0 = slow
    /// ringing, 1 = near-Nyquist bursts); `snr` scales the event relative
    /// to the noise floor.
    Seismic {
        /// Fraction of Nyquist where the event's carrier sits.
        hf: f32,
        /// Event-to-noise amplitude ratio.
        snr: f32,
    },
    /// Broadband noise whose power ramps toward high frequencies
    /// (LenDB/SCEDC-like continuous recordings where PAA flat-lines).
    /// `hf` sets the fraction of total energy above half-Nyquist.
    Broadband {
        /// High-frequency energy fraction in `[0,1]`.
        hf: f32,
    },
    /// Random walk (integrated white noise): the classic smooth,
    /// low-frequency data-series shape where SAX is competitive.
    RandomWalk,
    /// Slow drift plus occasional flares with exponential decay — AGN
    /// X-ray light curves (Astro) and similar burst-on-trend signals.
    LightCurve,
    /// Smooth low-frequency oscillation mixture with mild noise — fMRI
    /// BOLD-like (SALD).
    SmoothOscillation,
    /// Non-negative, spiky, *unordered* descriptor vectors
    /// (SIFT/BigANN-like gradient histograms). Adjacent values are nearly
    /// independent, so in "series" reading order the spectrum is flat-to-
    /// high — the vector-data regime the paper discusses in §III.
    Descriptor {
        /// Sparsity: probability that a position holds a large spike.
        spike_prob: f32,
    },
    /// Dense near-Gaussian embedding vectors with strong neighbor
    /// correlation (Deep1B-like): behaves like a *low*-frequency series.
    Embedding {
        /// Neighbor correlation in `[0,1)`; higher = smoother.
        correlation: f32,
    },
}

/// A seeded generator of fixed-length series with **prototype structure**.
///
/// Real archives are clustered: events from one seismic source, descriptors
/// of one visual word, light curves of one object class all resemble each
/// other. That cluster structure is what makes GEMINI pruning effective —
/// a query has genuinely close neighbors, so the best-so-far distance drops
/// far below the typical pairwise distance and lower bounds can prune.
/// The generator therefore draws a pool of *prototype* series first (seeded
/// independently of the instance stream) and emits instances as
/// `prototype + instance_noise * sigma(prototype) * N(0,1)`. Query
/// generators share the prototype pool (same `seed`) but use a different
/// `stream`, giving hold-out queries with close-but-not-identical matches —
/// the paper's workload shape.
#[derive(Debug)]
pub struct Generator {
    kind: SignalKind,
    series_len: usize,
    protos: Vec<Vec<f32>>,
    /// Pre-computed per-prototype noise scale (`instance_noise * std`).
    noise_scales: Vec<f32>,
    /// Probability that an instance is drawn from the blended prototype
    /// *family* instead of a uniform pick — the root-key concentration
    /// knob ([`Generator::concentration`]).
    concentration: f32,
    /// The hierarchically clustered family (empty at concentration 0);
    /// kept separate from `protos` so the pristine pool survives knob
    /// changes.
    family: Vec<Vec<f32>>,
    /// Per-family-member noise scale (parallel with `family`).
    family_noise_scales: Vec<f32>,
    /// Instance-noise fraction (kept so `concentration` can rescale the
    /// family members' noise after blending).
    instance_noise: f32,
    rng: StdRng,
}

/// Default number of prototypes per dataset.
pub const DEFAULT_PROTOTYPES: usize = 64;

/// Default instance-noise fraction (relative to prototype standard
/// deviation).
pub const DEFAULT_INSTANCE_NOISE: f32 = 0.25;

/// Number of sub-prototypes in the concentrated family (see
/// [`Generator::concentration`]): one leaf per branch of a
/// [`FAMILY_DEPTH`]-deep binary perturbation hierarchy.
pub const FAMILY_SIZE: usize = 1 << FAMILY_DEPTH;

/// Depth of the family's binary perturbation hierarchy.
pub const FAMILY_DEPTH: usize = 4;

/// Perturbation amplitude of the hierarchy's top split, relative to the
/// base prototype; each deeper split halves-ish it ([`FAMILY_DECAY`]).
const FAMILY_SCALE: f32 = 0.30;

/// Per-level decay of the perturbation amplitude.
const FAMILY_DECAY: f32 = 0.62;

impl Generator {
    /// Creates a generator with the default prototype pool (stream 0).
    #[must_use]
    pub fn new(kind: SignalKind, series_len: usize, seed: u64) -> Self {
        Self::with_options(kind, series_len, seed, 0, DEFAULT_PROTOTYPES, DEFAULT_INSTANCE_NOISE)
    }

    /// Full-control constructor. Generators with the same
    /// `(kind, series_len, seed, prototypes)` share an identical prototype
    /// pool; `stream` seeds the instance randomness, so a query stream
    /// (`stream = 1`) produces hold-out series that are near — but never
    /// equal to — the data stream's (`stream = 0`).
    #[must_use]
    pub fn with_options(
        kind: SignalKind,
        series_len: usize,
        seed: u64,
        stream: u64,
        prototypes: usize,
        instance_noise: f32,
    ) -> Self {
        let mut proto_rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f32>> = (0..prototypes.max(1))
            .map(|_| sample_prototype(&kind, series_len, &mut proto_rng))
            .collect();
        let noise_scales = protos
            .iter()
            .map(|p| {
                let mean = p.iter().sum::<f32>() / p.len().max(1) as f32;
                let var =
                    p.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / p.len().max(1) as f32;
                instance_noise * var.sqrt().max(1e-3)
            })
            .collect();
        let rng =
            StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15 ^ stream.wrapping_mul(0xA5A5_A5A5));
        Generator {
            kind,
            series_len,
            protos,
            noise_scales,
            concentration: 0.0,
            family: Vec::new(),
            family_noise_scales: Vec::new(),
            instance_noise,
            rng,
        }
    }

    /// Sets the **root-key concentration**: the probability (clamped to
    /// `[0, 1]`) that an instance is emitted from the concentrated
    /// *prototype family* instead of a uniform prototype pick.
    ///
    /// At `0` (the default) every prototype is equally likely — the
    /// wide-forest regime where the index's root fan-out does the
    /// pruning. Above `0`, a [`FAMILY_SIZE`]-member **hierarchically
    /// clustered family** is derived beside the (untouched) pool: every
    /// member is the base prototype plus a chain of [`FAMILY_DEPTH`]
    /// shared perturbations of geometrically decaying amplitude, one per
    /// branch bit — a binary cluster tree, the fractal shape real archives have
    /// (event families within a seismic source, visual words within a
    /// descriptor space). Members share the base's coarse shape (hence
    /// mostly its summarization root key), so the index grows **deep
    /// subtrees**, and because siblings separate at *every* scale, a
    /// query near one member is far from the other branch at each level
    /// — the regime where hierarchy-aware collect pruning retires whole
    /// leaf ranges per pruned ancestor. A flat single-cluster
    /// concentration would instead produce a deep tree of near-ties that
    /// *nothing* can prune. Queries generated with the same concentration
    /// probe those sub-clusters.
    #[must_use]
    pub fn concentration(mut self, concentration: f32) -> Self {
        self.concentration = concentration.clamp(0.0, 1.0);
        self.rebuild_family();
        self
    }

    /// Re-derives the concentrated family from the pristine pool for the
    /// current concentration knob.
    ///
    /// The family lives next to the pool rather than overwriting its head,
    /// so the pristine prototypes survive: setting the knob back to its
    /// default (or calling the builder repeatedly) always re-derives from
    /// — and samples — the original pool. No RNG state is consumed here,
    /// which keeps knob changes from perturbing the instance stream.
    fn rebuild_family(&mut self) {
        self.family.clear();
        self.family_noise_scales.clear();
        if self.concentration > 0.0 && self.protos.len() > 1 {
            // Build the family as a binary cluster tree over the base
            // prototype. Perturbation directions are taken
            // deterministically from the tail of the already-seeded pool
            // (one per (level, branch-prefix)), so no extra RNG state is
            // introduced.
            let base = &self.protos[0];
            let dir = |k: usize, prefix: usize| -> &Vec<f32> {
                // Unique pool index per tree node: 2^k + prefix walks
                // level k's nodes; wrap within the pool tail.
                let idx = ((1 << k) + prefix) % (self.protos.len() - 1).max(1) + 1;
                &self.protos[idx]
            };
            for j in 0..FAMILY_SIZE {
                let mut member = base.clone();
                let mut scale = FAMILY_SCALE;
                for k in 0..FAMILY_DEPTH {
                    let prefix = j >> (FAMILY_DEPTH - 1 - k);
                    apply_family_delta(&mut member, base, dir(k, prefix), scale);
                    scale *= FAMILY_DECAY;
                }
                self.family.push(member);
            }
            for proto in &self.family {
                let mean = proto.iter().sum::<f32>() / proto.len().max(1) as f32;
                let var = proto.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>()
                    / proto.len().max(1) as f32;
                self.family_noise_scales.push(self.instance_noise * var.sqrt().max(1e-3));
            }
        }
    }

    /// Series length.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Number of prototypes in the pool.
    #[must_use]
    pub fn prototypes(&self) -> usize {
        self.protos.len()
    }

    /// Generates the next series (raw, not z-normalized).
    #[must_use]
    pub fn next_series(&mut self) -> Vec<f32> {
        // The extra RNG draws only happen when the knob is set, so every
        // pre-existing dataset stays byte-identical at concentration 0.
        let (proto, scale) =
            if !self.family.is_empty() && self.rng.random::<f32>() < self.concentration {
                let p = self.rng.random_range(0..self.family.len());
                (&self.family[p], self.family_noise_scales[p])
            } else {
                let p = self.rng.random_range(0..self.protos.len());
                (&self.protos[p], self.noise_scales[p])
            };
        let non_negative = matches!(self.kind, SignalKind::Descriptor { .. });
        let mut out = Vec::with_capacity(self.series_len);
        for &x in proto {
            let v = x + scale * gauss(&mut self.rng);
            out.push(if non_negative { v.max(0.0) } else { v });
        }
        out
    }

    /// Generates `count` series into one row-major flat buffer.
    #[must_use]
    pub fn generate_flat(&mut self, count: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(count * self.series_len);
        for _ in 0..count {
            let s = self.next_series();
            out.extend_from_slice(&s);
        }
        out
    }
}

/// Adds one scaled perturbation delta `scale * (dir - base)` to `member`.
fn apply_family_delta(member: &mut [f32], base: &[f32], dir: &[f32], scale: f32) {
    for ((x, &b), &d) in member.iter_mut().zip(base).zip(dir) {
        *x += scale * (d - b);
    }
}

/// Draws one prototype series of the given kind.
fn sample_prototype(kind: &SignalKind, n: usize, rng: &mut StdRng) -> Vec<f32> {
    match kind {
        SignalKind::Seismic { hf, snr } => seismic(rng, n, *hf, *snr),
        SignalKind::Broadband { hf } => broadband(rng, n, *hf),
        SignalKind::RandomWalk => random_walk(rng, n),
        SignalKind::LightCurve => light_curve(rng, n),
        SignalKind::SmoothOscillation => smooth_oscillation(rng, n),
        SignalKind::Descriptor { spike_prob } => descriptor(rng, n, *spike_prob),
        SignalKind::Embedding { correlation } => embedding(rng, n, *correlation),
    }
}

/// Band-limited wave packet: carrier at `freq` (cycles per series) with a
/// raised-cosine-attacked, exponentially decaying envelope starting at
/// `onset`.
#[allow(clippy::needless_range_loop)] // t participates in the phase computation
fn wave_packet(n: usize, onset: usize, freq: f32, amp: f32, decay: f32, phase: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    for t in onset..n {
        let dt = (t - onset) as f32;
        let attack = (dt / 4.0).min(1.0);
        let env = amp * attack * (-decay * dt).exp();
        let arg = 2.0 * std::f32::consts::PI * freq * t as f32 / n as f32 + phase;
        out[t] = env * arg.sin();
    }
    out
}

fn seismic(rng: &mut StdRng, n: usize, hf: f32, snr: f32) -> Vec<f32> {
    // AR(1) background noise, mildly colored.
    let mut s = vec![0.0f32; n];
    let rho = 0.6;
    let mut prev = 0.0f32;
    for x in s.iter_mut() {
        prev = rho * prev + gauss(rng);
        *x = prev * 0.3;
    }
    // P-wave onset in the first third, S-wave after it (stronger, slightly
    // lower carrier — as in real seismograms the S phase carries more
    // energy at lower frequency).
    //
    // Carrier placement: "high frequency" in the paper's sense means beyond
    // the resolution of a 16-segment PAA (DFT coefficient ~8 of n/2) but
    // within SFA's candidate pool (the first ~32 coefficients, Figure 13).
    // `hf` sweeps the carrier across 2..28 cycles per window accordingly.
    let carrier = 2.0 + 26.0 * hf + rng.random_range(-1.0f32..1.0);
    let p_onset = n / 6 + rng.random_range(0..n / 6);
    let s_onset = p_onset + n / 8 + rng.random_range(0..n / 8);
    let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
    let p = wave_packet(n, p_onset, carrier, snr * 0.6, 8.0 / n as f32, phase);
    let sw = wave_packet(n, s_onset.min(n - 1), carrier * 0.7, snr, 5.0 / n as f32, phase + 1.1);
    for t in 0..n {
        s[t] += p[t] + sw[t];
    }
    s
}

fn broadband(rng: &mut StdRng, n: usize, hf: f32) -> Vec<f32> {
    // Sum of random-phase tones clustered around a band center set by
    // `hf`, plus white noise. With `hf` near 1 the band sits well beyond
    // the resolution of a 16-segment PAA (coefficient ~8) — the Figure 1
    // "flat line" regime — while staying inside SFA's candidate pool
    // (first ~32 coefficients), like the paper's high-frequency seismic
    // recordings (Figure 13's selected indices top out near 32).
    let tones = 12;
    let nyq = (n / 2) as f32;
    let center = 2.0 + 26.0 * hf;
    let spread = 5.0;
    let mut s = vec![0.0f32; n];
    for _ in 0..tones {
        let k = (center + spread * gauss(rng)).clamp(1.0, (nyq - 1.0).min(31.0));
        let amp = 0.4 + 0.6 * rng.random::<f32>();
        let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        for (t, x) in s.iter_mut().enumerate() {
            *x += amp * (2.0 * std::f32::consts::PI * k * t as f32 / n as f32 + phase).sin();
        }
    }
    for x in s.iter_mut() {
        *x += 0.2 * gauss(rng);
    }
    s
}

fn random_walk(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let mut s = Vec::with_capacity(n);
    let mut acc = 0.0f32;
    for _ in 0..n {
        acc += gauss(rng);
        s.push(acc);
    }
    s
}

#[allow(clippy::needless_range_loop)] // flare loops index from a random onset
fn light_curve(rng: &mut StdRng, n: usize) -> Vec<f32> {
    // Slow sinusoidal drift + red noise + a few one-sided flares. The red
    // noise carries a continuous 1/f^2 spectral floor, as AGN X-ray
    // variability does (the paper's Astro source is a hard-X-ray AGN
    // variability study) — without it the spectrum would be a few delta
    // tones no summarization could generalize from.
    let mut s = vec![0.0f32; n];
    let drift_freq: f32 = rng.random_range(0.5..2.5);
    let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
    let mut red = 0.0f32;
    for (t, x) in s.iter_mut().enumerate() {
        red = 0.93 * red + 0.3 * gauss(rng);
        *x = (2.0 * std::f32::consts::PI * drift_freq * t as f32 / n as f32 + phase).sin() + red;
    }
    let flares = rng.random_range(0..3);
    for _ in 0..flares {
        let onset = rng.random_range(0..n);
        let amp = 1.0 + 2.0 * rng.random::<f32>();
        let decay: f32 = rng.random_range(0.05..0.3);
        for t in onset..n {
            s[t] += amp * (-decay * (t - onset) as f32).exp();
        }
    }
    s
}

fn smooth_oscillation(rng: &mut StdRng, n: usize) -> Vec<f32> {
    // Low-frequency tones over a red-noise background. The red noise gives
    // the spectrum the continuous 1/f^2 floor real BOLD signals have —
    // without it every coefficient outside the few tones would carry pure
    // instance noise, which no summarization could exploit.
    let mut s = vec![0.0f32; n];
    for _ in 0..4 {
        let k: f32 = rng.random_range(0.8..8.0);
        let amp = 0.5 + rng.random::<f32>();
        let phase: f32 = rng.random_range(0.0..std::f32::consts::TAU);
        for (t, x) in s.iter_mut().enumerate() {
            *x += amp * (2.0 * std::f32::consts::PI * k * t as f32 / n as f32 + phase).sin();
        }
    }
    let mut red = 0.0f32;
    for x in s.iter_mut() {
        red = 0.9 * red + 0.25 * gauss(rng);
        *x += red;
    }
    s
}

fn descriptor(rng: &mut StdRng, n: usize, spike_prob: f32) -> Vec<f32> {
    // Non-negative gradient-histogram-like vector: mostly small values,
    // occasional large spikes, no neighbor correlation.
    (0..n)
        .map(|_| {
            let base = rng.random::<f32>().powi(3) * 0.3;
            if rng.random::<f32>() < spike_prob {
                base + 0.5 + rng.random::<f32>()
            } else {
                base
            }
        })
        .collect()
}

fn embedding(rng: &mut StdRng, n: usize, correlation: f32) -> Vec<f32> {
    let mut s = Vec::with_capacity(n);
    let mut prev = gauss(rng);
    s.push(prev);
    let noise_scale = (1.0 - correlation * correlation).sqrt();
    for _ in 1..n {
        prev = correlation * prev + noise_scale * gauss(rng);
        s.push(prev);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum_energy_split(series: &[f32]) -> (f32, f32) {
        // (low, high) energy below/above the resolution of a 16-segment
        // PAA (DFT coefficient 8) — the boundary that matters for the
        // SAX-vs-SFA comparison. DC excluded.
        let n = series.len();
        let mut z = series.to_vec();
        sofa_simd::znormalize(&mut z);
        let mut dft = sofa_fft::RealDft::new(n);
        let spec = dft.transform(&z);
        let split = 8usize;
        let mut low = 0.0;
        let mut high = 0.0;
        for k in 1..=n / 2 {
            let e = spec[2 * k] * spec[2 * k] + spec[2 * k + 1] * spec[2 * k + 1];
            if k <= split {
                low += e;
            } else {
                high += e;
            }
        }
        (low, high)
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Generator::new(SignalKind::RandomWalk, 64, 42);
        let mut b = Generator::new(SignalKind::RandomWalk, 64, 42);
        assert_eq!(a.next_series(), b.next_series());
        assert_eq!(a.next_series(), b.next_series());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Generator::new(SignalKind::RandomWalk, 64, 1);
        let mut b = Generator::new(SignalKind::RandomWalk, 64, 2);
        assert_ne!(a.next_series(), b.next_series());
    }

    #[test]
    fn flat_generation_shape() {
        let mut g = Generator::new(SignalKind::LightCurve, 96, 7);
        let flat = g.generate_flat(10);
        assert_eq!(flat.len(), 960);
    }

    #[test]
    fn broadband_high_hf_skews_energy_high() {
        let mut g = Generator::new(SignalKind::Broadband { hf: 0.95 }, 256, 3);
        let mut high_frac = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let s = g.next_series();
            let (low, high) = spectrum_energy_split(&s);
            high_frac += high / (low + high);
        }
        high_frac /= reps as f32;
        assert!(high_frac > 0.5, "expected HF-dominant spectrum, got {high_frac}");
    }

    #[test]
    fn random_walk_energy_is_low_frequency() {
        let mut g = Generator::new(SignalKind::RandomWalk, 256, 5);
        let mut high_frac = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let s = g.next_series();
            let (low, high) = spectrum_energy_split(&s);
            high_frac += high / (low + high);
        }
        high_frac /= reps as f32;
        // 1/f^2 spectrum plus the flat instance-noise floor: the vast
        // majority of energy stays below PAA resolution.
        assert!(high_frac < 0.2, "random walk should be LF-dominant, got {high_frac}");
    }

    #[test]
    fn seismic_hf_parameter_moves_spectrum() {
        let avg_high = |hf: f32| {
            let mut g = Generator::new(SignalKind::Seismic { hf, snr: 5.0 }, 256, 11);
            let mut frac = 0.0;
            for _ in 0..30 {
                let s = g.next_series();
                let (low, high) = spectrum_energy_split(&s);
                frac += high / (low + high);
            }
            frac / 30.0
        };
        assert!(avg_high(0.9) > avg_high(0.1) + 0.2);
    }

    #[test]
    fn concentration_skews_toward_one_prototype() {
        // At concentration 0.95 nearly all instances orbit prototype 0:
        // their pairwise distances collapse versus the uniform stream.
        let spread = |conc: f32| {
            let mut g = Generator::new(SignalKind::Seismic { hf: 0.6, snr: 5.0 }, 128, 77)
                .concentration(conc);
            let rows: Vec<Vec<f32>> = (0..40)
                .map(|_| {
                    let mut s = g.next_series();
                    sofa_simd::znormalize(&mut s);
                    s
                })
                .collect();
            let mut total = 0.0f64;
            let mut count = 0usize;
            for i in 0..rows.len() {
                for j in i + 1..rows.len() {
                    let d: f32 = rows[i].iter().zip(&rows[j]).map(|(a, b)| (a - b) * (a - b)).sum();
                    total += f64::from(d);
                    count += 1;
                }
            }
            total / count as f64
        };
        assert!(spread(0.95) < spread(0.0) * 0.7, "concentration must tighten the cluster");
    }

    #[test]
    fn zero_concentration_is_byte_identical_to_default() {
        let mut a = Generator::new(SignalKind::RandomWalk, 64, 5);
        let mut b = Generator::new(SignalKind::RandomWalk, 64, 5).concentration(0.0);
        assert_eq!(a.generate_flat(10), b.generate_flat(10));
    }

    #[test]
    fn resetting_concentration_restores_the_pristine_pool() {
        // The family lives beside the pool, so turning the knob on and
        // back off must reproduce the default stream exactly (the pool is
        // never mutated).
        let mut a = Generator::new(SignalKind::RandomWalk, 64, 5);
        let mut b =
            Generator::new(SignalKind::RandomWalk, 64, 5).concentration(0.9).concentration(0.0);
        assert_eq!(a.generate_flat(10), b.generate_flat(10));
        // Re-applying the knob is idempotent, not compounding.
        let mut c = Generator::new(SignalKind::RandomWalk, 64, 5).concentration(0.9);
        let mut d =
            Generator::new(SignalKind::RandomWalk, 64, 5).concentration(0.3).concentration(0.9);
        assert_eq!(c.generate_flat(10), d.generate_flat(10));
    }

    #[test]
    fn descriptor_values_non_negative() {
        let mut g = Generator::new(SignalKind::Descriptor { spike_prob: 0.1 }, 128, 9);
        for _ in 0..10 {
            assert!(g.next_series().iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn embedding_correlation_smooths() {
        let roughness = |corr: f32| {
            let mut g = Generator::new(SignalKind::Embedding { correlation: corr }, 128, 13);
            let mut total = 0.0f32;
            for _ in 0..20 {
                let mut s = g.next_series();
                sofa_simd::znormalize(&mut s);
                total += s.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f32>();
            }
            total
        };
        assert!(roughness(0.95) < roughness(0.1) * 0.7);
    }

    #[test]
    fn seismic_has_event_burst() {
        // Event amplitude should exceed the pre-onset noise floor.
        let mut g = Generator::new(SignalKind::Seismic { hf: 0.5, snr: 8.0 }, 256, 17);
        let mut wins = 0;
        for _ in 0..20 {
            let s = g.next_series();
            let head_max = s[..32].iter().map(|x| x.abs()).fold(0.0f32, f32::max);
            let body_max = s[64..].iter().map(|x| x.abs()).fold(0.0f32, f32::max);
            if body_max > head_max * 1.5 {
                wins += 1;
            }
        }
        assert!(wins >= 15, "event bursts too weak: {wins}/20");
    }
}
