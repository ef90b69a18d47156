//! The three workloads and their seeded inputs.
//!
//! Each workload is a dataset profile of the registry at a size chosen
//! for what it stresses; the seed picks the prototypes and every
//! instance, so the same seed gives the same rows, queries and inserts.
//! The library only ever sees the generated rows.

use sofa_data::{registry, Generator};

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Registry dataset whose generator profile the rows follow.
    pub spec: &'static str,
    /// Rows indexed at build time.
    pub rows: usize,
    /// Queries in one pass (each timed pass answers one slice).
    pub slice: usize,
    /// Distinct slices; rounds past the last one reuse them in order.
    pub slices: usize,
    /// Rows inserted online after the timed passes.
    pub inserts: usize,
    /// Batches and served queries mix k-NN, filtered k-NN, range and
    /// inner-product kinds, and inserts interleave with queries.
    pub mixed: bool,
}

/// hf256: the paper's regime. Broadband high-frequency rows whose f32
/// data (400 MiB) exceeds the 300 MiB L3, where SFA leaves under 0.1% of
/// rows for exact refinement (0.07–0.08% on seeds 1–3), so the funnel
/// and the SIMD kernels dominate.
/// Its inserts cross the first auto-repack (seen after 1,640–2,700
/// inserts on seeds 1–10) but not the second.
pub const HF256: Workload = Workload {
    name: "hf256",
    spec: "LenDB",
    rows: 400_000,
    slice: 300,
    slices: 12,
    inserts: 3_000,
    mixed: false,
};

/// lf96: smooth 96-value embeddings that fit in L3; a query is a few
/// hundred microseconds of work, so fixed per-query costs (transform,
/// root gate, pool wake-ups, the serve tick) dominate. Its inserts cross
/// the first auto-repack (seen after 1,070–1,500 inserts on seeds 1–12)
/// but not the second (2,160 or more).
pub const LF96: Workload = Workload {
    name: "lf96",
    spec: "Deep1b",
    rows: 200_000,
    slice: 800,
    slices: 12,
    inserts: 2_000,
    mixed: false,
};

/// churn256: mixed-frequency seismic rows with writes beside reads:
/// mixed query kinds, online inserts interleaved with queries, a snapshot
/// and a restart from it. With the default auto-repack threshold the
/// inserts trigger two to four repacks, depending on the seed.
pub const CHURN256: Workload = Workload {
    name: "churn256",
    spec: "STEAD",
    rows: 300_000,
    slice: 400,
    slices: 12,
    inserts: 1_500,
    mixed: true,
};

/// Every workload, in the order they are documented.
pub const ALL: [Workload; 3] = [HF256, LF96, CHURN256];

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name == name)
    }

    /// The workload at a hundredth of its rows and a few queries: a
    /// self-test of the benchmark itself, not a measurement.
    #[must_use]
    pub fn tiny(mut self) -> Self {
        self.rows /= 100;
        self.slice = 24;
        self.slices = 3;
        self.inserts = 120;
        self
    }
}

/// A run's queries and inserts, raw (not z-normalized). The indexed rows
/// come from [`generate_rows`], once per index the run builds, so that no
/// copy of them outlives the build that consumes it.
pub struct Inputs {
    /// Series length.
    pub len: usize,
    /// `slices * slice` queries, row-major.
    pub queries: Vec<f32>,
    /// Rows to insert online, row-major.
    pub inserts: Vec<f32>,
}

/// One instance stream of `w`'s generator for `seed`, and the series
/// length. All streams share the prototype pool the seed picks, so
/// queries and inserts land near — but never on — indexed rows.
fn stream(w: &Workload, seed: u64, stream: u64) -> (usize, Generator) {
    let spec = registry()
        .into_iter()
        .find(|s| s.name == w.spec)
        .expect("workload names a registry dataset");
    let proto_seed = spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let prototypes = (w.rows / 16).clamp(8, 256);
    let len = spec.series_len;
    let gen = Generator::with_options(
        spec.kind,
        len,
        proto_seed,
        stream,
        prototypes,
        spec.instance_noise,
    );
    (len, gen)
}

/// Generates the queries and inserts of `w` for `seed` (streams 1 and 3).
///
/// # Panics
/// Panics if the workload names a dataset the registry lacks.
#[must_use]
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let (len, mut queries) = stream(w, seed, 1);
    let (_, mut inserts) = stream(w, seed, 3);
    Inputs {
        len,
        queries: queries.generate_flat(w.slice * w.slices),
        inserts: inserts.generate_flat(w.inserts),
    }
}

/// Generates the rows `w` indexes for `seed`, row-major, with room for
/// `spare` more rows after them: the first half from stream 0 and the
/// rest from stream 2, generated in parallel straight into the one
/// buffer, so generating holds no second copy. The same seed gives the
/// same rows on every call.
///
/// # Panics
/// Panics if the workload names a dataset the registry lacks.
#[must_use]
pub fn generate_rows(w: &Workload, seed: u64, spare: usize) -> Vec<f32> {
    let ((len, mut first), (_, mut rest)) = (stream(w, seed, 0), stream(w, seed, 2));
    let mut rows = Vec::with_capacity((w.rows + spare) * len);
    rows.resize(w.rows * len, 0.0);
    let (a, b) = rows.split_at_mut(w.rows / 2 * len);
    let fill = |gen: &mut Generator, out: &mut [f32]| {
        for row in out.chunks_mut(len) {
            row.copy_from_slice(&gen.next_series());
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| fill(&mut first, a));
        fill(&mut rest, b);
    });
    rows
}

/// Row predicate of the filtered k-NN queries: admits about half of all
/// rows, chosen by a hash of the row id and the seed.
#[must_use]
pub fn admits(seed: u64, row: usize) -> bool {
    let mut x = seed ^ (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 29;
    x & 1 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let w = LF96.tiny();
        let (a, b, c) = (generate(&w, 1), generate(&w, 1), generate(&w, 2));
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.inserts, b.inserts);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.queries.len(), w.slice * w.slices * a.len);
        let rows = generate_rows(&w, 1, 0);
        assert_eq!(rows, generate_rows(&w, 1, 5));
        assert_ne!(rows, generate_rows(&w, 2, 0));
        assert_eq!(rows.len(), w.rows * a.len);
        // The same series the generator's own flat output holds.
        let (_, mut g) = stream(&w, 1, 0);
        assert_eq!(&rows[..w.rows / 2 * a.len], &g.generate_flat(w.rows / 2)[..]);
    }

    #[test]
    fn filter_admits_about_half() {
        let admitted = (0..10_000).filter(|&r| admits(7, r)).count();
        assert!((4_500..5_500).contains(&admitted), "{admitted}");
    }
}
