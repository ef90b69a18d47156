//! Index build and query configuration.

/// Configuration for [`crate::Index`] construction and querying.
///
/// Defaults follow the paper's setup (§V "Setup"): leaf capacity 20,000,
/// one refinement priority queue per worker thread. `num_threads`
/// defaults to the machine's available parallelism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Maximum series per leaf before it splits (`leaf-size`). The paper
    /// sweeps this in Figure 11 and settles on 20,000.
    pub leaf_capacity: usize,
    /// Parallel lanes of the index's persistent worker pool (created at
    /// build time and reused by every build/query/insert call). Ignored
    /// when a shared pool is supplied via `Index::build_with_pool` — the
    /// pool's own lane count applies there.
    pub num_threads: usize,
    /// Auto-repack threshold, in percent: after an online insert (or once
    /// per `insert_all` burst), when more than this percentage of the
    /// tree's leaves are un-packed (per-row fallback refinement) — and at
    /// least 8 in absolute terms, so tiny trees never repack on every
    /// insert — [`crate::Index::repack_leaves`] runs automatically, on
    /// the index's worker pool like every build phase, so long-running
    /// serving instances keep the batched sweeps without operator action.
    /// `None` disables the trigger (manual repacking only).
    /// Default: `Some(25)`.
    pub auto_repack_pct: Option<u32>,
    /// Whether repacking builds the scalar-quantized refine tier: per-leaf
    /// int8 codes swept between the word lower bound and the exact `f32`
    /// scan, cutting refine-phase memory traffic ~4x for lanes the word
    /// bound cannot kill. Exactness is unaffected either way — the
    /// quantized bound is conservative and `f32` remains the final
    /// arbiter. Costs ~1 byte per stored value. Default: `true`.
    pub quant_refine: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        IndexConfig {
            leaf_capacity: 20_000,
            num_threads: threads,
            auto_repack_pct: Some(25),
            quant_refine: true,
        }
    }
}

impl IndexConfig {
    /// Config with `threads` workers.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        IndexConfig { num_threads: threads.max(1), ..Default::default() }
    }

    /// Sets the leaf capacity, returning the modified config.
    #[must_use]
    pub fn leaf_capacity(mut self, capacity: usize) -> Self {
        self.leaf_capacity = capacity.max(1);
        self
    }

    /// Sets (or, with `None`, disables) the auto-repack threshold — the
    /// percentage of un-packed leaves that triggers an automatic
    /// incremental repack ([`crate::Index::repack_incremental`]) after an
    /// online insert.
    #[must_use]
    pub fn auto_repack_pct(mut self, pct: Option<u32>) -> Self {
        self.auto_repack_pct = pct;
        self
    }

    /// Enables or disables the scalar-quantized refine tier (see the
    /// field docs; default on).
    #[must_use]
    pub fn quant_refine(mut self, enabled: bool) -> Self {
        self.quant_refine = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = IndexConfig::default();
        assert_eq!(c.leaf_capacity, 20_000);
        assert!(c.num_threads >= 1);
        assert_eq!(c.auto_repack_pct, Some(25));
        assert!(c.quant_refine);
    }

    #[test]
    fn quant_refine_configurable() {
        let c = IndexConfig::default().quant_refine(false);
        assert!(!c.quant_refine);
    }

    #[test]
    fn auto_repack_configurable() {
        let c = IndexConfig::default().auto_repack_pct(Some(5));
        assert_eq!(c.auto_repack_pct, Some(5));
        let off = IndexConfig::default().auto_repack_pct(None);
        assert_eq!(off.auto_repack_pct, None);
    }

    #[test]
    fn builder_methods() {
        let c = IndexConfig::with_threads(4).leaf_capacity(100);
        assert_eq!(c.num_threads, 4);
        assert_eq!(c.leaf_capacity, 100);
    }

    #[test]
    fn zero_threads_clamped() {
        let c = IndexConfig::with_threads(0);
        assert_eq!(c.num_threads, 1);
        let c2 = IndexConfig::default().leaf_capacity(0);
        assert_eq!(c2.leaf_capacity, 1);
    }
}
