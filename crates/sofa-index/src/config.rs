//! Index build and query configuration.

/// Configuration for [`crate::Index`] construction and querying.
///
/// Defaults: leaf capacity 500 (the field's doc gives the sweep behind
/// it), one refinement priority queue per worker thread, `num_threads`
/// the machine's available parallelism, auto-repack at 25%.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexConfig {
    /// Maximum series per leaf before it splits (`leaf-size`). Default
    /// 500.
    ///
    /// The paper sweeps this in Figure 11 and uses 20,000 for its 100M-row
    /// collections. The trade-off: a smaller leaf has a tighter envelope
    /// bound, so fewer rows reach the word lower bound and the exact scan,
    /// but more leaves mean more collect, queue and build work, and the
    /// seed refines a smaller home leaf, so the rest of refine starts from
    /// a looser k-th distance. On 200k–400k-row collections no leaf splits
    /// at 20,000. The same sweep on such collections (capacities 100 to
    /// 20,000) chose 500: on mixed-frequency data a query checks about
    /// half the word lower bounds of 20,000 and scans about a third of the
    /// rows exactly (seed included), while smooth data barely splits.
    /// Smaller capacities save few more rows as the leaf count climbs.
    pub leaf_capacity: usize,
    /// Parallel lanes of the index's persistent worker pool (created at
    /// build time and reused by every build/query/insert call). Ignored
    /// when a shared pool is supplied via `Index::build_with_pool` — the
    /// pool's own lane count applies there.
    pub num_threads: usize,
    /// Auto-repack threshold, in percent: after an online insert (or once
    /// per `insert_all` burst), when more than this percentage of the
    /// index's rows sit in leaf tails (rows inserted since their leaf was
    /// packed, see [`crate::LeafPack`]) — and at least 64 in absolute
    /// terms, so tiny indexes never repack on every insert —
    /// [`crate::Index::repack_leaves`] folds the tails back into packed
    /// runs on the index's worker pool. Tail rows are priced by the same
    /// kernel as packed rows, so this is a compaction that restores
    /// in-place word reads and the quantized tier, never a correctness
    /// matter. `None` disables the trigger (manual repacking only).
    /// Default: `Some(25)`.
    pub auto_repack_pct: Option<u32>,
}

impl Default for IndexConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        IndexConfig { leaf_capacity: 500, num_threads: threads, auto_repack_pct: Some(25) }
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
    /// percentage of rows in leaf tails that triggers an automatic
    /// [`crate::Index::repack_leaves`] after an online insert.
    #[must_use]
    pub fn auto_repack_pct(mut self, pct: Option<u32>) -> Self {
        self.auto_repack_pct = pct;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_leaf_capacity_sweep() {
        let c = IndexConfig::default();
        assert_eq!(c.leaf_capacity, 500);
        assert!(c.num_threads >= 1);
        assert_eq!(c.auto_repack_pct, Some(25));
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
