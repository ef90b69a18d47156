//! Tree nodes and subtrees.
//!
//! The index is a forest: each [`Subtree`] hangs off an implicit root and
//! is identified by its **root key** — the first bit of every word
//! position (paper §IV-B: the root has up to `2^w` children). Inside a
//! subtree, every node carries a variable-cardinality summary: per word
//! position, a bit-prefix (`prefixes[j]`, using the `bits[j]` most
//! significant bits of the symbol). An inner node's two children extend
//! one position by one bit (set to 0 and 1 — the iSAX split), chosen to
//! balance the series between them (as in iSAX 2.0 / MESSI).

use sofa_summaries::QuantBlock;

/// Node id within one subtree's arena.
pub type NodeId = u32;

/// Query-acceleration storage of a packed leaf: after the build's packing
/// phase, the leaf's series and words occupy a contiguous run of *storage
/// slots* (`start .. start + rows.len()`) in the index's data/words
/// arenas, in `rows` order, so the refine sweep reads 8 candidates' words
/// as one row-major run of the word arena. Online inserts into a leaf
/// drop its pack (set it to `None`): the refinement path then falls back
/// to per-row evaluation for that leaf until
/// [`crate::Index::repack_leaves`] rebuilds the layout.
#[derive(Clone, Debug)]
pub struct LeafPack {
    /// First storage slot of the leaf's contiguous series/words run.
    pub start: u32,
    /// Scalar-quantized codes + per-row error bounds over the same rows,
    /// encoded under the index-wide grid — the compressed middle refine
    /// tier. `None` when the tier is disabled
    /// ([`crate::IndexConfig::quant_refine`]) or no grid could be trained
    /// (degenerate constant/non-finite data); refinement then goes
    /// straight from the word bound to the exact scan.
    pub quant: Option<QuantBlock>,
}

/// Longest series length the quantized refine tier covers. The refine
/// phase quantizes the query into a fixed stack buffer of this size (it
/// must stay allocation-free), so repacking skips the tier for longer
/// series — they simply keep the two-stage word → `f32` path.
pub(crate) const QUANT_REFINE_MAX_LEN: usize = 2048;

/// The payload of a node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Leaf: row ids of the series stored here.
    Leaf {
        /// Original row ids of the series stored here (results are
        /// reported in these ids; storage may be permuted — see
        /// [`LeafPack`]).
        rows: Vec<u32>,
        /// Contiguous-storage acceleration state; `None` until the build
        /// packs leaves or after an online insert touched this leaf.
        pack: Option<LeafPack>,
    },
    /// Inner node: refined on `split_pos` by one bit.
    Inner {
        /// Child whose new bit is 0.
        left: NodeId,
        /// Child whose new bit is 1.
        right: NodeId,
        /// The word position whose cardinality the split increased.
        split_pos: u16,
    },
}

/// One tree node: variable-cardinality summary plus payload.
#[derive(Clone, Debug)]
pub struct Node {
    /// Per-position symbol bit-prefixes (most-significant bits).
    pub prefixes: Vec<u8>,
    /// Per-position number of bits in use (0..=symbol_bits).
    pub bits: Vec<u8>,
    /// Leaf or inner payload.
    pub kind: NodeKind,
}

impl Node {
    /// `true` when this node is a leaf.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf { .. })
    }

    /// Rows stored here (empty for inner nodes).
    #[must_use]
    pub fn rows(&self) -> &[u32] {
        match &self.kind {
            NodeKind::Leaf { rows, .. } => rows,
            NodeKind::Inner { .. } => &[],
        }
    }

    /// The leaf's packed-storage state (`None` for inner nodes and for
    /// leaves invalidated by online inserts).
    #[must_use]
    pub fn pack(&self) -> Option<&LeafPack> {
        match &self.kind {
            NodeKind::Leaf { pack, .. } => pack.as_ref(),
            NodeKind::Inner { .. } => None,
        }
    }
}

/// A subtree: its root key and an arena of nodes (`nodes[root]` is the
/// subtree root). Subtrees are independent — MESSI exploits exactly this
/// for lock-free parallel construction and traversal.
#[derive(Clone, Debug)]
pub struct Subtree {
    /// Root key: bit `j` is the most significant bit of word position `j`.
    pub key: u64,
    /// Node arena; index 0 is the root.
    pub nodes: Vec<Node>,
    /// Leaves of this subtree whose packed layout went stale (dropped
    /// packs from online inserts, split children). Drives the incremental
    /// repack: only subtrees with `stale_leaves > 0` rebuild their packs;
    /// clean subtrees reuse theirs.
    pub stale_leaves: usize,
}

impl Subtree {
    /// The root node.
    #[must_use]
    pub fn root(&self) -> &Node {
        &self.nodes[0]
    }

    /// Iterates over all leaves.
    pub fn leaves(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter(|n| n.is_leaf())
    }

    /// Number of series stored in this subtree.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.leaves().map(|l| l.rows().len()).sum()
    }

    /// Depth of each leaf (root = depth 0), used by the Figure 8 stats.
    #[must_use]
    pub fn leaf_depths(&self) -> Vec<usize> {
        let mut depths = Vec::new();
        // Iterative DFS with explicit depth tracking.
        let mut stack: Vec<(NodeId, usize)> = vec![(0, 0)];
        while let Some((id, d)) = stack.pop() {
            match &self.nodes[id as usize].kind {
                NodeKind::Leaf { .. } => depths.push(d),
                NodeKind::Inner { left, right, .. } => {
                    stack.push((*left, d + 1));
                    stack.push((*right, d + 1));
                }
            }
        }
        depths
    }
}

/// Longest word the index accepts: root keys hold one bit per position
/// in a `u64`. Build and snapshot open both reject longer words.
pub(crate) const MAX_WORD_LEN: usize = 64;

/// Computes the root key of a word: bit `j` = most significant bit of
/// symbol `j`.
///
/// # Panics
/// Panics if the word is longer than 64 positions (`u64` key space).
#[inline]
#[must_use]
pub fn root_key(word: &[u8], symbol_bits: u8) -> u64 {
    assert!(word.len() <= MAX_WORD_LEN, "word length > 64 unsupported");
    debug_assert!(symbol_bits >= 1);
    let mut key = 0u64;
    for (j, &s) in word.iter().enumerate() {
        let top_bit = u64::from(s >> (symbol_bits - 1)) & 1;
        key |= top_bit << j;
    }
    key
}

/// Extracts the `bits` most significant bits of `symbol`.
#[inline]
#[must_use]
pub fn symbol_prefix(symbol: u8, bits: u8, symbol_bits: u8) -> u8 {
    if bits == 0 {
        0
    } else {
        symbol >> (symbol_bits - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_key_uses_top_bits() {
        // symbols with 8 bits: top bit set iff >= 128.
        let word = [0u8, 255, 127, 128];
        let key = root_key(&word, 8);
        assert_eq!(key, 0b1010);
    }

    #[test]
    fn root_key_small_alphabet() {
        // 2-bit symbols: top bit set iff >= 2.
        let word = [0u8, 1, 2, 3];
        assert_eq!(root_key(&word, 2), 0b1100);
    }

    #[test]
    fn symbol_prefix_extraction() {
        assert_eq!(symbol_prefix(0b1011_0000, 0, 8), 0);
        assert_eq!(symbol_prefix(0b1011_0000, 1, 8), 0b1);
        assert_eq!(symbol_prefix(0b1011_0000, 4, 8), 0b1011);
        assert_eq!(symbol_prefix(0b1011_0000, 8, 8), 0b1011_0000);
    }

    #[test]
    fn leaf_depths_of_small_tree() {
        // root(inner) -> [leaf, inner -> [leaf, leaf]]
        let leaf = |rows: Vec<u32>| Node {
            prefixes: vec![0; 2],
            bits: vec![1; 2],
            kind: NodeKind::Leaf { rows, pack: None },
        };
        let subtree = Subtree {
            key: 0,
            stale_leaves: 0,
            nodes: vec![
                Node {
                    prefixes: vec![0; 2],
                    bits: vec![1; 2],
                    kind: NodeKind::Inner { left: 1, right: 2, split_pos: 0 },
                },
                leaf(vec![1, 2]),
                Node {
                    prefixes: vec![0; 2],
                    bits: vec![2; 2],
                    kind: NodeKind::Inner { left: 3, right: 4, split_pos: 1 },
                },
                leaf(vec![3]),
                leaf(vec![4, 5]),
            ],
        };
        let mut d = subtree.leaf_depths();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2, 2]);
        assert_eq!(subtree.n_rows(), 5);
        assert_eq!(subtree.leaves().count(), 3);
    }
}
