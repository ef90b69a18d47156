//! Tree nodes and subtrees.
//!
//! The index is a forest: each [`Subtree`] hangs off an implicit root and
//! is identified by its **root key** — the first bit of every word
//! position (paper §IV-B: the root has up to `2^w` children). Inside a
//! subtree, every node carries one bound: its [`SymbolEnvelope`], the min
//! and max full-cardinality symbol of the rows below it at each position.
//! A leaf's envelope is read off its rows' words; an inner node's is the
//! min/max over its two children. The collect phase prices every node by
//! its envelope, which is never tighter than any row's own word bound.
//!
//! A subtree grows by one routine, `Subtree::split_while_overfull`,
//! which the bulk build and online inserts share: an over-full leaf
//! splits on the position and bit that its envelope says divide its rows
//! most evenly (the iSAX 2.0 / MESSI balanced split), and the inner node
//! left behind routes by that one bit.

use crate::arena::Arena;
use sofa_summaries::QuantBlock;

/// Node id within one subtree's arena.
pub type NodeId = u32;

/// A packed run's quant codes: built in memory, or viewed in place in an
/// opened snapshot's mapping.
pub(crate) type LeafCodes = QuantBlock<Arena<u8>>;

/// The packed head of a leaf: its first `len` rows occupy one contiguous
/// run of *storage slots* (`start .. start + len`) in the index's
/// data/words arenas, in `rows` order, so the refine sweep reads 8 of
/// them as one row-major run of the word arena, and `quant` holds their
/// codes. The rows after `len` are the leaf's **tail**: rows inserted
/// since the leaf was packed (each at its own slot at the arena end), or
/// every row of a split child (`len == 0`). The refine sweep stages tail
/// words through `row_to_slot`; [`crate::Index::repack_leaves`] folds
/// tails back into packed runs.
#[derive(Clone, Debug, Default)]
pub struct LeafPack {
    /// First storage slot of the packed run.
    pub start: u32,
    /// Rows in the packed run: the leaf's first `len` rows.
    pub len: u32,
    /// Scalar-quantized codes + per-row error bounds over the packed run,
    /// encoded under the index-wide grid — the compressed middle refine
    /// tier. `None` when the index has no grid (series longer than
    /// [`QUANT_REFINE_MAX_LEN`], or degenerate constant/non-finite data
    /// no grid could be trained on); refinement then goes
    /// straight from the word bound to the exact scan. An opened index
    /// reads the codes straight from its snapshot mapping.
    pub(crate) quant: Option<LeafCodes>,
}

/// Longest series length the quantized refine tier covers. The refine
/// phase quantizes the query into a fixed stack buffer of this size (it
/// must stay allocation-free), so repacking skips the tier for longer
/// series — they simply keep the two-stage word → `f32` path.
pub(crate) const QUANT_REFINE_MAX_LEN: usize = 2048;

/// The per-position min and max full-cardinality symbol over the rows
/// below a node, packed and tail alike: `2 · word_len` bytes. A leaf's is
/// built from its rows' words (by splits and snapshot opens), an inner
/// node's covers its two children's, and an insert widens every node on
/// its descent path in `O(word_len)` each. A node without rows has the
/// empty envelope (every min `u8::MAX`, every max `0`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolEnvelope {
    /// `word_len` minimum symbols followed by `word_len` maximum symbols.
    bounds: Box<[u8]>,
}

impl SymbolEnvelope {
    /// The envelope of no words.
    #[must_use]
    pub(crate) fn empty(word_len: usize) -> Self {
        let mut bounds = vec![0u8; 2 * word_len];
        bounds[..word_len].fill(u8::MAX);
        SymbolEnvelope { bounds: bounds.into_boxed_slice() }
    }

    /// The envelope of the words at storage `slots` of the slot-ordered
    /// word arena `words` (`word_len` symbols per slot). Runs of
    /// consecutive slots — a packed leaf is one — are widened as one
    /// contiguous sweep, with no per-row slicing.
    #[must_use]
    pub(crate) fn of_slots(
        word_len: usize,
        words: &[u8],
        slots: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut envelope = Self::empty(word_len);
        let mut run = 0..0;
        for slot in slots {
            if slot != run.end {
                envelope.widen(&words[run.start * word_len..run.end * word_len]);
                run = slot..slot;
            }
            run.end += 1;
        }
        envelope.widen(&words[run.start * word_len..run.end * word_len]);
        envelope
    }

    /// Widens the envelope to cover `words`: zero or more whole words,
    /// back to back.
    pub(crate) fn widen(&mut self, words: &[u8]) {
        const BLOCK: usize = 64;
        let (min, max) = self.bounds.split_at_mut(self.bounds.len() / 2);
        let l = min.len();
        debug_assert_eq!(words.len() % l, 0, "not whole words");
        // A long run folds whole 64-byte blocks lane-wise first: when the
        // word length divides 64, lane `k` of every block is position
        // `k % l`, and the fixed-size lanes compile to vector min/max.
        // Opening a snapshot widens every leaf this way.
        let blocked = if BLOCK % l == 0 { words.len() / BLOCK * BLOCK } else { 0 };
        let (blocks, tail) = words.split_at(blocked);
        if blocked > 0 {
            let (mut lo, mut hi) = ([u8::MAX; BLOCK], [0u8; BLOCK]);
            for block in blocks.chunks_exact(BLOCK) {
                let block: &[u8; BLOCK] =
                    block.try_into().expect("chunks_exact yields whole blocks");
                for k in 0..BLOCK {
                    lo[k] = lo[k].min(block[k]);
                    hi[k] = hi[k].max(block[k]);
                }
            }
            for (lo, hi) in lo.chunks_exact(l).zip(hi.chunks_exact(l)) {
                for j in 0..l {
                    min[j] = min[j].min(lo[j]);
                    max[j] = max[j].max(hi[j]);
                }
            }
        }
        for word in tail.chunks_exact(l) {
            for ((lo, hi), &s) in min.iter_mut().zip(max.iter_mut()).zip(word) {
                *lo = (*lo).min(s);
                *hi = (*hi).max(s);
            }
        }
    }

    /// Widens the envelope to cover `other` (the empty envelope covers
    /// nothing, so folding it in changes nothing).
    pub(crate) fn cover(&mut self, other: &SymbolEnvelope) {
        let l = self.bounds.len() / 2;
        let (min, max) = self.bounds.split_at_mut(l);
        for (lo, &o) in min.iter_mut().zip(other.min()) {
            *lo = (*lo).min(o);
        }
        for (hi, &o) in max.iter_mut().zip(other.max()) {
            *hi = (*hi).max(o);
        }
    }

    /// Whether the envelope covers no word.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.min().iter().zip(self.max()).any(|(lo, hi)| lo > hi)
    }

    /// The highest bit at which the min and max symbol of position `j`
    /// differ — the one bit that divides the rows without cutting through
    /// a shared prefix — or `None` when every row holds one symbol there.
    #[must_use]
    pub(crate) fn split_bit(&self, j: usize) -> Option<u8> {
        let diff = self.min()[j] ^ self.max()[j];
        // Lossless: a nonzero `u8` has at most 7 leading zeros.
        (diff != 0).then(|| 7 - diff.leading_zeros() as u8)
    }

    /// Smallest symbol per position.
    #[must_use]
    pub fn min(&self) -> &[u8] {
        &self.bounds[..self.bounds.len() / 2]
    }

    /// Largest symbol per position.
    #[must_use]
    pub fn max(&self) -> &[u8] {
        &self.bounds[self.bounds.len() / 2..]
    }
}

/// The payload of a node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// Leaf: row ids of the series stored here, a packed head followed
    /// by a tail of rows not yet packed.
    Leaf {
        /// Original row ids of the series stored here (results are
        /// reported in these ids; storage may be permuted — see
        /// [`LeafPack`]).
        rows: Vec<u32>,
        /// The contiguous run holding `rows[..pack.len]`; the rest of
        /// `rows` is the tail.
        pack: LeafPack,
    },
    /// Inner node: its rows split by bit `split_bit` of the symbol at
    /// word position `split_pos`.
    Inner {
        /// Child holding the rows whose split bit is 0.
        left: NodeId,
        /// Child holding the rows whose split bit is 1.
        right: NodeId,
        /// The word position the split reads.
        split_pos: u16,
        /// The bit of that position's symbol that routes a row
        /// (0 = least significant).
        split_bit: u8,
    },
}

/// One tree node: its bound plus payload.
#[derive(Clone, Debug)]
pub struct Node {
    /// Per-position min/max symbols of every row below this node — the
    /// collect phase's node bound.
    pub envelope: SymbolEnvelope,
    /// Leaf or inner payload.
    pub kind: NodeKind,
}

/// Whether an inner node splitting on (`split_pos`, `split_bit`) routes
/// `word` to its right child.
#[inline]
#[must_use]
pub fn routes_right(word: &[u8], split_pos: u16, split_bit: u8) -> bool {
    (word[usize::from(split_pos)] >> split_bit) & 1 == 1
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

    /// The leaf's packed run (`None` for inner nodes).
    #[must_use]
    pub fn pack(&self) -> Option<&LeafPack> {
        match &self.kind {
            NodeKind::Leaf { pack, .. } => Some(pack),
            NodeKind::Inner { .. } => None,
        }
    }

    /// Rows in the leaf's tail, past its packed run (0 for inner nodes).
    #[must_use]
    pub(crate) fn tail_len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf { rows, pack, .. } => rows.len() - pack.len as usize,
            NodeKind::Inner { .. } => 0,
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
}

impl Subtree {
    /// A subtree of one leaf holding `rows`, whose envelope is read from
    /// the slot-ordered word arena `words` through `row_to_slot`.
    #[must_use]
    pub(crate) fn single_leaf(
        key: u64,
        rows: Vec<u32>,
        words: &[u8],
        row_to_slot: &[u32],
        l: usize,
    ) -> Self {
        let slots = rows.iter().map(|&r| row_to_slot[r as usize] as usize);
        let envelope = SymbolEnvelope::of_slots(l, words, slots);
        let kind = NodeKind::Leaf { rows, pack: LeafPack::default() };
        Subtree { key, nodes: vec![Node { envelope, kind }] }
    }

    /// Splits `leaf` — and every over-full leaf the split produces — until
    /// each leaf holds at most `leaf_capacity` rows or only identical
    /// words. The bulk build calls it on each subtree's single leaf, an
    /// insert on the leaf it appended to.
    ///
    /// The split is read off the leaf's envelope: at each position, the
    /// highest bit where its min and max symbol differ divides the rows
    /// into two non-empty halves (every row shares the bits above it);
    /// the position whose bit divides them most evenly wins (the lowest
    /// such position on a tie). The leaf becomes an inner node on that
    /// (position, bit), keeping its envelope; its children are fresh
    /// leaves, all tail (empty packs), their envelopes read from their
    /// rows' words. `words` is in storage order and
    /// `row_to_slot` maps the row ids in leaves to it. Returns how many
    /// packed rows the splits moved into tails.
    pub(crate) fn split_while_overfull(
        &mut self,
        leaf: NodeId,
        words: &[u8],
        row_to_slot: &[u32],
        l: usize,
        leaf_capacity: usize,
    ) -> usize {
        let word = |r: u32| {
            let slot = row_to_slot[r as usize] as usize;
            &words[slot * l..(slot + 1) * l]
        };
        let mut unpacked = 0usize;
        let mut pending = vec![leaf];
        while let Some(id) = pending.pop() {
            let node = &self.nodes[id as usize];
            let NodeKind::Leaf { rows, pack } = &node.kind else { continue };
            if rows.len() <= leaf_capacity {
                continue;
            }
            // (imbalance, bit, position) of the most even split so far.
            let mut best: Option<(usize, u8, u16)> = None;
            for j in 0..l {
                let Some(bit) = node.envelope.split_bit(j) else { continue };
                // Lossless: `l <= MAX_WORD_LEN`.
                let pos = j as u16;
                let ones = rows.iter().filter(|&&r| routes_right(word(r), pos, bit)).count();
                let imbalance = ones.abs_diff(rows.len() - ones);
                if best.map_or(true, |(least, _, _)| imbalance < least) {
                    best = Some((imbalance, bit, pos));
                }
            }
            // No position differs: the rows' words are identical, so the
            // over-full leaf stays, as in every iSAX-family index.
            let Some((_, split_bit, split_pos)) = best else { continue };
            unpacked += pack.len as usize;
            let left = u32::try_from(self.nodes.len()).expect("node-id space (u32) exhausted");
            let right = left.checked_add(1).expect("node-id space (u32) exhausted");
            let inner = NodeKind::Inner { left, right, split_pos, split_bit };
            let NodeKind::Leaf { rows, .. } =
                std::mem::replace(&mut self.nodes[id as usize].kind, inner)
            else {
                unreachable!("matched as a leaf above")
            };
            let (zeros, ones): (Vec<u32>, Vec<u32>) =
                rows.into_iter().partition(|&r| !routes_right(word(r), split_pos, split_bit));
            for rows in [zeros, ones] {
                let slots = rows.iter().map(|&r| row_to_slot[r as usize] as usize);
                let envelope = SymbolEnvelope::of_slots(l, words, slots);
                self.nodes.push(Node {
                    envelope,
                    kind: NodeKind::Leaf { rows, pack: LeafPack::default() },
                });
            }
            pending.push(left);
            pending.push(right);
        }
        unpacked
    }

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

    /// Whether any leaf holds tail rows (the subtrees a repack rebuilds).
    #[must_use]
    pub(crate) fn has_tail(&self) -> bool {
        self.nodes.iter().any(|n| n.tail_len() > 0)
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
    fn leaf_depths_of_small_tree() {
        // root(inner) -> [leaf, inner -> [leaf, leaf]]
        let node = |kind| Node { envelope: SymbolEnvelope::empty(2), kind };
        let leaf = |rows: Vec<u32>| node(NodeKind::Leaf { rows, pack: LeafPack::default() });
        let subtree = Subtree {
            key: 0,
            nodes: vec![
                node(NodeKind::Inner { left: 1, right: 2, split_pos: 0, split_bit: 6 }),
                leaf(vec![1, 2]),
                node(NodeKind::Inner { left: 3, right: 4, split_pos: 1, split_bit: 5 }),
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

    #[test]
    fn envelope_widens_to_cover_every_word() {
        let mut env = SymbolEnvelope::empty(3);
        assert_eq!((env.min(), env.max()), (&[255u8; 3][..], &[0u8; 3][..]));
        env.widen(&[7, 0, 255]);
        assert_eq!((env.min(), env.max()), (&[7u8, 0, 255][..], &[7u8, 0, 255][..]));
        env.widen(&[3, 9, 200]);
        assert_eq!((env.min(), env.max()), (&[3u8, 0, 200][..], &[7u8, 9, 255][..]));
        // Slots 1 and 2 form one run, slot 0 another; slot 3 is not read.
        let arena = [3, 9, 200, 7, 0, 255, 3, 9, 200, 1, 1, 1];
        assert_eq!(SymbolEnvelope::of_slots(3, &arena, [1, 2, 0]), env);
        assert_eq!(SymbolEnvelope::of_slots(3, &arena, []), SymbolEnvelope::empty(3));
    }

    #[test]
    fn long_runs_fold_blocks_like_single_words() {
        // Word lengths that divide the 64-byte block and ones that do not,
        // over runs with and without a partial last block.
        for l in [1usize, 3, 8, 13, 16, 64] {
            for rows in [1usize, 5, 8, 37, 200] {
                let words: Vec<u8> = (0..rows * l).map(|i| (i * 89 % 251) as u8).collect();
                let mut run = SymbolEnvelope::empty(l);
                run.widen(&words);
                let mut one_by_one = SymbolEnvelope::empty(l);
                for word in words.chunks_exact(l) {
                    one_by_one.widen(word);
                }
                let mut min = vec![u8::MAX; l];
                let mut max = vec![0u8; l];
                for (i, &s) in words.iter().enumerate() {
                    min[i % l] = min[i % l].min(s);
                    max[i % l] = max[i % l].max(s);
                }
                assert_eq!((run.min(), run.max()), (&min[..], &max[..]), "l={l} rows={rows}");
                assert_eq!(run, one_by_one, "l={l} rows={rows}");
            }
        }
    }
}
