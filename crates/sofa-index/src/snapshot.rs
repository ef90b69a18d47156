//! Crash-safe persistence: atomic snapshots, mmap-backed opens.
//!
//! A snapshot is a single versioned file laid out arena-first so that
//! [`Index::open`] can serve straight out of a memory mapping with zero
//! deserialization of the two big arenas (series data, words) — the
//! FAISS-style "attach, don't rebuild" pattern — and each leaf's quant
//! codes are served from the mapping the same way. The file stores only
//! what the build produced and an open cannot derive; the small
//! structures (tree, leaf packs, quantizer grid, per-row error bounds)
//! are rehydrated into their owned in-memory forms.
//!
//! ## File format (version 9)
//!
//! ```text
//! offset 0   magic            b"SOFASNAP"
//!        8   format version   u32
//!       12   endianness tag   u32 (0x0A0B0C0D, read natively: a foreign-
//!                             endian file shows a scrambled tag and is
//!                             rejected — all values are writer-native)
//!       16   summarization    u32 (1 = SFA, 2 = iSAX)
//!       20   section count    u32
//!       24   section table    count × 32 bytes:
//!                             id u32, reserved u32, offset u64, len u64,
//!                             digest u64 (below)
//!        …   header digest    u64 (the digest of everything above)
//! ```
//!
//! Sections follow in this order, each 64-byte aligned (so mapped
//! `f32`/`u32` arenas are always correctly aligned) and independently
//! checksummed; counts are `u64` unless noted:
//!
//! ```text
//! meta           series length, word length, rows, leaf capacity;
//!                auto-repack flag u8 and percentage u32; build timings
//!                2 × f64
//! summarization  the model (SnapshotSummarization)
//! data           rows × series length f32, in slot order
//! words          rows × word length u8, in slot order
//! mapping        slot_to_row: rows × u32
//! tree           per subtree (to the section end): key, node count;
//!                per node a tag u8, then
//!                  leaf:  packed length u32, tail count u32, tail rows u32
//!                  inner: children 2 × u32, split position u16, bit u8
//! quant          only with a quantizer grid: scale f32, series length ×
//!                f32 minima; per leaf a has-codes u8, then ⌈len/8⌉·8 ×
//!                series length code bytes and ⌈len/8⌉·8 f64 error bounds
//! ```
//!
//! An open derives the rest: `row_to_slot` by inverting the slot map
//! (filling the inverse is the permutation check), every node's symbol
//! envelope from the word arena, each quant block's counts from its
//! leaf's packed length, whether a grid exists from the quant section's
//! presence, the subtree count from the tree section's length, and each
//! leaf's pack start and packed rows by one walk over the slots. The walk
//! takes leaves in (subtree, node) order — the order
//! [`Index::repack_leaves`] lays packed runs out in — and skips every
//! slot that holds a tail row (inserted since the last repack, or orphaned
//! when an insert split a packed leaf); each leaf with a packed length
//! starts at the first slot not skipped, and its packed rows are the rows
//! of its run. The walk fails closed on a run that reaches a tail slot or
//! the arena end, on a slot no leaf claims, and on a tail slot below the
//! first subtree with a tail (a repack keeps that prefix in place).
//!
//! Every validation — magic, version, endianness, header checksum, section
//! bounds, section checksums, layout parameters, structural invariants —
//! runs **before** any pointer into the mapping is formed or any decoded
//! value is trusted; corrupt, truncated and foreign files fail closed
//! with a typed [`IndexError`], never a panic.
//!
//! ## Digest
//!
//! A section (or the header) is cut into 1 MiB chunks. Each chunk is
//! hashed by four independent 64-bit lanes over 32-byte stripes, in the
//! xxHash64 round form `acc = rotl(acc + w·P2, 31)·P1`; the lanes, the
//! chunk's length and its last partial stripe are folded together and
//! finished with an avalanche. The chunk digests are folded in order,
//! with the section's length, into the section's digest. An open hashes
//! every chunk of every section as one job list spread over all lanes of
//! its pool, so verifying a file runs at memory bandwidth rather than on
//! one serial chain per section. The digest catches torn writes and
//! random corruption; it is not a MAC.
//!
//! ## Durability
//!
//! [`Index::snapshot`] writes to a sibling `<name>.tmp`, fsyncs it,
//! atomically renames it over the destination and fsyncs the parent
//! directory. A crash at any point leaves either the old file or the new
//! one, never a torn mix; a leftover `.tmp` is inert (opens of it fail
//! closed like any partial file) and is removed on the next snapshot.

use crate::arena::Arena;
use crate::config::IndexConfig;
use crate::node::{LeafPack, Node, NodeKind, Subtree, SymbolEnvelope, QUANT_REFINE_MAX_LEN};
use crate::{Index, IndexError};
use sofa_exec::{failpoint, ExecPool};
use sofa_mmap::{Advice, Mmap, Pod};
use sofa_summaries::{
    CoeffPos, ISax, McbModel, QuantBlock, QuantGrid, SaxConfig, Sfa, Summarization,
};
use std::borrow::Cow;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SOFASNAP";
/// The one format version this build writes and reads.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 9;
/// Failpoint fired before each section write (torn-write injection).
pub const SNAPSHOT_WRITE_FAILPOINT: &str = "sofa-index::snapshot::write";
/// Failpoint fired before the final atomic rename.
pub const SNAPSHOT_RENAME_FAILPOINT: &str = "sofa-index::snapshot::rename";

const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
const SECTION_ALIGN: u64 = 64;
const HEADER_FIXED: usize = 24;
const TABLE_ENTRY: usize = 32;

const SEC_META: u32 = 1;
const SEC_SUMM: u32 = 2;
const SEC_DATA: u32 = 3;
const SEC_WORDS: u32 = 4;
const SEC_MAPPING: u32 = 5;
const SEC_TREE: u32 = 6;
const SEC_QUANT: u32 = 9;

/// One kind of section the format knows.
struct SectionKind {
    id: u32,
    name: &'static str,
    /// Whether every file holds it (only the quant section is optional:
    /// its presence says the index has a quantizer grid).
    required: bool,
}

/// The format's one section table: the writer lays sections out in this
/// order, the reader rejects ids not in it and files missing a required
/// one, and errors and [`describe`] name sections by it.
const SECTIONS: [SectionKind; 7] = [
    SectionKind { id: SEC_META, name: "meta", required: true },
    SectionKind { id: SEC_SUMM, name: "summarization", required: true },
    SectionKind { id: SEC_DATA, name: "data", required: true },
    SectionKind { id: SEC_WORDS, name: "words", required: true },
    SectionKind { id: SEC_MAPPING, name: "mapping", required: true },
    SectionKind { id: SEC_TREE, name: "tree", required: true },
    SectionKind { id: SEC_QUANT, name: "quant", required: false },
];

fn section_name(id: u32) -> &'static str {
    SECTIONS.iter().find(|s| s.id == id).map_or("unknown", |s| s.name)
}

/// Bytes per digest chunk: the unit of work [`digests`] hands to a lane.
/// Part of the format (covered by the version field), not a tuning knob.
const DIGEST_CHUNK: usize = 1 << 20;

// The xxHash64 primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One xxHash64 round. The multiply spreads each input bit upward and
/// the rotation carries the high bits back down, so a flip in any bit
/// (bit 63 included) reaches the whole accumulator by the next round.
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Folds `v` into `h`; a bijection in `h` for a fixed `v` and vice versa.
fn merge(h: u64, v: u64) -> u64 {
    (h ^ round(0, v)).wrapping_mul(P1).wrapping_add(P4)
}

fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Digest of one chunk of at most [`DIGEST_CHUNK`] bytes: four
/// independent lanes over 32-byte stripes (so their multiplies overlap
/// instead of forming one serial chain), then the lanes, the length and
/// the tail words and bytes folded together, then an avalanche.
fn chunk_digest(chunk: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = chunk.chunks_exact(32);
    for stripe in &mut stripes {
        let stripe: &[u8; 32] = stripe.try_into().expect("32-byte stripe");
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = round(*lane, le_word(&stripe[8 * i..8 * i + 8]));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    h = lanes.into_iter().fold(h, merge).wrapping_add(u64_of(chunk.len()));
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, le_word(w))).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    avalanche(h)
}

/// The format's one checksum: the digest of each of `sections`, as the
/// writer's section table, the open, [`describe`] and the header seal
/// use it. A section is cut into [`DIGEST_CHUNK`]-byte chunks, each
/// hashed by [`chunk_digest`], and its chunk digests are folded in order
/// (with its length) into its digest. Every chunk of every section is
/// one job, claimed through an atomic counter by every lane of `pool`
/// (or by the caller alone without one), so a large section is split
/// across all lanes; which lane hashed a chunk does not change a digest.
fn digests(sections: &[&[u8]], pool: Option<&ExecPool>) -> Vec<u64> {
    let chunks: Vec<&[u8]> = sections.iter().flat_map(|s| s.chunks(DIGEST_CHUNK)).collect();
    let sums: Vec<AtomicU64> = chunks.iter().map(|_| AtomicU64::new(0)).collect();
    let next = AtomicUsize::new(0);
    let hash = |_lane: usize| loop {
        let j = next.fetch_add(1, Ordering::Relaxed);
        let Some(chunk) = chunks.get(j) else { break };
        sums[j].store(chunk_digest(chunk), Ordering::Relaxed);
    };
    match pool {
        Some(pool) => pool.broadcast(hash),
        None => hash(0),
    }
    let mut sums = sums.into_iter().map(AtomicU64::into_inner);
    sections
        .iter()
        .map(|s| {
            let n = s.len().div_ceil(DIGEST_CHUNK);
            avalanche(sums.by_ref().take(n).fold(P5.wrapping_add(u64_of(s.len())), merge))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Error constructors (all snapshot failures are typed, never panics).

fn io_err(op: &str, detail: &dyn std::fmt::Display) -> IndexError {
    IndexError::SnapshotIo { op: op.to_string(), detail: detail.to_string() }
}

fn fmt_err(section: &str, detail: impl Into<String>) -> IndexError {
    IndexError::SnapshotFormat { section: section.to_string(), detail: detail.into() }
}

fn corrupt(section: &str, detail: impl Into<String>) -> IndexError {
    IndexError::SnapshotCorrupt { section: section.to_string(), detail: detail.into() }
}

fn layout(section: &str, detail: impl Into<String>) -> IndexError {
    IndexError::SnapshotLayout { section: section.to_string(), detail: detail.into() }
}

// ---------------------------------------------------------------------
// Encoding (writer-native byte order throughout).

/// `usize` → `u64`, lossless on every supported target (≤ 64-bit).
fn u64_of(x: usize) -> u64 {
    x as u64
}

/// Appends `vals` in writer-native byte order — the format's one encoder.
fn put<T: Pod>(out: &mut Vec<u8>, vals: &[T]) {
    out.extend_from_slice(sofa_mmap::as_bytes(vals));
}

fn align_up(x: u64, a: u64) -> u64 {
    x.div_ceil(a) * a
}

// ---------------------------------------------------------------------
// Bounds-checked sequential reader over one section's bytes.

/// Sequential, bounds-checked reader over one snapshot section. Every
/// read is validated against the section's extent; failures surface as
/// [`IndexError::SnapshotCorrupt`] naming the section. Used by the
/// built-in decoders and by [`SnapshotSummarization::decode_summarization`].
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        SectionReader { buf, pos: 0, section }
    }

    /// A typed corruption error anchored to this reader's section — for
    /// decoders to report semantic (not just bounds) failures.
    #[must_use]
    pub fn invalid(&self, detail: impl Into<String>) -> IndexError {
        corrupt(self.section, detail)
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], IndexError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            self.invalid(format!("truncated: needed {n} bytes at offset {}", self.pos))
        })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one native-endian value.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn get<T: Pod + Default>(&mut self) -> Result<T, IndexError> {
        let mut v = T::default();
        let bytes = self.take(std::mem::size_of::<T>())?;
        sofa_mmap::as_bytes_mut(std::slice::from_mut(&mut v)).copy_from_slice(bytes);
        Ok(v)
    }

    /// Reads `n` native-endian values. The bytes are bounds-checked
    /// before anything is allocated, so a hostile `n` cannot drive a
    /// huge allocation.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation or overflow.
    pub fn vec<T: Pod + Default>(&mut self, n: usize) -> Result<Vec<T>, IndexError> {
        let len = n
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| self.invalid(format!("element count {n} overflows the byte range")))?;
        let bytes = self.take(len)?;
        let mut out = vec![T::default(); n];
        sofa_mmap::as_bytes_mut(&mut out).copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads a `u64` count and converts it to `usize`, rejecting a count
    /// of elements that could not fit in the section's remaining bytes
    /// when each takes at least `elem_bytes` of them (0: no bound) — so a
    /// hostile count can never drive a long loop.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation, overflow, or an
    /// impossible count.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, IndexError> {
        let v: u64 = self.get()?;
        let remaining = self.buf.len() - self.pos;
        usize::try_from(v)
            .ok()
            .filter(|&n| n.checked_mul(elem_bytes).is_some_and(|b| b <= remaining))
            .ok_or_else(|| {
                self.invalid(format!("count {v} cannot fit in the {remaining} remaining bytes"))
            })
    }

    /// Asserts the section was consumed exactly — trailing bytes mean the
    /// decoder and the writer disagree about the structure.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] when bytes remain.
    pub fn finish(self) -> Result<(), IndexError> {
        if self.pos != self.buf.len() {
            return Err(
                self.invalid(format!("{} trailing bytes after decode", self.buf.len() - self.pos))
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Summarization (de)serialization.

/// Summarizations that can be persisted in a snapshot. Implemented for
/// [`Sfa`] (SOFA) and [`ISax`] (MESSI); the `KIND` tag in the header
/// keeps a file from being opened as the wrong model family.
pub trait SnapshotSummarization: Summarization + Sized {
    /// Stable numeric tag stored in the snapshot header.
    const KIND: u32;
    /// Human name of the kind, used in error messages.
    const KIND_NAME: &'static str;
    /// Appends the model's persistent state to `out`.
    fn encode_summarization(&self, out: &mut Vec<u8>);
    /// Rebuilds the model from its persisted state, validating every
    /// field it will later index with (so a tampered model can never
    /// cause a panic downstream).
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] (via [`SectionReader::invalid`])
    /// on any truncation or semantic violation.
    fn decode_summarization(r: &mut SectionReader<'_>) -> Result<Self, IndexError>;
}

/// The SFA model: its name, the series length, the alphabet and the word
/// length (`u64` each, the name's length first), then per position its
/// coefficient `u16` and imaginary flag `u8`, per position its
/// `alphabet - 1` breakpoints, and per position its weight and its
/// variance (`f32` each).
impl SnapshotSummarization for Sfa {
    const KIND: u32 = 1;
    const KIND_NAME: &'static str = "SFA";

    fn encode_summarization(&self, out: &mut Vec<u8>) {
        let model = self.model();
        put(out, &[u64_of(self.name().len())]);
        put(out, self.name().as_bytes());
        put(out, &[model.series_len, model.alphabet, model.positions.len()].map(u64_of));
        for p in &model.positions {
            put(out, &[p.coeff]);
            put(out, &[u8::from(p.imag)]);
        }
        for bin in &model.bins {
            put(out, bin);
        }
        put(out, &model.weights);
        put(out, &model.variances);
    }

    fn decode_summarization(r: &mut SectionReader<'_>) -> Result<Self, IndexError> {
        let name_len = r.count(1)?;
        let name = String::from_utf8(r.vec(name_len)?)
            .map_err(|_| r.invalid("model name is not UTF-8"))?;
        let series_len = r.count(0)?;
        if series_len == 0 {
            return Err(r.invalid("series length is zero"));
        }
        let alphabet = r.count(0)?;
        if !(alphabet.is_power_of_two() && (2..=256).contains(&alphabet)) {
            return Err(r.invalid(format!("alphabet {alphabet} is not a power of two in [2, 256]")));
        }
        let word_len = r.count(3)?;
        if word_len == 0 || word_len > crate::node::MAX_WORD_LEN {
            return Err(r.invalid(format!("word length {word_len} out of range 1..=64")));
        }
        let mut positions = Vec::with_capacity(word_len);
        for _ in 0..word_len {
            let coeff: u16 = r.get()?;
            let imag: u8 = r.get()?;
            if imag > 1 {
                return Err(r.invalid(format!("coefficient imag flag {imag} is not a bool")));
            }
            // `flat_index` = 2·coeff + imag indexes a spectrum of
            // 2·(series_len/2 + 1) floats; anything beyond would panic in
            // the transform path.
            if usize::from(coeff) > series_len / 2 {
                return Err(r.invalid(format!(
                    "coefficient index {coeff} exceeds the spectrum of length-{series_len} series"
                )));
            }
            positions.push(CoeffPos { coeff, imag: imag == 1 });
        }
        let mut bins = Vec::with_capacity(word_len);
        for j in 0..word_len {
            let table: Vec<f32> = r.vec(alphabet - 1)?;
            if table.iter().any(|v| !v.is_finite()) {
                return Err(r.invalid(format!("breakpoint table {j} contains non-finite values")));
            }
            if table.windows(2).any(|w| w[0] > w[1]) {
                return Err(r.invalid(format!("breakpoint table {j} is not sorted")));
            }
            bins.push(table);
        }
        let weights: Vec<f32> = r.vec(word_len)?;
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(r.invalid("weights must be finite and non-negative"));
        }
        let variances = r.vec(word_len)?;
        let model = McbModel { positions, bins, weights, series_len, alphabet, variances };
        Ok(Sfa::from_parts(model, name))
    }
}

/// The iSAX model: series length, word length and alphabet, `u64` each.
impl SnapshotSummarization for ISax {
    const KIND: u32 = 2;
    const KIND_NAME: &'static str = "iSAX";

    fn encode_summarization(&self, out: &mut Vec<u8>) {
        put(out, &[self.series_len(), self.word_len(), self.alphabet()].map(u64_of));
    }

    fn decode_summarization(r: &mut SectionReader<'_>) -> Result<Self, IndexError> {
        let series_len = r.count(0)?;
        let word_len = r.count(0)?;
        let alphabet = r.count(0)?;
        if series_len == 0 {
            return Err(r.invalid("series length is zero"));
        }
        if word_len == 0 || word_len > crate::node::MAX_WORD_LEN || word_len > series_len {
            return Err(r.invalid(format!(
                "word length {word_len} invalid for length-{series_len} series"
            )));
        }
        if !(alphabet.is_power_of_two() && (2..=256).contains(&alphabet)) {
            return Err(r.invalid(format!("alphabet {alphabet} is not a power of two in [2, 256]")));
        }
        Ok(ISax::new(series_len, &SaxConfig { word_len, alphabet }))
    }
}

// ---------------------------------------------------------------------
// Parsed header.

/// One entry of a snapshot's section table (see [`describe`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Numeric section id.
    pub id: u32,
    /// Human name ("meta", "data", …).
    pub name: &'static str,
    /// Byte offset of the section in the file.
    pub offset: u64,
    /// Byte length of the section.
    pub len: u64,
    /// Digest of the section bytes (the chunked digest of the module
    /// doc).
    pub checksum: u64,
}

/// The capability/config matrix of a snapshot: what an [`Index::open`]
/// of this file will support, decoded from its checksum-verified meta
/// section, plus the kernel tier this *process* would serve it with.
/// Returned inside [`SnapshotInfo`] so operators can audit a mapped
/// snapshot without opening it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotCapabilities {
    /// Rows (series) held by the index.
    pub n_rows: usize,
    /// Points per series.
    pub series_len: usize,
    /// Symbols per summarized word.
    pub word_len: usize,
    /// Maximum rows per tree leaf.
    pub leaf_capacity: usize,
    /// Whether the file carries a quantizer grid + per-leaf codes at all
    /// (the int8 refine tier; absent when the data leaves no grid).
    pub quant_grid_present: bool,
    /// Kernel tier dispatch resolves to in this process ("scalar",
    /// "portable", "avx2") — a property of the host, not the file.
    pub kernel_tier: &'static str,
}

/// Checksum-verified snapshot metadata, as returned by [`describe`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version of the file.
    pub format_version: u32,
    /// Summarization kind tag (1 = SFA, 2 = iSAX).
    pub summarization_kind: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// The section table, in file order.
    pub sections: Vec<SectionInfo>,
    /// What this snapshot supports once opened.
    pub capabilities: SnapshotCapabilities,
}

/// A file whose header, section table and section digests verified.
struct Verified<'a> {
    bytes: &'a [u8],
    kind: u32,
    /// The section table, in file order.
    sections: Vec<SectionInfo>,
}

impl<'a> Verified<'a> {
    /// Section `id`'s bytes and its offset in the file.
    fn section(&self, id: u32) -> Result<(&'a [u8], usize), IndexError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| fmt_err(section_name(id), "section missing"))?;
        // Lossless: `parse_and_verify` bounded the range by the file length.
        let (offset, len) = (s.offset as usize, s.len as usize);
        Ok((&self.bytes[offset..offset + len], offset))
    }
}

/// Validates magic, version, endianness, the header checksum, and every
/// section's id, bounds and checksum. Nothing in the file is trusted
/// before this returns. Hashing every byte is most of an open's time, so
/// with a `pool` every chunk of every section is hashed by whichever lane
/// claims it.
fn parse_and_verify<'a>(
    bytes: &'a [u8],
    pool: Option<&ExecPool>,
) -> Result<Verified<'a>, IndexError> {
    if bytes.len() < HEADER_FIXED {
        return Err(fmt_err(
            "header",
            format!("file of {} bytes is too small to be a snapshot", bytes.len()),
        ));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(fmt_err("header", "bad magic — not a SOFA snapshot"));
    }
    let mut h = SectionReader::new(&bytes[8..], "header");
    let version: u32 = h.get()?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(fmt_err(
            "header",
            format!(
                "unsupported format version {version} (this build reads {SNAPSHOT_FORMAT_VERSION})"
            ),
        ));
    }
    if h.get::<u32>()? != ENDIAN_TAG {
        return Err(fmt_err("header", "snapshot was written with a different byte order"));
    }
    let kind = h.get()?;
    let n: u32 = h.get()?;
    if n == 0 || n > 64 {
        return Err(fmt_err("header", format!("implausible section count {n}")));
    }
    let table_end = HEADER_FIXED + TABLE_ENTRY * n as usize;
    let header_len = u64_of(table_end + 8);
    if u64_of(bytes.len()) < header_len {
        return Err(fmt_err("header", "truncated section table"));
    }
    let stored: u64 = SectionReader::new(&bytes[table_end..], "header").get()?;
    if digests(&[&bytes[..table_end]], None)[0] != stored {
        return Err(corrupt("header", "header checksum mismatch"));
    }
    let mut sections: Vec<SectionInfo> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let id: u32 = h.get()?;
        h.take(4)?;
        let (offset, len, checksum): (u64, u64, u64) = (h.get()?, h.get()?, h.get()?);
        let Some(name) = SECTIONS.iter().find(|s| s.id == id).map(|s| s.name) else {
            return Err(fmt_err("header", format!("unknown section id {id}")));
        };
        if offset.checked_add(len).map_or(true, |end| end > u64_of(bytes.len())) {
            return Err(fmt_err(name, "section range out of bounds"));
        }
        if offset < header_len {
            return Err(fmt_err(name, "section overlaps the header"));
        }
        if sections.iter().any(|s| s.id == id) {
            return Err(fmt_err(name, "duplicate section"));
        }
        sections.push(SectionInfo { id, name, offset, len, checksum });
    }
    if let Some(s) = SECTIONS.iter().find(|s| s.required && sections.iter().all(|e| e.id != s.id)) {
        return Err(fmt_err(s.name, "section missing"));
    }
    let file = Verified { bytes, kind, sections };
    let slices = file.sections.iter().map(|s| file.section(s.id).map(|(b, _)| b));
    let sums = digests(&slices.collect::<Result<Vec<_>, _>>()?, pool);
    // Checked in table order, so the first corrupt section is reported.
    if let Some((s, _)) = file.sections.iter().zip(&sums).find(|(s, &sum)| s.checksum != sum) {
        return Err(corrupt(s.name, "section checksum mismatch"));
    }
    Ok(file)
}

/// Parses and checksum-verifies a snapshot file's header and section
/// table without constructing an index — an `fsck` for snapshots, also
/// used by the corruption-matrix tests to locate section boundaries.
///
/// # Errors
/// Any of the typed `Snapshot*` variants of [`IndexError`]; a file that
/// passes `describe` has a structurally sound envelope (its sections'
/// *contents* are only fully validated by [`Index::open`]).
pub fn describe<P: AsRef<Path>>(path: P) -> Result<SnapshotInfo, IndexError> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read", &e))?;
    let file = parse_and_verify(&bytes, None)?;
    let meta = decode_meta(file.section(SEC_META)?.0)?;
    Ok(SnapshotInfo {
        format_version: SNAPSHOT_FORMAT_VERSION,
        summarization_kind: file.kind,
        file_len: u64_of(bytes.len()),
        capabilities: SnapshotCapabilities {
            n_rows: meta.n_slots,
            series_len: meta.series_len,
            word_len: meta.word_len,
            leaf_capacity: meta.leaf_capacity,
            quant_grid_present: file.section(SEC_QUANT).is_ok(),
            kernel_tier: sofa_simd::active_tier().name(),
        },
        sections: file.sections,
    })
}

// ---------------------------------------------------------------------
// Removes the temporary file on failure (any early return or panic
// between creation and the atomic rename).

struct TmpGuard {
    path: std::path::PathBuf,
    armed: bool,
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

const ZERO_PAD: [u8; SECTION_ALIGN as usize] = [0; SECTION_ALIGN as usize];

/// The header and section table of a file holding `sections` (id,
/// bytes) in order, sealed with its digest, plus each section's offset
/// (64-byte aligned, so mapped arenas are always well-aligned for
/// `f32`/`u32` casts). The section digests are hashed on `pool`.
fn seal_header(
    kind: u32,
    sections: &[(u32, &[u8])],
    pool: Option<&ExecPool>,
) -> (Vec<u8>, Vec<u64>) {
    let n = sections.len();
    let mut header = Vec::with_capacity(HEADER_FIXED + TABLE_ENTRY * n + 8);
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    // The section list is a fixed enumeration of at most 7 entries.
    put(&mut header, &[SNAPSHOT_FORMAT_VERSION, ENDIAN_TAG, kind, n as u32]);
    let bytes: Vec<&[u8]> = sections.iter().map(|&(_, b)| b).collect();
    let sums = digests(&bytes, pool);
    let mut cursor = align_up(u64_of(HEADER_FIXED + TABLE_ENTRY * n + 8), SECTION_ALIGN);
    let mut offsets = Vec::with_capacity(n);
    for (&(id, bytes), sum) in sections.iter().zip(sums) {
        put(&mut header, &[id, 0]);
        put(&mut header, &[cursor, u64_of(bytes.len()), sum]);
        offsets.push(cursor);
        cursor = align_up(cursor + u64_of(bytes.len()), SECTION_ALIGN);
    }
    let seal = digests(&[&header], None)[0];
    put(&mut header, &[seal]);
    (header, offsets)
}

// ---------------------------------------------------------------------
// Snapshot (write) side.

impl<S: SnapshotSummarization> Index<S> {
    /// Writes a crash-safe snapshot of this index to `path`, returning
    /// the file size in bytes.
    ///
    /// The write is atomic: a sibling `<name>.tmp` is written and fsynced
    /// first, then renamed over `path`, then the parent directory is
    /// fsynced — a crash at any point leaves either the previous file or
    /// the complete new one. The temporary file is removed on failure.
    ///
    /// # Errors
    /// [`IndexError::SnapshotIo`] on any filesystem failure.
    pub fn snapshot<P: AsRef<Path>>(&self, path: P) -> Result<u64, IndexError> {
        let path = path.as_ref();
        let encoded: Vec<(u32, Cow<'_, [u8]>)> =
            SECTIONS.iter().filter_map(|s| Some((s.id, self.encode_section(s.id)?))).collect();
        let sections: Vec<(u32, &[u8])> = encoded.iter().map(|(id, b)| (*id, &b[..])).collect();
        let (header, offsets) = seal_header(S::KIND, &sections, Some(&self.pool));

        let file_name =
            path.file_name().ok_or_else(|| io_err("create", &"snapshot path has no file name"))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let mut guard = TmpGuard { path: tmp.clone(), armed: true };

        let mut f = File::create(&tmp).map_err(|e| io_err("create", &e))?;
        f.write_all(&header).map_err(|e| io_err("write", &e))?;
        let mut pos = u64_of(header.len());
        for (&(_, bytes), &off) in sections.iter().zip(offsets.iter()) {
            failpoint::fire(SNAPSHOT_WRITE_FAILPOINT).map_err(|e| io_err("write-section", &e))?;
            let pad = (off - pos) as usize;
            f.write_all(&ZERO_PAD[..pad]).map_err(|e| io_err("write", &e))?;
            f.write_all(bytes).map_err(|e| io_err("write", &e))?;
            pos = off + u64_of(bytes.len());
        }
        f.sync_all().map_err(|e| io_err("fsync", &e))?;
        drop(f);

        failpoint::fire(SNAPSHOT_RENAME_FAILPOINT).map_err(|e| io_err("rename", &e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err("rename", &e))?;
        guard.armed = false;

        // Durability of the rename itself: fsync the parent directory.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let dir = File::open(parent).map_err(|e| io_err("fsync-dir", &e))?;
        dir.sync_all().map_err(|e| io_err("fsync-dir", &e))?;
        Ok(pos)
    }

    /// The bytes of section `id` (laid out as the module doc says), or
    /// `None` for the quant section of an index without a grid. The
    /// arenas and the slot map are written straight from memory.
    fn encode_section(&self, id: u32) -> Option<Cow<'_, [u8]>> {
        let mut out = Vec::new();
        match id {
            SEC_META => {
                let c = &self.config;
                let lens =
                    [self.series_len, self.word_len, self.slot_to_row.len(), c.leaf_capacity];
                put(&mut out, &lens.map(u64_of));
                put(&mut out, &[u8::from(c.auto_repack_pct.is_some())]);
                put(&mut out, &[c.auto_repack_pct.unwrap_or(0)]);
                put(&mut out, &[self.build_breakdown.0, self.build_breakdown.1]);
            }
            SEC_SUMM => self.summarization.encode_summarization(&mut out),
            SEC_DATA => return Some(Cow::Borrowed(sofa_mmap::as_bytes(&self.data[..]))),
            SEC_WORDS => return Some(Cow::Borrowed(&self.words[..])),
            SEC_MAPPING => return Some(Cow::Borrowed(sofa_mmap::as_bytes(&self.slot_to_row))),
            SEC_TREE => {
                for st in &self.subtrees {
                    put(&mut out, &[st.key, u64_of(st.nodes.len())]);
                    for node in &st.nodes {
                        match &node.kind {
                            NodeKind::Leaf { rows, pack } => {
                                let tail = &rows[pack.len as usize..];
                                put(&mut out, &[0u8]);
                                // Lossless: a leaf holds at most every row.
                                put(&mut out, &[pack.len, tail.len() as u32]);
                                put(&mut out, tail);
                            }
                            NodeKind::Inner { left, right, split_pos, split_bit } => {
                                put(&mut out, &[1u8]);
                                put(&mut out, &[*left, *right]);
                                put(&mut out, &[*split_pos]);
                                put(&mut out, &[*split_bit]);
                            }
                        }
                    }
                }
            }
            SEC_QUANT => {
                let grid = self.quant_grid.as_ref()?;
                put(&mut out, &[grid.scale()]);
                put(&mut out, grid.mins());
                for pack in self.packs() {
                    put(&mut out, &[u8::from(pack.quant.is_some())]);
                    if let Some(qb) = &pack.quant {
                        put(&mut out, qb.codes());
                        put(&mut out, qb.errs());
                    }
                }
            }
            _ => unreachable!("section {id} is not in the section table"),
        }
        Some(Cow::Owned(out))
    }

    /// Every leaf's pack, in file order.
    fn packs(&self) -> impl Iterator<Item = &LeafPack> {
        self.subtrees.iter().flat_map(|st| st.nodes.iter()).filter_map(Node::pack)
    }
}

// ---------------------------------------------------------------------
// Open (read) side.

struct Meta {
    series_len: usize,
    word_len: usize,
    n_slots: usize,
    leaf_capacity: usize,
    auto_repack_pct: Option<u32>,
    build_breakdown: (f64, f64),
}

fn decode_flag(r: &mut SectionReader<'_>, what: &str) -> Result<bool, IndexError> {
    match r.get::<u8>()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(r.invalid(format!("{what} flag {v} is not a bool"))),
    }
}

fn decode_meta(buf: &[u8]) -> Result<Meta, IndexError> {
    let mut r = SectionReader::new(buf, "meta");
    let series_len = r.count(0)?;
    let word_len = r.count(0)?;
    let n_slots = r.count(0)?;
    let leaf_capacity = r.count(0)?;
    let has_auto = decode_flag(&mut r, "auto-repack")?;
    let auto_pct = r.get()?;
    let build_breakdown = (r.get()?, r.get()?);
    r.finish()?;
    if series_len == 0 {
        return Err(layout("meta", "series length is zero"));
    }
    if word_len == 0 || word_len > crate::node::MAX_WORD_LEN {
        return Err(layout("meta", format!("word length {word_len} out of range 1..=64")));
    }
    if n_slots == 0 {
        return Err(layout("meta", "snapshot holds zero rows"));
    }
    if u64_of(n_slots) > u64::from(u32::MAX) {
        return Err(layout("meta", format!("{n_slots} rows exceed the u32 row-id space")));
    }
    if n_slots.checked_mul(series_len).is_none() || n_slots.checked_mul(word_len).is_none() {
        return Err(layout("meta", "arena extent overflows the address space"));
    }
    if leaf_capacity == 0 {
        return Err(layout("meta", "leaf capacity is zero"));
    }
    Ok(Meta {
        series_len,
        word_len,
        n_slots,
        leaf_capacity,
        auto_repack_pct: has_auto.then_some(auto_pct),
        build_breakdown,
    })
}

/// Maps section `id` as the `n_slots × width` arena of `T` it must hold,
/// without copying.
fn map_arena<T: Pod>(
    map: &Arc<Mmap>,
    file: &Verified<'_>,
    id: u32,
    n_slots: usize,
    width: usize,
) -> Result<Arena<T>, IndexError> {
    let name = section_name(id);
    let (buf, offset) = file.section(id)?;
    // `decode_meta` bounded `n_slots × width` by the address space.
    let elems = n_slots * width;
    let size = std::mem::size_of::<T>();
    if elems.checked_mul(size) != Some(buf.len()) {
        return Err(layout(
            name,
            format!(
                "{name} arena holds {} bytes, layout requires {n_slots} rows x {width} x {size}",
                buf.len()
            ),
        ));
    }
    Arena::mapped(Arc::clone(map), offset, elems).map_err(|d| fmt_err(name, d))
}

/// Reads the slot map and derives its inverse. Filling the inverse is
/// the permutation check: a row out of range, or in two slots, fails
/// closed (either would let a query read the wrong series for a row).
fn decode_mapping(buf: &[u8], n_slots: usize) -> Result<(Vec<u32>, Vec<u32>), IndexError> {
    let mut r = SectionReader::new(buf, "mapping");
    let slot_to_row: Vec<u32> = r.vec(n_slots)?;
    r.finish()?;
    // `u32::MAX` marks a row not yet placed: no slot reaches it, as
    // `decode_meta` bounds the row count by `u32::MAX`.
    let mut row_to_slot = vec![u32::MAX; n_slots];
    for (slot, &row) in slot_to_row.iter().enumerate() {
        match row_to_slot.get_mut(row as usize) {
            None => {
                return Err(corrupt(
                    "mapping",
                    format!("slot {slot} maps to out-of-range row {row}"),
                ))
            }
            Some(s) if *s != u32::MAX => {
                return Err(corrupt("mapping", format!("row {row} occupies two slots")))
            }
            // Lossless: slot < n_slots <= u32::MAX.
            Some(s) => *s = slot as u32,
        }
    }
    Ok((row_to_slot, slot_to_row))
}

/// Decodes the forest: subtrees follow one another to the section's
/// end. Each leaf comes back holding only its tail rows and its packed
/// length ([`place_packs`] derives the rest), each node with an empty
/// envelope ([`rebuild_envelopes`] fills them). Returns the subtrees and
/// which rows are tail rows.
fn decode_tree(
    buf: &[u8],
    meta: &Meta,
    symbol_bits: u8,
) -> Result<(Vec<Subtree>, Vec<bool>), IndexError> {
    let mut r = SectionReader::new(buf, "tree");
    let mut subtrees: Vec<Subtree> = Vec::new();
    let mut is_tail = vec![false; meta.n_slots];
    while r.pos < r.buf.len() {
        let si = subtrees.len();
        let key: u64 = r.get()?;
        if subtrees.last().is_some_and(|prev| key <= prev.key) {
            return Err(r.invalid("subtree keys are not strictly ascending"));
        }
        // Lossless: `decode_meta` bounds the word length by 64.
        if key.checked_shr(meta.word_len as u32).is_some_and(|high| high != 0) {
            return Err(r.invalid(format!("subtree key {key:#x} has bits past the word length")));
        }
        // A node is at least a tag and two `u32`.
        let n_nodes = r.count(9)?;
        // Whether each node has a parent: every child comes after its one
        // parent, so once every node but the root has one, the nodes form
        // one tree rooted at node 0 (the shape the builder emits).
        let mut parented = vec![false; n_nodes];
        let mut nodes = Vec::with_capacity(n_nodes);
        for ni in 0..n_nodes {
            let kind = match r.get::<u8>()? {
                0 => {
                    let len = r.get()?;
                    let n_tail: u32 = r.get()?;
                    let rows: Vec<u32> = r.vec(n_tail as usize)?;
                    for &row in &rows {
                        match is_tail.get_mut(row as usize) {
                            None => {
                                return Err(r.invalid(format!("leaf holds out-of-range row {row}")))
                            }
                            Some(true) => {
                                return Err(r.invalid(format!("row {row} appears in two tails")))
                            }
                            Some(tail) => *tail = true,
                        }
                    }
                    NodeKind::Leaf { rows, pack: LeafPack { len, ..LeafPack::default() } }
                }
                1 => {
                    let (left, right): (u32, u32) = (r.get()?, r.get()?);
                    let (split_pos, split_bit): (u16, u8) = (r.get()?, r.get()?);
                    for child in [left, right] {
                        match parented.get_mut(child as usize) {
                            Some(seen) if child as usize > ni && !*seen => *seen = true,
                            _ => {
                                return Err(r.invalid(format!(
                                    "inner node {ni} of subtree {si} has a child {child} out of \
                                     range, before it or shared"
                                )))
                            }
                        }
                    }
                    if usize::from(split_pos) >= meta.word_len {
                        return Err(r.invalid(format!(
                            "split position {split_pos} exceeds word length {}",
                            meta.word_len
                        )));
                    }
                    if split_bit >= symbol_bits {
                        return Err(r.invalid(format!(
                            "split bit {split_bit} is past the {symbol_bits}-bit symbols"
                        )));
                    }
                    NodeKind::Inner { left, right, split_pos, split_bit }
                }
                tag => return Err(r.invalid(format!("unknown node tag {tag}"))),
            };
            nodes.push(Node { envelope: SymbolEnvelope::empty(meta.word_len), kind });
        }
        if parented.iter().skip(1).any(|&seen| !seen) || nodes.is_empty() {
            return Err(r.invalid(format!("subtree {si} is not one tree rooted at node 0")));
        }
        subtrees.push(Subtree { key, nodes });
    }
    Ok((subtrees, is_tail))
}

/// The slot walk of the module doc: gives every leaf with a packed
/// length its run's start and, ahead of its tail, the rows of that run.
/// Every row then sits in exactly one leaf: a tail row in the tail that
/// lists it, any other row in the one run that claims its slot.
fn place_packs(
    subtrees: &mut [Subtree],
    slot_to_row: &[u32],
    is_tail: &[bool],
) -> Result<(), IndexError> {
    let tail_slot = |slot: usize| is_tail[slot_to_row[slot] as usize];
    let mut cursor = 0usize;
    let mut tails_begun = false;
    for st in subtrees {
        // Leaves hold only their tail rows so far.
        tails_begun |= st.leaves().any(|leaf| !leaf.rows().is_empty());
        for node in &mut st.nodes {
            let NodeKind::Leaf { rows, pack } = &mut node.kind else { continue };
            let len = pack.len as usize;
            if len == 0 {
                continue;
            }
            while cursor < slot_to_row.len() && tail_slot(cursor) {
                if !tails_begun {
                    return Err(corrupt(
                        "tree",
                        format!(
                            "tail row {} at slot {cursor} sits below the first subtree with a tail",
                            slot_to_row[cursor]
                        ),
                    ));
                }
                cursor += 1;
            }
            let run = cursor
                .checked_add(len)
                .and_then(|end| slot_to_row.get(cursor..end))
                .filter(|run| run.iter().all(|&row| !is_tail[row as usize]))
                .ok_or_else(|| {
                    corrupt(
                        "tree",
                        format!(
                            "packed run of {len} rows at slot {cursor} reaches a tail slot or \
                             the arena end"
                        ),
                    )
                })?;
            // Lossless: cursor < n_slots <= u32::MAX.
            pack.start = cursor as u32;
            *rows = [run, &rows[..]].concat();
            cursor += len;
        }
    }
    if let Some(slot) = (cursor..slot_to_row.len()).find(|&slot| !tail_slot(slot)) {
        return Err(corrupt(
            "tree",
            format!("slot {slot} holds row {}, which no leaf claims", slot_to_row[slot]),
        ));
    }
    Ok(())
}

/// Rebuilds every node's symbol envelope — envelopes are not stored in
/// the snapshot: each leaf's from the (validated) word arena and slot
/// map, then each inner node's from its children, children first (every
/// child's id is larger than its parent's, so a reverse sweep sees both
/// children before the parent). Then checks every subtree's key against
/// its rows: the root gate and the seed's home-subtree search
/// trust the key, so each non-empty root envelope's min and max symbol
/// at position `j` must both carry key bit `j` as their top bit.
fn rebuild_envelopes(
    subtrees: &mut [Subtree],
    words: &[u8],
    row_to_slot: &[u32],
    l: usize,
    symbol_bits: u8,
) -> Result<(), IndexError> {
    for (si, st) in subtrees.iter_mut().enumerate() {
        for i in (0..st.nodes.len()).rev() {
            let envelope = match &st.nodes[i].kind {
                NodeKind::Leaf { rows, .. } => {
                    let slots = rows.iter().map(|&row| row_to_slot[row as usize] as usize);
                    SymbolEnvelope::of_slots(l, words, slots)
                }
                NodeKind::Inner { left, right, .. } => {
                    let mut envelope = st.nodes[*left as usize].envelope.clone();
                    envelope.cover(&st.nodes[*right as usize].envelope);
                    envelope
                }
            };
            st.nodes[i].envelope = envelope;
        }
        let root = &st.nodes[0].envelope;
        if root.is_empty() {
            continue;
        }
        let top = |sym: u8| u64::from(sym >> (symbol_bits - 1));
        let key_of = |syms: &[u8]| syms.iter().enumerate().fold(0, |k, (j, &s)| k | top(s) << j);
        if key_of(root.min()) != st.key || key_of(root.max()) != st.key {
            return Err(corrupt(
                "tree",
                format!("subtree {si}'s key {:#x} disagrees with its rows' words", st.key),
            ));
        }
    }
    Ok(())
}

/// Decodes the quantizer grid of a `series_len` index and attaches each
/// leaf's code block, in leaf order. A block covers its leaf's packed
/// run, so its code and error-bound counts follow from the packed length
/// ([`QuantBlock::from_parts`] checks the shape). The codes stay in the
/// mapping (`map`, with the section at `offset`): only the per-row error
/// bounds are copied out.
fn decode_quant(
    map: &Arc<Mmap>,
    (buf, offset): (&[u8], usize),
    series_len: usize,
    subtrees: &mut [Subtree],
) -> Result<QuantGrid, IndexError> {
    // Series longer than the tier covers leave no grid: the refine path
    // quantizes queries into a buffer of the cap's length.
    if series_len > QUANT_REFINE_MAX_LEN {
        return Err(layout(
            "quant",
            format!(
                "quantizer grid for length-{series_len} series, past the tier's cap of \
                 {QUANT_REFINE_MAX_LEN}"
            ),
        ));
    }
    let mut r = SectionReader::new(buf, "quant");
    let scale = r.get()?;
    let mins = r.vec(series_len)?;
    let grid = QuantGrid::from_parts(series_len, scale, mins).map_err(|d| corrupt("quant", d))?;
    for node in subtrees.iter_mut().flat_map(|st| &mut st.nodes) {
        let NodeKind::Leaf { pack, .. } = &mut node.kind else { continue };
        if !decode_flag(&mut r, "has-codes")? {
            continue;
        }
        let n = pack.len as usize;
        let lanes = n.div_ceil(sofa_simd::BLOCK_LANES) * sofa_simd::BLOCK_LANES;
        let codes_len = lanes
            .checked_mul(series_len)
            .ok_or_else(|| r.invalid(format!("codes for {n} rows overflow the byte range")))?;
        let at = offset + r.pos;
        r.take(codes_len)?;
        let codes =
            Arena::mapped(Arc::clone(map), at, codes_len).map_err(|d| corrupt("quant", d))?;
        let errs = r.vec(lanes)?;
        let block =
            QuantBlock::from_parts(&grid, n, codes, errs).map_err(|d| corrupt("quant", d))?;
        pack.quant = Some(block);
    }
    r.finish()?;
    Ok(grid)
}

impl<S: SnapshotSummarization> Index<S> {
    /// Opens a snapshot written by [`Index::snapshot`], serving the two
    /// big arenas straight out of a memory mapping (zero copies, zero
    /// deserialization) and rehydrating the small structures. The worker
    /// pool is sized to the machine's available parallelism; use
    /// [`Index::open_with_pool`] to share threads across indexes.
    ///
    /// Every byte is validated before use: corrupt, truncated, foreign
    /// or layout-mismatched files fail closed with a typed error.
    ///
    /// # Errors
    /// [`IndexError::SnapshotIo`] / [`IndexError::SnapshotFormat`] /
    /// [`IndexError::SnapshotCorrupt`] / [`IndexError::SnapshotLayout`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, IndexError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::open_with_pool(path, ExecPool::shared(threads))
    }

    /// [`Index::open`] on a caller-supplied worker pool.
    ///
    /// # Errors
    /// As [`Index::open`].
    pub fn open_with_pool<P: AsRef<Path>>(
        path: P,
        pool: Arc<ExecPool>,
    ) -> Result<Self, IndexError> {
        let path = path.as_ref();
        let f = File::open(path).map_err(|e| io_err("open", &e))?;
        let map = Arc::new(Mmap::map(&f).map_err(|e| io_err("mmap", &e))?);
        // The checksum sweep below touches every byte front to back —
        // let the kernel read ahead aggressively for that pass.
        map.advise(Advice::Sequential);
        let file = parse_and_verify(map.as_bytes(), Some(&pool))?;
        if file.kind != S::KIND {
            let (kind, want, name) = (file.kind, S::KIND, S::KIND_NAME);
            let detail =
                format!("snapshot holds summarization kind {kind}, expected {want} ({name})");
            return Err(fmt_err("header", detail));
        }

        let meta = decode_meta(file.section(SEC_META)?.0)?;
        let mut summ_reader = SectionReader::new(file.section(SEC_SUMM)?.0, "summarization");
        let summarization = S::decode_summarization(&mut summ_reader)?;
        summ_reader.finish()?;
        let model = (summarization.series_len(), summarization.word_len());
        if model != (meta.series_len, meta.word_len) {
            return Err(layout(
                "summarization",
                format!(
                    "model for length-{} series and {}-symbol words, meta declares {} and {}",
                    model.0, model.1, meta.series_len, meta.word_len
                ),
            ));
        }

        // The two big arenas: bounds/alignment-validated windows into the
        // mapping — this is the zero-deserialization core of the open.
        let data = map_arena(&map, &file, SEC_DATA, meta.n_slots, meta.series_len)?;
        let words: Arena<u8> = map_arena(&map, &file, SEC_WORDS, meta.n_slots, meta.word_len)?;
        // A symbol past the alphabet has no interval: the per-row bound
        // would index past the breakpoint table. Reject it here (the
        // checksums do not, as they are not a MAC).
        let alphabet = summarization.alphabet();
        if alphabet < 256 {
            if let Some(i) = words.iter().position(|&sym| usize::from(sym) >= alphabet) {
                return Err(corrupt(
                    "words",
                    format!(
                        "slot {} holds symbol {} outside the alphabet of {alphabet}",
                        i / meta.word_len,
                        words[i]
                    ),
                ));
            }
        }

        let (row_to_slot, slot_to_row) =
            decode_mapping(file.section(SEC_MAPPING)?.0, meta.n_slots)?;
        let symbol_bits = summarization.symbol_bits();
        let (mut subtrees, is_tail) = decode_tree(file.section(SEC_TREE)?.0, &meta, symbol_bits)?;
        place_packs(&mut subtrees, &slot_to_row, &is_tail)?;
        let quant = file.section(SEC_QUANT).ok();
        let quant_grid =
            quant.map(|q| decode_quant(&map, q, meta.series_len, &mut subtrees)).transpose()?;
        rebuild_envelopes(&mut subtrees, &words, &row_to_slot, meta.word_len, symbol_bits)?;
        let tail_rows = is_tail.iter().filter(|&&tail| tail).count();

        // Validation is done; from here on the mapping serves leaf
        // refinements, which land on arbitrary slot runs — sequential
        // read-ahead would only pollute the page cache.
        map.advise(Advice::Random);

        let threads = pool.threads();
        let config = IndexConfig {
            leaf_capacity: meta.leaf_capacity,
            num_threads: threads,
            auto_repack_pct: meta.auto_repack_pct,
        };
        let query_env = sofa_summaries::QueryEnv::new(&summarization);
        Ok(Index {
            summarization,
            config,
            pool,
            data,
            words,
            row_to_slot,
            slot_to_row,
            subtrees,
            series_len: meta.series_len,
            word_len: meta.word_len,
            build_breakdown: meta.build_breakdown,
            counters: crate::stats::KernelCounters::default(),
            query_env,
            quant_grid,
            scratches: parking_lot::Mutex::new(Vec::with_capacity(threads + 2)),
            tail_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use sofa_summaries::SfaConfig;

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                data.push(
                    (x * 0.2 + r as f32).sin() + 0.5 * (x * (0.5 + (r % 7) as f32 * 0.2)).cos(),
                );
            }
        }
        data
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("sofa-snap-{}-{tag}-{id}.idx", std::process::id()))
    }

    fn sax_index(count: usize) -> Index<ISax> {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        Index::build(sax, &dataset(count, 64), IndexConfig::with_threads(2).leaf_capacity(25))
            .expect("build")
    }

    fn assert_same_answers<S: Summarization>(
        a: &Index<S>,
        b: &Index<S>,
        queries: &[f32],
        n: usize,
    ) {
        for q in queries.chunks(n) {
            let x = a.knn(q, 5).expect("query a");
            let y = b.knn(q, 5).expect("query b");
            for (na, nb) in x.iter().zip(y.iter()) {
                assert_eq!(na.row, nb.row);
                assert_eq!(na.dist_sq.to_bits(), nb.dist_sq.to_bits(), "row {}", na.row);
            }
        }
    }

    #[test]
    fn isax_round_trip_is_bit_identical() {
        let idx = sax_index(600);
        let path = tmp_path("sax-rt");
        let bytes = idx.snapshot(&path).expect("snapshot");
        assert!(bytes > 0);
        let opened = Index::<ISax>::open(&path).expect("open");
        assert!(opened.is_mapped());
        assert_eq!(opened.n_series(), idx.n_series());
        assert!(opened.stats().mapped_storage);
        assert_same_answers(&idx, &opened, &dataset(10, 64), 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sfa_round_trip_preserves_model_and_answers() {
        let n = 64;
        let data = dataset(500, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 8, alphabet: 64, ..Default::default() });
        let idx = Index::build(sfa, &data, IndexConfig::with_threads(2).leaf_capacity(30))
            .expect("build");
        let path = tmp_path("sfa-rt");
        idx.snapshot(&path).expect("snapshot");
        let opened = Index::<Sfa>::open(&path).expect("open");
        assert_eq!(opened.summarization().name(), idx.summarization().name());
        assert_eq!(opened.summarization().model().bins, idx.summarization().model().bins);
        assert_same_answers(&idx, &opened, &dataset(10, n), n);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn describe_lists_all_sections() {
        let idx = sax_index(300);
        let path = tmp_path("describe");
        idx.snapshot(&path).expect("snapshot");
        let info = describe(&path).expect("describe");
        assert_eq!(info.format_version, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(info.summarization_kind, <ISax as SnapshotSummarization>::KIND);
        // Every section of the table, in its order; quant iff a grid.
        assert!(idx.quant_grid.is_some(), "a length-64 index trains a grid");
        let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
        assert_eq!(names, SECTIONS.map(|s| s.name));
        for s in &info.sections {
            assert_eq!(s.offset % 64, 0, "section {} misaligned", s.name);
            assert!(s.offset + s.len <= info.file_len);
        }
        // The capability matrix reflects the built index's config.
        let caps = &info.capabilities;
        assert_eq!(caps.n_rows, 300);
        assert_eq!(caps.series_len, 64);
        assert_eq!(caps.word_len, 8);
        assert_eq!(caps.leaf_capacity, 25);
        assert!(caps.quant_grid_present);
        assert_eq!(caps.kernel_tier, sofa_simd::active_tier().name());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn readme_names_the_format_version() {
        let readme = include_str!("../../../README.md");
        let want = format!("format version {SNAPSHOT_FORMAT_VERSION}:");
        assert!(readme.contains(&want), "the README's on-disk format must say {want:?}");
    }

    #[test]
    fn wrong_kind_and_foreign_files_fail_closed() {
        let idx = sax_index(200);
        let path = tmp_path("kind");
        idx.snapshot(&path).expect("snapshot");
        // An iSAX snapshot must not open as SFA.
        match Index::<Sfa>::open(&path) {
            Err(IndexError::SnapshotFormat { section, .. }) => assert_eq!(section, "header"),
            Err(other) => panic!("expected SnapshotFormat, got {other:?}"),
            Ok(_) => panic!("wrong-kind open must fail"),
        }
        // A foreign file is rejected at the magic check.
        std::fs::write(&path, b"definitely not a snapshot").expect("write");
        match Index::<ISax>::open(&path) {
            Err(IndexError::SnapshotFormat { section, .. }) => assert_eq!(section, "header"),
            Err(other) => panic!("expected SnapshotFormat, got {other:?}"),
            Ok(_) => panic!("foreign-file open must fail"),
        }
        // Zero-length files too.
        std::fs::write(&path, b"").expect("write");
        assert!(matches!(Index::<ISax>::open(&path), Err(IndexError::SnapshotFormat { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_1_snapshot_fails_closed_with_format_error() {
        let idx = sax_index(200);
        let path = tmp_path("v1");
        // Version 1 files carry hierarchy-level collect state, version 2
        // files a node-block collect section, version 3 files per-leaf
        // interval blocks and version 4 files per-subtree stale-leaf
        // counts and has-pack flags, none of which this build reads;
        // version 5 files seal their sections with another checksum,
        // version 6 files carry two quant-switch flags in their meta,
        // version 7 files a prefix label on every tree node and version 8
        // files a leaf-packs section and both directions of the slot map.
        // The version check rejects them before any section is
        // interpreted.
        for version in [1u32, 2, 3, 4, 5, 6, 7, 8] {
            idx.snapshot(&path).expect("snapshot");
            let mut bytes = std::fs::read(&path).expect("read");
            bytes[8..12].copy_from_slice(&version.to_ne_bytes());
            std::fs::write(&path, &bytes).expect("write");
            match Index::<ISax>::open(&path) {
                Err(IndexError::SnapshotFormat { section, detail }) => {
                    assert_eq!(section, "header");
                    let want = format!("unsupported format version {version}");
                    assert!(detail.contains(&want), "{detail}");
                }
                Err(other) => panic!("expected SnapshotFormat, got {other:?}"),
                Ok(_) => panic!("v{version} open must fail"),
            }
            assert!(matches!(describe(&path), Err(IndexError::SnapshotFormat { .. })));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quant_section_past_the_tier_length_cap_fails_closed() {
        // Series longer than the quant tier covers leave no grid; a quant
        // section for them must not reach the refine path, whose query
        // codes live in a buffer of the cap's length.
        let n = QUANT_REFINE_MAX_LEN + 8;
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx =
            Index::build(sax, &dataset(60, n), IndexConfig::with_threads(2).leaf_capacity(25))
                .expect("build");
        assert!(idx.quant_grid.is_none());
        let path = tmp_path("grid-cap");
        idx.snapshot(&path).expect("snapshot");
        assert!(!describe(&path).expect("describe").capabilities.quant_grid_present);
        // The file's sections plus a valid grid with no codes on any leaf.
        let mut quant = Vec::new();
        put(&mut quant, &[1.0f32]);
        put(&mut quant, &vec![0.0f32; n]);
        put(&mut quant, &vec![0u8; idx.packs().count()]);
        let bytes = std::fs::read(&path).expect("read");
        let file = parse_and_verify(&bytes, None).expect("valid snapshot");
        let mut sections: Vec<(u32, &[u8])> =
            file.sections.iter().map(|s| (s.id, file.section(s.id).expect("section").0)).collect();
        sections.push((SEC_QUANT, &quant));
        std::fs::write(&path, assemble(ISax::KIND, &sections, None)).expect("write");
        assert!(describe(&path).expect("describe").capabilities.quant_grid_present);
        match Index::<ISax>::open(&path) {
            Err(IndexError::SnapshotLayout { section, detail }) => {
                assert_eq!(section, "quant");
                assert!(detail.contains("cap"), "{detail}");
            }
            Err(other) => panic!("expected SnapshotLayout, got {other:?}"),
            Ok(_) => panic!("a grid past the length cap must fail the open"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Rewrites section `id` of a snapshot file through `patch`, then
    /// re-seals the section and header checksums, so only the content
    /// checks of `open` can object.
    fn patch_section(path: &Path, id: u32, patch: impl FnOnce(&mut [u8])) {
        let mut bytes = std::fs::read(path).expect("read");
        let file = parse_and_verify(&bytes, None).expect("valid snapshot");
        let i = file.sections.iter().position(|s| s.id == id).expect("section");
        let (buf, offset) = file.section(id).expect("section");
        let (section, n_sections) = (offset..offset + buf.len(), file.sections.len());
        patch(&mut bytes[section.clone()]);
        let sum = digests(&[&bytes[section]], None)[0];
        let entry = HEADER_FIXED + TABLE_ENTRY * i;
        bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_ne_bytes());
        let table_end = HEADER_FIXED + TABLE_ENTRY * n_sections;
        let header_sum = digests(&[&bytes[..table_end]], None)[0];
        bytes[table_end..table_end + 8].copy_from_slice(&header_sum.to_ne_bytes());
        std::fs::write(path, &bytes).expect("write");
    }

    /// Opens `path` expecting a `SnapshotCorrupt` in `section` whose
    /// detail mentions `want`.
    fn assert_corrupt(path: &Path, section: &str, want: &str) {
        match Index::<ISax>::open(path) {
            Err(IndexError::SnapshotCorrupt { section: got, detail }) => {
                assert_eq!(got, section, "{detail}");
                assert!(detail.contains(want), "{detail}");
            }
            Err(other) => panic!("expected SnapshotCorrupt, got {other:?}"),
            Ok(_) => panic!("a corrupt {section} section must fail the open ({want})"),
        }
    }

    /// The byte offset in the tree section of each subtree and of each of
    /// its nodes. The section holds per subtree a u64 key and a u64 node
    /// count, then per node a tag byte and either a u32 packed length, a
    /// u32 tail count and the tail rows (leaf) or two u32 children, a u16
    /// position and a u8 bit (inner).
    fn tree_offsets(subtrees: &[Subtree]) -> Vec<(usize, Vec<usize>)> {
        let mut at = 0;
        let mut offsets = Vec::new();
        for st in subtrees {
            let start = at;
            at += 16;
            let mut nodes = Vec::new();
            for node in &st.nodes {
                nodes.push(at);
                at += if node.is_leaf() { 9 + 4 * node.tail_len() } else { 12 };
            }
            offsets.push((start, nodes));
        }
        offsets
    }

    #[test]
    fn packed_length_past_its_run_fails_closed() {
        let idx = sax_index(300);
        let st = &idx.subtrees()[0];
        let (ni, leaf) = st.nodes.iter().enumerate().find(|(_, n)| n.is_leaf()).expect("leaf");
        let len = leaf.pack().expect("pack").len;
        let at = tree_offsets(idx.subtrees())[0].1[ni];
        let set_len = |len: u32| {
            move |tree: &mut [u8]| {
                tree[at + 1..at + 5].copy_from_slice(&len.to_ne_bytes());
            }
        };
        let path = tmp_path("pack-len");
        idx.snapshot(&path).expect("snapshot");
        let original = std::fs::read(&path).expect("read");
        // One row too many shifts every later run by a slot, so the last
        // one runs past the arena end.
        patch_section(&path, SEC_TREE, set_len(len + 1));
        assert_corrupt(&path, "tree", "the arena end");
        // One row too few leaves the last slot to no leaf.
        std::fs::write(&path, &original).expect("write");
        patch_section(&path, SEC_TREE, set_len(len - 1));
        assert_corrupt(&path, "tree", "which no leaf claims");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_row_below_the_first_tail_or_in_a_packed_run_fails_closed() {
        let mut idx = sax_index(300);
        // A copy of a row of a leaf with room joins that leaf's tail, as
        // row 300 at slot 300, so every subtree before it stays tail-free.
        let (s, row) = idx.subtrees()[1..]
            .iter()
            .zip(1..)
            .find_map(|(st, s)| {
                let leaf = st.leaves().find(|leaf| (2..25).contains(&leaf.rows().len()))?;
                Some((s, leaf.rows()[0] as usize))
            })
            .expect("a leaf with room past the first subtree");
        idx.insert(&dataset(300, 64)[row * 64..(row + 1) * 64]).expect("insert");
        let subtrees = idx.subtrees();
        assert_eq!(subtrees.iter().position(Subtree::has_tail), Some(s));
        assert_eq!(idx.row_to_slot[300], 300);
        let leaf = subtrees[s].leaves().find(|leaf| leaf.rows().contains(&300)).expect("leaf");
        let packed = leaf.pack().expect("pack");
        let swap = |a: usize| {
            move |map: &mut [u8]| {
                for i in 0..4 {
                    map.swap(4 * a + i, 4 * 300 + i);
                }
            }
        };
        let path = tmp_path("tail-slot");
        idx.snapshot(&path).expect("snapshot");
        let original = std::fs::read(&path).expect("read");
        // Slot 0 opens the prefix a repack keeps in place.
        patch_section(&path, SEC_MAPPING, swap(0));
        assert_corrupt(&path, "tree", "sits below the first subtree with a tail");
        std::fs::write(&path, &original).expect("write");
        patch_section(&path, SEC_MAPPING, swap(packed.start as usize + 1));
        assert_corrupt(&path, "tree", "reaches a tail slot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slot_map_that_is_not_a_permutation_fails_closed() {
        let idx = sax_index(300);
        let path = tmp_path("mapping");
        idx.snapshot(&path).expect("snapshot");
        let original = std::fs::read(&path).expect("read");
        let set_slot_0 =
            |row: u32| move |map: &mut [u8]| map[..4].copy_from_slice(&row.to_ne_bytes());
        patch_section(&path, SEC_MAPPING, set_slot_0(300));
        assert_corrupt(&path, "mapping", "out-of-range row 300");
        std::fs::write(&path, &original).expect("write");
        patch_section(&path, SEC_MAPPING, set_slot_0(idx.slot_to_row[1]));
        assert_corrupt(&path, "mapping", "occupies two slots");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn subtree_key_or_split_bit_that_disagrees_with_the_rows_fails_closed() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 256 });
        let idx =
            Index::build(sax, &dataset(2000, 64), IndexConfig::with_threads(2).leaf_capacity(25))
                .expect("build");
        let subtrees = idx.subtrees();
        let offsets = tree_offsets(subtrees);
        // An inner node's split bit follows its tag, children and position.
        let split_bits: Vec<usize> = subtrees
            .iter()
            .zip(&offsets)
            .flat_map(|(st, (_, nodes))| st.nodes.iter().zip(nodes))
            .filter(|(node, _)| !node.is_leaf())
            .map(|(_, &at)| at + 11)
            .collect();
        assert!(!split_bits.is_empty(), "the index must split a leaf");
        let path = tmp_path("tree-key");
        idx.snapshot(&path).expect("snapshot");
        let original = std::fs::read(&path).expect("read");
        let set_key = |s: usize, key: u64| {
            let at = offsets[s].0;
            move |tree: &mut [u8]| tree[at..at + 8].copy_from_slice(&key.to_ne_bytes())
        };
        // Every single-bit flip of a key that keeps the keys ascending.
        let mut flips = 0;
        for (s, st) in subtrees.iter().enumerate() {
            for j in 0..8 {
                let key = st.key ^ (1 << j);
                let above = s == 0 || subtrees[s - 1].key < key;
                let below = subtrees.get(s + 1).map_or(true, |next| key < next.key);
                if above && below {
                    std::fs::write(&path, &original).expect("write");
                    patch_section(&path, SEC_TREE, set_key(s, key));
                    assert_corrupt(&path, "tree", "disagrees with its rows");
                    flips += 1;
                }
            }
        }
        assert!(flips > 0, "no key could be flipped in order");
        // A key bit past the 8-position words on the last (largest) key.
        let last = subtrees.len() - 1;
        std::fs::write(&path, &original).expect("write");
        patch_section(&path, SEC_TREE, set_key(last, subtrees[last].key | 1 << 8));
        assert_corrupt(&path, "tree", "bits past the word length");
        // A split bit past the 8-bit symbols.
        std::fs::write(&path, &original).expect("write");
        patch_section(&path, SEC_TREE, |tree| tree[split_bits[0]] = 8);
        assert_corrupt(&path, "tree", "split bit 8");
        std::fs::remove_file(&path).ok();
    }

    /// Deterministic filler bytes (splitmix64), so no two chunks match.
    fn filler(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// A file of summarization `kind` laid out as the writer lays it out:
    /// the sealed header, then each section at its offset.
    fn assemble(kind: u32, sections: &[(u32, &[u8])], pool: Option<&ExecPool>) -> Vec<u8> {
        let (mut file, offsets) = seal_header(kind, sections, pool);
        for (&(_, bytes), off) in sections.iter().zip(offsets) {
            file.resize(usize::try_from(off).expect("offset"), 0);
            file.extend_from_slice(bytes);
        }
        file
    }

    #[test]
    fn chunked_digest_is_independent_of_pool_and_matches_the_writer() {
        const C: usize = DIGEST_CHUNK;
        let ids = SECTIONS.map(|s| s.id);
        let lens = [0, 1, 31, 32, 33, C - 1, C, C + 1, 3 * C + 5];
        let pools = [ExecPool::new(1), ExecPool::new(2), ExecPool::new(4)];
        let pools: Vec<Option<&ExecPool>> =
            std::iter::once(None).chain(pools.iter().map(Some)).collect();
        // Every length lands in one of two files of one section per id.
        for group in [&lens[..7], &lens[2..]] {
            let data: Vec<Vec<u8>> =
                group.iter().enumerate().map(|(i, &len)| filler(len, i as u64)).collect();
            let sections: Vec<(u32, &[u8])> =
                ids.iter().zip(&data).map(|(&id, d)| (id, d.as_slice())).collect();
            let bytes: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let one_by_one: Vec<u64> = bytes.iter().map(|b| digests(&[b], None)[0]).collect();
            let file = assemble(1, &sections, None);
            let table = parse_and_verify(&file, None).expect("writer's table verifies").sections;
            let written: Vec<u64> = table.iter().map(|s| s.checksum).collect();
            assert_eq!(written, one_by_one, "writer's table, lengths {group:?}");
            for pool in &pools {
                let threads = pool.map(ExecPool::threads);
                assert_eq!(digests(&bytes, *pool), one_by_one, "pool {threads:?}, {group:?}");
                assert_eq!(assemble(1, &sections, *pool), file, "pool {threads:?} writer");
                parse_and_verify(&file, *pool).expect("verifies on every pool");
            }
            // The length is part of every digest, so even the all-empty
            // and all-equal prefixes of the filler differ.
            let mut distinct = one_by_one.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), one_by_one.len(), "{group:?}");
        }

        // Two corrupt sections: the first in table order is reported,
        // whichever lane finishes first.
        let data: Vec<Vec<u8>> = (0..6).map(|i| filler(C + 100 * i, i as u64)).collect();
        let sections: Vec<(u32, &[u8])> =
            ids.iter().zip(&data).map(|(&id, d)| (id, d.as_slice())).collect();
        let mut file = assemble(1, &sections, None);
        let table = parse_and_verify(&file, None).expect("valid").sections;
        file[table[1].offset as usize + C + 3] ^= 0x80;
        file[table[3].offset as usize + 7] ^= 0x01;
        for pool in &pools {
            match parse_and_verify(&file, *pool) {
                Err(IndexError::SnapshotCorrupt { section, .. }) => {
                    assert_eq!(section, section_name(ids[1]));
                }
                Err(other) => panic!("expected SnapshotCorrupt, got {other:?}"),
                Ok(_) => panic!("two corrupt sections must fail"),
            }
        }
    }

    #[test]
    fn out_of_alphabet_word_symbol_fails_closed() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 64 });
        let idx =
            Index::build(sax, &dataset(200, 64), IndexConfig::with_threads(2)).expect("build");
        let path = tmp_path("alphabet");
        idx.snapshot(&path).expect("snapshot");
        patch_section(&path, SEC_WORDS, |words| words[3] = 200);
        assert_corrupt(&path, "words", "symbol 200");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_detected_by_checksums() {
        let idx = sax_index(300);
        let path = tmp_path("flip");
        idx.snapshot(&path).expect("snapshot");
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        match Index::<ISax>::open(&path) {
            Err(IndexError::SnapshotCorrupt { .. }) => {}
            Err(other) => panic!("expected SnapshotCorrupt, got {other:?}"),
            Ok(_) => panic!("bit-flipped open must fail"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failpoint_aborts_write_and_cleans_tmp() {
        let idx = sax_index(200);
        let path = tmp_path("failpoint");
        idx.snapshot(&path).expect("first snapshot");
        let before = std::fs::read(&path).expect("read");

        // Die before the third section write: target intact, tmp removed.
        // Armed for this thread only, so sibling tests' snapshots neither
        // consume nor trip the fires. With times=Some(3) the point fires
        // on the first three calls; the snapshot errors on call 1.
        let crash =
            failpoint::arm_local(SNAPSHOT_WRITE_FAILPOINT, failpoint::FailAction::Error, Some(3));
        let err = idx.snapshot(&path).expect_err("failpoint must abort");
        drop(crash);
        assert!(matches!(err, IndexError::SnapshotIo { .. }), "{err:?}");
        assert_eq!(std::fs::read(&path).expect("read"), before, "target must be untouched");
        let tmp = path.with_file_name(format!(
            "{}.tmp",
            path.file_name().and_then(|n| n.to_str()).expect("name")
        ));
        assert!(!tmp.exists(), "tmp file must be cleaned up");

        // Same for a failure at the rename step.
        let crash =
            failpoint::arm_local(SNAPSHOT_RENAME_FAILPOINT, failpoint::FailAction::Error, Some(1));
        let err = idx.snapshot(&path).expect_err("rename failpoint must abort");
        drop(crash);
        assert!(matches!(err, IndexError::SnapshotIo { .. }), "{err:?}");
        assert_eq!(std::fs::read(&path).expect("read"), before);
        assert!(!tmp.exists());

        // And the index still snapshots fine afterwards.
        idx.snapshot(&path).expect("snapshot after failpoints");
        Index::<ISax>::open(&path).expect("open");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn opened_index_accepts_inserts_via_copy_on_write() {
        let idx = sax_index(300);
        let path = tmp_path("cow");
        idx.snapshot(&path).expect("snapshot");
        let mut opened = Index::<ISax>::open(&path).expect("open");
        assert!(opened.is_mapped());
        let extra = dataset(20, 64);
        opened.insert_all(&extra).expect("insert");
        assert!(!opened.is_mapped(), "inserts must promote the arenas");
        assert_eq!(opened.n_series(), 320);
        opened.knn(&extra[..64], 3).expect("query after insert");
        std::fs::remove_file(&path).ok();
    }
}
