//! Crash-safe persistence: atomic snapshots, mmap-backed opens.
//!
//! A snapshot is a single versioned file laid out arena-first so that
//! [`Index::open`] can serve straight out of a memory mapping with zero
//! deserialization of the two big arenas (series data, words) — the
//! FAISS-style "attach, don't rebuild" pattern. Small structures (tree
//! topology, leaf packs, quantizer) are rehydrated into
//! their owned in-memory forms; they are a small fraction of the file.
//!
//! ## File format (version 4)
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
//!                             FNV-1a-64 checksum u64
//!        …   header checksum  u64 (FNV-1a over everything above)
//! ```
//!
//! Sections follow, each 64-byte aligned (so mapped `f32`/`u32` arenas
//! are always correctly aligned) and independently checksummed. Every
//! validation — magic, version, endianness, header checksum, section
//! bounds, section checksums, layout parameters, structural invariants —
//! runs **before** any pointer into the mapping is formed or any decoded
//! value is trusted; corrupt, truncated and foreign files fail closed
//! with a typed [`IndexError`], never a panic.
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
use crate::node::{LeafPack, Node, NodeKind, Subtree, SymbolEnvelope};
use crate::{Index, IndexError};
use sofa_exec::{failpoint, ExecPool};
use sofa_mmap::{Advice, Mmap};
use sofa_summaries::{
    CoeffPos, ISax, McbModel, QuantBlock, QuantGrid, SaxConfig, Sfa, Summarization,
};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SOFASNAP";
/// The one format version this build writes and reads.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 4;
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
const SEC_PACKS: u32 = 7;
const SEC_QUANT: u32 = 9;

fn section_name(id: u32) -> &'static str {
    match id {
        SEC_META => "meta",
        SEC_SUMM => "summarization",
        SEC_DATA => "data",
        SEC_WORDS => "words",
        SEC_MAPPING => "mapping",
        SEC_TREE => "tree",
        SEC_PACKS => "leaf-packs",
        SEC_QUANT => "quant",
        _ => "unknown",
    }
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        1 => "SFA",
        2 => "iSAX",
        _ => "unknown",
    }
}

/// Word-at-a-time FNV-1a 64 variant — dependency-free, good
/// torn-write/bit-flip detection. Folding 8 input bytes per multiply
/// keeps open-time verification of multi-gigabyte arenas around an
/// order of magnitude cheaper than the byte-serial form; this is a
/// format-defining function (writer and reader must agree), covered by
/// the version field.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_ne_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
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
// Little encode helpers (writer-native byte order throughout).

/// `usize` → `u64`, lossless on every supported target (≤ 64-bit).
fn u64_of(x: usize) -> u64 {
    x as u64
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_ne_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_ne_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_ne_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_ne_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_ne_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, u64_of(n));
}

fn put_u32_slice(out: &mut Vec<u8>, vals: &[u32]) {
    out.extend_from_slice(sofa_mmap::as_bytes(vals));
}

fn put_f32_slice(out: &mut Vec<u8>, vals: &[f32]) {
    out.extend_from_slice(sofa_mmap::as_bytes(vals));
}

fn put_f64_slice(out: &mut Vec<u8>, vals: &[f64]) {
    out.extend_from_slice(sofa_mmap::as_bytes(vals));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
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

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], IndexError> {
        let b = self.take(N)?;
        b.try_into().map_err(|_| self.invalid("internal read-size mismatch"))
    }

    /// Reads one `u8`.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn u8(&mut self) -> Result<u8, IndexError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads one native-endian `u16`.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn u16(&mut self) -> Result<u16, IndexError> {
        Ok(u16::from_ne_bytes(self.array()?))
    }

    /// Reads one native-endian `u32`.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn u32(&mut self) -> Result<u32, IndexError> {
        Ok(u32::from_ne_bytes(self.array()?))
    }

    /// Reads one native-endian `u64`.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn u64(&mut self) -> Result<u64, IndexError> {
        Ok(u64::from_ne_bytes(self.array()?))
    }

    /// Reads one native-endian `f32`.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn f32(&mut self) -> Result<f32, IndexError> {
        Ok(f32::from_ne_bytes(self.array()?))
    }

    /// Reads one native-endian `f64`.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn f64(&mut self) -> Result<f64, IndexError> {
        Ok(f64::from_ne_bytes(self.array()?))
    }

    /// Reads a `u64` count and converts it to `usize` (checked).
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation or overflow.
    pub fn count(&mut self) -> Result<usize, IndexError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.invalid(format!("count {v} exceeds the address space")))
    }

    /// Like [`SectionReader::count`], additionally rejecting counts whose
    /// elements (each at least `elem_min_bytes` on disk) could not fit in
    /// the section's remaining bytes — so hostile counts can never drive
    /// huge allocations or long loops.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation, overflow, or an
    /// impossible count.
    pub fn bounded_count(&mut self, elem_min_bytes: usize) -> Result<usize, IndexError> {
        let n = self.count()?;
        let min = n
            .checked_mul(elem_min_bytes.max(1))
            .ok_or_else(|| self.invalid(format!("count {n} overflows the section extent")))?;
        if min > self.remaining() {
            return Err(self.invalid(format!(
                "count {n} cannot fit in the {} remaining section bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads `n` raw bytes into an owned buffer.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation.
    pub fn byte_vec(&mut self, n: usize) -> Result<Vec<u8>, IndexError> {
        Ok(self.take(n)?.to_vec())
    }

    fn elem_bytes(&mut self, n: usize, size: usize) -> Result<&'a [u8], IndexError> {
        let total = n
            .checked_mul(size)
            .ok_or_else(|| self.invalid(format!("element count {n} overflows the byte range")))?;
        self.take(total)
    }

    /// Reads `n` native-endian `u32` values.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation or overflow.
    pub fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, IndexError> {
        let bytes = self.elem_bytes(n, 4)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_ne_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Reads `n` native-endian `f32` values.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation or overflow.
    pub fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, IndexError> {
        let bytes = self.elem_bytes(n, 4)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_ne_bytes([c[0], c[1], c[2], c[3]])).collect())
    }

    /// Reads `n` native-endian `f64` values.
    ///
    /// # Errors
    /// [`IndexError::SnapshotCorrupt`] on truncation or overflow.
    pub fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>, IndexError> {
        let bytes = self.elem_bytes(n, 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_ne_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
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

impl SnapshotSummarization for Sfa {
    const KIND: u32 = 1;
    const KIND_NAME: &'static str = "SFA";

    fn encode_summarization(&self, out: &mut Vec<u8>) {
        let model = self.model();
        put_str(out, self.name());
        put_len(out, model.series_len);
        put_len(out, model.alphabet);
        put_len(out, model.positions.len());
        for p in &model.positions {
            put_u16(out, p.coeff);
            put_u8(out, u8::from(p.imag));
        }
        for bin in &model.bins {
            put_len(out, bin.len());
            put_f32_slice(out, bin);
        }
        put_len(out, model.weights.len());
        put_f32_slice(out, &model.weights);
        put_len(out, model.variances.len());
        put_f32_slice(out, &model.variances);
    }

    fn decode_summarization(r: &mut SectionReader<'_>) -> Result<Self, IndexError> {
        let name_len = r.bounded_count(1)?;
        let name = String::from_utf8(r.byte_vec(name_len)?)
            .map_err(|_| r.invalid("model name is not UTF-8"))?;
        let series_len = r.count()?;
        if series_len == 0 {
            return Err(r.invalid("series length is zero"));
        }
        let alphabet = r.count()?;
        if !(alphabet.is_power_of_two() && (2..=256).contains(&alphabet)) {
            return Err(r.invalid(format!("alphabet {alphabet} is not a power of two in [2, 256]")));
        }
        let word_len = r.bounded_count(3)?;
        if word_len == 0 || word_len > crate::node::MAX_WORD_LEN {
            return Err(r.invalid(format!("word length {word_len} out of range 1..=64")));
        }
        let mut positions = Vec::with_capacity(word_len);
        for _ in 0..word_len {
            let coeff = r.u16()?;
            let imag = r.u8()?;
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
            let bl = r.bounded_count(4)?;
            if bl != alphabet - 1 {
                return Err(r.invalid(format!(
                    "breakpoint table {j} holds {bl} entries, alphabet {alphabet} requires {}",
                    alphabet - 1
                )));
            }
            let table = r.f32_vec(bl)?;
            if table.iter().any(|v| !v.is_finite()) {
                return Err(r.invalid(format!("breakpoint table {j} contains non-finite values")));
            }
            if table.windows(2).any(|w| w[0] > w[1]) {
                return Err(r.invalid(format!("breakpoint table {j} is not sorted")));
            }
            bins.push(table);
        }
        let wl = r.bounded_count(4)?;
        if wl != word_len {
            return Err(r.invalid(format!("{wl} weights for {word_len} positions")));
        }
        let weights = r.f32_vec(wl)?;
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(r.invalid("weights must be finite and non-negative"));
        }
        let vl = r.bounded_count(4)?;
        let variances = r.f32_vec(vl)?;
        let model = McbModel { positions, bins, weights, series_len, alphabet, variances };
        Ok(Sfa::from_parts(model, name))
    }
}

impl SnapshotSummarization for ISax {
    const KIND: u32 = 2;
    const KIND_NAME: &'static str = "iSAX";

    fn encode_summarization(&self, out: &mut Vec<u8>) {
        put_len(out, self.series_len());
        put_len(out, self.word_len());
        put_len(out, self.alphabet());
    }

    fn decode_summarization(r: &mut SectionReader<'_>) -> Result<Self, IndexError> {
        let series_len = r.count()?;
        let word_len = r.count()?;
        let alphabet = r.count()?;
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
    /// FNV-1a-64 checksum of the section bytes.
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
    /// Whether the config asks for the int8 quantized refine tier.
    pub quant_refine: bool,
    /// Whether queries consulted that tier when the snapshot was cut (the
    /// [`Index::set_quant_refine`] switch).
    pub quant_enabled: bool,
    /// Whether the file carries a quantizer grid + per-leaf codes at all.
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

struct SectionEntry {
    id: u32,
    offset: usize,
    len: usize,
    checksum: u64,
}

fn header_u32(bytes: &[u8], off: usize) -> Result<u32, IndexError> {
    let b = bytes.get(off..off + 4).ok_or_else(|| fmt_err("header", "truncated header"))?;
    Ok(u32::from_ne_bytes([b[0], b[1], b[2], b[3]]))
}

fn header_u64(bytes: &[u8], off: usize) -> Result<u64, IndexError> {
    let b = bytes.get(off..off + 8).ok_or_else(|| fmt_err("header", "truncated header"))?;
    Ok(u64::from_ne_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Validates magic, version, endianness, the header checksum, and every
/// section's bounds and checksum. Returns the summarization kind and the
/// verified table. Nothing in the file is trusted before this returns.
fn parse_and_verify(bytes: &[u8]) -> Result<(u32, Vec<SectionEntry>), IndexError> {
    if bytes.len() < HEADER_FIXED {
        return Err(fmt_err(
            "header",
            format!("file of {} bytes is too small to be a snapshot", bytes.len()),
        ));
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(fmt_err("header", "bad magic — not a SOFA snapshot"));
    }
    let version = header_u32(bytes, 8)?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(fmt_err(
            "header",
            format!(
                "unsupported format version {version} (this build reads {SNAPSHOT_FORMAT_VERSION})"
            ),
        ));
    }
    let endian = header_u32(bytes, 12)?;
    if endian != ENDIAN_TAG {
        return Err(fmt_err("header", "snapshot was written with a different byte order"));
    }
    let kind = header_u32(bytes, 16)?;
    let n = header_u32(bytes, 20)?;
    if n == 0 || n > 64 {
        return Err(fmt_err("header", format!("implausible section count {n}")));
    }
    let n = n as usize;
    let table_end = HEADER_FIXED + TABLE_ENTRY * n;
    let header_len = table_end + 8;
    if bytes.len() < header_len {
        return Err(fmt_err("header", "truncated section table"));
    }
    let stored = header_u64(bytes, table_end)?;
    if fnv1a64(&bytes[..table_end]) != stored {
        return Err(corrupt("header", "header checksum mismatch"));
    }
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let base = HEADER_FIXED + TABLE_ENTRY * i;
        let id = header_u32(bytes, base)?;
        let name = section_name(id);
        if name == "unknown" {
            return Err(fmt_err("header", format!("unknown section id {id}")));
        }
        let offset = usize::try_from(header_u64(bytes, base + 8)?)
            .map_err(|_| fmt_err(name, "section offset exceeds the address space"))?;
        let len = usize::try_from(header_u64(bytes, base + 16)?)
            .map_err(|_| fmt_err(name, "section length exceeds the address space"))?;
        let checksum = header_u64(bytes, base + 24)?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| fmt_err(name, "section range out of bounds"))?;
        if offset < header_len {
            return Err(fmt_err(name, "section overlaps the header"));
        }
        if entries.iter().any(|e: &SectionEntry| e.id == id) {
            return Err(fmt_err(name, "duplicate section"));
        }
        if fnv1a64(&bytes[offset..end]) != checksum {
            return Err(corrupt(name, "section checksum mismatch"));
        }
        entries.push(SectionEntry { id, offset, len, checksum });
    }
    Ok((kind, entries))
}

fn section_slice<'a>(
    bytes: &'a [u8],
    entries: &[SectionEntry],
    id: u32,
) -> Result<&'a [u8], IndexError> {
    let e = entries
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| fmt_err(section_name(id), "section missing"))?;
    Ok(&bytes[e.offset..e.offset + e.len])
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
    let (kind, entries) = parse_and_verify(&bytes)?;
    let meta = decode_meta(section_slice(&bytes, &entries, SEC_META)?)?;
    Ok(SnapshotInfo {
        format_version: SNAPSHOT_FORMAT_VERSION,
        summarization_kind: kind,
        file_len: u64_of(bytes.len()),
        sections: entries
            .iter()
            .map(|e| SectionInfo {
                id: e.id,
                name: section_name(e.id),
                offset: u64_of(e.offset),
                len: u64_of(e.len),
                checksum: e.checksum,
            })
            .collect(),
        capabilities: SnapshotCapabilities {
            n_rows: meta.n_slots,
            series_len: meta.series_len,
            word_len: meta.word_len,
            leaf_capacity: meta.leaf_capacity,
            quant_refine: meta.quant_refine,
            quant_enabled: meta.quant_enabled,
            quant_grid_present: meta.grid_present,
            kernel_tier: sofa_simd::active_tier().name(),
        },
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

enum SecPayload<'a> {
    Owned(Vec<u8>),
    Borrowed(&'a [u8]),
}

impl SecPayload<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            SecPayload::Owned(v) => v,
            SecPayload::Borrowed(b) => b,
        }
    }
}

const ZERO_PAD: [u8; SECTION_ALIGN as usize] = [0; SECTION_ALIGN as usize];

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
        let sections = self.encode_sections();

        // Header + section table (offsets 64-byte aligned so mapped
        // arenas are always well-aligned for f32/u32 casts).
        let n = sections.len();
        let mut header = Vec::with_capacity(HEADER_FIXED + TABLE_ENTRY * n + 8);
        header.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut header, SNAPSHOT_FORMAT_VERSION);
        put_u32(&mut header, ENDIAN_TAG);
        put_u32(&mut header, S::KIND);
        // The section list is a fixed enumeration of at most 9 entries.
        put_u32(&mut header, n as u32);
        let header_len = u64_of(HEADER_FIXED + TABLE_ENTRY * n + 8);
        let mut cursor = align_up(header_len, SECTION_ALIGN);
        let mut offsets = Vec::with_capacity(n);
        for (id, payload) in &sections {
            let bytes = payload.bytes();
            put_u32(&mut header, *id);
            put_u32(&mut header, 0);
            put_u64(&mut header, cursor);
            put_u64(&mut header, u64_of(bytes.len()));
            put_u64(&mut header, fnv1a64(bytes));
            offsets.push(cursor);
            cursor = align_up(cursor + u64_of(bytes.len()), SECTION_ALIGN);
        }
        let checksum = fnv1a64(&header);
        put_u64(&mut header, checksum);

        let file_name =
            path.file_name().ok_or_else(|| io_err("create", &"snapshot path has no file name"))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let mut guard = TmpGuard { path: tmp.clone(), armed: true };

        let mut f = File::create(&tmp).map_err(|e| io_err("create", &e))?;
        f.write_all(&header).map_err(|e| io_err("write", &e))?;
        let mut pos = u64_of(header.len());
        for ((_, payload), &off) in sections.iter().zip(offsets.iter()) {
            failpoint::fire(SNAPSHOT_WRITE_FAILPOINT).map_err(|e| io_err("write-section", &e))?;
            let pad = (off - pos) as usize;
            f.write_all(&ZERO_PAD[..pad]).map_err(|e| io_err("write", &e))?;
            let bytes = payload.bytes();
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

    fn encode_sections(&self) -> Vec<(u32, SecPayload<'_>)> {
        let mut sections = Vec::with_capacity(9);
        sections.push((SEC_META, SecPayload::Owned(self.encode_meta())));
        let mut summ = Vec::new();
        self.summarization.encode_summarization(&mut summ);
        sections.push((SEC_SUMM, SecPayload::Owned(summ)));
        sections.push((SEC_DATA, SecPayload::Borrowed(sofa_mmap::as_bytes(&self.data[..]))));
        sections.push((SEC_WORDS, SecPayload::Borrowed(&self.words[..])));
        let mut mapping = Vec::with_capacity(8 * self.row_to_slot.len());
        put_u32_slice(&mut mapping, &self.row_to_slot);
        put_u32_slice(&mut mapping, &self.slot_to_row);
        sections.push((SEC_MAPPING, SecPayload::Owned(mapping)));
        sections.push((SEC_TREE, SecPayload::Owned(self.encode_tree())));
        sections.push((SEC_PACKS, SecPayload::Owned(self.encode_packs())));
        if self.quant_grid.is_some() {
            sections.push((SEC_QUANT, SecPayload::Owned(self.encode_quant())));
        }
        sections
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(96);
        put_len(&mut out, self.series_len);
        put_len(&mut out, self.word_len);
        put_len(&mut out, self.slot_to_row.len());
        put_len(&mut out, self.config.leaf_capacity);
        put_len(&mut out, self.subtrees.len());
        match self.config.auto_repack_pct {
            Some(pct) => {
                put_u8(&mut out, 1);
                put_u32(&mut out, pct);
            }
            None => {
                put_u8(&mut out, 0);
                put_u32(&mut out, 0);
            }
        }
        put_u8(&mut out, u8::from(self.config.quant_refine));
        put_u8(&mut out, u8::from(self.quant_enabled.load(Ordering::Relaxed)));
        put_u8(&mut out, u8::from(self.quant_grid.is_some()));
        put_f64(&mut out, self.build_breakdown.0);
        put_f64(&mut out, self.build_breakdown.1);
        out
    }

    fn encode_tree(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for st in &self.subtrees {
            put_u64(&mut out, st.key);
            put_len(&mut out, st.stale_leaves);
            put_len(&mut out, st.nodes.len());
            for node in &st.nodes {
                out.extend_from_slice(&node.prefixes);
                out.extend_from_slice(&node.bits);
                match &node.kind {
                    NodeKind::Leaf { rows, pack, .. } => {
                        put_u8(&mut out, 0);
                        put_len(&mut out, rows.len());
                        put_u32_slice(&mut out, rows);
                        put_u8(&mut out, u8::from(pack.is_some()));
                    }
                    NodeKind::Inner { left, right, split_pos } => {
                        put_u8(&mut out, 1);
                        put_u32(&mut out, *left);
                        put_u32(&mut out, *right);
                        put_u16(&mut out, *split_pos);
                    }
                }
            }
        }
        out
    }

    fn encode_packs(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for st in &self.subtrees {
            for node in &st.nodes {
                if let NodeKind::Leaf { rows, pack: Some(pack), .. } = &node.kind {
                    put_u32(&mut out, pack.start);
                    put_len(&mut out, rows.len());
                }
            }
        }
        out
    }

    fn encode_quant(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let Some(grid) = self.quant_grid.as_ref() else { return out };
        put_len(&mut out, grid.series_len());
        put_f32(&mut out, grid.scale());
        put_f32_slice(&mut out, grid.mins());
        let packs: Vec<&LeafPack> = self
            .subtrees
            .iter()
            .flat_map(|st| st.nodes.iter())
            .filter_map(|node| match &node.kind {
                NodeKind::Leaf { pack: Some(pack), .. } => Some(pack),
                _ => None,
            })
            .collect();
        put_len(&mut out, packs.len());
        for pack in packs {
            match &pack.quant {
                None => put_u8(&mut out, 0),
                Some(qb) => {
                    put_u8(&mut out, 1);
                    put_len(&mut out, qb.n());
                    put_len(&mut out, qb.codes().len());
                    out.extend_from_slice(qb.codes());
                    put_len(&mut out, qb.errs().len());
                    put_f64_slice(&mut out, qb.errs());
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Open (read) side.

struct Meta {
    series_len: usize,
    word_len: usize,
    n_slots: usize,
    leaf_capacity: usize,
    n_subtrees: usize,
    auto_repack_pct: Option<u32>,
    quant_refine: bool,
    quant_enabled: bool,
    grid_present: bool,
    build_breakdown: (f64, f64),
}

fn decode_flag(r: &mut SectionReader<'_>, what: &str) -> Result<bool, IndexError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(r.invalid(format!("{what} flag {v} is not a bool"))),
    }
}

fn decode_meta(buf: &[u8]) -> Result<Meta, IndexError> {
    let mut r = SectionReader::new(buf, "meta");
    let series_len = r.count()?;
    let word_len = r.count()?;
    let n_slots = r.count()?;
    let leaf_capacity = r.count()?;
    let n_subtrees = r.count()?;
    let has_auto = decode_flag(&mut r, "auto-repack")?;
    let auto_pct = r.u32()?;
    let quant_refine = decode_flag(&mut r, "quant-refine")?;
    let quant_enabled = decode_flag(&mut r, "quant-enabled")?;
    let grid_present = decode_flag(&mut r, "grid-present")?;
    let build_breakdown = (r.f64()?, r.f64()?);
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
    if n_subtrees == 0 || n_subtrees > n_slots {
        return Err(layout(
            "meta",
            format!("implausible subtree count {n_subtrees} for {n_slots} rows"),
        ));
    }
    Ok(Meta {
        series_len,
        word_len,
        n_slots,
        leaf_capacity,
        n_subtrees,
        auto_repack_pct: has_auto.then_some(auto_pct),
        quant_refine,
        quant_enabled,
        grid_present,
        build_breakdown,
    })
}

fn decode_mapping(buf: &[u8], meta: &Meta) -> Result<(Vec<u32>, Vec<u32>), IndexError> {
    let mut r = SectionReader::new(buf, "mapping");
    let row_to_slot = r.u32_vec(meta.n_slots)?;
    let slot_to_row = r.u32_vec(meta.n_slots)?;
    r.finish()?;
    // The two arrays must be mutually inverse permutations of 0..n_slots;
    // anything else would let a query read the wrong series for a row.
    let mut seen = vec![false; meta.n_slots];
    for (slot, &row) in slot_to_row.iter().enumerate() {
        let row = row as usize;
        if row >= meta.n_slots {
            return Err(corrupt("mapping", format!("slot {slot} maps to out-of-range row {row}")));
        }
        if seen[row] {
            return Err(corrupt("mapping", format!("row {row} occupies two slots")));
        }
        seen[row] = true;
        if row_to_slot[row] as usize != slot {
            return Err(corrupt(
                "mapping",
                format!("row {row}: forward and inverse slot maps disagree"),
            ));
        }
    }
    Ok((row_to_slot, slot_to_row))
}

/// Parent-before-child with exactly one parent per non-root node — i.e.
/// a well-formed binary tree rooted at node 0, with no cycles and no
/// unreachable nodes (the builder emits exactly this shape).
fn validate_tree_shape(nodes: &[Node]) -> Result<(), String> {
    let mut referenced = vec![false; nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        if let NodeKind::Inner { left, right, .. } = node.kind {
            for child in [left as usize, right as usize] {
                if child <= i {
                    return Err(format!("inner node {i} points backwards to node {child}"));
                }
                if referenced[child] {
                    return Err(format!("node {child} has two parents"));
                }
                referenced[child] = true;
            }
        }
    }
    for (i, &r) in referenced.iter().enumerate().skip(1) {
        if !r {
            return Err(format!("node {i} is unreachable from the subtree root"));
        }
    }
    Ok(())
}

/// Decodes the forest. Returns the subtrees (packs unattached, envelopes
/// empty until [`rebuild_envelopes`]) plus the (subtree, node) positions
/// of leaves whose packs follow in the leaf-packs section, in file order.
#[allow(clippy::type_complexity)]
fn decode_tree(
    buf: &[u8],
    meta: &Meta,
    symbol_bits: u8,
) -> Result<(Vec<Subtree>, Vec<(usize, usize)>), IndexError> {
    let mut r = SectionReader::new(buf, "tree");
    let mut subtrees = Vec::with_capacity(meta.n_subtrees);
    let mut packed = Vec::new();
    let mut seen_rows = vec![false; meta.n_slots];
    let mut prev_key = None;
    for si in 0..meta.n_subtrees {
        let key = r.u64()?;
        if prev_key.is_some_and(|p| key <= p) {
            return Err(r.invalid("subtree keys are not strictly ascending"));
        }
        prev_key = Some(key);
        let stale_leaves = r.count()?;
        let n_nodes = r.bounded_count(2 * meta.word_len + 1)?;
        if n_nodes == 0 {
            return Err(r.invalid(format!("subtree {si} has no nodes")));
        }
        let mut nodes = Vec::with_capacity(n_nodes);
        for ni in 0..n_nodes {
            let prefixes = r.byte_vec(meta.word_len)?;
            let bits = r.byte_vec(meta.word_len)?;
            if bits.iter().any(|&b| b > symbol_bits) {
                return Err(r.invalid(format!(
                    "node {ni} of subtree {si} refines past the {symbol_bits}-bit symbol depth"
                )));
            }
            let kind = match r.u8()? {
                0 => {
                    let n_rows = r.bounded_count(4)?;
                    let rows = r.u32_vec(n_rows)?;
                    for &row in &rows {
                        let row = row as usize;
                        if row >= meta.n_slots {
                            return Err(r.invalid(format!("leaf holds out-of-range row {row}")));
                        }
                        if seen_rows[row] {
                            return Err(r.invalid(format!("row {row} appears in two leaves")));
                        }
                        seen_rows[row] = true;
                    }
                    if decode_flag(&mut r, "has-pack")? {
                        packed.push((si, ni));
                    }
                    let envelope = SymbolEnvelope::empty(meta.word_len);
                    NodeKind::Leaf { rows, pack: None, envelope }
                }
                1 => {
                    let left = r.u32()?;
                    let right = r.u32()?;
                    let split_pos = r.u16()?;
                    if left as usize >= n_nodes || right as usize >= n_nodes {
                        return Err(r.invalid(format!(
                            "inner node {ni} of subtree {si} points outside its {n_nodes} nodes"
                        )));
                    }
                    if usize::from(split_pos) >= meta.word_len {
                        return Err(r.invalid(format!(
                            "split position {split_pos} exceeds word length {}",
                            meta.word_len
                        )));
                    }
                    NodeKind::Inner { left, right, split_pos }
                }
                tag => return Err(r.invalid(format!("unknown node tag {tag}"))),
            };
            nodes.push(Node { prefixes, bits, kind });
        }
        validate_tree_shape(&nodes).map_err(|d| corrupt("tree", format!("subtree {si}: {d}")))?;
        subtrees.push(Subtree { key, nodes, stale_leaves });
    }
    r.finish()?;
    if let Some(row) = seen_rows.iter().position(|&s| !s) {
        return Err(corrupt("tree", format!("row {row} is missing from every leaf")));
    }
    Ok((subtrees, packed))
}

fn decode_packs(
    buf: &[u8],
    meta: &Meta,
    packed: &[(usize, usize)],
    subtrees: &mut [Subtree],
    slot_to_row: &[u32],
) -> Result<(), IndexError> {
    let mut r = SectionReader::new(buf, "leaf-packs");
    for &(si, ni) in packed {
        let start = r.u32()?;
        let n = r.count()?;
        let NodeKind::Leaf { rows, pack, .. } = &mut subtrees[si].nodes[ni].kind else {
            return Err(corrupt("leaf-packs", "pack attached to a non-leaf node"));
        };
        if n != rows.len() {
            return Err(corrupt(
                "leaf-packs",
                format!("pack of {n} candidates on a leaf of {} rows", rows.len()),
            ));
        }
        let start_us = start as usize;
        if start_us.checked_add(n).map_or(true, |e| e > meta.n_slots) {
            return Err(corrupt(
                "leaf-packs",
                format!("pack run {start_us}..+{n} exceeds the arena"),
            ));
        }
        // The pack's contiguous slot run must hold exactly its rows in
        // order — refinement reads series by `start + lane`.
        for (i, &row) in rows.iter().enumerate() {
            if slot_to_row[start_us + i] != row {
                return Err(corrupt(
                    "leaf-packs",
                    format!("slot {} holds a different row than the pack expects", start_us + i),
                ));
            }
        }
        *pack = Some(LeafPack { start, quant: None });
    }
    r.finish()
}

/// Rebuilds every leaf's symbol envelope from the (validated) word arena
/// and slot map: envelopes are not stored in the snapshot.
fn rebuild_envelopes(subtrees: &mut [Subtree], words: &[u8], row_to_slot: &[u32], l: usize) {
    for node in subtrees.iter_mut().flat_map(|st| st.nodes.iter_mut()) {
        if let NodeKind::Leaf { rows, envelope, .. } = &mut node.kind {
            let slots = rows.iter().map(|&row| row_to_slot[row as usize] as usize);
            *envelope = SymbolEnvelope::of_slots(l, words, slots);
        }
    }
}

fn decode_quant(
    buf: &[u8],
    meta: &Meta,
    packed: &[(usize, usize)],
    subtrees: &mut [Subtree],
) -> Result<QuantGrid, IndexError> {
    let mut r = SectionReader::new(buf, "quant");
    let series_len = r.bounded_count(4)?;
    let scale = r.f32()?;
    let mins = r.f32_vec(series_len)?;
    let grid = QuantGrid::from_parts(series_len, scale, mins).map_err(|d| corrupt("quant", d))?;
    if grid.series_len() != meta.series_len {
        return Err(layout(
            "quant",
            format!(
                "quantizer is for length-{series_len} series, index holds length {}",
                meta.series_len
            ),
        ));
    }
    let n_packs = r.count()?;
    if n_packs != packed.len() {
        return Err(
            r.invalid(format!("{n_packs} quant entries for {} packed leaves", packed.len()))
        );
    }
    for &(si, ni) in packed {
        if !decode_flag(&mut r, "has-quant")? {
            continue;
        }
        let n = r.count()?;
        let codes_len = r.bounded_count(1)?;
        let codes = r.byte_vec(codes_len)?;
        let errs_len = r.bounded_count(8)?;
        let errs = r.f64_vec(errs_len)?;
        let qb = QuantBlock::from_parts(&grid, n, codes, errs).map_err(|d| corrupt("quant", d))?;
        let NodeKind::Leaf { rows, pack: Some(pack), .. } = &mut subtrees[si].nodes[ni].kind else {
            return Err(corrupt("quant", "quant codes attached to an unpacked node"));
        };
        if n != rows.len() {
            return Err(corrupt(
                "quant",
                format!("quant block of {n} candidates on a leaf of {} rows", rows.len()),
            ));
        }
        pack.quant = Some(qb);
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
        let file = File::open(path).map_err(|e| io_err("open", &e))?;
        let map = Arc::new(Mmap::map(&file).map_err(|e| io_err("mmap", &e))?);
        // The checksum sweep below touches every byte front to back —
        // let the kernel read ahead aggressively for that pass.
        map.advise(Advice::Sequential);
        let bytes = map.as_bytes();
        let (kind, entries) = parse_and_verify(bytes)?;
        if kind != S::KIND {
            return Err(fmt_err(
                "header",
                format!("snapshot holds a {} index, expected {}", kind_name(kind), S::KIND_NAME),
            ));
        }

        let meta = decode_meta(section_slice(bytes, &entries, SEC_META)?)?;
        let mut summ_reader =
            SectionReader::new(section_slice(bytes, &entries, SEC_SUMM)?, "summarization");
        let summarization = S::decode_summarization(&mut summ_reader)?;
        summ_reader.finish()?;
        if summarization.series_len() != meta.series_len {
            return Err(layout(
                "summarization",
                format!(
                    "model summarizes length-{} series, meta declares {}",
                    summarization.series_len(),
                    meta.series_len
                ),
            ));
        }
        if summarization.word_len() != meta.word_len {
            return Err(layout(
                "summarization",
                format!(
                    "model produces {}-symbol words, meta declares {}",
                    summarization.word_len(),
                    meta.word_len
                ),
            ));
        }

        // The two big arenas: bounds/alignment-validated windows into the
        // mapping — this is the zero-deserialization core of the open.
        let data_entry = section_slice(bytes, &entries, SEC_DATA)?;
        let data_elems = meta.n_slots * meta.series_len;
        if data_entry.len() != data_elems * 4 {
            return Err(layout(
                "data",
                format!(
                    "data arena holds {} bytes, layout requires {} (rows x series length x 4)",
                    data_entry.len(),
                    data_elems * 4
                ),
            ));
        }
        let words_entry = section_slice(bytes, &entries, SEC_WORDS)?;
        let words_elems = meta.n_slots * meta.word_len;
        if words_entry.len() != words_elems {
            return Err(layout(
                "words",
                format!(
                    "word arena holds {} bytes, layout requires {} (rows x word length)",
                    words_entry.len(),
                    words_elems
                ),
            ));
        }
        let data_off = entries.iter().find(|e| e.id == SEC_DATA).map_or(0, |e| e.offset);
        let words_off = entries.iter().find(|e| e.id == SEC_WORDS).map_or(0, |e| e.offset);
        let data = Arena::mapped(Arc::clone(&map), data_off, data_elems)
            .map_err(|d| fmt_err("data", d))?;
        let words = Arena::mapped(Arc::clone(&map), words_off, words_elems)
            .map_err(|d| fmt_err("words", d))?;
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
            decode_mapping(section_slice(bytes, &entries, SEC_MAPPING)?, &meta)?;
        let (mut subtrees, packed) = decode_tree(
            section_slice(bytes, &entries, SEC_TREE)?,
            &meta,
            summarization.symbol_bits(),
        )?;
        decode_packs(
            section_slice(bytes, &entries, SEC_PACKS)?,
            &meta,
            &packed,
            &mut subtrees,
            &slot_to_row,
        )?;
        rebuild_envelopes(&mut subtrees, &words, &row_to_slot, meta.word_len);
        let quant_grid = if meta.grid_present {
            let Ok(buf) = section_slice(bytes, &entries, SEC_QUANT) else {
                return Err(layout(
                    "quant",
                    "meta declares a quantizer but the section is missing",
                ));
            };
            Some(decode_quant(buf, &meta, &packed, &mut subtrees)?)
        } else {
            if section_slice(bytes, &entries, SEC_QUANT).is_ok() {
                return Err(layout(
                    "quant",
                    "quant section present but meta declares no quantizer",
                ));
            }
            None
        };

        // Leaf bookkeeping is recomputed from the decoded tree rather
        // than trusted from meta.
        let mut total_leaves = 0usize;
        let mut unpacked_leaves = 0usize;
        for st in &subtrees {
            for node in &st.nodes {
                if let NodeKind::Leaf { pack, .. } = &node.kind {
                    total_leaves += 1;
                    unpacked_leaves += usize::from(pack.is_none());
                }
            }
        }

        // Validation is done; from here on the mapping serves leaf
        // refinements, which land on arbitrary slot runs — sequential
        // read-ahead would only pollute the page cache.
        map.advise(Advice::Random);

        let threads = pool.threads();
        let config = IndexConfig {
            leaf_capacity: meta.leaf_capacity,
            num_threads: threads,
            auto_repack_pct: meta.auto_repack_pct,
            quant_refine: meta.quant_refine,
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
            quant_enabled: AtomicBool::new(meta.quant_enabled),
            scratches: parking_lot::Mutex::new(Vec::with_capacity(threads + 2)),
            unpacked_leaves,
            total_leaves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use sofa_summaries::SfaConfig;
    use std::sync::atomic::AtomicUsize;

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
        let names: Vec<&str> = info.sections.iter().map(|s| s.name).collect();
        for want in ["meta", "summarization", "data", "words", "mapping", "tree", "leaf-packs"] {
            assert!(names.contains(&want), "missing section {want}: {names:?}");
        }
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
        assert_eq!(caps.quant_refine, idx.config().quant_refine);
        assert_eq!(caps.quant_enabled, idx.quant_refine_enabled());
        assert_eq!(caps.quant_grid_present, idx.quant_grid.is_some());
        assert_eq!(caps.kernel_tier, sofa_simd::active_tier().name());
        std::fs::remove_file(&path).ok();
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
        // files a node-block collect section and version 3 files per-leaf
        // interval blocks, none of which this build reads: the version
        // check rejects them before any section is interpreted.
        for version in [1u32, 2, 3] {
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
    fn out_of_alphabet_word_symbol_fails_closed() {
        let sax = ISax::new(64, &SaxConfig { word_len: 8, alphabet: 64 });
        let idx =
            Index::build(sax, &dataset(200, 64), IndexConfig::with_threads(2)).expect("build");
        let path = tmp_path("alphabet");
        idx.snapshot(&path).expect("snapshot");
        let mut bytes = std::fs::read(&path).expect("read");
        let (_, entries) = parse_and_verify(&bytes).expect("valid snapshot");
        let (i, words) =
            entries.iter().enumerate().find(|(_, e)| e.id == SEC_WORDS).expect("words section");
        // Patch one symbol past the alphabet, then re-seal the section
        // and header checksums so only the content check can object.
        bytes[words.offset + 3] = 200;
        let sum = fnv1a64(&bytes[words.offset..words.offset + words.len]);
        let entry = HEADER_FIXED + TABLE_ENTRY * i;
        bytes[entry + 24..entry + 32].copy_from_slice(&sum.to_ne_bytes());
        let table_end = HEADER_FIXED + TABLE_ENTRY * entries.len();
        let header_sum = fnv1a64(&bytes[..table_end]);
        bytes[table_end..table_end + 8].copy_from_slice(&header_sum.to_ne_bytes());
        std::fs::write(&path, &bytes).expect("write");
        match Index::<ISax>::open(&path) {
            Err(IndexError::SnapshotCorrupt { section, detail }) => {
                assert_eq!(section, "words");
                assert!(detail.contains("symbol 200"), "{detail}");
            }
            Err(other) => panic!("expected SnapshotCorrupt, got {other:?}"),
            Ok(_) => panic!("out-of-alphabet symbol must fail the open"),
        }
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
