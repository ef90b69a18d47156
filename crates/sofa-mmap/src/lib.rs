//! Read-only memory mapping plus checked byte ↔ typed-slice
//! reinterpretation — the unsafe kernel of the snapshot subsystem.
//!
//! Every other crate in the workspace but two is `#![forbid(unsafe_code)]`
//! (`sofa-exec` erases one closure lifetime per broadcast, `sofa-simd`'s
//! `arch` module calls `std::arch` kernels); this one concentrates the
//! two unavoidable unsafe operations of mmap-based serving into a surface
//! small enough to audit in one sitting:
//!
//! * [`Mmap`] — a read-only, private mapping of a whole file, unmapped on
//!   drop. On non-Unix targets the type degrades to an owned read of the
//!   file, so the snapshot format stays portable even where `mmap` is not.
//! * [`cast_slice`] / [`as_bytes`] — reinterpretation between `&[u8]` and
//!   `&[T]` for plain-old-data `T`, with alignment and length checked
//!   before any pointer is formed (the bytes→typed direction) and no
//!   checks needed in the always-valid typed→bytes direction.
//!
//! Soundness notes: the mapping is `MAP_PRIVATE`, so a concurrent writer
//! to the underlying file cannot change established pages under us on
//! Linux (copy-on-write semantics; pages not yet faulted may observe later
//! writes, which is why callers checksum-validate sections *before*
//! trusting them and treat snapshot files as immutable once published via
//! atomic rename). All [`Pod`] types are valid for every bit pattern, so
//! no reinterpretation can manufacture an invalid value.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::fs::File;
use std::io;

/// Marker for plain-old-data element types: no padding, no invalid bit
/// patterns, no drop glue — safe to reinterpret from arbitrary bytes.
///
/// # Safety
/// Implementors must guarantee every bit pattern of `size_of::<Self>()`
/// bytes is a valid value and the type has no interior padding.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: primitive numeric types are valid for all bit patterns and
// carry no padding.
unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// Why a bytes→typed reinterpretation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CastError {
    /// The byte slice's address is not a multiple of `align_of::<T>()`.
    Misaligned {
        /// Required alignment.
        align: usize,
    },
    /// The byte length is not a whole number of elements.
    BadLength {
        /// Byte length offered.
        len: usize,
        /// Element size required to divide it.
        elem: usize,
    },
}

impl std::fmt::Display for CastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CastError::Misaligned { align } => {
                write!(f, "byte slice is not {align}-byte aligned")
            }
            CastError::BadLength { len, elem } => {
                write!(f, "byte length {len} is not a multiple of element size {elem}")
            }
        }
    }
}

impl std::error::Error for CastError {}

/// Reinterprets `bytes` as a slice of `T`, checking alignment and length
/// first.
///
/// # Errors
/// [`CastError::Misaligned`] when the slice address is not aligned for
/// `T`; [`CastError::BadLength`] when the byte count is not a whole
/// number of elements.
pub fn cast_slice<T: Pod>(bytes: &[u8]) -> Result<&[T], CastError> {
    let elem = std::mem::size_of::<T>();
    let align = std::mem::align_of::<T>();
    if bytes.as_ptr() as usize % align != 0 {
        return Err(CastError::Misaligned { align });
    }
    if bytes.len() % elem != 0 {
        return Err(CastError::BadLength { len: bytes.len(), elem });
    }
    // SAFETY: the pointer is non-null (it came from a slice), aligned for
    // `T` (checked above), and spans exactly `len / elem` elements of
    // initialized memory; `T: Pod` makes every bit pattern valid.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), bytes.len() / elem) })
}

/// Views a typed slice as raw bytes (always valid: `u8` has alignment 1
/// and `Pod` types have no padding or invalid patterns).
#[must_use]
pub fn as_bytes<T: Pod>(vals: &[T]) -> &[u8] {
    // SAFETY: any initialized memory is valid as `&[u8]`; the length is
    // exactly the slice's byte extent.
    unsafe { std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals)) }
}

/// Views a typed slice as mutable raw bytes, so values can be filled
/// from unaligned bytes by a plain copy (always valid: any bytes written
/// through it form a valid `Pod` value).
#[must_use]
pub fn as_bytes_mut<T: Pod>(vals: &mut [T]) -> &mut [u8] {
    // SAFETY: the slice is exclusively borrowed for the returned
    // lifetime, the length is exactly its byte extent, and `T: Pod`
    // makes every byte pattern written through the view a valid `T`.
    unsafe {
        std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(vals))
    }
}

/// A read-only mapping of an entire file.
///
/// On Unix this is a `PROT_READ` / `MAP_PRIVATE` `mmap(2)` of the file,
/// released by `munmap` on drop — opening a snapshot touches no page
/// until it is actually read. Elsewhere the file is read into an owned
/// buffer with identical semantics (just without the laziness).
pub struct Mmap {
    inner: MmapInner,
}

enum MmapInner {
    #[cfg(unix)]
    Mapped {
        ptr: *const u8,
        len: usize,
    },
    Owned(Vec<u8>),
}

// SAFETY: the mapping is read-only for its whole lifetime; sharing
// immutable bytes across threads is sound.
unsafe impl Send for Mmap {}
// SAFETY: as above — no interior mutability, no mutation path.
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod ffi {
    use std::os::raw::{c_int, c_void};

    // Declared by hand: the workspace vendors no libc crate, but std
    // already links the platform libc, so these resolve at link time.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    // madvise advice values — identical on Linux and the BSDs/macOS.
    pub const MADV_NORMAL: c_int = 0;
    pub const MADV_RANDOM: c_int = 1;
    pub const MADV_SEQUENTIAL: c_int = 2;
}

/// A page-access pattern hint for [`Mmap::advise`] — the `madvise(2)`
/// advice values the snapshot lifecycle actually uses.
///
/// Opening a snapshot reads every section once, front to back, to
/// verify checksums — [`Advice::Sequential`] lets the kernel read ahead
/// aggressively and drop pages behind the sweep. Serving then touches
/// pages in lower-bound order, which is effectively random —
/// [`Advice::Random`] turns read-ahead off so a query faults in only
/// the pages it prices. [`Advice::Normal`] restores the default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Advice {
    /// Default kernel behavior (moderate read-ahead).
    Normal,
    /// Expect page references in random order; disable read-ahead.
    Random,
    /// Expect sequential front-to-back reads; read ahead aggressively.
    Sequential,
}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    ///
    /// # Errors
    /// Any I/O error from `stat`/`mmap` (or, on non-Unix targets, from
    /// reading the file).
    pub fn map(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file larger than memory"))?;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty buffer has
            // the same observable behavior.
            return Ok(Mmap { inner: MmapInner::Owned(Vec::new()) });
        }
        Mmap::map_nonempty(file, len)
    }

    #[cfg(unix)]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we hold
        // open; no existing Rust references alias it. Failure is reported
        // as MAP_FAILED ((void*)-1) and checked below.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { inner: MmapInner::Mapped { ptr: ptr.cast_const().cast::<u8>(), len } })
    }

    #[cfg(not(unix))]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Mmap> {
        use std::io::Read;
        let mut buf = Vec::with_capacity(len);
        let mut f = file;
        f.read_to_end(&mut buf)?;
        Ok(Mmap { inner: MmapInner::Owned(buf) })
    }

    /// The mapped bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            MmapInner::Mapped { ptr, len } => {
                // SAFETY: `ptr` is a live PROT_READ mapping of exactly
                // `len` bytes, valid until drop; file-backed pages are
                // always "initialized" memory.
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            MmapInner::Owned(buf) => buf,
        }
    }

    /// Number of mapped bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(unix)]
            MmapInner::Mapped { len, .. } => *len,
            MmapInner::Owned(buf) => buf.len(),
        }
    }

    /// `true` when the file was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hints the kernel about this mapping's upcoming access pattern
    /// (`madvise(2)`). Purely an optimization: advice never changes
    /// what reads observe, so failures — and non-Unix targets, where
    /// the buffer is owned memory and there is nothing to advise — are
    /// ignored.
    pub fn advise(&self, advice: Advice) {
        #[cfg(unix)]
        if let MmapInner::Mapped { ptr, len } = self.inner {
            let flag = match advice {
                Advice::Normal => ffi::MADV_NORMAL,
                Advice::Random => ffi::MADV_RANDOM,
                Advice::Sequential => ffi::MADV_SEQUENTIAL,
            };
            // SAFETY: `ptr`/`len` delimit a live mapping created by
            // `mmap` and released only on drop; madvise reads no memory
            // and the advice values are all valid on every Unix we
            // target. The result is advisory — ignore it.
            unsafe {
                let _ = ffi::madvise(ptr.cast_mut().cast(), len, flag);
            }
        }
        #[cfg(not(unix))]
        let _ = advice;
    }
}

impl Default for Mmap {
    /// An empty mapping — what mapping a zero-length file yields.
    fn default() -> Self {
        Mmap { inner: MmapInner::Owned(Vec::new()) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let MmapInner::Mapped { ptr, len } = self.inner {
            // SAFETY: this mapping was created by `mmap` with exactly
            // this base and length, and is unmapped exactly once (drop).
            // munmap failure at this point is unactionable; ignore it.
            unsafe {
                let _ = ffi::munmap(ptr.cast_mut().cast(), len);
            }
        }
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sofa-mmap-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp_path("contents");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file).unwrap();
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        assert_eq!(map.as_bytes(), &payload[..]);
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn maps_empty_file() {
        let path = tmp_path("empty");
        std::fs::File::create(&path).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cast_roundtrip_f32() {
        let vals = [1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let bytes = as_bytes(&vals);
        assert_eq!(bytes.len(), 16);
        let back: &[f32] = cast_slice(bytes).unwrap();
        assert_eq!(back, &vals);
    }

    #[test]
    fn cast_rejects_bad_length() {
        let bytes = [0u8; 7];
        // Aligned start (array of u8 may land anywhere, so probe for an
        // aligned window first) — length failure must still be reported.
        let err = cast_slice::<u32>(&bytes[..7]);
        assert!(matches!(
            err,
            Err(CastError::BadLength { .. }) | Err(CastError::Misaligned { .. })
        ));
    }

    #[test]
    fn cast_rejects_misalignment() {
        let buf = [0u8; 64];
        // Find an offset that is NOT 4-aligned.
        let base = buf.as_ptr() as usize;
        let off = (4 - base % 4) % 4 + 1;
        let err = cast_slice::<u32>(&buf[off..off + 8]);
        assert_eq!(err, Err(CastError::Misaligned { align: 4 }));
    }

    #[test]
    fn advise_is_harmless_across_patterns_and_empty_maps() {
        let path = tmp_path("advise");
        std::fs::File::create(&path).unwrap().write_all(&[42u8; 4096]).unwrap();
        let file = File::open(&path).unwrap();
        let map = Mmap::map(&file).unwrap();
        for advice in [Advice::Sequential, Advice::Random, Advice::Normal] {
            map.advise(advice);
            assert_eq!(map.as_bytes()[0], 42, "advice {advice:?} must not change contents");
        }
        Mmap::default().advise(Advice::Random); // no mapping: a no-op
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn u8_cast_never_fails() {
        let buf = vec![7u8; 13];
        assert_eq!(cast_slice::<u8>(&buf).unwrap(), &buf[..]);
    }
}
