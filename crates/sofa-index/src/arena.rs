//! Vec-or-mmap storage arenas.
//!
//! The index's flat arenas (z-normalized series, per-series words, each
//! leaf's quant codes) are either owned (`Vec`, the build path) or
//! borrowed straight out of a memory-mapped snapshot (`Mapped`, the
//! [`crate::snapshot`] open path) — the FAISS-style "attach, don't
//! deserialize" layout. Readers never see
//! the difference: [`Arena`] derefs to a slice. Writers (online inserts,
//! repacking) call [`Arena::make_mut`], which promotes a mapped arena to
//! an owned copy once — copy-on-write at the whole-arena granularity, so
//! a purely-read-only serving replica never pays for the copy.

use sofa_mmap::{cast_slice, Mmap, Pod};
use std::sync::Arc;

/// A flat typed arena that either owns its buffer or views a mapped file.
#[derive(Clone, Debug)]
pub(crate) enum Arena<T: Pod> {
    /// Heap-owned storage (built or copy-on-write promoted).
    Owned(Vec<T>),
    /// A window into a memory-mapped snapshot. The byte range was
    /// alignment- and bounds-validated when the arena was constructed;
    /// the `Arc` keeps the mapping alive for as long as any arena views
    /// it.
    Mapped {
        map: Arc<Mmap>,
        byte_offset: usize,
        /// Element (not byte) count.
        len: usize,
    },
}

impl<T: Pod> Arena<T> {
    /// Wraps `len` elements of `map` starting at `byte_offset`, verifying
    /// bounds and alignment up front so later reads are infallible.
    pub(crate) fn mapped(map: Arc<Mmap>, byte_offset: usize, len: usize) -> Result<Self, String> {
        let n_bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| format!("arena of {len} elements overflows the byte range"))?;
        let end = byte_offset
            .checked_add(n_bytes)
            .filter(|&e| e <= map.len())
            .ok_or_else(|| {
                format!(
                    "arena range {byte_offset}..{byte_offset}+{n_bytes} exceeds mapping of {} bytes",
                    map.len()
                )
            })?;
        cast_slice::<T>(&map.as_bytes()[byte_offset..end]).map_err(|e| e.to_string())?;
        Ok(Arena::Mapped { map, byte_offset, len })
    }

    /// The arena contents as a slice (zero-copy in both variants).
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Arena::Owned(v) => v.as_slice(),
            Arena::Mapped { map, byte_offset, len } => {
                let end = byte_offset + len * std::mem::size_of::<T>();
                cast_slice::<T>(&map.as_bytes()[*byte_offset..end])
                    .expect("mapped arena range was validated at construction")
            }
        }
    }

    /// Mutable access, promoting a mapped arena to an owned copy first
    /// (whole-arena copy-on-write; subsequent calls are free).
    pub(crate) fn make_mut(&mut self) -> &mut Vec<T> {
        if let Arena::Mapped { .. } = self {
            *self = Arena::Owned(self.as_slice().to_vec());
        }
        match self {
            Arena::Owned(v) => v,
            Arena::Mapped { .. } => unreachable!("mapped arena promoted above"),
        }
    }

    /// Whether the arena still serves straight from a mapped snapshot.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, Arena::Mapped { .. })
    }
}

impl<T: Pod> From<Vec<T>> for Arena<T> {
    fn from(v: Vec<T>) -> Self {
        Arena::Owned(v)
    }
}

impl<T: Pod> AsRef<[T]> for Arena<T> {
    #[inline]
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> std::ops::Deref for Arena<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip_and_cow() {
        let mut a: Arena<f32> = vec![1.0f32, 2.0, 3.0].into();
        assert!(!a.is_mapped());
        assert_eq!(&a[..], &[1.0, 2.0, 3.0]);
        a.make_mut().push(4.0);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn mapped_arena_validates_bounds() {
        let map = Arc::new(Mmap::default());
        assert!(Arena::<f32>::mapped(map, 0, 1).is_err());
    }
}
