//! Read-only memory-mapped files and the owned-or-mapped backing store
//! behind zero-copy snapshot serving.
//!
//! The snapshot format lays its posting payloads out as fixed-width
//! little-endian tables precisely so a reader can serve them straight out
//! of the page cache: [`MmapFile`] maps a file read-only, [`ByteRegion`]
//! carves checked sub-ranges out of it, and [`MappedSlice`] reinterprets an
//! aligned region as a typed slice without copying. [`Store`] is the
//! enum that lets a container own its elements (`Vec<T>`, the build and
//! update paths) or borrow them from a mapping (the `open_mmap` path) behind
//! one `Deref<Target = [T]>` — algorithms over `&[T]` cannot tell the two
//! apart, and the first mutation transparently copies a mapped store onto
//! the heap ([`Store::vec_mut`]).
//!
//! Mapping is zero-copy only on 64-bit Unix; elsewhere [`MmapFile::open`]
//! falls back to reading the file into an 8-byte-aligned heap buffer, which
//! keeps every consumer correct (just not shared between processes).
//! Typed reinterpretation assumes a little-endian host, which callers must
//! check first (see [`MappedSlice::new`]); the fully-validating heap
//! loaders remain endian-independent.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::{Result, ScubeError};

/// Plain-old-data element types a mapped region may be reinterpreted as:
/// every bit pattern is a valid value and the alignment divides 8 (both the
/// mmap page base and the heap fallback buffer are 8-aligned, so an
/// 8-aligned *file offset* guarantees an aligned pointer).
///
/// # Safety
///
/// Implementors must be inhabited for every bit pattern, contain no
/// padding, and have `align_of::<Self>() <= 8`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    // std already links the platform libc on unix targets; declaring the
    // two calls we need avoids a dependency on the `libc` crate.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

enum Inner {
    /// A live `mmap(2)` of the whole file.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: *const u8, len: usize },
    /// The file's bytes copied into an 8-aligned heap buffer — the
    /// fallback when mapping is unavailable (or refused by the kernel).
    Heap { buf: Vec<u64>, len: usize },
}

/// A whole file opened read-only, memory-mapped when the platform allows
/// and copied into an aligned heap buffer otherwise. Dropping the last
/// clone of the owning [`Arc`] unmaps it; [`ByteRegion`]s keep it alive.
pub struct MmapFile {
    inner: Inner,
}

// The mapping is immutable for the lifetime of the value (PROT_READ +
// MAP_PRIVATE), so shared references may cross threads freely.
unsafe impl Send for MmapFile {}
unsafe impl Sync for MmapFile {}

impl MmapFile {
    /// Open `path` read-only and map (or read) its full contents.
    pub fn open(path: impl AsRef<Path>) -> Result<MmapFile> {
        let path = path.as_ref();
        let io = |e| ScubeError::io_at(path.display().to_string(), e);
        let file = std::fs::File::open(path).map_err(io)?;
        let len64 = file.metadata().map_err(io)?.len();
        let len = usize::try_from(len64).map_err(|_| {
            ScubeError::Inconsistent(format!("mmap: file is too large ({len64} bytes)"))
        })?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                return Ok(MmapFile { inner: Inner::Mapped { ptr: ptr as *const u8, len } });
            }
            // Mapping refused (e.g. a pseudo-file): fall through to a read.
        }
        Self::read_heap(&file, len).map_err(io)
    }

    /// Fallback: read the file into a `Vec<u64>` so the base is 8-aligned
    /// and typed reinterpretation stays sound.
    fn read_heap(mut file: &std::fs::File, len: usize) -> std::io::Result<MmapFile> {
        use std::io::Read;
        let mut buf: Vec<u64> = vec![0; len.div_ceil(8)];
        let dst: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        file.read_exact(dst)?;
        Ok(MmapFile { inner: Inner::Heap { buf, len } })
    }

    /// The file's contents.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Heap { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    /// File length in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped { len, .. } => *len,
            Inner::Heap { len, .. } => *len,
        }
    }

    /// True for an empty file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the contents are served by a live mapping rather than the
    /// heap fallback (diagnostics only; behavior is identical).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped { .. } => true,
            Inner::Heap { .. } => false,
        }
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Inner::Mapped { ptr, len } = self.inner {
            unsafe {
                sys::munmap(ptr as *mut core::ffi::c_void, len);
            }
        }
    }
}

impl fmt::Debug for MmapFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MmapFile")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A byte range of an [`MmapFile`], keeping the mapping alive. Cheap to
/// clone (an `Arc` bump); sub-ranges are always bounds-checked.
#[derive(Clone)]
pub struct ByteRegion {
    file: Arc<MmapFile>,
    offset: usize,
    len: usize,
}

impl ByteRegion {
    /// The whole file as one region.
    pub fn whole(file: Arc<MmapFile>) -> ByteRegion {
        let len = file.len();
        ByteRegion { file, offset: 0, len }
    }

    /// A sub-range (`offset` relative to this region); `None` when it
    /// falls outside the region.
    pub fn slice(&self, offset: usize, len: usize) -> Option<ByteRegion> {
        let end = offset.checked_add(len)?;
        if end > self.len {
            return None;
        }
        Some(ByteRegion { file: Arc::clone(&self.file), offset: self.offset + offset, len })
    }

    /// The region's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.file.as_bytes()[self.offset..self.offset + self.len]
    }

    /// Absolute byte offset of the region's start within the file —
    /// what alignment guarantees are stated against.
    pub fn file_offset(&self) -> usize {
        self.offset
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty region.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for ByteRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteRegion").field("offset", &self.offset).field("len", &self.len).finish()
    }
}

/// An aligned [`ByteRegion`] reinterpreted as `[T]` without copying.
#[derive(Clone)]
pub struct MappedSlice<T: Pod> {
    region: ByteRegion,
    _marker: PhantomData<T>,
}

impl<T: Pod> MappedSlice<T> {
    /// Wrap a region as a typed slice. Fails when the region's length is
    /// not a multiple of `size_of::<T>()` or its *file offset* is not
    /// aligned to `align_of::<T>()` (both mapping bases are 8-aligned, so
    /// offset alignment implies pointer alignment for every [`Pod`] type).
    ///
    /// Callers must have checked the host is little-endian before trusting
    /// multi-byte values read through the slice.
    pub fn new(region: ByteRegion) -> Option<MappedSlice<T>> {
        if !region.len().is_multiple_of(std::mem::size_of::<T>())
            || !region.file_offset().is_multiple_of(std::mem::align_of::<T>())
        {
            return None;
        }
        Some(MappedSlice { region, _marker: PhantomData })
    }

    /// The typed contents.
    pub fn as_slice(&self) -> &[T] {
        let bytes = self.region.as_slice();
        let len = bytes.len() / std::mem::size_of::<T>();
        // Sound: Pod admits every bit pattern, the constructor checked
        // size and alignment, and the region pins the backing mapping.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, len) }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.region.len() / std::mem::size_of::<T>()
    }

    /// True for an empty slice.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }
}

impl<T: Pod> Deref for MappedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for MappedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Element storage that is either owned (`Vec<T>`) or borrowed from a
/// mapped snapshot. Derefs to `[T]`, so read paths are oblivious; mutation
/// goes through [`Store::vec_mut`] / [`Store::take_vec`], which copy a
/// mapped store onto the heap first (copy-on-write).
#[derive(Clone)]
pub enum Store<T: Pod> {
    /// Heap-owned elements — the build, update, and heap-load paths.
    Owned(Vec<T>),
    /// Elements served in place from a mapped file.
    Mapped(MappedSlice<T>),
}

impl<T: Pod> Store<T> {
    /// The elements as a slice (either backing).
    pub fn as_slice(&self) -> &[T] {
        match self {
            Store::Owned(v) => v,
            Store::Mapped(m) => m.as_slice(),
        }
    }

    /// Mutable access to the owned vector, copying mapped contents onto
    /// the heap first. After this call the store is always `Owned`.
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        if let Store::Mapped(m) = self {
            *self = Store::Owned(m.as_slice().to_vec());
        }
        match self {
            Store::Owned(v) => v,
            Store::Mapped(_) => unreachable!("vec_mut materialized above"),
        }
    }

    /// Take the elements as an owned vector (copying if mapped), leaving
    /// an empty owned store behind — the moral equivalent of
    /// `std::mem::take` on a `Vec`.
    pub fn take_vec(&mut self) -> Vec<T> {
        std::mem::take(self.vec_mut())
    }

    /// Heap bytes attributable to this store: a mapped store occupies the
    /// page cache, not this process's heap.
    pub fn heap_capacity(&self) -> usize {
        match self {
            Store::Owned(v) => v.capacity(),
            Store::Mapped(_) => 0,
        }
    }

    /// True when backed by a mapping (diagnostics / tests).
    pub fn is_mapped(&self) -> bool {
        matches!(self, Store::Mapped(_))
    }
}

impl<T: Pod> Deref for Store<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> Default for Store<T> {
    fn default() -> Self {
        Store::Owned(Vec::new())
    }
}

impl<T: Pod> From<Vec<T>> for Store<T> {
    fn from(v: Vec<T>) -> Self {
        Store::Owned(v)
    }
}

impl<T: Pod> From<MappedSlice<T>> for Store<T> {
    fn from(m: MappedSlice<T>) -> Self {
        Store::Mapped(m)
    }
}

impl<T: Pod + PartialEq> PartialEq for Store<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Pod + Eq> Eq for Store<T> {}

impl<T: Pod + fmt::Debug> fmt::Debug for Store<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn maps_and_reads_back() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = tmp("scube_mmap_roundtrip.bin", &data);
        let file = MmapFile::open(&path).unwrap();
        assert_eq!(file.len(), data.len());
        assert_eq!(file.as_bytes(), &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_fine() {
        let path = tmp("scube_mmap_empty.bin", &[]);
        let file = MmapFile::open(&path).unwrap();
        assert!(file.is_empty());
        assert_eq!(file.as_bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(MmapFile::open("/nonexistent/scube_mmap_nope.bin").is_err());
    }

    #[test]
    fn regions_are_bounds_checked() {
        let words: Vec<u64> = (0..64u64).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = tmp("scube_mmap_regions.bin", &bytes);
        let file = Arc::new(MmapFile::open(&path).unwrap());
        let whole = ByteRegion::whole(Arc::clone(&file));
        assert_eq!(whole.len(), 512);
        assert!(whole.slice(0, 513).is_none());
        assert!(whole.slice(512, 1).is_none());
        assert!(whole.slice(usize::MAX, 2).is_none(), "offset overflow");
        let sub = whole.slice(8, 16).unwrap();
        assert_eq!(sub.file_offset(), 8);
        assert_eq!(sub.as_slice(), &bytes[8..24]);
        // Sub-slicing a sub-region composes.
        let subsub = sub.slice(8, 8).unwrap();
        assert_eq!(subsub.as_slice(), &bytes[16..24]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_slices_enforce_size_and_alignment() {
        if cfg!(target_endian = "big") {
            return; // typed views are little-endian-host only
        }
        let words: Vec<u64> = (100..164u64).collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = tmp("scube_mmap_typed.bin", &bytes);
        let file = Arc::new(MmapFile::open(&path).unwrap());
        let whole = ByteRegion::whole(Arc::clone(&file));
        let typed = MappedSlice::<u64>::new(whole.clone()).unwrap();
        assert_eq!(typed.as_slice(), &words[..]);
        // Misaligned offset and ragged length are rejected.
        assert!(MappedSlice::<u64>::new(whole.slice(4, 16).unwrap()).is_none());
        assert!(MappedSlice::<u64>::new(whole.slice(8, 12).unwrap()).is_none());
        // u32 view of the same data works at 4-byte alignment.
        let u32s = MappedSlice::<u32>::new(whole.slice(4, 8).unwrap()).unwrap();
        assert_eq!(u32s.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_copy_on_write() {
        if cfg!(target_endian = "big") {
            return;
        }
        let words: Vec<u64> = vec![7, 8, 9];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = tmp("scube_mmap_store.bin", &bytes);
        let file = Arc::new(MmapFile::open(&path).unwrap());
        let mapped = MappedSlice::<u64>::new(ByteRegion::whole(file)).unwrap();
        let mut store: Store<u64> = Store::Mapped(mapped);
        assert!(store.is_mapped());
        assert_eq!(&store[..], &[7, 8, 9]);
        assert_eq!(store.heap_capacity(), 0);
        // Equality is by contents, either backing.
        assert_eq!(store, Store::Owned(vec![7, 8, 9]));
        // First mutation copies to the heap.
        store.vec_mut().push(10);
        assert!(!store.is_mapped());
        assert_eq!(&store[..], &[7, 8, 9, 10]);
        let taken = store.take_vec();
        assert_eq!(taken, vec![7, 8, 9, 10]);
        assert!(store.as_slice().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
