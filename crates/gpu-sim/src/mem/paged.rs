//! Sparse, lazily-materialized backing store for device memory: a
//! two-level radix page table over the simulated device address space.

use super::{DevicePtr, DEVICE_ADDR_BASE};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Size of one backing page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// log2 of the pages one leaf maps (512 pages = 2 MiB of device memory).
const LEAF_SHIFT: u32 = 9;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;

/// One backing page.
type Page = [u8; PAGE_SIZE as usize];

/// Second level of the table: one slot per page, null while absent.
struct Leaf {
    pages: [AtomicPtr<Page>; LEAF_PAGES],
}

/// One contiguous piece of a byte range that stays inside one page.
#[derive(Clone, Copy)]
struct Piece {
    /// Page index, counted from [`DEVICE_ADDR_BASE`].
    index: u64,
    /// Byte offset of the piece within its page.
    in_page: usize,
    /// Byte offset of the piece within the whole range.
    at: usize,
    len: usize,
}

/// Byte offset of `addr` from [`DEVICE_ADDR_BASE`]. Addresses below the
/// base wrap to huge offsets, which no directory covers: they read as zero
/// and panic on write.
fn offset(addr: DevicePtr) -> u64 {
    addr.addr().wrapping_sub(DEVICE_ADDR_BASE)
}

/// Splits `[addr, addr + len)` into per-page pieces, lowest address first.
fn pieces(addr: DevicePtr, len: u64) -> impl Iterator<Item = Piece> {
    let start = offset(addr);
    let mut done = 0u64;
    std::iter::from_fn(move || {
        if done >= len {
            return None;
        }
        let cur = start.wrapping_add(done);
        let in_page = cur % PAGE_SIZE;
        let n = (PAGE_SIZE - in_page).min(len - done);
        let piece = Piece {
            index: cur / PAGE_SIZE,
            in_page: in_page as usize,
            at: done as usize,
            len: n as usize,
        };
        done += n;
        Some(piece)
    })
}

/// Loads `slot`, installing `make()` first if it is null. Returns the
/// slot's pointer and whether this call installed it; a thread that loses
/// the install race frees its copy and uses the winner's.
fn get_or_install<T>(slot: &AtomicPtr<T>, make: impl FnOnce() -> Box<T>) -> (*mut T, bool) {
    let cur = slot.load(Ordering::Acquire);
    if !cur.is_null() {
        return (cur, false);
    }
    let fresh = Box::into_raw(make());
    match slot.compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => (fresh, true),
        Err(winner) => {
            // SAFETY: `fresh` came from `Box::into_raw` above and was never
            // published.
            drop(unsafe { Box::from_raw(fresh) });
            (winner, false)
        }
    }
}

/// A sparse byte store covering the simulated device address space.
///
/// A two-level radix table indexed by `(addr - DEVICE_ADDR_BASE) /
/// PAGE_SIZE`: a directory sized from the device capacity points at leaves
/// of 512 page slots. Leaves and pages are allocated on first write and
/// zero-filled, matching the behaviour most workloads rely on after
/// `cudaMemset(ptr, 0, size)`. Untouched pages cost nothing — reads of
/// them return zero without materializing anything — so simulated
/// programs may overallocate wildly (the paper's *overallocation* pattern)
/// without bloating the host process.
///
/// Slots are installed with compare-and-swap, so kernel execution reads and
/// writes the table through `&self`, from every worker thread at once.
/// Page *bytes* are plain memory: concurrent kernel writes are sound only
/// under the launch contract that kernels run with more than one worker
/// are race-free (DESIGN.md §9).
///
/// # Examples
///
/// ```
/// use gpu_sim::mem::{PagedStore, DevicePtr, DEVICE_ADDR_BASE};
///
/// let mut store = PagedStore::new(1 << 20);
/// let p = DevicePtr::new(DEVICE_ADDR_BASE);
/// store.write_bytes(p, &[1, 2, 3]);
/// let mut buf = [0u8; 3];
/// store.read_bytes(p, &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
/// ```
pub struct PagedStore {
    dir: Box<[AtomicPtr<Leaf>]>,
    resident: AtomicUsize,
}

impl std::fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStore")
            .field("capacity", &self.capacity())
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        for slot in self.dir.iter_mut() {
            let leaf = *slot.get_mut();
            if leaf.is_null() {
                continue;
            }
            // SAFETY: leaves and pages come from `Box::into_raw` and are
            // owned by the table; `&mut self` excludes every other user.
            let mut leaf = unsafe { Box::from_raw(leaf) };
            for page in leaf.pages.iter_mut() {
                let page = *page.get_mut();
                if !page.is_null() {
                    // SAFETY: as above, for each resident page.
                    drop(unsafe { Box::from_raw(page) });
                }
            }
        }
    }
}

impl PagedStore {
    /// Creates an empty store covering `capacity` bytes from
    /// [`DEVICE_ADDR_BASE`] (rounded up to whole 2 MiB leaves).
    pub fn new(capacity: u64) -> Self {
        let leaves = capacity.div_ceil(PAGE_SIZE << LEAF_SHIFT);
        PagedStore {
            dir: (0..leaves).map(|_| AtomicPtr::default()).collect(),
            resident: AtomicUsize::new(0),
        }
    }

    /// Bytes of device address space the table covers.
    fn capacity(&self) -> u64 {
        self.dir.len() as u64 * (PAGE_SIZE << LEAF_SHIFT)
    }

    /// Number of pages that have been materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of resident bytes (pages × page size).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages() as u64 * PAGE_SIZE
    }

    /// Returns `true` if the page containing `addr` has been materialized.
    pub fn is_resident(&self, addr: DevicePtr) -> bool {
        !self.page(offset(addr) / PAGE_SIZE).is_null()
    }

    fn leaf(&self, index: u64) -> Option<&Leaf> {
        let leaf = self
            .dir
            .get((index >> LEAF_SHIFT) as usize)?
            .load(Ordering::Acquire);
        // SAFETY: a published leaf lives until the table is dropped.
        unsafe { leaf.as_ref() }
    }

    /// The page at `index`, or null while it is absent.
    #[inline]
    fn page(&self, index: u64) -> *mut Page {
        match self.leaf(index) {
            Some(leaf) => leaf.pages[index as usize & (LEAF_PAGES - 1)].load(Ordering::Acquire),
            None => ptr::null_mut(),
        }
    }

    /// The page at `index`, materialized (zeroed) if absent.
    ///
    /// # Panics
    ///
    /// Panics if `index` lies beyond the table's capacity.
    fn page_or_insert(&self, index: u64) -> *mut Page {
        let slot = self
            .dir
            .get((index >> LEAF_SHIFT) as usize)
            .unwrap_or_else(|| {
                panic!(
                    "device page {index} lies outside the {}-byte page table",
                    self.capacity()
                )
            });
        let (leaf, _) = get_or_install(slot, || {
            Box::new(Leaf {
                pages: [const { AtomicPtr::new(ptr::null_mut()) }; LEAF_PAGES],
            })
        });
        // SAFETY: `leaf` is published and lives until the table is dropped.
        let slot = unsafe { &(*leaf).pages[index as usize & (LEAF_PAGES - 1)] };
        let (page, installed) = get_or_install(slot, || {
            vec![0u8; PAGE_SIZE as usize]
                .into_boxed_slice()
                .try_into()
                .expect("a page-sized slice")
        });
        if installed {
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        page
    }

    /// Calls `f` on every resident page slot with an index in
    /// `[first, last)`, skipping absent leaves whole.
    fn for_resident(&mut self, first: u64, last: u64, mut f: impl FnMut(u64, &mut *mut Page)) {
        let mut index = first;
        while index < last {
            let stop = last.min(((index >> LEAF_SHIFT) + 1) << LEAF_SHIFT);
            let leaf = self
                .dir
                .get_mut((index >> LEAF_SHIFT) as usize)
                .map_or(ptr::null_mut(), |slot| *slot.get_mut());
            // SAFETY: published leaves live until drop; `&mut self` makes
            // this the only reference.
            if let Some(leaf) = unsafe { leaf.as_mut() } {
                for i in index..stop {
                    let slot = leaf.pages[i as usize & (LEAF_PAGES - 1)].get_mut();
                    if !slot.is_null() {
                        f(i, slot);
                    }
                }
            }
            index = stop;
        }
    }

    /// Writes `data` starting at `addr`, materializing pages as needed.
    pub fn write_bytes(&mut self, addr: DevicePtr, data: &[u8]) {
        // SAFETY: `&mut self` excludes every other access.
        unsafe { self.store_bytes(addr, data) };
    }

    /// [`PagedStore::write_bytes`] through a shared reference: the kernel
    /// executor's store path.
    ///
    /// # Safety
    ///
    /// No other thread may read or write any of these bytes at the same
    /// time — the race-free-kernel contract of parallel launches.
    pub(crate) unsafe fn store_bytes(&self, addr: DevicePtr, data: &[u8]) {
        for p in pieces(addr, data.len() as u64) {
            let page = self.page_or_insert(p.index);
            // SAFETY: the page is live and `in_page + len <= PAGE_SIZE`;
            // the caller guarantees no other thread touches these bytes.
            unsafe {
                ptr::copy_nonoverlapping(
                    data.as_ptr().add(p.at),
                    page.cast::<u8>().add(p.in_page),
                    p.len,
                );
            }
        }
    }

    /// Reads into `buf` starting at `addr`. Unmaterialized pages read as
    /// zero and stay unmaterialized.
    pub fn read_bytes(&self, addr: DevicePtr, buf: &mut [u8]) {
        for p in pieces(addr, buf.len() as u64) {
            let page = self.page(p.index);
            let out = &mut buf[p.at..p.at + p.len];
            if page.is_null() {
                out.fill(0);
            } else {
                // SAFETY: as in `store_bytes`, for a read.
                unsafe {
                    ptr::copy_nonoverlapping(
                        page.cast::<u8>().add(p.in_page),
                        out.as_mut_ptr(),
                        p.len,
                    );
                }
            }
        }
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// A `value` of zero leaves unmaterialized pages untouched, mirroring
    /// how real `cudaMemset` to zero leaves untouched physical pages zero.
    pub fn fill(&mut self, addr: DevicePtr, len: u64, value: u8) {
        if value != 0 {
            for p in pieces(addr, len) {
                let page = self.page_or_insert(p.index);
                // SAFETY: live page, in-bounds range, exclusive access.
                unsafe { ptr::write_bytes(page.cast::<u8>().add(p.in_page), value, p.len) };
            }
            return;
        }
        let (start, end) = (offset(addr), offset(addr).saturating_add(len));
        self.for_resident(start / PAGE_SIZE, end.div_ceil(PAGE_SIZE), |index, page| {
            let page_start = index * PAGE_SIZE;
            let from = start.max(page_start) - page_start;
            let to = end.min(page_start + PAGE_SIZE) - page_start;
            // SAFETY: live page, in-bounds range, exclusive access.
            unsafe {
                ptr::write_bytes(
                    page.cast::<u8>().add(from as usize),
                    0,
                    (to - from) as usize,
                )
            };
        });
    }

    /// Copies `len` bytes from `src` to `dst` within the device, with
    /// `memmove` semantics for overlapping ranges.
    ///
    /// Copies page by page: an absent source page zeroes only destination
    /// pages that are already resident, so copying untouched memory
    /// materializes nothing.
    pub fn copy_within(&mut self, dst: DevicePtr, src: DevicePtr, len: u64) {
        // Copy high-to-low when the destination overlaps the source's
        // tail, so no source byte is overwritten before it is read.
        let (src, dst) = (offset(src), offset(dst));
        let backward = dst > src && dst < src.saturating_add(len);
        let mut done = 0u64;
        while done < len {
            // The next chunk lies inside one source and one destination
            // page: taken from the low end going forward, from the high end
            // going backward.
            let left = len - done;
            let (s, d, n) = if backward {
                let (s_end, d_end) = (src + left, dst + left);
                let room = |end: u64| (end - 1) % PAGE_SIZE + 1;
                let n = left.min(room(s_end)).min(room(d_end));
                (s_end - n, d_end - n, n)
            } else {
                let (s, d) = (src + done, dst + done);
                let room = |at: u64| PAGE_SIZE - at % PAGE_SIZE;
                (s, d, left.min(room(s)).min(room(d)))
            };
            let from = self.page(s / PAGE_SIZE);
            let to = if from.is_null() {
                self.page(d / PAGE_SIZE)
            } else {
                self.page_or_insert(d / PAGE_SIZE)
            };
            if !to.is_null() {
                let (s, d) = ((s % PAGE_SIZE) as usize, (d % PAGE_SIZE) as usize);
                // SAFETY: both pages are live and both ranges lie inside
                // their pages; `copy` tolerates the two ranges sharing a
                // page. Exclusive access through `&mut self`.
                unsafe {
                    let to = to.cast::<u8>().add(d);
                    if from.is_null() {
                        ptr::write_bytes(to, 0, n as usize);
                    } else {
                        ptr::copy(from.cast::<u8>().add(s), to, n as usize);
                    }
                }
            }
            done += n;
        }
    }

    /// Reads a little-endian `u32` at `addr`.
    pub fn read_u32(&self, addr: DevicePtr) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u32` at `addr`.
    pub fn write_u32(&mut self, addr: DevicePtr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: DevicePtr) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: DevicePtr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f32` at `addr`.
    pub fn read_f32(&self, addr: DevicePtr) -> f32 {
        f32::from_le_bytes(self.read_array(addr))
    }

    /// Writes an `f32` at `addr`.
    pub fn write_f32(&mut self, addr: DevicePtr, v: f32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads an `f64` at `addr`.
    pub fn read_f64(&self, addr: DevicePtr) -> f64 {
        f64::from_le_bytes(self.read_array(addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: DevicePtr, v: f64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads `N` bytes at `addr`.
    pub(crate) fn read_array<const N: usize>(&self, addr: DevicePtr) -> [u8; N] {
        let mut b = [0u8; N];
        self.read_bytes(addr, &mut b);
        b
    }

    /// Discards all materialized pages whose addresses fall entirely inside
    /// `[start, start + len)`, releasing host memory for freed allocations.
    pub fn discard(&mut self, start: DevicePtr, len: u64) {
        let rel = offset(start);
        let first_full = rel.div_ceil(PAGE_SIZE);
        let last_full = rel.saturating_add(len) / PAGE_SIZE; // exclusive
        let mut freed = 0;
        self.for_resident(first_full, last_full, |_, page| {
            // SAFETY: the page came from `Box::into_raw` and its slot is
            // cleared here, so it is freed exactly once.
            drop(unsafe { Box::from_raw(*page) });
            *page = ptr::null_mut();
            freed += 1;
        });
        *self.resident.get_mut() -= freed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Enough capacity for several leaves.
    const CAPACITY: u64 = 64 << 20;

    fn base() -> DevicePtr {
        DevicePtr::new(DEVICE_ADDR_BASE)
    }

    fn store() -> PagedStore {
        PagedStore::new(CAPACITY)
    }

    #[test]
    fn read_unwritten_memory_is_zero() {
        let store = store();
        let mut buf = [7u8; 16];
        store.read_bytes(base(), &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip_across_page_boundary() {
        let mut store = store();
        let p = base() + (PAGE_SIZE - 3);
        let data: Vec<u8> = (0..10).collect();
        store.write_bytes(p, &data);
        let mut out = vec![0u8; 10];
        store.read_bytes(p, &mut out);
        assert_eq!(out, data);
        assert_eq!(store.resident_pages(), 2);
    }

    #[test]
    fn zero_fill_does_not_materialize_pages() {
        let mut store = store();
        store.fill(base(), 1 << 20, 0);
        assert_eq!(store.resident_pages(), 0);
    }

    #[test]
    fn nonzero_fill_materializes_pages() {
        let mut store = store();
        store.fill(base(), 2 * PAGE_SIZE, 0xAB);
        assert_eq!(store.resident_pages(), 2);
        let mut b = [0u8; 1];
        store.read_bytes(base() + PAGE_SIZE + 7, &mut b);
        assert_eq!(b[0], 0xAB);
    }

    #[test]
    fn zero_fill_clears_existing_data() {
        let mut store = store();
        store.write_bytes(base(), &[9u8; 32]);
        store.fill(base() + 8, 16, 0);
        let mut out = [0u8; 32];
        store.read_bytes(base(), &mut out);
        assert_eq!(&out[..8], &[9u8; 8]);
        assert_eq!(&out[8..24], &[0u8; 16]);
        assert_eq!(&out[24..], &[9u8; 8]);
    }

    #[test]
    fn typed_accessors_round_trip() {
        let mut store = store();
        store.write_u32(base(), 0xDEAD_BEEF);
        assert_eq!(store.read_u32(base()), 0xDEAD_BEEF);
        store.write_u64(base() + 8, u64::MAX - 5);
        assert_eq!(store.read_u64(base() + 8), u64::MAX - 5);
        store.write_f32(base() + 16, 3.25);
        assert_eq!(store.read_f32(base() + 16), 3.25);
        store.write_f64(base() + 24, -1.5e300);
        assert_eq!(store.read_f64(base() + 24), -1.5e300);
    }

    #[test]
    fn copy_within_handles_overlap() {
        let mut store = store();
        let data: Vec<u8> = (0..64).collect();
        store.write_bytes(base(), &data);
        store.copy_within(base() + 8, base(), 64);
        let mut out = vec![0u8; 64];
        store.read_bytes(base() + 8, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn concurrent_stores_materialize_each_page_once() {
        let store = store();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..64u64 {
                        // SAFETY: every thread writes its own byte of
                        // each page.
                        unsafe { store.store_bytes(base() + i * PAGE_SIZE + t, &[t as u8 + 1]) };
                    }
                });
            }
        });
        assert_eq!(store.resident_pages(), 64);
        for i in 0..64u64 {
            let got: [u8; 4] = store.read_array(base() + i * PAGE_SIZE);
            assert_eq!(got, [1, 2, 3, 4]);
        }
    }

    #[test]
    fn top_of_the_table_is_addressable_and_beyond_panics() {
        let mut store = store();
        let top = base() + store.capacity() - 4;
        store.write_u32(top, 7);
        assert_eq!(store.read_u32(top), 7);
        let mut past = [9u8; 4];
        store.read_bytes(top + 4, &mut past);
        assert_eq!(past, [0u8; 4], "reads past the table are zero");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.write_u32(top + 4, 1);
        }));
        assert!(panicked.is_err());
    }

    #[test]
    fn discard_releases_full_pages_only() {
        let mut store = store();
        store.write_bytes(base(), &[1u8; (3 * PAGE_SIZE) as usize]);
        assert_eq!(store.resident_pages(), 3);
        // Range covers the middle page fully, the outer two partially.
        store.discard(base() + 100, 2 * PAGE_SIZE);
        assert_eq!(store.resident_pages(), 2);
        assert!(store.is_resident(base()));
        assert!(!store.is_resident(base() + PAGE_SIZE));
    }
}
