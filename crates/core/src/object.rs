//! Data objects and the memory map `M` (Sec. 5.1).
//!
//! DrGPUM maintains a memory map from live address ranges to data objects.
//! At each allocation the range and the unwound call path are inserted; at
//! each deallocation the record is retired (never discarded — retired objects
//! still carry findings). Lookups by address are interval searches, exactly
//! the binary search the paper offloads to the GPU in Fig. 5.

use gpu_sim::{AddrRange, CallPath, DevicePtr};
use std::collections::BTreeMap;
use std::fmt;

/// Stable identity of a data object across its whole lifetime.
///
/// Device addresses are reused after `cudaFree`; object ids are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// Where an object's memory came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectSource {
    /// A direct `cudaMalloc` allocation.
    Cuda,
    /// The backing slab of a caching pool (excluded from pattern findings;
    /// its tensors are analyzed instead).
    PoolSlab,
    /// A tensor carved out of a caching pool via custom allocator APIs
    /// (Sec. 5.4).
    PoolTensor,
}

impl ObjectSource {
    /// Whether objects from this source participate in pattern detection.
    pub fn is_analyzable(self) -> bool {
        !matches!(self, ObjectSource::PoolSlab)
    }
}

/// One data object: an allocation observed by the collector.
#[derive(Debug, Clone)]
pub struct DataObject {
    /// Stable id.
    pub id: ObjectId,
    /// Program-supplied label (variable name), e.g. `"q_dx"`.
    pub label: String,
    /// Base address and requested size.
    pub range: AddrRange,
    /// Provenance of the memory.
    pub source: ObjectSource,
    /// Index into the GPU-API trace *after* which the object existed: the
    /// allocation API's own index for CUDA objects, or the number of GPU
    /// APIs seen so far for pool tensors (whose allocs are not GPU APIs).
    pub alloc_api: usize,
    /// Like `alloc_api`, but for the deallocation; `None` while live — and,
    /// at the end of a run, `None` means the paper's *memory leak* pattern.
    pub free_api: Option<usize>,
    /// Host call path at allocation.
    pub alloc_path: CallPath,
    /// Whether the allocation API itself is a GPU API in the trace (true for
    /// `cudaMalloc`, false for pool tensors).
    pub alloc_is_api: bool,
    /// Whether the deallocation is a GPU API (`cudaFree`) rather than a
    /// pool-level free anchored between GPU APIs.
    pub free_is_api: bool,
}

impl DataObject {
    /// Requested size in bytes.
    pub fn size(&self) -> u64 {
        self.range.len
    }

    /// Returns `true` if the object was never deallocated.
    pub fn leaked(&self) -> bool {
        self.free_api.is_none()
    }
}

/// The memory map `M`: all data objects ever observed, with interval lookup
/// over the currently-live ones.
///
/// # Examples
///
/// ```
/// use drgpum_core::object::{ObjectRegistry, ObjectSource};
/// use gpu_sim::{AddrRange, CallPath, DevicePtr};
///
/// let mut reg = ObjectRegistry::new();
/// let id = reg.on_alloc(
///     "weights",
///     AddrRange::new(DevicePtr::new(0x1000), 64),
///     ObjectSource::Cuda,
///     0,
///     true,
///     CallPath::empty(),
/// );
/// assert_eq!(reg.resolve(DevicePtr::new(0x1020)), Some(id));
/// reg.on_free(DevicePtr::new(0x1000), 5);
/// assert_eq!(reg.resolve(DevicePtr::new(0x1020)), None);
/// assert!(reg.get(id).unwrap().free_api.is_some());
/// ```
#[derive(Debug, Default)]
pub struct ObjectRegistry {
    objects: Vec<DataObject>,
    /// Live interval index: `(base address, is pool tensor)` → object id.
    /// A pool tensor carved at offset 0 of its slab shares the slab's base,
    /// so the base alone cannot key both; the tensor sorts after the slab,
    /// which keeps it innermost. Source of truth for alloc/free semantics;
    /// the flat `index` below is rebuilt from it.
    live: BTreeMap<(u64, bool), ObjectId>,
    /// Epoch-tagged flat snapshot of `live`, sorted by base address.
    /// Rebuilt on every alloc/free (rare); queried by binary search on the
    /// per-access hot path (frequent). The `epoch` counter invalidates any
    /// [`ResolveCache`] or downstream hint memo filled under an older
    /// snapshot.
    index: Vec<IndexEntry>,
    epoch: u64,
}

/// One live interval in the flat snapshot index.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    start: u64,
    end: u64,
    /// Maximum `end` over this entry and all entries at lower indices.
    /// Lets the backward containment scan stop as soon as no earlier
    /// interval can still cover the probe address.
    prefix_max_end: u64,
    id: ObjectId,
}

/// Last-hit cache for [`ObjectRegistry::resolve_cached`].
///
/// Holds the address window `[lo, hi)` inside which every address resolves
/// to `id` (the window is clamped to exclude nested pool tensors), plus the
/// registry epoch the entry was filled under. A stale epoch — any alloc or
/// free since the fill — misses and refills; a hit never consults the index.
#[derive(Debug, Clone, Copy)]
pub struct ResolveCache {
    epoch: u64,
    lo: u64,
    hi: u64,
    /// Base address of the cached object (offsets are relative to this, not
    /// to `lo`, which may sit past a nested tensor).
    base: u64,
    id: ObjectId,
    /// Lookups that missed and searched the index.
    misses: u64,
}

impl Default for ResolveCache {
    fn default() -> Self {
        // An empty window under an impossible epoch: always misses.
        ResolveCache {
            epoch: u64::MAX,
            lo: 1,
            hi: 0,
            base: 0,
            id: ObjectId(u64::MAX),
            misses: 0,
        }
    }
}

impl ResolveCache {
    /// Creates an empty (always-miss) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// End of the window the last successful lookup resolved in: every
    /// address from the looked-up one up to (excluding) this resolves to
    /// the same object.
    pub fn window_end(&self) -> u64 {
        self.hi
    }

    /// Number of lookups that missed the cached window and searched the
    /// interval index.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// One contiguous piece of a resolved address span: `len` bytes at `offset`
/// within `object`. See [`ObjectRegistry::resolve_span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSegment {
    /// The innermost live object covering this piece.
    pub object: ObjectId,
    /// Byte offset of the piece within the object.
    pub offset: u64,
    /// Length of the piece in bytes.
    pub len: u64,
}

impl ObjectRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ObjectRegistry::default()
    }

    /// Records an allocation and returns the new object's id.
    pub fn on_alloc(
        &mut self,
        label: impl Into<String>,
        range: AddrRange,
        source: ObjectSource,
        alloc_api: usize,
        alloc_is_api: bool,
        alloc_path: CallPath,
    ) -> ObjectId {
        let id = ObjectId(self.objects.len() as u64);
        self.objects.push(DataObject {
            id,
            label: label.into(),
            range,
            source,
            alloc_api,
            free_api: None,
            alloc_path,
            alloc_is_api,
            free_is_api: true,
        });
        self.live
            .insert((range.start.addr(), source == ObjectSource::PoolTensor), id);
        self.rebuild_index();
        id
    }

    /// Records a deallocation of the object based at `base`.
    ///
    /// Frees the allocation at `base` (a slab wins over a tensor carved at
    /// its offset 0; a lone tensor is freed too). Returns the retired
    /// object's id, or `None` if no live object starts at `base` (e.g. a
    /// pool-internal pointer).
    pub fn on_free(&mut self, base: DevicePtr, free_api: usize) -> Option<ObjectId> {
        let key = (base.addr(), false);
        let key = if self.live.contains_key(&key) {
            key
        } else {
            (base.addr(), true)
        };
        self.on_free_with(key, free_api, true)
    }

    /// Records a pool-level deallocation of the tensor based at `base`,
    /// anchored *before* GPU API `anchor`; the free itself is not a GPU API
    /// (Sec. 5.4). A slab sharing the tensor's base stays live.
    pub fn on_pool_free(&mut self, base: DevicePtr, anchor: usize) -> Option<ObjectId> {
        self.on_free_with((base.addr(), true), anchor, false)
    }

    fn on_free_with(
        &mut self,
        key: (u64, bool),
        free_api: usize,
        is_api: bool,
    ) -> Option<ObjectId> {
        let id = self.live.remove(&key)?;
        let obj = &mut self.objects[id.0 as usize];
        obj.free_api = Some(free_api);
        obj.free_is_api = is_api;
        self.rebuild_index();
        Some(id)
    }

    /// Rebuilds the flat snapshot from the live map and bumps the epoch,
    /// invalidating every cache filled under the previous snapshot.
    fn rebuild_index(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.index.clear();
        let mut max_end = 0u64;
        for (&(start, _), &id) in &self.live {
            let end = self.objects[id.0 as usize].range.end().addr();
            max_end = max_end.max(end);
            self.index.push(IndexEntry {
                start,
                end,
                prefix_max_end: max_end,
                id,
            });
        }
    }

    /// The current snapshot epoch. Bumped on every allocation and free;
    /// caches carrying an older epoch must treat their contents as stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Interval lookup: the live object containing `addr`, innermost wins.
    ///
    /// When a pool tensor and its backing slab both cover `addr`, the tensor
    /// (whose base is ≥ the slab's base, and which is registered later) is
    /// preferred so that accesses attribute to tensors, not slabs.
    ///
    /// Queries the flat snapshot index: binary search for the last interval
    /// starting at or below `addr`, then a short backward containment scan
    /// that stops as soon as the prefix-max end rules out every earlier
    /// interval.
    pub fn resolve(&self, addr: DevicePtr) -> Option<ObjectId> {
        self.resolve_window(addr.addr()).map(|(e, _, _)| e.id)
    }

    /// Cache-assisted interval lookup returning `(object, byte offset)`.
    ///
    /// On a hit — same epoch, address inside the cached window — this is a
    /// pair of comparisons; allocation locality makes hits the common case.
    /// On a miss the snapshot index is searched and the cache refilled with
    /// the containing window.
    pub fn resolve_cached(
        &self,
        addr: DevicePtr,
        cache: &mut ResolveCache,
    ) -> Option<(ObjectId, u64)> {
        let a = addr.addr();
        if cache.epoch == self.epoch && cache.lo <= a && a < cache.hi {
            return Some((cache.id, a - cache.base));
        }
        cache.misses += 1;
        let (e, lo, hi) = self.resolve_window(a)?;
        *cache = ResolveCache {
            epoch: self.epoch,
            lo,
            hi,
            base: e.start,
            id: e.id,
            misses: cache.misses,
        };
        Some((e.id, a - e.start))
    }

    /// Finds the innermost interval containing `a` plus the widest window
    /// `[lo, hi)` around `a` in which every address resolves to that same
    /// interval (i.e. no other live boundary falls inside the window).
    fn resolve_window(&self, a: u64) -> Option<(IndexEntry, u64, u64)> {
        // First index whose start is strictly above `a`: bounds the window
        // from above, and the backward scan starts just below it.
        let j = self.index.partition_point(|e| e.start <= a);
        let mut lo_bound = 0u64;
        let mut i = j;
        while i > 0 {
            i -= 1;
            let e = self.index[i];
            if e.prefix_max_end <= a {
                // No interval here or earlier reaches past `a`.
                return None;
            }
            if a < e.end {
                // `e.start <= a` by construction: innermost match. Intervals
                // never partially overlap, so the window is clipped only by
                // the nearest boundaries: ends of the (nested) intervals we
                // skipped below `a`, and the next start above `a`.
                let lo = lo_bound.max(e.start);
                let mut hi = e.end;
                if let Some(nxt) = self.index.get(j) {
                    hi = hi.min(nxt.start);
                }
                return Some((e, lo, hi));
            }
            lo_bound = lo_bound.max(e.end);
        }
        None
    }

    /// Resolves the byte span `[start, start + len)` to the sequence of
    /// innermost objects covering it, in address order. A span crossing an
    /// object's end is split at the boundary; bytes covered by no live
    /// object are omitted. A zero-length span resolves like a point.
    pub fn resolve_span(&self, start: DevicePtr, len: u64) -> Vec<SpanSegment> {
        let mut out = Vec::new();
        let mut a = start.addr();
        if len == 0 {
            if let Some((e, _, _)) = self.resolve_window(a) {
                out.push(SpanSegment {
                    object: e.id,
                    offset: a - e.start,
                    len: 0,
                });
            }
            return out;
        }
        let span_end = a.saturating_add(len);
        while a < span_end {
            match self.resolve_window(a) {
                Some((e, _, hi)) => {
                    let seg_end = hi.min(span_end);
                    out.push(SpanSegment {
                        object: e.id,
                        offset: a - e.start,
                        len: seg_end - a,
                    });
                    a = seg_end;
                }
                None => {
                    // Gap: skip to the next live base, if it is in the span.
                    let j = self.index.partition_point(|e| e.start <= a);
                    match self.index.get(j) {
                        Some(e) if e.start < span_end => a = e.start,
                        _ => break,
                    }
                }
            }
        }
        out
    }

    /// The object record for `id`.
    pub fn get(&self, id: ObjectId) -> Option<&DataObject> {
        self.objects.get(id.0 as usize)
    }

    /// Reclassifies an object's provenance. Used when the profiler learns
    /// that a `cudaMalloc` allocation is actually a pool's backing slab
    /// (the first pool tensor carved inside it reveals this, Sec. 5.4).
    pub fn reclassify(&mut self, id: ObjectId, source: ObjectSource) {
        if let Some(obj) = self.objects.get_mut(id.0 as usize) {
            obj.source = source;
        }
    }

    /// Iterates over all objects ever observed, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &DataObject> {
        self.objects.iter()
    }

    /// Number of objects ever observed.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if no objects were observed.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Number of currently-live objects.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Iterates over currently-live objects in address order.
    pub fn live_objects(&self) -> impl Iterator<Item = &DataObject> + '_ {
        self.live.values().map(|id| &self.objects[id.0 as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(base: u64, len: u64) -> AddrRange {
        AddrRange::new(DevicePtr::new(base), len)
    }

    fn alloc(reg: &mut ObjectRegistry, label: &str, base: u64, len: u64, api: usize) -> ObjectId {
        reg.on_alloc(
            label,
            range(base, len),
            ObjectSource::Cuda,
            api,
            true,
            CallPath::empty(),
        )
    }

    #[test]
    fn ids_survive_address_reuse() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 64, 0);
        reg.on_free(DevicePtr::new(0x1000), 1);
        let b = alloc(&mut reg, "b", 0x1000, 64, 2);
        assert_ne!(a, b);
        assert_eq!(reg.resolve(DevicePtr::new(0x1000)), Some(b));
        assert_eq!(reg.len(), 2);
        assert!(!reg.get(a).unwrap().leaked());
    }

    #[test]
    fn resolve_prefers_inner_pool_tensor() {
        let mut reg = ObjectRegistry::new();
        let slab = reg.on_alloc(
            "slab",
            range(0x1000, 0x1000),
            ObjectSource::PoolSlab,
            0,
            true,
            CallPath::empty(),
        );
        let tensor = reg.on_alloc(
            "t",
            range(0x1200, 0x100),
            ObjectSource::PoolTensor,
            1,
            false,
            CallPath::empty(),
        );
        assert_eq!(reg.resolve(DevicePtr::new(0x1250)), Some(tensor));
        assert_eq!(reg.resolve(DevicePtr::new(0x1100)), Some(slab));
        // After the tensor is freed, the slab reclaims the range.
        reg.on_free(DevicePtr::new(0x1200), 2);
        assert_eq!(reg.resolve(DevicePtr::new(0x1250)), Some(slab));
    }

    #[test]
    fn slab_and_tensor_at_the_same_base_coexist() {
        let mut reg = ObjectRegistry::new();
        let slab = reg.on_alloc(
            "slab",
            range(0x1000, 0x1000),
            ObjectSource::PoolSlab,
            0,
            true,
            CallPath::empty(),
        );
        let tensor = reg.on_alloc(
            "t",
            range(0x1000, 0x200),
            ObjectSource::PoolTensor,
            1,
            false,
            CallPath::empty(),
        );
        assert_eq!(reg.live_count(), 2);
        // Innermost wins inside the tensor; the slab owns the rest.
        assert_eq!(reg.resolve(DevicePtr::new(0x1000)), Some(tensor));
        assert_eq!(reg.resolve(DevicePtr::new(0x11FF)), Some(tensor));
        assert_eq!(reg.resolve(DevicePtr::new(0x1200)), Some(slab));
        // The pool free retires the tensor only.
        assert_eq!(reg.on_pool_free(DevicePtr::new(0x1000), 2), Some(tensor));
        assert_eq!(reg.resolve(DevicePtr::new(0x1000)), Some(slab));
        // A second tensor at offset 0, then the slab's cudaFree: the slab
        // is retired, the tensor stays live until its own free.
        let again = reg.on_alloc(
            "t2",
            range(0x1000, 0x200),
            ObjectSource::PoolTensor,
            3,
            false,
            CallPath::empty(),
        );
        assert_eq!(reg.on_free(DevicePtr::new(0x1000), 4), Some(slab));
        assert!(reg.get(slab).unwrap().free_is_api);
        assert_eq!(reg.resolve(DevicePtr::new(0x1200)), None);
        assert_eq!(reg.resolve(DevicePtr::new(0x1000)), Some(again));
        assert_eq!(reg.on_pool_free(DevicePtr::new(0x1000), 5), Some(again));
        assert_eq!(reg.live_count(), 0);
    }

    #[test]
    fn resolve_misses_outside_any_object() {
        let mut reg = ObjectRegistry::new();
        alloc(&mut reg, "a", 0x1000, 64, 0);
        assert_eq!(reg.resolve(DevicePtr::new(0xFFF)), None);
        assert_eq!(reg.resolve(DevicePtr::new(0x1040)), None);
    }

    #[test]
    fn free_of_unknown_base_is_none() {
        let mut reg = ObjectRegistry::new();
        alloc(&mut reg, "a", 0x1000, 64, 0);
        assert_eq!(reg.on_free(DevicePtr::new(0x1008), 1), None);
        assert_eq!(reg.live_count(), 1);
    }

    #[test]
    fn leaked_objects_detected() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 64, 0);
        let b = alloc(&mut reg, "b", 0x2000, 64, 1);
        reg.on_free(DevicePtr::new(0x1000), 2);
        assert!(!reg.get(a).unwrap().leaked());
        assert!(reg.get(b).unwrap().leaked());
    }

    #[test]
    fn resolve_cache_invalidated_across_free_and_address_reuse() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 64, 0);
        let mut cache = ResolveCache::new();
        assert_eq!(
            reg.resolve_cached(DevicePtr::new(0x1020), &mut cache),
            Some((a, 0x20))
        );
        // A second probe hits the cached window and must agree.
        assert_eq!(
            reg.resolve_cached(DevicePtr::new(0x1010), &mut cache),
            Some((a, 0x10))
        );
        // Free bumps the epoch: the stale window must miss, not serve `a`.
        reg.on_free(DevicePtr::new(0x1000), 1);
        assert_eq!(reg.resolve_cached(DevicePtr::new(0x1020), &mut cache), None);
        // Address reuse: a new object at the same base must resolve to the
        // new id even though the dead cache window still covers the address.
        let b = alloc(&mut reg, "b", 0x1000, 64, 2);
        assert_ne!(a, b);
        assert_eq!(
            reg.resolve_cached(DevicePtr::new(0x1020), &mut cache),
            Some((b, 0x20))
        );
    }

    #[test]
    fn resolve_span_splits_at_object_boundaries() {
        let mut reg = ObjectRegistry::new();
        let a = alloc(&mut reg, "a", 0x1000, 0x100, 0);
        let b = alloc(&mut reg, "b", 0x1100, 0x100, 1);
        // Span covering the tail of `a` and the head of `b`.
        let segs = reg.resolve_span(DevicePtr::new(0x10C0), 0x80);
        assert_eq!(
            segs,
            vec![
                SpanSegment {
                    object: a,
                    offset: 0xC0,
                    len: 0x40
                },
                SpanSegment {
                    object: b,
                    offset: 0,
                    len: 0x40
                },
            ]
        );
        // Span running past the last live byte: the overhang is dropped.
        let segs = reg.resolve_span(DevicePtr::new(0x11F0), 0x40);
        assert_eq!(
            segs,
            vec![SpanSegment {
                object: b,
                offset: 0xF0,
                len: 0x10
            }]
        );
        // Span across a gap between objects skips the dead bytes.
        let c = alloc(&mut reg, "c", 0x1300, 0x100, 2);
        let segs = reg.resolve_span(DevicePtr::new(0x11F0), 0x200);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].object, b);
        assert_eq!(
            segs[1],
            SpanSegment {
                object: c,
                offset: 0,
                len: 0xF0
            }
        );
    }

    #[test]
    fn pool_slab_not_analyzable() {
        assert!(!ObjectSource::PoolSlab.is_analyzable());
        assert!(ObjectSource::Cuda.is_analyzable());
        assert!(ObjectSource::PoolTensor.is_analyzable());
    }
}
