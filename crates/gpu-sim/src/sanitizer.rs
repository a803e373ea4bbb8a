//! Sanitizer-style instrumentation API: the simulated analogue of NVIDIA's
//! Sanitizer API (callback interception + SASS memory-instruction patching).
//!
//! Tools register [`SanitizerHooks`] with a device context. The context then
//! delivers:
//!
//! * [`SanitizerHooks::on_api`] — after every GPU API invocation, with the
//!   full [`ApiEvent`] (kind, stream, call path, timing);
//! * [`SanitizerHooks::on_kernel_begin`] — before each kernel, letting the
//!   tool choose a [`PatchMode`] (no patching, object hit-flags as in the
//!   paper's Fig. 5, or full per-instruction records);
//! * [`SanitizerHooks::on_mem_access_buffer`] — buffered memory-access
//!   records streamed out of a fully-patched kernel, mirroring the real
//!   Sanitizer's device→host record buffers;
//! * [`SanitizerHooks::on_kernel_end`] — after the kernel, with the set of
//!   data objects it touched (the GPU-side hit-flag summary) and aggregate
//!   work counters.

use crate::api::ApiEvent;
use crate::callstack::{FrameId, SourceLoc};
use crate::error::SimError;
use crate::kernel::{Dim3, KernelCounters};
use crate::mem::{DeviceAllocator, DevicePtr};
use crate::stream::StreamId;
use crate::unified::PageMigration;
use parking_lot::Mutex;
use std::sync::Arc;

/// Whether a memory instruction read or wrote global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A global-memory load.
    Read,
    /// A global-memory store.
    Write,
}

/// One instrumented memory instruction execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccessRecord {
    /// First byte touched.
    pub addr: DevicePtr,
    /// Access width in bytes.
    pub size: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Flattened global thread id of the executing thread.
    pub flat_thread: u64,
    /// Pseudo program counter: the ordinal of this memory instruction within
    /// its thread's execution (stable across threads on convergent paths).
    pub pc: u32,
}

/// Identity and geometry of a launched kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Kernel name, interned once per launch and shared with the API event.
    pub name: Arc<str>,
    /// Global API sequence number of the launch.
    pub api_seq: u64,
    /// Stream the kernel was launched on.
    pub stream: StreamId,
    /// Grid extent.
    pub grid: Dim3,
    /// Block extent.
    pub block: Dim3,
    /// The how-many-th launch of a kernel with this name (0-based), used for
    /// kernel sampling.
    pub instance: u64,
}

/// Degree of instrumentation applied to one kernel launch.
///
/// Ordered by cost: `None < HitFlags < Full`. When several tools are
/// registered the most demanding request wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatchMode {
    /// Do not observe memory instructions at all.
    None,
    /// Only mark which data objects the kernel touches (binary search over
    /// the memory map per access + a hit flag; the paper's Fig. 5 design).
    HitFlags,
    /// Stream every memory-access record to the tool (intra-object mode).
    Full,
}

/// Read/write summary for one data object touched by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchedObject {
    /// Base address of the allocation.
    pub base: DevicePtr,
    /// The kernel executed at least one load from the object.
    pub read: bool,
    /// The kernel executed at least one store to the object.
    pub written: bool,
}

/// Slot sentinel for an empty [`CandidateMap`] entry. Warp ids are flat
/// thread ids divided by 32, so `u64::MAX` is unreachable.
const NO_WARP: u64 = u64::MAX;

/// Upper bound on directly-indexed merge-candidate slots. Kernels whose
/// per-thread memory-instruction count exceeds this skip the slot lookup
/// for the excess pcs and rely on the window scan — a merge-quality
/// matter, never a correctness one.
const CANDIDATE_CAP: usize = 1 << 16;

/// Direct-indexed merge-candidate table: the open record index per program
/// counter, tagged with the warp that left it. Indexing by pc alone is
/// enough because simulated threads execute sequentially, so at any moment
/// at most one warp has an open record at a given pc, and a plain slot load
/// beats even a cheap hash on the per-access fast path.
#[derive(Debug, Default)]
struct CandidateMap {
    /// `(warp, record idx)` per pc; `warp == NO_WARP` means empty.
    slots: Vec<(u64, usize)>,
}

impl CandidateMap {
    /// The open record this warp left at `pc`, if any.
    #[inline]
    fn get(&self, warp: u64, pc: u32) -> Option<usize> {
        match self.slots.get(pc as usize) {
            Some(&(w, idx)) if w == warp => Some(idx),
            _ => None,
        }
    }

    /// Marks `idx` as the open record at `pc` for `warp`.
    #[inline]
    fn insert(&mut self, warp: u64, pc: u32, idx: usize) {
        let i = pc as usize;
        if i >= CANDIDATE_CAP {
            return;
        }
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (NO_WARP, 0));
        }
        self.slots[i] = (warp, idx);
    }

    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Cached window `[start, end)` of the last containing allocation, with a
/// copy of that object's `touched` flags (kept in sync by
/// [`AccessSink::note_access`] so repeat hits skip the `touched` list
/// entirely). A flag copy may lag behind the list, never run ahead of it.
#[derive(Debug, Clone, Copy)]
struct LastHit {
    start: u64,
    end: u64,
    read: bool,
    written: bool,
}

/// A collection-pressure hint a tool returns before each kernel launch.
///
/// This is the backpressure channel of the resource governor: a tool under
/// memory pressure can request smaller record buffers without changing the
/// [`PatchMode`] contract. The default hint changes nothing, so tools that
/// never degrade observe byte-identical behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectionHint {
    /// Cap the device-side record-buffer capacity (in records) for this
    /// kernel; `None` keeps the sanitizer-wide capacity.
    pub buffer_capacity: Option<usize>,
}

/// Callbacks a profiling tool registers with the simulated Sanitizer API.
///
/// All methods have empty default bodies so tools override only what they
/// need.
pub trait SanitizerHooks {
    /// Called after every GPU API invocation completes.
    fn on_api(&mut self, _event: &ApiEvent) {}

    /// Called before a kernel executes; returns the desired [`PatchMode`].
    fn on_kernel_begin(&mut self, _info: &KernelInfo) -> PatchMode {
        PatchMode::None
    }

    /// Delivers a buffer of memory-access records from a fully-patched
    /// kernel. May be called multiple times per kernel as the device-side
    /// buffer fills.
    fn on_mem_access_buffer(&mut self, _info: &KernelInfo, _records: &[MemAccessRecord]) {}

    /// Called after a kernel finishes, with the hit-flag summary of touched
    /// objects (present in `HitFlags` and `Full` modes) and work counters.
    fn on_kernel_end(
        &mut self,
        _info: &KernelInfo,
        _touched: &[TouchedObject],
        _counters: &KernelCounters,
    ) {
    }

    /// Called on every unified-memory page migration (the raw signal for
    /// page-thrashing and page-level false-sharing analysis — the paper's
    /// future-work extension, Sec. 8).
    fn on_page_migration(&mut self, _migration: &PageMigration) {}

    /// Called when a device allocation request fails (out of memory, whether
    /// real or injected). No API event is emitted for the failed call; this
    /// hook is how tools learn about it and can downgrade to cheaper
    /// collection modes instead of losing the run.
    fn on_alloc_failure(&mut self, _requested: u64, _label: &str, _error: &SimError) {}

    /// Called when a host call-stack frame is interned, with its id and
    /// source location. Lets tools mirror the frame table incrementally —
    /// e.g. to resolve call paths while streaming a crash-consistent trace,
    /// without access to the context-owned [`crate::FrameTable`].
    fn on_frame(&mut self, _id: FrameId, _loc: &SourceLoc) {}

    /// Queried before each kernel launch (after
    /// [`SanitizerHooks::on_kernel_begin`]); lets a tool under resource
    /// pressure ask for smaller record buffers. See [`CollectionHint`].
    fn collection_hint(&self) -> CollectionHint {
        CollectionHint::default()
    }
}

/// A shared, lockable hook registration.
pub type SharedHooks = Arc<Mutex<dyn SanitizerHooks>>;

/// Instrumentation cost model: simulated-time surcharges for patched kernels.
///
/// These constants drive the *simulated* overhead of profiling; the paper's
/// Figure 6 wall-clock overheads are measured separately by the benchmark
/// harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Extra ns per access in [`PatchMode::Full`].
    pub full_access_ns: f64,
    /// Extra ns per access in [`PatchMode::HitFlags`] (binary search + flag).
    pub hitflag_access_ns: f64,
    /// Bytes per record used to cost device→host record-buffer flushes.
    pub record_bytes: u64,
    /// ns per live allocation to copy the memory map to the device at each
    /// patched kernel launch (Fig. 5).
    pub map_copy_ns_per_entry: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            full_access_ns: 12.0,
            hitflag_access_ns: 1.5,
            record_bytes: 24,
            map_copy_ns_per_entry: 2.0,
        }
    }
}

/// Number of threads per warp; coalescing only merges accesses issued by
/// threads of the same warp, mirroring how hardware combines the lanes of
/// one memory instruction into as few transactions as possible.
pub const WARP_SIZE: u64 = 32;

/// How many buffered records coalescing scans backwards for a merge
/// partner. The simulator executes threads sequentially, so accesses that
/// are simultaneous on real hardware (warp lanes at one instruction) appear
/// slightly interleaved with other instructions in the buffer; a small
/// window re-discovers them without an unbounded scan.
const COALESCE_WINDOW: usize = 8;

/// The Sanitizer registry owned by a device context.
pub struct Sanitizer {
    hooks: Vec<SharedHooks>,
    /// Capacity (in records) of the simulated device-side record buffer.
    buffer_capacity: usize,
    /// When set, contiguous same-kind accesses from one warp at one pc are
    /// merged into a single record before buffering (the paper's "merging
    /// memory accesses", Sec. 5.5).
    coalescing: bool,
    /// Merge-junction alignment in bytes, relative to the containing
    /// allocation's base. Records only grow at offsets that are multiples
    /// of this, so per-element frequency counts (element width = this
    /// alignment) are preserved exactly. 1 = unrestricted.
    coalesce_alignment: u32,
    overhead: OverheadModel,
}

impl std::fmt::Debug for Sanitizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sanitizer")
            .field("hooks", &self.hooks.len())
            .field("buffer_capacity", &self.buffer_capacity)
            .field("coalescing", &self.coalescing)
            .field("coalesce_alignment", &self.coalesce_alignment)
            .field("overhead", &self.overhead)
            .finish()
    }
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer {
            hooks: Vec::new(),
            buffer_capacity: 16 * 1024,
            coalescing: false,
            coalesce_alignment: 1,
            overhead: OverheadModel::default(),
        }
    }
}

impl Sanitizer {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Sanitizer::default()
    }

    /// Registers a tool; returns nothing — keep your own `Arc` clone to read
    /// results back after the run.
    pub fn register(&mut self, hooks: SharedHooks) {
        self.hooks.push(hooks);
    }

    /// Removes all registered tools.
    pub fn clear(&mut self) {
        self.hooks.clear();
    }

    /// Number of registered tools.
    pub fn hook_count(&self) -> usize {
        self.hooks.len()
    }

    /// Sets the simulated device-side record-buffer capacity.
    pub fn set_buffer_capacity(&mut self, records: usize) {
        self.buffer_capacity = records.max(1);
    }

    /// The current record-buffer capacity.
    pub fn buffer_capacity(&self) -> usize {
        self.buffer_capacity
    }

    /// Enables or disables warp-level access coalescing (Sec. 5.5).
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalescing = on;
    }

    /// Whether warp-level access coalescing is enabled.
    pub fn coalescing(&self) -> bool {
        self.coalescing
    }

    /// Sets the merge-junction alignment for coalescing: records only grow
    /// at allocation-relative offsets that are multiples of `bytes`. Tools
    /// that count per-element access frequencies pass their element width
    /// here so merging cannot collapse two same-element accesses into one
    /// count. Zero is treated as 1 (unrestricted).
    pub fn set_coalesce_alignment(&mut self, bytes: u32) {
        self.coalesce_alignment = bytes.max(1);
    }

    /// The current merge-junction alignment in bytes.
    pub fn coalesce_alignment(&self) -> u32 {
        self.coalesce_alignment
    }

    /// The instrumentation cost model.
    pub fn overhead_model(&self) -> OverheadModel {
        self.overhead
    }

    /// Replaces the instrumentation cost model.
    pub fn set_overhead_model(&mut self, model: OverheadModel) {
        self.overhead = model;
    }

    /// Dispatches an API event to every tool.
    pub(crate) fn dispatch_api(&self, event: &ApiEvent) {
        for h in &self.hooks {
            h.lock().on_api(event);
        }
    }

    /// Asks every tool for a patch mode; the most demanding wins.
    pub(crate) fn dispatch_kernel_begin(&self, info: &KernelInfo) -> PatchMode {
        self.hooks
            .iter()
            .map(|h| h.lock().on_kernel_begin(info))
            .max()
            .unwrap_or(PatchMode::None)
    }

    pub(crate) fn dispatch_kernel_end(
        &self,
        info: &KernelInfo,
        touched: &[TouchedObject],
        counters: &KernelCounters,
    ) {
        for h in &self.hooks {
            h.lock().on_kernel_end(info, touched, counters);
        }
    }

    pub(crate) fn dispatch_buffer(&self, info: &KernelInfo, records: &[MemAccessRecord]) {
        for h in &self.hooks {
            h.lock().on_mem_access_buffer(info, records);
        }
    }

    pub(crate) fn dispatch_page_migration(&self, migration: &PageMigration) {
        for h in &self.hooks {
            h.lock().on_page_migration(migration);
        }
    }

    pub(crate) fn dispatch_alloc_failure(&self, requested: u64, label: &str, error: &SimError) {
        for h in &self.hooks {
            h.lock().on_alloc_failure(requested, label, error);
        }
    }

    pub(crate) fn dispatch_frame(&self, id: FrameId, loc: &SourceLoc) {
        for h in &self.hooks {
            h.lock().on_frame(id, loc);
        }
    }

    /// Merges every tool's [`CollectionHint`]: buffer caps take the
    /// minimum.
    pub(crate) fn dispatch_collection_hint(&self) -> CollectionHint {
        let mut merged = CollectionHint::default();
        for h in &self.hooks {
            let hint = h.lock().collection_hint();
            merged.buffer_capacity = match (merged.buffer_capacity, hint.buffer_capacity) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        merged
    }
}

/// The staged-record range produced by one thread block, plus the first
/// device fault that block hit (if any).
#[derive(Debug)]
struct BlockSpan {
    flat_block: u64,
    start: usize,
    end: usize,
    fault: Option<SimError>,
}

/// Start of an empty slot in the per-pc allocation memo. No valid device
/// address satisfies `addr >= u64::MAX`, so the containment checks reject
/// it without a separate flag.
const NO_ALLOC: u64 = u64::MAX;

/// Raw accesses staged by one parallel worker, in structure-of-arrays
/// layout, grouped into block spans.
///
/// One field per record component instead of a `Vec<struct>`: the replay in
/// [`AccessSink::merge_staged`] touches every component of every record
/// anyway, and the split arrays drop the `Option<u64>` padding (49 → 33
/// bytes per record). The arena is owned by the device context's
/// [`SinkArena`] and lent to a worker per launch, so its capacity — sized
/// by the first large kernel — is reused for the rest of the run.
#[derive(Debug, Default)]
pub(crate) struct StagedArena {
    addrs: Vec<u64>,
    sizes: Vec<u32>,
    kinds: Vec<AccessKind>,
    threads: Vec<u64>,
    pcs: Vec<u32>,
    /// Containing allocation base per record.
    alloc_starts: Vec<u64>,
    /// One span per executed block, in the worker's execution order.
    spans: Vec<BlockSpan>,
}

impl StagedArena {
    fn len(&self) -> usize {
        self.addrs.len()
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        addr: DevicePtr,
        size: u32,
        kind: AccessKind,
        flat_thread: u64,
        pc: u32,
        alloc_start: u64,
    ) {
        self.addrs.push(addr.addr());
        self.sizes.push(size);
        self.kinds.push(kind);
        self.threads.push(flat_thread);
        self.pcs.push(pc);
        self.alloc_starts.push(alloc_start);
    }

    fn clear(&mut self) {
        self.addrs.clear();
        self.sizes.clear();
        self.kinds.clear();
        self.threads.clear();
        self.pcs.clear();
        self.alloc_starts.clear();
        self.spans.clear();
    }
}

/// Largest pc the per-pc allocation memo tracks. pcs are per-thread access
/// ordinals, so a single long-running thread can push them far past the
/// range where cross-thread reuse (the point of the memo) happens; the cap
/// bounds the memo at 1 MiB while covering every instruction of any
/// realistic kernel body.
const PC_MEMO_CAP: usize = 1 << 16;

/// An empty per-pc memo slot: a range no address is contained in.
const EMPTY_HINT: (u64, u64) = (NO_ALLOC, 0);

/// Reusable collection storage, owned by the device context and lent to
/// each launch's [`AccessSink`]s.
///
/// Two things make this worth threading through every launch: the record
/// buffer, merge-candidate table, and staging arenas keep their high-water
/// capacity instead of reallocating per kernel, and the per-pc allocation
/// memo stays warm *across* launches — consecutive kernels usually run with
/// an unchanged allocation map, so the second launch onward skips the
/// Fig. 5 binary search almost entirely. The memo is wiped whenever the
/// allocator epoch changes, which is exactly when its entries could go
/// stale.
#[derive(Debug)]
pub(crate) struct SinkArena {
    buffer: Vec<MemAccessRecord>,
    merge_candidates: CandidateMap,
    /// Per-pc `(start, end)` of the containing allocation, or
    /// [`EMPTY_HINT`].
    pc_hints: Vec<(u64, u64)>,
    /// Allocator epoch `pc_hints` was built under; `u64::MAX` = never.
    hint_epoch: u64,
    /// Returned staging arenas, ready for the next parallel launch.
    staged: Vec<StagedArena>,
}

impl Default for SinkArena {
    fn default() -> Self {
        SinkArena {
            buffer: Vec::new(),
            merge_candidates: CandidateMap::default(),
            pc_hints: Vec::new(),
            hint_epoch: u64::MAX,
            staged: Vec::new(),
        }
    }
}

impl SinkArena {
    /// Builds the serial-shaped sink for one launch from recycled storage.
    /// `alloc_epoch` is the allocator's current epoch; a mismatch with the
    /// stored one invalidates the per-pc memo.
    pub(crate) fn serial_sink(
        &mut self,
        mode: PatchMode,
        capacity: usize,
        coalesce: bool,
        align: u32,
        alloc_epoch: u64,
    ) -> AccessSink {
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.clear();
        if mode == PatchMode::Full {
            buffer.reserve(capacity);
        }
        let mut merge_candidates = std::mem::take(&mut self.merge_candidates);
        merge_candidates.clear();
        let mut pc_hints = std::mem::take(&mut self.pc_hints);
        if self.hint_epoch != alloc_epoch {
            pc_hints.iter_mut().for_each(|h| *h = EMPTY_HINT);
            self.hint_epoch = alloc_epoch;
        }
        let mut sink = AccessSink::new(mode, capacity, coalesce, align);
        sink.buffer = buffer;
        sink.merge_candidates = merge_candidates;
        sink.pc_hints = pc_hints;
        sink
    }

    /// Builds a worker-local staging sink for parallel block execution,
    /// reusing a previously returned arena when one is available. Staging
    /// sinks never dispatch to tools; their records drain through
    /// [`AccessSink::merge_staged`].
    pub(crate) fn staging_sink(&mut self, mode: PatchMode) -> AccessSink {
        let mut sink = AccessSink::new(mode, 0, false, 1);
        // A staging sink never flushes mid-kernel.
        sink.capacity = usize::MAX;
        sink.staging = true;
        sink.staged = self.staged.pop().unwrap_or_default();
        sink
    }

    /// Takes a finished sink's storage back for the next launch. The
    /// per-pc memo is kept as-is — entries can only go stale through an
    /// allocator mutation, which bumps the epoch checked at the next
    /// [`SinkArena::serial_sink`].
    pub(crate) fn reclaim(&mut self, mut sink: AccessSink) {
        if sink.staging {
            sink.staged.clear();
            self.staged.push(sink.staged);
        } else {
            sink.buffer.clear();
            self.buffer = sink.buffer;
            sink.merge_candidates.clear();
            self.merge_candidates = sink.merge_candidates;
            self.pc_hints = sink.pc_hints;
        }
    }
}

/// Collects memory-access observations during one kernel execution and
/// streams them to the registered tools.
///
/// Created internally by [`crate::DeviceContext::launch`]; kernels interact
/// with it only indirectly through [`crate::ThreadCtx`].
///
/// A sink runs in one of two shapes: the *serial* shape (created by
/// [`SinkArena::serial_sink`]) buffers, coalesces, and streams records to
/// the tools as the kernel executes, while the *staging* shape (created by
/// [`SinkArena::staging_sink`], one per parallel worker) only appends raw
/// records and never talks to the tools; staged records are replayed
/// through a serial sink in flat block order by
/// [`AccessSink::merge_staged`], reproducing the serial byte stream
/// exactly.
pub struct AccessSink {
    mode: PatchMode,
    buffer: Vec<MemAccessRecord>,
    capacity: usize,
    /// When set, merge an incoming access into a recent buffered record
    /// it extends contiguously (same kind, same warp).
    coalesce: bool,
    /// Merge-junction alignment (bytes, relative to the containing
    /// allocation's base); see [`Sanitizer::set_coalesce_alignment`].
    coalesce_align: u64,
    /// Open merge candidates: `(warp, pc)` → buffer index of the record a
    /// neighbouring lane's access at the same instruction would extend.
    /// Rebuilt per flush (indices are invalidated when the buffer drains).
    merge_candidates: CandidateMap,
    /// One-entry cache of the allocation containing the previous access,
    /// mirroring its `touched` flags so repeat hits skip both the binary
    /// search and the map update.
    last_hit: Option<LastHit>,
    /// Per-pc `(start, end)` of the containing allocation (see
    /// [`SinkArena`]). Consulted when `last_hit` misses; hits are validated
    /// by containment, so a stale entry can only cause one extra binary
    /// search, never a wrong attribution.
    pc_hints: Vec<(u64, u64)>,
    /// Touched-object hit flags, in first-touch order. A kernel touches few
    /// distinct objects and lookups only happen on `last_hit`/`pc_hints`
    /// misses, so a linear scan beats the `BTreeMap` it replaced;
    /// [`AccessSink::take_touched`] sorts by base, reproducing the map's
    /// iteration order byte-for-byte.
    touched: Vec<TouchedObject>,
    /// Number of buffer flushes performed (for the cost model).
    pub(crate) flushes: u64,
    /// Number of records observed (for the cost model). Counts *raw*
    /// accesses even when coalescing merges them, so the simulated
    /// instrumentation cost — and therefore every simulated timestamp — is
    /// identical with coalescing on or off.
    pub(crate) records_seen: u64,
    /// Number of raw accesses folded into a previous record by coalescing.
    pub(crate) coalesced_away: u64,
    /// Allocation searches ([`DeviceAllocator::find_containing`]) made
    /// after both `last_hit` and `pc_hints` missed.
    pub(crate) alloc_lookups: u64,
    /// First device-side access fault observed during the kernel. Faulting
    /// accesses are skipped (no memory side effect); the launch converts
    /// this into [`SimError::KernelFaulted`] after the partial results have
    /// been delivered to the tools.
    pub(crate) fault: Option<SimError>,
    /// Worker-local staging shape: buffer raw records instead of the
    /// serial coalesce/flush path (see the type-level docs).
    staging: bool,
    /// Raw records staged by this worker, grouped into block spans.
    staged: StagedArena,
}

impl std::fmt::Debug for AccessSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessSink")
            .field("mode", &self.mode)
            .field("buffered", &self.buffer.len())
            .field("touched_objects", &self.touched.len())
            .field("records_seen", &self.records_seen)
            .finish()
    }
}

impl AccessSink {
    pub(crate) fn new(mode: PatchMode, capacity: usize, coalesce: bool, align: u32) -> Self {
        AccessSink {
            mode,
            buffer: Vec::with_capacity(if mode == PatchMode::Full { capacity } else { 0 }),
            capacity,
            coalesce,
            coalesce_align: u64::from(align.max(1)),
            merge_candidates: CandidateMap::default(),
            last_hit: None,
            pc_hints: Vec::new(),
            touched: Vec::new(),
            flushes: 0,
            records_seen: 0,
            coalesced_away: 0,
            alloc_lookups: 0,
            fault: None,
            staging: false,
            staged: StagedArena::default(),
        }
    }

    /// The patch mode this sink operates in.
    pub fn mode(&self) -> PatchMode {
        self.mode
    }

    /// Whether this is a worker-local staging sink.
    pub(crate) fn is_staging(&self) -> bool {
        self.staging
    }

    /// Opens a staged span for the block with flat index `flat_block`.
    ///
    /// Each block starts from empty allocation caches, so the lookups it
    /// makes — and with them [`crate::ContextStats::alloc_lookups`] — do
    /// not depend on which worker ran the blocks before it.
    pub(crate) fn begin_block(&mut self, flat_block: u64) {
        debug_assert!(self.staging);
        self.last_hit = None;
        self.pc_hints.clear();
        let at = self.staged.len();
        self.staged.spans.push(BlockSpan {
            flat_block,
            start: at,
            end: at,
            fault: None,
        });
    }

    /// Closes the current staged span, capturing the block's first fault.
    pub(crate) fn end_block(&mut self) {
        let end = self.staged.len();
        let fault = self.fault.take();
        let span = self
            .staged
            .spans
            .last_mut()
            .expect("end_block without a matching begin_block");
        span.end = end;
        span.fault = fault;
    }

    /// Replays the staged records of `workers` into this (serial) sink in
    /// flat block-index order.
    ///
    /// Block assignment to workers is nondeterministic, but every block's
    /// records are contiguous within one worker and labeled with the flat
    /// block index, so a stable sort over spans reconstructs exactly the
    /// record stream the serial loop would have produced — same coalescing
    /// decisions, same flush boundaries, same tool dispatch order. The
    /// surviving fault is the earliest block's (the serial loop executes
    /// blocks in flat order, so its first-fault-wins rule picks the same
    /// one), and touched-sets and `records_seen` are order-independent
    /// unions/sums.
    pub(crate) fn merge_staged(
        &mut self,
        sanitizer: &Sanitizer,
        info: &KernelInfo,
        workers: &[AccessSink],
    ) {
        debug_assert!(!self.staging);
        let mut order: Vec<(u64, usize, usize)> = workers
            .iter()
            .enumerate()
            .flat_map(|(w, sink)| {
                sink.staged
                    .spans
                    .iter()
                    .enumerate()
                    .map(move |(s, span)| (span.flat_block, w, s))
            })
            .collect();
        order.sort_unstable_by_key(|&(flat_block, _, _)| flat_block);
        for (_, w, s) in order {
            let st = &workers[w].staged;
            let span = &st.spans[s];
            if self.fault.is_none() {
                self.fault.clone_from(&span.fault);
            }
            for i in span.start..span.end {
                self.push_full_record(
                    sanitizer,
                    info,
                    DevicePtr::new(st.addrs[i]),
                    st.sizes[i],
                    st.kinds[i],
                    st.threads[i],
                    st.pcs[i],
                    st.alloc_starts[i],
                );
            }
        }
        for worker in workers {
            self.records_seen += worker.records_seen;
            self.alloc_lookups += worker.alloc_lookups;
            for t in &worker.touched {
                let entry = Self::touch_entry(&mut self.touched, t.base);
                entry.read |= t.read;
                entry.written |= t.written;
            }
        }
    }

    pub(crate) fn take_touched(&mut self) -> Vec<TouchedObject> {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable_by_key(|t| t.base.addr());
        touched
    }

    /// The hit-flag entry for the allocation based at `base`, created on
    /// first touch.
    fn touch_entry(touched: &mut Vec<TouchedObject>, base: DevicePtr) -> &mut TouchedObject {
        match touched.iter().position(|t| t.base == base) {
            Some(i) => &mut touched[i],
            None => {
                touched.push(TouchedObject {
                    base,
                    read: false,
                    written: false,
                });
                touched.last_mut().expect("entry just pushed")
            }
        }
    }

    /// The window `[start, end)` of the live allocation containing `addr`,
    /// or `None` if no allocation contains it — the Fig. 5 lookup, cached.
    ///
    /// Tries the last hit, then the window the instruction at `pc` saw
    /// earlier (kernels that alternate between objects — pc 0 reads A,
    /// pc 1 writes B — thrash the last hit, but every thread repeats the
    /// same instruction sequence), and only then searches the allocator.
    /// Containment makes every hit exact and a stale entry just falls
    /// through; the live map cannot change while a kernel executes, so a
    /// cached window never lies.
    #[inline]
    pub(crate) fn window(
        &mut self,
        alloc: &DeviceAllocator,
        addr: DevicePtr,
        pc: u32,
    ) -> Option<(u64, u64)> {
        let raw = addr.addr();
        if let Some(h) = &self.last_hit {
            if raw >= h.start && raw < h.end {
                return Some((h.start, h.end));
            }
        }
        let (start, end) = match self.pc_hints.get(pc as usize) {
            Some(&(s, e)) if raw >= s && raw < e => (s, e),
            _ => {
                self.alloc_lookups += 1;
                let obj = alloc.find_containing(addr)?;
                let window = (obj.ptr.addr(), obj.ptr.addr() + obj.size);
                if (pc as usize) < PC_MEMO_CAP {
                    let i = pc as usize;
                    if i >= self.pc_hints.len() {
                        self.pc_hints.resize(i + 1, EMPTY_HINT);
                    }
                    self.pc_hints[i] = window;
                }
                window
            }
        };
        self.last_hit = Some(LastHit {
            start,
            end,
            read: false,
            written: false,
        });
        Some((start, end))
    }

    /// Stores one access that [`AccessSink::window`] just resolved to the
    /// allocation based at `alloc_start`: its hit flag is updated, and in
    /// [`PatchMode::Full`] the record is also buffered and streamed to the
    /// tools when the device-side buffer fills (serial shape) or staged raw
    /// for later replay (staging shape, where `sanitizer` may be `None`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn note_access(
        &mut self,
        alloc_start: u64,
        sanitizer: Option<&Sanitizer>,
        info: &KernelInfo,
        addr: DevicePtr,
        size: u32,
        kind: AccessKind,
        flat_thread: u64,
        pc: u32,
    ) {
        if self.mode == PatchMode::None {
            return;
        }
        self.records_seen += 1;
        self.update_touched(alloc_start, kind);
        if self.mode == PatchMode::Full {
            if self.staging {
                self.staged
                    .push(addr, size, kind, flat_thread, pc, alloc_start);
            } else {
                let sanitizer = sanitizer.expect("serial sink requires a sanitizer");
                self.push_full_record(
                    sanitizer,
                    info,
                    addr,
                    size,
                    kind,
                    flat_thread,
                    pc,
                    alloc_start,
                );
            }
        }
    }

    /// Sets the access's hit flag on the allocation based at
    /// `alloc_start`, which is the last hit. The flag copy in `last_hit`
    /// lets repeat accesses skip the `touched` list.
    fn update_touched(&mut self, alloc_start: u64, kind: AccessKind) {
        let h = self
            .last_hit
            .as_mut()
            .expect("note_access follows a successful window lookup");
        debug_assert_eq!(h.start, alloc_start);
        let flag = match kind {
            AccessKind::Read => &mut h.read,
            AccessKind::Write => &mut h.written,
        };
        if !*flag {
            *flag = true;
            let entry = Self::touch_entry(&mut self.touched, DevicePtr::new(alloc_start));
            match kind {
                AccessKind::Read => entry.read = true,
                AccessKind::Write => entry.written = true,
            }
        }
    }

    /// Pushes one raw record through the serial coalesce/buffer/flush path.
    /// `alloc_start` is the containing allocation's base (the access's
    /// [`AccessSink::window`], or carried in a staged record).
    #[allow(clippy::too_many_arguments)]
    fn push_full_record(
        &mut self,
        sanitizer: &Sanitizer,
        info: &KernelInfo,
        addr: DevicePtr,
        size: u32,
        kind: AccessKind,
        flat_thread: u64,
        pc: u32,
        alloc_start: u64,
    ) {
        let raw = addr.addr();
        if self.coalesce {
            // Merge into a buffered record the incoming access extends
            // contiguously (same kind, same warp, adjacent address, no
            // size overflow). The merged record keeps the first access's
            // thread and pc. All downstream per-object maps (bitmap OR,
            // range insert, per-byte frequency add) see exactly the same
            // byte coverage, so in-place growth cannot change any
            // analysis.
            let warp = flat_thread / WARP_SIZE;
            // (a) Warp-lane merge: an earlier lane of this warp executed
            //     the same instruction (pc) and left an open record; this
            //     mirrors hardware coalescing across a warp and holds
            //     even when other accesses were buffered in between.
            // A record may only grow (a) within the allocation containing
            // the incoming access — adjacent allocations can abut exactly
            // (sizes that are multiples of the 256-byte alignment), and a
            // record spanning two objects would corrupt per-object
            // attribution downstream — and (b) at a junction aligned to
            // the tools' element width, so per-element frequency counts
            // (one per record per overlapped element) stay exact.
            let (offset, align) = (raw - alloc_start, self.coalesce_align);
            // Element widths are powers of two in practice: spare the
            // division on the per-access path.
            let aligned = if align.is_power_of_two() {
                offset & (align - 1) == 0
            } else {
                offset.is_multiple_of(align)
            };
            let can_grow = |rec: &MemAccessRecord| aligned && rec.addr.addr() >= alloc_start;
            if let Some(idx) = self.merge_candidates.get(warp, pc) {
                let rec = &mut self.buffer[idx];
                if rec.kind == kind
                    && rec.addr + u64::from(rec.size) == addr
                    && rec.size.checked_add(size).is_some()
                    && can_grow(rec)
                {
                    rec.size += size;
                    self.coalesced_away += 1;
                    return;
                }
            }
            // (b) Intra-thread run merge: a recent record from the same
            //     warp this access extends (a thread streaming through a
            //     matrix row, with the pc advancing each step).
            let window = self.buffer.len().saturating_sub(COALESCE_WINDOW);
            if let Some(idx) = (window..self.buffer.len()).rev().find(|&i| {
                let rec = &self.buffer[i];
                rec.kind == kind
                    && rec.flat_thread / WARP_SIZE == warp
                    && rec.addr + u64::from(rec.size) == addr
                    && rec.size.checked_add(size).is_some()
                    && can_grow(rec)
            }) {
                self.buffer[idx].size += size;
                self.merge_candidates.insert(warp, pc, idx);
                self.coalesced_away += 1;
                return;
            }
            self.merge_candidates.insert(warp, pc, self.buffer.len());
        }
        self.buffer.push(MemAccessRecord {
            addr,
            size,
            kind,
            flat_thread,
            pc,
        });
        if self.buffer.len() >= self.capacity {
            self.flush(sanitizer, info);
        }
    }

    pub(crate) fn flush(&mut self, sanitizer: &Sanitizer, info: &KernelInfo) {
        if self.buffer.is_empty() {
            return;
        }
        sanitizer.dispatch_buffer(info, &self.buffer);
        self.buffer.clear();
        // Buffer indices held by open merge candidates die with the drain.
        self.merge_candidates.clear();
        self.flushes += 1;
    }
}
