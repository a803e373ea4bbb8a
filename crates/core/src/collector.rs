//! The online data collector (Sec. 4, Sec. 5.1, Sec. 5.2, Sec. 5.5).
//!
//! The collector registers with the Sanitizer-style instrumentation API and
//! builds, online:
//!
//! * the memory map `M` of data objects ([`crate::object::ObjectRegistry`]);
//! * the object-level memory access trace: which GPU API accessed which
//!   object, plus per-API read/write/free sets for the dependency graph;
//! * intra-object access maps (bitmaps, per-API range sets, frequency maps)
//!   for the objects touched by fully-patched kernels;
//! * the memory-usage curve behind peak analysis;
//! * the adaptive GPU-/CPU-side map-placement decisions of Sec. 5.5.
//!
//! All pattern detection itself happens offline in
//! [`crate::analyzer`], on the data gathered here.

use crate::accessmap::{FreqMap, RangeSet};
use crate::depgraph::VertexAccess;
use crate::error::ProfilerError;
use crate::governor::{CollectionRung, ResourceBudget, SessionGovernor};
use crate::object::{ObjectId, ObjectRegistry, ObjectSource, ResolveCache};
use crate::options::{AnalysisLevel, ProfilerOptions};
use crate::patterns::intra::IntraObjectData;
use crate::patterns::unified::UnifiedPageStats;
use crate::patterns::AccessVia;
use crate::peaks::UsageSample;
use crate::report::DegradationRecord;
use crate::trace_stream::StreamState;
use gpu_sim::kernel::KernelCounters;
use gpu_sim::pool::{PoolEvent, PoolObserver};
use gpu_sim::sanitizer::{
    CollectionHint, KernelInfo, MemAccessRecord, PatchMode, SanitizerHooks, TouchedObject,
};
use gpu_sim::unified::{PageMigration, Side};
use gpu_sim::{
    AccessKind, AddrRange, ApiEvent, ApiKind, CallPath, DevicePtr, FrameId, SimError, SourceLoc,
    StreamId,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Cumulative wall-clock time the collector spent in each hot-path phase.
///
/// `resolve` is address→object resolution (the first pass over a record
/// buffer), `aggregate` is per-object map updates (the second pass),
/// `flush` is kernel-end finalization (per-API range publication,
/// frequency-peak comparison). Maintained with two clock reads per flushed
/// buffer plus one per kernel — far below measurement noise — and surfaced
/// by the overhead bench's per-phase breakdown. Timings never feed reports
/// or traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Nanoseconds resolving addresses against the memory map.
    pub resolve_ns: u64,
    /// Nanoseconds updating per-object aggregation state.
    pub aggregate_ns: u64,
    /// Nanoseconds finalizing kernels (publish ranges and peaks).
    pub flush_ns: u64,
}

/// Deterministic work counters of the record path, the companions of
/// [`PhaseTimings`]: a given program and configuration always yields the
/// same values, so a regression in resolution shows up without timing
/// anything. Counters never feed reports or traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CollectorCounters {
    /// Access records delivered to the collector from fully-patched
    /// kernels (after any sanitizer-side coalescing).
    pub records: u64,
    /// Records that did not fit the resolve window of their first byte —
    /// they cross an object boundary (a coalesced record spanning adjacent
    /// pool tensors) or start outside any object — and were resolved as
    /// byte spans instead.
    pub span_records: u64,
    /// Record resolutions that missed the last-hit resolve cache and
    /// searched the interval index.
    pub resolve_misses: u64,
}

/// Per-kernel per-object flags, held in a dense table indexed by object id
/// (ids are allocated sequentially, so the table stays small and the hot
/// path never hashes). Cleared by walking the touched list, not the table.
mod kernel_flags {
    /// Object was touched by the current kernel (it is on the touched list).
    pub const SEEN: u8 = 1 << 0;
    /// At least one read reached the object this kernel.
    pub const READ: u8 = 1 << 1;
    /// At least one write reached the object this kernel.
    pub const WRITE: u8 = 1 << 2;
    /// Intra-object maps were updated for the object this kernel.
    pub const INTRA: u8 = 1 << 3;
}

/// One GPU API in the collector's trace (pattern-relevant kinds only).
#[derive(Debug, Clone)]
pub struct GpuApi {
    /// Display name, e.g. `"KERL(0, 1)"`.
    pub name: String,
    /// Detail: kernel name, object label, or byte count.
    pub detail: String,
    /// Mnemonic (`ALLOC`/`FREE`/`CPY`/`SET`/`KERL`).
    pub mnemonic: &'static str,
    /// Stream of the invocation.
    pub stream: StreamId,
    /// Host call path.
    pub call_path: CallPath,
    /// Object def/use/free sets for dependency construction.
    pub vertex: VertexAccess,
    /// Simulated start/end times (for the GUI timeline).
    pub start_ns: u64,
    /// Simulated end time.
    pub end_ns: u64,
}

/// One object access observed at one GPU API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAccess {
    /// Trace index of the accessing API.
    pub api_idx: usize,
    /// The accessed object.
    pub object: ObjectId,
    /// The API read the object.
    pub read: bool,
    /// The API wrote the object.
    pub write: bool,
    /// Kind of API.
    pub via: AccessVia,
}

/// Where intra-object access maps were updated for one kernel (Sec. 5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapSide {
    /// Maps fit on the device: update there, copy results back post-kernel.
    Gpu,
    /// Maps would exhaust device memory: stream records to the host.
    Cpu,
}

/// One adaptive placement decision.
#[derive(Debug, Clone)]
pub struct ModeDecision {
    /// Kernel name.
    pub kernel: String,
    /// Chosen side.
    pub side: MapSide,
    /// Total bytes of access maps at decision time.
    pub map_bytes: u64,
    /// Live data bytes at decision time.
    pub data_bytes: u64,
}

#[derive(Debug)]
struct IntraState {
    data: IntraObjectData,
    /// Ranges touched by the kernel currently executing.
    current_ranges: RangeSet,
    freq: Option<FreqMap>,
    /// Bytes this state last charged against the session governor's
    /// resident-memory budget (kept current by `Collector::remeter_intra`).
    charged: u64,
}

impl IntraState {
    fn new(object: ObjectId, size: u64) -> Self {
        IntraState {
            data: IntraObjectData::new(object, size),
            current_ranges: RangeSet::new(),
            freq: None,
            charged: 0,
        }
    }
}

/// The record-buffer cap the collector requests through the sanitizer
/// backpressure hint once it has degraded to coalesced-only collection or
/// below: smaller buffers mean less staging memory between flushes.
const BACKPRESSURE_BUFFER_RECORDS: usize = 4096;

/// One resolved piece of an access record: `len` bytes at `offset` within
/// `object`. A record inside one object resolves to one piece; a record
/// crossing object boundaries resolves to one piece per object it covers.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    object: ObjectId,
    offset: u64,
    len: u32,
    kind: AccessKind,
}

/// Memo table from a shared frame list to its rendered call path: the
/// frames are hash-consed `Arc<str>`s, so identical paths share every
/// rendered location by refcount.
type CallPathMemo = HashMap<Arc<[FrameId]>, Arc<[Arc<str>]>>;

/// The online data collector. Register it with
/// [`gpu_sim::Sanitizer::register`] (and, for pool workloads, with
/// [`gpu_sim::pool::CachingPool::register_observer`]); the
/// [`crate::profiler::Profiler`] facade does both.
#[derive(Debug)]
pub struct Collector {
    opts: ProfilerOptions,
    registry: ObjectRegistry,
    gpu_apis: Vec<GpuApi>,
    accesses: Vec<RawAccess>,
    usage: Vec<UsageSample>,
    in_use_bytes: u64,
    /// Intra-object state, dense by object id (`intra[id]`). Object ids are
    /// allocated sequentially by the registry, so indexing replaces hashing
    /// on the per-record hot path; iteration in index order is iteration in
    /// object-id order, which the reporting paths require anyway.
    intra: Vec<Option<IntraState>>,
    /// State of the kernel currently executing.
    current_mode: PatchMode,
    /// Per-object flags for the current kernel, dense by object id (see
    /// [`kernel_flags`]). Only entries named by `kernel_touched` are live;
    /// everything else is zero.
    kernel_flag_table: Vec<u8>,
    /// Objects touched by the current kernel, in first-touch order.
    kernel_touched: Vec<ObjectId>,
    mode_decisions: Vec<ModeDecision>,
    /// Last GPU-API trace index seen per stream (for event edges).
    last_api_on_stream: HashMap<u32, usize>,
    /// Event id → the GPU API it was recorded after.
    event_record_points: HashMap<u32, usize>,
    /// Stream → pending event-sync predecessors for its next GPU API.
    pending_sync: HashMap<u32, Vec<usize>>,
    /// Per-page unified-memory migration statistics (the Sec. 8 extension).
    unified_pages: HashMap<(ObjectId, u32), UnifiedPageStats>,
    /// Device memory capacity, for the Sec. 5.5 placement decision.
    device_capacity: u64,
    /// Downgrades taken to keep collecting through faults; copied into the
    /// final report.
    degradations: Vec<DegradationRecord>,
    /// After a device allocation failure, access maps are pinned to the CPU
    /// side regardless of the Sec. 5.5 capacity estimate — the estimate is
    /// unreliable once the device has refused memory.
    force_cpu_maps: bool,
    /// The session governor: meters profiler-resident bytes against the
    /// configured [`ResourceBudget`] and walks the degradation ladder when
    /// a budget trips.
    governor: SessionGovernor,
    /// Mirror of the context-owned frame table (`FrameId.0` → rendered
    /// location), fed by [`SanitizerHooks::on_frame`]; lets the streaming
    /// writer resolve call paths without access to the [`gpu_sim::FrameTable`].
    /// Frames are hash-consed `Arc<str>`s: each location is rendered once
    /// and every resolved call path shares it by refcount.
    frame_mirror: Vec<Arc<str>>,
    /// Memoized call-path renderings keyed by the shared frame list:
    /// identical paths (the common case — most APIs are invoked from a
    /// handful of sites) are resolved once per session. Invalidated if a
    /// mirrored frame is ever re-rendered differently.
    call_path_memo: parking_lot::Mutex<CallPathMemo>,
    /// Crash-consistent streaming-trace state, when `--stream-trace` is on.
    stream: Option<StreamState>,
    /// Last-hit cache for record resolution. Epoch-validated: any
    /// alloc/free since the fill forces a re-search.
    resolve_cache: ResolveCache,
    /// Reused scratch for the per-buffer resolve pass — one allocation per
    /// session instead of one per flushed buffer.
    resolved_scratch: Vec<Resolved>,
    /// Cumulative hot-path phase timings (resolve / aggregate / flush).
    phase: PhaseTimings,
    /// Record-path work counters; `resolve_misses` is kept by
    /// `resolve_cache` and filled in when read.
    counters: CollectorCounters,
}

impl Collector {
    /// Creates a collector with the given options. `device_capacity` is the
    /// platform's device memory size, used by the adaptive map-placement
    /// decision.
    pub fn new(opts: ProfilerOptions, device_capacity: u64) -> Self {
        let governor = SessionGovernor::new(opts.budget.clone().apply_env());
        Collector {
            opts,
            registry: ObjectRegistry::new(),
            gpu_apis: Vec::new(),
            accesses: Vec::new(),
            usage: Vec::new(),
            in_use_bytes: 0,
            intra: Vec::new(),
            current_mode: PatchMode::None,
            kernel_flag_table: Vec::new(),
            kernel_touched: Vec::new(),
            mode_decisions: Vec::new(),
            last_api_on_stream: HashMap::new(),
            event_record_points: HashMap::new(),
            pending_sync: HashMap::new(),
            unified_pages: HashMap::new(),
            device_capacity,
            degradations: Vec::new(),
            force_cpu_maps: false,
            governor,
            frame_mirror: Vec::new(),
            call_path_memo: parking_lot::Mutex::new(HashMap::new()),
            stream: None,
            resolve_cache: ResolveCache::new(),
            resolved_scratch: Vec::new(),
            phase: PhaseTimings::default(),
            counters: CollectorCounters::default(),
        }
    }

    /// The effective resource budget (options merged with the
    /// `DRGPUM_MEM_BUDGET` / `DRGPUM_DETECTOR_DEADLINE_MS` environment).
    pub fn budget(&self) -> &ResourceBudget {
        self.governor.budget()
    }

    /// The session governor (metered bytes, current collection rung).
    pub fn governor(&self) -> &SessionGovernor {
        &self.governor
    }

    /// The current rung on the adaptive degradation ladder.
    pub fn collection_rung(&self) -> CollectionRung {
        self.governor.rung()
    }

    /// Attaches a crash-consistent streaming-trace writer; every subsequent
    /// API event is flushed (fsynced) as a delta section.
    pub fn start_stream(&mut self, state: StreamState) {
        self.stream = Some(state);
    }

    /// Whether a streaming-trace writer is attached and still writing.
    pub fn is_streaming(&self) -> bool {
        self.stream.as_ref().is_some_and(|s| !s.stopped())
    }

    /// Writes the final checkpoint and the clean-finish marker to the
    /// streaming trace, if one is attached. Idempotent once finished.
    pub fn finish_stream(&mut self) -> Result<(), ProfilerError> {
        let Some(mut state) = self.stream.take() else {
            return Ok(());
        };
        if state.stopped() {
            return Ok(());
        }
        state.finish(self)
    }

    /// Resolves a call path against the frame mirror, innermost-first —
    /// the same rendering [`crate::trace_io::save`] produces from the
    /// context-owned frame table.
    ///
    /// Memoized on the shared frame list: most APIs are invoked from a
    /// handful of sites, so identical paths render once per session and
    /// every later resolution is one map hit returning shared `Arc`s.
    pub(crate) fn resolve_call_path(&self, path: &CallPath) -> Arc<[Arc<str>]> {
        if let Some(hit) = self.call_path_memo.lock().get(path.frames()) {
            return hit.clone();
        }
        let rendered: Arc<[Arc<str>]> = path
            .frames()
            .iter()
            .rev()
            .map(|id| {
                self.frame_mirror
                    .get(id.0 as usize)
                    .filter(|s| !s.is_empty())
                    .cloned()
                    .unwrap_or_else(|| Arc::from(format!("<unknown frame {}>", id.0)))
            })
            .collect();
        self.call_path_memo
            .lock()
            .insert(path.frames_shared(), rendered.clone());
        rendered
    }

    /// The options this collector runs with.
    pub fn options(&self) -> &ProfilerOptions {
        &self.opts
    }

    /// The memory map `M`.
    pub fn registry(&self) -> &ObjectRegistry {
        &self.registry
    }

    /// The GPU-API trace gathered so far.
    pub fn gpu_apis(&self) -> &[GpuApi] {
        &self.gpu_apis
    }

    /// All object accesses gathered so far.
    pub fn accesses(&self) -> &[RawAccess] {
        &self.accesses
    }

    /// The memory-usage curve (bytes in use after each GPU API).
    pub fn usage_curve(&self) -> &[UsageSample] {
        &self.usage
    }

    /// Intra-object data for every monitored object, in object-id order
    /// (the dense table's natural order).
    pub fn intra_data(&self) -> Vec<&IntraObjectData> {
        self.intra
            .iter()
            .filter_map(|s| s.as_ref().map(|st| &st.data))
            .collect()
    }

    /// Cumulative hot-path phase timings (resolve / aggregate / flush).
    pub fn phase_timings(&self) -> PhaseTimings {
        self.phase
    }

    /// Deterministic work counters of the record path.
    pub fn counters(&self) -> CollectorCounters {
        CollectorCounters {
            resolve_misses: self.resolve_cache.misses(),
            ..self.counters
        }
    }

    /// Adaptive map-placement decisions (one per fully-patched kernel).
    pub fn mode_decisions(&self) -> &[ModeDecision] {
        &self.mode_decisions
    }

    /// Downgrades this collector took to survive faults in the profiled
    /// application (in observation order).
    pub fn degradations(&self) -> &[DegradationRecord] {
        &self.degradations
    }

    /// Whether any downgrade happened during collection.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Per-page unified-memory migration statistics, sorted by object and
    /// page (the Sec. 8 extension's detector input).
    pub fn unified_page_stats(&self) -> Vec<UnifiedPageStats> {
        let mut v: Vec<UnifiedPageStats> = self.unified_pages.values().cloned().collect();
        v.sort_by_key(|p| (p.object, p.page_index));
        v
    }

    fn record_usage(&mut self) {
        self.usage.push(UsageSample {
            api_idx: self.gpu_apis.len() - 1,
            bytes_in_use: self.in_use_bytes,
        });
        self.governor
            .charge(std::mem::size_of::<UsageSample>() as u64);
    }

    fn push_api(&mut self, event: &ApiEvent, detail: String, mut vertex: VertexAccess) -> usize {
        // Attach any event-synchronization predecessors waiting on this
        // stream (cudaStreamWaitEvent before this API).
        if let Some(preds) = self.pending_sync.remove(&event.stream.0) {
            vertex.after = preds;
        }
        self.last_api_on_stream
            .insert(event.stream.0, self.gpu_apis.len());
        self.gpu_apis.push(GpuApi {
            name: event.display_name(),
            detail,
            mnemonic: event.kind.mnemonic(),
            stream: event.stream,
            call_path: event.call_path.clone(),
            vertex,
            start_ns: event.start.as_ns(),
            end_ns: event.end.as_ns(),
        });
        let idx = self.gpu_apis.len() - 1;
        let a = &self.gpu_apis[idx];
        self.governor
            .charge(std::mem::size_of::<GpuApi>() as u64 + (a.name.len() + a.detail.len()) as u64);
        idx
    }

    fn note_access(
        &mut self,
        api_idx: usize,
        object: ObjectId,
        read: bool,
        write: bool,
        via: AccessVia,
    ) {
        // A faulting run can deliver kernel-end callbacks with no matching
        // trace entry; drop the attribution rather than panic.
        let Some(api) = self.gpu_apis.get_mut(api_idx) else {
            self.degradations.push(DegradationRecord::new(
                "collector",
                format!("dropped access to object {object:?}: no GPU API at index {api_idx}"),
            ));
            return;
        };
        self.accesses.push(RawAccess {
            api_idx,
            object,
            read,
            write,
            via,
        });
        self.governor
            .charge(std::mem::size_of::<RawAccess>() as u64);
        let v = &mut api.vertex;
        if read {
            v.reads.push(object);
        }
        if write {
            v.writes.push(object);
        }
    }

    /// Whether intra-object maps are maintained for `object`.
    fn monitors_intra(&self, object: ObjectId) -> bool {
        if self.opts.analysis != AnalysisLevel::IntraObject {
            return false;
        }
        self.registry
            .get(object)
            .map(|o| o.source.is_analyzable())
            .unwrap_or(false)
    }

    /// The dense intra-state slot for `object`, growing the table on first
    /// touch of a new id. Associated function over the field so callers can
    /// hold the slot alongside borrows of other collector fields.
    fn intra_slot_in(
        intra: &mut Vec<Option<IntraState>>,
        object: ObjectId,
    ) -> &mut Option<IntraState> {
        let idx = object.0 as usize;
        if intra.len() <= idx {
            intra.resize_with(idx + 1, || None);
        }
        &mut intra[idx]
    }

    fn intra_state(&mut self, object: ObjectId) -> Option<&mut IntraState> {
        if !self.monitors_intra(object) {
            return None;
        }
        let size = self.registry.get(object)?.size();
        Some(
            Self::intra_slot_in(&mut self.intra, object)
                .get_or_insert_with(|| IntraState::new(object, size)),
        )
    }

    /// Marks `object` as touched by the current kernel and ORs `flags` into
    /// its per-kernel flag byte, returning the previous flags.
    fn touch_kernel_flags(&mut self, object: ObjectId, flags: u8) -> u8 {
        let idx = object.0 as usize;
        if self.kernel_flag_table.len() <= idx {
            self.kernel_flag_table.resize(idx + 1, 0);
        }
        let prev = self.kernel_flag_table[idx];
        if prev & kernel_flags::SEEN == 0 {
            self.kernel_touched.push(object);
        }
        self.kernel_flag_table[idx] = prev | kernel_flags::SEEN | flags;
        prev
    }

    /// Resets per-kernel state by walking the touched list (the flag table
    /// itself is dense and stays allocated).
    fn clear_kernel_state(&mut self) {
        for obj in self.kernel_touched.drain(..) {
            self.kernel_flag_table[obj.0 as usize] = 0;
        }
    }

    /// Re-meters one intra-object state against the governor: charges (or
    /// credits) the delta between its current footprint and what it last
    /// charged. Associated function so callers can hold a `&mut` into
    /// `self.intra` alongside the governor borrow.
    fn remeter_intra(governor: &mut SessionGovernor, st: &mut IntraState) {
        let now = st.data.footprint_bytes()
            + st.freq.as_ref().map(FreqMap::footprint_bytes).unwrap_or(0)
            + st.current_ranges.footprint_bytes();
        if now >= st.charged {
            governor.charge(now - st.charged);
        } else {
            governor.credit(st.charged - now);
        }
        st.charged = now;
    }

    /// Applies a range access (from a memcpy/memset, whose accessed range
    /// the Sanitizer reports directly — paper footnote 4) to the object's
    /// intra maps, attributed to GPU API `api_idx`.
    fn intra_range_access(&mut self, api_idx: usize, object: ObjectId, offset: u64, len: u64) {
        let rung = self.governor.rung();
        if rung >= CollectionRung::CountersOnly {
            // Counters-only rung: no intra maps at all.
            return;
        }
        let elem_size = self.opts.elem_size.max(1);
        let size = self.registry.get(object).map(|o| o.size()).unwrap_or(0);
        if let Some(st) = self.intra_state(object) {
            st.data.bitmap.set_range(offset, offset + len);
            let mut rs = RangeSet::new();
            rs.insert(offset, offset + len);
            st.data.per_api.push((api_idx, rs));
            // Frequency analytics are the first thing the degradation
            // ladder sheds (coalesced-only rung and below).
            if rung < CollectionRung::CoalescedOnly {
                let lf = st
                    .data
                    .lifetime_freq
                    .get_or_insert_with(|| FreqMap::new(size, elem_size));
                // One bulk access counts once per touched element.
                lf.record(
                    offset,
                    u32::try_from(len.min(u64::from(u32::MAX))).unwrap_or(u32::MAX),
                );
            }
        }
        if let Some(st) = self
            .intra
            .get_mut(object.0 as usize)
            .and_then(Option::as_mut)
        {
            Self::remeter_intra(&mut self.governor, st);
        }
    }

    /// Attributes a byte-span access (memcpy/memset — the Sanitizer reports
    /// the accessed range directly, paper footnote 4) to every live object
    /// the span covers. A span crossing an object's end is split at the
    /// boundary, so accesses are never silently attributed past the first
    /// byte's object; bytes covered by no object stay unattributed, exactly
    /// as a fully-unresolved span always did.
    fn range_access(
        &mut self,
        api_idx: usize,
        start: DevicePtr,
        len: u64,
        read: bool,
        write: bool,
        via: AccessVia,
    ) {
        let segments = self.registry.resolve_span(start, len);
        // Around a nested pool tensor the enclosing slab contributes one
        // segment per side: attribute the object-level access once.
        let mut noted: Vec<ObjectId> = Vec::with_capacity(segments.len());
        for s in &segments {
            if !noted.contains(&s.object) {
                noted.push(s.object);
                self.note_access(api_idx, s.object, read, write, via);
            }
        }
        for s in &segments {
            self.intra_range_access(api_idx, s.object, s.offset, s.len);
        }
    }

    /// Aggregates one record buffer: a resolve pass over the whole buffer
    /// through the epoch-snapshot index and the last-hit cache, then an
    /// aggregate pass that batches runs of consecutive same-object pieces
    /// so dense-table lookups happen once per run, with governor
    /// remetering deferred to the end of the buffer. Per-object update
    /// order is buffer order, and the governor's metered footprint is only
    /// read at end-of-API / kernel-end boundaries, which always come after
    /// the flush that delivered these records.
    fn aggregate_buffer(&mut self, records: &[MemAccessRecord]) {
        // Pass 1: resolve. The registry cannot change mid-buffer, so every
        // cache hit is exactly the search it elides. The sanitizer keeps a
        // coalesced record inside one allocation, but not inside one pool
        // tensor: a record that outgrows its first byte's window is split
        // at object boundaries like a memcpy span.
        let t_resolve = Instant::now();
        let mut resolved = std::mem::take(&mut self.resolved_scratch);
        resolved.clear();
        resolved.reserve(records.len());
        let mut cache = self.resolve_cache;
        for r in records {
            let end = r.addr.addr() + u64::from(r.size);
            match self.registry.resolve_cached(r.addr, &mut cache) {
                Some((object, offset)) if end <= cache.window_end() => resolved.push(Resolved {
                    object,
                    offset,
                    len: r.size,
                    kind: r.kind,
                }),
                _ => {
                    self.counters.span_records += 1;
                    for s in self.registry.resolve_span(r.addr, u64::from(r.size)) {
                        resolved.push(Resolved {
                            object: s.object,
                            offset: s.offset,
                            // A piece is never longer than its record.
                            len: s.len as u32,
                            kind: r.kind,
                        });
                    }
                }
            }
        }
        self.resolve_cache = cache;
        self.counters.records += records.len() as u64;
        self.phase.resolve_ns += t_resolve.elapsed().as_nanos() as u64;

        // Pass 2: aggregate.
        let t_aggregate = Instant::now();
        let elem_size = self.opts.elem_size.max(1);
        let keep_freq = self.governor.rung() < CollectionRung::CoalescedOnly;
        let monitor_intra = self.opts.analysis == AnalysisLevel::IntraObject;
        for run in resolved.chunk_by(|a, b| a.object == b.object) {
            let obj = run[0].object;
            let mut flags = 0u8;
            for p in run {
                flags |= match p.kind {
                    AccessKind::Read => kernel_flags::READ,
                    AccessKind::Write => kernel_flags::WRITE,
                };
            }
            if monitor_intra {
                if let Some(o) = self.registry.get(obj) {
                    if o.source.is_analyzable() {
                        flags |= kernel_flags::INTRA;
                        let size = o.size();
                        let st = Self::intra_slot_in(&mut self.intra, obj)
                            .get_or_insert_with(|| IntraState::new(obj, size));
                        for p in run {
                            let end = p.offset + u64::from(p.len);
                            st.data.bitmap.set_range(p.offset, end);
                            st.current_ranges.insert(p.offset, end);
                            if keep_freq {
                                st.freq
                                    .get_or_insert_with(|| FreqMap::new(size, elem_size))
                                    .record(p.offset, p.len);
                                st.data
                                    .lifetime_freq
                                    .get_or_insert_with(|| FreqMap::new(size, elem_size))
                                    .record(p.offset, p.len);
                            }
                        }
                    }
                }
            }
            self.touch_kernel_flags(obj, flags);
        }
        // Deferred remetering: once per touched object per buffer instead
        // of once per record, settled before any enforcement boundary reads
        // the metered footprint.
        for k in 0..self.kernel_touched.len() {
            let obj = self.kernel_touched[k];
            if self.kernel_flag_table[obj.0 as usize] & kernel_flags::INTRA != 0 {
                if let Some(st) = self.intra.get_mut(obj.0 as usize).and_then(Option::as_mut) {
                    Self::remeter_intra(&mut self.governor, st);
                }
            }
        }
        self.phase.aggregate_ns += t_aggregate.elapsed().as_nanos() as u64;
        self.resolved_scratch = resolved;
    }

    /// Finishes the currently-executing kernel: attributes object accesses
    /// to the kernel's trace entry and finalizes intra-object maps.
    fn finish_kernel(&mut self, touched: &[TouchedObject]) {
        let api_idx = self.gpu_apis.len().saturating_sub(1);
        // Object-level attribution: prefer the per-record set (needed for
        // pool tensors) when fully patched; otherwise the hit-flag summary.
        if self.current_mode == PatchMode::Full {
            let mut objs: Vec<ObjectId> = self.kernel_touched.clone();
            objs.sort();
            for obj in objs {
                let f = self.kernel_flag_table[obj.0 as usize];
                self.note_access(
                    api_idx,
                    obj,
                    f & kernel_flags::READ != 0,
                    f & kernel_flags::WRITE != 0,
                    AccessVia::Kernel,
                );
            }
        } else {
            for t in touched {
                if let Some(obj) = self.registry.resolve(t.base) {
                    self.note_access(api_idx, obj, t.read, t.written, AccessVia::Kernel);
                }
            }
        }
        // Intra-object finalization for this kernel, in object-id order.
        let mut sorted: Vec<ObjectId> = self
            .kernel_touched
            .iter()
            .copied()
            .filter(|obj| self.kernel_flag_table[obj.0 as usize] & kernel_flags::INTRA != 0)
            .collect();
        sorted.sort();
        for obj in sorted {
            if let Some(st) = self.intra.get_mut(obj.0 as usize).and_then(Option::as_mut) {
                let ranges = std::mem::take(&mut st.current_ranges);
                if !ranges.is_empty() {
                    st.data.per_api.push((api_idx, ranges));
                }
                if let Some(freq) = &st.freq {
                    let cov = freq.coefficient_of_variation_pct();
                    let better = st
                        .data
                        .nuaf_peak
                        .as_ref()
                        .map(|(_, best, _)| cov > *best)
                        .unwrap_or(true);
                    if better && cov > 0.0 {
                        st.data.nuaf_peak = Some((api_idx, cov, freq.histogram()));
                    }
                }
                st.freq = None;
                Self::remeter_intra(&mut self.governor, st);
            }
        }
        self.clear_kernel_state();
        self.current_mode = PatchMode::None;
    }

    /// Budget enforcement at a deterministic boundary (end of a GPU API,
    /// kernel end): while the metered footprint exceeds the resident budget,
    /// walk the degradation ladder one rung at a time, shedding state to
    /// match, until the footprint fits or the ladder bottoms out.
    fn enforce_budget(&mut self) {
        while self.governor.over_resident_budget() {
            match self.governor.demote("resident budget exceeded") {
                Some((rung, record)) => {
                    self.degradations.push(record);
                    match rung {
                        CollectionRung::CoalescedOnly => self.shed_frequency_maps(),
                        CollectionRung::CountersOnly => self.shed_intra_maps(),
                        // `Sampled` sheds nothing retroactively: it thins
                        // *future* kernel patching via the scaled sampling
                        // period.
                        _ => {}
                    }
                }
                None => {
                    if let Some(rec) = self.governor.exhaustion_record() {
                        self.degradations.push(rec);
                    }
                    break;
                }
            }
        }
    }

    /// Coalesced-only rung: drops per-object frequency maps (both the
    /// per-kernel map and the lifetime accumulation), crediting their
    /// footprint back to the governor. Bitmaps and range sets survive.
    fn shed_frequency_maps(&mut self) {
        for st in self.intra.iter_mut().filter_map(Option::as_mut) {
            st.freq = None;
            st.data.lifetime_freq = None;
            Self::remeter_intra(&mut self.governor, st);
        }
    }

    /// Counters-only rung: drops all intra-object state, crediting every
    /// charged byte back to the governor. Future kernels are patched with
    /// hit flags only (see `on_kernel_begin`).
    fn shed_intra_maps(&mut self) {
        for slot in &mut self.intra {
            if let Some(st) = slot.take() {
                self.governor.credit(st.charged);
            }
        }
        for &obj in &self.kernel_touched {
            self.kernel_flag_table[obj.0 as usize] &= !kernel_flags::INTRA;
        }
    }

    /// Flushes pending state to the streaming trace, if one is attached and
    /// still writing. A write/sync failure stops the stream (recorded as a
    /// degradation) but never aborts profiling; tripping the trace-bytes
    /// budget writes a final checkpoint and then stops.
    fn stream_flush(&mut self) {
        let Some(mut state) = self.stream.take() else {
            return;
        };
        if !state.stopped() {
            if let Err(e) = state.flush(&*self) {
                state.stop();
                self.degradations.push(DegradationRecord::at(
                    "stream",
                    format!("streaming trace stopped: {e}"),
                    self.governor.elapsed_ms(),
                ));
            } else if let Some(rec) = self.governor.note_trace_bytes(state.bytes_written()) {
                // Over the trace budget: one final checkpoint so `--resume`
                // can still replay analysis state, then stop appending.
                let _ = state.final_checkpoint(&*self);
                state.stop();
                self.degradations.push(rec);
            }
        }
        self.stream = Some(state);
    }
}

impl SanitizerHooks for Collector {
    fn on_api(&mut self, event: &ApiEvent) {
        match &event.kind {
            ApiKind::Malloc { ptr, size, label } => {
                let api_idx = self.gpu_apis.len();
                let obj = self.registry.on_alloc(
                    label.clone(),
                    AddrRange::new(*ptr, *size),
                    ObjectSource::Cuda,
                    api_idx,
                    true,
                    event.call_path.clone(),
                );
                self.push_api(
                    event,
                    label.clone(),
                    VertexAccess {
                        stream: event.stream,
                        writes: vec![obj],
                        ..Default::default()
                    },
                );
                self.in_use_bytes += size;
                self.record_usage();
            }
            ApiKind::Free { ptr, size, label } => {
                let api_idx = self.gpu_apis.len();
                let freed = self.registry.on_free(*ptr, api_idx);
                // A FREE of a pointer with no live object (spurious or
                // double free) must not corrupt the usage curve.
                if freed.is_none() {
                    self.degradations.push(DegradationRecord::new(
                        "collector",
                        format!("FREE of unknown pointer ({label}) ignored in usage accounting"),
                    ));
                }
                self.push_api(
                    event,
                    label.clone(),
                    VertexAccess {
                        stream: event.stream,
                        frees: freed.into_iter().collect(),
                        ..Default::default()
                    },
                );
                if freed.is_some() {
                    self.in_use_bytes = self.in_use_bytes.saturating_sub(*size);
                }
                self.record_usage();
            }
            ApiKind::MemcpyH2D { dst, size } => {
                let api_idx = self.push_api(
                    event,
                    format!("{size}B H2D"),
                    VertexAccess {
                        stream: event.stream,
                        ..Default::default()
                    },
                );
                self.range_access(api_idx, *dst, *size, false, true, AccessVia::Memcpy);
                self.record_usage();
            }
            ApiKind::MemcpyD2H { src, size } => {
                let api_idx = self.push_api(
                    event,
                    format!("{size}B D2H"),
                    VertexAccess {
                        stream: event.stream,
                        ..Default::default()
                    },
                );
                self.range_access(api_idx, *src, *size, true, false, AccessVia::Memcpy);
                self.record_usage();
            }
            ApiKind::MemcpyD2D { dst, src, size } => {
                let api_idx = self.push_api(
                    event,
                    format!("{size}B D2D"),
                    VertexAccess {
                        stream: event.stream,
                        ..Default::default()
                    },
                );
                self.range_access(api_idx, *src, *size, true, false, AccessVia::Memcpy);
                self.range_access(api_idx, *dst, *size, false, true, AccessVia::Memcpy);
                self.record_usage();
            }
            ApiKind::Memset { dst, size, .. } => {
                let api_idx = self.push_api(
                    event,
                    format!("{size}B set"),
                    VertexAccess {
                        stream: event.stream,
                        ..Default::default()
                    },
                );
                self.range_access(api_idx, *dst, *size, false, true, AccessVia::Memset);
                self.record_usage();
            }
            ApiKind::KernelLaunch { name, .. } => {
                self.push_api(
                    event,
                    name.to_string(),
                    VertexAccess {
                        stream: event.stream,
                        ..Default::default()
                    },
                );
                self.record_usage();
            }
            // Event APIs are not GPU APIs in the paper's sense, but they
            // order GPU APIs across streams: record where each event was
            // recorded, and queue an edge for the waiting stream's next API.
            ApiKind::EventRecord { event: ev } => {
                if let Some(&idx) = self.last_api_on_stream.get(&event.stream.0) {
                    self.event_record_points.insert(ev.0, idx);
                }
            }
            ApiKind::EventWait { event: ev } => {
                if let Some(&idx) = self.event_record_points.get(&ev.0) {
                    self.pending_sync
                        .entry(event.stream.0)
                        .or_default()
                        .push(idx);
                }
            }
            // Remaining sync/stream-management APIs carry no pattern
            // information.
            _ => {}
        }
        // Deterministic governance boundary: every hook sees the same API
        // sequence regardless of kernel workers, so budget trips (and
        // stream deltas) land identically across worker counts.
        self.enforce_budget();
        self.stream_flush();
    }

    fn on_kernel_begin(&mut self, info: &KernelInfo) -> PatchMode {
        // Counters-only rung: hit flags regardless of the analysis level.
        if self.governor.rung() >= CollectionRung::CountersOnly {
            self.current_mode = PatchMode::HitFlags;
            self.clear_kernel_state();
            return PatchMode::HitFlags;
        }
        let mut mode = match self.opts.analysis {
            AnalysisLevel::ObjectLevel => PatchMode::HitFlags,
            AnalysisLevel::IntraObject => {
                // On the `Sampled` rung the period is stretched by the
                // governor's demotion scale.
                if self.opts.sampling.samples_scaled(
                    &info.name,
                    info.instance,
                    self.governor.sampling_scale(),
                ) {
                    PatchMode::Full
                } else {
                    PatchMode::HitFlags
                }
            }
        };
        // Pool tensors are invisible to the hit-flag summary (it reports the
        // backing slab); attribute per record instead.
        if self.opts.track_pool_tensors
            && self
                .registry
                .live_objects()
                .any(|o| o.source == ObjectSource::PoolTensor)
        {
            mode = PatchMode::Full;
        }
        if mode == PatchMode::Full {
            // Sec. 5.5: place access maps on the GPU iff maps + live data
            // fit in device memory; otherwise stream records to the CPU.
            let map_bytes: u64 = self
                .intra
                .iter()
                .filter_map(Option::as_ref)
                .map(|s| {
                    s.data.bitmap.footprint_bytes()
                        + s.freq.as_ref().map(FreqMap::footprint_bytes).unwrap_or(0)
                })
                .sum();
            let data_bytes = self.in_use_bytes;
            let side = if !self.force_cpu_maps && map_bytes + data_bytes <= self.device_capacity {
                MapSide::Gpu
            } else {
                MapSide::Cpu
            };
            self.mode_decisions.push(ModeDecision {
                kernel: info.name.to_string(),
                side,
                map_bytes,
                data_bytes,
            });
        }
        self.current_mode = mode;
        self.clear_kernel_state();
        mode
    }

    fn on_mem_access_buffer(&mut self, _info: &KernelInfo, records: &[MemAccessRecord]) {
        if self.current_mode != PatchMode::Full {
            return;
        }
        self.aggregate_buffer(records);
    }

    fn on_kernel_end(
        &mut self,
        _info: &KernelInfo,
        touched: &[TouchedObject],
        _counters: &KernelCounters,
    ) {
        let t_flush = Instant::now();
        self.finish_kernel(touched);
        self.phase.flush_ns += t_flush.elapsed().as_nanos() as u64;
        // The kernel's accesses were attributed to its (already-emitted)
        // KernelLaunch trace row: re-check the budget and flush the updated
        // row to the stream before the next API.
        self.enforce_budget();
        self.stream_flush();
    }

    fn on_frame(&mut self, id: FrameId, loc: &SourceLoc) {
        let idx = id.0 as usize;
        if self.frame_mirror.len() <= idx {
            self.frame_mirror.resize(idx + 1, Arc::from(""));
        }
        let rendered = loc.to_string();
        if self.frame_mirror[idx].as_ref() != rendered.as_str() {
            // Frames are interned once per location, so a non-empty slot
            // never changes in practice — but if one ever did, every
            // memoized rendering mentioning it would be stale.
            if !self.frame_mirror[idx].is_empty() {
                self.call_path_memo.lock().clear();
            }
            self.frame_mirror[idx] = Arc::from(rendered);
        }
    }

    fn collection_hint(&self) -> CollectionHint {
        if self.governor.rung() >= CollectionRung::CoalescedOnly {
            // Backpressure: once degraded, ask the sanitizer to flush
            // smaller record buffers, shrinking the staging memory between
            // flushes.
            CollectionHint {
                buffer_capacity: Some(BACKPRESSURE_BUFFER_RECORDS),
            }
        } else {
            CollectionHint::default()
        }
    }

    fn on_alloc_failure(&mut self, requested: u64, label: &str, error: &SimError) {
        // Degraded mode (tied to Sec. 5.5): once the device refuses memory,
        // keep profiling but pin all future access maps to CPU-side storage
        // so the profiler itself never competes for exhausted device memory.
        if !self.force_cpu_maps {
            self.force_cpu_maps = true;
            self.degradations.push(DegradationRecord::new(
                "collector",
                format!(
                    "device allocation of {requested} bytes ({label}) failed ({error}); \
                     access maps pinned to CPU-side storage for the rest of the run"
                ),
            ));
        }
    }

    fn on_page_migration(&mut self, migration: &PageMigration) {
        let Some(object) = self.registry.resolve(migration.region_base) else {
            return;
        };
        let Some(base) = self.registry.get(object).map(|o| o.range.start) else {
            return;
        };
        let stats = self
            .unified_pages
            .entry((object, migration.page_index))
            .or_insert_with(|| UnifiedPageStats::new(object, migration.page_index));
        stats.migrations += 1;
        let off = migration.cause_addr.offset_from(base);
        let end = off + u64::from(migration.cause_size);
        match migration.to {
            Side::Host => stats.host_ranges.insert(off, end),
            Side::Device => stats.device_ranges.insert(off, end),
        }
    }
}

impl PoolObserver for Collector {
    fn on_pool_event(&mut self, event: &PoolEvent) {
        if !self.opts.track_pool_tensors {
            return;
        }
        match event {
            PoolEvent::Alloc {
                ptr,
                size,
                label,
                call_path,
            } => {
                // The enclosing cudaMalloc allocation is a pool slab: its
                // memory is analyzed through the tensors, not as one object.
                if let Some(slab) = self.registry.resolve(*ptr) {
                    if self.registry.get(slab).map(|o| o.source) == Some(ObjectSource::Cuda) {
                        self.registry.reclassify(slab, ObjectSource::PoolSlab);
                    }
                }
                let anchor = self.gpu_apis.len();
                self.registry.on_alloc(
                    label.clone(),
                    AddrRange::new(*ptr, *size),
                    ObjectSource::PoolTensor,
                    anchor,
                    false,
                    call_path.clone(),
                );
            }
            PoolEvent::Free { ptr, .. } => {
                let anchor = self.gpu_apis.len();
                self.registry.on_pool_free(*ptr, anchor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceContext, LaunchConfig};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn attach(ctx: &mut DeviceContext, opts: ProfilerOptions) -> Arc<Mutex<Collector>> {
        let c = Arc::new(Mutex::new(Collector::new(
            opts,
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        c
    }

    #[test]
    fn collects_gpu_apis_and_usage_curve() {
        let mut ctx = DeviceContext::new_default();
        let c = attach(&mut ctx, ProfilerOptions::object_level());
        let a = ctx.malloc(1000, "a").unwrap();
        let b = ctx.malloc(2000, "b").unwrap();
        ctx.free(a).unwrap();
        ctx.free(b).unwrap();
        let col = c.lock();
        assert_eq!(col.gpu_apis().len(), 4);
        let usage: Vec<u64> = col.usage_curve().iter().map(|s| s.bytes_in_use).collect();
        assert_eq!(usage, vec![1000, 3000, 2000, 0]);
        assert_eq!(col.registry().len(), 2);
        assert_eq!(col.registry().live_count(), 0);
    }

    #[test]
    fn memcpy_and_memset_accesses_are_attributed() {
        let mut ctx = DeviceContext::new_default();
        let c = attach(&mut ctx, ProfilerOptions::object_level());
        let a = ctx.malloc(64, "a").unwrap();
        ctx.memset(a, 0, 64).unwrap();
        ctx.memcpy_h2d(a, &[1u8; 64]).unwrap();
        let mut out = [0u8; 64];
        ctx.memcpy_d2h(&mut out, a).unwrap();
        let col = c.lock();
        let acc = col.accesses();
        assert_eq!(acc.len(), 3);
        assert!(acc[0].write && !acc[0].read);
        assert_eq!(acc[0].via, AccessVia::Memset);
        assert!(acc[1].write && !acc[1].read);
        assert!(acc[2].read && !acc[2].write);
    }

    #[test]
    fn kernel_hit_flags_attribute_object_accesses() {
        let mut ctx = DeviceContext::new_default();
        let c = attach(&mut ctx, ProfilerOptions::object_level());
        let a = ctx.malloc(64, "a").unwrap();
        let b = ctx.malloc(64, "b").unwrap();
        ctx.memset(a, 1, 64).unwrap();
        ctx.launch(
            "copy",
            LaunchConfig::cover(16, 16).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < 16 {
                    let v = t.load_f32(a + i * 4);
                    t.store_f32(b + i * 4, v);
                }
            },
        )
        .unwrap();
        let col = c.lock();
        let kernel_accesses: Vec<&RawAccess> = col
            .accesses()
            .iter()
            .filter(|x| x.via == AccessVia::Kernel)
            .collect();
        assert_eq!(kernel_accesses.len(), 2);
        let obj_a = col.registry().iter().find(|o| o.label == "a").unwrap().id;
        let a_acc = kernel_accesses.iter().find(|x| x.object == obj_a).unwrap();
        assert!(a_acc.read && !a_acc.write);
    }

    #[test]
    fn intra_mode_builds_bitmaps() {
        let mut ctx = DeviceContext::new_default();
        let c = attach(&mut ctx, ProfilerOptions::intra_object());
        let a = ctx.malloc(1000, "a").unwrap();
        // Kernel touches only the first 100 bytes (25 f32 elements).
        ctx.launch(
            "partial",
            LaunchConfig::cover(25, 32).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < 25 {
                    t.store_f32(a + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        let col = c.lock();
        let intra = col.intra_data();
        assert_eq!(intra.len(), 1);
        assert_eq!(intra[0].bitmap.count_set(), 100);
        assert_eq!(intra[0].per_api.len(), 1);
        let (_, ranges) = &intra[0].per_api[0];
        assert_eq!(ranges.ranges(), &[(0, 100)]);
    }

    #[test]
    fn sampling_skips_unsampled_instances() {
        let mut ctx = DeviceContext::new_default();
        let opts = ProfilerOptions::intra_object()
            .with_sampling(crate::options::SamplingPolicy::with_period(2));
        let c = attach(&mut ctx, opts);
        let a = ctx.malloc(64, "a").unwrap();
        for _ in 0..4 {
            ctx.launch(
                "k",
                LaunchConfig::cover(16, 16).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    let i = t.global_x();
                    if i < 16 {
                        t.store_f32(a + i * 4, 2.0);
                    }
                },
            )
            .unwrap();
        }
        let col = c.lock();
        // Instances 0 and 2 are sampled: two per-API entries.
        assert_eq!(col.intra_data()[0].per_api.len(), 2);
        // Object-level attribution still sees all four kernels (hit flags).
        let kernel_accesses = col
            .accesses()
            .iter()
            .filter(|x| x.via == AccessVia::Kernel)
            .count();
        assert_eq!(kernel_accesses, 4);
        assert_eq!(col.mode_decisions().len(), 2);
    }

    #[test]
    fn event_sync_orders_independent_streams() {
        use crate::analyzer::build_trace_view;
        // Producer on stream 1 and consumer on stream 2 touch *different*
        // objects; only an event orders them. Without the event-sync edge
        // the two kernels would share a topological wave.
        let mut ctx = DeviceContext::new_default();
        let c = attach(&mut ctx, ProfilerOptions::object_level());
        let s1 = ctx.create_stream();
        let s2 = ctx.create_stream();
        let a = ctx.malloc(64, "a").unwrap();
        let b = ctx.malloc(64, "b").unwrap();
        ctx.launch(
            "produce",
            LaunchConfig::cover(4, 4).unwrap(),
            s1,
            move |t| {
                let i = t.global_x();
                if i < 16 {
                    t.store_f32(a + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        let ev = ctx.create_event();
        ctx.record_event(ev, s1).unwrap();
        ctx.wait_event(s2, ev).unwrap();
        ctx.launch(
            "consume",
            LaunchConfig::cover(4, 4).unwrap(),
            s2,
            move |t| {
                let i = t.global_x();
                if i < 16 {
                    t.store_f32(b + i * 4, 2.0);
                }
            },
        )
        .unwrap();
        let col = c.lock();
        let tv = build_trace_view(&col);
        // Trace: ALLOC a (0), ALLOC b (1), KERL produce (2), KERL consume (3).
        assert!(
            tv.api_ts[3] > tv.api_ts[2],
            "the event must order consume after produce: {:?}",
            tv.api_ts
        );
    }

    #[test]
    fn pool_tensors_become_objects_when_tracked() {
        use gpu_sim::pool::CachingPool;
        let mut ctx = DeviceContext::new_default();
        let c = Arc::new(Mutex::new(Collector::new(
            ProfilerOptions::intra_object().with_pool_tracking(),
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
        pool.register_observer(c.clone());
        let t = pool.alloc(&mut ctx, 256, "tensor").unwrap();
        ctx.launch(
            "use",
            LaunchConfig::cover(4, 4).unwrap(),
            StreamId::DEFAULT,
            move |tc| {
                let i = tc.global_x();
                if i < 4 {
                    tc.store_f32(t + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        pool.free(t).unwrap();
        let col = c.lock();
        let tensor = col
            .registry()
            .iter()
            .find(|o| o.label == "tensor")
            .expect("tensor registered");
        assert_eq!(tensor.source, ObjectSource::PoolTensor);
        assert!(tensor.free_api.is_some());
        assert!(!tensor.free_is_api);
        // The kernel access attributed to the tensor, not the slab.
        let acc = col
            .accesses()
            .iter()
            .find(|a| a.object == tensor.id)
            .expect("tensor access");
        assert!(acc.write);
    }

    #[test]
    fn memcpy_spanning_two_pool_tensors_attributes_both() {
        // Regression: the collector used to resolve only a memcpy's first
        // byte and attribute the whole transfer to that object, so a copy
        // spanning two adjacent pool tensors silently credited every byte
        // to the first tensor. The span must split at the boundary.
        use gpu_sim::pool::{CachingPool, POOL_ALIGN};
        let mut ctx = DeviceContext::new_default();
        let c = Arc::new(Mutex::new(Collector::new(
            ProfilerOptions::intra_object().with_pool_tracking(),
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
        pool.register_observer(c.clone());
        // Exactly one pool block each, so t2 starts where t1 ends.
        let t1 = pool.alloc(&mut ctx, POOL_ALIGN, "t1").unwrap();
        let t2 = pool.alloc(&mut ctx, POOL_ALIGN, "t2").unwrap();
        assert_eq!(t2, t1 + POOL_ALIGN);
        // One h2d copy covering all of t1 and the first 128 bytes of t2.
        let payload = vec![7u8; POOL_ALIGN as usize + 128];
        ctx.memcpy_h2d(t1, &payload).unwrap();
        let col = c.lock();
        let id_of = |label: &str| col.registry().iter().find(|o| o.label == label).unwrap().id;
        let (o1, o2) = (id_of("t1"), id_of("t2"));
        // Both tensors see the write (tensors are innermost, so no slab
        // segment appears inside the copied span).
        for id in [o1, o2] {
            let acc = col
                .accesses()
                .iter()
                .find(|a| a.object == id && a.via == AccessVia::Memcpy)
                .expect("memcpy access attributed");
            assert!(acc.write && !acc.read);
        }
        // Intra coverage splits exactly at the tensor boundary: t1 gets its
        // full 512 bytes (not the whole 640-byte transfer), t2 gets 128
        // bytes starting at offset 0.
        let intra = col.intra_data();
        let of = |id| intra.iter().find(|d| d.object == id).unwrap();
        assert_eq!(of(o1).bitmap.count_set(), POOL_ALIGN);
        assert_eq!(of(o1).per_api[0].1.ranges(), &[(0, POOL_ALIGN)]);
        assert_eq!(of(o2).bitmap.count_set(), 128);
        assert_eq!(of(o2).per_api[0].1.ranges(), &[(0, 128)]);
    }

    #[test]
    fn memcpy_crossing_object_end_is_clipped() {
        // Regression companion: a copy overrunning a tensor's end into
        // untracked pool space must clip the tensor's attribution at its
        // boundary instead of crediting the overhang to it.
        use gpu_sim::pool::CachingPool;
        let mut ctx = DeviceContext::new_default();
        let c = Arc::new(Mutex::new(Collector::new(
            ProfilerOptions::intra_object().with_pool_tracking(),
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(c.clone());
        let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
        pool.register_observer(c.clone());
        let t = pool.alloc(&mut ctx, 256, "t").unwrap();
        // 256-byte tensor in a 512-byte pool block: the copy spills 128
        // bytes past the tensor's end into slab-only territory.
        ctx.memcpy_h2d(t, &[1u8; 384]).unwrap();
        let col = c.lock();
        let tensor = col.registry().iter().find(|o| o.label == "t").unwrap();
        let intra = col.intra_data();
        let d = intra.iter().find(|d| d.object == tensor.id).unwrap();
        assert_eq!(d.bitmap.count_set(), 256);
        assert_eq!(d.per_api[0].1.ranges(), &[(0, 256)]);
    }

    #[test]
    fn coalesced_collection_matches_uncoalesced() {
        // Same program observed twice: once with the sanitizer merging warp
        // accesses at element-aligned junctions, once with one record per
        // access, asserting identical aggregation state.
        let run = |merge: bool| {
            let mut ctx = DeviceContext::new_default();
            ctx.sanitizer_mut().set_buffer_capacity(512); // force many flushes
            ctx.sanitizer_mut().set_coalescing(merge);
            ctx.sanitizer_mut().set_coalesce_alignment(4);
            let c = attach(&mut ctx, ProfilerOptions::intra_object());
            let n = 4096u64;
            let a = ctx.malloc(n * 4, "a").unwrap();
            let b = ctx.malloc(n * 4, "b").unwrap();
            ctx.memset(a, 1, n * 4).unwrap();
            ctx.launch(
                "skewed",
                LaunchConfig::cover(n, 128).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    let i = t.global_x();
                    if i < n {
                        let v = t.load_f32(a + i * 4);
                        // Non-uniform: every thread also re-reads element 0.
                        let w = t.load_f32(a);
                        t.store_f32(b + (i / 2) * 4, v + w);
                    }
                },
            )
            .unwrap();
            ctx.free(a).unwrap();
            let merged = ctx.stats().coalesced_records;
            (c, merged)
        };
        let (serial, unmerged) = run(false);
        let (coalesced, merged) = run(true);
        assert_eq!(unmerged, 0);
        assert!(merged > 0, "the kernel's accesses must actually merge");
        let (s, p) = (serial.lock(), coalesced.lock());
        assert!(p.counters().records < s.counters().records);
        assert_eq!(s.accesses(), p.accesses());
        let (si, pi) = (s.intra_data(), p.intra_data());
        assert_eq!(si.len(), pi.len());
        for (a, b) in si.iter().zip(&pi) {
            assert_eq!(a.object, b.object);
            assert_eq!(a.bitmap, b.bitmap);
            assert_eq!(a.per_api.len(), b.per_api.len());
            for ((ia, ra), (ib, rb)) in a.per_api.iter().zip(&b.per_api) {
                assert_eq!(ia, ib);
                assert_eq!(ra.ranges(), rb.ranges());
            }
            let (na, nb) = (&a.nuaf_peak, &b.nuaf_peak);
            assert_eq!(na.is_some(), nb.is_some());
            if let (Some((ia, ca, ha)), Some((ib, cb, hb))) = (na, nb) {
                assert_eq!(ia, ib);
                assert_eq!(ca.to_bits(), cb.to_bits(), "CoV must match exactly");
                assert_eq!(ha, hb);
            }
            assert_eq!(
                a.lifetime_freq.as_ref().map(|f| f.counts()),
                b.lifetime_freq.as_ref().map(|f| f.counts())
            );
        }
        assert!(p.degradations().is_empty(), "{:?}", p.degradations());
    }

    #[test]
    fn coalesced_record_across_adjacent_pool_tensors_is_split() {
        // Regression: the sanitizer only keeps a merged record inside one
        // allocation, and the pool's slab is one allocation. One warp
        // writing 1 KiB across two adjacent 512-byte tensors became one
        // record that resolved to the first tensor: the second tensor was
        // reported as an unused allocation and bytes were set past the
        // first tensor's end. The collector now splits such records.
        use crate::patterns::PatternKind;
        use crate::profiler::Profiler;
        use gpu_sim::pool::{CachingPool, POOL_ALIGN};
        let run = |merge: bool| {
            let mut ctx = DeviceContext::new_default();
            let profiler = Profiler::attach(
                &mut ctx,
                ProfilerOptions::intra_object().with_pool_tracking(),
            );
            ctx.sanitizer_mut().set_coalescing(merge);
            let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
            profiler.observe_pool(&mut pool);
            let a = pool.alloc(&mut ctx, POOL_ALIGN, "a").unwrap();
            let b = pool.alloc(&mut ctx, POOL_ALIGN, "b").unwrap();
            assert_eq!(b, a + POOL_ALIGN);
            // One 16-thread warp; each thread stores 64 contiguous bytes.
            ctx.launch(
                "fill",
                LaunchConfig::cover(16, 16).unwrap(),
                StreamId::DEFAULT,
                move |t| {
                    let base = a + t.global_x() * 64;
                    for k in 0..16 {
                        t.store_f32(base + k * 4, 1.0);
                    }
                },
            )
            .unwrap();
            pool.free(a).unwrap();
            pool.free(b).unwrap();
            pool.release(&mut ctx).unwrap();
            let report = profiler.report(&ctx);
            let counters = profiler.collector().lock().counters();
            (report, counters)
        };
        let (merged, counters) = run(true);
        let (unmerged, _) = run(false);
        assert_eq!(
            counters.records, 1,
            "the warp's stores merge into one record"
        );
        assert_eq!(counters.span_records, 1, "and that record is split");
        assert!(
            !merged.has_pattern(PatternKind::UnusedAllocation),
            "{}",
            merged.render_text()
        );
        assert_eq!(merged.render_text(), unmerged.render_text());
    }

    #[test]
    fn untracked_pools_are_ignored() {
        use gpu_sim::pool::CachingPool;
        let mut ctx = DeviceContext::new_default();
        let c = attach(&mut ctx, ProfilerOptions::object_level());
        let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
        pool.register_observer(c.clone());
        let t = pool.alloc(&mut ctx, 256, "tensor").unwrap();
        pool.free(t).unwrap();
        let col = c.lock();
        assert_eq!(col.registry().len(), 1, "only the slab is an object");
    }
}
