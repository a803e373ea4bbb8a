//! The device context: a CUDA-like runtime API over the simulated GPU.
//!
//! [`DeviceContext`] exposes the GPU APIs the DrGPUM paper reasons about —
//! memory allocation, deallocation, copy, and set, plus kernel launches
//! (Sec. 3, footnote 1) — together with streams, events, host call-path
//! tracking, and the Sanitizer-style instrumentation registry.

use crate::callstack::{CallPath, CallStack, SourceLoc};
use crate::config::{PlatformConfig, SimConfig};
use crate::error::{Result, SimError};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, InjectedFault, RetryPolicy};
use crate::kernel::{Dim3, KernelCounters, LaunchConfig, ThreadCtx};
use crate::mem::{DeviceAllocator, DevicePtr, PagedStore};
use crate::sanitizer::{AccessSink, KernelInfo, PatchMode, Sanitizer, SinkArena};
use crate::stream::{EventId, SimTime, StreamId, StreamSet};
use crate::unified::{Side, UnifiedManager};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The kind (and operands) of one GPU API invocation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ApiKind {
    /// `cudaMalloc`: a new device allocation.
    Malloc {
        /// Base pointer of the allocation.
        ptr: DevicePtr,
        /// Requested size in bytes.
        size: u64,
        /// Human-readable object label supplied by the program.
        label: String,
    },
    /// `cudaFree`.
    Free {
        /// Base pointer being freed.
        ptr: DevicePtr,
        /// Size of the freed allocation.
        size: u64,
        /// Label given at allocation time.
        label: String,
    },
    /// Host-to-device `cudaMemcpy`.
    MemcpyH2D {
        /// Destination device range start.
        dst: DevicePtr,
        /// Bytes copied.
        size: u64,
    },
    /// Device-to-host `cudaMemcpy`.
    MemcpyD2H {
        /// Source device range start.
        src: DevicePtr,
        /// Bytes copied.
        size: u64,
    },
    /// Device-to-device `cudaMemcpy`.
    MemcpyD2D {
        /// Destination device range start.
        dst: DevicePtr,
        /// Source device range start.
        src: DevicePtr,
        /// Bytes copied.
        size: u64,
    },
    /// `cudaMemset`.
    Memset {
        /// Destination device range start.
        dst: DevicePtr,
        /// Bytes set.
        size: u64,
        /// Fill value.
        value: u8,
    },
    /// A kernel launch.
    KernelLaunch {
        /// Kernel name, interned once per launch and shared with the
        /// [`KernelInfo`] handed to the instrumentation hooks.
        name: std::sync::Arc<str>,
        /// Grid extent.
        grid: Dim3,
        /// Block extent.
        block: Dim3,
    },
    /// `cudaStreamCreate`.
    StreamCreate {
        /// The created stream.
        stream: StreamId,
    },
    /// `cudaEventRecord`.
    EventRecord {
        /// The recorded event.
        event: EventId,
    },
    /// `cudaStreamWaitEvent`.
    EventWait {
        /// The awaited event.
        event: EventId,
    },
    /// `cudaStreamSynchronize`.
    StreamSync,
    /// `cudaDeviceSynchronize`.
    DeviceSync,
}

impl ApiKind {
    /// Returns `true` for the five kinds the paper counts as "GPU APIs" for
    /// pattern analysis: allocation, deallocation, copy, set, kernel launch.
    pub fn is_gpu_api(&self) -> bool {
        matches!(
            self,
            ApiKind::Malloc { .. }
                | ApiKind::Free { .. }
                | ApiKind::MemcpyH2D { .. }
                | ApiKind::MemcpyD2H { .. }
                | ApiKind::MemcpyD2D { .. }
                | ApiKind::Memset { .. }
                | ApiKind::KernelLaunch { .. }
        )
    }

    /// Short mnemonic used in traces and the GUI (`ALLOC`, `FREE`, `CPY`,
    /// `SET`, `KERL`, matching the paper's Figure 7 vocabulary).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            ApiKind::Malloc { .. } => "ALLOC",
            ApiKind::Free { .. } => "FREE",
            ApiKind::MemcpyH2D { .. } | ApiKind::MemcpyD2H { .. } | ApiKind::MemcpyD2D { .. } => {
                "CPY"
            }
            ApiKind::Memset { .. } => "SET",
            ApiKind::KernelLaunch { .. } => "KERL",
            ApiKind::StreamCreate { .. } => "STREAM",
            ApiKind::EventRecord { .. } => "EVREC",
            ApiKind::EventWait { .. } => "EVWAIT",
            ApiKind::StreamSync => "SSYNC",
            ApiKind::DeviceSync => "DSYNC",
        }
    }
}

/// One GPU API invocation, as observed by the instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiEvent {
    /// Global invocation sequence number (host order).
    pub seq: u64,
    /// Stream the API was dispatched on.
    pub stream: StreamId,
    /// Ordinal of this API within its stream — the `j` of the paper's
    /// `ALLOC(i, j)` naming.
    pub ordinal_in_stream: u64,
    /// The kind and operands.
    pub kind: ApiKind,
    /// Host call path at the invocation.
    pub call_path: CallPath,
    /// Simulated start time.
    pub start: SimTime,
    /// Simulated end time.
    pub end: SimTime,
}

impl ApiEvent {
    /// `MNEMONIC(stream, ordinal)` — the paper's Figure 7 naming.
    pub fn display_name(&self) -> String {
        format!(
            "{}({}, {})",
            self.kind.mnemonic(),
            self.stream.0,
            self.ordinal_in_stream
        )
    }
}

/// Aggregate context statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Number of GPU API invocations (pattern-relevant kinds only).
    pub gpu_api_calls: u64,
    /// Number of kernel launches.
    pub kernel_launches: u64,
    /// Total memory-access records observed by instrumentation.
    pub instrumented_accesses: u64,
    /// Raw accesses folded into a previous record by warp coalescing
    /// (Sec. 5.5). Zero unless [`Sanitizer::set_coalescing`] is on.
    ///
    /// [`Sanitizer::set_coalescing`]: crate::Sanitizer::set_coalescing
    pub coalesced_records: u64,
    /// Allocation searches ([`DeviceAllocator::find_containing`]) kernel
    /// accesses needed after missing both the last-hit window and the
    /// per-pc memo. A work counter for the cost of access validation: it is
    /// deterministic for a given kernel worker count (every multi-worker
    /// count gives the same value) and appears in no report or trace.
    pub alloc_lookups: u64,
}

/// A simulated GPU device context — the top-level entry point of `gpu-sim`.
///
/// # Examples
///
/// ```
/// use gpu_sim::{DeviceContext, LaunchConfig};
///
/// # fn main() -> Result<(), gpu_sim::SimError> {
/// let mut ctx = DeviceContext::new_default();
/// let buf = ctx.malloc(4 * 16, "numbers")?;
/// ctx.h2d_f32(buf, &[1.0; 16])?;
/// ctx.launch("double", LaunchConfig::cover(16, 16)?, gpu_sim::StreamId::DEFAULT,
///     |t| {
///         let i = t.global_x();
///         if i < 16 {
///             let p = buf + i * 4;
///             let v = t.load_f32(p);
///             t.store_f32(p, v * 2.0);
///         }
///     })?;
/// let mut out = [0.0f32; 16];
/// ctx.d2h_f32(&mut out, buf)?;
/// assert_eq!(out[7], 2.0);
/// ctx.free(buf)?;
/// # Ok(())
/// # }
/// ```
pub struct DeviceContext {
    config: PlatformConfig,
    mem: PagedStore,
    alloc: DeviceAllocator,
    streams: StreamSet,
    sanitizer: Sanitizer,
    call_stack: CallStack,
    unified: UnifiedManager,
    log: Vec<ApiEvent>,
    seq: u64,
    kernel_instances: HashMap<Arc<str>, u64>,
    labels: HashMap<DevicePtr, String>,
    stats: ContextStats,
    fault: Option<FaultInjector>,
    /// Recycled collection storage (record buffers, staging arenas, the
    /// per-pc allocation memo) lent to each launch's sinks.
    sink_arena: SinkArena,
    /// Worker threads for block execution (1 = the calling thread only).
    kernel_workers: usize,
    /// Wall-clock deadline applied to each kernel's block loop
    /// (see [`SimConfig::kernel_deadline_ms`]). `None` = unlimited.
    kernel_deadline: Option<Duration>,
}

/// Reads the `DRGPUM_KERNEL_WORKERS` override once per process. Lets CI
/// (and users) run an entire existing test suite or binary with parallel
/// kernel execution without touching any call site.
fn env_kernel_workers() -> Option<usize> {
    static WORKERS: OnceLock<Option<usize>> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("DRGPUM_KERNEL_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

/// Reads the `DRGPUM_KERNEL_DEADLINE_MS` override once per process: a
/// wall-clock watchdog deadline for each kernel's block loop, the
/// simulator-side arm of the profiler's resource governor.
fn env_kernel_deadline_ms() -> Option<u64> {
    static DEADLINE: OnceLock<Option<u64>> = OnceLock::new();
    *DEADLINE.get_or_init(|| {
        std::env::var("DRGPUM_KERNEL_DEADLINE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms >= 1)
    })
}

/// How long an injected [`FaultKind::StreamStall`] pushes a stream's tail
/// into the future.
const STREAM_STALL_NS: u64 = 1_000_000;

/// Concatenates the little-endian encodings of `values`.
fn to_le_bytes<T: Copy, const N: usize>(values: &[T], encode: fn(T) -> [u8; N]) -> Vec<u8> {
    values.iter().flat_map(|&v| encode(v)).collect()
}

/// Decodes `bytes` into `out`, `N` little-endian bytes per value.
fn from_le_bytes<T, const N: usize>(out: &mut [T], bytes: &[u8], decode: fn([u8; N]) -> T) {
    for (slot, chunk) in out.iter_mut().zip(bytes.chunks_exact(N)) {
        *slot = decode(chunk.try_into().expect("chunk size"));
    }
}

impl fmt::Debug for DeviceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceContext")
            .field("platform", &self.config.name)
            .field("api_calls", &self.seq)
            .field("in_use_bytes", &self.alloc.stats().in_use_bytes)
            .finish_non_exhaustive()
    }
}

impl DeviceContext {
    /// Creates a context for the given platform.
    ///
    /// Kernel execution is serial unless the `DRGPUM_KERNEL_WORKERS`
    /// environment variable overrides the worker count; use
    /// [`DeviceContext::with_config`] to pin it programmatically.
    pub fn new(config: PlatformConfig) -> Self {
        let mut sim = SimConfig::new(config);
        if let Some(workers) = env_kernel_workers() {
            sim.kernel_workers = workers;
        }
        if let Some(ms) = env_kernel_deadline_ms() {
            sim.kernel_deadline_ms = Some(ms);
        }
        DeviceContext::with_config(sim)
    }

    /// Creates a context from a full [`SimConfig`], taking the worker count
    /// verbatim (no environment override).
    pub fn with_config(sim: SimConfig) -> Self {
        let SimConfig {
            platform: config,
            kernel_workers,
            kernel_deadline_ms,
        } = sim;
        DeviceContext {
            mem: PagedStore::new(config.device_memory_bytes),
            alloc: DeviceAllocator::new(config.device_memory_bytes),
            config,
            streams: StreamSet::new(),
            sanitizer: Sanitizer::new(),
            call_stack: CallStack::new(),
            unified: UnifiedManager::new(),
            log: Vec::new(),
            seq: 0,
            kernel_instances: HashMap::new(),
            labels: HashMap::new(),
            stats: ContextStats::default(),
            fault: None,
            sink_arena: SinkArena::default(),
            kernel_workers: kernel_workers.max(1),
            kernel_deadline: kernel_deadline_ms.map(Duration::from_millis),
        }
    }

    /// Creates a context for the default platform ([`PlatformConfig::rtx3090`]).
    pub fn new_default() -> Self {
        DeviceContext::new(PlatformConfig::default())
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Number of worker threads used for kernel block execution
    /// (see [`SimConfig::kernel_workers`]).
    pub fn kernel_workers(&self) -> usize {
        self.kernel_workers
    }

    /// Sets the kernel worker count; `0` is treated as `1` (serial).
    pub fn set_kernel_workers(&mut self, workers: usize) {
        self.kernel_workers = workers.max(1);
    }

    /// The device allocator (live allocations, peak statistics).
    pub fn allocator(&self) -> &DeviceAllocator {
        &self.alloc
    }

    /// Read access to raw device memory (for host-side validation in tests).
    pub fn memory(&self) -> &PagedStore {
        &self.mem
    }

    /// The Sanitizer registry, for registering profiling tools.
    pub fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.sanitizer
    }

    /// Read access to the Sanitizer registry.
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// The host call stack (push/pop frames around GPU calls).
    pub fn call_stack(&self) -> &CallStack {
        &self.call_stack
    }

    /// Current simulated host time.
    pub fn now(&self) -> SimTime {
        self.streams.host_now()
    }

    /// The full API log, in host invocation order.
    pub fn api_log(&self) -> &[ApiEvent] {
        &self.log
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ContextStats {
        self.stats
    }

    /// The per-kernel wall-clock watchdog deadline, if configured.
    pub fn kernel_deadline_ms(&self) -> Option<u64> {
        self.kernel_deadline.map(|d| d.as_millis() as u64)
    }

    /// Sets (or clears) the per-kernel wall-clock watchdog deadline.
    pub fn set_kernel_deadline_ms(&mut self, ms: Option<u64>) {
        self.kernel_deadline = ms.filter(|&ms| ms >= 1).map(Duration::from_millis);
    }

    /// Pushes a host call-stack frame; pair with [`DeviceContext::pop_frame`].
    pub fn push_frame(&mut self, loc: SourceLoc) {
        let id = self.call_stack.push(loc.clone());
        self.sanitizer.dispatch_frame(id, &loc);
    }

    /// Pops the innermost host call-stack frame.
    ///
    /// # Panics
    ///
    /// Panics on pop without a matching push.
    pub fn pop_frame(&mut self) {
        self.call_stack.pop();
    }

    /// Runs `f` inside a host call-stack frame — the ergonomic way for
    /// simulated programs to build realistic call paths.
    pub fn with_frame<R>(&mut self, loc: SourceLoc, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_frame(loc);
        let r = f(self);
        self.pop_frame();
        r
    }

    fn emit(
        &mut self,
        stream: StreamId,
        ordinal: u64,
        kind: ApiKind,
        start: SimTime,
        end: SimTime,
    ) {
        if kind.is_gpu_api() {
            self.stats.gpu_api_calls += 1;
        }
        let event = ApiEvent {
            seq: self.seq,
            stream,
            ordinal_in_stream: ordinal,
            kind,
            call_path: self.call_stack.capture(),
            start,
            end,
        };
        self.seq += 1;
        self.sanitizer.dispatch_api(&event);
        self.log.push(event);
    }

    // --------------------------------------------------------- fault injection

    /// Installs a [`FaultPlan`]; subsequent operations consult it and may
    /// fail, stall, or misbehave as the plan dictates. Replaces any
    /// previously installed plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultInjector::new(plan));
    }

    /// Removes the installed fault plan, if any. The log of already-injected
    /// faults is discarded with it.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
    }

    /// Every fault injected so far, in firing order (empty when no plan is
    /// installed).
    pub fn fault_log(&self) -> &[InjectedFault] {
        self.fault.as_ref().map(FaultInjector::log).unwrap_or(&[])
    }

    /// Consults the installed injector (if any) for `kind` at the current
    /// API sequence number.
    fn fault_fires(&mut self, kind: FaultKind) -> bool {
        match self.fault.as_mut() {
            Some(inj) => inj.should_inject(kind, self.seq),
            None => false,
        }
    }

    /// Applies stream-level faults before an operation is enqueued on
    /// `stream`: rejects aborted streams, delivers pending stalls/aborts.
    fn apply_stream_faults(&mut self, stream: StreamId) -> Result<()> {
        if self.streams.is_aborted(stream) {
            return Err(SimError::StreamAborted(stream.0));
        }
        if self.fault_fires(FaultKind::StreamStall) {
            self.streams.stall_stream(stream, STREAM_STALL_NS)?;
        }
        if self.fault_fires(FaultKind::StreamAbort) {
            self.streams.abort_stream(stream)?;
            return Err(SimError::StreamAborted(stream.0));
        }
        Ok(())
    }

    // ----------------------------------------------------------------- memory

    /// Allocates `size` bytes of device memory (`cudaMalloc`).
    ///
    /// The `label` names the data object in reports (real DrGPUM recovers
    /// names from call paths; the simulator lets programs pass them
    /// directly while *also* recording the call path).
    ///
    /// On failure — real or injected — registered sanitizer tools are
    /// notified via
    /// [`SanitizerHooks::on_alloc_failure`](crate::SanitizerHooks::on_alloc_failure)
    /// before the error is returned, so profilers can degrade gracefully.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] or [`SimError::ZeroSizedAllocation`].
    pub fn malloc(&mut self, size: u64, label: impl Into<String>) -> Result<DevicePtr> {
        let label = label.into();
        if self.fault_fires(FaultKind::AllocFail) {
            let err = SimError::OutOfMemory {
                requested: size,
                largest_free: self.alloc.largest_free(),
                total_free: self.alloc.total_free(),
            };
            self.sanitizer.dispatch_alloc_failure(size, &label, &err);
            return Err(err);
        }
        let info = match self.alloc.malloc(size) {
            Ok(info) => info,
            Err(err) => {
                if matches!(err, SimError::OutOfMemory { .. }) {
                    self.sanitizer.dispatch_alloc_failure(size, &label, &err);
                }
                return Err(err);
            }
        };
        self.labels.insert(info.ptr, label.clone());
        let dur = self.config.malloc_overhead_ns;
        let (start, end, ordinal) = self.streams.enqueue_sync(StreamId::DEFAULT, dur)?;
        self.emit(
            StreamId::DEFAULT,
            ordinal,
            ApiKind::Malloc {
                ptr: info.ptr,
                size,
                label,
            },
            start,
            end,
        );
        Ok(info.ptr)
    }

    /// Allocates like [`DeviceContext::malloc`], but treats out-of-memory as
    /// transient: each retry charges exponential backoff to the simulated
    /// host clock and may shrink the request per `policy` — the
    /// shrink-and-retry loop real caching allocators run under memory
    /// pressure.
    ///
    /// Returns the pointer and the size actually granted (which is `size`
    /// unless the policy shrank the request).
    ///
    /// # Errors
    ///
    /// Returns the last [`SimError::OutOfMemory`] once retries are
    /// exhausted; any other error is returned immediately without retrying.
    pub fn malloc_with_retry(
        &mut self,
        size: u64,
        label: impl Into<String>,
        policy: RetryPolicy,
    ) -> Result<(DevicePtr, u64)> {
        let label = label.into();
        let mut request = size;
        let mut attempt = 0u32;
        loop {
            match self.malloc(request, label.clone()) {
                Ok(ptr) => return Ok((ptr, request)),
                Err(SimError::OutOfMemory { .. }) if attempt < policy.max_retries => {
                    attempt += 1;
                    self.streams.advance_host(policy.backoff_for(attempt));
                    request = policy.shrink(request);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Frees a device allocation (`cudaFree`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidFree`] if `ptr` is not a live allocation
    /// base.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<()> {
        let info = self.alloc.free(ptr)?;
        self.unified.unregister(ptr);
        self.mem.discard(info.ptr, info.size);
        let label = self.labels.remove(&ptr).unwrap_or_default();
        let dur = self.config.free_overhead_ns;
        // Decide before emitting, while `seq` is still this FREE's number.
        let spurious = self.fault_fires(FaultKind::SpuriousFree);
        let (start, end, ordinal) = self.streams.enqueue_sync(StreamId::DEFAULT, dur)?;
        self.emit(
            StreamId::DEFAULT,
            ordinal,
            ApiKind::Free {
                ptr,
                size: info.size,
                label: label.clone(),
            },
            start,
            end,
        );
        if spurious {
            // A misbehaving application frees the pointer a second time. The
            // allocation is already dead, so only the API event is replayed;
            // instrumentation must tolerate a FREE with no live object.
            let (start, end, ordinal) = self.streams.enqueue_sync(StreamId::DEFAULT, dur)?;
            self.emit(
                StreamId::DEFAULT,
                ordinal,
                ApiKind::Free {
                    ptr,
                    size: info.size,
                    label,
                },
                start,
                end,
            );
        }
        Ok(())
    }

    /// The label given to a live allocation, if any.
    pub fn label_of(&self, ptr: DevicePtr) -> Option<&str> {
        self.labels.get(&ptr).map(String::as_str)
    }

    /// The unified-memory residency tracker (for tests and tools).
    pub fn unified(&self) -> &UnifiedManager {
        &self.unified
    }

    /// Allocates `size` bytes of *managed* (unified) memory
    /// (`cudaMallocManaged`): addressable from both host and device, with
    /// per-page residency and migration-on-access (the paper's future-work
    /// substrate, Sec. 8). Pages start host-resident.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] or [`SimError::ZeroSizedAllocation`].
    pub fn malloc_managed(&mut self, size: u64, label: impl Into<String>) -> Result<DevicePtr> {
        let ptr = self.malloc(size, label)?;
        self.unified.register(ptr, size);
        Ok(ptr)
    }

    fn host_touch(&mut self, addr: DevicePtr, size: u64) -> Result<()> {
        self.check_device_range(addr, size)?;
        if !self.unified.is_managed(addr) {
            return Err(SimError::OutOfBounds { addr, size });
        }
        // Host accesses block until the pages fault back.
        let migrations = self.unified.ensure_resident(addr, size, Side::Host);
        for m in &migrations {
            self.sanitizer.dispatch_page_migration(m);
        }
        let cost = migrations.len() as u64 * self.config.page_migration_ns;
        self.streams
            .advance_host((cost as f64 * self.config.cpu_factor) as u64);
        Ok(())
    }

    /// Host-side write of an `f32` slice into managed memory (a plain CPU
    /// store to unified memory — *not* a GPU API; triggers page migration
    /// for device-resident pages).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range is not inside a live
    /// managed allocation.
    pub fn managed_write_f32s(&mut self, dst: DevicePtr, values: &[f32]) -> Result<()> {
        self.host_touch(dst, values.len() as u64 * 4)?;
        self.mem
            .write_bytes(dst, &to_le_bytes(values, f32::to_le_bytes));
        Ok(())
    }

    /// Host-side read of an `f32` slice from managed memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range is not inside a live
    /// managed allocation.
    pub fn managed_read_f32s(&mut self, out: &mut [f32], src: DevicePtr) -> Result<()> {
        self.host_touch(src, out.len() as u64 * 4)?;
        let mut bytes = vec![0u8; out.len() * 4];
        self.mem.read_bytes(src, &mut bytes);
        from_le_bytes(out, &bytes, f32::from_le_bytes);
        Ok(())
    }

    /// Host-side scalar write to managed memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for invalid addresses.
    pub fn managed_write_f32(&mut self, dst: DevicePtr, value: f32) -> Result<()> {
        self.host_touch(dst, 4)?;
        self.mem.write_f32(dst, value);
        Ok(())
    }

    /// Host-side scalar read from managed memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for invalid addresses.
    pub fn managed_read_f32(&mut self, src: DevicePtr) -> Result<f32> {
        self.host_touch(src, 4)?;
        Ok(self.mem.read_f32(src))
    }

    fn check_device_range(&self, ptr: DevicePtr, size: u64) -> Result<()> {
        if size == 0 || self.alloc.is_valid_access(ptr, size) {
            Ok(())
        } else {
            Err(SimError::OutOfBounds { addr: ptr, size })
        }
    }

    /// Synchronous host→device copy (`cudaMemcpy` H2D).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the destination range is not
    /// fully inside one live allocation.
    pub fn memcpy_h2d(&mut self, dst: DevicePtr, data: &[u8]) -> Result<()> {
        self.memcpy_h2d_on(dst, data, StreamId::DEFAULT)
    }

    /// Host→device copy on a specific stream (`cudaMemcpyAsync` H2D).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for an invalid destination range or
    /// [`SimError::UnknownStream`].
    pub fn memcpy_h2d_on(&mut self, dst: DevicePtr, data: &[u8], stream: StreamId) -> Result<()> {
        self.apply_stream_faults(stream)?;
        let size = data.len() as u64;
        self.check_device_range(dst, size)?;
        self.mem.write_bytes(dst, data);
        let dur = self.config.transfer_ns(size);
        let (start, end, ordinal) = if stream == StreamId::DEFAULT {
            self.streams.enqueue_sync(stream, dur)?
        } else {
            self.streams.enqueue(stream, dur)?
        };
        self.emit(
            stream,
            ordinal,
            ApiKind::MemcpyH2D { dst, size },
            start,
            end,
        );
        Ok(())
    }

    /// Synchronous device→host copy (`cudaMemcpy` D2H).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the source range is invalid.
    pub fn memcpy_d2h(&mut self, out: &mut [u8], src: DevicePtr) -> Result<()> {
        self.memcpy_d2h_on(out, src, StreamId::DEFAULT)
    }

    /// Device→host copy on a specific stream (`cudaMemcpyAsync` D2H).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for an invalid source range or
    /// [`SimError::UnknownStream`].
    pub fn memcpy_d2h_on(
        &mut self,
        out: &mut [u8],
        src: DevicePtr,
        stream: StreamId,
    ) -> Result<()> {
        self.apply_stream_faults(stream)?;
        let size = out.len() as u64;
        self.check_device_range(src, size)?;
        self.mem.read_bytes(src, out);
        let dur = self.config.transfer_ns(size);
        let (start, end, ordinal) = if stream == StreamId::DEFAULT {
            self.streams.enqueue_sync(stream, dur)?
        } else {
            self.streams.enqueue(stream, dur)?
        };
        self.emit(
            stream,
            ordinal,
            ApiKind::MemcpyD2H { src, size },
            start,
            end,
        );
        Ok(())
    }

    /// Device→device copy (`cudaMemcpy` D2D) on the default stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if either range is invalid.
    pub fn memcpy_d2d(&mut self, dst: DevicePtr, src: DevicePtr, size: u64) -> Result<()> {
        self.memcpy_d2d_on(dst, src, size, StreamId::DEFAULT)
    }

    /// Device→device copy on a specific stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for invalid ranges or
    /// [`SimError::UnknownStream`].
    pub fn memcpy_d2d_on(
        &mut self,
        dst: DevicePtr,
        src: DevicePtr,
        size: u64,
        stream: StreamId,
    ) -> Result<()> {
        self.apply_stream_faults(stream)?;
        self.check_device_range(src, size)?;
        self.check_device_range(dst, size)?;
        self.mem.copy_within(dst, src, size);
        let dur = self.config.device_stream_ns(size);
        let (start, end, ordinal) = self.streams.enqueue(stream, dur)?;
        self.emit(
            stream,
            ordinal,
            ApiKind::MemcpyD2D { dst, src, size },
            start,
            end,
        );
        Ok(())
    }

    /// Fills device memory (`cudaMemset`) on the default stream.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range is invalid.
    pub fn memset(&mut self, dst: DevicePtr, value: u8, size: u64) -> Result<()> {
        self.memset_on(dst, value, size, StreamId::DEFAULT)
    }

    /// Fills device memory on a specific stream (`cudaMemsetAsync`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for an invalid range or
    /// [`SimError::UnknownStream`].
    pub fn memset_on(
        &mut self,
        dst: DevicePtr,
        value: u8,
        size: u64,
        stream: StreamId,
    ) -> Result<()> {
        self.apply_stream_faults(stream)?;
        self.check_device_range(dst, size)?;
        self.mem.fill(dst, size, value);
        let dur = self.config.device_stream_ns(size);
        let (start, end, ordinal) = self.streams.enqueue(stream, dur)?;
        self.emit(
            stream,
            ordinal,
            ApiKind::Memset { dst, size, value },
            start,
            end,
        );
        Ok(())
    }

    // ------------------------------------------------------------ typed copies

    /// Host→device copy of an `f32` slice.
    ///
    /// # Errors
    ///
    /// See [`DeviceContext::memcpy_h2d`].
    pub fn h2d_f32(&mut self, dst: DevicePtr, src: &[f32]) -> Result<()> {
        self.memcpy_h2d(dst, &to_le_bytes(src, f32::to_le_bytes))
    }

    /// Device→host copy into an `f32` slice.
    ///
    /// # Errors
    ///
    /// See [`DeviceContext::memcpy_d2h`].
    pub fn d2h_f32(&mut self, out: &mut [f32], src: DevicePtr) -> Result<()> {
        let mut bytes = vec![0u8; out.len() * 4];
        self.memcpy_d2h(&mut bytes, src)?;
        from_le_bytes(out, &bytes, f32::from_le_bytes);
        Ok(())
    }

    /// Host→device copy of a `u32` slice.
    ///
    /// # Errors
    ///
    /// See [`DeviceContext::memcpy_h2d`].
    pub fn h2d_u32(&mut self, dst: DevicePtr, src: &[u32]) -> Result<()> {
        self.memcpy_h2d(dst, &to_le_bytes(src, u32::to_le_bytes))
    }

    /// Device→host copy into a `u32` slice.
    ///
    /// # Errors
    ///
    /// See [`DeviceContext::memcpy_d2h`].
    pub fn d2h_u32(&mut self, out: &mut [u32], src: DevicePtr) -> Result<()> {
        let mut bytes = vec![0u8; out.len() * 4];
        self.memcpy_d2h(&mut bytes, src)?;
        from_le_bytes(out, &bytes, u32::from_le_bytes);
        Ok(())
    }

    // ---------------------------------------------------------------- streams

    /// Creates a new stream (`cudaStreamCreate`).
    pub fn create_stream(&mut self) -> StreamId {
        let id = self.streams.create_stream();
        let now = self.streams.host_now();
        self.emit(id, 0, ApiKind::StreamCreate { stream: id }, now, now);
        id
    }

    /// Creates an event (`cudaEventCreate`).
    pub fn create_event(&mut self) -> EventId {
        self.streams.create_event()
    }

    /// Records `event` on `stream` (`cudaEventRecord`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStream`] or [`SimError::UnknownEvent`].
    pub fn record_event(&mut self, event: EventId, stream: StreamId) -> Result<()> {
        let t = self.streams.record_event(event, stream)?;
        let (start, end, ordinal) = (t, t, u64::MAX);
        self.emit(stream, ordinal, ApiKind::EventRecord { event }, start, end);
        Ok(())
    }

    /// Makes `stream` wait for `event` (`cudaStreamWaitEvent`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStream`] or [`SimError::UnknownEvent`].
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) -> Result<()> {
        self.streams.wait_event(stream, event)?;
        let now = self.streams.host_now();
        self.emit(stream, u64::MAX, ApiKind::EventWait { event }, now, now);
        Ok(())
    }

    /// Blocks the host until `stream` drains (`cudaStreamSynchronize`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownStream`].
    pub fn sync_stream(&mut self, stream: StreamId) -> Result<()> {
        let t = self.streams.sync_stream(stream)?;
        self.emit(stream, u64::MAX, ApiKind::StreamSync, t, t);
        Ok(())
    }

    /// Blocks the host until the device drains (`cudaDeviceSynchronize`).
    pub fn sync_device(&mut self) -> SimTime {
        let t = self.streams.sync_device();
        self.emit(StreamId::DEFAULT, u64::MAX, ApiKind::DeviceSync, t, t);
        t
    }

    // ----------------------------------------------------------------- kernels

    /// Launches a kernel: `body` runs once per logical thread.
    ///
    /// Returns the aggregate work counters of the execution.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyLaunch`] for an empty grid/block,
    /// [`SimError::UnknownStream`] for a bad stream id, and
    /// [`SimError::StreamAborted`] for a stream killed by fault injection.
    ///
    /// # Device faults
    ///
    /// If the kernel accesses memory outside any live allocation (or the
    /// fault injector forces an out-of-bounds access or mid-execution kill),
    /// the launch still emits its API event and delivers whatever partial
    /// results completed — then returns [`SimError::KernelFaulted`]. The
    /// faulting access itself is skipped, not performed.
    pub fn launch<F>(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        stream: StreamId,
        body: F,
    ) -> Result<KernelCounters>
    where
        F: Fn(&mut ThreadCtx<'_>) + Sync,
    {
        if cfg.total_threads() == 0 {
            return Err(SimError::EmptyLaunch {
                kernel: name.to_owned(),
            });
        }
        // Validate the stream id before doing any work.
        if (stream.0 as usize) >= self.streams.stream_count() {
            return Err(SimError::UnknownStream(stream.0));
        }
        self.apply_stream_faults(stream)?;
        let injected_oob = self.fault_fires(FaultKind::KernelOob);
        let injected_kill = self.fault_fires(FaultKind::KernelKill);
        // One interned name serves the instance counter, the KernelInfo
        // handed to every hook, the API event, and the error paths.
        let name: Arc<str> = Arc::from(name);
        let instance = {
            let counter = self.kernel_instances.entry(name.clone()).or_insert(0);
            let i = *counter;
            *counter += 1;
            i
        };
        let info = KernelInfo {
            name: name.clone(),
            api_seq: self.seq,
            stream,
            grid: cfg.grid,
            block: cfg.block,
            instance,
        };
        let mode = self.sanitizer.dispatch_kernel_begin(&info);

        // A mid-execution kill runs only a prefix of the grid's threads;
        // everything they wrote is still delivered (partial results).
        let total_threads = cfg.total_threads();
        let thread_budget = if injected_kill {
            total_threads.div_ceil(2)
        } else {
            total_threads
        };

        let (mut sink, counters, executed, deadline_hit) =
            self.run_blocks(&cfg, &info, mode, thread_budget, &body);
        if injected_oob && sink.fault.is_none() {
            // Synthesize the access fault the plan asked for: one word just
            // past the end of device memory.
            sink.fault = Some(SimError::OutOfBounds {
                addr: DevicePtr::new(
                    crate::mem::DEVICE_ADDR_BASE + self.config.device_memory_bytes,
                ),
                size: 4,
            });
        }
        let device_fault = sink.fault.take();
        sink.flush(&self.sanitizer, &info);
        let records = sink.records_seen;
        self.stats.instrumented_accesses += records;
        self.stats.coalesced_records += sink.coalesced_away;
        self.stats.alloc_lookups += sink.alloc_lookups;
        self.stats.kernel_launches += 1;

        let duration = self.kernel_duration_ns(&cfg, &counters, mode, records);
        let (start, end, ordinal) = self.streams.enqueue(stream, duration)?;
        self.emit(
            stream,
            ordinal,
            ApiKind::KernelLaunch {
                name: name.clone(),
                grid: cfg.grid,
                block: cfg.block,
            },
            start,
            end,
        );
        let touched = sink.take_touched();
        self.sink_arena.reclaim(sink);
        self.sanitizer
            .dispatch_kernel_end(&info, &touched, &counters);
        // Faults are reported only after the API event and all hook
        // dispatches, so profilers observe the partial execution.
        if deadline_hit {
            return Err(SimError::KernelFaulted {
                kernel: name.as_ref().to_owned(),
                reason: format!(
                    "exceeded the {}ms kernel watchdog deadline after \
                     {executed} of {total_threads} threads",
                    self.kernel_deadline.map(|d| d.as_millis()).unwrap_or(0)
                ),
            });
        }
        if injected_kill {
            return Err(SimError::KernelFaulted {
                kernel: name.as_ref().to_owned(),
                reason: format!(
                    "killed mid-execution by fault injection after \
                     {executed} of {total_threads} threads"
                ),
            });
        }
        if let Some(fault) = device_fault {
            return Err(SimError::KernelFaulted {
                kernel: name.as_ref().to_owned(),
                reason: fault.to_string(),
            });
        }
        Ok(counters)
    }

    /// Executes the grid's blocks and returns the launch's serial-shaped
    /// sink, the aggregate counters, the number of threads actually
    /// executed (short of the grid only under an injected mid-kill's
    /// `thread_budget`), and whether the watchdog deadline cut the grid
    /// short.
    ///
    /// There is one block loop, [`BlockQueue::drain`]; what varies is who
    /// runs it. On the serial schedule the calling thread drains every
    /// block in flat order into the serial sink, with the sanitizer and
    /// (when managed regions exist) the unified-memory manager at hand.
    /// That schedule is forced by an active fault plan (mid-kill thread
    /// prefixes and per-call triggers depend on it), unified-memory regions
    /// (migration hooks dispatch from inside threads in a defined order),
    /// `serial_only` launches (cross-block read-modify-write) and one-block
    /// grids. Otherwise
    /// `kernel_workers` scoped threads drain the queue into private
    /// staging sinks, and [`AccessSink::merge_staged`] replays their
    /// records in flat block order through the serial coalesce/flush
    /// path, so every tool-visible byte (record buffers, flush boundaries,
    /// touched-sets, counters, and therefore simulated timestamps) is
    /// identical either way.
    fn run_blocks<F>(
        &mut self,
        cfg: &LaunchConfig,
        info: &KernelInfo,
        mode: PatchMode,
        thread_budget: u64,
        body: &F,
    ) -> (AccessSink, KernelCounters, u64, bool)
    where
        F: Fn(&mut ThreadCtx<'_>) + Sync,
    {
        let serial_schedule =
            cfg.serial_only || self.fault.is_some() || self.unified.region_count() > 0;
        let workers = if serial_schedule {
            1
        } else {
            let blocks = usize::try_from(cfg.grid.count()).unwrap_or(usize::MAX);
            self.kernel_workers.min(blocks)
        };
        let mut sink = self.serial_sink(mode);
        let queue = BlockQueue {
            cfg,
            info,
            mem: &self.mem,
            alloc: &self.alloc,
            body,
            thread_budget,
            deadline: self.kernel_deadline.map(|d| Instant::now() + d),
            next_block: AtomicU64::new(0),
            expired: AtomicBool::new(false),
        };
        if workers == 1 {
            // Without managed regions no access can migrate a page, so the
            // threads skip the residency lookup altogether.
            let unified = (self.unified.region_count() > 0).then_some(&mut self.unified);
            let (counters, executed) = queue.drain(&mut sink, Some(&self.sanitizer), unified);
            return (sink, counters, executed, queue.expired.into_inner());
        }
        // Only fault-free launches get here, so the budget is the grid.
        debug_assert_eq!(thread_budget, cfg.total_threads());
        let staging: Vec<AccessSink> = (0..workers)
            .map(|_| self.sink_arena.staging_sink(mode))
            .collect();
        let results: Vec<std::thread::Result<(AccessSink, KernelCounters, u64)>> =
            std::thread::scope(|s| {
                let queue = &queue;
                let handles: Vec<_> = staging
                    .into_iter()
                    .map(|mut worker| {
                        s.spawn(move || {
                            let (counters, executed) = queue.drain(&mut worker, None, None);
                            (worker, counters, executed)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
        let mut worker_sinks = Vec::with_capacity(results.len());
        let mut counters = KernelCounters::default();
        let mut executed: u64 = 0;
        for result in results {
            match result {
                Ok((worker, c, e)) => {
                    counters.merge(&c);
                    executed += e;
                    worker_sinks.push(worker);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        sink.merge_staged(&self.sanitizer, info, &worker_sinks);
        for worker in worker_sinks {
            self.sink_arena.reclaim(worker);
        }
        (sink, counters, executed, queue.expired.into_inner())
    }

    /// Builds the serial-shaped [`AccessSink`] for one kernel, applying any
    /// [`crate::CollectionHint`] backpressure the registered tools request.
    /// With the default hint this is exactly the sanitizer-wide
    /// configuration, so undegraded runs are byte-identical.
    fn serial_sink(&mut self, mode: PatchMode) -> AccessSink {
        let hint = self.sanitizer.dispatch_collection_hint();
        let capacity = hint
            .buffer_capacity
            .map_or(self.sanitizer.buffer_capacity(), |cap| {
                cap.clamp(1, self.sanitizer.buffer_capacity())
            });
        self.sink_arena.serial_sink(
            mode,
            capacity,
            self.sanitizer.coalescing(),
            self.sanitizer.coalesce_alignment(),
            self.alloc.epoch(),
        )
    }

    /// Simulated kernel duration from the work counters plus the
    /// instrumentation surcharge for the chosen [`PatchMode`].
    fn kernel_duration_ns(
        &self,
        cfg: &LaunchConfig,
        counters: &KernelCounters,
        mode: PatchMode,
        records: u64,
    ) -> u64 {
        let c = &self.config;
        let parallel = c
            .effective_parallelism()
            .min(cfg.total_threads() as f64)
            .max(1.0);
        let latency_work = counters.global_accesses() as f64 * c.global_latency_ns
            + counters.shared_accesses as f64 * c.shared_latency_ns
            + counters.flops as f64 * c.flop_ns;
        let migration_ns = counters.page_migrations * c.page_migration_ns;
        let bandwidth_ns = counters.global_bytes as f64 / c.global_bandwidth_bpns;
        let compute_ns = (latency_work / parallel).max(bandwidth_ns);
        let o = self.sanitizer.overhead_model();
        let instr_ns = match mode {
            PatchMode::None => 0.0,
            PatchMode::HitFlags => {
                records as f64 * o.hitflag_access_ns
                    + self.alloc.stats().live_allocations as f64 * o.map_copy_ns_per_entry
            }
            PatchMode::Full => {
                records as f64 * o.full_access_ns
                    + self.alloc.stats().live_allocations as f64 * o.map_copy_ns_per_entry
                    + (records * o.record_bytes) as f64 / c.interconnect_bandwidth_bpns
            }
        };
        c.launch_overhead_ns + compute_ns as u64 + instr_ns as u64 + migration_ns
    }
}

/// One launch's blocks, claimed by flat index from an atomic counter, with
/// everything a thread needs that every executor shares read-only.
struct BlockQueue<'a, F> {
    cfg: &'a LaunchConfig,
    info: &'a KernelInfo,
    mem: &'a PagedStore,
    alloc: &'a DeviceAllocator,
    body: &'a F,
    /// Threads the launch may run in total (the grid, or an injected
    /// mid-kill's prefix, which only the serial schedule sees).
    thread_budget: u64,
    deadline: Option<Instant>,
    next_block: AtomicU64,
    /// Set once any executor sees the watchdog deadline pass.
    expired: AtomicBool,
}

impl<F> BlockQueue<'_, F>
where
    F: Fn(&mut ThreadCtx<'_>) + Sync,
{
    /// Claims and runs blocks until the grid, the thread budget or the
    /// deadline runs out. Threads of a block run x-fastest with the
    /// block's shared memory zeroed; a staging sink brackets each block in
    /// a span for the deterministic merge. Returns this executor's counters
    /// and executed-thread count.
    fn drain(
        &self,
        sink: &mut AccessSink,
        sanitizer: Option<&Sanitizer>,
        mut unified: Option<&mut UnifiedManager>,
    ) -> (KernelCounters, u64) {
        let (grid, block) = (self.cfg.grid, self.cfg.block);
        let mut counters = KernelCounters::default();
        let mut shared = vec![0u8; self.cfg.shared_mem_bytes as usize];
        let mut executed: u64 = 0;
        let staging = sink.is_staging();
        'grid: loop {
            // Cooperative watchdog, checked before claiming each block: a
            // runaway grid stops at the next block boundary with partial
            // results intact, and once one executor sees the deadline
            // pass, every executor stops at its next claim.
            if self.expired.load(Ordering::Relaxed)
                || self.deadline.is_some_and(|dl| Instant::now() >= dl)
            {
                self.expired.store(true, Ordering::Relaxed);
                break;
            }
            let flat_block = self.next_block.fetch_add(1, Ordering::Relaxed);
            if flat_block >= grid.count() {
                break;
            }
            let (gx, gy) = (u64::from(grid.x), u64::from(grid.y));
            let block_idx = Dim3::xyz(
                (flat_block % gx) as u32,
                ((flat_block / gx) % gy) as u32,
                (flat_block / (gx * gy)) as u32,
            );
            // The buffer is allocated zeroed; later blocks must not see
            // the previous block's scratch.
            if executed > 0 && !shared.is_empty() {
                shared.fill(0);
            }
            if staging {
                sink.begin_block(flat_block);
            }
            for tz in 0..block.z {
                for ty in 0..block.y {
                    for tx in 0..block.x {
                        if executed >= self.thread_budget {
                            break 'grid;
                        }
                        executed += 1;
                        let thread_idx = Dim3::xyz(tx, ty, tz);
                        let mut tctx = ThreadCtx {
                            mem: self.mem,
                            alloc: self.alloc,
                            sink: &mut *sink,
                            sanitizer,
                            info: self.info,
                            unified: unified.as_deref_mut(),
                            shared: &mut shared,
                            counters: &mut counters,
                            block_idx,
                            thread_idx,
                            grid_dim: grid,
                            block_dim: block,
                            flat_thread: flat_block * block.count() + block.flatten(thread_idx),
                            pc_counter: 0,
                        };
                        (self.body)(&mut tctx);
                    }
                }
            }
            if staging {
                sink.end_block();
            }
        }
        (counters, executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitizer::{MemAccessRecord, SanitizerHooks, TouchedObject};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn malloc_free_emit_events_with_labels() {
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(1024, "weights").unwrap();
        assert_eq!(ctx.label_of(p), Some("weights"));
        ctx.free(p).unwrap();
        let kinds: Vec<&'static str> = ctx.api_log().iter().map(|e| e.kind.mnemonic()).collect();
        assert_eq!(kinds, ["ALLOC", "FREE"]);
        match &ctx.api_log()[1].kind {
            ApiKind::Free { size, label, .. } => {
                assert_eq!(*size, 1024);
                assert_eq!(label, "weights");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn memcpy_round_trip_preserves_data() {
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(64, "buf").unwrap();
        ctx.memcpy_h2d(p, &[5u8; 64]).unwrap();
        let mut out = [0u8; 64];
        ctx.memcpy_d2h(&mut out, p).unwrap();
        assert_eq!(out, [5u8; 64]);
    }

    #[test]
    fn copying_untouched_memory_materializes_nothing() {
        let mut ctx = DeviceContext::new_default();
        let gib = 1 << 30;
        let src = ctx.malloc(gib, "src").unwrap();
        let dst = ctx.malloc(gib, "dst").unwrap();
        ctx.memcpy_d2d(dst, src, gib).unwrap();
        assert_eq!(ctx.memory().resident_pages(), 0);
        // A resident destination page still receives the source's zeros.
        ctx.memset(dst + gib / 2, 0xAB, 16).unwrap();
        ctx.memcpy_d2d(dst, src, gib).unwrap();
        assert_eq!(ctx.memory().resident_pages(), 1);
        assert_eq!(ctx.memory().read_u64(dst + gib / 2), 0);
    }

    #[test]
    fn oob_memcpy_is_rejected() {
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(16, "buf").unwrap();
        let err = ctx.memcpy_h2d(p, &[0u8; 32]).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn kernel_computes_real_results() {
        let mut ctx = DeviceContext::new_default();
        let n = 100u64;
        let p = ctx.malloc(n * 4, "v").unwrap();
        let host: Vec<f32> = (0..n).map(|i| i as f32).collect();
        ctx.h2d_f32(p, &host).unwrap();
        ctx.launch(
            "scale",
            LaunchConfig::cover(n, 32).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < n {
                    let a = p + i * 4;
                    let v = t.load_f32(a);
                    t.flop(1);
                    t.store_f32(a, v * 3.0);
                }
            },
        )
        .unwrap();
        let mut out = vec![0.0f32; n as usize];
        ctx.d2h_f32(&mut out, p).unwrap();
        assert_eq!(out[10], 30.0);
        assert_eq!(out[99], 297.0);
    }

    #[test]
    fn empty_launch_is_an_error() {
        let mut ctx = DeviceContext::new_default();
        let cfg = LaunchConfig::new(Dim3::x(0), Dim3::x(32));
        assert!(matches!(
            ctx.launch("nop", cfg, StreamId::DEFAULT, |_| {})
                .unwrap_err(),
            SimError::EmptyLaunch { .. }
        ));
    }

    #[test]
    fn kernel_oob_access_faults() {
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(4, "tiny").unwrap();
        let err = ctx
            .launch(
                "bad",
                LaunchConfig::cover(1, 1).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    t.store_f32(p + 4, 1.0);
                },
            )
            .unwrap_err();
        match err {
            SimError::KernelFaulted { kernel, reason } => {
                assert_eq!(kernel, "bad");
                assert!(reason.contains("out-of-bounds"), "reason: {reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The launch still produced its API event despite the fault.
        assert_eq!(ctx.api_log().last().unwrap().kind.mnemonic(), "KERL");
    }

    #[test]
    fn injected_alloc_failure_is_transient_and_retryable() {
        use crate::fault::{FaultKind, FaultPlan, RetryPolicy};
        let mut ctx = DeviceContext::new_default();
        // seq 0 is the first malloc.
        ctx.set_fault_plan(FaultPlan::new(1).at_api(0, FaultKind::AllocFail));
        let err = ctx.malloc(64, "a").unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        // The failed call consumed no sequence number; a plain retry works.
        let p = ctx.malloc(64, "a").unwrap();
        ctx.free(p).unwrap();
        assert_eq!(ctx.fault_log().len(), 1);

        // And malloc_with_retry hides the transient failure entirely.
        let mut ctx = DeviceContext::new_default();
        ctx.set_fault_plan(FaultPlan::new(1).at_api(0, FaultKind::AllocFail));
        let before = ctx.now().as_ns();
        let (p, granted) = ctx
            .malloc_with_retry(1024, "b", RetryPolicy::default())
            .unwrap();
        assert_eq!(granted, 512, "one shrink step before success");
        assert!(ctx.now().as_ns() > before, "backoff charged host time");
        ctx.free(p).unwrap();
    }

    #[test]
    fn injected_spurious_free_duplicates_the_event() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(32, "x").unwrap();
        // The FREE is API seq 1.
        ctx.set_fault_plan(FaultPlan::new(0).at_api(1, FaultKind::SpuriousFree));
        ctx.free(p).unwrap();
        let frees: Vec<_> = ctx
            .api_log()
            .iter()
            .filter(|e| matches!(e.kind, ApiKind::Free { .. }))
            .collect();
        assert_eq!(frees.len(), 2, "one real free + one spurious event");
        assert_eq!(ctx.allocator().stats().live_allocations, 0);
    }

    #[test]
    fn injected_kernel_kill_delivers_partial_results() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut ctx = DeviceContext::new_default();
        let n = 64u64;
        let p = ctx.malloc(n * 4, "v").unwrap();
        ctx.memset(p, 0, n * 4).unwrap();
        // seqs: 0 = malloc, 1 = memset, 2 = launch.
        ctx.set_fault_plan(FaultPlan::new(0).at_api(2, FaultKind::KernelKill));
        let err = ctx
            .launch(
                "half",
                LaunchConfig::cover(n, 32).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    let i = t.global_x();
                    if i < n {
                        t.store_f32(p + i * 4, 1.0);
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, SimError::KernelFaulted { .. }));
        let mut out = vec![0.0f32; n as usize];
        ctx.d2h_f32(&mut out, p).unwrap();
        let written = out.iter().filter(|&&v| v == 1.0).count();
        assert!(written > 0 && written < n as usize, "partial: {written}");
    }

    #[test]
    fn injected_stream_abort_rejects_current_and_later_work() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(64, "p").unwrap();
        let s = ctx.create_stream();
        // seqs: 0 = malloc, 1 = stream create, 2 = first memset.
        ctx.set_fault_plan(FaultPlan::new(0).at_api(2, FaultKind::StreamAbort));
        let err = ctx.memset_on(p, 0, 64, s).unwrap_err();
        assert!(matches!(err, SimError::StreamAborted(_)));
        let err = ctx.memset_on(p, 0, 64, s).unwrap_err();
        assert!(matches!(err, SimError::StreamAborted(_)), "abort is sticky");
        // The default stream is unaffected.
        ctx.memset(p, 0, 64).unwrap();
    }

    #[test]
    fn injected_stream_stall_delays_the_stream() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(64, "p").unwrap();
        let s = ctx.create_stream();
        ctx.set_fault_plan(FaultPlan::new(0).at_api(2, FaultKind::StreamStall));
        ctx.memset_on(p, 0, 64, s).unwrap();
        let stalled = ctx.api_log().last().unwrap().start.as_ns();
        assert!(stalled >= STREAM_STALL_NS, "start at {stalled}");
    }

    /// A hook that records everything it sees, for asserting on the
    /// Sanitizer contract.
    #[derive(Default)]
    struct Recorder {
        apis: Vec<String>,
        records: Vec<MemAccessRecord>,
        touched: Vec<TouchedObject>,
        mode: Option<PatchMode>,
    }

    impl SanitizerHooks for Recorder {
        fn on_api(&mut self, event: &ApiEvent) {
            self.apis.push(event.display_name());
        }
        fn on_kernel_begin(&mut self, _info: &KernelInfo) -> PatchMode {
            self.mode.unwrap_or(PatchMode::Full)
        }
        fn on_mem_access_buffer(&mut self, _info: &KernelInfo, records: &[MemAccessRecord]) {
            self.records.extend_from_slice(records);
        }
        fn on_kernel_end(
            &mut self,
            _info: &KernelInfo,
            touched: &[TouchedObject],
            _counters: &KernelCounters,
        ) {
            self.touched.extend_from_slice(touched);
        }
    }

    #[test]
    fn sanitizer_sees_api_events_and_access_records() {
        let recorder = Arc::new(Mutex::new(Recorder::default()));
        let mut ctx = DeviceContext::new_default();
        ctx.sanitizer_mut().register(recorder.clone());

        let a = ctx.malloc(64, "a").unwrap();
        let b = ctx.malloc(64, "b").unwrap();
        ctx.memset(a, 0, 64).unwrap();
        ctx.launch(
            "reader",
            LaunchConfig::cover(4, 4).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < 4 {
                    let v = t.load_f32(a + i * 4);
                    t.store_f32(b + i * 4, v + 1.0);
                }
            },
        )
        .unwrap();
        ctx.free(a).unwrap();

        let r = recorder.lock();
        assert_eq!(
            r.apis,
            vec![
                "ALLOC(0, 0)",
                "ALLOC(0, 1)",
                "SET(0, 2)",
                "KERL(0, 3)",
                "FREE(0, 4)"
            ]
        );
        assert_eq!(r.records.len(), 8, "4 loads + 4 stores");
        assert_eq!(r.touched.len(), 2);
        let ta = r.touched.iter().find(|t| t.base == a).unwrap();
        assert!(ta.read && !ta.written);
        let tb = r.touched.iter().find(|t| t.base == b).unwrap();
        assert!(!tb.read && tb.written);
    }

    #[test]
    fn hitflags_mode_summarizes_without_records() {
        let recorder = Arc::new(Mutex::new(Recorder {
            mode: Some(PatchMode::HitFlags),
            ..Recorder::default()
        }));
        let mut ctx = DeviceContext::new_default();
        ctx.sanitizer_mut().register(recorder.clone());
        let a = ctx.malloc(16, "a").unwrap();
        ctx.launch(
            "w",
            LaunchConfig::cover(4, 4).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < 4 {
                    t.store_f32(a + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        let r = recorder.lock();
        assert!(r.records.is_empty(), "no record streaming in hit-flag mode");
        assert_eq!(r.touched.len(), 1);
        assert!(r.touched[0].written);
    }

    #[test]
    fn instrumentation_increases_simulated_kernel_time() {
        let run = |mode: Option<PatchMode>| {
            let mut ctx = DeviceContext::new_default();
            if let Some(m) = mode {
                let rec = Arc::new(Mutex::new(Recorder {
                    mode: Some(m),
                    ..Recorder::default()
                }));
                ctx.sanitizer_mut().register(rec);
            }
            let a = ctx.malloc(4096 * 4, "a").unwrap();
            ctx.launch(
                "k",
                LaunchConfig::cover(4096, 128).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    let i = t.global_x();
                    if i < 4096 {
                        t.store_f32(a + i * 4, i as f32);
                    }
                },
            )
            .unwrap();
            ctx.sync_device().as_ns()
        };
        let native = run(None);
        let hit = run(Some(PatchMode::HitFlags));
        let full = run(Some(PatchMode::Full));
        assert!(native < hit, "hit-flag mode must cost simulated time");
        assert!(hit < full, "full patching must cost more than hit flags");
    }

    #[test]
    fn call_paths_are_captured_per_api() {
        let mut ctx = DeviceContext::new_default();
        ctx.with_frame(SourceLoc::new("main", "app.rs", 1), |ctx| {
            ctx.with_frame(SourceLoc::new("init", "app.rs", 10), |ctx| {
                ctx.malloc(16, "x").unwrap();
            });
        });
        let path = &ctx.api_log()[0].call_path;
        assert_eq!(path.depth(), 2);
        let rendered = ctx.call_stack().table().render(path);
        assert!(rendered.contains("init"));
        assert!(rendered.contains("main"));
    }

    #[test]
    fn multi_stream_kernels_overlap_in_time() {
        let mut ctx = DeviceContext::new_default();
        let s1 = ctx.create_stream();
        let s2 = ctx.create_stream();
        let a = ctx.malloc(1024 * 4, "a").unwrap();
        let b = ctx.malloc(1024 * 4, "b").unwrap();
        let body_a = move |t: &mut ThreadCtx<'_>| {
            let i = t.global_x();
            if i < 1024 {
                t.store_f32(a + i * 4, 0.0);
            }
        };
        let body_b = move |t: &mut ThreadCtx<'_>| {
            let i = t.global_x();
            if i < 1024 {
                t.store_f32(b + i * 4, 0.0);
            }
        };
        ctx.launch("ka", LaunchConfig::cover(1024, 128).unwrap(), s1, body_a)
            .unwrap();
        ctx.launch("kb", LaunchConfig::cover(1024, 128).unwrap(), s2, body_b)
            .unwrap();
        let log = ctx.api_log();
        let ka = log
            .iter()
            .find(|e| e.display_name() == "KERL(1, 0)")
            .unwrap();
        let kb = log
            .iter()
            .find(|e| e.display_name() == "KERL(2, 0)")
            .unwrap();
        assert_eq!(ka.start, kb.start, "independent streams start together");
    }

    #[test]
    fn stats_count_gpu_apis() {
        let mut ctx = DeviceContext::new_default();
        let p = ctx.malloc(16, "p").unwrap();
        ctx.memset(p, 0, 16).unwrap();
        ctx.sync_device();
        let s = ctx.stats();
        assert_eq!(s.gpu_api_calls, 2, "sync is not a pattern-relevant GPU API");
    }

    #[test]
    fn coalescing_merges_contiguous_warp_accesses() {
        let recorder = Arc::new(Mutex::new(Recorder::default()));
        let mut ctx = DeviceContext::new_default();
        ctx.sanitizer_mut().register(recorder.clone());
        ctx.sanitizer_mut().set_coalescing(true);
        let n = 64u64; // two warps
        let a = ctx.malloc(n * 4, "a").unwrap();
        ctx.launch(
            "w",
            LaunchConfig::cover(n, 64).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < n {
                    t.store_f32(a + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        let r = recorder.lock();
        assert_eq!(
            r.records.len(),
            2,
            "one merged record per warp: {:?}",
            r.records
        );
        for rec in &r.records {
            assert_eq!(rec.size, 32 * 4, "a full warp's contiguous stores");
        }
        assert_eq!(r.records[0].addr + 32 * 4, r.records[1].addr);
        let s = ctx.stats();
        assert_eq!(s.instrumented_accesses, n, "cost model sees raw accesses");
        assert_eq!(s.coalesced_records, n - 2);
        // The hit-flag summary is unaffected by coalescing.
        assert_eq!(r.touched.len(), 1);
        assert!(r.touched[0].written);
    }

    #[test]
    fn coalescing_does_not_change_simulated_time() {
        let run = |coalesce: bool| {
            let recorder = Arc::new(Mutex::new(Recorder::default()));
            let mut ctx = DeviceContext::new_default();
            ctx.sanitizer_mut().register(recorder);
            ctx.sanitizer_mut().set_coalescing(coalesce);
            let a = ctx.malloc(4096, "a").unwrap();
            ctx.launch(
                "k",
                LaunchConfig::cover(1024, 128).unwrap(),
                StreamId::DEFAULT,
                |t| {
                    let i = t.global_x();
                    if i < 1024 {
                        t.store_f32(a + i * 4, 2.0);
                    }
                },
            )
            .unwrap();
            let last = ctx.api_log().last().unwrap().clone();
            (last.start, last.end, ctx.stats().instrumented_accesses)
        };
        assert_eq!(run(false), run(true), "timestamps must be mode-invariant");
    }

    #[test]
    fn shared_oob_is_a_device_fault_not_a_panic() {
        let mut ctx = DeviceContext::new_default();
        let a = ctx.malloc(64, "a").unwrap();
        let cfg = LaunchConfig::cover(4, 4).unwrap().with_shared_mem(16);
        let err = ctx
            .launch("oob_shared", cfg, StreamId::DEFAULT, |t| {
                let i = t.global_x();
                t.shared_store_f32(i as u32 * 8, 1.0); // i=2,3 exceed 16 bytes
                let v = t.shared_load_f32(i as u32 * 8);
                t.store_f32(a + i * 4, v);
            })
            .unwrap_err();
        match err {
            SimError::KernelFaulted { kernel, reason } => {
                assert_eq!(kernel, "oob_shared");
                assert!(reason.contains("shared"), "reason: {reason}");
            }
            other => panic!("expected KernelFaulted, got {other:?}"),
        }
        // In-bounds global stores before the fault are preserved.
        let mut out = vec![0.0f32; 4];
        ctx.d2h_f32(&mut out, a).unwrap();
        assert_eq!(&out[..2], &[1.0, 1.0], "threads 0 and 1 were in bounds");
    }
}
