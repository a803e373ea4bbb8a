//! Kernel launch geometry and the per-thread execution context.
//!
//! Simulated kernels are plain Rust closures invoked once per logical GPU
//! thread. All device-memory traffic goes through [`ThreadCtx`], which is
//! where the Sanitizer-style instrumentation observes every memory
//! instruction — the simulated analogue of SASS patching.

use crate::error::SimError;
use crate::mem::{DeviceAllocator, DevicePtr, PagedStore};
use crate::sanitizer::{AccessKind, AccessSink, KernelInfo, Sanitizer};
use std::fmt;

/// A three-dimensional launch extent or index, like CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Extent/index along x.
    pub x: u32,
    /// Extent/index along y.
    pub y: u32,
    /// Extent/index along z.
    pub z: u32,
}

impl Dim3 {
    /// A one-dimensional extent `(x, 1, 1)`.
    pub fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A two-dimensional extent `(x, y, 1)`.
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// A full three-dimensional extent.
    pub fn xyz(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total number of elements covered by this extent.
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// Flattens an index within this extent (x fastest).
    pub fn flatten(&self, idx: Dim3) -> u64 {
        u64::from(idx.z) * u64::from(self.y) * u64::from(self.x)
            + u64::from(idx.y) * u64::from(self.x)
            + u64::from(idx.x)
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3::x(1)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::xyz(x, y, z)
    }
}

/// Grid/block geometry plus dynamic shared-memory size for one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks in the grid.
    pub grid: Dim3,
    /// Number of threads per block.
    pub block: Dim3,
    /// Dynamic shared memory per block, in bytes.
    pub shared_mem_bytes: u32,
    /// Forces the serial interpreter loop even when the context's
    /// `kernel_workers` knob is above 1. Set by kernels that perform
    /// cross-block read-modify-write (histogram increments, XOR
    /// accumulators): real GPUs need atomics for those, which the
    /// simulator does not model, so they are only deterministic when
    /// blocks run in order.
    pub serial_only: bool,
}

impl LaunchConfig {
    /// Creates a launch configuration without shared memory.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
            shared_mem_bytes: 0,
            serial_only: false,
        }
    }

    /// Sets the dynamic shared-memory size (builder style).
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Marks the launch as serial-only (builder style); see
    /// [`LaunchConfig::serial_only`].
    pub fn serialized(mut self) -> Self {
        self.serial_only = true;
        self
    }

    /// A 1-D launch covering at least `n` threads with `block_size`-wide
    /// blocks — the ubiquitous `(n + b - 1) / b` idiom.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GridTooLarge`] when covering `n` threads would
    /// need more than `u32::MAX` blocks — the launch would silently cover
    /// fewer threads than asked if the grid were clamped, so the driver
    /// rejects it instead, like `cudaErrorInvalidConfiguration`.
    pub fn cover(n: u64, block_size: u32) -> Result<Self, SimError> {
        let blocks = n.div_ceil(u64::from(block_size)).max(1);
        let Ok(grid_x) = u32::try_from(blocks) else {
            return Err(SimError::GridTooLarge {
                requested_threads: n,
                blocks,
            });
        };
        Ok(LaunchConfig::new(Dim3::x(grid_x), Dim3::x(block_size)))
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }
}

/// Aggregate work counters for one kernel execution, consumed by the
/// simulated-time cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Number of global-memory read instructions executed.
    pub global_reads: u64,
    /// Number of global-memory write instructions executed.
    pub global_writes: u64,
    /// Total bytes moved to/from global memory.
    pub global_bytes: u64,
    /// Number of shared-memory accesses executed.
    pub shared_accesses: u64,
    /// Number of arithmetic operations charged via [`ThreadCtx::flop`].
    pub flops: u64,
    /// Unified-memory pages migrated to the device by this kernel's
    /// accesses.
    pub page_migrations: u64,
}

impl KernelCounters {
    /// Total global-memory instructions (reads + writes).
    pub fn global_accesses(&self) -> u64 {
        self.global_reads + self.global_writes
    }

    /// Accumulates another execution's counters (used to fold per-worker
    /// counters into the launch total; addition is order-independent).
    pub(crate) fn merge(&mut self, other: &KernelCounters) {
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.global_bytes += other.global_bytes;
        self.shared_accesses += other.shared_accesses;
        self.flops += other.flops;
        self.page_migrations += other.page_migrations;
    }
}

/// The execution context handed to a kernel closure, once per thread.
///
/// Provides CUDA-like indexing (`block_idx`, `thread_idx`, grid/block dims),
/// typed global-memory accessors that are observed by the instrumentation,
/// per-block shared memory, and a `flop` counter for the timing model.
///
/// # Device faults
///
/// A global access that does not fall inside a live device allocation is a
/// *device fault*: the access is skipped (loads return zero, stores are
/// dropped) and recorded, and the launch returns
/// [`SimError::KernelFaulted`] once the kernel's partial results have been
/// delivered to the instrumentation — the simulator's equivalent of a
/// memory fault under `compute-sanitizer`, without aborting the host.
pub struct ThreadCtx<'a> {
    /// Device memory, shared by every worker of the launch.
    pub(crate) mem: &'a PagedStore,
    pub(crate) alloc: &'a DeviceAllocator,
    pub(crate) sink: &'a mut AccessSink,
    /// `None` on parallel workers: a staging sink never dispatches to
    /// tools mid-kernel, and unified memory (the only other dispatch from
    /// inside a thread) forces the serial schedule.
    pub(crate) sanitizer: Option<&'a Sanitizer>,
    pub(crate) info: &'a KernelInfo,
    /// `None` on parallel workers: kernels touching unified memory run on
    /// the serial schedule, so workers never migrate pages.
    pub(crate) unified: Option<&'a mut crate::unified::UnifiedManager>,
    pub(crate) shared: &'a mut [u8],
    pub(crate) counters: &'a mut KernelCounters,
    /// Index of this thread's block within the grid.
    pub block_idx: Dim3,
    /// Index of this thread within its block.
    pub thread_idx: Dim3,
    /// Grid extent of the launch.
    pub grid_dim: Dim3,
    /// Block extent of the launch.
    pub block_dim: Dim3,
    pub(crate) flat_thread: u64,
    pub(crate) pc_counter: u32,
}

impl fmt::Debug for ThreadCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("block_idx", &self.block_idx)
            .field("thread_idx", &self.thread_idx)
            .field("flat_thread", &self.flat_thread)
            .finish_non_exhaustive()
    }
}

impl ThreadCtx<'_> {
    /// Global flattened thread id (`blockIdx * blockDim + threadIdx`,
    /// flattened over all dimensions).
    pub fn global_thread_id(&self) -> u64 {
        self.flat_thread
    }

    /// 1-D convenience: `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn global_x(&self) -> u64 {
        u64::from(self.block_idx.x) * u64::from(self.block_dim.x) + u64::from(self.thread_idx.x)
    }

    /// 1-D convenience along y.
    pub fn global_y(&self) -> u64 {
        u64::from(self.block_idx.y) * u64::from(self.block_dim.y) + u64::from(self.thread_idx.y)
    }

    /// Validates and records one access; returns `false` (and captures the
    /// fault) if it lies outside every live allocation, in which case the
    /// caller must skip the memory side effect.
    ///
    /// Validation and attribution share one allocation lookup: the sink's
    /// cached window of the containing allocation (see
    /// [`AccessSink::window`]), which stays valid because the live map
    /// cannot change while the kernel runs.
    fn access(&mut self, addr: DevicePtr, size: u32, kind: AccessKind) -> bool {
        let pc = self.pc_counter;
        let window = self.sink.window(self.alloc, addr, pc);
        let Some((alloc_start, _)) =
            window.filter(|&(_, end)| addr.addr() + u64::from(size) <= end)
        else {
            if self.sink.fault.is_none() {
                self.sink.fault = Some(SimError::OutOfBounds {
                    addr,
                    size: u64::from(size),
                });
            }
            return false;
        };
        self.pc_counter += 1;
        // Unified memory: a device access to host-resident pages faults
        // them over (expensive; observed by the instrumentation). Absent on
        // parallel workers — unified regions force the serial schedule.
        if let Some(unified) = self.unified.as_deref_mut() {
            for migration in
                unified.ensure_resident(addr, u64::from(size), crate::unified::Side::Device)
            {
                self.counters.page_migrations += 1;
                if let Some(sanitizer) = self.sanitizer {
                    sanitizer.dispatch_page_migration(&migration);
                }
            }
        }
        match kind {
            AccessKind::Read => self.counters.global_reads += 1,
            AccessKind::Write => self.counters.global_writes += 1,
        }
        self.counters.global_bytes += u64::from(size);
        self.sink.note_access(
            alloc_start,
            self.sanitizer,
            self.info,
            addr,
            size,
            kind,
            self.flat_thread,
            pc,
        );
        true
    }

    /// Reads `N` bytes of global memory as one access; a faulting load
    /// reads zero.
    fn load<const N: usize>(&mut self, addr: DevicePtr) -> [u8; N] {
        if self.access(addr, N as u32, AccessKind::Read) {
            self.mem.read_array(addr)
        } else {
            [0; N]
        }
    }

    /// Writes `N` bytes of global memory as one access; a faulting store
    /// is dropped.
    fn store<const N: usize>(&mut self, addr: DevicePtr, bytes: [u8; N]) {
        if self.access(addr, N as u32, AccessKind::Write) {
            // SAFETY: with one executor nothing else touches device memory
            // during the launch; with several, kernels must be race-free
            // (the launch contract of DESIGN.md §9), so no other thread
            // reads or writes these bytes concurrently.
            unsafe { self.mem.store_bytes(addr, &bytes) };
        }
    }

    /// Reads an `f32` from global memory.
    pub fn load_f32(&mut self, addr: DevicePtr) -> f32 {
        f32::from_le_bytes(self.load(addr))
    }

    /// Writes an `f32` to global memory.
    pub fn store_f32(&mut self, addr: DevicePtr, v: f32) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads an `f64` from global memory.
    pub fn load_f64(&mut self, addr: DevicePtr) -> f64 {
        f64::from_le_bytes(self.load(addr))
    }

    /// Writes an `f64` to global memory.
    pub fn store_f64(&mut self, addr: DevicePtr, v: f64) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads a `u32` from global memory.
    pub fn load_u32(&mut self, addr: DevicePtr) -> u32 {
        u32::from_le_bytes(self.load(addr))
    }

    /// Writes a `u32` to global memory.
    pub fn store_u32(&mut self, addr: DevicePtr, v: u32) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads a `u64` from global memory.
    pub fn load_u64(&mut self, addr: DevicePtr) -> u64 {
        u64::from_le_bytes(self.load(addr))
    }

    /// Writes a `u64` to global memory.
    pub fn store_u64(&mut self, addr: DevicePtr, v: u64) {
        self.store(addr, v.to_le_bytes());
    }

    /// Reads a single byte from global memory.
    pub fn load_u8(&mut self, addr: DevicePtr) -> u8 {
        self.load::<1>(addr)[0]
    }

    /// Writes a single byte to global memory.
    pub fn store_u8(&mut self, addr: DevicePtr, v: u8) {
        self.store(addr, [v]);
    }

    /// Records a shared-memory out-of-bounds access as a device fault
    /// (first fault wins, like global-memory faults) instead of panicking
    /// the host. Returns `false` so the caller skips the memory effect.
    fn shared_in_bounds(&mut self, offset: u32, size: u32) -> bool {
        let end = u64::from(offset) + u64::from(size);
        if end <= self.shared.len() as u64 {
            return true;
        }
        if self.sink.fault.is_none() {
            self.sink.fault = Some(SimError::SharedOutOfBounds {
                offset,
                size,
                shared_bytes: self.shared.len() as u32,
            });
        }
        false
    }

    /// Reads an `f32` from per-block shared memory at byte offset `offset`.
    ///
    /// Shared-memory traffic is counted for the timing model but is *not* an
    /// object access (it does not touch global data objects), so it never
    /// reaches the instrumentation — exactly like real SASS shared loads
    /// being irrelevant to DrGPUM's object analyses.
    ///
    /// An access past the launch's `shared_mem_bytes` is a device fault:
    /// the load returns `0.0` and the launch fails with
    /// [`SimError::KernelFaulted`] once partial results are delivered.
    pub fn shared_load_f32(&mut self, offset: u32) -> f32 {
        self.counters.shared_accesses += 1;
        if !self.shared_in_bounds(offset, 4) {
            return 0.0;
        }
        let o = offset as usize;
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.shared[o..o + 4]);
        f32::from_le_bytes(b)
    }

    /// Writes an `f32` to per-block shared memory at byte offset `offset`.
    ///
    /// An access past the launch's `shared_mem_bytes` is a device fault:
    /// the store is dropped and the launch fails with
    /// [`SimError::KernelFaulted`] once partial results are delivered.
    pub fn shared_store_f32(&mut self, offset: u32, v: f32) {
        self.counters.shared_accesses += 1;
        if !self.shared_in_bounds(offset, 4) {
            return;
        }
        let o = offset as usize;
        self.shared[o..o + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Charges `n` arithmetic operations to the timing model.
    pub fn flop(&mut self, n: u64) {
        self.counters.flops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts_and_flattens() {
        let d = Dim3::xyz(4, 3, 2);
        assert_eq!(d.count(), 24);
        assert_eq!(d.flatten(Dim3::xyz(0, 0, 0)), 0);
        assert_eq!(d.flatten(Dim3::xyz(1, 0, 0)), 1);
        assert_eq!(d.flatten(Dim3::xyz(0, 1, 0)), 4);
        assert_eq!(d.flatten(Dim3::xyz(0, 0, 1)), 12);
        assert_eq!(d.flatten(Dim3::xyz(3, 2, 1)), 23);
    }

    #[test]
    fn launch_config_cover_rounds_up() {
        let cfg = LaunchConfig::cover(1000, 256).unwrap();
        assert_eq!(cfg.grid.x, 4);
        assert_eq!(cfg.block.x, 256);
        assert!(cfg.total_threads() >= 1000);
        assert_eq!(LaunchConfig::cover(0, 32).unwrap().grid.x, 1);
    }

    #[test]
    fn launch_config_cover_rejects_oversized_grids() {
        // u32::MAX blocks exactly still fits...
        let max_fit = u64::from(u32::MAX);
        assert_eq!(LaunchConfig::cover(max_fit, 1).unwrap().grid.x, u32::MAX);
        // ...one block more must be a typed error, not a silent clamp that
        // would cover fewer threads than requested.
        let err = LaunchConfig::cover(max_fit + 1, 1).unwrap_err();
        match err {
            SimError::GridTooLarge {
                requested_threads,
                blocks,
            } => {
                assert_eq!(requested_threads, max_fit + 1);
                assert_eq!(blocks, max_fit + 1);
            }
            other => panic!("expected GridTooLarge, got {other:?}"),
        }
        // Same overflow reached through a wide block size.
        assert!(matches!(
            LaunchConfig::cover(u64::MAX, 2),
            Err(SimError::GridTooLarge { .. })
        ));
    }

    #[test]
    fn dim3_conversions() {
        assert_eq!(Dim3::from(7u32), Dim3::x(7));
        assert_eq!(Dim3::from((2u32, 3u32)), Dim3::xy(2, 3));
        assert_eq!(Dim3::from((2u32, 3u32, 4u32)), Dim3::xyz(2, 3, 4));
    }

    #[test]
    fn counters_aggregate() {
        let c = KernelCounters {
            global_reads: 3,
            global_writes: 2,
            ..KernelCounters::default()
        };
        assert_eq!(c.global_accesses(), 5);
    }
}
