//! The collection pipeline against a naive reference model.
//!
//! Random programs — allocations, frees, same-size reallocations, memsets,
//! host↔device and device↔device copies, kernels and caching-pool tensors —
//! run twice on identical simulated devices:
//!
//! 1. under [`Profiler::attach`] with intra-object analysis and pool
//!    tracking, i.e. the real pipeline: merged access records, the
//!    epoch-snapshot interval index, the last-hit resolve cache, run-batched
//!    aggregation into bitmaps, range sets and frequency maps;
//! 2. under a raw recorder hook that asks for full patching with access
//!    merging off, capturing every API event, every pool event and every
//!    unmerged access record in order.
//!
//! The second run's log is replayed into a deliberately naive model of the
//! paper's collection semantics (Sec. 5.1–5.2, 5.4): per-byte attribution
//! to the innermost live object found by a linear scan (a pool tensor beats
//! its slab), one byte flag per object byte, per-API byte sets, per-element
//! counts, and per-kernel coefficients of variation. It uses nothing but
//! `Vec`, `BTreeMap`/`BTreeSet` and linear scans — no registry, resolve
//! cache or access-map code — so it checks the pipeline against an
//! independent statement of what it must compute, not against an earlier
//! version of itself. The generator always builds a slab with a tensor at offset 0 and
//! two adjacent 512-byte tensors, and its kernels sweep contiguous ranges
//! across tensor ends, across slab gaps and across abutting allocations.

use drgpum::prelude::*;
use drgpum::profiler::patterns::AccessVia;
use drgpum::profiler::ResourceBudget;
use drgpum::sim::pool::{CachingPool, PoolEvent, PoolObserver, SharedPoolObserver};
use drgpum::sim::{AccessKind, SanitizerHooks, SplitMix64, TouchedObject};
use drgpum::sim::{ApiEvent, ApiKind, KernelCounters, KernelInfo, MemAccessRecord, PatchMode};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Seeds checked; each is one random program.
const SEEDS: u64 = 1_000;
/// Random operations per program, after the fixed pool prelude.
const OPS: usize = 20;
/// Element width of the frequency maps.
const ELEM: u64 = 4;
/// Bytes reserved per caching-pool slab.
const SLAB: u64 = 4096;

/// Uniform draw in `[lo, hi)` from the deterministic generator.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

// ------------------------------------------------------------ generator

/// A byte range chosen at run time: region `pick` of the live regions
/// (allocations, tensors, the slab, and pairs of abutting allocations),
/// then a 4-byte-aligned sub-range of it.
#[derive(Debug, Clone, Copy)]
struct Target {
    pick: u64,
    start: u64,
    len: u64,
}

#[derive(Debug, Clone, Copy)]
enum Access {
    Read,
    Write,
    ReadWrite,
}

#[derive(Debug, Clone, Copy)]
struct Kernel {
    target: Target,
    /// A second range every thread also reads from.
    second: Option<Target>,
    /// Elements per thread: 1 sweeps lane-contiguous, more gives each
    /// thread a contiguous run.
    run: u64,
    access: Access,
    /// 8-byte accesses instead of 4-byte ones.
    wide: bool,
    /// Every thread also reads the range's first element (non-uniform
    /// frequencies).
    skew: bool,
    block: u32,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Malloc(u64),
    Free(u64),
    /// Kernel over an allocation, free it, allocate the same size (often at
    /// the same base) and run the kernel again: a stale resolve cache would
    /// credit the new object's accesses to the dead one.
    Realloc(u64, Kernel),
    Memset(Target, u8),
    H2d(Target),
    D2h(Target),
    D2d(Target, Target),
    Launch(Kernel),
    PoolReserve,
    PoolAlloc(u64),
    PoolFree(u64),
    PoolRelease,
}

fn target(rng: &mut SplitMix64) -> Target {
    Target {
        pick: rng.next_u64(),
        start: rng.next_u64(),
        len: rng.next_u64(),
    }
}

fn kernel(rng: &mut SplitMix64) -> Kernel {
    Kernel {
        target: target(rng),
        second: rng.chance(0.25).then(|| target(rng)),
        run: if rng.chance(0.5) {
            1
        } else {
            range(rng, 2, 17)
        },
        access: match range(rng, 0, 3) {
            0 => Access::Read,
            1 => Access::Write,
            _ => Access::ReadWrite,
        },
        wide: rng.chance(0.2),
        skew: rng.chance(0.3),
        block: [16, 32, 64][range(rng, 0, 3) as usize],
    }
}

fn malloc_size(rng: &mut SplitMix64) -> u64 {
    // Multiples of the 256-byte allocation alignment often, so allocations
    // abut and kernels can sweep across two of them.
    if rng.chance(0.4) {
        256 * range(rng, 1, 4)
    } else {
        4 * range(rng, 4, 400)
    }
}

fn random_program(rng: &mut SplitMix64) -> Vec<Op> {
    let mut ops = vec![
        Op::Malloc(malloc_size(rng)),
        // The first tensor lands at offset 0 of the slab; the next two are
        // adjacent pool blocks.
        Op::PoolReserve,
        Op::PoolAlloc(512),
        Op::PoolAlloc(512),
        Op::PoolAlloc(4 * range(rng, 1, 200)),
    ];
    for _ in 0..OPS {
        let op = match range(rng, 0, 100) {
            0..=11 => Op::Malloc(malloc_size(rng)),
            12..=16 => Op::Free(rng.next_u64()),
            17..=21 => Op::Realloc(rng.next_u64(), kernel(rng)),
            22..=28 => Op::Memset(target(rng), range(rng, 0, 256) as u8),
            29..=33 => Op::H2d(target(rng)),
            34..=37 => Op::D2h(target(rng)),
            38..=42 => Op::D2d(target(rng), target(rng)),
            43..=74 => Op::Launch(kernel(rng)),
            75..=77 => Op::PoolReserve,
            78..=89 => Op::PoolAlloc(if rng.chance(0.5) {
                512
            } else {
                4 * range(rng, 1, 300)
            }),
            90..=97 => Op::PoolFree(rng.next_u64()),
            _ => Op::PoolRelease,
        };
        ops.push(op);
    }
    ops
}

/// Live program state while executing a generated program.
struct Exec {
    cuda: Vec<(DevicePtr, u64)>,
    pool: Option<CachingPool>,
    tensors: Vec<(DevicePtr, u64)>,
}

impl Exec {
    /// Every range a target may fall in: allocations, tensors, the whole
    /// slab, and — for kernels, whose accesses are validated one by one —
    /// pairs of allocations whose bytes abut.
    fn regions(&self, ctx: &DeviceContext, kernel: bool) -> Vec<(DevicePtr, u64)> {
        let mut out = self.cuda.clone();
        out.extend(self.tensors.iter().copied());
        if let Some(pool) = &self.pool {
            out.push((pool.slab(), SLAB));
        }
        for &(p, size) in self.cuda.iter().filter(|_| kernel) {
            if let Some(next) = ctx.allocator().find_containing(p + size) {
                if next.ptr == p + size {
                    out.push((p, size + next.size));
                }
            }
        }
        out
    }

    /// Resolves a target to `[ptr, ptr + len)`, or `None` when nothing is
    /// live.
    fn resolve(&self, ctx: &DeviceContext, t: Target, kernel: bool) -> Option<(DevicePtr, u64)> {
        let regions = self.regions(ctx, kernel);
        if regions.is_empty() {
            return None;
        }
        let (base, size) = regions[(t.pick % regions.len() as u64) as usize];
        let units = size / 4;
        let start = t.start % units;
        let len = 1 + t.len % (units - start).min(512);
        Some((base + start * 4, len * 4))
    }

    fn launch(&self, ctx: &mut DeviceContext, k: &Kernel) {
        let Some((lo, len)) = self.resolve(ctx, k.target, true) else {
            return;
        };
        // Wide accesses are 8-byte aligned, so they never straddle two
        // allocations (those start 256-byte aligned) but do straddle the
        // ends of tensors whose sizes are odd multiples of 4.
        let (lo, width) = if k.wide && len >= 12 {
            (DevicePtr::new(lo.addr() & !7), 8)
        } else {
            (lo, 4)
        };
        let n = len / width;
        let second = k.second.and_then(|t| self.resolve(ctx, t, true));
        let (run, access, skew) = (k.run, k.access, k.skew);
        let threads = n.div_ceil(run);
        ctx.launch(
            "sweep",
            LaunchConfig::cover(threads, k.block).unwrap(),
            StreamId::DEFAULT,
            move |t| {
                let i = t.global_x();
                for e in i * run..((i + 1) * run).min(n) {
                    let addr = lo + e * width;
                    if let Some((s, slen)) = second {
                        let _ = t.load_f32(s + (e % (slen / 4)) * 4);
                    }
                    if matches!(access, Access::Read | Access::ReadWrite) {
                        if width == 8 {
                            let _ = t.load_u64(addr);
                        } else {
                            let _ = t.load_f32(addr);
                        }
                    }
                    if matches!(access, Access::Write | Access::ReadWrite) {
                        if width == 8 {
                            t.store_u64(addr, e);
                        } else {
                            t.store_f32(addr, e as f32);
                        }
                    }
                }
                if skew && i < n {
                    let _ = t.load_f32(lo);
                }
            },
        )
        .unwrap();
    }
}

/// Runs `program`, routing pool events to `observer`. Returns how many
/// reallocations got their old base address back.
fn execute(ctx: &mut DeviceContext, program: &[Op], observer: SharedPoolObserver) -> u32 {
    let mut same_base = 0;
    let mut ex = Exec {
        cuda: Vec::new(),
        pool: None,
        tensors: Vec::new(),
    };
    for op in program {
        match *op {
            Op::Malloc(size) => {
                let p = ctx.malloc(size, "obj").unwrap();
                ex.cuda.push((p, size));
            }
            Op::Free(n) => {
                if !ex.cuda.is_empty() {
                    let (p, _) = ex.cuda.remove((n % ex.cuda.len() as u64) as usize);
                    ctx.free(p).unwrap();
                }
            }
            Op::Realloc(n, k) => {
                if ex.cuda.is_empty() {
                    continue;
                }
                let i = (n % ex.cuda.len() as u64) as usize;
                let (p, size) = ex.cuda[i];
                // Allocations come first among the regions, so this picks
                // allocation `i` and, below 2 KiB, covers all of it.
                let whole = Target {
                    pick: i as u64,
                    start: 0,
                    len: size / 4 - 1,
                };
                let k = Kernel { target: whole, ..k };
                ex.launch(ctx, &k);
                ctx.free(p).unwrap();
                let q = ctx.malloc(size, "realloc").unwrap();
                same_base += u32::from(q == p);
                ex.cuda[i] = (q, size);
                ex.launch(ctx, &k);
            }
            Op::Memset(t, v) => {
                if let Some((p, len)) = ex.resolve(ctx, t, false) {
                    ctx.memset(p, v, len).unwrap();
                }
            }
            Op::H2d(t) => {
                if let Some((p, len)) = ex.resolve(ctx, t, false) {
                    ctx.memcpy_h2d(p, &vec![3u8; len as usize]).unwrap();
                }
            }
            Op::D2h(t) => {
                if let Some((p, len)) = ex.resolve(ctx, t, false) {
                    ctx.memcpy_d2h(&mut vec![0u8; len as usize], p).unwrap();
                }
            }
            Op::D2d(dst, src) => {
                if let (Some((d, dl)), Some((s, sl))) =
                    (ex.resolve(ctx, dst, false), ex.resolve(ctx, src, false))
                {
                    ctx.memcpy_d2d(d, s, dl.min(sl)).unwrap();
                }
            }
            Op::Launch(k) => ex.launch(ctx, &k),
            Op::PoolReserve => {
                if ex.pool.is_none() {
                    let mut pool = CachingPool::reserve(ctx, SLAB).unwrap();
                    pool.register_observer(observer.clone());
                    ex.pool = Some(pool);
                }
            }
            Op::PoolAlloc(size) => {
                if let Some(pool) = &mut ex.pool {
                    if let Ok(p) = pool.alloc(ctx, size, "tensor") {
                        ex.tensors.push((p, size));
                    }
                }
            }
            Op::PoolFree(n) => {
                if let Some(pool) = &mut ex.pool {
                    if !ex.tensors.is_empty() {
                        let (p, _) = ex.tensors.remove((n % ex.tensors.len() as u64) as usize);
                        pool.free(p).unwrap();
                    }
                }
            }
            Op::PoolRelease => {
                if ex.tensors.is_empty() {
                    if let Some(pool) = ex.pool.take() {
                        pool.release(ctx).unwrap();
                    }
                }
            }
        }
    }
    same_base
}

// ------------------------------------------------------------ raw recorder

/// One observation of the raw run, in delivery order.
#[derive(Debug)]
enum Event {
    Api(ApiKind),
    Records(Vec<MemAccessRecord>),
    KernelEnd,
    PoolAlloc { ptr: u64, size: u64 },
    PoolFree { ptr: u64 },
}

#[derive(Default)]
struct Recorder {
    log: Vec<Event>,
}

impl SanitizerHooks for Recorder {
    fn on_api(&mut self, event: &ApiEvent) {
        self.log.push(Event::Api(event.kind.clone()));
    }

    fn on_kernel_begin(&mut self, _info: &KernelInfo) -> PatchMode {
        PatchMode::Full
    }

    fn on_mem_access_buffer(&mut self, _info: &KernelInfo, records: &[MemAccessRecord]) {
        self.log.push(Event::Records(records.to_vec()));
    }

    fn on_kernel_end(&mut self, _: &KernelInfo, _: &[TouchedObject], _: &KernelCounters) {
        self.log.push(Event::KernelEnd);
    }
}

impl PoolObserver for Recorder {
    fn on_pool_event(&mut self, event: &PoolEvent) {
        self.log.push(match event {
            PoolEvent::Alloc { ptr, size, .. } => Event::PoolAlloc {
                ptr: ptr.addr(),
                size: *size,
            },
            PoolEvent::Free { ptr, .. } => Event::PoolFree { ptr: ptr.addr() },
        });
    }
}

// ------------------------------------------------------------ reference model

struct Obj {
    base: u64,
    size: u64,
    tensor: bool,
    /// A `cudaMalloc` allocation a pool tensor was carved from.
    slab: bool,
    live: bool,
}

/// What the pipeline must have gathered for one object.
#[derive(Default)]
struct Intra {
    bytes: Vec<bool>,
    per_api: Vec<(usize, Vec<(u64, u64)>)>,
    lifetime: Option<Vec<u32>>,
    nuaf: Option<(usize, f64)>,
}

/// One kernel's per-object observations.
#[derive(Default)]
struct KernelTouch {
    read: bool,
    write: bool,
    /// Intra-object maps were updated (the object was analyzable).
    intra: bool,
    bytes: BTreeSet<u64>,
    counts: Vec<u32>,
}

/// `(api, object, read, write, via)`, as [`RawAccess`](drgpum::profiler::collector::RawAccess).
type Attribution = (usize, u64, bool, bool, AccessVia);

#[derive(Default)]
struct Model {
    objs: Vec<Obj>,
    intra: BTreeMap<usize, Intra>,
    accesses: Vec<Attribution>,
    apis: usize,
    kernel: BTreeMap<usize, KernelTouch>,
}

/// Maximal runs of set flags, as `(start, end)`.
fn runs(flags: impl IntoIterator<Item = bool>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut open = None;
    let mut i = 0u64;
    for f in flags {
        match (f, open) {
            (true, None) => open = Some(i),
            (false, Some(s)) => {
                out.push((s, i));
                open = None;
            }
            _ => {}
        }
        i += 1;
    }
    if let Some(s) = open {
        out.push((s, i));
    }
    out
}

/// Coefficient of variation (population), in percent, of the non-zero
/// counts, 0 with fewer than two of them.
fn cov_pct(counts: &[u32]) -> f64 {
    let v: Vec<f64> = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| f64::from(c))
        .collect();
    if v.len() < 2 {
        return 0.0;
    }
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean * 100.0
}

/// Adds one to every element count `[off, off + len)` overlaps.
fn count_elements(counts: &mut [u32], off: u64, len: u64) {
    let first = (off / ELEM) as usize;
    let last = ((off + len - 1) / ELEM) as usize;
    for c in &mut counts[first..=last] {
        *c += 1;
    }
}

impl Model {
    /// The innermost live object containing byte `a`: a tensor beats the
    /// slab it was carved from.
    fn owner(&self, a: u64) -> Option<usize> {
        let mut found = None;
        for (id, o) in self.objs.iter().enumerate() {
            if o.live && o.base <= a && a < o.base + o.size && (found.is_none() || o.tensor) {
                found = Some(id);
            }
        }
        found
    }

    /// `[start, start + len)` as maximal pieces owned by one object each:
    /// `(object, offset within it, length)`. Unowned bytes are dropped.
    fn pieces(&self, start: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let mut out: Vec<(usize, u64, u64)> = Vec::new();
        for a in start..start + len {
            let Some(id) = self.owner(a) else { continue };
            match out.last_mut() {
                Some((o, off, l)) if *o == id && self.objs[id].base + *off + *l == a => *l += 1,
                _ => out.push((id, a - self.objs[id].base, 1)),
            }
        }
        out
    }

    fn analyzable(&self, id: usize) -> bool {
        !self.objs[id].slab
    }

    fn intra_of(&mut self, id: usize) -> &mut Intra {
        let size = self.objs[id].size;
        self.intra.entry(id).or_insert_with(|| Intra {
            bytes: vec![false; size as usize],
            ..Intra::default()
        })
    }

    fn elements(&self, id: usize) -> usize {
        self.objs[id].size.div_ceil(ELEM) as usize
    }

    /// A memcpy or memset span: attributed once per object, and each piece
    /// is one per-API footprint and one count per element it covers.
    fn span(&mut self, api: usize, start: u64, len: u64, read: bool, via: AccessVia) {
        let pieces = self.pieces(start, len);
        let mut seen: Vec<usize> = Vec::new();
        for &(id, _, _) in &pieces {
            if !seen.contains(&id) {
                seen.push(id);
                self.accesses.push((api, id as u64, read, !read, via));
            }
        }
        for (id, off, l) in pieces {
            if !self.analyzable(id) {
                continue;
            }
            let n = self.elements(id);
            let st = self.intra_of(id);
            for b in off..off + l {
                st.bytes[b as usize] = true;
            }
            st.per_api.push((api, vec![(off, off + l)]));
            count_elements(st.lifetime.get_or_insert_with(|| vec![0; n]), off, l);
        }
    }

    fn record(&mut self, r: &MemAccessRecord) {
        for (id, off, l) in self.pieces(r.addr.addr(), u64::from(r.size)) {
            let analyzable = self.analyzable(id);
            let n = self.elements(id);
            let k = self.kernel.entry(id).or_default();
            match r.kind {
                AccessKind::Read => k.read = true,
                AccessKind::Write => k.write = true,
            }
            if !analyzable {
                continue;
            }
            k.intra = true;
            k.bytes.extend(off..off + l);
            if k.counts.is_empty() {
                k.counts = vec![0; n];
            }
            count_elements(&mut k.counts, off, l);
            let st = self.intra_of(id);
            for b in off..off + l {
                st.bytes[b as usize] = true;
            }
            count_elements(st.lifetime.get_or_insert_with(|| vec![0; n]), off, l);
        }
    }

    fn kernel_end(&mut self) {
        let api = self.apis - 1;
        for (id, k) in std::mem::take(&mut self.kernel) {
            self.accesses
                .push((api, id as u64, k.read, k.write, AccessVia::Kernel));
            if !k.intra {
                continue;
            }
            let size = self.objs[id].size;
            let st = self.intra_of(id);
            let flags = (0..size).map(|b| k.bytes.contains(&b));
            st.per_api.push((api, runs(flags)));
            let cov = cov_pct(&k.counts);
            if cov > 0.0 && st.nuaf.is_none_or(|(_, best)| cov > best) {
                st.nuaf = Some((api, cov));
            }
        }
    }

    fn free(&mut self, ptr: u64, tensor_only: bool) {
        let pick = |want_tensor: bool| {
            self.objs
                .iter()
                .position(|o| o.live && o.base == ptr && o.tensor == want_tensor)
        };
        let id = if tensor_only {
            pick(true)
        } else {
            pick(false).or_else(|| pick(true))
        };
        if let Some(id) = id {
            self.objs[id].live = false;
        }
    }

    fn replay(log: &[Event]) -> Model {
        let mut m = Model::default();
        for ev in log {
            match ev {
                Event::Api(kind) => {
                    let api = m.apis;
                    match kind {
                        ApiKind::Malloc { ptr, size, .. } => m.objs.push(Obj {
                            base: ptr.addr(),
                            size: *size,
                            tensor: false,
                            slab: false,
                            live: true,
                        }),
                        ApiKind::Free { ptr, .. } => m.free(ptr.addr(), false),
                        ApiKind::MemcpyH2D { dst, size } => {
                            m.span(api, dst.addr(), *size, false, AccessVia::Memcpy)
                        }
                        ApiKind::MemcpyD2H { src, size } => {
                            m.span(api, src.addr(), *size, true, AccessVia::Memcpy)
                        }
                        ApiKind::MemcpyD2D { dst, src, size } => {
                            m.span(api, src.addr(), *size, true, AccessVia::Memcpy);
                            m.span(api, dst.addr(), *size, false, AccessVia::Memcpy);
                        }
                        ApiKind::Memset { dst, size, .. } => {
                            m.span(api, dst.addr(), *size, false, AccessVia::Memset)
                        }
                        ApiKind::KernelLaunch { .. } => {}
                        other => panic!("the generator issues no {other:?}"),
                    }
                    m.apis += 1;
                }
                Event::Records(records) => records.iter().for_each(|r| m.record(r)),
                Event::KernelEnd => m.kernel_end(),
                Event::PoolAlloc { ptr, size } => {
                    if let Some(id) = m.owner(*ptr) {
                        if !m.objs[id].tensor {
                            m.objs[id].slab = true;
                        }
                    }
                    m.objs.push(Obj {
                        base: *ptr,
                        size: *size,
                        tensor: true,
                        slab: false,
                        live: true,
                    });
                }
                Event::PoolFree { ptr } => m.free(*ptr, true),
            }
        }
        m
    }
}

// ------------------------------------------------------------ the check

/// One object's intra-object state in plain types:
/// `(object, accessed byte runs, per-API runs, lifetime counts)`, plus the
/// NUAF peak `(api, CoV)` compared with a tolerance.
type IntraView = (
    u64,
    Vec<(u64, u64)>,
    Vec<(usize, Vec<(u64, u64)>)>,
    Option<Vec<u32>>,
);

/// What one seed exercised, for the coverage floor.
struct Coverage {
    /// Reallocations at the freed base (stale resolve windows).
    same_base: u32,
    /// Merged records split at an object boundary.
    split: u64,
    /// Objects with a NUAF peak.
    nuaf: usize,
}

fn check_seed(seed: u64) -> Coverage {
    let mut rng = SplitMix64::new(0x0AC1_E000 ^ seed);
    let program = random_program(&mut rng);
    let budget = ResourceBudget {
        max_resident_bytes: Some(u64::MAX),
        ..ResourceBudget::unlimited()
    };

    // Run 1: the pipeline, on one or two kernel workers.
    let sim = SimConfig::default().with_kernel_workers(1 + (seed % 2) as usize);
    let mut ctx = DeviceContext::with_config(sim);
    let options = ProfilerOptions::intra_object()
        .with_pool_tracking()
        .with_budget(budget);
    let profiler = Profiler::attach(&mut ctx, options);
    let same_base = execute(&mut ctx, &program, profiler.collector());
    let collector = profiler.collector();
    let col = collector.lock();
    assert!(
        col.degradations().is_empty(),
        "seed {seed}: {:?}",
        col.degradations()
    );
    let got_accesses: Vec<Attribution> = col
        .accesses()
        .iter()
        .map(|a| (a.api_idx, a.object.0, a.read, a.write, a.via))
        .collect();
    let got_intra: Vec<(IntraView, Option<(usize, f64)>)> = col
        .intra_data()
        .iter()
        .map(|d| {
            (
                (
                    d.object.0,
                    d.bitmap.accessed_ranges(),
                    d.per_api
                        .iter()
                        .map(|(api, rs)| (*api, rs.ranges().to_vec()))
                        .collect(),
                    d.lifetime_freq.as_ref().map(|f| f.counts().to_vec()),
                ),
                d.nuaf_peak.as_ref().map(|(api, cov, _)| (*api, *cov)),
            )
        })
        .collect();

    // Run 2: raw, unmerged records into the reference model.
    let mut raw_ctx = DeviceContext::with_config(SimConfig::default());
    let recorder = Arc::new(Mutex::new(Recorder::default()));
    raw_ctx.sanitizer_mut().set_coalescing(false);
    raw_ctx.sanitizer_mut().register(recorder.clone());
    execute(&mut raw_ctx, &program, recorder.clone());
    let model = Model::replay(&recorder.lock().log);
    let want_intra: Vec<(IntraView, Option<(usize, f64)>)> = model
        .intra
        .iter()
        .map(|(&id, st)| {
            (
                (
                    id as u64,
                    runs(st.bytes.iter().copied()),
                    st.per_api.clone(),
                    st.lifetime.clone(),
                ),
                st.nuaf,
            )
        })
        .collect();

    assert_eq!(got_accesses, model.accesses, "seed {seed}: object accesses");
    assert_eq!(got_intra.len(), want_intra.len(), "seed {seed}: objects");
    for ((got, got_nuaf), (want, want_nuaf)) in got_intra.iter().zip(&want_intra) {
        assert_eq!(got, want, "seed {seed}: intra-object maps");
        match (got_nuaf, want_nuaf) {
            (Some((ga, gc)), Some((wa, wc))) => {
                assert_eq!(ga, wa, "seed {seed}: NUAF peak API of {}", got.0);
                assert!(
                    (gc - wc).abs() <= 1e-9 * wc.abs(),
                    "seed {seed}: NUAF CoV of {}: {gc} vs {wc}",
                    got.0
                );
            }
            (None, None) => {}
            other => panic!("seed {seed}: NUAF peak of {}: {other:?}", got.0),
        }
    }
    Coverage {
        same_base,
        split: col.counters().span_records,
        nuaf: want_intra.iter().filter(|(_, n)| n.is_some()).count(),
    }
}

#[test]
fn collection_matches_reference_model() {
    let mut seeds_with = [0u64; 3];
    for seed in 0..SEEDS {
        let c = check_seed(seed);
        for (n, hit) in seeds_with
            .iter_mut()
            .zip([c.same_base > 0, c.split > 0, c.nuaf > 0])
        {
            *n += u64::from(hit);
        }
    }
    // The cases the model exists for must actually occur.
    let [same_base, split, nuaf] = seeds_with;
    assert!(same_base >= SEEDS / 4, "{same_base} seeds reuse a base");
    assert!(split >= SEEDS / 4, "{split} seeds split a merged record");
    assert!(nuaf >= SEEDS / 4, "{nuaf} seeds have a NUAF peak");
}
