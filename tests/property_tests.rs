//! Property-style tests on the core data structures and detector
//! invariants, backing the paper's "DrGPUM does not incur false positives"
//! claim (Sec. 5.6): every finding's evidence is re-checked against a naive
//! oracle on randomly generated traces. Inputs come from a seeded
//! deterministic generator, so every failure is reproducible from its seed.

use drgpum::profiler::accessmap::{AccessBitmap, FreqMap, RangeSet};
use drgpum::profiler::depgraph::{DependencyGraph, VertexAccess};
use drgpum::profiler::object::ObjectId;
use drgpum::profiler::options::Thresholds;
use drgpum::profiler::patterns::{
    object_level, redundant, AccessVia, ApiRef, ObjectAccess, ObjectView, PatternEvidence,
    TraceView,
};
use gpu_sim::mem::DeviceAllocator;
use gpu_sim::{SplitMix64, StreamId};

const CASES: u64 = 64;

/// Uniform draw in `[lo, hi)` from the deterministic generator.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

// ------------------------------------------------------------ allocator

#[derive(Debug, Clone)]
enum AllocOp {
    Malloc(u64),
    FreeNth(usize),
}

fn alloc_ops(rng: &mut SplitMix64) -> Vec<AllocOp> {
    let len = range(rng, 1, 120) as usize;
    (0..len)
        .map(|_| {
            if rng.chance(0.5) {
                AllocOp::Malloc(range(rng, 1, 100_000))
            } else {
                AllocOp::FreeNth(range(rng, 0, 64) as usize)
            }
        })
        .collect()
}

#[test]
fn allocator_invariants() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let ops = alloc_ops(&mut rng);
        let capacity = 4 << 20;
        let mut a = DeviceAllocator::new(capacity);
        let mut live: Vec<(gpu_sim::DevicePtr, u64)> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Malloc(size) => {
                    if let Ok(info) = a.malloc(size) {
                        live.push((info.ptr, size));
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (ptr, _) = live.remove(n % live.len());
                        a.free(ptr).expect("tracked pointer frees cleanly");
                    }
                }
            }
            // Live allocations never overlap.
            let mut ranges: Vec<(u64, u64)> =
                live.iter().map(|(p, s)| (p.addr(), p.addr() + s)).collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "seed {seed}: overlapping allocations");
            }
            // Accounting matches our model.
            let model_in_use: u64 = live.iter().map(|(_, s)| s).sum();
            assert_eq!(a.stats().in_use_bytes, model_in_use, "seed {seed}");
            assert!(
                a.stats().peak_bytes >= a.stats().in_use_bytes,
                "seed {seed}"
            );
            assert_eq!(a.stats().live_allocations, live.len(), "seed {seed}");
        }
        // Free everything: the address space coalesces back to one region.
        for (ptr, _) in live {
            a.free(ptr).expect("valid");
        }
        assert_eq!(a.largest_free(), capacity, "seed {seed}");
    }
}

// -------------------------------------------------------- access maps

#[test]
fn bitmap_matches_boolean_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 1, 600);
        let n_ranges = range(&mut rng, 0, 40) as usize;
        let mut bm = AccessBitmap::new(len);
        let mut model = vec![false; len as usize];
        for _ in 0..n_ranges {
            let start = range(&mut rng, 0, 600);
            let width = range(&mut rng, 0, 80);
            bm.set_range(start, start + width);
            for i in start..(start + width).min(len) {
                model[i as usize] = true;
            }
        }
        assert_eq!(
            bm.count_set(),
            model.iter().filter(|&&b| b).count() as u64,
            "seed {seed}"
        );
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(bm.is_set(i as u64), m, "seed {seed} index {i}");
        }
        // Largest clear run agrees with a scan of the model.
        let mut best = 0usize;
        let mut cur = 0usize;
        for &m in &model {
            if m {
                best = best.max(cur);
                cur = 0;
            } else {
                cur += 1;
            }
        }
        best = best.max(cur);
        assert_eq!(bm.largest_clear_run(), best as u64, "seed {seed}");
    }
}

#[test]
fn rangeset_matches_boolean_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_ranges = range(&mut rng, 1, 40) as usize;
        let mut rs = RangeSet::new();
        let mut model = vec![false; 600];
        for _ in 0..n_ranges {
            let s = range(&mut rng, 0, 500);
            let w = range(&mut rng, 1, 60);
            rs.insert(s, s + w);
            for i in s..(s + w) {
                model[i as usize] = true;
            }
        }
        assert_eq!(
            rs.covered(),
            model.iter().filter(|&&b| b).count() as u64,
            "seed {seed}"
        );
        // Invariant: stored ranges are sorted, disjoint, non-adjacent.
        for w in rs.ranges().windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "seed {seed}: ranges must be disjoint and separated"
            );
        }
        // Membership agrees with the model at every boundary point.
        for (i, &m) in model.iter().enumerate() {
            let i = i as u64;
            let mut probe = RangeSet::new();
            probe.insert(i, i + 1);
            assert_eq!(rs.intersects(&probe), m, "seed {seed} index {i}");
        }
    }
}

#[test]
fn freqmap_total_counts_conserved() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_accesses = range(&mut rng, 0, 100) as usize;
        let mut fm = FreqMap::new(256, 4);
        let mut expected_total = 0u64;
        for _ in 0..n_accesses {
            let off = range(&mut rng, 0, 256).min(255);
            let size = (range(&mut rng, 1, 8) as u32).min((256 - off) as u32);
            if size == 0 {
                continue;
            }
            fm.record(off, size);
            let first = off / 4;
            let last = (off + u64::from(size) - 1) / 4;
            expected_total += last - first + 1;
        }
        let total: u64 = fm.counts().iter().map(|&c| u64::from(c)).sum();
        assert_eq!(total, expected_total, "seed {seed}");
        assert!(fm.coefficient_of_variation_pct() >= 0.0, "seed {seed}");
    }
}

// ----------------------------------------------------- dependency graph

#[test]
fn topological_timestamps_respect_all_edges() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 1, 60) as usize;
        let spec: Vec<(u32, u64, u64)> = (0..len)
            .map(|_| {
                (
                    range(&mut rng, 0, 4) as u32,
                    range(&mut rng, 0, 6),
                    range(&mut rng, 0, 6),
                )
            })
            .collect();
        let vertices: Vec<VertexAccess> = spec
            .iter()
            .map(|(stream, read, write)| VertexAccess {
                stream: StreamId(*stream),
                reads: vec![ObjectId(*read)],
                writes: vec![ObjectId(*write)],
                frees: vec![],
                after: vec![],
            })
            .collect();
        let g = DependencyGraph::build(&vertices);
        for e in g.edges() {
            assert!(
                g.timestamp(e.from) < g.timestamp(e.to),
                "seed {seed}: edge {}->{} violates topological order",
                e.from,
                e.to
            );
        }
        // Single-stream degenerates to invocation order.
        let single: Vec<VertexAccess> = spec
            .iter()
            .map(|(_, read, write)| VertexAccess {
                stream: StreamId(0),
                reads: vec![ObjectId(*read)],
                writes: vec![ObjectId(*write)],
                frees: vec![],
                after: vec![],
            })
            .collect();
        let g1 = DependencyGraph::build(&single);
        let expect: Vec<u64> = (0..single.len() as u64).collect();
        assert_eq!(g1.timestamps(), &expect[..], "seed {seed}");
    }
}

// ------------------------------------------------- detector soundness

#[test]
fn object_level_findings_are_sound() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_objects = range(&mut rng, 1, 20) as usize;
        let n_apis = 64;
        let mut tv = TraceView::synthetic(n_apis);
        for i in 0..n_objects {
            let alloc = range(&mut rng, 0, 16) as usize;
            let first = alloc + 1 + range(&mut rng, 0, 16) as usize;
            let last = first + range(&mut rng, 0, 16) as usize;
            let free = last + 1 + range(&mut rng, 0, 16) as usize;
            let freed = rng.chance(0.5);
            let mk = |idx: usize| ObjectAccess {
                api: ApiRef {
                    idx,
                    ts: idx as u64,
                    name: format!("API({idx})"),
                },
                read: true,
                write: false,
                via: AccessVia::Kernel,
            };
            let accesses = if first == last {
                vec![mk(first)]
            } else {
                vec![mk(first), mk(last)]
            };
            tv.objects.push(ObjectView {
                id: ObjectId(i as u64),
                label: format!("o{i}"),
                size: 512,
                alloc: Some(ApiRef {
                    idx: alloc,
                    ts: alloc as u64,
                    name: format!("API({alloc})"),
                }),
                alloc_anchor: alloc,
                free: freed.then(|| ApiRef {
                    idx: free,
                    ts: free as u64,
                    name: format!("API({free})"),
                }),
                free_anchor: None,
                accesses,
                analyzable: true,
            });
        }
        let thresholds = Thresholds::default();
        for finding in object_level::detect_all(&tv, &thresholds) {
            let obj = &tv.objects[finding.object.0 as usize];
            match &finding.evidence {
                PatternEvidence::EarlyAllocation { intervening, .. } => {
                    let alloc_ts = obj.alloc.as_ref().unwrap().ts;
                    let first_ts = obj.accesses.first().unwrap().api.ts;
                    assert!(*intervening >= 1, "seed {seed}");
                    assert_eq!(*intervening, first_ts - alloc_ts - 1, "seed {seed}");
                }
                PatternEvidence::LateDeallocation { intervening, .. } => {
                    let last_ts = obj.accesses.last().unwrap().api.ts;
                    let free_ts = obj.free.as_ref().unwrap().ts;
                    assert!(*intervening >= 1, "seed {seed}");
                    assert_eq!(*intervening, free_ts - last_ts - 1, "seed {seed}");
                }
                PatternEvidence::MemoryLeak => assert!(obj.free.is_none(), "seed {seed}"),
                PatternEvidence::UnusedAllocation => {
                    assert!(obj.accesses.is_empty(), "seed {seed}")
                }
                PatternEvidence::TemporaryIdleness { spans } => {
                    for s in spans {
                        assert!(s.intervening >= thresholds.idleness_min_apis, "seed {seed}");
                        assert_eq!(s.intervening, s.to.ts - s.from.ts - 1, "seed {seed}");
                    }
                }
                other => panic!("seed {seed}: unexpected evidence {other:?}"),
            }
        }
    }
}

#[test]
fn redundant_allocation_pairs_are_valid() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_objects = range(&mut rng, 2, 20) as usize;
        let mut tv = TraceView::synthetic(64);
        for i in 0..n_objects {
            let first = range(&mut rng, 0, 30) as usize;
            let span = range(&mut rng, 0, 10) as usize;
            let size = range(&mut rng, 100, 2000);
            let last = (first + span).min(63);
            let mk = |idx: usize| ObjectAccess {
                api: ApiRef {
                    idx,
                    ts: idx as u64,
                    name: format!("API({idx})"),
                },
                read: true,
                write: true,
                via: AccessVia::Kernel,
            };
            let accesses = if first == last {
                vec![mk(first)]
            } else {
                vec![mk(first), mk(last)]
            };
            tv.objects.push(ObjectView {
                id: ObjectId(i as u64),
                label: format!("o{i}"),
                size,
                alloc: None,
                alloc_anchor: 0,
                free: None,
                free_anchor: None,
                accesses,
                analyzable: true,
            });
        }
        let findings = redundant::detect_redundant_allocations(&tv, 10.0);
        let pairs = redundant::reuse_pairs(&findings);
        let mut reused_sources = std::collections::HashSet::new();
        for (consumer, source) in &pairs {
            // Each source's memory handed out at most once.
            assert!(
                reused_sources.insert(*source),
                "seed {seed}: source reused twice"
            );
            let c = &tv.objects[consumer.0 as usize];
            let s = &tv.objects[source.0 as usize];
            // Disjoint lifetimes: the source's last access strictly before
            // the consumer's first (Last sorts after First on ties).
            let s_last = s.accesses.last().unwrap().api.ts;
            let c_first = c.accesses.first().unwrap().api.ts;
            assert!(
                s_last < c_first,
                "seed {seed}: lifetimes overlap: {s_last} !< {c_first}"
            );
            // Size window respected.
            assert!(
                redundant::sizes_compatible(c.size, s.size, 10.0),
                "seed {seed}"
            );
        }
    }
}

// --------------------------------------------------------------- peaks

#[test]
fn peaks_are_true_local_maxima() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 1, 80) as usize;
        let curve: Vec<u64> = (0..len).map(|_| range(&mut rng, 0, 1000)).collect();
        let samples: Vec<drgpum::profiler::peaks::UsageSample> = curve
            .iter()
            .enumerate()
            .map(|(i, &b)| drgpum::profiler::peaks::UsageSample {
                api_idx: i,
                bytes_in_use: b,
            })
            .collect();
        let peaks = drgpum::profiler::peaks::find_peaks(&samples, 3);
        let global_max = curve.iter().copied().max().unwrap_or(0);
        if global_max > 0 {
            assert!(
                !peaks.is_empty(),
                "seed {seed}: a nonzero curve has at least one peak"
            );
            assert_eq!(
                peaks[0].1, global_max,
                "seed {seed}: first peak is the global maximum"
            );
        }
        for (idx, bytes) in &peaks {
            assert_eq!(
                curve[*idx], *bytes,
                "seed {seed}: peak value comes from the curve"
            );
            // No strictly larger neighbour on either side until the value
            // changes (local maximum over distinct values).
            if *idx > 0 {
                assert!(curve[idx - 1] <= *bytes, "seed {seed}");
            }
            if idx + 1 < curve.len() {
                assert!(curve[idx + 1] <= *bytes, "seed {seed}");
            }
        }
    }
}

// ------------------------------------------------------------ memory map

/// The registry's resolvers — flat epoch-tagged snapshot index, last-hit
/// [`ResolveCache`], span splitting — against the test's own model of what
/// is live: the containing pool tensor if there is one, else the
/// containing allocation. Randomized alloc/free/realloc sequences run
/// through the real [`DeviceAllocator`], so freed address ranges are
/// genuinely reused (first-fit + coalescing), and the persistent cache
/// carried across mutations exercises stale-window invalidation: a hit on
/// an epoch bumped by a free or a same-base realloc would surface here as
/// a wrong id. Tensors are often carved at offset 0 of their slab, where
/// the two objects share a base address.
#[test]
fn registry_fast_resolvers_match_btreemap_oracle() {
    use drgpum::profiler::object::{ObjectId, ObjectRegistry, ObjectSource, ResolveCache};
    use gpu_sim::{AddrRange, CallPath, DevicePtr};

    const CAPACITY: u64 = 1 << 20;

    /// A live object of the model: `[base, base + size)` with its id.
    #[derive(Clone, Copy)]
    struct Live {
        base: u64,
        size: u64,
        id: ObjectId,
    }

    impl Live {
        fn contains(&self, addr: u64) -> bool {
            addr >= self.base && addr < self.base + self.size
        }
    }

    /// The reference semantics: a tensor beats the slab it is carved from.
    fn model_resolve(slabs: &[Live], tensors: &[(u64, Live)], addr: u64) -> Option<ObjectId> {
        tensors
            .iter()
            .map(|(_, t)| t)
            .chain(slabs)
            .find(|o| o.contains(addr))
            .map(|o| o.id)
    }

    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0000 ^ seed);
        let mut reg = ObjectRegistry::new();
        let mut dev = DeviceAllocator::new(CAPACITY);
        // Live CUDA objects, and tensors keyed by their parent's base.
        let mut slabs: Vec<Live> = Vec::new();
        let mut tensors: Vec<(u64, Live)> = Vec::new();
        // One persistent cache across every mutation: epoch invalidation is
        // the property under test, so the cache is never reset by hand.
        let mut cache = ResolveCache::new();
        let alloc = |reg: &mut ObjectRegistry, base: u64, size: u64, tensor: bool, api: usize| {
            let id = reg.on_alloc(
                if tensor { "tensor" } else { "obj" },
                AddrRange::new(DevicePtr::new(base), size),
                if tensor {
                    ObjectSource::PoolTensor
                } else {
                    ObjectSource::Cuda
                },
                api,
                !tensor,
                CallPath::empty(),
            );
            Live { base, size, id }
        };
        // Frees a live object; its tensor (if any) goes first, as a pool
        // would return tensors before releasing the slab.
        let free = |reg: &mut ObjectRegistry,
                    dev: &mut DeviceAllocator,
                    tensors: &mut Vec<(u64, Live)>,
                    slab: Live,
                    api: usize| {
            if let Some(t) = tensors.iter().position(|&(p, _)| p == slab.base) {
                let (_, t) = tensors.swap_remove(t);
                assert_eq!(reg.on_pool_free(DevicePtr::new(t.base), api), Some(t.id));
            }
            dev.free(DevicePtr::new(slab.base)).unwrap();
            assert_eq!(reg.on_free(DevicePtr::new(slab.base), api), Some(slab.id));
        };
        for api in 0..120usize {
            let roll = range(&mut rng, 0, 100);
            if roll < 40 || slabs.is_empty() {
                // Allocation; small sizes keep the map dense so reuse and
                // adjacency are common.
                let size = range(&mut rng, 1, 8192);
                if let Ok(info) = dev.malloc(size) {
                    slabs.push(alloc(&mut reg, info.ptr.addr(), size, false, api));
                }
            } else if roll < 55 {
                // Carve a pool tensor inside a live slab (innermost-wins is
                // part of the resolve contract), at its offset 0 a third of
                // the time. Tensors never overlap: at most one per slab,
                // dropped when the slab goes.
                let n = range(&mut rng, 0, slabs.len() as u64) as usize;
                let slab = slabs[n];
                let has = tensors.iter().any(|&(p, _)| p == slab.base);
                if !has && slab.size >= 64 {
                    let t_len = range(&mut rng, 1, slab.size / 2);
                    let t_off = if rng.chance(0.33) {
                        0
                    } else {
                        range(&mut rng, 0, slab.size - t_len)
                    };
                    let t = alloc(&mut reg, slab.base + t_off, t_len, true, api);
                    tensors.push((slab.base, t));
                }
            } else if roll < 85 {
                let n = range(&mut rng, 0, slabs.len() as u64) as usize;
                let slab = slabs.swap_remove(n);
                free(&mut reg, &mut dev, &mut tensors, slab, api);
            } else {
                // Realloc: free + immediately malloc the same size. With a
                // first-fit allocator the same base usually comes back, so
                // the old id's window now covers a different object.
                let n = range(&mut rng, 0, slabs.len() as u64) as usize;
                let slab = slabs.swap_remove(n);
                free(&mut reg, &mut dev, &mut tensors, slab, api);
                if let Ok(info) = dev.malloc(slab.size) {
                    slabs.push(alloc(&mut reg, info.ptr.addr(), slab.size, false, api));
                }
            }
            assert_eq!(
                reg.live_count(),
                slabs.len() + tensors.len(),
                "seed {seed}: live count"
            );

            // Point probes: biased toward live ranges and their edges, with
            // a tail of uniform addresses (mostly misses).
            for _ in 0..24 {
                let addr = if !slabs.is_empty() && rng.chance(0.8) {
                    let s = slabs[range(&mut rng, 0, slabs.len() as u64) as usize];
                    // +8 past the end probes the boundary-miss case.
                    s.base.wrapping_add(range(&mut rng, 0, s.size + 8))
                } else {
                    range(&mut rng, 0, CAPACITY)
                };
                let p = DevicePtr::new(addr);
                let oracle = model_resolve(&slabs, &tensors, addr);
                assert_eq!(reg.resolve(p), oracle, "seed {seed}: resolve @ {addr:#x}");
                let fast = reg.resolve_cached(p, &mut cache);
                assert_eq!(
                    fast.map(|(id, _)| id),
                    oracle,
                    "seed {seed}: resolve_cached @ {addr:#x}"
                );
                if let Some((id, off)) = fast {
                    let base = reg.get(id).unwrap().range.start.addr();
                    assert_eq!(off, addr - base, "seed {seed}: offset @ {addr:#x}");
                    // Re-probe: the freshly filled window must agree with
                    // itself (the pure-hit path).
                    assert_eq!(reg.resolve_cached(p, &mut cache), Some((id, off)));
                }
            }

            // Span probe: segment-by-segment against per-byte model lookups.
            let (start, len) = if !slabs.is_empty() && rng.chance(0.8) {
                let s = slabs[range(&mut rng, 0, slabs.len() as u64) as usize];
                (
                    s.base.wrapping_add(range(&mut rng, 0, s.size)),
                    range(&mut rng, 0, 300),
                )
            } else {
                (range(&mut rng, 0, CAPACITY), range(&mut rng, 0, 300))
            };
            let segs = reg.resolve_span(DevicePtr::new(start), len);
            let mut covered = vec![None; len as usize];
            for s in &segs {
                let obj_base = reg.get(s.object).unwrap().range.start.addr();
                for b in 0..s.len {
                    let addr = obj_base + s.offset + b;
                    assert!(addr >= start && addr < start + len.max(1), "seed {seed}");
                    covered[(addr - start) as usize] = Some(s.object);
                }
            }
            for (i, got) in covered.iter().enumerate() {
                let want = model_resolve(&slabs, &tensors, start + i as u64);
                assert_eq!(
                    *got, want,
                    "seed {seed}: span byte {i} of [{start:#x}; {len})"
                );
            }
        }
    }
}

// ------------------------------------------------------------ page table

/// The radix page table behind device memory against a naive byte model:
/// a `BTreeMap` from address to byte (absent = zero) plus the set of pages
/// the store's contract says are materialized. Random writes, reads,
/// zero and non-zero fills, overlapping copies and discards cluster around
/// the bottom of the address space, page and leaf boundaries, and the top
/// of the table, so every piece-splitting and leaf-install path runs.
#[test]
fn page_table_matches_byte_model() {
    use gpu_sim::mem::{PagedStore, DEVICE_ADDR_BASE, PAGE_SIZE};
    use gpu_sim::DevicePtr;
    use std::collections::{BTreeMap, BTreeSet};

    /// Bytes one leaf of the table maps.
    const LEAF: u64 = 512 * PAGE_SIZE;
    const CAPACITY: u64 = 3 * LEAF;

    struct Model {
        bytes: BTreeMap<u64, u8>,
        pages: BTreeSet<u64>,
    }
    impl Model {
        fn page(addr: u64) -> u64 {
            (addr - DEVICE_ADDR_BASE) / PAGE_SIZE
        }
        fn get(&self, addr: u64) -> u8 {
            self.bytes.get(&addr).copied().unwrap_or(0)
        }
        fn set(&mut self, addr: u64, v: u8) {
            self.bytes.insert(addr, v);
            self.pages.insert(Self::page(addr));
        }
    }

    fn pick(rng: &mut SplitMix64, len: u64) -> u64 {
        let anchor = match rng.next_below(5) {
            0 => 0,
            1 => CAPACITY - len,
            2 => rng.next_below(CAPACITY / LEAF) * LEAF,
            3 => rng.next_below(CAPACITY / PAGE_SIZE) * PAGE_SIZE,
            _ => rng.next_below(CAPACITY),
        };
        let jitter = rng.next_below(2 * 64);
        DEVICE_ADDR_BASE + (anchor + jitter).saturating_sub(64).min(CAPACITY - len)
    }

    fn length(rng: &mut SplitMix64) -> u64 {
        match rng.next_below(10) {
            0..=4 => range(rng, 1, 64),
            5..=8 => range(rng, 1, PAGE_SIZE),
            _ => range(rng, PAGE_SIZE, 3 * PAGE_SIZE),
        }
    }

    for seed in 0..24 {
        let mut rng = SplitMix64::new(0x9A6E_0000 ^ seed);
        let mut store = PagedStore::new(CAPACITY);
        let mut model = Model {
            bytes: BTreeMap::new(),
            pages: BTreeSet::new(),
        };
        for step in 0..80 {
            let len = length(&mut rng);
            let at = pick(&mut rng, len);
            let ctx = format!(
                "seed {seed} step {step} at +{:#x} len {len}",
                at - DEVICE_ADDR_BASE
            );
            match rng.next_below(6) {
                0 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    store.write_bytes(DevicePtr::new(at), &data);
                    for (i, &v) in data.iter().enumerate() {
                        model.set(at + i as u64, v);
                    }
                }
                1 => {
                    let value = if rng.chance(0.5) {
                        0
                    } else {
                        rng.next_u64() as u8 | 1
                    };
                    store.fill(DevicePtr::new(at), len, value);
                    for a in at..at + len {
                        if value != 0 {
                            model.set(a, value);
                        } else if model.pages.contains(&Model::page(a)) {
                            model.bytes.insert(a, 0);
                        }
                    }
                }
                2 => {
                    // Overlapping copies in both directions are common:
                    // the source sits within a few pages of the target.
                    let src = if rng.chance(0.5) {
                        pick(&mut rng, len)
                    } else {
                        let delta = range(&mut rng, 0, 2 * PAGE_SIZE);
                        let src = if rng.chance(0.5) {
                            at + delta
                        } else {
                            at.saturating_sub(delta)
                        };
                        src.clamp(DEVICE_ADDR_BASE, DEVICE_ADDR_BASE + CAPACITY - len)
                    };
                    store.copy_within(DevicePtr::new(at), DevicePtr::new(src), len);
                    // memmove, byte by byte in the overlap-safe direction;
                    // a destination page materializes when its byte's
                    // source page is resident at the time of the copy.
                    let order: Vec<u64> = if at > src {
                        (0..len).rev().collect()
                    } else {
                        (0..len).collect()
                    };
                    for i in order {
                        let (s, d) = (src + i, at + i);
                        if model.pages.contains(&Model::page(s)) {
                            let v = model.get(s);
                            model.set(d, v);
                        } else if model.pages.contains(&Model::page(d)) {
                            model.bytes.insert(d, 0);
                        }
                    }
                }
                3 => {
                    store.discard(DevicePtr::new(at), len);
                    let rel = at - DEVICE_ADDR_BASE;
                    for page in rel.div_ceil(PAGE_SIZE)..(rel + len) / PAGE_SIZE {
                        model.pages.remove(&page);
                        let lo = DEVICE_ADDR_BASE + page * PAGE_SIZE;
                        let doomed: Vec<u64> = model
                            .bytes
                            .range(lo..lo + PAGE_SIZE)
                            .map(|(&a, _)| a)
                            .collect();
                        for a in doomed {
                            model.bytes.remove(&a);
                        }
                    }
                }
                _ => {}
            }
            // Every step ends with a read, which must not materialize.
            let (rlen, rat) = {
                let rlen = length(&mut rng);
                (rlen, pick(&mut rng, rlen))
            };
            let mut got = vec![0xEEu8; rlen as usize];
            store.read_bytes(DevicePtr::new(rat), &mut got);
            let want: Vec<u8> = (rat..rat + rlen).map(|a| model.get(a)).collect();
            assert_eq!(got, want, "{ctx}: read +{:#x}", rat - DEVICE_ADDR_BASE);
            assert_eq!(
                store.resident_pages(),
                model.pages.len(),
                "{ctx}: resident pages"
            );
        }
        // Residency agrees page by page; the contents of a few resident
        // pages are compared whole.
        for page in 0..CAPACITY / PAGE_SIZE {
            let lo = DEVICE_ADDR_BASE + page * PAGE_SIZE;
            assert_eq!(
                store.is_resident(DevicePtr::new(lo)),
                model.pages.contains(&page),
                "seed {seed}: residency of page {page}"
            );
        }
        for &page in model.pages.iter().step_by(16) {
            let lo = DEVICE_ADDR_BASE + page * PAGE_SIZE;
            let mut got = vec![0u8; PAGE_SIZE as usize];
            store.read_bytes(DevicePtr::new(lo), &mut got);
            let want: Vec<u8> = (lo..lo + PAGE_SIZE).map(|a| model.get(a)).collect();
            assert_eq!(got, want, "seed {seed}: final contents of page {page}");
        }
    }
}
