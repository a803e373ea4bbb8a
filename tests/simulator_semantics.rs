//! Integration tests on simulator-level guarantees the profiler relies on:
//! determinism, timing-model sanity, and cross-component agreement.

use drgpum::prelude::*;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::RunConfig;
use gpu_sim::SplitMix64;

/// Uniform draw in `[lo, hi)` from the deterministic generator.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

#[test]
fn identical_runs_are_bit_identical() {
    let run = || {
        let spec = drgpum::workloads::by_name("3MM").expect("registered");
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        let out = (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).unwrap();
        (out, profiler.report(&ctx))
    };
    let (out1, rep1) = run();
    let (out2, rep2) = run();
    assert_eq!(out1, out2, "run outcomes must be deterministic");
    assert_eq!(rep1, rep2, "reports must be deterministic");
}

#[test]
fn a100_runs_faster_than_rtx3090_on_bandwidth_bound_work() {
    // Table 3 relationship: the A100's higher bandwidth and parallelism
    // make the same (bandwidth/latency bound) workload finish earlier in
    // simulated time.
    for name in ["2MM", "BICG", "Darknet"] {
        let spec = drgpum::workloads::by_name(name).expect("registered");
        let rtx = {
            let mut ctx = DeviceContext::new(PlatformConfig::rtx3090());
            (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).unwrap()
        };
        let a100 = {
            let mut ctx = DeviceContext::new(PlatformConfig::a100());
            (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).unwrap()
        };
        assert!(
            a100.elapsed < rtx.elapsed,
            "{name}: a100 {:?} should beat rtx3090 {:?}",
            a100.elapsed,
            rtx.elapsed
        );
    }
}

#[test]
fn multi_stream_overlap_beats_serialized_execution() {
    // Two independent kernels on two streams must finish earlier than the
    // same work on one stream.
    let build = |two_streams: bool| {
        let mut ctx = DeviceContext::new_default();
        let s1 = ctx.create_stream();
        let s2 = if two_streams { ctx.create_stream() } else { s1 };
        let n = 64 * 1024u64;
        let a = ctx.malloc(n * 4, "a").unwrap();
        let b = ctx.malloc(n * 4, "b").unwrap();
        ctx.memset(a, 0, n * 4).unwrap();
        ctx.memset(b, 0, n * 4).unwrap();
        ctx.launch("ka", LaunchConfig::cover(n, 256).unwrap(), s1, move |t| {
            let i = t.global_x();
            if i < n {
                t.store_f32(a + i * 4, 1.0);
            }
        })
        .unwrap();
        ctx.launch("kb", LaunchConfig::cover(n, 256).unwrap(), s2, move |t| {
            let i = t.global_x();
            if i < n {
                t.store_f32(b + i * 4, 2.0);
            }
        })
        .unwrap();
        ctx.sync_device().as_ns()
    };
    let serial = build(false);
    let overlapped = build(true);
    assert!(
        overlapped < serial,
        "overlap {overlapped} must beat serial {serial}"
    );
}

#[test]
fn profiler_and_allocator_agree_on_every_workload() {
    for spec in drgpum::workloads::all() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let cfg = RunConfig {
            pool_observer: spec
                .uses_pool
                .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
        };
        (spec.run)(&mut ctx, Variant::Unoptimized, &cfg).unwrap();
        let report = profiler.report(&ctx);
        assert_eq!(
            report.stats.peak_bytes,
            ctx.allocator().stats().peak_bytes,
            "{}: collector curve peak must equal the allocator high-water mark",
            spec.name
        );
        assert_eq!(
            report.stats.gpu_apis,
            ctx.stats().gpu_api_calls,
            "{}: API counts must agree",
            spec.name
        );
    }
}

#[test]
fn oom_is_recoverable_and_invisible_to_the_profiler_trace() {
    let mut ctx = DeviceContext::new(PlatformConfig::test_tiny()); // 1 MiB
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
    let a = ctx.malloc(512 * 1024, "a").unwrap();
    // Too big: fails cleanly, no API event, context still usable.
    assert!(matches!(
        ctx.malloc(800 * 1024, "too_big"),
        Err(SimError::OutOfMemory { .. })
    ));
    let b = ctx.malloc(256 * 1024, "b").unwrap();
    ctx.memset(a, 0, 512 * 1024).unwrap();
    ctx.memset(b, 0, 256 * 1024).unwrap();
    ctx.free(a).unwrap();
    ctx.free(b).unwrap();
    let report = profiler.report(&ctx);
    assert_eq!(
        report.stats.objects, 2,
        "the failed malloc is not an object"
    );
    assert_eq!(report.stats.leaked_objects, 0);
}

/// The unified-memory residency tracker against a naive model.
#[test]
fn unified_manager_matches_model() {
    use drgpum::sim::mem::PAGE_SIZE;
    use drgpum::sim::unified::{Side, UnifiedManager};
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let n_ops = range(&mut rng, 1, 60) as usize;
        let ops: Vec<(bool, u64)> = (0..n_ops)
            .map(|_| (rng.chance(0.5), range(&mut rng, 0, 16)))
            .collect();
        let base = gpu_sim::DevicePtr::new(0x7f00_0000_0000);
        let pages = 16u64;
        let mut m = UnifiedManager::new();
        m.register(base, pages * PAGE_SIZE);
        let mut model = vec![Side::Host; pages as usize];
        let mut model_migrations = 0u64;
        for (to_device, page) in ops {
            let side = if to_device { Side::Device } else { Side::Host };
            let addr = base + page * PAGE_SIZE + 8;
            let migs = m.ensure_resident(addr, 4, side);
            let expected = usize::from(model[page as usize] != side);
            assert_eq!(migs.len(), expected, "seed {seed}");
            model[page as usize] = side;
            model_migrations += expected as u64;
            assert_eq!(m.residency(addr), Some(side), "seed {seed}");
        }
        assert_eq!(m.total_migrations(), model_migrations, "seed {seed}");
    }
}

/// The caching pool against a naive free-space model.
#[test]
fn caching_pool_never_overlaps_tensors() {
    use drgpum::sim::pool::CachingPool;
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let n_ops = range(&mut rng, 1, 60) as usize;
        let ops: Vec<(bool, u64, usize)> = (0..n_ops)
            .map(|_| {
                (
                    rng.chance(0.5),
                    range(&mut rng, 1, 4096),
                    range(&mut rng, 0, 16) as usize,
                )
            })
            .collect();
        let mut ctx = DeviceContext::new_default();
        let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
        let mut live: Vec<(gpu_sim::DevicePtr, u64)> = Vec::new();
        for (is_alloc, size, nth) in ops {
            if is_alloc {
                if let Ok(ptr) = pool.alloc(&mut ctx, size, "t") {
                    live.push((ptr, size));
                }
            } else if !live.is_empty() {
                let (ptr, _) = live.remove(nth % live.len());
                pool.free(ptr).unwrap();
            }
            let mut ranges: Vec<(u64, u64)> =
                live.iter().map(|(p, s)| (p.addr(), p.addr() + s)).collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "seed {seed}: pool handed out overlapping tensors"
                );
            }
            let model_bytes: u64 = live.iter().map(|(_, s)| s).sum();
            assert_eq!(pool.stats().allocated_bytes, model_bytes, "seed {seed}");
        }
    }
}

/// Access validation's allocation lookups, pinned exactly on 3MM.
///
/// Every kernel access is validated against the window of its containing
/// allocation; `ContextStats::alloc_lookups` counts the allocator searches
/// made after both the last-hit window and the per-pc memo missed. The
/// count is deterministic, so a cache regression shows here on any host,
/// without timing anything. It is the same with and without a profiler
/// attached (the lookups serve validation first), and every multi-worker
/// count agrees, because parallel workers start each block from empty
/// caches.
#[test]
fn allocation_lookups_are_pinned_on_3mm() {
    let spec = drgpum::workloads::by_name("3MM").expect("registered");
    let run = |workers: usize, profiled: bool| {
        let mut ctx = DeviceContext::with_config(SimConfig::default().with_kernel_workers(workers));
        let profiler =
            profiled.then(|| Profiler::attach(&mut ctx, ProfilerOptions::intra_object()));
        (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).unwrap();
        drop(profiler);
        let stats = ctx.stats();
        (stats.alloc_lookups, stats.instrumented_accesses)
    };
    // 3MM makes 84 672 global accesses; one lookup per access was the
    // cost before the caches.
    assert_eq!(run(1, false), (147, 0), "serial, unprofiled");
    assert_eq!(run(1, true), (147, 84_672), "serial, profiled");
    assert_eq!(run(2, false).0, 1_323, "two workers");
    assert_eq!(run(4, true).0, 1_323, "four workers, profiled");
}

/// The collection pipeline's work counters, pinned exactly on 3MM.
///
/// Under intra-object profiling every access is instrumented, the
/// sanitizer merges a warp's contiguous accesses into one record, and the
/// collector resolves each delivered record against its last-hit cache.
/// All four counts are deterministic, so a regression in merging or
/// resolution shows here on any host, without timing anything.
#[test]
fn collection_work_is_pinned_on_3mm() {
    let spec = drgpum::workloads::by_name("3MM").expect("registered");
    let mut ctx = DeviceContext::with_config(SimConfig::default());
    // A budget that never trips keeps `DRGPUM_MEM_BUDGET` from shrinking
    // record buffers through the governor's backpressure hint.
    let options = ProfilerOptions::intra_object().with_budget(drgpum::profiler::ResourceBudget {
        max_resident_bytes: Some(u64::MAX),
        ..Default::default()
    });
    let profiler = Profiler::attach(&mut ctx, options);
    (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default()).unwrap();
    let stats = ctx.stats();
    let counters = profiler.collector().lock().counters();
    assert_eq!(stats.instrumented_accesses, 84_672, "accesses");
    assert_eq!(stats.coalesced_records, 80_244, "accesses merged away");
    assert_eq!(counters.records, 4_428, "records delivered");
    assert_eq!(counters.resolve_misses, 489, "resolve misses");
    assert_eq!(counters.span_records, 0, "records split at object ends");
}
