//! Determinism of the low-overhead collection pipeline (Sec. 5.5) and of
//! parallel block execution: for every registered workload, sharded
//! aggregation, warp-level access coalescing, and multi-worker kernel
//! execution must produce a report and a serialized trace (format v2 text)
//! byte-identical to the serial baseline's. Anything less would make the
//! overhead knobs unusable — turning them on could change findings.
//!
//! The same contract pins the overhauled hot path (flat epoch-snapshot
//! index, resolve caches, pc-hint memo, staged sink arenas) against the
//! pre-overhaul pipeline, which stays reachable via
//! [`ProfilerOptions::with_slow_path`] precisely so this suite can hold
//! the fast paths to byte-identical output.

use drgpum::prelude::*;
use drgpum::profiler::trace_io;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::{RunConfig, WorkloadSpec};

/// Profiles one clean run under `kernel_workers` worker threads and returns
/// the two byte-exact artifacts the determinism contract covers: rendered
/// report text and trace v2 text.
///
/// The context is built through [`DeviceContext::with_config`], which takes
/// the worker count verbatim — the sweep must not be perturbed by a
/// `DRGPUM_KERNEL_WORKERS` override in the environment.
fn profile(spec: &WorkloadSpec, mut options: ProfilerOptions, workers: usize) -> (String, String) {
    let sim = SimConfig::default().with_kernel_workers(workers);
    let mut ctx = DeviceContext::with_config(sim);
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    if spec.uses_pool {
        options.track_pool_tensors = true;
    }
    let profiler = Profiler::attach(&mut ctx, options);
    let cfg = RunConfig {
        pool_observer: spec
            .uses_pool
            .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    let trace = {
        let collector = profiler.collector();
        let collector = collector.lock();
        trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text()
    };
    (profiler.report(&ctx).render_text(), trace)
}

#[test]
fn parallel_and_coalesced_collection_match_serial_on_every_workload() {
    // An odd shard count exercises uneven object distribution across
    // shards; 3 also differs from any machine's core count, so the result
    // cannot secretly depend on available parallelism. Worker count 8
    // exceeds most grids' block count, exercising the workers > blocks
    // clamp; 2 exercises genuine block interleaving.
    let modes = [
        ("serial-collect", ProfilerOptions::intra_object()),
        (
            "sharded",
            ProfilerOptions::intra_object().with_collector_shards(3),
        ),
        (
            "coalesced",
            ProfilerOptions::intra_object().with_coalescing(),
        ),
    ];
    for spec in drgpum::workloads::all() {
        let baseline = profile(&spec, ProfilerOptions::intra_object(), 1);
        for workers in [1usize, 2, 8] {
            for (mode, options) in &modes {
                if workers == 1 && *mode == "serial-collect" {
                    continue; // that IS the baseline
                }
                let got = profile(&spec, options.clone(), workers);
                assert_eq!(
                    got.0, baseline.0,
                    "{}: report text diverged in `{mode}` mode with {workers} workers",
                    spec.name
                );
                assert_eq!(
                    got.1, baseline.1,
                    "{}: trace v2 bytes diverged in `{mode}` mode with {workers} workers",
                    spec.name
                );
            }
        }
    }
}

/// The overhauled hot path against its own pre-overhaul implementation.
///
/// `ProfilerOptions::with_slow_path` re-enables the original pipeline —
/// per-access `BTreeMap` resolution, per-launch sink allocation, hashed
/// merge-candidate map, no resolve caches or pc-hint memo. Every fast-path
/// configuration must reproduce the slow path's report text and trace v2
/// bytes exactly, on every registered workload, under both a serial and a
/// block-parallel kernel loop. This is the contract that makes the
/// overhaul a pure optimization: byte-for-byte, not "statistically equal".
#[test]
fn fast_paths_match_slow_path_baseline_on_every_workload() {
    let modes = [
        ("serial-collect", ProfilerOptions::intra_object()),
        (
            "sharded",
            ProfilerOptions::intra_object().with_collector_shards(3),
        ),
        (
            "coalesced",
            ProfilerOptions::intra_object().with_coalescing(),
        ),
    ];
    for spec in drgpum::workloads::all() {
        let baseline = profile(&spec, ProfilerOptions::intra_object().with_slow_path(), 1);
        for workers in [1usize, 4] {
            for (mode, options) in &modes {
                let got = profile(&spec, options.clone(), workers);
                assert_eq!(
                    got.0, baseline.0,
                    "{}: report text diverged from the slow-path baseline in `{mode}` mode with {workers} workers",
                    spec.name
                );
                assert_eq!(
                    got.1, baseline.1,
                    "{}: trace v2 bytes diverged from the slow-path baseline in `{mode}` mode with {workers} workers",
                    spec.name
                );
            }
        }
    }
    // The slow path is itself worker-count independent: the baseline hook
    // must stay a valid oracle under a parallel kernel loop, too.
    let spec = drgpum::workloads::by_name("3MM").expect("registered");
    let slow1 = profile(&spec, ProfilerOptions::intra_object().with_slow_path(), 1);
    let slow4 = profile(&spec, ProfilerOptions::intra_object().with_slow_path(), 4);
    assert_eq!(slow1, slow4, "slow path diverged across worker counts");
}

/// An active fault plan must force the serial loop: mid-kill thread
/// prefixes and per-call triggers depend on the serial schedule, so a
/// faulted run under many workers has to be byte-identical to the same
/// faulted run under one.
#[test]
fn fault_plans_force_serial_fallback() {
    use drgpum::sim::{FaultKind, FaultPlan};

    let spec = drgpum::workloads::by_name("2MM").expect("registered");
    let run = |workers: usize| -> (String, String, String) {
        let sim = SimConfig::default().with_kernel_workers(workers);
        let mut ctx = DeviceContext::with_config(sim);
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        // p = 1.0 kills the first kernel 2MM launches, deterministically.
        ctx.set_fault_plan(FaultPlan::new(29).probabilistic(FaultKind::KernelKill, 1.0));
        // The killed kernel legitimately fails the workload; the profiler
        // artifacts are what must stay deterministic.
        let _ = (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default());
        let trace = {
            let collector = profiler.collector();
            let collector = collector.lock();
            trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text()
        };
        let report = profiler.report(&ctx).render_text();
        let faults = format!("{:?}", ctx.fault_log());
        (report, trace, faults)
    };

    let serial = run(1);
    let parallel = run(8);
    assert!(
        serial.2.contains("KernelKill"),
        "the plan must actually deliver a kernel kill, got: {}",
        serial.2
    );
    assert_eq!(parallel.0, serial.0, "report text diverged under faults");
    assert_eq!(parallel.1, serial.1, "trace v2 bytes diverged under faults");
    assert_eq!(parallel.2, serial.2, "fault logs diverged");
}

/// What one unprofiled run leaves behind: the workload's result checksum
/// (computed from device memory read back before the frees), every live
/// allocation's bytes in address order, and the number of materialized
/// pages.
type DeviceMemory = (u64, Vec<(u64, Vec<u8>)>, usize);

/// Runs one workload unprofiled under `kernel_workers` worker threads and
/// returns what it leaves in device memory.
fn device_memory_after(spec: &WorkloadSpec, workers: usize) -> DeviceMemory {
    let mut ctx = DeviceContext::with_config(SimConfig::default().with_kernel_workers(workers));
    let outcome = (spec.run)(&mut ctx, Variant::Unoptimized, &RunConfig::default())
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    let live = ctx
        .allocator()
        .iter()
        .map(|info| {
            let mut bytes = vec![0u8; info.size as usize];
            ctx.memory().read_bytes(info.ptr, &mut bytes);
            (info.ptr.addr(), bytes)
        })
        .collect();
    (
        outcome.checksum.to_bits(),
        live,
        ctx.memory().resident_pages(),
    )
}

/// Block-parallel execution writes through the same page table as the
/// serial schedule, so it must leave identical device memory behind: the
/// same results, the same bytes in every live allocation and the same
/// materialized pages.
#[test]
fn parallel_execution_leaves_identical_device_memory() {
    for spec in drgpum::workloads::all() {
        let (serial_sum, serial_live, serial_pages) = device_memory_after(&spec, 1);
        let (parallel_sum, parallel_live, parallel_pages) = device_memory_after(&spec, 4);
        assert_eq!(
            parallel_sum, serial_sum,
            "{}: result checksum diverged under 4 workers",
            spec.name
        );
        assert_eq!(
            parallel_live, serial_live,
            "{}: live allocation bytes diverged under 4 workers",
            spec.name
        );
        assert_eq!(
            parallel_pages, serial_pages,
            "{}: resident pages diverged under 4 workers",
            spec.name
        );
    }
}
