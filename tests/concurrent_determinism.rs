//! Determinism of the collection pipeline (Sec. 5.5) and of parallel block
//! execution: for every registered workload, the profiler's merged access
//! records and multi-worker kernel execution must produce a report and a
//! serialized trace (format v2 text) byte-identical to a single-worker run
//! that delivers every access as its own record. Anything less would mean
//! merging or parallel execution could change findings.

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
/// `DRGPUM_KERNEL_WORKERS` override in the environment. With `merge` off,
/// the sanitizer's access merging is switched back off after attaching, so
/// the collector sees one record per executed access.
fn profile(spec: &WorkloadSpec, workers: usize, merge: bool) -> (String, String) {
    let sim = SimConfig::default().with_kernel_workers(workers);
    let mut ctx = DeviceContext::with_config(sim);
    let mut options = ProfilerOptions::intra_object();
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    if spec.uses_pool {
        options.track_pool_tensors = true;
    }
    let profiler = Profiler::attach(&mut ctx, options);
    ctx.sanitizer_mut().set_coalescing(merge);
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
    // Worker count 8 exceeds most grids' block count, exercising the
    // workers > blocks clamp; 2 exercises genuine block interleaving.
    for spec in drgpum::workloads::all() {
        let baseline = profile(&spec, 1, false);
        for workers in [1usize, 2, 8] {
            let got = profile(&spec, workers, true);
            assert_eq!(
                got.0, baseline.0,
                "{}: report text diverged with {workers} workers",
                spec.name
            );
            assert_eq!(
                got.1, baseline.1,
                "{}: trace v2 bytes diverged with {workers} workers",
                spec.name
            );
        }
    }
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
