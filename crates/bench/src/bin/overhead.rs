//! Collection overhead and execution parallelism (Sec. 5.5) on the largest
//! PolyBench workload (3MM), with full intra-object analysis of every
//! kernel instance through the one collection pipeline (warp-level access
//! merging always on, one resolve → aggregate → flush path).
//!
//! Checked properties:
//!
//! 1. **Determinism** — the rendered report and the serialized trace
//!    (format v2 text) are byte-identical with 1 and 4 kernel workers.
//!    Asserted on every run, not sampled.
//! 2. **Overhead ceiling** — profiling overhead over native time, with one
//!    kernel worker, is at most [`MAX_OVERHEAD_VS_NATIVE`]. Always
//!    enforced.
//! 3. **Execution speedup** — the native run with 4 kernel workers is at
//!    least 1.8x faster than with 1. Enforced when the host has 4+ cores;
//!    always recorded.
//!
//! Host parallelism is detected exactly once at startup; the execution
//! gate keys off that one reading, and a skipped gate says so on stdout
//! and in the JSON (`checks[].skipped_reason`). Per-mode resolve /
//! aggregate / flush phase timings (from `Collector::phase_timings`) and
//! the deterministic work counters (records emitted, merged, delivered,
//! resolve-cache misses) land in the JSON too.
//!
//! Measurement is noise-hardened for shared hosts: native and profiled
//! runs are interleaved round-robin (so load drift hits every mode
//! equally), each per-round sample is the min of `DRGPUM_INNER`
//! back-to-back runs (scheduler noise is one-sided, so min filters it),
//! and overhead is the *paired* difference `profiled - native` within each
//! round. The gated ratio is the median across rounds of each round's
//! overhead over that round's native time, so a host that changes speed
//! between rounds scales both sides of the ratio together. One warmup
//! round is discarded.
//!
//! Results land in `results/BENCH_8.json` — written *before* any gate is
//! enforced, so a failing run still leaves the artifact for inspection.
//!
//! Run with `cargo run --release -p drgpum-bench --bin overhead`.
//! `DRGPUM_RUNS` overrides the round count (default 15; medians are
//! taken, so more rounds only reduce noise).

use drgpum_bench::{median, profile_in_ctx_timed, Profiled};
use drgpum_core::{CollectorCounters, PhaseTimings, ProfilerOptions};
use drgpum_workloads::{by_name, Variant, WorkloadSpec};
use gpu_sim::{ContextStats, DeviceContext, PlatformConfig, SimConfig};
use std::time::{Duration, Instant};

/// Ceiling on the default pipeline's overhead over native time on 3MM.
///
/// The gates this replaces bounded the same pipeline relative to two
/// deleted baselines: at least 1.5x less overhead than the slow-path
/// sharded+coalesced mode, and at least 2x less than uncoalesced serial
/// collection. Twelve parent-pipeline runs on a 2-vCPU host put the
/// tighter of those two implied ceilings at 1.18x native at its lowest,
/// so this bound is no looser than either old gate.
const MAX_OVERHEAD_VS_NATIVE: f64 = 1.18;

/// Wall-clock of one native (unprofiled) run under `workers` kernel workers.
fn native_once(spec: &WorkloadSpec, platform: &PlatformConfig, workers: usize) -> Duration {
    let sim = SimConfig::new(platform.clone()).with_kernel_workers(workers);
    let mut ctx = DeviceContext::with_config(sim);
    let start = Instant::now();
    (spec.run)(&mut ctx, Variant::Unoptimized, &Default::default())
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    start.elapsed()
}

/// One profiled run (instrumented workload only — report rendering and
/// trace serialization are excluded) under `workers` kernel workers.
fn profiled_once(spec: &WorkloadSpec, platform: &PlatformConfig, workers: usize) -> Profiled {
    let sim = SimConfig::new(platform.clone()).with_kernel_workers(workers);
    let ctx = DeviceContext::with_config(sim);
    profile_in_ctx_timed(
        spec,
        Variant::Unoptimized,
        ProfilerOptions::intra_object(),
        ctx,
    )
}

/// Per-round samples for one worker count.
#[derive(Default)]
struct Samples {
    native_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    /// Each round's overhead over that round's native time.
    ratio: Vec<f64>,
    /// Phase timings of the fastest round (least contaminated by noise).
    best: Option<(Duration, PhaseTimings)>,
}

/// One enforceable metric: always recorded, asserted only when its gate
/// (decided from the single startup core-count reading) is open.
struct Check {
    name: &'static str,
    value: f64,
    /// `true` for a floor (`value >= threshold`), `false` for a ceiling.
    at_least: bool,
    threshold: f64,
    enforced: bool,
    skipped_reason: Option<String>,
}

impl Check {
    fn passes(&self) -> bool {
        if self.at_least {
            self.value >= self.threshold
        } else {
            self.value <= self.threshold
        }
    }

    fn relation(&self) -> &'static str {
        if self.at_least {
            ">="
        } else {
            "<="
        }
    }
}

fn main() {
    let runs: usize = std::env::var("DRGPUM_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15);
    // The one and only parallelism probe: every gate below keys off this.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let platform = PlatformConfig::rtx3090();
    let spec = by_name("3MM").expect("3MM is registered");
    // Scheduler noise is one-sided (preemption only ever adds time), so
    // each per-round sample is the min of `inner` back-to-back runs —
    // taken inside the round's short window, where min filters spikes
    // without the cross-session drift that a global min suffers from.
    let inner: usize = std::env::var("DRGPUM_INNER")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let workers = [1usize, 4];

    println!(
        "Collection overhead on {} (median of {} rounds, {} host core(s))\n",
        spec.name, runs, cores
    );

    let mut baseline: Option<(String, String)> = None;
    let mut counts: Option<(ContextStats, CollectorCounters)> = None;
    let mut samples: Vec<Samples> = workers.iter().map(|_| Samples::default()).collect();
    // Round 0 is a discarded warmup (page cache, allocator pools); the
    // byte-identity asserts still run on it.
    for round in 0..=runs {
        for (&w, sample) in workers.iter().zip(samples.iter_mut()) {
            let native = (0..inner)
                .map(|_| native_once(&spec, &platform, w))
                .min()
                .expect("inner >= 1");
            let mut round_best: Option<(Duration, PhaseTimings)> = None;
            for _ in 0..inner {
                let run = profiled_once(&spec, &platform, w);
                if round_best
                    .as_ref()
                    .map(|(b, _)| run.elapsed < *b)
                    .unwrap_or(true)
                {
                    round_best = Some((run.elapsed, run.phases));
                }
                let text = run.report.render_text();
                match &baseline {
                    None => baseline = Some((text, run.trace)),
                    Some((base_text, base_trace)) => {
                        assert_eq!(
                            &text, base_text,
                            "report text diverged with {w} kernel workers"
                        );
                        assert_eq!(
                            &run.trace, base_trace,
                            "trace v2 bytes diverged with {w} kernel workers"
                        );
                    }
                }
                if w == 1 {
                    counts = Some((run.stats, run.counters));
                }
            }
            if round == 0 {
                continue;
            }
            let (elapsed, phases) = round_best.expect("inner >= 1");
            // Paired with the native run of the same round and worker
            // count: pairing cancels load drift, and matching worker counts
            // keeps execution parallelism from masquerading as a cheaper
            // pipeline.
            let native_ms = native.as_secs_f64() * 1e3;
            let overhead_ms = (elapsed.as_secs_f64() * 1e3 - native_ms).max(0.0);
            sample.native_ms.push(native_ms);
            sample.overhead_ms.push(overhead_ms);
            sample.ratio.push(overhead_ms / native_ms.max(1e-6));
            if sample
                .best
                .as_ref()
                .map(|(b, _)| elapsed < *b)
                .unwrap_or(true)
            {
                sample.best = Some((elapsed, phases));
            }
        }
    }

    let (stats, counters) = counts.expect("at least one profiled run");
    println!(
        "{:<10} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "workers", "native", "overhead", "ratio", "resolve", "aggr", "flush"
    );
    println!("{}", "-".repeat(74));
    let mut mode_json = Vec::new();
    let mut ratio_of = Vec::new();
    let mut native_of = Vec::new();
    for (&w, sample) in workers.iter().zip(samples.iter_mut()) {
        let (_, phases) = sample.best.expect("at least one round");
        let native_ms = median(&mut sample.native_ms);
        let overhead_ms = median(&mut sample.overhead_ms);
        let ratio = median(&mut sample.ratio);
        println!(
            "{:<10} {:>7.3} ms {:>9.3} ms {:>8.2}x {:>6.2} ms {:>6.2} ms {:>6.2} ms",
            w,
            native_ms,
            overhead_ms,
            ratio,
            phases.resolve_ns as f64 / 1e6,
            phases.aggregate_ns as f64 / 1e6,
            phases.flush_ns as f64 / 1e6,
        );
        mode_json.push(serde_json::json!({
            "workers": w,
            "native_ms": native_ms,
            "overhead_ms": overhead_ms,
            "overhead_vs_native": ratio,
            "phases": {
                "resolve_ns": phases.resolve_ns,
                "aggregate_ns": phases.aggregate_ns,
                "flush_ns": phases.flush_ns,
            },
        }));
        ratio_of.push(ratio);
        native_of.push(native_ms);
    }
    println!(
        "\nwork (1 worker): {} accesses, {} merged away, {} records delivered, \
         {} resolve misses, {} span records",
        stats.instrumented_accesses,
        stats.coalesced_records,
        counters.records,
        counters.resolve_misses,
        counters.span_records,
    );
    println!("reports and traces: byte-identical across worker counts");

    let checks = vec![
        Check {
            name: "default_overhead_vs_native",
            value: ratio_of[0],
            at_least: false,
            threshold: MAX_OVERHEAD_VS_NATIVE,
            enforced: true,
            skipped_reason: None,
        },
        Check {
            name: "exec_speedup_workers4",
            value: native_of[0] / native_of[1].max(1e-6),
            at_least: true,
            threshold: 1.8,
            enforced: cores >= 4,
            skipped_reason: (cores < 4).then(|| {
                format!("host has {cores} core(s); 4-worker execution needs 4+ to be enforced")
            }),
        },
    ];
    for c in &checks {
        match &c.skipped_reason {
            None => println!(
                "check {}: {:.2}x ({} {:.2}x required)",
                c.name,
                c.value,
                c.relation(),
                c.threshold
            ),
            Some(reason) => println!(
                "check {}: {:.2}x recorded, NOT enforced — {reason}",
                c.name, c.value
            ),
        }
    }

    let out = serde_json::json!({
        "bench": "overhead",
        "workload": spec.name,
        "runs": runs,
        "host_cores": cores,
        "byte_identical_across_workers": true,
        "work": {
            "instrumented_accesses": stats.instrumented_accesses,
            "coalesced_records": stats.coalesced_records,
            "records_delivered": counters.records,
            "span_records": counters.span_records,
            "resolve_misses": counters.resolve_misses,
        },
        "modes": mode_json,
        "checks": checks.iter().map(|c| serde_json::json!({
            "check": c.name,
            "value": c.value,
            "relation": c.relation(),
            "threshold": c.threshold,
            "enforced": c.enforced,
            "skipped_reason": c.skipped_reason,
        })).collect::<Vec<_>>(),
    });
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(
        "results/BENCH_8.json",
        serde_json::to_string_pretty(&out).expect("serialize"),
    )
    .expect("write results/BENCH_8.json");
    println!("wrote results/BENCH_8.json");

    // Gates are enforced only after the artifact is on disk, so a failing
    // run still leaves the numbers behind for inspection.
    for c in &checks {
        if c.enforced {
            assert!(
                c.passes(),
                "check `{}` out of bounds: got {:.2}x, need {} {:.2}x",
                c.name,
                c.value,
                c.relation(),
                c.threshold
            );
        }
    }
}
