//! Regenerates the paper's **Figure 6**: DrGPUM's profiling overhead on
//! both platforms, for object-level and intra-object analysis.
//!
//! Methodology matches the paper's caption: object-level analysis monitors
//! every GPU API without sampling; intra-object analysis monitors the GPU
//! kernel with the largest memory footprint and uses a kernel sampling
//! period of 100. Overhead is the wall-clock ratio of the profiled run to
//! the native run, averaged over `DRGPUM_RUNS` repetitions (default 5; the
//! paper uses 10). The mean native time, the ratios' denominator, is
//! printed beside them.
//!
//! Run with `cargo run --release -p drgpum-bench --bin figure6`.

use drgpum_bench::{geomean, largest_footprint_kernel, median, run_native, run_profiled};
use drgpum_core::{AnalysisLevel, SamplingPolicy};
use gpu_sim::PlatformConfig;
use std::time::Duration;

fn avg_secs(times: &[Duration]) -> f64 {
    times.iter().map(Duration::as_secs_f64).sum::<f64>() / times.len() as f64
}

fn main() {
    let runs: usize = std::env::var("DRGPUM_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    println!("Figure 6: DrGPUM overhead (x native), {runs} runs per point\n");
    let mut csv = String::from("platform,program,native_ms,object_level,intra_object\n");
    for platform in [PlatformConfig::rtx3090(), PlatformConfig::a100()] {
        println!("platform: {}", platform.name);
        println!(
            "{:<18} {:>10} {:>12} {:>12}",
            "Program", "native ms", "object-level", "intra-object"
        );
        println!("{}", "-".repeat(55));
        let mut obj_ratios = Vec::new();
        let mut intra_ratios = Vec::new();
        for spec in drgpum_workloads::all() {
            let native: Vec<Duration> = (0..runs)
                .map(|_| run_native(&spec, platform.clone()).0)
                .collect();
            let obj: Vec<Duration> = (0..runs)
                .map(|_| {
                    run_profiled(
                        &spec,
                        platform.clone(),
                        AnalysisLevel::ObjectLevel,
                        SamplingPolicy::default(),
                    )
                })
                .collect();
            // Intra-object: largest-footprint kernel only, period 100.
            let sampling = match largest_footprint_kernel(&spec) {
                Some(kernel) => SamplingPolicy::with_period(100).with_whitelist([kernel]),
                None => SamplingPolicy::with_period(100),
            };
            let intra: Vec<Duration> = (0..runs)
                .map(|_| {
                    run_profiled(
                        &spec,
                        platform.clone(),
                        AnalysisLevel::IntraObject,
                        sampling.clone(),
                    )
                })
                .collect();
            let native_s = avg_secs(&native).max(1e-9);
            let obj_ratio = avg_secs(&obj) / native_s;
            let intra_ratio = avg_secs(&intra) / native_s;
            obj_ratios.push(obj_ratio);
            intra_ratios.push(intra_ratio);
            let native_ms = native_s * 1e3;
            println!(
                "{:<18} {:>10.3} {:>11.2}x {:>11.2}x",
                spec.name, native_ms, obj_ratio, intra_ratio
            );
            csv.push_str(&format!(
                "{},{},{native_ms:.4},{obj_ratio:.4},{intra_ratio:.4}\n",
                platform.name, spec.name
            ));
        }
        println!(
            "{:<18} {:>10} {:>11.2}x {:>11.2}x   (paper: 1.45x/1.30x and 3.55x/4.13x)",
            "median",
            "",
            median(&mut obj_ratios.clone()),
            median(&mut intra_ratios.clone())
        );
        println!(
            "{:<18} {:>10} {:>11.2}x {:>11.2}x   (paper: 2.19x/2.28x and 3.66x/3.31x)\n",
            "geomean",
            "",
            geomean(&obj_ratios),
            geomean(&intra_ratios)
        );
    }
    // The paper's artifact emits overhead.pdf; we emit the underlying data.
    std::fs::create_dir_all("results").ok();
    if std::fs::write("results/figure6.csv", csv).is_ok() {
        println!("per-benchmark data written to results/figure6.csv");
    }
}
