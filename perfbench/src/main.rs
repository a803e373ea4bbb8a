//! The DrGPUM profiler benchmark.
//!
//! ```text
//! perfbench --workload <paper-intra|paper-object|churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! records spans around every layer and prints the per-layer metrics. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this crate for what each metric means.

mod churn;
mod host;
mod ledger;
mod programs;
mod stats;

use ledger::{spans_tsv, PassLedger, Stage, Tracer};
use programs::{Program, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Samples the tail percentile must leave above it.
const TAIL_MIN_ABOVE: usize = 10;

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("profile_s_tail", "s"),
    ("native_s_tail", "s"),
    ("trace_roundtrip_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("trace_mb", "MB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("gpu_sim.api_calls", "count"),
    ("gpu_sim.kernel_launches", "count"),
    ("gpu_sim.accesses", "count"),
    ("gpu_sim.native_s", "s"),
    ("sanitizer.records", "count"),
    ("sanitizer.buffers", "count"),
    ("sanitizer.coalesced_frac", "frac"),
    ("sanitizer.self_s", "s"),
    ("profiler.attach_s", "s"),
    ("collector.api_s", "s"),
    ("collector.api_calls", "count"),
    ("collector.objects", "count"),
    ("collector.kernel_begin_s", "s"),
    ("collector.access_buffer_s", "s"),
    ("collector.ns_per_record", "ns"),
    ("collector.kernel_end_s", "s"),
    ("collector.pool_s", "s"),
    ("collector.other_hooks_s", "s"),
    ("collector.resolve_ns", "ns"),
    ("collector.aggregate_ns", "ns"),
    ("collector.flush_ns", "ns"),
    ("collector.degradations", "count"),
    ("governor.resident_mb", "MB"),
    ("governor.degradations", "count"),
    ("analyzer.analyze_s", "s"),
    ("analyzer.findings", "count"),
    ("analyzer.detectors_ok_frac", "frac"),
    ("report.render_s", "s"),
    ("report.bytes", "count"),
    ("trace_io.save_s", "s"),
    ("trace_io.load_s", "s"),
    ("trace_io.reanalyze_s", "s"),
    ("overhead_x", "x"),
    ("residual_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("host.steal_frac", "frac"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    match flags.keys().next() {
        Some(extra) => Err(format!("unknown argument {extra}")),
        None => Ok(args),
    }
}

/// Program executions checked, and the ones that failed a check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one program execution from its checks; a panic counts as a
    /// failed check.
    fn record(&mut self, name: &str, outcome: std::thread::Result<Vec<Result<(), String>>>) {
        self.attempted += 1;
        let errors: Vec<String> = match outcome {
            Ok(checks) => checks.into_iter().filter_map(Result::err).collect(),
            Err(_) => vec!["panicked".to_owned()],
        };
        if !errors.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {name}: {}", errors.join("; "));
        }
    }
}

/// Sums of one untraced pass, in seconds (trace in bytes).
#[derive(Default)]
struct Pass {
    native: f64,
    profile: f64,
    round_trip: f64,
    trace_bytes: usize,
}

/// One pass: every program natively, profiled, and through a trace round
/// trip, each checked.
fn plain_pass(programs: &mut [Program], tally: &mut Tally) -> Pass {
    let mut pass = Pass::default();
    for p in programs.iter_mut() {
        let name = p.name;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (native, native_ok) = p.run_native();
            let (profiled, profiled_ok) = p.run_profiled(None);
            let (trip, trip_ok) = p.round_trip(&profiled, None);
            pass.native += native.as_secs_f64();
            pass.profile += profiled.elapsed.as_secs_f64();
            pass.round_trip += trip.elapsed.as_secs_f64();
            pass.trace_bytes += trip.trace_bytes;
            vec![native_ok, profiled_ok, trip_ok]
        }));
        tally.record(name, outcome);
    }
    pass
}

/// Builds the programs and runs one checked warm-up pass.
fn set_up(workload: Workload, seed: u64, tally: &mut Tally) -> Vec<Program> {
    let mut programs = workload.programs(seed);
    plain_pass(&mut programs, tally);
    programs
}

/// A line of the human-readable summary for a sampled metric.
fn describe(out: &mut String, name: &str, unit: &str, samples: &[f64]) {
    let n = samples.len();
    let _ = write!(
        out,
        "{name:<28} median {:>12.6} {unit:<5} n={n}",
        stats::median(samples)
    );
    if let Some(p) = stats::tail_percentile(n, TAIL_MIN_ABOVE) {
        let _ = write!(out, "  p{p} {:.6}", stats::percentile(samples, p));
    }
    if let Some(spread) = stats::relative_iqr(samples) {
        let _ = write!(out, "  iqr/median {spread:.4}");
    }
    out.push('\n');
}

fn untraced(args: &Args, start: Instant, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let mut setups = Vec::new();
    let mut programs = Vec::new();
    for i in 0..SETUP_REPEATS {
        let t = if i == 0 { start } else { Instant::now() };
        programs = set_up(args.workload, args.seed, tally);
        setups.push(t.elapsed().as_secs_f64());
    }
    let budget = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    let mut passes = Vec::new();
    while measuring.elapsed() < budget || passes.len() <= TAIL_MIN_ABOVE {
        passes.push(plain_pass(&mut programs, tally));
    }
    let col = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let profile = col(|p| p.profile);
    let native = col(|p| p.native);
    let round_trip = col(|p| p.round_trip);
    let trace_mb = col(|p| p.trace_bytes as f64 / 1e6);
    let n = profile.len();
    let tail_p = stats::tail_percentile(n, TAIL_MIN_ABOVE).expect("enough passes for a tail");
    let rss = host::peak_rss_mb();

    // Medians are printed; the gated value of each timing is its tail,
    // which is steadier across runs on a host whose speed drifts (README).
    let mut out = String::new();
    let mut metrics = BTreeMap::new();
    describe(&mut out, "setup_s", "s", &setups);
    metrics.insert("setup_s", stats::median(&setups));
    for (name, tail_name, samples) in [
        ("profile_s", "profile_s_tail", &profile),
        ("native_s", "native_s_tail", &native),
        ("trace_roundtrip_s", "trace_roundtrip_s_tail", &round_trip),
    ] {
        describe(&mut out, name, "s", samples);
        let tail = stats::percentile(samples, tail_p);
        let above = samples.iter().filter(|&&x| x > tail).count();
        let _ = writeln!(
            out,
            "{tail_name:<28} p{tail_p} {tail:>15.6} s     n={n} ({above} passes above it)"
        );
        metrics.insert(tail_name, tail);
    }
    let _ = writeln!(out, "{:<28} {rss:>19.3} MB    n=1", "peak_rss_mb");
    describe(&mut out, "trace_mb", "MB", &trace_mb);
    print!("{out}");
    metrics.insert("peak_rss_mb", rss);
    metrics.insert("trace_mb", stats::median(&trace_mb));
    metrics
}

/// Per-layer values of one traced pass.
type Sample = BTreeMap<&'static str, f64>;

/// Adds one traced program's work counts to the pass's sample.
fn count_program(s: &mut Sample, profiled: &programs::Profiled) {
    let ctx = profiled.ctx.stats();
    let collector = profiled.profiler.collector();
    let collector = collector.lock();
    let phases = collector.phase_timings();
    let degradations = collector.degradations();
    let report = &profiled.report;
    let governed = degradations.iter().filter(|d| d.stage == "governor");
    let counts = [
        ("gpu_sim.api_calls", ctx.gpu_api_calls),
        ("gpu_sim.kernel_launches", ctx.kernel_launches),
        ("gpu_sim.accesses", ctx.instrumented_accesses),
        ("coalesced", ctx.coalesced_records),
        ("collector.resolve_ns", phases.resolve_ns),
        ("collector.aggregate_ns", phases.aggregate_ns),
        ("collector.flush_ns", phases.flush_ns),
        ("collector.objects", collector.registry().len() as u64),
        ("collector.degradations", degradations.len() as u64),
        ("governor.degradations", governed.count() as u64),
        ("analyzer.findings", report.findings.len() as u64),
        ("detectors", report.detectors.len() as u64),
        (
            "detectors_ok",
            report.detectors.iter().filter(|d| d.is_ok()).count() as u64,
        ),
        ("report.bytes", profiled.text_bytes as u64),
    ];
    for (k, v) in counts {
        *s.entry(k).or_insert(0.0) += v as f64;
    }
    let resident = collector.governor().resident_bytes() as f64 / 1e6;
    let largest = s.entry("governor.resident_mb").or_insert(0.0);
    *largest = largest.max(resident);
}

/// One traced pass. Each program runs natively, profiled without tracing,
/// and profiled through the span-recording proxy and round-tripped with
/// spans around each trace_io call. The two profiled runs swap order every
/// other pass, because the second run reuses memory the first one faulted
/// in.
fn traced_pass(
    programs: &mut [Program],
    tracer: &Tracer,
    tally: &mut Tally,
    traced_first: bool,
) -> (Sample, Vec<ledger::Span>) {
    let mut native_ns = 0u64;
    let mut untraced_s = 0.0;
    let mut s = Sample::new();
    for p in programs.iter_mut() {
        let name = p.name;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (native, native_ok) = p.run_native();
            native_ns += native.as_nanos() as u64;
            let mut plain_ok = Ok(());
            let mut run_plain = |p: &mut Program| {
                let (plain, ok) = p.run_profiled(None);
                untraced_s += plain.elapsed.as_secs_f64();
                plain_ok = ok;
            };
            if !traced_first {
                run_plain(p);
            }
            tracer.begin_run();
            let (profiled, profiled_ok) = p.run_profiled(Some(tracer));
            let (_, trip_ok) = p.round_trip(&profiled, Some(tracer));

            count_program(&mut s, &profiled);
            drop(profiled);
            if traced_first {
                run_plain(p);
            }
            vec![native_ok, plain_ok, profiled_ok, trip_ok]
        }));
        tally.record(name, outcome);
    }
    let (spans, counts) = tracer.drain();
    let l = PassLedger::from_spans(&spans);
    let ns = |x: u64| x as f64 / 1e9;
    let hooks = [
        Stage::HookApi,
        Stage::HookKernelBegin,
        Stage::HookAccessBuffer,
        Stage::HookKernelEnd,
        Stage::HookPool,
        Stage::HookOther,
    ];
    // Stage self times plus the residual account for every nanosecond of
    // the traced pass.
    let pass_ns = l.total_ns(Stage::Program);
    let accounted: u64 = [
        Stage::Program,
        Stage::Attach,
        Stage::Run,
        Stage::Analyze,
        Stage::Render,
    ]
    .iter()
    .chain(&hooks)
    .map(|&st| l.self_ns(st))
    .sum();
    assert_eq!(accounted, pass_ns, "ledger does not sum to the pass");

    let records = counts.records as f64;
    let coalesced = s.remove("coalesced").unwrap_or(0.0);
    let detectors = s.remove("detectors").unwrap_or(0.0);
    let detectors_ok = s.remove("detectors_ok").unwrap_or(0.0);
    let accesses = s.get("gpu_sim.accesses").copied().unwrap_or(0.0);
    let access_buffer = ns(l.total_ns(Stage::HookAccessBuffer));
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    s.extend([
        ("gpu_sim.native_s", ns(native_ns)),
        ("sanitizer.records", records),
        ("sanitizer.buffers", counts.buffers as f64),
        ("sanitizer.coalesced_frac", share(coalesced, accesses)),
        (
            "sanitizer.self_s",
            (l.self_ns(Stage::Run) as f64 - native_ns as f64) / 1e9,
        ),
        ("profiler.attach_s", ns(l.total_ns(Stage::Attach))),
        ("collector.api_s", ns(l.total_ns(Stage::HookApi))),
        ("collector.api_calls", counts.api_calls as f64),
        (
            "collector.kernel_begin_s",
            ns(l.total_ns(Stage::HookKernelBegin)),
        ),
        ("collector.access_buffer_s", access_buffer),
        (
            "collector.ns_per_record",
            share(access_buffer * 1e9, records),
        ),
        (
            "collector.kernel_end_s",
            ns(l.total_ns(Stage::HookKernelEnd)),
        ),
        ("collector.pool_s", ns(l.total_ns(Stage::HookPool))),
        ("collector.other_hooks_s", ns(l.total_ns(Stage::HookOther))),
        ("analyzer.analyze_s", ns(l.total_ns(Stage::Analyze))),
        ("analyzer.detectors_ok_frac", share(detectors_ok, detectors)),
        ("report.render_s", ns(l.total_ns(Stage::Render))),
        ("trace_io.save_s", ns(l.total_ns(Stage::Save))),
        ("trace_io.load_s", ns(l.total_ns(Stage::Load))),
        ("trace_io.reanalyze_s", ns(l.total_ns(Stage::Reanalyze))),
        ("overhead_x", share(untraced_s, ns(native_ns))),
        ("residual_s", ns(l.self_ns(Stage::Program))),
        ("trace.pass_s", ns(pass_ns)),
        ("untraced_pass_s", untraced_s),
    ]);
    (s, spans)
}

fn traced(args: &Args, tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    let mut programs = set_up(args.workload, args.seed, tally);
    let tracer = Tracer::default();
    let budget = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut last_spans = Vec::new();
    while measuring.elapsed() < budget || samples.is_empty() {
        let traced_first = samples.len() % 2 == 1;
        let (sample, spans) = traced_pass(&mut programs, &tracer, tally, traced_first);
        samples.push(sample);
        last_spans = spans;
    }
    let col = |k: &str| samples.iter().map(|s| s[k]).collect::<Vec<f64>>();
    let mut out = String::new();
    let mut metrics = BTreeMap::new();
    for &(name, unit) in PER_LAYER {
        if samples[0].contains_key(name) {
            let v = col(name);
            describe(&mut out, name, unit, &v);
            metrics.insert(name, stats::median(&v));
        }
    }
    let traced_s = stats::median(&col("trace.pass_s"));
    let untraced_s = stats::median(&col("untraced_pass_s"));
    let overhead = traced_s / untraced_s - 1.0;
    metrics.insert("trace.overhead_frac", overhead);
    let _ = writeln!(
        out,
        "{:<28} {overhead:>19.4} frac  (traced pass {traced_s:.6} s over untraced {untraced_s:.6} s)",
        "trace.overhead_frac"
    );
    print!("{out}");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, spans_tsv(&last_spans)));
    match written {
        Ok(()) => println!("spans of the last traced pass: {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    metrics
}

fn main() -> ExitCode {
    let start = Instant::now();
    if let Some(var) = host::drgpum_env_var() {
        eprintln!("perfbench: refusing to run with {var} set: it changes the measured program");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-intra|paper-object|churn> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cpu_before = host::CpuTimes::read();
    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        traced(&args, &mut tally)
    } else {
        untraced(&args, start, &mut tally)
    };
    let steal = cpu_before.steal_frac_until(host::CpuTimes::read());
    if args.trace {
        metrics.insert("host.steal_frac", steal);
    }
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} commit {} host.steal_frac {steal:.4}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::git_commit(),
    );
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} program runs failed a check)",
        tally.failed, tally.attempted
    );

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut json = String::new();
    let mut finite = true;
    for &(name, unit) in wanted {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        finite &= value.is_finite();
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = tally.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
