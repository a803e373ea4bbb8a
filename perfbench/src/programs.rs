//! The benchmark's workloads and the three timed steps each program goes
//! through in a pass: a native run, a profiled run, and a trace round trip.

use crate::churn::{ChurnProgram, OPS};
use crate::ledger::{LedgerHooks, Stage, Tracer};
use drgpum_core::{trace_io, PatternKind, Profiler, ProfilerOptions, Report};
use drgpum_workloads::registry::{RunConfig, WorkloadSpec};
use drgpum_workloads::Variant;
use gpu_sim::pool::SharedPoolObserver;
use gpu_sim::{DeviceContext, PlatformConfig, SimConfig};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 12 Table 1 programs with full intra-object analysis.
    PaperIntra,
    /// All 12 Table 1 programs with object-level analysis.
    PaperObject,
    /// One seeded churn program with object-level analysis.
    Churn,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 3] = [Workload::PaperIntra, Workload::PaperObject, Workload::Churn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperIntra => "paper-intra",
            Workload::PaperObject => "paper-object",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's programs from `seed`. The paper workloads use
    /// the seed to order their 12 programs within a pass; churn uses it to
    /// generate its program.
    pub fn programs(self, seed: u64) -> Vec<Program> {
        match self {
            Workload::PaperIntra | Workload::PaperObject => {
                let intra = self == Workload::PaperIntra;
                let mut programs: Vec<Program> = drgpum_workloads::all()
                    .into_iter()
                    .map(|spec| Program::paper(spec, intra))
                    .collect();
                let mut rng = gpu_sim::SplitMix64::new(seed);
                for i in (1..programs.len()).rev() {
                    programs.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                programs
            }
            Workload::Churn => vec![Program::churn(ChurnProgram::generate(seed))],
        }
    }
}

enum Body {
    Paper { spec: WorkloadSpec, checksum: f64 },
    Churn(ChurnProgram),
}

/// One program of a workload, with what a correct run must produce.
pub struct Program {
    /// Program name (the Table 1 name, or `churn`).
    pub name: &'static str,
    body: Body,
    options: ProfilerOptions,
    pool: bool,
    /// Patterns the report must contain.
    expected: BTreeSet<PatternKind>,
    /// Whether the report must (and may) contain a memory leak.
    expect_leak: bool,
    /// Hashes of the first profiled run's report text and trace bytes;
    /// every later run must reproduce them.
    text_ref: Option<u64>,
    trace_ref: Option<u64>,
}

/// The output of one profiled run, kept for its trace round trip.
pub struct Profiled {
    /// The context the program ran on.
    pub ctx: DeviceContext,
    /// The attached profiler.
    pub profiler: Profiler,
    /// The report of the run.
    pub report: Report,
    /// Length of the rendered report text, in bytes.
    pub text_bytes: usize,
    /// Attach through render, as the user waits for it.
    pub elapsed: Duration,
}

/// The output of one trace round trip.
pub struct RoundTrip {
    /// Save, serialize, load and reanalyze.
    pub elapsed: Duration,
    /// Trace v2 text bytes.
    pub trace_bytes: usize,
}

fn new_ctx() -> DeviceContext {
    DeviceContext::with_config(SimConfig::new(PlatformConfig::rtx3090()))
}

impl Program {
    fn paper(spec: WorkloadSpec, intra: bool) -> Program {
        let mut options = if intra {
            ProfilerOptions::intra_object()
        } else {
            ProfilerOptions::object_level()
        };
        if let Some(elem) = spec.elem_size_hint {
            options.elem_size = elem;
        }
        options.track_pool_tensors = spec.uses_pool;
        let expected = spec
            .expected_patterns
            .iter()
            .copied()
            .filter(|k| intra || k.is_object_level())
            .collect();
        let expect_leak = spec.expected_patterns.contains(&PatternKind::MemoryLeak);
        // The optimized variant computes the same result by other code; its
        // checksum is the reference every unoptimized run must match.
        let checksum = (spec.run)(&mut new_ctx(), Variant::Optimized, &RunConfig::default())
            .map(|o| o.checksum)
            .unwrap_or(f64::NAN);
        Program {
            name: spec.name,
            pool: spec.uses_pool,
            body: Body::Paper { spec, checksum },
            options,
            expected,
            expect_leak,
            text_ref: None,
            trace_ref: None,
        }
    }

    fn churn(program: ChurnProgram) -> Program {
        Program {
            name: "churn",
            body: Body::Churn(program),
            options: ProfilerOptions::object_level(),
            pool: false,
            expected: BTreeSet::from([PatternKind::MemoryLeak]),
            expect_leak: true,
            text_ref: None,
            trace_ref: None,
        }
    }

    /// Runs the program body on `ctx`, checking its outputs.
    fn execute(&self, ctx: &mut DeviceContext, cfg: &RunConfig) -> Result<(), String> {
        match &self.body {
            Body::Paper { spec, checksum } => {
                let outcome = (spec.run)(ctx, Variant::Unoptimized, cfg)
                    .map_err(|e| format!("workload failed: {e}"))?;
                let denom = checksum.abs().max(outcome.checksum.abs()).max(1.0);
                if ((outcome.checksum - checksum) / denom).abs() < 1e-6 {
                    Ok(())
                } else {
                    Err(format!(
                        "checksum {} differs from the optimized variant's {checksum}",
                        outcome.checksum
                    ))
                }
            }
            Body::Churn(program) => {
                let out = program
                    .replay(ctx)
                    .map_err(|e| format!("churn replay failed: {e}"))?;
                if out.mismatches > 0 {
                    return Err(format!(
                        "{} downloads differ from the model",
                        out.mismatches
                    ));
                }
                if out.peak_bytes != program.peak_bytes || out.live != program.live_at_exit {
                    return Err(format!(
                        "allocator peak {} / live {} differ from the model's {} / {}",
                        out.peak_bytes, out.live, program.peak_bytes, program.live_at_exit
                    ));
                }
                Ok(())
            }
        }
    }

    /// Times the program with no profiler attached.
    pub fn run_native(&self) -> (Duration, Result<(), String>) {
        let mut ctx = new_ctx();
        let cfg = RunConfig::default();
        let start = Instant::now();
        let checked = self.execute(&mut ctx, &cfg);
        (start.elapsed(), checked)
    }

    /// Times `Profiler::attach`, the instrumented run, `Profiler::report`
    /// and `Report::render_text`. With a tracer, the collector is reached
    /// through a span-recording proxy and each step gets a span.
    pub fn run_profiled(&mut self, tracer: Option<&Tracer>) -> (Profiled, Result<(), String>) {
        let mut ctx = new_ctx();
        let options = self.options.clone();
        let start = Instant::now();
        let (profiler, ran, report, text) = span(tracer, Stage::Program, || {
            let profiler = span(tracer, Stage::Attach, || {
                Profiler::attach(&mut ctx, options)
            });
            let pool_observer: SharedPoolObserver = match tracer {
                Some(t) => {
                    let proxy = Arc::new(Mutex::new(LedgerHooks::new(
                        profiler.collector(),
                        t.clone(),
                    )));
                    let sanitizer = ctx.sanitizer_mut();
                    sanitizer.clear();
                    sanitizer.register(proxy.clone());
                    proxy
                }
                None => profiler.collector(),
            };
            let cfg = RunConfig {
                pool_observer: self.pool.then_some(pool_observer),
            };
            let ran = span(tracer, Stage::Run, || self.execute(&mut ctx, &cfg));
            let report = span(tracer, Stage::Analyze, || profiler.report(&ctx));
            let text = span(tracer, Stage::Render, || report.render_text());
            (profiler, ran, report, text)
        });
        let elapsed = start.elapsed();
        let checked = ran
            .and_then(|()| self.check_report(&ctx, &report))
            .and_then(|()| pin(&mut self.text_ref, &text, "report text"));
        let profiled = Profiled {
            ctx,
            profiler,
            report,
            text_bytes: text.len(),
            elapsed,
        };
        (profiled, checked)
    }

    /// Times `trace_io::save(..).to_text()`, `trace_io::load` and
    /// `SavedTrace::reanalyze` on a profiled run, and checks that the
    /// reanalysis agrees with the live report.
    pub fn round_trip(
        &mut self,
        profiled: &Profiled,
        tracer: Option<&Tracer>,
    ) -> (RoundTrip, Result<(), String>) {
        let ctx = &profiled.ctx;
        let collector = profiled.profiler.collector();
        let start = Instant::now();
        let (text, reanalyzed) = span(tracer, Stage::RoundTrip, || {
            let text = span(tracer, Stage::Save, || {
                trace_io::save(
                    &collector.lock(),
                    ctx.call_stack().table(),
                    &ctx.config().name,
                )
                .to_text()
            });
            let loaded = span(tracer, Stage::Load, || trace_io::load(&text));
            let reanalyzed = loaded.map(|saved| {
                span(tracer, Stage::Reanalyze, || {
                    saved.reanalyze(&self.options.thresholds)
                })
            });
            (text, reanalyzed)
        });
        let elapsed = start.elapsed();
        let live = &profiled.report;
        let checked = match reanalyzed {
            Err(e) => Err(format!("trace does not load: {e}")),
            Ok(r) if r.patterns_present() != live.patterns_present() || r.stats != live.stats => {
                Err("reanalysis differs from the live report".to_owned())
            }
            Ok(_) => pin(&mut self.trace_ref, &text, "trace bytes"),
        };
        let trip = RoundTrip {
            elapsed,
            trace_bytes: text.len(),
        };
        (trip, checked)
    }

    /// The Table 1 check (paper workloads) or the model check (churn).
    fn check_report(&self, ctx: &DeviceContext, report: &Report) -> Result<(), String> {
        let present = report.patterns_present();
        let missing: Vec<_> = self.expected.difference(&present).collect();
        if !missing.is_empty() {
            return Err(format!("expected patterns not reported: {missing:?}"));
        }
        if present.contains(&PatternKind::MemoryLeak) != self.expect_leak {
            return Err(format!("leak reported = {}", !self.expect_leak));
        }
        if let Some(d) = report.detectors.iter().find(|d| !d.is_ok()) {
            return Err(format!(
                "detector {} did not finish: {:?}",
                d.name, d.outcome
            ));
        }
        if let Some(d) = report.degradations.iter().find(|d| d.stage == "governor") {
            return Err(format!("governor degraded the run: {}", d.detail));
        }
        if let Body::Churn(program) = &self.body {
            let stats = report.stats;
            let want = (OPS as u64, program.live_at_exit as u64, program.peak_bytes);
            let got = (stats.gpu_apis, stats.leaked_objects, stats.peak_bytes);
            if got != want || stats.peak_bytes != ctx.allocator().stats().peak_bytes {
                return Err(format!(
                    "(gpu_apis, leaked objects, peak bytes) = {got:?}, model says {want:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Pins the hash of the first output into `slot`; later outputs must
/// reproduce it exactly.
fn pin(slot: &mut Option<u64>, output: &str, what: &str) -> Result<(), String> {
    let mut h = DefaultHasher::new();
    output.hash(&mut h);
    let hash = h.finish();
    if *slot.get_or_insert(hash) == hash {
        Ok(())
    } else {
        Err(format!("{what} differs from the first run"))
    }
}

fn span<R>(tracer: Option<&Tracer>, stage: Stage, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(stage, f),
        None => f(),
    }
}
