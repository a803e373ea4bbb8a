//! Spans recorded around calls into each layer, from outside the program.
//!
//! The benchmark opens spans around `Profiler::attach`, the instrumented
//! run, `Profiler::report`, `Report::render_text` and the trace round
//! trip; [`LedgerHooks`] sits between the simulated sanitizer and the
//! collector and opens one span per hook call. Spans stay in memory; each
//! pass is folded into a [`PassLedger`] of per-stage self times.

use drgpum_core::Collector;
use gpu_sim::pool::{PoolEvent, PoolObserver};
use gpu_sim::{
    ApiEvent, CollectionHint, FrameId, KernelCounters, KernelInfo, MemAccessRecord, PageMigration,
    PatchMode, SanitizerHooks, SimError, SourceLoc, TouchedObject,
};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// A span's layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One profiled program: attach through render.
    Program,
    /// `Profiler::attach`.
    Attach,
    /// The instrumented run: simulator, sanitizer and hook calls.
    Run,
    /// `SanitizerHooks::on_api`.
    HookApi,
    /// `SanitizerHooks::on_kernel_begin`.
    HookKernelBegin,
    /// `SanitizerHooks::on_mem_access_buffer`.
    HookAccessBuffer,
    /// `SanitizerHooks::on_kernel_end`.
    HookKernelEnd,
    /// `PoolObserver::on_pool_event`.
    HookPool,
    /// Every other hook (frames, page migrations, allocation failures).
    HookOther,
    /// `Profiler::report` (the offline analyzer).
    Analyze,
    /// `Report::render_text`.
    Render,
    /// One trace round trip.
    RoundTrip,
    /// `trace_io::save(..).to_text()`.
    Save,
    /// `trace_io::load`.
    Load,
    /// `SavedTrace::reanalyze`.
    Reanalyze,
}

impl Stage {
    const COUNT: usize = 15;

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Program => "program",
            Stage::Attach => "profiler.attach",
            Stage::Run => "run",
            Stage::HookApi => "collector.on_api",
            Stage::HookKernelBegin => "collector.on_kernel_begin",
            Stage::HookAccessBuffer => "collector.on_mem_access_buffer",
            Stage::HookKernelEnd => "collector.on_kernel_end",
            Stage::HookPool => "collector.on_pool_event",
            Stage::HookOther => "collector.other_hooks",
            Stage::Analyze => "analyzer.analyze",
            Stage::Render => "report.render_text",
            Stage::RoundTrip => "trace_io.round_trip",
            Stage::Save => "trace_io.save",
            Stage::Load => "trace_io.load",
            Stage::Reanalyze => "trace_io.reanalyze",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary.
    pub stage: Stage,
    /// Open time.
    pub start: u64,
    /// Close time (0 while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one program run.
    pub run: u32,
}

/// Work counts seen by the proxy in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookCounts {
    /// `on_api` calls.
    pub api_calls: u64,
    /// `on_mem_access_buffer` calls.
    pub buffers: u64,
    /// Records delivered through `on_mem_access_buffer`.
    pub records: u64,
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    counts: HookCounts,
}

/// A shared, in-memory span recorder.
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<Log>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(Log {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            counts: HookCounts::default(),
        })))
    }
}

impl Tracer {
    /// Starts a new program run: later spans carry its identifier.
    pub fn begin_run(&self) {
        self.0.lock().run += 1;
    }

    /// Opens a span inside the innermost open one.
    fn open(&self, stage: Stage) -> usize {
        let mut log = self.0.lock();
        let parent = log.open.last().copied();
        let span = Span {
            stage,
            start: log.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent,
            run: log.run,
        };
        log.spans.push(span);
        let id = log.spans.len() - 1;
        log.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    fn close(&self, id: usize) {
        let mut log = self.0.lock();
        let now = log.epoch.elapsed().as_nanos() as u64;
        assert_eq!(log.open.pop(), Some(id), "spans close innermost first");
        log.spans[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let id = self.open(stage);
        let r = f();
        self.close(id);
        r
    }

    fn count(&self, f: impl FnOnce(&mut HookCounts)) {
        f(&mut self.0.lock().counts);
    }

    /// Takes the spans and counts recorded since the last call.
    pub fn drain(&self) -> (Vec<Span>, HookCounts) {
        let mut log = self.0.lock();
        assert!(log.open.is_empty(), "drained with open spans");
        (
            std::mem::take(&mut log.spans),
            std::mem::take(&mut log.counts),
        )
    }
}

/// Per-stage self times of one traced pass, in nanoseconds. For every
/// span, self time is its duration minus that of its children.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassLedger {
    self_ns: [u64; Stage::COUNT],
    total_ns: [u64; Stage::COUNT],
}

impl PassLedger {
    /// Folds a pass's spans.
    pub fn from_spans(spans: &[Span]) -> PassLedger {
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        let mut ledger = PassLedger::default();
        for (s, kids) in spans.iter().zip(children) {
            let dur = s.end - s.start;
            ledger.total_ns[s.stage as usize] += dur;
            ledger.self_ns[s.stage as usize] += dur - kids;
        }
        ledger
    }

    /// Summed self time of `stage`, in nanoseconds.
    pub fn self_ns(&self, stage: Stage) -> u64 {
        self.self_ns[stage as usize]
    }

    /// Summed duration of `stage`'s spans, in nanoseconds.
    pub fn total_ns(&self, stage: Stage) -> u64 {
        self.total_ns[stage as usize]
    }
}

/// Writes spans as tab-separated lines: run, id, parent, name, start, end.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("run\tid\tparent\tname\tstart_ns\tend_ns\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = writeln!(
            out,
            "{}\t{id}\t{parent}\t{}\t{}\t{}",
            s.run,
            s.stage.name(),
            s.start,
            s.end
        );
    }
    out
}

/// A sanitizer tool and pool observer that forwards every call to the
/// profiler's collector inside a span.
pub struct LedgerHooks {
    collector: Arc<Mutex<Collector>>,
    tracer: Tracer,
}

impl LedgerHooks {
    /// Wraps the collector handle of an attached profiler.
    pub fn new(collector: Arc<Mutex<Collector>>, tracer: Tracer) -> Self {
        LedgerHooks { collector, tracer }
    }

    fn forward<R>(&self, stage: Stage, f: impl FnOnce(&mut Collector) -> R) -> R {
        self.tracer.span(stage, || f(&mut self.collector.lock()))
    }
}

impl SanitizerHooks for LedgerHooks {
    fn on_api(&mut self, event: &ApiEvent) {
        self.tracer.count(|c| c.api_calls += 1);
        self.forward(Stage::HookApi, |c| c.on_api(event));
    }

    fn on_kernel_begin(&mut self, info: &KernelInfo) -> PatchMode {
        self.forward(Stage::HookKernelBegin, |c| c.on_kernel_begin(info))
    }

    fn on_mem_access_buffer(&mut self, info: &KernelInfo, records: &[MemAccessRecord]) {
        self.tracer.count(|c| {
            c.buffers += 1;
            c.records += records.len() as u64;
        });
        self.forward(Stage::HookAccessBuffer, |c| {
            c.on_mem_access_buffer(info, records)
        });
    }

    fn on_kernel_end(
        &mut self,
        info: &KernelInfo,
        touched: &[TouchedObject],
        counters: &KernelCounters,
    ) {
        self.forward(Stage::HookKernelEnd, |c| {
            c.on_kernel_end(info, touched, counters)
        });
    }

    fn on_page_migration(&mut self, migration: &PageMigration) {
        self.forward(Stage::HookOther, |c| c.on_page_migration(migration));
    }

    fn on_alloc_failure(&mut self, requested: u64, label: &str, error: &SimError) {
        self.forward(Stage::HookOther, |c| {
            c.on_alloc_failure(requested, label, error)
        });
    }

    fn on_frame(&mut self, id: FrameId, loc: &SourceLoc) {
        self.forward(Stage::HookOther, |c| c.on_frame(id, loc));
    }

    fn collection_hint(&self) -> CollectionHint {
        self.collector.lock().collection_hint()
    }
}

impl PoolObserver for LedgerHooks {
    fn on_pool_event(&mut self, event: &PoolEvent) {
        self.forward(Stage::HookPool, |c| c.on_pool_event(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                stage: Stage::Program,
                start: 0,
                end: 100,
                parent: None,
                run: 1,
            },
            Span {
                stage: Stage::Run,
                start: 10,
                end: 80,
                parent: Some(0),
                run: 1,
            },
            Span {
                stage: Stage::HookApi,
                start: 20,
                end: 30,
                parent: Some(1),
                run: 1,
            },
            Span {
                stage: Stage::HookApi,
                start: 40,
                end: 45,
                parent: Some(1),
                run: 1,
            },
            Span {
                stage: Stage::Render,
                start: 85,
                end: 95,
                parent: Some(0),
                run: 1,
            },
        ];
        let l = PassLedger::from_spans(&spans);
        assert_eq!(l.self_ns(Stage::Program), 100 - 70 - 10);
        assert_eq!(l.self_ns(Stage::Run), 70 - 15);
        assert_eq!(l.self_ns(Stage::HookApi), 15);
        assert_eq!(l.total_ns(Stage::Program), 100);
        let sum: u64 = [Stage::Program, Stage::Run, Stage::HookApi, Stage::Render]
            .iter()
            .map(|&s| l.self_ns(s))
            .sum();
        assert_eq!(sum, l.total_ns(Stage::Program));
    }

    #[test]
    fn tracer_nests_and_numbers_runs() {
        let t = Tracer::default();
        t.begin_run();
        t.span(Stage::Program, || t.span(Stage::Run, || ()));
        t.span(Stage::RoundTrip, || ());
        t.begin_run();
        t.span(Stage::Program, || ());
        let (spans, _) = t.drain();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), None));
        let runs: Vec<u32> = spans.iter().map(|s| s.run).collect();
        assert_eq!(runs, [1, 1, 1, 2]);
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
