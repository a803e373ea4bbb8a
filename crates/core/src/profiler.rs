//! The profiler facade: attach to a device context, run the program, get a
//! report.
//!
//! Ties together the online data collector, the offline analyzer, and the
//! GUI exporter — the complete DrGPUM workflow of Fig. 1.

use crate::analyzer;
use crate::collector::Collector;
use crate::error::ProfilerError;
use crate::options::ProfilerOptions;
use crate::report::Report;
use crate::trace_stream::{StreamState, StreamingTraceWriter};
use gpu_sim::pool::CachingPool;
use gpu_sim::DeviceContext;
use parking_lot::Mutex;
use serde_json::Value;
use std::path::Path;
use std::sync::Arc;

/// An attached DrGPUM profiler.
///
/// # Examples
///
/// ```
/// use drgpum_core::{Profiler, ProfilerOptions};
/// use gpu_sim::DeviceContext;
///
/// # fn main() -> Result<(), gpu_sim::SimError> {
/// let mut ctx = DeviceContext::new_default();
/// let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
///
/// let leak = ctx.malloc(1024, "leak")?;
/// ctx.memset(leak, 0, 1024)?;
/// // ... never freed ...
///
/// let report = profiler.report(&ctx);
/// assert!(report.has_pattern(drgpum_core::PatternKind::MemoryLeak));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    collector: Arc<Mutex<Collector>>,
}

impl Profiler {
    /// Attaches a profiler to `ctx` via the Sanitizer-style instrumentation
    /// API. All GPU APIs invoked on `ctx` from this point on are observed.
    ///
    /// Turns on the sanitizer's warp-level access merging (the paper's
    /// "merging memory accesses", Sec. 5.5) with merge junctions pinned to
    /// the element grid, so per-element access frequencies (the NUAF
    /// detector's input) are exactly those of the unmerged records.
    pub fn attach(ctx: &mut DeviceContext, options: ProfilerOptions) -> Self {
        let sanitizer = ctx.sanitizer_mut();
        sanitizer.set_coalescing(true);
        sanitizer.set_coalesce_alignment(options.elem_size.max(1));
        let collector = Arc::new(Mutex::new(Collector::new(
            options,
            ctx.config().device_memory_bytes,
        )));
        ctx.sanitizer_mut().register(collector.clone());
        Profiler { collector }
    }

    /// Like [`Profiler::attach`], with a crash-consistent streaming trace:
    /// every API event is appended to `path` as an fsynced delta frame, so
    /// a `kill -9` loses at most the events after the last fsync.
    /// [`crate::trace_io::salvage`] (or `drgpum run --resume`) recovers the
    /// prefix. Call [`Profiler::finish_stream`] for a clean finish marker.
    ///
    /// # Errors
    ///
    /// Returns [`ProfilerError::Stream`] when the trace file cannot be
    /// created or its header cannot be written.
    pub fn attach_streaming(
        ctx: &mut DeviceContext,
        options: ProfilerOptions,
        path: impl AsRef<Path>,
    ) -> Result<Self, ProfilerError> {
        let writer = StreamingTraceWriter::create(path, &ctx.config().name)?;
        let profiler = Profiler::attach(ctx, options);
        profiler
            .collector
            .lock()
            .start_stream(StreamState::new(writer));
        Ok(profiler)
    }

    /// Writes the final checkpoint and clean-finish marker to the
    /// streaming trace, if one is attached. Idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`ProfilerError::Stream`] when the final frames cannot be
    /// written and synced.
    pub fn finish_stream(&self) -> Result<(), ProfilerError> {
        self.collector.lock().finish_stream()
    }

    /// Additionally observes a caching pool's custom allocation APIs
    /// (Sec. 5.4). Requires `track_pool_tensors` in the options for the
    /// tensors to become first-class data objects.
    pub fn observe_pool(&self, pool: &mut CachingPool) {
        pool.register_observer(self.collector.clone());
    }

    /// Shared handle to the underlying collector (for custom analyses).
    pub fn collector(&self) -> Arc<Mutex<Collector>> {
        self.collector.clone()
    }

    /// Runs the offline analysis and produces the report.
    ///
    /// Call after the profiled program finished (the simulated analogue of
    /// process exit).
    pub fn report(&self, ctx: &DeviceContext) -> Report {
        let collector = self.collector.lock();
        analyzer::analyze(&collector, ctx.call_stack().table(), &ctx.config().name)
    }

    /// Predicts the peak-memory reduction achievable by applying the
    /// report's suggestions (the advisor; see [`crate::advisor`]).
    pub fn estimate_savings(&self, ctx: &DeviceContext) -> crate::advisor::SavingsEstimate {
        let collector = self.collector.lock();
        let report = analyzer::analyze(&collector, ctx.call_stack().table(), &ctx.config().name);
        let metas = analyzer::object_metas(&collector, ctx.call_stack().table());
        crate::advisor::estimate(&report, collector.usage_curve(), &metas)
    }

    /// Builds the Perfetto GUI trace (Fig. 7) for the profiled run.
    pub fn perfetto_trace(&self, ctx: &DeviceContext) -> Value {
        let collector = self.collector.lock();
        let report = analyzer::analyze(&collector, ctx.call_stack().table(), &ctx.config().name);
        crate::perfetto::trace_json(&collector, ctx.call_stack().table(), &report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternKind;
    use gpu_sim::{LaunchConfig, StreamId};

    #[test]
    fn facade_end_to_end() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let a = ctx.malloc(1000, "a").unwrap();
        let b = ctx.malloc(1000, "b").unwrap();
        ctx.memset(a, 0, 1000).unwrap();
        ctx.memset(b, 0, 1000).unwrap();
        ctx.launch(
            "k",
            LaunchConfig::cover(16, 16).unwrap(),
            StreamId::DEFAULT,
            |t| {
                let i = t.global_x();
                if i < 16 {
                    let v = t.load_f32(a + i * 4);
                    t.store_f32(b + i * 4, v);
                }
            },
        )
        .unwrap();
        ctx.free(a).unwrap();
        ctx.free(b).unwrap();
        let report = profiler.report(&ctx);
        assert_eq!(report.stats.gpu_apis, 7);
        assert_eq!(report.stats.objects, 2);
        assert_eq!(report.stats.leaked_objects, 0);
        assert_eq!(report.platform, "rtx3090");
    }

    #[test]
    fn pool_profiling_via_facade() {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(
            &mut ctx,
            ProfilerOptions::object_level().with_pool_tracking(),
        );
        let mut pool = CachingPool::reserve(&mut ctx, 1 << 16).unwrap();
        profiler.observe_pool(&mut pool);
        let t = pool.alloc(&mut ctx, 512, "unused_tensor").unwrap();
        // Run an unrelated GPU API so the tensor has trace context.
        let a = ctx.malloc(64, "a").unwrap();
        ctx.memset(a, 0, 64).unwrap();
        ctx.free(a).unwrap();
        pool.free(t).unwrap();
        pool.release(&mut ctx).unwrap();
        let report = profiler.report(&ctx);
        // The tensor is an unused allocation; the slab itself is excluded.
        let ua: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.kind() == PatternKind::UnusedAllocation)
            .collect();
        assert_eq!(ua.len(), 1);
        assert_eq!(ua[0].object.label, "unused_tensor");
    }

    #[test]
    fn profiler_is_cloneable_and_shares_state() {
        let mut ctx = DeviceContext::new_default();
        let p1 = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let p2 = p1.clone();
        let a = ctx.malloc(64, "a").unwrap();
        ctx.free(a).unwrap();
        assert_eq!(p2.report(&ctx).stats.objects, 1);
    }
}
