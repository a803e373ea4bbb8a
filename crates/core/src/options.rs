//! Profiler configuration: analysis level, thresholds, sampling.
//!
//! Every threshold is user-tunable with the paper's experimental defaults
//! (Sec. 3): redundant-allocation size window 10 %, temporary-idleness gap 2
//! GPU APIs, overallocation 80 % accessed / 80 % fragmentation,
//! non-uniform-access-frequency CoV 20 %, top-2 memory peaks.

use crate::governor::ResourceBudget;
use std::collections::HashSet;

/// Which of DrGPUM's two analyses to run (Sec. 1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnalysisLevel {
    /// Macroscopic object-level analysis only: GPU APIs are intercepted and
    /// kernels are patched with cheap hit flags (Fig. 5).
    #[default]
    ObjectLevel,
    /// Object-level plus microscopic intra-object analysis: sampled kernels
    /// are fully patched and per-element access maps are maintained.
    IntraObject,
}

/// Detection thresholds (all user-tunable; defaults from the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Redundant allocation: maximum size difference between reuse partners,
    /// as a percentage of the reused object's size (paper: 10 %).
    pub redundant_size_pct: f64,
    /// Temporary idleness: minimum number of intervening GPU APIs between
    /// two consecutive accesses (paper: 2).
    pub idleness_min_apis: u64,
    /// Overallocation: report objects with fewer than this percentage of
    /// bytes accessed (paper: 80 %).
    pub overalloc_accessed_pct: f64,
    /// Overallocation guidance: fragmentation below this percentage counts
    /// as "low" (paper: 80 %).
    pub overalloc_frag_pct: f64,
    /// Non-uniform access frequency: report when the coefficient of
    /// variation of element access counts exceeds this percentage
    /// (paper: 20 %).
    pub nuaf_cov_pct: f64,
    /// Structured access: minimum number of disjoint slices (at least two
    /// non-overlapping per-API footprints are needed for the pattern to be
    /// meaningful).
    pub structured_min_slices: usize,
    /// How many memory peaks the analyzer highlights (paper: top 2).
    pub top_peaks: usize,
    /// Unified-memory extension: minimum host↔device migrations of one page
    /// before it is reported as thrashing / false sharing.
    pub thrash_min_migrations: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            redundant_size_pct: 10.0,
            idleness_min_apis: 2,
            overalloc_accessed_pct: 80.0,
            overalloc_frag_pct: 80.0,
            nuaf_cov_pct: 20.0,
            structured_min_slices: 2,
            top_peaks: 2,
            thrash_min_migrations: 4,
        }
    }
}

/// Kernel sampling and whitelisting for intra-object analysis (Sec. 5.5).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SamplingPolicy {
    /// Fully patch one in `period` instances of each kernel; the paper's
    /// Figure 6 uses 100. A period of 0 or 1 patches every instance.
    pub period: u64,
    /// If set, only kernels with these names are ever fully patched.
    pub whitelist: Option<HashSet<String>>,
}

impl SamplingPolicy {
    /// Creates a policy that patches every instance of every kernel.
    pub fn every_instance() -> Self {
        SamplingPolicy {
            period: 1,
            whitelist: None,
        }
    }

    /// Creates a policy with a sampling period (the paper uses 100).
    pub fn with_period(period: u64) -> Self {
        SamplingPolicy {
            period,
            whitelist: None,
        }
    }

    /// Restricts full patching to the given kernel names (builder style).
    pub fn with_whitelist(mut self, kernels: impl IntoIterator<Item = String>) -> Self {
        self.whitelist = Some(kernels.into_iter().collect());
        self
    }

    /// Decides whether instance `instance` of kernel `name` is sampled for
    /// full patching.
    pub fn samples(&self, name: &str, instance: u64) -> bool {
        self.samples_scaled(name, instance, 1)
    }

    /// Like [`samples`](Self::samples), with the effective period multiplied
    /// by `scale`. The session governor uses this on the `Sampled` rung of
    /// the degradation ladder to thin collection without replacing the
    /// user's policy; `scale <= 1` is identical to `samples`.
    pub fn samples_scaled(&self, name: &str, instance: u64, scale: u64) -> bool {
        if let Some(wl) = &self.whitelist {
            if !wl.contains(name) {
                return false;
            }
        }
        let period = self.period.max(1).saturating_mul(scale.max(1));
        instance.is_multiple_of(period)
    }
}

/// Element width used by frequency maps, in bytes.
pub const DEFAULT_ELEM_SIZE: u32 = 4;

/// Complete profiler configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfilerOptions {
    /// Which analyses to run.
    pub analysis: AnalysisLevel,
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Kernel sampling for intra-object analysis.
    pub sampling: SamplingPolicy,
    /// Track pool tensors as first-class data objects (Sec. 5.4). Forces
    /// full patching so accesses can be attributed to tensors rather than
    /// the backing slab.
    pub track_pool_tensors: bool,
    /// Element width for frequency maps, in bytes. Also the junction
    /// alignment of the sanitizer's access merging (Sec. 5.5), which is
    /// always on, so merged records keep per-element counts exact.
    pub elem_size: u32,
    /// Resource limits enforced by the session governor. The default is
    /// unlimited; any unset field may still be filled from the environment
    /// (`DRGPUM_MEM_BUDGET`, `DRGPUM_DETECTOR_DEADLINE_MS`) when the
    /// collector is created, so explicit settings always win. When no limit
    /// ever trips, the governor is inert and reports are byte-identical to
    /// a run without it.
    pub budget: ResourceBudget,
}

impl ProfilerOptions {
    /// Object-level analysis with paper defaults.
    pub fn object_level() -> Self {
        ProfilerOptions {
            analysis: AnalysisLevel::ObjectLevel,
            thresholds: Thresholds::default(),
            sampling: SamplingPolicy::default(),
            track_pool_tensors: false,
            elem_size: DEFAULT_ELEM_SIZE,
            budget: ResourceBudget::default(),
        }
    }

    /// Intra-object analysis of every kernel instance, paper defaults.
    pub fn intra_object() -> Self {
        ProfilerOptions {
            analysis: AnalysisLevel::IntraObject,
            thresholds: Thresholds::default(),
            sampling: SamplingPolicy::every_instance(),
            track_pool_tensors: false,
            elem_size: DEFAULT_ELEM_SIZE,
            budget: ResourceBudget::default(),
        }
    }

    /// Enables pool-tensor tracking (builder style).
    pub fn with_pool_tracking(mut self) -> Self {
        self.track_pool_tensors = true;
        self
    }

    /// Replaces the sampling policy (builder style).
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> Self {
        self.sampling = sampling;
        self
    }

    /// Replaces the thresholds (builder style).
    pub fn with_thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Replaces the resource budget (builder style).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let t = Thresholds::default();
        assert_eq!(t.redundant_size_pct, 10.0);
        assert_eq!(t.idleness_min_apis, 2);
        assert_eq!(t.overalloc_accessed_pct, 80.0);
        assert_eq!(t.overalloc_frag_pct, 80.0);
        assert_eq!(t.nuaf_cov_pct, 20.0);
        assert_eq!(t.top_peaks, 2);
    }

    #[test]
    fn sampling_period() {
        let p = SamplingPolicy::with_period(100);
        assert!(p.samples("k", 0));
        assert!(!p.samples("k", 1));
        assert!(!p.samples("k", 99));
        assert!(p.samples("k", 100));
    }

    #[test]
    fn sampling_zero_period_means_every_instance() {
        let p = SamplingPolicy::default();
        assert_eq!(p.period, 0);
        assert!(p.samples("k", 0));
        assert!(p.samples("k", 7));
    }

    #[test]
    fn whitelist_restricts_kernels() {
        let p = SamplingPolicy::every_instance().with_whitelist(["hot".to_owned()]);
        assert!(p.samples("hot", 3));
        assert!(!p.samples("cold", 0));
    }

    #[test]
    fn analysis_default_is_object_level() {
        assert_eq!(AnalysisLevel::default(), AnalysisLevel::ObjectLevel);
    }
}
