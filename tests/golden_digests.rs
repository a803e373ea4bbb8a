//! Golden digests of the profiler's two byte-exact artifacts — rendered
//! report text and trace v2 text — for every registered workload at both
//! analysis levels on the rtx3090 platform.
//!
//! The digests pin today's output, so any change to collection,
//! aggregation, detection or serialization that moves a single byte of a
//! report or trace fails here, whatever code path produced it. A
//! deliberate output change must update the table and say why.
//!
//! Contexts are built with [`DeviceContext::with_config`] (one kernel
//! worker, whatever `DRGPUM_KERNEL_WORKERS` says) and every session gets an
//! explicit resident budget of `u64::MAX`, which never trips and keeps
//! `DRGPUM_MEM_BUDGET` from arming the degradation ladder.

use drgpum::prelude::*;
use drgpum::profiler::trace_io;
use drgpum::profiler::ResourceBudget;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::{RunConfig, WorkloadSpec};

/// 64-bit FNV-1a over `bytes`, folded with the length.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ bytes.len() as u64
}

/// Profiles one clean run and returns the digests of its report text and
/// trace v2 text.
fn digests(spec: &WorkloadSpec, intra: bool) -> (u64, u64) {
    let mut ctx = DeviceContext::with_config(SimConfig::new(PlatformConfig::rtx3090()));
    let mut options = if intra {
        ProfilerOptions::intra_object()
    } else {
        ProfilerOptions::object_level()
    };
    if let Some(elem) = spec.elem_size_hint {
        options.elem_size = elem;
    }
    options.track_pool_tensors = spec.uses_pool;
    options.budget = ResourceBudget {
        max_resident_bytes: Some(u64::MAX),
        ..ResourceBudget::unlimited()
    };
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
    let report = profiler.report(&ctx).render_text();
    (digest(report.as_bytes()), digest(trace.as_bytes()))
}

/// `(workload, intra, report digest, trace digest)`.
const GOLDEN: &[(&str, bool, u64, u64)] = &[
    ("huffman", false, 0x6d165223f8dd5e85, 0x419395c4a53a7233),
    ("huffman", true, 0x6d165223f8dd5e85, 0x340af68c3027f9fa),
    ("dwt2d", false, 0x7d72520f5c425bae, 0x35682cd871f5544e),
    ("dwt2d", true, 0x7d72520f5c425bae, 0x9ff417ad0e7fd24f),
    ("2MM", false, 0xea13d7eeec73000e, 0x1ca1cad8e01bca64),
    ("2MM", true, 0xea13d7eeec73000e, 0xb800dd85297a7d30),
    ("3MM", false, 0xe3db357926e55565, 0x997c5a1003f3a8cb),
    ("3MM", true, 0xe3db357926e55565, 0xa10988f8f65f7e0e),
    ("GramSchmidt", false, 0x6a39ea46aa67517c, 0x3563b2d3378c0d59),
    ("GramSchmidt", true, 0x364ee64f2be424eb, 0xa6d02db6235da131),
    ("BICG", false, 0x06b6752a2cd534df, 0x3a043cad3575a99c),
    ("BICG", true, 0xb9bcf58e7b0373e7, 0xc20facd27c3a032f),
    ("PyTorch", false, 0x558c5b6bc6c4ca59, 0xbacdf169685788d3),
    ("PyTorch", true, 0x558c5b6bc6c4ca59, 0xd0b00a91d6334337),
    ("Laghos", false, 0xcec112ff8a6e48b3, 0x8f2cb77bf47b88d0),
    ("Laghos", true, 0xcec112ff8a6e48b3, 0x20f8ebafbf07997d),
    ("Darknet", false, 0x8f160a597eef4c60, 0xb9bf2ef6dad9b4da),
    ("Darknet", true, 0x8f160a597eef4c60, 0xbe83be5b16aa47d1),
    ("XSBench", false, 0x977addf9c0e7601f, 0xc5a126027e597797),
    ("XSBench", true, 0x652519e6848b1103, 0x39309222f3d9adec),
    ("MiniMDock", false, 0xdd2ec25468269000, 0xd9d2a4865cb1fab8),
    ("MiniMDock", true, 0x69f3f651b9703fd9, 0xb9bcd7c47c46ce46),
    (
        "SimpleMultiCopy",
        false,
        0xd16e206e5ef1bab2,
        0xd82e0b02ed1ab4b3,
    ),
    (
        "SimpleMultiCopy",
        true,
        0xd16e206e5ef1bab2,
        0xbf62c94dbf62c1ba,
    ),
];

#[test]
fn reports_and_traces_match_golden_digests() {
    let mut got = Vec::new();
    for spec in drgpum::workloads::all() {
        for intra in [false, true] {
            let (report, trace) = digests(&spec, intra);
            got.push((spec.name.to_owned(), intra, report, trace));
        }
    }
    let table: String = got
        .iter()
        .map(|(name, intra, r, t)| format!("    (\"{name}\", {intra}, {r:#018x}, {t:#018x}),\n"))
        .collect();
    let want: Vec<(String, bool, u64, u64)> = GOLDEN
        .iter()
        .map(|&(n, i, r, t)| (n.to_owned(), i, r, t))
        .collect();
    assert!(got == want, "digests moved; current table:\n{table}");
}
