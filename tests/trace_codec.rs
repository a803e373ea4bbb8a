//! The trace v2 and DRGPUM-STREAM codec, checked against the JSON tree
//! parser and printer, and fuzzed.
//!
//! * Conformance: every payload the writer emits is exactly what
//!   `serde_json` prints for it, and every other spelling of the same JSON —
//!   pretty-printed, keys reversed, unknown and repeated keys — loads to
//!   the same trace.
//! * Fuzzing: payloads are mutated byte by byte and re-framed with a
//!   correct length and CRC, so the damage reaches the payload reader
//!   rather than stopping at the checksum; whole files are mutated and cut
//!   without re-framing too. Strict loading returns `Ok` or a typed error,
//!   rejects exactly the payloads the tree parser rejects (with its error),
//!   and salvage never panics or recovers more than the intact trace holds.

use drgpum::prelude::*;
use drgpum::profiler::trace_io::{self, SavedTrace};
use drgpum::profiler::ResourceBudget;
use drgpum::profiler::TraceError;
use drgpum::sim::SplitMix64;
use drgpum::workloads::common::Variant;
use drgpum::workloads::registry::{RunConfig, WorkloadSpec};
use serde_json::Value;
use std::path::PathBuf;

/// A trace file split into its header line and `(name, payload)` frames.
struct Framed {
    header: String,
    sections: Vec<(String, String)>,
}

impl Framed {
    /// Splits intact framed text (batch, or a cleanly finished stream).
    fn parse(text: &str) -> Framed {
        let (header, mut rest) = text.split_once('\n').expect("header line");
        let mut sections = Vec::new();
        while let Some(frame) = rest.strip_prefix("section ") {
            let (line, tail) = frame.split_once('\n').expect("frame line");
            let words: Vec<&str> = line.split(' ').collect();
            let len: usize = words[1].parse().expect("frame length");
            sections.push((words[0].to_owned(), tail[..len].to_owned()));
            rest = &tail[len + 1..];
        }
        assert_eq!(rest, "end\n", "intact text ends with the end marker");
        Framed {
            header: header.to_owned(),
            sections,
        }
    }

    /// Frames the sections again, each with its true length and CRC.
    fn text(&self) -> String {
        let mut out = format!("{}\n", self.header);
        for (name, payload) in &self.sections {
            out.push_str(&format!(
                "section {name} {} {}\n{payload}\n",
                payload.len(),
                trace_io::crc32(payload.as_bytes())
            ));
        }
        out.push_str("end\n");
        out
    }

    /// A copy with every payload rewritten by `f`.
    fn map(&self, f: impl Fn(&str) -> String) -> Framed {
        Framed {
            header: self.header.clone(),
            sections: self
                .sections
                .iter()
                .map(|(name, payload)| (name.clone(), f(payload)))
                .collect(),
        }
    }
}

fn options(spec: Option<&WorkloadSpec>, intra: bool) -> ProfilerOptions {
    let mut options = if intra {
        ProfilerOptions::intra_object()
    } else {
        ProfilerOptions::object_level()
    };
    if let Some(spec) = spec {
        if let Some(elem) = spec.elem_size_hint {
            options.elem_size = elem;
        }
        options.track_pool_tensors = spec.uses_pool;
    }
    options.budget = ResourceBudget {
        max_resident_bytes: Some(u64::MAX),
        ..ResourceBudget::unlimited()
    };
    options
}

/// Profiles one clean run of a registered workload; returns its trace text.
fn workload_trace(spec: &WorkloadSpec, intra: bool) -> String {
    let mut ctx = DeviceContext::with_config(SimConfig::new(PlatformConfig::rtx3090()));
    let profiler = Profiler::attach(&mut ctx, options(Some(spec), intra));
    let cfg = RunConfig {
        pool_observer: spec
            .uses_pool
            .then(|| profiler.collector() as drgpum::sim::pool::SharedPoolObserver),
    };
    (spec.run)(&mut ctx, Variant::Unoptimized, &cfg)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name));
    let collector = profiler.collector();
    let collector = collector.lock();
    trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text()
}

/// A small program that fills every section, the unified-memory one
/// included: device and managed allocations, memsets, copies, a kernel
/// with uneven per-element access counts, a free and a leak.
fn small_program(ctx: &mut DeviceContext) {
    let a = ctx.malloc(1024, "a").unwrap();
    let b = ctx.malloc(512, "b").unwrap();
    let managed = ctx.malloc_managed(4096, "managed").unwrap();
    ctx.memset(a, 0, 1024).unwrap();
    ctx.memcpy_d2d(b, a, 512).unwrap();
    for round in 0..3u64 {
        let v = ctx.managed_read_f32(managed).unwrap();
        ctx.managed_write_f32(managed, v + 1.0).unwrap();
        ctx.launch(
            "touch",
            LaunchConfig::cover(64, 32).unwrap(),
            StreamId::DEFAULT,
            move |t| {
                let i = t.global_x();
                if i < 64 && i % (round + 1) == 0 {
                    t.store_f32(a + i * 4, 1.0);
                    let v = t.load_f32(managed);
                    t.store_f32(managed, v * 2.0);
                }
            },
        )
        .unwrap();
    }
    ctx.sync_device();
    ctx.free(b).unwrap();
    ctx.free(managed).unwrap();
    // `a` leaks.
}

fn small_trace() -> String {
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, options(None, true));
    small_program(&mut ctx);
    let collector = profiler.collector();
    let collector = collector.lock();
    trace_io::save(&collector, ctx.call_stack().table(), "rtx3090").to_text()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drgpum-codec-{}-{name}", std::process::id()))
}

/// The small program, streamed and cleanly finished.
fn small_stream() -> String {
    let path = temp_path("small.stream");
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach_streaming(&mut ctx, options(None, true), &path)
        .expect("trace file creatable");
    small_program(&mut ctx);
    profiler.finish_stream().expect("clean finish");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    text
}

/// What strict loading and salvage make of `text`, as comparable text.
fn loaded(text: &str) -> String {
    trace_io::load(text).expect("loads").to_text()
}

fn salvaged(text: &str) -> String {
    let (trace, losses) = trace_io::salvage(text);
    assert!(losses.is_lossless(), "{:?}", losses.notes);
    trace.to_text()
}

/// Prints `v` with every object's keys in reverse order, an unknown member
/// first, each key given twice (first with a value of the wrong shape,
/// which the second must override), and whitespace wherever JSON allows.
fn print_scrambled(out: &mut String, v: &Value) {
    match v {
        Value::Array(items) => {
            out.push_str("[\t");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(" ,\r\n");
                }
                print_scrambled(out, item);
            }
            out.push_str(" ]");
        }
        Value::Object(map) => {
            out.push_str(r#"{ "zz_unknown" : {"skip":[1,-2.5e3,"\u0041\n",null,true,{}]}"#);
            for (key, item) in map.iter().rev() {
                let key = serde_json::to_string(&Value::String(key.clone())).unwrap();
                out.push_str(&format!(" ,{key}\t:{{\"wrong\":[false]}},\n{key} : "));
                print_scrambled(out, item);
            }
            out.push_str("\n}");
        }
        scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
    }
}

fn scrambled(payload: &str) -> String {
    let mut out = String::new();
    print_scrambled(
        &mut out,
        &serde_json::from_str(payload).expect("payload is JSON"),
    );
    out
}

fn pretty(payload: &str) -> String {
    let tree: Value = serde_json::from_str(payload).expect("payload is JSON");
    serde_json::to_string_pretty(&tree).unwrap()
}

/// The writer's payloads are the tree printer's, byte for byte.
fn assert_canonical(what: &str, framed: &Framed) {
    for (name, payload) in &framed.sections {
        let tree: Value = serde_json::from_str(payload)
            .unwrap_or_else(|e| panic!("{what} `{name}` is not JSON: {e}"));
        assert!(
            serde_json::to_string(&tree).unwrap() == *payload,
            "{what} `{name}`: the writer and the tree printer disagree"
        );
    }
}

#[test]
fn every_workload_trace_is_canonical_and_loads_from_any_spelling() {
    for spec in drgpum::workloads::all() {
        for intra in [false, true] {
            let what = format!("{} (intra {intra})", spec.name);
            let text = workload_trace(&spec, intra);
            let framed = Framed::parse(&text);
            assert_canonical(&what, &framed);
            assert_eq!(framed.text(), text, "{what}: framing helper is exact");
            assert_eq!(
                loaded(&text),
                text,
                "{what}: load then save is the identity"
            );
            assert_eq!(loaded(&framed.map(pretty).text()), text, "{what}: pretty");
            assert_eq!(
                loaded(&framed.map(scrambled).text()),
                text,
                "{what}: reordered, unknown and repeated keys"
            );
        }
    }
}

#[test]
fn stream_frames_are_canonical_and_load_from_any_spelling() {
    let text = small_stream();
    let framed = Framed::parse(&text);
    let kinds: Vec<&str> = framed.sections.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        kinds.contains(&"delta") && kinds.contains(&"checkpoint"),
        "{kinds:?}"
    );
    assert_canonical("stream", &framed);
    let intact = salvaged(&text);
    assert_eq!(salvaged(&framed.map(pretty).text()), intact);
    assert_eq!(salvaged(&framed.map(scrambled).text()), intact);
    // The stream recovers the batch recording of the same program.
    assert_eq!(intact, loaded(&small_trace()));
}

#[test]
fn escapes_and_non_ascii_round_trip_byte_identically() {
    let odd = "q\"uote \\back\nline \u{1}ctl \u{7f} é→😀";
    let mut ctx = DeviceContext::new_default();
    let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
    ctx.with_frame(SourceLoc::new(odd, "dir\\odd\"file\n.cu", 7), |ctx| {
        let p = ctx.malloc(64, odd).unwrap();
        ctx.memset(p, 0, 64).unwrap();
    });
    let collector = profiler.collector();
    let collector = collector.lock();
    let saved = trace_io::save(&collector, ctx.call_stack().table(), odd);
    drop(collector);
    let text = saved.to_text();
    for escaped in [
        r#"q\"uote"#,
        r"\\back\nline",
        r"\u0001ctl",
        "\u{7f} é→😀",
        r#"odd\"file\n.cu"#,
    ] {
        assert!(text.contains(escaped), "missing {escaped:?}");
    }
    let framed = Framed::parse(&text);
    assert_canonical("odd strings", &framed);
    assert_eq!(loaded(&text), text);
    assert_eq!(loaded(&framed.map(scrambled).text()), text);
    // Escaping what needs none (`\u00e9` for `é`, `\/` for `/`) decodes to
    // the plain spelling.
    let respelled = framed.map(|p| p.replace('é', r"\u00e9").replace("dir", r"d\/ir"));
    let plain = framed.map(|p| p.replace("dir", "d/ir")).text();
    assert_eq!(loaded(&respelled.text()), plain);
}

/// Bytes a mutation inserts: mostly JSON's own syntax, so the damage
/// reaches deep into the reader rather than failing at the first byte.
const SYNTAX: &[u8] = b"[]{},:\"\\-+.eE0123456789 \ntrufalsn\x01\xff";

fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>) {
    for _ in 0..1 + rng.next_below(3) {
        let at = rng.next_below(bytes.len() as u64 + 1) as usize;
        match rng.next_below(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.next_below(8),
            1 => bytes.insert(at, SYNTAX[rng.next_below(SYNTAX.len() as u64) as usize]),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
}

/// Re-framed payload damage in a batch trace: strict loading rejects
/// exactly the payloads the tree parser rejects, with the parser's error,
/// and salvage agrees with strict loading about whether anything was lost.
fn fuzz_batch_payloads(text: &str, rng: &mut SplitMix64, rounds: usize) {
    let framed = Framed::parse(text);
    for round in 0..rounds {
        let mut damaged = Framed {
            header: framed.header.clone(),
            sections: framed.sections.clone(),
        };
        let idx = rng.next_below(damaged.sections.len() as u64) as usize;
        let (name, payload) = &mut damaged.sections[idx];
        let mut bytes = payload.clone().into_bytes();
        mutate(rng, &mut bytes);
        *payload = String::from_utf8_lossy(&bytes).into_owned();
        let (name, payload) = (name.clone(), payload.clone());
        let text = damaged.text();

        let strict = trace_io::load(&text);
        if let Err(e) = serde_json::from_str(&payload) {
            match &strict {
                Err(TraceError::Malformed { section, reason }) => {
                    assert_eq!(*section, name, "round {round}");
                    assert_eq!(*reason, e.to_string(), "round {round}: {payload:?}");
                }
                other => panic!("round {round}: `{name}` {payload:?} is not JSON, got {other:?}"),
            }
        }
        let (trace, losses) = trace_io::salvage(&text);
        match strict {
            Ok(t) => {
                assert!(losses.is_lossless(), "round {round}: {:?}", losses.notes);
                assert_eq!(trace.to_text(), t.to_text(), "round {round}");
            }
            Err(_) => assert!(!losses.is_lossless(), "round {round}: silent loss"),
        }
    }
}

/// Re-framed payload damage in a stream: salvage never panics and stops
/// at a payload that is not JSON, naming the parser's error.
fn fuzz_stream_payloads(text: &str, rng: &mut SplitMix64, rounds: usize) {
    let framed = Framed::parse(text);
    for round in 0..rounds {
        let mut sections = framed.sections.clone();
        let idx = rng.next_below(sections.len() as u64) as usize;
        let mut bytes = sections[idx].1.clone().into_bytes();
        mutate(rng, &mut bytes);
        sections[idx].1 = String::from_utf8_lossy(&bytes).into_owned();
        let payload = sections[idx].1.clone();
        let damaged = Framed {
            header: framed.header.clone(),
            sections,
        };
        let (_, losses) = trace_io::salvage(&damaged.text());
        if let Err(e) = serde_json::from_str(&payload) {
            let e = e.to_string();
            assert!(
                losses
                    .notes
                    .iter()
                    .any(|n| n.contains("damaged streaming frame") && n.contains(&e)),
                "round {round}: {:?}",
                losses.notes
            );
        }
    }
}

/// Raw damage with no re-framing, and truncation: neither reader panics,
/// and a truncated file never salvages more than the intact one holds.
fn fuzz_raw(text: &str, rng: &mut SplitMix64, rounds: usize) {
    let (intact, _) = trace_io::salvage(text);
    for round in 0..rounds {
        let mut bytes = text.as_bytes().to_vec();
        let truncated = rng.chance(0.5);
        if truncated {
            bytes.truncate(rng.next_below(bytes.len() as u64) as usize);
        } else {
            mutate(rng, &mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        let strict = trace_io::load(&text);
        let (trace, losses): (SavedTrace, _) = trace_io::salvage(&text);
        if strict.is_err() && !trace_io::is_stream_trace(&text) {
            assert!(!losses.is_lossless(), "round {round}: silent loss");
        }
        if truncated {
            assert!(trace.api_count() <= intact.api_count(), "round {round}");
            assert!(
                trace.object_count() <= intact.object_count(),
                "round {round}"
            );
        }
    }
}

#[test]
fn fuzzed_batch_traces_fail_cleanly() {
    let mut rng = SplitMix64::new(0xF022_7ACE);
    let huffman = drgpum::workloads::by_name("huffman").expect("registered");
    let two_mm = drgpum::workloads::by_name("2MM").expect("registered");
    for text in [
        small_trace(),
        workload_trace(&huffman, false),
        workload_trace(&two_mm, true),
    ] {
        fuzz_batch_payloads(&text, &mut rng, 300);
        fuzz_raw(&text, &mut rng, 150);
    }
}

#[test]
fn fuzzed_streams_fail_cleanly() {
    let mut rng = SplitMix64::new(0x57E4_3A11);
    let text = small_stream();
    fuzz_stream_payloads(&text, &mut rng, 300);
    fuzz_raw(&text, &mut rng, 150);
}
