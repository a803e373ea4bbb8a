//! Saving, loading, and re-analyzing traces offline — resiliently.
//!
//! DrGPUM's workflow splits online collection from offline analysis
//! (Fig. 1). This module makes that split durable: [`save`] serializes
//! everything the offline analyzer consumes — the GPU-API trace with object
//! def/use sets, object metadata with resolved call paths, the usage curve,
//! and the intra-object access maps — and [`SavedTrace::reanalyze`] re-runs
//! the detectors on the saved data, possibly with *different thresholds*,
//! without re-running the program. That is how a user tunes the paper's
//! user-tunable `X` parameters (Sec. 3) interactively over one recording.
//!
//! # On-disk format (version 2)
//!
//! Traces written by crashing or fault-injected runs are routinely cut
//! short, so the format is framed for damage containment:
//!
//! ```text
//! DRGPUM-TRACE 2
//! section meta <byte-len> <crc32>
//! {...json payload, exactly byte-len bytes...}
//! section apis <byte-len> <crc32>
//! [...]
//! ...
//! end
//! ```
//!
//! Every section carries its own length and CRC-32, so a reader can tell
//! exactly which sections of a damaged file are intact. Two readers exist:
//!
//! * [`load`] is **strict**: any framing damage, checksum mismatch, version
//!   skew, or dangling cross-reference is a typed [`TraceError`].
//! * [`salvage`] **never fails**: it keeps every section that checks out,
//!   drops damaged sections and dangling records, and reports what was
//!   lost as [`DegradationRecord`]s so a partial report is honest about
//!   being partial.
//!
//! Payloads are compact JSON with sorted keys. Each row type has one
//! `write_*` function that prints it straight into the frame and one
//! `read_*` function that decodes it with a pull [`Reader`], so no JSON
//! tree is built on either side. The reader accepts exactly what
//! `serde_json::from_str` accepts — any whitespace, key order and escapes,
//! repeated keys (the last wins), unknown keys (skipped) — and reports the
//! same error for a payload that is not JSON.

use crate::accessmap::{AccessBitmap, FreqMap, RangeSet};
use crate::analyzer::{self, ObjectMeta};
use crate::collector::{Collector, GpuApi, RawAccess};
use crate::depgraph::{DependencyGraph, VertexAccess};
use crate::error::TraceError;
use crate::object::{DataObject, ObjectId, ObjectSource};
use crate::options::Thresholds;
use crate::patterns::intra::{IntraObjectData, NuafObservation};
use crate::patterns::unified::UnifiedPageStats;
use crate::patterns::{ApiRef, ObjectAccess, ObjectView, TraceView};
use crate::peaks::UsageSample;
use crate::report::{DegradationRecord, Report};
use gpu_sim::{FrameTable, StreamId};
use serde_json::{write_escaped, write_number, Number, Reader};
use std::collections::{HashMap, HashSet};

/// Serialization format version this build writes and reads strictly.
pub const FORMAT_VERSION: u32 = 2;

/// Magic word opening every trace file.
const MAGIC: &str = "DRGPUM-TRACE";

#[derive(Debug, Clone)]
struct SavedApi {
    name: String,
    detail: String,
    mnemonic: String,
    stream: u32,
    reads: Vec<u64>,
    writes: Vec<u64>,
    frees: Vec<u64>,
    after: Vec<usize>,
    start_ns: u64,
    end_ns: u64,
    call_path: Vec<String>,
}

#[derive(Debug, Clone)]
struct SavedAccess {
    api_idx: usize,
    object: u64,
    read: bool,
    write: bool,
    via: String,
}

#[derive(Debug, Clone)]
struct SavedObject {
    id: u64,
    label: String,
    size: u64,
    source: String,
    alloc_api: usize,
    alloc_is_api: bool,
    free_api: Option<usize>,
    free_is_api: bool,
    alloc_path: Vec<String>,
}

#[derive(Debug, Clone)]
struct SavedIntra {
    object: u64,
    size: u64,
    /// Accessed byte ranges (the bitmap, run-length encoded).
    accessed_ranges: Vec<(u64, u64)>,
    per_api: Vec<(usize, Vec<(u64, u64)>)>,
    nuaf_peak: Option<NuafObservation>,
    lifetime_elem_size: Option<u32>,
    /// Sparse nonzero lifetime counts `(element index, count)`.
    lifetime_counts: Vec<(u64, u32)>,
}

#[derive(Debug, Clone)]
struct SavedUnifiedPage {
    object: u64,
    page_index: u32,
    migrations: u64,
    host_ranges: Vec<(u64, u64)>,
    device_ranges: Vec<(u64, u64)>,
}

/// One streaming `delta` frame: rows appended since the previous frame,
/// plus rows emitted earlier whose content changed since.
#[derive(Debug)]
struct StreamDelta {
    apis: Vec<SavedApi>,
    api_updates: Vec<(usize, SavedApi)>,
    accesses: Vec<SavedAccess>,
    objects: Vec<SavedObject>,
    object_updates: Vec<SavedObject>,
    usage: Vec<(usize, u64)>,
}

/// One streaming `checkpoint` frame: the full intra-object and
/// unified-memory maps as of API `api_count`.
#[derive(Debug)]
struct StreamCheckpoint {
    api_count: usize,
    intra: Vec<SavedIntra>,
    unified: Vec<SavedUnifiedPage>,
}

/// A complete, self-contained recording of one profiled run.
#[derive(Debug, Clone)]
pub struct SavedTrace {
    /// Format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// Platform name of the recorded run.
    pub platform: String,
    apis: Vec<SavedApi>,
    accesses: Vec<SavedAccess>,
    objects: Vec<SavedObject>,
    usage: Vec<(usize, u64)>,
    intra: Vec<SavedIntra>,
    unified: Vec<SavedUnifiedPage>,
}

fn via_str(via: crate::patterns::AccessVia) -> &'static str {
    match via {
        crate::patterns::AccessVia::Memcpy => "memcpy",
        crate::patterns::AccessVia::Memset => "memset",
        crate::patterns::AccessVia::Kernel => "kernel",
    }
}

fn via_parse(s: &str) -> crate::patterns::AccessVia {
    match s {
        "memcpy" => crate::patterns::AccessVia::Memcpy,
        "memset" => crate::patterns::AccessVia::Memset,
        _ => crate::patterns::AccessVia::Kernel,
    }
}

fn source_str(s: ObjectSource) -> &'static str {
    match s {
        ObjectSource::Cuda => "cuda",
        ObjectSource::PoolSlab => "pool_slab",
        ObjectSource::PoolTensor => "pool_tensor",
    }
}

fn source_parse(s: &str) -> ObjectSource {
    match s {
        "pool_slab" => ObjectSource::PoolSlab,
        "pool_tensor" => ObjectSource::PoolTensor,
        _ => ObjectSource::Cuda,
    }
}

/// Builds one serializable API row from the collector's in-memory record
/// and its already-resolved call path. Shared by [`save`] and the
/// streaming-delta writer.
fn api_row(a: &GpuApi, call_path: Vec<String>) -> SavedApi {
    SavedApi {
        name: a.name.clone(),
        detail: a.detail.clone(),
        mnemonic: a.mnemonic.to_owned(),
        stream: a.stream.0,
        reads: a.vertex.reads.iter().map(|o| o.0).collect(),
        writes: a.vertex.writes.iter().map(|o| o.0).collect(),
        frees: a.vertex.frees.iter().map(|o| o.0).collect(),
        after: a.vertex.after.clone(),
        start_ns: a.start_ns,
        end_ns: a.end_ns,
        call_path,
    }
}

fn access_row(a: &RawAccess) -> SavedAccess {
    SavedAccess {
        api_idx: a.api_idx,
        object: a.object.0,
        read: a.read,
        write: a.write,
        via: via_str(a.via).to_owned(),
    }
}

fn object_row(o: &DataObject, alloc_path: Vec<String>) -> SavedObject {
    SavedObject {
        id: o.id.0,
        label: o.label.clone(),
        size: o.size(),
        source: source_str(o.source).to_owned(),
        alloc_api: o.alloc_api,
        alloc_is_api: o.alloc_is_api,
        free_api: o.free_api,
        free_is_api: o.free_is_api,
        alloc_path,
    }
}

fn intra_row(d: &IntraObjectData) -> SavedIntra {
    // Run-length encode the bitmap as its accessed ranges (word-scan:
    // the former per-bit loop dominated export of large objects).
    SavedIntra {
        object: d.object.0,
        size: d.bitmap.len(),
        accessed_ranges: d.bitmap.accessed_ranges(),
        per_api: d
            .per_api
            .iter()
            .map(|(idx, rs)| (*idx, rs.ranges().to_vec()))
            .collect(),
        nuaf_peak: d.nuaf_peak.clone(),
        lifetime_elem_size: d.lifetime_freq.as_ref().map(FreqMap::elem_size),
        lifetime_counts: d
            .lifetime_freq
            .as_ref()
            .map(|f| {
                f.counts()
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (i as u64, c))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

fn unified_row(p: &UnifiedPageStats) -> SavedUnifiedPage {
    SavedUnifiedPage {
        object: p.object.0,
        page_index: p.page_index,
        migrations: p.migrations,
        host_ranges: p.host_ranges.ranges().to_vec(),
        device_ranges: p.device_ranges.ranges().to_vec(),
    }
}

/// Serializes a collector's recording.
pub fn save(collector: &Collector, frames: &FrameTable, platform: &str) -> SavedTrace {
    let resolve = |path: &gpu_sim::CallPath| -> Vec<String> {
        path.frames()
            .iter()
            .rev()
            .map(|id| {
                frames
                    .resolve(*id)
                    .map(|l| l.to_string())
                    .unwrap_or_else(|| format!("<unknown frame {}>", id.0))
            })
            .collect()
    };
    let apis = collector
        .gpu_apis()
        .iter()
        .map(|a| api_row(a, resolve(&a.call_path)))
        .collect();
    let accesses = collector.accesses().iter().map(access_row).collect();
    let objects = collector
        .registry()
        .iter()
        .map(|o| object_row(o, resolve(&o.alloc_path)))
        .collect();
    let usage = collector
        .usage_curve()
        .iter()
        .map(|s| (s.api_idx, s.bytes_in_use))
        .collect();
    let intra = collector
        .intra_data()
        .iter()
        .map(|d| intra_row(d))
        .collect();
    let unified = collector
        .unified_page_stats()
        .iter()
        .map(unified_row)
        .collect();
    SavedTrace {
        version: FORMAT_VERSION,
        platform: platform.to_owned(),
        apis,
        accesses,
        objects,
        usage,
        intra,
        unified,
    }
}

// ---------------------------------------------------------------------------
// Encoding: compact JSON with sorted keys, written straight into the frame
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables for the CRC-32 (IEEE 802.3 polynomial, reflected):
/// entry `[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the CRC with eight lookups.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a section payload, as its
/// frame header records it. Folds eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Writes one framed section whose payload `body` appends to the buffer.
fn write_section(out: &mut String, name: &str, body: impl FnOnce(&mut String)) {
    let start = out.len();
    body(out);
    let header = format!(
        "section {name} {} {}\n",
        out.len() - start,
        crc32(&out.as_bytes()[start..])
    );
    out.insert_str(start, &header);
    out.push('\n');
}

/// Writes `{"name":` for the first member of an object, `,"name":` after.
fn key(out: &mut String, first: bool, name: &str) {
    out.push(if first { '{' } else { ',' });
    write_escaped(out, name);
    out.push(':');
}

fn write_num(out: &mut String, n: impl Into<Number>) {
    write_number(out, &n.into());
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

fn write_opt<T: Copy>(out: &mut String, v: Option<T>, write: impl FnOnce(&mut String, T)) {
    match v {
        Some(v) => write(out, v),
        None => out.push_str("null"),
    }
}

/// Writes `[item,item,...]`.
fn write_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

fn write_nums<T: Copy + Into<Number>>(out: &mut String, items: &[T]) {
    write_list(out, items, |out, &n| write_num(out, n));
}

fn write_strs(out: &mut String, items: &[String]) {
    write_list(out, items, |out, s| write_escaped(out, s));
}

fn write_pair(out: &mut String, a: impl Into<Number>, b: impl Into<Number>) {
    out.push('[');
    write_num(out, a);
    out.push(',');
    write_num(out, b);
    out.push(']');
}

fn write_pairs<A: Copy + Into<Number>, B: Copy + Into<Number>>(out: &mut String, pairs: &[(A, B)]) {
    write_list(out, pairs, |out, &(a, b)| write_pair(out, a, b));
}

fn write_meta(out: &mut String, platform: &str) {
    key(out, true, "platform");
    write_escaped(out, platform);
    out.push('}');
}

fn write_api(out: &mut String, a: &SavedApi) {
    key(out, true, "after");
    write_nums(out, &a.after);
    key(out, false, "call_path");
    write_strs(out, &a.call_path);
    key(out, false, "detail");
    write_escaped(out, &a.detail);
    key(out, false, "end_ns");
    write_num(out, a.end_ns);
    key(out, false, "frees");
    write_nums(out, &a.frees);
    key(out, false, "mnemonic");
    write_escaped(out, &a.mnemonic);
    key(out, false, "name");
    write_escaped(out, &a.name);
    key(out, false, "reads");
    write_nums(out, &a.reads);
    key(out, false, "start_ns");
    write_num(out, a.start_ns);
    key(out, false, "stream");
    write_num(out, a.stream);
    key(out, false, "writes");
    write_nums(out, &a.writes);
    out.push('}');
}

fn write_access(out: &mut String, a: &SavedAccess) {
    out.push('[');
    write_num(out, a.api_idx);
    out.push(',');
    write_num(out, a.object);
    out.push(',');
    write_bool(out, a.read);
    out.push(',');
    write_bool(out, a.write);
    out.push(',');
    write_escaped(out, &a.via);
    out.push(']');
}

fn write_object(out: &mut String, o: &SavedObject) {
    key(out, true, "alloc_api");
    write_num(out, o.alloc_api);
    key(out, false, "alloc_is_api");
    write_bool(out, o.alloc_is_api);
    key(out, false, "alloc_path");
    write_strs(out, &o.alloc_path);
    key(out, false, "free_api");
    write_opt(out, o.free_api, write_num);
    key(out, false, "free_is_api");
    write_bool(out, o.free_is_api);
    key(out, false, "id");
    write_num(out, o.id);
    key(out, false, "label");
    write_escaped(out, &o.label);
    key(out, false, "size");
    write_num(out, o.size);
    key(out, false, "source");
    write_escaped(out, &o.source);
    out.push('}');
}

fn write_intra(out: &mut String, s: &SavedIntra) {
    key(out, true, "accessed_ranges");
    write_pairs(out, &s.accessed_ranges);
    key(out, false, "lifetime_counts");
    write_pairs(out, &s.lifetime_counts);
    key(out, false, "lifetime_elem_size");
    write_opt(out, s.lifetime_elem_size, write_num);
    key(out, false, "nuaf_peak");
    match &s.nuaf_peak {
        Some((idx, cov, hist)) => {
            out.push('[');
            write_num(out, *idx);
            out.push(',');
            write_num(out, *cov);
            out.push(',');
            write_pairs(out, hist);
            out.push(']');
        }
        None => out.push_str("null"),
    }
    key(out, false, "object");
    write_num(out, s.object);
    key(out, false, "per_api");
    write_list(out, &s.per_api, |out, (idx, ranges)| {
        out.push('[');
        write_num(out, *idx);
        out.push(',');
        write_pairs(out, ranges);
        out.push(']');
    });
    key(out, false, "size");
    write_num(out, s.size);
    out.push('}');
}

fn write_unified(out: &mut String, p: &SavedUnifiedPage) {
    key(out, true, "device_ranges");
    write_pairs(out, &p.device_ranges);
    key(out, false, "host_ranges");
    write_pairs(out, &p.host_ranges);
    key(out, false, "migrations");
    write_num(out, p.migrations);
    key(out, false, "object");
    write_num(out, p.object);
    key(out, false, "page_index");
    write_num(out, p.page_index);
    out.push('}');
}

fn write_delta(out: &mut String, d: &StreamDelta) {
    key(out, true, "accesses");
    write_list(out, &d.accesses, write_access);
    key(out, false, "api_updates");
    write_list(out, &d.api_updates, |out, (idx, row)| {
        out.push('[');
        write_num(out, *idx);
        out.push(',');
        write_api(out, row);
        out.push(']');
    });
    key(out, false, "apis");
    write_list(out, &d.apis, write_api);
    key(out, false, "object_updates");
    write_list(out, &d.object_updates, write_object);
    key(out, false, "objects");
    write_list(out, &d.objects, write_object);
    key(out, false, "usage");
    write_pairs(out, &d.usage);
    out.push('}');
}

fn write_checkpoint(out: &mut String, c: &StreamCheckpoint) {
    key(out, true, "api_count");
    write_num(out, c.api_count);
    key(out, false, "intra");
    write_list(out, &c.intra, write_intra);
    key(out, false, "unified");
    write_list(out, &c.unified, write_unified);
    out.push('}');
}

// ---------------------------------------------------------------------------
// Decoding: a pull reader over the payload, straight into the row types
// ---------------------------------------------------------------------------

/// Why a section payload did not decode.
#[derive(Debug)]
enum DecodeError {
    /// The payload is not JSON; the error `serde_json::from_str` reports.
    Syntax(serde_json::Error),
    /// The payload is JSON of the wrong shape.
    Shape(String),
}

impl From<serde_json::Error> for DecodeError {
    fn from(e: serde_json::Error) -> Self {
        DecodeError::Syntax(e)
    }
}

impl DecodeError {
    fn into_trace_error(self, section: &str) -> TraceError {
        TraceError::Malformed {
            section: section.to_owned(),
            reason: match self {
                DecodeError::Syntax(e) => e.to_string(),
                DecodeError::Shape(reason) => reason,
            },
        }
    }
}

type Decoded<T> = Result<T, DecodeError>;

/// Separates a JSON error (`Err`) from a shape error (`Ok(Err(reason))`).
fn split<T>(d: Decoded<T>) -> Result<Result<T, String>, serde_json::Error> {
    match d {
        Ok(v) => Ok(Ok(v)),
        Err(DecodeError::Shape(reason)) => Ok(Err(reason)),
        Err(DecodeError::Syntax(e)) => Err(e),
    }
}

fn shape<T>(reason: String) -> Decoded<T> {
    Err(DecodeError::Shape(reason))
}

fn read_u64(r: &mut Reader, what: &str) -> Decoded<u64> {
    if let Some(b'-' | b'0'..=b'9') = r.peek() {
        if let Number::PosInt(n) = r.number()? {
            return Ok(n);
        }
    }
    shape(format!("{what} is not a non-negative integer"))
}

fn read_u32(r: &mut Reader, what: &str) -> Decoded<u32> {
    u32::try_from(read_u64(r, what)?).or_else(|_| shape(format!("{what} exceeds u32")))
}

fn read_usize(r: &mut Reader, what: &str) -> Decoded<usize> {
    usize::try_from(read_u64(r, what)?).or_else(|_| shape(format!("{what} exceeds usize")))
}

fn read_f64(r: &mut Reader, what: &str) -> Decoded<f64> {
    match r.peek() {
        Some(b'-' | b'0'..=b'9') => Ok(r.number()?.as_f64()),
        _ => shape(format!("{what} is not a number")),
    }
}

fn read_bool(r: &mut Reader, what: &str) -> Decoded<bool> {
    match r.peek() {
        Some(b't' | b'f') => Ok(r.boolean()?),
        _ => shape(format!("{what} is not a boolean")),
    }
}

fn read_string(r: &mut Reader, what: &str) -> Decoded<String> {
    match r.peek() {
        Some(b'"') => Ok(r.string()?.into_owned()),
        _ => shape(format!("{what} is not a string")),
    }
}

/// Reads `null` as `None`, anything else with `read`.
fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Option<T>> {
    if r.null()? {
        Ok(None)
    } else {
        read(r).map(Some)
    }
}

/// Reads an array of any length, each element with `item`.
fn read_list<'a, T>(
    r: &mut Reader<'a>,
    what: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    if r.peek() != Some(b'[') {
        return shape(format!("{what} is not an array"));
    }
    let mut items = Vec::new();
    let mut more = r.begin_array()?;
    while more {
        items.push(item(r)?);
        more = r.next_element()?;
    }
    Ok(items)
}

/// Like [`read_list`], but prefixes a row's shape error with its index.
fn read_rows<'a, T>(
    r: &mut Reader<'a>,
    what: &str,
    mut row: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let mut i = 0usize;
    read_list(r, what, |r| {
        let item = row(r).map_err(|e| match e {
            DecodeError::Shape(reason) => DecodeError::Shape(format!("record #{i}: {reason}")),
            syntax => syntax,
        });
        i += 1;
        item
    })
}

fn read_u64s(r: &mut Reader, what: &str) -> Decoded<Vec<u64>> {
    read_list(r, what, |r| read_u64(r, what))
}

fn read_usizes(r: &mut Reader, what: &str) -> Decoded<Vec<usize>> {
    read_list(r, what, |r| read_usize(r, what))
}

fn read_strings(r: &mut Reader, what: &str) -> Decoded<Vec<String>> {
    read_list(r, what, |r| read_string(r, what))
}

/// Steps through a fixed-length array: `[` before the first element, `,`
/// between elements, `]` after the last.
struct Tuple<'w> {
    what: &'w str,
    len: usize,
}

impl Tuple<'_> {
    fn wrong<T>(&self) -> Decoded<T> {
        shape(format!("{} is not a {}-element array", self.what, self.len))
    }

    fn open(&self, r: &mut Reader) -> Decoded<()> {
        if r.peek() == Some(b'[') && r.begin_array()? {
            Ok(())
        } else {
            self.wrong()
        }
    }

    fn next(&self, r: &mut Reader) -> Decoded<()> {
        if r.next_element()? {
            Ok(())
        } else {
            self.wrong()
        }
    }

    fn close(&self, r: &mut Reader) -> Decoded<()> {
        if r.next_element()? {
            self.wrong()
        } else {
            Ok(())
        }
    }
}

fn read_pair<A, B>(
    r: &mut Reader,
    what: &str,
    a: impl FnOnce(&mut Reader, &str) -> Decoded<A>,
    b: impl FnOnce(&mut Reader, &str) -> Decoded<B>,
) -> Decoded<(A, B)> {
    let t = Tuple { what, len: 2 };
    t.open(r)?;
    let first = a(r, what)?;
    t.next(r)?;
    let second = b(r, what)?;
    t.close(r)?;
    Ok((first, second))
}

fn read_ranges(r: &mut Reader, what: &str) -> Decoded<Vec<(u64, u64)>> {
    read_list(r, what, |r| read_pair(r, what, read_u64, read_u64))
}

/// Reads an object member by member: `member` reads the value of a key it
/// knows and returns `false` for any other key, whose value is skipped.
fn read_object<'a>(
    r: &mut Reader<'a>,
    what: &str,
    mut member: impl FnMut(&mut Reader<'a>, &str) -> Decoded<bool>,
) -> Decoded<()> {
    if r.peek() != Some(b'{') {
        return shape(format!("{what} is not an object"));
    }
    let mut more = r.begin_object()?;
    while more {
        let key = r.key()?;
        if !member(r, &key)? {
            r.skip_value()?;
        }
        more = r.next_member()?;
    }
    Ok(())
}

/// One object member: absent, or the outcome of reading its last
/// occurrence (a repeated key's last value wins, as in a parsed tree).
type Slot<T> = Option<Result<T, String>>;

/// Reads a member's value into `slot`. A shape error is kept in the slot
/// rather than raised, so a later occurrence of the key can replace it;
/// the reader is moved past the whole value either way.
fn fill<'a, T>(
    r: &mut Reader<'a>,
    slot: &mut Slot<T>,
    read: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<bool> {
    let start = *r;
    *slot = Some(match read(r) {
        Ok(v) => Ok(v),
        Err(DecodeError::Shape(reason)) => {
            *r = start;
            r.skip_value()?;
            Err(reason)
        }
        Err(syntax) => return Err(syntax),
    });
    Ok(true)
}

fn take<T>(slot: Slot<T>, key: &str) -> Decoded<T> {
    match slot {
        Some(Ok(v)) => Ok(v),
        Some(Err(reason)) => shape(reason),
        None => shape(format!("missing key `{key}`")),
    }
}

/// Reads an object into a `$ty` struct literal: each field comes from the
/// member of the same name, decoded by `$read(reader, key)`; other members
/// are skipped. A repeated key's last value wins, and a missing or
/// misshapen field is a shape error (checked in the order listed).
macro_rules! read_struct {
    ($r:expr, $what:literal, $ty:ident { $($field:ident: $read:expr),+ $(,)? }) => {{
        $(let mut $field = None;)+
        read_object($r, $what, |r, key| match key {
            $(stringify!($field) => fill(r, &mut $field, |r| $read(r, key)),)+
            _ => Ok(false),
        })?;
        Ok($ty { $($field: take($field, stringify!($field))?,)+ })
    }};
}

fn read_meta(r: &mut Reader) -> Decoded<String> {
    let mut platform = None;
    read_object(r, "meta", |r, key| match key {
        "platform" => fill(r, &mut platform, |r| read_string(r, key)),
        _ => Ok(false),
    })?;
    take(platform, "platform")
}

fn read_api(r: &mut Reader) -> Decoded<SavedApi> {
    read_struct!(
        r,
        "api",
        SavedApi {
            name: read_string,
            detail: read_string,
            mnemonic: read_string,
            stream: read_u32,
            reads: read_u64s,
            writes: read_u64s,
            frees: read_u64s,
            after: read_usizes,
            start_ns: read_u64,
            end_ns: read_u64,
            call_path: read_strings,
        }
    )
}

fn read_access(r: &mut Reader) -> Decoded<SavedAccess> {
    let t = Tuple {
        what: "access",
        len: 5,
    };
    t.open(r)?;
    let api_idx = read_usize(r, "api_idx")?;
    t.next(r)?;
    let object = read_u64(r, "object")?;
    t.next(r)?;
    let read = read_bool(r, "read")?;
    t.next(r)?;
    let write = read_bool(r, "write")?;
    t.next(r)?;
    let via = read_string(r, "via")?;
    t.close(r)?;
    Ok(SavedAccess {
        api_idx,
        object,
        read,
        write,
        via,
    })
}

fn read_object_row(r: &mut Reader) -> Decoded<SavedObject> {
    read_struct!(
        r,
        "object",
        SavedObject {
            id: read_u64,
            label: read_string,
            size: read_u64,
            source: read_string,
            alloc_api: read_usize,
            alloc_is_api: read_bool,
            free_api: |r, key| read_opt(r, |r| read_usize(r, key)),
            free_is_api: read_bool,
            alloc_path: read_strings,
        }
    )
}

fn read_usage(r: &mut Reader) -> Decoded<(usize, u64)> {
    read_pair(r, "usage sample", read_usize, read_u64)
}

fn read_nuaf_peak(r: &mut Reader) -> Decoded<NuafObservation> {
    let t = Tuple {
        what: "nuaf_peak",
        len: 3,
    };
    t.open(r)?;
    let idx = read_usize(r, "nuaf_peak idx")?;
    t.next(r)?;
    let cov = read_f64(r, "nuaf_peak cov")?;
    t.next(r)?;
    let what = "nuaf_peak histogram entry";
    let hist = read_list(r, "nuaf_peak histogram", |r| {
        read_pair(r, what, read_u32, read_usize)
    })?;
    t.close(r)?;
    Ok((idx, cov, hist))
}

fn read_intra(r: &mut Reader) -> Decoded<SavedIntra> {
    read_struct!(
        r,
        "intra entry",
        SavedIntra {
            object: read_u64,
            size: read_u64,
            accessed_ranges: read_ranges,
            per_api: |r, key| read_list(r, key, |r| {
                read_pair(r, "per_api entry", read_usize, |r, _| {
                    read_ranges(r, "per_api range")
                })
            }),
            nuaf_peak: |r, _| read_opt(r, read_nuaf_peak),
            lifetime_elem_size: |r, key| read_opt(r, |r| read_u32(r, key)),
            lifetime_counts: |r, key| read_list(r, key, |r| {
                read_pair(r, "lifetime_counts entry", read_u64, read_u32)
            }),
        }
    )
}

fn read_unified(r: &mut Reader) -> Decoded<SavedUnifiedPage> {
    read_struct!(
        r,
        "unified page",
        SavedUnifiedPage {
            object: read_u64,
            page_index: read_u32,
            migrations: read_u64,
            host_ranges: read_ranges,
            device_ranges: read_ranges,
        }
    )
}

fn read_delta(r: &mut Reader) -> Decoded<StreamDelta> {
    read_struct!(
        r,
        "delta",
        StreamDelta {
            apis: |r, key| read_rows(r, key, read_api),
            api_updates: |r, key| read_rows(r, key, |r| {
                read_pair(r, "api update", read_usize, |r, _| read_api(r))
            }),
            accesses: |r, key| read_rows(r, key, read_access),
            objects: |r, key| read_rows(r, key, read_object_row),
            object_updates: |r, key| read_rows(r, key, read_object_row),
            usage: |r, key| read_rows(r, key, read_usage),
        }
    )
}

fn read_checkpoint(r: &mut Reader) -> Decoded<StreamCheckpoint> {
    read_struct!(
        r,
        "checkpoint",
        StreamCheckpoint {
            api_count: read_usize,
            intra: |r, key| read_rows(r, key, read_intra),
            unified: |r, key| read_rows(r, key, read_unified),
        }
    )
}

/// Decodes a whole section payload with `read`. As with a parsed tree, a
/// payload that is not JSON reports its first JSON error even when the
/// walk met a shape error earlier.
fn decode<'a, T>(payload: &'a str, read: impl FnOnce(&mut Reader<'a>) -> Decoded<T>) -> Decoded<T> {
    let mut r = Reader::new(payload);
    match read(&mut r).and_then(|v| {
        r.finish()?;
        Ok(v)
    }) {
        Err(DecodeError::Shape(reason)) => {
            check_json(payload)?;
            Err(DecodeError::Shape(reason))
        }
        done => done,
    }
}

/// Checks that a payload is one JSON value, building nothing.
fn check_json(payload: &str) -> Result<(), serde_json::Error> {
    let mut r = Reader::new(payload);
    r.skip_value()?;
    r.finish()
}

/// Decodes a batch section that is an array of rows.
fn decode_rows<'a, T>(
    payload: &'a str,
    row: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    decode(payload, |r| read_rows(r, "payload", row))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The successfully framed sections, in file order: name and payload.
type Frames<'t> = Vec<(String, &'t str)>;

/// The payload of the last frame called `name` (a repeated section's last
/// copy is the one read).
fn payload<'t>(frames: &Frames<'t>, name: &str) -> Option<&'t str> {
    frames
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|&(_, p)| p)
}

/// Frames that are not decoded — unknown sections and earlier copies of a
/// repeated one. They must still hold well-formed JSON.
fn unread<'f, 't>(frames: &'f Frames<'t>) -> impl Iterator<Item = &'f (String, &'t str)> {
    frames.iter().enumerate().filter_map(move |(i, frame)| {
        let known = SECTION_ORDER.contains(&frame.0.as_str());
        let shadowed = frames[i + 1..].iter().any(|(n, _)| *n == frame.0);
        (!known || shadowed).then_some(frame)
    })
}

/// Reads the next `\n`-terminated line as bytes, advancing `pos`.
fn read_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    if *pos >= bytes.len() {
        return None;
    }
    let start = *pos;
    match bytes[start..].iter().position(|&b| b == b'\n') {
        Some(i) => {
            *pos = start + i + 1;
            Some(&bytes[start..start + i])
        }
        None => {
            *pos = bytes.len();
            Some(&bytes[start..])
        }
    }
}

/// Parses the header line, returning the declared version.
fn parse_header(line: Option<&[u8]>) -> Result<u32, TraceError> {
    let line = line.ok_or(TraceError::MissingHeader)?;
    let text = std::str::from_utf8(line).map_err(|_| TraceError::MissingHeader)?;
    let mut words = text.split_ascii_whitespace();
    if words.next() != Some(MAGIC) {
        return Err(TraceError::MissingHeader);
    }
    words
        .next()
        .and_then(|w| w.parse::<u32>().ok())
        .ok_or(TraceError::MissingHeader)
}

/// One step of the frame walk: either a section whose length and checksum
/// hold, or the `end` marker.
enum FrameStep<'t> {
    Section(String, &'t str),
    End,
}

fn next_frame<'t>(text: &'t str, pos: &mut usize) -> Result<FrameStep<'t>, TraceError> {
    let bytes = text.as_bytes();
    let malformed = |reason: &str| TraceError::Malformed {
        section: "frame".to_owned(),
        reason: reason.to_owned(),
    };
    let Some(line) = read_line(bytes, pos) else {
        return Err(malformed("missing `end` marker"));
    };
    let line = std::str::from_utf8(line).map_err(|_| malformed("frame line is not UTF-8"))?;
    let words: Vec<&str> = line.split_ascii_whitespace().collect();
    match words.as_slice() {
        ["end"] => Ok(FrameStep::End),
        ["section", name, len, crc] => {
            let name = (*name).to_owned();
            let len: usize = len
                .parse()
                .map_err(|_| malformed("section length is not a number"))?;
            let expected_crc: u32 = crc
                .parse()
                .map_err(|_| malformed("section checksum is not a number"))?;
            let available = bytes.len().saturating_sub(*pos);
            if len > available {
                return Err(TraceError::Truncated {
                    section: name,
                    expected: len,
                    available,
                });
            }
            let payload = &bytes[*pos..*pos + len];
            *pos += len;
            // Consume the newline separating payload from the next frame.
            if bytes.get(*pos) == Some(&b'\n') {
                *pos += 1;
            }
            let actual = crc32(payload);
            if actual != expected_crc {
                return Err(TraceError::ChecksumMismatch {
                    section: name,
                    expected: expected_crc,
                    actual,
                });
            }
            let payload = std::str::from_utf8(payload).map_err(|_| TraceError::Malformed {
                section: name.clone(),
                reason: "payload is not UTF-8".to_owned(),
            })?;
            Ok(FrameStep::Section(name, payload))
        }
        [] => Ok(FrameStep::End), // tolerate a trailing blank line
        _ => Err(malformed("unrecognized frame line")),
    }
}

fn decode_sections(frames: &Frames) -> Result<SavedTrace, TraceError> {
    for (name, p) in unread(frames) {
        check_json(p).map_err(|e| DecodeError::Syntax(e).into_trace_error(name))?;
    }
    fn section<'t, T>(
        frames: &Frames<'t>,
        name: &str,
        read: impl FnOnce(&'t str) -> Decoded<T>,
    ) -> Result<T, TraceError> {
        let p = payload(frames, name).ok_or_else(|| TraceError::Malformed {
            section: name.to_owned(),
            reason: "section missing".to_owned(),
        })?;
        read(p).map_err(|e| e.into_trace_error(name))
    }
    Ok(SavedTrace {
        version: FORMAT_VERSION,
        platform: section(frames, "meta", |p| decode(p, read_meta))?,
        apis: section(frames, "apis", |p| decode_rows(p, read_api))?,
        accesses: section(frames, "accesses", |p| decode_rows(p, read_access))?,
        objects: section(frames, "objects", |p| decode_rows(p, read_object_row))?,
        usage: section(frames, "usage", |p| decode_rows(p, read_usage))?,
        intra: section(frames, "intra", |p| decode_rows(p, read_intra))?,
        unified: section(frames, "unified", |p| decode_rows(p, read_unified))?,
    })
}

/// Validates every cross-reference in the trace, strictly.
fn validate(t: &SavedTrace) -> Result<(), TraceError> {
    let bad = |section: &str, reason: String| TraceError::BadReference {
        section: section.to_owned(),
        reason,
    };
    let n = t.apis.len();
    let ids: HashSet<u64> = t.objects.iter().map(|o| o.id).collect();
    for (i, a) in t.apis.iter().enumerate() {
        for &dep in &a.after {
            if dep >= n {
                return Err(bad("apis", format!("api #{i} after {dep} >= {n} apis")));
            }
        }
        for obj in a.reads.iter().chain(&a.writes).chain(&a.frees) {
            if !ids.contains(obj) {
                return Err(bad(
                    "apis",
                    format!("api #{i} references unknown object {obj}"),
                ));
            }
        }
    }
    for (i, a) in t.accesses.iter().enumerate() {
        if a.api_idx >= n {
            return Err(bad(
                "accesses",
                format!("access #{i} api_idx {} >= {n} apis", a.api_idx),
            ));
        }
        if !ids.contains(&a.object) {
            return Err(bad(
                "accesses",
                format!("access #{i} references unknown object {}", a.object),
            ));
        }
    }
    for (i, o) in t.objects.iter().enumerate() {
        if o.alloc_api > n {
            return Err(bad(
                "objects",
                format!("object #{i} alloc_api {} > {n} apis", o.alloc_api),
            ));
        }
        if let Some(f) = o.free_api {
            if f > n {
                return Err(bad(
                    "objects",
                    format!("object #{i} free_api {f} > {n} apis"),
                ));
            }
        }
    }
    for (i, &(idx, _)) in t.usage.iter().enumerate() {
        if idx >= n {
            return Err(bad(
                "usage",
                format!("sample #{i} api_idx {idx} >= {n} apis"),
            ));
        }
    }
    for (i, s) in t.intra.iter().enumerate() {
        if !ids.contains(&s.object) {
            return Err(bad(
                "intra",
                format!("entry #{i} references unknown object {}", s.object),
            ));
        }
        for &(idx, _) in &s.per_api {
            if idx >= n {
                return Err(bad(
                    "intra",
                    format!("entry #{i} per_api index {idx} >= {n} apis"),
                ));
            }
        }
        if let Some((idx, _, _)) = &s.nuaf_peak {
            if *idx >= n {
                return Err(bad(
                    "intra",
                    format!("entry #{i} nuaf_peak index {idx} >= {n} apis"),
                ));
            }
        }
    }
    for (i, p) in t.unified.iter().enumerate() {
        if !ids.contains(&p.object) {
            return Err(bad(
                "unified",
                format!("page #{i} references unknown object {}", p.object),
            ));
        }
    }
    Ok(())
}

/// Drops every dangling record from the trace, returning human-readable
/// notes about what was removed. Used by [`salvage`].
fn scrub(t: &mut SavedTrace) -> Vec<String> {
    let mut notes = Vec::new();
    let n = t.apis.len();
    let ids: HashSet<u64> = t.objects.iter().map(|o| o.id).collect();
    let mut clamped_objects = 0usize;
    for o in &mut t.objects {
        if o.alloc_api > n || o.free_api.map(|f| f > n).unwrap_or(false) {
            o.alloc_api = o.alloc_api.min(n);
            o.free_api = o.free_api.map(|f| f.min(n));
            clamped_objects += 1;
        }
    }
    if clamped_objects > 0 {
        notes.push(format!(
            "clamped {clamped_objects} object lifetime anchor(s) past the end of the API trace"
        ));
    }
    let mut dropped_edges = 0usize;
    for a in &mut t.apis {
        let before = a.after.len() + a.reads.len() + a.writes.len() + a.frees.len();
        a.after.retain(|&dep| dep < n);
        a.reads.retain(|obj| ids.contains(obj));
        a.writes.retain(|obj| ids.contains(obj));
        a.frees.retain(|obj| ids.contains(obj));
        dropped_edges += before - (a.after.len() + a.reads.len() + a.writes.len() + a.frees.len());
    }
    if dropped_edges > 0 {
        notes.push(format!(
            "dropped {dropped_edges} dangling dependency edge(s)"
        ));
    }
    let before = t.accesses.len();
    t.accesses
        .retain(|a| a.api_idx < n && ids.contains(&a.object));
    if t.accesses.len() < before {
        notes.push(format!(
            "dropped {} dangling access record(s)",
            before - t.accesses.len()
        ));
    }
    let before = t.usage.len();
    t.usage.retain(|&(idx, _)| idx < n);
    if t.usage.len() < before {
        notes.push(format!(
            "dropped {} dangling usage sample(s)",
            before - t.usage.len()
        ));
    }
    let before = t.intra.len();
    t.intra.retain(|s| ids.contains(&s.object));
    if t.intra.len() < before {
        notes.push(format!(
            "dropped {} orphaned intra-object map(s)",
            before - t.intra.len()
        ));
    }
    let mut dropped_intra_refs = 0usize;
    for s in &mut t.intra {
        let before = s.per_api.len();
        s.per_api.retain(|&(idx, _)| idx < n);
        dropped_intra_refs += before - s.per_api.len();
        if s.nuaf_peak
            .as_ref()
            .map(|(idx, _, _)| *idx >= n)
            .unwrap_or(false)
        {
            s.nuaf_peak = None;
            dropped_intra_refs += 1;
        }
    }
    if dropped_intra_refs > 0 {
        notes.push(format!(
            "dropped {dropped_intra_refs} dangling intra-object record(s)"
        ));
    }
    let before = t.unified.len();
    t.unified.retain(|p| ids.contains(&p.object));
    if t.unified.len() < before {
        notes.push(format!(
            "dropped {} orphaned unified-memory page(s)",
            before - t.unified.len()
        ));
    }
    notes
}

const SECTION_ORDER: [&str; 7] = [
    "meta", "apis", "accesses", "objects", "usage", "intra", "unified",
];

/// Strictly loads a trace from its text serialization.
///
/// # Errors
///
/// Returns a typed [`TraceError`] for a missing or foreign header, a
/// version this build does not read, truncation, checksum mismatches,
/// malformed payloads, and dangling cross-references (an access pointing
/// at a GPU API or object that does not exist). Use [`salvage`] to read
/// as much as possible of a damaged trace instead.
pub fn load(text: &str) -> Result<SavedTrace, TraceError> {
    if is_stream_trace(text) {
        return Err(TraceError::Malformed {
            section: "header".to_owned(),
            reason: "this is a streaming trace (DRGPUM-STREAM); recover it with \
                     salvage or `drgpum run --resume`"
                .to_owned(),
        });
    }
    let mut pos = 0usize;
    let version = parse_header(read_line(text.as_bytes(), &mut pos))?;
    if version != FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut frames = Frames::new();
    while let FrameStep::Section(name, payload) = next_frame(text, &mut pos)? {
        frames.push((name, payload));
    }
    let trace = decode_sections(&frames)?;
    validate(&trace)?;
    Ok(trace)
}

/// What a [`salvage`] pass lost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Human-readable notes, one per loss or repair (empty = lossless).
    pub notes: Vec<String>,
}

impl SalvageReport {
    /// `true` if the trace was read back without any loss.
    pub fn is_lossless(&self) -> bool {
        self.notes.is_empty()
    }

    /// Converts the losses into report degradation records.
    pub fn to_degradations(&self) -> Vec<DegradationRecord> {
        self.notes
            .iter()
            .map(|n| DegradationRecord::new("trace-salvage", n.clone()))
            .collect()
    }
}

/// Reads as much of a (possibly damaged) trace as possible. Never fails.
///
/// Sections that frame and checksum correctly are kept; damaged sections
/// are dropped whole; records that reference data lost with a damaged
/// section are dropped individually. Everything dropped is described in
/// the returned [`SalvageReport`] so the eventual report can carry
/// explicit [`DegradationRecord`]s instead of silently analyzing less.
pub fn salvage(text: &str) -> (SavedTrace, SalvageReport) {
    if is_stream_trace(text) {
        return salvage_stream(text);
    }
    let mut notes = Vec::new();
    let mut pos = 0usize;
    match parse_header(read_line(text.as_bytes(), &mut pos)) {
        Ok(v) if v == FORMAT_VERSION => {}
        Ok(v) => notes.push(format!(
            "trace declares format version {v} (this build writes {FORMAT_VERSION}); \
             attempting best-effort read"
        )),
        Err(_) => {
            notes.push("missing trace header; nothing could be recovered".to_owned());
            return (empty_trace(), SalvageReport { notes });
        }
    }
    let mut frames = Frames::new();
    loop {
        match next_frame(text, &mut pos) {
            Ok(FrameStep::Section(name, payload)) => {
                frames.push((name, payload));
            }
            Ok(FrameStep::End) => break,
            Err(e) => {
                let boundary_lost = matches!(e, TraceError::Truncated { .. })
                    || matches!(&e, TraceError::Malformed { section, .. } if section == "frame");
                if boundary_lost {
                    // Without an intact frame header + length we cannot find
                    // the next frame boundary: stop at the longest valid
                    // prefix.
                    notes.push(format!("stopped at damaged framing: {e}"));
                    break;
                }
                // The frame itself was intact (length known), so the payload
                // was skipped in full; later sections are still reachable.
                notes.push(format!("dropped section: {e}"));
            }
        }
    }
    for name in SECTION_ORDER {
        if payload(&frames, name).is_none()
            && !notes.iter().any(|n| n.contains(&format!("`{name}`")))
        {
            notes.push(format!("section `{name}` absent; treated as empty"));
        }
    }
    let mut trace = salvage_decode(&frames, &mut notes);
    notes.extend(scrub(&mut trace));
    (trace, SalvageReport { notes })
}

fn empty_trace() -> SavedTrace {
    SavedTrace {
        version: FORMAT_VERSION,
        platform: "<unknown>".to_owned(),
        apis: Vec::new(),
        accesses: Vec::new(),
        objects: Vec::new(),
        usage: Vec::new(),
        intra: Vec::new(),
        unified: Vec::new(),
    }
}

/// Decodes whatever sections survived framing, treating each decode
/// failure as one more loss instead of an error.
fn salvage_decode(frames: &Frames, notes: &mut Vec<String>) -> SavedTrace {
    for (name, p) in unread(frames) {
        if let Err(e) = check_json(p) {
            let e = DecodeError::Syntax(e).into_trace_error(name);
            notes.push(format!("dropped section: {e}"));
        }
    }
    fn take<'t, T>(
        frames: &Frames<'t>,
        notes: &mut Vec<String>,
        name: &str,
        row: impl FnMut(&mut Reader<'t>) -> Decoded<T>,
    ) -> Vec<T> {
        let Some(p) = payload(frames, name) else {
            return Vec::new();
        };
        decode_rows(p, row).unwrap_or_else(|e| {
            notes.push(format!("dropped section: {}", e.into_trace_error(name)));
            Vec::new()
        })
    }
    let platform = match payload(frames, "meta").map(|p| decode(p, read_meta)) {
        Some(Ok(platform)) => platform,
        lost => {
            if let Some(Err(e @ DecodeError::Syntax(_))) = lost {
                notes.push(format!("dropped section: {}", e.into_trace_error("meta")));
            }
            notes.push("platform name lost with the meta section".to_owned());
            "<unknown>".to_owned()
        }
    };
    SavedTrace {
        version: FORMAT_VERSION,
        platform,
        apis: take(frames, notes, "apis", read_api),
        accesses: take(frames, notes, "accesses", read_access),
        objects: take(frames, notes, "objects", read_object_row),
        usage: take(frames, notes, "usage", read_usage),
        intra: take(frames, notes, "intra", read_intra),
        unified: take(frames, notes, "unified", read_unified),
    }
}

/// Salvages a damaged trace and re-analyzes what survived; the report's
/// degradation records describe everything that was lost.
pub fn reanalyze_salvaged(text: &str, thresholds: &Thresholds) -> Report {
    let (trace, losses) = salvage(text);
    trace.reanalyze_with(thresholds, losses.to_degradations())
}

// ---------------------------------------------------------------------------
// Streaming (crash-consistent) format
// ---------------------------------------------------------------------------
//
// A streaming trace shares the section framing of the batch format but is
// append-only and fsynced at API-event granularity:
//
// ```text
// DRGPUM-STREAM 2
// section meta <len> <crc>
// {"platform": ...}
// section delta <len> <crc>
// {"apis": [...], "api_updates": [[idx, row], ...], "accesses": [...],
//  "objects": [...], "object_updates": [row, ...], "usage": [[idx, bytes], ...]}
// section checkpoint <len> <crc>
// {"api_count": N, "intra": [...], "unified": [...]}
// ...
// end
// ```
//
// Deltas are strictly positional (API rows append in trace order), so
// recovery is prefix-shaped: everything up to the last intact, fsynced
// frame is recovered exactly; the first damaged frame ends the replay.
// Intra-object and unified-memory maps are mutated in place by collection,
// so they travel in periodic `checkpoint` snapshots (latest wins) rather
// than deltas.

/// Magic word opening every streaming trace file.
pub(crate) const STREAM_MAGIC: &str = "DRGPUM-STREAM";

/// Whether `text` is a streaming trace (as opposed to the batch format).
pub fn is_stream_trace(text: &str) -> bool {
    text.starts_with(STREAM_MAGIC)
}

/// The header + meta section every streaming trace starts with.
pub(crate) fn stream_header(platform: &str) -> String {
    let mut out = format!("{STREAM_MAGIC} {FORMAT_VERSION}\n");
    write_section(&mut out, "meta", |out| write_meta(out, platform));
    out
}

/// High-water marks of what a streaming writer has already emitted, plus
/// per-object fingerprints for update detection.
#[derive(Debug, Default)]
pub(crate) struct StreamCursor {
    apis: usize,
    accesses: usize,
    objects: usize,
    usage: usize,
    /// `(free_api, free_is_api, source)` per emitted object row; a change
    /// (free observed, pool-slab reclassification) re-emits the row.
    fingerprints: Vec<(Option<usize>, bool, String)>,
}

/// Encodes everything the collector gathered since `cur` as one framed
/// `delta` section, advancing the cursor. Returns `None` when nothing new
/// happened (no section is written).
pub(crate) fn delta_section(collector: &Collector, cur: &mut StreamCursor) -> Option<String> {
    let apis = collector.gpu_apis();
    let accesses = collector.accesses();
    let usage = collector.usage_curve();
    let objects: Vec<&DataObject> = collector.registry().iter().collect();

    // A new access attributed to an already-emitted API row means its
    // def/use sets changed at kernel end: re-emit the row as an update.
    let mut updated: Vec<usize> = accesses[cur.accesses.min(accesses.len())..]
        .iter()
        .map(|a| a.api_idx)
        .filter(|&i| i < cur.apis)
        .collect();
    updated.sort_unstable();
    updated.dedup();

    // Call paths come back memoized as shared `Arc<str>` frames; rows only
    // materialize `String`s at the serialization boundary.
    let path_vec = |p: &gpu_sim::CallPath| -> Vec<String> {
        collector
            .resolve_call_path(p)
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    let row = |a: &GpuApi| api_row(a, path_vec(&a.call_path));
    let fingerprint = |o: &DataObject| (o.free_api, o.free_is_api, source_str(o.source).to_owned());
    let mut delta = StreamDelta {
        apis: apis[cur.apis.min(apis.len())..].iter().map(row).collect(),
        api_updates: updated.iter().map(|&i| (i, row(&apis[i]))).collect(),
        accesses: accesses[cur.accesses.min(accesses.len())..]
            .iter()
            .map(access_row)
            .collect(),
        objects: Vec::new(),
        object_updates: Vec::new(),
        usage: usage[cur.usage.min(usage.len())..]
            .iter()
            .map(|s| (s.api_idx, s.bytes_in_use))
            .collect(),
    };
    for (i, o) in objects.iter().enumerate().take(cur.objects) {
        let fp = fingerprint(o);
        if cur.fingerprints.get(i) != Some(&fp) {
            delta
                .object_updates
                .push(object_row(o, path_vec(&o.alloc_path)));
            if let Some(slot) = cur.fingerprints.get_mut(i) {
                *slot = fp;
            }
        }
    }
    for o in objects.iter().skip(cur.objects) {
        cur.fingerprints.push(fingerprint(o));
        delta.objects.push(object_row(o, path_vec(&o.alloc_path)));
    }

    cur.apis = apis.len();
    cur.accesses = accesses.len();
    cur.objects = objects.len();
    cur.usage = usage.len();

    if delta.apis.is_empty()
        && delta.api_updates.is_empty()
        && delta.accesses.is_empty()
        && delta.objects.is_empty()
        && delta.object_updates.is_empty()
        && delta.usage.is_empty()
    {
        return None;
    }
    let mut out = String::new();
    write_section(&mut out, "delta", |out| write_delta(out, &delta));
    Some(out)
}

/// Encodes the collector's full intra-object and unified-memory state as
/// one framed `checkpoint` section.
pub(crate) fn checkpoint_section(collector: &Collector) -> String {
    let checkpoint = StreamCheckpoint {
        api_count: collector.gpu_apis().len(),
        intra: collector
            .intra_data()
            .iter()
            .map(|d| intra_row(d))
            .collect(),
        unified: collector
            .unified_page_stats()
            .iter()
            .map(unified_row)
            .collect(),
    };
    let mut out = String::new();
    write_section(&mut out, "checkpoint", |out| {
        write_checkpoint(out, &checkpoint)
    });
    out
}

/// Applies one decoded `delta` to the accumulating trace — all of it, or
/// nothing if one of its updates names a row that does not exist.
fn apply_stream_delta(trace: &mut SavedTrace, d: StreamDelta) -> Result<(), String> {
    let api_rows = trace.apis.len() + d.apis.len();
    if d.api_updates.iter().any(|&(idx, _)| idx >= api_rows) {
        return Err("api update index out of range".to_owned());
    }
    trace.apis.extend(d.apis);
    for (idx, row) in d.api_updates {
        trace.apis[idx] = row;
    }
    trace.accesses.extend(d.accesses);
    trace.objects.extend(d.objects);
    for o in d.object_updates {
        match trace.objects.iter_mut().find(|x| x.id == o.id) {
            Some(slot) => *slot = o,
            None => trace.objects.push(o),
        }
    }
    trace.usage.extend(d.usage);
    Ok(())
}

/// Recovers a streaming trace: replays every intact, fsynced frame in
/// order, stopping at the first damaged one (crash-consistent prefix
/// semantics). Never fails; [`salvage`] dispatches here on the
/// `DRGPUM-STREAM` magic.
fn salvage_stream(text: &str) -> (SavedTrace, SalvageReport) {
    let mut notes = Vec::new();
    let mut pos = 0usize;
    let header_ok = read_line(text.as_bytes(), &mut pos)
        .and_then(|line| std::str::from_utf8(line).ok())
        .map(|text| {
            let mut words = text.split_ascii_whitespace();
            let magic = words.next() == Some(STREAM_MAGIC);
            match words.next().and_then(|w| w.parse::<u32>().ok()) {
                Some(v) if v != FORMAT_VERSION => notes.push(format!(
                    "stream declares format version {v} (this build writes \
                     {FORMAT_VERSION}); attempting best-effort read"
                )),
                _ => {}
            }
            magic
        })
        .unwrap_or(false);
    if !header_ok {
        notes.push("missing stream header; nothing could be recovered".to_owned());
        return (empty_trace(), SalvageReport { notes });
    }
    let mut trace = empty_trace();
    let mut clean_end = false;
    let mut deltas = 0usize;
    let mut checkpoint: Option<StreamCheckpoint> = None;
    loop {
        let (name, p) = match next_frame(text, &mut pos) {
            Ok(FrameStep::End) => {
                clean_end = true;
                break;
            }
            Ok(FrameStep::Section(name, p)) => (name, p),
            Err(e) => {
                notes.push(format!("stopped at damaged streaming frame: {e}"));
                break;
            }
        };
        // Each arm yields whether the replay stops here. A payload that is
        // not JSON (the `Err`) is as damaged as one whose checksum fails.
        let stop = match name.as_str() {
            "meta" => split(decode(p, read_meta)).map(|meta| {
                match meta {
                    Ok(platform) => trace.platform = platform,
                    Err(_) => notes.push("platform name lost with the meta section".to_owned()),
                }
                false
            }),
            "delta" => split(decode(p, read_delta)).map(|delta| {
                deltas += 1;
                match delta.and_then(|d| apply_stream_delta(&mut trace, d)) {
                    Ok(()) => false,
                    Err(reason) => {
                        // Positional replay cannot continue past a bad
                        // delta: later rows would land at wrong indices.
                        notes.push(format!("stopped at undecodable delta: {reason}"));
                        true
                    }
                }
            }),
            "checkpoint" => split(decode(p, read_checkpoint)).map(|cp| {
                match cp {
                    Ok(cp) if cp.api_count <= trace.apis.len() => checkpoint = Some(cp),
                    Ok(cp) => notes.push(format!(
                        "ignored checkpoint claiming {} APIs (only {} replayed)",
                        cp.api_count,
                        trace.apis.len()
                    )),
                    Err(reason) => notes.push(format!("dropped undecodable checkpoint: {reason}")),
                }
                false
            }),
            other => check_json(p).map(|()| {
                notes.push(format!("ignored unknown streaming section `{other}`"));
                false
            }),
        };
        match stop {
            Ok(false) => {}
            Ok(true) => break,
            Err(e) => {
                let e = DecodeError::Syntax(e).into_trace_error(&name);
                notes.push(format!("stopped at damaged streaming frame: {e}"));
                break;
            }
        }
    }
    if !clean_end {
        notes.push(format!(
            "stream has no clean-finish marker; recovered the fsynced prefix \
             ({} APIs, {} delta frames)",
            trace.apis.len(),
            deltas
        ));
    }
    match checkpoint {
        Some(cp) => {
            if cp.api_count < trace.apis.len() {
                notes.push(format!(
                    "intra-object and unified-memory maps are as of the last \
                     checkpoint (API {} of {})",
                    cp.api_count,
                    trace.apis.len()
                ));
            }
            trace.intra = cp.intra;
            trace.unified = cp.unified;
        }
        None if !trace.apis.is_empty() => {
            notes.push(
                "no checkpoint recovered; intra-object and unified-memory maps lost".to_owned(),
            );
        }
        None => {}
    }
    notes.extend(scrub(&mut trace));
    (trace, SalvageReport { notes })
}

impl SavedTrace {
    /// Number of GPU APIs in the recording.
    pub fn api_count(&self) -> usize {
        self.apis.len()
    }

    /// Number of data objects in the recording.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Serializes to the framed, checksummed text format.
    pub fn to_text(&self) -> String {
        let mut out = format!("{MAGIC} {}\n", self.version);
        write_section(&mut out, "meta", |out| write_meta(out, &self.platform));
        write_section(&mut out, "apis", |out| {
            write_list(out, &self.apis, write_api)
        });
        write_section(&mut out, "accesses", |out| {
            write_list(out, &self.accesses, write_access)
        });
        write_section(&mut out, "objects", |out| {
            write_list(out, &self.objects, write_object)
        });
        write_section(&mut out, "usage", |out| write_pairs(out, &self.usage));
        write_section(&mut out, "intra", |out| {
            write_list(out, &self.intra, write_intra)
        });
        write_section(&mut out, "unified", |out| {
            write_list(out, &self.unified, write_unified)
        });
        out.push_str("end\n");
        out
    }

    /// Rebuilds the trace view (with fresh topological timestamps) from
    /// the recording.
    fn rebuild(
        &self,
    ) -> (
        TraceView,
        Vec<IntraObjectData>,
        Vec<UsageSample>,
        Vec<ObjectMeta>,
    ) {
        let vertices: Vec<VertexAccess> = self
            .apis
            .iter()
            .map(|a| VertexAccess {
                stream: StreamId(a.stream),
                reads: a.reads.iter().map(|&o| ObjectId(o)).collect(),
                writes: a.writes.iter().map(|&o| ObjectId(o)).collect(),
                frees: a.frees.iter().map(|&o| ObjectId(o)).collect(),
                after: a.after.clone(),
            })
            .collect();
        let graph = DependencyGraph::build(&vertices);
        let api_ts = graph.timestamps().to_vec();
        let api_names: Vec<String> = self.apis.iter().map(|a| a.name.clone()).collect();
        let api_kernels: Vec<Option<String>> = self
            .apis
            .iter()
            .map(|a| (a.mnemonic == "KERL").then(|| a.detail.clone()))
            .collect();
        let api_is_dealloc: Vec<bool> = self.apis.iter().map(|a| a.mnemonic == "FREE").collect();

        let mut per_object: HashMap<u64, Vec<ObjectAccess>> = HashMap::new();
        for acc in &self.accesses {
            // Loaded traces are validated, but a hand-built or salvaged one
            // could still dangle: drop, don't panic.
            let (Some(&ts), Some(name)) = (api_ts.get(acc.api_idx), api_names.get(acc.api_idx))
            else {
                continue;
            };
            per_object
                .entry(acc.object)
                .or_default()
                .push(ObjectAccess {
                    api: ApiRef {
                        idx: acc.api_idx,
                        ts,
                        name: name.clone(),
                    },
                    read: acc.read,
                    write: acc.write,
                    via: via_parse(&acc.via),
                });
        }
        let objects: Vec<ObjectView> = self
            .objects
            .iter()
            .map(|o| {
                let mut accesses = per_object.remove(&o.id).unwrap_or_default();
                accesses.sort_by_key(|a| (a.api.ts, a.api.idx));
                let mk_ref = |idx: usize| ApiRef {
                    idx,
                    ts: api_ts.get(idx).copied().unwrap_or(0),
                    name: api_names
                        .get(idx)
                        .cloned()
                        .unwrap_or_else(|| format!("<api {idx}>")),
                };
                let source = source_parse(&o.source);
                ObjectView {
                    id: ObjectId(o.id),
                    label: o.label.clone(),
                    size: o.size,
                    alloc: o.alloc_is_api.then(|| mk_ref(o.alloc_api)),
                    alloc_anchor: o.alloc_api,
                    free: match (o.free_api, o.free_is_api) {
                        (Some(idx), true) => Some(mk_ref(idx)),
                        _ => None,
                    },
                    free_anchor: match (o.free_api, o.free_is_api) {
                        (Some(idx), false) => Some(idx),
                        _ => None,
                    },
                    accesses,
                    analyzable: source.is_analyzable(),
                }
            })
            .collect();
        let trace = TraceView {
            api_ts,
            api_names,
            api_kernels,
            api_is_dealloc,
            objects,
        };

        let intra: Vec<IntraObjectData> = self
            .intra
            .iter()
            .map(|s| {
                let mut bitmap = AccessBitmap::new(s.size);
                for &(a, b) in &s.accessed_ranges {
                    bitmap.set_range(a, b);
                }
                let per_api = s
                    .per_api
                    .iter()
                    .map(|(idx, ranges)| {
                        let rs: RangeSet = ranges.iter().copied().collect();
                        (*idx, rs)
                    })
                    .collect();
                // A zero element width cannot index anything (and would not
                // construct): such a map is dropped rather than trusted.
                let lifetime_freq = s.lifetime_elem_size.filter(|&e| e > 0).map(|elem| {
                    FreqMap::from_counts(s.size, elem, s.lifetime_counts.iter().copied())
                });
                IntraObjectData {
                    object: ObjectId(s.object),
                    bitmap,
                    per_api,
                    nuaf_peak: s.nuaf_peak.clone(),
                    lifetime_freq,
                }
            })
            .collect();

        let usage: Vec<UsageSample> = self
            .usage
            .iter()
            .map(|&(api_idx, bytes_in_use)| UsageSample {
                api_idx,
                bytes_in_use,
            })
            .collect();

        let metas: Vec<ObjectMeta> = self
            .objects
            .iter()
            .map(|o| ObjectMeta {
                id: ObjectId(o.id),
                label: o.label.clone(),
                size: o.size,
                source: source_parse(&o.source),
                alloc_path: o.alloc_path.clone(),
                alloc_api: o.alloc_api,
                free_api: o.free_api,
            })
            .collect();

        (trace, intra, usage, metas)
    }

    /// Re-runs the full offline analysis on the recording, with arbitrary
    /// thresholds — no program re-run needed.
    pub fn reanalyze(&self, thresholds: &Thresholds) -> Report {
        self.reanalyze_with(thresholds, Vec::new())
    }

    /// Like [`SavedTrace::reanalyze`], but carrying degradation records
    /// (e.g. from a [`salvage`] pass) into the produced report.
    pub fn reanalyze_with(
        &self,
        thresholds: &Thresholds,
        degradations: Vec<DegradationRecord>,
    ) -> Report {
        let (trace, intra, usage, metas) = self.rebuild();
        let unified: Vec<UnifiedPageStats> = self
            .unified
            .iter()
            .map(|p| UnifiedPageStats {
                object: ObjectId(p.object),
                page_index: p.page_index,
                migrations: p.migrations,
                host_ranges: p.host_ranges.iter().copied().collect(),
                device_ranges: p.device_ranges.iter().copied().collect(),
            })
            .collect();
        analyzer::assemble_report(
            &trace,
            &intra,
            &usage,
            &metas,
            &unified,
            thresholds,
            &self.platform,
            degradations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProfilerOptions;
    use crate::profiler::Profiler;
    use gpu_sim::{DeviceContext, LaunchConfig, StreamId};

    fn record() -> (SavedTrace, Report) {
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::intra_object());
        let early = ctx.malloc(4096, "early").unwrap();
        let other = ctx.malloc(4096, "other").unwrap();
        ctx.memset(other, 0, 4096).unwrap();
        ctx.memset(other, 1, 4096).unwrap();
        ctx.launch(
            "k",
            LaunchConfig::cover(16, 16).unwrap(),
            StreamId::DEFAULT,
            move |t| {
                let i = t.global_x();
                if i < 16 {
                    t.store_f32(early + i * 4, 1.0);
                }
            },
        )
        .unwrap();
        ctx.free(other).unwrap();
        // `early` leaks.
        let live_report = profiler.report(&ctx);
        let collector = profiler.collector();
        let collector = collector.lock();
        let saved = save(&collector, ctx.call_stack().table(), "rtx3090");
        (saved, live_report)
    }

    #[test]
    fn reanalysis_reproduces_the_live_report() {
        let (saved, live) = record();
        let replayed = saved.reanalyze(&Thresholds::default());
        assert_eq!(live.stats, replayed.stats);
        assert_eq!(live.patterns_present(), replayed.patterns_present());
        assert_eq!(live.findings.len(), replayed.findings.len());
        for (a, b) in live.findings.iter().zip(&replayed.findings) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.object.label, b.object.label);
            assert_eq!(a.suggestion, b.suggestion);
        }
    }

    #[test]
    fn text_round_trip() {
        let (saved, _) = record();
        let text = saved.to_text();
        let back = load(&text).expect("clean trace loads");
        assert_eq!(back.api_count(), saved.api_count());
        assert_eq!(back.object_count(), saved.object_count());
        let a = saved.reanalyze(&Thresholds::default());
        let b = back.reanalyze(&Thresholds::default());
        assert_eq!(a, b);
    }

    #[test]
    fn thresholds_can_be_retuned_offline() {
        let (saved, _) = record();
        // Default idleness threshold (2) sees the `early` object idle
        // between its kernel write and… nothing; instead tune the
        // early-allocation-adjacent knob: the overallocation threshold.
        let strict = saved.reanalyze(&Thresholds::default());
        let lax = Thresholds {
            overalloc_accessed_pct: 0.0, // nothing is overallocated now
            ..Thresholds::default()
        };
        let relaxed = saved.reanalyze(&lax);
        use crate::patterns::PatternKind;
        assert!(strict.has_pattern(PatternKind::Overallocation));
        assert!(!relaxed.has_pattern(PatternKind::Overallocation));
    }

    #[test]
    fn version_is_stamped() {
        let (saved, _) = record();
        assert_eq!(saved.version, FORMAT_VERSION);
        let text = saved.to_text();
        assert!(text.starts_with("DRGPUM-TRACE 2\n"));
    }

    #[test]
    fn load_rejects_unknown_version() {
        let (saved, _) = record();
        let text = saved.to_text().replace("DRGPUM-TRACE 2", "DRGPUM-TRACE 99");
        match load(&text) {
            Err(TraceError::UnsupportedVersion {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_rejects_missing_header() {
        assert!(matches!(load(""), Err(TraceError::MissingHeader)));
        assert!(matches!(
            load("not a trace\n"),
            Err(TraceError::MissingHeader)
        ));
    }

    #[test]
    fn load_rejects_corrupted_payload() {
        let (saved, _) = record();
        let text = saved.to_text();
        // Flip one character inside the apis payload (its label `"early"`),
        // keeping the byte length identical.
        let corrupted = text.replacen("rtx3090", "rtx0000", 1);
        assert_ne!(text, corrupted);
        match load(&corrupted) {
            Err(TraceError::ChecksumMismatch { section, .. }) => assert_eq!(section, "meta"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_rejects_truncation() {
        let (saved, _) = record();
        let text = saved.to_text();
        let cut = &text[..text.len() / 2];
        match load(cut) {
            Err(TraceError::Truncated { .. }) | Err(TraceError::Malformed { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn load_rejects_dangling_references() {
        let (saved, _) = record();
        let mut broken = saved.clone();
        broken.accesses.push(SavedAccess {
            api_idx: 9999,
            object: 0,
            read: true,
            write: false,
            via: "kernel".to_owned(),
        });
        let text = broken.to_text();
        match load(&text) {
            Err(TraceError::BadReference { section, reason }) => {
                assert_eq!(section, "accesses");
                assert!(reason.contains("9999"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_delta_with_a_dangling_update_applies_nothing() {
        let (saved, _) = record();
        let delta = |apis: &[SavedApi], api_updates| StreamDelta {
            apis: apis.to_vec(),
            api_updates,
            accesses: Vec::new(),
            objects: Vec::new(),
            object_updates: Vec::new(),
            usage: Vec::new(),
        };
        let mut text = stream_header("rtx3090");
        let first = StreamDelta {
            objects: saved.objects.clone(),
            ..delta(&saved.apis[..2], Vec::new())
        };
        write_section(&mut text, "delta", |out| write_delta(out, &first));
        // Its appended rows are fine, but the update names row 99.
        let bad = delta(&saved.apis[2..], vec![(99, saved.apis[0].clone())]);
        write_section(&mut text, "delta", |out| write_delta(out, &bad));
        text.push_str("end\n");
        let (trace, losses) = salvage(&text);
        assert_eq!(trace.api_count(), 2, "{:?}", losses.notes);
        assert!(
            losses.notes[0].contains("api update index out of range"),
            "{:?}",
            losses.notes
        );
    }

    /// The CRC-32 definition, one bit at a time: the reference the table
    /// implementation is checked against.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc32_matches_the_bitwise_definition() {
        let mut rng = gpu_sim::SplitMix64::new(0xC3C3_2020);
        let bytes: Vec<u8> = (0..4096 + 8).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..64 {
            let len = rng.next_below(4097) as usize;
            // Every start alignment, so the eight-byte steps begin anywhere.
            for start in 0..8 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    bitwise_crc32(slice),
                    "len {len} start {start}"
                );
            }
        }
    }

    #[test]
    fn salvage_of_clean_trace_is_lossless() {
        let (saved, _) = record();
        let (back, report) = salvage(&saved.to_text());
        assert!(report.is_lossless(), "notes: {:?}", report.notes);
        assert_eq!(back.api_count(), saved.api_count());
        assert_eq!(back.object_count(), saved.object_count());
    }

    #[test]
    fn salvage_survives_truncation_and_reports_losses() {
        let (saved, _) = record();
        let text = saved.to_text();
        for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 1] {
            let (trace, report) = salvage(&text[..cut]);
            if cut < text.len() - 1 {
                assert!(!report.is_lossless(), "cut {cut} must lose something");
            }
            // Whatever survived must re-analyze without panicking, and the
            // report must carry the losses.
            let r = trace.reanalyze_with(&Thresholds::default(), report.to_degradations());
            assert_eq!(r.is_degraded(), !report.is_lossless());
        }
    }

    #[test]
    fn salvage_skips_damaged_section_but_keeps_the_rest() {
        let (saved, _) = record();
        // Damage only the meta payload (same length, wrong bytes).
        let text = saved.to_text().replacen("rtx3090", "rtx0000", 1);
        let (trace, report) = salvage(&text);
        assert!(!report.is_lossless());
        assert_eq!(trace.platform, "<unknown>");
        // Later sections survived the damaged one.
        assert_eq!(trace.api_count(), saved.api_count());
        assert_eq!(trace.object_count(), saved.object_count());
    }
}
