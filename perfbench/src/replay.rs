//! Serial replays that take one fused store call apart into the layers'
//! public functions, one stage at a time, with a span around each stage.
//!
//! - [`writes`]: the write side, `RlzCompressor::factorize` →
//!   `coding::encode_document_into` → (optionally) `RlzWriter`.
//! - [`read_path`]: the id stream that reached the store, through the same
//!   pieces the store's fused `get_into` combines — `DocMap` lookup,
//!   `FileBackend::read_exact_at`, `crc32c`, `DecodeScratch::decode_streams`
//!   and `factor::expand`. The stage times add up to a per-document read
//!   whose cost can be compared with `store.get_us` (`store.stage_sum_ratio`).
//!
//! The stage times also split a served store call's self time among the
//! layers it runs (see [`crate::trace::move_from_store`]).

use crate::fail;
use crate::trace;
use rlz_codecs::hash::crc32c;
use rlz_core::coding::{encode_document_into, DecodeScratch, EncodeScratch};
use rlz_core::{expand, Factor, PairCoding, RlzCompressor};
use rlz_store::{DocMap, FileBackend, RlzWriter, StorageBackend};
use std::path::Path;
use std::time::Instant;

/// What a write replay did: input and factor counts, and the time of each
/// stage in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Writes {
    pub bytes: u64,
    pub factors: u64,
    pub literals: u64,
    pub factorize_ns: u64,
    pub encode_ns: u64,
    /// `RlzWriter::append_encoded` + `finish`; 0 without a writer.
    pub write_ns: u64,
}

impl Writes {
    pub fn factors_per_kib(&self) -> f64 {
        self.factors as f64 / (self.bytes as f64 / 1024.0)
    }

    pub fn literal_share(&self) -> f64 {
        self.literals as f64 / self.factors as f64
    }

    /// Factorize + encode nanoseconds per input byte: the `rlz` cost of
    /// storing one byte.
    pub fn rlz_ns_per_byte(&self) -> f64 {
        (self.factorize_ns + self.encode_ns) as f64 / self.bytes as f64
    }
}

/// Runs `docs` one at a time through factorize and encode, and appends
/// each record to `writer` when one is given, until `limit` input bytes
/// have been replayed. Spans: `rlz.factorize`, `rlz.encode`, `store.write`,
/// with the document's index as request id.
pub fn writes<D: AsRef<[u8]>>(
    docs: impl Iterator<Item = D>,
    comp: &RlzCompressor,
    limit: usize,
    mut writer: Option<RlzWriter>,
) -> Writes {
    let mut scratch = EncodeScratch::new();
    let mut enc = Vec::new();
    let mut w = Writes::default();
    for (id, doc) in docs.enumerate() {
        if w.bytes as usize >= limit {
            break;
        }
        let (doc, id) = (doc.as_ref(), id as u64);
        let factors = stage("rlz.factorize", id, &mut w.factorize_ns, || {
            comp.factorize(doc)
        });
        w.bytes += doc.len() as u64;
        w.factors += factors.len() as u64;
        w.literals += factors.iter().filter(|f| f.is_literal()).count() as u64;
        enc.clear();
        stage("rlz.encode", id, &mut w.encode_ns, || {
            encode_document_into(&factors, comp.coding(), &mut scratch, &mut enc)
        });
        if let Some(out) = writer.as_mut() {
            stage("store.write", id, &mut w.write_ns, || {
                out.append_encoded(&enc)
            })
            .unwrap_or_else(|e| fail(&format!("replay append: {e}")));
        }
    }
    if let Some(out) = writer {
        stage("store.write", u64::MAX, &mut w.write_ns, || out.finish())
            .unwrap_or_else(|e| fail(&format!("replay finish: {e}")));
    }
    w
}

/// Runs `f` inside a span named `name` and adds its time to `ns`.
fn stage<T>(name: &'static str, id: u64, ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let _g = trace::span(name, id);
    let t = Instant::now();
    let out = f();
    *ns += t.elapsed().as_nanos() as u64;
    out
}

/// Mean per-document microseconds of each stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub docmap_us: f64,
    pub pread_us: f64,
    pub crc_us: f64,
    pub decode_us: f64,
    pub expand_us: f64,
    pub docs: u64,
    pub mismatches: u64,
}

impl Stages {
    pub fn sum_us(&self) -> f64 {
        self.docmap_us + self.pread_us + self.crc_us + self.decode_us + self.expand_us
    }

    /// Each layer's share of a per-document read: `store` (docmap, pread),
    /// `codecs` (crc32c), `rlz` (decode, expand).
    pub fn shares(&self) -> [(&'static str, f64); 3] {
        let sum = self.sum_us();
        [
            ("store", (self.docmap_us + self.pread_us) / sum),
            ("codecs", self.crc_us / sum),
            ("rlz", (self.decode_us + self.expand_us) / sum),
        ]
    }
}

/// Replays `ids` against the RLZ store in `dir` (built with `coding`),
/// checking each document against `truth`.
pub fn read_path<'a>(
    dir: &Path,
    coding: PairCoding,
    ids: &[u32],
    truth: impl Fn(u32) -> &'a [u8],
) -> Stages {
    let read = |name: &str| {
        std::fs::read(dir.join(name)).unwrap_or_else(|e| fail(&format!("replay {name}: {e}")))
    };
    let map = DocMap::deserialize(&read("docmap.bin"))
        .unwrap_or_else(|e| fail(&format!("replay docmap: {e}")));
    let dict = read("dict.bin");
    let payload = FileBackend::open(&dir.join("payload.bin"))
        .unwrap_or_else(|e| fail(&format!("replay payload: {e}")));
    let mut scratch = DecodeScratch::new();
    let (mut enc, mut out, mut factors) = (Vec::new(), Vec::new(), Vec::<Factor>::new());
    let mut ns = [0u64; 5];
    let mut st = Stages::default();
    for &id in ids {
        let _doc = trace::span("store.replay", id as u64);
        let mut lap = Instant::now();
        let mut stage = |i: usize, lap: &mut Instant| {
            let now = Instant::now();
            ns[i] += now.duration_since(*lap).as_nanos() as u64;
            *lap = now;
        };
        let extent = {
            let _g = trace::span("store.docmap", id as u64);
            map.extent(id as usize)
        };
        stage(0, &mut lap);
        let Some((offset, len)) = extent else {
            st.mismatches += 1;
            continue;
        };
        enc.resize(len, 0);
        let read_ok = {
            let _g = trace::span("store.pread", id as u64);
            payload.read_exact_at(&mut enc, offset).is_ok()
        };
        stage(1, &mut lap);
        let sum = {
            let _g = trace::span("codecs.crc32c", id as u64);
            crc32c(&enc)
        };
        std::hint::black_box(sum);
        stage(2, &mut lap);
        let decoded = {
            let _g = trace::span("rlz.decode", id as u64);
            scratch.decode_streams(&enc, coding).map(|(pos, lens)| {
                factors.clear();
                factors.extend(pos.iter().zip(lens).map(|(&pos, &len)| Factor { pos, len }));
            })
        };
        stage(3, &mut lap);
        out.clear();
        let expanded = {
            let _g = trace::span("rlz.expand", id as u64);
            decoded.is_ok() && expand(&dict, &factors, &mut out).is_ok()
        };
        stage(4, &mut lap);
        st.docs += 1;
        if !(read_ok && expanded && out == truth(id)) {
            st.mismatches += 1;
        }
    }
    let per_doc = |n: u64| n as f64 / 1e3 / st.docs.max(1) as f64;
    st.docmap_us = per_doc(ns[0]);
    st.pread_us = per_doc(ns[1]);
    st.crc_us = per_doc(ns[2]);
    st.decode_us = per_doc(ns[3]);
    st.expand_us = per_doc(ns[4]);
    st
}
