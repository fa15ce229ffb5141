//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around the calls it makes
//! into each layer — nothing inside the program's crates is instrumented.
//! Each thread appends to a buffer of its own (its lock is uncontended);
//! every buffer is registered globally, so [`take_all`] collects the spans
//! of all threads — the server's workers included — when the run ends.
//! Nesting on one thread is tracked with a per-thread stack, so a
//! `store.pread` recorded inside a `store.get` names it as parent. Spans of
//! different threads (a client request and the server-side store call it
//! caused) are linked afterwards by [`link_by_request`].

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Cap on recorded spans per run; later spans are counted but dropped.
const MAX_SPANS: u64 = 2_000_000;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `store.get`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique, nonzero.
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request identity: the doc id a request or store call is about.
    pub req: u64,
    /// Free argument: bytes moved, factors produced, and so on.
    pub arg: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDED: AtomicU64 = AtomicU64::new(0);
type Buffer = Arc<Mutex<Vec<Span>>>;
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder's epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts an `Instant` to the recorder's clock.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

struct Local {
    spans: Buffer,
    stack: Vec<u64>,
}

impl Default for Local {
    fn default() -> Self {
        let spans = Buffer::default();
        BUFFERS
            .lock()
            .expect("span buffers")
            .push(Arc::clone(&spans));
        Local {
            spans,
            stack: Vec::new(),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Release);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn push(span: Span) {
    if RECORDED.fetch_add(1, Ordering::Relaxed) < MAX_SPANS {
        LOCAL.with(|l| l.borrow().spans.lock().expect("span buffer").push(span));
    }
}

/// An open span; recorded when dropped. Inert while tracing is off.
pub struct Guard {
    name: &'static str,
    start_ns: u64,
    id: u64,
    parent: u64,
    pub req: u64,
    pub arg: u64,
}

/// Opens a span named `name` about request `req`, nested under the
/// innermost open span of this thread.
pub fn span(name: &'static str, req: u64) -> Guard {
    if !enabled() {
        return Guard {
            name,
            start_ns: 0,
            id: 0,
            parent: 0,
            req,
            arg: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        parent
    });
    Guard {
        name,
        start_ns: now_ns(),
        id,
        parent,
        req,
        arg: 0,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last() == Some(&self.id) {
                l.stack.pop();
            }
        });
        push(Span {
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            id: self.id,
            parent: self.parent,
            req: self.req,
            arg: self.arg,
        });
    }
}

/// Records an already-measured interval (an open-loop request timed from
/// its due time) as a root span. `ids` are the doc ids the request asked
/// for: the first is its request id, and every one of them can tie a
/// server-side span to it.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, ids: &[u32], arg: u64) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if ids.len() > 1 {
        BATCH_IDS
            .lock()
            .expect("batch ids")
            .insert(id, ids.to_vec());
    }
    push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent: 0,
        req: ids.first().map_or(0, |&i| i as u64),
        arg,
    });
}

/// The doc ids of recorded multi-document requests, by span id.
static BATCH_IDS: Mutex<BTreeMap<u64, Vec<u32>>> = Mutex::new(BTreeMap::new());

/// Edits the span this thread recorded last (a value known only after
/// the span closed).
pub fn annotate_last(f: impl FnOnce(&mut Span)) {
    LOCAL.with(|l| {
        if let Some(s) = l.borrow().spans.lock().expect("span buffer").last_mut() {
            f(s)
        }
    });
}

/// Every span recorded so far by any thread, ordered by start time; the
/// buffers are left empty.
pub fn take_all() -> Vec<Span> {
    let mut spans = Vec::new();
    for buf in BUFFERS.lock().expect("span buffers").iter() {
        spans.append(&mut buf.lock().expect("span buffer"));
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    RECORDED.store(0, Ordering::Relaxed);
    spans
}

/// Gives every root span named in `children` a parent: the span of
/// `parents` with the same request id whose interval contains it. This is
/// how a store call on a server worker is tied to the client request that
/// caused it. Returns how many were linked.
pub fn link_by_request(spans: &mut [Span], parents: &[&str], children: &[&str]) -> usize {
    let batches = BATCH_IDS.lock().expect("batch ids");
    let mut by_req: HashMap<u64, Vec<(u64, u64, u64)>> = HashMap::new();
    for s in spans.iter() {
        if parents.contains(&s.name) {
            let entry = (s.start_ns, s.end_ns, s.id);
            match batches.get(&s.id) {
                Some(ids) => {
                    for &i in ids {
                        by_req.entry(i as u64).or_default().push(entry);
                    }
                }
                None => by_req.entry(s.req).or_default().push(entry),
            }
        }
    }
    let mut linked = 0;
    for s in spans.iter_mut() {
        if s.parent != 0 || !children.contains(&s.name) {
            continue;
        }
        if let Some(cands) = by_req.get(&s.req) {
            if let Some(&(_, _, id)) = cands
                .iter()
                .filter(|&&(a, b, _)| a <= s.start_ns && s.end_ns <= b)
                .min_by_key(|&&(a, b, _)| b - a)
            {
                s.parent = id;
                linked += 1;
            }
        }
    }
    linked
}

/// Self time per span id: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out = HashMap::with_capacity(spans.len());
    for s in spans {
        let covered = match kids.get_mut(&s.id) {
            Some(iv) => covered_ns(iv, s.start_ns, s.end_ns),
            None => 0,
        };
        out.insert(s.id, s.dur_ns().saturating_sub(covered));
    }
    out
}

/// Length of the union of `iv`, clipped to `[lo, hi]`.
fn covered_ns(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Summed self time per layer, in seconds.
pub fn self_time_by_layer(spans: &[Span]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.layer()).or_default() += selfs[&s.id] as f64 / 1e9;
    }
    out
}

/// Moves part of the `store` layer's self time to the layers below it.
///
/// The wrappers see a store call only at its edges, so a served span tree
/// charges everything a store call runs — factorize, decode, checksums —
/// to `store`. A serial replay of the same work measures how much of that
/// belongs to each lower layer; `moved` gives those seconds per layer, and
/// they are taken out of `store` (never below 0), so every second of the
/// served tree is counted once.
pub fn move_from_store(by_layer: &mut HashMap<&'static str, f64>, moved: &[(&'static str, f64)]) {
    let mut store = by_layer.get("store").copied().unwrap_or(0.0);
    for &(layer, secs) in moved {
        let secs = secs.clamp(0.0, store);
        store -= secs;
        *by_layer.entry(layer).or_default() += secs;
    }
    by_layer.insert("store", store);
}

/// Writes spans as JSON lines (`name start_ns end_ns id parent req arg`
/// plus the computed self time).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{},\"arg\":{},\"self_ns\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.req, s.arg, selfs[&s.id]
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, id: u64, parent: u64, req: u64) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            id,
            parent,
            req,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            sp("serve.get", 0, 100, 1, 0, 7),
            sp("store.get", 10, 50, 2, 1, 7),
            sp("store.pread", 20, 30, 3, 2, 0),
            sp("store.get", 40, 60, 4, 1, 7),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50);
        assert_eq!(st[&2], 40 - 10);
        assert_eq!(st[&3], 10);
        let mut by_layer = self_time_by_layer(&spans);
        assert!((by_layer["serve"] - 50e-9).abs() < 1e-15);
        // store self time: 30 + 10 (pread) + 20 = 60 ns; move 45 to rlz,
        // then ask for more than is left for codecs.
        move_from_store(&mut by_layer, &[("rlz", 45e-9), ("codecs", 1.0)]);
        assert!((by_layer["rlz"] - 45e-9).abs() < 1e-15);
        assert!((by_layer["codecs"] - 15e-9).abs() < 1e-15);
        assert_eq!(by_layer["store"], 0.0);
    }

    #[test]
    fn cross_thread_link_picks_containing_request_with_same_id() {
        let mut spans = [
            sp("serve.get", 0, 100, 1, 0, 7),
            sp("serve.get", 0, 100, 2, 0, 8),
            sp("store.get", 10, 50, 3, 0, 8),
            sp("store.get", 200, 250, 4, 0, 8),
        ];
        let n = link_by_request(&mut spans, &["serve.get"], &["store.get"]);
        assert_eq!(n, 1);
        assert_eq!(spans[2].parent, 2);
        assert_eq!(spans[3].parent, 0);
    }
}
