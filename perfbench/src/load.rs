//! Open-loop load over one connection: requests are sent on a fixed
//! schedule whether or not earlier ones have been answered, and each is
//! timed from the moment it was *due*, so a stall is charged to every
//! request it delays. One thread drives one connection: it sends whatever
//! is due, otherwise reads the oldest outstanding response.

use crate::trace;
use rlz_serve::{Client, ClientError};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Requests in flight on one connection before the generator stops
/// sending and drains (it then runs late, which the latencies show).
pub const MAX_OUTSTANDING: usize = 32;

/// Time windows a phase's latencies and rates are split into; a figure is
/// the median over the windows, so one stall of the machine spoils one
/// window, not the figure.
pub const WINDOWS: usize = 10;

/// Documents in the MGET that keeps one server worker busy while
/// [`connect_pair`] checks where the second connection landed: long
/// enough (milliseconds) to stand out from a STAT's round trip.
pub const PLACEMENT_DOCS: usize = 1000;

/// What one open-loop phase measured.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Due-time-to-response latencies of answered requests, microseconds.
    pub lat_us: Vec<f64>,
    /// How late each request was sent, microseconds.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    /// Failed requests (errors, `ERR_BUSY` sheds, wrong bytes).
    pub failed: u64,
    pub busy: u64,
    /// Documents returned and verified.
    pub docs: u64,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// When each latency in `lat_us` completed, seconds from the start.
    pub done_s: Vec<f64>,
    /// Documents per answered request.
    pub docs_per_req: u64,
    /// The sending period, seconds.
    pub dur_s: f64,
}

/// Which of `windows` equal slices of `[0, dur_s)` time `t` falls in.
fn window_of(t: f64, dur_s: f64, windows: usize) -> Option<usize> {
    let w = (t / dur_s * windows as f64) as usize;
    (t >= 0.0 && w < windows).then_some(w)
}

/// Each time window's `q`-quantile of latency (windows without samples
/// left out).
pub fn windowed_quantiles(ph: &Phase, windows: usize, q: f64) -> Vec<f64> {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (&t, &lat) in ph.done_s.iter().zip(&ph.lat_us) {
        if let Some(w) = window_of(t, ph.dur_s, windows) {
            per[w].push(lat);
        }
    }
    per.iter_mut()
        .filter(|v| !v.is_empty())
        .map(|v| crate::stats::quantile(v, q))
        .collect()
}

/// The median over windows of each window's `q`-quantile of latency:
/// a burst of interference from outside the program spoils one window,
/// not the figure.
pub fn windowed_quantile(ph: &Phase, windows: usize, q: f64) -> f64 {
    crate::stats::median(&windowed_quantiles(ph, windows, q))
}

/// The median over windows of documents completed per second across
/// `phases` run side by side.
pub fn windowed_rate(phases: &[&Phase], windows: usize) -> f64 {
    let dur_s = phases.iter().map(|p| p.dur_s).fold(0.0, f64::max);
    let mut docs = vec![0u64; windows];
    for ph in phases {
        for &t in &ph.done_s {
            if let Some(w) = window_of(t, dur_s, windows) {
                docs[w] += ph.docs_per_req;
            }
        }
    }
    let rates: Vec<f64> = docs
        .iter()
        .map(|&d| d as f64 / (dur_s / windows as f64))
        .collect();
    crate::stats::median(&rates)
}

impl Phase {
    pub fn merge(&mut self, o: &Phase) {
        self.lat_us.extend_from_slice(&o.lat_us);
        self.late_us.extend_from_slice(&o.late_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.busy += o.busy;
        self.docs += o.docs;
        self.wall_s = self.wall_s.max(o.wall_s);
    }
}

/// Request shapes a connection can send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    MGet,
}

/// Sends `next_ids()` as GETs (one id) or MGETs at `rate` per second for
/// `dur`, then drains, with at most `max_outstanding` requests in flight;
/// `rate = f64::INFINITY` with one request in flight is a closed loop.
/// `check(id, bytes)` verifies each returned document after its latency
/// has been taken. Spans are named `serve.get` / `serve.mget` with the
/// first doc id as request id.
pub fn open_loop(
    client: &mut Client,
    kind: Kind,
    rate: f64,
    max_outstanding: usize,
    dur: Duration,
    mut next_ids: impl FnMut() -> Vec<u32>,
    check: impl Fn(u32, &[u8]) -> bool,
) -> Phase {
    precise_sleeps();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let end = start + dur;
    let mut ph = Phase {
        dur_s: dur.as_secs_f64(),
        ..Phase::default()
    };
    let mut outstanding: VecDeque<(Instant, Vec<u32>)> = VecDeque::new();
    let mut sent = 0u32;
    let mut buf = Vec::new();
    loop {
        let now = Instant::now();
        // In a closed loop each request is due when it may be sent.
        let due = if rate.is_finite() {
            start + interval * sent
        } else {
            now
        };
        // A generator that fell behind does not catch up after the end.
        let sending = due < end && now < end;
        if !sending && outstanding.is_empty() {
            break;
        }
        if sending && now >= due && outstanding.len() < max_outstanding {
            let ids = next_ids();
            let res = match kind {
                Kind::Get => client.send_get(ids[0]),
                Kind::MGet => client.send_mget(&ids),
            };
            ph.attempted += 1;
            ph.late_us.push(now.duration_since(due).as_secs_f64() * 1e6);
            sent += 1;
            match res {
                Ok(()) => outstanding.push_back((due, ids)),
                Err(_) => {
                    ph.failed += 1;
                    break;
                }
            }
            continue;
        }
        if let Some((due, ids)) = outstanding.pop_front() {
            let (res, docs) = match kind {
                Kind::Get => {
                    buf.clear();
                    (client.recv_get_into(&mut buf), None)
                }
                Kind::MGet => match client.recv_mget(ids.len()) {
                    Ok(d) => (Ok(()), Some(d)),
                    Err(e) => (Err(e), None),
                },
            };
            let done = Instant::now();
            let lat = done.duration_since(due);
            let name = if kind == Kind::Get {
                "serve.get"
            } else {
                "serve.mget"
            };
            trace::record(
                name,
                trace::ns_of(due),
                trace::ns_of(done),
                &ids,
                ids.len() as u64,
            );
            match res {
                Ok(()) => {
                    let good = match &docs {
                        None => check(ids[0], &buf),
                        Some(d) => {
                            d.len() == ids.len() && ids.iter().zip(d).all(|(&id, b)| check(id, b))
                        }
                    };
                    if good {
                        ph.docs += ids.len() as u64;
                        ph.docs_per_req = ids.len() as u64;
                        ph.lat_us.push(lat.as_secs_f64() * 1e6);
                        ph.done_s.push(done.duration_since(start).as_secs_f64());
                    } else {
                        ph.failed += 1;
                    }
                }
                Err(e) => {
                    ph.failed += 1;
                    if e.is_busy() {
                        ph.busy += 1;
                    } else {
                        // A transport or protocol error leaves the stream
                        // unusable; the rest of the phase is lost.
                        ph.failed += outstanding.len() as u64;
                        break;
                    }
                }
            }
            continue;
        }
        // Idle until the next due time: sleep the bulk (timer slack was
        // cut to 1 ns, so the wake-up is close), spin the last bit. The
        // client shares the machine with the server, so spinning long
        // would steal the server's CPU.
        let wait = due.saturating_duration_since(Instant::now());
        if wait > SPIN {
            std::thread::sleep(wait - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
    ph.wall_s = start.elapsed().as_secs_f64();
    ph
}

/// Opens the benchmark's two connections so that they are served by
/// different server workers. Each worker accepts from the shared listener,
/// so which one takes a connection is otherwise a coin flip — and two
/// connections on one worker queue behind each other, which swings
/// latency and throughput from run to run.
///
/// Placement is checked by measurement: while the first connection's
/// worker is inside one large MGET of `busy_ids`, a STAT on the second
/// connection must come back in a fraction of the MGET's time. Otherwise
/// the second connection is reopened (connecting while the first worker
/// is busy makes the idle worker the likely acceptor).
pub fn connect_pair(addr: SocketAddr, busy_ids: &[u32]) -> [Client; 2] {
    let fail = |e: ClientError| -> ! { crate::fail(&format!("placing connections: {e}")) };
    let connect =
        || Client::connect(addr).unwrap_or_else(|e| crate::fail(&format!("connect: {e}")));
    let mut first = connect();
    first.server_stat().unwrap_or_else(|e| fail(e));
    for _ in 0..16 {
        first.send_mget(busy_ids).unwrap_or_else(|e| fail(e));
        let mut second = connect();
        second.server_stat().unwrap_or_else(|e| fail(e));
        first.recv_mget(busy_ids.len()).unwrap_or_else(|e| fail(e));
        // Probe: how long the batch alone takes, then a STAT beside it.
        let t = Instant::now();
        first.mget(busy_ids).unwrap_or_else(|e| fail(e));
        let alone = t.elapsed();
        first.send_mget(busy_ids).unwrap_or_else(|e| fail(e));
        let t = Instant::now();
        second.server_stat().unwrap_or_else(|e| fail(e));
        let beside = t.elapsed();
        first.recv_mget(busy_ids.len()).unwrap_or_else(|e| fail(e));
        if beside * 4 < alone {
            return [first, second];
        }
    }
    crate::fail("could not place the two connections on different server workers")
}

/// How long before a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(15);

/// Cuts this thread's timer slack (default 50 µs) to 1 ns, so sleeping
/// until a due time does not overshoot it by tens of microseconds.
fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // changes the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }
}
