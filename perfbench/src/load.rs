//! Load generators: an open loop at a fixed rate and a closed loop over
//! keep-alive connections. Each counts what it attempted and what failed;
//! a failure is a non-200 status, a transport error or timeout, or an
//! answer that fails its check.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::client::{Conn, Response, REQUEST_TIMEOUT};

/// One request body and what its answer must be.
pub struct Req {
    pub body: Vec<u8>,
    /// The reference answer's exact bytes.
    pub expected: Vec<u8>,
}

impl Req {
    pub fn accepts(&self, resp: &Response) -> bool {
        resp.status == 200 && resp.body == self.expected
    }
}

/// Operation counts of one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub status_503: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.status_503 += other.status_503;
    }

    /// Count one request; returns whether it succeeded.
    fn note(&mut self, req: &Req, result: &std::io::Result<Response>) -> bool {
        self.attempted += 1;
        let ok = match result {
            Ok(resp) => {
                if resp.status == 503 {
                    self.status_503 += 1;
                }
                req.accepts(resp)
            }
            Err(_) => false,
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// Send `req` on `conn`, reopening the connection after a transport error.
fn send(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    path: &str,
    req: &Req,
) -> std::io::Result<Response> {
    let c = match conn {
        Some(c) => c,
        None => conn.insert(Conn::open(addr)?),
    };
    let result = c.request("POST", path, &req.body);
    if result.is_err() {
        *conn = None;
    }
    result
}

pub struct OpenLoop {
    /// Completion time minus scheduled send time, per request, in µs; a
    /// failed request counts as the request timeout.
    pub latency_us: Vec<f64>,
    /// Actual send time minus scheduled send time, per request, in µs.
    pub late_us: Vec<f64>,
    /// Lateness of the last request sent: a backlog that grew during the
    /// window shows here.
    pub final_late_us: f64,
    pub tally: Tally,
}

/// Wait until `deadline`: sleep most of the way, then yield through the
/// last stretch so the send is not late by the scheduler's timer slack,
/// without keeping a core from the server's threads.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if deadline > now + SPIN {
        std::thread::sleep(deadline - now - SPIN);
    }
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Open loop: `count` bodies at `rate` per second, starting at stream
/// index `first`, slot `i` sent on connection `i % conns`. Every latency is
/// measured from the slot's scheduled time, so a stall delays the
/// requests queued behind it and shows in their latency.
pub fn open_loop(
    addr: SocketAddr,
    path: &str,
    stream: &[Req],
    first: usize,
    count: usize,
    rate: f64,
    conns: usize,
) -> OpenLoop {
    let start = Instant::now() + Duration::from_millis(2);
    let interval = 1.0 / rate;
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr).ok();
                    let mut tally = Tally::default();
                    let mut latency = Vec::with_capacity(count / conns + 1);
                    let mut late = Vec::with_capacity(count / conns + 1);
                    let mut last_late = 0.0;
                    for i in (c..count).step_by(conns) {
                        let slot = start + Duration::from_secs_f64(i as f64 * interval);
                        wait_until(slot);
                        let sent = Instant::now();
                        let req = &stream[(first + i) % stream.len()];
                        let result = send(&mut conn, addr, path, req);
                        let done = Instant::now();
                        let ok = tally.note(req, &result);
                        latency.push(if ok {
                            (done - slot).as_secs_f64() * 1e6
                        } else {
                            REQUEST_TIMEOUT.as_secs_f64() * 1e6
                        });
                        last_late = (sent - slot).as_secs_f64() * 1e6;
                        late.push(last_late);
                    }
                    (latency, late, last_late, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = OpenLoop {
        latency_us: Vec::with_capacity(count),
        late_us: Vec::with_capacity(count),
        final_late_us: 0.0,
        tally: Tally::default(),
    };
    for (latency, late, last_late, tally) in per_conn {
        out.latency_us.extend(latency);
        out.late_us.extend(late);
        out.final_late_us = out.final_late_us.max(last_late);
        out.tally.add(tally);
    }
    out
}

pub struct ClosedLoop {
    pub ok: u64,
    pub elapsed: Duration,
    pub tally: Tally,
}

impl ClosedLoop {
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.elapsed.as_secs_f64()
    }
}

/// Closed loop for `secs`: `conns` keep-alive connections each send their
/// next body as soon as the previous answer arrives, walking the stream
/// from `first`.
pub fn closed_loop(
    addr: SocketAddr,
    path: &str,
    stream: &[Req],
    first: usize,
    secs: f64,
    conns: usize,
) -> ClosedLoop {
    let length = Duration::from_secs_f64(secs);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut conn = Conn::open(addr).ok();
                    let mut tally = Tally::default();
                    let mut ok = 0u64;
                    while start.elapsed() < length {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let req = &stream[(first + i) % stream.len()];
                        let result = send(&mut conn, addr, path, req);
                        if tally.note(req, &result) {
                            ok += 1;
                        }
                    }
                    (ok, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut out = ClosedLoop {
        ok: 0,
        elapsed,
        tally: Tally::default(),
    };
    for (ok, tally) in per_conn {
        out.ok += ok;
        out.tally.add(tally);
    }
    out
}
