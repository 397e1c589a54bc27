//! Load phases: paced open-loop windows and closed-loop saturation.

use std::net::SocketAddr;

use crate::load::{self, closed_loop, open_loop, Req, Tally};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{CONNS, PATH, TAIL_LIMIT_US};

/// Where the next phase starts in the stream: past everything sent so far,
/// rounded up to a whole block.
pub(crate) struct Cursor {
    pub(crate) next: usize,
    pub(crate) align: usize,
}

impl Cursor {
    pub(crate) fn take(&mut self, count: usize) -> usize {
        let first = self.next;
        self.next = (self.next + count).div_ceil(self.align) * self.align;
        first
    }
}

/// Bodies an open loop at `rate` sends in `secs`, in whole blocks.
fn window(rate: f64, secs: f64, align: usize) -> usize {
    let count = ((rate * secs).round() as usize).max(1);
    count.div_ceil(align) * align
}

/// One paced phase: open-loop windows at one rate. Each window's tail is
/// taken over at least [`MIN_WINDOW_SAMPLES`] where the phase has them, so
/// it is p99; the phase's tail is the median window's, so that one stall of
/// the shared host moves one window, not the figure. Short windows keep
/// most of them clear of the host's stalls, which come every second or so.
pub(crate) struct Paced {
    pub(crate) windows: Vec<load::OpenLoop>,
}

/// Windows per paced phase, fewer when each would hold less than
/// [`MIN_WINDOW_SAMPLES`].
const WINDOWS: usize = 9;
const MIN_WINDOW_SAMPLES: usize = 1000;
/// Closed-loop windows per saturation phase.
const SATURATION_WINDOWS: usize = 3;
/// A window whose last send is later than this share of its length has a
/// growing backlog: the server did not keep up with the offered rate.
const BACKLOG_SHARE: f64 = 0.05;

/// `secs` of open loop at `rate`, split into windows.
pub(crate) fn paced(
    addr: SocketAddr,
    stream: &[Req],
    cursor: &mut Cursor,
    rate: f64,
    secs: f64,
) -> Paced {
    let total = window(rate, secs, cursor.align);
    // An odd count, rounded down so no window falls below the minimum, so
    // that the median window is one window, not the better of two.
    let k = ((total / MIN_WINDOW_SAMPLES).clamp(1, WINDOWS) - 1) | 1;
    let each = (total / k).div_ceil(cursor.align) * cursor.align;
    let windows = (0..k)
        .map(|_| {
            let first = cursor.take(each);
            open_loop(addr, PATH, stream, first, each, rate, CONNS)
        })
        .collect();
    Paced { windows }
}

impl Paced {
    pub(crate) fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for win in &self.windows {
            t.add(win.tally);
        }
        t
    }

    pub(crate) fn pooled(&self, f: impl Fn(&load::OpenLoop) -> &[f64]) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| f(w).iter().copied())
            .collect()
    }

    /// Each window's latency summary.
    pub(crate) fn summaries(&self) -> Vec<Summary> {
        self.windows
            .iter()
            .filter_map(|w| summarize(&w.latency_us))
            .collect()
    }

    /// The phase's tail: the median of its windows' tails.
    pub(crate) fn tail(&self) -> f64 {
        let tails: Vec<f64> = self.summaries().iter().map(|s| s.tail).collect();
        median(&tails)
    }

    /// The rate holds the SLO: no failures, the tail within the limit, and
    /// no growing backlog — the generator ends the median window within
    /// [`BACKLOG_SHARE`] of the window's length behind schedule.
    pub(crate) fn passes(&self, rate: f64) -> bool {
        let backlog: Vec<f64> = self
            .windows
            .iter()
            .map(|win| win.final_late_us / (1e6 * win.latency_us.len() as f64 / rate))
            .collect();
        self.tally().failed == 0
            && self.tail() <= TAIL_LIMIT_US
            && median(&backlog) <= BACKLOG_SHARE
    }
}

/// Closed-loop throughput: the rate of each of [`SATURATION_WINDOWS`]
/// windows splitting `secs`.
pub(crate) fn saturation(
    addr: SocketAddr,
    stream: &[Req],
    cursor: &mut Cursor,
    secs: f64,
) -> (Vec<f64>, Tally) {
    let mut tally = Tally::default();
    let rates = (0..SATURATION_WINDOWS)
        .map(|_| {
            let each = secs / SATURATION_WINDOWS as f64;
            let run = closed_loop(addr, PATH, stream, cursor.next, each, CONNS);
            cursor.take(run.tally.attempted as usize);
            tally.add(run.tally);
            run.rate()
        })
        .collect();
    (rates, tally)
}
