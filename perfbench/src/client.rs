//! The benchmark's own wire client: one thread, one nonblocking socket
//! per tenant, multiplexed with `ppoll`. It speaks `bnb_serve::protocol`
//! directly, times every open-loop frame from the moment it was *due*,
//! and verifies every reply before counting it.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use bnb_serve::protocol::{FrameAssembler, Message};

use crate::frames::{sources_deliver, Pool, REQUEST_ID_AT, TENANT_AT};
use crate::stats;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Frames due at a fixed aggregate `rate` (frames/s), dealt to the
    /// connections round-robin, for `duration`. Issuing stops early once
    /// `abort_outstanding` frames are unanswered (a growing backlog).
    Open {
        rate: f64,
        duration: Duration,
        abort_outstanding: usize,
    },
    /// Each of the first `conns` connections keeps `window` frames in
    /// flight for `duration`; a reply releases the next send.
    Closed {
        window: usize,
        conns: usize,
        duration: Duration,
    },
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Pending,
    Served,
    Retried,
    Errored,
    Misdelivered,
}

/// One request's timeline, in nanoseconds since the client's epoch. In a
/// traced phase these are the request spans (due → sent → answered →
/// verified) and `id` is the request id shared with the server.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub id: u64,
    pub conn: u8,
    pub frame: u32,
    pub due: u64,
    pub sent: u64,
    pub answered: u64,
    pub verified: u64,
    pub outcome: Outcome,
}

/// One phase's ledger and raw samples.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    pub served: u64,
    pub retried: u64,
    pub errored: u64,
    pub misdelivered: u64,
    pub unanswered: u64,
    /// `(due, verified)` per served frame, in nanoseconds since the epoch.
    pub deliveries: Vec<(u64, u64)>,
    /// Sent − due, per sent frame: how far the generator ran behind.
    pub lags_ns: Vec<u64>,
    /// When issuing began, and for how long it ran.
    pub start_ns: u64,
    pub duration_ns: u64,
    /// Client-thread CPU over the phase.
    pub busy_ns: u64,
    /// Wall time of the whole phase, drain included.
    pub wall_ns: u64,
    /// Frames unanswered when issuing stopped.
    pub outstanding_at_end: usize,
    /// Issuing stopped early on a growing backlog.
    pub aborted: bool,
    /// Every request's timeline (traced phases only).
    pub spans: Vec<Req>,
}

/// Samples per latency window: enough for ten beyond its 99th
/// percentile.
const WINDOW_SAMPLES: usize = 1000;
/// Time windows the throughput of a closed-loop phase is cut into.
const THROUGHPUT_WINDOWS: usize = 5;

impl PhaseResult {
    /// RETRY + ERROR + misdelivered + unanswered, over attempted.
    pub fn fail_ratio(&self) -> f64 {
        let failed = self.retried + self.errored + self.misdelivered + self.unanswered;
        failed as f64 / self.attempted.max(1) as f64
    }

    /// The client ledger: every attempted frame is accounted for once.
    pub fn balanced(&self) -> bool {
        self.attempted
            == self.served + self.retried + self.errored + self.misdelivered + self.unanswered
    }

    /// Due → verified, per served frame, in due order.
    pub fn latencies(&self) -> Vec<u64> {
        let mut d = self.deliveries.clone();
        d.sort_unstable();
        d.iter().map(|&(due, v)| v.saturating_sub(due)).collect()
    }

    /// Exact `q`-quantile of the latencies in ns (0 without samples).
    pub fn latency_ns(&self, q: f64) -> f64 {
        stats::quantile(&mut self.latencies(), q).unwrap_or(0) as f64
    }

    /// The 99th percentile, robust to a lone stall: the latencies are cut
    /// (in due order) into an odd number of windows of at least
    /// [`WINDOW_SAMPLES`] each, the exact p99 is taken in every window,
    /// and the median window is reported.
    pub fn p99_ns(&self) -> f64 {
        let lat = self.latencies();
        let mut k = (lat.len() / WINDOW_SAMPLES).max(1);
        if k.is_multiple_of(2) {
            k -= 1;
        }
        let per = lat.len().div_ceil(k).max(1);
        let mut p99s: Vec<f64> = lat
            .chunks(per)
            .map(|w| stats::quantile(&mut w.to_vec(), 0.99).unwrap_or(0) as f64)
            .collect();
        stats::median_f64(&mut p99s).unwrap_or(0.0)
    }

    /// Frames verified per second in each of equal time windows of the
    /// issuing period.
    pub fn window_rates(&self) -> Vec<f64> {
        let slice = (self.duration_ns / THROUGHPUT_WINDOWS as u64).max(1);
        let mut counts = [0u64; THROUGHPUT_WINDOWS];
        for &(_, v) in &self.deliveries {
            let i = (v.saturating_sub(self.start_ns) / slice) as usize;
            if v >= self.start_ns && i < THROUGHPUT_WINDOWS {
                counts[i] += 1;
            }
        }
        counts
            .iter()
            .map(|&c| c as f64 * 1e9 / slice as f64)
            .collect()
    }

    /// Frames verified within the issuing period.
    pub fn verified_in_period(&self) -> u64 {
        let end = self.start_ns + self.duration_ns;
        let inside = |&&(_, v): &&(u64, u64)| v >= self.start_ns && v < end;
        self.deliveries.iter().filter(inside).count() as u64
    }

    /// The median of [`Self::window_rates`].
    pub fn throughput_fps(&self) -> f64 {
        stats::median_f64(&mut self.window_rates()).unwrap_or(0.0)
    }
}

/// Stamps `now` as the send time of every request in `unsent` whose
/// bytes end at or before `out_pos`, and drops them from `unsent`.
/// Requests below `base` belong to an earlier phase that ended with
/// their bytes still queued and wrote them off; they are sent, but their
/// replies count as late.
fn mark_sent(
    unsent: &mut VecDeque<(u64, usize)>,
    out_pos: usize,
    reqs: &mut [Req],
    base: u64,
    now: u64,
) {
    while let Some(&(id, end)) = unsent.front() {
        if end > out_pos {
            break;
        }
        if let Some(r) = id.checked_sub(base).and_then(|i| reqs.get_mut(i as usize)) {
            r.sent = now;
        }
        unsent.pop_front();
    }
}

struct Conn {
    stream: TcpStream,
    tenant: u16,
    out: Vec<u8>,
    out_pos: usize,
    /// Request ids queued in `out`, with the offset their bytes end at.
    unsent: VecDeque<(u64, usize)>,
    asm: FrameAssembler,
    outstanding: usize,
}

/// Replies a phase may wait for after it stops issuing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Client<'p> {
    pool: &'p Pool,
    conns: Vec<Conn>,
    epoch: Instant,
    next_id: u64,
    next_frame: usize,
    rbuf: Vec<u8>,
    /// Replies to requests of an earlier phase that had already been
    /// written off as unanswered.
    pub late: u64,
    /// Replies naming no outstanding request of their connection, or
    /// carrying an unexpected opcode. Any is a correctness failure.
    pub surprises: u64,
    /// Verified frames and written-off requests over all phases.
    pub served: u64,
    pub unanswered: u64,
}

impl<'p> Client<'p> {
    /// Opens `conns` connections to `addr`; connection `c` submits as
    /// tenant `c + 1`. Request timelines count nanoseconds from `epoch`.
    pub fn connect(
        addr: &str,
        conns: usize,
        pool: &'p Pool,
        epoch: Instant,
    ) -> io::Result<Client<'p>> {
        let conns = (0..conns)
            .map(|c| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    tenant: c as u16 + 1,
                    out: Vec::new(),
                    out_pos: 0,
                    unsent: VecDeque::new(),
                    asm: FrameAssembler::new(),
                    outstanding: 0,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Client {
            pool,
            conns,
            epoch,
            // Request id 1 is the set-up probe's.
            next_id: 2,
            next_frame: 0,
            rbuf: vec![0u8; 1 << 16],
            late: 0,
            surprises: 0,
            served: 0,
            unanswered: 0,
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enqueue(&mut self, reqs: &mut Vec<Req>, c: usize, due: u64) {
        let f = self.next_frame;
        self.next_frame = (f + 1) % self.pool.len();
        let id = self.next_id;
        self.next_id += 1;
        let conn = &mut self.conns[c];
        let start = conn.out.len();
        conn.out.extend_from_slice(&self.pool.submits()[f]);
        conn.out[start + TENANT_AT..start + TENANT_AT + 2]
            .copy_from_slice(&conn.tenant.to_be_bytes());
        conn.out[start + REQUEST_ID_AT..start + REQUEST_ID_AT + 8]
            .copy_from_slice(&id.to_be_bytes());
        conn.unsent.push_back((id, conn.out.len()));
        conn.outstanding += 1;
        reqs.push(Req {
            id,
            conn: c as u8,
            frame: f as u32,
            due,
            sent: 0,
            answered: 0,
            verified: 0,
            outcome: Outcome::Pending,
        });
    }

    fn flush(&mut self, c: usize, reqs: &mut [Req], base: u64) -> io::Result<()> {
        let conn = &mut self.conns[c];
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if conn
            .unsent
            .front()
            .is_some_and(|&(_, end)| end <= conn.out_pos)
        {
            let now = self.epoch.elapsed().as_nanos() as u64;
            mark_sent(&mut conn.unsent, conn.out_pos, reqs, base, now);
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos >= 1 << 20 {
            let shift = conn.out_pos;
            conn.out.drain(..shift);
            conn.out_pos = 0;
            for entry in conn.unsent.iter_mut() {
                entry.1 -= shift;
            }
        }
        Ok(())
    }

    fn receive(
        &mut self,
        c: usize,
        reqs: &mut [Req],
        base: u64,
        trace: bool,
        res: &mut PhaseResult,
    ) -> io::Result<()> {
        loop {
            match self.conns[c].stream.read(&mut self.rbuf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.conns[c].asm.feed(&self.rbuf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some((msg, _)) = self.conns[c]
            .asm
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            let answered = if trace { self.now() } else { 0 };
            let id = msg.request_id();
            if id < base {
                self.late += 1;
                continue;
            }
            let tenant = self.conns[c].tenant;
            let req = match reqs.get_mut((id - base) as usize) {
                Some(r)
                    if r.outcome == Outcome::Pending
                        && r.conn as usize == c
                        && msg.tenant() == tenant =>
                {
                    r
                }
                _ => {
                    self.surprises += 1;
                    continue;
                }
            };
            req.outcome = match &msg {
                Message::Routed { sources, .. } => {
                    if sources_deliver(&self.pool.dests[req.frame as usize], sources) {
                        Outcome::Served
                    } else {
                        Outcome::Misdelivered
                    }
                }
                Message::Retry { .. } => Outcome::Retried,
                Message::Error { .. } => Outcome::Errored,
                _ => {
                    self.surprises += 1;
                    continue;
                }
            };
            req.answered = answered;
            req.verified = self.epoch.elapsed().as_nanos() as u64;
            self.conns[c].outstanding -= 1;
            match req.outcome {
                Outcome::Served => {
                    res.served += 1;
                    res.deliveries.push((req.due, req.verified));
                }
                Outcome::Retried => res.retried += 1,
                Outcome::Errored => res.errored += 1,
                _ => res.misdelivered += 1,
            }
        }
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.outstanding).sum()
    }

    /// Runs one phase to completion: issues the load, then waits (up to
    /// a bound) for every reply.
    pub fn run(&mut self, load: Load, trace: bool) -> io::Result<PhaseResult> {
        let (duration, estimate) = match load {
            Load::Open { rate, duration, .. } => {
                (duration, (rate * duration.as_secs_f64()) as usize)
            }
            Load::Closed { duration, .. } => (duration, 1024),
        };
        let mut res = PhaseResult {
            deliveries: Vec::with_capacity(estimate + 16),
            duration_ns: duration.as_nanos() as u64,
            ..PhaseResult::default()
        };
        let mut reqs: Vec<Req> = Vec::with_capacity(estimate + 16);
        let base = self.next_id;
        let cpu0 = sys::thread_cpu_ns();
        let start = self.now() + 100_000;
        res.start_ns = start;
        let issue_end = start + res.duration_ns;
        let mut issuing = true;
        let mut stopped_at = 0;
        let mut issued = 0u64;
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        loop {
            let now = self.now();
            let mut next_due = None;
            if issuing {
                match load {
                    Load::Open {
                        rate,
                        abort_outstanding,
                        ..
                    } => loop {
                        let due = start + (issued as f64 * 1e9 / rate) as u64;
                        if due >= issue_end {
                            issuing = false;
                        } else if self.outstanding() >= abort_outstanding {
                            issuing = false;
                            res.aborted = true;
                        } else if due <= now {
                            let c = issued as usize % self.conns.len();
                            self.enqueue(&mut reqs, c, due);
                            issued += 1;
                            continue;
                        } else {
                            next_due = Some(due);
                        }
                        break;
                    },
                    Load::Closed { window, conns, .. } => {
                        if now >= issue_end {
                            issuing = false;
                        } else if now >= start {
                            for c in 0..conns {
                                while self.conns[c].outstanding < window {
                                    self.enqueue(&mut reqs, c, now);
                                }
                            }
                            next_due = Some(issue_end);
                        } else {
                            next_due = Some(start);
                        }
                    }
                }
                if !issuing {
                    res.outstanding_at_end = self.outstanding();
                    stopped_at = now;
                }
            }
            for c in 0..self.conns.len() {
                self.flush(c, &mut reqs, base)?;
                self.receive(c, &mut reqs, base, trace, &mut res)?;
            }
            if !issuing {
                if self.outstanding() == 0 && self.conns.iter().all(|c| c.out.is_empty()) {
                    break;
                }
                if self.now() > stopped_at + DRAIN_TIMEOUT.as_nanos() as u64 {
                    break;
                }
            }
            if let Load::Closed { window, conns, .. } = load {
                // Replies just read freed window slots: refill at once
                // rather than sleeping on a socket that may stay quiet.
                if issuing && self.conns[..conns].iter().any(|c| c.outstanding < window) {
                    continue;
                }
            }
            let now = self.now();
            let timeout = match next_due {
                Some(due) if due > now => Duration::from_nanos(due - now),
                Some(_) => Duration::ZERO,
                None => Duration::from_millis(5),
            };
            if timeout > Duration::ZERO {
                for (fd, c) in fds.iter_mut().zip(&self.conns) {
                    fd.events = if c.out_pos < c.out.len() {
                        POLLIN | POLLOUT
                    } else {
                        POLLIN
                    };
                }
                sys::wait(&mut fds, timeout);
            }
        }
        res.wall_ns = self.now().saturating_sub(start);
        res.busy_ns = sys::thread_cpu_ns().saturating_sub(cpu0);
        res.attempted = reqs.len() as u64;
        for r in &reqs {
            if r.sent != 0 {
                res.lags_ns.push(r.sent.saturating_sub(r.due));
            }
        }
        res.unanswered = reqs
            .iter()
            .filter(|r| r.outcome == Outcome::Pending)
            .count() as u64;
        self.served += res.served;
        self.unanswered += res.unanswered;
        // Written-off requests must not be matched by later phases.
        for conn in &mut self.conns {
            conn.outstanding = 0;
        }
        if trace {
            res.spans = reqs;
        }
        Ok(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(latencies: &[u64]) -> PhaseResult {
        PhaseResult {
            deliveries: latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| (i as u64 * 1000, i as u64 * 1000 + l))
                .collect(),
            ..PhaseResult::default()
        }
    }

    #[test]
    fn windowed_p99_ignores_a_stall_confined_to_one_window() {
        // Three windows of 1000 frames; the second holds a 50-frame stall.
        let mut lat = vec![100u64; 3000];
        for l in &mut lat[1200..1250] {
            *l = 1_000_000;
        }
        let r = phase(&lat);
        assert_eq!(r.latency_ns(0.99), 1_000_000.0);
        assert_eq!(r.p99_ns(), 100.0);
        lat[2100..2150].iter_mut().for_each(|l| *l = 1_000_000);
        lat[100..150].iter_mut().for_each(|l| *l = 1_000_000);
        assert_eq!(phase(&lat).p99_ns(), 1_000_000.0);
    }

    #[test]
    fn throughput_is_the_median_window_rate() {
        let mut r = PhaseResult {
            duration_ns: THROUGHPUT_WINDOWS as u64 * 1_000_000_000,
            start_ns: 0,
            ..PhaseResult::default()
        };
        // 100 frames in each 1 s window, 500 more in the third.
        for w in 0..THROUGHPUT_WINDOWS as u64 {
            let n = if w == 2 { 600 } else { 100 };
            r.deliveries
                .extend((0..n).map(|i| (0, w * 1_000_000_000 + i * 1_000_000)));
        }
        let mut expected = vec![100.0; THROUGHPUT_WINDOWS];
        expected[2] = 600.0;
        assert_eq!(r.window_rates(), expected);
        assert_eq!(r.throughput_fps(), 100.0);
        assert_eq!(
            r.verified_in_period(),
            100 * THROUGHPUT_WINDOWS as u64 + 500
        );
    }

    #[test]
    fn bytes_queued_by_an_earlier_phase_do_not_break_the_next() {
        let req = |id| Req {
            id,
            conn: 0,
            frame: 0,
            due: 0,
            sent: 0,
            answered: 0,
            verified: 0,
            outcome: Outcome::Pending,
        };
        // Ids 5 and 6 were queued by a phase that gave up on them; this
        // phase starts at id 7.
        let mut unsent: VecDeque<(u64, usize)> = [(5, 10), (6, 20), (7, 30), (8, 40)].into();
        let mut reqs = vec![req(7), req(8)];
        mark_sent(&mut unsent, 30, &mut reqs, 7, 99);
        assert_eq!(unsent, VecDeque::from([(8, 40)]));
        assert_eq!((reqs[0].sent, reqs[1].sent), (99, 0));
    }

    #[test]
    fn ledger_and_fail_ratio() {
        let r = PhaseResult {
            attempted: 10,
            served: 7,
            retried: 1,
            errored: 1,
            unanswered: 1,
            ..PhaseResult::default()
        };
        assert!(r.balanced());
        assert!((r.fail_ratio() - 0.3).abs() < 1e-12);
        let r = PhaseResult {
            attempted: 10,
            served: 9,
            ..PhaseResult::default()
        };
        assert!(!r.balanced());
    }
}
