//! The offline path: frames submitted one per `EngineHandle::submit`
//! call and drained in order, in this process, with no sockets.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bnb_core::network::BnbNetwork;
use bnb_engine::{Engine, EngineConfig, EngineHandle, ShardDepth};
use bnb_obs::Observer;

use crate::client::{Outcome, PhaseResult, Req};
use crate::frames::{records_deliver, Pool};
use crate::sys;

pub fn network(n: usize) -> BnbNetwork {
    BnbNetwork::builder_for(n)
        .expect("workload widths are powers of two")
        .build()
}

pub fn config(workers: usize, queue_capacity: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity,
        shard_depth: ShardDepth::Auto,
    }
}

/// Set-up time: network and `Engine` construction to the first drained,
/// verified frame.
pub fn timed_setup(pool: &Pool, cfg: EngineConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    let engine = Engine::new(network(pool.n), cfg);
    engine.run(|h| {
        h.submit(pool.records(0));
        match h.drain() {
            Some(b)
                if b.result
                    .as_ref()
                    .is_ok_and(|l| records_deliver(&pool.dests[0], l)) =>
            {
                Ok(t0.elapsed().as_secs_f64())
            }
            other => Err(format!(
                "first engine frame failed: {:?}",
                other.map(|b| b.result)
            )),
        }
    })
}

/// Engine-side samples of one phase.
#[derive(Debug, Default)]
pub struct EngineSamples {
    pub queue_ns: Vec<u64>,
    pub route_ns: Vec<u64>,
    /// Σ worker busy time over the phase ÷ (workers × phase wall time).
    pub worker_busy_ratio: f64,
}

fn busy_ns<O: Observer>(h: &EngineHandle<'_, O>) -> (u64, usize) {
    let s = h.stats();
    (s.worker_busy_ns.iter().sum(), s.workers)
}

/// Shared drain-side bookkeeping for both phase shapes.
struct Drainer<'a> {
    pool: &'a Pool,
    epoch: Instant,
    res: PhaseResult,
    samples: EngineSamples,
    reqs: Vec<Req>,
}

impl<'a> Drainer<'a> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drains the next frame in order and verifies it against `req`.
    fn take<O: Observer>(&mut self, h: &EngineHandle<'_, O>, seq: u64, mut req: Req) {
        let batch = h.drain();
        req.answered = self.now();
        req.outcome = match batch {
            Some(b) if b.seq == seq => {
                self.samples.queue_ns.push(b.queue_ns);
                self.samples.route_ns.push(b.route_ns);
                match b.result {
                    Ok(lines) if records_deliver(&self.pool.dests[req.frame as usize], &lines) => {
                        Outcome::Served
                    }
                    Ok(_) => Outcome::Misdelivered,
                    Err(_) => Outcome::Errored,
                }
            }
            _ => Outcome::Misdelivered,
        };
        req.verified = self.now();
        match req.outcome {
            Outcome::Served => {
                self.res.served += 1;
                self.res.deliveries.push((req.due, req.verified));
            }
            Outcome::Errored => self.res.errored += 1,
            _ => self.res.misdelivered += 1,
        }
        self.res.lags_ns.push(req.sent.saturating_sub(req.due));
        self.reqs.push(req);
    }

    fn finish<O: Observer>(
        mut self,
        h: &EngineHandle<'_, O>,
        start: u64,
        end: u64,
        busy0: (u64, usize),
        trace: bool,
    ) -> (PhaseResult, EngineSamples) {
        let wall = self.now().saturating_sub(start);
        let (busy1, workers) = busy_ns(h);
        self.samples.worker_busy_ratio =
            busy1.saturating_sub(busy0.0) as f64 / (workers.max(1) as f64 * wall.max(1) as f64);
        self.res.wall_ns = wall;
        self.res.start_ns = start;
        self.res.duration_ns = end - start;
        self.res.attempted = self.reqs.len() as u64;
        if trace {
            self.res.spans = self.reqs;
        }
        (self.res, self.samples)
    }
}

/// Open loop: a submitter thread submits frame `k` when it is due (at a
/// fixed `rate`), this thread drains in order. Issuing stops early once
/// `abort_outstanding` frames are undrained.
pub fn open_phase<O: Observer + Sync>(
    h: &EngineHandle<'_, O>,
    pool: &Pool,
    rate: f64,
    duration: Duration,
    abort_outstanding: u64,
    epoch: Instant,
    trace: bool,
) -> (PhaseResult, EngineSamples) {
    let mut d = Drainer {
        pool,
        epoch,
        res: PhaseResult::default(),
        samples: EngineSamples::default(),
        reqs: Vec::new(),
    };
    let start = d.now() + 1_000_000;
    let end = start + duration.as_nanos() as u64;
    let busy0 = busy_ns(h);
    let drained = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(u64, Req)>();
    let (aborted, outstanding_at_end, submitter_busy) = std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            let cpu0 = sys::thread_cpu_ns();
            let mut aborted = false;
            let mut issued = 0;
            for k in 0.. {
                issued = k;
                let due = start + (k as f64 * 1e9 / rate) as u64;
                if due >= end {
                    break;
                }
                if k - drained.load(Ordering::Acquire) >= abort_outstanding {
                    aborted = true;
                    break;
                }
                let frame = k as usize % pool.len();
                let records = pool.records(frame);
                let now = epoch.elapsed().as_nanos() as u64;
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let sent = epoch.elapsed().as_nanos() as u64;
                let seq = h.submit(records);
                let req = Req {
                    id: seq,
                    conn: 0,
                    frame: frame as u32,
                    due,
                    sent,
                    answered: 0,
                    verified: 0,
                    outcome: Outcome::Pending,
                };
                if tx.send((seq, req)).is_err() {
                    break;
                }
            }
            drop(tx);
            let outstanding = issued.saturating_sub(drained.load(Ordering::Acquire));
            (
                aborted,
                outstanding as usize,
                sys::thread_cpu_ns().saturating_sub(cpu0),
            )
        });
        for (seq, req) in rx {
            d.take(h, seq, req);
            drained.fetch_add(1, Ordering::Release);
        }
        submitter.join().expect("submitter thread panicked")
    });
    d.res.aborted = aborted;
    // `submit` blocks while the engine's queue is full, so an overload
    // holds frames back in the submitter instead of leaving them
    // undrained: count every frame due before `end` and drained after.
    let late = d.reqs.iter().filter(|r| r.verified > end).count();
    d.res.outstanding_at_end = outstanding_at_end.max(late);
    let (mut res, samples) = d.finish(h, start, end, busy0, trace);
    res.busy_ns = submitter_busy;
    (res, samples)
}

/// Closed loop: keep `window` frames submitted and undrained for
/// `duration`, then drain the rest.
pub fn closed_phase<O: Observer>(
    h: &EngineHandle<'_, O>,
    pool: &Pool,
    window: usize,
    duration: Duration,
    epoch: Instant,
    trace: bool,
) -> (PhaseResult, EngineSamples) {
    let mut d = Drainer {
        pool,
        epoch,
        res: PhaseResult::default(),
        samples: EngineSamples::default(),
        reqs: Vec::new(),
    };
    let cpu0 = sys::thread_cpu_ns();
    let start = d.now();
    let end = start + duration.as_nanos() as u64;
    let busy0 = busy_ns(h);
    let mut inflight: VecDeque<(u64, Req)> = VecDeque::with_capacity(window);
    let mut k = 0usize;
    while d.now() < end {
        while inflight.len() < window {
            let frame = k % pool.len();
            k += 1;
            let records = pool.records(frame);
            let due = d.now();
            let seq = h.submit(records);
            let req = Req {
                id: seq,
                conn: 0,
                frame: frame as u32,
                due,
                sent: due,
                answered: 0,
                verified: 0,
                outcome: Outcome::Pending,
            };
            inflight.push_back((seq, req));
        }
        let (seq, req) = inflight.pop_front().expect("window is non-empty");
        d.take(h, seq, req);
    }
    while let Some((seq, req)) = inflight.pop_front() {
        d.take(h, seq, req);
    }
    let (mut res, samples) = d.finish(h, start, end, busy0, trace);
    res.busy_ns = sys::thread_cpu_ns().saturating_sub(cpu0);
    (res, samples)
}
