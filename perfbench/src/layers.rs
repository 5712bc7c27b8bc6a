//! Per-layer replays for the traced run: each layer is a black box timed
//! around calls into its public functions, on the workload's own frames.
//! Every replayed result is checked against the `Kernel::Scalar` oracle.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bnb_core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb_core::network::BnbNetwork;
use bnb_core::stages::{Kernel, RouteSpan, StageScratch};
use bnb_engine::{Engine, EngineConfig};
use bnb_obs::{Counters, Observer};
use bnb_serve::protocol::{FrameAssembler, Message};
use bnb_topology::record::Record;

use crate::engine;
use crate::frames::Pool;
use crate::json::Json;
use crate::stats;

/// One timed call into a layer. `id` ties the span to its input: the
/// pool frame (kernel, protocol) or the engine sequence number.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink, written out when the run ends. Every call is
/// timed; the first `per_layer` spans of each layer are kept.
pub struct Tracer {
    pub epoch: Instant,
    pub spans: Vec<Span>,
    kept: HashMap<&'static str, usize>,
    /// Spans timed but not kept past the per-layer cap (counted, never
    /// silent).
    pub dropped: u64,
    per_layer: usize,
}

impl Tracer {
    pub fn new(per_layer: usize, epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            kept: HashMap::new(),
            dropped: 0,
            per_layer,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its duration.
    pub fn record(&mut self, layer: &'static str, id: u64, start_ns: u64, end_ns: u64) -> u64 {
        let kept = self.kept.entry(layer).or_insert(0);
        if *kept < self.per_layer {
            *kept += 1;
            self.spans.push(Span {
                layer,
                id,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        end_ns - start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Arr(vec![
                        Json::Str(s.layer.into()),
                        Json::Int(s.id as i64),
                        Json::Int(s.start_ns as i64),
                        Json::Int(s.end_ns as i64),
                    ])
                })
                .collect(),
        )
    }
}

/// Replay inputs: the first frames of the workload pool with their
/// scalar-kernel routing as oracle.
pub struct Replay<'p> {
    pub pool: &'p Pool,
    pub net: BnbNetwork,
    pub frames: usize,
    pub oracle: Vec<Vec<Record>>,
    /// Results that disagreed with the oracle.
    pub mismatches: u64,
}

fn route_scalar(net: &BnbNetwork, lines: &mut [Record], scratch: &mut StageScratch) {
    RouteSpan::new()
        .kernel(Kernel::Scalar)
        .run(net, lines, 0, 0..net.m(), scratch)
        .expect("pool frames are permutations");
}

impl<'p> Replay<'p> {
    pub fn new(pool: &'p Pool, frames: usize) -> Replay<'p> {
        let net = engine::network(pool.n);
        let frames = frames.min(pool.len());
        let mut scratch = StageScratch::with_capacity(pool.n);
        let oracle = (0..frames)
            .map(|f| {
                let mut lines = pool.records(f);
                route_scalar(&net, &mut lines, &mut scratch);
                lines
            })
            .collect();
        Replay {
            pool,
            net,
            frames,
            oracle,
            mismatches: 0,
        }
    }

    /// `RouteSpan::run` over whole frames with `kernel`; median ns/frame.
    pub fn span_kernel(&mut self, kernel: Kernel, budget: Duration, t: &mut Tracer) -> f64 {
        let layer = match kernel {
            Kernel::Scalar => "core.scalar",
            _ => "core.packed",
        };
        let opts = RouteSpan::new().kernel(kernel);
        let mut scratch = StageScratch::with_capacity(self.pool.n);
        let mut lines = Vec::with_capacity(self.pool.n);
        let mut per_frame = Vec::new();
        let until = Instant::now() + budget;
        let mut k = 0usize;
        while per_frame.len() < 16 || Instant::now() < until {
            let f = k % self.frames;
            k += 1;
            lines.clear();
            lines.extend(self.pool.records(f));
            let t0 = t.now();
            let ok = opts
                .run(
                    &self.net,
                    std::hint::black_box(&mut lines),
                    0,
                    0..self.net.m(),
                    &mut scratch,
                )
                .is_ok();
            let t1 = t.now();
            per_frame.push(t.record(layer, f as u64, t0, t1));
            if !ok || lines != self.oracle[f] {
                self.mismatches += 1;
            }
        }
        median_ns(&mut per_frame, 1)
    }

    /// `route_batch` over `batch` frames per call; median ns/frame.
    pub fn batched(&mut self, batch: usize, budget: Duration, t: &mut Tracer) -> f64 {
        let mut fb = FrameBatch::with_capacity(self.pool.n, batch);
        let mut scratch = StageScratch::with_capacity(self.pool.n);
        let mut outcome = BatchOutcome::new();
        let mut out = Vec::with_capacity(self.pool.n);
        let mut per_call = Vec::new();
        let until = Instant::now() + budget;
        let mut k = 0usize;
        while per_call.len() < 16 || Instant::now() < until {
            fb.clear();
            let first = k;
            for _ in 0..batch {
                fb.push_frame(&self.pool.records(k % self.frames));
                k += 1;
            }
            let t0 = t.now();
            route_batch(
                &self.net,
                std::hint::black_box(&mut fb),
                &RouteSpan::new(),
                &mut scratch,
                &mut outcome,
            );
            let t1 = t.now();
            per_call.push(t.record("core.batched", first as u64, t0, t1));
            if !outcome.all_ok() {
                self.mismatches += 1;
            }
            for i in 0..batch {
                fb.read_frame_into(i, &mut out);
                if out != self.oracle[(first + i) % self.frames] {
                    self.mismatches += 1;
                }
            }
        }
        median_ns(&mut per_call, batch)
    }

    /// Window-1 engine replay: submit one frame, drain it, repeat.
    /// Returns submit→drain samples in ns.
    pub fn engine_window1(
        &mut self,
        cfg: EngineConfig,
        budget: Duration,
        t: &mut Tracer,
    ) -> Vec<u64> {
        let engine = Engine::new(self.net, cfg);
        let pool = self.pool;
        let frames = self.frames;
        let oracle = &self.oracle;
        let mut mismatches = 0;
        let samples = engine.run(|h| {
            let mut samples = Vec::new();
            let until = Instant::now() + budget;
            let mut k = 0usize;
            while samples.len() < 16 || Instant::now() < until {
                let f = k % frames;
                k += 1;
                let records = pool.records(f);
                let t0 = t.now();
                let seq = h.submit(records);
                let routed = h.drain();
                let t1 = t.now();
                samples.push(t.record("engine.submit_drain", seq, t0, t1));
                if routed.map(|b| b.result.ok()) != Some(Some(oracle[f].clone())) {
                    mismatches += 1;
                }
            }
            samples
        });
        self.mismatches += mismatches;
        samples
    }

    /// The offline shape (`window` frames in flight, submitted one per
    /// call, drained in order) under `observer`; returns wall ns per
    /// frame and the engine samples.
    pub fn engine_closed<O: Observer>(
        &mut self,
        engine: &Engine<O>,
        window: usize,
        budget: Duration,
        layer: &'static str,
        t: &mut Tracer,
    ) -> (f64, engine::EngineSamples) {
        let (res, samples) =
            engine.run(|h| engine::closed_phase(h, self.pool, window, budget, t.epoch, true));
        for r in &res.spans {
            t.record(layer, r.id, r.sent, r.verified);
            if r.outcome != crate::client::Outcome::Served {
                self.mismatches += 1;
            }
        }
        (res.wall_ns as f64 / res.served.max(1) as f64, samples)
    }

    /// Engine replays with and without the serving observer.
    pub fn observer_pair(
        &mut self,
        cfg: EngineConfig,
        window: usize,
        budget: Duration,
        t: &mut Tracer,
    ) -> (f64, f64, engine::EngineSamples) {
        let noop = Engine::new(self.net, cfg);
        let (noop_ns, samples) = self.engine_closed(&noop, window, budget, "engine.closed", t);
        let counters = Counters::new();
        let observed = Engine::with_observer(self.net, cfg, &counters);
        let (observed_ns, _) =
            self.engine_closed(&observed, window, budget, "engine.closed_observed", t);
        (noop_ns, observed_ns, samples)
    }

    /// `Message::encode` of each frame's ROUTED reply, and
    /// `FrameAssembler` decode of its SUBMIT: median ns per call each,
    /// plus wire bytes per frame (both directions).
    pub fn protocol(&mut self, budget: Duration, t: &mut Tracer) -> (f64, f64, f64) {
        let replies: Vec<Message> = self
            .oracle
            .iter()
            .enumerate()
            .map(|(f, lines)| Message::Routed {
                tenant: 1,
                request_id: f as u64,
                sources: lines.iter().map(|r| r.data() as u32).collect(),
            })
            .collect();
        let mut buf = Vec::new();
        let mut enc = Vec::new();
        let until = Instant::now() + budget / 2;
        let mut k = 0usize;
        while enc.len() < 16 || Instant::now() < until {
            let f = k % self.frames;
            k += 1;
            buf.clear();
            let t0 = t.now();
            replies[f].encode(std::hint::black_box(&mut buf));
            let t1 = t.now();
            enc.push(t.record("protocol.encode", f as u64, t0, t1));
        }
        let routed_bytes = buf.len();
        let mut asm = FrameAssembler::new();
        let mut dec = Vec::new();
        let until = Instant::now() + budget / 2;
        let mut k = 0usize;
        while dec.len() < 16 || Instant::now() < until {
            let f = k % self.frames;
            k += 1;
            let t0 = t.now();
            asm.feed(&self.pool.submits()[f]);
            let msg = asm.next_frame();
            let t1 = t.now();
            dec.push(t.record("protocol.decode", f as u64, t0, t1));
            match msg {
                Ok(Some((Message::Submit { dests, .. }, _))) if dests == self.pool.dests[f] => {}
                _ => self.mismatches += 1,
            }
        }
        let bytes = (self.pool.submits()[0].len() + routed_bytes) as f64;
        (median_ns(&mut enc, 1), median_ns(&mut dec, 1), bytes)
    }
}

fn median_ns(samples: &mut [u64], per: usize) -> f64 {
    stats::quantile(samples, 0.5).unwrap_or(0) as f64 / per as f64
}
