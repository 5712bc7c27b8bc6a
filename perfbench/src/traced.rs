//! The traced run: per-layer metrics from spans around each layer's
//! calls, plus the tracing overhead against untraced phases of the same
//! run.

use std::time::Instant;

use bnb_core::stages::Kernel;
use bnb_serve::StatusSnapshot;

use crate::client::PhaseResult;
use crate::e2e::{Offline, Served, Target, ENGINE_QUEUE};
use crate::frames::Pool;
use crate::layers::{Replay, Tracer};
use crate::{engine, secs, stats, sys, Args, Run};

/// Spans kept per layer; every call is timed regardless.
const SPANS_PER_LAYER: usize = 5_000;
/// Frames of the pool the layer replays cycle through.
const REPLAY_FRAMES: usize = 64;

/// Stage means over one phase, from two cumulative `/status` snapshots.
struct StageDelta {
    /// `(stage, mean µs)` in timeline order.
    stages: Vec<(String, f64)>,
    wire_us: f64,
    count: u64,
}

impl StageDelta {
    fn new(before: &StatusSnapshot, after: &StatusSnapshot) -> StageDelta {
        let mean = |b: &bnb_obs::StageSnapshot, a: &bnb_obs::StageSnapshot| {
            let n = a.count.saturating_sub(b.count);
            (
                a.sum_ns.saturating_sub(b.sum_ns) as f64 / n.max(1) as f64 / 1e3,
                n,
            )
        };
        let stages = after
            .telemetry
            .stages
            .iter()
            .zip(&before.telemetry.stages)
            .map(|(a, b)| (a.stage.clone(), mean(b, a).0))
            .collect();
        let (wire_us, count) = mean(&before.telemetry.wire, &after.telemetry.wire);
        StageDelta {
            stages,
            wire_us,
            count,
        }
    }

    fn stage(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .find(|(s, _)| s == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The workload's nominal and saturation phases, each run untraced and
/// then traced: the per-request spans come from the traced ones, the
/// tracing overhead from the pair.
struct Shape {
    nominal: PhaseResult,
    nominal_traced: PhaseResult,
    saturation: PhaseResult,
    saturation_traced: PhaseResult,
}

impl Shape {
    fn run(
        target: &mut impl Target,
        rate: f64,
        t: f64,
    ) -> Result<(Shape, Option<StageDelta>), String> {
        target.closed(secs(t, 0.04), false)?;
        let nominal = target.open(rate, secs(t, 0.1), false)?;
        let before = target.status()?;
        let nominal_traced = target.open(rate, secs(t, 0.1), true)?;
        let after = target.status()?;
        let saturation = target.closed(secs(t, 0.06), false)?;
        let saturation_traced = target.closed(secs(t, 0.06), true)?;
        let stages = before.zip(after).map(|(b, a)| StageDelta::new(&b, &a));
        let shape = Shape {
            nominal,
            nominal_traced,
            saturation,
            saturation_traced,
        };
        Ok((shape, stages))
    }

    fn fail_ratio(&self) -> f64 {
        let phases = self.phases();
        let failed: f64 = phases
            .iter()
            .map(|r| r.fail_ratio() * r.attempted as f64)
            .sum();
        failed / phases.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64
    }

    fn phases(&self) -> [&PhaseResult; 4] {
        [
            &self.nominal,
            &self.nominal_traced,
            &self.saturation,
            &self.saturation_traced,
        ]
    }

    fn book(mut self, prefix: &str, run: &mut Run) {
        for (name, r) in [
            ("nominal", &mut self.nominal),
            ("nominal_traced", &mut self.nominal_traced),
            ("saturation", &mut self.saturation),
            ("saturation_traced", &mut self.saturation_traced),
        ] {
            run.book(&format!("{prefix}{name}"), r);
        }
    }
}

/// What the served layers report.
struct ServedLayers {
    stages: StageDelta,
    queue_high_water: usize,
    retries: u64,
    idle_rtt_us_p50: f64,
}

/// A server session: the shape at `rate` (scaled by `share` of the run),
/// `/status` around the traced nominal phase, a window-1 probe, then
/// the drain with its ledger check.
fn served_session(
    args: &Args,
    pool: &Pool,
    rate: f64,
    share: f64,
    epoch: Instant,
    run: &mut Run,
) -> Result<(Shape, ServedLayers), String> {
    let t = args.seconds;
    let (mut s, _) = Served::start(args, pool, epoch, run)?;
    let (shape, stages) = Shape::run(&mut s, rate, t * share)?;
    let mut rtt = s.idle_rtt(secs(t, 0.04))?;
    let queue_high_water = s.server.status()?.engine.queue_high_water;
    let idle_rtt_us_p50 = rtt.latency_ns(0.5) / 1e3;
    run.book("served_idle_rtt", &mut rtt);
    let retries = s.finish(run)?;
    let layers = ServedLayers {
        stages: stages.ok_or("no /status around the nominal phase")?,
        queue_high_water,
        retries,
        idle_rtt_us_p50,
    };
    Ok((shape, layers))
}

pub fn run_traced(args: &Args, pool: &Pool, epoch: Instant, run: &mut Run) -> Result<(), String> {
    let w = args.workload;
    let t = args.seconds;
    let nproc = sys::nproc();
    let cfg = engine::config(nproc, ENGINE_QUEUE);

    // The workload's own path, untraced and traced. The offline workload
    // also serves its frames at a low rate, so the server and wire
    // layers are measured at its width too.
    let (shape, served) = if w.served {
        served_session(args, pool, w.nominal_fps, 1.0, epoch, run)?
    } else {
        let eng = bnb_engine::Engine::new(engine::network(pool.n), cfg);
        let (shape, _) = eng.run(|h| {
            // A traced run reports no peak_rss_mb, so needs no baseline.
            let mut target = Offline {
                h,
                w,
                pool,
                epoch,
                rss_base_mb: 0.0,
            };
            Shape::run(&mut target, w.nominal_fps, t)
        })?;
        let (served_shape, layers) =
            served_session(args, pool, w.traced_serve_fps, 0.5, epoch, run)?;
        served_shape.book("served_", run);
        (shape, layers)
    };
    let lag_us_p99 =
        stats::quantile(&mut shape.nominal_traced.lags_ns.clone(), 0.99).unwrap_or(0) as f64 / 1e3;
    let nt = &shape.nominal_traced;
    let busy_ratio = nt.busy_ns as f64 / nt.wall_ns.max(1) as f64;
    let latency_overhead = nt.latency_ns(0.5) / shape.nominal.latency_ns(0.5).max(1.0);
    let throughput_overhead =
        shape.saturation.throughput_fps() / shape.saturation_traced.throughput_fps().max(1e-9);
    let fail_ratio = shape.fail_ratio();
    let samples = nt.deliveries.len();
    let p99_us = nt.p99_ns() / 1e3;
    shape.book("", run);

    // Kernel, engine and protocol replays on the workload's own frames.
    let mut tracer = Tracer::new(SPANS_PER_LAYER, epoch);
    let mut replay = Replay::new(pool, REPLAY_FRAMES);
    let budget = |share| secs(t, share);
    let packed = replay.span_kernel(Kernel::Packed, budget(0.04), &mut tracer);
    let scalar = replay.span_kernel(Kernel::Scalar, budget(0.04), &mut tracer);
    let batched = replay.batched(w.sat_window, budget(0.04), &mut tracer);
    let mut w1 = replay.engine_window1(cfg, budget(0.06), &mut tracer);
    let (noop_ns, observed_ns, es) =
        replay.observer_pair(cfg, w.sat_window, budget(0.05), &mut tracer);
    let (enc, dec, bytes) = replay.protocol(budget(0.04), &mut tracer);
    if replay.mismatches > 0 {
        run.violations.push(format!(
            "{} replayed results differ from the scalar oracle",
            replay.mismatches
        ));
    }
    let submit_drain_ns = stats::quantile(&mut w1, 0.5).unwrap_or(0) as f64;

    run.metric("core.batched_ns_per_frame", batched, "ns");
    run.metric("core.packed_ns_per_frame", packed, "ns");
    run.metric("core.scalar_ns_per_frame", scalar, "ns");
    run.metric("engine.submit_drain_us_p50", submit_drain_ns / 1e3, "us");
    let mean_us = |v: &[u64]| stats::mean(v).unwrap_or(0.0) / 1e3;
    run.metric("engine.queue_us_mean", mean_us(&es.queue_ns), "us");
    run.metric("engine.route_us_mean", mean_us(&es.route_ns), "us");
    run.metric("engine.worker_busy_ratio", es.worker_busy_ratio, "ratio");
    run.metric(
        "engine.overhead_ratio",
        submit_drain_ns / packed.max(1.0),
        "ratio",
    );
    run.metric(
        "obs.observer_cost_ratio",
        observed_ns / noop_ns.max(1.0),
        "ratio",
    );
    run.metric("protocol.encode_ns_per_frame", enc, "ns");
    run.metric("protocol.decode_ns_per_frame", dec, "ns");
    run.metric("protocol.bytes_per_frame", bytes, "bytes");
    let sd = &served.stages;
    for (metric, stage) in [
        ("server.decode_us", "decode"),
        ("server.admission_us", "admission"),
        ("server.queue_wait_us", "queue_wait"),
        ("server.route_us", "route"),
        ("server.drain_us", "drain"),
        ("server.write_us", "write"),
    ] {
        run.metric(metric, sd.stage(stage), "us");
    }
    run.metric("server.wire_us", sd.wire_us, "us");
    let stage_sum: f64 = sd.stages.iter().map(|(_, v)| v).sum();
    run.metric(
        "server.stage_sum_ratio",
        stage_sum / sd.wire_us.max(1e-9),
        "ratio",
    );
    run.metric(
        "server.route_per_kernel",
        sd.stage("route") * 1e3 / batched.max(1e-9),
        "ratio",
    );
    run.metric("server.retries", served.retries as f64, "count");
    run.metric(
        "server.queue_high_water",
        served.queue_high_water as f64,
        "count",
    );
    run.metric("wire.idle_rtt_us_p50", served.idle_rtt_us_p50, "us");
    run.metric("wire.latency_p99_us", p99_us, "us");
    run.metric("loadgen.lag_us_p99", lag_us_p99, "us");
    run.metric("loadgen.busy_ratio", busy_ratio, "ratio");
    run.metric("loadgen.fail_ratio", fail_ratio, "ratio");
    run.metric("loadgen.latency_samples", samples as f64, "count");
    run.metric("trace.latency_overhead_ratio", latency_overhead, "ratio");
    run.metric(
        "trace.throughput_overhead_ratio",
        throughput_overhead,
        "ratio",
    );
    run.details.push(("server_stage_requests", sd.count.into()));
    run.details
        .push(("replay_batch_frames", w.sat_window.into()));
    run.details
        .push(("engine_closed_noop_ns_per_frame", noop_ns.into()));
    run.details
        .push(("engine_closed_observed_ns_per_frame", observed_ns.into()));
    run.details.push(("spans_dropped", tracer.dropped.into()));
    run.tracer = Some(tracer);
    Ok(())
}
