//! One benchmark for the served and offline BNB routing paths.
//!
//! ```text
//! perfbench --workload serve-small|serve-large|engine-offline
//!           --seed N --seconds S --trace 0|1 --bnb PATH [--out-dir DIR]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it records spans and reports the per-layer metrics. The last line of
//! standard output is the result object; the line before it is the full
//! report (environment, phases, sample counts), also written to
//! `--out-dir`. See README.md for the workloads and the metric map.

mod client;
mod e2e;
mod engine;
mod frames;
mod json;
mod layers;
mod server;
mod stats;
mod sys;
mod traced;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use client::PhaseResult;
use frames::Pool;
use json::Json;
use layers::Tracer;

/// One workload: the traffic shape and the fixed rates it is judged at.
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    /// Frames have `2^m` records.
    m: usize,
    /// Served through `bnb serve` (otherwise: in-process engine).
    served: bool,
    /// Distinct random permutations generated from the seed.
    pool_frames: usize,
    /// The nominal open-loop rate (frames/s, all connections together),
    /// low enough to keep headroom when the host steals CPU.
    nominal_fps: f64,
    /// The SLO latency limit on the 99th percentile (µs).
    p99_limit_us: f64,
    /// Closed-loop window: frames in flight per connection (served) or
    /// in total (offline).
    sat_window: usize,
    /// Open-loop rate of the served phase of the offline workload's
    /// traced run (frames/s); unused by the served workloads.
    traced_serve_fps: f64,
    /// The reference host speed the speed-bound metrics are quoted at:
    /// what [`frames::host_speed`] measured on this workload's frames on
    /// a 2-vCPU Xeon guest (frames/s).
    ref_speed_fps: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-small",
        m: 6,
        served: true,
        pool_frames: 4096,
        nominal_fps: 8000.0,
        p99_limit_us: 10_000.0,
        sat_window: 32,
        traced_serve_fps: 0.0,
        ref_speed_fps: 1_200_000.0,
    },
    Workload {
        name: "serve-large",
        m: 10,
        served: true,
        pool_frames: 1024,
        nominal_fps: 400.0,
        p99_limit_us: 100_000.0,
        sat_window: 32,
        traced_serve_fps: 0.0,
        ref_speed_fps: 44_000.0,
    },
    Workload {
        name: "engine-offline",
        m: 12,
        served: false,
        pool_frames: 256,
        nominal_fps: 400.0,
        p99_limit_us: 100_000.0,
        sat_window: 8,
        traced_serve_fps: 100.0,
        ref_speed_fps: 9_500.0,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bnb: PathBuf,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = value("--workload").ok_or("--workload is required")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds expects 0 < S <= 600".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    let bnb = PathBuf::from(value("--bnb").ok_or("--bnb is required")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bnb,
        out_dir: value("--out-dir").map(PathBuf::from),
    })
}

/// Everything one run produces.
#[derive(Default)]
struct Run {
    /// `(name, value, unit)` in report order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    phases: Vec<(String, Json)>,
    details: Vec<(&'static str, Json)>,
    server_flags: Vec<String>,
    request_spans: Vec<(String, Vec<client::Req>)>,
    tracer: Option<Tracer>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Books a measured phase: ledger into the totals, correctness
    /// checks into the violations, a summary into the report.
    fn book(&mut self, name: &str, r: &mut PhaseResult) {
        self.attempted += r.attempted;
        self.failed += r.retried + r.errored + r.misdelivered + r.unanswered;
        if r.misdelivered > 0 {
            self.violations
                .push(format!("{name}: {} misdelivered frames", r.misdelivered));
        }
        if !r.balanced() {
            self.violations
                .push(format!("{name}: client ledger out of balance"));
        }
        let mut lag = r.lags_ns.clone();
        let mut s = Json::obj();
        s.set("attempted", r.attempted)
            .set("served", r.served)
            .set("retried", r.retried)
            .set("errored", r.errored)
            .set("misdelivered", r.misdelivered)
            .set("unanswered", r.unanswered)
            .set("samples", r.deliveries.len())
            .set("latency_p50_us", r.latency_ns(0.5) / 1e3)
            .set("latency_p99_us", r.latency_ns(0.99) / 1e3)
            .set("latency_p99_windowed_us", r.p99_ns() / 1e3)
            .set(
                "lag_p99_us",
                stats::quantile(&mut lag, 0.99).unwrap_or(0) as f64 / 1e3,
            )
            .set("throughput_fps", r.throughput_fps())
            .set("outstanding_at_end", r.outstanding_at_end)
            .set("aborted", r.aborted)
            .set(
                "client_busy_ratio",
                r.busy_ns as f64 / r.wall_ns.max(1) as f64,
            );
        self.phases.push((name.to_string(), s));
        if !r.spans.is_empty() {
            self.request_spans
                .push((name.to_string(), std::mem::take(&mut r.spans)));
        }
    }
}

/// A `share` of the run's `seconds`, but never under 0.3 s, so that
/// smoke-size runs still see each phase reach steady state.
fn secs(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64((seconds * share).max(0.3))
}

fn write_out(dir: &Path, file: &str, body: &str) {
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(file), body);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let load_before = sys::load_now();
    let w = args.workload;
    let pool = Pool::new(1 << w.m, w.pool_frames, args.seed);
    let epoch = Instant::now();
    let mut run = Run::default();
    let outcome = if args.trace {
        traced::run_traced(&args, &pool, epoch, &mut run)
    } else {
        e2e::run_e2e(&args, &pool, epoch, &mut run)
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", w.name);
        std::process::exit(1);
    }
    let correct = run.violations.is_empty();

    let mut metrics = Json::obj();
    for &(name, value, unit) in &run.metrics {
        let mut m = Json::obj();
        m.set("value", value).set("unit", unit);
        metrics.set(name, m);
    }
    let mut report = Json::obj();
    report
        .set("workload", w.name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set(
            "environment",
            sys::environment(load_before, &run.server_flags),
        )
        .set("violations", run.violations.clone())
        .set("metrics", metrics.clone())
        .set("phases", Json::Obj(std::mem::take(&mut run.phases)));
    for (k, v) in std::mem::take(&mut run.details) {
        report.set(k, v);
    }
    let report = report.render();
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    if let Some(dir) = &args.out_dir {
        write_out(dir, &format!("{stem}.json"), &report);
        if let Some(tracer) = &run.tracer {
            let mut spans = Json::obj();
            spans.set("epoch", "ns since the run's epoch");
            spans.set("layer_spans", tracer.to_json());
            let requests = run
                .request_spans
                .iter()
                .map(|(phase, reqs)| {
                    let rows = reqs
                        .iter()
                        .map(|r| {
                            Json::Arr(vec![
                                Json::Int(r.id as i64),
                                Json::Int(i64::from(r.conn)),
                                Json::Int(r.due as i64),
                                Json::Int(r.sent as i64),
                                Json::Int(r.answered as i64),
                                Json::Int(r.verified as i64),
                                Json::Str(format!("{:?}", r.outcome)),
                            ])
                        })
                        .collect();
                    (phase.clone(), Json::Arr(rows))
                })
                .collect();
            spans.set(
                "request_columns",
                vec![
                    "id", "conn", "due", "sent", "answered", "verified", "outcome",
                ],
            );
            spans.set("request_spans", Json::Obj(requests));
            write_out(dir, &format!("{stem}-spans.json"), &spans.render());
        }
    }
    println!("{report}");
    let mut result = Json::obj();
    result
        .set("correct", correct)
        .set("attempted", run.attempted.max(1))
        .set("failed", run.failed)
        .set("metrics", metrics);
    println!("{}", result.render());
    if !correct {
        for v in &run.violations {
            eprintln!("perfbench: correctness violation: {v}");
        }
        std::process::exit(1);
    }
}
