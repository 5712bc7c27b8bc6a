//! The untraced run: end-to-end metrics, measured in interleaved rounds.
//!
//! A shared box stalls for whole seconds at a time, so no phase is
//! measured in one block: each round takes set-up samples, a slice of
//! the nominal open loop and a slice of the closed-loop saturation, and
//! the metrics are medians over the quietest rounds (or over windows of
//! their pooled samples). The SLO ladder follows, where a failed trial
//! counts only when the host was as quiet as in those rounds.

use std::time::{Duration, Instant};

use bnb_engine::EngineHandle;
use bnb_obs::Observer;
use bnb_serve::StatusSnapshot;

use crate::client::{Client, Load, PhaseResult};
use crate::frames::{self, Pool};
use crate::json::Json;
use crate::server::{self, ServerProc};
use crate::{engine, secs, stats, sys, Args, Run, Workload};

/// The SLO ladder: rungs at `nominal × LADDER_STEP^i` for
/// `i in LADDER_LO..=LADDER_HI`, searched by bisection from rung 0.
const LADDER_STEP: f64 = 1.04;
const LADDER_LO: i32 = -60;
const LADDER_HI: i32 = 60;
/// A rung fails above this share of RETRY/ERROR/unanswered frames.
const FAIL_THRESHOLD: f64 = 0.001;
/// Client connections (one tenant each), capped by `nproc`.
pub const CONNECTIONS: usize = 2;
/// Server-side per-connection window and tenant quota: far above any
/// backlog a passing rung can build, so nothing is refused below
/// saturation.
const SERVER_WINDOW: usize = 1024;
/// Offline engine queue capacity (batches).
pub const ENGINE_QUEUE: usize = 64;

/// Rounds of an untraced run: they continue until [`QUIET_ROUNDS`] of
/// them had at most [`QUIET_STEAL`] host steal, or [`MAX_ROUNDS`] ran.
/// The [`QUIET_ROUNDS`] quietest give the metrics, but latency, which
/// steal inflates most, comes from the [`LATENCY_ROUNDS`] quietest.
const QUIET_ROUNDS: usize = 10;
const LATENCY_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 16;
const QUIET_STEAL: f64 = 0.03;
/// Set-up samples taken per round: a served sample spawns a process,
/// an offline one takes a few milliseconds, so it can take many more.
const SERVED_SETUPS_PER_ROUND: usize = 3;
const OFFLINE_SETUPS_PER_ROUND: usize = 30;
/// The share of `--seconds` the warm-up, each round slice and each
/// ladder trial take.
const WARMUP: f64 = 0.04;
const NOMINAL_SLICE: f64 = 0.02;
const SATURATION_SLICE: f64 = 0.035;
const PROBE: f64 = 0.015;
/// CPU is sampled this often during nominal slices and cut into
/// windows of at least [`CPU_WINDOW`].
const CPU_SAMPLE_PERIOD: Duration = Duration::from_millis(10);
const CPU_WINDOW: Duration = Duration::from_millis(200);
/// Length of each host speed probe ([`frames::host_speed`]); two are
/// taken per round, before the nominal and the saturation slice.
const SPEED_PROBE: Duration = Duration::from_millis(100);
/// Quiet failed trials before a ladder rung counts as failed, and the
/// most trials a rung gets.
const TRIALS: usize = 2;
const MAX_TRIALS: usize = 3;

/// The system under test, as the measuring loop sees it.
pub trait Target {
    /// One set-up time sample, in seconds, on a fresh instance.
    fn setup_sample(&mut self) -> Result<f64, String>;
    /// Set-up samples to take per round.
    fn setups_per_round(&self) -> usize;
    /// An open-loop phase at `rate` frames/s.
    fn open(&mut self, rate: f64, duration: Duration, trace: bool) -> Result<PhaseResult, String>;
    /// A closed-loop phase at the workload's window.
    fn closed(&mut self, duration: Duration, trace: bool) -> Result<PhaseResult, String>;
    /// The process doing the routing, whose CPU is measured.
    fn cpu_pid(&self) -> u32;
    /// That process's peak resident set, in MiB: the server's whole
    /// `VmHWM`; offline, what this process's `VmHWM` rose above its
    /// resident set just before the engine was built.
    fn peak_rss_mb(&self) -> Result<f64, String>;
    /// The server's `/status`, when there is a server.
    fn status(&self) -> Result<Option<StatusSnapshot>, String> {
        Ok(None)
    }
}

/// Frames unanswered at which an open-loop phase stops issuing: far
/// beyond what a passing rung holds, and below the server's windows, so
/// an overloaded rung never turns into RETRYs.
pub fn abort_outstanding(w: &Workload, rate: f64) -> usize {
    ((4.0 * rate * w.p99_limit_us / 1e6) as usize).clamp(256, CONNECTIONS * SERVER_WINDOW / 2)
}

pub fn server_flags(w: &Workload) -> Vec<String> {
    let nproc = sys::nproc().to_string();
    let window = SERVER_WINDOW.to_string();
    [
        "--addr",
        "127.0.0.1:0",
        "--inputs",
        &(1usize << w.m).to_string(),
        "--workers",
        &nproc,
        "--threads",
        &nproc,
        "--queue",
        &(CONNECTIONS * SERVER_WINDOW).to_string(),
        "--tenant-quota",
        &window,
        "--window",
        &window,
        "--max-conns",
        "16",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn io(e: std::io::Error) -> String {
    format!("client: {e}")
}

/// A `bnb serve` process and the benchmark's client connected to it.
pub struct Served<'a> {
    w: Workload,
    pool: &'a Pool,
    bnb: &'a std::path::Path,
    flags: Vec<String>,
    pub server: ServerProc,
    pub client: Client<'a>,
}

impl<'a> Served<'a> {
    /// Spawns the server and connects; returns the spawn's set-up time.
    pub fn start(
        args: &'a Args,
        pool: &'a Pool,
        epoch: Instant,
        run: &mut Run,
    ) -> Result<(Served<'a>, f64), String> {
        let flags = server_flags(&args.workload);
        let (server, setup) = server::spawn_timed(&args.bnb, &flags, pool)?;
        let client = Client::connect(&server.addr, CONNECTIONS, pool, epoch).map_err(io)?;
        run.server_flags = flags.clone();
        let served = Served {
            w: args.workload,
            pool,
            bnb: &args.bnb,
            flags,
            server,
            client,
        };
        Ok((served, setup))
    }

    /// Window-1 round trips on one connection.
    pub fn idle_rtt(&mut self, duration: Duration) -> Result<PhaseResult, String> {
        let load = Load::Closed {
            window: 1,
            conns: 1,
            duration,
        };
        self.client.run(load, true).map_err(io)
    }

    /// Drains the server and checks its session ledger against the
    /// client's. Returns the server's RETRY count.
    pub fn finish(self, run: &mut Run) -> Result<u64, String> {
        let report = self.server.shutdown()?;
        let field =
            |k: &str| server::json_u64(&report, k).ok_or(format!("server report lacks {k}"));
        let served = field("frames_served")?;
        let retries = field("retries_issued")?;
        let ledger = served + retries + field("frames_errored")? + field("responses_dropped")?;
        if !report.contains("\"graceful\":true") || ledger != field("frames_submitted")? {
            run.violations
                .push(format!("server ledger out of balance: {}", report.trim()));
        }
        let c = &self.client;
        // The set-up probe is one served frame the client did not count.
        if c.late == 0 && c.unanswered == 0 && served != c.served + 1 {
            run.violations.push(format!(
                "server served {served} frames, client verified {}",
                c.served + 1
            ));
        }
        if c.surprises > 0 {
            run.violations
                .push(format!("{} unexpected replies", c.surprises));
        }
        run.details
            .push(("server_report", Json::Str(report.trim().to_string())));
        Ok(retries)
    }
}

impl Target for Served<'_> {
    fn setup_sample(&mut self) -> Result<f64, String> {
        let (srv, t) = server::spawn_timed(self.bnb, &self.flags, self.pool)?;
        srv.shutdown()?;
        Ok(t)
    }

    fn setups_per_round(&self) -> usize {
        SERVED_SETUPS_PER_ROUND
    }

    fn open(&mut self, rate: f64, duration: Duration, trace: bool) -> Result<PhaseResult, String> {
        let load = Load::Open {
            rate,
            duration,
            abort_outstanding: abort_outstanding(&self.w, rate),
        };
        self.client.run(load, trace).map_err(io)
    }

    fn closed(&mut self, duration: Duration, trace: bool) -> Result<PhaseResult, String> {
        let load = Load::Closed {
            window: self.w.sat_window,
            conns: CONNECTIONS,
            duration,
        };
        self.client.run(load, trace).map_err(io)
    }

    fn cpu_pid(&self) -> u32 {
        self.server.pid()
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        sys::peak_rss_mb(self.server.pid()).ok_or_else(|| "cannot read server VmHWM".into())
    }

    fn status(&self) -> Result<Option<StatusSnapshot>, String> {
        self.server.status().map(Some)
    }
}

/// The in-process engine session of the offline workload.
pub struct Offline<'h, 'e, O: Observer> {
    pub h: &'h EngineHandle<'e, O>,
    pub w: Workload,
    pub pool: &'h Pool,
    pub epoch: Instant,
    /// This process's resident set just before the engine was built, in
    /// MiB: the harness's own frames and buffers, which
    /// [`Target::peak_rss_mb`] leaves out.
    pub rss_base_mb: f64,
}

impl<O: Observer + Sync> Target for Offline<'_, '_, O> {
    fn setup_sample(&mut self) -> Result<f64, String> {
        engine::timed_setup(self.pool, engine::config(sys::nproc(), ENGINE_QUEUE))
    }

    fn setups_per_round(&self) -> usize {
        OFFLINE_SETUPS_PER_ROUND
    }

    fn open(&mut self, rate: f64, duration: Duration, trace: bool) -> Result<PhaseResult, String> {
        let abort = abort_outstanding(&self.w, rate) as u64;
        Ok(engine::open_phase(self.h, self.pool, rate, duration, abort, self.epoch, trace).0)
    }

    fn closed(&mut self, duration: Duration, trace: bool) -> Result<PhaseResult, String> {
        let window = self.w.sat_window;
        Ok(engine::closed_phase(self.h, self.pool, window, duration, self.epoch, trace).0)
    }

    fn cpu_pid(&self) -> u32 {
        std::process::id()
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        let peak = sys::peak_rss_mb(std::process::id()).ok_or("cannot read own VmHWM")?;
        Ok(peak - self.rss_base_mb)
    }
}

/// Whether a ladder rung meets the SLO: windowed p99 within the limit,
/// failures under the threshold, and no growing backlog: issuing never
/// stopped early, and when it ended no more frames were unanswered than
/// twice what the latency limit allows in flight.
fn rung_passes(w: &Workload, rate: f64, r: &PhaseResult) -> bool {
    let backlog_limit = (2.0 * rate * w.p99_limit_us / 1e6).max(8.0) as usize;
    !r.aborted
        && r.outstanding_at_end <= backlog_limit
        && r.fail_ratio() <= FAIL_THRESHOLD
        && r.p99_ns() <= w.p99_limit_us * 1e3
}

/// Bisection over the fixed ladder for the highest passing rung, first
/// probing the nominal rate. A rung passes when any trial passes and
/// fails after [`TRIALS`] failed trials that were quiet (host steal at
/// most `quiet_steal`), or after [`MAX_TRIALS`] trials in all, so a host
/// stall does not sink a rung.
fn ladder(
    w: &Workload,
    t: f64,
    quiet_steal: f64,
    target: &mut impl Target,
    run: &mut Run,
) -> Result<f64, String> {
    let rate = |i: i32| w.nominal_fps * LADDER_STEP.powi(i);
    let (mut lo, mut hi) = (LADDER_LO - 1, LADDER_HI + 1);
    let mut mid = 0;
    let mut tried = Vec::new();
    while hi - lo > 1 {
        let r = rate(mid);
        let (mut ok, mut counted, mut trials) = (false, 0, 0);
        while !ok && counted < TRIALS && trials < MAX_TRIALS {
            trials += 1;
            std::thread::sleep(Duration::from_millis(100));
            let steal = sys::StealClock::start();
            let mut res = target.open(r, secs(t, PROBE), false)?;
            let quiet = steal.share() <= quiet_steal;
            ok = rung_passes(w, r, &res);
            counted += usize::from(quiet);
            run.book(&format!("ladder@{r:.0}#{trials}"), &mut res);
        }
        let mut o = Json::obj();
        o.set("rate_fps", r).set("passed", ok).set("trials", trials);
        tried.push(o);
        if ok {
            lo = mid;
        } else {
            hi = mid;
        }
        mid = lo + (hi - lo) / 2;
    }
    run.details.push(("ladder", Json::Arr(tried)));
    Ok(if lo < LADDER_LO { 0.0 } else { rate(lo) })
}

/// CPU µs per frame in successive windows of at least `window_ns` of
/// an open-loop phase's issuing period, cut at the CPU `samples`
/// (ns since epoch, CPU ns); a window's frames are those verified inside
/// it. Windows without a frame are left out.
fn cpu_windows(samples: &[(u64, u64)], r: &PhaseResult, window_ns: u64) -> Vec<f64> {
    let mut verified: Vec<u64> = r.deliveries.iter().map(|&(_, v)| v).collect();
    verified.sort_unstable();
    let upto = |t: u64| verified.partition_point(|&v| v <= t);
    let end = r.start_ns + r.duration_ns;
    let mut inside = samples
        .iter()
        .filter(|&&(t, _)| t >= r.start_ns && t <= end);
    let mut out = Vec::new();
    let Some(&(mut t0, mut c0)) = inside.next() else {
        return out;
    };
    for &(t, c) in inside {
        if t - t0 < window_ns {
            continue;
        }
        let frames = upto(t) - upto(t0);
        if frames > 0 {
            out.push(c.saturating_sub(c0) as f64 / 1e3 / frames as f64);
        }
        (t0, c0) = (t, c);
    }
    out
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setups: Vec<f64>,
    cpu_us_per_frame: f64,
    cpu_windows: Vec<f64>,
    /// Frames verified in the saturation slice's issuing period, and
    /// its length in ns.
    sat_frames: u64,
    sat_ns: u64,
    /// Host speed probes taken before each slice.
    speeds: Vec<f64>,
    deliveries: Vec<(u64, u64)>,
    steal: f64,
}

/// The untraced measurement of one workload on `target`: rounds, then
/// the ladder. A shared virtual machine loses its CPUs to the host for
/// seconds at a time ("steal"), which stalls client and server alike,
/// so the metrics come from the quietest rounds (see [`QUIET_ROUNDS`]),
/// and ladder trials noisier than those do not count as failures.
pub fn measure(
    w: &Workload,
    t: f64,
    target: &mut impl Target,
    first_setup: Option<f64>,
    pool: &Pool,
    epoch: Instant,
    run: &mut Run,
) -> Result<(), String> {
    let mut warm = target.closed(secs(t, WARMUP), false)?;
    run.book("warmup", &mut warm);
    // Read before any open-loop slice: a host stall there piles up a
    // backlog of frames whose buffers would set the peak.
    let rss = target.peak_rss_mb()?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.iter().filter(|r| r.steal <= QUIET_STEAL).count() < QUIET_ROUNDS
        && rounds.len() < MAX_ROUNDS
    {
        let i = rounds.len();
        let steal = sys::StealClock::start();
        let mut round = Round::default();
        for _ in 0..target.setups_per_round() {
            round.setups.push(target.setup_sample()?);
        }
        round
            .speeds
            .push(frames::host_speed(pool, sys::nproc(), SPEED_PROBE));
        let sampler = sys::CpuSampler::start(target.cpu_pid(), epoch, CPU_SAMPLE_PERIOD);
        let mut nom = target.open(w.nominal_fps, secs(t, NOMINAL_SLICE), false)?;
        let cpu = sampler.finish();
        if cpu.len() < 2 {
            return Err("cannot read the routing process's CPU".into());
        }
        let spent = cpu[cpu.len() - 1].1.saturating_sub(cpu[0].1);
        round.cpu_us_per_frame = spent as f64 / 1e3 / nom.served.max(1) as f64;
        round.cpu_windows = cpu_windows(&cpu, &nom, CPU_WINDOW.as_nanos() as u64);
        round
            .speeds
            .push(frames::host_speed(pool, sys::nproc(), SPEED_PROBE));
        let mut sat = target.closed(secs(t, SATURATION_SLICE), false)?;
        round.sat_frames = sat.verified_in_period();
        round.sat_ns = sat.duration_ns;
        round.steal = steal.share();
        for r in [&nom, &sat] {
            attempted += r.attempted;
            failed += r.retried + r.errored + r.misdelivered + r.unanswered;
        }
        run.book(&format!("nominal#{i}"), &mut nom);
        run.book(&format!("saturation#{i}"), &mut sat);
        round.deliveries = nom.deliveries;
        rounds.push(round);
    }
    let rss_after_rounds = target.peak_rss_mb()?;
    let mut used: Vec<&Round> = rounds.iter().collect();
    used.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    used.truncate(QUIET_ROUNDS);
    let quiet_steal = used.last().map_or(0.0, |r| r.steal).max(QUIET_STEAL);
    let slo = ladder(w, t, quiet_steal, target, run)?;

    let mut setups: Vec<f64> = first_setup.into_iter().collect();
    let mut nominal = PhaseResult::default();
    let mut cpu = Vec::new();
    let (mut sat_frames, mut sat_ns) = (0, 0);
    for r in &used {
        setups.extend_from_slice(&r.setups);
        cpu.extend_from_slice(&r.cpu_windows);
        sat_frames += r.sat_frames;
        sat_ns += r.sat_ns;
    }
    for r in used.iter().take(LATENCY_ROUNDS) {
        nominal.deliveries.extend_from_slice(&r.deliveries);
    }
    let median = |v: &mut Vec<f64>| stats::median_f64(v).unwrap_or(0.0);
    // The speed-bound metrics are quoted at the workload's reference host
    // speed: a host that runs the stand-in `slow` times slower than the
    // reference stretches the program's times about as much.
    let mut speeds: Vec<f64> = used.iter().flat_map(|r| r.speeds.clone()).collect();
    let speed = median(&mut speeds);
    let slow = w.ref_speed_fps / speed.max(f64::MIN_POSITIVE);
    let throughput = sat_frames as f64 * 1e9 / sat_ns.max(1) as f64;
    let p50 = nominal.latency_ns(0.5) / 1e3;
    let cpu_us = median(&mut cpu.clone());
    run.metric("setup_s", median(&mut setups.clone()), "s");
    run.metric("throughput_fps", throughput * slow, "fps");
    run.metric("latency_p50_us", p50 / slow, "us");
    run.metric(
        "served_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    run.metric("cpu_us_per_frame", cpu_us / slow, "us");
    run.metric("peak_rss_mb", rss, "MiB");
    let mut measured = Json::obj();
    measured
        .set("throughput_fps", throughput)
        .set("latency_p50_us", p50)
        .set("cpu_us_per_frame", cpu_us);
    run.details.push(("measured_at_host_speed", measured));
    run.details.push(("host_speed_fps", speed.into()));
    run.details.push(("host_speed_samples_fps", speeds.into()));
    run.details.push(("ref_speed_fps", w.ref_speed_fps.into()));
    run.details.push(("setup_samples_s", setups.into()));
    run.details.push((
        "round_steal",
        rounds.iter().map(|r| r.steal).collect::<Vec<f64>>().into(),
    ));
    run.details.push(("rounds_used", used.len().into()));
    run.details.push(("cpu_window_us_per_frame", cpu.into()));
    run.details.push((
        "cpu_slice_us_per_frame",
        used.iter()
            .map(|r| r.cpu_us_per_frame)
            .collect::<Vec<f64>>()
            .into(),
    ));
    run.details
        .push(("peak_rss_after_rounds_mb", rss_after_rounds.into()));
    run.details.push(("quiet_steal", quiet_steal.into()));
    // Too noisy on a shared box to gate on (see README); reported only.
    run.details.push(("slo_rate_fps", slo.into()));
    run.details
        .push(("latency_p99_us", (nominal.p99_ns() / 1e3).into()));
    run.details.push((
        "latency_p99_unwindowed_us",
        (nominal.latency_ns(0.99) / 1e3).into(),
    ));
    run.details
        .push(("latency_samples", nominal.deliveries.len().into()));
    Ok(())
}

/// The untraced run of `args.workload`.
pub fn run_e2e(args: &Args, pool: &Pool, epoch: Instant, run: &mut Run) -> Result<(), String> {
    let w = args.workload;
    let t = args.seconds;
    if w.served {
        let (mut target, setup) = Served::start(args, pool, epoch, run)?;
        measure(&w, t, &mut target, Some(setup), pool, epoch, run)?;
        target.finish(run)?;
        return Ok(());
    }
    let rss_base_mb = sys::rss_mb(std::process::id()).ok_or("cannot read own VmRSS")?;
    let cfg = engine::config(sys::nproc(), ENGINE_QUEUE);
    let eng = bnb_engine::Engine::new(engine::network(pool.n), cfg);
    eng.run(|h| {
        let mut target = Offline {
            h,
            w,
            pool,
            epoch,
            rss_base_mb,
        };
        measure(&w, t, &mut target, None, pool, epoch, run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_is_cut_into_windows_of_the_issuing_period() {
        let ms = 1_000_000u64;
        let r = PhaseResult {
            start_ns: 100 * ms,
            duration_ns: 1000 * ms,
            // A frame verified every 10 ms from the start on.
            deliveries: (1..=100).map(|i| (0, 100 * ms + i * 10 * ms)).collect(),
            ..PhaseResult::default()
        };
        // A sample every 50 ms from t = 0, 1 ms of CPU per 50 ms, but
        // 5 ms per 50 ms from 600 ms on.
        let samples: Vec<(u64, u64)> = (0..30u64)
            .map(|i| (i * 50 * ms, i.min(12) * ms + i.saturating_sub(12) * 5 * ms))
            .collect();
        // Samples before the start and after the end are not used.
        let w = cpu_windows(&samples, &r, 100 * ms);
        assert_eq!(
            w,
            vec![200.0, 200.0, 200.0, 200.0, 200.0, 1000.0, 1000.0, 1000.0, 1000.0, 1000.0]
        );
        assert!(cpu_windows(&samples[..1], &r, 100 * ms).is_empty());
    }
}
