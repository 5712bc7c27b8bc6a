//! Operating-system probes: CPU time and peak memory from `/proc`,
//! `ppoll(2)` for the client's event loop, and the environment block
//! written with every result.

use std::os::fd::RawFd;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

const SC_CLK_TCK: i32 = 2;
pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Waits until one of `fds` is ready or `timeout` passes, with
/// nanosecond timeout resolution (plain `poll` rounds to milliseconds,
/// far coarser than the client's send schedule).
pub fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // pollfd structs whose length is passed alongside; `ts` outlives the
    // call; a null signal mask leaves the mask unchanged. The kernel
    // writes only `revents` fields inside the slice.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    // EINTR and spurious wakeups are harmless: callers re-check state.
    let _ = rc;
}

fn clock_ticks_per_sec() -> u64 {
    // SAFETY: sysconf reads a configuration value and has no
    // preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}

/// User + system CPU of process `pid` (all threads, dead ones included),
/// in nanoseconds: the process's CPU-time clock, exact to the
/// nanosecond, or `/proc/<pid>/stat` at clock-tick resolution where
/// that clock cannot be read.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    // The kernel's id for the CPU-time clock of process `pid`
    // (`MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`).
    let clock = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec the call
    // fills in; an unknown clock id makes the call fail, not misbehave.
    if unsafe { clock_gettime(clock, &mut ts) } == 0 {
        return Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64);
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000_000 / clock_ticks_per_sec())
}

/// Reads the CPU time of process `pid` every `period` on a background
/// thread, so that a phase's CPU can be cut into time windows.
pub struct CpuSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(u64, u64)>>,
}

impl CpuSampler {
    pub fn start(pid: u32, epoch: Instant, period: Duration) -> CpuSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                let now = epoch.elapsed().as_nanos() as u64;
                if let Some(cpu) = process_cpu_ns(pid) {
                    samples.push((now, cpu));
                }
                if flag.load(Ordering::Acquire) {
                    return samples;
                }
                std::thread::sleep(period);
            }
        });
        CpuSampler { stop, thread }
    }

    /// Stops sampling (after one last sample) and returns every sample
    /// as `(ns since epoch, CPU ns)`.
    pub fn finish(self) -> Vec<(u64, u64)> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().unwrap_or_default()
    }
}

/// CPU time of the calling thread in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec the call
    // fills in; the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn status_mb(pid: u32, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Current resident set (VmRSS) of process `pid`, in MiB.
pub fn rss_mb(pid: u32) -> Option<f64> {
    status_mb(pid, "VmRSS:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1, 5 and 15 minute load averages.
pub fn load_now() -> Json {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Json::Arr(
        text.split_whitespace()
            .take(3)
            .filter_map(|v| v.parse::<f64>().ok())
            .map(Json::Num)
            .collect(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and build a result came from, so numbers from different
/// boxes are never compared silently. `load_before` is the load average
/// sampled when the run started.
pub fn environment(load_before: Json, server_flags: &[String]) -> Json {
    let mut env = Json::obj();
    env.set("nproc", nproc())
        .set("cpu_model", cpu_model())
        .set("avx2", cpu_has("avx2"))
        .set("avx512f", cpu_has("avx512f"))
        .set(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .set("load_before", load_before)
        .set("load_after", load_now())
        .set(
            "server_flags",
            Json::Arr(server_flags.iter().cloned().map(Json::Str).collect()),
        );
    env
}

/// Reads the aggregate `cpu` line of `/proc/stat`: (steal, total) ticks.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Time the host took from this virtual machine's CPUs ("steal"), as a
/// share of all CPU time since the clock started. A host that preempts
/// the guest stalls the client and the server alike, whatever the
/// program does, so a phase measured during heavy steal says nothing
/// about the program. Reads 0 on bare metal.
pub struct StealClock((u64, u64));

impl StealClock {
    pub fn start() -> StealClock {
        StealClock(cpu_ticks())
    }

    pub fn share(&self) -> f64 {
        let (steal, total) = cpu_ticks();
        let (s0, t0) = self.0;
        steal.saturating_sub(s0) as f64 / total.saturating_sub(t0).max(1) as f64
    }
}

fn cpu_has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "avx512f" => std::arch::is_x86_feature_detected!("avx512f"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}
