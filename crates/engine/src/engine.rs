//! The concurrent batched routing engine.
//!
//! # Sharding model
//!
//! A batch is one full frame of `N = 2^m` records. The owning worker
//! validates it (same contract as [`bnb_core::router::Router`]), then
//! routes main stage `0` and splits the frame into its two independent
//! half-subnetworks — the GBN's unshuffle after stage `i` guarantees all
//! later switching stays inside each aligned `2^(m-i-1)`-line half (see
//! [`bnb_core::stages`]). One half is pushed to the hub for any idle
//! worker; the owner recurses into the other. After `depth` splits the
//! frame is `2^depth` disjoint slice tasks routing concurrently, each with
//! the worker's own reusable [`StageScratch`] — zero per-batch allocation
//! in steady state. With no observer attached (the default), every slice
//! takes `bnb-core`'s bit-packed word-parallel kernel, so the engine's
//! per-worker throughput is the packed kernel's, not the scalar sweep's.
//!
//! Because BNB routing is oblivious data movement (every switch setting
//! depends only on local destination bits), the parallel result is
//! byte-identical to the sequential route; debug builds assert this on
//! every batch.
//!
//! # Observability
//!
//! The engine is generic over a [`bnb_obs::Observer`] (defaulting to the
//! zero-cost [`NoopObserver`]). An attached observer sees batch
//! submissions and completions ([`SubmitEvent`]/[`DrainEvent`]), slice
//! hand-offs ([`ShardEvent`] on enqueue and on steal), and — through
//! [`bnb_core::stages::RouteSpan`] — every routed column and arbiter
//! sweep. Attach with [`Engine::with_observer`]; the noop path compiles
//! to the same code as before the hooks existed.
//!
//! # Batched submission
//!
//! [`EngineHandle::submit`] also takes a whole
//! [`bnb_core::batch::FrameBatch`], which one worker routes through a
//! single batched-kernel invocation
//! ([`bnb_core::batch::route_batch`]), publishing one in-order result
//! per frame. This keeps every SWAR word of the routing kernel fully
//! occupied regardless of network size, where per-frame submission leaves
//! `64 - 2^m` of 64 lanes idle for small networks.
//!
//! # Fault tolerance
//!
//! [`Engine::run_scrubbed`] runs the same session over a
//! [`LiveFaultPlan`]. Every frame then routes whole on one fabric shard;
//! a frame whose attempt trips the output balance check (Theorem 3) is
//! retried on a healthy shard under the plan's [`RetryPolicy`] and
//! drains as [`EngineError::Quarantined`] once the budget is spent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bnb_core::batch::{route_batch, BatchOutcome, FrameBatch};
use bnb_core::error::RouteError;
use bnb_core::network::BnbNetwork;
use bnb_core::stages::{validate_lines, RouteSpan, StageScratch};
use bnb_obs::{DrainEvent, NoopObserver, Observer, RetryEvent, ShardEvent, SubmitEvent};
use bnb_topology::record::Record;

use crate::error::EngineError;
use crate::hub::{CloseGuard, Hub, JobLatch, SliceTask, Work};
use crate::live::{scrubber_loop, LiveFaultPlan};
use crate::stats::{EngineStats, LatencySummary, WorkerMetrics};

pub use crate::hub::{Payload, RoutedBatch, Submission, SubmitError};

/// How deep to split each batch into independent subnetwork slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardDepth {
    /// `ceil(log2(workers))` splits — one slice per worker, no splitting
    /// for a single worker.
    #[default]
    Auto,
    /// Exactly this many splits (`2^d` slices), clamped to `m`.
    Fixed(usize),
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Bounded submission-queue capacity; `submit` blocks when this many
    /// batches are waiting (minimum 1).
    pub queue_capacity: usize,
    /// Intra-batch sharding policy.
    pub shard_depth: ShardDepth,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            shard_depth: ShardDepth::Auto,
        }
    }
}

impl EngineConfig {
    /// A config with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Self::default()
        }
    }
}

/// Retry budget for frames hitting hardware faults under a
/// [`LiveFaultPlan`] (see [`Engine::run_scrubbed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total route attempts per frame (the initial try plus retries,
    /// minimum 1).
    pub max_attempts: usize,
    /// Base backoff slept before retry `k` is `backoff * 2^(k-1)`
    /// (exponential; `Duration::ZERO` disables sleeping).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_micros(50),
        }
    }
}

/// A concurrent batched router for one network configuration.
///
/// The engine owns no threads between runs: [`Engine::run`] opens a
/// [`std::thread::scope`], spawns the worker pool, hands the closure an
/// [`EngineHandle`] for submit/drain, and joins every worker before
/// returning — so no `'static` bounds, no detached threads, and worker
/// panics propagate.
///
/// # Example
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_engine::{Engine, EngineConfig};
/// use bnb_topology::perm::Permutation;
/// use bnb_topology::record::records_for_permutation;
///
/// let net = BnbNetwork::builder_for(16)?.build();
/// let engine = Engine::new(net, EngineConfig::with_workers(2));
/// let p = Permutation::try_from((0..16).rev().collect::<Vec<_>>())?;
/// let routed = engine.run(|handle| {
///     handle.submit(records_for_permutation(&p));
///     handle.drain().unwrap()
/// });
/// assert_eq!(routed.result.unwrap(), net.route(&records_for_permutation(&p))?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Engine<O: Observer = NoopObserver> {
    network: BnbNetwork,
    config: EngineConfig,
    observer: O,
}

impl Engine {
    /// An engine for `network` with the given pool configuration and no
    /// instrumentation.
    pub fn new(network: BnbNetwork, config: EngineConfig) -> Self {
        Engine::with_observer(network, config, NoopObserver)
    }
}

impl<O: Observer> Engine<O> {
    /// An engine whose workers report events to `observer` (typically
    /// `&bnb_obs::Counters`, or a `&bnb_obs::FlightRecorder` whose
    /// per-thread lanes give each worker its own recording shard, merged
    /// when the recorder's spans are drained; batch sequence numbers act
    /// as trace ids, threading submit → retries → drain together even
    /// through quarantine). All worker threads share the one observer, so
    /// its hooks must be cheap and contention-free.
    pub fn with_observer(network: BnbNetwork, config: EngineConfig, observer: O) -> Self {
        Engine {
            network,
            config,
            observer,
        }
    }

    /// The bound network.
    pub fn network(&self) -> &BnbNetwork {
        &self.network
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The split depth actually used per batch.
    pub fn effective_depth(&self) -> usize {
        let m = self.network.m();
        match self.config.shard_depth {
            ShardDepth::Auto => auto_depth(self.config.workers, m),
            ShardDepth::Fixed(d) => d.min(m),
        }
    }

    /// Spawns the worker pool, runs `f` with a submit/drain handle, then
    /// drains remaining work and joins every worker.
    pub fn run<R>(&self, f: impl FnOnce(&EngineHandle<'_, O>) -> R) -> R {
        self.session(None, f)
    }

    /// [`Engine::run`] over live, possibly damaged hardware: the fault
    /// maps in `plan` may change while the engine routes (a chaos driver
    /// injecting and clearing faults concurrently), workers steer frames
    /// onto healthy fabric shards, and a background scrubber thread
    /// probes suspect shards between drains — quarantining confirmed
    /// faults and restoring capacity when transients clear — without ever
    /// pausing submit/drain.
    ///
    /// The repair loop:
    ///
    /// - Every frame routes whole on one shard (no intra-frame slice
    ///   splitting), through a snapshot of that shard's fault map. An
    ///   attempt that trips the output balance check demotes its shard to
    ///   [`ShardHealth::Suspect`](crate::ShardHealth::Suspect) and retries
    ///   on the next healthy shard with exponential backoff under the
    ///   plan's [`RetryPolicy`]; with no healthy shard left, attempts fall
    ///   back to plain round-robin so traffic keeps flowing degraded
    ///   rather than stalling. A [`FrameBatch`] is unbundled, and each of
    ///   its frames retries under its own sequence number.
    /// - The scrubber probes every non-healthy shard with seeded test
    ///   permutations on a private fabric. A dirty probe confirms the
    ///   fault and quarantines the shard; a clean-probe streak returns
    ///   it to service. The plan counts probes, quarantines, restores and
    ///   traffic-detected faults ([`LiveFaultPlan::status`]).
    ///
    /// Frames that exhaust the retry budget drain as
    /// [`EngineError::Quarantined`] with the fault site in the
    /// [`source`](std::error::Error::source) chain; traffic errors
    /// (validation, unbalanced input) are terminal on the first attempt.
    /// Delivered frames are always correct — the balance check makes
    /// misdelivery detectable, so a fault either surfaces as an error or
    /// the frame routed cleanly (Theorem 3). A healthy plan routes
    /// byte-identically to [`Engine::run`].
    pub fn run_scrubbed<R>(
        &self,
        plan: &LiveFaultPlan,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        self.session(Some(plan), f)
    }

    /// The one routing session behind [`Engine::run`] and
    /// [`Engine::run_scrubbed`]: spawns the workers (and, under a plan,
    /// the scrubber), runs `f`, then closes the hub and joins everything.
    fn session<R>(
        &self,
        plan: Option<&LiveFaultPlan>,
        f: impl FnOnce(&EngineHandle<'_, O>) -> R,
    ) -> R {
        let workers = self.config.workers.max(1);
        // Under a plan a frame routes whole on one shard, so the faults it
        // meets depend on the shard alone, never on how it was sliced.
        let depth = if plan.is_some() {
            0
        } else {
            self.effective_depth()
        };
        let hub = Hub::new(self.config.queue_capacity);
        let counters: Vec<WorkerCounters> =
            (0..workers).map(|_| WorkerCounters::default()).collect();
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let net = self.network;
        let observer = &self.observer;
        thread::scope(|s| {
            let (hub, stop) = (&hub, &stop);
            for (index, slot) in counters.iter().enumerate() {
                s.spawn(move || Worker::new(hub, net, depth, plan, index, slot, observer).run());
            }
            if let Some(plan) = plan {
                s.spawn(move || scrubber_loop(stop, net, plan));
            }
            let handle = EngineHandle {
                hub,
                counters: &counters,
                workers,
                depth,
                started,
                observer,
            };
            // Drop order is reverse of declaration: the hub closes first
            // (workers drain and exit), then the scrubber is stopped —
            // both fire even if `f` panics, so the scope always joins.
            let _stop_scrubber = StopGuard(stop);
            let _close_hub = CloseGuard(hub);
            f(&handle)
        })
    }
}

/// Sets the scrubber's stop flag on drop (see [`Engine::run_scrubbed`]).
struct StopGuard<'a>(&'a AtomicBool);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Submit/drain interface handed to the [`Engine::run`] closure.
pub struct EngineHandle<'a, O: Observer = NoopObserver> {
    hub: &'a Hub,
    counters: &'a [WorkerCounters],
    workers: usize,
    depth: usize,
    started: Instant,
    observer: &'a O,
}

impl<O: Observer> EngineHandle<'_, O> {
    /// Submits one frame (`Vec<Record>`), a whole [`FrameBatch`], or a
    /// tagged [`Submission`], blocking while the bounded queue is full.
    /// Returns the first sequence number: a batch reserves one per frame,
    /// and frame `f` drains as `seq + f`, as its own [`RoutedBatch`], so
    /// [`Self::drain`] loops need no batch awareness.
    ///
    /// A single frame is sharded across workers by the recursive split; a
    /// batch is routed by its owning worker through `bnb-core`'s batched
    /// word-parallel kernel ([`bnb_core::batch::route_batch`]) in one
    /// invocation. Per-frame validation failures surface as per-frame
    /// [`EngineError`]s; valid frames in the same batch still route.
    ///
    /// # Panics
    ///
    /// Panics if the submission carries no frames or the engine is past
    /// [`Self::drain_and_close`].
    pub fn submit(&self, work: impl Into<Submission>) -> u64 {
        match self.enqueue(work.into(), true) {
            Ok(seq) => seq,
            Err(e) => panic!("submit after drain_and_close: {e}"),
        }
    }

    /// Non-blocking [`Self::submit`]: rejects the submission instead of
    /// waiting when the bounded queue is full ([`SubmitError::Full`]) or
    /// the engine is past [`Self::drain_and_close`]
    /// ([`SubmitError::Closed`]), handing it back inside the error. This
    /// is the admission-control primitive: a front door that checks
    /// occupancy before offering can turn `Full` into an explicit `RETRY`
    /// instead of blocking a shared dispatch thread.
    ///
    /// # Panics
    ///
    /// Panics if the submission carries no frames.
    pub fn try_submit(&self, work: impl Into<Submission>) -> Result<u64, SubmitError> {
        self.enqueue(work.into(), false)
    }

    fn enqueue(&self, work: Submission, block: bool) -> Result<u64, SubmitError> {
        let frames = work.payload.frames() as u64;
        let records = work.payload.width();
        let seq = self.hub.enqueue(work, block)?;
        if self.observer.enabled() {
            for f in 0..frames {
                self.observer.batch_submitted(SubmitEvent {
                    seq: seq + f,
                    records,
                });
            }
        }
        Ok(seq)
    }

    /// Graceful shutdown: rejects every submission from this point on
    /// (blocking [`Self::submit`] calls panic, [`Self::try_submit`]
    /// returns [`SubmitError::Closed`]), drains every in-flight batch,
    /// and returns them in submission order. After it returns the hub is
    /// empty, so the worker pool joins deterministically as soon as the
    /// [`Engine::run`] closure does — no frame is lost (everything
    /// submitted before the close is in the returned tail or was drained
    /// earlier) and none is double-delivered (each seq drains exactly
    /// once, here or before).
    pub fn drain_and_close(&self) -> Vec<RoutedBatch> {
        self.hub.stop_accepting();
        let mut tail = Vec::new();
        while let Some(batch) = self.hub.drain() {
            tail.push(batch);
        }
        tail
    }

    /// Blocks for the next routed batch in submission order; `None` once
    /// every submitted batch has been drained.
    pub fn drain(&self) -> Option<RoutedBatch> {
        self.hub.drain()
    }

    /// Non-blocking [`Self::drain`].
    pub fn try_drain(&self) -> Option<RoutedBatch> {
        self.hub.try_drain()
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        let elapsed_ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let secs = (elapsed_ns as f64 / 1e9).max(1e-9);
        let worker_metrics: Vec<WorkerMetrics> = self
            .counters
            .iter()
            .enumerate()
            .map(|(worker, c)| {
                let busy_ns = c.busy_ns.load(Ordering::Relaxed);
                WorkerMetrics {
                    worker,
                    busy_ns,
                    utilization: (busy_ns as f64 / elapsed_ns.max(1) as f64).min(1.0),
                    jobs_owned: c.jobs_owned.load(Ordering::Relaxed),
                    tasks_stolen: c.tasks_stolen.load(Ordering::Relaxed),
                }
            })
            .collect();
        let worker_busy_ns: Vec<u64> = worker_metrics.iter().map(|w| w.busy_ns).collect();
        let worker_utilization: Vec<f64> = worker_metrics.iter().map(|w| w.utilization).collect();
        self.hub.with_state(|st| EngineStats {
            workers: self.workers,
            shard_depth: self.depth,
            batches: st.batches,
            records: st.records,
            errors: st.errors,
            elapsed_ns,
            batches_per_sec: st.batches as f64 / secs,
            records_per_sec: st.records as f64 / secs,
            latency: LatencySummary::from_histogram(&st.histogram),
            histogram: st.histogram.clone(),
            queue_depth: st.jobs.len(),
            queue_high_water: st.queue_high_water,
            wait_latency: LatencySummary::from_histogram(&st.wait_histogram),
            task_queue_high_water: st.task_queue_high_water,
            worker_busy_ns: worker_busy_ns.clone(),
            worker_utilization,
            worker_metrics: worker_metrics.clone(),
        })
    }
}

/// Per-worker activity counters, read by [`EngineHandle::stats`] while the
/// worker is still running (hence atomics, relaxed throughout).
#[derive(Default)]
struct WorkerCounters {
    busy_ns: AtomicU64,
    jobs_owned: AtomicU64,
    tasks_stolen: AtomicU64,
}

/// `ceil(log2(workers))`, clamped so slices never shrink below one line.
fn auto_depth(workers: usize, m: usize) -> usize {
    if workers <= 1 {
        return 0;
    }
    let log = usize::BITS - (workers - 1).leading_zeros();
    (log as usize).min(m)
}

/// One worker thread: the session it serves plus routing state reused
/// across every job and task it touches. The latch is rearmed for each
/// job this worker owns, so even batch coordination allocates nothing in
/// steady state.
struct Worker<'s, O: Observer> {
    hub: &'s Hub,
    net: BnbNetwork,
    depth: usize,
    /// The live fault plan, when the session routes over one.
    plan: Option<&'s LiveFaultPlan>,
    /// This worker's index, where its shard search starts under a plan.
    index: usize,
    counters: &'s WorkerCounters,
    observer: &'s O,
    scratch: StageScratch,
    seen: Vec<usize>,
    latch: Arc<JobLatch>,
    /// Per-frame results of owned batch jobs, reused across batches.
    outcome: BatchOutcome,
    /// Per-attempt working copy of a frame under a plan: a failed attempt
    /// leaves partially routed lines behind, so every attempt restarts
    /// from the submitted order.
    attempt: Vec<Record>,
}

impl<'s, O: Observer> Worker<'s, O> {
    fn new(
        hub: &'s Hub,
        net: BnbNetwork,
        depth: usize,
        plan: Option<&'s LiveFaultPlan>,
        index: usize,
        counters: &'s WorkerCounters,
        observer: &'s O,
    ) -> Self {
        Worker {
            hub,
            net,
            depth,
            plan,
            index,
            counters,
            observer,
            scratch: StageScratch::with_capacity(net.inputs()),
            seen: Vec::new(),
            latch: Arc::new(JobLatch::new(0)),
            outcome: BatchOutcome::new(),
            attempt: Vec::new(),
        }
    }

    /// The worker loop: serves slice tasks and owned jobs until the hub
    /// closes and empties. Without a plan, frames are sharded and batches
    /// take the batched kernel; under a plan, every frame takes the retry
    /// path.
    fn run(mut self) {
        while let Some(work) = self.hub.next_work() {
            let t0 = Instant::now();
            match work {
                Work::Task(task) => self.steal(task),
                Work::Job(job) => {
                    self.counters.jobs_owned.fetch_add(1, Ordering::Relaxed);
                    let (seq, at) = (job.seq, job.submitted_at);
                    match (job.payload, self.plan) {
                        (Payload::Frame(lines), None) => self.process_job(seq, at, lines),
                        (Payload::Batch(batch), None) => self.process_job_batch(seq, at, batch),
                        (Payload::Frame(lines), Some(plan)) => {
                            self.process_frame_retrying(plan, seq, at, lines)
                        }
                        (Payload::Batch(batch), Some(plan)) => {
                            for f in 0..batch.frames() {
                                let mut lines = Vec::with_capacity(batch.width());
                                batch.read_frame_into(f, &mut lines);
                                self.process_frame_retrying(plan, seq + f as u64, at, lines);
                            }
                        }
                    }
                }
            }
            self.counters
                .busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Runs a slice task taken from the shared queue.
    fn steal(&mut self, task: SliceTask) {
        self.counters.tasks_stolen.fetch_add(1, Ordering::Relaxed);
        if self.observer.enabled() {
            self.observer.shard_stolen(shard_event(&task));
        }
        self.run_task(task);
    }

    /// Checks a frame against the routing contract, publishing the
    /// failure (and returning `false`) when it is malformed.
    fn validate(&mut self, seq: u64, submitted_at: Instant, lines: &[Record]) -> bool {
        match validate_lines(&self.net, lines, &mut self.seen) {
            Ok(()) => true,
            Err(e) => {
                self.finish(seq, submitted_at, Err(EngineError::batch(seq, e)));
                false
            }
        }
    }

    /// Routes one frame under the live fault plan: each attempt asks the
    /// plan for a healthy shard (round-robin fallback when none is) and
    /// routes through a point-in-time snapshot of that shard's fault map.
    /// A detected hardware fault demotes the shard to suspect, so the
    /// scrubber picks it up and later frames skip it, and retries after
    /// exponential backoff; an exhausted budget publishes
    /// [`EngineError::Quarantined`]. Other errors (unbalanced traffic)
    /// are terminal at once — retrying cannot fix the input.
    fn process_frame_retrying(
        &mut self,
        plan: &LiveFaultPlan,
        seq: u64,
        submitted_at: Instant,
        mut lines: Vec<Record>,
    ) {
        if !self.validate(seq, submitted_at, &lines) {
            return;
        }
        let retry = plan.retry();
        let attempts = retry.max_attempts.max(1);
        let mut last_fault = None;
        for attempt in 0..attempts {
            let shard = plan.pick_shard(self.index, attempt);
            if attempt > 0 {
                let backoff = retry
                    .backoff
                    .saturating_mul(1u32 << (attempt - 1).min(16) as u32);
                if !backoff.is_zero() {
                    thread::sleep(backoff);
                }
                if self.observer.enabled() {
                    self.observer.batch_retried(RetryEvent {
                        seq,
                        attempt,
                        shard,
                    });
                }
            }
            self.attempt.clear();
            self.attempt.extend_from_slice(&lines);
            let faults = plan.faults_snapshot(shard);
            match RouteSpan::new()
                .observer(self.observer)
                .faults(&faults)
                .run(
                    &self.net,
                    &mut self.attempt,
                    0,
                    0..self.net.m(),
                    &mut self.scratch,
                ) {
                Ok(()) => {
                    lines.copy_from_slice(&self.attempt);
                    return self.finish(seq, submitted_at, Ok(lines));
                }
                Err(e @ RouteError::HardwareFault { .. }) => {
                    plan.mark_suspect(shard);
                    last_fault = Some(e);
                }
                Err(e) => return self.finish(seq, submitted_at, Err(EngineError::batch(seq, e))),
            }
        }
        let source = last_fault.expect("the attempt loop ran and only exits early on success");
        let quarantined = EngineError::quarantined(seq, attempts, source);
        self.finish(seq, submitted_at, Err(quarantined));
    }

    /// Routes one frame as its owner: validate, split into `2^depth`
    /// slice tasks, help until every slice lands, publish the result.
    fn process_job(&mut self, seq: u64, submitted_at: Instant, mut lines: Vec<Record>) {
        if !self.validate(seq, submitted_at, &lines) {
            return;
        }
        #[cfg(debug_assertions)]
        let reference = self.net.route(&lines);

        // The latch travels behind an `Arc` so the last helper's
        // completion can never outlive it; this worker's latch is rearmed
        // per owned job.
        self.latch.reset(1);
        let root = SliceTask {
            lines: lines.as_mut_ptr(),
            len: lines.len(),
            first_line: 0,
            start_stage: 0,
            split_until: self.depth.min(self.net.m()),
            latch: Arc::clone(&self.latch),
        };
        self.run_task(root);
        // Help with queued slice work (ours or anyone's) until our frame
        // is fully routed.
        while !self.latch.is_done() {
            match self.hub.try_pop_task() {
                Some(task) => self.steal(task),
                None => self.latch.wait_brief(),
            }
        }
        let result = match self.latch.take_error() {
            Some(e) => Err(e),
            None => Ok(lines),
        };

        // Error results are comparable too: `JobLatch::fail` keeps the
        // earliest-scan-site error, which is the one the sequential route
        // stops at.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            result, reference,
            "parallel routing diverged from the sequential reference"
        );
        self.finish(
            seq,
            submitted_at,
            result.map_err(|e| EngineError::batch(seq, e)),
        );
    }

    /// Routes one owned [`Payload::Batch`]: all frames through one
    /// batched kernel invocation, then one published result per reserved
    /// sequence number. Batch jobs are never sliced across workers —
    /// parallelism comes from workers owning *different* batches, and the
    /// batched kernel's full word occupancy replaces the intra-frame
    /// split.
    fn process_job_batch(&mut self, seq: u64, submitted_at: Instant, mut batch: FrameBatch) {
        let frames = batch.frames();
        let records = batch.width();
        #[cfg(debug_assertions)]
        let inputs = batch.to_frames();
        // An enabled observer rides through RouteSpan: route_batch falls
        // back to frame-at-a-time scalar routing so per-column events
        // still fire, exactly as per-frame submission would.
        let opts = if self.observer.enabled() {
            RouteSpan::new().observer(self.observer)
        } else {
            RouteSpan::new()
        };
        route_batch(
            &self.net,
            &mut batch,
            &opts,
            &mut self.scratch,
            &mut self.outcome,
        );
        // `inputs` exists only under debug_assertions, so the loop cannot
        // be rewritten over it without forking on cfg.
        #[allow(clippy::needless_range_loop)]
        for f in 0..frames {
            let fseq = seq + f as u64;
            let result = match &self.outcome.results()[f] {
                Ok(()) => {
                    let mut out = Vec::with_capacity(records);
                    batch.read_frame_into(f, &mut out);
                    Ok(out)
                }
                Err(e) => Err(EngineError::batch(fseq, e.clone())),
            };
            // The batched kernel must be indistinguishable from routing
            // each frame alone through the sequential reference.
            #[cfg(debug_assertions)]
            {
                let reference = self.net.route(&inputs[f]);
                match (&result, &reference) {
                    (Ok(got), Ok(want)) => debug_assert_eq!(
                        got, want,
                        "batched routing diverged from the sequential reference"
                    ),
                    (Err(got), Err(want)) => debug_assert_eq!(
                        got.route_error(),
                        want,
                        "batched error diverged from the sequential reference"
                    ),
                    _ => panic!("batched result status diverged from the sequential reference"),
                }
            }
            self.finish(fseq, submitted_at, result);
        }
    }

    /// Publishes a frame's result and, when observing, emits the matching
    /// [`DrainEvent`] (the event carries submit-to-publish latency,
    /// measured here because `drain` itself never learns it).
    fn finish(&self, seq: u64, submitted_at: Instant, result: Result<Vec<Record>, EngineError>) {
        let records = result.as_ref().map_or(0, Vec::len);
        let ok = result.is_ok();
        self.hub.finish(seq, submitted_at, result);
        if self.observer.enabled() {
            let latency_ns = submitted_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.observer.batch_drained(DrainEvent {
                seq,
                records,
                latency_ns,
                ok,
            });
        }
    }

    /// Routes a slice task: one main stage at a time while splitting is
    /// still wanted (pushing the sibling half to the hub), then the
    /// remaining stages sequentially.
    fn run_task(&mut self, task: SliceTask) {
        let net = self.net;
        let m = net.m();
        let latch = &task.latch;
        // SAFETY: the owning worker keeps the frame vector alive until
        // the latch (which we complete below, after the last use) reports
        // done, and sibling tasks cover disjoint ranges.
        let mut lines = unsafe { std::slice::from_raw_parts_mut(task.lines, task.len) };
        // Splits always keep the aligned low half, so our first line
        // never moves.
        let first_line = task.first_line;
        let mut stage = task.start_stage;
        loop {
            if stage >= task.split_until || stage >= m || lines.len() < 2 {
                let tail = RouteSpan::new().observer(self.observer).run(
                    &net,
                    lines,
                    first_line,
                    stage..m,
                    &mut self.scratch,
                );
                match tail {
                    Ok(()) => latch.complete_one(),
                    Err(e) => latch.fail(e),
                }
                return;
            }
            // Route this main stage over the whole slice, then hand half
            // of the now-independent subnetworks to any idle worker.
            if let Err(e) = RouteSpan::new().observer(self.observer).run(
                &net,
                lines,
                first_line,
                stage..stage + 1,
                &mut self.scratch,
            ) {
                latch.fail(e);
                return;
            }
            stage += 1;
            let half = lines.len() / 2;
            let (keep, give) = lines.split_at_mut(half);
            let sibling = SliceTask {
                lines: give.as_mut_ptr(),
                len: give.len(),
                first_line: first_line + half,
                start_stage: stage,
                split_until: task.split_until,
                latch: Arc::clone(&task.latch),
            };
            latch.add_one();
            if self.observer.enabled() {
                self.observer.shard_enqueued(shard_event(&sibling));
            }
            self.hub.push_task(sibling);
            lines = keep;
        }
    }
}

/// The [`ShardEvent`] describing a queued slice task.
fn shard_event(task: &SliceTask) -> ShardEvent {
    ShardEvent {
        first_line: task.first_line,
        len: task.len,
        start_stage: task.start_stage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::ShardHealth;
    use bnb_core::fault::FaultMap;
    use bnb_core::network::RoutePolicy;
    use bnb_obs::Counters;
    use bnb_topology::perm::Permutation;
    use bnb_topology::record::records_for_permutation;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn auto_depth_tracks_worker_count() {
        assert_eq!(auto_depth(1, 8), 0);
        assert_eq!(auto_depth(2, 8), 1);
        assert_eq!(auto_depth(3, 8), 2);
        assert_eq!(auto_depth(4, 8), 2);
        assert_eq!(auto_depth(8, 8), 3);
        assert_eq!(auto_depth(64, 3), 3); // clamped to m
    }

    #[test]
    fn engine_matches_sequential_route() {
        let mut rng = StdRng::seed_from_u64(100);
        for m in [1usize, 3, 6] {
            let n = 1usize << m;
            let net = BnbNetwork::new(m);
            for workers in [1usize, 2, 4] {
                let engine = Engine::new(net, EngineConfig::with_workers(workers));
                let perms: Vec<_> = (0..8).map(|_| Permutation::random(n, &mut rng)).collect();
                let expected: Vec<_> = perms
                    .iter()
                    .map(|p| net.route(&records_for_permutation(p)).unwrap())
                    .collect();
                let routed = engine.run(|h| {
                    for p in &perms {
                        h.submit(records_for_permutation(p));
                    }
                    (0..perms.len())
                        .map(|_| h.drain().unwrap())
                        .collect::<Vec<_>>()
                });
                for (i, batch) in routed.iter().enumerate() {
                    assert_eq!(batch.seq, i as u64, "drain must be in submission order");
                    assert_eq!(batch.result.as_ref().unwrap(), &expected[i]);
                }
            }
        }
    }

    #[test]
    fn tagged_and_batched_submissions_carry_tokens_per_frame() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 16usize;
        let net = BnbNetwork::new(4);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let perms: Vec<_> = (0..5).map(|_| Permutation::random(n, &mut rng)).collect();
        let drained = engine.run(|h| {
            // One tagged single, then a 4-frame batch with distinct
            // per-frame tokens.
            h.try_submit(Submission::tagged(
                Payload::Frame(records_for_permutation(&perms[0])),
                vec![0xAA],
            ))
            .unwrap();
            let mut batch = FrameBatch::with_capacity(n, 4);
            for p in &perms[1..] {
                batch.push_frame(&records_for_permutation(p));
            }
            let base = h
                .try_submit(Submission::tagged(
                    Payload::Batch(batch),
                    vec![0x10, 0x20, 0x30, 0x40],
                ))
                .unwrap();
            assert_eq!(base, 1, "batch frames follow the single");
            (0..5).map(|_| h.drain().unwrap()).collect::<Vec<_>>()
        });
        let mut by_seq: Vec<_> = drained;
        by_seq.sort_by_key(|b| b.seq);
        let want_tokens = [0xAAu64, 0x10, 0x20, 0x30, 0x40];
        for (i, batch) in by_seq.iter().enumerate() {
            assert_eq!(batch.seq, i as u64);
            assert_eq!(batch.token, want_tokens[i], "frame {i} token");
            assert!(batch.result.is_ok(), "frame {i} routes");
        }
    }

    #[test]
    fn error_batches_are_reported_not_lost() {
        let net = BnbNetwork::new(2);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let good = records_for_permutation(&Permutation::try_from(vec![2, 0, 3, 1]).unwrap());
        let dup = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        let (first, second, stats) = engine.run(|h| {
            h.submit(dup.clone());
            h.submit(good.clone());
            (h.drain().unwrap(), h.drain().unwrap(), h.stats())
        });
        let err = first.result.unwrap_err();
        assert_eq!(err.seq(), 0, "the failing batch's sequence number");
        assert!(matches!(
            err.route_error(),
            bnb_core::RouteError::DuplicateDestination { dest: 1, .. }
        ));
        assert!(second.result.is_ok());
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.records, 4); // only the good batch counts
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let net = BnbNetwork::new(4);
        let config = EngineConfig {
            workers: 2,
            queue_capacity: 3,
            shard_depth: ShardDepth::Auto,
        };
        let engine = Engine::new(net, config);
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(5));
        let stats = engine.run(|h| {
            for _ in 0..50 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
            h.stats()
        });
        assert_eq!(stats.batches, 50);
        assert!(
            stats.queue_high_water <= 3,
            "queue grew past its bound: {}",
            stats.queue_high_water
        );
        assert!(stats.queue_high_water >= 1);
    }

    #[test]
    fn permissive_garbage_traffic_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = BnbNetwork::builder(5)
            .policy(RoutePolicy::Permissive)
            .build();
        let engine = Engine::new(
            net,
            EngineConfig {
                workers: 4,
                queue_capacity: 4,
                shard_depth: ShardDepth::Fixed(3),
            },
        );
        let batches: Vec<Vec<Record>> = (0..6)
            .map(|_| {
                (0..32)
                    .map(|i| Record::new(rng.random_range(0..32), i as u64))
                    .collect()
            })
            .collect();
        let expected: Vec<_> = batches.iter().map(|b| net.route(b).unwrap()).collect();
        let routed = engine.run(|h| {
            for b in &batches {
                h.submit(b.clone());
            }
            (0..batches.len())
                .map(|_| h.drain().unwrap())
                .collect::<Vec<_>>()
        });
        for (batch, want) in routed.iter().zip(&expected) {
            assert_eq!(batch.result.as_ref().unwrap(), want);
        }
    }

    #[test]
    fn stats_are_sane_after_a_run() {
        let net = BnbNetwork::new(5);
        let engine = Engine::new(net, EngineConfig::with_workers(3));
        let p = Permutation::random(32, &mut StdRng::seed_from_u64(7));
        let stats = engine.run(|h| {
            for _ in 0..10 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
            h.stats()
        });
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.shard_depth, 2);
        assert_eq!(stats.batches, 10);
        assert_eq!(stats.records, 320);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.histogram.count(), 10);
        assert!(stats.batches_per_sec > 0.0);
        assert!(stats.records_per_sec > 0.0);
        assert!(stats.latency.min_ns <= stats.latency.p50_ns);
        assert!(stats.latency.p50_ns <= stats.latency.p99_ns);
        assert!(stats.latency.p99_ns <= stats.latency.max_ns);
        assert_eq!(stats.worker_busy_ns.len(), 3);
        assert_eq!(stats.worker_utilization.len(), 3);
        assert_eq!(stats.worker_metrics.len(), 3);
        assert!(stats
            .worker_utilization
            .iter()
            .all(|&u| (0.0..=1.0).contains(&u)));
        for (i, w) in stats.worker_metrics.iter().enumerate() {
            assert_eq!(w.worker, i);
            assert_eq!(w.busy_ns, stats.worker_busy_ns[i]);
        }
        let owned: u64 = stats.worker_metrics.iter().map(|w| w.jobs_owned).sum();
        assert_eq!(owned, 10, "every batch has exactly one owner");
    }

    /// With a sharding engine, an attached `Counters` observer sees every
    /// slice hand-off (each enqueued shard is eventually stolen) and one
    /// submit/drain pair per batch.
    #[test]
    fn observer_sees_engine_events() {
        let counters = Counters::new();
        let net = BnbNetwork::new(4);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(4), &counters);
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(11));
        let stats = engine.run(|h| {
            for _ in 0..5 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
            h.stats()
        });
        let snap = counters.snapshot();
        assert_eq!(snap.batches_submitted, 5);
        assert_eq!(snap.batches_drained, 5);
        assert_eq!(snap.batch_errors, 0);
        assert!(snap.shards_enqueued > 0, "depth 2 must split every batch");
        assert_eq!(
            snap.shards_enqueued, snap.shards_stolen,
            "every queued shard is taken by exactly one worker"
        );
        let stolen: u64 = stats.worker_metrics.iter().map(|w| w.tasks_stolen).sum();
        assert_eq!(stolen, snap.shards_stolen);
        assert_eq!(snap.histogram.count(), 5, "one latency sample per batch");
        assert!(stats.task_queue_high_water >= 1);
    }

    /// Regression: `task_queue_high_water` must describe the current
    /// submission wave. Before the per-wave reset, a reused (idle) engine
    /// kept reporting the deepest wave it had ever run.
    #[test]
    fn task_queue_high_water_resets_between_waves() {
        let net = BnbNetwork::new(4);
        let engine = Engine::new(
            net,
            EngineConfig {
                workers: 2,
                queue_capacity: 4,
                shard_depth: ShardDepth::Fixed(2),
            },
        );
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(21));
        engine.run(|h| {
            h.submit(records_for_permutation(&p));
            assert!(h.drain().unwrap().result.is_ok());
            assert!(
                h.stats().task_queue_high_water >= 1,
                "a depth-2 split publishes slice tasks"
            );
            // Second wave into the now-idle engine: this batch fails
            // validation before any slice is published, so a per-wave
            // high water reads 0 — a stale one would still show wave 1.
            let dup: Vec<Record> = (0..16)
                .map(|i| Record::new(if i == 1 { 0 } else { i }, i as u64))
                .collect();
            h.submit(dup);
            assert!(h.drain().unwrap().result.is_err());
            assert_eq!(
                h.stats().task_queue_high_water,
                0,
                "high water must reset at the start of each wave"
            );
        });
    }

    /// A `FlightRecorder` attached to the engine captures every batch's
    /// submit and drain as spans carrying the batch seq as trace id, with
    /// worker activity spread across per-thread recorder lanes.
    #[test]
    fn flight_recorder_shards_merge_at_drain() {
        use bnb_obs::{FlightRecorder, SpanKind};
        let recorder = FlightRecorder::with_capacity(4096);
        let net = BnbNetwork::new(4);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(4), &recorder);
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(22));
        engine.run(|h| {
            for _ in 0..5 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
        });
        let spans = recorder.spans();
        assert_eq!(recorder.dropped(), 0, "capacity covers the whole run");
        let mut submit_seqs: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Submit)
            .map(|s| s.seq)
            .collect();
        submit_seqs.sort_unstable();
        assert_eq!(submit_seqs, vec![0, 1, 2, 3, 4]);
        let drains: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Drain).collect();
        assert_eq!(drains.len(), 5, "one drain span per batch");
        assert!(drains.iter().all(|s| s.ok));
        let shard_spans = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Shard | SpanKind::Steal))
            .count();
        assert!(shard_spans > 0, "depth-2 sharding must be visible");
        // Submissions come from the driver thread; routing spans from
        // worker threads — at least two distinct lanes in the merge.
        let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert!(lanes.len() >= 2, "expected multiple recorder lanes");
    }

    /// Under a fault plan, the retry and the eventual drain of a frame
    /// carry the same trace id (`seq`), so a recorder ties the whole
    /// retry chain together.
    #[test]
    fn flight_recorder_threads_trace_ids_through_retries() {
        use bnb_obs::{FlightRecorder, SpanKind};
        let recorder = FlightRecorder::with_capacity(4096);
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 43);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &recorder);
        let plan = fixed_plan(
            vec![map, FaultMap::new()],
            RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
        );
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(bad.clone());
            h.drain().unwrap()
        });
        assert!(routed.result.is_ok());
        let spans = recorder.spans();
        let retry = spans
            .iter()
            .find(|s| s.kind == SpanKind::Retry)
            .expect("the faulted first attempt must record a retry span");
        let fault = spans
            .iter()
            .find(|s| s.kind == SpanKind::Fault)
            .expect("the detection must record a fault span");
        let drain = spans
            .iter()
            .find(|s| s.kind == SpanKind::Drain)
            .expect("the batch must drain");
        assert_eq!(retry.seq, drain.seq, "one trace id across the chain");
        assert!(drain.ok, "the retry landed on the healthy shard");
        assert!(!retry.ok);
        assert!(!fault.ok);
    }

    /// With no splitting (one worker, depth 0) the observed column count
    /// is the closed form `m(m+1)/2` per batch — the engine adds no extra
    /// span routing.
    #[test]
    fn observer_column_counts_match_closed_form_without_splitting() {
        let counters = Counters::new();
        let m = 4;
        let n = 1usize << m;
        let net = BnbNetwork::new(m);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let p = Permutation::random(n, &mut StdRng::seed_from_u64(12));
        engine.run(|h| {
            for _ in 0..3 {
                h.submit(records_for_permutation(&p));
            }
            while h.drain().is_some() {}
        });
        let snap = counters.snapshot();
        assert_eq!(snap.columns, 3 * (m as u64 * (m as u64 + 1) / 2));
        let sweeps_per_route = (n * m - n + 1) as u64;
        assert_eq!(snap.arbiter_sweeps, 3 * sweeps_per_route);
        assert_eq!(snap.shards_enqueued, 0, "depth 0 never splits");
    }

    /// Finds a permutation the given fault corrupts (strict route returns
    /// `HardwareFault`) and one it leaves alone, by scanning seeded
    /// random permutations on a sequential `FaultyFabric`.
    fn fault_sensitive_perms(
        net: BnbNetwork,
        faults: &FaultMap,
        seed: u64,
    ) -> (Vec<Record>, Vec<Record>) {
        use bnb_core::fault::FaultyFabric;
        let n = net.inputs();
        let mut fabric = FaultyFabric::new(net, faults.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bad = None;
        let mut good = None;
        for _ in 0..200 {
            let lines = records_for_permutation(&Permutation::random(n, &mut rng));
            match fabric.route(&lines) {
                Ok(_) if good.is_none() => good = Some(lines),
                Err(bnb_core::RouteError::HardwareFault { .. }) if bad.is_none() => {
                    bad = Some(lines)
                }
                _ => {}
            }
            if bad.is_some() && good.is_some() {
                break;
            }
        }
        (
            bad.expect("no permutation triggered the fault"),
            good.expect("every permutation triggered the fault"),
        )
    }

    fn stuck_map() -> FaultMap {
        use bnb_core::fault::{FaultKind, FaultSite};
        FaultMap::single(FaultSite::new(0, 0, 0), FaultKind::StuckExchange)
    }

    /// A live plan whose shard `i` carries `faults[i]` from the start.
    fn fixed_plan(faults: Vec<FaultMap>, retry: RetryPolicy) -> LiveFaultPlan {
        let plan = LiveFaultPlan::healthy(faults.len()).with_retry(retry);
        for (i, map) in faults.into_iter().enumerate() {
            plan.set_faults(i, map);
        }
        plan
    }

    /// A healthy live plan routes byte-identically to `run`.
    #[test]
    fn healthy_plan_matches_run() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let expected = net.route(&records_for_permutation(&p)).unwrap();
        let plan = LiveFaultPlan::healthy(2);
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(records_for_permutation(&p));
            h.drain().unwrap()
        });
        assert_eq!(routed.result.unwrap(), expected);
    }

    /// With every shard faulted identically, a fault-triggering batch
    /// exhausts its budget and drains as `Quarantined`, fault site in the
    /// cause chain; untouched batches still route correctly.
    #[test]
    fn uniform_faults_quarantine_after_retries() {
        use std::error::Error as _;
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, good) = fault_sensitive_perms(net, &map, 40);
        let expected_good = net.route(&good).unwrap();
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let plan = fixed_plan(
            vec![map.clone(), map],
            RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_micros(1),
            },
        );
        let (first, second) = engine.run_scrubbed(&plan, |h| {
            h.submit(bad.clone());
            h.submit(good.clone());
            (h.drain().unwrap(), h.drain().unwrap())
        });
        let err = first.result.unwrap_err();
        assert_eq!(err.seq(), 0);
        assert!(matches!(err, EngineError::Quarantined { attempts: 3, .. }));
        assert!(matches!(
            err.route_error(),
            RouteError::HardwareFault { main_stage: 0, .. }
        ));
        let cause = err.source().expect("quarantine carries the fault");
        assert!(cause.to_string().contains("hardware fault"));
        assert_eq!(second.result.unwrap(), expected_good);
    }

    /// One worker, shard 0 faulted and shard 1 healthy: the first attempt
    /// fails, the retry lands on the healthy shard, and the frame drains
    /// successfully — with the retry visible to the observer.
    #[test]
    fn retry_moves_batches_onto_healthy_shards() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 41);
        let expected = net.route(&bad).unwrap();
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let plan = fixed_plan(
            vec![map, FaultMap::new()],
            RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
        );
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(bad.clone());
            h.drain().unwrap()
        });
        assert_eq!(routed.result.unwrap(), expected);
        let snap = counters.snapshot();
        assert_eq!(snap.fault_retries, 1, "exactly one retry");
        assert_eq!(snap.hardware_faults, 1, "the first attempt's detection");
        assert_eq!(snap.batch_errors, 0, "the batch ultimately succeeded");
    }

    /// Non-hardware errors are terminal on the first attempt: retrying
    /// cannot fix bad traffic, and the error stays a plain `Batch`.
    #[test]
    fn traffic_errors_are_not_retried() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let net = BnbNetwork::new(2);
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let plan = fixed_plan(vec![stuck_map(), stuck_map()], RetryPolicy::default());
        let dup = vec![
            Record::new(1, 0),
            Record::new(1, 1),
            Record::new(2, 2),
            Record::new(3, 3),
        ];
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(dup);
            h.drain().unwrap()
        });
        let err = routed.result.unwrap_err();
        assert!(matches!(err, EngineError::Batch { .. }));
        assert!(matches!(
            err.route_error(),
            RouteError::DuplicateDestination { dest: 1, .. }
        ));
        assert_eq!(counters.snapshot().fault_retries, 0);
    }

    /// The full live-repair loop: traffic hits an injected fault, the
    /// shard is demoted and remapped around (retry lands on the healthy
    /// shard — the batch still drains correctly), the scrubber
    /// quarantines it, and after the fault clears the scrubber restores
    /// full capacity — all while submit/drain keeps moving.
    #[test]
    fn scrubbed_engine_remaps_quarantines_and_restores() {
        use bnb_obs::Counters;
        let counters = Counters::new();
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 47);
        let expected = net.route(&bad).unwrap();
        let engine = Engine::with_observer(net, EngineConfig::with_workers(1), &counters);
        let plan = LiveFaultPlan::healthy(2)
            .with_probe_seed(3)
            .with_restore_after(2)
            .with_scrub_interval(Duration::ZERO)
            .with_retry(RetryPolicy {
                max_attempts: 4,
                backoff: Duration::ZERO,
            });
        plan.set_faults(0, map);
        engine.run_scrubbed(&plan, |h| {
            let deadline = Instant::now() + Duration::from_secs(20);
            // Phase 1: traffic over the faulted shard 0. The fault-
            // sensitive frame must still drain correctly (remapped onto
            // shard 1) and shard 0 must leave service.
            while plan.health(0) == ShardHealth::Healthy {
                assert!(Instant::now() < deadline, "shard 0 never left service");
                h.submit(bad.clone());
                let routed = h.drain().unwrap();
                assert_eq!(
                    routed.result.as_ref().unwrap(),
                    &expected,
                    "no silent misdelivery through the faulted shard"
                );
            }
            while plan.health(0) != ShardHealth::Quarantined {
                assert!(Instant::now() < deadline, "scrubber never confirmed");
                // Keep traffic flowing while the scrubber works; a probe
                // round the fault doesn't excite may restore early —
                // traffic re-demotes it.
                h.submit(bad.clone());
                assert!(h.drain().unwrap().result.is_ok());
            }
            assert!(plan.is_degraded());
            // Phase 2: the transient clears; capacity must come back
            // while traffic continues.
            plan.clear(0);
            while plan.health(0) != ShardHealth::Healthy {
                assert!(Instant::now() < deadline, "capacity never restored");
                h.submit(bad.clone());
                assert!(h.drain().unwrap().result.is_ok());
            }
            assert_eq!(plan.healthy_shards(), 2, "full capacity restored");
        });
        let snap = counters.snapshot();
        assert!(snap.hardware_faults >= 1, "traffic detected the fault");
        assert!(snap.fault_retries >= 1, "the remap retried");
        assert_eq!(snap.batch_errors, 0, "every batch ultimately delivered");
        let repair = plan.status();
        assert!(
            repair.hardware_faults >= 1,
            "the plan counted the detection"
        );
        assert!(repair.scrub_probes >= 1);
        assert!(repair.shards_quarantined >= 1);
        assert!(repair.shards_restored >= 1);
    }

    /// With every shard faulted identically and one worker, the
    /// round-robin fallback keeps trying but the budget is finite: the
    /// frame still quarantines.
    #[test]
    fn scrubbed_uniform_faults_still_quarantine_batches() {
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad, _) = fault_sensitive_perms(net, &map, 48);
        let engine = Engine::new(net, EngineConfig::with_workers(1));
        let plan = LiveFaultPlan::healthy(2)
            .with_scrub_interval(Duration::ZERO)
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff: Duration::ZERO,
            });
        plan.set_faults(0, map.clone());
        plan.set_faults(1, map);
        let routed = engine.run_scrubbed(&plan, |h| {
            h.submit(bad.clone());
            h.drain().unwrap()
        });
        let err = routed.result.unwrap_err();
        assert!(matches!(err, EngineError::Quarantined { attempts: 3, .. }));
    }

    /// The batch branch under a plan: a `FrameBatch` mixing fault-tripping
    /// and fault-immune frames is unbundled, and every frame drains under
    /// its own seq and token. With every shard faulted, tripping frames
    /// quarantine; immune frames route exactly like `net.route`.
    #[test]
    fn plan_unbundles_batches_into_per_frame_retries() {
        let net = BnbNetwork::new(3);
        let map = stuck_map();
        let (bad_a, good_a) = fault_sensitive_perms(net, &map, 40);
        let (bad_b, good_b) = fault_sensitive_perms(net, &map, 44);
        let frames = [bad_a, good_a, bad_b, good_b];
        let tokens = vec![0x11u64, 0x22, 0x33, 0x44];
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let plan = fixed_plan(
            vec![map.clone(), map],
            RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
        );
        let mut batch = FrameBatch::with_capacity(net.inputs(), frames.len());
        for frame in &frames {
            batch.push_frame(frame);
        }
        let (base, drained) = engine.run_scrubbed(&plan, |h| {
            let base = h.submit(Submission::tagged(Payload::Batch(batch), tokens.clone()));
            let drained: Vec<_> = (0..frames.len()).map(|_| h.drain().unwrap()).collect();
            assert!(h.drain().is_none(), "one result per frame, no more");
            (base, drained)
        });
        for (f, routed) in drained.iter().enumerate() {
            assert_eq!(routed.seq, base + f as u64, "frame {f} seq");
            assert_eq!(routed.token, tokens[f], "frame {f} token");
            if f % 2 == 0 {
                let err = routed.result.as_ref().unwrap_err();
                assert_eq!(err.seq(), routed.seq);
                assert!(
                    matches!(err, EngineError::Quarantined { attempts: 2, .. }),
                    "frame {f}: {err:?}"
                );
            } else {
                assert_eq!(
                    routed.result.as_ref().unwrap(),
                    &net.route(&frames[f]).unwrap(),
                    "frame {f} routes like the sequential reference"
                );
            }
        }
    }

    #[test]
    fn try_submit_rejects_on_full_queue_and_returns_the_batch() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(
            net,
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                shard_depth: ShardDepth::Auto,
            },
        );
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        engine.run(|h| {
            // Saturate: keep try_submitting until the bounded queue
            // pushes back (the single worker may drain a couple first).
            let mut accepted = 0u64;
            let rejected = loop {
                match h.try_submit(records_for_permutation(&p)) {
                    Ok(_) => accepted += 1,
                    Err(e) => break e,
                }
            };
            assert!(matches!(rejected, SubmitError::Full(_)));
            assert!(!rejected.is_closed());
            assert_eq!(
                rejected.into_submission(),
                Submission::from(records_for_permutation(&p)),
                "the rejected frame rides back unrouted"
            );
            // A rejected batch rides back whole, tokens included.
            let mut batch = FrameBatch::new(8);
            batch.push_frame(&records_for_permutation(&p));
            batch.push_frame(&records_for_permutation(&p));
            let tagged = Submission::tagged(Payload::Batch(batch), vec![7, 9]);
            let rejected = loop {
                match h.try_submit(tagged.clone()) {
                    Ok(_) => accepted += 2,
                    Err(e) => break e,
                }
            };
            assert!(matches!(rejected, SubmitError::Full(_)));
            assert_eq!(rejected.into_submission(), tagged);
            let mut drained = 0u64;
            while h.drain().is_some() {
                drained += 1;
            }
            assert_eq!(drained, accepted, "accepted batches all drain");
        });
    }

    #[test]
    fn drain_and_close_delivers_every_inflight_batch_once() {
        let net = BnbNetwork::new(4);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::random(16, &mut StdRng::seed_from_u64(31));
        engine.run(|h| {
            let mut seqs = Vec::new();
            for _ in 0..6 {
                seqs.push(h.submit(records_for_permutation(&p)));
            }
            // Drain a prefix interactively, then close over the rest.
            let head = h.drain().unwrap();
            assert_eq!(head.seq, seqs[0]);
            let tail = h.drain_and_close();
            let tail_seqs: Vec<u64> = tail.iter().map(|b| b.seq).collect();
            assert_eq!(tail_seqs, seqs[1..], "tail drains in order, exactly once");
            assert!(tail.iter().all(|b| b.result.is_ok()));
            // Closed for good: rejections are typed, nothing enqueues.
            let refused = h.try_submit(records_for_permutation(&p)).unwrap_err();
            assert!(refused.is_closed());
            assert!(h.drain().is_none(), "nothing left after the close");
            assert_eq!(h.stats().batches, 6);
        });
    }

    #[test]
    fn try_drain_is_nonblocking_and_ordered() {
        let net = BnbNetwork::new(3);
        let engine = Engine::new(net, EngineConfig::with_workers(2));
        let p = Permutation::try_from(vec![7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        engine.run(|h| {
            assert!(h.try_drain().is_none(), "nothing submitted yet");
            let a = h.submit(records_for_permutation(&p));
            let b = h.submit(records_for_permutation(&p));
            let first = h.drain().unwrap();
            assert_eq!(first.seq, a);
            // Blocking drain for the second too, then the queue is empty.
            let second = h.drain().unwrap();
            assert_eq!(second.seq, b);
            assert!(h.try_drain().is_none());
            assert!(h.drain().is_none());
        });
    }
}
