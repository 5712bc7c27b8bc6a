//! bnb-engine: a concurrent batched routing engine for the BNB network.
//!
//! The paper's self-routing property makes the control plane *local*: every
//! splitter sets its switches from its own inputs. This crate exploits the
//! structural consequence — after main stage `i`, the GBN's unshuffle
//! partitions the frame into independent subnetworks — to route disjoint
//! slices of one batch on different workers, on top of a classic bounded
//! submit/drain pipeline:
//!
//! - [`Engine::run`] spawns a [`std::thread::scope`]d worker pool (no
//!   external dependencies, no detached threads).
//! - [`EngineHandle::submit`] enqueues a batch into a **bounded** queue and
//!   blocks when it is full — backpressure, not unbounded buffering.
//! - Each batch is recursively split into `2^depth` independent subnetwork
//!   slices ([`ShardDepth`]), routed concurrently with per-worker reusable
//!   scratch (zero per-batch allocation in steady state), byte-identical
//!   to the sequential route.
//! - [`EngineHandle::drain`] returns routed batches in submission order;
//!   [`EngineHandle::stats`] snapshots throughput, a fixed-bucket latency
//!   histogram, queue high-water marks, and per-worker activity
//!   ([`EngineStats`], serde-serializable). Failed batches carry an
//!   [`EngineError`] whose `source()` chain reaches the underlying
//!   [`bnb_core::RouteError`].
//! - The engine is generic over a [`bnb_obs::Observer`] (defaulting to the
//!   zero-cost noop): [`Engine::with_observer`] streams submit/drain,
//!   shard hand-off, column and arbiter-sweep events to any sink, e.g. a
//!   lock-free `bnb_obs::Counters`.
//! - [`EngineHandle::submit`] (blocking) and [`EngineHandle::try_submit`]
//!   (non-blocking, handing a rejected [`Submission`] back inside
//!   [`SubmitError`]) are the only two ways in. Each takes one frame or a
//!   whole `bnb_core::batch::FrameBatch`, optionally tagged with
//!   per-frame completion tokens; a batch routes through the batched
//!   word-parallel kernel on one worker.
//! - [`Engine::run_scrubbed`] runs the same session over damaged, live
//!   hardware: a [`LiveFaultPlan`] assigns a mutable
//!   `bnb_core::fault::FaultMap` to each fabric shard. A frame whose
//!   attempt trips the output balance check demotes its shard to
//!   [`ShardHealth::Suspect`] and is retried on a healthy shard with
//!   exponential backoff ([`RetryPolicy`]); exhausted retries drain as
//!   [`EngineError::Quarantined`] with the fault site in the `source()`
//!   chain. A background scrubber probes suspect shards between drains,
//!   quarantining confirmed faults and restoring capacity when
//!   transients clear, without pausing submit/drain. The plan counts the
//!   loop's probes, quarantines, restores and traffic-detected faults
//!   itself ([`PlanStatus`]).
//!
//! See [`bnb_core::stages`] for the slice-independence argument and
//! `DESIGN.md` for how this mirrors the paper's arbiter locality.

pub mod engine;
pub mod error;
mod hub;
pub mod live;
pub mod stats;

pub use engine::{
    Engine, EngineConfig, EngineHandle, Payload, RetryPolicy, RoutedBatch, ShardDepth, Submission,
    SubmitError,
};
pub use error::EngineError;
pub use live::{LiveFaultPlan, PlanStatus, ShardHealth, ShardStatus};
pub use stats::{EngineStats, LatencyHistogram, LatencySummary, WorkerMetrics, HISTOGRAM_BUCKETS};
