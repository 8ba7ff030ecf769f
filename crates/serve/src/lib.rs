//! `unico-served`: a durable co-optimization job service.
//!
//! This crate turns the UNICO optimizer into a long-running daemon:
//! clients submit job specifications over a small HTTP/1.1 + JSON API,
//! a bounded worker pool drives [`unico_core::Unico`] runs, and every
//! job checkpoints to disk so a killed daemon resumes its in-flight
//! work on the next boot — bit-for-bit, thanks to the resume-
//! equivalence guarantees of `unico-core`'s checkpoint format. Every
//! job evaluates through its own [`unico_model::EvalCache`] backed by
//! one daemon-wide cache, so submissions over the same workload warm
//! each other's PPA evaluations while a job's checkpoint and report
//! cover its own lookups only.
//!
//! Everything is hand-rolled on `std` (TCP, HTTP parsing, JSON,
//! Prometheus exposition): the build stays dependency-free and
//! air-gap friendly.
//!
//! # API
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | Submit a job spec; returns the job id. |
//! | `GET /v1/jobs` | List jobs and states. |
//! | `GET /v1/jobs/{id}` | Status + Pareto front + run report. |
//! | `GET /v1/jobs/{id}/events` | Chunked NDJSON stream of per-iteration telemetry deltas, terminated by a `done` event. |
//! | `DELETE /v1/jobs/{id}` | Cancel (cooperative at iteration boundaries). |
//! | `GET /metrics` | Prometheus text exposition. |
//! | `GET /healthz` | Liveness probe. |
//!
//! # Cluster mode
//!
//! The daemon also runs as a *coordinator* (`unico-served
//! --coordinator`) that admits jobs over the same API and shards them
//! across worker processes (`unico-served --worker`) via a pull-based
//! lease protocol under `/cluster/v1/*` — see [`cluster`] and
//! [`worker`]. A shared on-disk eval-cache tier
//! ([`unico_model::DiskTier`], `UNICO_CLUSTER_DISK_CACHE`) lets the
//! warm-cache effect survive restarts and compound across the fleet.
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use unico_serve::{Scheduler, Server, ServeConfig};
//!
//! let cfg = ServeConfig::default();
//! let sched = Scheduler::start(&cfg, unico_model::EvalCache::process_shared()).unwrap();
//! let server = Server::serve(&cfg, Arc::clone(&sched)).unwrap();
//! println!("listening on {}", server.addr());
//! ```

#![warn(missing_docs)]
// Deny rather than forbid: the readiness poller in `poll.rs` needs two
// documented `#[allow(unsafe_code)]` FFI blocks (epoll/poll syscalls
// over raw fds, the same vendored-shim policy as `unico-search`).
// Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod conn;
pub mod http;
pub mod job;
pub mod metrics;
pub mod poll;
pub mod scheduler;
pub mod server;
pub mod spec;
pub mod worker;

pub use unico_workloads::json;

pub use cluster::{ClusterState, WorkerCacheReport};
pub use conn::NetStats;
pub use job::{EventLog, Job, JobOutcome, JobState};
pub use scheduler::{Scheduler, SubmitError};
pub use server::{BootError, Server};
pub use spec::{JobSpec, PlatformKind, ServeConfig};
pub use worker::{WorkerConfig, WorkerCounters, WorkerHandle};
