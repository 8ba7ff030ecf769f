//! Co-search drivers and baselines for UNICO.
//!
//! This crate hosts everything that *drives* hardware–software co-search
//! other than the UNICO algorithm itself (which lives in `unico-core`):
//!
//! * [`CoSearchEnv`] / [`HwSession`] — the shared evaluation environment:
//!   one session per hardware candidate holds a resumable mapping
//!   searcher per (network, layer) job, advances them on the run's
//!   [`MappingEngine`], and aggregates per-layer best mappings into
//!   network-level PPA with simulated wall-clock cost accounting;
//! * [`sh`] — successive halving and the paper's *modified* successive
//!   halving (MSH) that promotes by terminal value **and** convergence
//!   rate (AUC);
//! * [`run_nsga2`] — a full NSGA-II multi-objective baseline over the
//!   hardware space;
//! * [`run_hasco`] — a HASCO-like baseline: single-candidate Bayesian
//!   optimization with full-budget inner mapping search and
//!   champion-only surrogate updates;
//! * [`run_mobohb`] — a multi-objective BOHB baseline: batched BO with
//!   vanilla successive halving and all-sample surrogate updates;
//! * [`SimClock`] / [`SearchTrace`] — simulated wall-clock accounting and
//!   Pareto-front-over-time traces used to regenerate the paper's
//!   hypervolume plots.

#![warn(missing_docs)]
// `unsafe` is denied crate-wide; the single allowed exception is the
// documented lifetime erasure inside `engine` (scoped-threadpool
// pattern: `execute` blocks until every borrowed job has completed).
#![deny(unsafe_code)]

mod bohb;
pub mod engine;
mod env;
pub mod fault;
mod hasco;
mod hyperband;
mod nsga2;
pub mod pool;
pub mod sh;
pub mod telemetry;
mod trace;

pub use bohb::{run_mobohb, MobohbConfig};
pub use engine::{EngineMetrics, MappingEngine};
pub use env::{evaluate_batch, Assessment, CoSearchEnv, EnvConfig, FusionReport, HwSession};
pub use fault::{FaultContext, FaultKind, FaultPlan, RetryPolicy};
pub use hasco::{run_hasco, HascoConfig};
pub use hyperband::{run_hyperband, HyperbandConfig};
pub use nsga2::{run_nsga2, Nsga2Config};
pub use pool::advance_with_engine;
pub use telemetry::{
    CacheReport, CheckpointReport, Counter, FaultReport, RunReport, Telemetry, TelemetrySnapshot,
};
pub use trace::{SearchTrace, SimClock, TracePoint};
// The evaluation cache itself lives in `unico-model` (the crate every
// PPA engine sees); re-exported here because the search drivers are
// what record and replay it.
pub use unico_model::{
    spatial_eval_key, CacheStats, EngineTag, EvalCache, EvalKey, EvalKeyBuilder, TraceError,
};

/// Result common to all outer-loop searches: the PPA Pareto front of
/// hardware configurations, the convergence trace, and eval statistics.
#[derive(Debug, Clone)]
pub struct CoSearchResult<H> {
    /// Pareto front over `(latency, power, area)`.
    pub front: unico_surrogate::pareto::ParetoFront<H>,
    /// Front snapshots over simulated wall-clock time.
    pub trace: SearchTrace,
    /// Number of hardware configurations fully evaluated.
    pub hw_evals: usize,
    /// Total simulated wall-clock seconds consumed.
    pub wall_clock_s: f64,
}
