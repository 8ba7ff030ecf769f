//! Lightweight run telemetry: per-phase wall-clock timers, monotonic
//! counters, and a structured JSON run-report.
//!
//! A [`Telemetry`] is cheap to create, internally synchronized (atomics
//! for counters, a mutex only around the phase map), and therefore
//! shareable by reference across the master loop and the worker pool.
//! At the end of a run it renders into a [`RunReport`] that
//! `unico-core` attaches to its results and the `unico-bench` binaries
//! write next to their CSV artifacts (see `EXPERIMENTS.md` for the
//! JSON schema).
//!
//! A process-wide instance ([`Telemetry::global`]) accumulates across
//! every run in the process; drivers that return aggregated results
//! without threading a telemetry handle still contribute to it, which
//! is what the experiment binaries report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use unico_workloads::json::{self, Json};

/// Monotonic counters tracked by [`Telemetry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Mapping-search budget steps consumed (per-job evaluations).
    MappingEvals,
    /// Gaussian-process fits performed (full and incremental).
    GpFits,
    /// Gaussian-process fits that reused the previous factorization
    /// (row appends / fixed-hyper refits) instead of a full
    /// hyperparameter search — a subset of [`Counter::GpFits`].
    GpFitsIncremental,
    /// Successive-halving survivors promoted by terminal value.
    ShPromotionsTv,
    /// Successive-halving survivors promoted through the AUC-reserved
    /// slots (the MSH second chance).
    ShPromotionsAuc,
    /// Successive-halving rounds executed.
    ShRounds,
    /// Samples accepted into the surrogate by the Upper Update Limit.
    UulAccepted,
    /// Samples rejected by the Upper Update Limit.
    UulRejected,
    /// Jobs executed by the persistent mapping engine.
    EngineJobs,
    /// Job batches submitted to the persistent mapping engine.
    EngineBatches,
    /// Worker panics contained by the engine (sessions poisoned).
    EnginePanics,
    /// Worker threads spawned (stays at the pool width for the whole
    /// lifetime of a persistent engine — the "no per-round respawn"
    /// witness).
    EngineThreadsSpawned,
    /// Hardware configurations fully evaluated.
    HwEvals,
    /// PPA evaluations answered from the evaluation cache.
    CacheHits,
    /// PPA evaluations that missed the cache and were computed.
    CacheMisses,
    /// Cache entries dropped by per-shard FIFO eviction.
    CacheEvictions,
    /// Faults injected by a deterministic fault plan (all kinds).
    FaultsInjected,
    /// Injected evaluation errors.
    FaultErrors,
    /// Injected worker panics (each also contained by the engine).
    FaultPanics,
    /// Injected stalls (sleeps; only those past the deadline fail).
    FaultStalls,
    /// Retry attempts issued after a failed (error/stalled) advance.
    FaultRetries,
    /// Sessions quarantined (poisoned) after exhausting retries.
    FaultQuarantines,
    /// Checkpoints written to disk (periodic, final, and panic-guard
    /// flushes all count).
    CheckpointsWritten,
    /// Surrogate gradient-descent steps taken by gradient mapping
    /// searchers (free: they consume no mapping-eval budget).
    GradientSteps,
    /// Continuous points legalized and exactly re-evaluated by gradient
    /// mapping searchers.
    GradientLegalizations,
    /// Backtracking line-search rejections in gradient mapping search.
    GradientBacktracks,
    /// Gradient-search trajectory restarts from fresh random templates.
    GradientRestarts,
    /// Candidate fusion groups priced through a platform's fused cost
    /// oracle.
    FusionGroupsTried,
    /// Fusion groups accepted into a plan (legal and strictly
    /// DRAM-reducing).
    FusionGroupsAccepted,
    /// Graph-frontend nodes lowered into loop nests (counted once per
    /// imported graph attached to a run).
    FrontendOpsLowered,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 30] = [
        Counter::MappingEvals,
        Counter::GpFits,
        Counter::GpFitsIncremental,
        Counter::ShPromotionsTv,
        Counter::ShPromotionsAuc,
        Counter::ShRounds,
        Counter::UulAccepted,
        Counter::UulRejected,
        Counter::EngineJobs,
        Counter::EngineBatches,
        Counter::EnginePanics,
        Counter::EngineThreadsSpawned,
        Counter::HwEvals,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheEvictions,
        Counter::FaultsInjected,
        Counter::FaultErrors,
        Counter::FaultPanics,
        Counter::FaultStalls,
        Counter::FaultRetries,
        Counter::FaultQuarantines,
        Counter::CheckpointsWritten,
        Counter::GradientSteps,
        Counter::GradientLegalizations,
        Counter::GradientBacktracks,
        Counter::GradientRestarts,
        Counter::FusionGroupsTried,
        Counter::FusionGroupsAccepted,
        Counter::FrontendOpsLowered,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::MappingEvals => "mapping_evals",
            Counter::GpFits => "gp_fits",
            Counter::GpFitsIncremental => "gp_fits_incremental",
            Counter::ShPromotionsTv => "sh_promotions_tv",
            Counter::ShPromotionsAuc => "sh_promotions_auc",
            Counter::ShRounds => "sh_rounds",
            Counter::UulAccepted => "uul_accepted",
            Counter::UulRejected => "uul_rejected",
            Counter::EngineJobs => "engine_jobs",
            Counter::EngineBatches => "engine_batches",
            Counter::EnginePanics => "engine_panics",
            Counter::EngineThreadsSpawned => "engine_threads_spawned",
            Counter::HwEvals => "hw_evals",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheEvictions => "cache_evictions",
            Counter::FaultsInjected => "faults_injected",
            Counter::FaultErrors => "fault_errors",
            Counter::FaultPanics => "fault_panics",
            Counter::FaultStalls => "fault_stalls",
            Counter::FaultRetries => "fault_retries",
            Counter::FaultQuarantines => "fault_quarantines",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::GradientSteps => "gradient_steps",
            Counter::GradientLegalizations => "gradient_legalizations",
            Counter::GradientBacktracks => "gradient_backtracks",
            Counter::GradientRestarts => "gradient_restarts",
            Counter::FusionGroupsTried => "fusion_groups_tried",
            Counter::FusionGroupsAccepted => "fusion_groups_accepted",
            Counter::FrontendOpsLowered => "frontend_ops_lowered",
        }
    }

    /// The counter with the given stable name, if any — the inverse of
    /// [`Counter::name`], used to restore counters from a checkpoint.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.name() == name)
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("counter listed in ALL")
    }
}

/// Thread-safe phase timers and counters for one run (or one process,
/// for [`Telemetry::global`]).
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: [AtomicU64; Counter::ALL.len()],
    phases: Mutex<BTreeMap<String, f64>>,
}

impl Telemetry {
    /// A fresh, empty telemetry sink.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The process-wide sink. Every instrumented run also accumulates
    /// here (via [`Telemetry::absorb`] or direct counting), so binaries
    /// can report without threading handles through driver signatures.
    pub fn global() -> &'static Telemetry {
        static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
        GLOBAL.get_or_init(Telemetry::new)
    }

    /// Adds `n` to a counter.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()].load(Ordering::Relaxed)
    }

    /// Runs `f`, charging its wall-clock time to `phase`.
    pub fn time<T>(&self, phase: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_phase_secs(phase, start.elapsed().as_secs_f64());
        out
    }

    /// Adds raw seconds to a phase timer.
    pub fn add_phase_secs(&self, phase: &str, secs: f64) {
        let mut phases = self.phases.lock().expect("phase map lock");
        *phases.entry(phase.to_string()).or_insert(0.0) += secs;
    }

    /// Seconds accumulated under `phase` so far.
    pub fn phase_secs(&self, phase: &str) -> f64 {
        self.phases
            .lock()
            .expect("phase map lock")
            .get(phase)
            .copied()
            .unwrap_or(0.0)
    }

    /// Accumulates another telemetry's counters and phase timers into
    /// this one (used to roll per-run telemetry into the global sink).
    pub fn absorb(&self, other: &Telemetry) {
        for c in Counter::ALL {
            self.add(c, other.get(c));
        }
        let other_phases = other.phases.lock().expect("phase map lock");
        for (phase, secs) in other_phases.iter() {
            self.add_phase_secs(phase, *secs);
        }
    }

    /// Adds an evaluation-cache stats delta to the three cache
    /// counters (drivers snapshot [`unico_model::EvalCache::stats`]
    /// around a run and record the difference).
    pub fn add_cache_stats(&self, d: unico_model::CacheStats) {
        self.add(Counter::CacheHits, d.hits);
        self.add(Counter::CacheMisses, d.misses);
        self.add(Counter::CacheEvictions, d.evictions);
    }

    /// Books aggregated gradient-search counters (a no-op when the
    /// stats are all zero, i.e. no gradient searcher ran).
    pub fn add_gradient_stats(&self, s: unico_mapping::GradientStats) {
        self.add(Counter::GradientSteps, s.gradient_steps);
        self.add(Counter::GradientLegalizations, s.legalizations);
        self.add(Counter::GradientBacktracks, s.backtracks);
        self.add(Counter::GradientRestarts, s.restarts);
    }

    /// Books fusion-planner counters (tried / accepted groups).
    pub fn add_fusion_stats(&self, s: unico_mapping::FusionStats) {
        self.add(Counter::FusionGroupsTried, s.groups_tried);
        self.add(Counter::FusionGroupsAccepted, s.groups_accepted);
    }

    /// Captures the current counter and phase-timer totals as a
    /// [`TelemetrySnapshot`] — the unit the service layer diffs to
    /// stream per-iteration telemetry deltas over NDJSON.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: Counter::ALL
                .iter()
                .map(|c| (c.name().to_string(), self.get(*c)))
                .collect(),
            phases_s: self.phases.lock().expect("phase map lock").clone(),
        }
    }

    /// Snapshots into a named [`RunReport`].
    ///
    /// When any cache counter is nonzero the report carries a `cache`
    /// section aggregated from the counters, with `entries` derived as
    /// `misses - evictions` (exact for the unbounded caches the
    /// experiment drivers attach; a lower bound under FIFO-capped
    /// caches that were pre-populated). Callers with a live
    /// [`unico_model::EvalCache`] at hand (e.g. `Unico::run`) overwrite
    /// the section with the per-run delta instead.
    pub fn report(&self, name: &str) -> RunReport {
        let phases = self.phases.lock().expect("phase map lock").clone();
        let counters: std::collections::BTreeMap<String, u64> = Counter::ALL
            .iter()
            .map(|c| (c.name().to_string(), self.get(*c)))
            .collect();
        let (hits, misses, evictions) = (
            self.get(Counter::CacheHits),
            self.get(Counter::CacheMisses),
            self.get(Counter::CacheEvictions),
        );
        let cache = (hits + misses + evictions > 0).then(|| CacheReport {
            hits,
            misses,
            evictions,
            entries: misses.saturating_sub(evictions),
        });
        let faults = FaultReport {
            injected: self.get(Counter::FaultsInjected),
            errors: self.get(Counter::FaultErrors),
            panics: self.get(Counter::FaultPanics),
            stalls: self.get(Counter::FaultStalls),
            retries: self.get(Counter::FaultRetries),
            quarantines: self.get(Counter::FaultQuarantines),
        };
        let written = self.get(Counter::CheckpointsWritten);
        RunReport {
            name: name.to_string(),
            phases_s: phases,
            counters,
            cache,
            faults: faults.any().then_some(faults),
            checkpoint: (written > 0).then_some(CheckpointReport { written }),
        }
    }
}

/// A point-in-time copy of a [`Telemetry`]'s counters and phase timers.
///
/// Two snapshots of the same telemetry diff into a *delta*
/// ([`TelemetrySnapshot::delta_since`]); rendering a delta with
/// [`TelemetrySnapshot::to_json`] keeps only the counters that moved,
/// which is what `unico-serve` streams as one NDJSON event per MOBO
/// iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Counter totals by stable name (every counter, including zeros).
    pub counters: BTreeMap<String, u64>,
    /// Per-phase wall-clock seconds.
    pub phases_s: BTreeMap<String, f64>,
}

impl TelemetrySnapshot {
    /// The change between `earlier` and `self`: counters subtract
    /// (saturating, so an absorbed-baseline reset can never underflow)
    /// and phase timers subtract clamped at zero.
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let base = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(base))
            })
            .collect();
        let phases_s = self
            .phases_s
            .iter()
            .map(|(k, v)| {
                let base = earlier.phases_s.get(k).copied().unwrap_or(0.0);
                (k.clone(), (v - base).max(0.0))
            })
            .collect();
        TelemetrySnapshot { counters, phases_s }
    }

    /// `true` when every counter and phase timer is zero.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0) && self.phases_s.values().all(|&v| v == 0.0)
    }

    /// Renders the snapshot as a compact JSON object
    /// (`{"counters":{...},"phases_s":{...}}`), dropping zero-valued
    /// counters and phases so per-iteration deltas stay one short line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (k, v) in self.counters.iter().filter(|(_, &v)| v > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{v}", json::escape(k)));
        }
        out.push_str("},\"phases_s\":{");
        first = true;
        for (k, v) in self.phases_s.iter().filter(|(_, &v)| v > 0.0) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", json::escape(k), Json::F64(*v)));
        }
        out.push_str("}}");
        out
    }
}

/// Fault-injection counters attached to a [`RunReport`] (the `faults`
/// section of `unico.run_report.v3`); rendered as `null` when no fault
/// plan fired, so fault-free runs stay byte-identical to reports from
/// builds without a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Faults injected (all kinds).
    pub injected: u64,
    /// Injected evaluation errors.
    pub errors: u64,
    /// Injected worker panics.
    pub panics: u64,
    /// Injected stalls.
    pub stalls: u64,
    /// Retry attempts after failed advances.
    pub retries: u64,
    /// Sessions quarantined after exhausting retries.
    pub quarantines: u64,
}

impl FaultReport {
    /// `true` when any fault counter is nonzero.
    pub fn any(&self) -> bool {
        self.injected + self.errors + self.panics + self.stalls + self.retries + self.quarantines
            > 0
    }
}

/// Checkpoint counters attached to a [`RunReport`] (the `checkpoint`
/// section of `unico.run_report.v3`); `null` when checkpointing was
/// disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointReport {
    /// Checkpoints written to disk.
    pub written: u64,
}

/// Evaluation-cache counters attached to a [`RunReport`] (the `cache`
/// section of `unico.run_report.v3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheReport {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed (one per distinct key).
    pub misses: u64,
    /// Entries dropped by FIFO eviction.
    pub evictions: u64,
    /// Entries resident at snapshot time.
    pub entries: u64,
}

impl CacheReport {
    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

impl From<unico_model::CacheStats> for CacheReport {
    fn from(s: unico_model::CacheStats) -> Self {
        CacheReport {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            entries: s.entries,
        }
    }
}

/// A structured snapshot of one run's telemetry, serializable to JSON
/// (schema `unico.run_report.v3`, documented in `EXPERIMENTS.md`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Run identifier (binary or experiment name).
    pub name: String,
    /// Per-phase wall-clock seconds.
    pub phases_s: BTreeMap<String, f64>,
    /// Monotonic counters by stable name.
    pub counters: BTreeMap<String, u64>,
    /// Evaluation-cache section (`null` when no cache was attached).
    pub cache: Option<CacheReport>,
    /// Fault-injection section (`null` when no fault plan fired).
    pub faults: Option<FaultReport>,
    /// Checkpoint section (`null` when checkpointing was disabled).
    pub checkpoint: Option<CheckpointReport>,
}

impl RunReport {
    /// Renders the report as a self-describing JSON object.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// Renders the report without the wall-clock `phases_s` section —
    /// the only field that varies between two otherwise identical
    /// seeded runs. The determinism gate compares this form
    /// byte-for-byte.
    pub fn deterministic_json(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, include_phases: bool) -> String {
        let mut out = String::from("{");
        out.push_str("\"schema\":\"unico.run_report.v3\",");
        out.push_str(&format!("\"name\":{},", json::escape(&self.name)));
        if include_phases {
            out.push_str("\"phases_s\":{");
            let mut first = true;
            for (k, v) in &self.phases_s {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("{}:{}", json::escape(k), Json::F64(*v)));
            }
            out.push_str("},");
        }
        out.push_str("\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{v}", json::escape(k)));
        }
        out.push_str("},\"cache\":");
        match &self.cache {
            None => out.push_str("null"),
            Some(c) => out.push_str(&format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"hit_rate\":{}}}",
                c.hits,
                c.misses,
                c.evictions,
                c.entries,
                Json::F64(c.hit_rate())
            )),
        }
        out.push_str(",\"faults\":");
        match &self.faults {
            None => out.push_str("null"),
            Some(f) => out.push_str(&format!(
                "{{\"injected\":{},\"errors\":{},\"panics\":{},\"stalls\":{},\
                 \"retries\":{},\"quarantines\":{}}}",
                f.injected, f.errors, f.panics, f.stalls, f.retries, f.quarantines
            )),
        }
        out.push_str(",\"checkpoint\":");
        match &self.checkpoint {
            None => out.push_str("null"),
            Some(c) => out.push_str(&format!("{{\"written\":{}}}", c.written)),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let t = Telemetry::new();
        t.add(Counter::MappingEvals, 10);
        t.add(Counter::MappingEvals, 5);
        t.add(Counter::GpFits, 2);
        assert_eq!(t.get(Counter::MappingEvals), 15);
        assert_eq!(t.get(Counter::GpFits), 2);
        let r = t.report("unit");
        assert_eq!(r.counters["mapping_evals"], 15);
        assert_eq!(r.counters["gp_fits"], 2);
        assert_eq!(r.counters.len(), Counter::ALL.len());
    }

    #[test]
    fn phases_time_and_merge() {
        let t = Telemetry::new();
        let v = t.time("sampling", || 41 + 1);
        assert_eq!(v, 42);
        t.add_phase_secs("sampling", 1.0);
        assert!(t.phase_secs("sampling") >= 1.0);

        let sink = Telemetry::new();
        sink.absorb(&t);
        sink.absorb(&t);
        assert!(sink.phase_secs("sampling") >= 2.0);
        assert_eq!(sink.get(Counter::MappingEvals), 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let t = Telemetry::new();
        t.add(Counter::ShPromotionsAuc, 3);
        t.add_phase_secs("mapping_search", 0.25);
        let json = t.report("bench \"quoted\"\n").to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"unico.run_report.v3\""));
        assert!(json.contains("\"sh_promotions_auc\":3"));
        assert!(json.contains("\"mapping_search\":0.25"));
        assert!(json.contains("\"cache\":null"));
        assert!(json.contains("\"faults\":null"));
        assert!(json.contains("\"checkpoint\":null"));
        assert!(json.contains("\\\"quoted\\\"\\n"));
        // Balanced braces and no raw control characters.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(!json.chars().any(|c| (c as u32) < 0x20));
    }

    #[test]
    fn cache_section_and_deterministic_json() {
        let t = Telemetry::new();
        t.add(Counter::CacheHits, 30);
        t.add(Counter::CacheMisses, 10);
        t.add_phase_secs("sampling", 0.5);
        // Nonzero cache counters auto-populate the section, with
        // entries derived as misses - evictions.
        let r = t.report("cached");
        let c = r.cache.expect("auto-populated from counters");
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (30, 10, 0, 10));
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
        let json = r.to_json();
        assert!(json.contains("\"cache\":{\"hits\":30,\"misses\":10,"));
        assert!(json.contains("\"hit_rate\":0.75"));
        assert!(json.contains("\"cache_hits\":30"));
        // The deterministic form drops only the wall-clock phases.
        let det = r.deterministic_json();
        assert!(!det.contains("phases_s"));
        assert!(det.contains("\"cache_hits\":30"));
        assert!(det.contains("\"hit_rate\":0.75"));
        // Zero-lookup reports divide safely.
        assert_eq!(CacheReport::default().hit_rate(), 0.0);
    }

    #[test]
    fn snapshot_delta_and_compact_json() {
        let t = Telemetry::new();
        t.add(Counter::MappingEvals, 100);
        t.add(Counter::HwEvals, 6);
        t.add_phase_secs("mapping_search", 0.5);
        let a = t.snapshot();
        assert_eq!(a.counters["mapping_evals"], 100);
        assert_eq!(a.counters.len(), Counter::ALL.len());

        t.add(Counter::MappingEvals, 40);
        t.add_phase_secs("mapping_search", 0.25);
        t.add_phase_secs("gp_fit", 0.125);
        let b = t.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.counters["mapping_evals"], 40);
        assert_eq!(d.counters["hw_evals"], 0);
        assert!((d.phases_s["mapping_search"] - 0.25).abs() < 1e-9);
        assert!((d.phases_s["gp_fit"] - 0.125).abs() < 1e-9);
        assert!(!d.is_empty());
        // Zero counters and phases are dropped from the JSON rendering.
        let json = d.to_json();
        assert!(json.contains("\"mapping_evals\":40"));
        assert!(!json.contains("hw_evals"));
        assert!(json.contains("\"gp_fit\":0.125"));
        // A no-op interval is an empty delta.
        let e = t.snapshot().delta_since(&b);
        assert!(e.is_empty());
        assert_eq!(e.to_json(), "{\"counters\":{},\"phases_s\":{}}");
        // Deltas never underflow even against a later snapshot.
        assert_eq!(a.delta_since(&b).counters["mapping_evals"], 0);
    }

    #[test]
    fn counter_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn counter_from_name_inverts_name() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c));
        }
        assert_eq!(Counter::from_name("no_such_counter"), None);
    }

    #[test]
    fn fault_and_checkpoint_sections_render_when_counted() {
        let t = Telemetry::new();
        t.add(Counter::FaultsInjected, 4);
        t.add(Counter::FaultErrors, 2);
        t.add(Counter::FaultRetries, 3);
        t.add(Counter::FaultQuarantines, 1);
        t.add(Counter::CheckpointsWritten, 5);
        let r = t.report("chaos");
        let f = r.faults.expect("fault section populated from counters");
        assert_eq!(
            (f.injected, f.errors, f.retries, f.quarantines),
            (4, 2, 3, 1)
        );
        assert_eq!(r.checkpoint, Some(CheckpointReport { written: 5 }));
        let json = r.deterministic_json();
        assert!(json.contains(
            "\"faults\":{\"injected\":4,\"errors\":2,\"panics\":0,\"stalls\":0,\
             \"retries\":3,\"quarantines\":1}"
        ));
        assert!(json.contains("\"checkpoint\":{\"written\":5}"));
        // A fault-free report stays null in both sections.
        let clean = Telemetry::new().report("clean");
        assert!(clean.faults.is_none() && clean.checkpoint.is_none());
    }
}
