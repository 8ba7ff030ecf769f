//! The UNICO co-optimization algorithm (paper Algorithm 1).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unico_model::{EvalCache, Platform};
use unico_search::sh::{self, ShConfig};
use unico_search::{
    Assessment, CacheReport, CacheStats, CoSearchEnv, Counter, FaultContext, HwSession,
    MappingEngine, RunReport, SearchTrace, SimClock, Telemetry, TracePoint,
};
use unico_surrogate::pareto::ParetoFront;
use unico_surrogate::scalarize::{normalize_columns, parego, sample_simplex};
use unico_surrogate::{select_batch, AcquisitionKind, GaussianProcess, KernelKind};

use crate::checkpoint::{
    CacheSnapshot, Checkpoint, CheckpointError, CheckpointPolicy, EvalSnapshot, FrontEntry,
    GpHypers, NetworkSnapshot, TraceSnapshot,
};
use crate::robustness::aggregate_robustness;

/// Configuration of a UNICO run. The defaults match the paper's
/// open-source-platform experiments (`N = 30`, `b_max = 300`,
/// `p = 0.15 N`, `ρ = 0.2`, `α = 0.05`).
#[derive(Debug, Clone, Copy)]
pub struct UnicoConfig {
    /// Maximum MOBO iterations (`MaxIter`).
    pub max_iter: usize,
    /// Hardware batch size per iteration (`N`).
    pub batch: usize,
    /// Maximum per-job mapping-search budget (`b_max`).
    pub b_max: u64,
    /// AUC promotion share of MSH (`p/N`); `0` degrades MSH to plain SH.
    pub auc_fraction: f64,
    /// Use the high-fidelity update rule; `false` degrades to champion
    /// update (only the batch-best sample feeds the surrogate).
    pub high_fidelity: bool,
    /// Include the robustness metric `R` as the fourth objective.
    pub robustness_objective: bool,
    /// Right-tail percentile for the sub-optimal mapping (`α`).
    pub alpha: f64,
    /// ParEGO augmentation coefficient (`ρ`).
    pub rho: f64,
    /// Random exploration share of each batch.
    pub random_fraction: f64,
    /// Acquisition candidate-pool size.
    pub candidate_pool: usize,
    /// Percentile (of accepted distances) defining the Upper Update
    /// Limit.
    pub uul_percentile: f64,
    /// RNG seed.
    pub seed: u64,
    /// Parallel workers for cost accounting.
    pub workers: u32,
}

impl Default for UnicoConfig {
    fn default() -> Self {
        UnicoConfig {
            max_iter: 20,
            batch: 30,
            b_max: 300,
            auc_fraction: 0.15,
            high_fidelity: true,
            robustness_objective: true,
            alpha: 0.05,
            rho: 0.2,
            random_fraction: 0.25,
            candidate_pool: 256,
            uul_percentile: 0.95,
            seed: 0,
            workers: 16,
        }
    }
}

impl UnicoConfig {
    /// Ablation: plain SH + champion update (no robustness objective).
    pub fn sh_champion(self) -> Self {
        UnicoConfig {
            auc_fraction: 0.0,
            high_fidelity: false,
            robustness_objective: false,
            ..self
        }
    }

    /// Ablation: modified SH + champion update.
    pub fn msh_champion(self) -> Self {
        UnicoConfig {
            auc_fraction: 0.15,
            high_fidelity: false,
            robustness_objective: false,
            ..self
        }
    }

    /// UNICO without the robustness objective (used by the paper's
    /// Fig. 8 study).
    pub fn without_robustness(self) -> Self {
        UnicoConfig {
            robustness_objective: false,
            ..self
        }
    }
}

/// Everything recorded about one evaluated hardware configuration.
#[derive(Debug, Clone)]
pub struct HwRecord<H> {
    /// The configuration.
    pub hw: H,
    /// PPA assessment at the budget the candidate reached (`None` if no
    /// feasible mapping was found or a constraint was violated).
    pub assessment: Option<Assessment>,
    /// Aggregated robustness metric `R` (lower = more robust).
    pub robustness: Option<f64>,
    /// Per-job budget this candidate's mapping search consumed.
    pub budget_spent: u64,
    /// Iteration in which the candidate was evaluated.
    pub iteration: usize,
    /// Whether the sample passed the high-fidelity filter into the
    /// surrogate training set.
    pub fed_surrogate: bool,
}

/// Result of a UNICO run.
#[derive(Debug, Clone)]
pub struct UnicoResult<H> {
    /// PPA Pareto front; payloads index into [`UnicoResult::evaluations`].
    pub front: ParetoFront<usize>,
    /// Every evaluated configuration, in evaluation order.
    pub evaluations: Vec<HwRecord<H>>,
    /// Front snapshots over simulated wall-clock time.
    pub trace: SearchTrace,
    /// Total simulated wall-clock seconds.
    pub wall_clock_s: f64,
    /// Number of hardware configurations evaluated.
    pub hw_evals: usize,
    /// Iterations actually completed (equals `max_iter` unless the run
    /// was cancelled through a [`RunObserver`]).
    pub iterations_done: usize,
    /// `true` when a [`RunObserver`] stopped the run before `max_iter`.
    pub cancelled: bool,
    /// Structured telemetry snapshot of this run: phase wall-clock
    /// timers, evaluation counters, and the evaluation-cache section
    /// when a cache is attached (schema `unico.run_report.v3`).
    pub report: RunReport,
}

impl<H> UnicoResult<H> {
    /// The record whose PPA minimizes Euclidean distance to the origin on
    /// the normalized front — the paper's reported design point.
    pub fn min_euclidean_record(&self) -> Option<&HwRecord<H>> {
        self.front
            .min_euclidean()
            .map(|(_, &idx)| &self.evaluations[idx])
    }

    /// The robustness-aware knee: min-Euclidean distance over the
    /// normalized **four**-objective vectors
    /// `(latency, power, area, R)` of the front, restricted to designs
    /// whose mapping search ran to the full budget. This is the design
    /// UNICO deploys when generalization matters (paper §4.4).
    pub fn robust_knee(&self) -> Option<&HwRecord<H>> {
        let full_budget = self
            .evaluations
            .iter()
            .map(|r| r.budget_spent)
            .max()
            .unwrap_or(0);
        let candidates: Vec<(usize, Vec<f64>)> = self
            .front
            .iter()
            .filter_map(|(y, &idx)| {
                let rec = &self.evaluations[idx];
                if rec.budget_spent < full_budget {
                    return None;
                }
                let r = rec.robustness?;
                let mut v = y.to_vec();
                v.push(r);
                Some((idx, v))
            })
            .collect();
        if candidates.is_empty() {
            return self.min_euclidean_record();
        }
        let rows: Vec<Vec<f64>> = candidates.iter().map(|(_, v)| v.clone()).collect();
        let normalized = unico_surrogate::scalarize::normalize_columns(&rows);
        let best = normalized
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da: f64 = a.iter().map(|v| v * v).sum();
                let db: f64 = b.iter().map(|v| v * v).sum();
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| candidates[i].0)?;
        Some(&self.evaluations[best])
    }
}

/// Live progress hooks for an in-flight run.
///
/// An observer is polled at every iteration boundary, which is where
/// the loop state is consistent (and, when checkpointing is on, right
/// after the boundary snapshot was armed). `unico-serve` uses this to
/// stream per-iteration telemetry deltas to HTTP clients and to
/// deliver cooperative job cancellation; both methods default to
/// no-ops so plain runs pay nothing.
pub trait RunObserver: Sync {
    /// Called after every completed iteration with a consistent view of
    /// the loop.
    fn on_iteration(&self, _update: &IterationUpdate<'_>) {}

    /// Polled before each iteration starts; returning `true` stops the
    /// run cooperatively. A stopped run still returns a well-formed
    /// [`UnicoResult`] (with [`UnicoResult::cancelled`] set), and any
    /// checkpoint written at an earlier boundary remains resumable.
    fn cancelled(&self) -> bool {
        false
    }
}

/// What a [`RunObserver`] sees at an iteration boundary.
#[derive(Debug)]
pub struct IterationUpdate<'a> {
    /// Completed iterations (1-based; resumed runs continue counting).
    pub iteration: usize,
    /// Total iterations the run will execute (`max_iter`).
    pub max_iter: usize,
    /// Current Pareto-front size.
    pub front_size: usize,
    /// Evaluations recorded so far (including restored ones).
    pub evaluations: usize,
    /// Simulated wall-clock seconds elapsed.
    pub wall_clock_s: f64,
    /// The run's live telemetry; snapshot/diff it for deltas.
    pub telemetry: &'a Telemetry,
}

/// Optional run machinery around the MOBO loop: crash-safe
/// checkpointing, deterministic fault injection, live observation /
/// cancellation, and the kill-switch test hook the resume-equivalence
/// oracle uses.
#[derive(Clone, Default)]
pub struct RunOptions<'a> {
    /// Write [`Checkpoint`]s per this policy (`None` disables).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Thread a deterministic fault plan through every mapping-search
    /// round (`None` runs fault-free).
    pub faults: Option<&'a FaultContext>,
    /// Test hook: panic at this checkpoint boundary *after* the
    /// snapshot is armed but *before* the periodic write, so the
    /// panic-guard flush is what lands on disk. Ignored when
    /// `checkpoint` is `None`.
    pub kill_after: Option<usize>,
    /// Progress/cancellation hooks (`None` runs unobserved).
    pub observer: Option<&'a dyn RunObserver>,
}

impl fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunOptions")
            .field("checkpoint", &self.checkpoint)
            .field("faults", &self.faults)
            .field("kill_after", &self.kill_after)
            .field("observer", &self.observer.map(|_| "dyn RunObserver"))
            .finish()
    }
}

impl RunOptions<'_> {
    /// Builds options from the environment: `UNICO_CHECKPOINT` names
    /// the checkpoint file and `UNICO_CHECKPOINT_EVERY` the cadence
    /// (see [`CheckpointPolicy::from_env`]). Faults and the kill hook
    /// are never enabled from the environment.
    pub fn from_env() -> Self {
        RunOptions {
            checkpoint: CheckpointPolicy::from_env(),
            ..RunOptions::default()
        }
    }
}

/// Everything the MOBO outer loop carries across iterations, split out
/// of `run` so a checkpoint can snapshot it and a resume can rebuild
/// it.
struct LoopState<H> {
    start_iter: usize,
    rng: StdRng,
    clock: SimClock,
    trace: SearchTrace,
    front: ParetoFront<usize>,
    evaluations: Vec<HwRecord<H>>,
    all_xs: Vec<Vec<f64>>,
    all_ys: Vec<Vec<f64>>,
    hf_xs: Vec<Vec<f64>>,
    hf_ys: Vec<Vec<f64>>,
    accepted_d: Vec<f64>,
    uul: f64,
    /// Live surrogate carried across iterations so acquisition rounds
    /// extend the existing Cholesky factor instead of refitting from
    /// scratch. `None` until the first successful fit and after any
    /// event that invalidates the factor (HF-set drain, fit failure,
    /// resume from checkpoint).
    gp: Option<GaussianProcess>,
    /// Hyperparameters of the last accepted fit plus the training-set
    /// size at the last full hyper search; drives the full-vs-
    /// incremental decision and survives checkpoints.
    gp_hypers: Option<GpHypers>,
    /// Counter totals restored from a checkpoint (empty on a fresh
    /// run); seeded into the run's telemetry before the loop starts.
    baseline_counters: BTreeMap<String, u64>,
    /// `(hits, misses, evictions)` of the evaluation cache accumulated
    /// before the checkpoint, so the final report can present
    /// whole-run totals.
    cache_baseline: Option<(u64, u64, u64)>,
}

impl<H> LoopState<H> {
    fn fresh(cfg: &UnicoConfig) -> Self {
        LoopState {
            start_iter: 0,
            rng: StdRng::seed_from_u64(cfg.seed),
            clock: SimClock::new(cfg.workers),
            trace: SearchTrace::new(),
            front: ParetoFront::new(),
            evaluations: Vec::new(),
            all_xs: Vec::new(),
            all_ys: Vec::new(),
            hf_xs: Vec::new(),
            hf_ys: Vec::new(),
            accepted_d: Vec::new(),
            uul: f64::INFINITY,
            gp: None,
            gp_hypers: None,
            baseline_counters: BTreeMap::new(),
            cache_baseline: None,
        }
    }
}

fn restore_state<P: Platform>(
    env: &CoSearchEnv<'_, P>,
    ck: &Checkpoint,
) -> Result<LoopState<P::Hw>, CheckpointError> {
    let platform = env.platform();
    let mut evaluations = Vec::with_capacity(ck.evaluations.len());
    for e in &ck.evaluations {
        let hw = platform.hw_from_words(&e.hw_words).ok_or_else(|| {
            CheckpointError::Schema(format!(
                "platform {:?} cannot rebuild hardware words {:?}",
                platform.name(),
                e.hw_words
            ))
        })?;
        evaluations.push(HwRecord {
            hw,
            assessment: e
                .assessment
                .map(|[latency_s, power_mw, area_mm2]| Assessment {
                    latency_s,
                    power_mw,
                    area_mm2,
                }),
            robustness: e.robustness,
            budget_spent: e.spent,
            iteration: e.iteration,
            fed_surrogate: e.fed,
        });
    }
    for f in &ck.front {
        if f.idx >= evaluations.len() {
            return Err(CheckpointError::Schema(format!(
                "front index {} out of bounds ({} evaluations)",
                f.idx,
                evaluations.len()
            )));
        }
    }
    Ok(LoopState {
        start_iter: ck.iterations_done,
        rng: StdRng::from_state(ck.rng),
        clock: SimClock::resumed(ck.config.workers, ck.clock_seconds),
        trace: SearchTrace::from_points(
            ck.trace
                .iter()
                .map(|p| TracePoint {
                    seconds: p.seconds,
                    front: p.front.clone(),
                })
                .collect(),
        ),
        front: ParetoFront::from_entries(ck.front.iter().map(|f| (f.y.clone(), f.idx)).collect()),
        evaluations,
        all_xs: ck.all_xs.clone(),
        all_ys: ck.all_ys.clone(),
        hf_xs: ck.hf_xs.clone(),
        hf_ys: ck.hf_ys.clone(),
        accepted_d: ck.accepted_d.clone(),
        uul: ck.uul,
        // The factorization itself is not serialized; the first
        // acquisition round after a resume rebuilds it from the stored
        // hypers via `fit_with_hypers` (zero RNG draws), which is
        // bit-identical to the factor an uninterrupted run carries.
        gp: None,
        gp_hypers: ck.gp,
        baseline_counters: ck.counters.clone(),
        cache_baseline: ck.cache.as_ref().map(|c| (c.hits, c.misses, c.evictions)),
    })
}

/// Snapshots the loop at the boundary after `done` completed
/// iterations. Counter totals fold in the live engine metrics and the
/// cache delta (which the uninterrupted run only adds to telemetry at
/// the end), count the checkpoint write carrying the snapshot, and
/// exclude `engine_threads_spawned` (a resumed run spawns its own
/// pool), so a resumed run's totals line up exactly with an
/// uninterrupted run's.
fn build_checkpoint<P: Platform>(
    cfg: &UnicoConfig,
    env: &CoSearchEnv<'_, P>,
    done: usize,
    st: &LoopState<P::Hw>,
    telemetry: &Telemetry,
    engine: &MappingEngine,
    cache_start: Option<&CacheStats>,
) -> Checkpoint {
    let platform = env.platform();
    let cache_delta = match (platform.eval_cache(), cache_start) {
        (Some(c), Some(start)) => Some((c.stats().delta_since(start), c.to_trace())),
        _ => None,
    };
    let m = engine.metrics();
    let mut counters = BTreeMap::new();
    for c in Counter::ALL {
        if c == Counter::EngineThreadsSpawned {
            continue;
        }
        let extra = match c {
            Counter::EngineJobs => m.jobs_executed,
            Counter::EngineBatches => m.batches,
            Counter::EnginePanics => m.panics_contained,
            Counter::CheckpointsWritten => 1,
            Counter::CacheHits => cache_delta.as_ref().map_or(0, |(d, _)| d.hits),
            Counter::CacheMisses => cache_delta.as_ref().map_or(0, |(d, _)| d.misses),
            Counter::CacheEvictions => cache_delta.as_ref().map_or(0, |(d, _)| d.evictions),
            _ => 0,
        };
        counters.insert(c.name().to_string(), telemetry.get(c) + extra);
    }
    let (base_h, base_m, base_e) = st.cache_baseline.unwrap_or((0, 0, 0));
    Checkpoint {
        config: *cfg,
        platform: platform.name().to_string(),
        iterations_done: done,
        rng: st.rng.state(),
        clock_seconds: st.clock.seconds(),
        uul: st.uul,
        accepted_d: st.accepted_d.clone(),
        front: st
            .front
            .iter()
            .map(|(y, &idx)| FrontEntry { y: y.to_vec(), idx })
            .collect(),
        evaluations: st
            .evaluations
            .iter()
            .map(|r| EvalSnapshot {
                hw_words: platform
                    .hw_words(&r.hw)
                    .expect("checkpointing requires Platform::hw_words support"),
                assessment: r
                    .assessment
                    .as_ref()
                    .map(|a| [a.latency_s, a.power_mw, a.area_mm2]),
                robustness: r.robustness,
                spent: r.budget_spent,
                iteration: r.iteration,
                fed: r.fed_surrogate,
            })
            .collect(),
        all_xs: st.all_xs.clone(),
        all_ys: st.all_ys.clone(),
        hf_xs: st.hf_xs.clone(),
        hf_ys: st.hf_ys.clone(),
        trace: st
            .trace
            .points()
            .iter()
            .map(|p| TraceSnapshot {
                seconds: p.seconds,
                front: p.front.clone(),
            })
            .collect(),
        networks: env
            .networks()
            .iter()
            .map(|n| NetworkSnapshot {
                name: n.name().to_string(),
                layers: n.layers().len(),
            })
            .collect(),
        counters,
        cache: cache_delta.map(|(d, trace)| CacheSnapshot {
            hits: base_h + d.hits,
            misses: base_m + d.misses,
            evictions: base_e + d.evictions,
            trace,
        }),
        gp: st.gp_hypers,
    }
}

/// Holds the latest boundary snapshot and flushes it to disk if the
/// loop unwinds (worker panic, kill hook) before the next periodic
/// write, so a crash never loses a completed iteration boundary.
#[derive(Default)]
struct CheckpointGuard {
    armed: Option<(Checkpoint, PathBuf)>,
}

impl CheckpointGuard {
    fn arm(&mut self, ck: Checkpoint, path: PathBuf) {
        self.armed = Some((ck, path));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.armed.take() {
            Some((ck, path)) => ck.write_atomic(&path),
            None => Ok(()),
        }
    }
}

impl Drop for CheckpointGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding already: best-effort flush, errors unreportable.
            let _ = self.flush();
        }
    }
}

/// The UNICO co-optimizer.
#[derive(Debug, Clone)]
pub struct Unico {
    cfg: UnicoConfig,
}

impl Unico {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `max_iter == 0`.
    pub fn new(cfg: UnicoConfig) -> Self {
        assert!(cfg.batch > 0, "batch must be positive");
        assert!(cfg.max_iter > 0, "max_iter must be positive");
        Unico { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &UnicoConfig {
        &self.cfg
    }

    /// Runs Algorithm 1 on the environment and returns the Pareto front
    /// of hardware configurations with full evaluation records.
    ///
    /// Honors the crash-safety environment variables: `UNICO_CHECKPOINT`
    /// (+ `UNICO_CHECKPOINT_EVERY`) enables periodic checkpointing, and
    /// `UNICO_RESUME=<path>` restores an interrupted run from that
    /// checkpoint instead of starting fresh (the configuration,
    /// including the seed, then comes from the checkpoint file). Use
    /// [`Unico::run_with_options`] to bypass the environment.
    ///
    /// # Panics
    ///
    /// Panics if `UNICO_RESUME` names a checkpoint that cannot be
    /// restored against `env`.
    pub fn run<P: Platform>(&self, env: &CoSearchEnv<'_, P>) -> UnicoResult<P::Hw>
    where
        P::Hw: Send,
    {
        let opts = RunOptions::from_env();
        if let Some(path) = std::env::var_os("UNICO_RESUME") {
            let path = PathBuf::from(path);
            return Self::resume_with_options(env, &path, &opts)
                .unwrap_or_else(|e| panic!("UNICO_RESUME={}: {e}", path.display()));
        }
        self.run_with_options(env, &opts)
    }

    /// [`Unico::run`] with checkpointing, fault injection, or the kill
    /// hook enabled (see [`RunOptions`]).
    ///
    /// # Panics
    ///
    /// Panics if a due checkpoint cannot be written, or when
    /// `kill_after` fires.
    pub fn run_with_options<P: Platform>(
        &self,
        env: &CoSearchEnv<'_, P>,
        opts: &RunOptions<'_>,
    ) -> UnicoResult<P::Hw>
    where
        P::Hw: Send,
    {
        self.run_loop(env, LoopState::fresh(&self.cfg), opts)
    }

    /// Restores an interrupted run from a checkpoint file and drives it
    /// to completion. The configuration (including the seed) comes from
    /// the checkpoint; `env` must target the same platform (by name)
    /// and workload set. If the platform has an evaluation cache
    /// attached, it is pre-populated from the checkpoint's embedded
    /// trace so the resumed run's hit/miss stream matches an
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the file cannot be read or parsed, names
    /// a different platform, or holds hardware words the platform
    /// cannot rebuild.
    pub fn resume<P: Platform>(
        env: &CoSearchEnv<'_, P>,
        path: impl AsRef<Path>,
    ) -> Result<UnicoResult<P::Hw>, CheckpointError>
    where
        P::Hw: Send,
    {
        Self::resume_with_options(env, path, &RunOptions::default())
    }

    /// [`Unico::resume`] with further checkpointing or fault injection
    /// enabled for the remainder of the run.
    ///
    /// # Errors
    ///
    /// See [`Unico::resume`].
    pub fn resume_with_options<P: Platform>(
        env: &CoSearchEnv<'_, P>,
        path: impl AsRef<Path>,
        opts: &RunOptions<'_>,
    ) -> Result<UnicoResult<P::Hw>, CheckpointError>
    where
        P::Hw: Send,
    {
        let ck = Checkpoint::read(path.as_ref())?;
        if ck.platform != env.platform().name() {
            return Err(CheckpointError::Schema(format!(
                "checkpoint targets platform {:?}, environment is {:?}",
                ck.platform,
                env.platform().name()
            )));
        }
        if let (Some(cache), Some(snap)) = (env.platform().eval_cache(), &ck.cache) {
            cache
                .load_trace(&snap.trace)
                .map_err(|e| CheckpointError::Schema(format!("embedded cache trace: {e}")))?;
        }
        let state = restore_state(env, &ck)?;
        Ok(Unico::new(ck.config).run_loop(env, state, opts))
    }

    fn run_loop<P: Platform>(
        &self,
        env: &CoSearchEnv<'_, P>,
        mut st: LoopState<P::Hw>,
        opts: &RunOptions<'_>,
    ) -> UnicoResult<P::Hw>
    where
        P::Hw: Send,
    {
        let cfg = &self.cfg;
        let obj_dim = if cfg.robustness_objective { 4 } else { 3 };
        // One persistent worker pool for the whole run: every SH round of
        // every MOBO iteration queues jobs here instead of respawning
        // threads.
        let telemetry = Telemetry::new();
        for (name, v) in &st.baseline_counters {
            if let Some(c) = Counter::from_name(name) {
                telemetry.add(c, *v);
            }
        }
        let engine = MappingEngine::new((cfg.workers as usize).max(1));
        let cache_start = env.platform().eval_cache().map(EvalCache::stats);
        let mut guard = CheckpointGuard::default();
        let mut iterations_done = st.start_iter;
        let mut cancelled = false;

        for iteration in st.start_iter..cfg.max_iter {
            if opts.observer.is_some_and(|o| o.cancelled()) {
                cancelled = true;
                break;
            }
            // ---- Line 4: sample a batch of N hardware configurations. ----
            let front_hw: Vec<P::Hw> = st
                .front
                .iter()
                .map(|(_, &idx)| st.evaluations[idx].hw.clone())
                .collect();
            let batch_hw = telemetry.time("sampling", || {
                self.sample_batch(
                    env,
                    &st.hf_xs,
                    &st.hf_ys,
                    &front_hw,
                    &mut st.rng,
                    &mut st.clock,
                    &telemetry,
                    &mut st.gp,
                    &mut st.gp_hypers,
                )
            });

            // ---- Lines 5–9: adaptive SW mapping search with MSH. ----
            let mut sessions: Vec<HwSession<'_, P>> = batch_hw
                .into_iter()
                .enumerate()
                .map(|(i, hw)| {
                    env.session(hw, cfg.seed.wrapping_add((iteration * 1009 + i) as u64))
                })
                .collect();
            let sh_cfg = ShConfig {
                b_max: cfg.b_max,
                auc_fraction: cfg.auc_fraction,
                min_budget: 8,
            };
            telemetry.time("mapping_search", || {
                sh::run(&mut sessions, &sh_cfg, &engine, &telemetry, opts.faults)
            });
            telemetry.add(
                Counter::MappingEvals,
                sessions.iter().map(HwSession::total_steps).sum(),
            );
            telemetry.add(Counter::HwEvals, sessions.len() as u64);
            // Gradient-search counters are booked by the SH run itself.
            let cpu: f64 = sessions.iter().map(HwSession::cost_seconds).sum();
            st.clock
                .charge(cpu, (sessions.len() * env.num_jobs()) as u32);

            // ---- Assess the batch: PPA + robustness. ----
            let mut batch_records: Vec<usize> = Vec::with_capacity(sessions.len());
            for s in &sessions {
                let assessment = s.assess();
                let robustness = aggregate_robustness(&s.job_histories(), cfg.alpha);
                let idx = st.evaluations.len();
                if let Some(a) = &assessment {
                    st.front.offer(a.objectives(), idx);
                    let mut y = a.objectives();
                    if cfg.robustness_objective {
                        y.push(robustness.unwrap_or(0.0));
                    }
                    st.all_xs.push(env.platform().encode(s.hw()));
                    st.all_ys.push(y);
                }
                st.evaluations.push(HwRecord {
                    hw: s.hw().clone(),
                    assessment,
                    robustness,
                    budget_spent: s.spent(),
                    iteration,
                    fed_surrogate: false,
                });
                batch_records.push(idx);
            }
            // Fusion-planner counters accumulate inside each session as
            // SH and the final assessment price candidate groups.
            let mut fstats = unico_mapping::FusionStats::default();
            for s in &sessions {
                fstats.merge(s.fusion_stats());
            }
            telemetry.add_fusion_stats(fstats);

            // ---- Lines 10–11: high-fidelity surrogate update. ----
            if !st.all_ys.is_empty() {
                let weights = sample_simplex(&mut st.rng, obj_dim);
                let normalized = normalize_columns(&st.all_ys);
                let scalars: Vec<f64> = normalized
                    .iter()
                    .map(|y| parego(y, &weights, cfg.rho))
                    .collect();
                let v_best = scalars.iter().copied().fold(f64::INFINITY, f64::min);
                // Map feasible batch members to their position in all_ys.
                let feasible_batch: Vec<(usize, usize)> = {
                    let mut pos = st.all_ys.len();
                    let feasible_count = batch_records
                        .iter()
                        .filter(|&&i| st.evaluations[i].assessment.is_some())
                        .count();
                    pos -= feasible_count;
                    batch_records
                        .iter()
                        .filter(|&&i| st.evaluations[i].assessment.is_some())
                        .map(|&i| {
                            let p = pos;
                            pos += 1;
                            (i, p)
                        })
                        .collect()
                };
                if cfg.high_fidelity {
                    let mut new_d = Vec::new();
                    for &(rec_idx, ys_idx) in &feasible_batch {
                        let d = (scalars[ys_idx] - v_best).abs();
                        if d <= st.uul {
                            st.hf_xs.push(st.all_xs[ys_idx].clone());
                            st.hf_ys.push(st.all_ys[ys_idx].clone());
                            st.evaluations[rec_idx].fed_surrogate = true;
                            new_d.push(d);
                            telemetry.add(Counter::UulAccepted, 1);
                        } else {
                            telemetry.add(Counter::UulRejected, 1);
                        }
                    }
                    st.accepted_d.extend(new_d);
                    st.uul =
                        percentile(&st.accepted_d, cfg.uul_percentile).unwrap_or(f64::INFINITY);
                    // Bound the GP training set (keep the newest points —
                    // UUL already biases selection toward high quality).
                    const HF_CAP: usize = 400;
                    if st.hf_xs.len() > HF_CAP {
                        let drop = st.hf_xs.len() - HF_CAP;
                        st.hf_xs.drain(..drop);
                        st.hf_ys.drain(..drop);
                        // Dropping leading rows invalidates the carried
                        // Cholesky factor (it extends by appends only);
                        // force a full refit next round.
                        st.gp = None;
                        st.gp_hypers = None;
                    }
                } else if let Some(&(rec_idx, ys_idx)) = feasible_batch.iter().min_by(|a, b| {
                    scalars[a.1]
                        .partial_cmp(&scalars[b.1])
                        .unwrap_or(std::cmp::Ordering::Equal)
                }) {
                    // Champion update: only the batch-best sample.
                    st.hf_xs.push(st.all_xs[ys_idx].clone());
                    st.hf_ys.push(st.all_ys[ys_idx].clone());
                    st.evaluations[rec_idx].fed_surrogate = true;
                }
            }

            // ---- Line 12: update HW Pareto front snapshot. ----
            st.trace.record(st.clock.seconds(), st.front.objectives());
            iterations_done = iteration + 1;

            // ---- Checkpoint boundary. ----
            if let Some(policy) = opts.checkpoint.as_ref() {
                let done = iteration + 1;
                let snap = build_checkpoint(
                    cfg,
                    env,
                    done,
                    &st,
                    &telemetry,
                    &engine,
                    cache_start.as_ref(),
                );
                guard.arm(snap, policy.path.clone());
                if opts.kill_after == Some(done) {
                    panic!("unico: kill_after test hook fired at checkpoint boundary {done}");
                }
                if done % policy.every == 0 || done == cfg.max_iter {
                    guard.flush().expect("checkpoint write failed");
                    telemetry.add(Counter::CheckpointsWritten, 1);
                }
            }

            if let Some(observer) = opts.observer {
                observer.on_iteration(&IterationUpdate {
                    iteration: iteration + 1,
                    max_iter: cfg.max_iter,
                    front_size: st.front.len(),
                    evaluations: st.evaluations.len(),
                    wall_clock_s: st.clock.seconds(),
                    telemetry: &telemetry,
                });
            }
        }

        let m = engine.metrics();
        telemetry.add(Counter::EngineJobs, m.jobs_executed);
        telemetry.add(Counter::EngineBatches, m.batches);
        telemetry.add(Counter::EnginePanics, m.panics_contained);
        telemetry.add(Counter::EngineThreadsSpawned, m.threads_spawned);
        let cache_delta = match (env.platform().eval_cache(), cache_start) {
            (Some(cache), Some(start)) => {
                let d = cache.stats().delta_since(&start);
                telemetry.add_cache_stats(d);
                // A resumed run reports whole-run totals: the restored
                // baseline plus its own delta (entries is a level, not
                // a counter, so the live value is already the total).
                let (base_h, base_m, base_e) = st.cache_baseline.unwrap_or((0, 0, 0));
                Some(CacheStats {
                    hits: base_h + d.hits,
                    misses: base_m + d.misses,
                    evictions: base_e + d.evictions,
                    entries: d.entries,
                })
            }
            _ => None,
        };
        let mut report = telemetry.report("unico.run");
        report.cache = cache_delta.map(CacheReport::from);
        Telemetry::global().absorb(&telemetry);

        UnicoResult {
            hw_evals: st.evaluations.len(),
            front: st.front,
            evaluations: st.evaluations,
            trace: st.trace,
            wall_clock_s: st.clock.seconds(),
            iterations_done,
            cancelled,
            report,
        }
    }

    /// Batch acquisition: EI on the ParEGO-scalarized GP over the
    /// high-fidelity training set, plus a random exploration share. The
    /// candidate pool mixes uniform samples with local perturbations of
    /// current Pareto designs so the acquisition can exploit the
    /// incumbent region.
    #[allow(clippy::too_many_arguments)]
    fn sample_batch<P: Platform>(
        &self,
        env: &CoSearchEnv<'_, P>,
        hf_xs: &[Vec<f64>],
        hf_ys: &[Vec<f64>],
        front_hw: &[P::Hw],
        rng: &mut StdRng,
        clock: &mut SimClock,
        telemetry: &Telemetry,
        gp_slot: &mut Option<GaussianProcess>,
        gp_hypers: &mut Option<GpHypers>,
    ) -> Vec<P::Hw> {
        let cfg = &self.cfg;
        let n_random = ((cfg.batch as f64) * cfg.random_fraction).ceil() as usize;
        let n_model = cfg.batch.saturating_sub(n_random);
        let mut batch: Vec<P::Hw> = Vec::with_capacity(cfg.batch);
        if n_model > 0 && hf_xs.len() >= 4 {
            let obj_dim = hf_ys[0].len();
            let weights = sample_simplex(rng, obj_dim);
            let normalized = normalize_columns(hf_ys);
            let targets: Vec<f64> = normalized
                .iter()
                .map(|y| parego(y, &weights, cfg.rho))
                .collect();
            let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
            // Full hyper-search fits are only re-run once the training
            // set has doubled since the last one; in between, rounds
            // reuse the accepted hypers and extend the carried Cholesky
            // factor row-by-row (or rebuild it with zero RNG draws
            // after a resume, which is bit-identical).
            let needs_full = gp_hypers.is_none_or(|h| hf_xs.len() >= 2 * h.fitted_n);
            telemetry.add(Counter::GpFits, 1);
            let fitted = if needs_full {
                let mut gp =
                    GaussianProcess::new(KernelKind::Matern52, env.platform().feature_dim());
                let ok = telemetry.time("gp_fit", || gp.fit(hf_xs, &targets, rng).is_ok());
                if ok {
                    *gp_hypers = Some(GpHypers {
                        length_scale: gp.kernel().length_scale(),
                        variance: gp.kernel().variance(),
                        noise: gp.noise(),
                        fitted_n: hf_xs.len(),
                    });
                    *gp_slot = Some(gp);
                } else {
                    *gp_slot = None;
                    *gp_hypers = None;
                }
                ok
            } else {
                telemetry.add(Counter::GpFitsIncremental, 1);
                let h = gp_hypers.as_mut().expect("needs_full is false");
                let mut gp = match gp_slot.take() {
                    Some(gp) if !gp.is_empty() => gp,
                    _ => GaussianProcess::new(KernelKind::Matern52, env.platform().feature_dim()),
                };
                let ok = telemetry.time("gp_fit", || {
                    if !gp.is_empty() {
                        gp.fit_incremental(hf_xs, &targets).is_ok()
                    } else {
                        gp.fit_with_hypers(hf_xs, &targets, h.length_scale, h.variance, h.noise)
                            .is_ok()
                    }
                });
                if ok {
                    // The jitter ladder may have escalated the noise;
                    // store the post-fit level so a checkpoint/resume
                    // rebuild starts where the live factor ended.
                    h.noise = gp.noise();
                    *gp_slot = Some(gp);
                } else {
                    *gp_slot = None;
                    *gp_hypers = None;
                }
                ok
            };
            if fitted {
                clock.charge_sequential(2.0);
                let n_local = if front_hw.is_empty() {
                    0
                } else {
                    cfg.candidate_pool / 4
                };
                let mut pool: Vec<P::Hw> = (0..cfg.candidate_pool - n_local)
                    .map(|_| env.platform().sample_hw(rng))
                    .collect();
                for _ in 0..n_local {
                    let seed_hw = &front_hw[rng.gen_range(0..front_hw.len())];
                    let mut cand = env.platform().perturb_hw(rng, seed_hw);
                    if rng.gen_bool(0.5) {
                        cand = env.platform().perturb_hw(rng, &cand);
                    }
                    pool.push(cand);
                }
                let feats: Vec<Vec<f64>> = pool.iter().map(|h| env.platform().encode(h)).collect();
                let gp = gp_slot.clone().expect("fitted implies a carried GP");
                let picks = telemetry.time("acquisition", || {
                    select_batch(
                        gp,
                        &feats,
                        best,
                        AcquisitionKind::ExpectedImprovement,
                        n_model,
                    )
                });
                for i in picks {
                    batch.push(pool[i].clone());
                }
            }
        }
        while batch.len() < cfg.batch {
            batch.push(env.platform().sample_hw(rng));
        }
        batch
    }
}

/// The `q`-quantile of `values` (linear index, values unsorted).
fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((q.clamp(0.0, 1.0)) * (v.len() - 1) as f64).round() as usize;
    Some(v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;
    use unico_model::SpatialPlatform;
    use unico_search::EnvConfig;
    use unico_workloads::zoo;

    fn smoke_cfg() -> UnicoConfig {
        UnicoConfig {
            max_iter: 3,
            batch: 6,
            b_max: 32,
            candidate_pool: 32,
            ..UnicoConfig::default()
        }
    }

    fn env(platform: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
        CoSearchEnv::new(
            platform,
            &[zoo::mobilenet_v1()],
            EnvConfig {
                max_layers_per_network: 1,
                power_cap_mw: None,
                area_cap_mm2: None,
            },
        )
    }

    #[test]
    fn unico_smoke_run() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let res = Unico::new(smoke_cfg()).run(&e);
        assert_eq!(res.hw_evals, 18);
        assert_eq!(res.evaluations.len(), 18);
        assert_eq!(res.trace.points().len(), 3);
        assert!(!res.front.is_empty());
        assert!(res.wall_clock_s > 0.0);
        let rec = res.min_euclidean_record().expect("front non-empty");
        assert!(rec.assessment.is_some());
    }

    #[test]
    fn deterministic_under_seed() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let a = Unico::new(smoke_cfg()).run(&e);
        let b = Unico::new(smoke_cfg()).run(&e);
        assert_eq!(a.front.objectives(), b.front.objectives());
        assert_eq!(a.wall_clock_s, b.wall_clock_s);
    }

    #[test]
    fn high_fidelity_feeds_subset_champion_feeds_one_per_iter() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let hf = Unico::new(smoke_cfg()).run(&e);
        let fed_hf = hf.evaluations.iter().filter(|r| r.fed_surrogate).count();
        assert!(fed_hf >= 1);

        let champ = Unico::new(smoke_cfg().msh_champion()).run(&e);
        let fed_champ = champ.evaluations.iter().filter(|r| r.fed_surrogate).count();
        assert!(fed_champ <= 3, "champion update feeds ≤ 1 per iteration");
    }

    #[test]
    fn msh_early_stops_some_candidates() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let res = Unico::new(smoke_cfg()).run(&e);
        let spent: Vec<u64> = res.evaluations.iter().map(|r| r.budget_spent).collect();
        assert!(spent.contains(&32), "finalists reach b_max");
        assert!(spent.iter().any(|&s| s < 32), "some candidates stop early");
    }

    #[test]
    fn robustness_recorded_for_feasible_candidates() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let res = Unico::new(smoke_cfg()).run(&e);
        let with_r = res
            .evaluations
            .iter()
            .filter(|r| r.assessment.is_some() && r.robustness.is_some())
            .count();
        assert!(with_r > 0, "feasible candidates must carry R");
    }

    #[test]
    fn ablation_configs() {
        let c = smoke_cfg();
        let shc = c.sh_champion();
        assert_eq!(shc.auc_fraction, 0.0);
        assert!(!shc.high_fidelity);
        let mshc = c.msh_champion();
        assert!(mshc.auc_fraction > 0.0);
        assert!(!mshc.high_fidelity);
        assert!(!c.without_robustness().robustness_objective);
    }

    #[test]
    fn run_report_carries_phases_and_counters() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let res = Unico::new(smoke_cfg()).run(&e);
        let r = &res.report;
        assert_eq!(r.name, "unico.run");
        assert_eq!(r.counters["hw_evals"], 18);
        assert!(r.counters["mapping_evals"] > 0);
        assert!(r.counters["sh_rounds"] > 0);
        assert_eq!(
            r.counters["engine_threads_spawned"], 16,
            "one pool for the whole run, spawned once"
        );
        assert!(r.counters["engine_batches"] >= r.counters["sh_rounds"]);
        assert!(r.phases_s.contains_key("sampling"));
        assert!(r.phases_s.contains_key("mapping_search"));
        assert!(r.to_json().contains("unico.run_report.v3"));
        // No cache attached to the stock edge platform here.
        assert!(r.cache.is_none());
        assert!(r.to_json().contains("\"cache\":null"));
    }

    #[test]
    fn run_report_carries_cache_section_when_cache_attached() {
        use std::sync::Arc;
        let cache = Arc::new(EvalCache::new());
        let p = SpatialPlatform::edge().with_eval_cache(Arc::clone(&cache));
        let e = env(&p);
        let res = Unico::new(smoke_cfg()).run(&e);
        let c = res.report.cache.expect("cache section present");
        assert!(c.misses > 0, "first run must compute");
        assert!(c.hits > 0, "SH re-assessments must hit");
        assert_eq!(c.hits + c.misses, cache.stats().lookups());
        assert_eq!(res.report.counters["cache_hits"], c.hits);
        assert_eq!(res.report.counters["cache_misses"], c.misses);
        assert!(res.report.to_json().contains("\"cache\":{\"hits\":"));
    }

    #[test]
    fn observer_sees_every_iteration_boundary() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Recorder {
            seen: Mutex<Vec<(usize, usize, usize)>>,
        }
        impl RunObserver for Recorder {
            fn on_iteration(&self, u: &IterationUpdate<'_>) {
                assert!(u.telemetry.get(unico_search::Counter::HwEvals) > 0);
                assert!(u.wall_clock_s > 0.0);
                self.seen
                    .lock()
                    .unwrap()
                    .push((u.iteration, u.front_size, u.evaluations));
            }
        }
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let rec = Recorder::default();
        let opts = RunOptions {
            observer: Some(&rec),
            ..RunOptions::default()
        };
        let res = Unico::new(smoke_cfg()).run_with_options(&e, &opts);
        let seen = rec.seen.lock().unwrap();
        assert_eq!(
            seen.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "one update per iteration, in order"
        );
        assert_eq!(seen.last().unwrap().2, 18);
        assert!(!res.cancelled);
        assert_eq!(res.iterations_done, 3);
        // The debug form names the observer without requiring Debug on it.
        assert!(format!("{opts:?}").contains("dyn RunObserver"));
    }

    #[test]
    fn observer_cancellation_stops_the_run_cooperatively() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct StopAfter {
            boundary: usize,
            seen: AtomicUsize,
        }
        impl RunObserver for StopAfter {
            fn on_iteration(&self, u: &IterationUpdate<'_>) {
                self.seen.store(u.iteration, Ordering::SeqCst);
            }
            fn cancelled(&self) -> bool {
                self.seen.load(Ordering::SeqCst) >= self.boundary
            }
        }
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let stop = StopAfter {
            boundary: 1,
            seen: AtomicUsize::new(0),
        };
        let opts = RunOptions {
            observer: Some(&stop),
            ..RunOptions::default()
        };
        let res = Unico::new(smoke_cfg()).run_with_options(&e, &opts);
        assert!(res.cancelled);
        assert_eq!(res.iterations_done, 1);
        assert_eq!(res.hw_evals, 6, "one batch evaluated before the stop");
        assert_eq!(res.evaluations.len(), 6);
        assert_eq!(res.trace.points().len(), 1);
    }

    #[test]
    fn percentile_helper() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }
}
