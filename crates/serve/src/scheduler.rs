//! The bounded worker-pool scheduler behind the HTTP API.
//!
//! Jobs queue FIFO and run on a fixed number of worker threads. Every
//! job evaluates through its own [`EvalCache`] backed by the
//! scheduler's shared one, so two jobs over the same workload warm each
//! other's PPA evaluations — the shared cache's hit counters, which
//! count lookups that missed a job's own cache, surface in `/metrics` —
//! while a job's report counters, checkpoint trace and resume cover its
//! own lookups only, whichever other jobs ran before it.
//!
//! Durability: every job checkpoints to its own file at the cadence
//! its spec asks for, and every lifecycle transition is persisted to
//! the job manifest *before* it becomes observable. On boot the
//! scheduler scans the state directory; manifests still in `queued`
//! or `running` are requeued, and a job whose checkpoint file survived
//! resumes from it (`Unico::resume`) instead of starting over.
//!
//! The `kill_after` spec field is the durability test hook: the run
//! panics at that checkpoint boundary and the worker deliberately
//! leaves the manifest saying `running` — exactly the on-disk state a
//! SIGKILLed daemon leaves behind — so a restarted scheduler exercises
//! the genuine recovery path.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use unico_camodel::AscendPlatform;
use unico_core::checkpoint::CheckpointPolicy;
use unico_core::{IterationUpdate, RunObserver, RunOptions, Unico, UnicoResult};
use unico_model::{EvalCache, Platform, SpatialPlatform};
use unico_search::{CoSearchEnv, TelemetrySnapshot};
use unico_workloads::{zoo, ImportedGraph};

use crate::job::{self, Job, JobOutcome, JobPaths, JobState, Manifest};
use crate::spec::{JobSpec, PlatformKind, ServeConfig};

/// Monotonic scheduler-level counters exported via `/metrics`.
#[derive(Debug, Default)]
pub struct SchedulerCounters {
    /// Jobs accepted through the API or recovered from disk.
    pub submitted: AtomicU64,
    /// Jobs that finished with a result.
    pub completed: AtomicU64,
    /// Jobs that panicked.
    pub failed: AtomicU64,
    /// Jobs cancelled before finishing.
    pub cancelled: AtomicU64,
    /// Jobs resumed from a checkpoint after a restart.
    pub resumed: AtomicU64,
    /// Jobs requeued by the boot-time recovery scan.
    pub recovered: AtomicU64,
    /// Simulated hard kills (`kill_after` hook firings).
    pub kills_simulated: AtomicU64,
    /// Submissions rejected because the admission queue was full.
    pub rejected: AtomicU64,
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The admission queue is at capacity; the client should back off
    /// and retry (the HTTP layer turns this into 429 + `Retry-After`).
    QueueFull {
        /// Queue depth observed at rejection time.
        depth: usize,
    },
    /// Persisting the manifest failed; the job was not accepted.
    Io(std::io::Error),
    /// The spec references a graph that cannot be loaded from this
    /// daemon's state dir (missing file, malformed model); a 422.
    InvalidGraph(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth } => {
                write!(f, "admission queue full ({depth} jobs waiting)")
            }
            SubmitError::Io(e) => write!(f, "persisting manifest failed: {e}"),
            SubmitError::InvalidGraph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Per-tenant round-robin admission queue: each tenant gets one FIFO
/// lane, and pops rotate through the lanes so one tenant flooding the
/// daemon cannot starve another's jobs.
#[derive(Debug, Default)]
struct FairQueue {
    lanes: BTreeMap<String, VecDeque<String>>,
    /// Tenants in first-seen order; the rotation order.
    order: Vec<String>,
    cursor: usize,
    len: usize,
}

impl FairQueue {
    fn push(&mut self, tenant: &str, id: String) {
        if !self.lanes.contains_key(tenant) {
            self.order.push(tenant.to_string());
        }
        self.lanes
            .entry(tenant.to_string())
            .or_default()
            .push_back(id);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<String> {
        if self.len == 0 || self.order.is_empty() {
            return None;
        }
        for _ in 0..self.order.len() {
            let lane = &self.order[self.cursor % self.order.len()];
            self.cursor = (self.cursor + 1) % self.order.len();
            if let Some(id) = self
                .lanes
                .get_mut(lane.as_str())
                .and_then(VecDeque::pop_front)
            {
                self.len -= 1;
                return Some(id);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// The job scheduler. Create with [`Scheduler::start`]; drop after
/// [`Scheduler::shutdown`].
pub struct Scheduler {
    state_dir: PathBuf,
    cache: Arc<EvalCache>,
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    queue: Mutex<FairQueue>,
    queue_cond: Condvar,
    max_queue: usize,
    next_id: AtomicU64,
    stopping: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Scheduler lifecycle counters.
    pub counters: SchedulerCounters,
    /// Sum of every finished job's final telemetry snapshot (counters
    /// and phase timers), for the `/metrics` exposition.
    telemetry_totals: Mutex<TelemetrySnapshot>,
}

impl Scheduler {
    /// Boots a scheduler: creates the state directory, runs the crash
    /// recovery scan, and starts `cfg.workers` worker threads.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the state directory.
    pub fn start(cfg: &ServeConfig, cache: Arc<EvalCache>) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let sched = Arc::new(Scheduler {
            state_dir: cfg.state_dir.clone(),
            cache,
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(FairQueue::default()),
            queue_cond: Condvar::new(),
            max_queue: cfg.max_queue,
            next_id: AtomicU64::new(1),
            stopping: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            counters: SchedulerCounters::default(),
            telemetry_totals: Mutex::new(TelemetrySnapshot::default()),
        });
        sched.recover()?;
        let mut workers = sched.workers.lock().unwrap_or_else(|e| e.into_inner());
        // Honor the config exactly: env-sourced configs reject zero
        // loudly in `try_from_env`, and a zero-worker scheduler (jobs
        // queue but never run) is a legitimate test harness.
        for i in 0..cfg.workers {
            let me = Arc::clone(&sched);
            match std::thread::Builder::new()
                .name(format!("unico-serve-worker-{i}"))
                .spawn(move || me.worker_loop())
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Boot must be all-or-nothing: join the workers
                    // already spawned and report the failure instead
                    // of limping along with a smaller pool.
                    drop(workers);
                    sched.shutdown();
                    return Err(e);
                }
            }
        }
        drop(workers);
        Ok(sched)
    }

    /// The shared evaluation cache.
    pub fn cache(&self) -> &Arc<EvalCache> {
        &self.cache
    }

    /// Scans the state directory and re-registers every job found.
    /// Non-terminal jobs are requeued in manifest order.
    fn recover(&self) -> std::io::Result<()> {
        let (manifests, corrupt) = job::scan_manifests(&self.state_dir)?;
        for (path, err) in &corrupt {
            eprintln!(
                "unico-served: ignoring corrupt manifest {}: {err}",
                path.display()
            );
        }
        let mut max_id = 0u64;
        for m in manifests {
            if let Some(n) =
                m.id.strip_prefix("job-")
                    .and_then(|s| s.parse::<u64>().ok())
            {
                max_id = max_id.max(n);
            }
            self.register_recovered(m);
        }
        self.next_id.store(max_id + 1, Ordering::SeqCst);
        Ok(())
    }

    fn register_recovered(&self, m: Manifest) {
        let job = Arc::new(Job::new(m.id.clone(), m.spec));
        match m.state {
            JobState::Queued | JobState::Running => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.recovered.fetch_add(1, Ordering::Relaxed);
                self.jobs
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(m.id.clone(), Arc::clone(&job));
                self.enqueue(m.id);
            }
            terminal => {
                // Terminal jobs stay visible (state + spec); their
                // result file, if any, remains on disk.
                job.set_state(terminal);
                if terminal == JobState::Completed {
                    // Keep the terminal event stream well-formed for
                    // late subscribers.
                    job.events
                        .push("{\"event\":\"recovered\",\"state\":\"completed\"}".to_string());
                }
                job.events.close();
                self.jobs
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(m.id, job);
            }
        }
    }

    /// Accepts a validated spec: assigns an id, persists the manifest,
    /// and queues the job. Admission is bounded: beyond `max_queue`
    /// waiting jobs, submissions are rejected (recovery requeues and
    /// lease reassignments bypass the bound — accepted work is never
    /// dropped).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, or the I/O error
    /// persisting the manifest (the job is then *not* queued — no
    /// unrecoverable work is ever accepted).
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, SubmitError> {
        let depth = self.queue_depth();
        if depth >= self.max_queue {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull { depth });
        }
        // Resolve and import any referenced graph file now: a missing or
        // malformed model file is a 422 at submit, not a worker panic.
        // An inline graph was imported once by `parse_submission`.
        if let Err(e) = crate::spec::load_graph_file(&spec, &self.state_dir) {
            return Err(SubmitError::InvalidGraph(e));
        }
        let id = format!("job-{:06}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let job = Arc::new(Job::new(id.clone(), spec));
        job::write_manifest(&self.paths(&id), &job).map_err(SubmitError::Io)?;
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id.clone(), Arc::clone(&job));
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        self.enqueue(id);
        Ok(job)
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id)
            .cloned()
    }

    /// All jobs in id order.
    pub fn jobs(&self) -> Vec<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Requests cancellation; queued jobs die immediately, running
    /// jobs stop cooperatively at the next iteration boundary.
    /// Returns the state observed at the time of the request.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let job = self.get(id)?;
        let before = job.state();
        job.cancel.store(true, Ordering::SeqCst);
        if before == JobState::Queued && job.set_state(JobState::Cancelled) {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            let _ = job::write_manifest(&self.paths(&job.id), &job);
            job.events
                .push("{\"event\":\"done\",\"state\":\"cancelled\"}".to_string());
            job.events.close();
        }
        Some(before)
    }

    /// Jobs currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Jobs currently in `Running`.
    pub fn running_count(&self) -> usize {
        self.jobs()
            .iter()
            .filter(|j| j.state() == JobState::Running)
            .count()
    }

    /// Aggregate of finished jobs' telemetry (counters + phase timers).
    pub fn telemetry_totals(&self) -> TelemetrySnapshot {
        self.telemetry_totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Stops accepting queue pops and joins all workers. Running jobs
    /// are cancelled cooperatively first.
    pub fn shutdown(&self) {
        {
            // Store under the queue lock: a worker checks the flag under
            // it before waiting, so the notify below cannot fall between
            // that check and the wait and be lost.
            let _queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.stopping.store(true, Ordering::SeqCst);
        }
        for job in self.jobs() {
            job.cancel.store(true, Ordering::SeqCst);
        }
        self.queue_cond.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn paths(&self, id: &str) -> JobPaths {
        JobPaths::new(&self.state_dir, id)
    }

    fn enqueue(&self, id: String) {
        let tenant = self
            .get(&id)
            .map(|j| j.spec.tenant.clone())
            .unwrap_or_default();
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(&tenant, id);
        self.queue_cond.notify_one();
    }

    fn pop_job(&self) -> Option<String> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = queue.pop() {
                return Some(id);
            }
            queue = self
                .queue_cond
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking pop for the cluster lease path: hands the next
    /// fair-queued job id to a pulling worker, or `None` when idle.
    pub(crate) fn try_pop(&self) -> Option<String> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).pop()
    }

    fn worker_loop(&self) {
        while let Some(id) = self.pop_job() {
            let Some(job) = self.get(&id) else { continue };
            self.drive(&job);
        }
    }

    /// Runs one job to a terminal state (or leaves it `running` on a
    /// simulated kill).
    fn drive(&self, job: &Arc<Job>) {
        let paths = self.paths(&job.id);
        if job.cancel.load(Ordering::SeqCst) {
            self.finish_cancelled(job);
            return;
        }
        if !self.begin_running(job) {
            return;
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute(&job.spec, &paths, Arc::clone(&self.cache), job)
        }));
        match outcome {
            Ok((outcome, final_telemetry)) => {
                let resumed = job.resumed.load(Ordering::SeqCst);
                self.complete(job, outcome, final_telemetry, resumed);
            }
            Err(panic) => {
                let msg = panic_message(panic.as_ref());
                if msg.contains("kill_after") {
                    // Simulated hard kill: leave the manifest saying
                    // `running` and the checkpoint on disk, exactly as
                    // a SIGKILL would. Only the in-process event stream
                    // is terminated.
                    self.counters
                        .kills_simulated
                        .fetch_add(1, Ordering::Relaxed);
                    job.events
                        .push("{\"event\":\"kill-simulated\"}".to_string());
                    job.events.close();
                } else {
                    self.fail(job, msg);
                }
            }
        }
    }

    /// Flips a job to `Running` and persists the transition. Returns
    /// `false` (after finishing a pending cancellation) when the job
    /// must not run. Shared by the local worker pool and the cluster
    /// lease path.
    pub(crate) fn begin_running(&self, job: &Arc<Job>) -> bool {
        if job.cancel.load(Ordering::SeqCst) {
            self.finish_cancelled(job);
            return false;
        }
        if !job.set_state(JobState::Running) {
            return false;
        }
        if job::write_manifest(&self.paths(&job.id), job).is_err() {
            // A state dir that stopped being writable will fail the run
            // too; let the failure path report it.
        }
        true
    }

    /// Terminates a cancelled job: state, counter, manifest, events.
    pub(crate) fn finish_cancelled(&self, job: &Arc<Job>) {
        if job.set_state(JobState::Cancelled) {
            self.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            let _ = job::write_manifest(&self.paths(&job.id), job);
            job.events
                .push("{\"event\":\"done\",\"state\":\"cancelled\"}".to_string());
            job.events.close();
        }
    }

    /// Records a finished run: result file, outcome, terminal state,
    /// counters, telemetry aggregation, and the closing `done` event.
    /// Returns `false` when the job was already terminal (a late
    /// duplicate completion, e.g. from a reassigned-then-revived
    /// worker — the first completion wins).
    pub(crate) fn complete(
        &self,
        job: &Arc<Job>,
        outcome: JobOutcome,
        final_telemetry: TelemetrySnapshot,
        resumed: bool,
    ) -> bool {
        if job.state().is_terminal() {
            return false;
        }
        let paths = self.paths(&job.id);
        let state = if outcome.cancelled {
            JobState::Cancelled
        } else {
            JobState::Completed
        };
        // Result file before the state flip, same as the local path:
        // anyone observing `completed` finds the file.
        let _ = job::atomic_write(&paths.result, &outcome.to_json(&job.id));
        job.set_outcome(outcome);
        if resumed {
            job.resumed.store(true, Ordering::SeqCst);
        }
        if !job.set_state(state) {
            return false;
        }
        {
            let mut totals = self
                .telemetry_totals
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            *totals = merge_snapshots(&totals, &final_telemetry);
        }
        match state {
            JobState::Cancelled => &self.counters.cancelled,
            _ => &self.counters.completed,
        }
        .fetch_add(1, Ordering::Relaxed);
        if job.resumed.load(Ordering::SeqCst) {
            self.counters.resumed.fetch_add(1, Ordering::Relaxed);
        }
        let _ = job::write_manifest(&paths, job);
        job.events.push(format!(
            "{{\"event\":\"done\",\"state\":\"{}\"}}",
            state.name()
        ));
        job.events.close();
        true
    }

    /// Records a failed run. Returns `false` if the job was already
    /// terminal.
    pub(crate) fn fail(&self, job: &Arc<Job>, msg: String) -> bool {
        if job.state().is_terminal() {
            return false;
        }
        job.set_error(msg);
        if job.set_state(JobState::Failed) {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
            let _ = job::write_manifest(&self.paths(&job.id), job);
            job.events
                .push("{\"event\":\"done\",\"state\":\"failed\"}".to_string());
            job.events.close();
            true
        } else {
            job.events.close();
            false
        }
    }

    /// Puts a leased-but-lost job back on the queue (lease reaping).
    /// Bypasses admission — the job was already accepted.
    pub(crate) fn requeue(&self, job: &Arc<Job>) {
        if job.state().is_terminal() {
            return;
        }
        job.set_state(JobState::Queued);
        let _ = job::write_manifest(&self.paths(&job.id), job);
        self.enqueue(job.id.clone());
    }
}

/// Per-job run observer: streams iteration deltas into the event log
/// and carries the cancellation flag into the optimizer loop.
struct JobObserver<'a> {
    job: &'a Job,
    last: Mutex<TelemetrySnapshot>,
}

impl RunObserver for JobObserver<'_> {
    fn on_iteration(&self, u: &IterationUpdate<'_>) {
        let snap = u.telemetry.snapshot();
        let delta = {
            let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
            let delta = snap.delta_since(&last);
            *last = snap;
            delta
        };
        self.job.events.push(format!(
            "{{\"event\":\"iteration\",\"iteration\":{},\"max_iter\":{},\"front_size\":{},\"evaluations\":{},\"delta\":{}}}",
            u.iteration,
            u.max_iter,
            u.front_size,
            u.evaluations,
            delta.to_json()
        ));
    }

    fn cancelled(&self) -> bool {
        self.job.cancel.load(Ordering::SeqCst)
    }
}

/// Builds the platform + environment a spec asks for and runs (or
/// resumes) the job. Returns the outcome plus the run's final
/// telemetry snapshot for scheduler-level aggregation.
///
/// The job evaluates through a fresh cache of its own with `shared` as
/// its backing tier. When the shared cache carries a disk tier, peers'
/// segments are absorbed before the run and this run's new entries are
/// flushed after it — a kill mid-run loses the pending buffer exactly
/// like a killed process would, which the chaos oracles rely on.
pub(crate) fn execute(
    spec: &JobSpec,
    paths: &JobPaths,
    shared: Arc<EvalCache>,
    job: &Job,
) -> (JobOutcome, TelemetrySnapshot) {
    shared.refresh_disk();
    let out = execute_inner(spec, paths, Arc::clone(&shared), job);
    shared.flush_disk();
    out
}

fn execute_inner(
    spec: &JobSpec,
    paths: &JobPaths,
    shared: Arc<EvalCache>,
    job: &Job,
) -> (JobOutcome, TelemetrySnapshot) {
    let cache = Arc::new(EvalCache::new().with_backing(shared));
    let mut graphs: Vec<ImportedGraph> = spec
        .workloads
        .iter()
        .map(|n| {
            ImportedGraph::from_network(zoo::by_name(n).expect("spec validated at submit time"))
        })
        .collect();
    // The manifest lives directly under the state dir, which anchors
    // relative graph_file paths.
    let state_dir = paths
        .manifest
        .parent()
        .unwrap_or_else(|| std::path::Path::new("."));
    let imported = crate::spec::load_graphs(spec, state_dir)
        .unwrap_or_else(|e| panic!("loading graphs for {}: {e}", paths.manifest.display()));
    let frontend_ops: u64 = imported.iter().map(ImportedGraph::ops_lowered).sum();
    graphs.extend(imported);
    match spec.platform {
        PlatformKind::SpatialEdge => run_on(
            SpatialPlatform::edge().with_eval_cache(cache),
            spec,
            &graphs,
            frontend_ops,
            paths,
            job,
        ),
        PlatformKind::SpatialCloud => run_on(
            SpatialPlatform::cloud().with_eval_cache(cache),
            spec,
            &graphs,
            frontend_ops,
            paths,
            job,
        ),
        PlatformKind::Ascend => run_on(
            AscendPlatform::new().with_eval_cache(cache),
            spec,
            &graphs,
            frontend_ops,
            paths,
            job,
        ),
    }
}

fn run_on<P: Platform>(
    platform: P,
    spec: &JobSpec,
    graphs: &[ImportedGraph],
    frontend_ops: u64,
    paths: &JobPaths,
    job: &Job,
) -> (JobOutcome, TelemetrySnapshot)
where
    P::Hw: Send,
{
    let env = CoSearchEnv::with_graphs(&platform, graphs, spec.env_config());
    let observer = JobObserver {
        job,
        last: Mutex::new(TelemetrySnapshot::default()),
    };
    let opts = RunOptions {
        checkpoint: Some(
            CheckpointPolicy::new(paths.checkpoint.clone()).with_every(spec.checkpoint_every),
        ),
        kill_after: spec.kill_after,
        observer: Some(&observer),
        ..RunOptions::default()
    };
    let result = if paths.checkpoint.exists() {
        job.resumed.store(true, Ordering::SeqCst);
        job.events.push(format!(
            "{{\"event\":\"resume\",\"checkpoint\":{}}}",
            crate::json::escape(&paths.checkpoint.display().to_string())
        ));
        match Unico::resume_with_options(&env, &paths.checkpoint, &opts) {
            Ok(r) => r,
            Err(e) => panic!("resume from {} failed: {e}", paths.checkpoint.display()),
        }
    } else {
        Unico::new(spec.unico_config()).run_with_options(&env, &opts)
    };
    let mut final_telemetry = observer
        .last
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    if frontend_ops > 0 {
        *final_telemetry
            .counters
            .entry("frontend_ops_lowered".to_string())
            .or_insert(0) += frontend_ops;
    }
    (outcome_from(result), final_telemetry)
}

fn outcome_from<H>(result: UnicoResult<H>) -> JobOutcome {
    JobOutcome {
        front_bits: result
            .front
            .objectives()
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect(),
        report_json: result.report.to_json(),
        deterministic_report_json: result.report.deterministic_json(),
        iterations_done: result.iterations_done,
        hw_evals: result.hw_evals,
        cancelled: result.cancelled,
    }
}

fn merge_snapshots(a: &TelemetrySnapshot, b: &TelemetrySnapshot) -> TelemetrySnapshot {
    let mut out = a.clone();
    for (k, v) in &b.counters {
        *out.counters.entry(k.clone()).or_insert(0) += v;
    }
    for (k, v) in &b.phases_s {
        *out.phases_s.entry(k.clone()).or_insert(0.0) += v;
    }
    out
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_submission;
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("unico-serve-sched-tests")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn cfg(dir: PathBuf) -> ServeConfig {
        ServeConfig {
            state_dir: dir,
            workers: 2,
            ..ServeConfig::default()
        }
    }

    fn tiny_spec(seed: u64) -> JobSpec {
        parse_submission(
            format!(
                r#"{{"platform": "spatial-edge", "workloads": ["mobilenet"],
                     "max_iter": 2, "batch": 3, "b_max": 16, "candidate_pool": 16,
                     "power_cap_mw": 2000, "seed": {seed}}}"#
            )
            .as_bytes(),
        )
        .expect("valid spec")
    }

    fn wait_terminal(job: &Arc<Job>) -> JobState {
        for _ in 0..600 {
            let st = job.state();
            if st.is_terminal() {
                return st;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("job {} never reached a terminal state", job.id);
    }

    #[test]
    fn fair_queue_round_robins_tenants() {
        let mut q = FairQueue::default();
        for (tenant, id) in [
            ("a", "job-1"),
            ("a", "job-2"),
            ("a", "job-3"),
            ("b", "job-4"),
            ("", "job-5"),
        ] {
            q.push(tenant, id.to_string());
        }
        assert_eq!(q.len(), 5);
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        // One pop per tenant per round: a, b, "" then a's backlog.
        assert_eq!(order, ["job-1", "job-4", "job-5", "job-2", "job-3"]);
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }

    /// Boot→shutdown cycles under a watchdog deadline, two workers
    /// alive at a time. Shutdown stores the stop flag under the queue
    /// lock, so a worker that has just found the queue empty cannot miss
    /// the wake-up and hang the join.
    #[test]
    fn boot_shutdown_cycles_never_hang() {
        let dir = scratch("boot-shutdown-cycles");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..500 {
                let sched =
                    Scheduler::start(&cfg(dir.clone()), Arc::new(EvalCache::new())).expect("boot");
                sched.shutdown();
            }
            done_tx.send(()).expect("watchdog listening");
        });
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("scheduler shutdown hung: a worker missed the stop wake-up");
        cycles.join().expect("cycle thread");
    }

    #[test]
    fn admission_bound_rejects_with_queue_full() {
        let dir = scratch("admission");
        let mut c = cfg(dir);
        c.workers = 0; // nothing drains the queue
        c.max_queue = 2;
        let sched = Scheduler::start(&c, Arc::new(EvalCache::new())).expect("boot");
        sched.submit(tiny_spec(1)).expect("first fits");
        sched.submit(tiny_spec(2)).expect("second fits");
        match sched.submit(tiny_spec(3)) {
            Err(SubmitError::QueueFull { depth }) => assert_eq!(depth, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(sched.counters.rejected.load(Ordering::Relaxed), 1);
        // A lease reassignment still requeues past the bound: pop one
        // (as the lease path does), fill the freed slot, then requeue.
        let id = sched.try_pop().expect("queued job");
        let job = sched.get(&id).expect("job");
        sched.submit(tiny_spec(4)).expect("freed slot fits");
        sched.requeue(&job);
        assert_eq!(sched.queue_depth(), 3, "requeue bypasses admission");
        assert_eq!(job.state(), JobState::Queued);
        sched.shutdown();
    }

    #[test]
    fn runs_a_job_to_completion_with_events_and_result_file() {
        let dir = scratch("complete");
        let sched = Scheduler::start(&cfg(dir.clone()), Arc::new(EvalCache::new())).expect("boot");
        let job = sched.submit(tiny_spec(3)).expect("submit");
        assert_eq!(wait_terminal(&job), JobState::Completed);

        let (events, closed) = job.events.snapshot();
        assert!(closed);
        assert!(events.iter().all(|l| crate::json::parse(l).is_ok()));
        assert_eq!(
            events.last().map(String::as_str),
            Some("{\"event\":\"done\",\"state\":\"completed\"}")
        );
        let iterations: Vec<&String> = events
            .iter()
            .filter(|l| l.contains("\"event\":\"iteration\""))
            .collect();
        assert_eq!(iterations.len(), 2, "one event per iteration: {events:?}");

        let paths = JobPaths::new(&dir, &job.id);
        assert!(paths.result.exists());
        assert!(paths.checkpoint.exists());
        let outcome = job.outcome().expect("outcome stored");
        assert_eq!(outcome.iterations_done, 2);
        assert!(!sched.telemetry_totals().is_empty());
        sched.shutdown();
    }

    #[test]
    fn cancelling_a_queued_job_never_runs_it() {
        let dir = scratch("cancel-queued");
        // Zero-worker pool: nothing ever pops the queue.
        let mut c = cfg(dir);
        c.workers = 1;
        let sched = Scheduler::start(&c, Arc::new(EvalCache::new())).expect("boot");
        // Block the only worker with a long job, then cancel a queued one.
        let blocker = sched.submit(tiny_spec(1)).expect("submit blocker");
        let victim = sched.submit(tiny_spec(2)).expect("submit victim");
        let observed = sched.cancel(&victim.id).expect("cancel");
        assert!(
            matches!(observed, JobState::Queued | JobState::Running),
            "victim was {observed:?}"
        );
        assert_eq!(wait_terminal(&victim), JobState::Cancelled);
        let _ = wait_terminal(&blocker);
        sched.shutdown();
        assert!(victim.outcome().is_none());
    }

    #[test]
    fn kill_hook_leaves_running_manifest_and_restart_resumes() {
        let dir = scratch("kill-restart");
        // Daemon 1: the job dies at checkpoint boundary 1.
        let mut spec = tiny_spec(7);
        spec.kill_after = Some(1);
        let sched = Scheduler::start(&cfg(dir.clone()), Arc::new(EvalCache::new())).expect("boot");
        let job = sched.submit(spec).expect("submit");
        // Terminal never comes; wait for the event stream to close.
        for _ in 0..600 {
            if job.events.snapshot().1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(job.events.snapshot().1, "kill must close the stream");
        assert_eq!(job.state(), JobState::Running, "no terminal transition");
        assert_eq!(sched.counters.kills_simulated.load(Ordering::Relaxed), 1);
        sched.shutdown();

        // The manifest on disk still says running — the SIGKILL shape.
        let (manifests, _) = job::scan_manifests(&dir).expect("scan");
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].state, JobState::Running);

        // Daemon 2: recovery requeues and resumes the job. kill_after
        // still sits in the persisted spec, but the boundary is already
        // past the restored iteration count, so it cannot re-fire.
        let sched2 = Scheduler::start(&cfg(dir.clone()), Arc::new(EvalCache::new())).expect("boot");
        let recovered = sched2.get(&job.id).expect("job recovered");
        assert_eq!(wait_terminal(&recovered), JobState::Completed);
        assert!(recovered.resumed.load(Ordering::SeqCst));
        assert_eq!(sched2.counters.recovered.load(Ordering::Relaxed), 1);
        assert_eq!(sched2.counters.resumed.load(Ordering::Relaxed), 1);
        let outcome = recovered.outcome().expect("outcome");
        assert_eq!(outcome.iterations_done, 2);
        sched2.shutdown();
    }

    /// Recovery reads manifests only. A requeued job whose checkpoint
    /// is corrupt boots fine and then fails on resume, and the error
    /// names the checkpoint.
    #[test]
    fn corrupt_checkpoint_of_a_running_job_fails_it_on_resume() {
        let dir = scratch("corrupt-running");
        let id = "job-000004";
        let paths = JobPaths::new(&dir, id);
        let job = Job::new(id.to_string(), tiny_spec(4));
        assert!(job.set_state(JobState::Running));
        job::write_manifest(&paths, &job).expect("manifest");
        std::fs::write(&paths.checkpoint, "not a checkpoint").expect("checkpoint");

        let sched = Scheduler::start(&cfg(dir), Arc::new(EvalCache::new())).expect("boot");
        let recovered = sched.get(id).expect("job recovered");
        assert_eq!(wait_terminal(&recovered), JobState::Failed);
        let err = recovered.error().expect("failure message");
        assert!(
            err.contains(&paths.checkpoint.display().to_string()),
            "error must name the checkpoint: {err}"
        );
        assert_eq!(sched.counters.failed.load(Ordering::Relaxed), 1);
        sched.shutdown();
    }

    /// Writes a manifest in `state` for a job whose inline graph the
    /// frontend rejects (only `parse_submission` imports a graph, so
    /// recovery takes the manifest's spec as it is).
    fn malformed_graph_manifest(dir: &std::path::Path, id: &str, state: JobState) {
        let spec = JobSpec {
            workloads: Vec::new(),
            graph: Some(r#"{"name": 3}"#.to_string()),
            ..tiny_spec(7)
        };
        let job = Job::new(id.to_string(), spec);
        assert!(job.set_state(state));
        job::write_manifest(&JobPaths::new(dir, id), &job).expect("manifest");
    }

    /// Submission resolves only `graph_file`: the inline graph was
    /// imported by `parse_submission`, so a spec carrying a malformed
    /// inline graph *and* a missing file is refused for the file.
    #[test]
    fn submit_resolves_only_the_graph_file() {
        let dir = scratch("submit-graph-file-only");
        let sched = Scheduler::start(&cfg(dir), Arc::new(EvalCache::new())).expect("boot");
        let spec = JobSpec {
            workloads: Vec::new(),
            graph: Some(r#"{"name": 3}"#.to_string()),
            graph_file: Some("absent.graph.json".to_string()),
            ..tiny_spec(8)
        };
        match sched.submit(spec) {
            Err(SubmitError::InvalidGraph(e)) => {
                assert!(e.starts_with("graph_file: reading"), "{e}");
            }
            other => panic!("expected a graph_file error, got {other:?}"),
        }
        assert_eq!(sched.queue_depth(), 0);
        sched.shutdown();
    }

    /// A requeued job whose inline graph is malformed fails when its
    /// worker imports the graph, and the error names the field.
    #[test]
    fn malformed_inline_graph_of_a_running_job_fails_it() {
        let dir = scratch("malformed-graph-running");
        malformed_graph_manifest(&dir, "job-000002", JobState::Running);
        let sched = Scheduler::start(&cfg(dir), Arc::new(EvalCache::new())).expect("boot");
        let recovered = sched.get("job-000002").expect("job recovered");
        assert_eq!(wait_terminal(&recovered), JobState::Failed);
        let err = recovered.error().expect("failure message");
        assert!(err.contains("graph"), "error must name the graph: {err}");
        sched.shutdown();
    }

    /// A completed job's graph is never imported again: it recovers as
    /// completed whatever its inline graph holds.
    #[test]
    fn malformed_inline_graph_of_a_completed_job_still_recovers() {
        let dir = scratch("malformed-graph-completed");
        malformed_graph_manifest(&dir, "job-000003", JobState::Completed);
        let sched = Scheduler::start(&cfg(dir), Arc::new(EvalCache::new())).expect("boot");
        let recovered = sched.get("job-000003").expect("job recovered");
        assert_eq!(recovered.state(), JobState::Completed);
        assert_eq!(recovered.error(), None);
        sched.shutdown();
    }

    /// A completed job's checkpoint is never read again: corrupting it
    /// leaves the job completed across a reboot, its result untouched.
    #[test]
    fn corrupt_checkpoint_of_a_completed_job_is_not_read() {
        let dir = scratch("corrupt-completed");
        let sched = Scheduler::start(&cfg(dir.clone()), Arc::new(EvalCache::new())).expect("boot");
        let job = sched.submit(tiny_spec(6)).expect("submit");
        assert_eq!(wait_terminal(&job), JobState::Completed);
        sched.shutdown();
        let paths = JobPaths::new(&dir, &job.id);
        let result = std::fs::read_to_string(&paths.result).expect("result file");
        std::fs::write(&paths.checkpoint, "not a checkpoint").expect("corrupt");

        let sched2 = Scheduler::start(&cfg(dir), Arc::new(EvalCache::new())).expect("reboot");
        let recovered = sched2.get(&job.id).expect("job recovered");
        assert_eq!(recovered.state(), JobState::Completed);
        assert_eq!(recovered.error(), None);
        let (events, closed) = recovered.events.snapshot();
        assert!(closed);
        assert_eq!(
            events,
            ["{\"event\":\"recovered\",\"state\":\"completed\"}"]
        );
        assert_eq!(
            std::fs::read_to_string(&paths.result).expect("result file"),
            result
        );
        sched2.shutdown();
    }

    #[test]
    fn two_jobs_sharing_a_workload_hit_the_shared_cache() {
        let dir = scratch("shared-cache");
        let cache = Arc::new(EvalCache::new());
        let mut c = cfg(dir);
        c.workers = 1; // serialize so the second job sees the first's entries
        let sched = Scheduler::start(&c, Arc::clone(&cache)).expect("boot");
        let a = sched.submit(tiny_spec(5)).expect("submit a");
        let b = sched.submit(tiny_spec(5)).expect("submit b");
        assert_eq!(wait_terminal(&a), JobState::Completed);
        assert_eq!(wait_terminal(&b), JobState::Completed);
        sched.shutdown();
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "identical seeds must replay cached evaluations: {stats:?}"
        );
    }
}
