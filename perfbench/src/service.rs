//! The service workloads: `service-mixed` (an open-loop job mix against
//! an in-process daemon over HTTP) and `service-restart` (rebooting the
//! scheduler over a state dir of completed jobs).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use unico_camodel::AscendPlatform;
use unico_core::{checkpoint, RunOptions, Unico};
use unico_model::{EvalCache, Platform, SpatialPlatform};
use unico_search::CoSearchEnv;
use unico_serve::json::{self, Json};
use unico_serve::spec::{load_graphs, parse_submission};
use unico_serve::{client, job, JobSpec, JobState, PlatformKind, Scheduler, ServeConfig, Server};
use unico_workloads::{zoo, ImportedGraph};

use crate::codesign::{bits, log10};
use crate::gauge::Gauges;
use crate::metrics::{Outcome, Summary};
use crate::span::Recorder;
use crate::stats::{box_hypervolume, median, tail};
use crate::{peak_rss_mb, process_cpu_s, process_cpu_total_s, Ctx};

/// The committed CNN fixture the inline-graph jobs submit.
const FIXTURE: &str = include_str!("../../tests/fixtures/tiny_cnn.graph.json");

/// Distinct specs per job class: jobs drawn from a small pool repeat
/// specs, so they hit each other's cache entries. The pool is the same
/// for every workload seed (which picks the order and mix of jobs), so
/// the daemon's cache, and with it every job's cost, does not swing
/// with the seed.
const POOL: u64 = 4;
/// Paced-phase arrival rate, jobs/s (below the two-worker capacity).
const PACED_RATE: f64 = 20.0;
/// Paced jobs per round (a multiple of the three job classes).
const PACED_JOBS: usize = 42;
/// Approximate seconds one round (paced phase plus burst) takes; sets
/// how many rounds fit the budget.
const ROUND_S: f64 = 3.0;
/// Rounds per pass of a traced run.
const TRACE_ROUNDS: usize = 2;
/// Set-ups `service-mixed` makes for `setup_s` (the last one serves the
/// load).
const SETUPS: usize = 5;
/// Jobs due at t=0 in each round's burst phase (a multiple of the three
/// job classes).
const BURST_JOBS: usize = 60;
/// Client threads waiting for submitted jobs to complete.
const WATCHERS: usize = 4;
/// The completed jobs in each `service-restart` state dir, one per
/// class, submitted in this order one at a time: fixed pooled specs, so
/// every seed reboots over the same state (a reboot's cost follows the
/// checkpoints' sizes, which follow the order). Few, because that cost
/// grows steeply with job count.
const RESTART_JOBS: [(Class, u64); 3] = [(Class::Edge, 0), (Class::Graph, 0), (Class::Ascend, 0)];
/// State dirs `service-restart` populates (its set-up repetitions).
const RESTART_DIRS: usize = 9;
/// Reboots per pass of a traced `service-restart` run.
const TRACE_REBOOTS: usize = 4;
/// How long a client waits on one request or event stream.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Job classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Spatial-edge mobilenet.
    Edge,
    /// Spatial-edge inline graph (the CNN fixture).
    Graph,
    /// Ascend-like fsrcnn.
    Ascend,
}

impl Class {
    /// Fixed hypervolume box over log10 objectives, per platform.
    fn hv_box(self) -> ([f64; 3], [f64; 3]) {
        match self {
            Class::Edge | Class::Graph => ([-2.5, 0.5, -0.5], [1.0, 3.5, 1.5]),
            Class::Ascend => ([-3.0, 0.5, -0.5], [1.0, 4.0, 3.0]),
        }
    }
}

/// One distinct job spec of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Kind {
    class: Class,
    seed: u64,
}

impl Kind {
    fn pooled(class: Class, i: u64) -> Kind {
        Kind {
            class,
            seed: crate::splitmix(0x5EED_0000 + 16 * class as u64 + i) % 1_000_000,
        }
    }

    /// `n` jobs of the mix in seed order: the three classes in equal
    /// shares (no traffic record says otherwise; an exact share keeps a
    /// round's cost from swinging with the draw), each a random member
    /// of its class's pool.
    fn mix(rng: &mut StdRng, n: usize) -> Vec<Kind> {
        const SHARE: [Class; 3] = [Class::Edge, Class::Graph, Class::Ascend];
        let mut classes: Vec<Class> = (0..n).map(|i| SHARE[i % SHARE.len()]).collect();
        classes.shuffle(rng);
        classes
            .into_iter()
            .map(|c| Kind::pooled(c, rng.gen_range(0..POOL)))
            .collect()
    }

    fn spec(self) -> String {
        let common = format!(
            "\"max_iter\":3,\"batch\":6,\"b_max\":32,\"engine_workers\":1,\"seed\":{}",
            self.seed
        );
        match self.class {
            Class::Edge => format!(
                "{{\"platform\":\"spatial-edge\",\"workloads\":[\"mobilenet\"],\"power_cap_mw\":2000,{common}}}"
            ),
            Class::Graph => format!(
                "{{\"platform\":\"spatial-edge\",\"graph\":{},\"max_layers_per_network\":4,{common}}}",
                json::escape(FIXTURE)
            ),
            Class::Ascend => {
                format!("{{\"platform\":\"ascend-like\",\"workloads\":[\"fsrcnn\"],{common}}}")
            }
        }
    }

    fn hypervolume(self, front: &[Vec<f64>]) -> f64 {
        let (lo, hi) = self.class.hv_box();
        box_hypervolume(&log10(front), &lo, &hi)
    }
}

/// Jobs with their due offsets from the start of a phase.
type Plan = Vec<(Duration, Kind)>;

/// A completed job in a populated state dir.
struct Completed {
    id: String,
    kind: Kind,
    front: Vec<Vec<u64>>,
}

/// A state dir populated with completed jobs.
struct StateDir {
    dir: PathBuf,
    jobs: Vec<Completed>,
}

/// A booted in-process daemon.
struct Daemon {
    server: Option<Server>,
    sched: Arc<Scheduler>,
    addr: String,
    state_dir: PathBuf,
}

impl Daemon {
    fn boot(state_dir: &Path, http: bool) -> std::io::Result<Daemon> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: crate::WORKERS,
            state_dir: state_dir.to_path_buf(),
            ..ServeConfig::default()
        };
        let sched = Scheduler::start(&cfg, Arc::new(EvalCache::new()))?;
        let server = if http {
            match Server::serve(&cfg, Arc::clone(&sched)) {
                Ok(s) => Some(s),
                Err(e) => {
                    sched.shutdown();
                    return Err(e);
                }
            }
        } else {
            None
        };
        let addr = server
            .as_ref()
            .map_or(String::new(), |s| s.addr().to_string());
        Ok(Daemon {
            server,
            sched,
            addr,
            state_dir: state_dir.to_path_buf(),
        })
    }

    fn stop(self) {
        if let Some(s) = self.server {
            s.shutdown();
        }
        self.sched.shutdown();
    }
}

/// Round-trip times of the generator's requests.
#[derive(Default)]
struct Rtts {
    submit: Vec<f64>,
    metrics: Vec<f64>,
}

/// Runs and times `f`, recording it as a top-level span when tracing.
fn timed<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    job: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = rec.map(Recorder::now);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    if let (Some(r), Some(s)) = (rec, start) {
        r.record(r.alloc_id(), name, s, r.now(), None, job);
    }
    (out, secs)
}

/// What happened to one submitted job.
#[derive(Debug, Clone)]
struct JobRecord {
    kind: Kind,
    due: Instant,
    sent: Option<Instant>,
    acked: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
    id: Option<String>,
    error: Option<String>,
    /// The status document the client saw `completed` in.
    status: Option<Json>,
    status_rtt: f64,
}

fn job_number(id: &str) -> u64 {
    id.trim_start_matches("job-").parse().unwrap_or(0)
}

/// Waits until the job's event log closes (in-process, so completion is
/// seen at once rather than at the HTTP stream's flush tick), then
/// fetches its status over HTTP as a client would. Returns the status
/// document, which must say `completed`, and the request's round trip.
fn await_completed(
    daemon: &Daemon,
    id: &str,
    rec: Option<&Recorder>,
) -> Result<(Json, f64), String> {
    let job = daemon
        .sched
        .get(id)
        .ok_or("scheduler does not know the job")?;
    let deadline = Instant::now() + TIMEOUT;
    let mut cursor = 0;
    loop {
        let (lines, closed) = job.events.wait_past(cursor, Duration::from_millis(500));
        cursor += lines.len();
        if closed {
            break;
        }
        if Instant::now() > deadline {
            return Err("timed out waiting for completion".into());
        }
    }
    let (resp, secs) = timed(rec, "serve.http.status", job_number(id), || {
        client::get(&daemon.addr, &format!("/v1/jobs/{id}"), TIMEOUT)
    });
    let (code, body) = resp.map_err(|e| format!("status: {e}"))?;
    if code != 200 {
        return Err(format!("status {code}"));
    }
    let v = json::parse(&body)?;
    let state = v.get("state").ok_or("state missing")?.as_str("state")?;
    if state != "completed" {
        return Err(format!("ended {state}"));
    }
    Ok((v, secs))
}

/// Submits the plan's jobs at their due offsets from one generator
/// thread and waits until a client sees each one completed. Returns the
/// job records and the largest generator lateness.
fn drive(
    daemon: &Daemon,
    plan: &[(Duration, Kind)],
    rec: Option<&Recorder>,
    rtts: &mut Rtts,
) -> (Vec<JobRecord>, f64) {
    let start = Instant::now();
    let records: Vec<Mutex<JobRecord>> = plan
        .iter()
        .map(|(due, kind)| {
            Mutex::new(JobRecord {
                kind: *kind,
                due: start + *due,
                sent: None,
                acked: None,
                running: None,
                done: None,
                id: None,
                error: None,
                status: None,
                status_rtt: 0.0,
            })
        })
        .collect();
    let lock = |i: usize| records[i].lock().expect("job record lock");
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    let generating = std::sync::atomic::AtomicBool::new(true);
    let mut lag_max: f64 = 0.0;
    std::thread::scope(|s| {
        for _ in 0..WATCHERS {
            s.spawn(|| loop {
                let Ok(i) = rx.lock().expect("watcher queue lock").recv() else {
                    return;
                };
                let id = lock(i).id.clone().expect("queued jobs have ids");
                let seen = await_completed(daemon, &id, rec);
                let now = Instant::now();
                let mut r = lock(i);
                match seen {
                    Ok((status, rtt)) => {
                        r.done = Some(now);
                        r.status = Some(status);
                        r.status_rtt = rtt;
                    }
                    Err(e) => r.error = Some(format!("{id}: {e}")),
                }
            });
        }
        if rec.is_some() {
            // Traced runs watch each job's queued → running transition
            // in-process to split its latency into queue wait and run.
            s.spawn(|| {
                let mut seen: BTreeMap<String, Instant> = BTreeMap::new();
                while generating.load(std::sync::atomic::Ordering::Relaxed)
                    || records.iter().any(|r| {
                        let r = r.lock().expect("job record lock");
                        r.done.is_none() && r.error.is_none()
                    })
                {
                    for j in daemon.sched.jobs() {
                        if j.state() != JobState::Queued && !seen.contains_key(&j.id) {
                            seen.insert(j.id.clone(), Instant::now());
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                for r in &records {
                    let mut r = r.lock().expect("job record lock");
                    r.running = r.id.as_ref().and_then(|id| seen.get(id).copied());
                }
            });
        }
        for (i, _) in plan.iter().enumerate() {
            let due = lock(i).due;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            lag_max = lag_max.max(sent.duration_since(due).as_secs_f64());
            let kind = lock(i).kind;
            let ((resp, acked), secs) = timed(rec, "serve.http.submit", 0, || {
                let r = client::post(&daemon.addr, "/v1/jobs", &kind.spec(), TIMEOUT);
                (r, Instant::now())
            });
            rtts.submit.push(secs);
            let mut r = lock(i);
            r.sent = Some(sent);
            r.acked = Some(acked);
            match resp.map_err(|e| e.to_string()).and_then(|(code, body)| {
                if code != 201 {
                    return Err(format!("submit {code}: {body}"));
                }
                let v = json::parse(&body)?;
                Ok(v.get("id").ok_or("no id")?.as_str("id")?.to_string())
            }) {
                Ok(id) => {
                    r.id = Some(id);
                    drop(r);
                    tx.send(i).expect("watchers outlive the generator");
                }
                Err(e) => r.error = Some(e),
            }
            if i % 20 == 19 {
                scrape_metrics(daemon, rec, rtts);
            }
        }
        generating.store(false, std::sync::atomic::Ordering::Relaxed);
        drop(tx);
    });
    let out: Vec<JobRecord> = records
        .into_iter()
        .map(|r| r.into_inner().expect("job record lock"))
        .collect();
    if let Some(r) = rec {
        for j in &out {
            if let (Some(sent), Some(done)) = (j.sent, j.done) {
                let n = j.id.as_deref().map_or(0, job_number);
                r.record(r.alloc_id(), "serve.job", r.at(sent), r.at(done), None, n);
            }
        }
    }
    (out, lag_max)
}

/// Scrapes `/metrics`, returning the exposition text.
fn scrape_metrics(daemon: &Daemon, rec: Option<&Recorder>, rtts: &mut Rtts) -> Option<String> {
    let (resp, secs) = timed(rec, "serve.http.metrics", 0, || {
        client::get(&daemon.addr, "/metrics", TIMEOUT)
    });
    rtts.metrics.push(secs);
    match resp {
        Ok((200, text)) => Some(text),
        _ => None,
    }
}

/// A sample from the exposition by exact series name (`name` or
/// `name{labels}`); `0` when absent.
fn sample(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find_map(|l| {
            l.strip_prefix(series)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn parse_front_bits(v: &Json) -> Result<Vec<Vec<u64>>, String> {
    v.get("front_bits")
        .ok_or("front_bits missing")?
        .as_arr("front_bits")?
        .iter()
        .map(|row| {
            row.as_arr("front_bits[]")?
                .iter()
                .map(|c| {
                    c.as_str("front_bits[][]")?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())
                })
                .collect()
        })
        .collect()
}

fn from_bits(front: &[Vec<u64>]) -> Vec<Vec<f64>> {
    front
        .iter()
        .map(|p| p.iter().map(|b| f64::from_bits(*b)).collect())
        .collect()
}

/// The front an in-process `Unico::run` of `kind`'s spec produces,
/// built the way the daemon builds a job.
fn reference_front(kind: Kind) -> Result<Vec<Vec<u64>>, String> {
    let spec: JobSpec = parse_submission(kind.spec().as_bytes())?;
    let mut graphs: Vec<ImportedGraph> = spec
        .workloads
        .iter()
        .map(|n| ImportedGraph::from_network(zoo::by_name(n).expect("zoo network")))
        .collect();
    graphs.extend(load_graphs(&spec, Path::new("."))?);
    let cache = Arc::new(EvalCache::new());
    Ok(match spec.platform {
        PlatformKind::SpatialEdge => run_front(
            SpatialPlatform::edge().with_eval_cache(cache),
            &spec,
            &graphs,
        ),
        PlatformKind::SpatialCloud => run_front(
            SpatialPlatform::cloud().with_eval_cache(cache),
            &spec,
            &graphs,
        ),
        PlatformKind::Ascend => {
            run_front(AscendPlatform::new().with_eval_cache(cache), &spec, &graphs)
        }
    })
}

fn run_front<P: Platform>(platform: P, spec: &JobSpec, graphs: &[ImportedGraph]) -> Vec<Vec<u64>>
where
    P::Hw: Send,
{
    let env = CoSearchEnv::with_graphs(&platform, graphs, spec.env_config());
    let result = Unico::new(spec.unico_config()).run_with_options(&env, &RunOptions::default());
    bits(&result.front.objectives())
}

/// Checks that same-spec jobs returned identical fronts and that each
/// matches an in-process run of its spec; returns each spec's front.
fn check_fronts(
    out: &mut Outcome,
    jobs: &[JobRecord],
    rec: Option<&Recorder>,
) -> BTreeMap<Kind, Vec<Vec<u64>>> {
    let mut fronts: BTreeMap<Kind, Vec<Vec<u64>>> = BTreeMap::new();
    for j in jobs {
        let (Some(id), Some(status)) = (&j.id, &j.status) else {
            continue;
        };
        match parse_front_bits(status) {
            Ok(bits) => {
                let first = fronts.entry(j.kind).or_insert_with(|| bits.clone());
                let same = *first == bits;
                out.check(same, || {
                    format!("{id}: front differs from an earlier job of the same spec")
                });
            }
            Err(e) => out.check(false, || format!("{id}: {e}")),
        }
    }
    for (kind, bits) in &fronts {
        let (reference, _) = timed(rec, "core.unico.run", 0, || reference_front(*kind));
        out.check(reference.as_ref() == Ok(bits), || {
            format!("{kind:?}: daemon front differs from an in-process run ({reference:?})")
        });
    }
    fronts
}

fn mean_hv(fronts: &BTreeMap<Kind, Vec<Vec<u64>>>) -> f64 {
    fronts
        .iter()
        .map(|(k, bits)| k.hypervolume(&from_bits(bits)))
        .sum::<f64>()
        / fronts.len().max(1) as f64
}

fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    let dir = ctx.work_dir.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sets up `n` times over fresh state dirs: boots a daemon, then runs
/// every pooled spec once so the shared cache holds the whole pool
/// before the timed rounds start. Returns the last daemon, still
/// running, every set-up's warm-up jobs, and each set-up's CPU seconds
/// (at the reference host speed) and wall seconds.
fn set_up(
    ctx: &Ctx,
    n: usize,
    rec: Option<&Recorder>,
    rtts: &mut Rtts,
) -> Result<(Daemon, Vec<JobRecord>, Vec<(f64, f64)>), String> {
    let warmup: Plan = [Class::Edge, Class::Graph, Class::Ascend]
        .into_iter()
        .flat_map(|c| (0..POOL).map(move |i| (Duration::ZERO, Kind::pooled(c, i))))
        .collect();
    let (mut times, mut warm, mut last) = (Vec::new(), Vec::new(), None);
    for i in 0..n {
        // The previous daemon stops first, so its threads do not run
        // inside the next set-up's measurement.
        if let Some(prev) = last.take() {
            Daemon::stop(prev);
        }
        let dir = fresh_dir(ctx, &format!("state-{i}"));
        let gauges = Gauges::read();
        let (cpu, t) = (process_cpu_total_s(), Instant::now());
        let (daemon, _) = timed(rec, "serve.boot", i as u64, || Daemon::boot(&dir, true));
        let daemon = daemon.map_err(|e| format!("boot: {e}"))?;
        warm.extend(drive(&daemon, &warmup, rec, rtts).0);
        let (cpu, wall) = (process_cpu_total_s() - cpu, t.elapsed().as_secs_f64());
        let gauges = gauges.mean(Gauges::read());
        times.push((gauges.compute_scaled(cpu), wall));
        last = Some(daemon);
    }
    Ok((last.expect("at least one set-up"), warm, times))
}

/// Round `round`'s paced and burst plans.
fn plans(ctx: &Ctx, round: usize) -> (Plan, Plan) {
    let mut rng = StdRng::seed_from_u64(ctx.sub_seed(3, round as u64));
    let paced = Kind::mix(&mut rng, PACED_JOBS)
        .into_iter()
        .enumerate()
        .map(|(i, k)| (Duration::from_secs_f64(i as f64 / PACED_RATE), k))
        .collect();
    let burst = Kind::mix(&mut rng, BURST_JOBS)
        .into_iter()
        .map(|k| (Duration::ZERO, k))
        .collect();
    (paced, burst)
}

/// Seconds a phase took from its first send to its last completion.
fn phase_span(jobs: &[JobRecord]) -> f64 {
    let first = jobs.iter().filter_map(|j| j.sent).min();
    let last = jobs.iter().filter_map(|j| j.done).max();
    match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => f64::NAN,
    }
}

/// One pass of `service-mixed`: boot, alternating paced and burst
/// rounds, checks.
struct MixedPass {
    /// CPU seconds (at the reference host speed) and wall seconds of
    /// each set-up.
    setup_s: Vec<(f64, f64)>,
    paced: Vec<JobRecord>,
    burst: Vec<JobRecord>,
    /// Completed jobs per second of each round's burst.
    burst_rates: Vec<f64>,
    /// Process CPU seconds per job of each round, and the mean of the
    /// host-speed gauges read before and after it.
    round_cpu: Vec<(f64, Gauges)>,
    lag_max: f64,
    fronts: BTreeMap<Kind, Vec<Vec<u64>>>,
    exposition: String,
    rtts: Rtts,
    /// Sizes of the job checkpoints left in the state dir.
    checkpoint_bytes: Vec<f64>,
}

fn mixed_pass(
    ctx: &Ctx,
    out: &mut Outcome,
    rounds: usize,
    rec: Option<&Recorder>,
) -> Option<MixedPass> {
    let mut rtts = Rtts::default();
    let (booted, _) = timed(rec, "bench.setup", 0, || {
        set_up(ctx, SETUPS, rec, &mut rtts)
    });
    let (daemon, warm, setup_s) = match booted {
        Ok(b) => b,
        Err(e) => {
            out.check(false, || e);
            return None;
        }
    };
    let (mut paced, mut burst) = (Vec::new(), Vec::new());
    let (mut burst_rates, mut round_cpu, mut lag_max) = (Vec::new(), Vec::new(), 0.0f64);
    for round in 0..rounds {
        let (paced_plan, burst_plan) = plans(ctx, round);
        let gauges = Gauges::read();
        let cpu = process_cpu_s();
        let ((jobs, lag), _) = timed(rec, "bench.phase.paced", 0, || {
            drive(&daemon, &paced_plan, rec, &mut rtts)
        });
        paced.extend(jobs);
        lag_max = lag_max.max(lag);
        // Every burst job is due at t=0, so its lateness says nothing.
        let ((jobs, _), _) = timed(rec, "bench.phase.burst", 0, || {
            drive(&daemon, &burst_plan, rec, &mut rtts)
        });
        burst_rates
            .push(jobs.iter().filter(|j| j.done.is_some()).count() as f64 / phase_span(&jobs));
        burst.extend(jobs);
        let cpu = (process_cpu_s() - cpu) / (PACED_JOBS + BURST_JOBS) as f64;
        round_cpu.push((cpu, gauges.mean(Gauges::read())));
    }
    for j in warm.iter().chain(&paced).chain(&burst) {
        out.check(j.error.is_none() && j.done.is_some(), || {
            j.error
                .clone()
                .unwrap_or_else(|| "job never completed".into())
        });
    }
    let all: Vec<JobRecord> = warm.iter().chain(&paced).chain(&burst).cloned().collect();
    let ((fronts, exposition), _) = timed(rec, "bench.check", 0, || {
        let fronts = check_fronts(out, &all, rec);
        let exposition = scrape_metrics(&daemon, rec, &mut rtts).unwrap_or_default();
        (fronts, exposition)
    });
    out.check(
        unico_serve::metrics::validate_exposition(&exposition).is_ok(),
        || "/metrics exposition does not validate".into(),
    );
    let checkpoint_bytes = checkpoint_sizes(&daemon.state_dir);
    daemon.stop();
    Some(MixedPass {
        setup_s,
        paced,
        burst,
        burst_rates,
        round_cpu,
        lag_max,
        fronts,
        exposition,
        rtts,
        checkpoint_bytes,
    })
}

/// Byte sizes of the job checkpoints in a state dir.
fn checkpoint_sizes(dir: &Path) -> Vec<f64> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "checkpoint"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .collect()
}

fn latencies(jobs: &[JobRecord]) -> Vec<f64> {
    jobs.iter()
        .filter_map(|j| j.done.map(|d| d.duration_since(j.due).as_secs_f64()))
        .collect()
}

/// `service-mixed`.
pub fn service_mixed(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.trace {
        return traced_mixed(ctx, out);
    }
    // Rounds fill most of the budget; boots and checks take the rest.
    let rounds = ((ctx.budget.as_secs_f64() * 0.8 / ROUND_S) as usize).max(2);
    let Some(p) = mixed_pass(ctx, &mut out, rounds, None) else {
        return out;
    };
    let summary = mixed_summary(&p);
    let (cpu, wall): (Vec<f64>, Vec<f64>) = p.setup_s.iter().copied().unzip();
    out.set("setup_s", median(&cpu));
    out.notes.push(format!(
        "setup_s {} s CPU at the reference host speed, {} s wall (medians over n={SETUPS} set-ups)",
        median(&cpu),
        median(&wall)
    ));
    summary.set_end_to_end(&mut out);
    out.set("front_hv", mean_hv(&p.fronts));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set_ok_frac();
    out.notes.push(summary.note("service job"));
    out.notes.push(format!(
        "job_p50_s {} s over n={} paced jobs at {PACED_RATE} jobs/s (open loop); \
         job_tail_s {} s (median over {rounds} rounds of each round's p{:.1}, n={PACED_JOBS}); \
         generator lag max {} s",
        summary.p50_s, summary.n, summary.tail.1, summary.tail.0, p.lag_max
    ));
    out.notes.push(format!(
        "jobs_per_s {} 1/s (median over {rounds} bursts of {BURST_JOBS} jobs: {:?})",
        summary.per_s, p.burst_rates
    ));
    out.notes
        .push(format!("front_hv over {} distinct specs", p.fronts.len()));
    out
}

/// A pass's timings: CPU per job (median over rounds), paced latency
/// median, the median over rounds of each round's tail (so a host
/// hiccup in one round does not set it), and median burst throughput.
fn mixed_summary(p: &MixedPass) -> Summary {
    let round_tails: Vec<(f64, f64)> = p
        .paced
        .chunks(PACED_JOBS)
        .map(|r| tail(&latencies(r)))
        .collect();
    Summary {
        cpu_s: median(
            &p.round_cpu
                .iter()
                .map(|&(cpu, gauges)| gauges.compute_scaled(cpu))
                .collect::<Vec<_>>(),
        ),
        raw_cpu_s: median(&p.round_cpu.iter().map(|r| r.0).collect::<Vec<_>>()),
        p50_s: median(&latencies(&p.paced)),
        tail: (
            round_tails.first().map_or(50.0, |t| t.0),
            median(&round_tails.iter().map(|t| t.1).collect::<Vec<_>>()),
        ),
        per_s: median(&p.burst_rates),
        n: p.paced.len(),
    }
}

fn traced_mixed(ctx: &Ctx, mut out: Outcome) -> Outcome {
    let plain = mixed_pass(ctx, &mut out, TRACE_ROUNDS, None);
    let rec = Recorder::default();
    let pass_start = rec.now();
    let traced = mixed_pass(ctx, &mut out, TRACE_ROUNDS, Some(&rec));
    let pass_end = rec.now();
    let (Some(plain), Some(p)) = (plain, traced) else {
        return out;
    };
    out.check(plain.fronts == p.fronts, || {
        "traced fronts differ from untraced".into()
    });

    // Frontend: the daemon imports a graph job's inline graph when it
    // parses the submission and again when it loads the job's graphs,
    // and exposes no timer for either. Those two public calls are re-run
    // here, once per graph job of the pass, in this thread.
    let graph_specs: Vec<String> = p
        .paced
        .iter()
        .chain(&p.burst)
        .filter(|j| j.kind.class == Class::Graph)
        .map(|j| j.kind.spec())
        .collect();
    let t = Instant::now();
    for text in &graph_specs {
        let imported =
            parse_submission(text.as_bytes()).and_then(|spec| load_graphs(&spec, Path::new(".")));
        out.check(imported.is_ok_and(|g| g.len() == 1), || {
            "graph job spec did not import".into()
        });
    }
    out.set("workloads.frontend.import_s", t.elapsed().as_secs_f64());
    let e = &p.exposition;
    let counter = |c: &str| {
        sample(
            e,
            &format!("unico_serve_search_counter_total{{counter=\"{c}\"}}"),
        )
    };
    let phase = |ph: &str| {
        sample(
            e,
            &format!("unico_serve_phase_seconds_total{{phase=\"{ph}\"}}"),
        )
    };
    out.set(
        "workloads.frontend.ops_lowered",
        counter("frontend_ops_lowered"),
    );
    let hits = sample(e, "unico_serve_cache_hits_total");
    let misses = sample(e, "unico_serve_cache_misses_total");
    out.set("model.evalcache.hits", hits);
    out.set("model.evalcache.misses", misses);
    out.set("model.evalcache.hit_ratio", hits / (hits + misses).max(1.0));
    out.set(
        "model.evalcache.entries",
        sample(e, "unico_serve_cache_entries"),
    );
    out.set("model.evalcache.evictions", counter("cache_evictions"));
    out.set("mapping.steps", counter("mapping_evals"));
    out.set("search.sh.mapping_search_s", phase("mapping_search"));
    out.set("search.sh.rounds", counter("sh_rounds"));
    out.set("search.engine.jobs", counter("engine_jobs"));
    out.set("search.engine.batches", counter("engine_batches"));
    out.set("surrogate.sampling_s", phase("sampling"));
    out.set("surrogate.gp_fit_s", phase("gp_fit"));
    out.set("surrogate.acquisition_s", phase("acquisition"));
    out.set("surrogate.gp_fits", counter("gp_fits"));
    out.set(
        "surrogate.gp_fits_incremental",
        counter("gp_fits_incremental"),
    );
    let acc = counter("uul_accepted");
    out.set(
        "surrogate.uul_accept_ratio",
        acc / (acc + counter("uul_rejected")).max(1.0),
    );
    out.set("core.checkpoints_written", counter("checkpoints_written"));
    out.set(
        "serve.http.requests",
        sample(e, "unico_serve_requests_total"),
    );

    let jobs: Vec<&JobRecord> = p.paced.iter().chain(&p.burst).collect();
    let ascend_search: f64 = jobs
        .iter()
        .filter(|j| j.kind.class == Class::Ascend)
        .filter_map(|j| {
            j.status
                .as_ref()?
                .get("report")?
                .get("phases_s")?
                .get("mapping_search")?
                .as_f64("mapping_search")
                .ok()
        })
        .sum();
    out.set("camodel.job_mapping_search_s", ascend_search);
    out.set("serve.http.submit_rtt_s", median(&p.rtts.submit));
    let status_rtts: Vec<f64> = jobs
        .iter()
        .filter(|j| j.status.is_some())
        .map(|j| j.status_rtt)
        .collect();
    out.set("serve.http.status_rtt_s", median(&status_rtts));
    out.set("serve.http.metrics_rtt_s", median(&p.rtts.metrics));
    for class in [Class::Edge, Class::Graph, Class::Ascend] {
        let jobs: Vec<&JobRecord> = p.paced.iter().filter(|j| j.kind.class == class).collect();
        let wait: Vec<f64> = jobs
            .iter()
            .filter_map(|j| Some(j.running?.saturating_duration_since(j.acked?).as_secs_f64()))
            .collect();
        let run: Vec<f64> = jobs
            .iter()
            .filter_map(|j| Some(j.done?.saturating_duration_since(j.running?).as_secs_f64()))
            .collect();
        let (w, r) = match class {
            Class::Edge => (
                "serve.scheduler.queue_wait_s.edge",
                "serve.scheduler.run_s.edge",
            ),
            Class::Graph => (
                "serve.scheduler.queue_wait_s.graph",
                "serve.scheduler.run_s.graph",
            ),
            Class::Ascend => (
                "serve.scheduler.queue_wait_s.ascend",
                "serve.scheduler.run_s.ascend",
            ),
        };
        out.set(w, median(&wait));
        out.set(r, median(&run));
    }
    out.set("serve.job.checkpoint_bytes", median(&p.checkpoint_bytes));
    out.set("bench.traced_ops", (p.paced.len() + p.burst.len()) as f64);
    out.set("bench.gen_lag_max_s", p.lag_max);
    let (plain, traced) = (mixed_summary(&plain), mixed_summary(&p));
    plain.set_wall(&mut out);
    out.set(
        "bench.trace_overhead_frac",
        traced.raw_cpu_s / plain.raw_cpu_s - 1.0,
    );
    out.attach_spans(rec.spans(), pass_end - pass_start);
    out
}

/// Populates a fresh state dir with completed jobs through a daemon.
fn populate(dir: PathBuf, kinds: &[Kind]) -> Result<StateDir, String> {
    let daemon = Daemon::boot(&dir, true).map_err(|e| format!("boot: {e}"))?;
    let mut rtts = Rtts::default();
    // One job at a time, so each checkpoint embeds the same cache state
    // every time and the state dir comes out the same size.
    let jobs: Vec<JobRecord> = kinds
        .iter()
        .flat_map(|k| drive(&daemon, &[(Duration::ZERO, *k)], None, &mut rtts).0)
        .collect();
    daemon.stop();
    let jobs = jobs
        .into_iter()
        .map(|j| match (j.id, j.status) {
            (Some(id), Some(status)) => Ok(Completed {
                id,
                kind: j.kind,
                front: parse_front_bits(&status)?,
            }),
            (id, _) => Err(format!(
                "{id:?}: {}",
                j.error.unwrap_or_else(|| "did not complete".into())
            )),
        })
        .collect::<Result<_, String>>()?;
    Ok(StateDir { dir, jobs })
}

/// Wall and CPU seconds of one reboot.
struct Reboot {
    wall_s: f64,
    cpu_s: f64,
    /// Mean of the host-speed gauges read before and after the reboot.
    gauges: Gauges,
}

fn reboot_summary(boots: &[Reboot]) -> Summary {
    let wall: Vec<f64> = boots.iter().map(|b| b.wall_s).collect();
    Summary {
        cpu_s: median(
            &boots
                .iter()
                .map(|b| b.gauges.stream_scaled(b.cpu_s))
                .collect::<Vec<_>>(),
        ),
        raw_cpu_s: median(&boots.iter().map(|b| b.cpu_s).collect::<Vec<_>>()),
        p50_s: median(&wall),
        tail: tail(&wall),
        per_s: boots.len() as f64 / wall.iter().sum::<f64>(),
        n: boots.len(),
    }
}

/// Reboots the scheduler over a state dir and checks the recovered
/// jobs (and, with `check_files`, their result files). With a recorder,
/// the reboot and its checks are one `serve.reboot` span (the gauges
/// read around it are not).
fn reboot(
    out: &mut Outcome,
    state: &StateDir,
    check_files: bool,
    rec: Option<&Recorder>,
) -> Reboot {
    let gauges = Gauges::read();
    let start = rec.map(Recorder::now);
    let StateDir { dir, jobs } = state;
    let c = process_cpu_s();
    let t = Instant::now();
    let daemon = match Daemon::boot(dir, false) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("reboot: {e}"));
            return Reboot {
                wall_s: f64::NAN,
                cpu_s: f64::NAN,
                gauges,
            };
        }
    };
    let mut secs = Reboot {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - c,
        gauges,
    };
    let completed = jobs.iter().all(|j| {
        daemon
            .sched
            .get(&j.id)
            .is_some_and(|r| r.state() == JobState::Completed)
    });
    out.check(completed && daemon.sched.jobs().len() == jobs.len(), || {
        format!(
            "reboot over {}: not every job recovered as completed",
            dir.display()
        )
    });
    if check_files {
        for Completed { id, front, .. } in jobs {
            let path = job::JobPaths::new(dir, id).result;
            let intact = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| json::parse(&t))
                .and_then(|v| parse_front_bits(&v))
                .is_ok_and(|b| &b == front);
            out.check(intact, || {
                format!("{id}: result file not intact after reboot")
            });
        }
    }
    daemon.stop();
    if let (Some(r), Some(s)) = (rec, start) {
        r.record(r.alloc_id(), "serve.reboot", s, r.now(), None, 0);
    }
    secs.gauges = gauges.mean(Gauges::read());
    secs
}

/// `service-restart`.
pub fn service_restart(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let kinds: Vec<Kind> = RESTART_JOBS
        .iter()
        .map(|&(c, i)| Kind::pooled(c, i))
        .collect();
    let mut dirs = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_wall = Vec::new();
    for i in 0..RESTART_DIRS {
        let t = Instant::now();
        let gauges = Gauges::read();
        let c = process_cpu_total_s();
        match populate(fresh_dir(ctx, &format!("restart-{i}")), &kinds) {
            Ok(state) => {
                let (cpu, wall) = (process_cpu_total_s() - c, t.elapsed().as_secs_f64());
                setup_s.push(gauges.mean(Gauges::read()).compute_scaled(cpu));
                setup_wall.push(wall);
                dirs.push(state);
            }
            Err(e) => out.check(false, || format!("populating state dir {i}: {e}")),
        }
    }
    if dirs.is_empty() {
        return out;
    }
    let fronts: BTreeMap<Kind, Vec<Vec<u64>>> = dirs[0]
        .jobs
        .iter()
        .map(|j| (j.kind, j.front.clone()))
        .collect();
    for state in &dirs[1..] {
        let same = state
            .jobs
            .iter()
            .all(|j| fronts.get(&j.kind) == Some(&j.front));
        out.check(same, || {
            format!("{}: fronts differ between set-ups", state.dir.display())
        });
    }

    if ctx.trace {
        return traced_restart(out, &dirs);
    }
    let started = Instant::now();
    let mut boots = Vec::new();
    while boots.len() < RESTART_DIRS || started.elapsed() < ctx.budget {
        let state = &dirs[boots.len() % dirs.len()];
        boots.push(reboot(&mut out, state, boots.len() < dirs.len(), None));
    }
    let summary = reboot_summary(&boots);
    out.set("setup_s", median(&setup_s));
    out.notes.push(format!(
        "setup_s {} s CPU at the reference host speed, {} s wall (medians over n={} populations)",
        median(&setup_s),
        median(&setup_wall),
        setup_s.len()
    ));
    summary.set_end_to_end(&mut out);
    out.set("front_hv", mean_hv(&fronts));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set_ok_frac();
    out.notes.push(summary.note("reboot"));
    out.notes.push(format!(
        "restart_s {} s (median wall, n={}, {} completed jobs)",
        summary.p50_s,
        summary.n,
        kinds.len()
    ));
    out
}

fn traced_restart(mut out: Outcome, dirs: &[StateDir]) -> Outcome {
    let pick = |i: usize| &dirs[i % dirs.len()];
    let plain: Vec<Reboot> = (0..TRACE_REBOOTS)
        .map(|i| reboot(&mut out, pick(i), false, None))
        .collect();
    let rec = Recorder::default();
    let pass_start = rec.now();
    let mut traced = Vec::new();
    let (mut manifests_s, mut checkpoints_s) = (0.0, 0.0);
    for i in 0..TRACE_REBOOTS {
        let state = pick(i);
        let (dir, jobs) = (&state.dir, &state.jobs);
        traced.push(reboot(&mut out, state, false, Some(&rec)));
        // The two scans recovery runs, timed on their own.
        let (scan, secs) = timed(Some(&rec), "serve.recover.scan_manifests", i as u64, || {
            job::scan_manifests(dir)
        });
        manifests_s += secs;
        out.check(
            scan.is_ok_and(|(m, bad)| m.len() == jobs.len() && bad.is_empty()),
            || "manifest scan disagrees with the populated jobs".into(),
        );
        let (scan, secs) = timed(
            Some(&rec),
            "serve.recover.scan_checkpoints",
            i as u64,
            || checkpoint::scan_dir(dir),
        );
        checkpoints_s += secs;
        out.check(scan.is_ok_and(|s| s.corrupt.is_empty()), || {
            "corrupt checkpoint in the state dir".into()
        });
    }
    let pass_end = rec.now();
    let ck_bytes = checkpoint_sizes(&dirs[0].dir);
    out.set("serve.job.checkpoint_bytes", median(&ck_bytes));
    out.set("core.checkpoint.bytes", ck_bytes.iter().sum());
    out.set("serve.recover.scan_manifests_s", manifests_s);
    out.set("serve.recover.scan_checkpoints_s", checkpoints_s);
    out.set("serve.recover.jobs", dirs[0].jobs.len() as f64);
    out.set("bench.traced_ops", TRACE_REBOOTS as f64);
    let (plain, traced) = (reboot_summary(&plain), reboot_summary(&traced));
    plain.set_wall(&mut out);
    out.set(
        "bench.trace_overhead_frac",
        traced.raw_cpu_s / plain.raw_cpu_s - 1.0,
    );
    out.attach_spans(rec.spans(), pass_end - pass_start);
    out
}
