//! Cluster chaos oracles: kill a worker mid-job and a coordinator
//! mid-stream, and require the surviving fleet to finish the job with
//! results byte-identical to an uninterrupted run.
//!
//! Worker death reuses the `kill_after` hook: the run panics at a
//! checkpoint boundary, and with `die_on_kill_hook` the whole pull
//! loop exits without a word — no fail report, no more heartbeats —
//! exactly the observable shape of a SIGKILLed worker process. The
//! coordinator's lease reaper must notice the silence, requeue the
//! job, and the replacement worker must auto-resume from the shared
//! checkpoint.
//!
//! Coordinator death is a server shutdown with the scheduler leaked
//! (no graceful teardown touches the state dir). The in-flight worker
//! loses its heartbeat target and abandons; a fresh coordinator booted
//! over the same state directory requeues the `running` manifest and a
//! fresh worker resumes it.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unico_model::EvalCache;
use unico_serve::worker::{self, WorkerConfig, WorkerHandle};
use unico_serve::{client, json, ClusterState, JobOutcome, Scheduler, ServeConfig, Server};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unico-cluster-chaos").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn seeded_spec(seed: u64, kill_after: Option<usize>) -> String {
    let kill = kill_after
        .map(|k| format!(", \"kill_after\": {k}"))
        .unwrap_or_default();
    format!(
        r#"{{"platform": "spatial-edge", "workloads": ["mobilenet"],
             "max_iter": 3, "batch": 6, "b_max": 32, "candidate_pool": 32,
             "power_cap_mw": 2000, "seed": {seed}{kill}}}"#
    )
}

/// Boots a coordinator (zero local workers) with a fast lease reaper.
fn boot_coordinator(state_dir: &Path) -> (Server, Arc<Scheduler>, Arc<ClusterState>, String) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0,
        state_dir: state_dir.to_path_buf(),
        lease_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let sched = Scheduler::start(&cfg, Arc::new(EvalCache::new())).expect("boot scheduler");
    let cluster = Arc::new(ClusterState::new(Arc::clone(&sched), cfg.lease_timeout));
    let server = Server::serve_cluster(&cfg, Arc::clone(&sched), Some(Arc::clone(&cluster)))
        .expect("boot coordinator");
    let addr = server.addr().to_string();
    (server, sched, cluster, addr)
}

/// Spawns a worker with its own cache (mirroring a separate process)
/// and a heartbeat cadence far under the coordinator's lease timeout.
fn spawn_worker(coordinator: &str, state_dir: &Path, id: &str) -> WorkerHandle {
    let mut cfg = WorkerConfig::new(coordinator, state_dir);
    cfg.worker_id = id.to_string();
    cfg.poll_interval = Duration::from_millis(10);
    cfg.heartbeat_interval = Duration::from_millis(50);
    worker::spawn(cfg, Arc::new(EvalCache::new())).expect("spawn worker")
}

fn submit(addr: &str, spec: &str) -> String {
    let (status, body) =
        client::post(addr, "/v1/jobs", spec, Duration::from_secs(10)).expect("submit");
    assert_eq!(status, 201, "submit failed: {body}");
    json::parse(&body)
        .expect("submit response")
        .get("id")
        .expect("id")
        .as_str("id")
        .expect("id string")
        .to_string()
}

fn job_state(addr: &str, id: &str) -> (String, String) {
    let (status, body) =
        client::get(addr, &format!("/v1/jobs/{id}"), Duration::from_secs(10)).expect("status");
    assert_eq!(status, 200, "{body}");
    let state = json::parse(&body)
        .expect("status json")
        .get("state")
        .expect("state")
        .as_str("state")
        .expect("state string")
        .to_string();
    (state, body)
}

fn wait_for_state(addr: &str, id: &str, want: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (state, body) = job_state(addr, id);
        if state == want {
            return body;
        }
        assert!(
            !(state == "failed" && want != "failed"),
            "job {id} failed while waiting for {want}: {body}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state} waiting for {want}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs `seed` uninterrupted on a one-worker cluster and returns the
/// ground-truth outcome.
fn reference_outcome(tag: &str, seed: u64) -> JobOutcome {
    let dir = scratch(tag);
    let (server, sched, _cluster, addr) = boot_coordinator(&dir);
    let w = spawn_worker(&addr, &dir, "ref-worker");
    let id = submit(&addr, &seeded_spec(seed, None));
    wait_for_state(&addr, &id, "completed");
    let outcome = sched.get(&id).and_then(|j| j.outcome()).expect("outcome");
    w.stop();
    server.shutdown();
    sched.shutdown();
    outcome
}

#[test]
fn killed_worker_lease_is_reassigned_and_resumed_byte_identically() {
    let reference = reference_outcome("worker-kill-reference", 11);

    let dir = scratch("worker-kill");
    let (server, sched, cluster, addr) = boot_coordinator(&dir);

    // Worker A dies at checkpoint boundary 1 (die_on_kill_hook is the
    // WorkerConfig::new default): heartbeats simply stop.
    let a = spawn_worker(&addr, &dir, "doomed-worker");
    let id = submit(&addr, &seeded_spec(11, Some(1)));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !a.is_finished() {
        assert!(Instant::now() < deadline, "worker A never died");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(a.counters.kills_simulated.load(Ordering::Relaxed), 1);
    // Nothing terminal was reported: the job still looks live.
    let (state, _) = job_state(&addr, &id);
    assert!(
        state == "running" || state == "queued",
        "job must not be terminal after worker death, got {state}"
    );

    // Worker B arrives; its lease request forces a reap of A's silent
    // lease, the job requeues, and B resumes it from A's checkpoint.
    let b = spawn_worker(&addr, &dir, "successor-worker");
    let status = wait_for_state(&addr, &id, "completed");
    assert!(status.contains("\"resumed\":true"), "{status}");
    assert!(
        cluster.counters.leases_expired.load(Ordering::Relaxed) >= 1,
        "the dead worker's lease must be reaped"
    );
    // The coordinator marks the job completed before the worker has
    // read the 200 and bumped its counter; joining the worker first
    // makes the exact count race-free.
    let b_counters = Arc::clone(&b.counters);
    b.stop();
    assert_eq!(b_counters.jobs_completed.load(Ordering::Relaxed), 1);
    assert_eq!(cluster.active_leases(), 0);

    let resumed = sched.get(&id).and_then(|j| j.outcome()).expect("outcome");
    assert_eq!(resumed.front_bits, reference.front_bits);
    assert_eq!(
        resumed.deterministic_report_json,
        reference.deterministic_report_json
    );
    assert!(!resumed.cancelled);

    // The lease-reaped event is visible in the job's event stream.
    let (events, _) = sched.get(&id).expect("job").events.snapshot();
    assert!(
        events.iter().any(|e| e.contains("lease-reaped")),
        "missing lease-reaped event: {events:?}"
    );

    server.shutdown();
    sched.shutdown();
}

#[test]
fn killed_coordinator_recovers_in_flight_job_byte_identically() {
    let reference = reference_outcome("coord-kill-reference", 13);

    let dir = scratch("coord-kill");
    let (server1, sched1, _cluster1, addr1) = boot_coordinator(&dir);
    let a = spawn_worker(&addr1, &dir, "orphaned-worker");
    let id = submit(&addr1, &seeded_spec(13, None));

    // Kill the coordinator mid-stream: wait until the job is leased,
    // running, and has flushed at least one checkpoint (so the
    // recovery boot has something to resume from), then drop the
    // server without any graceful scheduler teardown (the Arc is
    // leaked, as a crash would leave it).
    let checkpoint = dir.join(format!("{id}.checkpoint"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while sched1.get(&id).map(|j| j.state().name()) != Some("running") || !checkpoint.exists() {
        assert!(
            Instant::now() < deadline,
            "job never running + checkpointed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server1.shutdown();
    std::mem::forget(sched1);

    // The orphaned worker loses eight heartbeats in a row, abandons the
    // run and discards its result.
    let deadline = Instant::now() + Duration::from_secs(60);
    while a.counters.jobs_abandoned.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "worker never abandoned the run");
        std::thread::sleep(Duration::from_millis(10));
    }
    a.stop();

    // A fresh coordinator over the same state dir requeues the
    // `running` manifest; a fresh worker resumes from the checkpoint.
    let (server2, sched2, _cluster2, addr2) = boot_coordinator(&dir);
    let b = spawn_worker(&addr2, &dir, "recovery-worker");
    let status = wait_for_state(&addr2, &id, "completed");
    assert!(status.contains("\"resumed\":true"), "{status}");

    let recovered = sched2.get(&id).and_then(|j| j.outcome()).expect("outcome");
    assert_eq!(recovered.front_bits, reference.front_bits);
    assert_eq!(
        recovered.deterministic_report_json,
        reference.deterministic_report_json
    );
    assert!(!recovered.cancelled);

    b.stop();
    server2.shutdown();
    sched2.shutdown();
}
