//! End-to-end service tests over real TCP.
//!
//! The durability oracle: boot a daemon, submit a seeded job, kill it
//! mid-run (the `kill_after` hook panics the worker at a checkpoint
//! boundary and leaves the on-disk state exactly as a SIGKILL would —
//! manifest still `running`, checkpoint flushed by the panic guard),
//! boot a fresh daemon over the same state directory, and require the
//! auto-resumed job's Pareto front bits and deterministic run report
//! to be byte-identical to an uninterrupted same-seed run.
//!
//! Plus: cross-job evaluation-cache sharing observable in `/metrics`,
//! a job's checkpoint and report unchanged by a warm shared cache, and
//! NDJSON event streaming over a live connection.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use unico_model::EvalCache;
use unico_serve::job::JobPaths;
use unico_serve::metrics::validate_exposition;
use unico_serve::{json, Scheduler, ServeConfig, Server};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unico-serve-e2e").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Boots a daemon (scheduler + HTTP server) over `state_dir` with its
/// own fresh cache, mirroring a separate OS process.
fn boot(state_dir: &std::path::Path, workers: usize) -> (Server, Arc<Scheduler>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        state_dir: state_dir.to_path_buf(),
        ..ServeConfig::default()
    };
    let sched = Scheduler::start(&cfg, Arc::new(EvalCache::new())).expect("boot scheduler");
    let server = Server::serve(&cfg, Arc::clone(&sched)).expect("boot server");
    (server, sched)
}

/// One HTTP exchange on a fresh connection; returns (status, body).
fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    conn.write_all(raw.as_bytes()).expect("send");
    let mut text = String::new();
    conn.read_to_string(&mut text).expect("read");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n"),
    )
}

fn post_job(addr: SocketAddr, body: &str) -> String {
    let raw = format!(
        "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, resp) = request(addr, &raw);
    assert_eq!(status, 201, "submit failed: {resp}");
    json::parse(&resp)
        .expect("submit response is JSON")
        .get("id")
        .expect("submit response has id")
        .as_str("id")
        .expect("id is a string")
        .to_string()
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

fn wait_for_state(addr: SocketAddr, id: &str, want: &str) -> String {
    for _ in 0..1200 {
        let (status, body) = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        let state = json::parse(&body)
            .expect("status is JSON")
            .get("state")
            .expect("status has state")
            .as_str("state")
            .expect("state is a string")
            .to_string();
        if state == want {
            return body;
        }
        assert!(
            !(state == "failed" && want != "failed"),
            "job {id} failed while waiting for {want}: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {id} never reached state {want:?}");
}

#[test]
fn killed_daemon_resumes_and_matches_uninterrupted_run() {
    // Reference: an uninterrupted run in its own daemon.
    let ref_dir = scratch("oracle-reference");
    let (ref_server, ref_sched) = boot(&ref_dir, 1);
    let ref_id = post_job(ref_server.addr(), &seeded_spec(7, None));
    wait_for_state(ref_server.addr(), &ref_id, "completed");
    let reference = ref_sched
        .get(&ref_id)
        .and_then(|j| j.outcome())
        .expect("reference outcome");
    ref_server.shutdown();
    ref_sched.shutdown();

    // Daemon 1: same seed, killed at checkpoint boundary 1.
    let dir = scratch("oracle-killed");
    let (server1, sched1) = boot(&dir, 1);
    let id = post_job(server1.addr(), &seeded_spec(7, Some(1)));
    for _ in 0..1200 {
        if sched1
            .counters
            .kills_simulated
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        sched1
            .counters
            .kills_simulated
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "kill hook must fire"
    );
    // The dying daemon's API still says running — no terminal
    // transition was persisted, which is the point.
    let (_, body) = get(server1.addr(), &format!("/v1/jobs/{id}"));
    assert!(body.contains("\"state\":\"running\""), "{body}");
    server1.shutdown();
    sched1.shutdown();

    // Daemon 2 (fresh process, fresh cache, same state dir): recovery
    // requeues the job and resumes it from the flushed checkpoint.
    let (server2, sched2) = boot(&dir, 1);
    let status = wait_for_state(server2.addr(), &id, "completed");
    assert!(status.contains("\"resumed\":true"), "{status}");
    let resumed = sched2
        .get(&id)
        .and_then(|j| j.outcome())
        .expect("resumed outcome");

    // The oracle: bit-identical front, byte-identical deterministic
    // report.
    assert_eq!(resumed.front_bits, reference.front_bits);
    assert_eq!(resumed.deterministic_json(), reference.deterministic_json());
    assert_eq!(resumed.iterations_done, 3);

    // The status document exposes the front and full report.
    assert!(status.contains("\"front_bits\""), "{status}");
    assert!(status.contains("\"report\""), "{status}");
    server2.shutdown();
    sched2.shutdown();
}

#[test]
fn two_jobs_sharing_a_workload_show_cache_hits_in_metrics() {
    let dir = scratch("cache-metrics");
    let (server, sched) = boot(&dir, 1); // one worker: jobs run back to back
    let addr = server.addr();
    let a = post_job(addr, &seeded_spec(5, None));
    let b = post_job(addr, &seeded_spec(5, None));
    wait_for_state(addr, &a, "completed");
    wait_for_state(addr, &b, "completed");

    let (status, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    validate_exposition(&text).expect("exposition parses");

    let sample = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
    };
    assert_eq!(sample("unico_serve_jobs_completed_total"), 2.0);
    assert!(
        sample("unico_serve_cache_hits_total") > 0.0,
        "second identical job must hit the shared cache:\n{text}"
    );
    assert!(sample("unico_serve_cache_hit_rate") > 0.0);
    // Phase timers aggregated over both runs are present.
    assert!(
        text.contains("unico_serve_phase_seconds_total{phase="),
        "{text}"
    );
    server.shutdown();
    sched.shutdown();
}

/// Runs one seeded job to completion on `sched` and returns its final
/// checkpoint bytes and deterministic run report.
fn run_to_completion(
    server: &Server,
    sched: &Scheduler,
    dir: &std::path::Path,
    seed: u64,
) -> (Vec<u8>, String) {
    let id = post_job(server.addr(), &seeded_spec(seed, None));
    wait_for_state(server.addr(), &id, "completed");
    let checkpoint = std::fs::read(JobPaths::new(dir, &id).checkpoint).expect("checkpoint");
    let outcome = sched.get(&id).and_then(|j| j.outcome()).expect("outcome");
    (checkpoint, outcome.deterministic_report_json)
}

#[test]
fn warm_shared_cache_leaves_job_checkpoint_and_report_unchanged() {
    // Reference: the job alone on a fresh daemon.
    let fresh_dir = scratch("warm-shared-fresh");
    let (server, sched) = boot(&fresh_dir, 1);
    let (fresh_checkpoint, fresh_report) = run_to_completion(&server, &sched, &fresh_dir, 13);
    server.shutdown();
    sched.shutdown();

    // The same spec after other jobs warmed the shared cache — one of
    // them with the same seed, so every evaluation the job needs is
    // already shared.
    let warm_dir = scratch("warm-shared-warm");
    let (server, sched) = boot(&warm_dir, 1);
    for seed in [5, 13] {
        run_to_completion(&server, &sched, &warm_dir, seed);
    }
    let before = sched.cache().stats();
    let (checkpoint, report) = run_to_completion(&server, &sched, &warm_dir, 13);
    let after = sched.cache().stats();
    assert!(
        checkpoint == fresh_checkpoint,
        "a job's checkpoint must not depend on which jobs ran before it"
    );
    assert_eq!(report, fresh_report);
    // Cross-job reuse is kept: every miss of the job's own cache was
    // answered by the shared cache.
    assert!(after.hits > before.hits, "{before:?} -> {after:?}");
    assert_eq!(after.misses, before.misses, "{before:?} -> {after:?}");
    // The checkpoint carries the job's own entries, not the daemon's.
    let shared_trace = sched.cache().to_trace();
    assert!(
        checkpoint.len() < shared_trace.len(),
        "checkpoint {} B vs shared trace {} B",
        checkpoint.len(),
        shared_trace.len()
    );
    server.shutdown();
    sched.shutdown();
}

#[test]
fn event_stream_is_ndjson_terminated_by_done() {
    let dir = scratch("events");
    let (server, sched) = boot(&dir, 1);
    let addr = server.addr();
    let id = post_job(addr, &seeded_spec(11, None));

    // Subscribe while the job runs; read until the server closes.
    let (status, framed) = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(status, 200);
    let payload = decode_chunked(&framed).expect("well-formed chunked stream");
    let lines: Vec<&str> = payload.lines().collect();
    assert!(!lines.is_empty());
    for line in &lines {
        json::parse(line).unwrap_or_else(|e| panic!("invalid NDJSON line {line:?}: {e}"));
    }
    let last = json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        last.get("event").unwrap().as_str("event").unwrap(),
        "done",
        "stream must terminate with a done event: {payload}"
    );
    let iteration_lines = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"iteration\""))
        .count();
    assert_eq!(iteration_lines, 3, "one event per iteration: {payload}");

    // Late subscriber: the job is long done, the stream replays the
    // log and still terminates with done.
    wait_for_state(addr, &id, "completed");
    let (_, framed) = get(addr, &format!("/v1/jobs/{id}/events"));
    let replay = decode_chunked(&framed).expect("replay stream");
    assert!(replay
        .lines()
        .last()
        .unwrap()
        .contains("\"event\":\"done\""));

    // Cancelled jobs also close their stream with done.
    let victim = post_job(addr, &seeded_spec(12, None));
    let raw = format!("DELETE /v1/jobs/{victim} HTTP/1.1\r\nconnection: close\r\n\r\n");
    let (code, _) = request(addr, &raw);
    assert_eq!(code, 202);
    server.shutdown();
    sched.shutdown();
}

/// Minimal chunked-transfer decoder (test-side oracle).
fn decode_chunked(mut framed: &str) -> Result<String, String> {
    let mut out = String::new();
    loop {
        let (size_line, rest) = framed.split_once("\r\n").ok_or("missing chunk size line")?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            return Ok(out);
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".to_string());
        }
        out.push_str(&rest[..size]);
        framed = &rest[size + 2..];
    }
}
