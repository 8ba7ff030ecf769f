//! Connection-lifecycle regressions over the event-driven core.
//!
//! These are the bugs the readiness poller exposed and fixed:
//!
//! * a half-sent request line used to pin a worker thread forever —
//!   now the slowloris deadline reaps it (best-effort 408);
//! * an idle keep-alive connection used to occupy a thread until the
//!   daemon died — now the idle deadline drops it, while reuse within
//!   the window keeps working;
//! * a stalled `/events` subscriber used to park a thread and could
//!   back-pressure the job's iteration callback — now its bounded
//!   queue overflows, it is disconnected with a terminal NDJSON
//!   `error` line, the drop is counted in the stats, and job progress
//!   (plus healthy subscribers) is unaffected;
//! * a failed bind or scheduler boot used to panic the daemon — now
//!   both exit nonzero with a one-line diagnostic.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unico_model::EvalCache;
use unico_serve::{json, Scheduler, ServeConfig, Server};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("unico-serve-lifecycle")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn boot_with(name: &str, tune: impl FnOnce(&mut ServeConfig)) -> (Server, Arc<Scheduler>) {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        state_dir: scratch(name),
        ..ServeConfig::default()
    };
    tune(&mut cfg);
    let sched = Scheduler::start(&cfg, Arc::new(EvalCache::new())).expect("boot scheduler");
    let server = Server::serve(&cfg, Arc::clone(&sched)).expect("boot server");
    (server, sched)
}

/// Reads until the server closes the connection (or the cap expires);
/// returns whatever arrived.
fn read_until_close(conn: &mut TcpStream, cap: Duration) -> String {
    conn.set_read_timeout(Some(cap)).unwrap();
    let mut text = String::new();
    let mut buf = [0u8; 4096];
    let start = Instant::now();
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return text,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                assert!(
                    start.elapsed() < cap,
                    "server never closed; got so far: {text:?}"
                );
            }
            Err(e) => panic!("read: {e}"),
        }
    }
}

fn request(addr: SocketAddr, raw: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(raw.as_bytes()).expect("send");
    read_until_close(&mut conn, Duration::from_secs(30))
}

fn job_spec(seed: u64, max_iter: usize) -> String {
    format!(
        r#"{{"platform": "spatial-edge", "workloads": ["mobilenet"],
             "max_iter": {max_iter}, "batch": 6, "b_max": 32, "candidate_pool": 32,
             "power_cap_mw": 2000, "seed": {seed}}}"#
    )
}

fn submit(addr: SocketAddr, spec: &str) -> String {
    let resp = request(
        addr,
        &format!(
            "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{spec}",
            spec.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 201"), "submit failed: {resp}");
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap();
    json::parse(body)
        .expect("submit response")
        .get("id")
        .expect("id")
        .as_str("id")
        .expect("id string")
        .to_string()
}

fn wait_completed(addr: SocketAddr, id: &str) {
    for _ in 0..1200 {
        let resp = request(
            addr,
            &format!("GET /v1/jobs/{id} HTTP/1.1\r\nconnection: close\r\n\r\n"),
        );
        if resp.contains("\"state\":\"completed\"") {
            return;
        }
        assert!(
            !resp.contains("\"state\":\"failed\""),
            "job {id} failed: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {id} never completed");
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

#[test]
fn half_sent_request_is_reaped_by_the_slowloris_deadline() {
    let (server, sched) = boot_with("slowloris", |cfg| {
        cfg.head_timeout = Duration::from_millis(300);
    });
    let addr = server.addr();

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"GET /heal").expect("half a request line");
    // Trickling more bytes must NOT reset the deadline.
    std::thread::sleep(Duration::from_millis(150));
    let _ = conn.write_all(b"t");

    let t0 = Instant::now();
    let resp = read_until_close(&mut conn, Duration::from_secs(10));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "reap must be prompt, took {:?}",
        t0.elapsed()
    );
    // Best-effort 408 when the socket could still take it.
    if !resp.is_empty() {
        assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");
    }
    assert!(
        server
            .stats()
            .connection_timeouts_total
            .load(Ordering::Relaxed)
            >= 1,
        "timeout must be counted"
    );

    // The server is still healthy for well-behaved clients.
    let ok = request(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    server.shutdown();
    sched.shutdown();
}

#[test]
fn keep_alive_reuse_within_the_window_survives_and_idle_is_reaped() {
    let (server, sched) = boot_with("idle", |cfg| {
        cfg.idle_timeout = Duration::from_millis(400);
    });
    let addr = server.addr();

    // Reuse within the window: two requests with a pause shorter than
    // the idle timeout, on one connection.
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for pause in [Duration::ZERO, Duration::from_millis(150)] {
        std::thread::sleep(pause);
        conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut got = String::new();
        let mut buf = [0u8; 1024];
        while !got.contains("{\"ok\":true}") {
            let n = conn.read(&mut buf).expect("read");
            assert!(n > 0, "connection died inside the idle window: {got:?}");
            got.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
    }

    // Now go idle past the window: the server reaps the connection.
    let t0 = Instant::now();
    let rest = read_until_close(&mut conn, Duration::from_secs(10));
    assert!(rest.is_empty(), "idle reap sends nothing: {rest:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "idle reap must be prompt, took {:?}",
        t0.elapsed()
    );
    assert!(
        server
            .stats()
            .connection_timeouts_total
            .load(Ordering::Relaxed)
            >= 1
    );
    server.shutdown();
    sched.shutdown();
}

#[test]
fn stalled_subscriber_overflowing_its_queue_is_dropped_with_an_error_line() {
    // Zero workers: the submitted job stays queued forever, so its
    // event log is open and nothing but this test writes to it — the
    // flood below is fully deterministic, in debug and release alike.
    let (server, sched) = boot_with("stalled-subscriber", |cfg| {
        cfg.workers = 0;
        cfg.subscriber_queue_max = 16 * 1024;
    });
    let addr = server.addr();
    let queued = submit(addr, &job_spec(2, 3));

    // A stalled subscriber: subscribes, then never reads.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    stalled
        .write_all(format!("GET /v1/jobs/{queued}/events HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(150)); // let it subscribe

    // Flood: 64 KiB of synthetic events against the 16 KiB queue bound.
    let job = sched.get(&queued).expect("queued job");
    let pad = "x".repeat(1000);
    for i in 0..64 {
        job.events.push(format!(
            "{{\"event\":\"flood\",\"n\":{i},\"pad\":\"{pad}\"}}"
        ));
    }

    // The poller must disconnect the stalled subscriber and count it.
    let stats = server.stats();
    for _ in 0..200 {
        if stats.slow_subscribers_dropped_total.load(Ordering::Relaxed) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        stats.slow_subscribers_dropped_total.load(Ordering::Relaxed),
        1,
        "stalled subscriber must be dropped"
    );
    assert!(
        stats
            .subscriber_events_dropped_total
            .load(Ordering::Relaxed)
            > 0,
        "dropped event lines must be counted"
    );

    // The stalled client's stream ends with a terminal NDJSON error
    // line and a well-formed chunk terminator.
    let text = read_until_close(&mut stalled, Duration::from_secs(10));
    let framed = text.split_once("\r\n\r\n").map(|(_, f)| f).unwrap();
    let payload = decode_chunked(framed).expect("well-formed despite the drop");
    let last = payload.lines().last().expect("at least the error line");
    let doc = json::parse(last).expect("terminal line is JSON");
    assert_eq!(
        doc.get("event").unwrap().as_str("event").unwrap(),
        "error",
        "stream must end with the error event: {payload}"
    );

    // The drop shows up in the exposition.
    let metrics = request(addr, "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    assert!(
        metrics.contains("unico_serve_slow_subscribers_dropped_total 1"),
        "{metrics}"
    );
    server.shutdown();
    sched.shutdown();
}

#[test]
fn stalled_reader_does_not_block_job_progress_or_healthy_subscribers() {
    let (server, sched) = boot_with("stalled-progress", |cfg| {
        // Short drain deadline so the finished-but-unread stream is
        // cleaned up promptly at the end of the test.
        cfg.head_timeout = Duration::from_millis(500);
    });
    let addr = server.addr();
    let id = submit(addr, &job_spec(7, 3));

    // A healthy subscriber and a deliberately stalled one, both on the
    // same job. Under the old thread-per-connection design a stalled
    // reader parked a thread for the job's lifetime; here it must be
    // invisible to everyone else.
    let mut healthy = TcpStream::connect(addr).expect("connect healthy");
    healthy
        .write_all(format!("GET /v1/jobs/{id}/events HTTP/1.1\r\n\r\n").as_bytes())
        .unwrap();
    let stalled = TcpStream::connect(addr).expect("connect stalled");
    {
        let mut s = &stalled;
        s.write_all(format!("GET /v1/jobs/{id}/events HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
    }

    // The job completes promptly despite the stalled reader, and the
    // healthy subscriber sees every iteration plus the done event.
    wait_completed(addr, &id);
    let text = read_until_close(&mut healthy, Duration::from_secs(30));
    let framed = text.split_once("\r\n\r\n").map(|(_, f)| f).unwrap();
    let payload = decode_chunked(framed).expect("healthy stream stays well-formed");
    let iterations = payload
        .lines()
        .filter(|l| l.contains("\"event\":\"iteration\""))
        .count();
    assert_eq!(
        iterations, 3,
        "healthy subscriber misses nothing: {payload}"
    );
    assert!(payload
        .lines()
        .last()
        .unwrap()
        .contains("\"event\":\"done\""));
    assert_eq!(
        server
            .stats()
            .slow_subscribers_dropped_total
            .load(Ordering::Relaxed),
        0,
        "small streams never overflow the default queue bound"
    );
    drop(stalled);
    server.shutdown();
    sched.shutdown();
}

/// Request bodies are parsed on the poller thread, so decoding one
/// large body must not hold up every other connection. A quadratic
/// string decoder keeps a `max_body`-sized string field on the poller
/// for over 30 s even in a release build.
#[test]
fn max_body_string_field_does_not_stall_other_connections() {
    let (server, sched) = boot_with("large-string-body", |_| {});
    let addr = server.addr();
    let max_body = ServeConfig::default().max_body;

    // An unknown platform name of about 1 MiB, padded so the body is
    // exactly `max_body` bytes: it must be decoded in full before the
    // spec can be rejected.
    let frame = r#"{"platform": ""}"#.len();
    let mut name = "n\u{e9}twork-".repeat(max_body / 9);
    while frame + name.len() > max_body {
        name.pop();
    }
    while frame + name.len() < max_body {
        name.push('x');
    }
    let body = format!(r#"{{"platform": "{name}"}}"#);
    assert_eq!(body.len(), max_body);
    let mut big = TcpStream::connect(addr).expect("connect");
    let big_reply = {
        let mut conn = big.try_clone().expect("clone");
        std::thread::spawn(move || read_until_close(&mut conn, Duration::from_secs(60)))
    };
    big.write_all(
        format!(
            "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .expect("send large body");
    // Let the server pick the body up before the probe arrives.
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    let health = request(addr, "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n");
    let waited = t0.elapsed();
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(
        waited < Duration::from_secs(1),
        "/healthz waited {waited:?} behind a large body"
    );

    let reply = big_reply.join().expect("reader");
    assert!(
        reply.starts_with("HTTP/1.1 4"),
        "{}",
        reply.chars().take(200).collect::<String>()
    );
    server.shutdown();
    sched.shutdown();
}

#[test]
fn daemon_binary_reports_bind_failure_and_exits_nonzero() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("hold a port");
    let out = Command::new(env!("CARGO_BIN_EXE_unico-served"))
        .env("UNICO_SERVE_ADDR", taken.local_addr().unwrap().to_string())
        .env("UNICO_SERVE_STATE_DIR", scratch("bin-bind"))
        .output()
        .expect("run daemon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "bind clash must exit nonzero");
    assert!(stderr.contains("unico-served:"), "{stderr}");
    assert!(stderr.contains("bind"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn daemon_binary_reports_scheduler_boot_failure_and_exits_nonzero() {
    let dir = scratch("bin-state");
    let file = dir.join("state-is-a-file");
    std::fs::write(&file, b"x").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_unico-served"))
        .env("UNICO_SERVE_ADDR", "127.0.0.1:0")
        .env("UNICO_SERVE_STATE_DIR", &file)
        .output()
        .expect("run daemon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "state-dir clash must exit nonzero");
    assert!(stderr.contains("unico-served:"), "{stderr}");
    assert!(stderr.contains("state-is-a-file"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no panic backtrace: {stderr}");
}

#[test]
fn daemon_binary_reports_malformed_config_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_unico-served"))
        .env("UNICO_SERVE_ADDR", "127.0.0.1:0")
        .env("UNICO_SERVE_STATE_DIR", scratch("bin-config"))
        .env("UNICO_SERVE_HEAD_TIMEOUT_MS", "soon")
        .output()
        .expect("run daemon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("UNICO_SERVE_HEAD_TIMEOUT_MS"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
