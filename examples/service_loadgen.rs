//! Service-mode load generator: boots an in-process `unico-served`
//! daemon, fires N concurrent jobs at its HTTP API, and demonstrates
//! the cross-job evaluation-cache effect — jobs over the same workload
//! warm each other's PPA evaluations, so the fleet's aggregate cache
//! hits exceed what any single job can achieve alone.
//!
//! ```sh
//! cargo run --release --example service_loadgen
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use unico::prelude::*;
use unico::serve::{json, metrics};

fn spec(seed: u64) -> String {
    format!(
        r#"{{"platform": "spatial-edge", "workloads": ["mobilenet"],
             "max_iter": 3, "batch": 6, "b_max": 32, "candidate_pool": 32,
             "power_cap_mw": 2000, "seed": {seed}}}"#
    )
}

fn request(addr: SocketAddr, raw: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    conn.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    conn.write_all(raw.as_bytes()).expect("send request");
    let mut text = String::new();
    conn.read_to_string(&mut text).expect("read response");
    text
}

fn body(resp: &str) -> &str {
    resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
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
    json::parse(body(&resp))
        .expect("submit response")
        .get("id")
        .expect("id")
        .as_str("id")
        .expect("id string")
        .to_string()
}

fn await_completion(addr: SocketAddr, id: &str) {
    loop {
        let resp = request(
            addr,
            &format!("GET /v1/jobs/{id} HTTP/1.1\r\nconnection: close\r\n\r\n"),
        );
        let state = json::parse(body(&resp))
            .expect("status")
            .get("state")
            .expect("state")
            .as_str("state")
            .expect("state string")
            .to_string();
        match state.as_str() {
            "completed" => return,
            "failed" | "cancelled" => panic!("job {id} ended {state}"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Boots a daemon over a scratch state dir with `workers` workers and
/// its own shared cache; returns the pieces plus the cache handle.
fn boot(tag: &str, workers: usize) -> (Server, Arc<Scheduler>, Arc<EvalCache>, SocketAddr) {
    let state_dir = std::env::temp_dir().join("unico-loadgen").join(tag);
    std::fs::remove_dir_all(&state_dir).ok();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        state_dir,
        ..ServeConfig::default()
    };
    let cache = Arc::new(EvalCache::new());
    let sched = Scheduler::start(&cfg, Arc::clone(&cache)).expect("boot scheduler");
    let server = Server::serve(&cfg, Arc::clone(&sched)).expect("boot server");
    let addr = server.addr();
    (server, sched, cache, addr)
}

fn main() {
    // Baseline: one daemon, one job — how many shared-cache hits does a
    // single run produce on its own? Its repeat lookups are answered by
    // the job's own cache, so none should reach the shared one.
    let (server, sched, cache, addr) = boot("baseline", 1);
    let id = submit(addr, &spec(7));
    await_completion(addr, &id);
    let baseline_hits = cache.stats().hits;
    println!("single-job baseline: {baseline_hits} cache hits");
    server.shutdown();
    sched.shutdown();

    // Fleet: N concurrent jobs, two per seed, against one daemon with
    // a shared cache. Same-seed pairs evaluate identical hardware
    // candidates, so the later job replays the earlier one's misses.
    let jobs = 4;
    let (server, sched, cache, addr) = boot("fleet", 2);
    let ids: Vec<String> = (0..jobs)
        .map(|i| submit(addr, &spec(7 + (i % 2) as u64)))
        .collect();
    println!("submitted {jobs} concurrent jobs: {ids:?}");
    for id in &ids {
        await_completion(addr, id);
    }

    let stats = cache.stats();
    println!(
        "fleet aggregate: {} hits / {} misses (hit rate {:.1}%)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate()
    );
    let metrics_resp = request(addr, "GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n");
    let exposition = body(&metrics_resp);
    metrics::validate_exposition(exposition).expect("metrics exposition parses");
    for line in exposition.lines().filter(|l| {
        l.starts_with("unico_serve_cache_") || l.starts_with("unico_serve_jobs_completed_total")
    }) {
        println!("  {line}");
    }

    assert!(
        stats.hits > baseline_hits,
        "cross-job sharing must beat the single-job baseline \
         ({} aggregate hits vs {baseline_hits})",
        stats.hits
    );
    println!(
        "cross-job cache effect confirmed: {} aggregate hits > {baseline_hits} single-job hits",
        stats.hits
    );
    server.shutdown();
    sched.shutdown();
}
