//! Prometheus text-format exposition for `GET /metrics`.
//!
//! The daemon exports scheduler gauges (queue depth, running jobs),
//! lifecycle counters, shared-cache statistics, and the per-phase
//! wall-clock totals aggregated over finished runs. Everything is
//! rendered in the text exposition format (`# HELP` / `# TYPE` /
//! sample lines) and [`validate_exposition`] re-parses the output so
//! both the unit tests and the CI smoke test can assert the format is
//! well-formed rather than eyeballing it.

use std::sync::atomic::Ordering;

use crate::cluster::ClusterState;
use crate::conn::NetStats;
use crate::scheduler::Scheduler;

/// Renders the daemon's metrics in Prometheus text format: scheduler
/// state plus the poller thread's connection-layer gauges/counters.
/// With cluster state attached (coordinator mode), the fleet's lease
/// counters and worker-reported cache totals are included.
pub fn render(sched: &Scheduler, net: &NetStats, cluster: Option<&ClusterState>) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, help: &str, value: f64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    gauge(
        "unico_serve_queue_depth",
        "Jobs waiting for a worker.",
        sched.queue_depth() as f64,
    );
    gauge(
        "unico_serve_jobs_running",
        "Jobs currently executing.",
        sched.running_count() as f64,
    );
    gauge(
        "unico_serve_open_connections",
        "Connections registered with the poller.",
        net.open_connections.load(Ordering::Relaxed) as f64,
    );
    gauge(
        "unico_serve_event_subscribers",
        "Connections currently streaming /events.",
        net.event_subscribers.load(Ordering::Relaxed) as f64,
    );
    gauge(
        "unico_serve_subscriber_queue_bytes",
        "Bytes queued towards /events subscribers, summed over connections.",
        net.subscriber_queue_bytes.load(Ordering::Relaxed) as f64,
    );

    let c = &sched.counters;
    for (name, help, value) in [
        (
            "unico_serve_connections_accepted_total",
            "Connections accepted since boot.",
            net.accepted_total.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_requests_total",
            "Requests parsed and routed since boot.",
            net.requests_total.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_slow_subscribers_dropped_total",
            "Subscribers disconnected for not draining their event queue.",
            net.slow_subscribers_dropped_total.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_subscriber_events_dropped_total",
            "Event lines dropped on slow-subscriber disconnects.",
            net.subscriber_events_dropped_total.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_connection_timeouts_total",
            "Connections reaped by the idle or header-read deadline.",
            net.connection_timeouts_total.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_submitted_total",
            "Jobs accepted via the API or recovered from disk.",
            c.submitted.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_completed_total",
            "Jobs finished with a result.",
            c.completed.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_failed_total",
            "Jobs that panicked.",
            c.failed.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_cancelled_total",
            "Jobs cancelled before finishing.",
            c.cancelled.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_resumed_total",
            "Jobs resumed from a checkpoint after a restart.",
            c.resumed.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_recovered_total",
            "Jobs requeued by the boot-time recovery scan.",
            c.recovered.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_kills_simulated_total",
            "kill_after test-hook firings.",
            c.kills_simulated.load(Ordering::Relaxed),
        ),
        (
            "unico_serve_jobs_rejected_total",
            "Submissions rejected by the admission bound (429).",
            c.rejected.load(Ordering::Relaxed),
        ),
    ] {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }

    let stats = sched.cache().stats();
    out.push_str(&format!(
        "# HELP unico_serve_cache_hits_total Lookups that missed a job's own eval cache and were answered by the shared cache.\n# TYPE unico_serve_cache_hits_total counter\nunico_serve_cache_hits_total {}\n",
        stats.hits
    ));
    out.push_str(&format!(
        "# HELP unico_serve_cache_misses_total Lookups that missed a job's own eval cache and the shared cache alike.\n# TYPE unico_serve_cache_misses_total counter\nunico_serve_cache_misses_total {}\n",
        stats.misses
    ));
    out.push_str(&format!(
        "# HELP unico_serve_cache_entries Entries resident in the shared eval cache (the union of every job's computes).\n# TYPE unico_serve_cache_entries gauge\nunico_serve_cache_entries {}\n",
        stats.entries
    ));
    out.push_str(&format!(
        "# HELP unico_serve_cache_hit_rate Shared eval-cache hit rate over the lookups that missed a job's own cache.\n# TYPE unico_serve_cache_hit_rate gauge\nunico_serve_cache_hit_rate {}\n",
        stats.hit_rate()
    ));

    if let Some(disk) = sched.cache().disk_stats() {
        for (name, help, kind, value) in [
            (
                "unico_serve_disk_cache_hits_total",
                "Disk-tier lookups that served an in-memory miss.",
                "counter",
                disk.hits,
            ),
            (
                "unico_serve_disk_cache_misses_total",
                "Disk-tier lookups that fell through to compute.",
                "counter",
                disk.misses,
            ),
            (
                "unico_serve_disk_cache_entries",
                "Disk-tier entries indexed in memory.",
                "gauge",
                disk.entries,
            ),
            (
                "unico_serve_disk_cache_segments_loaded_total",
                "Disk-tier segment files absorbed from peers.",
                "counter",
                disk.segments_loaded,
            ),
            (
                "unico_serve_disk_cache_segments_skipped_total",
                "Torn or unreadable segment files skipped, never trusted.",
                "counter",
                disk.segments_skipped,
            ),
            (
                "unico_serve_disk_cache_entries_written_total",
                "Entries flushed into new segment files.",
                "counter",
                disk.entries_written,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
    }

    if let Some(cs) = cluster {
        let cc = &cs.counters;
        out.push_str(&format!(
            "# HELP unico_cluster_active_leases Jobs currently leased to workers.\n# TYPE unico_cluster_active_leases gauge\nunico_cluster_active_leases {}\n",
            cs.active_leases()
        ));
        out.push_str(&format!(
            "# HELP unico_cluster_workers_seen Distinct workers that have reported in.\n# TYPE unico_cluster_workers_seen gauge\nunico_cluster_workers_seen {}\n",
            cs.workers_seen()
        ));
        for (name, help, value) in [
            (
                "unico_cluster_leases_granted_total",
                "Leases handed to pulling workers.",
                cc.leases_granted.load(Ordering::Relaxed),
            ),
            (
                "unico_cluster_leases_expired_total",
                "Leases reaped after their worker went silent.",
                cc.leases_expired.load(Ordering::Relaxed),
            ),
            (
                "unico_cluster_remote_completions_total",
                "Jobs completed by remote workers.",
                cc.remote_completions.load(Ordering::Relaxed),
            ),
            (
                "unico_cluster_remote_failures_total",
                "Jobs failed by remote workers.",
                cc.remote_failures.load(Ordering::Relaxed),
            ),
            (
                "unico_cluster_heartbeats_total",
                "Heartbeats received from workers.",
                cc.heartbeats.load(Ordering::Relaxed),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        let fleet = cs.fleet_cache();
        for (name, help, value) in [
            (
                "unico_cluster_cache_hits_total",
                "Fleet-wide in-memory cache hits (workers' latest reports).",
                fleet.hits,
            ),
            (
                "unico_cluster_cache_misses_total",
                "Fleet-wide in-memory cache misses.",
                fleet.misses,
            ),
            (
                "unico_cluster_disk_cache_hits_total",
                "Fleet-wide disk-tier hits.",
                fleet.disk_hits,
            ),
            (
                "unico_cluster_disk_cache_entries",
                "Fleet-wide disk-tier entries indexed.",
                fleet.disk_entries,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
    }

    let totals = sched.telemetry_totals();
    out.push_str(
        "# HELP unico_serve_phase_seconds_total Wall-clock seconds per optimizer phase, summed over finished runs.\n# TYPE unico_serve_phase_seconds_total counter\n",
    );
    for (phase, secs) in &totals.phases_s {
        out.push_str(&format!(
            "unico_serve_phase_seconds_total{{phase=\"{phase}\"}} {secs}\n"
        ));
    }
    out.push_str(
        "# HELP unico_serve_search_counter_total Optimizer telemetry counters, summed over finished runs.\n# TYPE unico_serve_search_counter_total counter\n",
    );
    for (counter, value) in &totals.counters {
        if *value > 0 {
            out.push_str(&format!(
                "unico_serve_search_counter_total{{counter=\"{counter}\"}} {value}\n"
            ));
        }
    }
    out
}

/// Checks that `text` is well-formed Prometheus text exposition:
/// every non-comment line is `name[{labels}] value`, every sample's
/// metric family was declared by a preceding `# TYPE` line, and every
/// value parses as a finite float.
///
/// # Errors
///
/// A message quoting the first offending line.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut declared: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            if name.is_empty() || parts.next().is_none() {
                return Err(format!("malformed comment line {line:?}"));
            }
            if kind == "TYPE" {
                declared.push(name.to_string());
            } else if kind != "HELP" {
                return Err(format!("unknown comment kind in {line:?}"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without value: {line:?}"))?;
        let name = series.split('{').next().unwrap_or("");
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.is_empty()
        {
            return Err(format!("bad metric name in {line:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("unterminated label set in {line:?}"));
        }
        if !declared.iter().any(|d| d == name) {
            return Err(format!("sample {name:?} missing a # TYPE declaration"));
        }
        let v: f64 = value
            .parse()
            .map_err(|_| format!("bad sample value in {line:?}"))?;
        if !v.is_finite() {
            return Err(format!("non-finite sample value in {line:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition".to_string());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ServeConfig;
    use std::path::PathBuf;
    use std::sync::Arc;
    use unico_model::EvalCache;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("unico-serve-metrics-tests")
            .join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn exposition_of_an_idle_scheduler_validates() {
        let cfg = ServeConfig {
            state_dir: scratch("idle"),
            workers: 1,
            ..ServeConfig::default()
        };
        let sched = Scheduler::start(&cfg, Arc::new(EvalCache::new())).expect("boot");
        let text = render(&sched, &NetStats::default(), None);
        let samples = validate_exposition(&text).expect("valid exposition");
        assert!(samples >= 15, "expected the full catalog, got {samples}");
        assert!(text.contains("unico_serve_queue_depth 0\n"));
        assert!(text.contains("unico_serve_cache_hit_rate"));
        for conn_metric in [
            "unico_serve_open_connections 0\n",
            "unico_serve_event_subscribers 0\n",
            "unico_serve_subscriber_queue_bytes 0\n",
            "unico_serve_connections_accepted_total 0\n",
            "unico_serve_requests_total 0\n",
            "unico_serve_slow_subscribers_dropped_total 0\n",
            "unico_serve_subscriber_events_dropped_total 0\n",
            "unico_serve_connection_timeouts_total 0\n",
        ] {
            assert!(text.contains(conn_metric), "missing {conn_metric:?}");
        }
        sched.shutdown();
    }

    #[test]
    fn coordinator_exposition_includes_cluster_and_disk_metrics() {
        let dir = scratch("coordinator");
        let cfg = ServeConfig {
            state_dir: dir.clone(),
            workers: 0,
            ..ServeConfig::default()
        };
        let tier = unico_model::DiskTier::open(dir.join("disk-cache")).expect("tier");
        let cache = Arc::new(EvalCache::new().with_disk(Arc::new(tier)));
        let sched = Scheduler::start(&cfg, cache).expect("boot");
        let cluster = ClusterState::new(Arc::clone(&sched), std::time::Duration::from_secs(10));
        let text = render(&sched, &NetStats::default(), Some(&cluster));
        validate_exposition(&text).expect("valid exposition");
        for metric in [
            "unico_serve_disk_cache_hits_total 0\n",
            "unico_serve_disk_cache_segments_skipped_total 0\n",
            "unico_cluster_active_leases 0\n",
            "unico_cluster_leases_expired_total 0\n",
            "unico_cluster_disk_cache_hits_total 0\n",
        ] {
            assert!(text.contains(metric), "missing {metric:?} in:\n{text}");
        }
        sched.shutdown();
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (bad, needle) in [
            ("metric_without_type 1\n", "TYPE"),
            ("# TYPE m gauge\nm\n", "without value"),
            ("# TYPE m gauge\nm one\n", "bad sample value"),
            ("# TYPE m gauge\nm{unterminated 1\n", "unterminated"),
            ("# TYPE m gauge\n9bad~name 2\n", "bad metric name"),
            ("", "no samples"),
        ] {
            let err = validate_exposition(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }
}
