//! Job specifications and daemon configuration.
//!
//! A [`JobSpec`] is the client's description of one co-optimization
//! run: which platform, which workloads, which budgets, which seed.
//! It round-trips through JSON (the submit body and the persisted job
//! manifest share the same encoding) and validates eagerly so a typo
//! is a 422 at submit time, not a worker panic an hour later.
//!
//! [`ServeConfig`] is the daemon's own configuration, read from
//! `UNICO_SERVE_*` environment variables with the repo's loud-failure
//! convention: a malformed value crashes the daemon at boot naming the
//! variable, it never silently falls back to a default.

use std::path::PathBuf;
use std::time::Duration;

use unico_core::UnicoConfig;
use unico_search::EnvConfig;
use unico_workloads::zoo;

use crate::json::{self, Json};

/// Which hardware platform model a job targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// `SpatialPlatform::edge()` — the paper's open-source edge setting.
    SpatialEdge,
    /// `SpatialPlatform::cloud()` — the open-source cloud setting.
    SpatialCloud,
    /// `AscendPlatform::new()` — the cycle-accurate Ascend-like model.
    Ascend,
}

impl PlatformKind {
    /// The wire name, identical to `Platform::name()` of the model it
    /// selects (so checkpoints and manifests agree on the string).
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::SpatialEdge => "spatial-edge",
            PlatformKind::SpatialCloud => "spatial-cloud",
            PlatformKind::Ascend => "ascend-like",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "spatial-edge" => Ok(PlatformKind::SpatialEdge),
            "spatial-cloud" => Ok(PlatformKind::SpatialCloud),
            "ascend-like" => Ok(PlatformKind::Ascend),
            other => Err(format!(
                "platform: unknown {other:?} (expected spatial-edge, spatial-cloud or ascend-like)"
            )),
        }
    }
}

/// A validated job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Target platform model.
    pub platform: PlatformKind,
    /// Workload names from the model zoo (validated at parse time).
    pub workloads: Vec<String>,
    /// MOBO iterations (`MaxIter`).
    pub max_iter: usize,
    /// Hardware batch size per iteration (`N`).
    pub batch: usize,
    /// Maximum per-job mapping-search budget (`b_max`).
    pub b_max: u64,
    /// Acquisition candidate-pool size.
    pub candidate_pool: usize,
    /// RNG seed; fixed seed + fixed spec ⇒ deterministic result.
    pub seed: u64,
    /// Keep only the `n` highest-MAC layers per network.
    pub max_layers_per_network: usize,
    /// Optional power cap in milliwatts.
    pub power_cap_mw: Option<f64>,
    /// Optional area cap in square millimeters.
    pub area_cap_mm2: Option<f64>,
    /// Checkpoint cadence in iterations.
    pub checkpoint_every: usize,
    /// Test hook: panic at this checkpoint boundary, emulating a hard
    /// daemon kill mid-run (exercised by the durability oracle).
    pub kill_after: Option<usize>,
    /// Tenant label for fair round-robin admission; jobs with the same
    /// tenant share one queue lane, empty string is the default lane.
    pub tenant: String,
    /// Override for the engine's internal cost-accounting worker count
    /// (`UnicoConfig::workers`). Part of the deterministic fingerprint:
    /// the same spec must select the same simulated clock everywhere.
    pub engine_workers: Option<u32>,
    /// Inline graph in the frontend's JSON form, imported through
    /// `unico_workloads::frontend` and co-optimized (with inter-layer
    /// fusion) alongside any zoo `workloads`. Validated at submit time.
    pub graph: Option<String>,
    /// Path of a committed model file (`.json` graph or ONNX-subset
    /// `.onnx`), relative to the daemon's state dir. Must stay inside
    /// the state dir (no absolute paths, no `..`).
    pub graph_file: Option<String>,
}

impl JobSpec {
    /// Parses and validates a submission body.
    ///
    /// # Errors
    ///
    /// A message naming the offending field: unknown platform or
    /// workload, zero budgets, or wrong JSON types. An inline `graph` is
    /// only checked to be a string here; [`parse_submission`] imports
    /// it, so decoding a persisted or forwarded spec does not.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        v.as_obj("job spec")?;
        let platform = PlatformKind::from_name(
            v.get("platform")
                .ok_or("platform: required field missing")?
                .as_str("platform")?,
        )?;
        let workloads: Vec<String> = match v.get("workloads") {
            Some(arr) => arr
                .as_arr("workloads")?
                .iter()
                .map(|w| w.as_str("workloads[]").map(str::to_string))
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        let graph = v
            .get("graph")
            .map(|j| j.as_str("graph").map(str::to_string))
            .transpose()?;
        let graph_file = v
            .get("graph_file")
            .map(|j| j.as_str("graph_file").map(str::to_string))
            .transpose()?;
        if let Some(rel) = &graph_file {
            let p = std::path::Path::new(rel);
            let escapes = rel.is_empty()
                || p.is_absolute()
                || p.components()
                    .any(|c| !matches!(c, std::path::Component::Normal(_)));
            if escapes {
                return Err(format!(
                    "graph_file: {rel:?} must be a relative path inside the state dir"
                ));
            }
        }
        if workloads.is_empty() && graph.is_none() && graph_file.is_none() {
            return Err(
                "workloads: must name at least one network (or provide graph/graph_file)".into(),
            );
        }
        for name in &workloads {
            if zoo::lookup(name).is_none() {
                let nets = zoo::all();
                let known: Vec<&str> = nets.iter().map(|n| n.name()).collect();
                return Err(format!(
                    "workloads: unknown network {name:?} (known: {})",
                    known.join(", ")
                ));
            }
        }

        let get_usize = |key: &str, default: usize| -> Result<usize, String> {
            v.get(key).map_or(Ok(default), |j| j.as_usize(key))
        };
        let spec = JobSpec {
            platform,
            workloads,
            max_iter: get_usize("max_iter", 3)?,
            batch: get_usize("batch", 6)?,
            b_max: v.get("b_max").map_or(Ok(32), |j| j.as_u64("b_max"))?,
            candidate_pool: get_usize("candidate_pool", 32)?,
            seed: v.get("seed").map_or(Ok(0), |j| j.as_u64("seed"))?,
            max_layers_per_network: get_usize("max_layers_per_network", 1)?,
            power_cap_mw: v
                .get("power_cap_mw")
                .map(|j| j.as_f64("power_cap_mw"))
                .transpose()?,
            area_cap_mm2: v
                .get("area_cap_mm2")
                .map(|j| j.as_f64("area_cap_mm2"))
                .transpose()?,
            checkpoint_every: get_usize("checkpoint_every", 1)?,
            kill_after: v
                .get("kill_after")
                .map(|j| j.as_usize("kill_after"))
                .transpose()?,
            tenant: v
                .get("tenant")
                .map(|j| j.as_str("tenant").map(str::to_string))
                .transpose()?
                .unwrap_or_default(),
            engine_workers: v
                .get("engine_workers")
                .map(|j| j.as_usize("engine_workers"))
                .transpose()?
                .map(|w| w as u32),
            graph,
            graph_file,
        };
        if spec.engine_workers == Some(0) {
            return Err("engine_workers: must be positive".into());
        }
        for (field, value) in [
            ("max_iter", spec.max_iter),
            ("batch", spec.batch),
            ("candidate_pool", spec.candidate_pool),
            ("checkpoint_every", spec.checkpoint_every),
        ] {
            if value == 0 {
                return Err(format!("{field}: must be positive"));
            }
        }
        if spec.b_max == 0 {
            return Err("b_max: must be positive".into());
        }
        Ok(spec)
    }

    /// Renders the spec back to JSON (manifest persistence; parses
    /// back via [`JobSpec::from_json`] to the identical value).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "platform".to_string(),
                Json::Str(self.platform.name().to_string()),
            ),
            (
                "workloads".to_string(),
                Json::Arr(self.workloads.iter().cloned().map(Json::Str).collect()),
            ),
            ("max_iter".to_string(), Json::U64(self.max_iter as u64)),
            ("batch".to_string(), Json::U64(self.batch as u64)),
            ("b_max".to_string(), Json::U64(self.b_max)),
            (
                "candidate_pool".to_string(),
                Json::U64(self.candidate_pool as u64),
            ),
            ("seed".to_string(), Json::U64(self.seed)),
            (
                "max_layers_per_network".to_string(),
                Json::U64(self.max_layers_per_network as u64),
            ),
            (
                "checkpoint_every".to_string(),
                Json::U64(self.checkpoint_every as u64),
            ),
        ];
        if let Some(p) = self.power_cap_mw {
            fields.push(("power_cap_mw".to_string(), Json::F64(p)));
        }
        if let Some(a) = self.area_cap_mm2 {
            fields.push(("area_cap_mm2".to_string(), Json::F64(a)));
        }
        if let Some(k) = self.kill_after {
            fields.push(("kill_after".to_string(), Json::U64(k as u64)));
        }
        if !self.tenant.is_empty() {
            fields.push(("tenant".to_string(), Json::Str(self.tenant.clone())));
        }
        if let Some(w) = self.engine_workers {
            fields.push(("engine_workers".to_string(), Json::U64(w as u64)));
        }
        if let Some(g) = &self.graph {
            fields.push(("graph".to_string(), Json::Str(g.clone())));
        }
        if let Some(g) = &self.graph_file {
            fields.push(("graph_file".to_string(), Json::Str(g.clone())));
        }
        Json::Obj(fields)
    }

    /// The optimizer configuration this spec selects.
    pub fn unico_config(&self) -> UnicoConfig {
        let mut cfg = UnicoConfig {
            max_iter: self.max_iter,
            batch: self.batch,
            b_max: self.b_max,
            candidate_pool: self.candidate_pool,
            seed: self.seed,
            ..UnicoConfig::default()
        };
        if let Some(w) = self.engine_workers {
            cfg.workers = w;
        }
        cfg
    }

    /// The evaluation-environment configuration this spec selects.
    pub fn env_config(&self) -> EnvConfig {
        EnvConfig {
            max_layers_per_network: self.max_layers_per_network,
            power_cap_mw: self.power_cap_mw,
            area_cap_mm2: self.area_cap_mm2,
        }
    }

    /// A stable fingerprint of the evaluation-relevant parts of the
    /// spec (used to recognize "same workload" across jobs in metrics).
    pub fn workload_key(&self) -> String {
        let mut parts = self.workloads.clone();
        if self.graph.is_some() {
            parts.push("inline-graph".to_string());
        }
        if let Some(f) = &self.graph_file {
            parts.push(f.clone());
        }
        format!("{}:{}", self.platform.name(), parts.join("+"))
    }
}

/// Loads the spec's imported graphs: the inline `graph` JSON and/or
/// the `graph_file` resolved against `state_dir` (see
/// [`load_graph_file`]).
///
/// # Errors
///
/// A message naming the offending field — unreadable file, non-UTF-8
/// JSON, or a frontend import error — suitable for a loud job failure
/// at execute time.
pub fn load_graphs(
    spec: &JobSpec,
    state_dir: &std::path::Path,
) -> Result<Vec<unico_workloads::ImportedGraph>, String> {
    let mut graphs = Vec::new();
    if let Some(text) = &spec.graph {
        graphs
            .push(unico_workloads::frontend::import_json(text).map_err(|e| format!("graph: {e}"))?);
    }
    graphs.extend(load_graph_file(spec, state_dir)?);
    Ok(graphs)
}

/// Imports the spec's `graph_file`, if any, resolved against
/// `state_dir` (`.json` parses as a JSON graph, anything else as
/// ONNX-subset wire bytes). Submission resolves only this half: an
/// inline `graph` was already imported by [`parse_submission`].
///
/// # Errors
///
/// A message naming `graph_file` — unreadable file, non-UTF-8 JSON, or
/// a frontend import error — suitable for a 422 at submit time.
pub fn load_graph_file(
    spec: &JobSpec,
    state_dir: &std::path::Path,
) -> Result<Option<unico_workloads::ImportedGraph>, String> {
    use unico_workloads::frontend;
    let Some(rel) = &spec.graph_file else {
        return Ok(None);
    };
    let path = state_dir.join(rel);
    let bytes =
        std::fs::read(&path).map_err(|e| format!("graph_file: reading {}: {e}", path.display()))?;
    let imported = if rel.ends_with(".json") {
        let text = std::str::from_utf8(&bytes)
            .map_err(|_| format!("graph_file: {} is not utf-8", path.display()))?;
        frontend::import_json(text)
    } else {
        frontend::import_onnx(&bytes)
    };
    imported.map(Some).map_err(|e| format!("graph_file: {e}"))
}

/// Daemon configuration, from `UNICO_SERVE_*` environment variables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`UNICO_SERVE_ADDR`, default `127.0.0.1:8787`;
    /// use port 0 to let the OS pick).
    pub addr: String,
    /// Worker threads running jobs (`UNICO_SERVE_WORKERS`, default 2).
    pub workers: usize,
    /// Directory for job manifests, checkpoints and results
    /// (`UNICO_SERVE_STATE_DIR`, default `unico-serve-state`).
    pub state_dir: PathBuf,
    /// Maximum request-body bytes (`UNICO_SERVE_MAX_BODY`, default 1 MiB).
    pub max_body: usize,
    /// Total time a client gets to deliver one complete request head +
    /// body once its first byte arrived — the slowloris guard
    /// (`UNICO_SERVE_HEAD_TIMEOUT_MS`, default 10 s). Also bounds the
    /// final drain of a closing connection.
    pub head_timeout: Duration,
    /// How long an idle keep-alive connection is retained between
    /// requests (`UNICO_SERVE_IDLE_TIMEOUT_MS`, default 60 s).
    pub idle_timeout: Duration,
    /// Maximum bytes queued towards one `/events` subscriber before it
    /// is disconnected as too slow (`UNICO_SERVE_SUBSCRIBER_QUEUE`,
    /// default 256 KiB).
    pub subscriber_queue_max: usize,
    /// Maximum queued (not yet running) jobs before submissions are
    /// rejected with 429 (`UNICO_CLUSTER_MAX_QUEUE`, default 256).
    pub max_queue: usize,
    /// How long a cluster worker may go silent before its lease is
    /// reaped and the job requeued (`UNICO_CLUSTER_LEASE_TIMEOUT_MS`,
    /// default 10 s).
    pub lease_timeout: Duration,
    /// Directory for the shared on-disk eval-cache tier
    /// (`UNICO_CLUSTER_DISK_CACHE`; unset means memory-only).
    pub disk_cache: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8787".to_string(),
            workers: 2,
            state_dir: PathBuf::from("unico-serve-state"),
            max_body: 1024 * 1024,
            head_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            subscriber_queue_max: 256 * 1024,
            max_queue: 256,
            lease_timeout: Duration::from_secs(10),
            disk_cache: None,
        }
    }
}

impl ServeConfig {
    /// Reads the configuration from the environment.
    ///
    /// # Errors
    ///
    /// A message naming the variable on any malformed value — the
    /// daemon must not boot with a silently different configuration
    /// than the operator asked for.
    pub fn try_from_env() -> Result<Self, String> {
        let d = ServeConfig::default();
        let positive = |name: &str| parse_positive(name, env_raw(name).as_deref());
        let millis = |name: &str, default: Duration| -> Result<Duration, String> {
            Ok(positive(name)?
                .map(|ms| Duration::from_millis(ms as u64))
                .unwrap_or(default))
        };
        Ok(ServeConfig {
            addr: std::env::var("UNICO_SERVE_ADDR").unwrap_or(d.addr),
            workers: positive("UNICO_SERVE_WORKERS")?.unwrap_or(d.workers),
            state_dir: std::env::var_os("UNICO_SERVE_STATE_DIR")
                .map(PathBuf::from)
                .unwrap_or(d.state_dir),
            max_body: positive("UNICO_SERVE_MAX_BODY")?.unwrap_or(d.max_body),
            head_timeout: millis("UNICO_SERVE_HEAD_TIMEOUT_MS", d.head_timeout)?,
            idle_timeout: millis("UNICO_SERVE_IDLE_TIMEOUT_MS", d.idle_timeout)?,
            subscriber_queue_max: positive("UNICO_SERVE_SUBSCRIBER_QUEUE")?
                .unwrap_or(d.subscriber_queue_max),
            max_queue: positive("UNICO_CLUSTER_MAX_QUEUE")?.unwrap_or(d.max_queue),
            lease_timeout: millis("UNICO_CLUSTER_LEASE_TIMEOUT_MS", d.lease_timeout)?,
            disk_cache: std::env::var_os("UNICO_CLUSTER_DISK_CACHE").map(PathBuf::from),
        })
    }

    /// [`ServeConfig::try_from_env`], panicking on malformed values
    /// (kept for tests and embedders; the daemon binary reports the
    /// error and exits nonzero instead).
    ///
    /// # Panics
    ///
    /// On any malformed `UNICO_SERVE_*` value.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

fn env_raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Strict positive-integer parser for the `UNICO_SERVE_*` variables:
/// `None` (unset) means "use the default", anything else must be a
/// positive integer or the daemon refuses to boot.
pub fn parse_positive(name: &str, raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|v| *v > 0)
            .map(Some)
            .ok_or_else(|| format!("{name} must be a positive integer, got {s:?}")),
    }
}

/// Parses the body of a submit request into a spec.
///
/// # Errors
///
/// Syntax errors from the JSON layer, validation errors from
/// [`JobSpec::from_json`], or an inline graph the frontend rejects, all
/// suitable for a 400/422 response body.
pub fn parse_submission(body: &[u8]) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let v = json::parse(text)?;
    let spec = JobSpec::from_json(&v)?;
    if let Some(graph) = &spec.graph {
        // Import once, here, so a malformed graph is a 422 at submit
        // time; manifests and cluster-wire specs carry a graph that was
        // already validated and are not re-imported when decoded.
        unico_workloads::frontend::import_json(graph).map_err(|e| format!("graph: {e}"))?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn minimal() -> String {
        r#"{"platform": "spatial-edge", "workloads": ["mobilenet"]}"#.to_string()
    }

    #[test]
    fn minimal_submission_gets_defaults() {
        let spec = parse_submission(minimal().as_bytes()).expect("valid");
        assert_eq!(spec.platform, PlatformKind::SpatialEdge);
        assert_eq!(spec.max_iter, 3);
        assert_eq!(spec.batch, 6);
        assert_eq!(spec.checkpoint_every, 1);
        assert_eq!(spec.kill_after, None);
        let cfg = spec.unico_config();
        assert_eq!((cfg.max_iter, cfg.batch, cfg.b_max), (3, 6, 32));
    }

    /// Seeds past 2^53 (where a double starts rounding) survive the
    /// manifest and cluster-wire round trip exactly; one past `u64::MAX`
    /// is rejected rather than truncated.
    #[test]
    fn large_seeds_round_trip_exactly() {
        for seed in [(1u64 << 53) + 1, u64::MAX] {
            let body = format!(
                r#"{{"platform": "spatial-edge", "workloads": ["mobilenet"], "seed": {seed}}}"#
            );
            let spec = parse_submission(body.as_bytes()).expect("valid");
            assert_eq!(spec.seed, seed);
            let rendered = spec.to_json().to_string();
            assert!(rendered.contains(&format!("\"seed\":{seed}")), "{rendered}");
            let back = parse_submission(rendered.as_bytes()).expect("re-parses");
            assert_eq!(back.seed, seed);
            assert_eq!(back, spec);
        }
        let body = r#"{"platform": "spatial-edge", "workloads": ["mobilenet"], "seed": 18446744073709551616}"#;
        let err = parse_submission(body.as_bytes()).expect_err("seed overflows u64");
        assert!(err.contains("seed"), "{err}");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let body = r#"{
            "platform": "ascend-like",
            "workloads": ["resnet50", "bert-base"],
            "max_iter": 5, "batch": 8, "b_max": 64, "candidate_pool": 48,
            "seed": 42, "max_layers_per_network": 2,
            "power_cap_mw": 2000.5, "area_cap_mm2": 200,
            "checkpoint_every": 2, "kill_after": 1
        }"#;
        let spec = match parse_submission(body.as_bytes()) {
            Ok(s) => s,
            // Zoo names differ per suite; fall back to whatever exists.
            Err(e) => panic!("{e}"),
        };
        let back = JobSpec::from_json(&spec.to_json()).expect("round-trip");
        assert_eq!(back, spec);
        assert_eq!(spec.workload_key(), "ascend-like:resnet50+bert-base");
    }

    #[test]
    fn bad_submissions_name_the_field() {
        for (body, needle) in [
            (r#"{"workloads": ["mobilenet"]}"#, "platform"),
            (
                r#"{"platform": "tpu", "workloads": ["mobilenet"]}"#,
                "platform",
            ),
            (r#"{"platform": "spatial-edge"}"#, "workloads"),
            (
                r#"{"platform": "spatial-edge", "workloads": []}"#,
                "workloads",
            ),
            (
                r#"{"platform": "spatial-edge", "workloads": ["not-a-net"]}"#,
                "unknown network",
            ),
            (
                r#"{"platform": "spatial-edge", "workloads": ["mobilenet"], "max_iter": 0}"#,
                "max_iter",
            ),
            (
                r#"{"platform": "spatial-edge", "workloads": ["mobilenet"], "seed": -1}"#,
                "seed",
            ),
            ("not json", "byte"),
        ] {
            let err = parse_submission(body.as_bytes()).expect_err(body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    const GRAPH: &str = r#"{\"name\": \"g\", \"inputs\": [{\"name\": \"x\", \"dims\": [8, 8]}], \"initializers\": [{\"name\": \"w\", \"dims\": [8, 8]}], \"nodes\": [{\"op\": \"MatMul\", \"inputs\": [\"x\", \"w\"], \"outputs\": [\"y\"]}], \"outputs\": [\"y\"]}"#;

    #[test]
    fn inline_graph_replaces_workloads() {
        let body = format!(r#"{{"platform": "spatial-edge", "graph": "{GRAPH}"}}"#);
        let spec = parse_submission(body.as_bytes()).expect("graph-only spec parses");
        assert!(spec.workloads.is_empty());
        assert!(spec.graph.is_some());
        let back = JobSpec::from_json(&spec.to_json()).expect("round-trip");
        assert_eq!(back, spec);
        assert_eq!(spec.workload_key(), "spatial-edge:inline-graph");
        let graphs = load_graphs(&spec, Path::new("/nonexistent")).expect("inline load");
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].ops_lowered(), 1);
    }

    #[test]
    fn graph_file_round_trips_and_keys() {
        let body = r#"{"platform": "spatial-edge", "graph_file": "models/net.onnx"}"#;
        let spec = parse_submission(body.as_bytes()).expect("graph_file spec parses");
        let back = JobSpec::from_json(&spec.to_json()).expect("round-trip");
        assert_eq!(back, spec);
        assert_eq!(spec.workload_key(), "spatial-edge:models/net.onnx");
    }

    #[test]
    fn bad_graph_submissions_name_the_field() {
        for (body, needle) in [
            // Malformed inline graph: a 422 at submit, not a worker panic.
            (
                r#"{"platform": "spatial-edge", "graph": "{\"name\": 3}"}"#.to_string(),
                "graph",
            ),
            // Traversal and absolute paths must not escape the state dir.
            (
                r#"{"platform": "spatial-edge", "graph_file": "../../etc/passwd"}"#.to_string(),
                "graph_file",
            ),
            (
                r#"{"platform": "spatial-edge", "graph_file": "/etc/passwd"}"#.to_string(),
                "graph_file",
            ),
            (
                r#"{"platform": "spatial-edge", "graph_file": ""}"#.to_string(),
                "graph_file",
            ),
        ] {
            let err = parse_submission(body.as_bytes()).expect_err(&body);
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn graph_file_loads_from_state_dir() {
        let dir = std::env::temp_dir().join("unico-spec-graph-file");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let json = GRAPH.replace("\\\"", "\"");
        std::fs::write(dir.join("net.graph.json"), &json).expect("write model");
        let body = r#"{"platform": "spatial-edge", "graph_file": "net.graph.json"}"#;
        let spec = parse_submission(body.as_bytes()).expect("spec parses");
        let graphs = load_graphs(&spec, &dir).expect("file load");
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].network().layers().len(), 1);
        let missing = JobSpec {
            graph_file: Some("absent.json".to_string()),
            ..spec
        };
        let err = load_graphs(&missing, &dir).expect_err("missing file errors");
        assert!(err.contains("graph_file"), "{err}");
    }

    #[test]
    fn serve_env_parser_is_strict() {
        assert_eq!(parse_positive("UNICO_SERVE_WORKERS", None), Ok(None));
        assert_eq!(
            parse_positive("UNICO_SERVE_WORKERS", Some("4")),
            Ok(Some(4))
        );
        assert_eq!(
            parse_positive("UNICO_SERVE_WORKERS", Some(" 8 ")),
            Ok(Some(8))
        );
        for bad in ["0", "-2", "two", "1.5", ""] {
            let err = parse_positive("UNICO_SERVE_WORKERS", Some(bad)).expect_err(bad);
            assert!(err.contains("UNICO_SERVE_WORKERS"), "{err}");
        }
    }

    #[test]
    fn serve_config_defaults_cover_the_connection_lifecycle() {
        let d = ServeConfig::default();
        assert_eq!(d.head_timeout, Duration::from_secs(10));
        assert_eq!(d.idle_timeout, Duration::from_secs(60));
        assert_eq!(d.subscriber_queue_max, 256 * 1024);
    }
}
