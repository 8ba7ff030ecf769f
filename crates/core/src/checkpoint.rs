//! Crash-safe checkpointing of an in-flight UNICO run.
//!
//! A [`Checkpoint`] is a pure-data snapshot of everything the MOBO outer
//! loop carries across iterations: the run configuration, RNG state,
//! simulated clock, Pareto archive, evaluation records (hardware encoded
//! through `Platform::hw_words`), the surrogate training sets, the UUL
//! threshold state, telemetry counters, and — when an evaluation cache
//! is attached — its counters plus the full golden trace needed to
//! rebuild it.
//!
//! The on-disk format is a single JSON object with schema
//! `unico.checkpoint.v1`. **Every `f64` is stored as its IEEE-754 bit
//! pattern** (a decimal `u64`), so a restore is bit-exact and the
//! resume-equivalence oracle can compare fronts and reports
//! byte-for-byte; it also means non-finite values (the initial
//! `uul = +inf`) round-trip without special cases. Writes are atomic:
//! the file is staged as `<path>.tmp`, synced, then renamed over the
//! destination, so a crash mid-write never corrupts the previous
//! checkpoint.
//!
//! Serialization lives here; conversion to and from the live loop state
//! is `unico.rs`'s job, keeping this module free of search/platform
//! types.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use unico_workloads::json::{self, Json};

use crate::unico::UnicoConfig;

/// Schema identifier embedded in (and required of) every checkpoint.
pub const SCHEMA: &str = "unico.checkpoint.v1";

/// When and where the outer loop writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Destination file (written atomically via `<path>.tmp` + rename).
    pub path: PathBuf,
    /// Write every `every` completed iterations (and always at the final
    /// one). `1` checkpoints every boundary.
    pub every: usize,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` at every iteration boundary.
    ///
    /// # Panics
    ///
    /// Never; `every` defaults to 1.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every: 1,
        }
    }

    /// Sets the cadence.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn with_every(mut self, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.every = every;
        self
    }

    /// Builds a policy from the environment: `UNICO_CHECKPOINT` names
    /// the file (absent or empty → `None`), `UNICO_CHECKPOINT_EVERY`
    /// the cadence (absent → 1).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when `UNICO_CHECKPOINT_EVERY`
    /// is set but malformed (not a positive integer). A typo'd cadence
    /// used to silently degrade to "checkpoint every iteration"; an
    /// operator who asked for durability gets what they configured or a
    /// loud failure, never a silent fallback.
    pub fn from_env() -> Option<Self> {
        let path = std::env::var_os("UNICO_CHECKPOINT")?;
        if path.is_empty() {
            return None;
        }
        let raw = std::env::var("UNICO_CHECKPOINT_EVERY").ok();
        let every = parse_every(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"));
        Some(CheckpointPolicy::new(PathBuf::from(path)).with_every(every))
    }
}

/// Parses the `UNICO_CHECKPOINT_EVERY` value: absent means every
/// iteration (1); anything set must be a positive decimal integer
/// (surrounding whitespace tolerated).
///
/// # Errors
///
/// A descriptive message naming the variable and the offending value —
/// the caller is expected to surface it loudly (panic or process exit),
/// never to fall back to a default.
pub fn parse_every(raw: Option<&str>) -> Result<usize, String> {
    match raw {
        None => Ok(1),
        Some(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&e| e > 0)
            .ok_or_else(|| format!("UNICO_CHECKPOINT_EVERY must be a positive integer, got {s:?}")),
    }
}

/// What [`scan_dir`] found in a checkpoint directory.
#[derive(Debug, Default)]
pub struct DirScan {
    /// Parseable checkpoints, sorted by file name for deterministic
    /// recovery order.
    pub resumable: Vec<(PathBuf, Checkpoint)>,
    /// Files with the checkpoint extension that failed to parse, with
    /// the reason (a daemon reports these instead of crashing on them).
    pub corrupt: Vec<(PathBuf, CheckpointError)>,
}

/// Scans `dir` for `*.checkpoint` files — the crash-recovery sweep a
/// daemon runs at boot to find interrupted runs to hand to
/// [`Unico::resume`](crate::Unico::resume). Stale `*.tmp` staging files
/// (a crash mid-[`Checkpoint::write_atomic`]) are ignored: the rename
/// never happened, so the previous checkpoint, if any, is the truth.
///
/// # Errors
///
/// Propagates filesystem errors reading the directory itself; an
/// unreadable or unparsable individual file lands in
/// [`DirScan::corrupt`] instead.
pub fn scan_dir(dir: &Path) -> std::io::Result<DirScan> {
    let mut scan = DirScan::default();
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "checkpoint"))
        .collect();
    paths.sort();
    for path in paths {
        match Checkpoint::read(&path) {
            Ok(ck) => scan.resumable.push((path, ck)),
            // A file listed a moment ago can vanish when a concurrent
            // writer renames over it or a finished run deletes it; that
            // is churn, not corruption.
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => scan.corrupt.push((path, e)),
        }
    }
    Ok(scan)
}

/// Why a checkpoint could not be read or written.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not well-formed checkpoint JSON.
    Parse(String),
    /// The file parses but violates the schema (wrong version, missing
    /// or mistyped field, or a platform that cannot rebuild its
    /// hardware words).
    Schema(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(m) => write!(f, "checkpoint parse error: {m}"),
            CheckpointError::Schema(m) => write!(f, "checkpoint schema error: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One Pareto-archive entry: objectives plus the index of its
/// evaluation record.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEntry {
    /// Objective vector.
    pub y: Vec<f64>,
    /// Index into [`Checkpoint::evaluations`].
    pub idx: usize,
}

/// One evaluated hardware configuration, platform-agnostic: the
/// configuration itself is the integer-word encoding produced by
/// `Platform::hw_words`.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSnapshot {
    /// `Platform::hw_words` encoding of the configuration.
    pub hw_words: Vec<u64>,
    /// `(latency_s, power_mw, area_mm2)`, or `None` if infeasible.
    pub assessment: Option<[f64; 3]>,
    /// Aggregated robustness `R`, if computable.
    pub robustness: Option<f64>,
    /// Mapping-search budget consumed.
    pub spent: u64,
    /// Iteration the candidate was evaluated in.
    pub iteration: usize,
    /// Whether the sample fed the surrogate.
    pub fed: bool,
}

/// One convergence-trace snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Simulated wall-clock seconds.
    pub seconds: f64,
    /// Front objective vectors at that instant.
    pub front: Vec<Vec<f64>>,
}

/// Informational per-network summary (names and reduced layer counts of
/// the workload set the run was launched with).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSnapshot {
    /// Network name.
    pub name: String,
    /// Number of (reduced) layers co-searched per candidate.
    pub layers: usize,
}

/// Evaluation-cache state carried by a checkpoint: the run-so-far
/// counter deltas plus the full golden trace used to rebuild the cache
/// contents on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Hits since the (original) run started.
    pub hits: u64,
    /// Misses since the (original) run started.
    pub misses: u64,
    /// Evictions since the (original) run started.
    pub evictions: u64,
    /// `EvalCache::to_trace` dump of the cache contents.
    pub trace: String,
}

/// Surrogate hyperparameter state carried by a checkpoint: enough for a
/// resumed run to rebuild the GP factorization with
/// `fit_with_hypers` (zero RNG draws) bit-identical to the
/// incrementally grown factor of an uninterrupted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpHypers {
    /// Kernel length scale of the last accepted fit.
    pub length_scale: f64,
    /// Kernel signal variance of the last accepted fit.
    pub variance: f64,
    /// Observation-noise/jitter level of the current factorization
    /// (post jitter-escalation, so a rebuild starts where the live
    /// factor ended).
    pub noise: f64,
    /// Training-set size at the last **full** (hyper-search) fit; the
    /// outer loop re-runs a full fit once the set doubles past this.
    pub fitted_n: usize,
}

/// A complete snapshot of the UNICO outer loop at an iteration
/// boundary (schema [`SCHEMA`]).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The run configuration (a resumed run must re-use it verbatim).
    pub config: UnicoConfig,
    /// `Platform::name` of the platform the run targets; resume refuses
    /// a mismatched platform.
    pub platform: String,
    /// Completed MOBO iterations.
    pub iterations_done: usize,
    /// xoshiro256++ RNG state words.
    pub rng: [u64; 4],
    /// Simulated wall-clock seconds elapsed.
    pub clock_seconds: f64,
    /// Current Upper Update Limit (starts at `+inf`).
    pub uul: f64,
    /// Accepted ParEGO-distance set `D`.
    pub accepted_d: Vec<f64>,
    /// Pareto archive in insertion order.
    pub front: Vec<FrontEntry>,
    /// Every evaluation record so far, in evaluation order.
    pub evaluations: Vec<EvalSnapshot>,
    /// Feature vectors of all feasible samples.
    pub all_xs: Vec<Vec<f64>>,
    /// Objective vectors of all feasible samples.
    pub all_ys: Vec<Vec<f64>>,
    /// High-fidelity GP training features.
    pub hf_xs: Vec<Vec<f64>>,
    /// High-fidelity GP training objectives.
    pub hf_ys: Vec<Vec<f64>>,
    /// Convergence trace so far.
    pub trace: Vec<TraceSnapshot>,
    /// Per-network workload summaries (informational).
    pub networks: Vec<NetworkSnapshot>,
    /// Telemetry counter totals at the boundary, by stable name. The
    /// `checkpoints_written` entry counts the write carrying it, and
    /// `engine_threads_spawned` is excluded (a resumed run spawns its
    /// own pool).
    pub counters: BTreeMap<String, u64>,
    /// Evaluation-cache state, when a cache is attached.
    pub cache: Option<CacheSnapshot>,
    /// Surrogate hyperparameter state, when a GP fit has been accepted.
    /// Absent in checkpoints written before the field existed; such
    /// files still parse (the resumed run simply performs a full fit).
    pub gp: Option<GpHypers>,
}

impl Checkpoint {
    /// Renders the checkpoint as its on-disk JSON form.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push('{');
        o.push_str(&format!("\"schema\":{},", json::escape(SCHEMA)));
        let c = &self.config;
        o.push_str(&format!(
            "\"config\":{{\"max_iter\":{},\"batch\":{},\"b_max\":{},\"auc_fraction\":{},\
             \"high_fidelity\":{},\"robustness_objective\":{},\"alpha\":{},\"rho\":{},\
             \"random_fraction\":{},\"candidate_pool\":{},\"uul_percentile\":{},\"seed\":{},\
             \"workers\":{}}},",
            c.max_iter,
            c.batch,
            c.b_max,
            bits(c.auc_fraction),
            c.high_fidelity,
            c.robustness_objective,
            bits(c.alpha),
            bits(c.rho),
            bits(c.random_fraction),
            c.candidate_pool,
            bits(c.uul_percentile),
            c.seed,
            c.workers
        ));
        o.push_str(&format!("\"platform\":{},", json::escape(&self.platform)));
        o.push_str(&format!("\"iterations_done\":{},", self.iterations_done));
        o.push_str(&format!(
            "\"rng\":[{},{},{},{}],",
            self.rng[0], self.rng[1], self.rng[2], self.rng[3]
        ));
        o.push_str(&format!("\"clock_seconds\":{},", bits(self.clock_seconds)));
        o.push_str(&format!("\"uul\":{},", bits(self.uul)));
        o.push_str(&format!("\"accepted_d\":{},", bits_array(&self.accepted_d)));
        o.push_str("\"front\":[");
        push_joined(&mut o, &self.front, |o, e| {
            o.push_str(&format!("{{\"y\":{},\"idx\":{}}}", bits_array(&e.y), e.idx))
        });
        o.push_str("],\"evaluations\":[");
        push_joined(&mut o, &self.evaluations, |o, e| {
            o.push_str("{\"hw\":[");
            push_joined(o, &e.hw_words, |o, w| o.push_str(&w.to_string()));
            o.push_str("],\"assessment\":");
            match &e.assessment {
                None => o.push_str("null"),
                Some(a) => o.push_str(&format!("[{},{},{}]", bits(a[0]), bits(a[1]), bits(a[2]))),
            }
            o.push_str(",\"robustness\":");
            match e.robustness {
                None => o.push_str("null"),
                Some(r) => o.push_str(&bits(r).to_string()),
            }
            o.push_str(&format!(
                ",\"spent\":{},\"iteration\":{},\"fed\":{}}}",
                e.spent, e.iteration, e.fed
            ))
        });
        o.push(']');
        for (key, rows) in [
            ("all_xs", &self.all_xs),
            ("all_ys", &self.all_ys),
            ("hf_xs", &self.hf_xs),
            ("hf_ys", &self.hf_ys),
        ] {
            o.push_str(&format!(",\"{key}\":["));
            push_joined(&mut o, rows, |o, row| o.push_str(&bits_array(row)));
            o.push(']');
        }
        o.push_str(",\"trace\":[");
        push_joined(&mut o, &self.trace, |o, p| {
            o.push_str(&format!("{{\"seconds\":{},\"front\":[", bits(p.seconds)));
            push_joined(o, &p.front, |o, row| o.push_str(&bits_array(row)));
            o.push_str("]}")
        });
        o.push_str("],\"networks\":[");
        push_joined(&mut o, &self.networks, |o, n| {
            o.push_str(&format!(
                "{{\"name\":{},\"layers\":{}}}",
                json::escape(&n.name),
                n.layers
            ))
        });
        o.push_str("],\"counters\":{");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                o.push(',');
            }
            first = false;
            o.push_str(&format!("{}:{v}", json::escape(k)));
        }
        o.push_str("},\"cache\":");
        match &self.cache {
            None => o.push_str("null"),
            Some(c) => o.push_str(&format!(
                "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"trace\":{}}}",
                c.hits,
                c.misses,
                c.evictions,
                json::escape(&c.trace)
            )),
        }
        o.push_str(",\"gp\":");
        match &self.gp {
            None => o.push_str("null"),
            Some(g) => o.push_str(&format!(
                "{{\"length_scale\":{},\"variance\":{},\"noise\":{},\"fitted_n\":{}}}",
                bits(g.length_scale),
                bits(g.variance),
                bits(g.noise),
                g.fitted_n
            )),
        }
        o.push('}');
        o
    }

    /// Parses the on-disk JSON form.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Parse`] for malformed JSON,
    /// [`CheckpointError::Schema`] for a wrong schema string or a
    /// missing/mistyped field (a float that is not a bit pattern
    /// included).
    pub fn from_json(text: &str) -> Result<Self, CheckpointError> {
        let v = json::parse(text).map_err(CheckpointError::Parse)?;
        Checkpoint::from_value(v).map_err(CheckpointError::Schema)
    }

    fn from_value(mut v: Json) -> Result<Self, String> {
        // The cache trace is most of the file: move it out of the tree
        // instead of copying it.
        let cache_v = match &mut v {
            Json::Obj(fields) => take(fields, "cache"),
            _ => None,
        };
        let top = v.as_obj("checkpoint")?;
        let schema = get(top, "schema")?.as_str("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let c = get(top, "config")?.as_obj("config")?;
        let config = UnicoConfig {
            max_iter: get(c, "max_iter")?.as_usize("max_iter")?,
            batch: get(c, "batch")?.as_usize("batch")?,
            b_max: get(c, "b_max")?.as_u64("b_max")?,
            auc_fraction: f64_bits(get(c, "auc_fraction")?, "auc_fraction")?,
            high_fidelity: get(c, "high_fidelity")?.as_bool("high_fidelity")?,
            robustness_objective: get(c, "robustness_objective")?
                .as_bool("robustness_objective")?,
            alpha: f64_bits(get(c, "alpha")?, "alpha")?,
            rho: f64_bits(get(c, "rho")?, "rho")?,
            random_fraction: f64_bits(get(c, "random_fraction")?, "random_fraction")?,
            candidate_pool: get(c, "candidate_pool")?.as_usize("candidate_pool")?,
            uul_percentile: f64_bits(get(c, "uul_percentile")?, "uul_percentile")?,
            seed: get(c, "seed")?.as_u64("seed")?,
            workers: get(c, "workers")?.as_u64("workers")? as u32,
        };
        let rng_v = get(top, "rng")?.as_arr("rng")?;
        if rng_v.len() != 4 {
            return Err("rng must have 4 words".into());
        }
        let mut rng = [0u64; 4];
        for (dst, v) in rng.iter_mut().zip(rng_v) {
            *dst = v.as_u64("rng word")?;
        }
        let front = get(top, "front")?
            .as_arr("front")?
            .iter()
            .map(|e| {
                let e = e.as_obj("front entry")?;
                Ok(FrontEntry {
                    y: f64_rows_one(get(e, "y")?, "front y")?,
                    idx: get(e, "idx")?.as_usize("front idx")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let evaluations = get(top, "evaluations")?
            .as_arr("evaluations")?
            .iter()
            .map(|e| {
                let e = e.as_obj("evaluation")?;
                let hw_words = get(e, "hw")?
                    .as_arr("hw")?
                    .iter()
                    .map(|w| w.as_u64("hw word"))
                    .collect::<Result<Vec<_>, _>>()?;
                let assessment = match get(e, "assessment")? {
                    Json::Null => None,
                    v => {
                        let a = f64_rows_one(v, "assessment")?;
                        if a.len() != 3 {
                            return Err("assessment must have 3 objectives".into());
                        }
                        Some([a[0], a[1], a[2]])
                    }
                };
                let robustness = match get(e, "robustness")? {
                    Json::Null => None,
                    v => Some(f64_bits(v, "robustness")?),
                };
                Ok(EvalSnapshot {
                    hw_words,
                    assessment,
                    robustness,
                    spent: get(e, "spent")?.as_u64("spent")?,
                    iteration: get(e, "iteration")?.as_usize("iteration")?,
                    fed: get(e, "fed")?.as_bool("fed")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let trace = get(top, "trace")?
            .as_arr("trace")?
            .iter()
            .map(|p| {
                let p = p.as_obj("trace point")?;
                Ok(TraceSnapshot {
                    seconds: f64_bits(get(p, "seconds")?, "seconds")?,
                    front: f64_rows(get(p, "front")?, "trace front")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let networks = get(top, "networks")?
            .as_arr("networks")?
            .iter()
            .map(|n| {
                let n = n.as_obj("network")?;
                Ok(NetworkSnapshot {
                    name: get(n, "name")?.as_str("network name")?.to_string(),
                    layers: get(n, "layers")?.as_usize("network layers")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut counters = BTreeMap::new();
        for (k, v) in get(top, "counters")?.as_obj("counters")? {
            counters.insert(k.clone(), v.as_u64("counter")?);
        }
        let cache = match cache_v.ok_or_else(|| missing("cache"))? {
            Json::Null => None,
            Json::Obj(mut c) => Some(CacheSnapshot {
                hits: get(&c, "hits")?.as_u64("cache hits")?,
                misses: get(&c, "misses")?.as_u64("cache misses")?,
                evictions: get(&c, "evictions")?.as_u64("cache evictions")?,
                trace: match take(&mut c, "trace").ok_or_else(|| missing("trace"))? {
                    Json::Str(s) => s,
                    v => return Err(mistyped("cache trace", "string", &v)),
                },
            }),
            v => return Err(mistyped("cache", "object", &v)),
        };
        // Lenient lookup: checkpoints written before the `gp` field
        // existed omit it entirely and must keep parsing.
        let gp = match top.iter().find(|(k, _)| k == "gp").map(|(_, v)| v) {
            None | Some(Json::Null) => None,
            Some(v) => {
                let g = v.as_obj("gp")?;
                Some(GpHypers {
                    length_scale: f64_bits(get(g, "length_scale")?, "gp length_scale")?,
                    variance: f64_bits(get(g, "variance")?, "gp variance")?,
                    noise: f64_bits(get(g, "noise")?, "gp noise")?,
                    fitted_n: get(g, "fitted_n")?.as_usize("gp fitted_n")?,
                })
            }
        };
        Ok(Checkpoint {
            config,
            platform: get(top, "platform")?.as_str("platform")?.to_string(),
            iterations_done: get(top, "iterations_done")?.as_usize("iterations_done")?,
            rng,
            clock_seconds: f64_bits(get(top, "clock_seconds")?, "clock_seconds")?,
            uul: f64_bits(get(top, "uul")?, "uul")?,
            accepted_d: f64_rows_one(get(top, "accepted_d")?, "accepted_d")?,
            front,
            evaluations,
            all_xs: f64_rows(get(top, "all_xs")?, "all_xs")?,
            all_ys: f64_rows(get(top, "all_ys")?, "all_ys")?,
            hf_xs: f64_rows(get(top, "hf_xs")?, "hf_xs")?,
            hf_ys: f64_rows(get(top, "hf_ys")?, "hf_ys")?,
            trace,
            networks,
            counters,
            cache,
            gp,
        })
    }

    /// Atomically writes the checkpoint to `path`: the JSON is staged
    /// as a uniquely named `<path>.<pid>-<n>.tmp` file, synced to disk,
    /// then renamed over the destination, so a crash mid-write leaves
    /// any previous checkpoint intact — and concurrent writers (N
    /// workers sharing a state dir) can never interleave bytes in a
    /// shared staging file: each rename installs one writer's complete
    /// document.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".{}-{}.tmp",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let tmp = PathBuf::from(tmp);
        let res = (|| {
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(self.to_json().as_bytes())?;
                f.sync_all()?;
            }
            fs::rename(&tmp, path)
        })();
        if res.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        res
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::from_json`]; filesystem failures surface as
    /// [`CheckpointError::Io`].
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        Checkpoint::from_json(&fs::read_to_string(path)?)
    }
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn bits_array(vs: &[f64]) -> String {
    let mut o = String::from("[");
    push_joined(&mut o, vs, |o, v| o.push_str(&bits(*v).to_string()));
    o.push(']');
    o
}

fn push_joined<T>(out: &mut String, items: &[T], mut f: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        f(out, item);
    }
}

fn missing(key: &str) -> String {
    format!("missing field {key:?}")
}

fn mistyped(what: &str, want: &str, got: &Json) -> String {
    format!("{what}: expected {want}, found {}", got.type_name())
}

/// A required field: absence is a schema error, while an explicit `null`
/// is returned as a value (unlike [`Json::get`], which folds the two).
fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| missing(key))
}

/// Moves the value of `key` out of `obj`, leaving `null` behind.
fn take(obj: &mut [(String, Json)], key: &str) -> Option<Json> {
    obj.iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| std::mem::replace(v, Json::Null))
}

/// A float stored as its bit pattern (an unsigned integer literal).
fn f64_bits(v: &Json, what: &str) -> Result<f64, String> {
    v.as_u64(what).map(f64::from_bits)
}

fn f64_rows_one(v: &Json, what: &str) -> Result<Vec<f64>, String> {
    v.as_arr(what)?.iter().map(|b| f64_bits(b, what)).collect()
}

fn f64_rows(v: &Json, what: &str) -> Result<Vec<Vec<f64>>, String> {
    v.as_arr(what)?
        .iter()
        .map(|r| f64_rows_one(r, what))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config: UnicoConfig {
                max_iter: 3,
                batch: 6,
                seed: 7,
                ..UnicoConfig::default()
            },
            platform: "spatial-edge".to_string(),
            iterations_done: 2,
            rng: [1, 2, 3, u64::MAX],
            clock_seconds: 1234.5678,
            uul: f64::INFINITY,
            accepted_d: vec![0.25, 0.5, f64::NAN],
            front: vec![FrontEntry {
                y: vec![1.5, -2.5, 0.0],
                idx: 4,
            }],
            evaluations: vec![
                EvalSnapshot {
                    hw_words: vec![4, 8, 1024, 65536, 64, 1],
                    assessment: Some([0.001, 120.0, 3.25]),
                    robustness: Some(0.125),
                    spent: 32,
                    iteration: 0,
                    fed: true,
                },
                EvalSnapshot {
                    hw_words: vec![2, 2, 512, 32768, 32, 0],
                    assessment: None,
                    robustness: None,
                    spent: 8,
                    iteration: 1,
                    fed: false,
                },
            ],
            all_xs: vec![vec![0.1, 0.2]],
            all_ys: vec![vec![1.0, 2.0, 3.0]],
            hf_xs: vec![],
            hf_ys: vec![],
            trace: vec![TraceSnapshot {
                seconds: 10.0,
                front: vec![vec![1.0, 2.0, 3.0]],
            }],
            networks: vec![NetworkSnapshot {
                name: "mobilenet_v1".to_string(),
                layers: 1,
            }],
            counters: [("hw_evals".to_string(), 12), ("gp_fits".to_string(), 2)]
                .into_iter()
                .collect(),
            cache: Some(CacheSnapshot {
                hits: 5,
                misses: 7,
                evictions: 0,
                trace: "unico.evalcache.trace.v1\ncount 0\n".to_string(),
            }),
            gp: Some(GpHypers {
                length_scale: 0.75,
                variance: 1.25,
                noise: 1e-5,
                fitted_n: 16,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let ck = sample();
        let json = ck.to_json();
        let back = Checkpoint::from_json(&json).expect("round trip parses");
        // NaN forbids a direct PartialEq; byte-compare the re-render.
        assert_eq!(back.to_json(), json);
        assert_eq!(back.iterations_done, 2);
        assert_eq!(back.rng, [1, 2, 3, u64::MAX]);
        assert!(back.uul.is_infinite());
        assert!(back.accepted_d[2].is_nan());
        assert_eq!(back.evaluations[1].assessment, None);
        assert_eq!(back.config.seed, 7);
        assert_eq!(back.cache.as_ref().unwrap().misses, 7);
        let gp = back.gp.expect("gp hypers survive the round trip");
        assert_eq!(gp.length_scale.to_bits(), 0.75f64.to_bits());
        assert_eq!(gp.noise.to_bits(), 1e-5f64.to_bits());
        assert_eq!(gp.fitted_n, 16);
    }

    #[test]
    fn checkpoint_without_gp_field_still_parses() {
        // Files written before the `gp` field existed omit it entirely.
        let mut ck = sample();
        ck.gp = None;
        let json = ck.to_json().replace(",\"gp\":null", "");
        let back = Checkpoint::from_json(&json).expect("legacy checkpoint parses");
        assert!(back.gp.is_none());
    }

    #[test]
    fn empty_collections_round_trip() {
        let mut ck = sample();
        ck.front.clear();
        ck.evaluations.clear();
        ck.accepted_d.clear();
        ck.trace.clear();
        ck.networks.clear();
        ck.counters.clear();
        ck.cache = None;
        let json = ck.to_json();
        let back = Checkpoint::from_json(&json).expect("parses");
        assert_eq!(back.to_json(), json);
        assert!(back.cache.is_none());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let json = sample()
            .to_json()
            .replace("unico.checkpoint.v1", "unico.checkpoint.v9");
        match Checkpoint::from_json(&json) {
            Err(CheckpointError::Schema(m)) => assert!(m.contains("v9")),
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_json_rejected() {
        for bad in [
            "",
            "{",
            "{\"schema\":}",
            "nope",
            "{\"schema\":\"unico.checkpoint.v1\"} trailing",
        ] {
            assert!(
                matches!(Checkpoint::from_json(bad), Err(CheckpointError::Parse(_))),
                "{bad:?} must be a parse error"
            );
        }
        // Well-formed JSON that is not a checkpoint is a schema error.
        for bad in [
            "{\"schema\":\"unico.checkpoint.v1\"}",
            "{\"a\":1.5}",
            "{\"a\":-3}",
        ] {
            assert!(
                matches!(Checkpoint::from_json(bad), Err(CheckpointError::Schema(_))),
                "{bad:?} must be a schema error"
            );
        }
    }

    /// Floats are stored as bit patterns and words as unsigned integers,
    /// so a decimal float or a negative number in a valid checkpoint is a
    /// schema error that names the field.
    #[test]
    fn non_bit_pattern_numbers_are_schema_errors() {
        let json = sample().to_json();
        let uul = format!("\"uul\":{},", f64::INFINITY.to_bits());
        for (doc, field) in [
            (json.replace(&uul, "\"uul\":1.5,"), "uul"),
            (json.replace("\"rng\":[1,", "\"rng\":[-3,"), "rng word"),
        ] {
            assert_ne!(doc, json, "the edit must apply");
            match Checkpoint::from_json(&doc) {
                Err(CheckpointError::Schema(m)) => assert!(m.contains(field), "{m}"),
                other => panic!("expected a schema error naming {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join("unico-ckpt-test");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("atomic_write_then_read.checkpoint");
        let ck = sample();
        ck.write_atomic(&path).expect("write");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "staging file renamed away");
        let back = Checkpoint::read(&path).expect("read back");
        assert_eq!(back.to_json(), ck.to_json());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let p = PathBuf::from("/nonexistent/unico.checkpoint");
        assert!(matches!(Checkpoint::read(&p), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn policy_cadence_validation() {
        let p = CheckpointPolicy::new("/tmp/x.ck");
        assert_eq!(p.every, 1);
        assert_eq!(p.clone().with_every(5).every, 5);
        let e = CheckpointError::Parse("boom".into());
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cadence_panics() {
        let _ = CheckpointPolicy::new("/tmp/x.ck").with_every(0);
    }

    #[test]
    fn parse_every_accepts_positive_integers_only() {
        assert_eq!(parse_every(None), Ok(1));
        assert_eq!(parse_every(Some("1")), Ok(1));
        assert_eq!(parse_every(Some("25")), Ok(25));
        assert_eq!(parse_every(Some(" 3\n")), Ok(3), "whitespace tolerated");
        for bad in ["", "0", "-2", "2.5", "five", "1e3", "3 iterations"] {
            let err = parse_every(Some(bad)).expect_err(bad);
            assert!(
                err.contains("UNICO_CHECKPOINT_EVERY") && err.contains(bad),
                "error must name the variable and the value: {err}"
            );
        }
    }

    #[test]
    fn scan_dir_sorts_resumable_and_isolates_corrupt() {
        let dir = std::env::temp_dir().join("unico-ckpt-scan-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("mkdir");
        let ck = sample();
        ck.write_atomic(&dir.join("b.checkpoint")).expect("write b");
        ck.write_atomic(&dir.join("a.checkpoint")).expect("write a");
        fs::write(dir.join("broken.checkpoint"), "{not json").expect("write corrupt");
        // Non-checkpoint files and stale staging files are ignored.
        fs::write(dir.join("c.checkpoint.tmp"), "partial").expect("write tmp");
        fs::write(dir.join("notes.txt"), "irrelevant").expect("write txt");
        let scan = scan_dir(&dir).expect("scan");
        let names: Vec<_> = scan
            .resumable
            .iter()
            .map(|(p, _)| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.checkpoint", "b.checkpoint"]);
        assert_eq!(scan.resumable[0].1.iterations_done, 2);
        assert_eq!(scan.corrupt.len(), 1);
        assert!(scan.corrupt[0].0.ends_with("broken.checkpoint"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_dir_missing_directory_is_io_error() {
        assert!(scan_dir(Path::new("/nonexistent/unico-ckpts")).is_err());
    }

    /// Regression for the cluster state dir: N writers hammering the
    /// same checkpoint path while a scanner loops over the directory.
    /// Unique staging names mean no writer can interleave bytes in
    /// another's tmp file, every scan must parse whatever rename was
    /// last installed, and vanishing files (rename churn) must never be
    /// reported as corrupt.
    #[test]
    fn concurrent_writers_and_scans_never_observe_torn_state() {
        let dir = std::env::temp_dir().join(format!(
            "unico-ckpt-concurrent-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shared.checkpoint");
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let path = path.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let mut ck = sample();
                        ck.iterations_done = (w * 100 + i) as usize;
                        ck.write_atomic(&path).expect("concurrent write");
                    }
                })
            })
            .collect();
        let scanner = {
            let dir = dir.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let scan = scan_dir(&dir).expect("scan during writes");
                    assert!(
                        scan.corrupt.is_empty(),
                        "concurrent atomic writers must never expose a torn file: {:?}",
                        scan.corrupt
                    );
                }
            })
        };
        for w in writers {
            w.join().expect("writer");
        }
        scanner.join().expect("scanner");
        // The survivor is one writer's complete document.
        let back = Checkpoint::read(&path).expect("final read");
        assert_eq!(back.config.seed, 7);
        // No staging litter: every tmp was renamed or cleaned up.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files left behind: {leftovers:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut ck = sample();
        ck.platform = "weird \"name\"\n\twith\\escapes \u{1F600} \u{0001}".to_string();
        let back = Checkpoint::from_json(&ck.to_json()).expect("parses");
        assert_eq!(back.platform, ck.platform);
    }

    #[test]
    fn depth_bomb_is_a_parse_error() {
        let bomb = "[".repeat(1 << 20);
        match Checkpoint::from_json(&bomb) {
            Err(CheckpointError::Parse(m)) => assert!(m.contains("nesting"), "{m}"),
            other => panic!("expected a nesting parse error, got {other:?}"),
        }
    }

    /// One corrupt file must not take down the daemon scanning its
    /// state dir at boot.
    #[test]
    fn depth_bomb_in_state_dir_is_filed_corrupt() {
        let dir = std::env::temp_dir().join(format!("unico-ckpt-depth-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("mkdir");
        sample()
            .write_atomic(&dir.join("a.checkpoint"))
            .expect("write a");
        fs::write(dir.join("bomb.checkpoint"), "[".repeat(1 << 20)).expect("write bomb");
        let scan = scan_dir(&dir).expect("scan");
        assert_eq!(scan.resumable.len(), 1);
        assert_eq!(scan.corrupt.len(), 1);
        assert!(scan.corrupt[0].0.ends_with("bomb.checkpoint"));
        assert!(matches!(scan.corrupt[0].1, CheckpointError::Parse(_)));
        fs::remove_dir_all(&dir).ok();
    }
}
