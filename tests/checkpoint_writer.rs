//! The incremental checkpoint writer's byte oracle, on disk.
//!
//! `Unico::run` encodes each checkpoint boundary incrementally (only what
//! changed since the previous boundary), and debug builds assert at every
//! boundary that the written bytes equal the snapshot-and-serialize
//! reference. These tests hold in release builds too: at every written
//! boundary an observer reads the file on disk and requires it to be
//! canonical, i.e. `Checkpoint::from_json(text).to_json() == text`, for
//! the run shapes that exercise each incremental path: append-only
//! sections over many boundaries, the HF training-set cap dropping
//! leading rows, a capped cache evicting, and a sparse cadence killed
//! between writes, whose resume must then end on the uninterrupted
//! run's final file.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use unico::prelude::*;

/// `outer-loop-resume`'s shape: a surrogate-bound cloud run over one
/// resnet50 layer at the minimum SH budget.
fn outer_cfg(seed: u64) -> UnicoConfig {
    UnicoConfig {
        max_iter: 8,
        batch: 30,
        b_max: 8,
        workers: 2,
        seed,
        ..UnicoConfig::default()
    }
}

fn resnet_layer() -> [Network; 1] {
    [zoo::by_name("resnet50").expect("zoo network")]
}

fn cloud_env<'p>(
    platform: &'p SpatialPlatform,
    nets: &[Network],
) -> CoSearchEnv<'p, SpatialPlatform> {
    CoSearchEnv::new(
        platform,
        nets,
        EnvConfig {
            max_layers_per_network: 1,
            ..EnvConfig::default()
        },
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("unico-writer-oracle");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// Reads the checkpoint at `path` and requires it to re-serialize to
/// the same bytes; returns it with its text.
fn canonical(path: &Path) -> (Checkpoint, String) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    let ck = Checkpoint::from_json(&text)
        .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
    assert_same_bytes(&ck.to_json(), &text, &path.display().to_string());
    (ck, text)
}

/// Asserts `got == want`, naming the first differing byte.
fn assert_same_bytes(got: &str, want: &str, what: &str) {
    if got != want {
        let at = got
            .bytes()
            .zip(want.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        panic!(
            "{what}: first difference at byte {at} (lengths {} vs {})",
            got.len(),
            want.len()
        );
    }
}

/// Checks the file after every iteration whose boundary was written.
struct FileOracle {
    path: PathBuf,
    every: usize,
    checked: Mutex<Vec<usize>>,
}

impl FileOracle {
    fn new(path: &Path, every: usize) -> Self {
        FileOracle {
            path: path.to_path_buf(),
            every,
            checked: Mutex::new(Vec::new()),
        }
    }

    fn checked(&self) -> Vec<usize> {
        self.checked.lock().expect("oracle lock").clone()
    }
}

impl RunObserver for FileOracle {
    fn on_iteration(&self, u: &IterationUpdate<'_>) {
        if !u.iteration.is_multiple_of(self.every) && u.iteration != u.max_iter {
            return;
        }
        let (ck, _) = canonical(&self.path);
        assert_eq!(ck.iterations_done, u.iteration);
        assert_eq!(ck.evaluations.len(), u.evaluations);
        self.checked.lock().expect("oracle lock").push(u.iteration);
    }
}

/// Runs `cfg` on a cloud resnet50 layer with `cache`, checkpointing
/// every `every` iterations under the file oracle; returns the final
/// checkpoint and its text.
fn run_checked(
    name: &str,
    cfg: UnicoConfig,
    every: usize,
    cache: EvalCache,
) -> (Checkpoint, String) {
    let path = scratch(name);
    let cache = Arc::new(cache);
    let platform = SpatialPlatform::cloud().with_eval_cache(Arc::clone(&cache));
    let nets = resnet_layer();
    let env = cloud_env(&platform, &nets);
    let oracle = FileOracle::new(&path, every);
    let opts = RunOptions {
        checkpoint: Some(CheckpointPolicy::new(&path).with_every(every)),
        observer: Some(&oracle),
        ..RunOptions::default()
    };
    Unico::new(cfg).run_with_options(&env, &opts);
    let written: Vec<usize> = (1..=cfg.max_iter)
        .filter(|i| i.is_multiple_of(every) || *i == cfg.max_iter)
        .collect();
    assert_eq!(oracle.checked(), written);
    let (ck, text) = canonical(&path);
    // The final boundary's trace is the whole cache: nothing runs after it.
    assert_eq!(
        ck.cache.as_ref().expect("cache section").trace,
        cache.to_trace()
    );
    std::fs::remove_file(&path).ok();
    (ck, text)
}

#[test]
fn every_boundary_of_an_outer_loop_run_is_canonical() {
    for seed in [3, 8] {
        let (ck, _) = run_checked(
            &format!("outer-{seed}.checkpoint"),
            outer_cfg(seed),
            1,
            EvalCache::new(),
        );
        assert_eq!(ck.iterations_done, 8);
        assert_eq!(ck.trace.len(), 8);
        assert!(!ck.all_ys.is_empty() && !ck.hf_ys.is_empty());
    }
}

#[test]
fn hf_cap_drop_re_encodes_the_training_rows() {
    let cfg = UnicoConfig {
        max_iter: 7,
        batch: 80,
        uul_percentile: 1.0,
        ..outer_cfg(5)
    };
    let (ck, _) = run_checked("hf-cap.checkpoint", cfg, 1, EvalCache::new());
    // Feasible evaluations own the `all_*` rows in order; the fed ones
    // were appended to the HF rows in the same order, and the cap keeps
    // the newest 400.
    let fed_rows: Vec<usize> = ck
        .evaluations
        .iter()
        .filter(|e| e.assessment.is_some())
        .enumerate()
        .filter(|(_, e)| e.fed)
        .map(|(row, _)| row)
        .collect();
    assert!(
        fed_rows.len() > 400,
        "the run must cross the HF cap: {} rows fed",
        fed_rows.len()
    );
    let kept = &fed_rows[fed_rows.len() - 400..];
    let rows =
        |all: &[Vec<f64>]| -> Vec<Vec<f64>> { kept.iter().map(|&r| all[r].clone()).collect() };
    assert_eq!(ck.hf_xs, rows(&ck.all_xs));
    assert_eq!(ck.hf_ys, rows(&ck.all_ys));
}

#[test]
fn evicting_cache_trace_stays_canonical() {
    let (ck, _) = run_checked(
        "evicting.checkpoint",
        outer_cfg(3),
        1,
        EvalCache::with_capacity_per_shard(2),
    );
    let cache = ck.cache.expect("cache section");
    assert!(cache.evictions > 0, "the capped cache must evict");
}

#[test]
fn sparse_cadence_kill_flushes_the_last_boundary_and_resumes_to_the_same_file() {
    let cfg = outer_cfg(3);
    let (_, reference) = run_checked("sparse-reference.checkpoint", cfg, 3, EvalCache::new());
    // Writes land at 3, 6 and 8. Killed at 5, the guard flushes the
    // committed, unwritten boundary 5; killed at 6, it flushes the
    // boundary the kill pre-empted.
    for kill_at in [5, 6] {
        let path = scratch(&format!("killed-at-{kill_at}.checkpoint"));
        {
            let platform = SpatialPlatform::cloud().with_eval_cache(Arc::new(EvalCache::new()));
            let nets = resnet_layer();
            let env = cloud_env(&platform, &nets);
            let oracle = FileOracle::new(&path, 3);
            let opts = RunOptions {
                checkpoint: Some(CheckpointPolicy::new(&path).with_every(3)),
                observer: Some(&oracle),
                kill_after: Some(kill_at),
                ..RunOptions::default()
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                Unico::new(cfg).run_with_options(&env, &opts)
            }));
            assert!(outcome.is_err(), "kill hook must abort the run");
            assert_eq!(oracle.checked(), vec![3]);
            assert_eq!(canonical(&path).0.iterations_done, kill_at);
        }

        // The resumed run's writer starts from the restored state, so its
        // final file matches the uninterrupted run's only if every
        // boundary before the kill was encoded in full.
        let platform = SpatialPlatform::cloud().with_eval_cache(Arc::new(EvalCache::new()));
        let nets = resnet_layer();
        let env = cloud_env(&platform, &nets);
        let oracle = FileOracle::new(&path, 3);
        let opts = RunOptions {
            checkpoint: Some(CheckpointPolicy::new(&path).with_every(3)),
            observer: Some(&oracle),
            ..RunOptions::default()
        };
        Unico::resume_with_options(&env, &path, &opts)
            .unwrap_or_else(|e| panic!("resume from boundary {kill_at} failed: {e}"));
        let (mut resumed, _) = canonical(&path);
        // The flush at a boundary the cadence skips is one extra write.
        let extra = u64::from(!kill_at.is_multiple_of(3));
        *resumed
            .counters
            .get_mut("checkpoints_written")
            .expect("write counter") -= extra;
        assert_same_bytes(
            &resumed.to_json(),
            &reference,
            &format!("final file after a kill at {kill_at} and resume"),
        );
        std::fs::remove_file(&path).ok();
    }
}
