//! The persistent mapping-search execution engine.
//!
//! The paper's §3.5 master/slave execution model keeps a fixed set of
//! slave machines alive for the whole co-search and streams software
//! mapping jobs at them. The seed implementation instead tore down and
//! respawned its entire worker pool (`crossbeam::thread::scope`) on
//! every successive-halving round of every MOBO iteration, putting
//! thread churn on the critical path. [`MappingEngine`] is the
//! long-lived counterpart: it spawns its workers **once** (per
//! `Unico::run` / co-search session), feeds them through a job queue,
//! and keeps them parked between batches.
//!
//! Properties:
//!
//! * **Spawn once.** [`EngineMetrics::threads_spawned`] stays at the
//!   pool width for the engine's whole lifetime, across any number of
//!   [`MappingEngine::execute`] batches.
//! * **Panic containment.** A panicking job is caught inside the
//!   worker; the batch completes, the panic is counted, and the caller
//!   can mark the offending session infeasible instead of aborting the
//!   whole run (see [`crate::advance_with_engine`]).
//! * **Graceful shutdown.** Dropping the engine wakes all workers and
//!   joins them.
//!
//! # Safety
//!
//! [`MappingEngine::execute`] accepts jobs that borrow caller state
//! (hardware sessions live only as long as their environment). The
//! borrow is erased to `'static` so the boxed closures can cross into
//! the long-lived workers; this is sound because `execute` blocks until
//! every submitted job has finished running (or panicked and been
//! caught) — the canonical scoped-threadpool argument. The `unsafe` is
//! confined to one documented function below.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job with its borrow lifetime still attached.
pub type ScopedJob<'s> = Box<dyn FnOnce() + Send + 's>;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch shared by all jobs of one `execute` batch.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    panics: AtomicU64,
}

/// State shared between the master handle and the workers.
struct Shared {
    queue: Mutex<VecDeque<(Job, Arc<Batch>)>>,
    ready: Condvar,
    shutdown: AtomicBool,
    jobs_executed: AtomicU64,
    panics_contained: AtomicU64,
    batches: AtomicU64,
}

/// Counter snapshot of a [`MappingEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Worker threads spawned over the engine's lifetime. Equals the
    /// pool width forever — the engine never respawns.
    pub threads_spawned: u64,
    /// Jobs executed (including ones that panicked).
    pub jobs_executed: u64,
    /// Panics caught inside workers.
    pub panics_contained: u64,
    /// `execute` batches processed.
    pub batches: u64,
}

/// A long-lived worker pool for software-mapping jobs.
pub struct MappingEngine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MappingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingEngine")
            .field("workers", &self.handles.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl MappingEngine {
    /// Spawns `workers` threads that live until the engine is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("unico-mapping-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn mapping worker")
            })
            .collect();
        MappingEngine { shared, handles }
    }

    /// Pool width.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            threads_spawned: self.handles.len() as u64,
            jobs_executed: self.shared.jobs_executed.load(Ordering::Relaxed),
            panics_contained: self.shared.panics_contained.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of jobs on the pool and blocks until every job has
    /// finished. Jobs may borrow caller state: the borrow outlives all
    /// uses because this method does not return before the last job
    /// completes. Returns the number of jobs that panicked (each panic
    /// is contained inside its worker).
    pub fn execute(&self, jobs: Vec<ScopedJob<'_>>) -> u64 {
        if jobs.is_empty() {
            return 0;
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(Batch {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        {
            let mut queue = self.shared.queue.lock().expect("engine queue lock");
            for job in jobs {
                queue.push_back((erase_job_lifetime(job), Arc::clone(&batch)));
            }
        }
        self.shared.ready.notify_all();
        let mut remaining = batch.remaining.lock().expect("batch latch lock");
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).expect("batch latch wait");
        }
        batch.panics.load(Ordering::Relaxed)
    }
}

impl Drop for MappingEngine {
    fn drop(&mut self) {
        {
            // Store under the queue lock, where workers check the flag
            // before waiting: otherwise the notify below can land between
            // a worker's check and its wait, and the join hangs.
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            // Workers contain job panics themselves; a join error would
            // mean a bug in the worker loop. Shutdown still proceeds.
            let _ = handle.join();
        }
    }
}

/// Erases a job's borrow lifetime so it can enter the long-lived queue.
///
/// # Safety
///
/// Sound only because [`MappingEngine::execute`] blocks until the job
/// has run to completion (or panicked and been caught) before
/// returning, so the erased borrows strictly outlive every use. The
/// two trait-object types differ only in lifetime and share one layout.
#[allow(unsafe_code)]
fn erase_job_lifetime(job: ScopedJob<'_>) -> Job {
    unsafe { std::mem::transmute::<ScopedJob<'_>, Job>(job) }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("engine queue lock");
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.ready.wait(queue).expect("engine queue wait");
            }
        };
        let Some((job, batch)) = task else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(job));
        shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
        if outcome.is_err() {
            shared.panics_contained.fetch_add(1, Ordering::Relaxed);
            batch.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut remaining = batch.remaining.lock().expect("batch latch lock");
        *remaining -= 1;
        if *remaining == 0 {
            batch.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_all_jobs_and_blocks_until_done() {
        let engine = MappingEngine::new(4);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..64)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as ScopedJob<'_>
            })
            .collect();
        let panics = engine.execute(jobs);
        assert_eq!(panics, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn threads_spawn_once_across_batches() {
        let engine = MappingEngine::new(3);
        for _ in 0..10 {
            let jobs: Vec<ScopedJob<'_>> =
                (0..7).map(|_| Box::new(|| ()) as ScopedJob<'_>).collect();
            engine.execute(jobs);
        }
        let m = engine.metrics();
        assert_eq!(m.threads_spawned, 3, "no per-batch respawn");
        assert_eq!(m.batches, 10);
        assert_eq!(m.jobs_executed, 70);
    }

    #[test]
    fn contains_panics_and_keeps_serving() {
        let engine = MappingEngine::new(2);
        let ok = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..8)
            .map(|i| {
                let ok = &ok;
                Box::new(move || {
                    if i % 2 == 0 {
                        panic!("job {i} exploded");
                    }
                    ok.fetch_add(1, Ordering::Relaxed);
                }) as ScopedJob<'_>
            })
            .collect();
        let panics = engine.execute(jobs);
        assert_eq!(panics, 4);
        assert_eq!(ok.load(Ordering::Relaxed), 4);
        // The pool still works after contained panics.
        let again: Vec<ScopedJob<'_>> = vec![Box::new(|| ())];
        assert_eq!(engine.execute(again), 0);
        let m = engine.metrics();
        assert_eq!(m.panics_contained, 4);
        assert_eq!(m.threads_spawned, 2);
    }

    #[test]
    fn borrowed_state_is_visible_after_execute() {
        let engine = MappingEngine::new(2);
        let mut values = vec![0u64; 16];
        let jobs: Vec<ScopedJob<'_>> = values
            .iter_mut()
            .enumerate()
            .map(|(i, v)| {
                Box::new(move || {
                    *v = i as u64 + 1;
                }) as ScopedJob<'_>
            })
            .collect();
        engine.execute(jobs);
        assert_eq!(values, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_batch_is_noop() {
        let engine = MappingEngine::new(1);
        assert_eq!(engine.execute(Vec::new()), 0);
        assert_eq!(engine.metrics().batches, 0);
    }

    /// Create→drop cycles under a watchdog deadline. Drop stores the
    /// shutdown flag under the queue lock, so a worker that has just
    /// found the queue empty cannot miss the wake-up and hang the join.
    #[test]
    fn create_drop_cycles_never_hang() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for i in 0..500 {
                let engine = MappingEngine::new(2);
                if i % 2 == 0 {
                    engine.execute(vec![Box::new(|| ()) as ScopedJob<'_>]);
                }
                drop(engine);
            }
            done_tx.send(()).expect("watchdog listening");
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("engine drop hung: a worker missed the shutdown wake-up");
        cycles.join().expect("cycle thread");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = MappingEngine::new(0);
    }
}
