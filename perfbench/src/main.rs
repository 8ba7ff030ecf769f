//! The UNICO benchmark: named workloads over the public crate APIs,
//! each in one process, with output checks and a traced per-layer run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload codesign-mapping --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). See `perfbench/README.md`.

mod codesign;
mod gauge;
mod metrics;
mod service;
mod span;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use metrics::Outcome;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "codesign-mapping",
    "outer-loop-resume",
    "service-mixed",
    "service-restart",
];

/// Compute threads every workload uses: `UnicoConfig::workers`
/// in-process, daemon workers (each with `engine_workers: 1`) in the
/// service workloads. A host with fewer cores is refused.
pub const WORKERS: usize = 2;

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for checkpoints and state dirs (removed at exit).
    pub work_dir: PathBuf,
}

impl Ctx {
    /// A sub-seed for item `i` of stream `stream`, derived from the
    /// workload seed.
    pub fn sub_seed(&self, stream: u64, i: u64) -> u64 {
        splitmix(splitmix(self.seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)) ^ i)
    }
}

/// SplitMix64 finalizer.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Refuses a thread configuration that would oversubscribe the host.
fn check_threads(workers: usize, nproc: usize) -> Result<(), String> {
    if workers > nproc {
        return Err(format!(
            "{workers} compute threads exceed the {nproc} available cores; \
             timings would measure contention, not the program"
        ));
    }
    Ok(())
}

/// The git revision of the checkout, read from `.git` without running
/// git; `"unknown"` outside a git work tree.
fn git_rev(root: &Path) -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User-mode CPU seconds this process has run, all threads (exited
/// ones included), from `getrusage(RUSAGE_SELF)`. The kernel leaves out
/// time the hypervisor stole from the vCPU, so on a shared host this
/// tracks the program's work where wall time also tracks the
/// neighbours'. Kernel time is left out too: on such a host the system
/// time of the same file syncs swung by 40% from run to run.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let zero = || Timeval {
        tv_sec: 0,
        tv_usec: 0,
    };
    let mut usage = Rusage {
        ru_utime: zero(),
        ru_stime: zero(),
        rest: [0; 14],
    };
    // SAFETY: `getrusage` is the C library's (linked by std on Linux);
    // `usage` is a live, writable `struct rusage` (two `timeval`s then
    // fourteen `long`s, all 64-bit on the 64-bit Linux targets this
    // benchmark builds for), and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.ru_utime.tv_sec as f64 + usage.ru_utime.tv_usec as f64 * 1e-6
}

/// CPU seconds on one of the kernel's CPU-time clocks, from
/// `clock_gettime`: nanosecond resolution, and time the hypervisor stole
/// from the vCPU left out.
fn clock_cpu_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (linked by std on
    // Linux); `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has run, user and system, all threads
/// (exited ones included), from `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_total_s() -> f64 {
    clock_cpu_s(2)
}

/// CPU seconds the calling thread has run, user and system, from
/// `CLOCK_THREAD_CPUTIME_ID`.
pub fn thread_cpu_s() -> f64 {
    clock_cpu_s(3)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if let Err(e) = check_threads(WORKERS, nproc) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    let work_dir = bench_dir
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(e) = std::fs::create_dir_all(&work_dir).and(std::fs::create_dir_all(&out_dir)) {
        eprintln!("perfbench: creating {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let rev = git_rev(bench_dir.parent().unwrap_or(bench_dir));
    let config = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"workers\":{WORKERS},\"git_rev\":\"{rev}\"}}",
        args.workload, args.seed, args.seconds, args.trace
    );
    println!("config {config}");

    let started = Instant::now();
    let outcome: Outcome = match args.workload.as_str() {
        "codesign-mapping" => codesign::codesign_mapping(&ctx),
        "outer-loop-resume" => codesign::outer_loop_resume(&ctx),
        "service-mixed" => service::service_mixed(&ctx),
        _ => service::service_restart(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(bench_dir.join("work"));

    for line in &outcome.notes {
        println!("{line}");
    }
    println!("elapsed_s {:.3}", started.elapsed().as_secs_f64());
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("{stem}.spans.json"));
        if let Err(e) = std::fs::write(&path, span::to_json(spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    let result = outcome.result_json(args.trace);
    let record = format!("{{\"config\":{config},\"result\":{result}}}\n");
    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.result.json")), record) {
        eprintln!("perfbench: writing result: {e}");
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        // Other tests run in parallel threads of this process, so only
        // this thread's clock is exact; the process clocks must at least
        // include this thread's work.
        let t0 = thread_cpu_s();
        std::thread::sleep(Duration::from_millis(50));
        let (t1, p1, q1) = (thread_cpu_s(), process_cpu_s(), process_cpu_total_s());
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        let (t2, p2, q2) = (thread_cpu_s(), process_cpu_s(), process_cpu_total_s());
        let work = t2 - t1;
        assert!(t1 - t0 < 0.005, "sleeping burned {} CPU s", t1 - t0);
        assert!(work > 0.0, "work burned no CPU time ({x})");
        assert!(
            q2 - q1 >= 0.95 * work,
            "process clock missed this thread's work"
        );
        // User time is split from the total at tick granularity.
        assert!(p2 - p1 >= 0.5 * work - 0.01, "user time missed the work");
    }

    #[test]
    fn oversubscribed_thread_counts_are_refused() {
        assert!(check_threads(WORKERS, 2).is_ok());
        assert!(check_threads(WORKERS, 4).is_ok());
        assert!(check_threads(WORKERS, 1).is_err());
    }

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        let ctx = |seed| Ctx {
            seed,
            budget: Duration::from_secs(1),
            trace: false,
            work_dir: PathBuf::new(),
        };
        assert_eq!(ctx(3).sub_seed(1, 0), ctx(3).sub_seed(1, 0));
        assert_ne!(ctx(3).sub_seed(1, 0), ctx(3).sub_seed(1, 1));
        assert_ne!(ctx(3).sub_seed(1, 0), ctx(3).sub_seed(2, 0));
        assert_ne!(ctx(3).sub_seed(1, 0), ctx(4).sub_seed(1, 0));
    }
}
