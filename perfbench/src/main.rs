//! The HDK end-to-end benchmark.
//!
//! ```text
//! hdk-perfbench --workload serve_zipf|query_long|grow_segment --seed N \
//!               --seconds S --trace 0|1 --peer-bin PATH --work-dir DIR
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds this
//! binary and `hdk-peer` and sets the environment. Prints a run stamp,
//! then as its last line one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`). A wrong answer panics, so
//! the run exits non-zero without printing a result.

mod check;
mod common;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::RunResult;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    peer_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut peer_bin = None;
    let mut work_dir = None;
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok(),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--peer-bin" => peer_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs an integer")),
        seconds: seconds
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds needs a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        peer_bin: peer_bin.unwrap_or_else(|| usage("--peer-bin is required")),
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
    }
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "hdk-perfbench: {problem}\nusage: hdk-perfbench --workload {} --seed N --seconds S \
         --trace 0|1 --peer-bin PATH --work-dir DIR",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = parse_args();
    common::assert_hygienic();
    let work = WorkDir(args.work_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).expect("create the work directory");

    println!(
        "stamp: nproc={} cpus={} commit={} profile={} pool={} workload={} seed={} seconds={} trace={}",
        sys::online_cpus(),
        sys::allowed_cpus(),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        rayon::current_num_threads(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let result: RunResult = match (args.workload.as_str(), args.trace) {
        ("serve_zipf", false) => workloads::serve::run(&args.peer_bin, args.seed, args.seconds),
        ("query_long", false) => workloads::long::run(args.seed, args.seconds),
        ("grow_segment", false) => workloads::grow::run(args.seed, args.seconds, &work.0),
        ("serve_zipf", true) => trace::serve(&args.peer_bin, args.seed, args.seconds),
        ("query_long", true) => trace::long(args.seed, args.seconds, &work.0),
        ("grow_segment", true) => trace::grow(args.seed, args.seconds, &work.0),
        _ => unreachable!("workload validated by parse_args"),
    };
    let expected = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let printed = metrics::render(&result.metrics, expected);
    println!(
        "stamp: attempted={} failed={} steal={:.4}",
        result.attempted, result.failed, result.steal
    );
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {printed}}}",
        result.attempted, result.failed
    );
}
