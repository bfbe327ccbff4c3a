//! End-to-end benchmark of predvfs with a per-layer split.
//!
//! Three workloads drive the repository's crates through their public
//! entry points only: `eval-suite` (the paper's batch evaluation),
//! `serve-scale` (the sharded serve tier) and `serve-live` (the
//! unsharded, recorded serve path). See `README.md` for the metrics and
//! the layer map.

pub mod check;
pub mod eval;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Set-ups per run of a workload whose set-up takes seconds; `setup_s`
/// is their median.
pub(crate) const SETUP_REPEATS: usize = 3;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["eval-suite", "serve-scale", "serve-live"];

/// Share of traced wall time the top-level spans must explain.
const MIN_COVERAGE_PCT: f64 = 95.0;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a missing or malformed
    /// value, or an unknown workload.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: check::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = val.clone(),
                "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = val.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                        return Err(bad(&"must be a non-negative number"));
                    }
                }
                "--trace" => {
                    args.trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        Ok(args)
    }
}

/// Runs `setup` `repeats` times, dropping each result before the next
/// set-up starts. Returns the last result and every set-up's wall time.
pub(crate) fn repeat_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let mut secs = Vec::new();
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), secs)
}

/// Repeats `pass` for about `seconds`: at least one pass runs, and
/// another starts while one as long as the last still fits. `pass`
/// returns its own wall time, or `None` to stop. Returns every pass's
/// time.
pub(crate) fn measure(seconds: f64, mut pass: impl FnMut() -> Option<f64>) -> Vec<f64> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while let Some(secs) = pass() {
        eprintln!("measured pass {}: {secs:.3} s", passes.len() + 1);
        passes.push(secs);
        if start.elapsed().as_secs_f64() + secs > seconds {
            break;
        }
    }
    passes
}

/// Rounds of each traced A/B comparison.
const AB_ROUNDS: usize = 3;

/// A traced A/B comparison: runs `a` and `b` alternately [`AB_ROUNDS`]
/// times under their span names, so that host speed drift does not fall
/// on one side. Returns each side's last result and fastest time.
pub(crate) fn ab<A, B>(
    t: &Tracer,
    (name_a, mut a): (&str, impl FnMut() -> A),
    (name_b, mut b): (&str, impl FnMut() -> B),
) -> ((A, f64), (B, f64)) {
    let (mut last_a, mut last_b) = (None, None);
    let (mut fast_a, mut fast_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..AB_ROUNDS {
        drop(last_a.take());
        let (r, secs) = t.time(name_a, &mut a);
        fast_a = fast_a.min(secs);
        last_a = Some(r);
        drop(last_b.take());
        let (r, secs) = t.time(name_b, &mut b);
        fast_b = fast_b.min(secs);
        last_b = Some(r);
    }
    let done = "at least one round";
    ((last_a.expect(done), fast_a), (last_b.expect(done), fast_b))
}

/// Where a traced run writes its spans.
pub(crate) fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

/// Runs the workload named by `args` and returns its outcome, with every
/// metric of the matching spec recorded.
pub fn run(args: &Args) -> Outcome {
    // Load comes from this one process with at most `nproc` threads.
    predvfs_par::set_threads(std::thread::available_parallelism().map_or(1, usize::from));
    if args.trace {
        return run_traced(args);
    }
    let mut out = match args.workload.as_str() {
        "eval-suite" => eval::run(args),
        "serve-scale" => serve::run_scale(args),
        _ => serve::run_live(args),
    };
    let failed_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    out.real("ok_pct", 100.0 - failed_pct);
    out.info("failed_pct", failed_pct);
    out
}

fn run_traced(args: &Args) -> Outcome {
    let t = Tracer::new(true);
    let mut out = match args.workload.as_str() {
        "eval-suite" => eval::run_traced(args, &t),
        "serve-scale" => serve::run_scale_traced(args, &t),
        _ => serve::run_live_traced(args, &t),
    };
    let wall = t.now_s();
    let explained = t.root_secs();
    let coverage = 100.0 * explained / wall;
    eprintln!(
        "layer coverage: {coverage:.2}% of {wall:.3} s traced; unexplained {:.3} s",
        wall - explained
    );
    out.real("trace.coverage_pct", coverage);
    out.real("trace.unexplained_s", wall - explained);
    out.attempt(coverage >= MIN_COVERAGE_PCT);
    let path = spans_path(args);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, t.to_jsonl()));
    if let Err(e) = written {
        eprintln!("error: writing spans to {}: {e}", path.display());
        out.attempt(false);
    }
    out.zero_fill(PER_LAYER);
    out
}

/// The metric spec a run reports: per-layer when traced, else
/// end-to-end.
pub fn spec(args: &Args) -> &'static [(&'static str, &'static str)] {
    if args.trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
