//! `predvfs-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit, then, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero when an output check fails.

use std::process::ExitCode;

use predvfs_e2e_bench::{run, spec, Args};

/// glibc's `mallopt` parameter for the arena count.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_ARENA_MAX: i32 = -8;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins the allocator to one arena before any thread starts. With one
/// arena per worker thread, which arena a block lands in depends on
/// thread timing: `serve-live`'s peak resident set varied by a third
/// between identical runs, and with one arena it repeats to within a few
/// hundred kB. The other workloads keep the
/// default: their peak repeats anyway, and their shards and scheme runs
/// allocate on two threads at once in the measured phase.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // before this process starts any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "serve-live" {
        single_malloc_arena();
    }
    let out = run(&args);
    for (name, unit) in spec(&args) {
        if let Some(v) = out.get(name) {
            println!("{name:<30} {v:>24} {unit}");
        }
    }
    for (name, v) in &out.info {
        println!("{name:<30} {v:>24?} % (modelled, not in the result line)");
    }
    match out.to_json(spec(&args)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} of {} calls failed", out.failed, out.attempted);
        ExitCode::FAILURE
    }
}
