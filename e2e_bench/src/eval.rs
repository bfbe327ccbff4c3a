//! `eval-suite`: the paper's batch evaluation, as `predvfs eval` runs it
//! for each benchmark — all seven accelerators on the ASIC platform at
//! paper size, every scheme of `Scheme::ALL`.
//!
//! Set-up fills a cold `TraceCache` (trace simulation on the compiled
//! RTL engine). The measured phase is `Experiment::prepare_cached` plus
//! `Experiment::run_all` per benchmark.

use std::sync::Arc;

use predvfs::{train, SlicePredictor};
use predvfs_accel::{Benchmark, WorkloadSize};
use predvfs_rtl::Module;
use predvfs_sim::{
    Experiment, ExperimentConfig, Platform, Scheme, SchemeResult, TraceBundle, TraceCache,
};

use crate::check::{self, EvalRow};
use crate::report::{fastest, median, peak_rss_mb, Outcome};
use crate::trace::Tracer;
use crate::{measure, repeat_setup, Args, SETUP_REPEATS};

/// The experiment configuration for a workload seed.
fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(Platform::Asic);
    cfg.seed = seed;
    cfg.size = WorkloadSize::Full;
    cfg
}

/// A benchmark with its built module.
struct Accel {
    bench: Benchmark,
    module: Module,
}

fn accels() -> Vec<Accel> {
    predvfs_accel::all()
        .into_iter()
        .map(|bench| Accel {
            module: (bench.build)(),
            bench,
        })
        .collect()
}

/// Fills `cache` with every benchmark's trace bundle, one
/// `sim.trace_sim` span per benchmark.
fn fill(
    t: &Tracer,
    out: &mut Outcome,
    accels: &[Accel],
    cache: &TraceCache,
    seed: u64,
) -> Vec<Arc<TraceBundle>> {
    let mut bundles = Vec::new();
    for a in accels {
        let (r, _) = t.time("sim.trace_sim", || {
            cache.get_or_simulate(&a.bench, &a.module, seed, WorkloadSize::Full)
        });
        out.attempt(r.is_ok());
        match r {
            Ok(b) => bundles.push(b),
            Err(e) => eprintln!("error: trace simulation of {}: {e}", a.bench.name),
        }
    }
    bundles
}

/// One benchmark's results: name, test-job count, per-scheme results.
type Row = (&'static str, usize, Vec<SchemeResult>);

/// One measured pass: prepare and run every scheme on every benchmark.
/// Returns the rows and, per benchmark, the wall times of its
/// `prepare_cached` and of its `run_all` (0 when it did not run).
fn pass(
    t: &Tracer,
    out: &mut Outcome,
    accels: &[Accel],
    cache: &TraceCache,
    cfg: &ExperimentConfig,
) -> (Vec<Row>, Vec<[f64; 2]>) {
    let mut rows = Vec::new();
    let mut secs = Vec::new();
    for a in accels {
        let (exp, prepare_s) = t.time("sim.prepare", || {
            Experiment::prepare_cached(a.bench, cfg.clone(), cache)
        });
        out.attempt(exp.is_ok());
        let exp = match exp {
            Ok(exp) => exp,
            Err(e) => {
                eprintln!("error: prepare {}: {e}", a.bench.name);
                secs.push([prepare_s, 0.0]);
                continue;
            }
        };
        let (res, run_s) = t.time("par.run_all", || exp.run_all(&Scheme::ALL));
        secs.push([prepare_s, run_s]);
        match res {
            Ok(r) => rows.push((a.bench.name, exp.workloads.test.len(), r)),
            Err(e) => {
                out.attempt(false);
                eprintln!("error: run_all {}: {e}", a.bench.name);
            }
        }
    }
    (rows, secs)
}

/// Checks one pass's results; counts each `run_all` call as attempted
/// and failed when the check rejects it.
fn check_pass(out: &mut Outcome, rows: &[Row], seed: u64) {
    let view: Vec<EvalRow<'_>> = rows
        .iter()
        .map(|(bench, _, results)| EvalRow { bench, results })
        .collect();
    let bad = check::check_eval(&view, seed, check::EVAL_DIGEST);
    for msg in &bad {
        eprintln!("check failed: {msg}");
    }
    for _ in rows {
        out.attempt(bad.is_empty());
    }
}

/// Prediction energy (% of baseline) and misses (%), averaged over the
/// benchmarks.
fn prediction_summary(rows: &[Row]) -> (f64, f64) {
    let n = rows.len().max(1) as f64;
    let energy = rows
        .iter()
        .map(|(_, _, r)| r[check::PREDICTION].normalized_energy_pct(&r[check::BASELINE]))
        .sum::<f64>()
        / n;
    let miss = rows
        .iter()
        .map(|(_, _, r)| r[check::PREDICTION].miss_pct())
        .sum::<f64>()
        / n;
    (energy, miss)
}

/// Runs the workload untraced and reports the end-to-end metrics.
pub fn run(args: &Args) -> Outcome {
    let t = Tracer::new(false);
    let mut out = Outcome::default();
    let accels = accels();
    let cfg = config(args.seed);

    let (cache, setups) = repeat_setup(SETUP_REPEATS, || {
        let cache = TraceCache::new();
        fill(&t, &mut out, &accels, &cache, args.seed);
        cache
    });

    // Times of every call of every pass, one unit per benchmark's
    // `prepare_cached` and one per its `run_all`. `wall_s` is the sum
    // over units of each one's fastest time across passes: finer units
    // keep less of the host's flicker in their fastest time.
    let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); 2 * accels.len()];
    let mut rows = Vec::new();
    measure(args.seconds, || {
        let (r, secs) = pass(&t, &mut out, &accels, &cache, &cfg);
        for (u, s) in per_unit.iter_mut().zip(secs.iter().flatten()) {
            u.push(*s);
        }
        check_pass(&mut out, &r, args.seed);
        rows = r;
        Some(secs.iter().flatten().sum())
    });
    let jobs: usize = rows.iter().map(|(_, n, r)| n * r.len()).sum();
    let summary = prediction_summary(&rows);
    let wall: f64 = per_unit.iter().map(|u| fastest(u)).sum();
    out.real("setup_s", median(&setups));
    out.real("wall_s", wall);
    out.real("jobs_per_s", jobs as f64 / wall);
    out.real("peak_rss_mb", peak_rss_mb());
    out.real("energy_norm_pct", summary.0);
    out.real("met_pct", 100.0 - summary.1);
    out.info("miss_pct", summary.1);
    // Batch evaluation admits every job.
    out.real("served_pct", 100.0);
    out.info("shed_pct", 0.0);
    out
}

/// Scheme groups reported by the traced run: the three slice-based
/// schemes one by one, the slice-free policies together.
fn group(s: Scheme) -> &'static str {
    match s {
        Scheme::Prediction => "sim.run.prediction",
        Scheme::PredictionNoOverhead => "sim.run.prediction-no-ovh",
        Scheme::PredictionBoost => "sim.run.prediction-boost",
        Scheme::Baseline | Scheme::Table | Scheme::Pid | Scheme::Oracle => "sim.run.policies",
    }
}

/// Runs the workload once with spans and reports the per-layer metrics.
pub fn run_traced(args: &Args, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let accels = accels();
    let cfg = config(args.seed);
    let cache = TraceCache::new();

    let bundles = fill(t, &mut out, &accels, &cache, args.seed);
    let trace_cycles: u64 = bundles
        .iter()
        .flat_map(|b| b.data.traces.iter().chain(&b.test_traces))
        .map(|tr| tr.cycles)
        .sum();

    let mut exps = Vec::new();
    for a in &accels {
        let (exp, _) = t.time("sim.prepare", || {
            Experiment::prepare_cached(a.bench, cfg.clone(), &cache)
        });
        out.attempt(exp.is_ok());
        match exp {
            Ok(e) => exps.push(e),
            Err(e) => eprintln!("error: prepare {}: {e}", a.bench.name),
        }
    }

    // `prepare_cached` fits the model and generates the slice inside one
    // call; the two steps are timed here by calling them again on the
    // same inputs.
    t.time("sim.prepare_parts", || {
        for (a, b) in accels.iter().zip(&bundles) {
            let (model, _) = t.time("opt.fit", || train::fit(&b.data, &cfg.trainer));
            out.attempt(model.is_ok());
            let Ok(model) = model else { continue };
            let (pred, _) = t.time("core.slice_gen", || {
                SlicePredictor::generate(&a.module, &model, cfg.slice_options, cfg.flavor)
            });
            out.attempt(pred.is_ok());
        }
    });

    let mut serial: Vec<Vec<SchemeResult>> = Vec::new();
    t.time("sim.run", || {
        for e in &exps {
            let mut results = Vec::new();
            for &s in &Scheme::ALL {
                let (r, _) = t.time(group(s), || e.run(s));
                out.attempt(r.is_ok());
                if let Ok(r) = r {
                    results.push(r);
                }
            }
            serial.push(results);
        }
    });

    let mut slice_cycles = 0.0;
    for e in &exps {
        let runner = e.predictor.runner();
        let (cycles, _) = t.time("core.slice_run", || {
            e.workloads
                .test
                .iter()
                .map(|job| runner.run(job).map(|r| r.cycles))
                .sum::<Result<f64, _>>()
        });
        out.attempt(cycles.is_ok());
        slice_cycles += cycles.unwrap_or(0.0);
    }

    let mut rows = Vec::new();
    for e in &exps {
        let (res, _) = t.time("par.run_all", || e.run_all(&Scheme::ALL));
        match res {
            Ok(r) => rows.push((e.bench.name, e.workloads.test.len(), r)),
            Err(err) => {
                out.attempt(false);
                eprintln!("error: run_all {}: {err}", e.bench.name);
            }
        }
    }
    check_pass(&mut out, &rows, args.seed);
    for ((_, _, par), ser) in rows.iter().zip(&serial) {
        // The parallel fan-out must reproduce the serial runs bit for bit.
        out.attempt(par == ser);
    }

    let trace_sim = t.total("sim.trace_sim");
    let slice_run = t.total("core.slice_run");
    let slice_schemes = t.total("sim.run.prediction")
        + t.total("sim.run.prediction-no-ovh")
        + t.total("sim.run.prediction-boost");
    let run_all = t.total("par.run_all");
    out.real("sim.trace_sim_s", trace_sim);
    out.real("rtl.trace_cycles_per_s", trace_cycles as f64 / trace_sim);
    out.real("sim.prepare_s", t.total("sim.prepare"));
    out.real("opt.fit_s", t.total("opt.fit"));
    out.real("core.slice_gen_s", t.total("core.slice_gen"));
    out.real("sim.run_s.prediction", t.total("sim.run.prediction"));
    out.real(
        "sim.run_s.prediction-no-ovh",
        t.total("sim.run.prediction-no-ovh"),
    );
    out.real(
        "sim.run_s.prediction-boost",
        t.total("sim.run.prediction-boost"),
    );
    out.real("sim.run_s.policies", t.total("sim.run.policies"));
    out.real("core.slice_run_s", slice_run);
    out.real("rtl.slice_cycles_per_s", slice_cycles / slice_run);
    out.real("core.slice_pass_ratio", slice_schemes / slice_run);
    out.real("par.run_all_speedup", t.total("sim.run") / run_all);
    out
}
