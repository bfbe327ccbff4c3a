//! The compiled VM against the interpreter oracle on all seven paper
//! benchmarks.
//!
//! This is the contract the engine switch rests on: for every benchmark
//! accelerator, every execution mode, and probed as well as unprobed runs,
//! the bytecode VM must produce *byte-identical* results to the reference
//! interpreter — the full [`JobTrace`] (cycles, per-datapath activity,
//! token counts, and the STC/IC/AIV/APV feature stream, which accumulates
//! in `f64` and therefore checks floating-point order too) and the final
//! flattened register file. CI fails if any benchmark diverges. The same
//! holds one level up: every slice-based scheme gives identical results
//! whichever engine fills the experiment's slice memo.

use predvfs_accel::{all, Benchmark, WorkloadSize};
use predvfs_rtl::{
    Analysis, AnySim, CompiledSim, ExecMode, FeatureSchema, JobInput, SimEngine, Simulator,
};
use predvfs_sim::{Experiment, ExperimentConfig, Platform, Scheme};

/// Compares both engines on `jobs`, probed and unprobed, in `mode`.
fn assert_engines_agree(bench: &Benchmark, jobs: &[JobInput], mode: ExecMode) {
    let module = (bench.build)();
    let analysis = Analysis::run(&module);
    let schema = FeatureSchema::from_analysis(&module, &analysis);
    let probes = schema.probe_program(&analysis);
    let interp = Simulator::with_analysis(&module, &analysis);
    let vm = CompiledSim::with_analysis(&module, &analysis)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.name));
    for (ji, job) in jobs.iter().enumerate() {
        for probes in [None, Some(&probes)] {
            let (want_trace, want_state) = interp
                .run_with_state(job, mode, probes)
                .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", bench.name));
            let (got_trace, got_state) = vm
                .run_with_state(job, mode, probes)
                .unwrap_or_else(|e| panic!("{}: VM failed: {e}", bench.name));
            assert_eq!(
                want_trace,
                got_trace,
                "{}: trace diverged (job {ji}, mode {mode:?}, probed={})",
                bench.name,
                probes.is_some()
            );
            assert_eq!(
                want_state, got_state,
                "{}: final register state diverged (job {ji}, mode {mode:?})",
                bench.name
            );
        }
    }
}

/// A few test jobs per benchmark; Step mode gets the smallest prefix to
/// stay affordable (it pays every wait cycle).
fn jobs_for(bench: &Benchmark, n: usize) -> Vec<JobInput> {
    let mut w = (bench.workloads)(11, WorkloadSize::Quick);
    w.test.truncate(n);
    w.test
}

#[test]
fn compiled_matches_interpreter_fast_forward_all_benchmarks() {
    for bench in all() {
        let jobs = jobs_for(&bench, 4);
        assert_engines_agree(&bench, &jobs, ExecMode::FastForward);
    }
}

#[test]
fn compiled_matches_interpreter_compressed_all_benchmarks() {
    for bench in all() {
        let jobs = jobs_for(&bench, 4);
        assert_engines_agree(&bench, &jobs, ExecMode::Compressed);
    }
}

#[test]
fn compiled_matches_interpreter_step_all_benchmarks() {
    // Step replays every cycle, so keep to one job per benchmark; this is
    // the strongest check (no skip path on either side).
    for bench in all() {
        let jobs = jobs_for(&bench, 1);
        assert_engines_agree(&bench, &jobs, ExecMode::Step);
    }
}

#[test]
fn modes_agree_on_final_register_state_all_benchmarks() {
    // Mode-equivalence (both engines): FastForward and Compressed rewrite
    // timing, never architectural state — the full flattened register
    // file at `done` matches Step's exactly.
    for bench in all() {
        let module = (bench.build)();
        for engine in [SimEngine::Compiled, SimEngine::Interp] {
            let sim = AnySim::with_engine(&module, engine).unwrap();
            for job in jobs_for(&bench, 1) {
                let (_, step) = sim.run_with_state(&job, ExecMode::Step, None).unwrap();
                let (_, ff) = sim
                    .run_with_state(&job, ExecMode::FastForward, None)
                    .unwrap();
                let (_, comp) = sim
                    .run_with_state(&job, ExecMode::Compressed, None)
                    .unwrap();
                assert_eq!(step.len(), module.regs.len());
                assert_eq!(step, ff, "{}/{engine:?}: FastForward state", bench.name);
                assert_eq!(step, comp, "{}/{engine:?}: Compressed state", bench.name);
            }
        }
    }
}

#[test]
fn experiment_path_uses_the_compiled_engine_by_default() {
    // The trace cache and profiler construct engines via AnySim::new, which
    // follows the process default — compiled unless --interp flips it.
    let module = (all()[0].build)();
    let sim = AnySim::new(&module).unwrap();
    assert_eq!(sim.engine(), SimEngine::Compiled);
    let exp = Experiment::prepare(all()[0], ExperimentConfig::quick(Platform::Asic)).unwrap();
    assert_eq!(exp.slice_memo().engine(), SimEngine::Compiled);
}

#[test]
fn slice_schemes_agree_whichever_engine_fills_the_memo() {
    let schemes = [
        Scheme::Prediction,
        Scheme::PredictionNoOverhead,
        Scheme::PredictionBoost,
    ];
    for bench in all() {
        let mut exp = Experiment::prepare(bench, ExperimentConfig::quick(Platform::Asic))
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", bench.name));
        let mut results = Vec::new();
        for engine in [SimEngine::Compiled, SimEngine::Interp] {
            exp.set_slice_engine(engine);
            assert_eq!(exp.slice_memo().engine(), engine);
            results.push(
                exp.run_all(&schemes)
                    .unwrap_or_else(|e| panic!("{}/{engine:?}: run failed: {e}", bench.name)),
            );
            assert_eq!(exp.slice_memo().fills(), exp.workloads.test.len());
        }
        assert_eq!(
            results[0], results[1],
            "{}: compiled and interpreted slice memos gave different results",
            bench.name
        );
    }
}
