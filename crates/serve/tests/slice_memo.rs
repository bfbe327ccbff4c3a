//! The serve tier's slice memo, pinned at the public surface:
//!
//! 1. `cached` is the predictive path over the class memo, so forcing a
//!    scenario onto either gives bit-identical results and traces;
//! 2. a runtime's first run (cold memo) and a rerun (warm memo) agree,
//!    result for result and byte for byte;
//! 3. the slice runs at most once per (class, test job), however many
//!    streams read it and however many engines are built concurrently.

use predvfs_accel::{by_name, WorkloadSize};
use predvfs_faults::NullInjector;
use predvfs_obs::{NullSink, Recorder};
use predvfs_serve::{
    ControllerKind, EngineConfig, Scenario, ServeResult, ServeRuntime, StreamSpec,
};
use predvfs_sim::{Platform, TraceCache};

fn run_recorded(rt: &ServeRuntime, force: Option<ControllerKind>) -> (ServeResult, String) {
    let recorder = Recorder::new(1 << 16);
    let result = rt.run_observed(force, &recorder).expect("run");
    assert_eq!(recorder.ring().dropped(), 0, "ring must not overflow");
    (result, recorder.ring().to_jsonl())
}

#[test]
fn cached_and_predictive_runs_are_bit_identical() {
    let rt = ServeRuntime::prepare(&Scenario::demo(), &TraceCache::new()).expect("prepare");
    let (cached, cached_trace) = run_recorded(&rt, Some(ControllerKind::Cached));
    let (predictive, predictive_trace) = run_recorded(&rt, Some(ControllerKind::Predictive));
    assert!(!cached_trace.is_empty());
    assert_eq!(cached, predictive, "stream results must match");
    assert_eq!(
        cached_trace, predictive_trace,
        "traces must be byte-identical"
    );
}

#[test]
fn cold_and_warm_memo_runs_are_identical() {
    let rt = ServeRuntime::prepare(&Scenario::demo(), &TraceCache::new()).expect("prepare");
    assert_eq!(rt.slice_runs(), 0, "prepare must not run the slice");
    let (cold, cold_trace) = run_recorded(&rt, None);
    let runs = rt.slice_runs();
    assert!(runs > 0, "the demo's slice-based streams fill the memo");
    let (warm, warm_trace) = run_recorded(&rt, None);
    assert_eq!(rt.slice_runs(), runs, "a warm rerun runs no slice");
    assert_eq!(cold, warm);
    assert_eq!(cold_trace, warm_trace);
}

/// Two classes (sha and aes), each read by several streams of every
/// slice-based kind with different job counts.
fn shared_class_scenario() -> Scenario {
    let mut streams = Vec::new();
    for (i, (bench, jobs)) in [("sha", 5), ("sha", 9), ("aes", 4), ("aes", 7)]
        .into_iter()
        .enumerate()
    {
        for (k, kind) in [
            ControllerKind::Predictive,
            ControllerKind::Adaptive,
            ControllerKind::Hybrid,
            ControllerKind::Cached,
            ControllerKind::Pid,
        ]
        .into_iter()
        .enumerate()
        {
            let mut s = StreamSpec::new(by_name(bench).expect("registered"));
            s.name = format!("{bench}-{i}-{k}");
            s.jobs = jobs;
            s.seed = 5;
            s.controller = kind;
            streams.push(s);
        }
    }
    Scenario {
        platform: Platform::Asic,
        size: WorkloadSize::Quick,
        streams,
        faults: None,
    }
}

/// Distinct (class, test job) pairs the scenario's slice-based streams
/// visit: arrivals cycle through each class's test set.
fn distinct_slice_jobs(scenario: &Scenario) -> usize {
    ["sha", "aes"]
        .iter()
        .map(|name| {
            let bench = by_name(name).expect("registered");
            let n_test = (bench.workloads)(5, WorkloadSize::Quick).test.len();
            let longest = scenario
                .streams
                .iter()
                .filter(|s| s.bench.name == *name && s.controller != ControllerKind::Pid)
                .map(|s| s.jobs)
                .max()
                .unwrap_or(0);
            longest.min(n_test)
        })
        .sum()
}

#[test]
fn each_class_test_job_runs_its_slice_at_most_once() {
    let scenario = shared_class_scenario();
    let want = distinct_slice_jobs(&scenario);
    assert!(want > 0);

    // Whole-scenario runs: every stream reads the memo, nothing reruns.
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    rt.run().expect("run");
    assert_eq!(rt.slice_runs(), want);
    rt.run().expect("rerun");
    assert_eq!(rt.slice_runs(), want);

    // Engines built concurrently over interleaved halves of the streams,
    // on a cold memo, as shard workers build theirs.
    let rt = ServeRuntime::prepare(&scenario, &TraceCache::new()).expect("prepare");
    let n = scenario.streams.len();
    let halves: Vec<Vec<usize>> = (0..2)
        .map(|h| (0..n).filter(|g| g % 2 == h).collect())
        .collect();
    std::thread::scope(|scope| {
        for members in &halves {
            let rt = &rt;
            scope.spawn(move || {
                let mut engine = rt
                    .engine(members, EngineConfig::default(), &NullSink, &NullInjector)
                    .expect("engine");
                engine.run_until(f64::INFINITY).expect("run");
            });
        }
    });
    assert_eq!(rt.slice_runs(), want);
}
