//! Self-tests of the benchmark: its scenario generator, its metric names
//! and its output checks.

use predvfs_e2e_bench::check::{self, EvalRow, DEFAULT_SEED};
use predvfs_e2e_bench::report::{valid_name, END_TO_END, PER_LAYER};
use predvfs_e2e_bench::serve::{
    in_scenario_order, live_scenario_text, live_units, LIVE_JOBS, LIVE_KINDS, LIVE_STREAMS,
};
use predvfs_e2e_bench::{Args, WORKLOADS};
use predvfs_serve::{ControllerKind, Scenario, ServeRuntime};
use predvfs_sim::{Experiment, ExperimentConfig, Platform, Scheme, TraceCache};

#[test]
fn live_scenario_is_byte_deterministic_per_seed() {
    let a = live_scenario_text(7);
    assert_eq!(a.as_bytes(), live_scenario_text(7).as_bytes());
    assert_ne!(a, live_scenario_text(8));
    let s = Scenario::parse(&a).expect("generated scenario parses");
    assert_eq!(s.streams.len(), LIVE_STREAMS);
    assert!(s.streams.iter().all(|st| st.jobs == LIVE_JOBS));
    let kinds = [
        ControllerKind::Predictive,
        ControllerKind::Adaptive,
        ControllerKind::Hybrid,
        ControllerKind::Pid,
    ];
    for (kind, name) in kinds.iter().zip(LIVE_KINDS) {
        assert_eq!(kind.name(), name);
        let n = s.streams.iter().filter(|st| st.controller == *kind).count();
        assert_eq!(n, LIVE_STREAMS / LIVE_KINDS.len(), "{name} streams");
    }
    let benches: std::collections::BTreeSet<_> = s.streams.iter().map(|st| st.bench.name).collect();
    assert_eq!(benches.len(), predvfs_accel::all().len());
}

#[test]
fn metric_names_are_legal_unique_and_declared() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            manifest.contains(&format!("\"name\": \"{w}\"")),
            "workload {w}"
        );
    }
    assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
}

#[test]
fn args_reject_bad_input() {
    let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let ok = Args::parse(&argv(
        "--workload serve-live --seed 3 --seconds 5 --trace 1",
    ))
    .unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 5.0, true));
    for bad in [
        "--workload nope",
        "--workload eval-suite --seed x",
        "--workload eval-suite --trace 2",
        "--workload eval-suite --seconds -1",
        "--workload eval-suite --bogus 1",
        "--workload",
    ] {
        assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
    }
}

fn has_digest_failure(bad: &[String]) -> bool {
    bad.iter().any(|m| m.contains("digest"))
}

#[test]
fn eval_check_rejects_a_one_picojoule_nudge() {
    let bench = predvfs_accel::by_name("sha").unwrap();
    let exp = Experiment::prepare(bench, ExperimentConfig::quick(Platform::Asic)).unwrap();
    let mut results = exp.run_all(&Scheme::ALL).unwrap();
    let digest = check::eval_digest(&[EvalRow {
        bench: "sha",
        results: &results,
    }]);
    let bad = check::check_eval(
        &[EvalRow {
            bench: "sha",
            results: &results,
        }],
        DEFAULT_SEED,
        digest,
    );
    assert!(!has_digest_failure(&bad), "{bad:?}");

    results[3].records[0].energy_pj += 1.0;
    let rows = [EvalRow {
        bench: "sha",
        results: &results,
    }];
    assert_ne!(check::eval_digest(&rows), digest);
    assert!(has_digest_failure(&check::check_eval(
        &rows,
        DEFAULT_SEED,
        digest
    )));

    // At other seeds the energy ordering is checked instead.
    assert!(check::check_eval(&rows, 1, 0).is_empty());
    let pred = results[3].total_energy_pj();
    let oracle = results[6].total_energy_pj();
    results[6].records[0].energy_pj += pred * 1.01 - oracle;
    let rows = [EvalRow {
        bench: "sha",
        results: &results,
    }];
    assert!(!check::check_eval(&rows, 1, 0).is_empty());
}

#[test]
fn eval_check_reads_the_committed_csvs() {
    let bench = predvfs_accel::by_name("aes").unwrap();
    let exp = Experiment::prepare(bench, ExperimentConfig::quick(Platform::Asic)).unwrap();
    let results = exp.run_all(&Scheme::ALL).unwrap();
    // Quick-size results are not the committed paper-size figures.
    let bad = check::eval_against_csvs(
        &[EvalRow {
            bench: "aes",
            results: &results,
        }],
        &check::results_dir(),
    );
    assert!(
        bad.iter()
            .any(|m| m.starts_with("fig11_energy.csv row aes")),
        "{bad:?}"
    );
    let missing = check::eval_against_csvs(
        &[EvalRow {
            bench: "aes",
            results: &results,
        }],
        std::path::Path::new("no-such-dir"),
    );
    assert_eq!(missing.len(), 4, "{missing:?}");
}

#[test]
fn serve_check_rejects_a_one_picojoule_nudge() {
    let rt = ServeRuntime::prepare(&Scenario::demo(), &TraceCache::new()).unwrap();
    let mut streams = rt.run().unwrap().streams;
    let digest = check::serve_digest(&streams);
    assert!(check::check_serve(&streams, DEFAULT_SEED, digest).is_empty());

    streams[0].energy_pj += 1.0;
    assert!(has_digest_failure(&check::check_serve(
        &streams,
        DEFAULT_SEED,
        digest
    )));
    streams[0].energy_pj -= 1.0;

    // Conservation is checked at every seed.
    streams[1].shed += 1;
    assert!(!check::check_serve(&streams, 1, 0).is_empty());
}

#[test]
fn live_units_reproduce_the_whole_scenario() {
    // `serve-live` times one run per unit; its outcomes must be those of
    // one run over the whole scenario.
    let whole = Scenario::parse(&live_scenario_text(5)).unwrap();
    let rt = ServeRuntime::prepare(&whole, &TraceCache::new()).unwrap();
    let expected = check::serve_digest(&rt.run().unwrap().streams);
    let mut streams = Vec::new();
    for unit in live_units(5).unwrap() {
        let rt = ServeRuntime::prepare(&unit, &TraceCache::new()).unwrap();
        streams.extend(rt.run().unwrap().streams);
    }
    assert_eq!(streams.len(), LIVE_STREAMS);
    assert_eq!(check::serve_digest(&in_scenario_order(streams)), expected);
}
