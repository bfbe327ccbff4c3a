//! The full controller landscape (§2.4 + §5.1): interval governor,
//! static-WCET, coarse table, reactive PID, and look-ahead prediction,
//! all against the constant-frequency baseline.

use predvfs::{IntervalGovernor, WcetController};
use predvfs_bench::{prepare_all, results_dir, standard_config};
use predvfs_power::SwitchingModel;
use predvfs_sim::{run_scheme, Platform, RunConfig, Scheme, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = standard_config(Platform::Asic);
    let experiments = prepare_all(&cfg)?;

    let mut t = Table::new(
        "controller landscape — normalized energy % (misses %)",
        &["bench", "governor", "wcet", "table", "pid", "prediction"],
    );
    let mut avg = [[0.0f64; 2]; 5];
    for e in &experiments {
        let [base, table, pid, pred]: [_; 4] = e
            .run_all(&[
                Scheme::Baseline,
                Scheme::Table,
                Scheme::Pid,
                Scheme::Prediction,
            ])?
            .try_into()
            .expect("four schemes in, four results out");
        let f_hz = e.bench.f_nominal_mhz * 1e6;
        let run_cfg = RunConfig {
            deadline_s: e.config().deadline_s,
            switching: SwitchingModel::off_chip(),
            leak_voltage_exp: 1.0,
        };
        let mut gov = IntervalGovernor::new(e.dvfs.clone(), f_hz);
        let gov_res = run_scheme(
            &mut gov,
            &e.workloads.test,
            &e.test_traces,
            &e.energy,
            &e.dvfs,
            &run_cfg,
        )?;
        let mut wcet = WcetController::from_module(e.dvfs.clone(), f_hz, &e.module)?;
        let wcet_res = run_scheme(
            &mut wcet,
            &e.workloads.test,
            &e.test_traces,
            &e.energy,
            &e.dvfs,
            &run_cfg,
        )?;
        let cells: Vec<(f64, f64)> = [&gov_res, &wcet_res, &table, &pid, &pred]
            .iter()
            .map(|r| (r.normalized_energy_pct(&base), r.miss_pct()))
            .collect();
        let mut row = vec![e.bench.name.to_owned()];
        for (i, (en, mi)) in cells.iter().enumerate() {
            row.push(format!("{en:.1} ({mi:.1})"));
            avg[i][0] += en;
            avg[i][1] += mi;
        }
        t.row(&row);
    }
    let n = experiments.len() as f64;
    let mut row = vec!["average".to_owned()];
    for a in &avg {
        row.push(format!("{:.1} ({:.1})", a[0] / n, a[1] / n));
    }
    t.row(&row);
    t.print();
    println!(
        "wcet never misses but barely saves; the interval governor saves by \
         missing; prediction dominates on both axes."
    );
    t.write_csv(&results_dir().join("ablation_governors.csv"))?;
    Ok(())
}
