//! Output checks.
//!
//! At [`DEFAULT_SEED`] every workload must reproduce known results
//! exactly: the eval suite the committed `results/` CSVs at their printed
//! precision plus a digest of every per-job record, the serve workloads a
//! digest of per-stream outcomes. At other seeds the checks fall back to
//! invariants that hold for any input.

use std::collections::BTreeMap;
use std::path::PathBuf;

use predvfs_serve::StreamResult;
use predvfs_sim::SchemeResult;

/// The seed the committed `results/` CSVs and stored digests were made
/// with (the paper configuration's seed).
pub const DEFAULT_SEED: u64 = 42;

/// Relative tolerance of the energy-ordering invariants, as in the
/// crates' own tests (`oracle <= prediction * 1.001`).
const ORDERING_TOL: f64 = 1e-3;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One benchmark's results for every scheme, in `Scheme::ALL` order.
pub struct EvalRow<'a> {
    /// Benchmark name.
    pub bench: &'a str,
    /// Per-scheme results, in `Scheme::ALL` order.
    pub results: &'a [SchemeResult],
}

/// Digest of every per-job record (energy bits, cycles, miss flag) of
/// every scheme on every benchmark.
pub fn eval_digest(rows: &[EvalRow<'_>]) -> u64 {
    let mut h = FNV_BASIS;
    for row in rows {
        h = fnv1a(h, row.bench.as_bytes());
        for r in row.results {
            h = fnv1a(h, r.scheme.as_bytes());
            for rec in &r.records {
                h = fnv1a(h, &rec.energy_pj.to_bits().to_le_bytes());
                h = fnv1a(h, &rec.cycles.to_le_bytes());
                h = fnv1a(h, &[u8::from(rec.missed)]);
            }
        }
    }
    h
}

/// Digest of per-stream `name done missed shed relaxed refits energy`.
pub fn serve_digest(streams: &[StreamResult]) -> u64 {
    streams.iter().fold(FNV_BASIS, |h, s| {
        let counts = [s.done, s.missed, s.shed, s.relaxed, s.refits];
        let h = counts.iter().fold(fnv1a(h, s.name.as_bytes()), |h, &n| {
            fnv1a(h, &(n as u64).to_le_bytes())
        });
        fnv1a(h, &s.energy_pj.to_bits().to_le_bytes())
    })
}

/// Per-stream conservation: every submitted job is either done or shed,
/// and no more jobs missed than finished.
fn serve_invariants(streams: &[StreamResult]) -> Vec<String> {
    streams
        .iter()
        .filter(|s| s.done + s.shed != s.submitted || s.missed > s.done)
        .map(|s| {
            format!(
                "stream {}: submitted {} != done {} + shed {}, or missed {} > done",
                s.name, s.submitted, s.done, s.shed, s.missed
            )
        })
        .collect()
}

/// Scheme indices in `Scheme::ALL` order.
pub(crate) const BASELINE: usize = 0;
const PID: usize = 2;
pub(crate) const PREDICTION: usize = 3;
const NO_OVH: usize = 4;
const BOOST: usize = 5;
const ORACLE: usize = 6;

/// Energy ordering that holds at any seed: oracle and
/// prediction-no-ovh never need more energy than prediction.
fn eval_invariants(rows: &[EvalRow<'_>]) -> Vec<String> {
    let mut bad = Vec::new();
    for row in rows {
        let pred = row.results[PREDICTION].total_energy_pj();
        for idx in [ORACLE, NO_OVH] {
            let e = row.results[idx].total_energy_pj();
            if e > pred * (1.0 + ORDERING_TOL) {
                bad.push(format!(
                    "{}: {} energy {e} exceeds prediction energy {pred}",
                    row.bench, row.results[idx].scheme
                ));
            }
        }
    }
    bad
}

/// The cells each checked CSV prints for one benchmark's results, keyed
/// by file name, in column order after `bench`.
fn csv_cells(row: &EvalRow<'_>) -> Vec<(&'static str, Vec<f64>, usize)> {
    let r = row.results;
    let base = &r[BASELINE];
    let norm = |i: usize| r[i].normalized_energy_pct(base);
    vec![
        (
            "fig11_energy.csv",
            vec![100.0, norm(PID), norm(PREDICTION)],
            1,
        ),
        (
            "fig11_misses.csv",
            vec![base.miss_pct(), r[PID].miss_pct(), r[PREDICTION].miss_pct()],
            1,
        ),
        (
            "fig13_energy.csv",
            vec![norm(PREDICTION), norm(NO_OVH), norm(ORACLE)],
            1,
        ),
        ("fig14_boost.csv", vec![norm(PREDICTION), norm(BOOST)], 1),
        (
            "fig14_boost.csv",
            vec![r[PREDICTION].miss_pct(), r[BOOST].miss_pct()],
            2,
        ),
    ]
}

/// Expected CSV text: `file -> bench -> printed cells`, built from the
/// results with the figure binaries' formatting (including the
/// `average` row).
fn render_csv_cells(rows: &[EvalRow<'_>]) -> BTreeMap<String, BTreeMap<String, Vec<String>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let mut sums: BTreeMap<(&'static str, usize), (Vec<f64>, usize)> = BTreeMap::new();
    let mut order: Vec<(&'static str, usize)> = Vec::new();
    for row in rows {
        for (k, (file, vals, prec)) in csv_cells(row).into_iter().enumerate() {
            let cells = out
                .entry(file.to_owned())
                .or_default()
                .entry(row.bench.to_owned())
                .or_default();
            cells.extend(vals.iter().map(|v| format!("{v:.prec$}")));
            let acc = sums.entry((file, k)).or_insert_with(|| {
                order.push((file, k));
                (vec![0.0; vals.len()], prec)
            });
            for (a, v) in acc.0.iter_mut().zip(&vals) {
                *a += v;
            }
        }
    }
    let n = rows.len() as f64;
    for key in order {
        let (vals, prec) = &sums[&key];
        let cells = out
            .entry(key.0.to_owned())
            .or_default()
            .entry("average".to_owned())
            .or_default();
        cells.extend(vals.iter().map(|v| format!("{:.prec$}", v / n)));
    }
    out
}

/// Directory of the committed figure CSVs.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results")
}

/// Compares the results' printed cells with the committed CSVs in
/// `dir`. Returns one message per mismatching or missing row.
pub fn eval_against_csvs(rows: &[EvalRow<'_>], dir: &std::path::Path) -> Vec<String> {
    let mut bad = Vec::new();
    for (file, expected) in render_csv_cells(rows) {
        let text = match std::fs::read_to_string(dir.join(&file)) {
            Ok(t) => t,
            Err(e) => {
                bad.push(format!("{file}: {e}"));
                continue;
            }
        };
        let committed: BTreeMap<&str, Vec<&str>> = text
            .lines()
            .skip(1)
            .filter_map(|l| {
                let mut cells = l.split(',');
                cells.next().map(|b| (b, cells.collect()))
            })
            .collect();
        for (bench, cells) in &expected {
            match committed.get(bench.as_str()) {
                Some(c) if *c == *cells => {}
                other => bad.push(format!(
                    "{file} row {bench}: measured {cells:?}, committed {other:?}"
                )),
            }
        }
    }
    bad
}

/// Digest of every per-job record of the eval suite at [`DEFAULT_SEED`].
pub const EVAL_DIGEST: u64 = 0xe125_7188_1b58_a1fa;
/// Digest of the `serve-scale` per-stream outcomes at [`DEFAULT_SEED`].
pub const SCALE_DIGEST: u64 = 0x894b_adb5_f14b_1df7;
/// Digest of the `serve-live` per-stream outcomes at [`DEFAULT_SEED`].
pub const LIVE_DIGEST: u64 = 0x9106_d784_3311_0574;

/// The eval suite's output check. At [`DEFAULT_SEED`] the results must
/// match the committed CSVs and `expected_digest`; at every seed the
/// energy ordering must hold.
pub fn check_eval(rows: &[EvalRow<'_>], seed: u64, expected_digest: u64) -> Vec<String> {
    let mut bad = eval_invariants(rows);
    if seed == DEFAULT_SEED {
        bad.extend(eval_against_csvs(rows, &results_dir()));
        let d = eval_digest(rows);
        if d != expected_digest {
            bad.push(format!(
                "record digest {d:#018x} != stored {expected_digest:#018x}"
            ));
        }
    }
    bad
}

/// A serve workload's output check: conservation at every seed, and at
/// [`DEFAULT_SEED`] the stored per-stream digest.
pub fn check_serve(streams: &[StreamResult], seed: u64, expected_digest: u64) -> Vec<String> {
    let mut bad = serve_invariants(streams);
    if seed == DEFAULT_SEED {
        let d = serve_digest(streams);
        if d != expected_digest {
            bad.push(format!(
                "stream digest {d:#018x} != stored {expected_digest:#018x}"
            ));
        }
    }
    bad
}
