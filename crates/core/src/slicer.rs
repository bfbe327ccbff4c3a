//! The runtime predictor: a hardware slice plus the linear model.
//!
//! [`SlicePredictor`] packages the sliced module (§3.5), its probe
//! program, and cost metadata. A [`SliceRunner`] executes the slice for
//! one job on an [`AnySim`] engine (the process default, compiled unless
//! `--interp` flips it) to obtain feature values and the slice's own
//! execution cycles, which the DVFS model must budget for.
//!
//! A job's slice run does not depend on which controller asks for it, so
//! [`SliceMemo`] keeps one [`SliceEntry`] per test job — the run, the
//! offline model's prediction and the slice energy — each computed at
//! most once. Every slice-based controller reads the memo by test-job
//! index; the batch experiment and the serve tier own one per
//! (predictor, test set) and fill it before their controllers decide.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use predvfs_power::{EnergyModel, OperatingPoint};
use predvfs_rtl::{
    default_engine, slice, Analysis, AnySim, DatapathKind, ExecMode, JobInput, Module,
    ProbeProgram, RtlError, SimEngine, SliceOptions, SliceReport,
};

use crate::error::CoreError;
use crate::model::ExecTimeModel;

/// How the slice was generated (§4.5's HLS extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SliceFlavor {
    /// Sliced at RTL level: serial states run at the original rate.
    Rtl,
    /// Sliced at C level and re-synthesized by HLS: the tool pipelines the
    /// serial scans, dividing their cycles by `serial_speedup`, and
    /// re-optimizes area by `area_factor`.
    Hls {
        /// Speedup applied to serial-state cycles.
        serial_speedup: f64,
        /// Area scale relative to the RTL slice.
        area_factor: f64,
    },
}

impl SliceFlavor {
    /// The paper's HLS configuration for Fig. 18/19.
    pub fn hls_default() -> SliceFlavor {
        SliceFlavor::Hls {
            serial_speedup: 4.0,
            area_factor: 0.85,
        }
    }
}

/// A generated execution-time predictor: slice hardware + linear model.
#[derive(Debug)]
pub struct SlicePredictor {
    module: Module,
    analysis: Analysis,
    probes: ProbeProgram,
    report: SliceReport,
    flavor: SliceFlavor,
    serial_dp_indices: Vec<usize>,
}

impl SlicePredictor {
    /// Slices `module` down to the features selected by `model`.
    ///
    /// # Errors
    ///
    /// Propagates slicing failures ([`RtlError`]).
    pub fn generate(
        module: &Module,
        model: &ExecTimeModel,
        options: SliceOptions,
        flavor: SliceFlavor,
    ) -> Result<SlicePredictor, CoreError> {
        let schema = model.schema();
        let selected = model.selected_nonbias();
        let (sliced, report) = slice(module, schema, &selected, options)?;
        let analysis = Analysis::run(&sliced);
        let probes = schema.probe_program(&analysis);
        let serial_dp_indices = sliced
            .datapaths
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == DatapathKind::Serial)
            .map(|(i, _)| i)
            .collect();
        Ok(SlicePredictor {
            module: sliced,
            analysis,
            probes,
            report,
            flavor,
            serial_dp_indices,
        })
    }

    /// The sliced module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// What the slicer kept and removed.
    pub fn report(&self) -> &SliceReport {
        &self.report
    }

    /// The slice generation flavor.
    pub fn flavor(&self) -> SliceFlavor {
        self.flavor
    }

    /// Area scale factor implied by the flavor.
    pub fn area_factor(&self) -> f64 {
        match self.flavor {
            SliceFlavor::Rtl => 1.0,
            SliceFlavor::Hls { area_factor, .. } => area_factor,
        }
    }

    /// Creates a reusable runner (one engine, many jobs) on the
    /// process-default engine.
    pub fn runner(&self) -> SliceRunner<'_> {
        self.runner_on(default_engine())
    }

    /// Creates a reusable runner on a specific engine.
    pub fn runner_on(&self, engine: SimEngine) -> SliceRunner<'_> {
        SliceRunner {
            sim: AnySim::with_analysis(&self.module, &self.analysis, engine),
            predictor: self,
        }
    }
}

/// Result of executing the slice for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceRun {
    /// The feature vector (full schema width).
    pub features: Vec<f64>,
    /// Cycles the slice occupied, after any HLS speedup.
    pub cycles: f64,
    /// Per-datapath activity (for slice energy accounting).
    pub dp_active: Vec<u64>,
}

/// Executes the slice; create via [`SlicePredictor::runner`].
#[derive(Debug)]
pub struct SliceRunner<'p> {
    /// The engine, or the compile-time error the compiled engine raised
    /// (reported by [`SliceRunner::run`]).
    sim: Result<AnySim<'p>, RtlError>,
    predictor: &'p SlicePredictor,
}

impl SliceRunner<'_> {
    /// Runs the slice over one job's input.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError`] if the slice fails to compile or hangs
    /// (either would indicate a slicing bug).
    pub fn run(&self, job: &JobInput) -> Result<SliceRun, RtlError> {
        let sim = self.sim.as_ref().map_err(Clone::clone)?;
        let t = sim.run(job, ExecMode::Compressed, Some(&self.predictor.probes))?;
        let mut cycles = t.cycles as f64;
        if let SliceFlavor::Hls { serial_speedup, .. } = self.predictor.flavor {
            let serial: u64 = self
                .predictor
                .serial_dp_indices
                .iter()
                .map(|&i| t.dp_active[i])
                .sum();
            let serial = (serial as f64).min(cycles);
            cycles = cycles - serial + serial / serial_speedup;
        }
        Ok(SliceRun {
            features: t.features,
            cycles,
            dp_active: t.dp_active,
        })
    }
}

/// One test job's slice run plus what every slice-based controller
/// derives from it.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceEntry {
    /// The slice run itself.
    pub run: SliceRun,
    /// The offline model's cycle prediction for the job.
    pub predicted: f64,
    /// Slice energy at the slice's always-nominal operating point, pJ
    /// (0 when the memo was filled without a slice energy model).
    pub slice_pj: f64,
}

/// What a [`SliceMemo`] fill reads, borrowed from the memo's owner.
#[derive(Debug, Clone, Copy)]
pub struct SliceInputs<'p> {
    /// The slice to run.
    pub predictor: &'p SlicePredictor,
    /// The offline model whose prediction each entry caches.
    pub model: &'p ExecTimeModel,
    /// Slice energy model; `None` charges no slice energy.
    pub slice_energy: Option<&'p EnergyModel>,
    /// The test jobs, in memo index order.
    pub jobs: &'p [JobInput],
}

impl SliceInputs<'_> {
    fn entry(&self, runner: &SliceRunner<'_>, index: usize) -> Result<SliceEntry, CoreError> {
        let run = runner.run(&self.jobs[index])?;
        let predicted = self.model.predict_cycles(&run.features);
        let slice_pj = match self.slice_energy {
            Some(em) if run.cycles > 0.0 => {
                let nominal = OperatingPoint {
                    volts: 1.0,
                    freq_ratio: 1.0,
                };
                em.job_pj(run.cycles.round() as u64, &run.dp_active, nominal, 1.0)
            }
            _ => 0.0,
        };
        Ok(SliceEntry {
            run,
            predicted,
            slice_pj,
        })
    }
}

/// Each test job's [`SliceEntry`], computed at most once, on one engine.
///
/// Entries are filled by [`SliceMemo::fill`] (one runner per fill, jobs
/// fanned out with [`predvfs_par`]) and read lock-free by index.
/// Concurrent fills of one memo serialize, so no entry ever runs twice;
/// [`SliceMemo::fills`] counts the slice runs performed.
#[derive(Debug)]
pub struct SliceMemo {
    engine: SimEngine,
    entries: Vec<OnceLock<SliceEntry>>,
    fill_lock: Mutex<()>,
    fills: AtomicUsize,
}

impl SliceMemo {
    /// An empty memo for `jobs` test jobs, filled on `engine`.
    pub fn new(jobs: usize, engine: SimEngine) -> SliceMemo {
        SliceMemo {
            engine,
            entries: (0..jobs).map(|_| OnceLock::new()).collect(),
            fill_lock: Mutex::new(()),
            fills: AtomicUsize::new(0),
        }
    }

    /// A memo over every job of `inputs`, filled on the process-default
    /// engine.
    ///
    /// # Errors
    ///
    /// Propagates slice-execution failures.
    pub fn filled(inputs: &SliceInputs<'_>) -> Result<SliceMemo, CoreError> {
        let memo = SliceMemo::new(inputs.jobs.len(), default_engine());
        memo.fill(inputs, 0..inputs.jobs.len())?;
        Ok(memo)
    }

    /// The engine fills run on.
    pub fn engine(&self) -> SimEngine {
        self.engine
    }

    /// Number of test jobs the memo covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the memo covers no jobs.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slice runs performed so far (each entry counts once).
    pub fn fills(&self) -> usize {
        self.fills.load(Ordering::Relaxed)
    }

    /// The entry of test job `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SliceNotRun`] if the entry was never filled
    /// (or `index` is out of range).
    pub fn get(&self, index: usize) -> Result<&SliceEntry, CoreError> {
        self.entries
            .get(index)
            .and_then(OnceLock::get)
            .ok_or(CoreError::SliceNotRun { index })
    }

    /// Runs the slice for every job in `range` that has no entry yet.
    /// `inputs` must describe the same test set on every call.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SliceNotRun`] for a range beyond the memo or
    /// the inputs' jobs, and propagates slice-execution failures.
    pub fn fill(&self, inputs: &SliceInputs<'_>, range: Range<usize>) -> Result<(), CoreError> {
        let end = self.len().min(inputs.jobs.len());
        if range.end > end {
            return Err(CoreError::SliceNotRun { index: end });
        }
        let missing = || -> Vec<usize> {
            range
                .clone()
                .filter(|&i| self.entries[i].get().is_none())
                .collect()
        };
        if missing().is_empty() {
            return Ok(());
        }
        let _fill = self
            .fill_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Another fill may have covered the range while this one waited.
        let todo = missing();
        if todo.is_empty() {
            return Ok(());
        }
        let _span = predvfs_obs::span("core.slice_memo.fill");
        let runner = inputs.predictor.runner_on(self.engine);
        let entries = predvfs_par::par_try_map(&todo, |&i| inputs.entry(&runner, i))?;
        for (i, entry) in todo.iter().zip(entries) {
            // Fills hold the lock, so every slot in `todo` is still empty.
            let _ = self.entries[*i].set(entry);
        }
        self.fills.fetch_add(todo.len(), Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainerConfig};
    use predvfs_accel::{md, WorkloadSize};

    fn setup() -> (predvfs_rtl::Module, ExecTimeModel) {
        let m = md::build();
        let w = md::workloads(7, WorkloadSize::Quick);
        let model = train(&m, &w.train, &TrainerConfig::default()).unwrap();
        (m, model)
    }

    #[test]
    fn slice_features_match_full_design() {
        let (m, model) = setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let runner = sp.runner();
        let data =
            crate::train::profile(&m, &md::workloads(8, WorkloadSize::Quick).test[..3]).unwrap();
        let jobs = md::workloads(8, WorkloadSize::Quick).test;
        for (i, job) in jobs.iter().take(3).enumerate() {
            let run = runner.run(job).unwrap();
            for &c in model.selected() {
                assert_eq!(run.features[c], data.x.get(i, c), "feature {c} of job {i}");
            }
        }
    }

    #[test]
    fn hls_flavor_shrinks_serial_time() {
        let (m, model) = setup();
        let rtl = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let hls = SlicePredictor::generate(
            &m,
            &model,
            SliceOptions::default(),
            SliceFlavor::hls_default(),
        )
        .unwrap();
        let job = &md::workloads(9, WorkloadSize::Quick).test[0];
        let tr = rtl.runner().run(job).unwrap();
        let th = hls.runner().run(job).unwrap();
        assert!(
            th.cycles < tr.cycles * 0.5,
            "{} vs {}",
            th.cycles,
            tr.cycles
        );
        assert_eq!(tr.features, th.features);
        assert!(hls.area_factor() < 1.0);
        assert_eq!(rtl.area_factor(), 1.0);
    }

    #[test]
    fn memo_runs_each_job_once_and_matches_the_runner() {
        let (m, model) = setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let jobs = md::workloads(8, WorkloadSize::Quick).test;
        let inputs = SliceInputs {
            predictor: &sp,
            model: &model,
            slice_energy: None,
            jobs: &jobs,
        };
        let memo = SliceMemo::new(jobs.len(), SimEngine::Interp);
        assert!(matches!(
            memo.get(0),
            Err(CoreError::SliceNotRun { index: 0 })
        ));
        memo.fill(&inputs, 0..2).unwrap();
        assert_eq!(memo.fills(), 2);
        assert!(memo.get(2).is_err());
        // Concurrent fills of overlapping ranges run each job once.
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| memo.fill(&inputs, 0..jobs.len()).unwrap());
            }
        });
        assert_eq!(memo.fills(), jobs.len());
        assert!(memo.fill(&inputs, 0..jobs.len() + 1).is_err());
        let compiled = sp.runner_on(SimEngine::Compiled);
        for (i, job) in jobs.iter().enumerate() {
            let e = memo.get(i).unwrap();
            assert_eq!(e.run, compiled.run(job).unwrap(), "job {i}");
            assert_eq!(e.predicted, model.predict_cycles(&e.run.features));
            assert_eq!(e.slice_pj, 0.0, "no slice energy model, no slice energy");
        }
    }

    #[test]
    fn slice_is_small_and_fast() {
        let (m, model) = setup();
        let sp = SlicePredictor::generate(&m, &model, SliceOptions::default(), SliceFlavor::Rtl)
            .unwrap();
        let full_area = predvfs_rtl::AsicAreaModel::default().area(&m).total_um2();
        let slice_area = predvfs_rtl::AsicAreaModel::default()
            .area(sp.module())
            .total_um2();
        assert!(
            slice_area < full_area * 0.5,
            "slice {slice_area:.0} vs full {full_area:.0}"
        );
        assert!(!sp.report().dropped_datapaths.is_empty());
    }
}
