//! Additional baseline controllers from the paper's related work:
//!
//! * [`WcetController`] — the hard real-time approach (§5.1, Shin et al.):
//!   set the level from a *static* worst-case execution-time bound. Never
//!   misses, but leaves most of the average-case slack unused.
//! * [`IntervalGovernor`] — a Linux `devfreq`-style utilization governor
//!   (§2.4): raise the level when the last interval was busy beyond an
//!   up-threshold, lower it when below a down-threshold. Simple, but it
//!   reacts a job late and knows nothing about deadlines.

use predvfs_rtl::{wcet, Module, WcetBound};

use crate::controllers::{Decision, DvfsController, JobContext};
use crate::dvfs::{DvfsModel, LevelChoice};
use crate::error::CoreError;

/// Static-WCET DVFS: levels sized so even the worst case meets the
/// deadline.
#[derive(Debug)]
pub struct WcetController {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    bound: WcetBound,
}

impl WcetController {
    /// Runs the WCET analysis on `module` and builds the controller.
    ///
    /// # Errors
    ///
    /// Fails when the module has no control FSM to analyse.
    pub fn from_module(
        dvfs: DvfsModel,
        f_nominal_hz: f64,
        module: &Module,
    ) -> Result<WcetController, CoreError> {
        let bound = wcet(module)?;
        Ok(WcetController {
            dvfs,
            f_nominal_hz,
            bound,
        })
    }

    /// The static bound in use.
    pub fn bound(&self) -> &WcetBound {
        &self.bound
    }
}

impl DvfsController for WcetController {
    fn name(&self) -> &str {
        "wcet"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        let worst = self.bound.job_cycles(ctx.job.len()) as f64;
        let choice = self
            .dvfs
            .choose(worst, self.f_nominal_hz, ctx.deadline_s, 0.0);
        Ok(Decision {
            choice,
            slice_cycles: 0.0,
            slice_pj: 0.0,
            predicted_cycles: Some(worst),
        })
    }
}

/// Interval-based utilization governor (devfreq `simple_ondemand` style).
#[derive(Debug)]
pub struct IntervalGovernor {
    dvfs: DvfsModel,
    f_nominal_hz: f64,
    /// Raise one level when utilization exceeds this.
    pub up_threshold: f64,
    /// Lower one level when utilization falls below this.
    pub down_threshold: f64,
    level: usize,
    last_utilization: f64,
    deadline_s: f64,
}

impl IntervalGovernor {
    /// Creates the governor with devfreq-like default thresholds
    /// (90 % up, 50 % down), starting at the nominal level.
    pub fn new(dvfs: DvfsModel, f_nominal_hz: f64) -> IntervalGovernor {
        let level = dvfs.ladder.nominal_index();
        IntervalGovernor {
            dvfs,
            f_nominal_hz,
            up_threshold: 0.90,
            down_threshold: 0.50,
            level,
            last_utilization: 1.0,
            deadline_s: 16.7e-3,
        }
    }

    /// Current level index.
    pub fn level(&self) -> usize {
        self.level
    }
}

impl DvfsController for IntervalGovernor {
    fn name(&self) -> &str {
        "governor"
    }

    fn decide(&mut self, ctx: &JobContext<'_>) -> Result<Decision, CoreError> {
        self.deadline_s = ctx.deadline_s;
        if self.last_utilization > self.up_threshold {
            self.level = (self.level + 1).min(self.dvfs.ladder.nominal_index());
        } else if self.last_utilization < self.down_threshold {
            self.level = self.level.saturating_sub(1);
        }
        Ok(Decision {
            choice: LevelChoice::Regular(self.level),
            slice_cycles: 0.0,
            slice_pj: 0.0,
            predicted_cycles: None,
        })
    }

    fn observe(&mut self, actual_cycles: u64) {
        let f = self.f_nominal_hz * self.dvfs.ladder.level(self.level).freq_ratio;
        let busy = actual_cycles as f64 / f;
        self.last_utilization = (busy / self.deadline_s).min(2.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};
    use predvfs_rtl::builder::{ModuleBuilder, E};
    use predvfs_rtl::JobInput;

    fn dvfs() -> DvfsModel {
        let curve = AlphaPowerCurve::default();
        DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip())
    }

    fn toy() -> Module {
        let mut b = ModuleBuilder::new("toy");
        let d = b.input("d", 8);
        let fsm = b.fsm("ctrl", &["FETCH", "W", "EMIT"]);
        b.timed(
            &fsm,
            "FETCH",
            "W",
            "EMIT",
            d,
            E::stream_empty().is_zero(),
            "c",
        );
        b.trans(&fsm, "EMIT", "FETCH", E::one());
        b.advance_when(fsm.in_state("EMIT"));
        b.done_when(fsm.in_state("FETCH") & E::stream_empty());
        b.build().unwrap()
    }

    fn job(n: usize) -> JobInput {
        let mut j = JobInput::new(1);
        for _ in 0..n {
            j.push(&[100]);
        }
        j
    }

    fn ctx(j: &JobInput) -> JobContext<'_> {
        JobContext {
            job: j,
            deadline_s: 16.7e-3,
            index: 0,
        }
    }

    #[test]
    fn wcet_controller_is_conservative() {
        let m = toy();
        let mut c = WcetController::from_module(dvfs(), 250e6, &m).unwrap();
        // WCET assumes every token maxes its field (255 + overheads) even
        // though actual jobs use 100.
        let j = job(10);
        let d = c.decide(&ctx(&j)).unwrap();
        let worst = d.predicted_cycles.unwrap();
        assert!(worst >= 10.0 * 255.0, "bound {worst}");
        assert!(c.bound().cycles_per_token >= 255);
    }

    #[test]
    fn governor_ramps_down_when_idle_and_up_when_busy() {
        let mut g = IntervalGovernor::new(dvfs(), 250e6);
        let j = job(1);
        let start = g.level();
        // Short jobs: utilization near zero, level decays to the floor.
        for _ in 0..10 {
            let _ = g.decide(&ctx(&j)).unwrap();
            g.observe(1_000); // ~4 µs of work in a 16.7 ms period
        }
        assert_eq!(g.level(), 0, "governor should reach the bottom");
        assert!(start > 0);
        // A burst of heavy jobs drives it back up one level per period.
        for _ in 0..10 {
            let _ = g.decide(&ctx(&j)).unwrap();
            g.observe(4_000_000); // 16 ms at nominal: busy
        }
        assert_eq!(g.level(), g.dvfs.ladder.nominal_index());
    }

    #[test]
    fn governor_lags_one_interval() {
        let mut g = IntervalGovernor::new(dvfs(), 250e6);
        let j = job(1);
        let _ = g.decide(&ctx(&j)).unwrap();
        g.observe(1_000);
        // The *next* decision reflects the previous observation.
        let d = g.decide(&ctx(&j)).unwrap();
        assert_eq!(d.choice, LevelChoice::Regular(g.level()));
    }
}
