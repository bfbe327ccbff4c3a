//! The DVFS model (§3.6): turning a cycle prediction into an operating
//! point.
//!
//! For scratchpad accelerators memory time is negligible, so `T = C/f` and
//! the minimal frequency meeting the deadline is
//!
//! ```text
//! f = ⌈ f0·(T0 + Tmargin) / (Tbudget − Tslice − Tdvfs) ⌉
//! ```
//!
//! rounded up to the discrete ladder. When even the nominal level cannot
//! meet the remaining budget, the optional boost level (Fig. 14) is used.

use predvfs_power::{Ladder, OperatingPoint, SwitchingModel};

/// Which operating point a controller picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelChoice {
    /// Index into the ladder's regular levels (0 = slowest).
    Regular(usize),
    /// The boost level.
    Boost,
}

/// Configuration of the DVFS decision model.
#[derive(Debug, Clone)]
pub struct DvfsModel {
    /// The discrete operating points.
    pub ladder: Ladder,
    /// Transition-cost model (time is pre-deducted from the budget).
    pub switching: SwitchingModel,
    /// Relative safety margin added to predictions (the paper uses 5 % for
    /// the predictive controller, 10 % for PID).
    pub margin_frac: f64,
    /// Enables the boost level when the budget is otherwise infeasible.
    pub use_boost: bool,
}

impl DvfsModel {
    /// Creates a model with the paper's predictive-controller defaults.
    pub fn new(ladder: Ladder, switching: SwitchingModel) -> DvfsModel {
        DvfsModel {
            ladder,
            switching,
            margin_frac: 0.05,
            use_boost: false,
        }
    }

    /// Resolves a choice to its operating point.
    ///
    /// # Panics
    ///
    /// Panics if [`LevelChoice::Boost`] is requested on a ladder without a
    /// boost level.
    pub fn point(&self, choice: LevelChoice) -> OperatingPoint {
        match choice {
            LevelChoice::Regular(i) => self.ladder.level(i),
            LevelChoice::Boost => self
                .ladder
                .boost()
                .expect("boost requested but not configured"),
        }
    }

    /// The nominal choice (fastest regular level).
    pub fn nominal(&self) -> LevelChoice {
        LevelChoice::Regular(self.ladder.nominal_index())
    }

    /// Picks the lowest level meeting the deadline for a job predicted to
    /// take `pred_cycles` at nominal frequency `f_nominal_hz`, with
    /// `budget_s` of wall-clock budget and `slice_time_s` already consumed
    /// by the predictor.
    pub fn choose(
        &self,
        pred_cycles: f64,
        f_nominal_hz: f64,
        budget_s: f64,
        slice_time_s: f64,
    ) -> LevelChoice {
        self.choose_switching(
            pred_cycles,
            f_nominal_hz,
            budget_s,
            slice_time_s,
            self.switching,
        )
    }

    /// Like [`DvfsModel::choose`], but budgets the transition time of
    /// `switching` instead of the model's own (free switching for the
    /// overhead-free predictive scheme).
    pub fn choose_switching(
        &self,
        pred_cycles: f64,
        f_nominal_hz: f64,
        budget_s: f64,
        slice_time_s: f64,
        switching: SwitchingModel,
    ) -> LevelChoice {
        let avail = budget_s - slice_time_s - switching.transition_s;
        if avail <= 0.0 {
            return self.infeasible();
        }
        let t0 = pred_cycles / f_nominal_hz;
        let required = t0 * (1.0 + self.margin_frac) / avail;
        match self.ladder.lowest_meeting(required) {
            Some(idx) => LevelChoice::Regular(idx),
            None => self.infeasible(),
        }
    }

    /// The emergency escalation target for an imminent deadline miss:
    /// the boost level when the ladder has one, otherwise nominal.
    ///
    /// Unlike [`DvfsModel::choose`], this ignores `use_boost` — that
    /// flag gates *planned* decisions (Fig. 14's opt-in boost), while
    /// escalation runs after a prediction has already been proven wrong
    /// mid-job, where the only useful answer is "as fast as the silicon
    /// goes". The serve runtime's deadline watchdog switches through
    /// this hook.
    pub fn escalation(&self) -> LevelChoice {
        if self.ladder.boost().is_some() {
            LevelChoice::Boost
        } else {
            self.nominal()
        }
    }

    fn infeasible(&self) -> LevelChoice {
        if self.use_boost && self.ladder.boost().is_some() {
            LevelChoice::Boost
        } else {
            self.nominal()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predvfs_power::{AlphaPowerCurve, Ladder, SwitchingModel};

    fn model(boost: bool) -> DvfsModel {
        let curve = AlphaPowerCurve::default();
        let ladder = Ladder::asic(&curve).with_boost(&curve, 1.08);
        let mut m = DvfsModel::new(ladder, SwitchingModel::off_chip());
        m.use_boost = boost;
        m
    }

    #[test]
    fn slack_selects_bottom_level() {
        let m = model(false);
        // 2 ms of work in a 16.7 ms budget: bottom of the ladder.
        let c = m.choose(500_000.0, 250e6, 16.7e-3, 0.3e-3);
        assert_eq!(c, LevelChoice::Regular(0));
    }

    #[test]
    fn tight_budget_selects_nominal() {
        let m = model(false);
        // 15 ms of work in 16.7 ms: must run near full speed.
        let c = m.choose(3_750_000.0, 250e6, 16.7e-3, 0.3e-3);
        assert_eq!(c, m.nominal());
    }

    #[test]
    fn infeasible_budget_boosts_when_enabled() {
        let mb = model(true);
        // 17 ms of work in 16.7 ms: impossible at nominal.
        let c = mb.choose(4_250_000.0, 250e6, 16.7e-3, 0.3e-3);
        assert_eq!(c, LevelChoice::Boost);
        let m = model(false);
        assert_eq!(m.choose(4_250_000.0, 250e6, 16.7e-3, 0.3e-3), m.nominal());
    }

    #[test]
    fn margin_rounds_up() {
        let m = model(false);
        // Construct a requirement just below a level boundary; adding the
        // 5 % margin must push it to the next level.
        let ladder = &m.ladder;
        let l2 = ladder.level(2).freq_ratio;
        let budget = 16.7e-3;
        let avail = budget - m.switching.transition_s;
        // t0 such that t0/avail == l2 exactly (without margin).
        let t0 = l2 * avail;
        let c = m.choose(t0 * 250e6, 250e6, budget, 0.0);
        match c {
            LevelChoice::Regular(i) => assert!(i > 2, "margin must round up, got {i}"),
            LevelChoice::Boost => panic!("unexpected boost"),
        }
    }

    #[test]
    fn zero_budget_is_infeasible() {
        let m = model(true);
        assert_eq!(m.choose(1000.0, 250e6, 50e-6, 0.0), LevelChoice::Boost);
    }

    #[test]
    fn escalation_ignores_use_boost() {
        // `use_boost = false` suppresses planned boost decisions but not
        // the emergency escalation path.
        let m = model(false);
        assert_eq!(m.escalation(), LevelChoice::Boost);
        let curve = AlphaPowerCurve::default();
        let no_boost = DvfsModel::new(Ladder::asic(&curve), SwitchingModel::off_chip());
        assert_eq!(no_boost.escalation(), no_boost.nominal());
    }

    #[test]
    fn point_resolution() {
        let m = model(true);
        assert!(m.point(LevelChoice::Boost).freq_ratio > 1.0);
        assert_eq!(m.point(LevelChoice::Regular(0)).volts, 0.625);
    }
}
