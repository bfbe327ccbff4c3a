//! Metric names, units, and the result line the benchmark prints.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them when run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_pct", "%"),
    ("energy_norm_pct", "%"),
    ("met_pct", "%"),
    ("served_pct", "%"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// when run with `--trace 1`; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.trace_sim_s", "s"),
    ("rtl.trace_cycles_per_s", "1/s"),
    ("sim.prepare_s", "s"),
    ("opt.fit_s", "s"),
    ("core.slice_gen_s", "s"),
    ("sim.run_s.prediction", "s"),
    ("sim.run_s.prediction-no-ovh", "s"),
    ("sim.run_s.prediction-boost", "s"),
    ("sim.run_s.policies", "s"),
    ("core.slice_run_s", "s"),
    ("rtl.slice_cycles_per_s", "1/s"),
    ("core.slice_pass_ratio", "ratio"),
    ("par.run_all_speedup", "ratio"),
    ("serve.prepare_s", "s"),
    ("serve.warm_tables_s", "s"),
    ("shard.run_s", "s"),
    ("shard.ns_per_event", "ns"),
    ("shard.events", "count"),
    ("shard.epochs", "count"),
    ("shard.checkpoints", "count"),
    ("shard.migrations", "count"),
    ("shard.imbalance", "ratio"),
    ("shard.checkpoint_s", "s"),
    ("serve.run_s", "s"),
    ("serve.run_s.predictive", "s"),
    ("serve.run_s.adaptive", "s"),
    ("serve.run_s.hybrid", "s"),
    ("serve.run_s.pid", "s"),
    ("serve.events", "count"),
    ("opt.refits", "count"),
    ("obs.trace_events", "count"),
    ("obs.record_s", "s"),
    ("trace.coverage_pct", "%"),
    ("trace.unexplained_s", "s"),
];

/// A measured value: counts print as integers, everything else with all
/// its digits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured real number.
    Real(f64),
    /// An exact count.
    Count(u64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Real(v) => write!(f, "{v:?}"),
            Value::Count(n) => write!(f, "{n}"),
        }
    }
}

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, Value)>,
    /// Public calls attempted.
    pub attempted: u64,
    /// Calls that returned `Err` or whose output failed its check.
    pub failed: u64,
    /// Modelled results printed for the reader but kept out of the
    /// result line, because they are 0 on a healthy run.
    pub info: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a real-valued metric.
    pub fn real(&mut self, name: &'static str, v: f64) {
        self.metrics.push((name, Value::Real(v)));
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, v: u64) {
        self.metrics.push((name, Value::Count(v)));
    }

    /// Records a value printed for the reader only.
    pub fn info(&mut self, name: &'static str, v: f64) {
        self.info.push((name, v));
    }

    /// Counts one attempted call, and a failure when `ok` is false.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every attempted call succeeded and passed its check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The metric value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fills every metric of `spec` not yet recorded with a zero count:
    /// the workload does not exercise that layer.
    pub fn zero_fill(&mut self, spec: &[(&'static str, &'static str)]) {
        for &(name, _) in spec {
            if self.get(name).is_none() {
                self.count(name, 0);
            }
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the latter in `spec` order.
    ///
    /// # Errors
    ///
    /// Returns an error naming a metric of `spec` that was not recorded
    /// or is not finite.
    pub fn to_json(&self, spec: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, &(name, unit)) in spec.iter().enumerate() {
            let value = match self.get(name) {
                Some(Value::Real(v)) if !v.is_finite() => {
                    return Err(format!("metric {name} is {v}"));
                }
                Some(v) => v.to_string(),
                None => return Err(format!("metric {name} was not measured")),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Median of `v` (the mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `v` is empty or holds a NaN.
pub(crate) fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The fastest of `passes`, in seconds.
///
/// Every pass repeats the same deterministic work, so host contention can
/// only add time to it; the fastest pass is the closest estimate of the
/// program's own cost. On a shared host whose speed drifts over tens of
/// seconds it is also far steadier from run to run than the median.
pub(crate) fn fastest(passes: &[f64]) -> f64 {
    passes.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc/self/status` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether `name` is a legal metric name: non-empty, made only of ASCII
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_spec_order_and_rejects_missing_metrics() {
        let mut o = Outcome::default();
        o.attempt(true);
        o.real("b", 0.5);
        o.count("a", 3);
        let spec = [("a", "count"), ("b", "s")];
        assert_eq!(
            o.to_json(&spec).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 3, \"unit\": \"count\"}, \"b\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(o.to_json(&[("c", "s")]).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
