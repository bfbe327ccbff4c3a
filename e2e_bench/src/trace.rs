//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every timed call goes through [`Tracer::time`], which returns the
//! call's wall time. With tracing on, the call is also kept as a span
//! (name, start, end, parent) in memory and written out as JSON lines when
//! the workload ends. Nothing is traced inside the program itself.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.prepare`.
    pub name: String,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Span duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Times calls and, when enabled, records them as nested spans.
///
/// The benchmark drives every workload from one thread, so a `RefCell`
/// parent stack is enough; parallelism lives inside the program.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f`, returning its result and wall time in seconds. With
    /// tracing on, records a span named `name` under the innermost open
    /// span.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_owned(),
                start_s: self.now_s(),
                end_s: f64::NAN,
                parent: self.stack.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_s = self.now_s();
        (out, spans[idx].secs())
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total duration of the top-level spans.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Sum of the durations of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// The spans as JSON lines, each with its self time: its duration
    /// minus the time its child spans cover.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.borrow();
        let mut child_s = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"self_s\":{}}}",
                s.name,
                s.start_s,
                s.end_s,
                s.secs() - child_s[i]
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover_their_children() {
        let t = Tracer::new(true);
        let ((), outer) = t.time("outer", || {
            t.time("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(outer >= spans[1].secs());
        assert_eq!(t.root_secs(), spans[0].secs());
        assert!(t.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
