//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer's public functions: name, start, end, parent span and the id of
//! the operation they belong to. A layer's self time is its spans' time
//! minus the part covered by their child spans. With tracing off,
//! [`Tracer::span`] only calls the closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval (e.g. one HTTP request timed
    /// on a sender thread) as a root span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, op: u64) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            op,
        });
    }

    /// Self time per span name, in ms: each span's duration minus its
    /// children's durations, summed over all spans of that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns.saturating_sub(s.start_ns) as f64;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += ns.max(0.0) / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let m = t.self_ms();
        assert!(m["inner"] >= 10.0);
        assert!(m["outer"] >= 5.0 && m["outer"] < 10.0, "{m:?}");
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.self_ms().is_empty());
    }
}
