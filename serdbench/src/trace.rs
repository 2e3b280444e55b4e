//! In-memory span recorder for traced runs.
//!
//! Spans are opened by the benchmark's own code around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! A disabled tracer records nothing, so timed runs pay one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Span request ids: a timed loop's operations count up from 0, and these
/// ranges keep set-up, replay, fidelity and check spans apart from them.
pub const REPLAY_REQ: u64 = 1_000_000;
pub const FIDELITY_REQ: u64 = 2_000_000;
pub const SETUP_REQ: u64 = 3_000_000;
pub const CHECK_REQ: u64 = 4_000_000;

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Request (or iteration) id shared by every span of one operation.
    pub req: u64,
    pub thread: u32,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let end = t.now_ns();
            t.spans.borrow_mut()[self.idx].end_ns = end;
            t.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops. Spans nest: the
    /// innermost open span on this tracer becomes the parent.
    pub fn span(&self, name: &'static str, req: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: None,
                idx: 0,
            };
        }
        let parent = self.stack.borrow().last().copied();
        let start = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(SpanRec {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            req,
            thread: self.thread,
        });
        self.stack.borrow_mut().push(idx);
        SpanGuard {
            tracer: Some(self),
            idx,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name, req);
        f()
    }

    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans.into_inner()
    }
}

/// Per-name totals: call count, total seconds, self seconds (total minus
/// the part covered by child spans).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub durations: Vec<f64>,
}

/// Aggregates spans by name. `lists` holds one span list per tracer, and
/// each span's `parent` indexes into its own list.
pub fn by_name(lists: &[Vec<SpanRec>]) -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for spans in lists {
        let mut child_s = vec![0.0f64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.secs();
            e.self_s += s.secs() - child_s[i];
            e.durations.push(s.secs());
        }
    }
    out
}

/// Mean cost in seconds of opening and closing one span, measured on an
/// enabled tracer: the per-span overhead a traced run adds.
pub fn span_cost_s() -> f64 {
    const N: u64 = 20_000;
    let t = Tracer::new(true, Instant::now(), u32::MAX);
    let start = Instant::now();
    for i in 0..N {
        let _g = t.span("calibrate", i);
    }
    start.elapsed().as_secs_f64() / N as f64
}

/// JSON-lines rendering of spans, one object per span.
pub fn to_jsonl(lists: &[Vec<SpanRec>]) -> String {
    let mut out = String::new();
    for spans in lists {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"thread\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
                s.name, s.thread, s.req, s.start_ns, s.end_ns, parent
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, Instant::now(), 0);
        {
            let _a = t.span("a", 1);
            let _b = t.span("b", 1);
        }
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let t = Tracer::new(true, Instant::now(), 0);
        {
            let _outer = t.span("outer", 7);
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = t.span("inner", 7);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 7));
        let stats = by_name(&[spans]);
        let outer = &stats["outer"];
        let inner = &stats["inner"];
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert!(outer.self_s > 0.0 && inner.self_s > 0.0);
    }
}
