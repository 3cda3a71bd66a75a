//! Spans recorded from outside the program: the benchmark wraps each call
//! into a layer's public function in [`span`], keeps the records in memory,
//! and derives a layer's self time as its span minus its child spans.
//!
//! Off by default — the end-to-end run never records — and the off path is
//! one thread-local flag test per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent" marker.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request (a pass, a cell, a job stream) share it.
    pub request: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread (dropping anything recorded before).
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
    ON.set(true);
}

/// Pause or resume recording without dropping what was recorded.
pub fn recording(on: bool) {
    ON.set(on && TRACER.with(|t| t.borrow().is_some()));
}

/// Is this thread recording right now?
#[inline]
pub fn on() -> bool {
    ON.get()
}

/// Stop recording and hand back every span, in start order.
pub fn finish() -> Vec<SpanRec> {
    ON.set(false);
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Run `f` inside a span named `name` belonging to `request`.
#[inline]
pub fn span<R>(name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
    if !ON.get() {
        return f();
    }
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("recording implies a tracer");
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(ROOT);
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        t.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        t.open.push(id);
        id
    });
    let r = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut().expect("recording implies a tracer");
        t.spans[id as usize].end_ns = t.t0.elapsed().as_nanos() as u64;
        let closed = t.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
    });
    r
}

/// Per-name totals: `(spans, Σ duration ns, Σ self ns)`, self = duration
/// minus the durations of the span's direct children.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The trace file: one object per span, at most `cap` of them (a long
/// `plan_reuse` trace holds a million sub-microsecond spans; the totals the
/// metrics are derived from always cover all of them).
pub fn to_json(spans: &[SpanRec], cap: usize) -> String {
    let mut s = String::with_capacity(64 * spans.len().min(cap) + 64);
    s.push_str(&format!(
        "{{\"spans_total\":{},\"spans_written\":{},\"spans\":[",
        spans.len(),
        spans.len().min(cap)
    ));
    for (i, sp) in spans.iter().take(cap).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = if sp.parent == ROOT {
            -1
        } else {
            i64::from(sp.parent)
        };
        s.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            sp.name, sp.start_ns, sp.end_ns, sp.request
        ));
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        start();
        span("outer", 7, || {
            span("inner", 7, || std::hint::black_box(1 + 1));
            span("inner", 7, || std::hint::black_box(2 + 2));
        });
        recording(false);
        span("ignored", 0, || ());
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.request == 7));
        let st = self_times(&spans);
        let (n_outer, total_outer, self_outer) = st["outer"];
        let (n_inner, total_inner, self_inner) = st["inner"];
        assert_eq!((n_outer, n_inner), (1, 2));
        assert_eq!(total_inner, self_inner);
        assert_eq!(self_outer, total_outer - total_inner);
        assert!(to_json(&spans, 2).contains("\"spans_written\":2"));
        // Off: nothing is recorded and `f` still runs.
        assert_eq!(span("off", 0, || 5), 5);
        assert!(finish().is_empty());
    }
}
