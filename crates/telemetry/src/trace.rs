//! Timeline tracing: tracks, spans, instants and flow arrows, exported as
//! Chrome trace-event JSON.
//!
//! The model mirrors what Perfetto renders. A **track** is one horizontal
//! lane, grouped under a named **process** (here: one process per simulated
//! device, one track per engine stream, plus a "cluster" process with one
//! track per tenant). A **span** is a closed interval on a track (a kernel,
//! a DMA, a collective, a job's running phase); an **instant** is a point
//! marker (arrival, rejection); a **flow** is an arrow from the end of one
//! span to the start of another, used to draw cross-stream [`Event`] gates
//! (prefetch → kernel, backward → all-reduce).
//!
//! [`TraceSink`] is the cheap cloneable handle instrumented code holds. The
//! disabled sink ([`TraceSink::off`]) carries no storage at all; every
//! recording method returns immediately, and callers are expected to guard
//! label *construction* behind [`TraceSink::is_enabled`] (or the engine's
//! `tracing()` convenience) so the off path never allocates.
//!
//! Times are integer nanoseconds, matching `sn-sim`'s `SimTime`; the Chrome
//! exporter emits microseconds with three decimals, so no precision is lost.
//!
//! [`Event`]: https://docs.rs/sn-sim (the sim engine's completion events)

use std::sync::{Arc, Mutex};

use crate::json::json_str;
use crate::lock;

/// Identifies a track (one timeline lane) within a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub u32);

/// Identifies a recorded span within a sink. [`SpanId::NONE`] is the null
/// id: flow arrows with a `NONE` endpoint are silently dropped, so callers
/// can pass through failed lookups without branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null span id; flows referencing it are ignored.
    pub const NONE: SpanId = SpanId(u32::MAX);

    pub fn is_none(self) -> bool {
        self == SpanId::NONE
    }
}

/// A typed span-argument value, shown in Perfetto's detail pane.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> ArgValue {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> ArgValue {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> ArgValue {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> ArgValue {
        ArgValue::Bool(v)
    }
}

impl ArgValue {
    fn to_json(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    // JSON has no NaN/Inf; stringify rather than corrupt.
                    json_str(&v.to_string())
                }
            }
            ArgValue::Str(s) => json_str(s),
            ArgValue::Bool(b) => b.to_string(),
        }
    }
}

/// A track definition: a lane named `name` under process `process`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackData {
    pub process: String,
    pub name: String,
}

/// One closed interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    pub track: TrackId,
    pub name: String,
    /// Category string (Chrome `cat` field) — groups spans for filtering,
    /// e.g. `"kernel"`, `"dma"`, `"collective"`, `"job"`.
    pub cat: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A point marker on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantData {
    pub track: TrackId,
    pub name: String,
    pub cat: &'static str,
    pub at_ns: u64,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// An arrow from the end of span `from` to the start of span `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowData {
    pub from: SpanId,
    pub to: SpanId,
}

/// The recorded trace: everything a sink has accumulated, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    pub tracks: Vec<TrackData>,
    pub spans: Vec<SpanData>,
    pub instants: Vec<InstantData>,
    pub flows: Vec<FlowData>,
}

/// Result of [`TraceSink::validate`] / [`TraceData::validate`]: the
/// structural invariants every exported trace must satisfy, plus event
/// counts for gating "the trace is non-trivial".
#[derive(Debug, Clone, Default)]
pub struct TraceCheck {
    pub tracks: usize,
    pub spans: usize,
    pub instants: usize,
    pub flows: usize,
    /// Human-readable invariant violations; empty means the trace is valid.
    pub errors: Vec<String>,
}

impl TraceCheck {
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }
}

/// The recording handle. Cloning shares the underlying buffer; the
/// [`off`](TraceSink::off) sink holds no buffer and records nothing.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<TraceData>>>,
}

impl TraceSink {
    /// The no-op sink: records nothing, allocates nothing. This is the
    /// zero-overhead-when-disabled configuration.
    pub fn off() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A live sink recording into a fresh shared buffer.
    pub fn recording() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(TraceData::default()))),
        }
    }

    /// Whether this sink records. Instrumented code should guard any label
    /// construction (formatting, cloning names) behind this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get-or-create the track named `name` under `process`. Returns a
    /// stable id; calling again with the same pair returns the same id.
    /// On a disabled sink returns `TrackId(0)` (which no span will record).
    pub fn track(&self, process: &str, name: &str) -> TrackId {
        let Some(inner) = &self.inner else {
            return TrackId(0);
        };
        let mut data = lock(inner);
        if let Some(i) = data
            .tracks
            .iter()
            .position(|t| t.process == process && t.name == name)
        {
            return TrackId(i as u32);
        }
        data.tracks.push(TrackData {
            process: process.to_string(),
            name: name.to_string(),
        });
        TrackId((data.tracks.len() - 1) as u32)
    }

    /// Record a span with arguments, taking ownership of the label to avoid
    /// a second allocation on the hot path. Returns its id
    /// ([`SpanId::NONE`] on a disabled sink).
    pub fn span_with(
        &self,
        track: TrackId,
        name: String,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        debug_assert!(start_ns <= end_ns, "span {name:?} ends before it starts");
        let mut data = lock(inner);
        data.spans.push(SpanData {
            track,
            name,
            cat,
            start_ns,
            end_ns,
            args,
        });
        SpanId((data.spans.len() - 1) as u32)
    }

    /// Record a point marker.
    pub fn instant(
        &self,
        track: TrackId,
        name: &str,
        cat: &'static str,
        at_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(inner) = &self.inner else { return };
        let instant = InstantData {
            track,
            name: name.to_string(),
            cat,
            at_ns,
            args,
        };
        lock(inner).instants.push(instant);
    }

    /// Record a flow arrow between two recorded spans. A [`SpanId::NONE`]
    /// endpoint (failed lookup, disabled sink) drops the arrow silently, so
    /// every recorded flow references real spans by construction.
    pub fn flow(&self, from: SpanId, to: SpanId) {
        if from.is_none() || to.is_none() {
            return;
        }
        let Some(inner) = &self.inner else { return };
        lock(inner).flows.push(FlowData { from, to });
    }

    /// A snapshot of everything recorded so far.
    pub fn data(&self) -> TraceData {
        match &self.inner {
            Some(inner) => lock(inner).clone(),
            None => TraceData::default(),
        }
    }

    /// Check structural invariants; see [`TraceData::validate`].
    pub fn validate(&self) -> TraceCheck {
        self.data().validate()
    }

    /// Export as Chrome trace-event JSON; see [`TraceData::export_chrome_json`].
    pub fn export_chrome_json(&self) -> String {
        self.data().export_chrome_json()
    }
}

impl TraceData {
    /// Verify the invariants the bench gates rely on:
    /// 1. every span/instant references a defined track;
    /// 2. per track, spans are time-ordered and non-overlapping (the engine
    ///    serializes each stream, so its track must read as a sequence);
    /// 3. every flow arrow's endpoints are recorded spans, with the arrow
    ///    pointing forward in time (destination starts no earlier than the
    ///    source ends).
    pub fn validate(&self) -> TraceCheck {
        let mut check = TraceCheck {
            tracks: self.tracks.len(),
            spans: self.spans.len(),
            instants: self.instants.len(),
            flows: self.flows.len(),
            errors: Vec::new(),
        };
        for (i, s) in self.spans.iter().enumerate() {
            if s.track.0 as usize >= self.tracks.len() {
                check.errors.push(format!(
                    "span {i} ({}) on undefined track {:?}",
                    s.name, s.track
                ));
            }
            if s.start_ns > s.end_ns {
                check
                    .errors
                    .push(format!("span {i} ({}) ends before it starts", s.name));
            }
        }
        for (i, m) in self.instants.iter().enumerate() {
            if m.track.0 as usize >= self.tracks.len() {
                check.errors.push(format!(
                    "instant {i} ({}) on undefined track {:?}",
                    m.name, m.track
                ));
            }
        }
        // Per-track ordering: spans are recorded in submission order, and
        // each engine stream serializes, so within a track the sequence must
        // be non-overlapping and non-decreasing.
        let mut last_end: Vec<Option<(u64, usize)>> = vec![None; self.tracks.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let t = s.track.0 as usize;
            if t >= last_end.len() {
                continue; // already reported above
            }
            if let Some((end, prev)) = last_end[t] {
                if s.start_ns < end {
                    check.errors.push(format!(
                        "track {:?}: span {i} ({}) starts at {}ns before span {prev} ends at {end}ns",
                        s.track, s.name, s.start_ns
                    ));
                }
            }
            last_end[t] = Some((s.end_ns, i));
        }
        for (i, f) in self.flows.iter().enumerate() {
            let from = f.from.0 as usize;
            let to = f.to.0 as usize;
            if from >= self.spans.len() || to >= self.spans.len() {
                check
                    .errors
                    .push(format!("flow {i} references unrecorded spans {:?}", f));
                continue;
            }
            if self.spans[to].start_ns < self.spans[from].end_ns {
                check.errors.push(format!(
                    "flow {i} points backward in time: {} ends at {}ns, {} starts at {}ns",
                    self.spans[from].name,
                    self.spans[from].end_ns,
                    self.spans[to].name,
                    self.spans[to].start_ns
                ));
            }
        }
        check
    }

    /// Serialize as a Chrome trace-event JSON object (`{"traceEvents": [...]}`),
    /// loadable in Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`.
    ///
    /// Layout conventions: each distinct process name becomes one Chrome
    /// `pid` (emitted via `process_name` metadata), each track one `tid`
    /// under its process (via `thread_name` metadata, with
    /// `thread_sort_index` preserving definition order). Spans are `"X"`
    /// complete events; instants are `"i"` thread-scoped instants; flows are
    /// `"s"`/`"f"` pairs bound to the end of the source span and the start
    /// of the destination span. Timestamps are microseconds with nanosecond
    /// precision (three decimals).
    pub fn export_chrome_json(&self) -> String {
        // Map process names to pids (1-based, in order of first appearance)
        // and tracks to tids (1-based, definition order within the sink).
        let mut processes: Vec<&str> = Vec::new();
        let mut pid_of = Vec::with_capacity(self.tracks.len());
        for t in &self.tracks {
            let pid = match processes.iter().position(|p| *p == t.process) {
                Some(i) => i + 1,
                None => {
                    processes.push(&t.process);
                    processes.len()
                }
            };
            pid_of.push(pid);
        }

        let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let args_json = |args: &[(&'static str, ArgValue)]| {
            let body: Vec<String> = args
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), v.to_json()))
                .collect();
            format!("{{{}}}", body.join(","))
        };

        let mut ev: Vec<String> = Vec::new();
        for (i, p) in processes.iter().enumerate() {
            ev.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":{}}}}}",
                i + 1,
                json_str(p)
            ));
        }
        for (i, t) in self.tracks.iter().enumerate() {
            let (pid, tid) = (pid_of[i], i + 1);
            ev.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_str(&t.name)
            ));
            ev.push(format!(
                "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
        for s in &self.spans {
            let (pid, tid) = (pid_of[s.track.0 as usize], s.track.0 as usize + 1);
            ev.push(format!(
                "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{}}}",
                json_str(&s.name),
                json_str(s.cat),
                us(s.start_ns),
                us(s.end_ns - s.start_ns),
                args_json(&s.args)
            ));
        }
        for m in &self.instants {
            let (pid, tid) = (pid_of[m.track.0 as usize], m.track.0 as usize + 1);
            ev.push(format!(
                "{{\"ph\":\"i\",\"name\":{},\"cat\":{},\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"args\":{}}}",
                json_str(&m.name),
                json_str(m.cat),
                us(m.at_ns),
                args_json(&m.args)
            ));
        }
        for (i, f) in self.flows.iter().enumerate() {
            let (Some(from), Some(to)) = (
                self.spans.get(f.from.0 as usize),
                self.spans.get(f.to.0 as usize),
            ) else {
                continue; // invalid flows are reported by validate(), not exported
            };
            let (fp, ft) = (pid_of[from.track.0 as usize], from.track.0 as usize + 1);
            let (tp, tt) = (pid_of[to.track.0 as usize], to.track.0 as usize + 1);
            ev.push(format!(
                "{{\"ph\":\"s\",\"name\":\"gate\",\"cat\":\"flow\",\"id\":{},\"pid\":{fp},\"tid\":{ft},\"ts\":{}}}",
                i + 1,
                us(from.end_ns)
            ));
            ev.push(format!(
                "{{\"ph\":\"f\",\"name\":\"gate\",\"cat\":\"flow\",\"bp\":\"e\",\"id\":{},\"pid\":{tp},\"tid\":{tt},\"ts\":{}}}",
                i + 1,
                us(to.start_ns)
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
            ev.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span with no arguments.
    fn span(sink: &TraceSink, t: TrackId, name: &str, start_ns: u64, end_ns: u64) -> SpanId {
        sink.span_with(t, name.to_string(), "kernel", start_ns, end_ns, Vec::new())
    }

    #[test]
    fn off_sink_records_nothing_and_returns_none_ids() {
        let sink = TraceSink::off();
        assert!(!sink.is_enabled());
        let t = sink.track("device 0", "compute");
        let s = span(&sink, t, "kernel", 0, 10);
        assert!(s.is_none());
        sink.flow(s, s);
        sink.instant(t, "arrive", "job", 5, Vec::new());
        let data = sink.data();
        assert!(data.tracks.is_empty());
        assert!(data.spans.is_empty());
        assert!(data.instants.is_empty());
        assert!(data.flows.is_empty());
        assert!(sink.validate().is_valid());
    }

    #[test]
    fn tracks_are_interned_by_process_and_name() {
        let sink = TraceSink::recording();
        let a = sink.track("device 0", "compute");
        let b = sink.track("device 0", "h2d");
        let a2 = sink.track("device 0", "compute");
        let c = sink.track("device 1", "compute");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(sink.data().tracks.len(), 3);
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::recording();
        let clone = sink.clone();
        let t = clone.track("p", "t");
        span(&clone, t, "s", 0, 1);
        assert_eq!(sink.data().spans.len(), 1);
    }

    #[test]
    fn validate_catches_overlap_and_bad_flows() {
        let sink = TraceSink::recording();
        let t = sink.track("p", "t");
        let a = span(&sink, t, "a", 0, 10);
        let b = span(&sink, t, "b", 5, 15); // overlaps a
        sink.flow(b, a); // points backward in time
        sink.flow(a, SpanId(99)); // NONE-free but unrecorded id
        let check = sink.validate();
        assert!(!check.is_valid());
        assert_eq!(check.errors.len(), 3);
    }

    #[test]
    fn validate_accepts_a_well_formed_trace() {
        let sink = TraceSink::recording();
        let t0 = sink.track("device 0", "compute");
        let t1 = sink.track("device 0", "h2d");
        let p = sink.span_with(t1, "prefetch CONV1_w".into(), "dma", 0, 400, Vec::new());
        let k = span(&sink, t0, "CONV1", 400, 1_900);
        span(&sink, t0, "POOL1", 1_900, 2_200);
        sink.flow(p, k);
        sink.instant(t0, "iter end", "marker", 2_200, vec![("iter", 1u64.into())]);
        let check = sink.validate();
        assert!(check.is_valid(), "unexpected errors: {:?}", check.errors);
        assert_eq!(check.spans, 3);
        assert_eq!(check.flows, 1);
        assert_eq!(check.instants, 1);
    }

    /// Golden round-trip of a hand-built trace: the exported JSON must be
    /// byte-stable (downstream diffs depend on it) and contain exactly the
    /// event structure Perfetto needs.
    #[test]
    fn golden_chrome_export() {
        let sink = TraceSink::recording();
        let compute = sink.track("device 0", "compute");
        let h2d = sink.track("device 0", "h2d");
        let p = sink.span_with(
            h2d,
            "prefetch".to_string(),
            "dma",
            0,
            1_500,
            vec![("bytes", ArgValue::U64(4096))],
        );
        let k = sink.span_with(
            compute,
            "CONV1".to_string(),
            "kernel",
            1_500,
            4_000,
            vec![("step", 0u64.into()), ("phase", "forward".into())],
        );
        sink.flow(p, k);
        sink.instant(compute, "done", "marker", 4_000, Vec::new());

        let json = sink.export_chrome_json();
        let expected = concat!(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"device 0\"}},\n",
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"compute\"}},\n",
            "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":1,\"tid\":1,\"args\":{\"sort_index\":1}},\n",
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"h2d\"}},\n",
            "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":1,\"tid\":2,\"args\":{\"sort_index\":2}},\n",
            "{\"ph\":\"X\",\"name\":\"prefetch\",\"cat\":\"dma\",\"pid\":1,\"tid\":2,\"ts\":0.000,\"dur\":1.500,\"args\":{\"bytes\":4096}},\n",
            "{\"ph\":\"X\",\"name\":\"CONV1\",\"cat\":\"kernel\",\"pid\":1,\"tid\":1,\"ts\":1.500,\"dur\":2.500,\"args\":{\"step\":0,\"phase\":\"forward\"}},\n",
            "{\"ph\":\"i\",\"name\":\"done\",\"cat\":\"marker\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":4.000,\"args\":{}},\n",
            "{\"ph\":\"s\",\"name\":\"gate\",\"cat\":\"flow\",\"id\":1,\"pid\":1,\"tid\":2,\"ts\":1.500},\n",
            "{\"ph\":\"f\",\"name\":\"gate\",\"cat\":\"flow\",\"bp\":\"e\",\"id\":1,\"pid\":1,\"tid\":1,\"ts\":1.500}",
            "]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn export_timestamps_keep_nanosecond_precision() {
        let sink = TraceSink::recording();
        let t = sink.track("p", "t");
        span(&sink, t, "s", 1, 1_000_001);
        let json = sink.export_chrome_json();
        assert!(json.contains("\"ts\":0.001"), "{json}");
        assert!(json.contains("\"dur\":1000.000"), "{json}");
    }
}
