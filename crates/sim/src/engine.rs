//! The multi-stream execution timeline.
//!
//! Modern GPUs expose independent copy engines next to the SM array, which is
//! what lets the SuperNeurons runtime hide offload (device→host) and prefetch
//! (host→device) traffic under kernel execution. We model the device as a set
//! of **streams** — serializing queues with a `busy_until` frontier: an
//! operation submitted at time `t` starts at `max(t, busy_until, gates)`,
//! runs for its duration, and moves the frontier. Cross-stream ordering is
//! expressed through [`Event`]s (the analogue of `cudaEvent_t`), and a submit
//! may be gated on *any number* of events from other streams.
//!
//! Every [`Timeline`] starts with the three canonical streams of a CUDA
//! device — [`StreamId::COMPUTE`], [`StreamId::H2D`], [`StreamId::D2H`] —
//! and callers may [`Timeline::add_stream`] more copy queues or link ports
//! without touching this module; the compute stream stays the only one of
//! its kind. Each stream keeps a busy *timeline* (coalesced `[start, end)`
//! spans), from which [`Timeline::overlap`] derives how much DMA time was
//! hidden under compute — the quantity the `overlap` bench experiment
//! reports per policy — in one forward walk of the compute spans, reading
//! their busy time at each edge of the transfer spans' union.

use std::borrow::Cow;

use crate::time::SimTime;
use sn_telemetry::{ArgValue, SpanId, TraceSink, TrackId};

/// Which kind of hardware queue a stream models. Several streams may share a
/// kind (e.g. two H2D copy queues); statistics aggregate per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The SM array: kernels (layer forward/backward, recompute passes).
    Compute,
    /// Host→device DMA engine (prefetch).
    H2D,
    /// Device→host DMA engine (offload).
    D2H,
    /// Inter-GPU link port (NVLink/PCIe peer): the queue a device's
    /// collective operations serialize on. Not a canonical stream — the
    /// group runtime adds one — and accounted separately from PCIe
    /// traffic (`link_bytes`/`link_busy`), so data-parallel gradient
    /// exchange never perturbs the paper's Table 3 transfer numbers.
    Link,
}

/// Handle to one stream of a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

impl StreamId {
    /// The canonical kernel stream every `Timeline` starts with.
    pub const COMPUTE: StreamId = StreamId(0);
    /// The canonical host→device copy stream.
    pub const H2D: StreamId = StreamId(1);
    /// The canonical device→host copy stream.
    pub const D2H: StreamId = StreamId(2);
}

/// Completion marker for a submitted operation (cf. `cudaEvent_t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time at which the operation finishes.
    pub done_at: SimTime,
    /// Stream the operation ran on.
    pub stream: StreamId,
}

/// A tracked in-flight DMA: the completion event plus the payload size (for
/// traffic accounting and diagnostics by whoever holds it). This is what
/// subsystems hold instead of bare events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dma {
    pub event: Event,
    pub bytes: u64,
}

/// One serializing queue: its frontier plus the busy timeline since the last
/// stats reset.
#[derive(Debug, Clone)]
struct Stream {
    kind: EngineKind,
    busy_until: SimTime,
    busy_total: SimTime,
    ops: u64,
    /// Coalesced busy spans `[start, end)` in ns, ascending — per-stream ops
    /// serialize, so spans never overlap and append in order.
    intervals: Vec<(u64, u64)>,
}

impl Stream {
    fn new(kind: EngineKind) -> Stream {
        Stream {
            kind,
            busy_until: SimTime::ZERO,
            busy_total: SimTime::ZERO,
            ops: 0,
            intervals: Vec::new(),
        }
    }
}

/// Per-run transfer and utilization statistics, aggregated per stream kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimelineStats {
    /// Bytes moved host→device.
    pub h2d_bytes: u64,
    /// Bytes moved device→host.
    pub d2h_bytes: u64,
    /// Bytes this device moved over its inter-GPU link (collectives) —
    /// deliberately *not* PCIe traffic (`h2d_bytes + d2h_bytes`, the
    /// quantity Table 3 reports).
    pub link_bytes: u64,
    /// Total busy time of the compute stream.
    pub compute_busy: SimTime,
    /// Total busy time of H2D streams.
    pub h2d_busy: SimTime,
    /// Total busy time of D2H streams.
    pub d2h_busy: SimTime,
    /// Total busy time of inter-GPU link streams.
    pub link_busy: SimTime,
    /// Time the *caller* spent blocked waiting on events (stalls that the
    /// overlap machinery failed to hide).
    pub stall: SimTime,
    /// Number of compute operations issued.
    pub compute_ops: u64,
}

/// How much transfer time was hidden under compute, derived from the busy
/// timelines: `overlapped` is the length of the intersection between the
/// compute stream's spans and the union of DMA spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlapStats {
    /// Length of the compute stream's busy spans.
    pub compute_busy: SimTime,
    /// Union length of DMA busy spans (all transfer streams together).
    pub transfer_busy: SimTime,
    /// Length of compute ∩ transfer — DMA time hidden under kernels.
    pub overlapped: SimTime,
}

impl OverlapStats {
    /// Fraction of transfer time hidden under compute, in `[0, 1]`.
    /// Zero when no transfers occurred.
    pub fn fraction(&self) -> f64 {
        if self.transfer_busy == SimTime::ZERO {
            0.0
        } else {
            self.overlapped.as_ns() as f64 / self.transfer_busy.as_ns() as f64
        }
    }
}

/// The sorted, disjoint union of several streams' busy-span lists. Each
/// list is already sorted, coalesced and disjoint (a stream serializes its
/// ops), so one non-empty list *is* its union and is borrowed as it stands;
/// several are merged front to front, coalescing as they go, with no sort.
fn union_spans<'a>(lists: impl Iterator<Item = &'a [(u64, u64)]>) -> Cow<'a, [(u64, u64)]> {
    let mut lists = lists.filter(|l| !l.is_empty());
    let first = lists.next().unwrap_or(&[]);
    let Some(second) = lists.next() else {
        return Cow::Borrowed(first);
    };
    let mut merged = merge_spans(first, second);
    for next in lists {
        merged = merge_spans(&merged, next);
    }
    Cow::Owned(merged)
}

/// Two sorted span lists into one sorted, disjoint list: always take the
/// earlier-starting front, and grow the last kept span instead of pushing
/// when the taken one touches or overlaps it.
fn merge_spans(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let from_a = j == b.len() || (i < a.len() && a[i] <= b[j]);
        let next = if from_a { a[i] } else { b[j] };
        i += from_a as usize;
        j += !from_a as usize;
        match out.last_mut() {
            Some(kept) if next.0 <= kept.1 => kept.1 = kept.1.max(next.1),
            _ => out.push(next),
        }
    }
    out
}

/// The total length of `compute`'s spans and of their intersection with
/// `spans`, both lists sorted and disjoint, in one forward walk of
/// `compute`: `busy(x)`, its busy ns before `x`, is read at each edge of the
/// short `spans` in turn, and each span adds `busy(e) − busy(s)`.
fn intersect_len(compute: &[(u64, u64)], spans: &[(u64, u64)]) -> (u64, u64) {
    let mut rest = compute.iter();
    let (mut at, mut before) = (rest.next(), 0u64);
    let mut busy = |x: u64| {
        while let Some(&(s, e)) = at.filter(|&&(_, e)| e <= x) {
            before += e - s;
            at = rest.next();
        }
        before + at.map_or(0, |&(s, _)| x.saturating_sub(s))
    };
    let mut overlapped = 0;
    for &(s, e) in spans {
        let start = busy(s);
        overlapped += busy(e) - start;
    }
    (busy(u64::MAX), overlapped)
}

fn span_len(spans: &[(u64, u64)]) -> u64 {
    spans.iter().map(|(s, e)| e - s).sum()
}

/// A pending annotation for the *next* operation submitted to this timeline:
/// the span name, category, and typed arguments shown in the trace viewer.
/// Set via [`Timeline::trace_label`] right before the submit; unlabeled
/// operations fall back to their stream kind's generic name ("kernel",
/// "h2d", "d2h", "link").
#[derive(Debug, Clone)]
pub struct SpanLabel {
    pub name: String,
    pub cat: &'static str,
    pub args: Vec<(&'static str, ArgValue)>,
}

impl SpanLabel {
    pub fn new(name: impl Into<String>, cat: &'static str) -> SpanLabel {
        SpanLabel {
            name: name.into(),
            cat,
            args: Vec::new(),
        }
    }

    /// Attach a typed argument (builder-style).
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> SpanLabel {
        self.args.push((key, value.into()));
        self
    }
}

/// The timeline's connection to a [`TraceSink`]: one track per stream, the
/// completed-span index used to resolve gate events into flow arrows, and
/// the pending label. Present only while tracing is on, so the disabled
/// path in [`Timeline::submit_on`] is a single `is_some` branch.
#[derive(Debug, Clone)]
struct Tracer {
    sink: TraceSink,
    /// Process name in the trace (e.g. `"device 0"`).
    device: String,
    /// Track per stream, parallel to `Timeline::streams`.
    tracks: Vec<TrackId>,
    /// Stream kinds already registered (for track-name dedup).
    kinds: Vec<EngineKind>,
    /// Per stream: `(end_ns, span)` of every recorded span, ends strictly
    /// increasing (streams serialize and zero-duration ops are skipped), so
    /// a gate event resolves to its source span by binary search.
    ends: Vec<Vec<(u64, SpanId)>>,
    label: Option<SpanLabel>,
}

impl Tracer {
    fn register(&mut self, kind: EngineKind) {
        let base = match kind {
            EngineKind::Compute => "compute",
            EngineKind::H2D => "h2d",
            EngineKind::D2H => "d2h",
            EngineKind::Link => "link",
        };
        let nth = self.kinds.iter().filter(|k| **k == kind).count();
        let name = if nth == 0 {
            base.to_string()
        } else {
            format!("{base} {}", nth + 1)
        };
        self.tracks.push(self.sink.track(&self.device, &name));
        self.kinds.push(kind);
        self.ends.push(Vec::new());
    }

    /// The recorded span that ends exactly when `e` completes, if any.
    fn span_ending(&self, e: Event) -> SpanId {
        let Some(ends) = self.ends.get(e.stream.0) else {
            return SpanId::NONE;
        };
        match ends.binary_search_by_key(&e.done_at.as_ns(), |(ns, _)| *ns) {
            Ok(i) => ends[i].1,
            Err(_) => SpanId::NONE,
        }
    }
}

fn default_label(kind: EngineKind) -> (&'static str, &'static str) {
    match kind {
        EngineKind::Compute => ("kernel", "kernel"),
        EngineKind::H2D => ("h2d", "dma"),
        EngineKind::D2H => ("d2h", "dma"),
        EngineKind::Link => ("link", "collective"),
    }
}

/// The device timeline: a virtual clock plus a set of streams.
///
/// The caller (the runtime's executor) plays the role of the host thread: it
/// submits work, occasionally waits on events, and advances `now` past
/// host-side costs (e.g. `cudaMalloc` latency) with [`Timeline::advance`].
#[derive(Debug, Clone)]
pub struct Timeline {
    now: SimTime,
    streams: Vec<Stream>,
    h2d_bytes: u64,
    d2h_bytes: u64,
    link_bytes: u64,
    stall: SimTime,
    /// `None` unless a live [`TraceSink`] is attached — the disabled path
    /// costs one branch per submit and allocates nothing.
    tracer: Option<Box<Tracer>>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new()
    }
}

impl Timeline {
    /// A timeline with the three canonical streams of a CUDA device.
    pub fn new() -> Self {
        Timeline {
            now: SimTime::ZERO,
            streams: vec![
                Stream::new(EngineKind::Compute),
                Stream::new(EngineKind::H2D),
                Stream::new(EngineKind::D2H),
            ],
            h2d_bytes: 0,
            d2h_bytes: 0,
            link_bytes: 0,
            stall: SimTime::ZERO,
            tracer: None,
        }
    }

    /// Add another stream of the given kind (e.g. a second copy queue or a
    /// link port). A timeline has exactly one compute stream, so adding
    /// another panics.
    pub fn add_stream(&mut self, kind: EngineKind) -> StreamId {
        assert!(
            kind != EngineKind::Compute,
            "a timeline has one compute stream"
        );
        self.streams.push(Stream::new(kind));
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.register(kind);
        }
        StreamId(self.streams.len() - 1)
    }

    /// Attach a [`TraceSink`]: every subsequent operation on this timeline
    /// is recorded as a span on a per-stream track under process `device`
    /// (e.g. `"device 0"`), and cross-stream gate events become flow
    /// arrows. Attaching a disabled sink detaches instead, keeping the
    /// submit hot path free of tracing work.
    pub fn attach_tracer(&mut self, sink: &TraceSink, device: &str) {
        if !sink.is_enabled() {
            self.tracer = None;
            return;
        }
        let mut tr = Tracer {
            sink: sink.clone(),
            device: device.to_string(),
            tracks: Vec::new(),
            kinds: Vec::new(),
            ends: Vec::new(),
            label: None,
        };
        let kinds: Vec<EngineKind> = self.streams.iter().map(|s| s.kind).collect();
        for kind in kinds {
            tr.register(kind);
        }
        self.tracer = Some(Box::new(tr));
    }

    /// Whether a live trace sink is attached. Instrumented callers guard
    /// label construction behind this, so tracing is zero-cost when off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Annotate the *next* submitted operation with `label` (name, category,
    /// args) instead of its stream kind's generic name. A no-op when no
    /// tracer is attached.
    pub fn trace_label(&mut self, label: SpanLabel) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.label = Some(label);
        }
    }

    /// Record the just-submitted operation `[start, done)` on `stream` as a
    /// span, consuming the pending label, and resolve every cross-stream
    /// gate into a flow arrow ending at this span. Zero-duration ops consume
    /// the label but record nothing (they occupy no timeline width), keeping
    /// span ends strictly increasing per stream.
    fn trace_submit(&mut self, stream: StreamId, start: SimTime, done: SimTime, gates: &[Event]) {
        let kind = self.streams[stream.0].kind;
        let tr = self.tracer.as_deref_mut().expect("tracer attached");
        let label = tr.label.take();
        if done == start {
            return;
        }
        let (name, cat, args) = match label {
            Some(l) => (l.name, l.cat, l.args),
            None => {
                let (name, cat) = default_label(kind);
                (name.to_string(), cat, Vec::new())
            }
        };
        let id = tr.sink.span_with(
            tr.tracks[stream.0],
            name,
            cat,
            start.as_ns(),
            done.as_ns(),
            args,
        );
        for g in gates {
            if g.stream != stream && g.done_at > SimTime::ZERO {
                tr.sink.flow(tr.span_ending(*g), id);
            }
        }
        tr.ends[stream.0].push((done.as_ns(), id));
    }

    /// The canonical stream for a kind. Link streams have no canonical
    /// slot — a device may have zero or several link ports, added via
    /// [`Timeline::add_stream`].
    pub fn canonical(kind: EngineKind) -> StreamId {
        match kind {
            EngineKind::Compute => StreamId::COMPUTE,
            EngineKind::H2D => StreamId::H2D,
            EngineKind::D2H => StreamId::D2H,
            EngineKind::Link => panic!("link streams have no canonical id; use add_stream"),
        }
    }

    /// Current host-thread virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Submit an operation of `duration` to `stream`, not starting before any
    /// of the `gates` complete (cross-stream dependencies). Returns the
    /// completion event. Does **not** block the host thread.
    pub fn submit_on(&mut self, stream: StreamId, duration: SimTime, gates: &[Event]) -> Event {
        let gate = gates
            .iter()
            .map(|e| e.done_at)
            .fold(SimTime::ZERO, SimTime::max);
        let now = self.now;
        let s = &mut self.streams[stream.0];
        let start = s.busy_until.max(now).max(gate);
        let done = start + duration;
        s.busy_until = done;
        s.busy_total += duration;
        s.ops += 1;
        if duration > SimTime::ZERO {
            match s.intervals.last_mut() {
                Some(last) if last.1 == start.as_ns() => last.1 = done.as_ns(),
                _ => s.intervals.push((start.as_ns(), done.as_ns())),
            }
        }
        if self.tracer.is_some() {
            self.trace_submit(stream, start, done, gates);
        }
        Event {
            done_at: done,
            stream,
        }
    }

    /// Submit an operation with no cross-stream dependency.
    pub fn submit(&mut self, kind: EngineKind, duration: SimTime) -> Event {
        self.submit_on(Self::canonical(kind), duration, &[])
    }

    /// Submit a DMA transfer of `bytes` at `gbps` on `stream` (which must be
    /// a transfer stream; its kind determines the accounting direction).
    pub fn transfer_on(&mut self, stream: StreamId, bytes: u64, gbps: f64, gates: &[Event]) -> Dma {
        let duration = crate::time::transfer_time(bytes, gbps);
        self.submit_timed_transfer(stream, bytes, duration, gates)
    }

    /// Submit a transfer of `bytes` with an explicit `duration` (used for
    /// collectives, whose wire time includes per-hop latencies the bandwidth
    /// formula cannot express). Accounting follows the stream's kind.
    pub fn submit_timed_transfer(
        &mut self,
        stream: StreamId,
        bytes: u64,
        duration: SimTime,
        gates: &[Event],
    ) -> Dma {
        match self.streams[stream.0].kind {
            EngineKind::H2D => self.h2d_bytes += bytes,
            EngineKind::D2H => self.d2h_bytes += bytes,
            EngineKind::Link => self.link_bytes += bytes,
            EngineKind::Compute => panic!("transfer submitted to a compute stream"),
        }
        let event = self.submit_on(stream, duration, gates);
        Dma { event, bytes }
    }

    /// Block the host thread until `event` completes, accounting the stall.
    pub fn wait(&mut self, event: Event) {
        if event.done_at > self.now {
            self.stall += event.done_at - self.now;
            self.now = event.done_at;
        }
    }

    /// Block until *all* streams drain (cf. `cudaDeviceSynchronize`).
    pub fn sync_all(&mut self) {
        let frontier = self
            .streams
            .iter()
            .map(|s| s.busy_until)
            .fold(self.now, SimTime::max);
        if frontier > self.now {
            self.stall += frontier - self.now;
            self.now = frontier;
        }
    }

    /// Advance the host thread by `d` (host-side work such as allocator
    /// bookkeeping or `cudaMalloc` latency, which serializes the host).
    #[inline]
    pub fn advance(&mut self, d: SimTime) {
        self.now += d;
    }

    /// Move the host clock up to the compute frontier. The executor calls
    /// this after submitting a layer's kernels: the host thread in a training
    /// loop is logically synchronous with compute (it must observe results
    /// before scheduling dependent memory operations), while DMA streams
    /// drain in the background.
    pub fn join_compute(&mut self) {
        self.now = self.now.max(self.streams[StreamId::COMPUTE.0].busy_until);
    }

    /// Completion frontier of one stream.
    pub fn stream_frontier(&self, stream: StreamId) -> SimTime {
        self.streams[stream.0].busy_until
    }

    /// An event that completes when everything currently queued on `stream`
    /// has drained — the gate for "after all reads of X issued so far".
    pub fn frontier_event(&self, stream: StreamId) -> Event {
        Event {
            done_at: self.streams[stream.0].busy_until,
            stream,
        }
    }

    /// Snapshot of accumulated statistics, aggregated per stream kind.
    pub fn stats(&self) -> TimelineStats {
        let mut s = TimelineStats {
            h2d_bytes: self.h2d_bytes,
            d2h_bytes: self.d2h_bytes,
            link_bytes: self.link_bytes,
            stall: self.stall,
            ..TimelineStats::default()
        };
        for st in &self.streams {
            match st.kind {
                EngineKind::Compute => {
                    s.compute_busy += st.busy_total;
                    s.compute_ops += st.ops;
                }
                EngineKind::H2D => s.h2d_busy += st.busy_total,
                EngineKind::D2H => s.d2h_busy += st.busy_total,
                EngineKind::Link => s.link_busy += st.busy_total,
            }
        }
        s
    }

    /// Overlap between the compute stream's busy spans, as they stand, and
    /// the union of the spans of the streams of `kinds` (reported as
    /// `transfer_busy`).
    fn overlap_of(&self, kinds: &[EngineKind]) -> OverlapStats {
        let of_kinds = self.streams.iter().filter(|s| kinds.contains(&s.kind));
        let tu = union_spans(of_kinds.map(|s| s.intervals.as_slice()));
        let compute = &self.streams[StreamId::COMPUTE.0].intervals;
        let (compute_busy, overlapped) = intersect_len(compute, &tu);
        OverlapStats {
            compute_busy: SimTime::from_ns(compute_busy),
            transfer_busy: SimTime::from_ns(span_len(&tu)),
            overlapped: SimTime::from_ns(overlapped),
        }
    }

    /// Compute/PCIe-transfer overlap since the last stats reset, from the
    /// per-stream busy timelines. Link (collective) streams are excluded —
    /// they have their own query, [`Timeline::link_overlap`] — so the
    /// single-device offload/prefetch numbers are unchanged by the presence
    /// of a link port.
    pub fn overlap(&self) -> OverlapStats {
        self.overlap_of(&[EngineKind::H2D, EngineKind::D2H])
    }

    /// Compute/collective overlap: how much inter-GPU link time was hidden
    /// under kernels (`transfer_busy`/`overlapped` refer to link spans).
    pub fn link_overlap(&self) -> OverlapStats {
        self.overlap_of(&[EngineKind::Link])
    }

    /// Reset traffic/stall/busy counters and the busy timelines, but keep
    /// the clock and frontiers running. Called at the start of every
    /// iteration, so each report covers that iteration alone.
    pub fn reset_stats(&mut self) {
        self.h2d_bytes = 0;
        self.d2h_bytes = 0;
        self.link_bytes = 0;
        self.stall = SimTime::ZERO;
        for s in &mut self.streams {
            s.busy_total = SimTime::ZERO;
            s.ops = 0;
            s.intervals.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_serialize_their_own_ops() {
        let mut tl = Timeline::new();
        let a = tl.submit(EngineKind::Compute, SimTime::from_us(10));
        let b = tl.submit(EngineKind::Compute, SimTime::from_us(5));
        assert_eq!(a.done_at, SimTime::from_us(10));
        assert_eq!(b.done_at, SimTime::from_us(15));
    }

    #[test]
    fn engines_run_concurrently_with_each_other() {
        let mut tl = Timeline::new();
        let c = tl.submit(EngineKind::Compute, SimTime::from_us(10));
        // 8 KB at 8 GB/s = 1 us.
        let d = tl.transfer_on(StreamId::D2H, 8_000, 8.0, &[]).event;
        // The copy does not queue behind compute.
        assert_eq!(d.done_at, SimTime::from_us(1));
        assert_eq!(c.done_at, SimTime::from_us(10));
    }

    #[test]
    fn cross_engine_dependency_gates_start() {
        let mut tl = Timeline::new();
        let k = tl.submit(EngineKind::Compute, SimTime::from_us(10));
        // Offload of the kernel's output cannot start before the kernel ends.
        let o = tl.transfer_on(StreamId::D2H, 8_000, 8.0, &[k]).event;
        assert_eq!(o.done_at, SimTime::from_us(11));
    }

    #[test]
    fn multi_gate_submit_waits_for_the_latest() {
        let mut tl = Timeline::new();
        let a = tl.submit(EngineKind::Compute, SimTime::from_us(3));
        let b = tl.transfer_on(StreamId::H2D, 8_000_000, 8.0, &[]).event; // 1 ms
        let c = tl.submit_on(StreamId::COMPUTE, SimTime::from_us(2), &[a, b]);
        assert_eq!(c.done_at, b.done_at + SimTime::from_us(2));
    }

    #[test]
    fn added_streams_serialize_independently() {
        let mut tl = Timeline::new();
        let d2h_b = tl.add_stream(EngineKind::D2H);
        let x = tl.transfer_on(StreamId::D2H, 8_000, 8.0, &[]);
        let y = tl.transfer_on(d2h_b, 8_000, 8.0, &[]);
        // Two D2H streams run concurrently; one serializes.
        assert_eq!(x.event.done_at, SimTime::from_us(1));
        assert_eq!(y.event.done_at, SimTime::from_us(1));
        let z = tl.transfer_on(d2h_b, 8_000, 8.0, &[]);
        assert_eq!(z.event.done_at, SimTime::from_us(2));
        // Accounting aggregates across streams of a kind.
        assert_eq!(tl.stats().d2h_bytes, 24_000);
        assert_eq!(tl.stats().d2h_busy, SimTime::from_us(3));
    }

    #[test]
    fn dma_completion_never_precedes_its_enqueue() {
        let mut tl = Timeline::new();
        tl.advance(SimTime::from_us(7));
        let d = tl.transfer_on(StreamId::D2H, 1, 1000.0, &[]);
        assert!(d.event.done_at > SimTime::from_us(7));
        assert_eq!(d.bytes, 1);
        // Even a gate in the past cannot start a transfer before `now`.
        let gated = tl.transfer_on(
            StreamId::H2D,
            8_000,
            8.0,
            &[Event {
                done_at: SimTime::ZERO,
                stream: StreamId::COMPUTE,
            }],
        );
        assert!(gated.event.done_at >= SimTime::from_us(8));
    }

    #[test]
    fn wait_accounts_stall() {
        let mut tl = Timeline::new();
        let k = tl.submit(EngineKind::Compute, SimTime::from_us(10));
        tl.wait(k);
        assert_eq!(tl.now(), SimTime::from_us(10));
        assert_eq!(tl.stats().stall, SimTime::from_us(10));
        // Waiting on an already-done event costs nothing.
        tl.wait(k);
        assert_eq!(tl.stats().stall, SimTime::from_us(10));
    }

    #[test]
    fn sync_all_reaches_latest_frontier() {
        let mut tl = Timeline::new();
        tl.submit(EngineKind::Compute, SimTime::from_us(3));
        tl.submit(EngineKind::H2D, SimTime::from_us(9));
        tl.submit(EngineKind::D2H, SimTime::from_us(6));
        tl.sync_all();
        assert_eq!(tl.now(), SimTime::from_us(9));
    }

    #[test]
    fn traffic_is_accounted_per_direction() {
        let mut tl = Timeline::new();
        tl.transfer_on(StreamId::H2D, 100, 8.0, &[]);
        tl.transfer_on(StreamId::D2H, 300, 8.0, &[]);
        let s = tl.stats();
        assert_eq!(s.h2d_bytes, 100);
        assert_eq!(s.d2h_bytes, 300);
        assert_eq!(s.h2d_bytes + s.d2h_bytes, 400);
    }

    #[test]
    fn join_compute_does_not_wait_for_dma() {
        let mut tl = Timeline::new();
        tl.submit(EngineKind::Compute, SimTime::from_us(2));
        tl.submit(EngineKind::D2H, SimTime::from_us(50));
        tl.join_compute();
        assert_eq!(tl.now(), SimTime::from_us(2));
    }

    #[test]
    fn reset_stats_keeps_clock() {
        let mut tl = Timeline::new();
        tl.submit(EngineKind::Compute, SimTime::from_us(2));
        tl.sync_all();
        tl.reset_stats();
        assert_eq!(tl.now(), SimTime::from_us(2));
        let s = tl.stats();
        assert_eq!(s.h2d_bytes + s.d2h_bytes, 0);
        assert_eq!(tl.stats().stall, SimTime::ZERO);
        assert_eq!(tl.overlap(), OverlapStats::default());
    }

    #[test]
    fn overlap_measures_hidden_transfer_time() {
        let mut tl = Timeline::new();
        // Compute busy [0, 10) us; one transfer [0, 4) us fully hidden, a
        // second [10, 14) us entirely in the open.
        tl.submit(EngineKind::Compute, SimTime::from_us(10));
        tl.transfer_on(StreamId::D2H, 32_000, 8.0, &[]); // 4 us from t=0
        tl.wait(tl.frontier_event(StreamId::D2H));
        tl.join_compute();
        tl.transfer_on(StreamId::H2D, 32_000, 8.0, &[]); // 4 us from t=10
        tl.sync_all();
        let o = tl.overlap();
        assert_eq!(o.compute_busy, SimTime::from_us(10));
        assert_eq!(o.transfer_busy, SimTime::from_us(8));
        assert_eq!(o.overlapped, SimTime::from_us(4));
        assert!((o.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn successive_collectives_serialize_on_the_link_port() {
        let mut tl = Timeline::new();
        let link = tl.add_stream(EngineKind::Link);
        let a = tl.submit_timed_transfer(link, 10, SimTime::from_us(5), &[]);
        // Second bucket is ready immediately but must queue behind the first.
        let b = tl.submit_timed_transfer(link, 10, SimTime::from_us(5), &[]);
        assert_eq!(a.event.done_at, SimTime::from_us(5));
        assert_eq!(b.event.done_at, SimTime::from_us(10));
    }

    #[test]
    fn link_traffic_is_not_pcie_traffic() {
        let mut tl = Timeline::new();
        let link = tl.add_stream(EngineKind::Link);
        tl.submit_timed_transfer(link, 4_096, SimTime::from_us(2), &[]);
        let s = tl.stats();
        assert_eq!(s.link_bytes, 4_096);
        assert_eq!(
            s.h2d_bytes + s.d2h_bytes,
            0,
            "collectives must not count as PCIe"
        );
        assert_eq!(s.link_busy, SimTime::from_us(2));
    }

    #[test]
    fn link_overlap_measures_collectives_hidden_under_compute() {
        let mut tl = Timeline::new();
        let link = tl.add_stream(EngineKind::Link);
        tl.submit(EngineKind::Compute, SimTime::from_us(10));
        // A 4us collective launched at t=0 hides fully under compute.
        tl.submit_timed_transfer(link, 100, SimTime::from_us(4), &[]);
        // A second one, ready only at compute end, is fully exposed.
        let ready = tl.frontier_event(StreamId::COMPUTE);
        tl.submit_timed_transfer(link, 100, SimTime::from_us(4), &[ready]);
        tl.sync_all();
        let o = tl.link_overlap();
        assert_eq!(o.transfer_busy, SimTime::from_us(8));
        assert_eq!(o.overlapped, SimTime::from_us(4));
        assert!((o.fraction() - 0.5).abs() < 1e-12);
        // The PCIe overlap query is blind to link streams.
        assert_eq!(tl.overlap().transfer_busy, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "a timeline has one compute stream")]
    fn a_second_compute_stream_panics() {
        Timeline::new().add_stream(EngineKind::Compute);
    }

    #[test]
    fn union_borrows_one_list_and_merges_several() {
        let a: &[(u64, u64)] = &[(0, 4), (6, 9)];
        let b: &[(u64, u64)] = &[(3, 6), (20, 22)];
        // One non-empty list is its own union: no copy.
        let one = union_spans([&[][..], a].into_iter());
        assert!(matches!(one, Cow::Borrowed(_)));
        assert_eq!(&*one, a);
        assert!(union_spans(std::iter::empty()).is_empty());
        // Several are merged; overlapping and touching spans coalesce.
        assert_eq!(&*union_spans([b, a].into_iter()), &[(0, 9), (20, 22)]);
        // Three lists: the third bridges a gap the first two left and adds
        // a span past both.
        let c: &[(u64, u64)] = &[(9, 20), (30, 31)];
        assert_eq!(&*union_spans([a, b, c].into_iter()), &[(0, 22), (30, 31)]);
        assert_eq!(
            &*union_spans([c, &[][..], b, a].into_iter()),
            &[(0, 22), (30, 31)]
        );
        // Two copy queues of one kind against compute, through the API.
        let mut tl = Timeline::new();
        let d2h_b = tl.add_stream(EngineKind::D2H);
        tl.submit(EngineKind::Compute, SimTime::from_us(3));
        tl.transfer_on(StreamId::D2H, 32_000, 8.0, &[]); // [0, 4) us
        tl.transfer_on(d2h_b, 16_000, 8.0, &[]); // [0, 2) us
        let o = tl.overlap();
        assert_eq!(o.transfer_busy, SimTime::from_us(4));
        assert_eq!(o.overlapped, SimTime::from_us(3));
    }

    #[test]
    fn overlap_is_zero_when_host_serializes_every_transfer() {
        let mut tl = Timeline::new();
        for _ in 0..3 {
            let k = tl.submit(EngineKind::Compute, SimTime::from_us(5));
            tl.wait(k);
            let d = tl.transfer_on(StreamId::D2H, 16_000, 8.0, &[]).event;
            tl.wait(d);
        }
        let o = tl.overlap();
        assert_eq!(o.overlapped, SimTime::ZERO);
        assert_eq!(o.fraction(), 0.0);
    }

    #[test]
    fn per_stream_busy_time_never_exceeds_makespan() {
        let mut tl = Timeline::new();
        for i in 0..5u64 {
            let k = tl.submit(EngineKind::Compute, SimTime::from_us(2 + i));
            tl.transfer_on(StreamId::D2H, 8_000 * (i + 1), 8.0, &[k]);
            tl.transfer_on(StreamId::H2D, 4_000, 8.0, &[]);
            tl.join_compute();
        }
        tl.sync_all();
        let makespan = tl.now();
        let s = tl.stats();
        assert!(s.compute_busy <= makespan);
        assert!(s.h2d_busy <= makespan);
        assert!(s.d2h_busy <= makespan);
        let o = tl.overlap();
        assert!(o.compute_busy <= makespan && o.transfer_busy <= makespan);
        assert!(o.overlapped <= o.compute_busy.min(o.transfer_busy));
    }
}
