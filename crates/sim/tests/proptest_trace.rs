//! Property-based tests for the engine's trace recording: under arbitrary
//! sequences of kernels, transfers and cross-stream gates on a traced
//! [`Timeline`], the recorded trace must satisfy the structural invariants
//! the exporter and the bench gates rely on:
//!
//! * per-track spans are time-ordered and non-overlapping (each stream
//!   serializes, so its track must read as a sequence);
//! * every flow arrow's endpoints resolve to recorded spans and point
//!   forward in time;
//! * the span count per stream equals the positive-duration ops submitted
//!   to it, and every gate event that resolves to a recorded span on a
//!   *different* stream produces exactly one flow arrow;
//! * tracing observes the schedule without perturbing it: a traced and an
//!   untraced timeline replaying the same ops agree on every clock,
//!   frontier and statistic.
//!
//! And the overlap queries answer what a count nanosecond by nanosecond of
//! busy compute, busy transfer (or link) and both answers.

use std::collections::HashSet;

use proptest::prelude::*;
use sn_sim::{EngineKind, Event, OverlapStats, SimTime, StreamId, Timeline, TraceSink};

#[derive(Debug, Clone)]
enum Op {
    /// Submit `duration_us` to stream `(index % 4)`, gated on up to two
    /// earlier events picked by (wrapped) index.
    Submit {
        stream: usize,
        duration_us: u64,
        gates: Vec<usize>,
    },
    /// Transfer `bytes` on a transfer stream (h2d, d2h, or link).
    Transfer { stream: usize, bytes: u64 },
    /// Host-side wait on an earlier event.
    Wait(usize),
    /// Advance the host clock.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..4, 0u64..40, proptest::collection::vec(0usize..64, 0..3))
            .prop_map(|(stream, duration_us, gates)| Op::Submit { stream, duration_us, gates }),
        2 => (0usize..4, 1u64..100_000).prop_map(|(stream, bytes)| Op::Transfer { stream, bytes }),
        1 => (0usize..64).prop_map(Op::Wait),
        1 => (0u64..30).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn traced_timelines_emit_valid_traces(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let sink = TraceSink::recording();
        let mut tl = Timeline::new();
        let link = tl.add_stream(EngineKind::Link);
        tl.attach_tracer(&sink, "device 0");
        let streams = [StreamId::COMPUTE, StreamId::H2D, StreamId::D2H, link];

        let mut events: Vec<Event> = Vec::new();
        let mut positive_ops = 0usize; // spans the trace must contain
        let mut expected_flows = 0usize;
        // Per stream: the end times of recorded spans, to predict which
        // gate events the tracer can resolve into flow arrows.
        let mut ends: Vec<HashSet<u64>> = vec![HashSet::new(); 4];

        for op in ops {
            match op {
                Op::Submit { stream, duration_us, gates } => {
                    let stream = streams[stream % streams.len()];
                    let gates: Vec<Event> = gates
                        .iter()
                        .filter_map(|i| events.get(i % events.len().max(1)).copied())
                        .collect();
                    if duration_us > 0 {
                        positive_ops += 1;
                        expected_flows += gates
                            .iter()
                            .filter(|g| {
                                g.stream != stream
                                    && g.done_at > SimTime::ZERO
                                    && ends[g.stream.0].contains(&g.done_at.as_ns())
                            })
                            .count();
                    }
                    let e = tl.submit_on(stream, SimTime::from_us(duration_us), &gates);
                    if duration_us > 0 {
                        ends[stream.0].insert(e.done_at.as_ns());
                    }
                    events.push(e);
                }
                Op::Transfer { stream, bytes } => {
                    let stream = streams[1 + stream % 3];
                    positive_ops += 1; // bytes >= 1 at finite bandwidth => duration > 0
                    let dma = tl.transfer_on(stream, bytes, 8.0, &[]);
                    ends[stream.0].insert(dma.event.done_at.as_ns());
                    events.push(dma.event);
                }
                Op::Wait(i) => {
                    if let Some(e) = events.get(i % events.len().max(1)) {
                        tl.wait(*e);
                    }
                }
                Op::Advance(us) => tl.advance(SimTime::from_us(us)),
            }
        }
        tl.sync_all();

        let check = sink.validate();
        prop_assert!(check.is_valid(), "invariant violations: {:?}", check.errors);
        prop_assert_eq!(check.spans, positive_ops);
        prop_assert_eq!(check.flows, expected_flows);
        prop_assert_eq!(check.tracks, 4);

        // Every flow endpoint resolves and points forward in time — checked
        // directly against the recorded data, not just via validate().
        let data = sink.data();
        for f in &data.flows {
            let from = &data.spans[f.from.0 as usize];
            let to = &data.spans[f.to.0 as usize];
            prop_assert!(from.track != to.track, "flows are cross-stream by construction");
            prop_assert!(from.end_ns <= to.start_ns);
        }

        // The exporter emits one "X" event per span and an "s"/"f" pair per
        // flow arrow.
        let json = sink.export_chrome_json();
        prop_assert_eq!(json.matches("\"ph\":\"X\"").count(), positive_ops);
        prop_assert_eq!(json.matches("\"ph\":\"s\"").count(), expected_flows);
        prop_assert_eq!(json.matches("\"ph\":\"f\"").count(), expected_flows);
    }

    #[test]
    fn untraced_timelines_behave_identically(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        // Replaying the same ops on a traced and an untraced timeline must
        // produce identical clocks, frontiers and statistics: tracing
        // observes the schedule, never perturbs it.
        let mut plain = Timeline::new();
        let link_p = plain.add_stream(EngineKind::Link);
        let sink = TraceSink::recording();
        let mut traced = Timeline::new();
        let link_t = traced.add_stream(EngineKind::Link);
        traced.attach_tracer(&sink, "device 0");

        for (tl, link) in [(&mut plain, link_p), (&mut traced, link_t)] {
            let streams = [StreamId::COMPUTE, StreamId::H2D, StreamId::D2H, link];
            let mut events: Vec<Event> = Vec::new();
            for op in &ops {
                match op {
                    Op::Submit { stream, duration_us, gates } => {
                        let stream = streams[stream % streams.len()];
                        let gates: Vec<Event> = gates
                            .iter()
                            .filter_map(|i| events.get(i % events.len().max(1)).copied())
                            .collect();
                        events.push(tl.submit_on(stream, SimTime::from_us(*duration_us), &gates));
                    }
                    Op::Transfer { stream, bytes } => {
                        let stream = streams[1 + stream % 3];
                        events.push(tl.transfer_on(stream, *bytes, 8.0, &[]).event);
                    }
                    Op::Wait(i) => {
                        if let Some(e) = events.get(i % events.len().max(1)) {
                            tl.wait(*e);
                        }
                    }
                    Op::Advance(us) => tl.advance(SimTime::from_us(*us)),
                }
            }
            tl.sync_all();
        }

        prop_assert_eq!(plain.now(), traced.now());
        let (a, b) = (plain.stats(), traced.stats());
        prop_assert_eq!(a.h2d_bytes, b.h2d_bytes);
        prop_assert_eq!(a.d2h_bytes, b.d2h_bytes);
        prop_assert_eq!(a.link_bytes, b.link_bytes);
        prop_assert_eq!(a.compute_busy, b.compute_busy);
        prop_assert_eq!(a.stall, b.stall);
        prop_assert_eq!(plain.overlap(), traced.overlap());
        prop_assert_eq!(plain.link_overlap(), traced.link_overlap());
    }
}

/// One host action on a timeline at nanosecond scale.
#[derive(Debug, Clone)]
enum Step {
    /// Submit `ns` to stream `stream` (wrapped), gated on up to two earlier
    /// events picked by (wrapped) index.
    Submit {
        stream: usize,
        ns: u64,
        gates: Vec<usize>,
    },
    /// Host-side wait on an earlier event.
    Wait(usize),
    /// Advance the host clock.
    Advance(u64),
    /// Move the host clock up to the compute frontier.
    JoinCompute,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0usize..6, 0u64..12, proptest::collection::vec(0usize..64, 0..3))
            .prop_map(|(stream, ns, gates)| Step::Submit { stream, ns, gates }),
        1 => (0usize..64).prop_map(Step::Wait),
        1 => (0u64..10).prop_map(Step::Advance),
        1 => Just(Step::JoinCompute),
    ]
}

// 512 cases, so CI's release step runs that many: `PROPTEST_CASES` only
// lowers a count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn overlap_equals_a_per_ns_count(
        extra in proptest::collection::vec(0usize..3, 0..4),
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        // One compute stream, the two canonical copy queues, and up to
        // three more H2D, D2H or link streams.
        let mut tl = Timeline::new();
        let mut streams = vec![StreamId::COMPUTE, StreamId::H2D, StreamId::D2H];
        let mut kinds = vec![EngineKind::Compute, EngineKind::H2D, EngineKind::D2H];
        for k in extra {
            let kind = [EngineKind::H2D, EngineKind::D2H, EngineKind::Link][k];
            streams.push(tl.add_stream(kind));
            kinds.push(kind);
        }
        let mut events: Vec<Event> = Vec::new();
        let mut spans: Vec<(EngineKind, u64, u64)> = Vec::new();
        for step in steps {
            match step {
                Step::Submit { stream, ns, gates } => {
                    let at = stream % streams.len();
                    let gates: Vec<Event> = gates
                        .iter()
                        .filter_map(|i| events.get(i % events.len().max(1)).copied())
                        .collect();
                    let e = tl.submit_on(streams[at], SimTime(ns), &gates);
                    spans.push((kinds[at], e.done_at.as_ns() - ns, e.done_at.as_ns()));
                    events.push(e);
                }
                Step::Wait(i) => {
                    if let Some(e) = events.get(i % events.len().max(1)) {
                        tl.wait(*e);
                    }
                }
                Step::Advance(ns) => tl.advance(SimTime(ns)),
                Step::JoinCompute => tl.join_compute(),
            }
        }
        tl.sync_all();

        // Per ns: busy compute, busy PCIe transfer, busy link.
        let mut busy = vec![[false; 3]; tl.now().as_ns() as usize];
        for (kind, start, end) in spans {
            let side = match kind {
                EngineKind::Compute => 0,
                EngineKind::H2D | EngineKind::D2H => 1,
                EngineKind::Link => 2,
            };
            for ns in start..end {
                busy[ns as usize][side] = true;
            }
        }
        let count = |side: usize| {
            let ns = |both: bool| busy.iter().filter(|b| b[side] && (!both || b[0])).count();
            OverlapStats {
                compute_busy: SimTime(busy.iter().filter(|b| b[0]).count() as u64),
                transfer_busy: SimTime(ns(false) as u64),
                overlapped: SimTime(ns(true) as u64),
            }
        };
        prop_assert_eq!(tl.overlap(), count(1));
        prop_assert_eq!(tl.link_overlap(), count(2));
    }
}
