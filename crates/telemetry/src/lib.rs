//! # sn-telemetry — the unified observability substrate
//!
//! Every layer of the stack — the discrete-event sim engine, the
//! plan/interpret runtime, the device group, the cluster scheduler — needs
//! to be *seen into* before it can be optimized: the paper's own evidence is
//! observational (Fig. 10 plots per-step resident bytes, Table 3 decomposes
//! iteration time into compute vs. transfer). This crate provides the two
//! pillars that instrumentation reports through, with **zero dependencies**
//! (std only — the workspace builds offline):
//!
//! * **[`TraceSink`]** — a timeline recorder of spans, instants and flow
//!   arrows over named tracks, exported as Chrome trace-event JSON
//!   (`.trace.json`, loadable in Perfetto or `chrome://tracing`). The sim
//!   engine feeds it one track per stream (compute, H2D, D2H, Link) and
//!   draws a flow arrow for every cross-stream `Event` gate, so overlap and
//!   the backward-kernel → collective gating are visually inspectable.
//! * **[`MetricsRegistry`]** — typed [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s behind cheap cloneable handles, with a
//!   stable JSON snapshot format the bench harness embeds into
//!   `BENCH_*.json` artifacts.
//!
//! Beside them sits [`Json`], the one JSON value every report and bench
//! artifact in the workspace prints through.
//!
//! **The zero-overhead-when-disabled contract**: a [`TraceSink::off`] sink
//! records nothing and allocates nothing; instrumented code guards every
//! label construction behind an is-enabled check, so the disabled path costs
//! one branch per operation. The repo benchmark measures every workload with
//! the no-op sink and reports what switching it on costs
//! (`telemetry.on_cost_ratio`).

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    ArgValue, FlowData, InstantData, SpanData, SpanId, TraceCheck, TraceData, TraceSink, TrackData,
    TrackId,
};

/// Lock `m`, poisoned or not. Sound for this crate's two mutexes because
/// nothing that can panic runs under them — a probe, a push, a clone; labels
/// are formatted before and metric types checked after — so a lock poisoned
/// by a thread that died holding it still guards consistent data, and one
/// dead recorder must not fail every later one.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
