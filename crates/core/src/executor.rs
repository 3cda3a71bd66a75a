//! The executor: an *interpreter* over a compiled [`MemoryPlan`].
//!
//! All scheduling decisions — liveness frees, Unified Tensor Pool
//! offload/prefetch points, Alg. 2 cache evictions, §3.4 recomputation
//! replays, §3.5 workspace choices — are made ahead of time by the planner
//! ([`crate::plan`]) and recorded as an explicit per-step op stream. This
//! module replays that stream over the [`Utp`] residency manager and the
//! multi-stream sim engine: it performs the planned allocations and frees in
//! exactly the planned order (waiting out an in-flight copy-out before
//! reusing its bytes), submits kernels gated on every input's in-flight
//! prefetch, and drives the optional numeric backend.
//!
//! The interpreter runs no allocator: [`CompiledPlan::verify`], run once
//! when the executor is built, proves the plan's grants fit this card, and
//! the device counts bytes at the allocator's granularity, so the measured
//! peak equals [`MemoryPlan::peak_bytes`] **exactly** — the invariant cluster
//! admission relies on, asserted per-iteration in debug builds and across
//! the whole preset × model matrix by the `plan` bench experiment. Overlap
//! changes *when* transfers run, never what is resident.
//!
//! **What a warm step touches.** The plan's ops and the step's `StepPlan`;
//! per tensor an op names, one [`crate::utp::TensorState`] (one cache line)
//! and one `TensorSlot` here — its bytes and the landing times of its
//! in-flight fetch and copy-out, the three numbers `apply` and the kernel's
//! gate loop read; per step, one `StepSample` of three numbers written at
//! the kernel submit. Everything else a reader may want of a step — number,
//! layer name, phase, free bytes — is already in the plan or the device and
//! is joined in when somebody asks ([`Executor::step_records`]), as Fig. 12's
//! rows are ([`Executor::ws_records`]). A replay's duration and the tensor
//! it waits on are worked out once per layer when the executor is built
//! (`LayerInfo`), so a replay reads neither the graph nor the liveness
//! plan; debug builds hold it to the graph, asserting that no producer but
//! the one it waits on has a fetch landing.
//!
//! The same interpreter drives both execution modes: *virtual* (durations
//! from the cost model; used by every paper-scale experiment) and *numeric*
//! (an attached [`ComputeBackend`] really computes tensors; used to validate
//! that planned schedules — including recomputation — preserve exact
//! training semantics).

use std::sync::Arc;

use sn_graph::liveness::{LivenessPlan, TensorId, TensorRole};
use sn_graph::{LayerId, Net, NetCost, Route, StepPhase};
use sn_sim::trace::Phase;
use sn_sim::{
    DeviceSpec, Event, OverlapStats, SimTime, SpanLabel, StepRecord, StepTrace, StreamId, TraceSink,
};
use sn_telemetry::{Counter, Gauge, Histogram, Json, MetricsRegistry};

use crate::device::{Memory, SimDevice};
use crate::plan::{self, CompiledPlan, MemoryPlan, PlanOp};
use crate::policy::Policy;
use crate::recompute::RecomputePlan;
use crate::tiers::Tier;
use crate::utp::{Residence, Utp};
use crate::verify::{PlanViolation, Rule};

/// Hook for numeric execution: the executor tells the backend *when* to
/// compute and *which* values ceased to exist; the backend owns the values.
pub trait ComputeBackend {
    fn begin_iteration(&mut self, iter: u64);
    /// Execute (or re-execute, during recomputation) a layer's forward.
    fn forward(&mut self, layer: LayerId);
    /// Execute a layer's backward (accumulate input grads, update weights).
    fn backward(&mut self, layer: LayerId);
    /// The layer's forward output is gone from device *and* host.
    fn drop_output(&mut self, layer: LayerId);
    /// The gradient of the layer's output is gone.
    fn drop_grad(&mut self, layer: LayerId);
    /// Loss of the last executed iteration, if the network has a loss layer.
    fn loss(&self) -> Option<f32> {
        None
    }
}

/// Execution failure.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// Device memory exhausted (after all reclamation the policy allows).
    Oom {
        step: usize,
        /// Shared, so a memoized OOM answers without allocating.
        layer: Arc<str>,
        requested: u64,
        capacity: u64,
    },
    /// Pinned host pool exhausted.
    HostExhausted { requested: u64 },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Oom {
                step,
                layer,
                requested,
                capacity,
            } => write!(
                f,
                "device OOM at step {step} ({layer}): need {requested} of {capacity} bytes"
            ),
            ExecError::HostExhausted { requested } => {
                write!(f, "pinned host pool exhausted ({requested} bytes)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-iteration accounting.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct Counters {
    /// Extra layer-forward executions performed by recomputation (Table 1).
    pub recompute_forwards: u64,
    pub offloads: u64,
    pub prefetches: u64,
    pub evictions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Device allocations granted through the reclamation ladder.
    pub alloc_grants: u64,
    /// Ladder rungs climbed: reclamation attempts (reap or evict) made
    /// because an allocation did not fit on the first try — the "ladder
    /// depth" of the run.
    pub ladder_rungs: u64,
    /// Completed offloads whose device bytes were released because every
    /// consumer had run (step-boundary drains plus in-ladder reaps).
    pub reaps: u64,
}

impl Counters {
    /// Stable JSON object for bench artifacts.
    pub fn json(&self) -> Json {
        Json::object()
            .with("recompute_forwards", self.recompute_forwards)
            .with("offloads", self.offloads)
            .with("prefetches", self.prefetches)
            .with("evictions", self.evictions)
            .with("cache_hits", self.cache_hits)
            .with("cache_misses", self.cache_misses)
            .with("alloc_grants", self.alloc_grants)
            .with("ladder_rungs", self.ladder_rungs)
            .with("reaps", self.reaps)
    }
}

/// Result of one measured iteration.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IterationReport {
    pub iter_time: SimTime,
    /// Peak device bytes (allocator high-water) during the iteration.
    pub peak_bytes: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    /// Bytes this replica moved over its inter-GPU link (collective wire
    /// traffic); zero for single-device runs, accounted separately from
    /// PCIe so Table 3 numbers are unperturbed.
    pub link_bytes: u64,
    /// Busy time of the link stream(s) during the iteration.
    pub link_busy: SimTime,
    pub counters: Counters,
    /// Host-side allocator latency accumulated during the iteration.
    pub alloc_time: SimTime,
    pub alloc_calls: u64,
    /// Host stall time waiting on events.
    pub stall: SimTime,
    /// Busy time of the compute stream(s) during the iteration.
    pub compute_busy: SimTime,
    /// Busy time of the DMA streams (H2D + D2H) during the iteration.
    pub transfer_busy: SimTime,
    /// DMA time hidden under kernels, from the per-stream busy timelines.
    pub overlapped: SimTime,
    pub loss: Option<f32>,
}

/// `batch / seconds`, guarded so zero-duration measurements report zero
/// throughput instead of `inf`/NaN — zero-cost stub layers can produce such
/// iterations, and bench JSON must stay finite. The single implementation of
/// that invariant for every report type.
pub(crate) fn finite_rate(batch: usize, time: SimTime) -> f64 {
    if time == SimTime::ZERO {
        return 0.0;
    }
    batch as f64 / time.as_secs_f64()
}

impl IterationReport {
    /// Throughput in images per second for a given batch size. Zero (not
    /// `inf`/NaN) when the iteration took no virtual time — see
    /// `finite_rate`.
    pub fn imgs_per_sec(&self, batch: usize) -> f64 {
        finite_rate(batch, self.iter_time)
    }

    /// Fraction of transfer time hidden under compute, in `[0, 1]` (zero
    /// when the iteration moved no bytes).
    pub fn overlap_fraction(&self) -> f64 {
        OverlapStats {
            compute_busy: self.compute_busy,
            transfer_busy: self.transfer_busy,
            overlapped: self.overlapped,
        }
        .fraction()
    }

    /// Stable JSON object for bench artifacts (times in integer ns).
    pub fn json(&self) -> Json {
        Json::object()
            .with("iter_time_ns", self.iter_time.as_ns())
            .with("peak_bytes", self.peak_bytes)
            .with("h2d_bytes", self.h2d_bytes)
            .with("d2h_bytes", self.d2h_bytes)
            .with("link_bytes", self.link_bytes)
            .with("link_busy_ns", self.link_busy.as_ns())
            .with("alloc_time_ns", self.alloc_time.as_ns())
            .with("alloc_calls", self.alloc_calls)
            .with("stall_ns", self.stall.as_ns())
            .with("compute_busy_ns", self.compute_busy.as_ns())
            .with("transfer_busy_ns", self.transfer_busy.as_ns())
            .with("overlapped_ns", self.overlapped.as_ns())
            .with("counters", self.counters.json())
    }
}

/// Pre-resolved handles into a [`MetricsRegistry`] (see
/// [`Executor::enable_metrics`]): per-iteration flushing is a handful of
/// relaxed atomic adds, with name lookups paid once.
struct ExecMetrics {
    iterations: Counter,
    recompute_forwards: Counter,
    offloads: Counter,
    prefetches: Counter,
    evictions: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    alloc_grants: Counter,
    ladder_rungs: Counter,
    reaps: Counter,
    h2d_bytes: Counter,
    d2h_bytes: Counter,
    link_bytes: Counter,
    stall_ns: Counter,
    prefetch_stall_ns: Counter,
    iter_time_ns: Histogram,
    peak_bytes: Gauge,
    cache_resident: Gauge,
}

impl ExecMetrics {
    fn new(reg: &MetricsRegistry) -> ExecMetrics {
        ExecMetrics {
            iterations: reg.counter("exec.iterations"),
            recompute_forwards: reg.counter("exec.recompute_forwards"),
            offloads: reg.counter("exec.offloads"),
            prefetches: reg.counter("exec.prefetches"),
            evictions: reg.counter("exec.evictions"),
            cache_hits: reg.counter("exec.cache.hits"),
            cache_misses: reg.counter("exec.cache.misses"),
            alloc_grants: reg.counter("exec.alloc.grants"),
            ladder_rungs: reg.counter("exec.alloc.ladder_rungs"),
            reaps: reg.counter("exec.alloc.reaps"),
            h2d_bytes: reg.counter("exec.h2d_bytes"),
            d2h_bytes: reg.counter("exec.d2h_bytes"),
            link_bytes: reg.counter("exec.link_bytes"),
            stall_ns: reg.counter("exec.stall_ns"),
            prefetch_stall_ns: reg.counter("exec.prefetch_stall_ns"),
            iter_time_ns: reg.histogram("exec.iter_time_ns"),
            peak_bytes: reg.gauge("exec.peak_bytes"),
            cache_resident: reg.gauge("exec.cache.resident"),
        }
    }

    fn flush(&self, report: &IterationReport, prefetch_stall: SimTime) {
        self.iterations.inc();
        let c = &report.counters;
        self.recompute_forwards.add(c.recompute_forwards);
        self.offloads.add(c.offloads);
        self.prefetches.add(c.prefetches);
        self.evictions.add(c.evictions);
        self.cache_hits.add(c.cache_hits);
        self.cache_misses.add(c.cache_misses);
        self.alloc_grants.add(c.alloc_grants);
        self.ladder_rungs.add(c.ladder_rungs);
        self.reaps.add(c.reaps);
        self.h2d_bytes.add(report.h2d_bytes);
        self.d2h_bytes.add(report.d2h_bytes);
        self.link_bytes.add(report.link_bytes);
        self.stall_ns.add(report.stall.as_ns());
        self.prefetch_stall_ns.add(prefetch_stall.as_ns());
        self.iter_time_ns.record(report.iter_time.as_ns());
        self.peak_bytes.set(report.peak_bytes as i64);
    }
}

/// A Fig. 12 record: workspace assigned vs. the max-speed want, per CONV
/// step. Derived from the plan by [`Executor::ws_records`].
#[derive(Debug, Clone)]
pub struct WorkspaceRecord {
    pub layer: LayerId,
    pub name: Arc<str>,
    pub phase: Phase,
    pub assigned_bytes: u64,
    pub max_speed_bytes: u64,
    pub algo: &'static str,
    pub speedup: f64,
}

/// What the interpreter reads and writes of a tensor while it replays the
/// plan — three numbers, in one dense array beside [`Utp`]'s states. A
/// completion of [`SimTime::ZERO`] is "no copy in flight": a wait or a gate
/// on time zero does nothing, and draws no flow arrow in a trace.
#[derive(Debug, Clone, Copy)]
struct TensorSlot {
    bytes: u64,
    /// When the in-flight host→device copy lands (H2D stream); consumers
    /// gate on it.
    prefetch_done: SimTime,
    /// When the in-flight device→host copy lands (D2H stream); the release
    /// of the device bytes waits on it.
    offload_done: SimTime,
}

impl TensorSlot {
    #[inline]
    fn clear_transfers(&mut self) {
        self.prefetch_done = SimTime::ZERO;
        self.offload_done = SimTime::ZERO;
    }
}

/// What the interpreter measures at a step's kernel submit. Step number,
/// layer, phase and free bytes are the plan's and the device's: joined in
/// by [`Executor::step_records`] when somebody reads the trace.
#[derive(Debug, Clone, Copy)]
struct StepSample {
    resident_bytes: u64,
    completed_at: SimTime,
    live_tensors: u32,
}

/// Per-layer facts fixed when the executor is built: what a replay needs,
/// so a warm step's `recompute` reads neither the graph nor the liveness
/// plan.
struct LayerInfo {
    /// Interned name — span labels and record views share it instead of
    /// cloning a `String`.
    name: Arc<str>,
    /// Roofline duration of replaying this layer's forward (§3.4), zero for
    /// a layer no recomputation segment contains.
    replay: SimTime,
    /// The tensor a replay of this layer waits on, its first producer's
    /// output; an id no tensor has for a layer no segment contains.
    replay_input: TensorId,
}

/// The completion event of a copy on `stream` that lands at `done_at`.
#[inline]
fn copy_done(stream: StreamId, done_at: SimTime) -> Event {
    Event { done_at, stream }
}

fn sim_phase(phase: StepPhase) -> Phase {
    match phase {
        StepPhase::Forward => Phase::Forward,
        StepPhase::Backward => Phase::Backward,
    }
}

/// The executor. Owns the device and the compiled plan; borrows the network.
/// The graph analyses are `Arc`-shared with the planner's caches — they are
/// read-only here.
pub struct Executor<'n> {
    pub net: &'n Net,
    pub route: std::sync::Arc<Route>,
    pub cost: std::sync::Arc<NetCost>,
    pub plan: std::sync::Arc<LivenessPlan>,
    pub rplan: std::sync::Arc<RecomputePlan>,
    /// The compiled schedule this executor interprets — `Arc`-shared with
    /// the plan memo and with the sibling replicas of a device group.
    /// Public because callers read it (the benchmark's `train_exec` checks
    /// `ex.mplan.peak_bytes`). A plan assigned here after build is not
    /// verified: only the device's capacity check guards it.
    pub mplan: std::sync::Arc<MemoryPlan>,
    pub policy: Policy,
    pub spec: DeviceSpec,
    pub dev: SimDevice,
    utp: Utp,
    /// The current step's transient grants (workspace, weight gradient).
    ws_grant: Option<sn_sim::AllocId>,
    tr_grant: Option<sn_sim::AllocId>,
    /// Indexed by `TensorId`.
    tensors: Vec<TensorSlot>,
    /// The iteration's samples, one per executed step, in step order.
    samples: Vec<StepSample>,
    pub counters: Counters,
    backend: Option<Box<dyn ComputeBackend>>,
    iter: u64,
    /// Virtual time / allocator counters at [`Executor::begin_iteration`],
    /// differenced by [`Executor::finish_iteration`].
    iter_t_start: SimTime,
    iter_alloc_time0: SimTime,
    iter_alloc_calls0: u64,
    /// Indexed by `LayerId`.
    layers: Vec<LayerInfo>,
    /// Scratch for the current step's kernel gates, reused across steps.
    gates: Vec<Event>,
    /// Metric handles, present only after [`Executor::enable_metrics`].
    metrics: Option<ExecMetrics>,
    /// Time kernels spent waiting on in-flight prefetches this iteration
    /// (accumulated only while metrics are enabled).
    prefetch_stall: SimTime,
}

impl<'n> Executor<'n> {
    /// Compile a training plan and build its interpreter; allocates the
    /// (permanently resident) weights.
    pub fn new(net: &'n Net, spec: DeviceSpec, policy: Policy) -> Result<Executor<'n>, ExecError> {
        let compiled = plan::compile(net, &spec, policy)?;
        Executor::from_compiled(net, spec, policy, compiled)
    }

    /// Compile a forward-only inference plan and build its interpreter.
    pub fn new_inference(
        net: &'n Net,
        spec: DeviceSpec,
        policy: Policy,
    ) -> Result<Executor<'n>, ExecError> {
        let compiled = plan::compile_inference(net, &spec, policy)?;
        Executor::from_compiled(net, spec, policy, compiled)
    }

    /// Build the interpreter once [`CompiledPlan::verify`] proves the
    /// plan's grants fit `spec`: a plan that does not fit is the OOM or host
    /// exhaustion an iteration would meet; another broken rule panics.
    pub(crate) fn from_compiled(
        net: &'n Net,
        spec: DeviceSpec,
        policy: Policy,
        compiled: CompiledPlan,
    ) -> Result<Executor<'n>, ExecError> {
        let verdict = compiled.verify(net, &spec, policy);
        let CompiledPlan {
            route,
            cost,
            liveness,
            rplan,
            plan: mplan,
            valid_caps: _,
        } = compiled;
        let mut dev = SimDevice::new(&spec, policy.allocator, policy.tiers);

        let wbytes = cost.total_weight_bytes();
        if wbytes > 0 && dev.alloc_charged(wbytes).is_none() {
            return Err(ExecError::Oom {
                step: 0,
                layer: "WEIGHTS".into(),
                requested: wbytes,
                capacity: dev.capacity,
            });
        }

        let tensors: Vec<TensorSlot> = liveness
            .tensors
            .iter()
            .map(|meta| TensorSlot {
                bytes: meta.bytes,
                prefetch_done: SimTime::ZERO,
                offload_done: SimTime::ZERO,
            })
            .collect();
        let layers: Vec<LayerInfo> = net
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let (replay, replay_input) = match rplan.segment_of[i] {
                    Some(_) => (
                        cost.layer(LayerId(i)).fwd_time(&l.kind, &spec, 1.0),
                        liveness.fwd_out[l.prevs[0].0],
                    ),
                    None => (SimTime::ZERO, TensorId(usize::MAX)),
                };
                LayerInfo {
                    name: Arc::from(l.name.as_str()),
                    replay,
                    replay_input,
                }
            })
            .collect();
        let samples = Vec::with_capacity(mplan.steps.len());
        let ex = Executor {
            net,
            route,
            cost,
            plan: liveness,
            rplan,
            mplan,
            policy,
            spec,
            dev,
            utp: Utp::new(tensors.len()),
            ws_grant: None,
            tr_grant: None,
            tensors,
            samples,
            counters: Counters::default(),
            backend: None,
            iter: 0,
            iter_t_start: SimTime::ZERO,
            iter_alloc_time0: SimTime::ZERO,
            iter_alloc_calls0: 0,
            layers,
            gates: Vec::new(),
            metrics: None,
            prefetch_stall: SimTime::ZERO,
        };
        verdict.map_err(|v| ex.refusal(v))?;
        Ok(ex)
    }

    /// Attach a numeric backend (values really computed).
    pub fn with_backend(mut self, backend: Box<dyn ComputeBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Record this executor's timeline into `sink` under process `device`
    /// (e.g. `"device 0"`): kernels, DMAs and recompute replays become
    /// labelled spans, prefetch→kernel gates become flow arrows. Attaching
    /// a disabled sink turns tracing off.
    pub fn enable_tracing(&mut self, sink: &TraceSink, device: &str) {
        self.dev.tl.attach_tracer(sink, device);
    }

    /// Report per-iteration counters, latency histograms and peak gauges
    /// into `registry` (names under `exec.`), flushed once at the end of
    /// every iteration.
    pub fn enable_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(ExecMetrics::new(registry));
    }

    /// The interned name of a layer (shared allocation, no clone).
    #[inline]
    pub fn layer_name(&self, l: LayerId) -> Arc<str> {
        self.layers[l.0].name.clone()
    }

    pub fn backend(&self) -> Option<&dyn ComputeBackend> {
        self.backend.as_deref()
    }

    /// The Fig. 12 rows, one per CONV step in step order: the workspace
    /// the plan assigned against the max-speed want. A pure view of
    /// [`MemoryPlan::workspace`], so the rows exist as soon as the executor is
    /// built — before the first iteration — and never change.
    pub fn ws_records(&self) -> impl Iterator<Item = WorkspaceRecord> + '_ {
        self.mplan.steps.iter().enumerate().filter_map(|(s, step)| {
            let ws = self.mplan.workspace(s)?;
            Some(WorkspaceRecord {
                layer: step.layer,
                name: self.layers[step.layer.0].name.clone(),
                phase: sim_phase(step.phase),
                assigned_bytes: ws.bytes,
                max_speed_bytes: ws.max_speed_bytes,
                algo: ws.algo,
                speedup: ws.speedup,
            })
        })
    }

    fn meta(&self, t: TensorId) -> &sn_graph::TensorMeta {
        &self.plan.tensors[t.0]
    }

    /// Effective transfer bandwidth for tensor `t`'s external tier. The
    /// pageable (unpinned) penalty applies to the local-host tier only.
    fn tier_gbps(&self, t: TensorId) -> f64 {
        let tier = self.utp.tier_of(t);
        match tier {
            Tier::LocalHost if !self.policy.pinned_host => tier.gbps() * self.spec.unpinned_factor,
            _ => tier.gbps(),
        }
    }

    /// Span label for a tensor DMA: `"<verb> <layer>.<role>"` with the
    /// payload size, e.g. `"prefetch CONV2.out"`. Callers guard behind
    /// [`Timeline::tracing`] so the disabled path never formats.
    ///
    /// [`Timeline::tracing`]: sn_sim::Timeline::tracing
    fn dma_label(&self, verb: &str, t: TensorId) -> SpanLabel {
        let meta = self.meta(t);
        let role = match meta.role {
            TensorRole::FwdOut => "out",
            TensorRole::Grad => "grad",
        };
        SpanLabel::new(
            format!("{verb} {}.{role}", self.layers[meta.layer.0].name),
            "dma",
        )
        .arg("bytes", meta.bytes)
    }

    /// Submit a DMA for tensor `t` on `stream`, honouring the policy's
    /// synchronous-transfer flag (under it the host blocks until the copy
    /// completes — the `cudaMemcpy`-on-the-null-stream baseline, which makes
    /// compute/transfer overlap zero by construction).
    /// Returns when the copy lands.
    fn submit_dma(&mut self, stream: StreamId, t: TensorId, gates: &[Event]) -> SimTime {
        let bytes = self.tensors[t.0].bytes;
        let gbps = self.tier_gbps(t);
        let done = self.dev.tl.transfer_on(stream, bytes, gbps, gates).event;
        if self.policy.sync_transfers {
            self.dev.tl.wait(done);
        }
        done.done_at
    }

    /// Charge device memory the plan promised would fit. The build's
    /// `verify` proved every grant fits, so only a plan assigned to
    /// [`Executor::mplan`] after build can fail here, on the byte count.
    fn planned_alloc(&mut self, bytes: u64, step: usize) -> Result<sn_sim::AllocId, ExecError> {
        let grant = self.dev.alloc_charged(bytes);
        grant.ok_or_else(|| self.oom(bytes, step))
    }

    /// An OOM of `bytes` at `step`, naming the step's layer, or the end of
    /// the iteration for a final op.
    fn oom(&self, requested: u64, step: usize) -> ExecError {
        ExecError::Oom {
            step,
            layer: match self.mplan.steps.get(step) {
                Some(sp) => self.layers[sp.layer.0].name.clone(),
                None => "end of iteration".into(),
            },
            requested,
            capacity: self.dev.capacity,
        }
    }

    /// What a plan that breaks `v` would have met mid-iteration: a grant
    /// past the card, or one no free run holds, is an OOM of the op's
    /// bytes; a copy-out past the host tiers is host exhaustion.
    fn refusal(&self, v: PlanViolation) -> ExecError {
        let bytes = match self.mplan.ops.get(v.op) {
            Some(PlanOp::Alloc(t) | PlanOp::Fetch(t) | PlanOp::Offload { t, .. }) => {
                self.tensors[t.0].bytes
            }
            Some(PlanOp::AllocWorkspace(b) | PlanOp::AllocTransient(b)) => *b,
            _ => 0,
        };
        match v.rule {
            Rule::DeviceOverCapacity | Rule::Fragmented => self.oom(bytes, v.step),
            Rule::HostOverCapacity => ExecError::HostExhausted { requested: bytes },
            _ => panic!("the planner emitted a plan that fails verify: {v}"),
        }
    }

    fn notify_drop(&mut self, t: TensorId) {
        if let Some(b) = self.backend.as_mut() {
            let meta = &self.plan.tensors[t.0];
            match meta.role {
                TensorRole::FwdOut => b.drop_output(meta.layer),
                TensorRole::Grad => b.drop_grad(meta.layer),
            }
        }
    }

    /// Execute one residency op. `compute_done` is the step's kernel event
    /// (the gate for eager offloads), present only for post-kernel ops.
    fn apply(
        &mut self,
        op: PlanOp,
        step: usize,
        compute_done: Option<Event>,
    ) -> Result<(), ExecError> {
        match op {
            PlanOp::Alloc(t) => {
                let g = self.planned_alloc(self.tensors[t.0].bytes, step)?;
                self.utp.mark_device(t, g, false);
            }
            PlanOp::Fetch(t) => {
                let g = self.planned_alloc(self.tensors[t.0].bytes, step)?;
                self.utp.mark_device(t, g, false);
                if self.dev.tl.tracing() {
                    self.dev.tl.trace_label(self.dma_label("prefetch", t));
                }
                self.tensors[t.0].prefetch_done = self.submit_dma(StreamId::H2D, t, &[]);
            }
            PlanOp::Offload { t, evict } => {
                let bytes = self.tensors[t.0].bytes;
                if !self.utp.ensure_host_slot(t, bytes, &mut self.dev) {
                    return Err(ExecError::HostExhausted { requested: bytes });
                }
                // An eviction's copy-out must run behind every kernel already
                // queued (which may still read the victim); an eager offload
                // only behind the kernel that produced the tensor.
                let gate = match (evict, compute_done) {
                    (false, Some(e)) => e,
                    _ => self.dev.tl.frontier_event(StreamId::COMPUTE),
                };
                if self.dev.tl.tracing() {
                    let verb = if evict { "evict" } else { "offload" };
                    self.dev.tl.trace_label(self.dma_label(verb, t));
                }
                let done = self.submit_dma(StreamId::D2H, t, &[gate]);
                self.utp.mark_offloading(t, evict);
                let slot = &mut self.tensors[t.0];
                slot.offload_done = done;
                if evict {
                    // Nothing reads the victim's device copy again: whoever
                    // needs it next gates on its own fetch.
                    slot.prefetch_done = SimTime::ZERO;
                }
            }
            PlanOp::ReleaseDevice(t) => {
                // The device bytes may only be reused once the copy-out has
                // landed — the "allocations never overtake releases" wait
                // that pins the trajectory to the plan's.
                let slot = &mut self.tensors[t.0];
                self.dev
                    .tl
                    .wait(copy_done(StreamId::D2H, slot.offload_done));
                slot.clear_transfers();
                if self.utp.release_device(t, &mut self.dev) {
                    self.notify_drop(t);
                }
            }
            PlanOp::Free(t) => {
                // An in-flight copy-out is cancelled, not awaited.
                self.tensors[t.0].clear_transfers();
                self.utp.free_tensor(t, &mut self.dev);
                self.notify_drop(t);
            }
            PlanOp::Recompute(l) => {
                // The replay reads its producers synchronously: wait out any
                // in-flight prefetch of its input first. Only that input can
                // have one — a segment's anchor, fetched back for its first
                // replay; later members read what the replays rebuilt.
                let pt = self.layers[l.0].replay_input;
                debug_assert!(
                    self.net.layer(l).prevs.iter().all(|p| {
                        let t = self.plan.fwd_out[p.0];
                        t == pt || self.tensors[t.0].prefetch_done == SimTime::ZERO
                    }),
                    "replay of {} at step {step}: another producer is still being fetched",
                    self.layers[l.0].name
                );
                let fetched = std::mem::take(&mut self.tensors[pt.0].prefetch_done);
                self.dev.tl.wait(copy_done(StreamId::H2D, fetched));
                if self.dev.tl.tracing() {
                    self.dev.tl.trace_label(
                        SpanLabel::new(format!("recompute {}", self.layers[l.0].name), "recompute")
                            .arg("step", step),
                    );
                }
                self.dev
                    .tl
                    .submit(sn_sim::EngineKind::Compute, self.layers[l.0].replay);
                self.dev.tl.join_compute();
                if let Some(b) = self.backend.as_mut() {
                    b.forward(l);
                }
            }
            PlanOp::AllocWorkspace(bytes) => {
                debug_assert!(self.ws_grant.is_none());
                self.ws_grant = Some(self.planned_alloc(bytes, step)?);
            }
            PlanOp::AllocTransient(bytes) => {
                debug_assert!(self.tr_grant.is_none());
                self.tr_grant = Some(self.planned_alloc(bytes, step)?);
            }
            PlanOp::FreeTransients => {
                if let Some(g) = self.ws_grant.take() {
                    self.dev.free_charged(g);
                }
                if let Some(g) = self.tr_grant.take() {
                    self.dev.free_charged(g);
                }
            }
            PlanOp::Collective { .. } => {
                // Single-device plans never contain collectives; the group
                // interpreter schedules them around the replica stream.
                unreachable!("collective op in a single-device plan")
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The iteration loop
    // ------------------------------------------------------------------

    /// Replay the plan for one iteration; returns the measured report.
    pub fn run_iteration(&mut self) -> Result<IterationReport, ExecError> {
        self.begin_iteration();
        let total = self.route.total_steps();
        for s in 0..total {
            self.run_step(s)?;
        }
        self.finish_iteration()
    }

    /// Open a new iteration: reset residency and statistics, snapshot the
    /// counters [`Executor::finish_iteration`] will difference. The group
    /// interpreter uses this begin/step/finish decomposition to interleave
    /// replicas at step granularity; [`Executor::run_iteration`] is the
    /// single-device composition of the three.
    pub(crate) fn begin_iteration(&mut self) {
        self.iter += 1;
        self.reset_iteration_state();
        self.iter_t_start = self.dev.tl.now();
        self.iter_alloc_time0 = self.dev.alloc_time;
        self.iter_alloc_calls0 = self.dev.alloc_calls;
        self.dev.tl.reset_stats();
        self.dev.high_water = self.dev.used;
        self.counters = self.mplan.predicted;
        self.prefetch_stall = SimTime::ZERO;
        self.samples.clear();
        if let Some(b) = self.backend.as_mut() {
            b.begin_iteration(self.iter);
        }
    }

    /// Close the iteration opened by [`Executor::begin_iteration`]: drain
    /// every stream, apply the end-of-iteration ops, and cut the report.
    pub(crate) fn finish_iteration(&mut self) -> Result<IterationReport, ExecError> {
        let total = self.route.total_steps();
        // Drain DMA engines so trailing offloads are charged to this
        // iteration, then release anything whose consumers have all run.
        self.dev.tl.sync_all();
        let fr = self.mplan.final_range;
        for i in fr.start as usize..fr.end as usize {
            let op = self.mplan.ops[i];
            self.apply(op, total, None)?;
        }

        let stats = self.dev.tl.stats();
        let overlap = self.dev.tl.overlap();
        let report = IterationReport {
            iter_time: self.dev.tl.now() - self.iter_t_start,
            peak_bytes: self.dev.high_water,
            h2d_bytes: stats.h2d_bytes,
            d2h_bytes: stats.d2h_bytes,
            link_bytes: stats.link_bytes,
            link_busy: stats.link_busy,
            counters: self.counters,
            alloc_time: self.dev.alloc_time - self.iter_alloc_time0,
            alloc_calls: self.dev.alloc_calls - self.iter_alloc_calls0,
            stall: stats.stall,
            compute_busy: overlap.compute_busy,
            transfer_busy: overlap.transfer_busy,
            overlapped: overlap.overlapped,
            loss: self.backend.as_ref().and_then(|b| b.loss()),
        };
        // The contract the whole stack rests on: replaying the plan's
        // alloc/free sequence reproduces its peak to the byte.
        debug_assert_eq!(
            report.peak_bytes, self.mplan.peak_bytes,
            "executed peak diverged from the plan"
        );
        // Once per iteration, never per step: the O(1) residency counts
        // against the O(tensors) scans they replaced.
        debug_assert_eq!(
            self.utp.device_resident(),
            self.utp.scan_resident(Residence::Device),
            "device-resident count drifted from the tensor states"
        );
        debug_assert_eq!(
            self.utp.host_resident(),
            self.utp.scan_resident(Residence::Host),
            "host-resident count drifted from the tensor states"
        );
        if let Some(m) = &self.metrics {
            m.flush(&report, self.prefetch_stall);
            m.cache_resident.set(self.utp.cache_len() as i64);
        }
        Ok(report)
    }

    fn reset_iteration_state(&mut self) {
        // A copy is in flight only for a device-resident tensor (`Fetch` and
        // `Offload` set the completions; `ReleaseDevice` and `Free`, the two
        // ways off the device, clear them), so an iteration that ran to its
        // end left none behind and only an abandoned one is swept. A stale
        // completion must not survive: it would gate a kernel of the next
        // iteration and draw a flow arrow from a copy it never waited for.
        if self.utp.device_resident() > 0 {
            self.tensors
                .iter_mut()
                .for_each(TensorSlot::clear_transfers);
        }
        debug_assert!(self
            .tensors
            .iter()
            .all(|s| s.prefetch_done == SimTime::ZERO && s.offload_done == SimTime::ZERO));
        self.utp.reset(&mut self.dev);
        if let Some(g) = self.ws_grant.take() {
            self.dev.free_charged(g);
        }
        if let Some(g) = self.tr_grant.take() {
            self.dev.free_charged(g);
        }
    }

    pub(crate) fn run_step(&mut self, s: usize) -> Result<(), ExecError> {
        let step = self.mplan.steps[s];
        let phase = sim_phase(step.phase);

        // 1. Residency ops ahead of the kernel (staging, evictions,
        //    recompute replays, workspace/transient allocation). Indexed
        //    iteration: `PlanOp` is `Copy`, so the interpreter's hottest
        //    loop never clones the plan's op vectors.
        for i in step.pre.start as usize..step.pre.end as usize {
            let op = self.mplan.ops[i];
            self.apply(op, s, None)?;
        }

        // 2. The kernel, gated on *every* input's in-flight prefetch: a
        //    tensor is never read while its H2D copy is still on the wire.
        self.gates.clear();
        self.gates.extend(
            self.plan.step_inputs[s]
                .iter()
                .map(|t| self.tensors[t.0].prefetch_done)
                .filter(|done| *done > SimTime::ZERO)
                .map(|done| copy_done(StreamId::H2D, done)),
        );
        if self.metrics.is_some() {
            // Prefetch-stall: how far the gates push the kernel past where
            // the compute stream could otherwise have started it.
            let frontier = self
                .dev
                .tl
                .stream_frontier(StreamId::COMPUTE)
                .max(self.dev.tl.now());
            let gate = self
                .gates
                .iter()
                .map(|e| e.done_at)
                .fold(SimTime::ZERO, SimTime::max);
            if gate > frontier {
                self.prefetch_stall += gate - frontier;
            }
        }
        if self.dev.tl.tracing() {
            self.dev.tl.trace_label(
                SpanLabel::new(self.layers[step.layer.0].name.to_string(), "kernel")
                    .arg("step", s)
                    .arg(
                        "phase",
                        match phase {
                            Phase::Forward => "forward",
                            Phase::Backward => "backward",
                        },
                    ),
            );
        }
        let compute_done = self
            .dev
            .tl
            .submit_on(StreamId::COMPUTE, step.duration, &self.gates);

        // Sample at the step's high-water moment.
        self.samples.push(StepSample {
            resident_bytes: self.dev.used,
            completed_at: compute_done.done_at,
            live_tensors: self.utp.device_resident() as u32,
        });
        // The training loop is host-synchronous with compute at layer
        // granularity; DMA engines keep draining in the background.
        self.dev.tl.join_compute();
        if let Some(b) = self.backend.as_mut() {
            match phase {
                Phase::Forward => b.forward(step.layer),
                Phase::Backward => b.backward(step.layer),
            }
        }

        // 3. Post-kernel ops (transient release, eager offload gated on the
        //    kernel, prefetch-ahead, liveness frees, recompute cleanup).
        for i in step.post.start as usize..step.post.end as usize {
            let op = self.mplan.ops[i];
            self.apply(op, s, Some(compute_done))?;
        }
        Ok(())
    }

    /// Convenience: run `n` iterations, returning the last report.
    pub fn run_iterations(&mut self, n: usize) -> Result<IterationReport, ExecError> {
        let mut last = None;
        for _ in 0..n {
            last = Some(self.run_iteration()?);
        }
        Ok(last.expect("n > 0"))
    }

    /// The Fig. 10 rows of the most recent iteration, one per executed step:
    /// what the interpreter sampled at each kernel submit, joined with the
    /// plan's step (number, layer, phase) and the device's capacity (free
    /// bytes). A view, like [`Executor::ws_records`] — the warm path stores
    /// three numbers a step and builds no record.
    pub fn step_records(&self) -> impl Iterator<Item = StepRecord> + '_ {
        let capacity = self.dev.capacity;
        self.samples
            .iter()
            .zip(&self.mplan.steps)
            .enumerate()
            .map(move |(s, (sample, step))| StepRecord {
                step: s + 1,
                layer: self.layers[step.layer.0].name.clone(),
                phase: sim_phase(step.phase),
                resident_bytes: sample.resident_bytes,
                live_tensors: sample.live_tensors as usize,
                free_bytes: capacity - sample.resident_bytes,
                completed_at: sample.completed_at,
            })
    }

    /// The step trace of the most recent iteration, collected from
    /// [`Executor::step_records`].
    pub fn last_trace(&self) -> StepTrace {
        StepTrace {
            records: self.step_records().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RecomputeMode;
    use crate::policy::{CachePolicy, WorkspacePolicy};
    use sn_graph::Shape4;
    use sn_sim::spec::MB;

    fn alex_stub(batch: usize) -> Net {
        // CONV-ACT-LRN-POOL ×2, CONV-ACT, FC-ACT-DROPOUT, FC, SOFTMAX —
        // a compressed AlexNet with the same segment structure.
        let mut net = Net::new("alex-stub", Shape4::new(batch, 3, 64, 64));
        let d = net.data();
        let c1 = net.conv(d, 32, 5, 1, 2);
        let a1 = net.relu(c1);
        let l1 = net.lrn(a1);
        let p1 = net.max_pool(l1, 2, 2, 0);
        let c2 = net.conv(p1, 64, 5, 1, 2);
        let a2 = net.relu(c2);
        let l2 = net.lrn(a2);
        let p2 = net.max_pool(l2, 2, 2, 0);
        let c3 = net.conv(p2, 64, 3, 1, 1);
        let a3 = net.relu(c3);
        let f1 = net.fc(a3, 256);
        let a4 = net.relu(f1);
        let dr = net.dropout(a4, 0.5);
        let f2 = net.fc(dr, 10);
        net.softmax(f2);
        net.validate().unwrap();
        net
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::k40c()
    }

    /// A compressed VGG: conv-conv-pool blocks with growing channel counts —
    /// the large early activations that make offloading worthwhile.
    fn vgg_stub(batch: usize) -> Net {
        let mut net = Net::new("vgg-stub", Shape4::new(batch, 3, 64, 64));
        let mut prev = net.data();
        for (blocks, ch) in [(2usize, 32), (2, 64), (3, 128)] {
            for _ in 0..blocks {
                let c = net.conv(prev, ch, 3, 1, 1);
                prev = net.relu(c);
            }
            prev = net.max_pool(prev, 2, 2, 0);
        }
        let f1 = net.fc(prev, 256);
        let a = net.relu(f1);
        let f2 = net.fc(a, 10);
        net.softmax(f2);
        net.validate().unwrap();
        net
    }

    #[test]
    fn baseline_iteration_completes_and_peaks_at_sum() {
        let net = alex_stub(16);
        let mut ex = Executor::new(&net, spec(), Policy::baseline()).unwrap();
        let r = ex.run_iteration().unwrap();
        // Baseline peak = weights + Σ all tensors (block-rounded ≥ exact).
        let expect: u64 = ex.plan.tensors.iter().map(|t| t.bytes).sum();
        assert!(r.peak_bytes >= expect + ex.cost.total_weight_bytes());
        assert_eq!(r.counters.recompute_forwards, 0);
        assert_eq!(r.d2h_bytes, 0);
        assert!(r.iter_time > SimTime::ZERO);
    }

    fn presets() -> [(&'static str, Policy); 7] {
        [
            ("baseline", Policy::baseline()),
            ("liveness_only", Policy::liveness_only()),
            ("liveness_offload", Policy::liveness_offload()),
            ("full_memory", Policy::full_memory()),
            ("superneurons", Policy::superneurons()),
            ("superneurons_no_cache", Policy::superneurons_no_cache()),
            ("superneurons_cuda_alloc", Policy::superneurons_cuda_alloc()),
        ]
    }

    #[test]
    fn executed_peak_equals_plan_peak_for_every_preset() {
        // The tentpole contract: the interpreter's measured high-water is
        // byte-identical to the plan's predicted peak, per preset.
        let net = alex_stub(16);
        for (_, policy) in presets() {
            let mut ex = Executor::new(&net, spec(), policy).unwrap();
            for _ in 0..3 {
                let r = ex.run_iteration().unwrap();
                assert_eq!(
                    r.peak_bytes, ex.mplan.peak_bytes,
                    "executed peak must equal the planned peak"
                );
            }
        }
    }

    #[test]
    fn step_record_view_matches_the_stored_records_it_replaced() {
        // The golden is what `ex.trace.records` held at bbf3062, when the
        // executor built and stored a `StepRecord` per step: preset,
        // iteration, step, layer, phase, resident, live, free, completed ns.
        let net = alex_stub(16);
        let mut seen = String::new();
        for (name, policy) in presets() {
            let mut ex = Executor::new(&net, spec(), policy).unwrap();
            for iter in ["cold", "warm"] {
                ex.run_iteration().unwrap();
                for r in &ex.last_trace().records {
                    seen.push_str(&format!(
                        "{name} {iter} {} {} {:?} {} {} {} {}\n",
                        r.step,
                        r.layer,
                        r.phase,
                        r.resident_bytes,
                        r.live_tensors,
                        r.free_bytes,
                        r.completed_at.as_ns()
                    ));
                }
            }
        }
        let golden = include_str!("../tests/golden/alex16_step_records.txt");
        for (i, (got, want)) in seen.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "record {}", i + 1);
        }
        assert_eq!(seen.lines().count(), golden.lines().count());
    }

    /// `begin_iteration` and the first `steps` steps, then walks away.
    fn abandon_after(ex: &mut Executor<'_>, steps: usize) {
        ex.begin_iteration();
        for s in 0..steps {
            ex.run_step(s).unwrap();
        }
    }

    #[test]
    fn abandoned_iteration_does_not_leak_into_the_next() {
        // Offloads, evictions and fetches under a binding cap, abandoned
        // three times with copies in flight and tensors resident — the last
        // by a plan mutated to fail mid-step: the next iteration's reset
        // must sweep all of it — states, grants, host slots and the
        // interpreter's own completion times.
        let net = vgg_stub(16);
        let full = Executor::new(&net, spec(), Policy::full_memory())
            .unwrap()
            .run_iteration()
            .unwrap();
        let tight = spec().with_dram(full.peak_bytes + 4 * MB);
        let build = || {
            let sink = TraceSink::recording();
            let policy = Policy {
                eager_offload: true,
                ..Policy::superneurons()
            };
            let mut ex = Executor::new(&net, tight.clone(), policy).unwrap();
            ex.enable_tracing(&sink, "device 0");
            (ex, sink)
        };

        let (mut clean, clean_sink) = build();
        clean.run_iteration().unwrap();
        let warm = clean.run_iteration().unwrap();
        assert!(warm.counters.evictions > 0 && warm.counters.prefetches > 0);

        let (mut ex, sink) = build();
        let steps = ex.route.total_steps();
        let in_flight = |ex: &Executor<'_>, f: fn(&TensorSlot) -> SimTime| {
            ex.tensors.iter().filter(|s| f(s) > SimTime::ZERO).count()
        };
        // Mid-forward: an eager copy-out on the wire, its tensor on device.
        abandon_after(&mut ex, steps / 4 + 1);
        assert!(in_flight(&ex, |s| s.offload_done) > 0);
        assert!(ex.utp.device_resident() > 0 && ex.utp.host_resident() > 0);
        // Just into backward: fetched tensors no kernel has gated on yet.
        abandon_after(&mut ex, steps / 2 + 2);
        assert!(in_flight(&ex, |s| s.prefetch_done) > 0);
        assert!(ex.utp.device_resident() > 0 && ex.utp.host_resident() > 0);
        // A transient allocation past the card in the pre-ops of a step
        // after the first fetch: the iteration errs there, part-way into
        // the step, with fetches landing.
        let clean_plan = ex.mplan.clone();
        let fetch = clean_plan
            .ops
            .iter()
            .position(|op| matches!(op, PlanOp::Fetch(_)))
            .expect("the cap makes the plan fetch");
        let (s, i) = (0..steps)
            .find_map(|s| {
                let pre = clean_plan.steps[s].pre;
                let a = clean_plan.ops_in(pre).iter().position(|op| {
                    matches!(op, PlanOp::AllocTransient(_) | PlanOp::AllocWorkspace(_))
                })?;
                Some((s, pre.start as usize + a)).filter(|&(_, i)| i > fetch)
            })
            .expect("a later step allocates a transient");
        let mut mutated = (*clean_plan).clone();
        mutated.ops[i] = PlanOp::AllocTransient(tight.dram_bytes + 1);
        ex.mplan = Arc::new(mutated);
        match ex.run_iteration() {
            Err(ExecError::Oom { step, .. }) => assert_eq!(step, s),
            r => panic!("the mutated plan must fail at step {s}: {r:?}"),
        }
        assert!(in_flight(&ex, |s| s.prefetch_done) > 0);
        ex.mplan = clean_plan;
        let abandoned_flows = sink.data().flows.len();

        ex.run_iteration().unwrap();
        let r = ex.run_iteration().unwrap();
        assert_eq!(r.iter_time, warm.iter_time);
        assert_eq!(r.peak_bytes, warm.peak_bytes);
        assert_eq!(r.h2d_bytes, warm.h2d_bytes);
        assert_eq!(r.d2h_bytes, warm.d2h_bytes);
        assert_eq!(r.stall, warm.stall);
        assert_eq!(r.overlapped, warm.overlapped);
        assert_eq!(r.compute_busy, warm.compute_busy);
        assert_eq!(r.transfer_busy, warm.transfer_busy);
        assert_eq!(r.alloc_calls, warm.alloc_calls);
        assert_eq!(r.counters.json(), warm.counters.json());
        // Every arrow is a gate a kernel or copy really waited behind: the
        // two full iterations draw as many as the undisturbed pair.
        assert_eq!(
            sink.data().flows.len() - abandoned_flows,
            clean_sink.data().flows.len()
        );
    }

    /// The five presets, then superneurons under the two recomputation
    /// modes it does not use.
    fn presets_and_recompute_modes() -> [Policy; 7] {
        let sn = Policy::superneurons();
        [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            sn,
            Policy {
                recompute: RecomputeMode::SpeedCentric,
                ..sn
            },
            Policy {
                recompute: RecomputeMode::MemoryCentric,
                ..sn
            },
        ]
    }

    #[test]
    fn a_replay_waits_on_the_only_producer_with_a_fetch_landing() {
        // The debug oracle checks it at every replay. Cold and warm
        // iterations, training and inference, on the open card and at a cap
        // where the Tensor Cache must evict.
        let nets = [
            sn_models::resnet50(8),
            sn_models::vgg16(8),
            sn_models::densenet(8, 12, 6),
            sn_models::inception_v4(8),
        ];
        let (mut replayed, mut fetched, mut evicted) = (0, 0, 0);
        for net in &nets {
            let full = Executor::new(net, spec(), Policy::full_memory())
                .unwrap()
                .run_iteration()
                .unwrap();
            for card in [spec(), spec().with_dram(full.peak_bytes + 4 * MB)] {
                for policy in presets_and_recompute_modes() {
                    for inference in [false, true] {
                        let built = match inference {
                            false => Executor::new(net, card.clone(), policy),
                            true => Executor::new_inference(net, card.clone(), policy),
                        };
                        // Under the tight cap the weaker presets do not fit.
                        let Ok(mut ex) = built else { continue };
                        for _ in ["cold", "warm"] {
                            let r = ex.run_iteration().unwrap();
                            assert_eq!(r.peak_bytes, ex.mplan.peak_bytes);
                            replayed += r.counters.recompute_forwards;
                            fetched += r.counters.prefetches;
                            evicted += r.counters.evictions;
                        }
                    }
                }
            }
        }
        assert!(
            replayed > 0 && fetched > 0 && evicted > 0,
            "replayed {replayed}, fetched {fetched}, evicted {evicted}"
        );
    }

    #[test]
    fn liveness_reduces_peak_vs_baseline() {
        let net = alex_stub(16);
        let rb = Executor::new(&net, spec(), Policy::baseline())
            .unwrap()
            .run_iteration()
            .unwrap();
        let rl = Executor::new(&net, spec(), Policy::liveness_only())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(
            rl.peak_bytes < rb.peak_bytes,
            "liveness {} vs baseline {}",
            rl.peak_bytes,
            rb.peak_bytes
        );
    }

    #[test]
    fn offload_reduces_peak_vs_liveness_alone() {
        let net = alex_stub(16);
        let rl = Executor::new(&net, spec(), Policy::liveness_only())
            .unwrap()
            .run_iteration()
            .unwrap();
        let ro = Executor::new(&net, spec(), Policy::liveness_offload())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(
            ro.peak_bytes < rl.peak_bytes,
            "offload {} vs liveness {}",
            ro.peak_bytes,
            rl.peak_bytes
        );
        assert!(ro.d2h_bytes > 0, "offload must move bytes to the host");
        assert!(ro.h2d_bytes > 0, "prefetch must bring them back");
    }

    #[test]
    fn recompute_reaches_near_l_peak() {
        let net = alex_stub(16);
        let rf = Executor::new(&net, spec(), Policy::full_memory())
            .unwrap()
            .run_iteration()
            .unwrap();
        let ro = Executor::new(&net, spec(), Policy::liveness_offload())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(rf.peak_bytes < ro.peak_bytes);
        assert!(rf.counters.recompute_forwards > 0);
    }

    #[test]
    fn monotone_peak_ordering_across_the_paper_stack() {
        let net = alex_stub(8);
        let peaks: Vec<u64> = [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
        ]
        .iter()
        .map(|p| {
            Executor::new(&net, spec(), *p)
                .unwrap()
                .run_iteration()
                .unwrap()
                .peak_bytes
        })
        .collect();
        assert!(
            peaks.windows(2).all(|w| w[1] <= w[0]),
            "peaks must be non-increasing: {peaks:?}"
        );
        // The >50% claim concerns scheduled tensors; weights are a constant
        // offset both configurations carry.
        let w = Executor::new(&net, spec(), Policy::baseline())
            .unwrap()
            .cost
            .total_weight_bytes();
        assert!(
            peaks[3] - w < (peaks[0] - w) / 2,
            "full stack should save >50% of tensor memory: {peaks:?} (weights {w})"
        );
    }

    #[test]
    fn speed_centric_recomputes_each_segment_once() {
        let net = alex_stub(8);
        let pol = Policy {
            recompute: RecomputeMode::SpeedCentric,
            ..Policy::full_memory()
        };
        let mut ex = Executor::new(&net, spec(), pol).unwrap();
        let r = ex.run_iteration().unwrap();
        // Segments: [ACT,LRN,POOL], [ACT,LRN,POOL], [ACT], [ACT,DROPOUT]
        // → 3+3+1+2 = 9 extra forwards.
        assert_eq!(r.counters.recompute_forwards, 9);
        assert_eq!(ex.rplan.predicted_speed_centric_extra(), 9);
    }

    #[test]
    fn memory_centric_recomputes_more_but_never_raises_peak() {
        let net = alex_stub(8);
        let mk = |mode| Policy {
            recompute: mode,
            ..Policy::full_memory()
        };
        let rs = Executor::new(&net, spec(), mk(RecomputeMode::SpeedCentric))
            .unwrap()
            .run_iteration()
            .unwrap();
        let rm = Executor::new(&net, spec(), mk(RecomputeMode::MemoryCentric))
            .unwrap()
            .run_iteration()
            .unwrap();
        let rc = Executor::new(&net, spec(), mk(RecomputeMode::CostAware))
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(rm.counters.recompute_forwards > rs.counters.recompute_forwards);
        assert!(rm.peak_bytes <= rs.peak_bytes);
        // Cost-aware: compute near speed-centric, memory at the floor.
        assert!(rc.counters.recompute_forwards >= rs.counters.recompute_forwards);
        assert!(rc.counters.recompute_forwards <= rm.counters.recompute_forwards);
        assert!(rc.peak_bytes <= rs.peak_bytes);
    }

    #[test]
    fn tensor_cache_eliminates_traffic_when_dram_sufficient() {
        let net = alex_stub(16);
        let r = Executor::new(&net, spec(), Policy::superneurons())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert_eq!(
            r.d2h_bytes + r.h2d_bytes,
            0,
            "no transfers should occur when everything fits"
        );
        let r2 = Executor::new(&net, spec(), Policy::superneurons_no_cache())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(
            r2.d2h_bytes > 0,
            "without the cache, eager offload moves bytes"
        );
    }

    #[test]
    fn cache_evicts_under_pressure_instead_of_oom() {
        let net = alex_stub(16);
        // Find a capacity that fails without the cache but works with it.
        let full = Executor::new(&net, spec(), Policy::full_memory())
            .unwrap()
            .run_iteration()
            .unwrap();
        let tight = spec().with_dram(full.peak_bytes + 4 * MB);
        let r = Executor::new(&net, tight.clone(), Policy::superneurons())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(r.peak_bytes <= tight.dram_bytes);
        // Liveness-only cannot fit in the same budget.
        // An Err from Executor::new (even the weights didn't fit, or the
        // plan itself cannot be compiled within the budget) is acceptable.
        if let Ok(mut ex) = Executor::new(&net, tight, Policy::liveness_only()) {
            assert!(ex.run_iteration().is_err());
        }
    }

    #[test]
    fn oom_when_truly_too_small() {
        let net = alex_stub(32);
        let tiny = spec().with_dram(8 * MB);
        match Executor::new(&net, tiny, Policy::superneurons()) {
            Err(_) => {}
            Ok(mut ex) => {
                let e = ex.run_iteration().unwrap_err();
                assert!(matches!(e, ExecError::Oom { .. }), "{e}");
            }
        }
    }

    #[test]
    fn a_plan_driven_past_its_cap_names_where_it_failed() {
        // A plan that cannot fit, made by hand: one allocation mutated to a
        // byte over the card. The build's `verify` refuses it, naming where
        // an iteration would have failed.
        let net = alex_stub(8);
        let policy = Policy::superneurons();
        let compiled = plan::compile(&net, &spec(), policy).unwrap();
        let over = PlanOp::AllocTransient(spec().dram_bytes + 1);
        let oom = |plan: MemoryPlan| {
            let c = CompiledPlan {
                plan: Arc::new(plan),
                ..compiled.clone()
            };
            match Executor::from_compiled(&net, spec(), policy, c) {
                Err(ExecError::Oom { step, layer, .. }) => (step, layer.to_string()),
                Err(e) => panic!("{e}"),
                Ok(_) => panic!("a plan past the card was built"),
            }
        };
        let p = &*compiled.plan;
        let (s, i) = (0..p.steps.len())
            .find_map(|s| {
                let r = p.steps[s].pre;
                let i = (r.start..r.end).find(|&i| {
                    matches!(
                        p.ops[i as usize],
                        PlanOp::AllocTransient(_) | PlanOp::AllocWorkspace(_)
                    )
                })?;
                Some((s, i as usize))
            })
            .expect("some step allocates a transient");
        let mut mutated = p.clone();
        mutated.ops[i] = over;
        let layer = net.layer(p.steps[s].layer).name.clone();
        assert_eq!(oom(mutated), (s, layer));

        let mut mutated = p.clone();
        mutated.ops.push(over);
        mutated.final_range.end += 1;
        let end = (p.steps.len(), "end of iteration".to_string());
        assert_eq!(oom(mutated), end);
    }

    #[test]
    fn dynamic_workspace_speeds_up_iterations() {
        let net = alex_stub(16);
        let slow = Policy {
            workspace: WorkspacePolicy::None,
            ..Policy::superneurons()
        };
        let rs = Executor::new(&net, spec(), slow)
            .unwrap()
            .run_iteration()
            .unwrap();
        let rf = Executor::new(&net, spec(), Policy::superneurons())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(
            rf.iter_time < rs.iter_time,
            "dynamic workspaces must be faster: {} vs {}",
            rf.iter_time,
            rs.iter_time
        );
    }

    #[test]
    fn pool_allocator_is_faster_than_cuda() {
        let net = alex_stub(16);
        let rp = Executor::new(&net, spec(), Policy::superneurons())
            .unwrap()
            .run_iteration()
            .unwrap();
        let rc = Executor::new(&net, spec(), Policy::superneurons_cuda_alloc())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(rc.alloc_time.as_ns() > rp.alloc_time.as_ns() * 10);
        assert!(rc.iter_time > rp.iter_time);
    }

    #[test]
    fn trace_covers_every_step() {
        let net = alex_stub(8);
        let mut ex = Executor::new(&net, spec(), Policy::liveness_only()).unwrap();
        // Workspace records exist for conv steps (fwd + bwd each), from the
        // plan alone; WorkspacePolicy::None still plans fallback rows.
        let convs = net
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, sn_graph::LayerKind::Conv { .. }))
            .count();
        assert_eq!(ex.ws_records().count(), 2 * convs);
        ex.run_iteration().unwrap();
        assert_eq!(ex.step_records().count(), ex.route.total_steps());
        assert!(ex.last_trace().peak_bytes() > 0);
    }

    #[test]
    fn async_engine_overlaps_and_beats_synchronous_baseline() {
        // Offloading on a memory-constrained VGG-style net: the async
        // multi-stream engine must be strictly faster than the synchronous-
        // transfer baseline, with a positive overlap fraction, at an
        // unchanged peak.
        let net = vgg_stub(16);
        let peak = Executor::new(&net, spec(), Policy::liveness_offload())
            .unwrap()
            .run_iteration()
            .unwrap()
            .peak_bytes;
        let tight = spec().with_dram(peak + 8 * MB);

        let run = |policy: Policy| {
            let mut ex = Executor::new(&net, tight.clone(), policy).unwrap();
            ex.run_iteration().unwrap();
            ex.run_iteration().unwrap() // warm iteration
        };
        let async_r = run(Policy::liveness_offload());
        let sync_r = run(Policy::liveness_offload().synchronous());

        assert!(async_r.d2h_bytes > 0 && async_r.h2d_bytes > 0);
        assert!(
            async_r.iter_time < sync_r.iter_time,
            "async {} must beat sync {}",
            async_r.iter_time,
            sync_r.iter_time
        );
        assert!(
            async_r.overlap_fraction() > 0.0,
            "transfers must hide under compute"
        );
        assert_eq!(
            sync_r.overlap_fraction(),
            0.0,
            "serialized transfers cannot overlap compute"
        );
        assert_eq!(
            async_r.peak_bytes, sync_r.peak_bytes,
            "overlap must not change peak device memory"
        );
        // Same bytes moved either way — overlap changes *when*, not *what*.
        assert_eq!(async_r.d2h_bytes, sync_r.d2h_bytes);
        assert_eq!(async_r.h2d_bytes, sync_r.h2d_bytes);
    }

    #[test]
    fn eviction_offloads_are_asynchronous_under_the_cache() {
        // Tensor-cache evictions enqueue their copy-out on the D2H stream;
        // the run stays within DRAM and is never slower than the serialized
        // baseline.
        let net = vgg_stub(16);
        let full = Executor::new(&net, spec(), Policy::full_memory())
            .unwrap()
            .run_iteration()
            .unwrap();
        let tight = spec().with_dram(full.peak_bytes + 4 * MB);
        let run = |policy: Policy| {
            let mut ex = Executor::new(&net, tight.clone(), policy).unwrap();
            ex.run_iteration().unwrap();
            ex.run_iteration().unwrap()
        };
        let async_r = run(Policy::superneurons());
        let sync_r = run(Policy::superneurons().synchronous());
        assert!(async_r.counters.evictions > 0, "pressure must evict");
        assert!(async_r.peak_bytes <= tight.dram_bytes);
        assert_eq!(async_r.peak_bytes, sync_r.peak_bytes);
        assert!(async_r.iter_time <= sync_r.iter_time);
        // Identical scheduling decisions either way — it is the same plan.
        assert_eq!(async_r.counters.evictions, sync_r.counters.evictions);
        assert_eq!(async_r.d2h_bytes, sync_r.d2h_bytes);
    }

    #[test]
    fn eager_offload_with_cache_reclaims_under_pressure() {
        // Regression: a completed-but-unreapable eager offload (its forward
        // consumers still pending) must not shadow an eviction's in-flight
        // copy-out as the reclamation ladder's earliest wait — that
        // combination used to burn every victim without freeing a byte and
        // report a spurious OOM.
        let net = vgg_stub(16);
        let full = Executor::new(&net, spec(), Policy::full_memory())
            .unwrap()
            .run_iteration()
            .unwrap();
        let tight = spec().with_dram(full.peak_bytes + 4 * MB);
        let pol = Policy {
            eager_offload: true,
            ..Policy::superneurons()
        };
        let mut ex = Executor::new(&net, tight.clone(), pol).unwrap();
        let r = ex.run_iteration().unwrap();
        assert!(r.peak_bytes <= tight.dram_bytes);
        assert!(r.d2h_bytes > 0);
    }

    #[test]
    fn stream_busy_times_bounded_by_iteration_makespan() {
        let net = vgg_stub(16);
        let peak = Executor::new(&net, spec(), Policy::liveness_offload())
            .unwrap()
            .run_iteration()
            .unwrap()
            .peak_bytes;
        let tight = spec().with_dram(peak + 8 * MB);
        let mut ex = Executor::new(&net, tight, Policy::liveness_offload()).unwrap();
        let r = ex.run_iteration().unwrap();
        assert!(r.compute_busy <= r.iter_time);
        assert!(r.transfer_busy > SimTime::ZERO);
        // The union of DMA busy spans fits in the iteration too (transfers
        // are drained before the report is cut).
        assert!(r.transfer_busy <= r.iter_time);
        assert!(r.overlapped <= r.compute_busy.min(r.transfer_busy));
        assert!(r.overlap_fraction() >= 0.0 && r.overlap_fraction() <= 1.0);
    }

    #[test]
    fn repeated_iterations_are_stable() {
        let net = alex_stub(8);
        let mut ex = Executor::new(&net, spec(), Policy::superneurons()).unwrap();
        let r1 = ex.run_iteration().unwrap();
        let r2 = ex.run_iteration().unwrap();
        let r3 = ex.run_iteration().unwrap();
        assert_eq!(r2.peak_bytes, r3.peak_bytes);
        assert_eq!(r2.iter_time, r3.iter_time);
        assert_eq!(
            r1.counters.recompute_forwards,
            r3.counters.recompute_forwards
        );
        // No leaks: after reset, only the weights remain.
        ex.reset_iteration_state();
        assert_eq!(
            ex.dev.used,
            ex.cost.total_weight_bytes().div_ceil(1024) * 1024
        );
    }

    #[test]
    fn inference_runs_forward_only_at_the_plan_peak() {
        let net = alex_stub(16);
        let mut ex = Executor::new_inference(&net, spec(), Policy::superneurons()).unwrap();
        let r = ex.run_iteration().unwrap();
        assert_eq!(r.peak_bytes, ex.mplan.peak_bytes);
        assert_eq!(r.counters.recompute_forwards, 0);
        assert_eq!(r.d2h_bytes + r.h2d_bytes, 0);
        assert_eq!(ex.step_records().count(), net.len());
        // Forward-only peak undercuts the training peak.
        let train = Executor::new(&net, spec(), Policy::superneurons())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(
            r.peak_bytes < train.peak_bytes,
            "inference {} vs training {}",
            r.peak_bytes,
            train.peak_bytes
        );
        assert!(r.iter_time < train.iter_time);
    }

    #[test]
    fn nonlinear_routes_recompute_through_fanout_segments() {
        // Satellite coverage: until this PR the executor's recompute tests
        // only exercised linear AlexNet/VGG stubs. A residual block plus an
        // inception-style fan-out must replay exactly the predicted number
        // of segment members, at the plan's peak, under every strategy.
        let mut net = Net::new("nonlin", Shape4::new(8, 4, 16, 16));
        let d = net.data();
        let c1 = net.conv(d, 8, 3, 1, 1);
        let b1 = net.bn(c1);
        let r1 = net.relu(b1);
        let c2 = net.conv(r1, 8, 3, 1, 1);
        let e = net.eltwise(&[c2, c1]); // residual join (checkpoint)
        let r2 = net.relu(e);
        let p1 = net.max_pool(r2, 2, 2, 0); // fan-out below the join:
        let p2 = net.avg_pool(r2, 2, 2, 0); // two branches, one tree segment
        let j = net.concat(&[p1, p2]);
        let f = net.fc(j, 10);
        net.softmax(f);
        net.validate().unwrap();

        for mode in [
            RecomputeMode::SpeedCentric,
            RecomputeMode::MemoryCentric,
            RecomputeMode::CostAware,
        ] {
            let pol = Policy {
                recompute: mode,
                ..Policy::full_memory()
            };
            let mut ex = Executor::new(&net, spec(), pol).unwrap();
            let r = ex.run_iteration().unwrap();
            assert!(r.counters.recompute_forwards > 0, "{mode:?}");
            assert_eq!(r.peak_bytes, ex.mplan.peak_bytes, "{mode:?}");
            if mode == RecomputeMode::SpeedCentric {
                // Each segment replays exactly once: [BN,ACT] @c1 and
                // [ACT,POOL,POOL] @eltwise → the predicted member count.
                assert_eq!(
                    r.counters.recompute_forwards as usize,
                    ex.rplan.predicted_speed_centric_extra()
                );
            }
        }
    }

    #[test]
    fn zero_time_iteration_reports_zero_not_nan_throughput() {
        // Satellite regression: `imgs_per_sec` must never emit non-finite
        // numbers into bench JSON, even for zero-duration iterations.
        let r = IterationReport {
            iter_time: SimTime::ZERO,
            peak_bytes: 0,
            h2d_bytes: 0,
            d2h_bytes: 0,
            link_bytes: 0,
            link_busy: SimTime::ZERO,
            counters: Counters::default(),
            alloc_time: SimTime::ZERO,
            alloc_calls: 0,
            stall: SimTime::ZERO,
            compute_busy: SimTime::ZERO,
            transfer_busy: SimTime::ZERO,
            overlapped: SimTime::ZERO,
            loss: None,
        };
        assert_eq!(r.imgs_per_sec(128), 0.0);
        assert!(r.imgs_per_sec(128).is_finite());
        assert_eq!(r.overlap_fraction(), 0.0);
    }

    #[test]
    fn cache_policies_all_replay_their_plans() {
        let net = vgg_stub(8);
        let full = Executor::new(&net, spec(), Policy::full_memory())
            .unwrap()
            .run_iteration()
            .unwrap();
        let tight = spec().with_dram(full.peak_bytes + 4 * MB);
        for cp in [CachePolicy::Lru, CachePolicy::Fifo, CachePolicy::Mru] {
            let pol = Policy {
                cache_policy: cp,
                ..Policy::superneurons()
            };
            let mut ex = Executor::new(&net, tight.clone(), pol).unwrap();
            let r = ex.run_iteration().unwrap();
            assert!(r.peak_bytes <= tight.dram_bytes, "{cp:?}");
            assert_eq!(r.peak_bytes, ex.mplan.peak_bytes, "{cp:?}");
        }
    }
}
