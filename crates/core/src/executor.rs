//! The executor: an *interpreter* over a compiled [`MemoryPlan`].
//!
//! All scheduling decisions — liveness frees, Unified Tensor Pool
//! offload/prefetch points, Alg. 2 cache evictions, §3.4 recomputation
//! replays, §3.5 workspace choices — are made ahead of time by the planner
//! ([`crate::plan`]) and recorded as an explicit per-step op stream. This
//! module replays that stream on the multi-stream sim engine: it performs
//! the planned allocations and frees in exactly the planned order (waiting
//! out an in-flight copy-out before reusing its bytes), submits kernels
//! gated on every input's in-flight prefetch, and drives the optional
//! numeric backend.
//!
//! The interpreter runs no allocator: [`CompiledPlan::verify`], run once
//! when the executor is built, proves the plan's grants fit this card, and
//! the device counts bytes at the allocator's granularity, so the measured
//! peak equals [`MemoryPlan::peak_bytes`] **exactly** — the invariant cluster
//! admission relies on, asserted per-iteration in debug builds and across
//! the whole preset × model matrix by the `plan` bench experiment. Overlap
//! changes *when* transfers run, never what is resident.
//!
//! **What a warm step touches.** The program the build's one pass of the
//! plan through the planner's [`Utp`] compiled: the ops that move the clock
//! or tell the backend something (fetches, offloads, releases, replays,
//! frees of tensors with a host copy or under a backend), each a 16-byte
//! `OpBooks` entry that carries its tensor or layer inline, so a warm step
//! reads the program alone and never the plan's op list. The ops between,
//! which only charge or return bytes, are folded into the next entry as one
//! clock advance and granule delta. Per tensor a kept op names, one
//! `TensorSlot` — bytes, copy time at its tier, landing times of its
//! in-flight fetch and copy-out; per step, one `StepSample` written at the
//! kernel submit. It keeps no residency book and no host pool (the pass
//! placed every host slot and recorded the tiers' high water,
//! [`Executor::host_high_water`]), looks up no tier, divides nothing and
//! checks no capacity: `verify` proved every grant fits, so an iteration of
//! a built executor cannot fail, and the pass found its peak. All else a
//! reader may want of a step — number, layer name, phase, live tensors, free
//! bytes — is in the plan, the program or the device and is joined in when
//! somebody asks ([`Executor::step_records`]),
//! as Fig. 12's rows are ([`Executor::ws_records`]). A replay's duration and
//! the tensor it waits on are worked out once per layer when the executor is
//! built (`LayerInfo`), so a replay reads neither the graph nor the liveness
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
use sn_graph::{LayerId, Net, Route, StepPhase};
use sn_sim::trace::Phase;
use sn_sim::{
    DeviceSpec, Event, OverlapStats, SimTime, SpanLabel, StepRecord, StepTrace, StreamId, TraceSink,
};
use sn_telemetry::{Counter, Gauge, Histogram, Json, MetricsRegistry};

use crate::device::{Fold, Memory, SimDevice};
use crate::plan::{self, CompiledPlan, MemoryPlan, PlanOp};
use crate::policy::Policy;
use crate::tiers::TieredPool;
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
#[derive(Debug, Clone, Copy, Default)]
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
#[derive(Debug, Clone)]
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
}

impl ExecMetrics {
    fn new(reg: &MetricsRegistry) -> ExecMetrics {
        // The interpreter fills no Tensor Cache: the occupancy gauge stays
        // registered, at zero.
        reg.gauge("exec.cache.resident");
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
    pub name: Arc<str>,
    pub phase: Phase,
    pub assigned_bytes: u64,
    pub max_speed_bytes: u64,
    pub algo: &'static str,
    pub speedup: f64,
}

/// What the interpreter reads and writes of a tensor while it replays the
/// plan, in one dense array. A completion of [`SimTime::ZERO`] is "no copy
/// in flight": a wait or a gate on time zero does nothing, and draws no
/// flow arrow in a trace.
#[derive(Debug, Clone, Copy)]
struct TensorSlot {
    bytes: u64,
    /// A copy's duration at its host tier, worked out at each of the
    /// build pass's offloads from the tier its slot is in.
    copy: SimTime,
    /// When the in-flight host→device copy lands (H2D stream); consumers
    /// gate on it.
    prefetch_done: SimTime,
    /// When the in-flight device→host copy lands (D2H stream); the release
    /// of the device bytes waits on it.
    offload_done: SimTime,
}

const _: () = assert!(std::mem::size_of::<TensorSlot>() == 32);

impl TensorSlot {
    #[inline]
    fn clear_transfers(&mut self) {
        self.prefetch_done = SimTime::ZERO;
        self.offload_done = SimTime::ZERO;
    }
}

/// What the interpreter measures at a step's kernel submit. The rest of a
/// step's record is joined in by [`Executor::step_records`] when somebody
/// reads the trace.
#[derive(Debug, Clone, Copy)]
struct StepSample {
    resident_bytes: u64,
    completed_at: SimTime,
}

/// One entry of the warm program, in 16 bytes: the [`Fold`] of the ops the
/// build folded since the last entry, applied first, then what the entry
/// does, its operand inline. A fold wider than an entry holds goes first in
/// `Carry` entries.
#[derive(Debug, Clone, Copy)]
struct OpBooks {
    advance_ns: u32,
    granules: i32,
    then: Then,
}

const _: () = assert!(std::mem::size_of::<OpBooks>() == 16);

/// What a program entry does once its fold is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Then {
    /// Copy tensor `.0` in from its host slot.
    Fetch(u32),
    /// Copy tensor `.0` out; an Alg. 2 eviction if `.1`.
    Offload(u32, bool),
    /// Release tensor `.0` once its copy-out lands; drop its contents if `.1`.
    Release(u32, bool),
    /// Free tensor `.0`: cancel its copies and tell the backend.
    Free(u32),
    /// Replay layer `.0`'s forward.
    Recompute(u32),
    /// The step's kernel, with `.0` tensors live on the device.
    Kernel(u32),
    /// The section ends.
    End,
    /// Nothing: more of the fold follows.
    Carry,
}

impl OpBooks {
    fn fold(self) -> Fold {
        let (advance, granules) = (SimTime(self.advance_ns.into()), self.granules.into());
        Fold { advance, granules }
    }
}

/// The warm program (a step's pre-ops end at its `Kernel`, its post-ops and
/// the final ops at an `End`) and an iteration's peak, allocator time and
/// calls, and its host tiers' high water.
#[derive(Debug, Default)]
struct Program {
    books: Vec<OpBooks>,
    peak: u64,
    alloc_time: SimTime,
    alloc_calls: u64,
    host_high_water: (u64, u64, u64),
}

/// The build's pass over a plan: where the planner's [`Utp`] releases to
/// (it sums the granules, and places every host slot on a pool of the
/// policy's tiers — the only one an executor keeps), and what it counts.
struct Pass {
    returned: u64,
    host: TieredPool,
    live: u32,
    used: u64,
    /// The current step's workspace and transient grants, in granules.
    transients: [u64; 2],
    /// The ops folded since the last entry.
    run: Fold,
    prog: Program,
}

impl Memory for Pass {
    fn free_charged(&mut self, id: sn_sim::AllocId) {
        self.returned += id.0;
    }

    fn host(&mut self) -> &mut TieredPool {
        &mut self.host
    }
}

impl Pass {
    /// Close the run folded so far into entries, as many as it takes to
    /// hold it, the last doing `then`.
    fn push(&mut self, then: Then) {
        let run = &mut self.run;
        let advance_ns = run.advance.0.min(u32::MAX.into()) as u32;
        let granules = run.granules.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
        run.advance.0 -= u64::from(advance_ns);
        run.granules -= i64::from(granules);
        let carry = *run != Fold::default();
        let first = if carry { Then::Carry } else { then };
        self.prog.books.push(OpBooks {
            advance_ns,
            granules,
            then: first,
        });
        if carry {
            self.push(then);
        }
    }

    fn fold(&mut self, dev: &SimDevice, f: Fold) {
        self.used = self.used.wrapping_add_signed(dev.bytes(f.granules));
        self.prog.peak = self.prog.peak.max(self.used);
        self.prog.alloc_time += f.advance;
        self.run.advance += f.advance;
        self.run.granules += f.granules;
    }
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
    pub plan: std::sync::Arc<LivenessPlan>,
    /// The compiled schedule this executor interprets — `Arc`-shared with
    /// the plan memo and with the sibling replicas of a device group.
    /// Public because callers read it (the benchmark's `train_exec` checks
    /// `ex.mplan.peak_bytes`). The program is booked from it at build;
    /// assigning a plan here afterwards is unsupported.
    pub mplan: std::sync::Arc<MemoryPlan>,
    pub policy: Policy,
    pub spec: DeviceSpec,
    pub dev: SimDevice,
    prog: Program,
    /// The next program entry a step runs.
    cursor: usize,
    /// The bytes the weights charged: all a finished iteration leaves.
    weights: u64,
    /// Indexed by `TensorId`.
    tensors: Vec<TensorSlot>,
    /// The iteration's samples, one per executed step, in step order.
    samples: Vec<StepSample>,
    backend: Option<Box<dyn ComputeBackend>>,
    iter: u64,
    /// Virtual time at [`Executor::begin_iteration`], differenced by
    /// [`Executor::finish_iteration`].
    iter_t_start: SimTime,
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
    /// exhaustion an iteration would meet; another broken rule panics. Then
    /// it books the plan (`Executor::book`).
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
        let mut dev = SimDevice::new(&spec, policy.allocator);

        let wbytes = cost.total_weight_bytes();
        if wbytes > 0 {
            let charge = dev.charge(0, dev.granules(wbytes));
            dev.apply(charge.ok_or_else(|| ExecError::Oom {
                step: 0,
                layer: "WEIGHTS".into(),
                requested: wbytes,
                capacity: dev.capacity,
            })?);
        }

        let tensors: Vec<TensorSlot> = liveness
            .tensors
            .iter()
            .map(|meta| TensorSlot {
                bytes: meta.bytes,
                copy: SimTime::ZERO,
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
        let mut ex = Executor {
            net,
            route,
            plan: liveness,
            mplan,
            policy,
            spec,
            weights: dev.used,
            dev,
            prog: Program::default(),
            cursor: 0,
            tensors,
            samples,
            backend: None,
            iter: 0,
            iter_t_start: SimTime::ZERO,
            layers,
            gates: Vec::new(),
            metrics: None,
            prefetch_stall: SimTime::ZERO,
        };
        verdict.map_err(|v| ex.refusal(v))?;
        ex.book();
        Ok(ex)
    }

    /// Run the plan's ops through the planner's [`Utp`] in iteration order
    /// and compile the warm program: each kept op's [`OpBooks`], each step's
    /// live tensors at its kernel, each offloaded tensor's copy time and an
    /// iteration's totals. The plan passed `verify`, so every charge fits.
    fn book(&mut self) {
        let plan = self.mplan.clone();
        // Room for the entries the pass writes, carries aside: a kept free
        // an offload, since only an offload reserves the slot that keeps it.
        let stays = |op: &PlanOp| match op {
            PlanOp::Alloc(_)
            | PlanOp::AllocWorkspace(_)
            | PlanOp::AllocTransient(_)
            | PlanOp::FreeTransients => 0,
            PlanOp::Free(_) => self.backend.is_some() as usize,
            PlanOp::Offload { .. } => 2,
            _ => 1,
        };
        let bound = 2 * plan.steps.len() + 1 + plan.ops.iter().map(stays).sum::<usize>();
        let mut books = std::mem::take(&mut self.prog.books);
        books.clear();
        books.reserve_exact(bound);
        let mut utp = Utp::new(self.tensors.len());
        let mut p = Pass {
            returned: 0,
            host: TieredPool::new(self.policy.tiers),
            live: 0,
            used: self.weights,
            transients: [0; 2],
            run: Fold::default(),
            prog: Program {
                books,
                peak: self.weights,
                ..Program::default()
            },
        };
        let sections =
            (0..plan.steps.len()).flat_map(|s| [(plan.pre(s), true), (plan.post(s), false)]);
        for (r, kernel) in sections.chain([(plan.final_range, false)]) {
            for &op in plan.ops_in(r) {
                self.book_op(op, &mut utp, &mut p);
            }
            let then = kernel.then_some(Then::Kernel(p.live));
            p.push(then.unwrap_or(Then::End));
        }
        p.prog.host_high_water = p.host.high_water();
        self.prog = p.prog;
    }

    /// Book op `at`: fold its charge, keep it if it does more, fold its
    /// refund (into the next entry: nothing between reads the clock).
    fn book_op(&mut self, op: PlanOp, utp: &mut Utp, p: &mut Pass) {
        let on_device = |utp: &Utp, t| utp.state(t).residence() == Residence::Device;
        let u32_of = |i: usize| u32::try_from(i).expect("a plan's indices are u32");
        let (charge, then, refunds) = match op {
            PlanOp::Alloc(t) | PlanOp::Fetch(t) => {
                let granules = self.dev.granules(self.tensors[t.0].bytes);
                p.live += !on_device(utp, t) as u32;
                utp.mark_device(t, sn_sim::AllocId(granules), false);
                let fetch = matches!(op, PlanOp::Fetch(_)).then(|| Then::Fetch(u32_of(t.0)));
                (granules, fetch, [0; 2])
            }
            PlanOp::AllocWorkspace(bytes) | PlanOp::AllocTransient(bytes) => {
                let i = matches!(op, PlanOp::AllocTransient(_)) as usize;
                p.transients[i] = self.dev.granules(bytes);
                (p.transients[i], None, [0; 2])
            }
            PlanOp::FreeTransients => (0, None, std::mem::take(&mut p.transients)),
            PlanOp::Offload { t, evict } => {
                let slot = &mut self.tensors[t.0];
                let tier = utp.ensure_host_slot(t, slot.bytes, p);
                let tier = tier.expect("the planner offloads only into host tiers with room");
                slot.copy = tier.copy_time(slot.bytes, &self.policy, &self.spec);
                utp.mark_offloading(t, evict);
                (0, Some(Then::Offload(u32_of(t.0), evict)), [0; 2])
            }
            PlanOp::ReleaseDevice(t) | PlanOp::Free(t) => {
                p.live -= on_device(utp, t) as u32;
                p.returned = 0;
                let then = match op {
                    PlanOp::ReleaseDevice(_) => {
                        Some(Then::Release(u32_of(t.0), utp.release_device(t, p)))
                    }
                    // A free of a tensor with no host slot (not offloaded, so
                    // not fetched, since it was last freed) has no copy to
                    // cancel: only a backend hears.
                    _ => {
                        let copies = utp.state(t).host_slot.is_some();
                        utp.free_tensor(t, self.tensors[t.0].bytes, p);
                        (copies || self.backend.is_some()).then(|| Then::Free(u32_of(t.0)))
                    }
                };
                (0, then, [p.returned, 0])
            }
            PlanOp::Recompute(l) => (0, Some(Then::Recompute(u32_of(l.0))), [0; 2]),
        };
        if charge > 0 {
            let f = self.dev.charge(p.used, charge);
            p.prog.alloc_calls += 1;
            p.fold(&self.dev, f.expect("verify proved it fits"));
        }
        if let Some(then) = then {
            p.push(then);
        }
        for g in refunds {
            p.fold(&self.dev, self.dev.refund(g));
        }
    }

    /// Attach a numeric backend (values really computed).
    pub fn with_backend(mut self, backend: Box<dyn ComputeBackend>) -> Self {
        self.backend = Some(backend);
        // The backend hears of every free: compile them all back in.
        self.book();
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

    pub fn backend(&self) -> Option<&dyn ComputeBackend> {
        self.backend.as_deref()
    }

    /// The Fig. 12 rows, one per CONV step in step order: the workspace
    /// the plan assigned against the max-speed want. A pure view of
    /// [`MemoryPlan::workspace`] and the route, so the rows exist as soon as
    /// the executor is built — before the first iteration — and never change.
    pub fn ws_records(&self) -> impl Iterator<Item = WorkspaceRecord> + '_ {
        (0..self.mplan.steps.len()).filter_map(|s| {
            let ws = self.mplan.workspace(self.net, &self.route, s)?;
            let step = self.route.step(s);
            Some(WorkspaceRecord {
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
        let TensorSlot { bytes, copy, .. } = self.tensors[t.0];
        let done = self
            .dev
            .tl
            .submit_timed_transfer(stream, bytes, copy, gates)
            .event;
        if self.policy.sync_transfers {
            self.dev.tl.wait(done);
        }
        done.done_at
    }

    /// What a plan that breaks `v` would have met mid-iteration: a grant
    /// past the card, or one no free run holds, is an OOM of the op's bytes
    /// at its step's layer (or the end of the iteration, for a final op); a
    /// copy-out past the host tiers is host exhaustion.
    fn refusal(&self, v: PlanViolation) -> ExecError {
        let requested = match self.mplan.ops.get(v.op) {
            Some(PlanOp::Alloc(t) | PlanOp::Fetch(t) | PlanOp::Offload { t, .. }) => {
                self.tensors[t.0].bytes
            }
            Some(PlanOp::AllocWorkspace(b) | PlanOp::AllocTransient(b)) => *b,
            _ => 0,
        };
        match v.rule {
            Rule::DeviceOverCapacity | Rule::Fragmented => ExecError::Oom {
                step: v.step,
                layer: match self.mplan.steps.get(v.step) {
                    Some(_) => self.layers[self.route.step(v.step).layer.0].name.clone(),
                    None => "end of iteration".into(),
                },
                requested,
                capacity: self.dev.capacity,
            },
            Rule::HostOverCapacity => ExecError::HostExhausted { requested },
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

    /// Run the program from the cursor to the end of its section, each
    /// entry's fold first. `compute_done` is the step's kernel event (the
    /// gate for eager offloads), present only for post-kernel ops.
    fn run_section(&mut self, step: usize, compute_done: Option<Event>) {
        loop {
            let b = self.prog.books[self.cursor];
            self.cursor += 1;
            self.dev.apply(b.fold());
            match b.then {
                Then::Kernel(_) | Then::End => return,
                Then::Carry => {}
                then => self.apply(then, step, compute_done),
            }
        }
    }

    /// Execute one entry that moves the clock or tells the backend.
    fn apply(&mut self, then: Then, step: usize, compute_done: Option<Event>) {
        match then {
            Then::Fetch(t) => {
                let t = TensorId(t as usize);
                if self.dev.tl.tracing() {
                    self.dev.tl.trace_label(self.dma_label("prefetch", t));
                }
                self.tensors[t.0].prefetch_done = self.submit_dma(StreamId::H2D, t, &[]);
            }
            Then::Offload(t, evict) => {
                let t = TensorId(t as usize);
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
                let slot = &mut self.tensors[t.0];
                slot.offload_done = done;
                if evict {
                    // Nothing reads the victim's device copy again: whoever
                    // needs it next gates on its own fetch.
                    slot.prefetch_done = SimTime::ZERO;
                }
            }
            Then::Release(t, drops) => {
                let t = TensorId(t as usize);
                // The device bytes may only be reused once the copy-out has
                // landed — the "allocations never overtake releases" wait
                // that pins the trajectory to the plan's.
                let slot = &mut self.tensors[t.0];
                self.dev
                    .tl
                    .wait(copy_done(StreamId::D2H, slot.offload_done));
                slot.clear_transfers();
                if drops {
                    self.notify_drop(t);
                }
            }
            Then::Free(t) => {
                let t = TensorId(t as usize);
                // An in-flight copy-out is cancelled, not awaited.
                self.tensors[t.0].clear_transfers();
                self.notify_drop(t);
            }
            Then::Recompute(l) => {
                let l = LayerId(l as usize);
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
            Then::Kernel(_) | Then::End | Then::Carry => {
                unreachable!("the section runs {then:?}")
            }
        }
    }

    // ------------------------------------------------------------------
    // The iteration loop
    // ------------------------------------------------------------------

    /// Replay the plan for one iteration; returns the measured report. An
    /// executor that was built does not fail: its build verified the plan.
    pub fn run_iteration(&mut self) -> Result<IterationReport, ExecError> {
        self.begin_iteration();
        let total = self.route.total_steps();
        for s in 0..total {
            self.run_step(s);
        }
        Ok(self.finish_iteration())
    }

    /// The high water of each host tier `(peer, local, remote)` over an
    /// iteration: where the build's pass placed the plan's host slots.
    pub fn host_high_water(&self) -> (u64, u64, u64) {
        self.prog.host_high_water
    }

    /// Open a new iteration: reset statistics and snapshot the clock
    /// [`Executor::finish_iteration`] will difference. The group
    /// interpreter uses this begin/step/finish decomposition to launch
    /// collectives between steps; [`Executor::run_iteration`] is the
    /// single-device composition of the three.
    pub(crate) fn begin_iteration(&mut self) {
        self.iter += 1;
        self.reset_iteration_state();
        self.cursor = 0;
        self.iter_t_start = self.dev.tl.now();
        self.dev.tl.reset_stats();
        self.prefetch_stall = SimTime::ZERO;
        self.samples.clear();
        if let Some(b) = self.backend.as_mut() {
            b.begin_iteration(self.iter);
        }
    }

    /// Close the iteration opened by [`Executor::begin_iteration`]: drain
    /// every stream, apply the end-of-iteration ops, and cut the report.
    pub(crate) fn finish_iteration(&mut self) -> IterationReport {
        let total = self.route.total_steps();
        // Drain DMA engines so trailing offloads are charged to this
        // iteration, then release anything whose consumers have all run.
        self.dev.tl.sync_all();
        self.run_section(total, None);

        let stats = self.dev.tl.stats();
        let overlap = self.dev.tl.overlap();
        let report = IterationReport {
            iter_time: self.dev.tl.now() - self.iter_t_start,
            peak_bytes: self.prog.peak,
            h2d_bytes: stats.h2d_bytes,
            d2h_bytes: stats.d2h_bytes,
            link_bytes: stats.link_bytes,
            link_busy: stats.link_busy,
            counters: self.mplan.predicted,
            alloc_time: self.prog.alloc_time,
            alloc_calls: self.prog.alloc_calls,
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
        if let Some(m) = &self.metrics {
            m.flush(&report, self.prefetch_stall);
        }
        report
    }

    fn reset_iteration_state(&mut self) {
        // Every iteration runs to its end, which returns every byte but the
        // weights' and leaves no copy in flight (only a tensor on the device
        // has one): a stale completion would gate a kernel of the next
        // iteration and draw a flow arrow from a copy it never waited for.
        // Host slots are not the interpreter's. The build's pass placed them,
        // and one a plan never frees (an offloaded tensor whose last op is a
        // release, `finding_an_evicted_tensor_keeps_its_host_slot_past_the_iteration`)
        // stays reserved in the pass's tiers, where it counts in their high
        // water.
        debug_assert!(self
            .tensors
            .iter()
            .all(|s| s.prefetch_done == SimTime::ZERO && s.offload_done == SimTime::ZERO));
        debug_assert_eq!(self.dev.used, self.weights);
    }

    pub(crate) fn run_step(&mut self, s: usize) {
        let (step, duration) = (self.route.step(s), self.mplan.steps[s].duration);
        let phase = sim_phase(step.phase);

        // 1. Residency ops ahead of the kernel (staging, evictions,
        //    recompute replays; workspace and transient charges folded).
        self.run_section(s, None);

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
            .submit_on(StreamId::COMPUTE, duration, &self.gates);

        // Sample at the step's high-water moment.
        self.samples.push(StepSample {
            resident_bytes: self.dev.used,
            completed_at: compute_done.done_at,
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
        self.run_section(s, Some(compute_done));
    }

    /// The Fig. 10 rows of the most recent iteration, one per executed step:
    /// what the interpreter sampled at each kernel submit, joined with the
    /// plan's step (number, layer, phase), the program's live-tensor count and
    /// the device's capacity (free bytes). A view, like
    /// [`Executor::ws_records`] — the warm path stores two numbers a step
    /// and builds no record.
    pub fn step_records(&self) -> impl Iterator<Item = StepRecord> + '_ {
        let capacity = self.dev.capacity;
        let live = self.prog.books.iter().filter_map(|b| match b.then {
            Then::Kernel(live) => Some(live as usize),
            _ => None,
        });
        self.samples
            .iter()
            .zip(live)
            .enumerate()
            .map(move |(s, (sample, live))| StepRecord {
                step: s + 1,
                layer: self.layers[self.route.step(s).layer.0].name.clone(),
                phase: sim_phase(self.route.step(s).phase),
                resident_bytes: sample.resident_bytes,
                live_tensors: live,
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
    use sn_graph::{NetCost, Shape4};
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

    /// Extra forwards a pure speed-centric run predicts: every recompute
    /// segment's members, each replayed once.
    fn segment_members(net: &Net, pol: Policy) -> usize {
        let c = plan::compile(net, &spec(), pol).unwrap();
        c.rplan.members.len()
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
        assert!(r.peak_bytes >= expect + NetCost::of(&net).total_weight_bytes());
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

    #[test]
    fn a_fold_wider_than_an_entry_is_carried() {
        // Five seconds a `cudaMalloc`: every charge passes the 2^32 ns an
        // entry holds. The iteration is the fast card's, each call 5 s late.
        let slow = DeviceSpec {
            malloc_base: SimTime::from_ms(5_000),
            ..spec()
        };
        let net = alex_stub(16);
        let policy = Policy::superneurons_cuda_alloc();
        let mut ex = Executor::new(&net, slow.clone(), policy).unwrap();
        let mut fast = Executor::new(&net, spec(), policy).unwrap();
        assert!(ex.prog.books.iter().any(|b| b.then == Then::Carry));
        for _ in ["cold", "warm"] {
            let (r, f) = (ex.run_iteration().unwrap(), fast.run_iteration().unwrap());
            let late = SimTime(f.alloc_calls * (slow.malloc_base - spec().malloc_base).0);
            assert_eq!(r.alloc_time, f.alloc_time + late);
            assert_eq!((r.alloc_calls, r.peak_bytes), (f.alloc_calls, f.peak_bytes));
            assert!(r.iter_time >= f.iter_time + late);
            assert_eq!(ex.dev.used, fast.dev.used);
        }
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
        let w = NetCost::of(&net).total_weight_bytes();
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
        assert_eq!(segment_members(&net, pol), 9);
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
        // Liveness-only cannot fit in the same budget: its build says so.
        let refused = Executor::new(&net, tight, Policy::liveness_only());
        assert!(matches!(refused, Err(ExecError::Oom { .. })));
    }

    #[test]
    fn oom_when_truly_too_small() {
        let net = alex_stub(32);
        let tiny = spec().with_dram(8 * MB);
        match Executor::new(&net, tiny, Policy::superneurons()) {
            Err(e) => assert!(matches!(e, ExecError::Oom { .. }), "{e}"),
            Ok(_) => panic!("an 8 MB card was built for a 32-image AlexNet"),
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
                Err(ExecError::Oom {
                    step,
                    layer,
                    requested,
                    capacity,
                }) => {
                    assert_eq!(
                        (requested, capacity),
                        (spec().dram_bytes + 1, spec().dram_bytes)
                    );
                    (step, layer.to_string())
                }
                Err(e) => panic!("{e}"),
                Ok(_) => panic!("a plan past the card was built"),
            }
        };
        let p = &*compiled.plan;
        let (s, i) = (0..p.steps.len())
            .find_map(|s| {
                let r = p.pre(s);
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
        let layer = net.layer(compiled.route.step(s).layer).name.clone();
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
            NetCost::of(&net).total_weight_bytes().div_ceil(1024) * 1024
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
                    segment_members(&net, pol)
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

    #[test]
    fn finding_an_evicted_tensor_keeps_its_host_slot_past_the_iteration() {
        // Under MRU on a 2 GB card, AlexNet/448's tensor 6 is made and freed
        // in the forward pass, made again in the backward one, evicted,
        // fetched back and released, and the plan never frees it again: its
        // host slot stays reserved past the end of the iteration. A `Free`
        // at its last use would return it, and move plan digests.
        let net = sn_models::alexnet(448);
        let policy = Policy {
            cache_policy: CachePolicy::Mru,
            ..Policy::superneurons()
        };
        let ex = Executor::new(&net, spec().with_dram(2 << 30), policy).unwrap();
        let t = TensorId(6);
        assert_eq!(ex.plan.tensors[t.0].bytes, 334_430_208);
        let ops: Vec<(usize, PlanOp)> = (ex.mplan.ops.iter().copied().enumerate())
            .filter(|(_, op)| match *op {
                PlanOp::Alloc(u) | PlanOp::Fetch(u) | PlanOp::ReleaseDevice(u) => u == t,
                PlanOp::Offload { t: u, .. } | PlanOp::Free(u) => u == t,
                _ => false,
            })
            .collect();
        let evict = PlanOp::Offload { t, evict: true };
        assert_eq!(
            ops,
            [
                (11, PlanOp::Alloc(t)),
                (15, PlanOp::Free(t)),
                (119, PlanOp::Alloc(t)),
                (132, evict),
                (133, PlanOp::ReleaseDevice(t)),
                (137, PlanOp::Fetch(t)),
                (140, PlanOp::ReleaseDevice(t)),
            ]
        );
    }
}
