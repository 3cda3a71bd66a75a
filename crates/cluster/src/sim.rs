//! The discrete-event cluster scheduler.
//!
//! Virtual time advances from event to event: job arrivals, gang
//! completions, and the admission/placement pass that follows each of them.
//! Devices are shared by time-multiplexing: a device running `k` tenants
//! gives each `1/k` of its throughput (processor sharing), and a gang runs
//! in lockstep at the pace of its slowest replica. Memory, by contrast, is
//! *partitioned*: every replica holds a hard reservation equal to its
//! predicted peak from admission until the job completes, so co-tenants can
//! never push each other out of DRAM — the failure mode the paper's
//! single-job runtime eliminates on one device, lifted to fleet scope.
//!
//! Everything is deterministic: event ties are broken by job index, queue
//! order is FIFO (with backfill past a blocked head), and the RNG-free state
//! machine is a pure function of the input job stream — identical streams
//! produce byte-identical schedule traces.
//!
//! ## The indexed event core
//!
//! The loop is *indexed*, not scanned — the structure classic
//! discrete-event simulators use to stay O(log n)-ish per event instead of
//! O(n):
//!
//! * **Event queue** — an *addressable* binary heap (`crate::event_heap`)
//!   ordered by `(time, job index)`: the next arrival, the next fault batch,
//!   parked jobs' retries, and **exactly one** projected completion per
//!   running gang, found through a position index by slab slot. A
//!   tenant-count change re-keys the gang's entry where it sits and sifts
//!   it; an interrupt removes it. Nothing stale is ever queued, so whatever
//!   pops is the gang's live projection (a `debug_assert!` holds it to that
//!   bit for bit) — in particular a restarted job can never complete on the
//!   schedule of the run a fault cut short.
//! * **Slab job state** — live jobs (pending, running, parked) occupy
//!   generation-stamped slots (`crate::slab`); storage is bounded by peak
//!   concurrency, not stream length.
//! * **Lazy progress** — each running gang carries
//!   `(anchor_ns, remaining_ns, slowdown)`: its completion is always
//!   `anchor + remaining · slowdown`, and `remaining` is folded forward
//!   **only when its slowdown changes**. Per-device tenant lists identify
//!   exactly the gangs a completion/admission can affect, so an event
//!   touches its neighborhood, not every running job.
//! * **Admission-pass memo** — the FIFO pass re-evaluates queued jobs only
//!   when reservations changed since they were last evaluated (admission is
//!   a pure function of the reservation vector, so the replay is provably
//!   identical), and `(reservation vector, job shape) → grant` decisions
//!   are memoized across events, the vector hashed once per reservation
//!   state.
//! * **Admission sweep** — a ladder rung is O(devices) integer arithmetic
//!   (free bytes → quantized budget → bucket) plus O(distinct budgets)
//!   profiler lookups: devices of one card at one budget share one answer
//!   (`crate::admission::Sweep`), and placement selects the `replicas`
//!   best candidates instead of sorting the fleet.
//!
//! ### What an event costs
//!
//! One `serve_mixed` pass (the repo benchmark: 64 devices, ρ ≈ 0.83, gangs,
//! inference, faults; ~22.5 k events), by where a `SIGPROF` sample of
//! `run_stream` lands (250 Hz of CPU time, ~4 k and ~2.7 k samples under
//! `run_core`, seed 501, 2-vCPU host), before and after the queue, sweep
//! and memo changes; ns/event is the share of the measured 2.9 → 1.2 µs:
//!
//! | where                                       | before       | after        |
//! |---------------------------------------------|-------------:|-------------:|
//! | admission sweep (profiler, placement)       | 47 % · 1370 ns | 39 % · 460 ns |
//! | admission memo (hash, key and grant clones) | 11 % · 310 ns  | 17 % · 210 ns |
//! | event queue                                 | 25 % · 740 ns  | 11 % · 140 ns |
//! | device accounting + re-anchor sweep         | 6 % · 180 ns   | 17 % · 200 ns |
//! | the rest (recorder, slab, fault arms)       | 10 % · 300 ns  | 16 % · 190 ns |
//!
//! What is left of the sweep is its O(devices) arithmetic — two integer
//! divisions per device per rung in `quantized_budget` — not lookups.
//!
//! The loop this replaced is retained verbatim in [`crate::sim_reference`];
//! a differential suite pins both to byte-identical [`ClusterReport`]s —
//! same trace, same outcomes, same f64 integrals to the last bit.
//! [`ClusterSim::run_stream`] runs the same core against a pull-based
//! [`ArrivalStream`] with aggregate-only recording: millions of arrivals in
//! constant memory.

use std::sync::Arc;

use fxhash::FxHashMap;
use sn_runtime::ring_allreduce_time;
use sn_sim::SimTime;
use sn_telemetry::{Counter, Histogram, MetricsRegistry, TraceSink, TrackId};

use crate::admission::{
    feasible_on_device_subset, feasible_on_idle_fleet, ladder_for, quantized_budget, Grant,
    Placement, Profiler, Sweep,
};
use crate::event_heap::{EventHeap, EventKind};
use crate::fault::{FaultEvent, FaultPlan, RecoveryMode, RecoveryPolicy};
use crate::fleet::Fleet;
use crate::job::{JobKind, JobSpec, PolicyPreset, Workload};
use crate::latency::LatencySketch;
use crate::placement::{Candidate, PlacementPolicy};
use crate::report::{
    ClusterReport, JobOutcome, RejectReason, ServiceReport, TraceEvent, TraceKind,
};
use crate::slab::{Slab, SlotKey};
use crate::stream::{ArrivalStream, ReplayStream};

/// Per-device mutable state during a simulation run.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeviceState {
    pub(crate) reserved: u64,
    pub(crate) tenants: usize,
    /// Wall time (ns) with at least one tenant.
    pub(crate) busy_ns: f64,
    /// ∫ reserved(t) dt, in byte·ns — memory utilization numerator.
    pub(crate) reserved_integral: f64,
    pub(crate) peak_reserved: u64,
    pub(crate) peak_tenants: usize,
    /// Fault state: a failed device admits nothing (its tenants were
    /// interrupted when it failed) and `spike` bytes are withheld from
    /// admission by an injected pressure fault. Both stay at their defaults
    /// on fault-free runs, where [`DeviceState::free_bytes`] degenerates to
    /// exactly `dram − reserved`.
    pub(crate) failed: bool,
    pub(crate) spike: u64,
}

impl DeviceState {
    /// Bytes admission may still reserve on this device.
    pub(crate) fn free_bytes(&self, spec: &sn_sim::DeviceSpec) -> u64 {
        if self.failed {
            0
        } else {
            spec.dram_bytes
                .saturating_sub(self.reserved.saturating_add(self.spike))
        }
    }
}

/// Gang slowdown under processor sharing: the most-loaded of its devices
/// sets the pace (each of `k` tenants gets `1/k` of a device). Shared by
/// the indexed loop and the retained reference loop — it must be the same
/// float computation in both or they stop being bit-comparable.
pub(crate) fn gang_slowdown(devices: &[DeviceState], grant: &Grant) -> f64 {
    grant
        .placements
        .iter()
        .map(|p| devices[p.device].tenants)
        .max()
        .unwrap_or(1)
        .max(1) as f64
}

/// Fold an injected link degradation into a gang's slowdown: gangs stretch
/// by `1000/permille` (their step time embeds all-reduce traffic), solo
/// tenants exchange no gradients and are untouched. At the nominal 1000‰
/// this performs **no float op at all** — the fault-free path must stay
/// bit-identical to the reference loop.
fn apply_link(slowdown: f64, replicas: usize, permille: u32) -> f64 {
    if permille != 1000 && replicas > 1 {
        slowdown * (1000.0 / permille.max(1) as f64)
    } else {
        slowdown
    }
}

/// Pre-resolved admission metric handles (see [`ClusterSim::enable_metrics`]).
pub(crate) struct ClusterMetrics {
    pub(crate) submitted: Counter,
    pub(crate) admitted: Counter,
    rejected: Counter,
    pub(crate) completed: Counter,
    reject_empty_gang: Counter,
    reject_fleet_too_small: Counter,
    reject_peak_exceeds: Counter,
    pub(crate) latency_ns: Histogram,
    pub(crate) queueing_ns: Histogram,
    // Fault/recovery instrumentation (all zero on fault-free runs).
    device_failures: Counter,
    device_recoveries: Counter,
    mttr_ns: Histogram,
    jobs_interrupted: Counter,
    jobs_restarted: Counter,
    jobs_failed: Counter,
    jobs_downgraded: Counter,
    retries_scheduled: Counter,
    backoff_ns: Histogram,
    wasted_iterations: Counter,
}

impl ClusterMetrics {
    fn new(reg: &MetricsRegistry) -> ClusterMetrics {
        ClusterMetrics {
            submitted: reg.counter("cluster.jobs.submitted"),
            admitted: reg.counter("cluster.jobs.admitted"),
            rejected: reg.counter("cluster.jobs.rejected"),
            completed: reg.counter("cluster.jobs.completed"),
            reject_empty_gang: reg.counter("cluster.rejects.empty_gang"),
            reject_fleet_too_small: reg.counter("cluster.rejects.fleet_too_small"),
            reject_peak_exceeds: reg.counter("cluster.rejects.peak_exceeds_capacity"),
            latency_ns: reg.histogram("cluster.latency_ns"),
            queueing_ns: reg.histogram("cluster.queueing_ns"),
            device_failures: reg.counter("cluster.faults.device_failures"),
            device_recoveries: reg.counter("cluster.faults.device_recoveries"),
            mttr_ns: reg.histogram("cluster.faults.mttr_ns"),
            jobs_interrupted: reg.counter("cluster.jobs.interrupted"),
            jobs_restarted: reg.counter("cluster.jobs.restarted"),
            jobs_failed: reg.counter("cluster.jobs.failed"),
            jobs_downgraded: reg.counter("cluster.jobs.downgraded"),
            retries_scheduled: reg.counter("cluster.retries.scheduled"),
            backoff_ns: reg.histogram("cluster.retries.backoff_ns"),
            wasted_iterations: reg.counter("cluster.iterations.wasted"),
        }
    }

    pub(crate) fn count_reject(&self, reason: &RejectReason) {
        self.rejected.inc();
        match reason {
            RejectReason::EmptyGang => self.reject_empty_gang.inc(),
            RejectReason::FleetTooSmall { .. } => self.reject_fleet_too_small.inc(),
            RejectReason::PeakExceedsCapacity { .. } => self.reject_peak_exceeds.inc(),
        }
    }
}

/// One live (pending, running, or parked-in-backoff) job in the slab.
struct LiveJob {
    spec: Arc<JobSpec>,
    /// Arrival sequence number: ties on the event heap break toward the
    /// earliest arrival, matching the reference loop's job-index order.
    seq: u64,
    arrival: SimTime,
    run: Option<RunState>,
    /// Integer instant the job last (re-)entered the queue: arrival, a
    /// fault's interrupt instant, or a retry's due time. Backoff chains are
    /// pure u64 arithmetic from this anchor — never through the f64 clock.
    anchor_int: u64,
    /// Iterations banked at the last checkpoint fold (0 fault-free).
    iters_done: u32,
    /// Backoff attempts since the last successful (re-)admission.
    attempts: u32,
    wasted_iters: u64,
    /// Queued again after an interruption (its next grant is a restart).
    pending_restart: bool,
    /// Frozen original grant for byte-exact restarts; `Some` for every job
    /// granted while a fault plan is installed, `None` otherwise.
    resume: Option<ResumePlan>,
}

/// Execution state of a running gang (see the module docs on lazy
/// progress).
struct RunState {
    grant: Grant,
    /// Remaining work in ns of *solo* execution time, valid as of
    /// `anchor_ns`.
    remaining_ns: f64,
    anchor_ns: f64,
    slowdown: f64,
    /// One iteration's solo duration (checkpoint folds divide by this).
    step_ns: f64,
    /// Iterations this run covers (`spec.iterations − iters_done` at grant
    /// time).
    iters_this_run: u32,
}

/// A grant frozen for byte-exact restarts: the preset plus the per-replica
/// `(budget, predicted peak)` pairs sorted descending. Restart re-admission
/// compiles each replica at **exactly** its original budget, so the
/// profiler's plan memo returns the identical prediction — restarted peaks
/// are byte-identical to the original plan on any device of the same spec.
#[derive(Clone)]
struct ResumePlan {
    preset: PolicyPreset,
    budgets: Vec<u64>,
    peaks: Vec<u64>,
}

fn resume_plan_of(grant: &Grant) -> ResumePlan {
    let mut pairs: Vec<(u64, u64)> = grant
        .placements
        .iter()
        .map(|p| (p.budget, p.prediction.peak_bytes))
        .collect();
    pairs.sort_unstable_by(|a, b| b.cmp(a));
    ResumePlan {
        preset: grant.preset,
        budgets: pairs.iter().map(|(b, _)| *b).collect(),
        peaks: pairs.iter().map(|(_, p)| *p).collect(),
    }
}

/// Whole iterations completed by this run as of `now_ns`, under the lazy
/// anchor/remaining representation. Pure read — the caller decides what the
/// checkpoint policy keeps.
fn fold_done_iterations(run: &RunState, now_ns: f64) -> u32 {
    if run.iters_this_run == 0 || run.step_ns <= 0.0 {
        return run.iters_this_run; // degenerate zero-work run: all done
    }
    let work_total = run.step_ns * run.iters_this_run as f64;
    let elapsed = ((now_ns - run.anchor_ns) / run.slowdown).max(0.0);
    let executed = (work_total - run.remaining_ns + elapsed).clamp(0.0, work_total);
    ((executed / run.step_ns) as u32).min(run.iters_this_run)
}

/// What the event core tells the outside world as it goes. [`FullRecorder`]
/// reproduces `run`'s historical behavior exactly (per-job outcomes, the
/// schedule trace, telemetry spans, metrics); [`StreamRecorder`] keeps
/// aggregates only, so recording cost — like everything else in the
/// streaming loop — is independent of stream length.
trait Recorder {
    fn on_arrive(&mut self, sim: &ClusterSim, job: &LiveJob, t_ns: u64);
    fn on_admit(&mut self, sim: &ClusterSim, job: &LiveJob, grant: &Grant, t_ns: u64);
    fn on_reject(&mut self, sim: &ClusterSim, job: &LiveJob, reason: &RejectReason, t_ns: u64);
    fn on_complete(&mut self, sim: &ClusterSim, job: &LiveJob, t_ns: u64);
    // Fault/recovery hooks, only reached when a fault plan is installed.
    // Default no-ops keep the streaming recorder O(1): aggregates for these
    // flow through [`CoreOutcome`] and the metrics registry instead.
    fn on_fault(&mut self, _sim: &ClusterSim, _event: &FaultEvent, _t_ns: u64) {}
    fn on_interrupt(&mut self, _sim: &ClusterSim, _job: &LiveJob, _device: usize, _t_ns: u64) {}
    fn on_restart(
        &mut self,
        _sim: &ClusterSim,
        _job: &LiveJob,
        _grant: &Grant,
        _exact: bool,
        _t_ns: u64,
    ) {
    }
    fn on_downgrade(
        &mut self,
        _sim: &ClusterSim,
        _job: &LiveJob,
        _from: PolicyPreset,
        _grant: &Grant,
        _t_ns: u64,
    ) {
    }
    fn on_fail(&mut self, _sim: &ClusterSim, _job: &LiveJob, _why: &str, _t_ns: u64) {}
}

/// Full per-job recording: byte-identical to what the pre-indexed loop
/// produced (the differential suite holds it to that), including telemetry
/// track/span emission order. Tracks are pre-created in arrival order by
/// [`ClusterSim::run`] so the Perfetto artifact keeps its historical layout.
struct FullRecorder {
    outcomes: Vec<JobOutcome>,
    trace: Vec<TraceEvent>,
    tracks: Vec<TrackId>,
    tracing: bool,
    /// Lazily-created fleet-level track for fault instants (faults belong
    /// to no tenant).
    fleet_track: Option<TrackId>,
}

impl Recorder for FullRecorder {
    fn on_arrive(&mut self, sim: &ClusterSim, job: &LiveJob, t_ns: u64) {
        debug_assert_eq!(self.outcomes.len() as u64, job.seq);
        self.outcomes
            .push(JobOutcome::pending(&job.spec, job.arrival));
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Arrive,
        });
        if self.tracing {
            sim.sink.instant(
                self.tracks[job.seq as usize],
                "arrive",
                "cluster",
                t_ns,
                Vec::new(),
            );
        }
        if let Some(m) = &sim.metrics {
            m.submitted.inc();
        }
    }

    fn on_admit(&mut self, sim: &ClusterSim, job: &LiveJob, grant: &Grant, t_ns: u64) {
        let idx = job.seq as usize;
        let out = &mut self.outcomes[idx];
        out.started = Some(SimTime(t_ns));
        out.granted = Some(grant.preset);
        out.devices = grant.placements.iter().map(|p| p.device).collect();
        out.reservations = grant
            .placements
            .iter()
            .map(|p| p.prediction.peak_bytes)
            .collect();
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Admit {
                preset: grant.preset,
                devices: out.devices.clone(),
                reservations: out.reservations.clone(),
            },
        });
        if self.tracing {
            let arrival = self.outcomes[idx].arrival.0;
            let t = t_ns.max(arrival);
            sim.sink.span_with(
                self.tracks[idx],
                "queued".to_string(),
                "cluster",
                arrival,
                t,
                vec![("preset", grant.preset.name().into())],
            );
        }
        if let Some(m) = &sim.metrics {
            m.admitted.inc();
            if let Some(q) = self.outcomes[idx].queueing() {
                m.queueing_ns.record(q.0);
            }
        }
    }

    fn on_reject(&mut self, sim: &ClusterSim, job: &LiveJob, reason: &RejectReason, t_ns: u64) {
        let idx = job.seq as usize;
        self.outcomes[idx].rejected = Some(reason.clone());
        if self.tracing {
            sim.sink.instant(
                self.tracks[idx],
                "reject",
                "cluster",
                t_ns,
                vec![("reason", reason.kind().into())],
            );
        }
        if let Some(m) = &sim.metrics {
            m.count_reject(reason);
        }
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Reject {
                reason: reason.clone(),
            },
        });
    }

    fn on_complete(&mut self, sim: &ClusterSim, job: &LiveJob, t_ns: u64) {
        let idx = job.seq as usize;
        self.outcomes[idx].completion = Some(SimTime(t_ns));
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Complete,
        });
        if self.tracing {
            let started = self.outcomes[idx].started.map(|s| s.0).unwrap_or(0);
            let end = t_ns.max(started);
            let preset = self.outcomes[idx].granted.map(|p| p.name()).unwrap_or("?");
            sim.sink.span_with(
                self.tracks[idx],
                "running".to_string(),
                "cluster",
                started,
                end,
                vec![
                    ("preset", preset.into()),
                    ("replicas", job.spec.replicas.into()),
                ],
            );
        }
        if let Some(m) = &sim.metrics {
            m.completed.inc();
            if let Some(l) = self.outcomes[idx].latency() {
                m.latency_ns.record(l.0);
            }
        }
    }

    fn on_fault(&mut self, sim: &ClusterSim, event: &FaultEvent, t_ns: u64) {
        let desc = event.describe();
        self.trace.push(TraceEvent {
            t_ns,
            job: "fleet".to_string(),
            kind: TraceKind::Fault { desc: desc.clone() },
        });
        if self.tracing {
            let track = *self
                .fleet_track
                .get_or_insert_with(|| sim.sink.track("cluster", "faults"));
            sim.sink
                .instant(track, "fault", "cluster", t_ns, vec![("what", desc.into())]);
        }
    }

    fn on_interrupt(&mut self, sim: &ClusterSim, job: &LiveJob, device: usize, t_ns: u64) {
        let idx = job.seq as usize;
        self.outcomes[idx].wasted_iterations = job.wasted_iters;
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Interrupt { device },
        });
        if self.tracing {
            sim.sink.instant(
                self.tracks[idx],
                "interrupt",
                "cluster",
                t_ns,
                vec![("device", device.into())],
            );
        }
    }

    fn on_restart(
        &mut self,
        sim: &ClusterSim,
        job: &LiveJob,
        grant: &Grant,
        exact: bool,
        t_ns: u64,
    ) {
        let idx = job.seq as usize;
        let out = &mut self.outcomes[idx];
        out.granted = Some(grant.preset);
        out.devices = grant.placements.iter().map(|p| p.device).collect();
        out.reservations = grant
            .placements
            .iter()
            .map(|p| p.prediction.peak_bytes)
            .collect();
        out.restarts += 1;
        out.restart_peak_exact &= exact;
        out.wasted_iterations = job.wasted_iters;
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Restart {
                preset: grant.preset,
                devices: self.outcomes[idx].devices.clone(),
                reservations: self.outcomes[idx].reservations.clone(),
                from_iteration: job.iters_done,
            },
        });
        if self.tracing {
            sim.sink.instant(
                self.tracks[idx],
                "restart",
                "cluster",
                t_ns,
                vec![
                    ("from_iter", job.iters_done.into()),
                    ("exact", exact.into()),
                ],
            );
        }
    }

    fn on_downgrade(
        &mut self,
        sim: &ClusterSim,
        job: &LiveJob,
        from: PolicyPreset,
        grant: &Grant,
        t_ns: u64,
    ) {
        let idx = job.seq as usize;
        let out = &mut self.outcomes[idx];
        out.granted = Some(grant.preset);
        out.reservations = grant
            .placements
            .iter()
            .map(|p| p.prediction.peak_bytes)
            .collect();
        out.wasted_iterations = job.wasted_iters;
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Downgrade {
                from,
                to: grant.preset,
                reservations: self.outcomes[idx].reservations.clone(),
            },
        });
        if self.tracing {
            sim.sink.instant(
                self.tracks[idx],
                "downgrade",
                "cluster",
                t_ns,
                vec![("to", grant.preset.name().into())],
            );
        }
    }

    fn on_fail(&mut self, sim: &ClusterSim, job: &LiveJob, why: &str, t_ns: u64) {
        let idx = job.seq as usize;
        self.outcomes[idx].failed = Some(why.to_string());
        self.outcomes[idx].wasted_iterations = job.wasted_iters;
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Fail {
                why: why.to_string(),
            },
        });
        if self.tracing {
            sim.sink.instant(
                self.tracks[idx],
                "fail",
                "cluster",
                t_ns,
                vec![("why", why.into())],
            );
        }
    }
}

/// Aggregate-only recording for streaming runs: a fixed-size latency sketch
/// and exact queueing sums. No outcomes, no trace, no telemetry spans —
/// O(1) memory regardless of stream length. Metrics counters (if enabled)
/// still tick; they are already aggregates.
#[derive(Default)]
struct StreamRecorder {
    latency: LatencySketch,
    queue_sum: u128,
    queue_count: u64,
}

impl Recorder for StreamRecorder {
    fn on_arrive(&mut self, sim: &ClusterSim, _job: &LiveJob, _t_ns: u64) {
        if let Some(m) = &sim.metrics {
            m.submitted.inc();
        }
    }

    fn on_admit(&mut self, sim: &ClusterSim, job: &LiveJob, _grant: &Grant, t_ns: u64) {
        let q = t_ns.saturating_sub(job.arrival.0);
        self.queue_sum += q as u128;
        self.queue_count += 1;
        if let Some(m) = &sim.metrics {
            m.admitted.inc();
            m.queueing_ns.record(q);
        }
    }

    fn on_reject(&mut self, sim: &ClusterSim, _job: &LiveJob, reason: &RejectReason, _t_ns: u64) {
        if let Some(m) = &sim.metrics {
            m.count_reject(reason);
        }
    }

    fn on_complete(&mut self, sim: &ClusterSim, job: &LiveJob, t_ns: u64) {
        let l = t_ns.saturating_sub(job.arrival.0);
        self.latency.record(l);
        if let Some(m) = &sim.metrics {
            m.completed.inc();
            m.latency_ns.record(l);
        }
    }
}

/// Admission decisions memoized across events. `try_admit` is a pure
/// function of the per-device **raw reservation vector** and the job's
/// shape — raw, not quantized, because best-fit ranks candidates by exact
/// free bytes and bin-pack by exact reserved bytes, so two reservation
/// states sharing quantized budgets can still place differently. Keyed on
/// that vector the memo is exact with no invalidation protocol at all; a
/// size cap bounds memory on long streams (clearing it is semantically
/// invisible — entries are pure).
///
/// The vector is 8 bytes per device, so it is hashed **once per
/// reservation state**, not once per lookup: when `state_version` moves,
/// [`AdmitMemo::enter`] rebuilds the vector, finds the state's entry by
/// that hash, and checks the stored vector against it word for word (a
/// colliding entry is replaced, never trusted). Until the version moves
/// again every lookup is one small hash of the job shape.
#[derive(Default)]
struct AdmitMemo {
    /// Every reservation state seen: `(vector, decisions made in it)`.
    states: Vec<(Vec<u64>, Decisions)>,
    /// Hash of a state's vector → its position in `states`.
    index: FxHashMap<u64, usize>,
    /// The state `version` resolved to.
    current: usize,
    version: Option<u64>,
    /// The current reservation vector (reused buffer).
    key: Vec<u64>,
    /// Feasibility per shape on the idle *live* (non-failed) devices:
    /// [`feasible_on_device_subset`] is a pure function of (profiler,
    /// devices, job shape), and the FIFO pass re-asks it for every
    /// still-queued job at every pass — under load that was the single
    /// hottest path in the whole loop.
    feasible: FxHashMap<ShapeKey, bool>,
    /// Epoch of the fault state `feasible` was computed against: the live
    /// subset changes whenever a device fails or recovers. Fault-free the
    /// epoch never moves and a shape is asked once per run.
    feasible_epoch: u64,
    /// Full-(idle-)fleet feasibility per shape, asked only for shapes the
    /// live subset cannot hold: the discriminator between "wait out the
    /// outage" and "reject outright".
    feasible_full: FxHashMap<ShapeKey, bool>,
}

/// `try_admit`'s answers in one reservation state, by job shape.
type Decisions = FxHashMap<ShapeKey, Option<Grant>>;

impl AdmitMemo {
    /// The decisions made so far in the reservation state `devices` is in;
    /// the state is re-derived only when `state_version` moved.
    fn enter(&mut self, devices: &[DeviceState], state_version: u64) -> &mut Decisions {
        if self.version != Some(state_version) {
            self.version = Some(state_version);
            self.key.clear();
            // Effective occupancy: failed devices are saturated, pressure
            // spikes count as reserved. Fault-free this is exactly the raw
            // reservation vector.
            self.key.extend(devices.iter().map(|d| {
                if d.failed {
                    u64::MAX
                } else {
                    d.reserved.saturating_add(d.spike)
                }
            }));
            let hash = fxhash::hash_with_seed(&self.key, 0x6164_6d69_745f_6d65);
            self.current = match self.index.get(&hash) {
                Some(&at) if self.states[at].0 == self.key => at,
                Some(&at) => {
                    // Another vector with this hash: the slot changes hands.
                    self.states[at].0.clone_from(&self.key);
                    self.states[at].1.clear();
                    at
                }
                None => {
                    if self.states.len() >= ADMIT_MEMO_MAX_STATES {
                        self.states.clear();
                        self.index.clear();
                    }
                    self.states.push((self.key.clone(), Decisions::default()));
                    self.index.insert(hash, self.states.len() - 1);
                    self.states.len() - 1
                }
            };
        }
        &mut self.states[self.current].1
    }
}

/// Everything `try_admit` reads from a [`JobSpec`] (name and iteration
/// count don't influence admission).
type ShapeKey = (Workload, usize, JobKind, PolicyPreset, bool, usize);

fn shape_key(job: &JobSpec) -> ShapeKey {
    (
        job.workload,
        job.batch,
        job.kind,
        job.preset,
        job.allow_downgrade,
        job.replicas,
    )
}

/// State cap: past this many distinct reservation states the memo
/// resets. Generous for steady-state serving (states recur) while bounding
/// pathological churn.
const ADMIT_MEMO_MAX_STATES: usize = 4096;

/// The buffers one admission sweep fills, reused from sweep to sweep.
#[derive(Default)]
pub(crate) struct AdmitScratch<'a> {
    sweep: Sweep<'a>,
    /// This rung's devices with a non-zero budget:
    /// `(device, free, budget, probe)`.
    open: Vec<(usize, u64, u64, usize)>,
    candidates: Vec<Candidate>,
}

/// What the event core hands back besides recorder contents.
struct CoreOutcome {
    devices: Vec<DeviceState>,
    now_ns: f64,
    peak_concurrent: usize,
    /// Slab high-water: the constant-memory evidence for streaming runs.
    peak_live: usize,
    /// Scheduling events processed: arrivals + admissions + rejections +
    /// completions (the schedule-trace length, when one is recorded).
    events: u64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    // Fault/recovery aggregates (all zero on fault-free runs).
    failed: u64,
    interrupted: u64,
    restarts: u64,
    still_queued: u64,
    useful_iters: u64,
    wasted_iters: u64,
}

/// The cluster scheduler: a fleet, a placement policy, and a memoizing
/// admission profiler.
pub struct ClusterSim {
    /// The device pool. Read-only once the simulator is built: `cards` is
    /// derived from it.
    pub fleet: Fleet,
    pub placement: PlacementPolicy,
    /// Each device's [`sn_sim::DeviceSpec::card_fingerprint`]: devices of
    /// one card share admission lookups (see [`Sweep`]).
    cards: Vec<(u64, u64)>,
    pub(crate) profiler: Profiler,
    pub(crate) sink: TraceSink,
    pub(crate) metrics: Option<ClusterMetrics>,
    faults: Option<FaultPlan>,
    recovery: RecoveryPolicy,
}

impl ClusterSim {
    pub fn new(fleet: Fleet, placement: PlacementPolicy) -> ClusterSim {
        assert!(!fleet.is_empty(), "cluster needs at least one device");
        ClusterSim {
            cards: fleet.devices.iter().map(|d| d.card_fingerprint()).collect(),
            fleet,
            placement,
            profiler: Profiler::new(),
            sink: TraceSink::off(),
            metrics: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Install a fault plan and the recovery policy applied to the tenants
    /// it interrupts. Without this call the simulator is fault-free and its
    /// behavior is bit-identical to the pre-fault loop — the differential
    /// suite pins that.
    pub fn enable_faults(&mut self, plan: FaultPlan, recovery: RecoveryPolicy) {
        self.faults = Some(plan);
        self.recovery = recovery;
    }

    /// Emit per-tenant scheduling tracks into `sink`: every job gets one
    /// track under the `"cluster"` process with an arrive instant, a
    /// `queued` span (arrival → admission), a `running` span (admission →
    /// completion), and a reject instant carrying the structured reason.
    /// Honored by [`ClusterSim::run`] and [`ClusterSim::run_reference`];
    /// streaming runs ([`ClusterSim::run_stream`]) never emit per-job
    /// tracks — that would be O(stream) sink state.
    ///
    /// [`ClusterSim::run_reference`]: ClusterSim::run_reference
    pub fn enable_tracing(&mut self, sink: &TraceSink) {
        self.sink = if sink.is_enabled() {
            sink.clone()
        } else {
            TraceSink::off()
        };
    }

    /// Count admission outcomes and record latency/queueing histograms in
    /// `registry` (`cluster.jobs.*`, `cluster.rejects.*`,
    /// `cluster.{latency,queueing}_ns`).
    pub fn enable_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(ClusterMetrics::new(registry));
    }

    /// Distinct gang shapes whose step time was measured by driving the
    /// group engine (diagnostic; zero for solo-only streams).
    pub fn gangs_measured(&self) -> usize {
        self.profiler.gangs_measured()
    }

    /// The admission decision for `job` against the current reservations:
    /// walk the job's preset ladder; under each preset, collect the devices
    /// whose unreserved bytes admit the replica's predicted peak and let the
    /// placement policy pick a gang.
    ///
    /// The prediction budget is the device's free bytes rounded *down* to a
    /// 1/32-of-DRAM quantum: still sound (the predicted peak fits under the
    /// real free space), but the profiler's memo key space collapses from
    /// "every reservation state ever" to at most 32 budgets per device —
    /// and devices of one card at one budget share one answer, so a rung
    /// costs O(devices) arithmetic plus O(distinct budgets) profiler
    /// lookups (see [`Sweep`]). The ladder itself stays serial — a stronger
    /// preset is only consulted when the weaker one cannot place the gang.
    pub(crate) fn try_admit<'a>(
        &'a self,
        devices: &[DeviceState],
        job: &JobSpec,
        scratch: &mut AdmitScratch<'a>,
    ) -> Option<Grant> {
        if job.replicas == 0 {
            return None; // an empty gang is not a schedulable job
        }
        let AdmitScratch {
            sweep,
            open,
            candidates,
        } = scratch;
        for preset in ladder_for(job) {
            sweep.clear();
            open.clear();
            for (idx, spec) in self.fleet.devices.iter().enumerate() {
                let free = devices[idx].free_bytes(spec);
                let budget = quantized_budget(spec, free);
                if budget > 0 {
                    let probe = sweep.probe(self.cards[idx], spec, budget);
                    open.push((idx, free, budget, probe));
                }
            }
            sweep.resolve(&self.profiler, job, preset);
            candidates.clear();
            candidates.extend(open.iter().filter_map(|&(device, free, budget, probe)| {
                let prediction = sweep.prediction(probe)?;
                Some(Candidate {
                    device,
                    free,
                    reserved: devices[device]
                        .reserved
                        .saturating_add(devices[device].spike),
                    budget,
                    prediction,
                })
            }));
            if let Some(placements) = self.placement.choose(candidates, job.replicas) {
                return Some(Grant { preset, placements });
            }
        }
        None
    }

    /// [`ClusterSim::try_admit`] behind the cross-event memo (see
    /// [`AdmitMemo`]).
    fn try_admit_memo<'a>(
        &'a self,
        devices: &[DeviceState],
        job: &JobSpec,
        memo: &mut AdmitMemo,
        state_version: u64,
        scratch: &mut AdmitScratch<'a>,
    ) -> Option<Grant> {
        let shape = shape_key(job);
        if let Some(hit) = memo.enter(devices, state_version).get(&shape) {
            return hit.clone();
        }
        let result = self.try_admit(devices, job, scratch);
        memo.enter(devices, state_version)
            .insert(shape, result.clone());
        result
    }

    /// Constrained re-admission for an interrupted job: keep the original
    /// preset and compile each replica at **exactly** its original budget
    /// (largest first), first-fit onto distinct live devices with at least
    /// that much free. The profiler's plan memo makes each peak
    /// byte-identical to the original grant's; a resume that cannot place
    /// yet stays queued — it never silently replans at a different budget.
    fn try_admit_resume(
        &self,
        devices: &[DeviceState],
        job: &JobSpec,
        resume: &ResumePlan,
    ) -> Option<Grant> {
        debug_assert_eq!(resume.budgets.len(), job.replicas);
        let mut used = vec![false; self.fleet.len()];
        let mut placements = Vec::with_capacity(resume.budgets.len());
        for &budget in &resume.budgets {
            let mut found = None;
            for (idx, spec) in self.fleet.devices.iter().enumerate() {
                if used[idx] || devices[idx].free_bytes(spec) < budget {
                    continue;
                }
                if let Some(prediction) = self.profiler.profile_kind(
                    job.workload,
                    job.batch,
                    resume.preset,
                    job.kind,
                    spec,
                    budget,
                ) {
                    found = Some((idx, prediction));
                    break;
                }
            }
            let (idx, prediction) = found?;
            used[idx] = true;
            placements.push(Placement {
                device: idx,
                budget,
                prediction,
            });
        }
        Some(Grant {
            preset: resume.preset,
            placements,
        })
    }

    /// Plan an elastic rescue for a blocked `job`: repeatedly live-downgrade
    /// the running tenant whose next preset rung frees the most reserved
    /// bytes (ties toward the earliest arrival), on a scratch copy of the
    /// device states, until the blocked job admits or no tenant can move.
    /// Pure planning — the caller commits the returned downgrades and the
    /// final grant, in order.
    #[allow(clippy::type_complexity)]
    fn plan_elastic<'a>(
        &'a self,
        devices: &[DeviceState],
        jobs: &Slab<LiveJob>,
        tenants_on: &[Vec<SlotKey>],
        job: &JobSpec,
        resume: Option<&ResumePlan>,
        scratch: &mut AdmitScratch<'a>,
    ) -> Option<(Vec<(SlotKey, Grant)>, Grant)> {
        struct Tenant {
            key: SlotKey,
            seq: u64,
            spec: Arc<JobSpec>,
            preset: PolicyPreset,
            placements: Vec<Placement>,
        }
        // Snapshot running tenants, earliest arrival first (each gang
        // appears once per device; dedup by sequence).
        let mut seen: Vec<(u64, SlotKey)> = tenants_on
            .iter()
            .flatten()
            .filter_map(|&k| jobs.get(k).map(|j| (j.seq, k)))
            .collect();
        seen.sort_unstable_by_key(|&(seq, _)| seq);
        seen.dedup_by_key(|&mut (seq, _)| seq);
        let mut tenants: Vec<Tenant> = seen
            .into_iter()
            .filter_map(|(seq, key)| {
                let j = jobs.get(key)?;
                let run = j.run.as_ref()?;
                Some(Tenant {
                    key,
                    seq,
                    spec: Arc::clone(&j.spec),
                    preset: run.grant.preset,
                    placements: run.grant.placements.clone(),
                })
            })
            .collect();
        let mut vdev = devices.to_vec();
        let mut downgrades: Vec<(SlotKey, Grant)> = Vec::new();
        const ELASTIC_MAX_ROUNDS: usize = 16;
        for _ in 0..ELASTIC_MAX_ROUNDS {
            let mut best: Option<(u64, u64, usize, Grant)> = None;
            for (ti, t) in tenants.iter().enumerate() {
                if !t.spec.allow_downgrade {
                    continue;
                }
                let Some(next) = t.preset.next_stronger() else {
                    continue;
                };
                // Recompile every replica one rung stronger, at the budget
                // its own freed reservation re-opens.
                let mut new_placements = Vec::with_capacity(t.placements.len());
                let mut freed = 0u64;
                let mut ok = true;
                for p in &t.placements {
                    let spec_d = &self.fleet.devices[p.device];
                    let headroom = vdev[p.device]
                        .free_bytes(spec_d)
                        .saturating_add(p.prediction.peak_bytes);
                    let budget = quantized_budget(spec_d, headroom);
                    let pred = (budget > 0)
                        .then(|| {
                            self.profiler.profile_kind(
                                t.spec.workload,
                                t.spec.batch,
                                next,
                                t.spec.kind,
                                spec_d,
                                budget,
                            )
                        })
                        .flatten();
                    let Some(pred) = pred else {
                        ok = false;
                        break;
                    };
                    if pred.peak_bytes >= p.prediction.peak_bytes {
                        ok = false; // must strictly shrink to be a rescue
                        break;
                    }
                    freed += p.prediction.peak_bytes - pred.peak_bytes;
                    new_placements.push(Placement {
                        device: p.device,
                        budget,
                        prediction: pred,
                    });
                }
                if !ok || freed == 0 {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((bf, bs, ..)) => freed > *bf || (freed == *bf && t.seq < *bs),
                };
                if better {
                    best = Some((
                        freed,
                        t.seq,
                        ti,
                        Grant {
                            preset: next,
                            placements: new_placements,
                        },
                    ));
                }
            }
            let (_, _, ti, new_grant) = best?;
            for (old_p, new_p) in tenants[ti].placements.iter().zip(&new_grant.placements) {
                let d = &mut vdev[old_p.device];
                d.reserved = d.reserved - old_p.prediction.peak_bytes + new_p.prediction.peak_bytes;
            }
            tenants[ti].preset = new_grant.preset;
            tenants[ti].placements = new_grant.placements.clone();
            downgrades.push((tenants[ti].key, new_grant));
            let admit = match resume {
                Some(rp) => self.try_admit_resume(&vdev, job, rp),
                None => self.try_admit(&vdev, job, scratch),
            };
            if let Some(grant) = admit {
                return Some((downgrades, grant));
            }
        }
        None
    }

    /// One gang iteration's solo duration. Gangs (`replicas > 1`) no longer
    /// multiply an analytic all-reduce term: the profiler compiles the
    /// job's [`sn_runtime::GroupPlan`] and *runs* the group interpreter on
    /// the pacing replica's capped device — the measured step already
    /// overlaps bucketed all-reduce with backward compute, and its
    /// per-replica peak is byte-identical to the reservation this grant
    /// holds. Solo training and inference replicas keep the plan's
    /// analytic estimate (no gradient exchange to measure). The closed
    /// form survives only as a belt-and-braces fallback for a gang whose
    /// group execution cannot run (which admission feasibility rules out).
    pub(crate) fn step_time(&self, job: &JobSpec, grant: &Grant) -> SimTime {
        match job.kind {
            crate::job::JobKind::Training if job.replicas > 1 => {
                let measured = grant.slowest().and_then(|pace| {
                    self.profiler.gang_step_capped(
                        job.workload,
                        job.batch,
                        grant.preset,
                        job.replicas,
                        self.cards[pace.device],
                        &self.fleet.devices[pace.device],
                        pace.budget,
                        self.fleet.interconnect,
                    )
                });
                measured.unwrap_or_else(|| {
                    grant.replica_iter_time()
                        + ring_allreduce_time(
                            grant.weight_bytes(),
                            job.replicas,
                            self.fleet.interconnect,
                        )
                })
            }
            _ => grant.replica_iter_time(),
        }
    }

    /// Why `job` can never run here, for a job that is infeasible on the
    /// healthy idle fleet.
    fn reject_reason(&self, job: &JobSpec) -> RejectReason {
        if job.replicas == 0 {
            RejectReason::EmptyGang
        } else if job.replicas > self.fleet.len() {
            RejectReason::FleetTooSmall {
                replicas: job.replicas,
                fleet: self.fleet.len(),
            }
        } else {
            RejectReason::PeakExceedsCapacity {
                presets: ladder_for(job).map(|p| p.name()).collect(),
            }
        }
    }

    /// Run the job stream to completion and report. `arrivals` pairs each
    /// job with its (virtual) submission time; same-time jobs keep their
    /// input order in the queue.
    pub fn run(&mut self, arrivals: Vec<(SimTime, JobSpec)>) -> ClusterReport {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|(t, _)| *t); // stable: ties keep input order

        // One per-tenant track per job under the "cluster" process,
        // pre-created in arrival order so the Perfetto artifact's track
        // layout is identical to the reference loop's; empty when untraced.
        let tracing = self.sink.is_enabled();
        let tracks: Vec<TrackId> = if tracing {
            arrivals
                .iter()
                .map(|(_, j)| self.sink.track("cluster", &j.name))
                .collect()
        } else {
            Vec::new()
        };
        let mut rec = FullRecorder {
            outcomes: Vec::with_capacity(arrivals.len()),
            trace: Vec::new(),
            tracks,
            tracing,
            fleet_track: None,
        };
        let mut stream = ReplayStream::new(arrivals);
        let core = self.run_core(&mut stream, &mut rec);

        let makespan = SimTime(core.now_ns.round() as u64);
        ClusterReport::assemble(
            &self.fleet,
            self.placement,
            rec.outcomes,
            rec.trace,
            makespan,
            core.devices
                .iter()
                .map(|d| {
                    (
                        d.busy_ns,
                        d.reserved_integral,
                        d.peak_reserved,
                        d.peak_tenants,
                    )
                })
                .collect(),
            core.peak_concurrent,
            self.profiler.simulated(),
        )
    }

    /// Run an open-loop arrival stream to exhaustion with aggregate-only
    /// recording: arrivals are pulled one ahead of the clock and per-job
    /// state lives only while the job does, so a 10^6-event stream runs in
    /// memory proportional to **peak concurrency** (reported as
    /// [`ServiceReport::peak_live_jobs`]), not stream length. Tail
    /// latencies come from a fixed-size log-linear sketch (≤ 1/16 relative
    /// rounding); counts, means, utilizations, and the schedule itself are
    /// exact — the loop is the same indexed core [`ClusterSim::run`] uses.
    pub fn run_stream(&mut self, stream: &mut dyn ArrivalStream) -> ServiceReport {
        let mut rec = StreamRecorder::default();
        let core = self.run_core(stream, &mut rec);

        let makespan = SimTime(core.now_ns.round() as u64);
        let span_ns = makespan.0.max(1) as f64;
        let compute_utilization = core.devices.iter().map(|d| d.busy_ns).sum::<f64>()
            / (span_ns * self.fleet.len().max(1) as f64);
        let memory_utilization = core
            .devices
            .iter()
            .map(|d| d.reserved_integral)
            .sum::<f64>()
            / (span_ns * self.fleet.total_dram().max(1) as f64);
        let mean_queueing = if rec.queue_count == 0 {
            SimTime::ZERO
        } else {
            SimTime((rec.queue_sum / rec.queue_count as u128) as u64)
        };
        ServiceReport {
            placement: self.placement,
            fleet_devices: self.fleet.len(),
            submitted: core.submitted,
            completed: core.completed,
            rejected: core.rejected,
            failed: core.failed,
            still_queued: core.still_queued,
            interrupted: core.interrupted,
            restarts: core.restarts,
            useful_iterations: core.useful_iters,
            wasted_iterations: core.wasted_iters,
            goodput_iters_per_sec: crate::report::safe_rate(core.useful_iters, makespan),
            raw_iters_per_sec: crate::report::safe_rate(
                core.useful_iters + core.wasted_iters,
                makespan,
            ),
            events: core.events,
            makespan,
            jobs_per_sec: core.completed as f64 / makespan.as_secs_f64().max(f64::MIN_POSITIVE),
            p50_latency: rec.latency.quantile(0.50),
            p99_latency: rec.latency.quantile(0.99),
            p999_latency: rec.latency.quantile(0.999),
            mean_queueing,
            compute_utilization,
            memory_utilization,
            peak_concurrent_jobs: core.peak_concurrent,
            peak_live_jobs: core.peak_live,
        }
    }

    /// The indexed discrete-event core (see the module docs). Everything
    /// observable goes through `rec`; the returned [`CoreOutcome`] carries
    /// the device integrals and counters both report types share.
    fn run_core<R: Recorder>(&self, stream: &mut dyn ArrivalStream, rec: &mut R) -> CoreOutcome {
        let mut devices = vec![DeviceState::default(); self.fleet.len()];
        // Per-device running tenants: the gangs a tenant-count change on
        // this device can re-pace. The re-anchor sweep walks only these.
        let mut tenants_on: Vec<Vec<SlotKey>> = vec![Vec::new(); self.fleet.len()];
        let mut jobs: Slab<LiveJob> = Slab::new();
        let mut heap = EventHeap::default();
        let mut pending: Vec<SlotKey> = Vec::new(); // FIFO queue
        let mut memo = AdmitMemo::default();
        // Per-event work lists and the admission sweep's buffers, reused
        // across iterations: a steady-state event allocates only for what
        // it leaves behind (a grant, a memo entry).
        let mut scratch = AdmitScratch::default();
        let mut completions: Vec<SlotKey> = Vec::new();
        let mut retries: Vec<(u64, SlotKey)> = Vec::new();
        let mut affected: Vec<usize> = Vec::new();
        let mut kept: Vec<SlotKey> = Vec::new();
        let mut victims: Vec<SlotKey> = Vec::new();

        let mut now_ns = 0f64;
        let mut next_seq = 0u64;
        let mut running_count = 0usize;
        let mut peak_concurrent = 0usize;
        let mut events = 0u64;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut rejected = 0u64;
        let mut failed = 0u64;
        let mut interrupted = 0u64;
        let mut restarts = 0u64;
        let mut useful_iters = 0u64;
        let mut wasted_iters = 0u64;
        // Jobs parked in backoff: live slab slots that are neither queued
        // nor running until their retry fires.
        let mut backoff_count = 0usize;

        // Fault state. `fault_mode` gates the clock and restart branches
        // below: with no plan installed the loop executes the exact float-op
        // sequence the no-fault differential suite pins. (The not-admitted
        // arm is shared: fault-free it degenerates to wait-or-reject.)
        let fault_mode = self.faults.is_some();
        let faults: Vec<(SimTime, FaultEvent)> = self
            .faults
            .clone()
            .map(|p| p.into_events())
            .unwrap_or_default();
        let mut next_fault = 0usize;
        let mut link_permille: u32 = 1000;
        // Bumped on every fail/recover: scopes the live-subset feasibility
        // memo.
        let mut fault_epoch = 0u64;
        let mut fail_since: Vec<Option<u64>> = vec![None; self.fleet.len()];
        // Monotone integer stamp clock. Faults, retries, and arrivals carry
        // exact integer instants whose f64 projections can round *down* past
        // 2^53 ns; stamps derived from the rounded f64 clock are clamped to
        // this so the trace never runs backwards. Fault-gated: fault-free
        // stamps stay bit-identical to the reference loop.
        let mut clock_int: u64 = 0;
        if let Some((t, _)) = faults.first() {
            heap.push(t.0 as f64, u64::MAX - 1, EventKind::FaultDue);
        }

        // Reservation-state version, bumped on every reserve/release.
        // `pass_version` is the version every *currently queued* job was
        // last (provably) evaluated at; when they match, the FIFO pass can
        // skip straight to this event's fresh arrivals — the old entries'
        // re-evaluation would be a pure replay ending in "still pending".
        let mut state_version = 0u64;
        let mut pass_version = 0u64;

        // Pull one arrival ahead of the clock.
        let mut pending_arrival = stream.next_job();
        if let Some((t, _)) = &pending_arrival {
            heap.push(t.0 as f64, u64::MAX, EventKind::Arrival);
        }

        loop {
            // Earliest event: every queued entry is live (see `event_heap`).
            let Some(t_next) = heap.peek().map(|ev| ev.t_ns) else {
                // In fault mode a job can terminally wait out a pressure
                // spike that never lifts; it is reported as still queued.
                debug_assert!(
                    fault_mode || pending.is_empty(),
                    "queued jobs with no future events"
                );
                break;
            };

            // Collect everything due at this instant *before* processing:
            // pushes made while handling the batch (same-f64-time arrivals
            // past 2^53 ns, zero-dt re-projections) belong to the next
            // iteration, exactly like the reference loop's dt=0 follow-ups.
            completions.clear();
            retries.clear();
            let mut arrival_due = false;
            let mut fault_due = false;
            while heap.peek().is_some_and(|ev| ev.t_ns == t_next) {
                let ev = heap.pop().expect("peeked entry");
                match ev.kind {
                    EventKind::Completion { key } => {
                        // What pops is the gang's live projection, bit for
                        // bit — never one made before a re-anchor, an
                        // interrupt or a restart.
                        debug_assert!(
                            jobs.get(key).and_then(|j| j.run.as_ref()).is_some_and(|r| {
                                (r.anchor_ns + r.remaining_ns * r.slowdown).to_bits()
                                    == ev.t_ns.to_bits()
                            }),
                            "a completion popped that is not its gang's live projection"
                        );
                        completions.push(key);
                    }
                    EventKind::Retry { key, due_ns } => retries.push((due_ns, key)),
                    EventKind::Arrival => arrival_due = true,
                    EventKind::FaultDue => fault_due = true,
                }
            }
            // Heap pops at equal times ascend by `order`, i.e. by arrival
            // sequence — the completion-report order the reference loop
            // gets from keeping `running` sorted.
            debug_assert!(completions
                .windows(2)
                .all(|w| jobs.get(w[0]).unwrap().seq < jobs.get(w[1]).unwrap().seq));

            // Advance the clock: device accounting integrates (per-gang
            // progress is implicit in the anchors). Deliberately the same
            // eager per-device loop as the reference — f64 addition is not
            // associative, so coalescing idle stretches would change bits;
            // the fleet is small and fixed, the asymptotic win is in jobs.
            let dt = t_next - now_ns;
            if dt > 0.0 {
                for d in devices.iter_mut() {
                    if d.tenants > 0 {
                        d.busy_ns += dt;
                    }
                    d.reserved_integral += d.reserved as f64 * dt;
                }
            }
            // Never move the clock backwards: an arrival timestamp past
            // 2^53 ns can *round down* below a completion the clock already
            // advanced to.
            now_ns = now_ns.max(t_next);

            // Devices whose tenant count changes this event — the re-anchor
            // sweep below visits exactly their gangs.
            affected.clear();

            // Completions first (freeing capacity for same-instant
            // arrivals), in arrival-sequence order.
            for &key in &completions {
                let mut job = jobs.remove(key).expect("queued completions are live");
                let run = job.run.take().expect("queued completions are running");
                for p in &run.grant.placements {
                    devices[p.device].reserved -= p.prediction.peak_bytes;
                    devices[p.device].tenants -= 1;
                    let list = &mut tenants_on[p.device];
                    let pos = list.iter().position(|k| *k == key).expect("tenant listed");
                    list.swap_remove(pos);
                    affected.push(p.device);
                }
                state_version += 1;
                running_count -= 1;
                completed += 1;
                useful_iters += u64::from(job.spec.iterations);
                events += 1;
                let t_done = if fault_mode {
                    clock_int = clock_int.max(now_ns.round() as u64);
                    clock_int
                } else {
                    now_ns.round() as u64
                };
                rec.on_complete(self, &job, t_done);
            }

            // Injected faults at this instant, in plan order. Matched on the
            // *integer* nanosecond timestamp (like arrivals below) so plans
            // past 2^53 ns cannot merge or drop instants under `as f64`.
            if fault_due {
                let t_int = faults[next_fault].0 .0;
                clock_int = clock_int.max(t_int);
                while next_fault < faults.len() && faults[next_fault].0 .0 == t_int {
                    let ev = faults[next_fault].1;
                    next_fault += 1;
                    match ev {
                        FaultEvent::DeviceFail { device } if device < devices.len() => {
                            if devices[device].failed {
                                continue; // already down
                            }
                            devices[device].failed = true;
                            fail_since[device] = Some(t_int);
                            state_version += 1;
                            fault_epoch += 1;
                            events += 1;
                            rec.on_fault(self, &ev, t_int);
                            if let Some(m) = &self.metrics {
                                m.device_failures.inc();
                            }
                            // Interrupt every gang with a replica here —
                            // atomically: ALL replicas' reservations and
                            // tenant slots release, not just this device's.
                            victims.clear();
                            victims.extend_from_slice(&tenants_on[device]);
                            for &vkey in &victims {
                                let (seq, kind, total_done) = {
                                    let vjob =
                                        jobs.get_mut(vkey).expect("tenant lists track live jobs");
                                    let run = vjob.run.take().expect("listed tenants are running");
                                    heap.remove_completion(vkey);
                                    let done = fold_done_iterations(&run, now_ns);
                                    for p in &run.grant.placements {
                                        devices[p.device].reserved -= p.prediction.peak_bytes;
                                        devices[p.device].tenants -= 1;
                                        let list = &mut tenants_on[p.device];
                                        let pos = list
                                            .iter()
                                            .position(|k| *k == vkey)
                                            .expect("tenant listed");
                                        list.swap_remove(pos);
                                        affected.push(p.device);
                                    }
                                    (vjob.seq, vjob.spec.kind, vjob.iters_done + done)
                                };
                                state_version += 1;
                                running_count -= 1;
                                interrupted += 1;
                                events += 1;
                                if let Some(m) = &self.metrics {
                                    m.jobs_interrupted.inc();
                                }
                                let permanent = match self.recovery.mode {
                                    RecoveryMode::NoRecovery => {
                                        Some(format!("device {device} failed (no recovery)"))
                                    }
                                    _ if jobs.get(vkey).unwrap().attempts
                                        >= self.recovery.max_retries =>
                                    {
                                        Some(format!(
                                            "device {device} failed after {} retries",
                                            self.recovery.max_retries
                                        ))
                                    }
                                    _ => None,
                                };
                                match permanent {
                                    Some(why) => {
                                        let waste = {
                                            let vjob = jobs.get_mut(vkey).unwrap();
                                            let w = u64::from(total_done);
                                            vjob.wasted_iters += w;
                                            w
                                        };
                                        wasted_iters += waste;
                                        if let Some(m) = &self.metrics {
                                            m.wasted_iterations.add(waste);
                                            m.jobs_failed.inc();
                                        }
                                        rec.on_interrupt(
                                            self,
                                            jobs.get(vkey).unwrap(),
                                            device,
                                            t_int,
                                        );
                                        rec.on_fail(self, jobs.get(vkey).unwrap(), &why, t_int);
                                        jobs.remove(vkey);
                                        failed += 1;
                                        events += 1;
                                    }
                                    None => {
                                        // Fold to the checkpoint, park in
                                        // backoff: pure u64 timer chains.
                                        let attempt = {
                                            let vjob = jobs.get_mut(vkey).unwrap();
                                            let kept = self.recovery.checkpointed(kind, total_done);
                                            let waste = u64::from(total_done - kept);
                                            vjob.iters_done = kept;
                                            vjob.wasted_iters += waste;
                                            wasted_iters += waste;
                                            if let Some(m) = &self.metrics {
                                                m.wasted_iterations.add(waste);
                                            }
                                            vjob.pending_restart = true;
                                            let a = vjob.attempts;
                                            vjob.attempts += 1;
                                            a
                                        };
                                        let delay = self.recovery.backoff_delay(attempt, seq);
                                        let due = t_int.saturating_add(delay.0);
                                        {
                                            let vjob = jobs.get_mut(vkey).unwrap();
                                            vjob.anchor_int = due;
                                        }
                                        heap.push(
                                            due as f64,
                                            seq,
                                            EventKind::Retry {
                                                key: vkey,
                                                due_ns: due,
                                            },
                                        );
                                        backoff_count += 1;
                                        if let Some(m) = &self.metrics {
                                            m.retries_scheduled.inc();
                                            m.backoff_ns.record(delay.0);
                                        }
                                        rec.on_interrupt(
                                            self,
                                            jobs.get(vkey).unwrap(),
                                            device,
                                            t_int,
                                        );
                                    }
                                }
                            }
                        }
                        FaultEvent::DeviceRecover { device } if device < devices.len() => {
                            if !devices[device].failed {
                                continue;
                            }
                            devices[device].failed = false;
                            state_version += 1;
                            fault_epoch += 1;
                            events += 1;
                            rec.on_fault(self, &ev, t_int);
                            let since = fail_since[device].take();
                            if let Some(m) = &self.metrics {
                                m.device_recoveries.inc();
                                if let Some(t0) = since {
                                    m.mttr_ns.record(t_int.saturating_sub(t0));
                                }
                            }
                        }
                        FaultEvent::LinkDegrade { permille } => {
                            let p = permille.max(1);
                            if p == link_permille {
                                continue;
                            }
                            link_permille = p;
                            events += 1;
                            rec.on_fault(self, &ev, t_int);
                            // Every running gang may re-pace.
                            affected.extend(0..devices.len());
                        }
                        FaultEvent::LinkRestore => {
                            if link_permille == 1000 {
                                continue;
                            }
                            link_permille = 1000;
                            events += 1;
                            rec.on_fault(self, &ev, t_int);
                            affected.extend(0..devices.len());
                        }
                        FaultEvent::PressureSpike { device, bytes } if device < devices.len() => {
                            devices[device].spike = devices[device].spike.saturating_add(bytes);
                            state_version += 1;
                            events += 1;
                            rec.on_fault(self, &ev, t_int);
                        }
                        FaultEvent::PressureRelease { device, bytes } if device < devices.len() => {
                            devices[device].spike = devices[device].spike.saturating_sub(bytes);
                            state_version += 1;
                            events += 1;
                            rec.on_fault(self, &ev, t_int);
                        }
                        _ => {} // out-of-range device index: ignore
                    }
                }
                if let Some((t, _)) = faults.get(next_fault) {
                    debug_assert!(t.0 >= t_int, "fault plans are normalized");
                    heap.push(t.0 as f64, u64::MAX - 1, EventKind::FaultDue);
                }
            }

            // Arrivals at this instant join the queue in pull order. Match
            // on the *integer* nanosecond timestamp, not its f64 projection:
            // beyond 2^53 ns distinct arrival times collapse under `as f64`,
            // and a float-equality match would drop (or spuriously merge)
            // coincident arrivals.
            let fresh_start = pending.len();
            // Parked jobs whose backoff expired re-enter the queue ahead of
            // fresh arrivals at the same instant (they arrived earlier),
            // ordered by (due instant, arrival sequence). They sit at or
            // past `fresh_start`, so even a memoized (non-full) pass
            // re-evaluates them.
            if !retries.is_empty() {
                retries.sort_unstable_by_key(|&(due, key)| {
                    (due, jobs.get(key).map(|j| j.seq).unwrap_or(u64::MAX))
                });
                for &(due, key) in &retries {
                    let job = jobs.get_mut(key).expect("parked jobs stay live");
                    debug_assert!(job.run.is_none(), "parked jobs cannot be running");
                    job.anchor_int = job.anchor_int.max(due);
                    clock_int = clock_int.max(due);
                    pending.push(key);
                    backoff_count -= 1;
                }
            }
            if arrival_due {
                let (t0, first) = pending_arrival.take().expect("arrival marker without job");
                let t_int = t0.0;
                if fault_mode {
                    clock_int = clock_int.max(t_int);
                }
                let mut cur = Some((t0, first));
                loop {
                    match cur.take() {
                        Some((t, spec)) if t.0 == t_int => {
                            let seq = next_seq;
                            next_seq += 1;
                            let key = jobs.insert(LiveJob {
                                spec: Arc::new(spec),
                                seq,
                                arrival: t,
                                run: None,
                                anchor_int: t_int,
                                iters_done: 0,
                                attempts: 0,
                                wasted_iters: 0,
                                pending_restart: false,
                                resume: None,
                            });
                            pending.push(key);
                            submitted += 1;
                            events += 1;
                            rec.on_arrive(self, jobs.get(key).expect("just inserted"), t_int);
                            cur = stream.next_job();
                        }
                        later => {
                            cur = later;
                            break;
                        }
                    }
                }
                pending_arrival = cur;
                if let Some((t, _)) = &pending_arrival {
                    debug_assert!(t.0 >= t_int, "ArrivalStream times must be non-decreasing");
                    heap.push(t.0 as f64, u64::MAX, EventKind::Arrival);
                }
            }

            // Admission/placement pass: FIFO with backfill — a blocked job
            // stays queued while later, smaller jobs may slot in behind it.
            // When reservations haven't changed since the queue was last
            // evaluated, only this event's fresh arrivals are worth asking
            // about (see `pass_version` above).
            // Integer stamp for this instant's pass: runs logically after
            // the integer-stamped faults/retries/arrivals above, so it is
            // clamped to never sit behind them.
            let now_int = if fault_mode {
                clock_int = clock_int.max(now_ns.round() as u64);
                clock_int
            } else {
                now_ns.round() as u64
            };
            let full_pass = state_version != pass_version;
            let start = if full_pass { 0 } else { fresh_start };
            let version_at_pass_start = state_version;
            kept.clear();
            for &key in pending.iter().skip(start) {
                let (spec, resume, restarting) = {
                    let j = jobs.get(key).expect("pending jobs are live");
                    (Arc::clone(&j.spec), j.resume.clone(), j.pending_restart)
                };
                let mut grant_opt = match &resume {
                    // A job granted before carries its frozen plan: restart
                    // re-admission is budget-exact, never a fresh search.
                    Some(rp) => self.try_admit_resume(&devices, &spec, rp),
                    None => {
                        self.try_admit_memo(&devices, &spec, &mut memo, state_version, &mut scratch)
                    }
                };
                // Elastic rescue: make room by live-downgrading running
                // tenants one preset rung (strictly smaller reserved peak),
                // through the same plan memo admission uses.
                let mut rescue: Option<Vec<(SlotKey, Grant)>> = None;
                if grant_opt.is_none()
                    && fault_mode
                    && self.recovery.mode == RecoveryMode::RestartElastic
                {
                    if let Some((downgrades, admit)) = self.plan_elastic(
                        &devices,
                        &jobs,
                        &tenants_on,
                        &spec,
                        resume.as_ref(),
                        &mut scratch,
                    ) {
                        rescue = Some(downgrades);
                        grant_opt = Some(admit);
                    }
                }
                match grant_opt {
                    Some(grant) => {
                        // Commit planned downgrades first — they free the
                        // room the grant below relies on.
                        if let Some(downgrades) = rescue {
                            for (tkey, new_grant) in downgrades {
                                let (tseq, from, old_grant) = {
                                    let tjob =
                                        jobs.get_mut(tkey).expect("planned tenants are live");
                                    let trun =
                                        tjob.run.as_mut().expect("planned tenants are running");
                                    // The downgraded plan restarts the
                                    // remaining iterations from the last
                                    // checkpoint; the fold's loss is wasted
                                    // work.
                                    let done = fold_done_iterations(trun, now_ns);
                                    let total_done = tjob.iters_done + done;
                                    let kept_iters =
                                        self.recovery.checkpointed(tjob.spec.kind, total_done);
                                    let waste = u64::from(total_done - kept_iters);
                                    tjob.iters_done = kept_iters;
                                    tjob.wasted_iters += waste;
                                    wasted_iters += waste;
                                    if let Some(m) = &self.metrics {
                                        m.wasted_iterations.add(waste);
                                    }
                                    let from = trun.grant.preset;
                                    let old = std::mem::replace(&mut trun.grant, new_grant.clone());
                                    (tjob.seq, from, old)
                                };
                                for p in &old_grant.placements {
                                    devices[p.device].reserved -= p.prediction.peak_bytes;
                                }
                                for p in &new_grant.placements {
                                    let d = p.device;
                                    devices[d].reserved += p.prediction.peak_bytes;
                                    devices[d].peak_reserved =
                                        devices[d].peak_reserved.max(devices[d].reserved);
                                    debug_assert!(
                                        devices[d].reserved <= self.fleet.devices[d].dram_bytes,
                                        "downgrade reservation exceeds device {d} DRAM"
                                    );
                                    affected.push(d);
                                }
                                state_version += 1;
                                let (tspec, titers_left) = {
                                    let tjob = jobs.get(tkey).expect("planned tenants are live");
                                    (
                                        Arc::clone(&tjob.spec),
                                        tjob.spec.iterations - tjob.iters_done,
                                    )
                                };
                                let tstep = self.step_time(&tspec, &new_grant);
                                let tslow = apply_link(
                                    gang_slowdown(&devices, &new_grant),
                                    tspec.replicas,
                                    link_permille,
                                );
                                {
                                    let tjob =
                                        jobs.get_mut(tkey).expect("planned tenants are live");
                                    tjob.resume = Some(resume_plan_of(&new_grant));
                                    let trun =
                                        tjob.run.as_mut().expect("planned tenants are running");
                                    trun.step_ns = tstep.0 as f64;
                                    trun.iters_this_run = titers_left;
                                    trun.remaining_ns = tstep.0 as f64 * titers_left as f64;
                                    trun.anchor_ns = now_ns;
                                    trun.slowdown = tslow;
                                    heap.set_completion(
                                        tkey,
                                        now_ns + trun.remaining_ns * tslow,
                                        tseq,
                                    );
                                }
                                rec.on_downgrade(
                                    self,
                                    jobs.get(tkey).expect("planned tenants are live"),
                                    from,
                                    &new_grant,
                                    now_int,
                                );
                                events += 1;
                                if let Some(m) = &self.metrics {
                                    m.jobs_downgraded.inc();
                                }
                            }
                        }
                        let iters_left = spec.iterations
                            - jobs.get(key).expect("pending jobs are live").iters_done;
                        let step = self.step_time(&spec, &grant);
                        let work_ns = step.0 as f64 * iters_left as f64;
                        for p in &grant.placements {
                            let d = p.device;
                            devices[d].reserved += p.prediction.peak_bytes;
                            devices[d].tenants += 1;
                            devices[d].peak_reserved =
                                devices[d].peak_reserved.max(devices[d].reserved);
                            devices[d].peak_tenants =
                                devices[d].peak_tenants.max(devices[d].tenants);
                            debug_assert!(
                                devices[d].reserved <= self.fleet.devices[d].dram_bytes,
                                "reservation exceeds device {d} DRAM"
                            );
                            tenants_on[d].push(key);
                            affected.push(d);
                        }
                        state_version += 1;
                        if restarting {
                            // Gate: the re-admitted plan must be
                            // byte-identical to the original — same sorted
                            // (budget, peak) vector, peaks straight from
                            // the shared plan memo.
                            let exact = resume.as_ref().is_some_and(|rp| {
                                let mut got: Vec<(u64, u64)> = grant
                                    .placements
                                    .iter()
                                    .map(|p| (p.budget, p.prediction.peak_bytes))
                                    .collect();
                                got.sort_unstable_by(|a, b| b.cmp(a));
                                got.iter().map(|g| g.0).eq(rp.budgets.iter().copied())
                                    && got.iter().map(|g| g.1).eq(rp.peaks.iter().copied())
                            });
                            restarts += 1;
                            if let Some(m) = &self.metrics {
                                m.jobs_restarted.inc();
                            }
                            rec.on_restart(
                                self,
                                jobs.get(key).expect("pending jobs are live"),
                                &grant,
                                exact,
                                now_int,
                            );
                        } else {
                            rec.on_admit(
                                self,
                                jobs.get(key).expect("pending jobs are live"),
                                &grant,
                                now_int,
                            );
                        }
                        if fault_mode {
                            let j = jobs.get_mut(key).expect("pending jobs are live");
                            j.pending_restart = false;
                            j.attempts = 0;
                            j.resume = Some(resume_plan_of(&grant));
                        }
                        // The gang's slowdown is read *after* its own
                        // reservations landed; if a later same-pass
                        // admission changes it, the sweep below folds that
                        // in (a zero-dt, bit-safe re-anchor).
                        let slowdown = apply_link(
                            gang_slowdown(&devices, &grant),
                            spec.replicas,
                            link_permille,
                        );
                        let seq = {
                            let job = jobs.get_mut(key).expect("pending jobs are live");
                            job.run = Some(RunState {
                                grant,
                                remaining_ns: work_ns,
                                anchor_ns: now_ns,
                                slowdown,
                                step_ns: step.0 as f64,
                                iters_this_run: iters_left,
                            });
                            job.seq
                        };
                        heap.set_completion(key, now_ns + work_ns * slowdown, seq);
                        running_count += 1;
                        events += 1;
                    }
                    None => {
                        // Three-way — wait (feasible on the live subset), back
                        // off (only an outage blocks it), or reject/fail.
                        // With no device failed the live subset is the
                        // fleet, so the middle way is never taken and a
                        // shape's feasibility is asked once per run, not
                        // once per pass.
                        if memo.feasible_epoch != fault_epoch {
                            memo.feasible.clear();
                            memo.feasible_epoch = fault_epoch;
                        }
                        let shape = shape_key(&spec);
                        let feasible_live = *memo.feasible.entry(shape).or_insert_with(|| {
                            let live: Vec<&sn_sim::DeviceSpec> = self
                                .fleet
                                .devices
                                .iter()
                                .zip(devices.iter())
                                .filter(|(_, d)| !d.failed)
                                .map(|(s, _)| s)
                                .collect();
                            feasible_on_device_subset(&self.profiler, &live, &spec)
                        });
                        if feasible_live {
                            kept.push(key); // wait for capacity
                        } else {
                            let feasible_full =
                                *memo.feasible_full.entry(shape).or_insert_with(|| {
                                    feasible_on_idle_fleet(&self.profiler, &self.fleet, &spec)
                                });
                            if !feasible_full {
                                // It would never fit even on a healthy idle
                                // fleet: the classic reject reasons apply.
                                let reason = self.reject_reason(&spec);
                                rec.on_reject(
                                    self,
                                    jobs.get(key).expect("pending jobs are live"),
                                    &reason,
                                    now_int,
                                );
                                jobs.remove(key);
                                rejected += 1;
                                events += 1;
                            } else if self.recovery.mode == RecoveryMode::NoRecovery {
                                kept.push(key); // wait for the fleet to heal
                            } else {
                                let (seq, attempt, base) = {
                                    let j = jobs.get(key).expect("pending jobs are live");
                                    (j.seq, j.attempts, j.anchor_int)
                                };
                                if attempt >= self.recovery.max_retries {
                                    let why = format!("no live placement after {attempt} retries");
                                    rec.on_fail(
                                        self,
                                        jobs.get(key).expect("pending jobs are live"),
                                        &why,
                                        now_int,
                                    );
                                    jobs.remove(key);
                                    failed += 1;
                                    events += 1;
                                    if let Some(m) = &self.metrics {
                                        m.jobs_failed.inc();
                                    }
                                } else {
                                    // Capped exponential backoff on the
                                    // integer timeline: the due instant
                                    // chains from `anchor_int`, never from
                                    // the f64 clock.
                                    let delay = self.recovery.backoff_delay(attempt, seq);
                                    let due = base.max(now_int).saturating_add(delay.0);
                                    {
                                        let j = jobs.get_mut(key).expect("pending jobs are live");
                                        j.attempts += 1;
                                        j.anchor_int = due;
                                    }
                                    heap.push(
                                        due as f64,
                                        seq,
                                        EventKind::Retry { key, due_ns: due },
                                    );
                                    backoff_count += 1;
                                    if let Some(m) = &self.metrics {
                                        m.retries_scheduled.inc();
                                        m.backoff_ns.record(delay.0);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            pending.truncate(start);
            pending.extend_from_slice(&kept);
            if full_pass {
                // If the pass admitted anything, state_version moved past
                // this and the next event re-evaluates everyone — a job
                // evaluated early in the pass saw pre-admission state.
                pass_version = version_at_pass_start;
            }
            peak_concurrent = peak_concurrent.max(running_count);
            // Every live slot is exactly one queued, running, or
            // backoff-parked job.
            debug_assert_eq!(jobs.len(), pending.len() + running_count + backoff_count);

            // Re-anchor sweep: exactly the gangs sharing a device whose
            // tenant count changed this event. Fold their progress forward
            // under the old slowdown, restart the anchor at `now`, and
            // re-key their completion where it sits in the heap. Gangs
            // reached through two affected devices are visited twice but
            // re-anchored once — the second visit sees the new slowdown
            // already in place. These are the same float ops the reference
            // loop's top-of-iteration pass performs on the same values.
            affected.sort_unstable();
            affected.dedup();
            for &d in &affected {
                for &key in &tenants_on[d] {
                    let job = jobs.get_mut(key).expect("tenant lists track live jobs");
                    let seq = job.seq;
                    let replicas = job.spec.replicas;
                    let run = job.run.as_mut().expect("listed tenants are running");
                    let s =
                        apply_link(gang_slowdown(&devices, &run.grant), replicas, link_permille);
                    if s != run.slowdown {
                        run.remaining_ns -= (now_ns - run.anchor_ns) / run.slowdown;
                        run.anchor_ns = now_ns;
                        run.slowdown = s;
                        heap.set_completion(
                            key,
                            run.anchor_ns + run.remaining_ns * run.slowdown,
                            seq,
                        );
                    }
                }
            }
        }

        CoreOutcome {
            devices,
            now_ns,
            peak_concurrent,
            peak_live: jobs.capacity(),
            events,
            submitted,
            completed,
            rejected,
            failed,
            interrupted,
            restarts,
            still_queued: pending.len() as u64,
            useful_iters,
            wasted_iters,
        }
    }
}
