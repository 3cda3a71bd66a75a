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
//! ## One integer clock
//!
//! Time is `u64` nanoseconds wherever it is stored, compared or stamped:
//! the heap's keys, a gang's anchor and remaining work, every trace stamp,
//! the device integrals. `now` only ever takes the instant that popped, so
//! it cannot run backwards, and it is the same clock with a fault plan
//! installed or without. Processor sharing divides, so two functions round —
//! `Pace::wall` up and `Pace::work` down, a pair chosen so that a gang
//! completes at the first instant by which it has done its work (see
//! `crate::pace`) — and nothing else does. Instants that would pass
//! `u64::MAX` saturate there.
//!
//! ## The indexed event core
//!
//! The loop is *indexed*, not scanned — the structure classic
//! discrete-event simulators use to stay O(log n)-ish per event instead of
//! O(n):
//!
//! * **Event queue** — an *addressable* binary heap (`crate::event_heap`)
//!   ordered by `(time, job index)`, packed into one `u128` key: the next
//!   arrival, the next fault batch, parked jobs' retries, **exactly one**
//!   projected completion per running gang and per device with
//!   single-device tenants (its earliest; a pop re-queues it only for
//!   another due then). An entry's `u32` *handle* — a marker, a device or a
//!   slab slot — indexes one position table and the payloads a pop hands
//!   back. A tenant-count change re-keys an entry where it sits and moves a
//!   hole only the way its key moved; an interrupt removes a gang's. Keys
//!   are distinct (a job owns at most one entry), so entries pop in sorted
//!   order whatever the heap's shape. Nothing stale is ever queued, so
//!   whatever pops is a live projection — in particular a restarted job can
//!   never complete on the schedule of the run a fault cut short.
//! * **Slab job state** — live jobs (pending, running, parked) occupy
//!   generation-stamped slots (`crate::slab`); storage is bounded by peak
//!   concurrency, not stream length.
//! * **Lazy progress** — a running gang carries
//!   `(anchor_ns, remaining_ns, pace)`: its completion is always
//!   `anchor + pace.wall(remaining)`, and progress is folded forward
//!   (`remaining −= pace.work(now − anchor)`, an integer re-anchor) **only
//!   when its pace changes** — each fold floors once, so folding at every
//!   event would drift. A single-device tenant's pace is its device's tenant
//!   count, so those on one device share its clock (`DeviceClock`): `k`
//!   tenants since `anchor`, `v` ns of work credited by then. A tenant
//!   joining `a = now − anchor` ns in with `W` ns of work stores
//!   `tag = W + v + ⌊a/k⌋` and `phase = a mod k`; it has
//!   `tag − v − ⌊a/k⌋ + [a mod k < phase]` left and completes at
//!   `anchor + k·(tag − v) + phase`, which is `join + k·W`. The sweep folds a
//!   device only when `max(count, 1) ≠ k`: `v += ⌊a/k⌋`; a tenant whose
//!   phase exceeds `a mod k` takes back the ns that overstates (`tag += 1`);
//!   all phases become 0; `anchor = now`, `k = count`. Phases arise where a
//!   count ends an instant where it began — a completion and an admission
//!   on one device — so nothing folds; a tenant alone
//!   on its device restarts the clock. A gang keeps its *pace count* `m`,
//!   the most tenants on any of its devices, by slab slot. Where a device's
//!   count goes from `k_old` (its clock's `k`) to `k`, a gang there can
//!   change pace only if `k > m`, if `k < k_old == m`, or if the link moved
//!   this instant, and only such gangs are visited: after every sweep each
//!   `m` is its gang's maximum, and within an instant only admissions raise
//!   a count once a gang has started, so a maximum that rises shows `k > m`
//!   where it rose, and one that falls shows `k < k_old == m` on every
//!   device that held it. Per-device tenant lists identify exactly the
//!   gangs and clocks an event can affect, so it touches its neighborhood,
//!   not every running job.
//! * **Lazy device accounting** — a device's busy time and ∫ reserved dt are
//!   integrals of step functions, so each device is settled just before its
//!   `reserved`/`tenants` change and once when the run ends. In integers
//!   that is exact, so no event walks the fleet to advance them.
//! * **Version-gated admission** — the FIFO pass re-evaluates queued jobs
//!   only when reservations changed since they were last evaluated
//!   (admission is a pure function of the reservations, so the replay is
//!   provably identical). Within one reservation state the only answer that
//!   can be asked for again is a refusal — a grant reserves, and so ends the
//!   state — so the shapes refused in the current state are kept in a set
//!   and nothing else is: a queue thousands deep costs one sweep per
//!   distinct shape per state, not one per job.
//! * **Admission rung** — nothing in it divides, it hashes once, and it
//!   stops at the first device that cannot win. A device carries its budget
//!   *level* (`free / quantum`, re-derived in `DeviceState::alter`); a shape
//!   carries, per preset and device class, a row of the profiler's answers
//!   by level (`crate::admission::Row`). A rung reads the levels its devices
//!   show off a census the core keeps beside the walk order — per device
//!   class, how many devices show each level and the bit set of those
//!   shown, moved with a device's level at every alter — asks the profiler
//!   for those no device showed before, then walks
//!   the devices indexing `answers[level]` and keeping the `replicas` best:
//!   FirstFit in index order, BestFit and BinPack by ascending (free bytes,
//!   index), an order the core keeps (with ranks) by an insertion step at
//!   every alter, starting past the devices too full for any answered level.
//!   Holding its gang, the walk stops at the first device whose *floor*
//!   exceeds the worst key held — `free − P` for BestFit (`P` the largest
//!   peak answered), `u64::MAX − (largest DRAM − free)` for BinPack, its own
//!   key for FirstFit: no later device keys below it, so the gang is the one
//!   a scan of the whole fleet picks.
//!
//! The run's state is one struct (`Core`) with one handler per step of an
//! instant, and `Core::instant` calls them in the order that defines the
//! schedule: completions (freeing capacity) → injected faults → expired
//! retries (they rejoin the queue as the instant's batch is popped, which
//! nothing before the pass reads) → arrivals → the admission pass → the
//! re-anchor sweep. In debug builds it then runs `Core::check`, which
//! verifies the state's invariants — slot conservation, per-device
//! reservations, levels and tenant lists, one live completion per running
//! gang and per device with single-device tenants (its earliest), no run
//! projected to complete before its start plus the solo work it owes, every
//! pace the one its devices imply, every gang's kept pace count its devices'
//! maximum and every clock at its device's count, the walk order and the
//! level census equal to a scan's, monotone time, no queued job's shape in
//! the blocked set of a state that admits it — and `decide` holds each
//! rung's answer to the ladder written straight down (`try_admit_plain`).
//!
//! ### What an event costs
//!
//! One `serve_mixed` pass (the repo benchmark: 64 devices, ρ ≈ 0.83, gangs,
//! inference, faults; 22 550 events at 15 026 instants, 7 488 `try_admit`
//! calls), by an `Instant` pair around each handler of `Core::run` and
//! around `try_admit`, on scratch copies of `864fb29` — where a rung
//! divided twice a device and hashed a probe per distinct budget — of
//! `4c39aff`, where a device carried its budget level, of the code that
//! added device clocks and the walk, and of the code that flattened the
//! heap, kept the level census and skipped gang visits: medians over the
//! passes of 8-s runs (~240 a run; for the last two columns four runs a
//! side, ~170 and ~400 passes a run), seed 2301, 2-vCPU host. Share of the
//! handlers · ns an event: the shares repeat to a point or two; the ns carry
//! the pairs' own cost and drift with the host.
//!
//! | handler                                      | before         | level per device | clocks + walk  | heap, census, gang rule |
//! |----------------------------------------------|---------------:|-----------------:|---------------:|------------------------:|
//! | admission pass: `try_admit`                  | 38 % · 289 ns  | 28 % · 171 ns    | 19 % · 144 ns  | 13 % ·  35 ns           |
//! | admission pass: reserve, step time, recorder | 13 % ·  99 ns  | 15 % ·  90 ns    | 19 % · 151 ns  | 18 % ·  49 ns           |
//! | re-anchor sweep                              | 27 % · 204 ns  | 32 % · 194 ns    | 34 % · 265 ns  | 39 % · 104 ns           |
//! | `pop_due` (event queue)                      |  8 % ·  57 ns  | 10 % ·  59 ns    | 12 % ·  93 ns  | 11 % ·  30 ns           |
//! | completions, arrivals, faults                | 15 % · 112 ns  | 16 % · 100 ns    | 16 % · 122 ns  | 20 % ·  54 ns           |
//!
//! The clocks + walk column's host ran slow: its parent, `a21fb9c`, timed
//! beside it, read 30 % · 247, 15 % · 124, 34 % · 283, 10 % · 82 and
//! 12 % · 98 ns. Against that, `try_admit` is 744 → 432 ns a call: the walk
//! visits 5.7 devices, not 64. The sweep folds 21 568 device clocks a pass
//! where 63 942 single-device tenants were re-paced, and re-paces the same
//! 45 637 gangs, which are now most of it. Reserving and releasing pay for
//! keeping the walk order (≈ 17 insertion steps a move, one move an event).
//!
//! The last column's parent, `cd562af` — whose profiler no longer builds a
//! net per budget inside `try_admit` or measures a gang per budget while
//! reserving — timed beside it, read 17 % · 57, 14 % · 47, 37 % · 124,
//! 14 % · 48 and 18 % · 60 ns: 336 ns an event in all, against 273
//! (−19 %). `try_admit` is 172 → 104 ns a call, with no OR over 64 levels.
//! The sweep meets 119 104 gang entries a pass, visits 51 816 of them where
//! it visited all, and re-paces the same 45 637; what is left of it is
//! mostly those re-paces and their heap re-keys.
//!
//! Two oracles hold the core, and neither is a copy of it. The checker runs
//! under every test of this crate, and CI runs it over the committed
//! `cluster`, `faults` and `service` schedules with `experiments` built
//! under `--config profile.release.debug-assertions=true`. Built that way, a
//! `serve_mixed` pass under it and every other debug oracle costs ≈ 18× an
//! unchecked one (7.2–7.4 against 0.41 ref/pass, 2-vCPU host), which is why
//! release builds leave it off. Mutants in this module's tests — a skipped
//! re-anchor, a completion left queued, a blocked set kept across a state
//! change, a restart keeping its pre-fault completion, a restart projected
//! to finish early — each fail it naming their invariant. And
//! [`ClusterReport::digest`] folds a whole schedule
//! into 64 bits: `tests/golden/schedule_digests.txt` pins one per stream the
//! core has been held to hardest, so a change to any byte of them fails a
//! test. [`ClusterSim::run_stream`] runs the same core against a pull-based
//! [`ArrivalStream`] with aggregate-only recording: millions of arrivals in
//! constant memory.

use fxhash::{FxHashMap, FxHashSet};
use sn_runtime::ring_allreduce_time;
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::{ArgValue, Counter, Histogram, MetricsRegistry, TraceSink, TrackId};

use crate::admission::{
    feasible_on_device_subset, feasible_on_idle_fleet, ladder_for, quantized_budget, quantum,
    Grant, Placement, Profiler, Row,
};
use crate::event_heap::{EventHeap, EventKind};
use crate::fault::{FaultEvent, FaultPlan, RecoveryMode, RecoveryPolicy};
use crate::fleet::Fleet;
use crate::job::{JobKind, JobSpec, PolicyPreset, Workload};
use crate::latency::LatencySketch;
use crate::pace::Pace;
use crate::placement::{Candidate, PlacementPolicy};
use crate::report::{
    utilization, ClusterReport, JobOutcome, RejectReason, ServiceReport, TraceEvent, TraceKind,
};
use crate::slab::{Slab, SlotKey};
use crate::stream::{ArrivalStream, ReplayStream};

/// Per-device mutable state during a simulation run.
#[derive(Debug, Clone)]
pub(crate) struct DeviceState {
    reserved: u64,
    tenants: usize,
    /// Wall time (ns) with at least one tenant.
    pub(crate) busy_ns: u64,
    /// ∫ reserved(t) dt, in byte·ns — memory utilization numerator. Never
    /// overflows: at most `u64::MAX` bytes for `u64::MAX` ns.
    pub(crate) reserved_integral: u128,
    /// The instant the two integrals above are current as of.
    settled_ns: u64,
    pub(crate) peak_reserved: u64,
    pub(crate) peak_tenants: usize,
    /// Fault state: a failed device admits nothing (its tenants were
    /// interrupted when it failed) and `spike` bytes are withheld from
    /// admission by an injected pressure fault. Both stay at their defaults
    /// on fault-free runs, where [`DeviceState::free_bytes`] degenerates to
    /// exactly `dram − reserved`.
    failed: bool,
    spike: u64,
    /// What a ladder rung reads instead of dividing: `free_bytes` and the
    /// budget level `free / quantum`, so `level × quantum` is
    /// `quantized_budget(spec, free)`. `reserved`, `spike` and `failed`
    /// change only inside [`DeviceState::alter`], which re-derives both.
    free: u64,
    level: u8,
}

impl DeviceState {
    /// The device before any tenant or fault. (No `Default`: a device never
    /// levelled would read as a full one.)
    fn idle(spec: &DeviceSpec) -> DeviceState {
        let mut idle = DeviceState {
            reserved: 0,
            tenants: 0,
            busy_ns: 0,
            reserved_integral: 0,
            settled_ns: 0,
            peak_reserved: 0,
            peak_tenants: 0,
            failed: false,
            spike: 0,
            free: 0,
            level: 0,
        };
        idle.alter(spec, |_| ());
        idle
    }

    /// Bytes admission may still reserve on this device.
    fn free_bytes(&self, spec: &DeviceSpec) -> u64 {
        if self.failed {
            0
        } else {
            spec.dram_bytes
                .saturating_sub(self.reserved.saturating_add(self.spike))
        }
    }

    /// Apply `change`, then bring `free` and `level` up to date with it.
    fn alter(&mut self, spec: &DeviceSpec, change: impl FnOnce(&mut DeviceState)) {
        change(self);
        self.free = self.free_bytes(spec);
        self.level = u8::try_from(self.free / quantum(spec)).expect("levels stop at 63");
    }

    /// One more tenant, holding `bytes`.
    fn admit(&mut self, spec: &DeviceSpec, bytes: u64) {
        self.alter(spec, |d| d.reserved += bytes);
        self.tenants += 1;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.peak_tenants = self.peak_tenants.max(self.tenants);
    }

    /// A tenant that held `bytes` is gone.
    fn vacate(&mut self, spec: &DeviceSpec, bytes: u64) {
        self.alter(spec, |d| d.reserved -= bytes);
        self.tenants -= 1;
    }

    /// Bring the two integrals up to `now_ns`. Their integrands only step
    /// when `reserved` or `tenants` change, so settling just before either
    /// does (and once when the run ends) integrates exactly.
    fn settle(&mut self, now_ns: u64) {
        let dt = now_ns - self.settled_ns;
        if self.tenants > 0 {
            self.busy_ns += dt;
        }
        self.reserved_integral += u128::from(self.reserved) * u128::from(dt);
        self.settled_ns = now_ns;
    }
}

/// The pace a gang's devices imply under processor sharing: the most-loaded
/// of them sets it (each of `k` tenants gets `1/k` of a device), and a gang
/// — whose step time embeds all-reduce traffic — stretches with a degraded
/// link, while a solo tenant exchanges no gradients and does not.
fn gang_pace(devices: &[DeviceState], grant: &Grant, link_permille: u32) -> Pace {
    let gang = grant.placements.len() > 1;
    let link = if gang { link_permille } else { 1000 };
    Pace::new(most_tenants(devices, grant), link)
}

/// A gang's pace count: the most tenants on any of its devices.
fn most_tenants(devices: &[DeviceState], grant: &Grant) -> usize {
    let tenants = grant.placements.iter().map(|p| devices[p.device].tenants);
    tenants.max().unwrap_or(1)
}

/// Pre-resolved admission metric handles (see [`ClusterSim::enable_metrics`]).
/// Each field is written at one site: the four lifecycle events go through
/// the `on_*` methods, the fault/recovery ones are written by the one
/// event-core handler they belong to.
struct ClusterMetrics {
    submitted: Counter,
    admitted: Counter,
    rejected: Counter,
    completed: Counter,
    reject_empty_gang: Counter,
    reject_fleet_too_small: Counter,
    reject_peak_exceeds: Counter,
    latency_ns: Histogram,
    queueing_ns: Histogram,
    // Fault/recovery instrumentation (all zero on fault-free runs).
    device_failures: Counter,
    device_recoveries: Counter,
    mttr_ns: Histogram,
    jobs_interrupted: Counter,
    jobs_restarted: Counter,
    jobs_failed: Counter,
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
            retries_scheduled: reg.counter("cluster.retries.scheduled"),
            backoff_ns: reg.histogram("cluster.retries.backoff_ns"),
            wasted_iterations: reg.counter("cluster.iterations.wasted"),
        }
    }

    fn on_arrive(&self) {
        self.submitted.inc();
    }

    fn on_admit(&self, queueing_ns: u64) {
        self.admitted.inc();
        self.queueing_ns.record(queueing_ns);
    }

    fn on_reject(&self, reason: &RejectReason) {
        self.rejected.inc();
        match reason {
            RejectReason::EmptyGang => self.reject_empty_gang.inc(),
            RejectReason::FleetTooSmall { .. } => self.reject_fleet_too_small.inc(),
            RejectReason::PeakExceedsCapacity { .. } => self.reject_peak_exceeds.inc(),
        }
    }

    fn on_complete(&self, latency_ns: u64) {
        self.completed.inc();
        self.latency_ns.record(latency_ns);
    }
}

/// One live (pending, running, or parked-in-backoff) job in the slab.
struct LiveJob {
    spec: JobSpec,
    /// Arrival sequence number: ties on the event heap break toward the
    /// earliest arrival, so one instant's completions are reported in
    /// arrival order.
    seq: u64,
    arrival: SimTime,
    run: Option<RunState>,
    /// Iterations banked at the last checkpoint fold (0 fault-free).
    iters_done: u32,
    /// Backoff attempts since the last successful (re-)admission.
    attempts: u32,
    wasted_iters: u64,
    /// The grant a fault cut short, frozen for a byte-exact restart: `Some`
    /// from the interrupt until the job's next grant, which is a restart.
    resume: Option<ResumePlan>,
}

/// Execution state of a running job (see the module docs on lazy
/// progress).
struct RunState {
    grant: Grant,
    /// A gang's own progress. A single-device tenant has none: it runs on
    /// its device's [`DeviceClock`], and its device's [`Tenant`] entry holds
    /// what the clock needs.
    gang: Option<Progress>,
    /// One iteration's solo duration (checkpoint folds divide by this).
    step_ns: u64,
    /// The run's start plus the solo work it owes: no pace is faster than
    /// solo, so it cannot complete sooner (`Core::check` holds it to that).
    owed_ns: u64,
}

impl RunState {
    /// Whole iterations of the `iters` this run covers it has completed when
    /// `remaining_ns` of its solo work is left — one that ends at exactly
    /// this instant counts. Pure read: the caller decides what the
    /// checkpoint policy keeps.
    fn done_iterations(&self, iters: u32, remaining_ns: u64) -> u32 {
        if self.step_ns == 0 {
            return iters; // degenerate zero-work run: all done
        }
        let total = self.step_ns.saturating_mul(u64::from(iters));
        u32::try_from((total - remaining_ns) / self.step_ns).map_or(iters, |n| n.min(iters))
    }
}

/// A gang's lazy progress: its completion is `anchor + pace.wall(remaining)`.
struct Progress {
    /// Remaining work in ns of *solo* execution time, valid as of
    /// `anchor_ns`.
    remaining_ns: u64,
    anchor_ns: u64,
    pace: Pace,
}

impl Progress {
    /// The first instant by which the remaining work is done.
    fn completion_ns(&self) -> u64 {
        self.anchor_ns
            .saturating_add(self.pace.wall(self.remaining_ns))
    }

    /// Solo work left at `now_ns`. Never below zero: the gang would have
    /// completed first.
    fn remaining(&self, now_ns: u64) -> u64 {
        self.remaining_ns - self.pace.work(now_ns - self.anchor_ns)
    }

    /// Re-anchor at `now_ns`: fold the progress made under the pace in
    /// force since the anchor, then continue at `pace`.
    fn repace(&mut self, now_ns: u64, pace: Pace) {
        self.remaining_ns = self.remaining(now_ns);
        self.anchor_ns = now_ns;
        self.pace = pace;
    }
}

/// The clock a device's single-device tenants share: `k ≥ 1` tenants since
/// `anchor_ns`, `v` ns of solo work credited by then (see the module docs on
/// lazy progress, which define a tenant's tag and phase).
#[derive(Clone, Copy)]
struct DeviceClock {
    anchor_ns: u64,
    v: u64,
    k: u64,
}

impl DeviceClock {
    /// `(⌊a/k⌋, a mod k)` at `now_ns`.
    fn split(self, now_ns: u64) -> (u64, u64) {
        let a = now_ns - self.anchor_ns;
        (a / self.k, a % self.k)
    }

    /// The `(tag, phase)` of a tenant joining now with `work_ns` to do.
    fn join(self, now_ns: u64, work_ns: u64) -> (u64, u64) {
        let (q, r) = self.split(now_ns);
        (work_ns.saturating_add(self.v + q), r)
    }

    /// Solo work a tenant of `tag` and `phase` has left at `now_ns`.
    fn remaining(self, now_ns: u64, tag: u64, phase: u64) -> u64 {
        let (q, r) = self.split(now_ns);
        tag - self.v + u64::from(r < phase) - q
    }

    /// The first instant by which that tenant's work is done.
    fn due(self, tag: u64, phase: u64) -> u64 {
        let wall = self.k.saturating_mul(tag - self.v);
        self.anchor_ns.saturating_add(wall).saturating_add(phase)
    }

    /// Re-anchor at `now_ns` under `k` tenants, crediting every tenant
    /// `⌊a/k⌋`. Returns `a mod k`: a tenant of a larger phase had done one
    /// ns less, and must add it to its tag.
    fn fold(&mut self, now_ns: u64, k: u64) -> u64 {
        let (q, r) = self.split(now_ns);
        self.v += q;
        self.anchor_ns = now_ns;
        self.k = k;
        r
    }
}

/// One running tenant in a device's list: a gang's replica, or a
/// single-device tenant with what its device's clock keeps for it — so the
/// sweep and the heap's re-key read the list, not the slab.
#[derive(Clone, Copy)]
struct Tenant {
    key: SlotKey,
    solo: Option<Solo>,
}

/// A single-device tenant's arrival sequence (its heap tiebreak), tag and
/// phase on its device's [`DeviceClock`].
#[derive(Clone, Copy)]
struct Solo {
    seq: u64,
    tag: u64,
    phase: u64,
}

/// A device's running tenants, and the clock its single-device ones share.
#[derive(Clone)]
struct Tenants {
    list: Vec<Tenant>,
    clock: DeviceClock,
}

/// The earliest `(due, seq)` of the single-device tenants offered, its
/// tenant, and whether another is due at the same instant.
#[derive(Default)]
struct Earliest {
    first: Option<(u64, u64, SlotKey)>,
    tied: bool,
}

impl Earliest {
    fn offer(&mut self, due: u64, seq: u64, key: SlotKey) {
        match self.first {
            Some((d, s, _)) if (due, seq) > (d, s) => self.tied |= due == d,
            first => {
                self.tied = first.is_some_and(|(d, ..)| d == due);
                self.first = Some((due, seq, key));
            }
        }
    }

    /// `device`'s heap entry: `(due, seq, kind)` of the earliest, if any.
    fn entry(&self, device: usize) -> Option<(u64, u64, EventKind)> {
        let (due, seq, key) = self.first?;
        let (device, tied) = (device as u32, self.tied);
        Some((due, seq, EventKind::Solo { device, key, tied }))
    }
}

/// The walk index a rung reads. The devices as ascending (free bytes, index)
/// pairs, and where each sits in them: what a BestFit or BinPack rung walks.
/// And per device class, a census of its devices' budget levels: how many
/// show each level, and the set of levels shown (`present`), which a rung
/// resolves its rows for. A device whose free bytes change moves to its place
/// by a local insertion step, and from its old level's count to its new one.
struct ByFree<'s> {
    order: Vec<(u64, usize)>,
    rank: Vec<usize>,
    class_of: &'s [usize],
    /// Each device's level as of its last move.
    level: Vec<u8>,
    census: Vec<[u32; 64]>,
    present: Vec<u64>,
}

impl<'s> ByFree<'s> {
    /// The index of `devices`, of classes `class_of`, by a scan.
    fn new(devices: &[DeviceState], class_of: &'s [usize]) -> ByFree<'s> {
        let mut order: Vec<(u64, usize)> = devices.iter().map(|d| d.free).zip(0..).collect();
        order.sort_unstable();
        let mut rank = vec![0; order.len()];
        for (at, &(_, d)) in order.iter().enumerate() {
            rank[d] = at;
        }
        let level: Vec<u8> = devices.iter().map(|d| d.level).collect();
        let classes = class_of.iter().max().map_or(0, |c| c + 1);
        let (mut census, mut present) = (vec![[0; 64]; classes], vec![0; classes]);
        for (&l, &c) in level.iter().zip(class_of) {
            census[c][usize::from(l)] += 1;
            present[c] |= 1 << l;
        }
        ByFree {
            order,
            rank,
            class_of,
            level,
            census,
            present,
        }
    }

    /// Move `d`, whose free bytes just changed, to its place, and into its
    /// level's count if that changed too.
    fn moved(&mut self, devices: &[DeviceState], d: usize) {
        let level = devices[d].level;
        let was = std::mem::replace(&mut self.level[d], level);
        if was != level {
            let c = self.class_of[d];
            let census = &mut self.census[c];
            census[usize::from(was)] -= 1;
            census[usize::from(level)] += 1;
            if census[usize::from(was)] == 0 {
                self.present[c] &= !(1 << was);
            }
            self.present[c] |= 1 << level;
        }
        let (key, mut at) = ((devices[d].free, d), self.rank[d]);
        while at > 0 && self.order[at - 1] > key {
            self.order[at] = self.order[at - 1];
            self.rank[self.order[at].1] = at;
            at -= 1;
        }
        while at + 1 < self.order.len() && self.order[at + 1] < key {
            self.order[at] = self.order[at + 1];
            self.rank[self.order[at].1] = at;
            at += 1;
        }
        self.order[at] = key;
        self.rank[d] = at;
    }

    /// Hold the kept index to one a scan of `devices` builds.
    fn check(&self, devices: &[DeviceState]) {
        let scan = ByFree::new(devices, self.class_of);
        assert_eq!(self.order, scan.order, "walk order vs free bytes");
        assert_eq!(
            self.rank, scan.rank,
            "a device's rank vs its place in the walk order"
        );
        assert_eq!(self.level, scan.level, "a device's kept level vs its level");
        assert_eq!(
            (&self.census, &self.present),
            (&scan.census, &scan.present),
            "the level census vs a scan of the devices' levels"
        );
    }
}

/// A grant frozen for byte-exact restarts: the preset plus the per-replica
/// `(budget, predicted peak)` pairs sorted descending. Restart re-admission
/// compiles each replica at **exactly** its original budget, so the
/// profiler's plan memo returns the identical prediction — restarted peaks
/// are byte-identical to the original plan on any device of the same spec.
#[derive(PartialEq, Eq)]
struct ResumePlan {
    preset: PolicyPreset,
    replicas: Vec<(u64, u64)>,
}

fn resume_plan_of(grant: &Grant) -> ResumePlan {
    let budget_and_peak = |p: &Placement| (p.budget, p.prediction.peak_bytes);
    let mut replicas: Vec<_> = grant.placements.iter().map(budget_and_peak).collect();
    replicas.sort_unstable_by(|a, b| b.cmp(a));
    let preset = grant.preset;
    ResumePlan { preset, replicas }
}

/// What the event core tells the outside world as it goes: per-job
/// outcomes, the schedule trace and telemetry spans ([`FullRecorder`]), or
/// aggregates only ([`StreamRecorder`]), so recording cost — like everything
/// else in the streaming loop — is independent of stream length. Counters
/// and metrics are the core's own business, not a recorder's.
trait Recorder {
    fn on_arrive(&mut self, job: &LiveJob, t_ns: u64);
    fn on_admit(&mut self, job: &LiveJob, grant: &Grant, t_ns: u64);
    fn on_reject(&mut self, job: &LiveJob, reason: &RejectReason, t_ns: u64);
    fn on_complete(&mut self, job: &LiveJob, t_ns: u64);
    // Fault/recovery hooks, only reached when a fault plan is installed.
    // Default no-ops keep the streaming recorder O(1): aggregates for these
    // flow through [`CoreOutcome`] and the metrics registry instead.
    fn on_fault(&mut self, _event: &FaultEvent, _t_ns: u64) {}
    fn on_interrupt(&mut self, _job: &LiveJob, _device: usize, _t_ns: u64) {}
    fn on_restart(&mut self, _job: &LiveJob, _grant: &Grant, _exact: bool, _t_ns: u64) {}
    fn on_fail(&mut self, _job: &LiveJob, _why: &str, _t_ns: u64) {}
}

/// Full per-job recording: outcomes, the schedule trace and telemetry
/// spans. Tracks are pre-created in arrival order by [`ClusterSim::run`] so
/// the Perfetto artifact keeps its historical layout.
struct FullRecorder {
    outcomes: Vec<JobOutcome>,
    trace: Vec<TraceEvent>,
    /// The simulator's sink; off (and `tracks` empty) when untraced.
    sink: TraceSink,
    tracks: Vec<TrackId>,
    /// Lazily-created fleet-level track for fault instants (faults belong
    /// to no tenant).
    fleet_track: Option<TrackId>,
}

impl FullRecorder {
    /// One schedule-trace entry for `job` and, when tracing, the instant
    /// that mirrors it on the job's track.
    fn note(
        &mut self,
        t_ns: u64,
        job: &LiveJob,
        kind: TraceKind,
        instant: &'static str,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind,
        });
        if self.sink.is_enabled() {
            let track = self.tracks[job.seq as usize];
            self.sink.instant(track, instant, "cluster", t_ns, args());
        }
    }
}

impl Recorder for FullRecorder {
    fn on_arrive(&mut self, job: &LiveJob, t_ns: u64) {
        debug_assert_eq!(self.outcomes.len() as u64, job.seq);
        self.outcomes
            .push(JobOutcome::pending(&job.spec, job.arrival));
        self.note(t_ns, job, TraceKind::Arrive, "arrive", Vec::new);
    }

    fn on_admit(&mut self, job: &LiveJob, grant: &Grant, t_ns: u64) {
        let idx = job.seq as usize;
        let out = &mut self.outcomes[idx];
        out.started = Some(SimTime(t_ns));
        out.granted = Some(grant.preset);
        out.devices = grant.devices();
        out.reservations = grant.peaks();
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Admit {
                preset: grant.preset,
                devices: out.devices.clone(),
                reservations: out.reservations.clone(),
            },
        });
        if self.sink.is_enabled() {
            self.sink.span_with(
                self.tracks[idx],
                "queued".to_string(),
                "cluster",
                job.arrival.0,
                t_ns,
                vec![("preset", grant.preset.name().into())],
            );
        }
    }

    fn on_reject(&mut self, job: &LiveJob, reason: &RejectReason, t_ns: u64) {
        self.outcomes[job.seq as usize].rejected = Some(reason.clone());
        let kind = TraceKind::Reject {
            reason: reason.clone(),
        };
        self.note(t_ns, job, kind, "reject", || {
            vec![("reason", reason.kind().into())]
        });
    }

    fn on_complete(&mut self, job: &LiveJob, t_ns: u64) {
        let idx = job.seq as usize;
        self.outcomes[idx].completion = Some(SimTime(t_ns));
        self.trace.push(TraceEvent {
            t_ns,
            job: job.spec.name.clone(),
            kind: TraceKind::Complete,
        });
        if self.sink.is_enabled() {
            let started = self.outcomes[idx].started.map(|s| s.0).unwrap_or(0);
            let preset = self.outcomes[idx].granted.map(|p| p.name()).unwrap_or("?");
            self.sink.span_with(
                self.tracks[idx],
                "running".to_string(),
                "cluster",
                started,
                t_ns,
                vec![
                    ("preset", preset.into()),
                    ("replicas", job.spec.replicas.into()),
                ],
            );
        }
    }

    fn on_fault(&mut self, event: &FaultEvent, t_ns: u64) {
        let desc = event.describe();
        self.trace.push(TraceEvent {
            t_ns,
            job: "fleet".to_string(),
            kind: TraceKind::Fault { desc: desc.clone() },
        });
        if self.sink.is_enabled() {
            let track = *self
                .fleet_track
                .get_or_insert_with(|| self.sink.track("cluster", "faults"));
            self.sink
                .instant(track, "fault", "cluster", t_ns, vec![("what", desc.into())]);
        }
    }

    fn on_interrupt(&mut self, job: &LiveJob, device: usize, t_ns: u64) {
        self.outcomes[job.seq as usize].wasted_iterations = job.wasted_iters;
        self.note(
            t_ns,
            job,
            TraceKind::Interrupt { device },
            "interrupt",
            || vec![("device", device.into())],
        );
    }

    fn on_restart(&mut self, job: &LiveJob, grant: &Grant, exact: bool, t_ns: u64) {
        let out = &mut self.outcomes[job.seq as usize];
        out.granted = Some(grant.preset);
        out.devices = grant.devices();
        out.reservations = grant.peaks();
        out.restarts += 1;
        out.restart_peak_exact &= exact;
        out.wasted_iterations = job.wasted_iters;
        let kind = TraceKind::Restart {
            preset: grant.preset,
            devices: out.devices.clone(),
            reservations: out.reservations.clone(),
            from_iteration: job.iters_done,
        };
        self.note(t_ns, job, kind, "restart", || {
            vec![
                ("from_iter", job.iters_done.into()),
                ("exact", exact.into()),
            ]
        });
    }

    fn on_fail(&mut self, job: &LiveJob, why: &str, t_ns: u64) {
        let out = &mut self.outcomes[job.seq as usize];
        out.failed = Some(why.to_string());
        out.wasted_iterations = job.wasted_iters;
        let kind = TraceKind::Fail {
            why: why.to_string(),
        };
        self.note(t_ns, job, kind, "fail", || vec![("why", why.into())]);
    }
}

/// Aggregate-only recording for streaming runs: a fixed-size latency sketch
/// and exact queueing sums. No outcomes, no trace, no telemetry spans —
/// O(1) memory regardless of stream length.
#[derive(Default)]
struct StreamRecorder {
    latency: LatencySketch,
    queue_sum: u128,
    queue_count: u64,
}

impl Recorder for StreamRecorder {
    fn on_arrive(&mut self, _job: &LiveJob, _t_ns: u64) {}

    fn on_admit(&mut self, job: &LiveJob, _grant: &Grant, t_ns: u64) {
        self.queue_sum += u128::from(t_ns - job.arrival.0);
        self.queue_count += 1;
    }

    fn on_reject(&mut self, _job: &LiveJob, _reason: &RejectReason, _t_ns: u64) {}

    fn on_complete(&mut self, job: &LiveJob, t_ns: u64) {
        self.latency.record(t_ns - job.arrival.0);
    }
}

/// What admission remembers between calls — only what can be asked again.
///
/// `try_admit` is a pure function of the per-device reservations and the
/// job's shape, and a grant it returns is never asked for twice: admitting
/// reserves, which moves `state_version`. A *refusal* is: the shape comes up
/// again behind it in the same pass, and with every fresh arrival until
/// reservations change. So the only decisions kept are the shapes refused in
/// the current reservation state, dropped the moment it moves — no
/// reservation vector is built, hashed or compared, and nothing outlives the
/// state it was computed in.
#[derive(Default)]
struct AdmitMemo {
    /// Shapes `try_admit` refused in reservation state `blocked_at`.
    blocked: FxHashSet<ShapeKey>,
    blocked_at: u64,
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

impl AdmitMemo {
    /// The shapes refused so far in reservation state `state_version`: none
    /// yet, if the state moved since the last call.
    fn blocked(&mut self, state_version: u64) -> &mut FxHashSet<ShapeKey> {
        if self.blocked_at != state_version {
            self.blocked.clear();
            self.blocked_at = state_version;
        }
        &mut self.blocked
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

/// What admission keeps from rung to rung, for one run of one simulator.
#[derive(Default)]
struct AdmitScratch {
    /// Per (workload, batch, kind, preset): one [`Row`] of answers a device
    /// class. A rung hashes once, here; its devices then index by level.
    rows: FxHashMap<(Workload, usize, JobKind, PolicyPreset), Vec<Row>>,
    /// The gang a rung holds so far, best first.
    best: Vec<Candidate>,
}

/// What the event core hands back besides recorder contents. The counters
/// are the ones the core increments as it goes, each where its event
/// happens.
#[derive(Default)]
struct CoreOutcome {
    /// Final device states, integrals settled to `makespan`.
    devices: Vec<DeviceState>,
    makespan: SimTime,
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
    /// Fixed once the simulator is built: the classes derive from it.
    fleet: Fleet,
    placement: PlacementPolicy,
    /// The fleet's device classes in first-appearance order, and each
    /// device's: devices of one card and one budget quantum share every
    /// admission answer (see [`Row`]).
    classes: Vec<DeviceClass>,
    class_of: Vec<usize>,
    /// The largest DRAM in the fleet: BinPack's stopping floor.
    most_dram: u64,
    profiler: Profiler,
    sink: TraceSink,
    metrics: Option<ClusterMetrics>,
    faults: Option<FaultPlan>,
    recovery: RecoveryPolicy,
}

struct DeviceClass {
    /// [`DeviceSpec::card_fingerprint`] and [`quantum`] of every member.
    card: (u64, u64),
    quantum: u64,
    /// The first member: the spec a cold answer is compiled on.
    device: usize,
}

impl ClusterSim {
    pub fn new(fleet: Fleet, placement: PlacementPolicy) -> ClusterSim {
        assert!(!fleet.is_empty(), "cluster needs at least one device");
        let mut classes: Vec<DeviceClass> = Vec::new();
        let class_of = fleet.devices.iter().enumerate().map(|(device, spec)| {
            let (card, quantum) = (spec.card_fingerprint(), quantum(spec));
            let known = classes
                .iter()
                .position(|c| (c.card, c.quantum) == (card, quantum));
            known.unwrap_or_else(|| {
                classes.push(DeviceClass {
                    card,
                    quantum,
                    device,
                });
                classes.len() - 1
            })
        });
        ClusterSim {
            class_of: class_of.collect(),
            classes,
            most_dram: fleet.max_device_dram(),
            fleet,
            placement,
            profiler: Profiler::new(),
            sink: TraceSink::off(),
            metrics: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The device pool this simulator was built over.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Install a fault plan and the recovery policy applied to the tenants
    /// it interrupts. Without this call the simulator is fault-free; with an
    /// empty plan it schedules exactly as fault-free.
    pub fn enable_faults(&mut self, plan: FaultPlan, recovery: RecoveryPolicy) {
        self.faults = Some(plan);
        self.recovery = recovery;
    }

    /// Emit per-tenant scheduling tracks into `sink`: every job gets one
    /// track under the `"cluster"` process with an arrive instant, a
    /// `queued` span (arrival → admission), a `running` span (admission →
    /// completion), and a reject instant carrying the structured reason.
    /// Honored by [`ClusterSim::run`]; streaming runs
    /// ([`ClusterSim::run_stream`]) never emit per-job tracks — that would be
    /// O(stream) sink state.
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

    /// Gang step times measured by driving the group engine: one per
    /// replica plan, gang size and fabric, however many budgets that plan
    /// answered (diagnostic; zero for solo-only streams).
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
    /// "every reservation state ever" to at most 63 budgets per device class
    /// — and a rung reads them off each device's level and the shape's
    /// [`Row`]s, resolving the levels `index` says its devices show and
    /// visiting them in its order only until no later one could win (see the
    /// module docs). The ladder itself stays serial — a stronger preset is
    /// only consulted when the weaker one cannot place the gang.
    fn try_admit(
        &self,
        devices: &[DeviceState],
        index: &ByFree,
        job: &JobSpec,
        scratch: &mut AdmitScratch,
    ) -> Option<Grant> {
        if job.replicas == 0 {
            return None; // an empty gang is not a schedulable job
        }
        for preset in ladder_for(job) {
            let rows = scratch
                .rows
                .entry((job.workload, job.batch, job.kind, preset))
                .or_insert_with(|| vec![Row::EMPTY; self.classes.len()]);
            let (mut most_peak, mut least_free) = (0, u64::MAX);
            for ((row, class), &levels) in rows.iter_mut().zip(&self.classes).zip(&index.present) {
                // Level 0 offers no bytes: never asked, so never answered.
                let spec = &self.fleet.devices[class.device];
                row.resolve(levels & !1, &self.profiler, job, preset, spec);
                most_peak = most_peak.max(row.most_peak);
                least_free = least_free.min(u64::from(row.least_level) * class.quantum);
            }
            // FirstFit walks index order; BestFit and BinPack ascending free
            // bytes, past the devices too full for any level a row answered.
            let from = index.order.partition_point(|&(free, _)| free < least_free);
            let mut by_free = index.order[from..].iter().map(|&(_, d)| d);
            let mut by_index = 0..devices.len();
            let walk: &mut dyn Iterator<Item = usize> = match self.placement {
                PlacementPolicy::FirstFit => &mut by_index,
                _ => &mut by_free,
            };
            let (policy, best, replicas) = (self.placement, &mut scratch.best, job.replicas);
            best.clear();
            for device in walk {
                let d = &devices[device];
                let floor = policy.floor(device, d.free, most_peak, self.most_dram);
                if best.len() == replicas && floor > policy.key(&best[replicas - 1]) {
                    break; // no device after this one keys below its floor
                }
                let class = self.class_of[device];
                let Some(prediction) = rows[class].answer(d.level) else {
                    continue;
                };
                let candidate = Candidate {
                    prediction,
                    device,
                    free: d.free,
                    reserved: d.reserved.saturating_add(d.spike),
                    budget: u64::from(d.level) * self.classes[class].quantum,
                };
                policy.offer(candidate, replicas, best);
            }
            if best.len() == replicas {
                let placements = best.iter().map(Placement::from).collect();
                return Some(Grant { preset, placements });
            }
        }
        None
    }

    /// The walk index of `devices`, built by a scan: what
    /// [`ClusterSim::try_admit`] reads, for a caller that keeps no index.
    fn walk_index(&self, devices: &[DeviceState]) -> ByFree<'_> {
        ByFree::new(devices, &self.class_of)
    }

    /// [`ClusterSim::try_admit`] written straight down — every device asked
    /// of the profiler at its quantized budget, the fitting ones sorted, the
    /// first `replicas` taken — for debug builds to hold the rung to. It
    /// asks the keys the rung asks, so running it moves no count.
    fn try_admit_plain(&self, devices: &[DeviceState], job: &JobSpec) -> Option<Grant> {
        ladder_for(job)
            .filter(|_| job.replicas > 0)
            .find_map(|preset| {
                let ask = |(device, (spec, d)): (usize, (&DeviceSpec, &DeviceState))| {
                    let free = d.free_bytes(spec);
                    let budget = quantized_budget(spec, free);
                    let asked =
                        (budget > 0).then(|| self.profiler.profile_job(job, preset, spec, budget));
                    Some(Candidate {
                        prediction: asked.flatten()?,
                        device,
                        free,
                        reserved: d.reserved.saturating_add(d.spike),
                        budget,
                    })
                };
                let fitting = self.fleet.devices.iter().zip(devices).enumerate();
                let mut fitting: Vec<Candidate> = fitting.filter_map(ask).collect();
                fitting.sort_unstable_by_key(|c| self.placement.key(c));
                let placements = fitting.get(..job.replicas)?.iter().map(Placement::from);
                Some(Grant {
                    preset,
                    placements: placements.collect(),
                })
            })
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
        debug_assert_eq!(resume.replicas.len(), job.replicas);
        let mut used = vec![false; self.fleet.len()];
        let mut placements = Vec::with_capacity(resume.replicas.len());
        for &(budget, _) in &resume.replicas {
            let mut found = None;
            for (idx, spec) in self.fleet.devices.iter().enumerate() {
                if used[idx] || devices[idx].free < budget {
                    continue;
                }
                if let Some(prediction) =
                    self.profiler.profile_job(job, resume.preset, spec, budget)
                {
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
    fn step_time(&self, job: &JobSpec, grant: &Grant) -> SimTime {
        match job.kind {
            crate::job::JobKind::Training if job.replicas > 1 => {
                let measured = grant.slowest().and_then(|pace| {
                    self.profiler.gang_step_capped(
                        job.workload,
                        job.batch,
                        grant.preset,
                        job.replicas,
                        self.classes[self.class_of[pace.device]].card,
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
        // layout follows the input, not the schedule; empty when untraced.
        let tracks: Vec<TrackId> = if self.sink.is_enabled() {
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
            sink: self.sink.clone(),
            tracks,
            fleet_track: None,
        };
        let mut stream = ReplayStream::new(arrivals);
        let core = Core::new(self, &mut stream, &mut rec).run();
        ClusterReport::assemble(
            &self.fleet,
            self.placement,
            rec.outcomes,
            rec.trace,
            core.makespan,
            &core.devices,
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
        let core = Core::new(self, stream, &mut rec).run();

        let makespan = core.makespan;
        let (compute_utilization, memory_utilization) =
            utilization(&self.fleet, makespan, &core.devices);
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
}

/// The indexed discrete-event core (see the module docs): everything a run
/// mutates, with one handler per step of an instant. Everything observable
/// goes through `rec`; [`Core::run`] returns the device integrals and
/// counters both report types share.
struct Core<'a, R: Recorder> {
    sim: &'a ClusterSim,
    stream: &'a mut dyn ArrivalStream,
    rec: &'a mut R,
    out: CoreOutcome,
    /// The clock: the instant of the batch being handled.
    now_ns: u64,
    devices: Vec<DeviceState>,
    /// Per-device running tenants: the gangs a tenant-count change on this
    /// device can re-pace, and the single-device tenants on its clock. The
    /// re-anchor sweep walks only these.
    tenants_on: Vec<Tenants>,
    /// What a rung reads: the order a BestFit or BinPack rung walks the
    /// devices in, and the levels they show.
    by_free: ByFree<'a>,
    jobs: Slab<LiveJob>,
    heap: EventHeap,
    /// The FIFO admission queue; `pending[fresh_from..]` joined it at this
    /// instant.
    pending: Vec<SlotKey>,
    fresh_from: usize,
    memo: AdmitMemo,
    scratch: AdmitScratch,
    /// The arrival pulled one ahead of the clock.
    next_arrival: Option<(SimTime, JobSpec)>,
    next_seq: u64,
    running: usize,
    /// Jobs parked in backoff: live slab slots that are neither queued nor
    /// running until their retry fires.
    parked: usize,
    /// Reservation-state version, bumped on every reserve/release.
    /// `pass_version` is the version every *currently queued* job was last
    /// (provably) evaluated at; when they match, the FIFO pass can skip
    /// straight to this instant's fresh arrivals — the old entries'
    /// re-evaluation would be a pure replay ending in "still pending".
    state_version: u64,
    pass_version: u64,
    // Fault state; inert without a plan.
    faults: Vec<(SimTime, FaultEvent)>,
    next_fault: usize,
    link_permille: u32,
    /// The link speed moved this instant: every gang may re-pace.
    link_moved: bool,
    /// Bumped on every fail/recover: scopes the live-subset feasibility
    /// memo.
    fault_epoch: u64,
    fail_since: Vec<Option<u64>>,
    // This instant's work lists, reused from instant to instant: a
    // steady-state event allocates only for what it leaves behind (a
    // grant).
    completions: Vec<SlotKey>,
    /// Devices whose tenant set changed this instant — the re-anchor sweep
    /// visits exactly their clocks, and those of their gangs whose pace can
    /// have moved.
    affected: Vec<usize>,
    /// By slab slot: the pace count of the running gang there — the most
    /// tenants on any of its devices as of its last (re-)pace.
    pace_count: Vec<u32>,
    kept: Vec<SlotKey>,
}

impl<'a, R: Recorder> Core<'a, R> {
    fn new(sim: &'a ClusterSim, stream: &'a mut dyn ArrivalStream, rec: &'a mut R) -> Self {
        let n = sim.fleet.len();
        let devices: Vec<DeviceState> = sim.fleet.devices.iter().map(DeviceState::idle).collect();
        let clock = DeviceClock {
            anchor_ns: 0,
            v: 0,
            k: 1,
        };
        let mut core = Core {
            sim,
            stream,
            rec,
            out: CoreOutcome::default(),
            now_ns: 0,
            by_free: sim.walk_index(&devices),
            devices,
            tenants_on: vec![
                Tenants {
                    list: Vec::new(),
                    clock
                };
                n
            ],
            jobs: Slab::new(),
            heap: EventHeap::new(n),
            pending: Vec::new(),
            fresh_from: 0,
            memo: AdmitMemo::default(),
            scratch: AdmitScratch::default(),
            next_arrival: None,
            next_seq: 0,
            running: 0,
            parked: 0,
            state_version: 0,
            pass_version: 0,
            faults: sim
                .faults
                .clone()
                .map(|p| p.into_events())
                .unwrap_or_default(),
            next_fault: 0,
            link_permille: 1000,
            link_moved: false,
            fault_epoch: 0,
            fail_since: vec![None; n],
            completions: Vec::new(),
            affected: Vec::new(),
            pace_count: Vec::new(),
            kept: Vec::new(),
        };
        if let Some((t, _)) = core.faults.first() {
            core.heap.set(EventKind::FaultDue, t.0, u64::MAX - 1);
        }
        core.next_arrival = core.stream.next_job();
        if let Some((t, _)) = &core.next_arrival {
            core.heap.set(EventKind::Arrival, t.0, u64::MAX);
        }
        core
    }

    /// Handle instant after instant until no event is left.
    fn run(mut self) -> CoreOutcome {
        while self.instant() {}
        // Under faults a job can terminally wait out a pressure spike that
        // never lifts; it is reported as still queued.
        debug_assert!(
            self.sim.faults.is_some() || self.pending.is_empty(),
            "queued jobs with no future events"
        );
        for d in &mut self.devices {
            d.settle(self.now_ns);
        }
        CoreOutcome {
            devices: self.devices,
            makespan: SimTime(self.now_ns),
            peak_live: self.jobs.capacity(),
            still_queued: self.pending.len() as u64,
            ..self.out
        }
    }

    /// Handle the next instant, `false` if no event is left: the steps in the
    /// order that defines the schedule, then (debug builds) the invariants.
    fn instant(&mut self) -> bool {
        // Every queued entry is live (see `event_heap`), so the earliest is
        // the next instant.
        let Some(t_ns) = self.heap.peek() else {
            return false;
        };
        let before = self.now_ns;
        let (arrival_due, fault_due) = self.pop_due(t_ns);
        self.complete_due();
        if fault_due {
            self.apply_faults();
        }
        if arrival_due {
            self.take_arrivals();
        }
        self.admission_pass();
        self.reanchor_sweep();
        if cfg!(debug_assertions) {
            self.check(before);
        }
        true
    }

    /// Move the clock to `t_ns` and pop everything due then *before*
    /// handling any of it: what the handlers push for this same instant (a
    /// zero-work job admitted now completes now) is the next batch. Pops at
    /// one instant ascend by arrival sequence, so completions come out in
    /// the order they are reported in, and parked jobs whose backoff expired
    /// re-enter the queue in it — ahead of this instant's arrivals (they
    /// arrived earlier) and at or past `fresh_from`, so even a pass that
    /// skips the unchanged queue re-evaluates them.
    fn pop_due(&mut self, t_ns: u64) -> (bool, bool) {
        self.now_ns = t_ns;
        self.completions.clear();
        self.affected.clear();
        self.link_moved = false;
        self.fresh_from = self.pending.len();
        let (mut arrival_due, mut fault_due) = (false, false);
        while self.heap.peek() == Some(t_ns) {
            let ev = self.heap.pop().expect("peeked entry");
            match ev.kind {
                EventKind::Completion { key } => self.completions.push(key),
                EventKind::Solo { device, key, tied } => {
                    self.completions.push(key);
                    if tied {
                        self.requeue_tied(device as usize, t_ns, ev.order);
                    }
                }
                EventKind::Retry { key } => {
                    self.pending.push(key);
                    self.parked -= 1;
                }
                EventKind::Arrival => arrival_due = true,
                EventKind::FaultDue => fault_due = true,
            }
        }
        (arrival_due, fault_due)
    }

    /// `device`'s entry popped with another of its single-device tenants due
    /// at this same instant: queue it again for the next of them by arrival
    /// sequence, after `seq`. (The sweep keys a later one: this completion
    /// makes it visit the device.)
    fn requeue_tied(&mut self, device: usize, t_ns: u64, seq: u64) {
        let Tenants { list, clock } = &self.tenants_on[device];
        let mut next = Earliest::default();
        for t in list {
            let Some(solo) = t.solo else { continue };
            if solo.seq > seq && clock.due(solo.tag, solo.phase) == t_ns {
                next.offer(t_ns, solo.seq, t.key);
            }
        }
        let (t_ns, seq, kind) = next.entry(device).expect("a tied entry has a next");
        self.heap.set(kind, t_ns, seq);
    }

    /// Completions first: they free capacity for same-instant arrivals.
    fn complete_due(&mut self) {
        for i in 0..self.completions.len() {
            let key = self.completions[i];
            let mut job = self.jobs.remove(key).expect("queued completions are live");
            let run = job.run.take().expect("queued completions are running");
            self.release(key, &run.grant);
            self.running -= 1;
            self.out.completed += 1;
            self.out.useful_iters += u64::from(job.spec.iterations);
            self.out.events += 1;
            if let Some(m) = &self.sim.metrics {
                m.on_complete(self.now_ns - job.arrival.0);
            }
            self.rec.on_complete(&job, self.now_ns);
        }
    }

    /// Take a gang's bytes and tenant slots off its devices — all replicas
    /// at once, whichever of them the cause was.
    fn release(&mut self, key: SlotKey, grant: &Grant) {
        for p in &grant.placements {
            let d = &mut self.devices[p.device];
            d.settle(self.now_ns);
            d.vacate(&self.sim.fleet.devices[p.device], p.prediction.peak_bytes);
            self.by_free.moved(&self.devices, p.device);
            let list = &mut self.tenants_on[p.device].list;
            let pos = list
                .iter()
                .position(|t| t.key == key)
                .expect("tenant listed");
            list.swap_remove(pos);
            self.affected.push(p.device);
        }
        self.state_version += 1;
    }

    /// Land a grant's reservations and tenant slots on its devices (a
    /// single-device tenant joins its device's clock in [`Core::start`]).
    fn reserve(&mut self, key: SlotKey, grant: &Grant) {
        for p in &grant.placements {
            let d = &mut self.devices[p.device];
            d.settle(self.now_ns);
            d.admit(&self.sim.fleet.devices[p.device], p.prediction.peak_bytes);
            self.by_free.moved(&self.devices, p.device);
            let list = &mut self.tenants_on[p.device].list;
            list.push(Tenant { key, solo: None });
            self.affected.push(p.device);
        }
        self.state_version += 1;
    }

    /// Injected faults due at this instant, in plan order; then the marker
    /// for the next batch.
    fn apply_faults(&mut self) {
        while let Some(&(t, ev)) = self.faults.get(self.next_fault) {
            if t.0 > self.now_ns {
                self.heap.set(EventKind::FaultDue, t.0, u64::MAX - 1);
                break;
            }
            self.next_fault += 1;
            self.apply_fault(ev);
        }
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        let n = self.devices.len();
        // An event that changes nothing — a device already in that state, a
        // link already at that speed, a device index out of range — is
        // dropped without a trace.
        let applies = match ev {
            FaultEvent::DeviceFail { device } => device < n && !self.devices[device].failed,
            FaultEvent::DeviceRecover { device } => device < n && self.devices[device].failed,
            FaultEvent::LinkDegrade { permille } => permille.max(1) != self.link_permille,
            FaultEvent::LinkRestore => self.link_permille != 1000,
            FaultEvent::PressureSpike { device, .. }
            | FaultEvent::PressureRelease { device, .. } => device < n,
        };
        if !applies {
            return;
        }
        self.out.events += 1;
        self.rec.on_fault(&ev, self.now_ns);
        let specs = &self.sim.fleet.devices;
        match ev {
            FaultEvent::DeviceFail { device } => {
                self.devices[device].alter(&specs[device], |d| d.failed = true);
                self.by_free.moved(&self.devices, device);
                self.fail_since[device] = Some(self.now_ns);
                self.state_version += 1;
                self.fault_epoch += 1;
                if let Some(m) = &self.sim.metrics {
                    m.device_failures.inc();
                }
                // Interrupt every gang with a replica here, in list order
                // (each interrupt takes its gang off the list).
                for victim in self.tenants_on[device].list.clone() {
                    self.interrupt(victim.key, device);
                }
            }
            FaultEvent::DeviceRecover { device } => {
                self.devices[device].alter(&specs[device], |d| d.failed = false);
                self.by_free.moved(&self.devices, device);
                self.state_version += 1;
                self.fault_epoch += 1;
                if let Some(m) = &self.sim.metrics {
                    m.device_recoveries.inc();
                    if let Some(since) = self.fail_since[device].take() {
                        m.mttr_ns.record(self.now_ns - since);
                    }
                }
            }
            FaultEvent::LinkDegrade { permille } => self.set_link(permille.max(1)),
            FaultEvent::LinkRestore => self.set_link(1000),
            FaultEvent::PressureSpike { device, bytes } => {
                let spike = |d: &mut DeviceState| d.spike = d.spike.saturating_add(bytes);
                self.devices[device].alter(&specs[device], spike);
                self.by_free.moved(&self.devices, device);
                self.state_version += 1;
            }
            FaultEvent::PressureRelease { device, bytes } => {
                let lift = |d: &mut DeviceState| d.spike = d.spike.saturating_sub(bytes);
                self.devices[device].alter(&specs[device], lift);
                self.by_free.moved(&self.devices, device);
                self.state_version += 1;
            }
        }
    }

    fn set_link(&mut self, permille: u32) {
        self.link_permille = permille;
        self.link_moved = true;
        self.affected.extend(0..self.devices.len());
    }

    /// A device under `key`'s gang failed: the whole gang stops — ALL
    /// replicas' reservations and tenant slots release, not just that
    /// device's — folds to its checkpoint, and either parks in backoff or,
    /// with no recovery left, fails for good.
    fn interrupt(&mut self, key: SlotKey, device: usize) {
        let sim = self.sim;
        let job = self
            .jobs
            .get_mut(key)
            .expect("tenant lists track live jobs");
        let run = job.run.take().expect("listed tenants are running");
        let attempts = job.attempts;
        let done = self.done_iterations(key, &run);
        self.heap.remove_completion(key);
        self.release(key, &run.grant);
        self.running -= 1;
        self.out.interrupted += 1;
        self.out.events += 1;
        if let Some(m) = &sim.metrics {
            m.jobs_interrupted.inc();
        }
        let why = match sim.recovery.mode {
            RecoveryMode::NoRecovery => Some(format!("device {device} failed (no recovery)")),
            _ if attempts >= sim.recovery.max_retries => Some(format!(
                "device {device} failed after {} retries",
                sim.recovery.max_retries
            )),
            _ => None,
        };
        // Fold the `done` iterations into the checkpoint. What the checkpoint
        // policy does not keep — everything, for a job that will not run
        // again — is banked as wasted work.
        let job = self.jobs.get_mut(key).expect("interrupted jobs stay live");
        let total = job.iters_done + done;
        let kept = match why {
            None => sim.recovery.checkpointed(job.spec.kind, total),
            Some(_) => 0,
        };
        let waste = u64::from(total - kept);
        job.iters_done = kept;
        job.wasted_iters += waste;
        self.out.wasted_iters += waste;
        if let Some(m) = &sim.metrics {
            m.wasted_iterations.add(waste);
        }
        if why.is_none() {
            job.resume = Some(resume_plan_of(&run.grant));
            self.park(key);
        }
        let job = self.jobs.get(key).expect("interrupted jobs stay live");
        self.rec.on_interrupt(job, device, self.now_ns);
        if let Some(why) = why {
            self.fail(key, &why);
        }
    }

    /// Park a job in capped exponential backoff: it re-enters the queue
    /// when its retry pops.
    fn park(&mut self, key: SlotKey) {
        let job = self.jobs.get_mut(key).expect("parked jobs are live");
        let delay = self.sim.recovery.backoff_delay(job.attempts, job.seq);
        job.attempts += 1;
        let due = self.now_ns.saturating_add(delay.0);
        self.heap.set(EventKind::Retry { key }, due, job.seq);
        self.parked += 1;
        if let Some(m) = &self.sim.metrics {
            m.retries_scheduled.inc();
            m.backoff_ns.record(delay.0);
        }
    }

    /// `key`'s job fails for good.
    fn fail(&mut self, key: SlotKey, why: &str) {
        let job = self.jobs.remove(key).expect("failing jobs are live");
        self.rec.on_fail(&job, why, self.now_ns);
        self.out.failed += 1;
        self.out.events += 1;
        if let Some(m) = &self.sim.metrics {
            m.jobs_failed.inc();
        }
    }

    /// Arrivals due now join the queue in pull order. An [`ArrivalStream`]
    /// that yields a time earlier than the clock has that arrival taken
    /// now, so the marker for the next one is always in the future.
    fn take_arrivals(&mut self) {
        while let Some((_, spec)) = self.next_arrival.take_if(|(t, _)| t.0 <= self.now_ns) {
            let key = self.jobs.insert(LiveJob {
                spec,
                seq: self.next_seq,
                arrival: SimTime(self.now_ns),
                run: None,
                iters_done: 0,
                attempts: 0,
                wasted_iters: 0,
                resume: None,
            });
            self.next_seq += 1;
            self.pending.push(key);
            self.out.submitted += 1;
            self.out.events += 1;
            if let Some(m) = &self.sim.metrics {
                m.on_arrive();
            }
            let job = self.jobs.get(key).expect("just inserted");
            self.rec.on_arrive(job, self.now_ns);
            self.next_arrival = self.stream.next_job();
        }
        if let Some((t, _)) = &self.next_arrival {
            self.heap.set(EventKind::Arrival, t.0, u64::MAX);
        }
    }

    /// Admission/placement pass: FIFO with backfill — a blocked job stays
    /// queued while later, smaller jobs may slot in behind it. When
    /// reservations haven't changed since the queue was last evaluated,
    /// only this instant's fresh entries are worth asking about (see
    /// `pass_version`).
    fn admission_pass(&mut self) {
        let full_pass = self.state_version != self.pass_version;
        let start = if full_pass { 0 } else { self.fresh_from };
        let version_at_pass_start = self.state_version;
        self.kept.clear();
        for i in start..self.pending.len() {
            let key = self.pending[i];
            match self.decide(key) {
                Some(grant) => self.admit(key, grant),
                None => {
                    if self.wait_or_give_up(key) {
                        self.kept.push(key);
                    }
                }
            }
        }
        self.pending.truncate(start);
        self.pending.extend_from_slice(&self.kept);
        if full_pass {
            // If the pass admitted anything, state_version moved past this
            // and the next event re-evaluates everyone — a job evaluated
            // early in the pass saw pre-admission state.
            self.pass_version = version_at_pass_start;
        }
        self.out.peak_concurrent = self.out.peak_concurrent.max(self.running);
    }

    /// The grant `key`'s job gets now, if any.
    fn decide(&mut self, key: SlotKey) -> Option<Grant> {
        let sim = self.sim;
        let job = self.jobs.get(key).expect("pending jobs are live");
        match &job.resume {
            // A job granted before carries its frozen plan: restart
            // re-admission is budget-exact, never a fresh search.
            Some(plan) => sim.try_admit_resume(&self.devices, &job.spec, plan),
            None => {
                let shape = shape_key(&job.spec);
                let blocked = self.memo.blocked(self.state_version);
                if blocked.contains(&shape) {
                    return None;
                }
                let grant =
                    sim.try_admit(&self.devices, &self.by_free, &job.spec, &mut self.scratch);
                // Debug builds hold every answer to the ladder written
                // straight down.
                debug_assert_eq!(grant, sim.try_admit_plain(&self.devices, &job.spec));
                if grant.is_none() {
                    blocked.insert(shape);
                }
                grant
            }
        }
    }

    /// Start (or restart) `key`'s job under `grant`.
    fn admit(&mut self, key: SlotKey, grant: Grant) {
        let sim = self.sim;
        self.reserve(key, &grant);
        let job = self.jobs.get_mut(key).expect("pending jobs are live");
        if let Some(cut_short) = job.resume.take() {
            // Gate: the re-admitted plan must be byte-identical to the one
            // the fault cut short — same sorted (budget, peak) vector, peaks
            // straight from the shared plan memo.
            let exact = cut_short == resume_plan_of(&grant);
            self.out.restarts += 1;
            if let Some(m) = &sim.metrics {
                m.jobs_restarted.inc();
            }
            self.rec.on_restart(job, &grant, exact, self.now_ns);
        } else {
            if let Some(m) = &sim.metrics {
                m.on_admit(self.now_ns - job.arrival.0);
            }
            self.rec.on_admit(job, &grant, self.now_ns);
        }
        job.attempts = 0;
        self.start(key, grant);
        self.running += 1;
        self.out.events += 1;
    }

    /// Run `key`'s job's remaining iterations under `grant` from now. A gang
    /// gets its own progress and heap entry; its pace is read *after* its
    /// own reservations landed, and if a later same-pass admission changes
    /// it, the sweep folds that in (a zero-elapsed re-anchor). A
    /// single-device tenant joins its device's clock, and the sweep keys the
    /// device's entry.
    fn start(&mut self, key: SlotKey, grant: Grant) {
        let now = self.now_ns;
        let job = self.jobs.get_mut(key).expect("started jobs are live");
        let step = self.sim.step_time(&job.spec, &grant);
        let iters = job.spec.iterations - job.iters_done;
        let work = step.0.saturating_mul(u64::from(iters));
        let gang = if grant.placements.len() > 1 {
            let most = most_tenants(&self.devices, &grant);
            let slot = key.index();
            if slot >= self.pace_count.len() {
                self.pace_count.resize(slot + 1, 0);
            }
            self.pace_count[slot] = most as u32;
            let pace = Pace::new(most, self.link_permille);
            let progress = Progress {
                remaining_ns: work,
                anchor_ns: now,
                pace,
            };
            let kind = EventKind::Completion { key };
            self.heap.set(kind, progress.completion_ns(), job.seq);
            Some(progress)
        } else {
            let device = grant.placements[0].device;
            let Tenants { list, clock } = &mut self.tenants_on[device];
            if self.devices[device].tenants == 1 {
                // Alone on its device, it restarts the clock: a tag stays
                // within the work of one busy period.
                (clock.anchor_ns, clock.v) = (now, 0);
            }
            let (tag, phase) = clock.join(now, work);
            let t = list.iter_mut().rev().find(|t| t.key == key);
            let seq = job.seq;
            t.expect("tenant listed").solo = Some(Solo { seq, tag, phase });
            self.affected.push(device);
            None
        };
        job.run = Some(RunState {
            grant,
            gang,
            step_ns: step.0,
            owed_ns: now.saturating_add(work),
        });
    }

    /// [`RunState::done_iterations`] of `key`'s `run` as of now, read off
    /// its own progress or its device's clock. The run covers what its job
    /// had left at the grant: `iters_done` holds still while it runs.
    fn done_iterations(&self, key: SlotKey, run: &RunState) -> u32 {
        let job = self.jobs.get(key).expect("running jobs are live");
        let remaining = match &run.gang {
            Some(progress) => progress.remaining(self.now_ns),
            None => {
                let Tenants { list, clock } = &self.tenants_on[run.grant.placements[0].device];
                let t = list.iter().find(|t| t.key == key);
                let solo = t.and_then(|t| t.solo).expect("solo tenants are on a clock");
                clock.remaining(self.now_ns, solo.tag, solo.phase)
            }
        };
        run.done_iterations(job.spec.iterations - job.iters_done, remaining)
    }

    /// What becomes of a job admission could not place, three-way: it waits
    /// (feasible on the live devices — `true`, it stays queued), backs off
    /// (only an outage blocks it), or is rejected / fails. With no device
    /// failed the live subset is the fleet, so the middle way is never taken
    /// and a shape's feasibility is asked once per run, not once per pass.
    fn wait_or_give_up(&mut self, key: SlotKey) -> bool {
        let sim = self.sim;
        let job = self.jobs.get(key).expect("pending jobs are live");
        if self.memo.feasible_epoch != self.fault_epoch {
            self.memo.feasible.clear();
            self.memo.feasible_epoch = self.fault_epoch;
        }
        let shape = shape_key(&job.spec);
        let devices = &self.devices;
        let feasible_live = *self.memo.feasible.entry(shape).or_insert_with(|| {
            let live: Vec<&sn_sim::DeviceSpec> = sim
                .fleet
                .devices
                .iter()
                .zip(devices)
                .filter(|(_, d)| !d.failed)
                .map(|(s, _)| s)
                .collect();
            feasible_on_device_subset(&sim.profiler, &live, &job.spec)
        });
        if feasible_live {
            return true; // wait for capacity
        }
        let feasible_full = *self
            .memo
            .feasible_full
            .entry(shape)
            .or_insert_with(|| feasible_on_idle_fleet(&sim.profiler, &sim.fleet, &job.spec));
        if !feasible_full {
            // It would never fit even on a healthy idle fleet: the classic
            // reject reasons apply.
            let reason = sim.reject_reason(&job.spec);
            if let Some(m) = &sim.metrics {
                m.on_reject(&reason);
            }
            self.rec.on_reject(job, &reason, self.now_ns);
            self.jobs.remove(key);
            self.out.rejected += 1;
            self.out.events += 1;
        } else if sim.recovery.mode == RecoveryMode::NoRecovery {
            return true; // wait for the fleet to heal
        } else if job.attempts >= sim.recovery.max_retries {
            let why = format!("no live placement after {} retries", job.attempts);
            self.fail(key, &why);
        } else {
            self.park(key);
        }
        false
    }

    /// Re-anchor sweep: exactly the devices whose tenant set changed this
    /// instant. A device whose tenant count moved from `k_old` (its clock's)
    /// to `k` folds its clock — the single-device tenants' progress, all at
    /// once. A gang there of pace count `m` can have a new pace only if
    /// `k > m`, if `k < k_old == m`, or if the link moved (see the module
    /// docs); it alone is visited. One whose pace moved folds its own
    /// progress forward under the old pace, restarts its anchor at `now` and
    /// has its completion re-keyed where it sits in the heap; a gang reached
    /// through two affected devices is re-anchored once — a second visit
    /// sees the new pace already in place. Last, the device's entry is keyed
    /// by its earliest single-device tenant.
    fn reanchor_sweep(&mut self) {
        self.affected.sort_unstable();
        self.affected.dedup();
        for &d in &self.affected {
            let k = self.devices[d].tenants.max(1) as u64;
            let Tenants { list, clock } = &mut self.tenants_on[d];
            let k_old = clock.k;
            let folded = (k != k_old).then(|| clock.fold(self.now_ns, k));
            let mut earliest = Earliest::default();
            for t in list {
                let Some(solo) = &mut t.solo else {
                    let m = u64::from(self.pace_count[t.key.index()]);
                    if !(k > m || (k < k_old && k_old == m) || self.link_moved) {
                        continue;
                    }
                    let job = self
                        .jobs
                        .get_mut(t.key)
                        .expect("tenant lists track live jobs");
                    let run = job.run.as_mut().expect("listed tenants are running");
                    let progress = run.gang.as_mut().expect("a gang keeps its own progress");
                    let most = most_tenants(&self.devices, &run.grant);
                    let pace = Pace::new(most, self.link_permille);
                    if pace != progress.pace {
                        progress.repace(self.now_ns, pace);
                        self.pace_count[t.key.index()] = most as u32;
                        let kind = EventKind::Completion { key: t.key };
                        self.heap.set(kind, progress.completion_ns(), job.seq);
                    }
                    continue;
                };
                if let Some(r) = folded {
                    // It joined `phase` ns into a unit of k: if the fold
                    // lands earlier in its unit, ⌊a/k⌋ credits it one ns of
                    // work it has not yet done.
                    solo.tag += u64::from(r < solo.phase);
                    solo.phase = 0;
                }
                earliest.offer(clock.due(solo.tag, solo.phase), solo.seq, t.key);
            }
            match earliest.entry(d) {
                Some((t_ns, seq, kind)) => self.heap.set(kind, t_ns, seq),
                None => self.heap.remove_solo(d),
            }
        }
    }

    /// The state's invariants, verified after every instant in debug
    /// builds (`before` is the previous instant).
    fn check(&self, before: u64) {
        assert!(self.now_ns >= before, "the clock ran backwards");
        assert_eq!(
            self.jobs.len(),
            self.pending.len() + self.running + self.parked,
            "a live slot is exactly one queued, running or parked job"
        );
        let (mut running, mut gangs) = (0, 0);
        for (d, Tenants { list, clock }) in self.tenants_on.iter().enumerate() {
            let dev = &self.devices[d];
            assert_eq!(dev.tenants, list.len(), "device {d}: tenant count vs list");
            let mut earliest = Earliest::default();
            let k = dev.tenants.max(1) as u64;
            assert_eq!(clock.k, k, "device {d}: its clock vs its tenant count");
            let mut reserved = 0u64;
            for t in list {
                let job = self.jobs.get(t.key).expect("tenant lists track live jobs");
                let run = job.run.as_ref().expect("listed tenants are running");
                let here = run.grant.placements.iter().position(|p| p.device == d);
                let here = here.expect("a listed gang has a replica on the device");
                reserved += run.grant.placements[here].prediction.peak_bytes;
                if here > 0 {
                    continue; // count and check each gang once, at its first replica
                }
                running += 1;
                let owes = |due: u64| {
                    assert!(
                        due >= run.owed_ns,
                        "job {}: completes before its start plus the solo work it owes",
                        job.spec.name
                    );
                };
                let Some(progress) = &run.gang else {
                    let solo = t.solo.expect("a single-device tenant is on its clock");
                    assert_eq!(solo.seq, job.seq, "job {}: a stale sequence", job.spec.name);
                    let due = clock.due(solo.tag, solo.phase);
                    owes(due);
                    earliest.offer(due, job.seq, t.key);
                    continue;
                };
                gangs += 1;
                assert!(t.solo.is_none(), "job {}: a gang on a clock", job.spec.name);
                owes(progress.completion_ns());
                assert_eq!(
                    self.heap.completion(t.key),
                    Some(progress.completion_ns()),
                    "job {}: queued completion is not anchor + pace.wall(remaining)",
                    job.spec.name
                );
                assert_eq!(
                    progress.pace,
                    gang_pace(&self.devices, &run.grant, self.link_permille),
                    "job {}: pace is not the one its devices imply after the sweep",
                    job.spec.name
                );
                assert_eq!(
                    self.pace_count[t.key.index()] as usize,
                    most_tenants(&self.devices, &run.grant),
                    "job {}: its kept pace count vs the most tenants on its devices",
                    job.spec.name
                );
            }
            let entry = self.heap.solo(d).map(|ev| (ev.t_ns, ev.order, ev.kind));
            let want = earliest.entry(d);
            assert_eq!(
                entry, want,
                "device {d}: its entry vs its earliest solo tenant"
            );
            assert_eq!(
                dev.reserved, reserved,
                "device {d}: reserved vs Σ tenant peaks"
            );
            let spec = &self.sim.fleet.devices[d];
            let free = dev.free_bytes(spec);
            assert_eq!(
                (dev.free, u64::from(dev.level)),
                (free, free / quantum(spec)),
                "device {d}: free bytes and budget level vs their definitions"
            );
            assert!(
                reserved <= self.sim.fleet.devices[d].dram_bytes,
                "device {d}: reservations exceed DRAM"
            );
        }
        assert_eq!(running, self.running, "running count vs tenant lists");
        assert_eq!(
            self.heap.completions(),
            gangs,
            "exactly one queued completion per running gang"
        );
        self.by_free.check(&self.devices);
        // A set left over from an earlier reservation state is emptied
        // before it is next read, so it claims nothing now.
        if self.memo.blocked_at == self.state_version {
            for &key in &self.pending {
                let job = &self.jobs.get(key).expect("pending jobs are live").spec;
                let shape = shape_key(job);
                if self.memo.blocked.contains(&shape) {
                    assert!(
                        self.sim.try_admit_plain(&self.devices, job).is_none(),
                        "job {}: its shape is in the blocked set of a state that admits it",
                        job.name
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::synthetic_stream;
    use proptest::prelude::*;
    use sn_runtime::Interconnect;

    /// A gang's run of `iters` steps of `step` ns from `now_ns` at `pace`.
    fn gang_run(step: u64, iters: u32, now_ns: u64, pace: Pace) -> (RunState, Progress) {
        let grant = Grant {
            preset: PolicyPreset::Baseline,
            placements: Vec::new(),
        };
        let remaining_ns = step * u64::from(iters);
        let run = RunState {
            grant,
            gang: None,
            step_ns: step,
            owed_ns: now_ns + remaining_ns,
        };
        let progress = Progress {
            remaining_ns,
            anchor_ns: now_ns,
            pace,
        };
        (run, progress)
    }

    #[test]
    fn an_iteration_that_ends_exactly_now_is_counted() {
        // 7 ns steps at 20/3 wall ns per work ns (2 tenants, link at 300‰):
        // iteration k ends at the first instant by which 7k ns are done.
        let pace = Pace::new(2, 300);
        let (run, mut progress) = gang_run(7, 5, 100, pace);
        let done = |p: &Progress, t: u64| run.done_iterations(5, p.remaining(t));
        for k in 1..=5u32 {
            let ends = 100 + pace.wall(7 * u64::from(k));
            assert_eq!(done(&progress, ends), k, "iteration {k} ends at {ends}");
            assert_eq!(done(&progress, ends - 1), k - 1, "and not a ns sooner");
        }
        assert_eq!(progress.completion_ns(), 100 + pace.wall(35));
        // A re-anchor mid-iteration floors the fold (50 ns at 20/3 is 7.5 ns
        // of work, credited as 7) and the count carries on from it.
        progress.repace(150, Pace::new(3, 1000));
        assert_eq!((progress.remaining_ns, progress.anchor_ns), (28, 150));
        assert_eq!(done(&progress, 150), 1);
        assert_eq!(done(&progress, 170), 1);
        assert_eq!(done(&progress, 171), 2);
        assert_eq!(progress.completion_ns(), 150 + 3 * 28);
        assert_eq!(done(&progress, progress.completion_ns()), 5);
        // A zero-work run is done the moment it starts.
        let (zero, progress) = gang_run(0, 4, 9, pace);
        assert_eq!(zero.done_iterations(4, progress.remaining(9)), 4);
        assert_eq!(progress.completion_ns(), 9);
    }

    /// Two cards, three quanta, four classes: a capacity that is no multiple
    /// of 32 beside the one it shares a quantum (and so a class) with, the
    /// same capacity on another card, and two devices under 64 bytes, where
    /// the quantum is one byte and levels run to 40 and to 63.
    fn mixed_fleet() -> Fleet {
        let card = |dram: u64| DeviceSpec::k40c().with_dram(dram);
        let other = |dram: u64| {
            let mut slow = card(dram);
            slow.mem_bw_gbps /= 2.0;
            slow
        };
        let devices = vec![
            card(24 << 20),
            card(24 << 20),
            other((20 << 20) + 7),
            card((24 << 20) + 13),
            other(24 << 20),
            card(40),
            other((20 << 20) + 7),
            card(24 << 20),
            card(63),
        ];
        Fleet {
            devices,
            interconnect: Interconnect::pcie(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_rung_answers_as_the_ladder_written_straight_down(
            // Per device: reserved ‰ of DRAM, spike ‰ + 500, failed if 0 —
            // applied in an order the last draw rotates, so each of the
            // three is sometimes the one whose levelling stands.
            draws in proptest::collection::vec((0u64..1001, 0u64..1001, 0usize..8), 18..19),
        ) {
            let fleet = mixed_fleet();
            let states = draws.chunks(fleet.len()).map(|state| -> Vec<DeviceState> {
                let device = |(&(reserved, spike, failed), spec): (&(u64, u64, usize), &DeviceSpec)| {
                    let mut d = DeviceState::idle(spec);
                    for step in 0..3 {
                        match (step + failed) % 3 {
                            0 => d.alter(spec, |d| d.failed = failed == 0),
                            1 => d.admit(spec, spec.dram_bytes * reserved / 1000),
                            _ => d.alter(spec, |d| {
                                d.spike = spec.dram_bytes * spike.saturating_sub(500) / 1000
                            }),
                        }
                    }
                    d
                };
                state.iter().zip(&fleet.devices).map(device).collect()
            });
            let states: Vec<Vec<DeviceState>> = states.collect();
            // Baseline wants 17.7 MB of a device, the full stack 3.4 MB.
            let w = Workload::Synthetic { width: 16, depth: 4 };
            for policy in PlacementPolicy::ALL {
                let sim = ClusterSim::new(fleet.clone(), policy);
                // One scratch for both states: the second is answered from
                // rows the first, a different one, filled.
                let mut warm = AdmitScratch::default();
                for devices in &states {
                    for (replicas, downgrade) in [(1, true), (2, true), (4, true), (1, false), (2, false), (4, false)] {
                        let job = JobSpec::new("j", w, 16)
                            .with_preset(PolicyPreset::Baseline)
                            .with_replicas(replicas)
                            .with_downgrade(downgrade);
                        let want = sim.try_admit_plain(devices, &job);
                        let index = sim.walk_index(devices);
                        let cold = sim.try_admit(devices, &index, &job, &mut AdmitScratch::default());
                        prop_assert_eq!(&cold, &want, "{} x{replicas}, fresh rows", policy.name());
                        let again = sim.try_admit(devices, &index, &job, &mut warm);
                        prop_assert_eq!(&again, &want, "{} x{replicas}, kept rows", policy.name());
                    }
                }
            }
        }
    }

    /// One device's single-device tenants through random instants, each on
    /// the device clock and on the per-tenant fold the clock stands in for
    /// (`(anchor, remaining, pace)`, re-anchored whenever its pace moves).
    /// At every instant some leave (all that are due, and a few more), some
    /// join — so the count often ends an instant where it began — and the
    /// device folds if it moved. Every tenant's due and its work left at
    /// instants up to the next must agree. Returns the folds whose phase term
    /// fired and the joins at instants that did not fold.
    fn clock_against_per_tenant_fold(seed: u64) -> (usize, usize) {
        let mut state = seed | 1;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // (tag, phase) on the clock; (anchor, remaining, pace) per tenant.
        type OnBoth = ((u64, u64), (u64, u64, u64));
        let mut tenants: Vec<OnBoth> = Vec::new();
        let mut clock = DeviceClock {
            anchor_ns: 0,
            v: 0,
            k: 1,
        };
        let (mut now, mut fired, mut phased) = (0u64, 0, 0);
        for _ in 0..60 {
            let earliest = tenants.iter().map(|(_, (a, w, p))| a + p * w).min();
            now = earliest.map_or(now + 1 + draw(9), |due| now + draw(due - now + 1));
            tenants.retain(|(_, (a, w, p))| a + p * w > now && draw(5) > 0);
            for _ in 0..draw(3) {
                let work = 1 + draw(12);
                if tenants.is_empty() {
                    clock = DeviceClock {
                        anchor_ns: now,
                        v: 0,
                        k: clock.k,
                    };
                }
                tenants.push((clock.join(now, work), (now, work, 0)));
            }
            let k = tenants.len().max(1) as u64;
            let fold = (k != clock.k).then(|| clock.fold(now, k));
            for ((tag, phase), (anchor, work, pace)) in &mut tenants {
                if let Some(r) = fold {
                    fired += usize::from(r < *phase);
                    *tag += u64::from(r < *phase);
                    *phase = 0;
                } else if *phase != 0 && *anchor == now {
                    phased += 1;
                }
                if *pace != k {
                    *work -= Pace::new(*pace as usize, 1000).work(now - *anchor);
                    (*anchor, *pace) = (now, k);
                }
            }
            let next = tenants.iter().map(|(_, (a, w, p))| a + p * w).min();
            for ((tag, phase), (anchor, work, pace)) in &tenants {
                assert_eq!(clock.due(*tag, *phase), anchor + pace * work, "seed {seed}");
                for t in now..=next.unwrap_or(now).min(now + 8) {
                    let left = work - (t - anchor) / pace;
                    assert_eq!(clock.remaining(t, *tag, *phase), left, "seed {seed} at {t}");
                }
            }
        }
        (fired, phased)
    }

    #[test]
    fn a_device_clock_folds_as_each_tenant_would() {
        let (mut fired, mut phased) = (0, 0);
        for seed in 1..=300 {
            let (f, p) = clock_against_per_tenant_fold(seed);
            fired += f;
            phased += p;
        }
        assert!(
            phased > 0,
            "no tenant joined at an instant that did not fold"
        );
        assert!(fired > 0, "no fold needed its phase term");
    }

    /// The folds of a schedule where the phase term credits a tenant back,
    /// re-derived from its trace alone by the rule the module docs state:
    /// per device, the clock folds where an instant ends with another tenant
    /// count; a single-device tenant that joins (admitted or restarted)
    /// takes phase `(now − anchor) mod k`, and 0 on an idle device, whose
    /// clock restarts; a fold at `(now − anchor) mod k` below a phase
    /// corrects that tenant. Returns the number of corrections.
    fn phase_corrections(trace: &[TraceEvent], devices: usize) -> usize {
        struct Clock {
            count: usize,
            anchor: u64,
            k: u64,
            /// Job, phase.
            phases: Vec<(String, u64)>,
        }
        let mut clocks: Vec<Clock> = (0..devices)
            .map(|_| Clock {
                count: 0,
                anchor: 0,
                k: 1,
                phases: Vec::new(),
            })
            .collect();
        let mut on: FxHashMap<String, Vec<usize>> = FxHashMap::default();
        let mut fired = 0;
        for (i, ev) in trace.iter().enumerate() {
            let t = ev.t_ns;
            match &ev.kind {
                TraceKind::Admit { devices, .. } | TraceKind::Restart { devices, .. } => {
                    for &d in devices {
                        let c = &mut clocks[d];
                        c.count += 1;
                        if devices.len() == 1 {
                            if c.count == 1 {
                                c.anchor = t;
                            }
                            c.phases.retain(|(job, _)| *job != ev.job);
                            c.phases.push((ev.job.clone(), (t - c.anchor) % c.k));
                        }
                    }
                    on.insert(ev.job.clone(), devices.clone());
                }
                TraceKind::Complete | TraceKind::Interrupt { .. } => {
                    for d in on.remove(&ev.job).expect("a running job") {
                        clocks[d].count -= 1;
                        clocks[d].phases.retain(|(job, _)| *job != ev.job);
                    }
                }
                _ => {}
            }
            if trace.get(i + 1).is_some_and(|next| next.t_ns == t) {
                continue; // the instant goes on
            }
            for c in &mut clocks {
                let k = c.count.max(1) as u64;
                if k != c.k {
                    let r = (t - c.anchor) % c.k;
                    for (_, phase) in &mut c.phases {
                        if r < *phase {
                            fired += 1;
                        }
                        *phase = 0;
                    }
                    (c.anchor, c.k) = (t, k);
                }
            }
        }
        fired
    }

    #[test]
    fn a_completion_and_an_admission_at_one_instant_fold_with_the_phase_term() {
        // Gangs finish on their own clocks, so a queued job admitted at a
        // gang's completion instant joins its device mid-unit: the count
        // ends the instant where it began, nothing folds, and the newcomer
        // carries a phase the device's next fold must honour. Each of these
        // schedules is pinned in `tests/golden/schedule_digests.txt`.
        let fleet = || {
            Fleet::homogeneous(
                4,
                DeviceSpec::k40c().with_dram(48 << 20),
                Interconnect::pcie(),
            )
        };
        let mut fired = 0;
        for seed in 1..=6 {
            for placement in PlacementPolicy::ALL {
                let arrivals = synthetic_stream(80, seed, PolicyPreset::Superneurons, true);
                let run = ClusterSim::new(fleet(), placement).run(arrivals);
                fired += phase_corrections(&run.trace, 4);
            }
        }
        assert!(fired > 0, "no fold needed its phase term");
    }

    /// Over the instants of `trace`, the gangs running through one whose
    /// most-loaded device lost a tenant while another of theirs gained one
    /// and the maximum held (pace unchanged), and those whose maximum fell
    /// (pace dropped): the two ways a count can fall under a gang.
    fn gang_maxima_moves(trace: &[TraceEvent], devices: usize) -> (usize, usize) {
        let mut count = vec![0usize; devices];
        let mut before = count.clone();
        // Job → its devices and the instant it (re)started.
        let mut on: FxHashMap<String, (Vec<usize>, u64)> = FxHashMap::default();
        let (mut held, mut fell) = (0, 0);
        for (i, ev) in trace.iter().enumerate() {
            match &ev.kind {
                TraceKind::Admit { devices, .. } | TraceKind::Restart { devices, .. } => {
                    for &d in devices {
                        count[d] += 1;
                    }
                    on.insert(ev.job.clone(), (devices.clone(), ev.t_ns));
                }
                TraceKind::Complete | TraceKind::Interrupt { .. } => {
                    for d in on.remove(&ev.job).expect("a running job").0 {
                        count[d] -= 1;
                    }
                }
                _ => {}
            }
            if trace.get(i + 1).is_some_and(|next| next.t_ns == ev.t_ns) {
                continue; // the instant goes on
            }
            let through = on.values().filter(|(g, t)| g.len() > 1 && *t < ev.t_ns);
            for (gang, _) in through {
                let most = |c: &[usize]| gang.iter().map(|&d| c[d]).max().unwrap_or(0);
                let (was, is) = (most(&before), most(&count));
                let lost_at_max = gang.iter().any(|&d| before[d] == was && count[d] < was);
                let gained = gang.iter().any(|&d| count[d] > before[d]);
                held += usize::from(is == was && lost_at_max && gained);
                fell += usize::from(is < was);
            }
            before.clone_from(&count);
        }
        (held, fell)
    }

    #[test]
    fn a_gang_is_re_paced_wherever_its_maximum_moves() {
        // Gangs of 2 and 4 on 4 devices: a gang's most-loaded device loses a
        // tenant while another of its devices gains one (the maximum holds),
        // or loses one with no other device at the maximum (it falls), and
        // the link moves under running gangs. Each run is held to the digest
        // it had when the sweep visited every gang on every affected device:
        // the fault-free one in `tests/golden/schedule_digests.txt`, the one
        // with link faults here.
        const EVERY_GANG_VISITED: u64 = 0x3dd0_50ef_42ca_d9e4;
        let fleet = || {
            Fleet::homogeneous(
                4,
                DeviceSpec::k40c().with_dram(48 << 20),
                Interconnect::pcie(),
            )
        };
        let sim = || ClusterSim::new(fleet(), PlacementPolicy::FirstFit);
        let arrivals = synthetic_stream(100, 6, PolicyPreset::Superneurons, true);
        let plain = sim().run(arrivals.clone());
        let links = FaultPlan::new()
            .degraded_link(SimTime::from_ms(20), 400, SimTime::from_ms(40))
            .degraded_link(SimTime::from_ms(90), 250, SimTime::from_ms(60))
            .degraded_link(SimTime::from_ms(200), 500, SimTime::from_ms(50));
        let mut degraded = sim();
        degraded.enable_faults(links, RecoveryPolicy::default());
        let degraded = degraded.run(arrivals);
        assert_eq!(degraded.digest(), EVERY_GANG_VISITED, "the schedule moved");
        let faults = degraded
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Fault { .. }));
        assert_eq!(faults.count(), 6, "every link fault applied");
        for (name, run) in [("fault-free", &plain), ("degraded", &degraded)] {
            let (held, fell) = gang_maxima_moves(&run.trace, 4);
            assert!(
                held > 0 && fell > 0,
                "{name}: a maximum held {held}, fell {fell}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_walk_picks_the_gang_a_full_scan_picks(
            // Per device: reserved ‰ of DRAM, spike ‰ + 700, failed if 0.
            draws in proptest::collection::vec((0u64..1001, 0u64..1001, 0usize..10), 12..13),
            classes in 1usize..3,
        ) {
            // One class, or two: every third device has 40 MB, not 24.
            let dram = |d: usize| if classes == 2 && d.is_multiple_of(3) { 40 << 20 } else { 24 << 20 };
            let fleet = Fleet {
                devices: (0..12).map(|d| DeviceSpec::k40c().with_dram(dram(d))).collect(),
                interconnect: Interconnect::pcie(),
            };
            // The state built alter by alter, the walk index kept as the
            // event core keeps it and held to a scan after every alter.
            let classed = ClusterSim::new(fleet.clone(), PlacementPolicy::FirstFit);
            let mut devices: Vec<DeviceState> = fleet.devices.iter().map(DeviceState::idle).collect();
            let mut index = classed.walk_index(&devices);
            for (d, (&(reserved, spike, failed), spec)) in draws.iter().zip(&fleet.devices).enumerate() {
                devices[d].admit(spec, spec.dram_bytes * reserved / 1000);
                index.moved(&devices, d);
                index.check(&devices);
                let spike = spec.dram_bytes * spike.saturating_sub(700) / 1000;
                devices[d].alter(spec, |s| s.spike = spike);
                index.moved(&devices, d);
                index.check(&devices);
                devices[d].alter(spec, |s| s.failed = failed == 0);
                index.moved(&devices, d);
                index.check(&devices);
            }
            // Baseline wants 17.7 MB of a device for the first shape, a few
            // for the second: a handful of devices fit it, or most do. The
            // full stack's peak shrinks with the budget, so there a
            // device's key is not its free bytes less one constant.
            let shapes = [
                (Workload::Synthetic { width: 16, depth: 4 }, 16, JobKind::Training),
                (Workload::Synthetic { width: 8, depth: 2 }, 8, JobKind::Training),
                (Workload::Synthetic { width: 16, depth: 4 }, 16, JobKind::Inference),
            ];
            for policy in PlacementPolicy::ALL {
                let sim = ClusterSim::new(fleet.clone(), policy);
                let mut scratch = AdmitScratch::default();
                for replicas in 1..=4 {
                    for ((w, batch, kind), preset) in shapes.into_iter().flat_map(|s| {
                        [(s, PolicyPreset::Baseline), (s, PolicyPreset::Superneurons)]
                    }) {
                        let job = JobSpec::new("j", w, batch)
                            .with_kind(kind)
                            .with_preset(preset)
                            .with_replicas(replicas)
                            .with_downgrade(true);
                        let walked = sim.try_admit(&devices, &index, &job, &mut scratch);
                        let scanned = sim.try_admit_plain(&devices, &job);
                        prop_assert_eq!(walked, scanned, "{} x{}", policy.name(), replicas);
                    }
                }
            }
        }
    }

    /// An arrival source that does not keep its times in order.
    struct Unordered(std::vec::IntoIter<(SimTime, JobSpec)>);

    impl ArrivalStream for Unordered {
        fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
            self.0.next()
        }
    }

    #[test]
    fn an_arrival_earlier_than_its_predecessor_is_taken_at_the_current_instant() {
        const STAMPS: [u64; 7] = [5_000, 1_000, 7_000, 0, 6_999, 2_000_000, 1];
        let stream = || {
            let w = Workload::Synthetic { width: 8, depth: 2 };
            let jobs: Vec<(SimTime, JobSpec)> = STAMPS
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let job = JobSpec::new(format!("j{i}"), w, 8).with_iterations(3);
                    (SimTime(t), job)
                })
                .collect();
            Unordered(jobs.into_iter())
        };
        let fleet = Fleet::homogeneous(
            2,
            DeviceSpec::k40c().with_dram(96 << 20),
            Interconnect::pcie(),
        );
        let mut sim = ClusterSim::new(fleet, PlacementPolicy::FirstFit);
        let svc = sim.run_stream(&mut stream());
        assert!(svc.conservation_holds());
        assert_eq!((svc.submitted, svc.completed), (7, 7));
        assert!(STAMPS.iter().all(|&t| svc.makespan.0 >= t));
        assert!(
            svc.p999_latency <= svc.makespan && svc.mean_queueing <= svc.makespan,
            "a latency wrapped: {svc:?}"
        );

        // The same run with the schedule trace kept.
        let mut rec = FullRecorder {
            outcomes: Vec::new(),
            trace: Vec::new(),
            sink: TraceSink::off(),
            tracks: Vec::new(),
            fleet_track: None,
        };
        let core = Core::new(&sim, &mut stream(), &mut rec).run();
        assert_eq!(core.makespan, svc.makespan);
        assert!(rec.trace.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(rec.trace.iter().all(|e| e.t_ns <= core.makespan.0));
        let arrived: Vec<u64> = rec.outcomes.iter().map(|j| j.arrival.0).collect();
        assert_eq!(
            arrived,
            [5_000, 5_000, 7_000, 7_000, 7_000, 2_000_000, 2_000_000],
            "each taken at its own time or, if that is past, at the clock's"
        );
    }

    // Mutants of the event core: each test drives `Core::instant` to a
    // chosen point, corrupts one field as a bug would, and expects
    // `Core::check` to name the invariant it breaks.

    fn devices(n: usize, dram: u64) -> Fleet {
        Fleet::homogeneous(n, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
    }

    /// A small conv-tower training job.
    fn tower(name: &str, iterations: u32) -> JobSpec {
        let w = Workload::Synthetic { width: 8, depth: 2 };
        JobSpec::new(name, w, 8).with_iterations(iterations)
    }

    /// A core running `arrivals` on `sim`, for `drive` to step.
    fn with_core(
        sim: &ClusterSim,
        arrivals: Vec<(SimTime, JobSpec)>,
        drive: impl FnOnce(&mut Core<StreamRecorder>),
    ) {
        let mut stream = ReplayStream::new(arrivals);
        let mut rec = StreamRecorder::default();
        drive(&mut Core::new(sim, &mut stream, &mut rec));
    }

    impl<R: Recorder> Core<'_, R> {
        /// Handle instants until `reached` holds.
        fn until(&mut self, what: &str, reached: impl Fn(&Self) -> bool) {
            while !reached(self) {
                assert!(self.instant(), "the run ended before {what}");
            }
        }

        /// One more instant, then the invariants, whatever the build.
        fn checked_instant(&mut self) {
            let before = self.now_ns;
            self.instant();
            self.check(before);
        }
    }

    #[test]
    #[should_panic(expected = "pace is not the one its devices imply")]
    fn a_skipped_re_anchor_fails_the_check() {
        // A gang runs on both devices; a solo tenant joining device 0 doubles
        // its pace. A kept pace count that claims 2 already makes the sweep
        // pass the gang by, as a sweep that missed it would.
        let sim = ClusterSim::new(devices(2, 1 << 30), PlacementPolicy::FirstFit);
        let gang = tower("g", 1000).with_replicas(2);
        let arrivals = vec![(SimTime::ZERO, gang), (SimTime(1000), tower("s", 1000))];
        with_core(&sim, arrivals, |core| {
            core.until("the gang started", |c| c.running == 1);
            let gang = core.tenants_on[1].list[0].key;
            core.pace_count[gang.index()] = 2;
            core.checked_instant();
        });
    }

    #[test]
    #[should_panic(expected = "exactly one queued completion per running gang")]
    fn a_completion_left_queued_fails_the_check() {
        // The gang completes while a solo tenant runs on; its entry queued
        // again is what a pop that left it behind would leave.
        let sim = ClusterSim::new(devices(2, 1 << 30), PlacementPolicy::FirstFit);
        let gang = tower("g", 2).with_replicas(2);
        let arrivals = vec![(SimTime::ZERO, gang), (SimTime::ZERO, tower("s", 1000))];
        with_core(&sim, arrivals, |core| {
            core.until("both started", |c| c.running == 2);
            let gang = core.tenants_on[1].list[0].key;
            let due = core
                .heap
                .completion(gang)
                .expect("a gang's completion is queued");
            core.until("the gang completed", |c| c.out.completed == 1);
            core.heap.set(EventKind::Completion { key: gang }, due, 0);
            core.check(core.now_ns);
        });
    }

    #[test]
    #[should_panic(expected = "its shape is in the blocked set of a state that admits it")]
    fn a_blocked_set_kept_across_a_state_change_fails_the_check() {
        // One device with room for one baseline tower, not two: the second
        // waits, its shape refused. The first one's completion moves the
        // state, and the refusal must go with it; a set that claims the new
        // state keeps it.
        let job = |name| {
            let job = tower(name, 10).with_preset(PolicyPreset::Baseline);
            job.with_downgrade(false)
        };
        let spec = DeviceSpec::k40c();
        let peak = Profiler::new()
            .profile_job(&job("a"), PolicyPreset::Baseline, &spec, spec.dram_bytes)
            .expect("a tower fits 12 GB")
            .peak_bytes;
        let sim = ClusterSim::new(devices(1, peak * 3 / 2), PlacementPolicy::FirstFit);
        let arrivals = vec![(SimTime::ZERO, job("a")), (SimTime(1000), job("b"))];
        with_core(&sim, arrivals, |core| {
            core.until("the second tower waited", |c| c.pending.len() == 1);
            core.memo.blocked_at = core.state_version + 1;
            core.checked_instant();
        });
    }

    /// A two-replica gang whose second device fails halfway through its run
    /// and recovers before the gang's backoff ends, driven to the instant it
    /// restarts. `corrupt` gets the core, the gang's key and the completion
    /// queued for the run the fault cut short.
    fn restarted_gang(corrupt: impl FnOnce(&mut Core<StreamRecorder>, SlotKey, u64)) {
        let arrivals = vec![(SimTime::ZERO, tower("g", 1000).with_replicas(2))];
        let sim = || ClusterSim::new(devices(2, 1 << 30), PlacementPolicy::FirstFit);
        let half = SimTime(sim().run(arrivals.clone()).makespan.0 / 2);
        let mut sim = sim();
        let outage = FaultPlan::new().outage(half, 1, SimTime::from_us(100));
        sim.enable_faults(outage, RecoveryPolicy::default());
        with_core(&sim, arrivals, |core| {
            core.until("the gang started", |c| c.running == 1);
            let gang = core.tenants_on[0].list[0].key;
            let cut_short = core
                .heap
                .completion(gang)
                .expect("a gang's completion is queued");
            core.until("the gang restarted", |c| c.out.restarts == 1);
            corrupt(core, gang, cut_short);
        });
    }

    #[test]
    #[should_panic(expected = "queued completion is not anchor + pace.wall(remaining)")]
    fn a_restart_left_on_its_pre_fault_completion_fails_the_check() {
        // The ABA a `gen` reset once caused: the restarted run shared its
        // generation with the run the fault cut short, so that run's queued
        // completion was taken as its own and finished it early.
        restarted_gang(|core, gang, cut_short| {
            core.heap
                .set(EventKind::Completion { key: gang }, cut_short, 0);
            core.check(core.now_ns);
        });
    }

    #[test]
    #[should_panic(expected = "completes before its start plus the solo work it owes")]
    fn a_restart_projected_to_complete_early_fails_the_check() {
        restarted_gang(|core, gang, _| {
            let run = core.jobs.get_mut(gang).and_then(|j| j.run.as_mut());
            let progress = run.and_then(|r| r.gang.as_mut()).expect("a running gang");
            progress.remaining_ns /= 2;
            core.check(core.now_ns);
        });
    }
}
