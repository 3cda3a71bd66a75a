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
//! installed or without. Processor sharing divides, so two functions convert
//! — `Pace::wall` exactly and `Pace::work` down, a pair chosen so that a gang
//! completes at the first instant by which it has done its work (see
//! `crate::pace`) — and nothing else does. Instants that would pass
//! `u64::MAX` saturate there.
//!
//! ## The indexed event core
//!
//! The loop is *indexed*, not scanned — the structure classic
//! discrete-event simulators use to stay O(log n)-ish per event instead of
//! O(n). Each part lives in the module whose job it is, with the check that
//! holds it to its definition beside it:
//!
//! * **Event queue** (`crate::event_heap`) — an *addressable* binary heap
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
//! * **Slab job state** (`crate::slab`) — live jobs (pending, running,
//!   parked) occupy generation-stamped slots; storage is bounded by peak
//!   concurrency, not stream length.
//! * **Lazy progress** (`crate::pace`) — a running gang's record, in a
//!   table by slab slot, is `(anchor_ns, remaining_ns, pace)`: its
//!   completion is always `anchor + pace.wall(remaining)`, and progress is
//!   folded forward (`remaining −= pace.work(now − anchor)`, an integer
//!   re-anchor) **only when its pace changes** — each fold floors once, so
//!   folding at every event would drift. A single-device tenant's pace is
//!   its device's tenant count, so those on one device share its clock
//!   (`DeviceClock`): `k` tenants since `anchor`, `v` ns of work credited by
//!   then. A tenant joining `a = now − anchor` ns in with `W` ns of work
//!   stores `tag = W + v + ⌊a/k⌋` and `phase = a mod k`; it has
//!   `tag − v − ⌊a/k⌋ + [a mod k < phase]` left and completes at
//!   `anchor + k·(tag − v) + phase`, which is `join + k·W`. The sweep folds a
//!   device only when `max(count, 1) ≠ k`: `v += ⌊a/k⌋`; a tenant whose
//!   phase exceeds `a mod k` takes back the ns that overstates (`tag += 1`);
//!   all phases become 0; `anchor = now`, `k = count`. Phases arise where a
//!   count ends an instant where it began — a completion and an admission
//!   on one device — so nothing folds; a tenant alone on its device restarts
//!   the clock. A gang's pace *is* its pace count `m`, the most tenants on
//!   any of its devices. Where a device's count goes from `k_old` (its
//!   clock's `k`) to `k`, a gang there can change pace only if `k > m` or if
//!   `k < k_old == m`, and only such gangs are visited: after every sweep
//!   each `m` is its gang's maximum, and within an instant only admissions
//!   raise a count once a gang has started, so a maximum that rises shows
//!   `k > m` where it rose, and one that falls shows `k < k_old == m` on
//!   every device that held it. A rise re-paces to `k` without a scan: the
//!   devices no event touched hold at most the old pace, and every touched
//!   one is visited, so the pace ends the sweep at the maximum. A gang
//!   raised on two devices in one instant re-paces twice; the second fold
//!   has zero elapsed time, so it is exact. Only a fall scans the gang's
//!   devices.
//!   Per-device tenant lists (`Tenants`) identify exactly the gangs and
//!   clocks an event can affect, so it touches its neighborhood, not every
//!   running job.
//! * **Lazy device accounting** (`crate::placement`'s `DeviceState`) — a
//!   device's busy time and ∫ reserved dt are integrals of step functions,
//!   so each device is settled just before its `reserved`/`tenants` change
//!   and once when the run ends. In integers that is exact, so no event
//!   walks the fleet to advance them.
//! * **Version-gated admission** (`crate::admission`'s `AdmitMemo`) — the
//!   FIFO pass re-evaluates queued jobs only when reservations changed since
//!   they were last evaluated (admission is a pure function of the
//!   reservations, so the replay is provably identical). Within one
//!   reservation state the only answer that can be asked for again is a
//!   refusal — a grant reserves, and so ends the state — so the shapes
//!   refused in the current state are kept in a set and nothing else is: a
//!   queue thousands deep costs one sweep per distinct shape per state.
//! * **Admission rung** (`ClusterSim::try_admit` in `crate::admission`, over
//!   `crate::placement`'s `ByFree`) — nothing in it divides, it hashes once,
//!   and it stops at the first device that cannot win. The fleet is one
//!   card (`ClusterSim::new` holds every device to device 0's), so every
//!   device answers alike. A device carries its budget *level*
//!   (`free / quantum`, re-derived in `DeviceState::alter`); a shape
//!   carries, per preset, one row of the plan memo's answers by level
//!   (`crate::admission::Row`). A rung reads the levels its devices show off
//!   a census kept beside the walk order — how many devices show each level
//!   and the bit set of those shown, moved with a device's level at every
//!   alter — asks the plan memo for those no device showed before, then
//!   walks the devices indexing `answers[level]` and keeping the `replicas`
//!   best: FirstFit in index order, BestFit and BinPack by ascending (free
//!   bytes, index), an order kept (with ranks) by an insertion step at every
//!   alter, starting past the devices too full for any answered level.
//!   Holding its gang, the walk stops at the first device whose *floor*
//!   exceeds the worst key held — `free − P` for BestFit (`P` the largest
//!   peak answered), `u64::MAX − (DRAM − free)` for BinPack, its own key for
//!   FirstFit: no later device keys below it, so the gang is the one a scan
//!   of the whole fleet picks.
//!
//! The run's state is one struct (`Core`, in the private `event_core`
//! module) with one handler per step of an instant, and `Core::instant`
//! calls them in the order that defines the schedule: completions (freeing
//! capacity) → injected faults → expired retries (they rejoin the queue as
//! the instant's batch is popped, which nothing before the pass reads) →
//! arrivals → the admission pass → the re-anchor sweep. Everything
//! observable goes through a recorder (`crate::report`). In debug builds
//! `Core::check` then verifies the invariants that span the parts — slot
//! conservation, per-device reservations and tenant lists, the count of
//! devices not failed, one live completion per running gang and per device
//! with single-device tenants (its earliest), no run projected to complete
//! before its start plus the solo work it owes, every gang's pace the most
//! tenants on its devices and every clock at its device's count, monotone
//! time — and calls each part's
//! own: `DeviceState::check` (free bytes and level), `ByFree::check` (walk
//! order and level census against a scan's) and `AdmitMemo::check` (every
//! shape the current state refused is refused on the devices as they
//! stand). `decide` holds each rung's answer to the ladder written straight
//! down (`admits_as_plain`).
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
//! In the last column `try_admit` is 104 ns a call (744 in the first): the
//! walk visits 5.7 devices, not 64, with no OR over 64 levels. The sweep
//! meets 119 104 gang entries a pass, visits 51 816 of them and re-paces
//! 45 637; what is left of it is mostly those re-paces and their heap
//! re-keys. Reserving and releasing pay for keeping the walk order (≈ 17
//! insertion steps a move, one move an event).
//!
//! Two oracles hold the core, and neither is a copy of it. The checker runs
//! under every test of this crate, and CI runs it over the committed
//! `cluster`, `faults` and `service` schedules with `experiments` built under
//! `--config profile.release.debug-assertions=true`. Built that way, the
//! `service` run takes 15–21 s against 13–24 s unchecked (a shared 2-vCPU
//! host, whose spread is larger than the checks' cost); it
//! took 114 s while the blocked-set check asked the ladder once per queued
//! job rather than once per refused shape. A `serve_mixed` pass under the
//! checker and every other debug oracle still costs ≈ 18× an unchecked one
//! (7.5–7.7 against 0.41 ref/pass), which is why release builds leave it off;
//! switching each oracle off in turn, the per-instant fleet scan is ≈ 3.3
//! ref/pass, the gang re-measure on every memo hit ≈ 1.8, `ByFree::check` ≈
//! 0.85 and `decide`'s ladder ≈ 0.8. Mutants in `event_core`'s tests — a
//! skipped re-anchor, a completion left queued, a blocked set kept across a
//! state change, a refused shape no queued job has, a restart keeping its
//! pre-fault completion, a restart projected to finish early — each fail it
//! naming their invariant. And [`ClusterReport::digest`] folds a whole
//! schedule into 64 bits: `tests/golden/schedule_digests.txt` pins one per
//! stream the core has been held to hardest, so a change to any byte of them
//! fails a test. [`ClusterSim::run_stream`] runs the same core against a
//! pull-based [`ArrivalStream`] with aggregate-only recording: millions of
//! arrivals in constant memory.

use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::{MetricsRegistry, TraceSink, TrackId};

use crate::admission::{quantum, Profiler};
use crate::event_core::Core;
use crate::fault::{FaultPlan, RecoveryPolicy};
use crate::fleet::Fleet;
use crate::job::JobSpec;
use crate::placement::PlacementPolicy;
use crate::report::{ClusterMetrics, ClusterReport, FullRecorder, ServiceReport, StreamRecorder};
use crate::stream::{ArrivalStream, ReplayStream};

/// The cluster scheduler: a fleet of one card, a placement policy, and an
/// admission profiler that keeps its nets and gang measurements.
pub struct ClusterSim {
    /// Fixed once the simulator is built: every device is device 0's card.
    pub(crate) fleet: Fleet,
    pub(crate) placement: PlacementPolicy,
    /// The fleet's budget [`quantum`]: every device shares every admission
    /// answer (see [`Row`](crate::admission::Row)).
    pub(crate) quantum: u64,
    pub(crate) profiler: Profiler,
    sink: TraceSink,
    pub(crate) metrics: Option<ClusterMetrics>,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) recovery: RecoveryPolicy,
}

impl ClusterSim {
    /// A simulator over `fleet`, which must be one card: every device has
    /// device 0's card fingerprint and DRAM.
    pub fn new(fleet: Fleet, placement: PlacementPolicy) -> ClusterSim {
        assert!(!fleet.is_empty(), "cluster needs at least one device");
        let card = |d: &DeviceSpec| (d.card_fingerprint(), d.dram_bytes);
        let spec = &fleet.devices[0];
        if let Some(d) = fleet.devices.iter().position(|d| card(d) != card(spec)) {
            panic!("a fleet is one card: device {d} is not device 0's card and DRAM");
        }
        ClusterSim {
            quantum: quantum(spec),
            fleet,
            placement,
            profiler: Profiler::new(),
            sink: TraceSink::off(),
            metrics: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The fleet's card: the spec every device shares.
    pub(crate) fn spec(&self) -> &DeviceSpec {
        &self.fleet.devices[0]
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

    /// Run the job stream to completion and report the serving summary with
    /// exact latency tails, per-job outcomes and the schedule trace. `arrivals`
    /// pairs each job with its (virtual) submission time; same-time jobs keep
    /// their input order in the queue.
    pub fn run(&mut self, mut arrivals: Vec<(SimTime, JobSpec)>) -> ClusterReport {
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
        let mut rec = FullRecorder::new(self.sink.clone(), tracks, arrivals.len());
        let mut stream = ReplayStream::new(arrivals);
        let core = Core::new(self, &mut stream, &mut rec).run();
        ClusterReport::assemble(&self.fleet, self.placement, rec, &core)
    }

    /// Run an open-loop arrival stream to exhaustion with aggregate-only
    /// recording: arrivals are pulled one ahead of the clock and per-job
    /// state lives only while the job does, so a 10^6-event stream runs in
    /// memory proportional to **peak concurrency** (reported as
    /// [`ServiceReport::peak_live_jobs`]), not stream length. It reports the
    /// summary [`ClusterSim::run`] does, tail latencies from a fixed-size
    /// log-linear sketch (≤ 1/16 relative rounding), all else exact: the
    /// loop is the same indexed core.
    pub fn run_stream(&mut self, stream: &mut dyn ArrivalStream) -> ServiceReport {
        let mut rec = StreamRecorder::default();
        let core = Core::new(self, stream, &mut rec).run();
        ServiceReport::assemble(&self.fleet, self.placement, &core, rec.latency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;
    use sn_runtime::Interconnect;
    use sn_sim::DeviceSpec;

    #[test]
    #[should_panic(expected = "a fleet is one card: device 1 is not device 0's card and DRAM")]
    fn a_fleet_of_two_cards_is_refused() {
        let mut fleet = Fleet::homogeneous(3, DeviceSpec::k40c(), Interconnect::pcie());
        fleet.devices[1] = DeviceSpec::k40c().with_dram(6 << 30);
        ClusterSim::new(fleet, PlacementPolicy::FirstFit);
    }

    #[test]
    fn a_second_run_reports_its_own_predictions() {
        // Two streams of different shapes on one simulator: the second run
        // reports the predictions it asked, as a fresh simulator does.
        let stream = |width| -> Vec<(SimTime, JobSpec)> {
            let w = Workload::Synthetic { width, depth: 2 };
            let job = |i: u64| (SimTime(i * 1_000), JobSpec::new(format!("j{i}"), w, 8));
            (0..4).map(job).collect()
        };
        let fleet = Fleet::homogeneous(2, DeviceSpec::k40c(), Interconnect::pcie());
        let mut reused = ClusterSim::new(fleet.clone(), PlacementPolicy::FirstFit);
        let first = reused.run(stream(8));
        let second = reused.run(stream(16));
        let fresh = ClusterSim::new(fleet, PlacementPolicy::FirstFit).run(stream(16));
        assert!(first.predictions_simulated > 0);
        assert_eq!(second.predictions_simulated, fresh.predictions_simulated);
        assert_eq!(second, fresh);
    }

    #[test]
    fn a_run_that_takes_no_time_completes_at_zero_jobs_per_sec() {
        // Five zero-iteration jobs at t = 0: every one completes the instant
        // it is admitted, so the makespan is 0.
        let jobs = (0..5).map(|i| {
            let w = Workload::Synthetic { width: 8, depth: 2 };
            (
                SimTime::ZERO,
                JobSpec::new(format!("j{i}"), w, 8).with_iterations(0),
            )
        });
        let jobs: Vec<(SimTime, JobSpec)> = jobs.collect();
        let fleet = Fleet::homogeneous(2, DeviceSpec::k40c(), Interconnect::pcie());
        let mut sim = ClusterSim::new(fleet, PlacementPolicy::FirstFit);
        let run = sim.run(jobs.clone());
        let svc = sim.run_stream(&mut ReplayStream::new(jobs));
        assert_eq!((run.completed, svc.completed), (5, 5));
        assert_eq!((run.makespan, svc.makespan), (SimTime::ZERO, SimTime::ZERO));
        assert_eq!((run.jobs_per_sec, svc.jobs_per_sec), (0.0, 0.0));
        for json in [run.json().to_string(), svc.json().to_string()] {
            assert!(json.contains("\"jobs_per_sec\":0"), "{json}");
        }
    }
}
