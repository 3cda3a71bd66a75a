//! The indexed discrete-event core ([`crate::sim`] documents it): the state
//! a run mutates, a handler per step of an instant, and `Core::check`, which
//! holds the invariants that span the parts and calls each part's check.

use sn_sim::SimTime;

use crate::admission::{shape_key, AdmitMemo, AdmitScratch, Grant, ResumePlan};
use crate::event_heap::{EventHeap, EventKind};
use crate::fault::{FaultEvent, FaultPlan, RecoveryMode};
use crate::job::JobSpec;
use crate::pace::{Earliest, Pace, Progress, Tenants};
use crate::placement::{most_tenants, ByFree, Candidate, DeviceState};
use crate::report::Recorder;
use crate::sim::ClusterSim;
use crate::slab::{Slab, SlotKey};
use crate::stream::ArrivalStream;

/// One live (pending, running, or parked-in-backoff) job in the slab.
pub(crate) struct LiveJob {
    pub(crate) spec: JobSpec,
    /// Arrival sequence number: ties on the event heap break toward the
    /// earliest arrival, so one instant's completions are reported in
    /// arrival order.
    pub(crate) seq: u64,
    pub(crate) arrival: SimTime,
    run: Option<RunState>,
    /// Iterations banked at the last checkpoint fold (0 fault-free).
    pub(crate) iters_done: u32,
    /// Backoff attempts since the last successful (re-)admission.
    attempts: u32,
    pub(crate) wasted_iters: u64,
    /// The grant a fault cut short, frozen for a byte-exact restart: `Some`
    /// from the interrupt until the job's next grant, which is a restart.
    resume: Option<ResumePlan>,
}

/// Execution state of a running job (see the module docs on lazy
/// progress). A gang's own progress is in `Core::gangs`; a single-device
/// tenant runs on its device's clock, and its device's [`Tenants`] entry
/// holds what the clock needs.
struct RunState {
    grant: Grant,
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

/// What the event core hands back besides recorder contents. The counters
/// are the ones the core increments as it goes, each where its event
/// happens.
#[derive(Default)]
pub(crate) struct CoreOutcome {
    /// Final device states, integrals settled to `makespan`.
    pub(crate) devices: Vec<DeviceState>,
    pub(crate) makespan: SimTime,
    pub(crate) peak_concurrent: usize,
    /// Slab high-water: the constant-memory evidence for streaming runs.
    pub(crate) peak_live: usize,
    /// Scheduling events processed, one per recorder hook (the schedule-trace
    /// length, when one is recorded).
    pub(crate) events: u64,
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) rejected: u64,
    // Fault/recovery aggregates (all zero on fault-free runs).
    pub(crate) failed: u64,
    pub(crate) interrupted: u64,
    pub(crate) restarts: u64,
    pub(crate) still_queued: u64,
    pub(crate) useful_iters: u64,
    pub(crate) wasted_iters: u64,
}

/// The indexed discrete-event core (see the module docs): everything a run
/// mutates, with one handler per step of an instant. Everything observable
/// goes through `rec`; [`Core::run`] returns the device integrals and
/// counters both report types share.
pub(crate) struct Core<'a, R: Recorder> {
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
    by_free: ByFree,
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
    /// Devices not failed: a gang of more replicas waits out the outage.
    live: usize,
    fail_since: Vec<Option<u64>>,
    // This instant's work lists, reused from instant to instant; a grant
    // takes the placement list a finished run left in `scratch`. So a
    // steady-state event allocates nothing.
    completions: Vec<SlotKey>,
    /// Devices whose tenant set changed this instant — the re-anchor sweep
    /// visits exactly their clocks, and those of their gangs whose pace can
    /// have moved.
    affected: Vec<usize>,
    /// By slab slot: the progress of the running gang there, whose pace is
    /// the most tenants on any of its devices.
    gangs: Vec<Progress>,
    kept: Vec<SlotKey>,
    /// The oracles' scratch for the plain admission ladder's fitting
    /// devices: only the checks grow it, so a release run leaves it empty.
    oracle: Vec<Candidate>,
}

impl<'a, R: Recorder> Core<'a, R> {
    pub(crate) fn new(
        sim: &'a ClusterSim,
        stream: &'a mut dyn ArrivalStream,
        rec: &'a mut R,
    ) -> Self {
        let n = sim.fleet.len();
        let devices: Vec<DeviceState> = sim.fleet.devices.iter().map(DeviceState::idle).collect();
        let faults = sim.faults.clone().map(FaultPlan::into_events);
        let mut core = Core {
            sim,
            stream,
            rec,
            out: CoreOutcome::default(),
            now_ns: 0,
            by_free: ByFree::new(&devices),
            devices,
            tenants_on: vec![Tenants::default(); n],
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
            faults: faults.unwrap_or_default(),
            next_fault: 0,
            live: n,
            fail_since: vec![None; n],
            completions: Vec::new(),
            affected: Vec::new(),
            gangs: Vec::new(),
            kept: Vec::new(),
            oracle: Vec::new(),
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
    pub(crate) fn run(mut self) -> CoreOutcome {
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
            self.scratch.recycle(run.grant.placements);
            self.running -= 1;
            self.out.completed += 1;
            self.out.useful_iters += u64::from(job.spec.iterations);
            self.out.events += 1;
            if let Some(m) = &self.sim.metrics {
                m.completed.inc();
                m.latency_ns.record(self.now_ns - job.arrival.0);
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
            self.tenants_on[p.device].remove(key);
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
            self.tenants_on[p.device].add(key);
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
        let device = match ev {
            FaultEvent::DeviceFail { device }
            | FaultEvent::DeviceRecover { device }
            | FaultEvent::PressureSpike { device, .. }
            | FaultEvent::PressureRelease { device, .. } => device,
        };
        // An event that changes nothing — a device already in that state, a
        // device index out of range — is dropped without a trace.
        let applies = device < self.devices.len()
            && match ev {
                FaultEvent::DeviceFail { .. } => !self.devices[device].failed,
                FaultEvent::DeviceRecover { .. } => self.devices[device].failed,
                _ => true,
            };
        if !applies {
            return;
        }
        self.out.events += 1;
        self.rec.on_fault(&ev, self.now_ns);
        self.devices[device].fault(&self.sim.fleet.devices[device], ev);
        self.by_free.moved(&self.devices, device);
        self.state_version += 1;
        let metrics = self.sim.metrics.as_ref();
        match ev {
            FaultEvent::DeviceFail { .. } => {
                self.fail_since[device] = Some(self.now_ns);
                self.live -= 1;
                if let Some(m) = metrics {
                    m.device_failures.inc();
                }
                // Interrupt every gang with a replica here, in list order
                // (each interrupt takes its gang off the list).
                for victim in self.tenants_on[device].list.clone() {
                    self.interrupt(victim.key, device);
                }
            }
            FaultEvent::DeviceRecover { .. } => {
                self.live += 1;
                if let Some(m) = metrics {
                    m.device_recoveries.inc();
                    if let Some(since) = self.fail_since[device].take() {
                        m.mttr_ns.record(self.now_ns - since);
                    }
                }
            }
            _ => {}
        }
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
            job.resume = Some(ResumePlan::of(run.grant));
            self.park(key);
        } else {
            self.scratch.recycle(run.grant.placements);
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
                m.submitted.inc();
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
            Some(plan) => sim.try_admit_resume(&self.devices, &job.spec, plan, &mut self.scratch),
            None => {
                let shape = shape_key(&job.spec);
                if self.memo.is_blocked(self.state_version, &shape) {
                    return None;
                }
                let grant =
                    sim.try_admit(&self.devices, &self.by_free, &job.spec, &mut self.scratch);
                // Debug builds hold every answer to the ladder written
                // straight down.
                debug_assert!(
                    sim.admits_as_plain(&self.devices, &shape, grant.as_ref(), &mut self.oracle),
                    "{shape:?}: the rung's answer {grant:?} is not the plain ladder's"
                );
                if grant.is_none() {
                    self.memo.block(shape);
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
            // the fault cut short — same (budget, peak) pairs, peaks
            // straight from the shared plan memo.
            let exact = cut_short.is_replayed_by(&grant);
            self.scratch.recycle(cut_short.0.placements);
            self.out.restarts += 1;
            if let Some(m) = &sim.metrics {
                m.jobs_restarted.inc();
            }
            self.rec.on_restart(job, &grant, exact, self.now_ns);
        } else {
            if let Some(m) = &sim.metrics {
                m.admitted.inc();
                m.queueing_ns.record(self.now_ns - job.arrival.0);
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
        if grant.placements.len() > 1 {
            let progress = Progress::new(work, now, Pace::new(most_tenants(&self.devices, &grant)));
            let slot = key.index();
            if slot >= self.gangs.len() {
                self.gangs.resize(slot + 1, progress);
            }
            self.gangs[slot] = progress;
            let kind = EventKind::Completion { key };
            self.heap.set(kind, progress.completion_ns(), job.seq);
        } else {
            let device = grant.placements[0].device;
            self.tenants_on[device].join(key, job.seq, now, work);
            self.affected.push(device);
        }
        job.run = Some(RunState {
            grant,
            step_ns: step.0,
            owed_ns: now.saturating_add(work),
        });
    }

    /// [`RunState::done_iterations`] of `key`'s `run` as of now, read off
    /// its own progress or its device's clock. The run covers what its job
    /// had left at the grant: `iters_done` holds still while it runs.
    fn done_iterations(&self, key: SlotKey, run: &RunState) -> u32 {
        let job = self.jobs.get(key).expect("running jobs are live");
        let remaining = if run.grant.placements.len() > 1 {
            self.gangs[key.index()].remaining(self.now_ns)
        } else {
            let Tenants { list, clock } = &self.tenants_on[run.grant.placements[0].device];
            let t = list.iter().find(|t| t.key == key);
            let solo = t.and_then(|t| t.solo).expect("solo tenants are on a clock");
            clock.remaining(self.now_ns, solo.tag, solo.phase)
        };
        run.done_iterations(job.spec.iterations - job.iters_done, remaining)
    }

    /// What becomes of a job admission could not place, three-way: it waits
    /// (it fits the live devices once idle — `true`, it stays queued), backs
    /// off (only an outage blocks it), or is rejected / fails. Every device
    /// is one card, so a gang of `1 ≤ replicas ≤ n` fits `n` idle devices
    /// exactly when one rung fits one idle card: a bit asked once a shape a
    /// run. With no device failed `live` is the fleet, so the middle way is
    /// never taken.
    fn wait_or_give_up(&mut self, key: SlotKey) -> bool {
        let sim = self.sim;
        let job = self.jobs.get(key).expect("pending jobs are live");
        let replicas = job.spec.replicas;
        let fits = (1..=sim.fleet.len()).contains(&replicas)
            && self
                .memo
                .fits_one_card(shape_key(&job.spec), || sim.fits_one_idle_card(&job.spec));
        if fits && replicas <= self.live {
            return true; // wait for capacity
        }
        if !fits {
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
    /// once. A gang there of pace `m` (its pace count) can have a new pace
    /// only if `k > m` or if `k < k_old == m` (see the module docs); it alone
    /// is visited. A rise takes the pace `k` from the count alone; a fall
    /// scans the gang's devices. One whose pace moved folds its own progress
    /// forward under the old pace, restarts its anchor at `now` and has its
    /// completion re-keyed where it sits in the heap; one raised through two
    /// affected devices re-paces twice, the second time with nothing
    /// elapsed. Last, the device's entry is keyed by its earliest
    /// single-device tenant.
    fn reanchor_sweep(&mut self) {
        self.affected.sort_unstable();
        self.affected.dedup();
        for &d in &self.affected {
            let k = self.devices[d].tenants.max(1) as u64;
            let earliest = self.tenants_on[d].refold(self.now_ns, k, |key, k_old| {
                let progress = &mut self.gangs[key.index()];
                let m = progress.pace.tenants();
                let most = if k > m {
                    k as usize
                } else if k < k_old && k_old == m {
                    let job = self.jobs.get(key).expect("tenant lists track live jobs");
                    let run = job.run.as_ref().expect("listed tenants are running");
                    most_tenants(&self.devices, &run.grant)
                } else {
                    return;
                };
                let pace = Pace::new(most);
                if pace != progress.pace {
                    progress.repace(self.now_ns, pace);
                    self.heap.retime(key, progress.completion_ns());
                }
            });
            match earliest.entry(d) {
                Some((t_ns, seq, kind)) => self.heap.set(kind, t_ns, seq),
                None => self.heap.remove_solo(d),
            }
        }
    }

    /// The state's invariants, verified after every instant in debug
    /// builds (`before` is the previous instant): those that span the
    /// parts here, and each part's own check.
    fn check(&mut self, before: u64) {
        assert!(self.now_ns >= before, "the clock ran backwards");
        assert_eq!(
            self.jobs.len(),
            self.pending.len() + self.running + self.parked,
            "a live slot is exactly one queued, running or parked job"
        );
        let (mut running, mut gangs) = (0, 0);
        for (d, tenants) in self.tenants_on.iter().enumerate() {
            let dev = &self.devices[d];
            let list = &tenants.list;
            assert_eq!(dev.tenants, list.len(), "device {d}: tenant count vs list");
            let mut earliest = Earliest::default();
            let k = dev.tenants.max(1) as u64;
            assert_eq!(
                tenants.clock.k, k,
                "device {d}: its clock vs its tenant count"
            );
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
                if run.grant.placements.len() == 1 {
                    let solo = t.solo.expect("a single-device tenant is on its clock");
                    assert_eq!(solo.seq, job.seq, "job {}: a stale sequence", job.spec.name);
                    let due = tenants.clock.due(solo.tag, solo.phase);
                    owes(due);
                    earliest.offer(due, job.seq, t.key);
                    continue;
                }
                let progress = &self.gangs[t.key.index()];
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
                    Pace::new(most_tenants(&self.devices, &run.grant)),
                    "job {}: pace is not the one its devices imply after the sweep",
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
            dev.check(&self.sim.fleet.devices[d], d);
        }
        assert_eq!(running, self.running, "running count vs tenant lists");
        let live = self.devices.iter().filter(|d| !d.failed).count();
        assert_eq!(live, self.live, "live device count vs the failed devices");
        assert_eq!(
            self.heap.completions(),
            gangs,
            "exactly one queued completion per running gang"
        );
        self.by_free.check(&self.devices);
        let fitting = &mut self.oracle;
        self.memo
            .check(self.sim, &self.devices, self.state_version, fitting);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Profiler;
    use crate::fault::{FaultPlan, RecoveryPolicy};
    use crate::fleet::Fleet;
    use crate::job::{PolicyPreset, Workload};
    use crate::placement::PlacementPolicy;
    use crate::report::{ClusterReport, FullRecorder, StreamRecorder, TraceEvent, TraceKind};
    use crate::stream::{synthetic_stream, ReplayStream};
    use fxhash::FxHashMap;
    use sn_runtime::Interconnect;
    use sn_sim::DeviceSpec;
    use sn_telemetry::TraceSink;

    /// A gang's run of `iters` steps of `step` ns from `now_ns` at `pace`.
    fn gang_run(step: u64, iters: u32, now_ns: u64, pace: Pace) -> (RunState, Progress) {
        let grant = Grant {
            preset: PolicyPreset::Baseline,
            placements: Vec::new(),
        };
        let remaining_ns = step * u64::from(iters);
        let run = RunState {
            grant,
            step_ns: step,
            owed_ns: now_ns + remaining_ns,
        };
        (run, Progress::new(remaining_ns, now_ns, pace))
    }

    #[test]
    fn an_iteration_that_ends_exactly_now_is_counted() {
        // 7 ns steps at 2 wall ns per work ns (2 tenants): iteration k
        // ends at the first instant by which 7k ns are done.
        let pace = Pace::new(2);
        let (run, mut progress) = gang_run(7, 5, 100, pace);
        let done = |p: &Progress, t: u64| run.done_iterations(5, p.remaining(t));
        for k in 1..=5u32 {
            let ends = 100 + pace.wall(7 * u64::from(k));
            assert_eq!(done(&progress, ends), k, "iteration {k} ends at {ends}");
            assert_eq!(done(&progress, ends - 1), k - 1, "and not a ns sooner");
        }
        assert_eq!(progress.completion_ns(), 100 + 2 * 35);
        // A re-anchor mid-iteration floors the fold (15 ns at 2 is 7.5 ns
        // of work, credited as 7) and the count carries on from it.
        progress.repace(115, Pace::new(3));
        assert_eq!(progress.remaining(115), 28);
        assert_eq!(done(&progress, 115), 1);
        assert_eq!(done(&progress, 135), 1);
        assert_eq!(done(&progress, 136), 2);
        assert_eq!(progress.completion_ns(), 115 + 3 * 28);
        assert_eq!(done(&progress, progress.completion_ns()), 5);
        // A zero-work run is done the moment it starts.
        let (zero, progress) = gang_run(0, 4, 9, pace);
        assert_eq!(zero.done_iterations(4, progress.remaining(9)), 4);
        assert_eq!(progress.completion_ns(), 9);
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
        // or loses one with no other device at the maximum (it falls). The
        // run is held to the digest it had when the sweep visited every gang
        // on every affected device, in `tests/golden/schedule_digests.txt`.
        let fleet = Fleet::homogeneous(
            4,
            DeviceSpec::k40c().with_dram(48 << 20),
            Interconnect::pcie(),
        );
        let arrivals = synthetic_stream(100, 6, PolicyPreset::Superneurons, true);
        let plain = ClusterSim::new(fleet, PlacementPolicy::FirstFit).run(arrivals);
        let (held, fell) = gang_maxima_moves(&plain.trace, 4);
        assert!(held > 0 && fell > 0, "a maximum held {held}, fell {fell}");
    }

    #[test]
    fn the_sweep_re_paces_a_gang_by_the_pace_rule() {
        // Baseline towers reserve one peak whatever their budget, a gang's
        // replicas the same one, and a device holds two and a half of them.
        // A tower beside the gang when it is granted leaves it device 0's
        // smaller budget, so its restart fits beside a tower there.
        let peak = {
            let (a, spec) = (baseline_tower("peak"), DeviceSpec::k40c());
            let budget = spec.dram_bytes;
            let p =
                Profiler::new().profile_kind(a.workload, a.batch, a.preset, a.kind, &spec, budget);
            p.expect("a tower fits 12 GB").peak_bytes
        };
        let solo = |name: &str, iters| baseline_tower(name).with_iterations(iters);
        let gang = solo("g", 1000).with_replicas(2);
        let sim = || ClusterSim::new(devices(2, peak * 5 / 2), PlacementPolicy::FirstFit);
        let step = |job: &JobSpec| sim().run(vec![(SimTime::ZERO, job.clone())]).makespan.0 / 1000;
        let (gang_step, solo_step) = (step(&gang), step(&solo("step", 1000)));
        let at = |steps: u64| SimTime(steps * gang_step);
        // Still running 100 gang steps on, long after the gang's backoff.
        let long = u32::try_from(100 * gang_step / solo_step).expect("a u32");
        let arrivals = vec![
            (SimTime::ZERO, solo("beside", 10)),
            (SimTime::ZERO, gang),
            (at(100), solo("rise", 10)),
            (at(300), solo("tied", 10)),
            (at(300), solo("fall", 40)),
            (at(500) + SimTime::from_us(50), solo("restart", long)),
        ];
        let mut sim = sim();
        let outage = FaultPlan::new().outage(at(500), 1, SimTime::from_us(100));
        sim.enable_faults(outage, RecoveryPolicy::default());
        with_core(&sim, arrivals, |core| {
            // The gang's pace after the instant, and its queued completion,
            // which must be the one its record projects.
            let paced = |c: &Core<StreamRecorder>, key: SlotKey, tenants: usize| {
                let progress = &c.gangs[key.index()];
                assert_eq!(progress.pace, Pace::new(tenants), "at {}", c.now_ns);
                let due = c.heap.completion(key).expect("a running gang is queued");
                assert_eq!(due, progress.completion_ns());
                due
            };
            core.until("the gang started", |c| c.running == 2);
            let g = core.tenants_on[1].list[0].key;
            paced(core, g, 2);
            // A fall on the one device at the maximum.
            core.until("the tower beside it completed", |c| c.running == 1);
            let alone = paced(core, g, 1);
            // A count that rises past the pace.
            core.until("a tower joined device 0", |c| c.running == 2);
            assert!(paced(core, g, 2) > alone);
            core.until("the tower completed", |c| c.running == 1);
            paced(core, g, 1);
            // Both devices rise at one instant; then one falls, tied at the
            // maximum with the other: pace and entry stay as they were.
            core.until("a tower joined each device", |c| c.running == 3);
            let tied = paced(core, g, 2);
            core.until("the shorter tower completed", |c| c.running == 2);
            assert_eq!(core.devices[0].tenants, 1);
            assert_eq!(paced(core, g, 2), tied);
            core.until("the longer tower completed", |c| c.running == 1);
            paced(core, g, 1);
            // Interrupted at pace 1, restarted in its own slot beside a tower
            // that joined device 0 meanwhile: its new grant's pace.
            core.until("the gang restarted", |c| c.out.restarts == 1);
            assert_eq!(core.tenants_on[1].list[0].key, g);
            let due = paced(core, g, 2);
            let job = core.jobs.get(g).expect("a running gang is live");
            let run = job.run.as_ref().expect("a running gang");
            let work = run.step_ns * u64::from(job.spec.iterations - job.iters_done);
            assert_eq!(
                due,
                core.now_ns + 2 * work,
                "all the work its checkpoint left"
            );
        });
    }

    /// Finding: a fault-cut job restarts only on devices whose free bytes
    /// reach its old grant's *budget* — `devices[idx].free < budget` in
    /// `ClusterSim::try_admit_resume` skips the rest — not its reserved
    /// *peak*. A baseline gang granted two empty devices holds a budget of
    /// the whole card there. Cut by an outage, it finds a tower placed on
    /// device 0 meanwhile: the tower's one peak leaves room for the gang's
    /// peak but not for its budget, so the gang stays parked until the tower
    /// completes. Testing the peak instead moves fault schedules, so the
    /// fix needs a bugfix change of its own, and this test flips with it.
    #[test]
    fn finding_a_fault_cut_gang_waits_for_its_old_budget_not_its_peak() {
        let solo = |name: &str, iters| baseline_tower(name).with_iterations(iters);
        let (gang, spec) = (solo("gang", 1000).with_replicas(2), DeviceSpec::k40c());
        let peak = Profiler::new()
            .profile_kind(
                gang.workload,
                gang.batch,
                gang.preset,
                gang.kind,
                &spec,
                spec.dram_bytes,
            )
            .expect("a tower fits 12 GB")
            .peak_bytes;
        let dram = peak * 5 / 2;
        let sim = || ClusterSim::new(devices(2, dram), PlacementPolicy::FirstFit);
        let step = |job: &JobSpec| sim().run(vec![(SimTime::ZERO, job.clone())]).makespan.0 / 1000;
        let (gang_step, solo_step) = (step(&gang), step(&solo("step", 1000)));
        let cut = SimTime(100 * gang_step);
        // Placed while device 1 is down; it runs about 100 gang steps.
        let long = u32::try_from(100 * gang_step / solo_step).expect("a u32");
        let arrivals = vec![
            (SimTime::ZERO, gang),
            (cut + SimTime::from_us(50), solo("tower", long)),
        ];
        let mut sim = sim();
        let outage = FaultPlan::new().outage(cut, 1, SimTime::from_us(100));
        sim.enable_faults(outage, RecoveryPolicy::default());
        let run = sim.run(arrivals);
        let at = |job: &str, kind: fn(&TraceKind) -> bool| {
            let ev = run.trace.iter().find(|e| e.job == job && kind(&e.kind));
            ev.unwrap_or_else(|| panic!("{job}: no such event"))
        };
        assert_eq!(
            at("gang", |k| matches!(k, TraceKind::Interrupt { .. })).t_ns,
            cut.0
        );
        let reserved = |job: &str| match &at(job, |k| matches!(k, TraceKind::Admit { .. })).kind {
            TraceKind::Admit {
                devices,
                reservations,
                ..
            } => (devices[0], reservations[0]),
            _ => unreachable!(),
        };
        let ((gang_on, gang_peak), (tower_on, tower_peak)) = (reserved("gang"), reserved("tower"));
        assert_eq!((gang_on, tower_on), (0, 0));
        assert!(
            gang_peak + tower_peak <= dram,
            "its peak fits beside the tower"
        );
        let done = at("tower", |k| matches!(k, TraceKind::Complete)).t_ns;
        let restart = at("gang", |k| matches!(k, TraceKind::Restart { .. })).t_ns;
        assert!(done > (cut + SimTime::from_us(100)).0);
        assert_eq!(restart, done, "parked until the tower completed");
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
        let mut rec = FullRecorder::new(TraceSink::off(), Vec::new(), 0);
        let core = Core::new(&sim, &mut stream(), &mut rec).run();
        let run = ClusterReport::assemble(&sim.fleet, sim.placement, rec, &core, 0);
        assert_eq!(run.makespan, svc.makespan);
        assert!(run.trace.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(run.trace.iter().all(|e| e.t_ns <= run.makespan.0));
        let arrived: Vec<u64> = run.jobs.iter().map(|j| j.arrival.0).collect();
        assert_eq!(
            arrived,
            [5_000, 5_000, 7_000, 7_000, 7_000, 2_000_000, 2_000_000],
            "each taken at its own time or, if that is past, at the clock's"
        );
    }

    #[test]
    fn a_refused_gang_waits_parks_or_is_rejected_by_its_size_and_the_live_devices() {
        // Four devices of one card, two of them failed for good: k = 2 live
        // of n = 4. A gang that fits k waits for capacity, one that only an
        // outage blocks parks (or waits, without recovery), and an empty
        // gang, one larger than the fleet or one no card fits is rejected.
        let (k, n) = (2, 4);
        let big = tower("big", 10).with_preset(PolicyPreset::Baseline);
        let peak = Profiler::new()
            .profile_kind(
                big.workload,
                32,
                big.preset,
                big.kind,
                &DeviceSpec::k40c(),
                1 << 30,
            )
            .expect("the tower fits 1 GB")
            .peak_bytes;
        // The tower at batch 32 under baseline alone overfills the card.
        let unfit = JobSpec {
            batch: 32,
            ..big.clone()
        }
        .with_downgrade(false);
        let cases = [
            (tower("g0", 10).with_replicas(0), "reject", "reject"),
            (tower("gk", 10).with_replicas(k), "wait", "wait"),
            (tower("gk1", 10).with_replicas(k + 1), "park", "wait"),
            (tower("gn", 10).with_replicas(n), "park", "wait"),
            (tower("gn1", 10).with_replicas(n + 1), "reject", "reject"),
            (unfit.with_replicas(k), "reject", "reject"),
        ];
        for mode in [RecoveryMode::Restart, RecoveryMode::NoRecovery] {
            let mut sim = ClusterSim::new(devices(n, peak - 1), PlacementPolicy::FirstFit);
            let dead = FaultPlan::new()
                .kill(SimTime::ZERO, 2)
                .kill(SimTime::ZERO, 3);
            sim.enable_faults(dead, RecoveryPolicy::default().with_mode(mode));
            with_core(&sim, Vec::new(), |core| {
                core.until("two devices failed", |c| c.live == k);
                for (spec, restart, no_recovery) in cases.clone() {
                    let want = if mode == RecoveryMode::Restart {
                        restart
                    } else {
                        no_recovery
                    };
                    let name = spec.name.clone();
                    let key = core.jobs.insert(LiveJob {
                        spec,
                        seq: core.next_seq,
                        arrival: SimTime(core.now_ns),
                        run: None,
                        iters_done: 0,
                        attempts: 0,
                        wasted_iters: 0,
                        resume: None,
                    });
                    core.next_seq += 1;
                    let (parked, rejected) = (core.parked, core.out.rejected);
                    let got = if core.wait_or_give_up(key) {
                        "wait"
                    } else if core.parked > parked {
                        "park"
                    } else {
                        assert_eq!(core.out.rejected, rejected + 1, "{name}: neither kept");
                        "reject"
                    };
                    assert_eq!(got, want, "{name} under {}", mode.name());
                }
            });
        }
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
    #[should_panic(expected = "queued completion is not anchor + pace.wall(remaining)")]
    fn a_skipped_re_anchor_fails_the_check() {
        // A gang runs on both devices; a solo tenant joining device 0 doubles
        // its pace. A record that claims pace 2 already, its completion left
        // where pace 1 put it, makes the sweep pass the gang by, as a sweep
        // that missed it would.
        let sim = ClusterSim::new(devices(2, 1 << 30), PlacementPolicy::FirstFit);
        let gang = tower("g", 1000).with_replicas(2);
        let arrivals = vec![(SimTime::ZERO, gang), (SimTime(1000), tower("s", 1000))];
        with_core(&sim, arrivals, |core| {
            core.until("the gang started", |c| c.running == 1);
            let gang = core.tenants_on[1].list[0].key;
            core.gangs[gang.index()].pace = Pace::new(2);
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

    /// A ten-iteration baseline tower that may not downgrade.
    fn baseline_tower(name: &str) -> JobSpec {
        let job = tower(name, 10).with_preset(PolicyPreset::Baseline);
        job.with_downgrade(false)
    }

    /// One device with room for one baseline tower, not two, driven to the
    /// instant the second waits, its shape refused; then `corrupt`.
    fn waiting_tower(corrupt: impl FnOnce(&mut Core<StreamRecorder>)) {
        let spec = DeviceSpec::k40c();
        let a = baseline_tower("a");
        let peak = Profiler::new()
            .profile_kind(
                a.workload,
                a.batch,
                a.preset,
                a.kind,
                &spec,
                spec.dram_bytes,
            )
            .expect("a tower fits 12 GB")
            .peak_bytes;
        let sim = ClusterSim::new(devices(1, peak * 3 / 2), PlacementPolicy::FirstFit);
        let arrivals = vec![
            (SimTime::ZERO, baseline_tower("a")),
            (SimTime(1000), baseline_tower("b")),
        ];
        with_core(&sim, arrivals, |core| {
            core.until("the second tower waited", |c| c.pending.len() == 1);
            corrupt(core);
        });
    }

    #[test]
    #[should_panic(expected = "its shape is in the blocked set of a state that admits it")]
    fn a_blocked_set_kept_across_a_state_change_fails_the_check() {
        // The first tower's completion moves the state, and the second's
        // refusal must go with it; a set that claims the new state keeps it.
        waiting_tower(|core| {
            let shape = shape_key(&baseline_tower("b"));
            core.memo.is_blocked(core.state_version + 1, &shape);
            core.memo.block(shape);
            core.checked_instant();
        });
    }

    #[test]
    #[should_panic(expected = "its shape is in the blocked set of a state that admits it")]
    fn a_refused_shape_no_queued_job_has_fails_the_check() {
        // The same tower at batch 1 fits beside the first: a set that claims
        // it refused in this state is wrong, though no queued job has it.
        waiting_tower(|core| {
            let mut small = baseline_tower("c");
            small.batch = 1;
            core.memo.block(shape_key(&small));
            core.check(core.now_ns);
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
            let progress = &mut core.gangs[gang.index()];
            // Restarted this instant: its anchor is now, its work all left.
            let left = progress.remaining(core.now_ns);
            *progress = Progress::new(left / 2, core.now_ns, progress.pace);
            core.check(core.now_ns);
        });
    }
}
