//! The retained reference event loop — the PR-4 playbook applied to the
//! scheduler itself.
//!
//! [`ClusterSim::run`] is an indexed discrete-event core (addressable event
//! heap, slab job state, per-device tenant lists, lazy re-anchoring, device
//! integrals settled only when a device changes). This module keeps the
//! loop it replaced: every running gang's completion re-projected, every
//! device integrated and the whole queue re-asked on **every** event, plain
//! vectors, the `JobSpec` clone into a parallel `specs` vec — the lot. The
//! differential suite pins the indexed loop to this one with
//! [`ClusterReport::bit_identical`]: outcomes, trace events and the
//! per-device integer integrals must be equal. Both loops keep time on one
//! `u64` ns clock and share the `Pace` arithmetic (the two roundings and
//! their contract are the definition of the schedule, not an implementation
//! choice); what is compared is indexed against scanned, and lazily settled
//! integrals against this loop's eager ones.
//!
//! One rule is shared with the indexed loop because it, too, defines the
//! schedule: **progress is folded only when the pace changes**. Each gang
//! carries `(anchor, remaining, pace)`; its projected completion is always
//! `anchor + pace.wall(remaining)`, and `remaining −= pace.work(now −
//! anchor)` happens in the top-of-loop re-anchor pass only for a gang whose
//! pace moved at the previous event. A fold floors once — it can credit up
//! to one ns of work less than was done — so a loop that folded every gang
//! at every event would drift later with every event it handled, and no
//! loop touching fewer gangs could agree with it. Folding on a pace change
//! costs one floor per change however many events pass in between, and
//! makes a gang's completion a function of its own history alone.
//!
//! [`ClusterReport::bit_identical`]: crate::report::ClusterReport::bit_identical

use sn_sim::SimTime;
use sn_telemetry::TrackId;

use crate::admission::{feasible_on_idle_fleet, Grant};
use crate::job::JobSpec;
use crate::pace::Pace;
use crate::report::{ClusterReport, JobOutcome, TraceEvent, TraceKind};
use crate::sim::{gang_pace, AdmitScratch, ClusterSim, DeviceState};

/// A gang currently executing, with anchor-based progress accounting.
#[derive(Debug, Clone)]
struct Running {
    job: usize,
    grant: Grant,
    /// Remaining work in ns of *solo* execution time, valid as of
    /// `anchor_ns`.
    remaining_ns: u64,
    /// Virtual time at which `remaining_ns` was last made current.
    anchor_ns: u64,
    /// The processor-sharing pace in force since `anchor_ns`.
    pace: Pace,
}

impl Running {
    fn completion_ns(&self) -> u64 {
        self.anchor_ns
            .saturating_add(self.pace.wall(self.remaining_ns))
    }
}

impl ClusterSim {
    /// Run the job stream to completion with the retained reference loop.
    /// Semantics (and, by the differential suite, every reported integer)
    /// are identical to [`ClusterSim::run`]; cost per event is O(running +
    /// pending + devices) regardless of what the event touches.
    // The retained reference: kept in one piece on purpose, so it reads top
    // to bottom as the specification the handlers of `sim.rs` are held to.
    #[allow(clippy::too_many_lines)]
    pub fn run_reference(&mut self, arrivals: Vec<(SimTime, JobSpec)>) -> ClusterReport {
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|(t, _)| *t); // stable: ties keep input order

        let n_jobs = arrivals.len();
        let mut outcomes: Vec<JobOutcome> = arrivals
            .iter()
            .map(|(t, j)| JobOutcome::pending(j, *t))
            .collect();
        let specs: Vec<JobSpec> = arrivals.iter().map(|(_, j)| j.clone()).collect();

        // One per-tenant track per job under the "cluster" process; empty
        // when untraced (and every sink call below is guarded).
        let tracing = self.sink.is_enabled();
        let tracks: Vec<TrackId> = if tracing {
            specs
                .iter()
                .map(|j| self.sink.track("cluster", &j.name))
                .collect()
        } else {
            Vec::new()
        };

        let mut devices: Vec<DeviceState> =
            self.fleet().devices.iter().map(DeviceState::idle).collect();
        let mut scratch = AdmitScratch::default();
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut pending: Vec<usize> = Vec::new(); // FIFO queue of job indices
        let mut running: Vec<Running> = Vec::new();
        let mut next_arrival = 0usize;
        let mut now_ns = 0u64;
        let mut peak_concurrent = 0usize;

        loop {
            // Re-anchor pass: fold progress into `remaining_ns` for every
            // gang whose pace changed at the previous event (tenant counts
            // moved on one of its devices). Gangs whose pace is unchanged
            // are *not touched* (see the module docs).
            for r in running.iter_mut() {
                let pace = gang_pace(&devices, &r.grant, 1000);
                if pace != r.pace {
                    r.remaining_ns -= r.pace.work(now_ns - r.anchor_ns);
                    r.anchor_ns = now_ns;
                    r.pace = pace;
                }
            }

            // Projected completion per running gang; the same expression
            // below re-identifies the completing jobs.
            let projections: Vec<u64> = running.iter().map(Running::completion_ns).collect();
            let t_arrival: Option<u64> = arrivals.get(next_arrival).map(|(t, _)| t.0);
            let Some(t_next) = projections.iter().copied().chain(t_arrival).min() else {
                debug_assert!(pending.is_empty(), "queued jobs with no future events");
                break;
            };

            // Advance the clock: device accounting integrates, eagerly and
            // on every device (per-gang progress is implicit in the
            // anchors).
            let dt = t_next - now_ns;
            for d in devices.iter_mut() {
                if d.tenants > 0 {
                    d.busy_ns += dt;
                }
                d.reserved_integral += u128::from(d.reserved()) * u128::from(dt);
            }
            now_ns = t_next;

            // Completions first (freeing capacity for same-instant arrivals),
            // lowest job index first. Partition rather than remove-by-index:
            // several gangs can finish at the same instant. `running` is
            // kept sorted by job index at insertion, so the partition is
            // already in completion-report order — no per-event sort.
            let mut done: Vec<Running> = Vec::new();
            let mut still_running = Vec::with_capacity(running.len());
            for (i, r) in running.into_iter().enumerate() {
                if projections[i] == t_next {
                    done.push(r);
                } else {
                    still_running.push(r);
                }
            }
            running = still_running;
            debug_assert!(done.windows(2).all(|w| w[0].job < w[1].job));
            for r in done {
                for p in &r.grant.placements {
                    let spec = &self.fleet().devices[p.device];
                    devices[p.device].vacate(spec, p.prediction.peak_bytes);
                }
                outcomes[r.job].completion = Some(SimTime(now_ns));
                trace.push(TraceEvent {
                    t_ns: now_ns,
                    job: specs[r.job].name.clone(),
                    kind: TraceKind::Complete,
                });
                if tracing {
                    let started = outcomes[r.job].started.map(|s| s.0).unwrap_or(0);
                    let preset = outcomes[r.job].granted.map(|p| p.name()).unwrap_or("?");
                    self.sink.span_with(
                        tracks[r.job],
                        "running".to_string(),
                        "cluster",
                        started,
                        now_ns,
                        vec![
                            ("preset", preset.into()),
                            ("replicas", specs[r.job].replicas.into()),
                        ],
                    );
                }
                if let Some(m) = &self.metrics {
                    m.on_complete(now_ns - outcomes[r.job].arrival.0);
                }
            }

            // Arrivals at this instant join the queue in input order.
            while next_arrival < n_jobs && arrivals[next_arrival].0 .0 == now_ns {
                pending.push(next_arrival);
                trace.push(TraceEvent {
                    t_ns: now_ns,
                    job: specs[next_arrival].name.clone(),
                    kind: TraceKind::Arrive,
                });
                if tracing {
                    self.sink.instant(
                        tracks[next_arrival],
                        "arrive",
                        "cluster",
                        now_ns,
                        Vec::new(),
                    );
                }
                if let Some(m) = &self.metrics {
                    m.on_arrive();
                }
                next_arrival += 1;
            }

            // Admission/placement pass: FIFO with backfill — a blocked job
            // stays queued while later, smaller jobs may slot in behind it.
            let mut still_pending = Vec::with_capacity(pending.len());
            for &job_idx in pending.iter() {
                let job = &specs[job_idx];
                match self.try_admit(&devices, &self.walk_index(&devices), job, &mut scratch) {
                    Some(grant) => {
                        let step = self.step_time(job, &grant);
                        let work_ns = step.0.saturating_mul(u64::from(job.iterations));
                        for p in &grant.placements {
                            let (d, spec) = (p.device, &self.fleet().devices[p.device]);
                            devices[d].admit(spec, p.prediction.peak_bytes);
                            debug_assert!(
                                devices[d].reserved() <= spec.dram_bytes,
                                "reservation exceeds device {d} DRAM"
                            );
                        }
                        let out = &mut outcomes[job_idx];
                        out.started = Some(SimTime(now_ns));
                        out.granted = Some(grant.preset);
                        out.devices = grant.devices();
                        out.reservations = grant.peaks();
                        trace.push(TraceEvent {
                            t_ns: now_ns,
                            job: job.name.clone(),
                            kind: TraceKind::Admit {
                                preset: grant.preset,
                                devices: out.devices.clone(),
                                reservations: out.reservations.clone(),
                            },
                        });
                        if tracing {
                            self.sink.span_with(
                                tracks[job_idx],
                                "queued".to_string(),
                                "cluster",
                                outcomes[job_idx].arrival.0,
                                now_ns,
                                vec![("preset", grant.preset.name().into())],
                            );
                        }
                        if let Some(m) = &self.metrics {
                            m.on_admit(now_ns - outcomes[job_idx].arrival.0);
                        }
                        // The gang's pace is read *after* its own
                        // reservations landed; a later same-pass admission
                        // that changes it is folded in by the next event's
                        // re-anchor pass (a zero-elapsed update).
                        let pace = gang_pace(&devices, &grant, 1000);
                        // Insert in job-index order (admission may start a
                        // long-queued lower-index job after a later one),
                        // keeping `running` — and therefore every `done`
                        // partition — ordered by construction.
                        let pos = running.partition_point(|r| r.job < job_idx);
                        running.insert(
                            pos,
                            Running {
                                job: job_idx,
                                grant,
                                remaining_ns: work_ns,
                                anchor_ns: now_ns,
                                pace,
                            },
                        );
                    }
                    None => {
                        if feasible_on_idle_fleet(&self.profiler, self.fleet(), job) {
                            still_pending.push(job_idx); // wait for capacity
                        } else {
                            let reason = self.reject_reason(job);
                            outcomes[job_idx].rejected = Some(reason.clone());
                            if tracing {
                                self.sink.instant(
                                    tracks[job_idx],
                                    "reject",
                                    "cluster",
                                    now_ns,
                                    vec![("reason", reason.kind().into())],
                                );
                            }
                            if let Some(m) = &self.metrics {
                                m.on_reject(&reason);
                            }
                            trace.push(TraceEvent {
                                t_ns: now_ns,
                                job: job.name.clone(),
                                kind: TraceKind::Reject { reason },
                            });
                        }
                    }
                }
            }
            pending = still_pending;
            peak_concurrent = peak_concurrent.max(running.len());
        }

        ClusterReport::assemble(
            self.fleet(),
            self.placement,
            outcomes,
            trace,
            SimTime(now_ns),
            &devices,
            peak_concurrent,
            self.profiler.simulated(),
        )
    }
}
