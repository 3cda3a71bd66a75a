//! The retained reference event loop — the PR-4 playbook applied to the
//! scheduler itself.
//!
//! [`ClusterSim::run`] is now an indexed discrete-event core (binary-heap
//! event queue, slab job state, per-device tenant lists, lazy re-anchoring).
//! This module keeps the loop it replaced: O(running) projection recompute
//! and a full device scan on **every** event, plain vectors, the `JobSpec`
//! clone into a parallel `specs` vec — the lot. The differential suite pins
//! the indexed loop to this one with [`ClusterReport::bit_identical`]:
//! outcomes, trace events, and the per-device f64 integrals must match *by
//! bit pattern*, which is only possible if both loops perform the same
//! floating-point operations in the same order.
//!
//! One surgical change was made while retaining it, and it is the change
//! that makes a lazy loop well-defined at all: **anchor-based progress**.
//! The old loop decremented every running gang's `remaining_ns` by `dt/s`
//! on every event; float subtraction is not associative, so no loop that
//! touches fewer gangs per event can reproduce those bits. Instead each
//! gang carries `(anchor_ns, remaining_ns, slowdown)` and folds progress
//! into `remaining_ns` **only when its slowdown actually changes** — the
//! top-of-loop re-anchor pass below. Its projected completion is always
//! `anchor + remaining · slowdown`, whether the gang was touched once or a
//! thousand events ago. The indexed loop performs exactly these operations
//! (triggered through per-device tenant lists instead of a full scan), so
//! the two loops are bit-comparable while doing asymptotically different
//! amounts of work. Mathematically the schedule is unchanged — the same
//! processor-sharing integral, evaluated with fewer roundings.
//!
//! [`ClusterReport::bit_identical`]: crate::report::ClusterReport::bit_identical

use sn_sim::SimTime;
use sn_telemetry::TrackId;

use crate::admission::{feasible_on_idle_fleet, ladder_for, Grant};
use crate::job::JobSpec;
use crate::report::{ClusterReport, JobOutcome, RejectReason, TraceEvent, TraceKind};
use crate::sim::{gang_slowdown, AdmitScratch, ClusterSim, DeviceState};

/// A gang currently executing, with anchor-based progress accounting.
#[derive(Debug, Clone)]
struct Running {
    job: usize,
    grant: Grant,
    /// Remaining work in ns of *solo* execution time, valid as of
    /// `anchor_ns`.
    remaining_ns: f64,
    /// Virtual time at which `remaining_ns` was last made current.
    anchor_ns: f64,
    /// The processor-sharing slowdown in force since `anchor_ns`.
    slowdown: f64,
}

impl ClusterSim {
    /// Run the job stream to completion with the retained reference loop.
    /// Semantics (and, by the differential suite, bits) are identical to
    /// [`ClusterSim::run`]; cost per event is O(running + pending + devices)
    /// regardless of what the event touches.
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

        let mut devices = vec![DeviceState::default(); self.fleet.len()];
        let mut scratch = AdmitScratch::default();
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut pending: Vec<usize> = Vec::new(); // FIFO queue of job indices
        let mut running: Vec<Running> = Vec::new();
        let mut next_arrival = 0usize;
        let mut now_ns = 0f64;
        let mut peak_concurrent = 0usize;

        loop {
            // Re-anchor pass: fold progress into `remaining_ns` for every
            // gang whose slowdown changed at the previous event (tenant
            // counts moved on one of its devices). Gangs whose slowdown is
            // unchanged are *not touched* — their remaining work stays
            // bit-identical no matter how many events pass.
            for r in running.iter_mut() {
                let s = gang_slowdown(&devices, &r.grant);
                if s != r.slowdown {
                    r.remaining_ns -= (now_ns - r.anchor_ns) / r.slowdown;
                    r.anchor_ns = now_ns;
                    r.slowdown = s;
                }
            }

            // Projected completion per running gang (f64-exact, so the same
            // expression below re-identifies the completing jobs).
            let projections: Vec<f64> = running
                .iter()
                .map(|r| r.anchor_ns + r.remaining_ns * r.slowdown)
                .collect();
            let t_completion = projections.iter().copied().fold(f64::INFINITY, f64::min);
            // Keep the arrival timestamp in integer nanoseconds; its f64
            // projection is only used to order it against completion
            // projections (which are inherently f64 under processor sharing).
            let t_arrival_ns: Option<u64> = arrivals.get(next_arrival).map(|(t, _)| t.0);
            let t_arrival = t_arrival_ns.map(|t| t as f64).unwrap_or(f64::INFINITY);
            let t_next = t_completion.min(t_arrival);
            if t_next.is_infinite() {
                debug_assert!(pending.is_empty(), "queued jobs with no future events");
                break;
            }

            // Advance the clock: device accounting integrates (per-gang
            // progress is implicit in the anchors).
            let dt = t_next - now_ns;
            if dt > 0.0 {
                for d in devices.iter_mut() {
                    if d.tenants > 0 {
                        d.busy_ns += dt;
                    }
                    d.reserved_integral += d.reserved as f64 * dt;
                }
            }
            // Never move the clock backwards: an arrival timestamp past 2^53
            // ns can *round down* below a completion the clock already
            // advanced to.
            now_ns = now_ns.max(t_next);

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
                    devices[p.device].reserved -= p.prediction.peak_bytes;
                    devices[p.device].tenants -= 1;
                }
                outcomes[r.job].completion = Some(SimTime(now_ns.round() as u64));
                trace.push(TraceEvent {
                    t_ns: now_ns.round() as u64,
                    job: specs[r.job].name.clone(),
                    kind: TraceKind::Complete,
                });
                if tracing {
                    let started = outcomes[r.job].started.map(|s| s.0).unwrap_or(0);
                    let end = (now_ns.round() as u64).max(started);
                    let preset = outcomes[r.job].granted.map(|p| p.name()).unwrap_or("?");
                    self.sink.span_with(
                        tracks[r.job],
                        "running".to_string(),
                        "cluster",
                        started,
                        end,
                        vec![
                            ("preset", preset.into()),
                            ("replicas", specs[r.job].replicas.into()),
                        ],
                    );
                }
                if let Some(m) = &self.metrics {
                    m.completed.inc();
                    if let Some(l) = outcomes[r.job].latency() {
                        m.latency_ns.record(l.0);
                    }
                }
            }

            // Arrivals at this instant join the queue in input order. Match
            // on the *integer* nanosecond timestamp, not its f64 projection:
            // beyond 2^53 ns distinct arrival times collapse under `as f64`,
            // and a float-equality match would drop (or spuriously merge)
            // coincident arrivals. Only arrivals sharing the exact SimTime
            // of the one that triggered this event are coincident.
            if t_arrival <= t_next {
                let t_ns = t_arrival_ns.expect("finite arrival projection");
                while next_arrival < n_jobs && arrivals[next_arrival].0 .0 == t_ns {
                    pending.push(next_arrival);
                    trace.push(TraceEvent {
                        t_ns,
                        job: specs[next_arrival].name.clone(),
                        kind: TraceKind::Arrive,
                    });
                    if tracing {
                        self.sink.instant(
                            tracks[next_arrival],
                            "arrive",
                            "cluster",
                            t_ns,
                            Vec::new(),
                        );
                    }
                    if let Some(m) = &self.metrics {
                        m.submitted.inc();
                    }
                    next_arrival += 1;
                }
            }

            // Admission/placement pass: FIFO with backfill — a blocked job
            // stays queued while later, smaller jobs may slot in behind it.
            let mut still_pending = Vec::with_capacity(pending.len());
            for &job_idx in pending.iter() {
                let job = &specs[job_idx];
                match self.try_admit(&devices, job, &mut scratch) {
                    Some(grant) => {
                        let step = self.step_time(job, &grant);
                        let work_ns = step.0 as f64 * job.iterations as f64;
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
                        }
                        let out = &mut outcomes[job_idx];
                        out.started = Some(SimTime(now_ns.round() as u64));
                        out.granted = Some(grant.preset);
                        out.devices = grant.placements.iter().map(|p| p.device).collect();
                        out.reservations = grant
                            .placements
                            .iter()
                            .map(|p| p.prediction.peak_bytes)
                            .collect();
                        trace.push(TraceEvent {
                            t_ns: now_ns.round() as u64,
                            job: job.name.clone(),
                            kind: TraceKind::Admit {
                                preset: grant.preset,
                                devices: out.devices.clone(),
                                reservations: out.reservations.clone(),
                            },
                        });
                        if tracing {
                            let arrival = outcomes[job_idx].arrival.0;
                            let t = (now_ns.round() as u64).max(arrival);
                            self.sink.span_with(
                                tracks[job_idx],
                                "queued".to_string(),
                                "cluster",
                                arrival,
                                t,
                                vec![("preset", grant.preset.name().into())],
                            );
                        }
                        if let Some(m) = &self.metrics {
                            m.admitted.inc();
                            if let Some(q) = outcomes[job_idx].queueing() {
                                m.queueing_ns.record(q.0);
                            }
                        }
                        // The gang's slowdown is read *after* its own
                        // reservations landed; a later same-pass admission
                        // that changes it is folded in by the next event's
                        // re-anchor pass (a zero-dt, bit-safe update).
                        let slowdown = gang_slowdown(&devices, &grant);
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
                                slowdown,
                            },
                        );
                    }
                    None => {
                        if feasible_on_idle_fleet(&self.profiler, &self.fleet, job) {
                            still_pending.push(job_idx); // wait for capacity
                        } else {
                            let reason = if job.replicas == 0 {
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
                            };
                            outcomes[job_idx].rejected = Some(reason.clone());
                            if tracing {
                                self.sink.instant(
                                    tracks[job_idx],
                                    "reject",
                                    "cluster",
                                    now_ns.round() as u64,
                                    vec![("reason", reason.kind().into())],
                                );
                            }
                            if let Some(m) = &self.metrics {
                                m.count_reject(&reason);
                            }
                            trace.push(TraceEvent {
                                t_ns: now_ns.round() as u64,
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

        let makespan = SimTime(now_ns.round() as u64);
        ClusterReport::assemble(
            &self.fleet,
            self.placement,
            outcomes,
            trace,
            makespan,
            devices
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
            peak_concurrent,
            self.profiler.simulated(),
        )
    }
}
