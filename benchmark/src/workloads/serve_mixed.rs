//! `serve_mixed` — the cluster event loop under open-loop load.
//!
//! Each pass is one complete `ClusterSim::run_stream` over the same
//! pre-generated arrival trace on 64 × 96 MB devices: exponential gaps sized
//! for ρ ≈ 0.83, just short of where queueing for memory starts; one job in three
//! forward-only; 2- and 4-replica gangs; a sparse fault plan (device outages
//! and memory-pressure spikes) under `RestartElastic` recovery. The event
//! loop, the admission ladder and placement, the per-simulator `Profiler`
//! cache and the fault / retry arms do the work; every pass builds a fresh
//! simulator, so its profiler re-asks the process-wide plan memo — a few
//! hundred hits per pass and no compile after set-up. A unit is one
//! scheduling event.
//!
//! Open loop: arrivals sit on the simulated clock and never slow down with
//! the host, so the generator is never late (`bench.gen_late_ms` is 0 by
//! construction).
//!
//! The trace is built in blocks of 72 jobs. Every block holds the same
//! multiset of (template, iterations) and of gap quantiles; the seed shuffles
//! jobs and gaps within each block and places the faults. Offered load is
//! therefore equal across seeds block by block, while which job follows
//! which — what queueing depends on — is not.

use std::time::Instant;

use superneurons::cluster::{
    ArrivalStream, ClusterSim, FaultPlan, Fleet, JobKind, JobSpec, PlacementPolicy, PolicyPreset,
    Profiler, RecoveryMode, RecoveryPolicy, ServiceReport, Workload as Model,
};
use superneurons::runtime::Interconnect;
use superneurons::sim::{DeviceSpec, SimTime};
use superneurons::{MetricsRegistry, TraceSink};

use super::{Digest, MB};
use crate::harness::{Checks, Measured, MemoUse, PassResult, Workload};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, SpanRec};

const DEVICES: usize = 64;
const DEVICE_DRAM: u64 = 96 * MB;
const BLOCK: usize = 72;
/// Blocks at full size: 7 488 jobs.
const BLOCKS: usize = 104;
/// Mean inter-arrival gap. With the template mix below this offers ρ ≈ 0.83
/// of the fleet's compute: busy, with 300–400 jobs live, but short of the
/// knee (≈ 140 µs) where queueing for memory sets in. Past the knee the same
/// offered load costs the host 1.5–3× more per event depending on which job
/// follows which, and no metric of the workload repeats across seeds within
/// a tenth.
const MEAN_GAP_NS: f64 = 160_000.0;
const OUTAGES: usize = 4;
const SPIKES: usize = 4;

/// (width, depth, batch, replicas) of the training templates and
/// (width, depth, batch) of the serving ones: a serving fleet's stable
/// catalogue of shapes.
const TRAINING: [(usize, usize, usize, usize); 6] = [
    (8, 2, 8, 1),
    (16, 3, 16, 1),
    (24, 4, 16, 2),
    (32, 2, 32, 1),
    (16, 5, 8, 1),
    (8, 3, 32, 4),
];
const SERVING: [(usize, usize, usize); 2] = [(16, 3, 16), (32, 2, 8)];
const SERVING_BATCHES: u32 = 24;

pub struct Inputs {
    fleet: Fleet,
    trace: Vec<(SimTime, JobSpec)>,
    faults: FaultPlan,
    templates: Vec<JobSpec>,
}

/// The benchmark's own `ArrivalStream`: replays the generated trace, cloning
/// each job as the loop pulls it (an arrival source hands the loop owned
/// jobs; the clone is that hand-over).
struct Replay<'a> {
    trace: std::slice::Iter<'a, (SimTime, JobSpec)>,
}

impl ArrivalStream for Replay<'_> {
    fn next_job(&mut self) -> Option<(SimTime, JobSpec)> {
        self.trace.next().cloned()
    }
}

fn templates() -> Vec<JobSpec> {
    let tower = |width, depth| Model::Synthetic { width, depth };
    let mut t: Vec<JobSpec> = TRAINING
        .iter()
        .map(|&(w, d, batch, replicas)| {
            JobSpec::new("tmpl", tower(w, d), batch)
                .with_replicas(replicas)
                .with_preset(PolicyPreset::Superneurons)
                .with_downgrade(true)
        })
        .collect();
    t.extend(SERVING.iter().map(|&(w, d, batch)| {
        JobSpec::new("tmpl", tower(w, d), batch)
            .with_kind(JobKind::Inference)
            .with_iterations(SERVING_BATCHES)
            .with_preset(PolicyPreset::Superneurons)
            .with_downgrade(true)
    }));
    t
}

#[cfg(test)]
impl Inputs {
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        for (t, job) in &self.trace {
            d.word(t.0);
            d.bytes(job.name.as_bytes());
            d.bytes(job.workload.label().as_bytes());
            for w in [job.batch, job.replicas, job.iterations as usize] {
                d.word(w as u64);
            }
        }
        for (t, e) in self.faults.events() {
            d.word(t.0);
            d.bytes(e.describe().as_bytes());
        }
        d.0
    }
}

pub struct ServeMixed;

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    const UNIT: &'static str = "event";
    const WHY: &'static str = "open-loop arrivals at rho~0.83 with gangs, inference and faults: \
        the event loop, admission ladder, placement and Profiler cache do the work; the planner \
        compiles nothing and the memo only hits";
    const MEMO: MemoUse = MemoUse::HitsOnly;
    type Inputs = Inputs;
    type State<'a> = State<'a>;

    fn generate(seed: u64, quick: bool) -> Inputs {
        let templates = templates();
        let blocks = if quick { BLOCKS / 50 } else { BLOCKS };
        // One block: every training template at every length 3..=10, and
        // every serving template twelve times — one job in three serves.
        let mut block: Vec<(usize, u32)> = Vec::with_capacity(BLOCK);
        for t in 0..TRAINING.len() {
            block.extend((3..=10).map(|iters| (t, iters)));
        }
        for s in 0..SERVING.len() {
            block.extend(std::iter::repeat_n(
                (TRAINING.len() + s, SERVING_BATCHES),
                12,
            ));
        }
        assert_eq!(block.len(), BLOCK);
        // Exponential gaps as exact quantiles, so every block spans the same
        // simulated time.
        let mut gaps: Vec<u64> = (0..BLOCK)
            .map(|i| (-(1.0 - (i as f64 + 0.5) / BLOCK as f64).ln() * MEAN_GAP_NS) as u64)
            .collect();

        let (mut jobs_rng, mut gaps_rng) = (Rng::new(seed, 0x10b5), Rng::new(seed, 0x6a95));
        let mut trace = Vec::with_capacity(blocks * BLOCK);
        let mut t_ns = 0u64;
        for _ in 0..blocks {
            jobs_rng.shuffle(&mut block);
            gaps_rng.shuffle(&mut gaps);
            for (&(which, iterations), gap) in block.iter().zip(&gaps) {
                t_ns += gap;
                let mut job = templates[which].clone();
                job.name = format!("pj{:07}", trace.len());
                job.iterations = iterations;
                trace.push((SimTime(t_ns), job));
            }
        }

        // Faults: one per equal slice of the arrival window, at a seeded
        // instant inside its slice, on a seeded device.
        let mut rng = Rng::new(seed, 0xfa17);
        let mut faults = FaultPlan::new();
        let mut place = |n: usize, k: usize| {
            let slice = t_ns / n as u64;
            let at = slice * k as u64 + (rng.unit() * slice as f64) as u64;
            (SimTime(at), rng.below(DEVICES))
        };
        for k in 0..if quick { 1 } else { OUTAGES } {
            let (at, device) = place(OUTAGES, k);
            faults = faults.outage(at, device, SimTime::from_ms(20));
        }
        for k in 0..if quick { 1 } else { SPIKES } {
            let (at, device) = place(SPIKES, k);
            faults = faults.spike(at, device, DEVICE_DRAM / 2, SimTime::from_ms(30));
        }

        Inputs {
            fleet: Fleet::homogeneous(
                DEVICES,
                DeviceSpec::k40c().with_dram(DEVICE_DRAM),
                Interconnect::pcie(),
            ),
            trace,
            faults,
            templates,
        }
    }

    fn set_up(inputs: &Inputs) -> State<'_> {
        // First contact goes through the recording entry point, `run`: it
        // warms the same caches and keeps per-job outcomes, which give the
        // exact tail the streaming passes' sketch is checked against.
        let full = inputs.sim(None).run(inputs.trace.clone());
        let mut lat: Vec<u64> = full
            .jobs
            .iter()
            .filter_map(|j| j.latency())
            .map(|l| l.0)
            .collect();
        let p99_ns = stats::nearest_rank(&mut lat, 0.99);
        let mut st = State {
            inputs,
            reference: Reference {
                makespan: full.makespan,
                completed: full.completed as u64,
                rejected: full.rejected as u64,
                failed: full.failed as u64,
                restarts: full.restarts,
                p99_ns,
            },
            telemetry: None,
            telemetry_on: false,
            last: None,
        };
        st.pass();
        st
    }
}

impl Inputs {
    fn sim(&self, telemetry: Option<&(TraceSink, MetricsRegistry)>) -> ClusterSim {
        let mut sim = ClusterSim::new(self.fleet.clone(), PlacementPolicy::BestFit);
        sim.enable_faults(
            self.faults.clone(),
            RecoveryPolicy::default().with_mode(RecoveryMode::RestartElastic),
        );
        if let Some((sink, registry)) = telemetry {
            sim.enable_tracing(sink);
            sim.enable_metrics(registry);
        }
        sim
    }
}

/// What the recording run of the same trace reported.
struct Reference {
    makespan: SimTime,
    completed: u64,
    rejected: u64,
    failed: u64,
    restarts: u64,
    /// Exact p99 job latency over per-job outcomes.
    p99_ns: u64,
}

pub struct State<'a> {
    inputs: &'a Inputs,
    reference: Reference,
    telemetry: Option<(TraceSink, MetricsRegistry)>,
    telemetry_on: bool,
    last: Option<(ServiceReport, usize)>,
}

impl Measured for State<'_> {
    fn pass(&mut self) -> PassResult {
        let i = self.inputs;
        let telemetry = self.telemetry.as_ref().filter(|_| self.telemetry_on);
        let mut sim = i.sim(telemetry);
        let mut stream = Replay {
            trace: i.trace.iter(),
        };
        let rep = trace::span("cluster.run_stream", 0, || sim.run_stream(&mut stream));

        let last_arrival = i.trace.last().map_or(SimTime::ZERO, |a| a.0);
        let want = &self.reference;
        let checks = [
            rep.conservation_holds(),
            rep.submitted == i.trace.len() as u64,
            rep.makespan >= last_arrival,
            // The streaming and the recording entry point ran one schedule.
            rep.makespan == want.makespan
                && rep.completed == want.completed
                && rep.rejected == want.rejected
                && rep.failed == want.failed
                && rep.restarts == want.restarts,
            // The sketch reports its bucket's upper bound: at most 1/16 above
            // the exact value and never below it.
            want.p99_ns <= rep.p99_latency.0
                && rep.p99_latency.0 <= want.p99_ns + want.p99_ns / 16 + 1,
        ];
        let mut d = Digest::new();
        for w in [
            rep.events,
            rep.rejected,
            rep.failed,
            rep.still_queued,
            rep.interrupted,
            rep.restarts,
            rep.useful_iterations,
            rep.wasted_iterations,
            rep.p50_latency.0,
            rep.p99_latency.0,
            rep.p999_latency.0,
            rep.mean_queueing.0,
            rep.compute_utilization.to_bits(),
            rep.memory_utilization.to_bits(),
            rep.peak_concurrent_jobs as u64,
            rep.peak_live_jobs as u64,
        ] {
            d.word(w);
        }
        let mut r = PassResult {
            units: rep.events,
            attempted: rep.submitted + checks.len() as u64,
            failed: 0,
            fit: rep.completed,
            cells: rep.submitted,
            sim_time_ns: rep.makespan.0,
            sim_tail_ns: want.p99_ns,
            digest: d.0,
        };
        for (n, ok) in checks.iter().enumerate() {
            if !ok {
                r.fail(|| format!("report check #{n}: {rep:?} vs exact p99 {} ns", want.p99_ns));
            }
        }
        self.last = Some((rep, sim.gangs_measured()));
        r
    }

    /// Observing the run may not change it.
    fn verify(&mut self, checks: &mut Checks) {
        self.telemetry(true);
        let on = self.pass();
        self.telemetry(false);
        let off = self.pass();
        checks.check(on == off, || {
            format!("telemetry changed the simulation: {on:?} vs {off:?}")
        });
    }

    fn telemetry(&mut self, on: bool) -> bool {
        self.telemetry_on = on;
        if on {
            self.telemetry = Some((TraceSink::recording(), MetricsRegistry::new()));
        }
        true
    }

    fn layer_metrics(&mut self, spans: &[SpanRec], out: &mut Values) {
        let Some((rep, gangs)) = &self.last else {
            return;
        };
        let runs = trace::durations(spans, "cluster.run_stream");
        let run_s = stats::median(&runs) / 1e9;
        out.set("cluster.events", rep.events as f64, 1);
        out.set(
            "cluster.events_per_s",
            rep.events as f64 / run_s,
            runs.len() as u64,
        );
        out.set("cluster.gangs_measured", *gangs as f64, 1);
        out.set("cluster.peak_live_jobs", rep.peak_live_jobs as f64, 1);
        let jobs = rep.completed;
        out.set("cluster.sim_p50_ms", rep.p50_latency.as_ms_f64(), jobs);
        out.set("cluster.sim_p99_ms", rep.p99_latency.as_ms_f64(), jobs);
        out.set("cluster.sim_p999_ms", rep.p999_latency.as_ms_f64(), jobs);
        out.set(
            "cluster.sim_mean_queue_ms",
            rep.mean_queueing.as_ms_f64(),
            jobs,
        );
        out.set("cluster.sim_compute_util", rep.compute_utilization, 1);
        out.set("cluster.sim_mem_util", rep.memory_utilization, 1);
        out.set("cluster.restarts", rep.restarts as f64, 1);
        out.set("cluster.wasted_iterations", rep.wasted_iterations as f64, 1);
        out.set("cluster.rejected", rep.rejected as f64, rep.submitted);
        out.set("cluster.failed", rep.failed as f64, rep.submitted);
        out.set("bench.gen_late_ms", 0.0, rep.submitted);
        self.profiler_probe(out);
    }
}

impl State<'_> {
    /// sn-cluster's admission profiler, called directly: every template at
    /// a ladder of budgets on a fresh `Profiler` (each call is a profiler
    /// miss answered by the plan memo), and every gang template's measured
    /// step.
    fn profiler_probe(&self, out: &mut Values) {
        let i = self.inputs;
        let spec = &i.fleet.devices[0];
        let (mut profile_us, mut gang_us) = (Vec::new(), Vec::new());
        for round in 0..8 {
            let profiler = Profiler::new();
            for job in &i.templates {
                for budget in [
                    DEVICE_DRAM,
                    DEVICE_DRAM / 2,
                    DEVICE_DRAM / 4,
                    DEVICE_DRAM / 8,
                ] {
                    let t = Instant::now();
                    let p = trace::span("cluster.profile", round, || {
                        profiler.profile_kind(
                            job.workload,
                            job.batch,
                            job.preset,
                            job.kind,
                            spec,
                            budget,
                        )
                    });
                    profile_us.push(t.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(p);
                }
                if job.replicas > 1 {
                    let t = Instant::now();
                    let s = trace::span("cluster.gang_step", round, || {
                        profiler.gang_step_time(
                            job.workload,
                            job.batch,
                            job.preset,
                            job.replicas,
                            spec,
                            i.fleet.interconnect,
                        )
                    });
                    gang_us.push(t.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(s);
                }
            }
        }
        out.set(
            "cluster.profile_us_p50",
            stats::median(&profile_us),
            profile_us.len() as u64,
        );
        out.set(
            "cluster.gang_step_us_p50",
            stats::median(&gang_us),
            gang_us.len() as u64,
        );
    }
}
