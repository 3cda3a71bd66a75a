//! Reports: per-job outcomes, fleet-wide serving metrics, the deterministic
//! schedule trace, and their [`Json`] rendering for `BENCH_*.json`
//! artifacts — and what the event core reports through as it goes: its
//! metric handles and its recorders.

use std::hash::{Hash, Hasher};
use std::ops::Deref;

use fxhash::FxHasher;
use sn_runtime::executor::finite_rate;
use sn_sim::SimTime;
use sn_telemetry::{ArgValue, Counter, Histogram, Json, MetricsRegistry, TraceSink, TrackId};

use crate::admission::Grant;
use crate::event_core::{CoreOutcome, LiveJob};
use crate::fault::FaultEvent;
use crate::fleet::Fleet;
use crate::job::{JobKind, JobSpec, PolicyPreset};
use crate::latency::LatencySketch;
use crate::placement::PlacementPolicy;

/// Why admission permanently refused a job. Structured — so the metrics
/// registry counts rejections per kind instead of grepping free-form
/// strings — while [`RejectReason::render`] reproduces the historical
/// phrasing byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// A gang of zero replicas is not a schedulable job.
    EmptyGang,
    /// The gang wants more replicas than the fleet has devices.
    FleetTooSmall { replicas: usize, fleet: usize },
    /// No preset on the job's admission ladder fits even an idle fleet.
    PeakExceedsCapacity { presets: Vec<&'static str> },
}

impl RejectReason {
    /// Stable human phrasing, byte-identical to the pre-enum strings.
    pub fn render(&self) -> String {
        match self {
            RejectReason::EmptyGang => "gang of zero replicas is not schedulable".to_string(),
            RejectReason::FleetTooSmall { replicas, fleet } => {
                format!("wants {replicas} replicas but the fleet has {fleet} devices")
            }
            RejectReason::PeakExceedsCapacity { presets } => {
                format!("predicted peak exceeds fleet capacity under preset(s) {presets:?}")
            }
        }
    }

    /// Short machine label, used as the per-kind rejection counter suffix
    /// (`cluster.rejects.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            RejectReason::EmptyGang => "empty_gang",
            RejectReason::FleetTooSmall { .. } => "fleet_too_small",
            RejectReason::PeakExceedsCapacity { .. } => "peak_exceeds_capacity",
        }
    }
}

/// What happened at one scheduling instant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceKind {
    Arrive,
    Admit {
        preset: PolicyPreset,
        devices: Vec<usize>,
        reservations: Vec<u64>,
    },
    Reject {
        reason: RejectReason,
    },
    Complete,
    /// A [`crate::FaultPlan`] event applied to the fleet (the trace entry's
    /// `job` is `"fleet"`).
    Fault {
        desc: String,
    },
    /// A running gang lost a device; all its replicas released their
    /// reservations atomically.
    Interrupt {
        device: usize,
    },
    /// An interrupted job was re-placed and resumed from its checkpoint.
    Restart {
        preset: PolicyPreset,
        devices: Vec<usize>,
        reservations: Vec<u64>,
        from_iteration: u32,
    },
    /// The job failed permanently (no recovery, or retries exhausted).
    Fail {
        why: String,
    },
}

/// One schedule-trace entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    pub t_ns: u64,
    pub job: String,
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Stable one-line rendering.
    pub fn render(&self) -> String {
        match &self.kind {
            TraceKind::Arrive => format!("[{:>12}ns] ARRIVE   {}", self.t_ns, self.job),
            TraceKind::Admit {
                preset,
                devices,
                reservations,
            } => format!(
                "[{:>12}ns] ADMIT    {} preset={} devices={:?} reserve={:?}",
                self.t_ns,
                self.job,
                preset.name(),
                devices,
                reservations
            ),
            TraceKind::Reject { reason } => {
                format!(
                    "[{:>12}ns] REJECT   {} ({})",
                    self.t_ns,
                    self.job,
                    reason.render()
                )
            }
            TraceKind::Complete => format!("[{:>12}ns] COMPLETE {}", self.t_ns, self.job),
            TraceKind::Fault { desc } => {
                format!("[{:>12}ns] FAULT    {} ({})", self.t_ns, self.job, desc)
            }
            TraceKind::Interrupt { device } => format!(
                "[{:>12}ns] INTERRUPT {} (device {} failed)",
                self.t_ns, self.job, device
            ),
            TraceKind::Restart {
                preset,
                devices,
                reservations,
                from_iteration,
            } => format!(
                "[{:>12}ns] RESTART  {} preset={} devices={:?} reserve={:?} from_iter={}",
                self.t_ns,
                self.job,
                preset.name(),
                devices,
                reservations,
                from_iteration
            ),
            TraceKind::Fail { why } => {
                format!("[{:>12}ns] FAIL     {} ({})", self.t_ns, self.job, why)
            }
        }
    }
}

/// Final state of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobOutcome {
    pub name: String,
    pub workload: String,
    pub batch: usize,
    pub replicas: usize,
    /// Training job or forward-only serving job?
    pub kind: JobKind,
    pub requested: PolicyPreset,
    /// Preset actually granted (may be memory-stronger than requested).
    pub granted: Option<PolicyPreset>,
    pub devices: Vec<usize>,
    /// Per-replica reserved bytes, parallel to `devices`.
    pub reservations: Vec<u64>,
    pub arrival: SimTime,
    pub started: Option<SimTime>,
    pub completion: Option<SimTime>,
    pub rejected: Option<RejectReason>,
    /// Iterations the job asked for (its useful work when it completes).
    pub iterations: u32,
    /// Times the job was re-placed after an interruption.
    pub restarts: u32,
    /// Iterations executed but lost to interruptions (redone after restart,
    /// or gone for good on permanent failure).
    pub wasted_iterations: u64,
    /// Permanent failure (fault-induced), with the reason. Disjoint from
    /// `rejected` — a failed job *ran* (or retried) and lost.
    pub failed: Option<String>,
    /// Every restart re-admitted at byte-identical per-replica plan peaks
    /// (vacuously true for never-restarted jobs) — the invariant the
    /// `faults` bench gates on.
    pub restart_peak_exact: bool,
}

impl JobOutcome {
    pub(crate) fn pending(job: &JobSpec, arrival: SimTime) -> JobOutcome {
        JobOutcome {
            name: job.name.clone(),
            workload: job.workload.label(),
            batch: job.batch,
            replicas: job.replicas,
            kind: job.kind,
            requested: job.preset,
            granted: None,
            devices: Vec::new(),
            reservations: Vec::new(),
            arrival,
            started: None,
            completion: None,
            rejected: None,
            iterations: job.iterations,
            restarts: 0,
            wasted_iterations: 0,
            failed: None,
            restart_peak_exact: true,
        }
    }

    /// Admission wait: start − arrival.
    pub fn queueing(&self) -> Option<SimTime> {
        self.started.map(|s| s.saturating_sub(self.arrival))
    }

    /// End-to-end latency: completion − arrival.
    pub fn latency(&self) -> Option<SimTime> {
        self.completion.map(|c| c.saturating_sub(self.arrival))
    }
}

/// Fleet-wide results of one recorded run: the serving summary every run
/// reports, which the report reads through to, and what only a recorded run
/// keeps — per-job outcomes, the schedule trace and the per-device integers.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    summary: ServiceReport,
    pub fleet_dram_bytes: u64,
    pub jobs: Vec<JobOutcome>,
    pub trace: Vec<TraceEvent>,
    /// Per-device high-water reserved bytes.
    pub peak_reserved: Vec<u64>,
    /// Per-device high-water tenant count.
    pub peak_tenants: Vec<usize>,
    /// Per-device wall time (ns) with at least one tenant — the raw busy
    /// integral the summary's compute utilization is derived from, exact
    /// where the ratio is rounded (and so what [`ClusterReport::digest`] folds).
    pub busy_ns: Vec<u64>,
    /// Per-device ∫ reserved(t) dt in byte·ns (memory-utilization
    /// numerator), exact like `busy_ns`.
    pub reserved_integral: Vec<u128>,
    /// Distinct admission predictions this run asked: the budget levels its
    /// rows resolved, one per (shape, preset, level), each answered by the
    /// plan memo. Counted per run, so a simulator that runs again reports
    /// the second run's alone.
    pub predictions_simulated: usize,
}

/// The latency quantiles a summary reports: p50, p99 and p999.
const QUANTILES: [f64; 3] = [0.50, 0.99, 0.999];

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element such that at least `q` of the samples are ≤ it.
///
/// `q` must lie in `(0, 1]`: rank 0 is no percentile, and any valid `q`
/// yields `ceil(q·n) ≥ 1`, so only float overshoot at `q = 1.0` is guarded.
pub(crate) fn percentile(sorted: &[SimTime], q: f64) -> SimTime {
    assert!(
        q > 0.0 && q <= 1.0,
        "percentile q must be in (0, 1], got {q}"
    );
    if sorted.is_empty() {
        return SimTime::ZERO;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.min(sorted.len()) - 1]
}

impl ClusterReport {
    /// The summary with exact latency figures from the job rows: nearest-rank
    /// percentiles and the mean admission wait.
    pub(crate) fn assemble(
        fleet: &Fleet,
        placement: PlacementPolicy,
        rec: FullRecorder,
        core: &CoreOutcome,
    ) -> ClusterReport {
        let (jobs, trace) = (rec.outcomes, rec.trace);
        // The rows recount what the core counted as it went.
        let count = |f: fn(&JobOutcome) -> bool| jobs.iter().filter(|j| f(j)).count() as u64;
        let sum = |f: fn(&JobOutcome) -> u64| jobs.iter().map(f).sum::<u64>();
        debug_assert_eq!(jobs.len() as u64, core.submitted);
        debug_assert_eq!(trace.len() as u64, core.events);
        debug_assert_eq!(count(|j| j.completion.is_some()), core.completed);
        debug_assert_eq!(count(|j| j.rejected.is_some()), core.rejected);
        debug_assert_eq!(count(|j| j.failed.is_some()), core.failed);
        debug_assert_eq!(
            count(|j| j.completion.is_none() && j.rejected.is_none() && j.failed.is_none()),
            core.still_queued
        );
        debug_assert_eq!(sum(|j| j.restarts.into()), core.restarts);
        debug_assert_eq!(
            sum(|j| j.completion.map_or(0, |_| j.iterations.into())),
            core.useful_iters
        );
        debug_assert_eq!(sum(|j| j.wasted_iterations), core.wasted_iters);
        let mut latencies: Vec<SimTime> = jobs.iter().filter_map(JobOutcome::latency).collect();
        latencies.sort_unstable();
        let (waited, admitted) = jobs
            .iter()
            .filter_map(JobOutcome::queueing)
            .fold((0, 0), |(total, n), q| (total + q.0, n + 1));
        let tails = QUANTILES.map(|q| percentile(&latencies, q));
        let mean_queueing = SimTime(waited.checked_div(admitted).unwrap_or(0));
        let devices = &core.devices;
        ClusterReport {
            summary: ServiceReport::assemble(fleet, placement, core, (tails, mean_queueing)),
            fleet_dram_bytes: fleet.total_dram(),
            peak_reserved: devices.iter().map(|d| d.peak_reserved).collect(),
            peak_tenants: devices.iter().map(|d| d.peak_tenants).collect(),
            busy_ns: devices.iter().map(|d| d.busy_ns).collect(),
            reserved_integral: devices.iter().map(|d| d.reserved_integral).collect(),
            predictions_simulated: core.predictions,
            jobs,
            trace,
        }
    }

    /// One Fx fold over everything `==` compares: the trace rows, the
    /// per-job outcomes, the per-device integers (busy and reserved
    /// integrals, high-water marks) and the fleet. Every count, percentile
    /// and ratio of the report is a function of those, so equal reports
    /// have equal digests, and a digest pins a whole schedule in 64 bits —
    /// what `tests/golden/schedule_digests.txt` and the `cluster`, `faults`
    /// and `service` artifacts record.
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        (self.placement, self.fleet_devices, self.fleet_dram_bytes).hash(&mut h);
        (&self.jobs, &self.trace, self.makespan).hash(&mut h);
        (&self.busy_ns, &self.reserved_integral).hash(&mut h);
        (&self.peak_reserved, &self.peak_tenants).hash(&mut h);
        (self.peak_concurrent_jobs, self.predictions_simulated).hash(&mut h);
        h.finish()
    }

    /// Human-readable summary, with the fleet's DRAM and admission predictions.
    pub fn render_text(&self) -> String {
        let gb = self.fleet_dram_bytes as f64 / (1u64 << 30) as f64;
        self.summary.text("cluster", |after| match after {
            "devices" => format!(", {gb:.1} GB DRAM"),
            "memory_utilization" => {
                format!("   ({} admission predictions)", self.predictions_simulated)
            }
            _ => String::new(),
        })
    }

    /// Machine-readable JSON: the summary, and the [`ClusterReport::digest`]
    /// that stands for the per-job rows and the trace.
    pub fn json(&self) -> Json {
        self.summary.json_with(|json, after| match after {
            "devices" => json.with("fleet_dram_bytes", self.fleet_dram_bytes),
            "peak_concurrent_jobs" => json
                .with("predictions_simulated", self.predictions_simulated)
                .with("digest", format!("{:016x}", self.digest())),
            _ => json,
        })
    }
}

impl Deref for ClusterReport {
    type Target = ServiceReport;

    fn deref(&self) -> &ServiceReport {
        &self.summary
    }
}

/// The serving summary of one run, what [`crate::ClusterSim::run`] and
/// [`crate::ClusterSim::run_stream`] both report: counts, rates, tail
/// latencies over completed jobs, utilization and high-water marks.
/// Assembled once, from the event core's counters and the latency figures of
/// the recorder that saw the run: exact over a recorded run's job rows,
/// sketched in a streaming run, which keeps nothing per job. A
/// [`ClusterReport`] holds one.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    pub placement: PlacementPolicy,
    pub fleet_devices: usize,
    /// Jobs pulled from the arrival stream.
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Jobs that failed permanently under faults (no recovery, or retries
    /// exhausted). Zero on fault-free runs.
    pub failed: u64,
    /// Jobs still waiting for capacity when the event stream ran dry (a
    /// terminal state only under faults, e.g. a never-released pressure
    /// spike). Zero on fault-free runs.
    pub still_queued: u64,
    /// Gang interruptions observed (a restarted job may contribute many).
    pub interrupted: u64,
    /// Checkpoint restarts performed.
    pub restarts: u64,
    /// Iterations that landed in completed jobs — the goodput numerator.
    pub useful_iterations: u64,
    /// Iterations executed but lost to interruptions.
    pub wasted_iterations: u64,
    /// Useful iterations per virtual second; 0 on a zero makespan (never
    /// inf/NaN — see `finite_rate`).
    pub goodput_iters_per_sec: f64,
    /// All executed iterations (useful + wasted) per virtual second, same
    /// zero-duration guard.
    pub raw_iters_per_sec: f64,
    /// Scheduling events processed, one per arrival, admission or restart,
    /// rejection, completion, fault, interrupt and failure — a recorded
    /// run's `trace.len()`, and the numerator of the events/sec throughput
    /// gate.
    pub events: u64,
    pub makespan: SimTime,
    /// Completed jobs per virtual second over the makespan.
    pub jobs_per_sec: f64,
    pub p50_latency: SimTime,
    pub p99_latency: SimTime,
    pub p999_latency: SimTime,
    pub mean_queueing: SimTime,
    /// Fraction of device-time with at least one tenant.
    pub compute_utilization: f64,
    /// Fraction of fleet DRAM-time held by reservations.
    pub memory_utilization: f64,
    /// Most gangs running at once, cluster-wide.
    pub peak_concurrent_jobs: usize,
    /// High-water live-job slab slots — the constant-memory evidence: for a
    /// 10^6-job stream this stays near peak concurrency, not near 10^6.
    pub peak_live_jobs: usize,
}

impl ServiceReport {
    /// The summary of the run `core` reports, with the p50, p99 and p999
    /// latencies and mean queueing its recorder saw. The exact device
    /// integrals become utilization ratios here and nowhere else.
    pub(crate) fn assemble(
        fleet: &Fleet,
        placement: PlacementPolicy,
        core: &CoreOutcome,
        ([p50_latency, p99_latency, p999_latency], mean_queueing): ([SimTime; 3], SimTime),
    ) -> ServiceReport {
        let makespan = core.makespan;
        let span_ns = makespan.0.max(1) as f64;
        let busy: u128 = core.devices.iter().map(|d| u128::from(d.busy_ns)).sum();
        let reserved: u128 = core.devices.iter().map(|d| d.reserved_integral).sum();
        ServiceReport {
            placement,
            fleet_devices: fleet.len(),
            submitted: core.submitted,
            completed: core.completed,
            rejected: core.rejected,
            failed: core.failed,
            still_queued: core.still_queued,
            interrupted: core.interrupted,
            restarts: core.restarts,
            useful_iterations: core.useful_iters,
            wasted_iterations: core.wasted_iters,
            goodput_iters_per_sec: finite_rate(core.useful_iters, makespan),
            raw_iters_per_sec: finite_rate(core.useful_iters + core.wasted_iters, makespan),
            events: core.events,
            makespan,
            jobs_per_sec: finite_rate(core.completed, makespan),
            p50_latency,
            p99_latency,
            p999_latency,
            mean_queueing,
            compute_utilization: busy as f64 / (span_ns * fleet.len().max(1) as f64),
            memory_utilization: reserved as f64 / (span_ns * fleet.total_dram().max(1) as f64),
            peak_concurrent_jobs: core.peak_concurrent,
            peak_live_jobs: core.peak_live,
        }
    }

    /// Job conservation: every submitted job ends in exactly one terminal
    /// state. The first hard gate of the `faults` bench.
    pub fn conservation_holds(&self) -> bool {
        self.submitted == self.completed + self.rejected + self.failed + self.still_queued
    }

    /// Human-readable summary, with the events, interruptions and live slots.
    pub fn render_text(&self) -> String {
        self.text("service", |after| match after {
            "rejected" => format!("   events {}", self.events),
            "still_queued" => format!(" / {} interrupted", self.interrupted),
            "peak_concurrent_jobs" => format!("   peak live slots {}", self.peak_live_jobs),
            _ => String::new(),
        })
    }

    /// Machine-readable JSON, with the interruptions, events and live slots.
    pub fn json(&self) -> Json {
        self.json_with(|json, after| match after {
            "still_queued" => json.with("interrupted", self.interrupted),
            "raw_iters_per_sec" => json.with("events", self.events),
            "peak_concurrent_jobs" => json.with("peak_live_jobs", self.peak_live_jobs),
            _ => json,
        })
    }

    /// The shared text under `title`, with `add(field)` spliced in right
    /// after each of the fields `devices`, `rejected`, `still_queued`,
    /// `peak_concurrent_jobs` and `memory_utilization`. The faults line
    /// prints only when a fault left a trace.
    fn text(&self, title: &str, add: impl Fn(&str) -> String) -> String {
        let mut s = format!(
            "{title}[{} devices{}, placement={}]\n",
            self.fleet_devices,
            add("devices"),
            self.placement.name()
        );
        s.push_str(&format!(
            "  jobs: {} submitted / {} completed / {} rejected{}\n",
            self.submitted,
            self.completed,
            self.rejected,
            add("rejected")
        ));
        if self.failed + self.still_queued + self.interrupted + self.restarts > 0 {
            s.push_str(&format!(
                "  faults: {} failed / {} still queued{} / {} restarts   goodput {:.1} iters/s (raw {:.1}, {} wasted)\n",
                self.failed,
                self.still_queued,
                add("still_queued"),
                self.restarts,
                self.goodput_iters_per_sec,
                self.raw_iters_per_sec,
                self.wasted_iterations
            ));
        }
        s.push_str(&format!(
            "  makespan {:.3} s   throughput {:.2} jobs/s   peak concurrency {}{}\n",
            self.makespan.as_secs_f64(),
            self.jobs_per_sec,
            self.peak_concurrent_jobs,
            add("peak_concurrent_jobs")
        ));
        s.push_str(&format!(
            "  latency p50 {:.3} s  p99 {:.3} s  p999 {:.3} s   mean queueing {:.3} s\n",
            self.p50_latency.as_secs_f64(),
            self.p99_latency.as_secs_f64(),
            self.p999_latency.as_secs_f64(),
            self.mean_queueing.as_secs_f64()
        ));
        s.push_str(&format!(
            "  utilization: compute {:.1}%  memory {:.1}%{}\n",
            100.0 * self.compute_utilization,
            100.0 * self.memory_utilization,
            add("memory_utilization")
        ));
        s
    }

    /// The shared JSON object, with `add(object, key)` called after each key
    /// to append what one report keeps after it.
    fn json_with(&self, add: impl Fn(Json, &str) -> Json) -> Json {
        let fields: [(&str, Json); 21] = [
            ("placement", self.placement.name().into()),
            ("devices", self.fleet_devices.into()),
            ("submitted", self.submitted.into()),
            ("completed", self.completed.into()),
            ("rejected", self.rejected.into()),
            ("failed", self.failed.into()),
            ("still_queued", self.still_queued.into()),
            ("restarts", self.restarts.into()),
            ("useful_iterations", self.useful_iterations.into()),
            ("wasted_iterations", self.wasted_iterations.into()),
            ("goodput_iters_per_sec", self.goodput_iters_per_sec.into()),
            ("raw_iters_per_sec", self.raw_iters_per_sec.into()),
            ("makespan_ns", self.makespan.0.into()),
            ("jobs_per_sec", self.jobs_per_sec.into()),
            ("p50_latency_ns", self.p50_latency.0.into()),
            ("p99_latency_ns", self.p99_latency.0.into()),
            ("p999_latency_ns", self.p999_latency.0.into()),
            ("mean_queueing_ns", self.mean_queueing.0.into()),
            ("compute_utilization", self.compute_utilization.into()),
            ("memory_utilization", self.memory_utilization.into()),
            ("peak_concurrent_jobs", self.peak_concurrent_jobs.into()),
        ];
        fields
            .into_iter()
            .fold(Json::object(), |json, (k, v)| add(json.with(k, v), k))
    }
}

/// Pre-resolved admission metric handles (see
/// [`ClusterSim::enable_metrics`](crate::ClusterSim::enable_metrics)).
/// Each field is written at one site, the one event-core handler it belongs
/// to; a rejection's counters by its reason through `on_reject`.
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
    pub(crate) device_failures: Counter,
    pub(crate) device_recoveries: Counter,
    pub(crate) mttr_ns: Histogram,
    pub(crate) jobs_interrupted: Counter,
    pub(crate) jobs_restarted: Counter,
    pub(crate) jobs_failed: Counter,
    pub(crate) retries_scheduled: Counter,
    pub(crate) backoff_ns: Histogram,
    pub(crate) wasted_iterations: Counter,
}

impl ClusterMetrics {
    pub(crate) fn new(reg: &MetricsRegistry) -> ClusterMetrics {
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

    pub(crate) fn on_reject(&self, reason: &RejectReason) {
        self.rejected.inc();
        match reason {
            RejectReason::EmptyGang => self.reject_empty_gang.inc(),
            RejectReason::FleetTooSmall { .. } => self.reject_fleet_too_small.inc(),
            RejectReason::PeakExceedsCapacity { .. } => self.reject_peak_exceeds.inc(),
        }
    }
}

/// What the event core tells the outside world as it goes: per-job
/// outcomes, the schedule trace and telemetry spans ([`FullRecorder`]), or
/// aggregates only ([`StreamRecorder`]), so recording cost — like everything
/// else in the streaming loop — is independent of stream length. Counters
/// and metrics are the core's own business, not a recorder's.
pub(crate) trait Recorder {
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
/// spans. Tracks are pre-created in arrival order by
/// [`ClusterSim::run`](crate::ClusterSim::run) so
/// the Perfetto artifact keeps its historical layout.
pub(crate) struct FullRecorder {
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
    /// A recorder for `jobs` arrivals, with spans into `sink` on `tracks`
    /// (empty when untraced). The trace is reserved once, at four rows a job,
    /// one more than a completed job writes: regrown, it would be copied at
    /// the run's peak.
    pub(crate) fn new(sink: TraceSink, tracks: Vec<TrackId>, jobs: usize) -> FullRecorder {
        FullRecorder {
            outcomes: Vec::with_capacity(jobs),
            trace: Vec::with_capacity(4 * jobs),
            sink,
            tracks,
            fleet_track: None,
        }
    }

    /// One schedule-trace entry.
    fn push(&mut self, t_ns: u64, job: String, kind: TraceKind) {
        self.trace.push(TraceEvent { t_ns, job, kind });
    }

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
        self.push(t_ns, job.spec.name.clone(), kind);
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
        let kind = TraceKind::Admit {
            preset: grant.preset,
            devices: out.devices.clone(),
            reservations: out.reservations.clone(),
        };
        self.push(t_ns, job.spec.name.clone(), kind);
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
        self.push(t_ns, job.spec.name.clone(), TraceKind::Complete);
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
        let kind = TraceKind::Fault { desc: desc.clone() };
        self.push(t_ns, "fleet".to_string(), kind);
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
pub(crate) struct StreamRecorder {
    latency: LatencySketch,
    queue_sum: u128,
    queue_count: u64,
}

impl StreamRecorder {
    /// The p50, p99 and p999 latencies as the sketch rounds them, and the
    /// exact mean queueing.
    pub(crate) fn latency(&self) -> ([SimTime; 3], SimTime) {
        let mean_queueing = self.queue_sum.checked_div(u128::from(self.queue_count));
        let tails = QUANTILES.map(|q| self.latency.quantile(q));
        (tails, SimTime(mean_queueing.unwrap_or(0) as u64))
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_conventions() {
        let v: Vec<SimTime> = (1..=100).map(SimTime::from_us).collect();
        assert_eq!(percentile(&v, 0.50), SimTime::from_us(50));
        assert_eq!(percentile(&v, 0.99), SimTime::from_us(99));
        assert_eq!(percentile(&v, 1.0), SimTime::from_us(100));
        assert_eq!(percentile(&[], 0.5), SimTime::ZERO);
        assert_eq!(
            percentile(&[SimTime::from_us(7)], 0.99),
            SimTime::from_us(7)
        );
    }

    #[test]
    fn percentile_small_n_nearest_rank() {
        // n = 1: every valid q lands on the only sample.
        let one = [SimTime::from_us(7)];
        assert_eq!(percentile(&one, 0.001), SimTime::from_us(7));
        assert_eq!(percentile(&one, 0.50), SimTime::from_us(7));
        assert_eq!(percentile(&one, 1.0), SimTime::from_us(7));

        // n = 2: nearest-rank splits exactly at q = 0.5 (ceil(0.5·2) = 1).
        let two = [SimTime::from_us(1), SimTime::from_us(2)];
        assert_eq!(percentile(&two, 0.25), SimTime::from_us(1));
        assert_eq!(percentile(&two, 0.50), SimTime::from_us(1));
        assert_eq!(percentile(&two, 0.51), SimTime::from_us(2));
        assert_eq!(percentile(&two, 0.999), SimTime::from_us(2));
        assert_eq!(percentile(&two, 1.0), SimTime::from_us(2));

        // n = 100: p999 must round *up* to the max, never down past it.
        let hundred: Vec<SimTime> = (1..=100).map(SimTime::from_us).collect();
        assert_eq!(percentile(&hundred, 0.001), SimTime::from_us(1));
        assert_eq!(percentile(&hundred, 0.999), SimTime::from_us(100));
    }

    #[test]
    #[should_panic(expected = "percentile q must be in (0, 1]")]
    fn percentile_rejects_q_zero() {
        // The old clamp silently mapped rank 0 to the first element; q = 0
        // is not a percentile under any convention and must panic.
        let v = [SimTime::from_us(1)];
        percentile(&v, 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile q must be in (0, 1]")]
    fn percentile_rejects_q_above_one() {
        let v = [SimTime::from_us(1)];
        percentile(&v, 1.5);
    }
}
