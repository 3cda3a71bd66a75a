//! Reports: per-job outcomes, fleet-wide serving metrics, the deterministic
//! schedule trace, and their [`Json`] rendering for `BENCH_*.json`
//! artifacts.

use std::hash::{Hash, Hasher};

use fxhash::FxHasher;
use sn_sim::SimTime;
use sn_telemetry::Json;

use crate::fleet::Fleet;
use crate::job::{JobKind, JobSpec, PolicyPreset};
use crate::placement::PlacementPolicy;
use crate::sim::DeviceState;

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

/// Fleet-wide results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    pub placement: PlacementPolicy,
    pub fleet_devices: usize,
    pub fleet_dram_bytes: u64,
    pub jobs: Vec<JobOutcome>,
    pub trace: Vec<TraceEvent>,
    pub makespan: SimTime,
    pub completed: usize,
    pub rejected: usize,
    /// Jobs that failed permanently under faults (no recovery, or retries
    /// exhausted). Zero on fault-free runs.
    pub failed: usize,
    /// Jobs still waiting for capacity when the event stream ran dry (a
    /// terminal state only under faults, e.g. a never-released pressure
    /// spike). Zero on fault-free runs.
    pub still_queued: usize,
    /// Total checkpoint restarts across all jobs.
    pub restarts: u64,
    /// Iterations that landed in completed jobs — the goodput numerator.
    pub useful_iterations: u64,
    /// Iterations executed but lost to interruptions.
    pub wasted_iterations: u64,
    /// Useful iterations per virtual second (0 when the makespan is zero —
    /// never inf/NaN).
    pub goodput_iters_per_sec: f64,
    /// All executed iterations (useful + wasted) per virtual second, same
    /// zero-duration guard.
    pub raw_iters_per_sec: f64,
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
    /// Per-device high-water reserved bytes.
    pub peak_reserved: Vec<u64>,
    /// Per-device high-water tenant count.
    pub peak_tenants: Vec<usize>,
    /// Per-device wall time (ns) with at least one tenant — the raw busy
    /// integral the utilization above is derived from, exact where the
    /// ratio is rounded (and so what [`ClusterReport::digest`] folds).
    pub busy_ns: Vec<u64>,
    /// Per-device ∫ reserved(t) dt in byte·ns (memory-utilization
    /// numerator), exact like `busy_ns`.
    pub reserved_integral: Vec<u128>,
    /// Distinct admission predictions the profiler simulated.
    pub predictions_simulated: usize,
}

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element such that at least `q` of the samples are ≤ it.
///
/// `q` must lie in `(0, 1]`. The old implementation clamped the rank into
/// `1..=len`, which silently made `q = 0.0` (rank 0 — not a percentile any
/// convention defines) return the first element instead of being rejected;
/// the clamp's lower arm existed only to mask that invalid input. Valid
/// `q > 0.0` always yields `ceil(q·n) ≥ 1` on its own, so only the upper
/// guard (against float overshoot at `q = 1.0`) remains.
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

/// `count` per virtual second over `makespan`, with a zero-duration guard:
/// a run with no elapsed time (e.g. an empty stream) reports 0.0, never
/// inf or NaN. All goodput/raw-throughput rates go through this.
pub(crate) fn safe_rate(count: u64, makespan: SimTime) -> f64 {
    if makespan.0 == 0 {
        0.0
    } else {
        count as f64 / makespan.as_secs_f64()
    }
}

/// `(compute, memory)` utilization over `makespan`: the fraction of
/// device-time with at least one tenant and of fleet DRAM-time held by
/// reservations. The integrals are exact integers; this is the one place
/// they become ratios.
pub(crate) fn utilization(fleet: &Fleet, makespan: SimTime, devices: &[DeviceState]) -> (f64, f64) {
    let span_ns = makespan.0.max(1) as f64;
    let busy: u128 = devices.iter().map(|d| u128::from(d.busy_ns)).sum();
    let reserved: u128 = devices.iter().map(|d| d.reserved_integral).sum();
    (
        busy as f64 / (span_ns * fleet.len().max(1) as f64),
        reserved as f64 / (span_ns * fleet.total_dram().max(1) as f64),
    )
}

impl ClusterReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        fleet: &Fleet,
        placement: PlacementPolicy,
        jobs: Vec<JobOutcome>,
        trace: Vec<TraceEvent>,
        makespan: SimTime,
        devices: &[DeviceState],
        peak_concurrent_jobs: usize,
        predictions_simulated: usize,
    ) -> ClusterReport {
        let completed = jobs.iter().filter(|j| j.completion.is_some()).count();
        let rejected = jobs.iter().filter(|j| j.rejected.is_some()).count();
        let failed = jobs.iter().filter(|j| j.failed.is_some()).count();
        let still_queued = jobs
            .iter()
            .filter(|j| j.completion.is_none() && j.rejected.is_none() && j.failed.is_none())
            .count();
        let restarts = jobs.iter().map(|j| u64::from(j.restarts)).sum::<u64>();
        let useful_iterations = jobs
            .iter()
            .filter(|j| j.completion.is_some())
            .map(|j| u64::from(j.iterations))
            .sum::<u64>();
        let wasted_iterations = jobs.iter().map(|j| j.wasted_iterations).sum::<u64>();
        let mut latencies: Vec<SimTime> = jobs.iter().filter_map(|j| j.latency()).collect();
        latencies.sort_unstable();
        let queueing: Vec<SimTime> = jobs.iter().filter_map(|j| j.queueing()).collect();
        let mean_queueing = if queueing.is_empty() {
            SimTime::ZERO
        } else {
            SimTime(queueing.iter().map(|t| t.0).sum::<u64>() / queueing.len() as u64)
        };
        let (compute_utilization, memory_utilization) = utilization(fleet, makespan, devices);
        ClusterReport {
            placement,
            fleet_devices: fleet.len(),
            fleet_dram_bytes: fleet.total_dram(),
            jobs_per_sec: completed as f64 / makespan.as_secs_f64().max(f64::MIN_POSITIVE),
            p50_latency: percentile(&latencies, 0.50),
            p99_latency: percentile(&latencies, 0.99),
            p999_latency: percentile(&latencies, 0.999),
            mean_queueing,
            compute_utilization,
            memory_utilization,
            peak_concurrent_jobs,
            peak_reserved: devices.iter().map(|d| d.peak_reserved).collect(),
            peak_tenants: devices.iter().map(|d| d.peak_tenants).collect(),
            busy_ns: devices.iter().map(|d| d.busy_ns).collect(),
            reserved_integral: devices.iter().map(|d| d.reserved_integral).collect(),
            predictions_simulated,
            failed,
            still_queued,
            restarts,
            useful_iterations,
            wasted_iterations,
            goodput_iters_per_sec: safe_rate(useful_iterations, makespan),
            raw_iters_per_sec: safe_rate(useful_iterations + wasted_iterations, makespan),
            jobs,
            trace,
            makespan,
            completed,
            rejected,
        }
    }

    /// Job conservation: every submitted job ends in exactly one terminal
    /// state. The first hard gate of the `faults` bench.
    pub fn conservation_holds(&self) -> bool {
        self.jobs.len() == self.completed + self.rejected + self.failed + self.still_queued
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

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "cluster[{} devices, {:.1} GB DRAM, placement={}]\n",
            self.fleet_devices,
            self.fleet_dram_bytes as f64 / (1u64 << 30) as f64,
            self.placement.name()
        ));
        s.push_str(&format!(
            "  jobs: {} submitted / {} completed / {} rejected\n",
            self.jobs.len(),
            self.completed,
            self.rejected
        ));
        if self.failed + self.still_queued > 0 || self.restarts + self.wasted_iterations > 0 {
            s.push_str(&format!(
                "  faults: {} failed / {} still queued / {} restarts   goodput {:.1} iters/s (raw {:.1}, {} wasted)\n",
                self.failed,
                self.still_queued,
                self.restarts,
                self.goodput_iters_per_sec,
                self.raw_iters_per_sec,
                self.wasted_iterations
            ));
        }
        s.push_str(&format!(
            "  makespan {:.3} s   throughput {:.2} jobs/s   peak concurrency {}\n",
            self.makespan.as_secs_f64(),
            self.jobs_per_sec,
            self.peak_concurrent_jobs
        ));
        s.push_str(&format!(
            "  latency p50 {:.3} s  p99 {:.3} s  p999 {:.3} s   mean queueing {:.3} s\n",
            self.p50_latency.as_secs_f64(),
            self.p99_latency.as_secs_f64(),
            self.p999_latency.as_secs_f64(),
            self.mean_queueing.as_secs_f64()
        ));
        s.push_str(&format!(
            "  utilization: compute {:.1}%  memory {:.1}%   ({} admission predictions)\n",
            100.0 * self.compute_utilization,
            100.0 * self.memory_utilization,
            self.predictions_simulated
        ));
        s
    }

    /// Machine-readable JSON: the summary, and the [`ClusterReport::digest`]
    /// that stands for the per-job rows and the trace.
    pub fn json(&self) -> Json {
        Json::object()
            .with("placement", self.placement.name())
            .with("devices", self.fleet_devices)
            .with("fleet_dram_bytes", self.fleet_dram_bytes)
            .with("submitted", self.jobs.len())
            .with("completed", self.completed)
            .with("rejected", self.rejected)
            .with("failed", self.failed)
            .with("still_queued", self.still_queued)
            .with("restarts", self.restarts)
            .with("useful_iterations", self.useful_iterations)
            .with("wasted_iterations", self.wasted_iterations)
            .with("goodput_iters_per_sec", self.goodput_iters_per_sec)
            .with("raw_iters_per_sec", self.raw_iters_per_sec)
            .with("makespan_ns", self.makespan.0)
            .with("jobs_per_sec", self.jobs_per_sec)
            .with("p50_latency_ns", self.p50_latency.0)
            .with("p99_latency_ns", self.p99_latency.0)
            .with("p999_latency_ns", self.p999_latency.0)
            .with("mean_queueing_ns", self.mean_queueing.0)
            .with("compute_utilization", self.compute_utilization)
            .with("memory_utilization", self.memory_utilization)
            .with("peak_concurrent_jobs", self.peak_concurrent_jobs)
            .with("predictions_simulated", self.predictions_simulated)
            .with("digest", format!("{:016x}", self.digest()))
    }
}

/// Aggregate results of one *streaming* run ([`ClusterSim::run_stream`]).
///
/// Unlike [`ClusterReport`] this carries no per-job outcomes and no schedule
/// trace — a million-event stream must not materialize a million
/// `JobOutcome`s. What survives is the serving summary: counts, tail
/// latencies over completed jobs, device utilization, and the event count
/// the `service` bench gates throughput on.
///
/// [`ClusterSim::run_stream`]: crate::ClusterSim::run_stream
#[derive(Debug, Clone)]
pub struct ServiceReport {
    pub placement: PlacementPolicy,
    pub fleet_devices: usize,
    /// Jobs pulled from the arrival stream.
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Jobs that failed permanently under faults. Zero on fault-free runs.
    pub failed: u64,
    /// Jobs still waiting for capacity at stream exhaustion (terminal only
    /// under faults). Zero on fault-free runs.
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
    /// inf/NaN — see `safe_rate`).
    pub goodput_iters_per_sec: f64,
    /// All executed iterations (useful + wasted) per virtual second, same
    /// zero-duration guard.
    pub raw_iters_per_sec: f64,
    /// Scheduling events processed (arrivals + completions + admissions) —
    /// the numerator of the events/sec throughput gate.
    pub events: u64,
    pub makespan: SimTime,
    pub jobs_per_sec: f64,
    pub p50_latency: SimTime,
    pub p99_latency: SimTime,
    pub p999_latency: SimTime,
    pub mean_queueing: SimTime,
    pub compute_utilization: f64,
    pub memory_utilization: f64,
    pub peak_concurrent_jobs: usize,
    /// High-water live-job slab slots — the constant-memory evidence: for a
    /// 10^6-job stream this stays near peak concurrency, not near 10^6.
    pub peak_live_jobs: usize,
}

impl ServiceReport {
    /// Job conservation for streaming runs: every pulled job ends in exactly
    /// one terminal state.
    pub fn conservation_holds(&self) -> bool {
        self.submitted == self.completed + self.rejected + self.failed + self.still_queued
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "service[{} devices, placement={}]\n",
            self.fleet_devices,
            self.placement.name()
        ));
        s.push_str(&format!(
            "  jobs: {} submitted / {} completed / {} rejected   events {}\n",
            self.submitted, self.completed, self.rejected, self.events
        ));
        if self.failed + self.still_queued + self.interrupted + self.restarts > 0 {
            s.push_str(&format!(
                "  faults: {} failed / {} still queued / {} interrupted / {} restarts   goodput {:.1} iters/s (raw {:.1}, {} wasted)\n",
                self.failed,
                self.still_queued,
                self.interrupted,
                self.restarts,
                self.goodput_iters_per_sec,
                self.raw_iters_per_sec,
                self.wasted_iterations
            ));
        }
        s.push_str(&format!(
            "  makespan {:.3} s   throughput {:.2} jobs/s   peak concurrency {}   peak live slots {}\n",
            self.makespan.as_secs_f64(),
            self.jobs_per_sec,
            self.peak_concurrent_jobs,
            self.peak_live_jobs
        ));
        s.push_str(&format!(
            "  latency p50 {:.3} s  p99 {:.3} s  p999 {:.3} s   mean queueing {:.3} s\n",
            self.p50_latency.as_secs_f64(),
            self.p99_latency.as_secs_f64(),
            self.p999_latency.as_secs_f64(),
            self.mean_queueing.as_secs_f64()
        ));
        s.push_str(&format!(
            "  utilization: compute {:.1}%  memory {:.1}%\n",
            100.0 * self.compute_utilization,
            100.0 * self.memory_utilization
        ));
        s
    }

    /// Machine-readable JSON, the aggregate fields of
    /// [`ClusterReport::json`] plus the streaming counters.
    pub fn json(&self) -> Json {
        Json::object()
            .with("placement", self.placement.name())
            .with("devices", self.fleet_devices)
            .with("submitted", self.submitted)
            .with("completed", self.completed)
            .with("rejected", self.rejected)
            .with("failed", self.failed)
            .with("still_queued", self.still_queued)
            .with("interrupted", self.interrupted)
            .with("restarts", self.restarts)
            .with("useful_iterations", self.useful_iterations)
            .with("wasted_iterations", self.wasted_iterations)
            .with("goodput_iters_per_sec", self.goodput_iters_per_sec)
            .with("raw_iters_per_sec", self.raw_iters_per_sec)
            .with("events", self.events)
            .with("makespan_ns", self.makespan.0)
            .with("jobs_per_sec", self.jobs_per_sec)
            .with("p50_latency_ns", self.p50_latency.0)
            .with("p99_latency_ns", self.p99_latency.0)
            .with("p999_latency_ns", self.p999_latency.0)
            .with("mean_queueing_ns", self.mean_queueing.0)
            .with("compute_utilization", self.compute_utilization)
            .with("memory_utilization", self.memory_utilization)
            .with("peak_concurrent_jobs", self.peak_concurrent_jobs)
            .with("peak_live_jobs", self.peak_live_jobs)
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

    #[test]
    fn safe_rate_guards_zero_durations() {
        // The satellite contract: goodput/raw rates are never inf or NaN,
        // even for zero-duration runs (empty stream) or zero counts.
        assert_eq!(safe_rate(0, SimTime::ZERO), 0.0);
        assert_eq!(safe_rate(1_000_000, SimTime::ZERO), 0.0);
        let r = safe_rate(10, SimTime::from_ms(1));
        assert!(r.is_finite() && !r.is_nan());
        assert_eq!(r, 10_000.0, "10 iters over 1 ms is 10k/s");
        assert_eq!(safe_rate(0, SimTime::from_ms(1)), 0.0);
        // u64::MAX counts over 1 ns stay finite (f64 range is ample).
        assert!(safe_rate(u64::MAX, SimTime(1)).is_finite());
    }
}
