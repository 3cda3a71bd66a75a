//! The serving experiment: two pinned schedules, and the open-loop regime
//! where queues run deep.
//!
//! Two sections, each a gate recorded in `BENCH_service.json`:
//!
//! 1. **Schedules** — the 8-device bench stream and a 2 000-job Poisson
//!    stream on 64 devices, each run by `run()`, whose
//!    [`ClusterReport::digest`] is recorded, and by `run_stream()`, which
//!    must report the same summary (`reports_identical`).
//! 2. **Load sweep** — offered load ρ → 1 per admission preset, with
//!    p50/p99/p999 latency per cell (`tail_latency_recorded`). Near ρ = 1
//!    thousands of jobs wait at once: the only traffic in the tree where
//!    admission is refused, and refused again, in one reservation state.
//!
//! Nothing here reads the host's clock, so the artifact is a function of
//! the source alone; how fast the loop runs is `cluster.events_per_s` of the
//! repo benchmark's `serve_mixed` workload.

use sn_cluster::{
    collect_stream, synthetic_stream, ClusterReport, ClusterSim, Fleet, JobSpec, PlacementPolicy,
    PoissonStream, PolicyPreset, ReplayStream, ServiceReport,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::TextTable;

const MB: u64 = 1 << 20;

/// Same fleet as the `cluster` experiment: 8 small-DRAM devices, memory the
/// contended resource. Used for the bench stream and the load sweep.
fn fleet() -> Fleet {
    Fleet::homogeneous(
        8,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    )
}

/// The serving fleet for the second schedule: 64 devices, where memory
/// admits many tenants per device and hundreds of gangs run concurrently.
fn serving_fleet() -> Fleet {
    Fleet::homogeneous(
        64,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    )
}

/// Estimate the gap at which offered load saturates the fleet (ρ = 1):
/// probe an uncontended stream (gap far above any service time) and take
/// the measured busy integral per completed job. Latency alone would
/// undercount — a 4-replica gang occupies four devices while its latency
/// counts once — so the device-seconds actually consumed are what set the
/// critical arrival rate: gap₁ = busy_ns / (completed × devices).
fn critical_gap_ns(fleet: &Fleet, preset: PolicyPreset) -> f64 {
    let mut probe = PoissonStream::new(300, 11, SimTime::from_ms(50), preset);
    let svc = ClusterSim::new(fleet.clone(), PlacementPolicy::BestFit).run_stream(&mut probe);
    let devices = fleet.len() as f64;
    let busy_ns = svc.compute_utilization * svc.makespan.0 as f64 * devices;
    (busy_ns / (svc.completed.max(1) as f64 * devices)).max(1.0)
}

/// `arrivals` on `fleet` under BestFit: the recorded run's report, and
/// whether a streaming run of them reports its summary — every sketched tail
/// at most 1/16 above the exact one, and every field equal once the exact
/// tails replace the sketched ones.
fn schedule(fleet: &Fleet, arrivals: Vec<(SimTime, JobSpec)>) -> (ClusterReport, bool) {
    let sim = || ClusterSim::new(fleet.clone(), PlacementPolicy::BestFit);
    let report = sim().run(arrivals.clone());
    let svc = sim().run_stream(&mut ReplayStream::new(arrivals));
    let exact = [report.p50_latency, report.p99_latency, report.p999_latency];
    let sketched = [svc.p50_latency, svc.p99_latency, svc.p999_latency];
    let mut tails = exact.iter().zip(sketched);
    let close = tails.all(|(e, s)| e.0 <= s.0 && s.0 <= e.0 + e.0 / 16 + 1);
    let [p50_latency, p99_latency, p999_latency] = exact;
    let svc = ServiceReport {
        p50_latency,
        p99_latency,
        p999_latency,
        ..svc
    };
    let agrees = close && svc == *report;
    (report, agrees)
}

fn run_poisson(
    fleet: &Fleet,
    n: u64,
    seed: u64,
    gap: SimTime,
    preset: PolicyPreset,
) -> ServiceReport {
    let mut stream = PoissonStream::new(n, seed, gap, preset);
    ClusterSim::new(fleet.clone(), PlacementPolicy::BestFit).run_stream(&mut stream)
}

/// Run the experiment; writes `BENCH_service.json` into the current
/// directory.
pub fn service(quick: bool) -> String {
    let mut out = String::from("service: pinned schedules, open-loop Poisson serving\n\n");

    // ---- 1. schedules ----------------------------------------------------
    // The second at nominal offered load 0.7 of the no-load capacity
    // estimate: enough contention for deep tenancy while the queue stays
    // bounded.
    let bench_jobs = if quick { 40 } else { 120 };
    let serving = serving_fleet();
    let sn_critical = critical_gap_ns(&serving, PolicyPreset::Superneurons);
    let gap = SimTime((sn_critical / 0.7) as u64);
    let streams = [
        (
            fleet(),
            synthetic_stream(bench_jobs, 1, PolicyPreset::Superneurons, true),
        ),
        (
            serving,
            collect_stream(&mut PoissonStream::new(
                2_000,
                3,
                gap,
                PolicyPreset::Superneurons,
            )),
        ),
    ];
    let mut reports_identical = true;
    let mut schedules = Vec::new();
    for (fleet, arrivals) in streams {
        let jobs = arrivals.len();
        let (report, agrees) = schedule(&fleet, arrivals);
        reports_identical &= agrees;
        let digest = format!("{:016x}", report.digest());
        out.push_str(&format!(
            "{jobs} jobs on {} devices: digest {digest}, run_stream agrees {agrees}\n",
            fleet.len()
        ));
        schedules.push(
            Json::object()
                .with("jobs", jobs)
                .with("devices", fleet.len())
                .with("digest", digest)
                .with("stream_agrees", agrees),
        );
    }

    // ---- 2. load sweep: ρ → 1 per preset --------------------------------
    let sweep_jobs: u64 = if quick { 1_500 } else { 20_000 };
    let rhos = [0.5, 0.8, 0.95, 0.99];
    let presets = [PolicyPreset::Baseline, PolicyPreset::Superneurons];
    let mut t = TextTable::new(vec![
        "preset",
        "rho",
        "gap (us)",
        "completed",
        "rejected",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "queue (ms)",
        "compute util",
    ]);
    let mut sweep_rows = Vec::new();
    let mut tail_latency_recorded = true;
    let sweep_fleet = fleet();
    for preset in presets {
        let crit = critical_gap_ns(&sweep_fleet, preset);
        for (i, rho) in rhos.iter().enumerate() {
            let gap = SimTime((crit / rho) as u64);
            let svc = run_poisson(&sweep_fleet, sweep_jobs, 7 + i as u64, gap, preset);
            let tails_ok = svc.completed > 0
                && svc.p999_latency >= svc.p99_latency
                && svc.p99_latency >= svc.p50_latency
                && svc.p999_latency > SimTime::ZERO;
            tail_latency_recorded &= tails_ok;
            t.row(vec![
                preset.name().to_string(),
                format!("{rho:.2}"),
                format!("{:.0}", gap.0 as f64 / 1e3),
                svc.completed.to_string(),
                svc.rejected.to_string(),
                format!("{:.2}", svc.p50_latency.as_ms_f64()),
                format!("{:.2}", svc.p99_latency.as_ms_f64()),
                format!("{:.2}", svc.p999_latency.as_ms_f64()),
                format!("{:.2}", svc.mean_queueing.as_ms_f64()),
                format!("{:.1}%", 100.0 * svc.compute_utilization),
            ]);
            sweep_rows.push(
                Json::object()
                    .with("preset", preset.name())
                    .with("rho", *rho)
                    .with("gap_ns", gap.0)
                    .with("report", svc.json()),
            );
        }
    }
    out.push_str(&format!(
        "\nload sweep: {sweep_jobs} Poisson jobs per cell, gap = critical_gap/rho\n"
    ));
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ntail_latency_recorded {tail_latency_recorded}\n"
    ));

    let record = BenchRecord {
        experiment: "service",
        quick,
        gates: vec![
            ("reports_identical", reports_identical),
            ("tail_latency_recorded", tail_latency_recorded),
        ],
        deterministic: Json::object()
            .with("schedules", Json::Array(schedules))
            .with(
                "sweep",
                Json::object()
                    .with("jobs_per_cell", sweep_jobs)
                    .with("rows", Json::Array(sweep_rows)),
            ),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stream_agrees_with_run_on_the_bench_fleet() {
        let arrivals = synthetic_stream(30, 1, PolicyPreset::Superneurons, true);
        let (report, agrees) = schedule(&fleet(), arrivals);
        assert!(agrees && report.completed > 0);
    }

    #[test]
    fn critical_gap_is_positive_and_finite() {
        let g = critical_gap_ns(&fleet(), PolicyPreset::Superneurons);
        assert!(g >= 1.0 && g.is_finite());
    }

    #[test]
    fn load_sweep_latency_grows_with_offered_load() {
        let crit = critical_gap_ns(&fleet(), PolicyPreset::Superneurons);
        let light = run_poisson(
            &fleet(),
            400,
            7,
            SimTime((crit / 0.3) as u64),
            PolicyPreset::Superneurons,
        );
        let heavy = run_poisson(
            &fleet(),
            400,
            7,
            SimTime((crit / 0.99).max(1.0) as u64),
            PolicyPreset::Superneurons,
        );
        assert!(
            heavy.mean_queueing >= light.mean_queueing,
            "queueing must not shrink as rho rises ({:?} vs {:?})",
            heavy.mean_queueing,
            light.mean_queueing
        );
    }
}
