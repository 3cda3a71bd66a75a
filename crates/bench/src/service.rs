//! The serving experiment: the indexed event loop against the retained
//! reference loop, and the open-loop regime where queues run deep.
//!
//! Two sections, each a gate recorded in `BENCH_service.json`:
//!
//! 1. **Differential** — `run()` (indexed) vs `run_reference()` on the same
//!    materialized stream must produce [`bit_identical`] reports — on the
//!    8-device bench fleet and on a 2 000-job Poisson stream on 64 devices —
//!    and the streaming entry point must count the same events
//!    (`reports_identical`).
//! 2. **Load sweep** — offered load ρ → 1 per admission preset, with
//!    p50/p99/p999 latency per cell (`tail_latency_recorded`). Near ρ = 1
//!    thousands of jobs wait at once: the only traffic in the tree where
//!    admission is refused, and refused again, in one reservation state.
//!
//! Nothing here reads the host's clock, so the artifact is a function of
//! the source alone; how fast the loop runs is `cluster.events_per_s` of the
//! repo benchmark's `serve_mixed` workload.
//!
//! [`bit_identical`]: sn_cluster::ClusterReport::bit_identical

use sn_cluster::{
    collect_stream, synthetic_stream, ClusterSim, Fleet, PlacementPolicy, PoissonStream,
    PolicyPreset, ReplayStream, ServiceReport,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::TextTable;

const MB: u64 = 1 << 20;

/// Same fleet as the `cluster` experiment: 8 small-DRAM devices, memory the
/// contended resource. Used for the differential gate and the load sweep.
fn fleet() -> Fleet {
    Fleet::homogeneous(
        8,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    )
}

/// The serving fleet for the second differential: 64 devices, where memory
/// admits many tenants per device and hundreds of gangs run concurrently —
/// the scale at which an indexed loop and a scan-everything loop have the
/// most room to disagree.
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
    let mut out =
        String::from("service: indexed event loop vs reference, open-loop Poisson serving\n\n");

    // ---- 1. differential gate -------------------------------------------
    let diff_jobs = if quick { 40 } else { 120 };
    let arrivals = synthetic_stream(diff_jobs, 1, PolicyPreset::Superneurons, true);
    let indexed = ClusterSim::new(fleet(), PlacementPolicy::BestFit).run(arrivals.clone());
    let reference =
        ClusterSim::new(fleet(), PlacementPolicy::BestFit).run_reference(arrivals.clone());
    let bit_identical = indexed.bit_identical(&reference);
    let mut replay = ReplayStream::new(arrivals);
    let streamed = ClusterSim::new(fleet(), PlacementPolicy::BestFit).run_stream(&mut replay);
    let events_match = streamed.events as usize == indexed.trace.len();
    let reports_identical = bit_identical && events_match;
    out.push_str(&format!(
        "differential: {diff_jobs} jobs — bit_identical {bit_identical}, \
         stream events match trace {events_match}\n"
    ));

    // The same gate at serving scale: nominal offered load 0.7 of the
    // no-load capacity estimate — enough contention for deep tenancy while
    // the queue stays bounded.
    let serving = serving_fleet();
    let sn_critical = critical_gap_ns(&serving, PolicyPreset::Superneurons);
    let serving_jobs = 2_000;
    let arrivals = collect_stream(&mut PoissonStream::new(
        serving_jobs,
        3,
        SimTime((sn_critical / 0.7) as u64),
        PolicyPreset::Superneurons,
    ));
    let indexed = ClusterSim::new(serving.clone(), PlacementPolicy::BestFit).run(arrivals.clone());
    let reference = ClusterSim::new(serving, PlacementPolicy::BestFit).run_reference(arrivals);
    let serving_bit_identical = indexed.bit_identical(&reference);
    let reports_identical = reports_identical && serving_bit_identical;
    out.push_str(&format!(
        "serving-fleet differential: {serving_jobs} Poisson jobs on 64 devices — \
         bit_identical {serving_bit_identical}\n"
    ));

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
            .with(
                "differential",
                Json::object()
                    .with("jobs", diff_jobs)
                    .with("bit_identical", bit_identical)
                    .with("events_match", events_match),
            )
            .with(
                "sweep",
                Json::object()
                    .with("jobs_per_cell", sweep_jobs)
                    .with("rows", Json::Array(sweep_rows)),
            ),
        wall: Json::object(),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_loop_matches_reference_on_the_bench_fleet() {
        let arrivals = synthetic_stream(30, 1, PolicyPreset::Superneurons, true);
        let indexed = ClusterSim::new(fleet(), PlacementPolicy::BestFit).run(arrivals.clone());
        let reference = ClusterSim::new(fleet(), PlacementPolicy::BestFit).run_reference(arrivals);
        assert!(indexed.bit_identical(&reference));
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
