//! The cluster-serving experiment: the paper's per-policy `peak_m` savings,
//! lifted to fleet capacity.
//!
//! One synthetic job stream is replayed against the same 8-device fleet
//! under every admission preset and placement policy. Because admission
//! reserves each job's *predicted* peak, a memory-stronger preset shrinks
//! reservations and packs more tenants per device — the experiment reports
//! rejected jobs, peak concurrency, latency percentiles, throughput, and
//! utilization per configuration, and emits `BENCH_cluster.json` for trend
//! tracking across PRs: per run, the summary and the schedule's digest.

use sn_cluster::{synthetic_stream, ClusterSim, Fleet, PlacementPolicy, PolicyPreset};
use sn_runtime::Interconnect;
use sn_sim::DeviceSpec;
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::TextTable;

const MB: u64 = 1 << 20;

/// Fleet used throughout: 8 small-DRAM devices, so memory (not compute) is
/// the contended resource for the synthetic stream.
fn fleet() -> Fleet {
    Fleet::homogeneous(
        8,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    )
}

/// Run the experiment; also writes `BENCH_cluster.json` into the current
/// directory (the machine-readable artifact later PRs diff against).
pub fn cluster(quick: bool) -> String {
    let n_jobs = if quick { 40 } else { 120 };
    let seed = 1u64;

    let mut out = String::new();
    out.push_str(&format!(
        "cluster serving: {n_jobs} jobs over an 8x96MB-device fleet, one admission preset per run\n\
         (policy choice as a capacity lever: stronger presets reserve smaller predicted peaks)\n\n"
    ));

    let mut t = TextTable::new(vec![
        "preset",
        "placement",
        "completed",
        "rejected",
        "peak tenants",
        "jobs/s",
        "p50 lat (ms)",
        "p99 lat (ms)",
        "mean queue (ms)",
        "mem util",
    ]);

    let mut runs = Vec::new();
    // The (preset, BestFit) reports double as the headline comparison below.
    let mut base_bestfit = None;
    let mut sn_bestfit = None;
    for preset in [
        PolicyPreset::Baseline,
        PolicyPreset::LivenessOnly,
        PolicyPreset::FullMemory,
        PolicyPreset::Superneurons,
    ] {
        for placement in PlacementPolicy::ALL {
            let mut sim = ClusterSim::new(fleet(), placement);
            let report = sim.run(synthetic_stream(n_jobs, seed, preset, false));
            t.row(vec![
                preset.name().to_string(),
                placement.name().to_string(),
                report.completed.to_string(),
                report.rejected.to_string(),
                report.peak_concurrent_jobs.to_string(),
                format!("{:.1}", report.jobs_per_sec),
                format!("{:.2}", report.p50_latency.as_ms_f64()),
                format!("{:.2}", report.p99_latency.as_ms_f64()),
                format!("{:.2}", report.mean_queueing.as_ms_f64()),
                format!("{:.1}%", 100.0 * report.memory_utilization),
            ]);
            runs.push(
                Json::object()
                    .with("preset", preset.name())
                    .with("report", report.json()),
            );
            if placement == PlacementPolicy::BestFit {
                match preset {
                    PolicyPreset::Baseline => base_bestfit = Some(report),
                    PolicyPreset::Superneurons => sn_bestfit = Some(report),
                    _ => {}
                }
            }
        }
    }
    out.push_str(&t.render());

    // The headline comparison the acceptance criterion names: same fleet,
    // same stream, baseline vs superneurons admission.
    let base = base_bestfit.expect("baseline/best_fit ran above");
    let sn = sn_bestfit.expect("superneurons/best_fit ran above");
    out.push_str(&format!(
        "\nsame fleet, same stream: baseline admits peak {} tenants ({} rejected), \
         superneurons admits peak {} tenants ({} rejected)\n",
        base.peak_concurrent_jobs, base.rejected, sn.peak_concurrent_jobs, sn.rejected
    ));

    let record = BenchRecord {
        experiment: "cluster",
        quick,
        gates: vec![],
        deterministic: Json::object()
            .with("jobs", n_jobs)
            .with("devices", 8u64)
            .with("device_dram_bytes", 96 * MB)
            .with("seed", seed)
            .with("baseline_peak_tenants", base.peak_concurrent_jobs)
            .with("superneurons_peak_tenants", sn.peak_concurrent_jobs)
            .with("runs", Json::Array(runs)),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_experiment_shows_the_tenancy_win() {
        let run = |preset| {
            let mut sim = ClusterSim::new(fleet(), PlacementPolicy::BestFit);
            sim.run(synthetic_stream(40, 1, preset, false))
        };
        let base = run(PolicyPreset::Baseline);
        let sn = run(PolicyPreset::Superneurons);
        assert!(
            sn.peak_concurrent_jobs > base.peak_concurrent_jobs,
            "superneurons must pack more tenants ({} vs {})",
            sn.peak_concurrent_jobs,
            base.peak_concurrent_jobs
        );
        assert!(sn.rejected <= base.rejected);
    }
}
