//! The fault-tolerance experiment: MTBF sweep × recovery mode, with hard
//! gates recorded in `BENCH_faults.json`.
//!
//! One seeded random [`FaultPlan`] per MTBF point (identical across the
//! recovery modes, so the modes see the *same* failures) drives the bench
//! fleet through two recovery modes:
//!
//! * `no-recovery` — an interrupted gang fails permanently;
//! * `restart` — checkpoint/restart: interrupted jobs re-enter through
//!   capped exponential backoff and resume from their last checkpoint at
//!   byte-exact original budgets.
//!
//! Gates (all must be green):
//!
//! 1. `conservation_holds` — in every cell, submitted jobs are exactly
//!    partitioned into completed + rejected + permanently-failed +
//!    still-queued.
//! 2. `goodput_ordering` — at every MTBF point, `restart ≥ no-recovery`
//!    on useful iterations and on goodput (useful iterations per simulated
//!    second): recovery may only help.
//! 3. `peaks_exact_across_restart` — every restarted job re-admits at a
//!    (budget, peak) vector byte-identical to its original grant, and the
//!    sweep actually exercised restarts.
//! 4. `replay_deterministic` — re-running a cell with the same plan and
//!    stream reproduces an equal report; each cell records its schedule's
//!    [`ClusterReport::digest`] as its `fingerprint`.
//!
//! MTTR, retry, and wasted-work counters flow through the shared telemetry
//! registry and are embedded in the artifact.

use sn_cluster::{
    synthetic_stream, ClusterReport, ClusterSim, FaultPlan, PlacementPolicy, PolicyPreset,
    RecoveryMode, RecoveryPolicy,
};
use sn_sim::SimTime;
use sn_telemetry::{Json, MetricsRegistry};

use crate::cluster::fleet;
use crate::record::BenchRecord;
use crate::table::TextTable;

fn policy(mode: RecoveryMode) -> RecoveryPolicy {
    RecoveryPolicy::default().with_mode(mode)
}

/// One sweep cell: the arrivals replayed under `plan` with `mode` recovery.
/// `metrics` is shared across cells so the artifact carries fleet-wide MTTR
/// and retry aggregates.
fn run_cell(
    arrivals: &[(SimTime, sn_cluster::JobSpec)],
    plan: &FaultPlan,
    mode: RecoveryMode,
    metrics: Option<&MetricsRegistry>,
) -> ClusterReport {
    let mut sim = ClusterSim::new(fleet(), PlacementPolicy::FirstFit);
    sim.enable_faults(plan.clone(), policy(mode));
    if let Some(reg) = metrics {
        sim.enable_metrics(reg);
    }
    sim.run(arrivals.to_vec())
}

/// True when every job in the report kept its restart plans byte-exact.
fn peaks_exact(report: &ClusterReport) -> bool {
    report.jobs.iter().all(|j| j.restart_peak_exact)
}

/// Run the experiment; writes `BENCH_faults.json` into the current
/// directory.
pub fn faults(quick: bool) -> String {
    let n_jobs = if quick { 30 } else { 80 };
    // Jobs request the *weakest* preset with downgrade allowed, so
    // admission walks the preset ladder under memory pressure.
    let arrivals = synthetic_stream(n_jobs, 13, PolicyPreset::Baseline, true);

    // Probe the fault-free makespan so MTBF points scale with the run
    // instead of hard-coding nanoseconds.
    let probe = ClusterSim::new(fleet(), PlacementPolicy::FirstFit).run(arrivals.clone());
    let makespan = probe.makespan.0.max(1);

    let mut out = String::new();
    out.push_str(&format!(
        "faults: MTBF sweep x recovery mode, {n_jobs} jobs, \
         fault-free makespan {:.2} ms\n\n",
        makespan as f64 / 1e6
    ));

    // MTBF as fractions of the fault-free makespan: from "one failure or
    // two" down to "failures are the steady state". MTTR = MTBF/4, faults
    // injected across twice the fault-free horizon (recovery stretches the
    // run past the probe's makespan).
    let dividers: &[u64] = if quick { &[4] } else { &[2, 4, 8] };
    let modes = [RecoveryMode::NoRecovery, RecoveryMode::Restart];

    let metrics = MetricsRegistry::new();
    let mut table = TextTable::new(vec![
        "mtbf (ms)",
        "mode",
        "completed",
        "failed",
        "queued",
        "restarts",
        "useful iters",
        "wasted iters",
        "goodput (it/s)",
    ]);

    let mut conservation_holds = true;
    let mut goodput_ordering = true;
    let mut peaks_ok = true;
    let mut replay_deterministic = true;
    let mut total_restarts = 0u64;
    let mut cell_rows = Vec::new();

    for &div in dividers {
        let mtbf = SimTime(makespan / div);
        let mttr = SimTime((makespan / div / 4).max(1));
        let plan = FaultPlan::seeded_random(
            0xfa17 + div,
            fleet().len(),
            SimTime(2 * makespan),
            mtbf,
            mttr,
        );

        let mut by_mode = Vec::with_capacity(modes.len());
        for mode in modes {
            let report = run_cell(&arrivals, &plan, mode, Some(&metrics));
            conservation_holds &= report.conservation_holds();
            peaks_ok &= peaks_exact(&report);
            total_restarts += report.restarts;
            by_mode.push((report.useful_iterations, report.goodput_iters_per_sec));

            if mode == RecoveryMode::Restart {
                // Replay gate: same plan + stream → an equal report.
                replay_deterministic &= report == run_cell(&arrivals, &plan, mode, None);
            }

            table.row(vec![
                format!("{:.2}", mtbf.0 as f64 / 1e6),
                mode.name().to_string(),
                report.completed.to_string(),
                report.failed.to_string(),
                report.still_queued.to_string(),
                report.restarts.to_string(),
                report.useful_iterations.to_string(),
                report.wasted_iterations.to_string(),
                format!("{:.1}", report.goodput_iters_per_sec),
            ]);
            cell_rows.push(
                Json::object()
                    .with("mtbf_ns", mtbf.0)
                    .with("mode", mode.name())
                    .with("completed", report.completed)
                    .with("failed", report.failed)
                    .with("still_queued", report.still_queued)
                    .with("restarts", report.restarts)
                    .with("useful_iterations", report.useful_iterations)
                    .with("wasted_iterations", report.wasted_iterations)
                    .with("goodput_iters_per_sec", report.goodput_iters_per_sec)
                    .with("raw_iters_per_sec", report.raw_iters_per_sec)
                    .with("conservation", report.conservation_holds())
                    .with("peaks_exact", peaks_exact(&report))
                    .with("fingerprint", format!("{:016x}", report.digest())),
            );
        }
        // Recovery may only help: restart ≥ none, in work and in rate.
        let (none, restart) = (by_mode[0], by_mode[1]);
        goodput_ordering &= restart.0 >= none.0 && restart.1 >= none.1;
    }
    let peaks_exact_across_restart = peaks_ok && total_restarts > 0;

    out.push_str(&table.render());
    let snap = metrics.snapshot();
    let failures = snap.counter("cluster.faults.device_failures").unwrap_or(0);
    let recoveries = snap
        .counter("cluster.faults.device_recoveries")
        .unwrap_or(0);
    let retries = snap.counter("cluster.retries.scheduled").unwrap_or(0);
    let mttr_mean = snap
        .histogram("cluster.faults.mttr_ns")
        .map(|h| h.mean())
        .unwrap_or(0.0);
    out.push_str(&format!(
        "\ntelemetry: {failures} device failures, {recoveries} recoveries \
         (mean MTTR {:.2} ms), {retries} retries scheduled\n",
        mttr_mean / 1e6
    ));
    out.push_str(&format!(
        "\ngates: conservation_holds {conservation_holds}, \
         goodput_ordering {goodput_ordering}, \
         peaks_exact_across_restart {peaks_exact_across_restart}, \
         replay_deterministic {replay_deterministic}\n"
    ));

    let record = BenchRecord {
        experiment: "faults",
        quick,
        gates: vec![
            ("conservation_holds", conservation_holds),
            ("goodput_ordering", goodput_ordering),
            ("peaks_exact_across_restart", peaks_exact_across_restart),
            ("replay_deterministic", replay_deterministic),
        ],
        deterministic: Json::object()
            .with("jobs", n_jobs)
            .with("fault_free_makespan_ns", makespan)
            .with("cells", Json::Array(cell_rows))
            .with("metrics", snap.json()),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_arrivals() -> Vec<(SimTime, sn_cluster::JobSpec)> {
        synthetic_stream(14, 13, PolicyPreset::Superneurons, true)
    }

    #[test]
    fn cells_conserve_jobs_and_replay_deterministically() {
        let arrivals = small_arrivals();
        let probe = ClusterSim::new(fleet(), PlacementPolicy::FirstFit).run(arrivals.clone());
        let m = probe.makespan.0.max(1);
        let plan = FaultPlan::seeded_random(
            0xfa17,
            fleet().len(),
            SimTime(2 * m),
            SimTime(m / 4),
            SimTime((m / 16).max(1)),
        );
        let a = run_cell(&arrivals, &plan, RecoveryMode::Restart, None);
        let b = run_cell(&arrivals, &plan, RecoveryMode::Restart, None);
        assert!(a.conservation_holds());
        assert!(peaks_exact(&a));
        assert!(a == b);
    }

    #[test]
    fn recovery_beats_no_recovery_on_useful_iterations() {
        let arrivals = small_arrivals();
        let probe = ClusterSim::new(fleet(), PlacementPolicy::FirstFit).run(arrivals.clone());
        let m = probe.makespan.0.max(1);
        let plan = FaultPlan::seeded_random(
            0xfa17,
            fleet().len(),
            SimTime(2 * m),
            SimTime(m / 4),
            SimTime((m / 16).max(1)),
        );
        let none = run_cell(&arrivals, &plan, RecoveryMode::NoRecovery, None);
        let restart = run_cell(&arrivals, &plan, RecoveryMode::Restart, None);
        assert!(restart.useful_iterations >= none.useful_iterations);
        assert!(restart.goodput_iters_per_sec >= none.goodput_iters_per_sec);
    }
}
