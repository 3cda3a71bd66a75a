//! A tuned policy belongs to the simulation that registers it: a `TunedId`
//! names a bundle in one `ClusterSim`'s table, two simulations in one
//! process each resolve their own, and a searched winner runs as an
//! admission rung — its policy reserved, its bucket size measured.

use std::sync::Barrier;

use sn_cluster::admission::quantized_budget;
use sn_cluster::{
    mixed_serving_stream, ClusterReport, ClusterSim, Fleet, JobSpec, PlacementPolicy, PolicyPreset,
    TunedId, Workload,
};
use sn_runtime::group::DEFAULT_BUCKET_BYTES;
use sn_runtime::tune::{search, TuneConfig};
use sn_runtime::{plan_prediction, GroupConfig, GroupExecutor, Interconnect, Policy, TunedPolicy};
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::{MetricsRegistry, MetricsSnapshot};

const MB: u64 = 1 << 20;

fn card() -> DeviceSpec {
    DeviceSpec::k40c().with_dram(96 * MB)
}

/// A tuned bundle of `policy` and `bucket_bytes`, measured nowhere.
fn bundle(policy: Policy, bucket_bytes: u64) -> TunedPolicy {
    TunedPolicy {
        policy,
        bucket_bytes,
        step_time: SimTime::from_us(10),
        plan_peak_bytes: 1,
        executed_peak_bytes: 1,
        hand_step_time: SimTime::from_us(12),
        hand_name: "superneurons",
        seed: 0,
        evals: 0,
        pruned: 0,
        trace_digest: 0,
    }
}

/// The job every isolation run admits first, onto an idle fleet.
fn first_job(preset: PolicyPreset) -> JobSpec {
    let w = Workload::Synthetic {
        width: 32,
        depth: 6,
    };
    JobSpec::new("tuned-first", w, 16)
        .with_preset(preset)
        .with_downgrade(false)
}

/// A fresh simulation that registers `bundle` and runs a mixed training
/// and serving stream in which every job asks for it: the bundle's id, the
/// report and the metrics.
fn run_tuned(bundle: TunedPolicy) -> (TunedId, ClusterReport, MetricsSnapshot) {
    let fleet = Fleet::homogeneous(8, card(), Interconnect::pcie());
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::BestFit);
    let id = sim.register_tuned(bundle);
    let registry = MetricsRegistry::new();
    sim.enable_metrics(&registry);
    let tuned = PolicyPreset::Tuned(id);
    let mut arrivals = vec![(SimTime::ZERO, first_job(tuned))];
    arrivals.extend(mixed_serving_stream(40, 3, tuned, true));
    (id, sim.run(arrivals), registry.snapshot())
}

#[test]
fn two_simulations_each_admit_under_their_own_tuned_bundle() {
    let bundles = [
        bundle(Policy::liveness_offload(), 4 * MB),
        bundle(Policy::superneurons().with_prefetch_depth(2), 64 * MB),
    ];
    let solo = bundles.clone().map(run_tuned);
    let start = Barrier::new(bundles.len());
    let together = std::thread::scope(|s| {
        let runs = bundles.clone().map(|b| {
            let start = &start;
            s.spawn(move || {
                start.wait();
                run_tuned(b)
            })
        });
        runs.map(|run| run.join().expect("a simulation thread panicked"))
    });
    assert_eq!(solo[0].0, solo[1].0, "each first bundle takes the first id");
    let spec = card();
    let budget = quantized_budget(&spec, spec.dram_bytes);
    let net = first_job(PolicyPreset::Baseline).workload.build(16);
    let mut first_peaks = Vec::new();
    for ((run, alone), bundle) in together.iter().zip(&solo).zip(&bundles) {
        assert_eq!(
            run, alone,
            "a simulation beside another runs as it runs alone"
        );
        let (id, report, _) = run;
        // The first arrival meets an idle fleet, so its budget is a whole
        // device's, and it reserves its own bundle's plan peak there.
        let first = &report.jobs[0];
        assert_eq!(first.name, "tuned-first");
        assert_eq!(first.granted, Some(PolicyPreset::Tuned(*id)));
        let predicted = plan_prediction(&net, &spec.clone().with_dram(budget), bundle.policy);
        assert_eq!(first.reservations, [predicted.unwrap().peak_bytes]);
        first_peaks.push(first.reservations[0]);
    }
    assert_ne!(first_peaks[0], first_peaks[1], "the bundles reserve apart");
    assert_ne!(together[0].1, together[1].1, "and schedule apart");
}

#[test]
fn a_searched_winner_runs_as_a_two_replica_tuned_gang() {
    let w = Workload::Synthetic {
        width: 128,
        depth: 4,
    };
    let (batch, spec, ic) = (8, card(), Interconnect::pcie());
    let net = w.build(batch);
    let cfg = TuneConfig::new(2, ic).with_seed(5).with_samples(8);
    let tuned = search(&net, &spec, &cfg).expect("the tower fits").tuned;
    assert_ne!(
        tuned.bucket_bytes, DEFAULT_BUCKET_BYTES,
        "seed 5 tunes the bucket"
    );

    let fleet = Fleet::homogeneous(2, spec.clone(), ic);
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::FirstFit);
    let id = sim.register_tuned(tuned.clone());
    let gang = JobSpec::new("tuned-gang", w, batch)
        .with_replicas(2)
        .with_iterations(5)
        .with_preset(PolicyPreset::Tuned(id))
        .with_downgrade(false);
    let later = JobSpec::new("hand", w, batch).with_iterations(3);
    let report = sim.run(vec![(SimTime::ZERO, gang), (SimTime::from_ms(1000), later)]);
    assert_eq!(report.completed, 2);

    // Admitted on the tuned rung, both replicas reserving the winner's plan
    // peak at a whole device's budget.
    let g = &report.jobs[0];
    assert_eq!(g.granted, Some(PolicyPreset::Tuned(id)));
    let capped = spec
        .clone()
        .with_dram(quantized_budget(&spec, spec.dram_bytes));
    let peak = plan_prediction(&net, &capped, tuned.policy)
        .unwrap()
        .peak_bytes;
    assert_eq!(g.reservations, [peak, peak]);

    // Alone on the fleet, the gang runs at the step the group interpreter
    // measures under the winner's policy and bucket size — the search's
    // own measurement — and the default bucket would have run it slower.
    let step = |bucket_bytes: u64| {
        let cfg = GroupConfig::new(2, ic).with_bucket_bytes(bucket_bytes);
        let mut gx = GroupExecutor::new(&net, capped.clone(), tuned.policy, cfg).unwrap();
        gx.run_iteration().unwrap();
        gx.run_iteration().unwrap().step_time
    };
    assert_eq!(step(tuned.bucket_bytes), tuned.step_time);
    assert!(step(DEFAULT_BUCKET_BYTES) > tuned.step_time);
    let ran = g.completion.unwrap() - g.started.unwrap();
    assert_eq!(ran.as_ns(), 5 * tuned.step_time.as_ns());
}
