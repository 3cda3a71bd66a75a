//! Differential suite: the indexed event loop ([`ClusterSim::run`]) versus
//! the retained reference loop ([`ClusterSim::run_reference`]).
//!
//! The contract is [`ClusterReport::bit_identical`] — not "close", not
//! "same schedule modulo rounding": the same trace, the same per-job
//! outcomes, and the same per-device integer busy/reserved integrals.
//! The indexed loop earns its asymptotic speedup purely by *not touching*
//! state whose value cannot have changed — a gang whose pace did not move,
//! a device whose reservations did not — while the reference re-projects
//! every gang and integrates every device at every event; both round time
//! only in `Pace::{wall, work}`. These tests hold the one to the other on
//! the canonical streams, on adversarial timestamps, on same-instant
//! completion/arrival races, and on randomized proptest streams — plus the
//! streaming entry point's consistency with the materialized one.

use proptest::prelude::*;
use sn_cluster::{
    collect_stream, mixed_serving_stream, synthetic_stream, ClusterSim, Fleet, JobSpec,
    PlacementPolicy, PoissonStream, PolicyPreset, ReplayStream, TraceKind, Workload,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};

const MB: u64 = 1 << 20;

fn fleet8(dram: u64) -> Fleet {
    Fleet::homogeneous(8, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
}

/// Run both loops from fresh simulators (each profiles from cold, so
/// `predictions_simulated` — part of the JSON — is comparable) and demand
/// bit-identity.
fn assert_differential(
    fleet: Fleet,
    placement: PlacementPolicy,
    arrivals: Vec<(SimTime, JobSpec)>,
    what: &str,
) {
    let indexed = ClusterSim::new(fleet.clone(), placement).run(arrivals.clone());
    let reference = ClusterSim::new(fleet, placement).run_reference(arrivals);
    assert!(
        indexed.bit_identical(&reference),
        "{what}: indexed loop diverged from reference\n--- indexed ---\n{}\n--- reference ---\n{}",
        indexed.render_text(),
        reference.render_text()
    );
    assert_eq!(
        indexed.schedule_fingerprint(),
        reference.schedule_fingerprint(),
        "{what}: schedule fingerprints diverged"
    );
}

#[test]
fn canonical_stream_is_bit_identical_across_placements() {
    for placement in PlacementPolicy::ALL {
        assert_differential(
            fleet8(96 * MB),
            placement,
            synthetic_stream(120, 1, PolicyPreset::Superneurons, true),
            &format!("120-job canonical stream under {placement:?}"),
        );
    }
}

#[test]
fn mixed_serving_stream_is_bit_identical() {
    assert_differential(
        fleet8(96 * MB),
        PlacementPolicy::BestFit,
        mixed_serving_stream(90, 4, PolicyPreset::Superneurons, true),
        "mixed training + inference stream",
    );
}

#[test]
fn constrained_presets_and_rejects_are_bit_identical() {
    // No downgrade ladder on a tight fleet: plenty of queueing and real
    // rejections, so the reject path and the FIFO-backfill path are both
    // exercised differentially.
    assert_differential(
        fleet8(48 * MB),
        PlacementPolicy::BinPack,
        synthetic_stream(60, 9, PolicyPreset::LivenessOffload, false),
        "no-downgrade stream on a tight fleet",
    );
}

#[test]
fn adversarial_past_2p53_arrivals_are_bit_identical() {
    // Regression guard: distinct integer nanosecond timestamps that would
    // collapse under `as f64`. Both loops keep integer time, so these are
    // four separate instants (the last shared by two arrivals), in order.
    let base: u64 = 1 << 53;
    let w = Workload::Synthetic { width: 8, depth: 2 };
    let mut jobs: Vec<(SimTime, JobSpec)> = (0..4)
        .map(|i| {
            (
                SimTime(base + i),
                JobSpec::new(format!("late{i}"), w, 8).with_iterations(2),
            )
        })
        .collect();
    jobs.push((
        SimTime(base + 3),
        JobSpec::new("late3-twin", w, 8).with_iterations(2),
    ));
    assert_differential(
        fleet8(256 * MB),
        PlacementPolicy::FirstFit,
        jobs,
        "arrivals past 2^53 ns",
    );
}

#[test]
fn completion_superseded_by_same_instant_arrival_keeps_reference_order() {
    // The same-instant race the indexed loop must get right: a gang's
    // projected completion sits in the heap; an arrival lands at *exactly*
    // that instant and is admitted onto the gang's devices, changing the
    // pace of everything else there. The reference loop recomputes every
    // projection at every event and is immune by construction; the indexed
    // loop must reach the same completions in the same order by popping
    // the whole instant before handling any of it and re-keying the gangs
    // the admission re-paced.
    let base = synthetic_stream(40, 7, PolicyPreset::Superneurons, true);
    let probe =
        ClusterSim::new(fleet8(96 * MB), PlacementPolicy::FirstFit).run_reference(base.clone());
    // Pick a mid-run completion instant and inject arrivals exactly there.
    let t_hit = probe
        .trace
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Complete))
        .map(|e| e.t_ns)
        .nth(probe.completed / 2)
        .expect("stream completes jobs");
    let w = Workload::Synthetic { width: 8, depth: 2 };
    let mut jobs = base;
    jobs.push((
        SimTime(t_hit),
        JobSpec::new("sniper", w, 8).with_iterations(3),
    ));
    jobs.push((
        SimTime(t_hit),
        JobSpec::new("sniper-twin", w, 8).with_iterations(3),
    ));
    jobs.sort_by_key(|(t, _)| *t);

    let indexed = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::FirstFit).run(jobs.clone());
    let reference = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::FirstFit).run_reference(jobs);
    assert!(
        indexed.bit_identical(&reference),
        "same-instant sniper arrival diverged"
    );
    // The instant itself must order completions before the arrivals (the
    // reference loop's completions-first rule).
    let at_hit: Vec<&TraceKind> = indexed
        .trace
        .iter()
        .filter(|e| e.t_ns == t_hit)
        .map(|e| &e.kind)
        .collect();
    let first_arrive = at_hit
        .iter()
        .position(|k| matches!(k, TraceKind::Arrive))
        .expect("sniper arrival traced at the completion instant");
    assert!(
        at_hit[..first_arrive]
            .iter()
            .any(|k| matches!(k, TraceKind::Complete)),
        "completions must precede the same-instant arrival in the trace"
    );
}

#[test]
fn run_stream_agrees_with_materialized_run() {
    // The streaming entry point runs the same core with aggregate-only
    // recording: counts, makespan, and the exact mean queueing must equal
    // the materialized run's; quantiles may differ only by the sketch's
    // 1/16 rounding.
    let arrivals = mixed_serving_stream(100, 6, PolicyPreset::Superneurons, true);
    let full = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit).run(arrivals.clone());
    let mut stream = ReplayStream::new(arrivals);
    let svc = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit).run_stream(&mut stream);

    assert_eq!(svc.submitted as usize, full.jobs.len());
    assert_eq!(svc.completed as usize, full.completed);
    assert_eq!(svc.rejected as usize, full.rejected);
    assert_eq!(svc.makespan, full.makespan);
    assert_eq!(svc.events as usize, full.trace.len());
    assert_eq!(svc.peak_concurrent_jobs, full.peak_concurrent_jobs);
    assert_eq!(svc.mean_queueing, full.mean_queueing);
    assert_eq!(svc.jobs_per_sec.to_bits(), full.jobs_per_sec.to_bits());
    assert_eq!(
        svc.compute_utilization.to_bits(),
        full.compute_utilization.to_bits()
    );
    assert_eq!(
        svc.memory_utilization.to_bits(),
        full.memory_utilization.to_bits()
    );
    for (sketched, exact, q) in [
        (svc.p50_latency, full.p50_latency, "p50"),
        (svc.p99_latency, full.p99_latency, "p99"),
        (svc.p999_latency, full.p999_latency, "p999"),
    ] {
        let lo = exact.0 as f64;
        let hi = lo * (1.0 + 1.0 / 16.0) + 1.0;
        assert!(
            (sketched.0 as f64) >= lo && (sketched.0 as f64) <= hi,
            "{q}: sketch {} outside [{lo}, {hi}]",
            sketched.0
        );
    }
}

#[test]
fn streaming_memory_is_bounded_by_concurrency_not_stream_length() {
    // Sub-critical load (the fleet's capacity gap is ~1.2 ms/job, so a
    // 5 ms mean gap is ρ ≈ 0.25): the queue stays shallow and the live-job
    // slab high-water must track concurrency, not the 10k stream length.
    let mut stream =
        PoissonStream::new(10_000, 42, SimTime::from_ms(5), PolicyPreset::Superneurons);
    let mut sim = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit);
    let svc = sim.run_stream(&mut stream);
    assert_eq!(svc.submitted, 10_000);
    assert_eq!(svc.submitted, svc.completed + svc.rejected);
    assert!(svc.events >= svc.submitted * 2, "admits/completes counted");
    assert!(
        svc.peak_live_jobs < 500,
        "live-job slots must track concurrency, not the 10k stream: {}",
        svc.peak_live_jobs
    );
    assert!(svc.p999_latency >= svc.p99_latency);
    assert!(svc.p99_latency >= svc.p50_latency);
}

#[test]
fn poisson_service_reports_are_deterministic() {
    let run = || {
        let mut stream =
            PoissonStream::new(1_000, 9, SimTime::from_ms(2), PolicyPreset::Superneurons);
        ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit).run_stream(&mut stream)
    };
    let a = run();
    let b = run();
    assert_eq!(a.json(), b.json(), "seeded streaming runs must agree");
}

#[test]
fn poisson_stream_differential_via_replay() {
    // The open-loop generator feeds the indexed loop directly; materialize
    // the same arrivals for the reference loop and demand bit-identity of
    // the full reports.
    let arrivals = collect_stream(&mut PoissonStream::new(
        300,
        17,
        SimTime::from_us(250),
        PolicyPreset::Superneurons,
    ));
    assert_differential(
        fleet8(96 * MB),
        PlacementPolicy::BestFit,
        arrivals,
        "Poisson arrivals via replay",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_streams_are_bit_identical(
        n in 10usize..60,
        seed in 0u64..1_000,
        preset_idx in 0usize..PolicyPreset::ALL.len(),
        placement_idx in 0usize..PlacementPolicy::ALL.len(),
        downgrade in proptest::bool::ANY,
        dram_mb in 48u64..192,
    ) {
        let preset = PolicyPreset::ALL[preset_idx];
        let placement = PlacementPolicy::ALL[placement_idx];
        let arrivals = synthetic_stream(n, seed, preset, downgrade);
        let indexed = ClusterSim::new(fleet8(dram_mb * MB), placement).run(arrivals.clone());
        let reference =
            ClusterSim::new(fleet8(dram_mb * MB), placement).run_reference(arrivals);
        prop_assert!(
            indexed.bit_identical(&reference),
            "n={} seed={} preset={:?} placement={:?} downgrade={} dram={}MB diverged",
            n, seed, preset, placement, downgrade, dram_mb
        );
    }
}
