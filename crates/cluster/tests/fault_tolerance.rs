//! Fault-injection and recovery contract of the cluster scheduler:
//!
//! 1. **Opt-in** — an *empty* fault plan (fault mode on, no events) leaves
//!    the schedule equal to a fault-free run's (and to its golden digest).
//! 2. **Gang atomicity under failure** — one replica's device dying fails
//!    or interrupts the whole gang, releasing every replica's reservation
//!    and budget at the same instant.
//! 3. **Checkpoint/restart** — interrupted training jobs resume from their
//!    last checkpoint, and every restarted grant's (budget, peak) vector is
//!    byte-identical to the original plan (the shared plan memo guarantees
//!    it on a homogeneous fleet).
//! 4. **Integer timers** — backoff/retry instants are u64 nanoseconds on
//!    the simulator's one clock; streams anchored past 2^53 ns (where a
//!    float clock would merge neighboring integers — the regression this
//!    guards) still recover and replay deterministically.
//! 5. **One restart** — `RecoveryMode::RestartElastic` is a name for
//!    `Restart`: a blocked admission waits, no running tenant is downgraded,
//!    and the schedule is the one plain `Restart` runs.
//! 6. **Replay determinism** — identical `FaultPlan` seeds yield
//!    byte-identical `ClusterReport`s and `ServiceReport`s (proptest).
//! 7. **A restart owes its remaining work** — the completion projected for
//!    an interrupted run dies with it; the restarted job finishes no
//!    earlier than re-admission + remaining iterations × step × slowdown.
//! 8. **A refusal lasts as long as the state it was made in** — jobs that
//!    only a pressure spike keeps off their device are admitted at the
//!    instant it lifts, not at the next completion.

use proptest::prelude::*;
use sn_cluster::{
    synthetic_stream, ClusterSim, FaultPlan, Fleet, JobSpec, PlacementPolicy, PolicyPreset,
    RecoveryMode, RecoveryPolicy, ReplayStream, ServiceReport, TraceKind, Workload,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};

const MB: u64 = 1 << 20;

fn fleet_n(n: usize, dram: u64) -> Fleet {
    Fleet::homogeneous(n, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
}

fn fleet8(dram: u64) -> Fleet {
    fleet_n(8, dram)
}

/// Fault-free makespan of `arrivals` on a fresh sim — used to aim fault
/// instants at the middle of a run instead of guessing step times.
fn probe_makespan(fleet: &Fleet, arrivals: &[(SimTime, JobSpec)]) -> u64 {
    let mut sim = ClusterSim::new(fleet.clone(), PlacementPolicy::FirstFit);
    sim.run(arrivals.to_vec()).makespan.0
}

#[test]
fn empty_fault_plan_schedules_as_the_fault_free_run() {
    let arrivals = synthetic_stream(40, 11, PolicyPreset::Superneurons, true);
    let baseline = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit).run(arrivals.clone());
    let mut armed = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit);
    armed.enable_faults(FaultPlan::new(), RecoveryPolicy::default());
    let report = armed.run(arrivals);
    assert!(
        report == baseline,
        "fault mode with no events must not perturb the schedule"
    );
    assert!(report.conservation_holds());
    assert_eq!(report.restarts, 0);
    assert_eq!(report.wasted_iterations, 0);
}

#[test]
fn gang_failure_is_atomic_across_all_replicas() {
    // Size the gang so one replica fills well over half a device: any stale
    // replica reservation left behind by a non-atomic failure would make
    // the identical probe gang unplaceable.
    let w = Workload::Synthetic {
        width: 32,
        depth: 6,
    };
    let gang = |name: &str| {
        JobSpec::new(name, w, 16)
            .with_preset(PolicyPreset::Baseline)
            .with_downgrade(false)
            .with_replicas(3)
            .with_iterations(400)
    };
    let peak = {
        let mut sim = ClusterSim::new(fleet_n(3, 1 << 30), PlacementPolicy::FirstFit);
        let r = sim.run(vec![(SimTime::ZERO, gang("probe"))]);
        r.jobs[0].reservations[0]
    };
    let dram = peak + peak / 2; // fits one replica, never two
    let fleet = fleet_n(3, dram);
    let makespan = probe_makespan(&fleet, &[(SimTime::ZERO, gang("solo"))]);
    assert!(makespan > 4, "gang run too short to interrupt");

    let t_kill = SimTime(makespan / 2);
    let t_recover = t_kill + SimTime::from_us(10);
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::FirstFit);
    sim.enable_faults(
        FaultPlan::new().kill(t_kill, 0).recover(t_recover, 0),
        RecoveryPolicy::default().with_mode(RecoveryMode::NoRecovery),
    );
    let report = sim.run(vec![
        (SimTime::ZERO, gang("victim")),
        // Arrives after the recovery: admits only if ALL THREE of the
        // victim's reservations (devices 0, 1, 2) were released.
        (t_recover + SimTime::from_us(10), gang("aftermath")),
    ]);

    let victim = report.jobs.iter().find(|j| j.name == "victim").unwrap();
    assert!(
        victim.failed.is_some(),
        "no-recovery victim must fail permanently"
    );
    assert!(victim.completion.is_none());
    assert!(
        victim.wasted_iterations > 0,
        "interrupted progress is wasted work"
    );
    let interrupts = report
        .trace
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Interrupt { .. }))
        .count();
    assert_eq!(interrupts, 1, "one gang, one atomic interruption");

    let aftermath = report.jobs.iter().find(|j| j.name == "aftermath").unwrap();
    assert!(
        aftermath.completion.is_some(),
        "stale gang reservations blocked the aftermath gang: release was not atomic"
    );
    assert!(report.conservation_holds());
    assert_eq!(report.failed, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn checkpoint_restart_resumes_with_byte_exact_peaks() {
    let arrivals = synthetic_stream(24, 7, PolicyPreset::Superneurons, true);
    let fleet = fleet8(96 * MB);
    let makespan = probe_makespan(&fleet, &arrivals);

    // Knock out two devices mid-run, recover them later.
    let plan = FaultPlan::new()
        .outage(SimTime(makespan / 4), 0, SimTime(makespan / 4))
        .outage(SimTime(makespan / 3), 5, SimTime(makespan / 5));
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::FirstFit);
    sim.enable_faults(plan, RecoveryPolicy::default());
    let report = sim.run(arrivals);

    assert!(report.conservation_holds(), "job conservation violated");
    assert!(report.restarts > 0, "the outages must interrupt someone");
    assert!(report.wasted_iterations > 0);
    for job in &report.jobs {
        assert!(
            job.restart_peak_exact,
            "job {} restarted with a different (budget, peak) vector",
            job.name
        );
        if job.restarts > 0 {
            assert!(
                job.completion.is_some(),
                "restarted job {} never finished",
                job.name
            );
        }
    }
    // Goodput accounting: useful iterations are exactly the completed
    // jobs' totals; raw throughput adds the wasted ones on top.
    let expect_useful: u64 = report
        .jobs
        .iter()
        .filter(|j| j.completion.is_some())
        .map(|j| u64::from(j.iterations))
        .sum();
    assert_eq!(report.useful_iterations, expect_useful);
    assert!(report.raw_iters_per_sec >= report.goodput_iters_per_sec);
    assert!(report.goodput_iters_per_sec.is_finite());
}

#[test]
fn a_restarted_job_runs_its_remaining_iterations_to_the_end() {
    // A job alone on its device is never re-paced, so the completion
    // projected at its first admission is still the queued one when the
    // device dies. That projection must die with the run: after the
    // restart, the job owes every iteration past its checkpoint, at one
    // solo step each — it may not finish on the pre-fault schedule.
    let iters = 200u32;
    let job =
        JobSpec::new("lone", Workload::Synthetic { width: 8, depth: 2 }, 8).with_iterations(iters);
    let fleet = fleet_n(2, 96 * MB);
    let makespan = probe_makespan(&fleet, &[(SimTime::ZERO, job.clone())]);
    let step = makespan / u64::from(iters);
    assert_eq!(step * u64::from(iters), makespan, "premise: whole-ns steps");

    let t_kill = SimTime(makespan / 2);
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::FirstFit);
    sim.enable_faults(
        // Device 0 stays down; the retry lands on device 1 well before the
        // pre-fault completion instant.
        FaultPlan::new().kill(t_kill, 0),
        RecoveryPolicy::default().with_mode(RecoveryMode::Restart),
    );
    let report = sim.run(vec![(SimTime::ZERO, job)]);
    assert!(report.conservation_holds());

    let (restarted_at, from_iteration) = report
        .trace
        .iter()
        .find_map(|e| match e.kind {
            TraceKind::Restart { from_iteration, .. } => Some((e.t_ns, from_iteration)),
            _ => None,
        })
        .expect("the kill must interrupt and restart the job");
    assert!(restarted_at > t_kill.0 && restarted_at < makespan);
    assert!(from_iteration > 0 && from_iteration < iters);
    let lone = &report.jobs[0];
    assert_eq!(lone.restarts, 1);
    assert_eq!(lone.devices, vec![1]);
    let done = lone.completion.expect("the restarted job completes").0;
    let owed = u64::from(iters - from_iteration) * step; // alone: slowdown 1
    assert!(
        done >= restarted_at + owed,
        "restarted at {restarted_at} ns owing {owed} ns, yet complete at {done} ns \
         (the pre-fault projection was {makespan} ns)"
    );
}

#[test]
fn recovery_timers_survive_the_f64_collapse_past_2p53() {
    // Regression guard for the PR-2 bug class: anchor the whole run past
    // 2^53 ns, where neighboring integer instants would collapse under
    // `as f64`. Every instant is a u64 on one clock, so the lone-device
    // outage below must be ridden out exactly as it would be at t = 0.
    let base = 1u64 << 53;
    let w = Workload::Synthetic { width: 8, depth: 2 };
    let arrivals = vec![
        (SimTime(base), JobSpec::new("a", w, 8).with_iterations(200)),
        (
            SimTime(base + 1),
            JobSpec::new("b", w, 8).with_iterations(50),
        ),
    ];
    let fleet = fleet_n(1, 96 * MB);
    let makespan = probe_makespan(&fleet, &arrivals);
    let t_kill = SimTime(base + (makespan - base) / 3);
    // With the only device down, interrupted jobs ride their backoff: the
    // 1, 2 and 4 ms delays probe an outage this long repeatedly.
    let outage = SimTime::from_ms(5);

    let run = || {
        let mut sim = ClusterSim::new(fleet.clone(), PlacementPolicy::FirstFit);
        sim.enable_faults(
            FaultPlan::new().outage(t_kill, 0, outage),
            RecoveryPolicy::default(),
        );
        sim.run(arrivals.clone())
    };
    let report = run();
    assert!(report.conservation_holds());
    assert_eq!(report.completed, 2, "both jobs must ride out the outage");
    assert!(report.restarts > 0);
    for job in &report.jobs {
        assert!(job.restart_peak_exact);
    }
    // Trace instants must never run backwards, at a magnitude where their
    // f64 projections would be equal.
    for w in report.trace.windows(2) {
        assert!(w[1].t_ns >= w[0].t_ns, "trace time ran backwards");
    }
    // Same plan, same stream → byte-identical replay.
    assert!(report == run());
}

#[test]
fn the_restart_elastic_name_runs_the_restart_schedule() {
    let w = Workload::Synthetic {
        width: 48,
        depth: 8,
    };
    // Probe per-preset peaks on a huge device.
    let peak_of = |preset: PolicyPreset| {
        let mut sim = ClusterSim::new(fleet_n(1, 1 << 30), PlacementPolicy::FirstFit);
        let r = sim.run(vec![(
            SimTime::ZERO,
            JobSpec::new("probe", w, 16)
                .with_preset(preset)
                .with_downgrade(false),
        )]);
        r.jobs[0].reservations[0]
    };
    let p_base = peak_of(PolicyPreset::Baseline);
    let p_liveness = peak_of(PolicyPreset::LivenessOnly);
    assert!(
        p_liveness + 5 * MB < p_base,
        "test premise: ladder must free real memory (baseline {p_base}, liveness {p_liveness})"
    );
    // One device sized so the baseline resident fits alone and a second
    // baseline tenant is blocked (baseline's peak is budget-independent)
    // until the resident finishes; moving the resident one rung down the
    // ladder would have made room for both.
    let dram = p_base + p_liveness + 4 * MB;
    assert!(dram < 2 * p_base, "newcomer must be blocked at baseline");
    let arrivals = vec![
        (
            SimTime::ZERO,
            JobSpec::new("resident", w, 16)
                .with_preset(PolicyPreset::Baseline)
                .with_downgrade(true)
                .with_iterations(60),
        ),
        (
            SimTime::from_us(50),
            JobSpec::new("newcomer", w, 16)
                .with_preset(PolicyPreset::Baseline)
                .with_downgrade(false)
                .with_iterations(5),
        ),
    ];
    let run = |mode: RecoveryMode| {
        let mut sim = ClusterSim::new(fleet_n(1, dram), PlacementPolicy::FirstFit);
        // Fault mode armed with an empty plan: recovery machinery on, no
        // injected events — pressure comes purely from the arrival.
        sim.enable_faults(FaultPlan::new(), RecoveryPolicy::default().with_mode(mode));
        sim.run(arrivals.clone())
    };

    let named = run(RecoveryMode::RestartElastic);
    let restart = run(RecoveryMode::Restart);
    assert!(named.conservation_holds());
    assert_eq!(named.completed, 2);
    let resident = named.jobs.iter().find(|j| j.name == "resident").unwrap();
    assert_eq!(
        resident.granted,
        Some(PolicyPreset::Baseline),
        "no running tenant is downgraded"
    );
    assert_eq!(named.digest(), restart.digest());
}

#[test]
fn jobs_blocked_only_by_a_spike_start_the_instant_it_lifts() {
    let w = Workload::Synthetic {
        width: 32,
        depth: 6,
    };
    // Baseline's peak does not depend on the budget, and downgrades are
    // off, so the three jobs ask for the same bytes whatever is free.
    let job = |name: &str, iterations: u32| {
        JobSpec::new(name, w, 16)
            .with_preset(PolicyPreset::Baseline)
            .with_downgrade(false)
            .with_iterations(iterations)
    };
    let resident = (SimTime::ZERO, job("resident", 60));
    // Alone on a huge device: how long the resident runs, and what it holds.
    let (solo, peak) = {
        let mut sim = ClusterSim::new(fleet_n(1, 1 << 30), PlacementPolicy::FirstFit);
        let alone = sim.run(vec![resident.clone()]);
        (alone.makespan.0, alone.jobs[0].reservations[0])
    };
    // Room for all three and a budget quantum (1/32 of DRAM) to spare; the
    // spike withholds everything the resident does not hold. The two
    // newcomers have one shape and arrive at different instants in one
    // reservation state: the first is refused by the sweep, the second by
    // the memory of that refusal.
    let dram = 4 * peak;
    let (spike_at, lifts_at) = (solo / 8, solo / 2);
    let plan = FaultPlan::new().spike(
        SimTime(spike_at),
        0,
        dram - peak,
        SimTime(lifts_at - spike_at),
    );
    let arrivals = vec![
        resident,
        (SimTime(solo / 4), job("first", 5)),
        (SimTime(solo / 3), job("second", 7)),
    ];
    let mut sim = ClusterSim::new(fleet_n(1, dram), PlacementPolicy::FirstFit);
    sim.enable_faults(plan, RecoveryPolicy::default());
    let report = sim.run(arrivals);

    assert!(report.conservation_holds());
    assert_eq!(report.completed, 3);
    let of = |name: &str| report.jobs.iter().find(|j| j.name == name).unwrap();
    assert!(
        of("resident").completion.unwrap().0 > lifts_at,
        "test premise: nothing completes before the spike lifts"
    );
    for name in ["first", "second"] {
        assert_eq!(
            of(name).started,
            Some(SimTime(lifts_at)),
            "{name} must start when the spike lifts"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn identical_fault_seeds_replay_byte_identically(
        seed in 0u64..1_000,
        n in 10usize..40,
        mtbf_us in 200u64..2_000,
    ) {
        let arrivals = synthetic_stream(n, seed, PolicyPreset::Superneurons, true);
        let horizon = SimTime::from_ms(20);
        let plan = FaultPlan::seeded_random(
            seed,
            8,
            horizon,
            SimTime::from_us(mtbf_us),
            SimTime::from_us(mtbf_us / 4),
        );
        prop_assert_eq!(
            &plan,
            &FaultPlan::seeded_random(
                seed,
                8,
                horizon,
                SimTime::from_us(mtbf_us),
                SimTime::from_us(mtbf_us / 4),
            ),
            "seeded plans must be pure functions of the seed"
        );
        let run = || {
            let mut sim = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::FirstFit);
            sim.enable_faults(plan.clone(), RecoveryPolicy::default());
            sim.run(arrivals.clone())
        };
        let a = run();
        let b = run();
        prop_assert!(a.conservation_holds(), "seed={} n={} conservation", seed, n);
        prop_assert!(
            a == b,
            "seed={} n={} mtbf={}us: fault replay diverged",
            seed, n, mtbf_us
        );
        // The streaming loop replays identically too, and reports the
        // recorded run's summary with its tails sketched.
        let stream_run = || {
            let mut sim = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::FirstFit);
            sim.enable_faults(plan.clone(), RecoveryPolicy::default());
            sim.run_stream(&mut ReplayStream::new(arrivals.clone()))
        };
        let svc = stream_run();
        prop_assert_eq!(&svc, &stream_run());
        let exact = [a.p50_latency, a.p99_latency, a.p999_latency];
        let sketched = [svc.p50_latency, svc.p99_latency, svc.p999_latency];
        prop_assert!(
            exact.iter().zip(sketched).all(|(e, s)| e.0 <= s.0 && s.0 <= e.0 + e.0 / 16 + 1),
            "seed={} n={}: sketched tails {:?} vs exact {:?}", seed, n, sketched, exact
        );
        let [p50_latency, p99_latency, p999_latency] = exact;
        let svc = ServiceReport { p50_latency, p99_latency, p999_latency, ..svc };
        prop_assert_eq!(&svc, &*a, "seed={} n={}: run_stream's summary is not run's", seed, n);
    }
}
