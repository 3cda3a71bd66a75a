//! Integration tests for the cluster scheduler's contract:
//!
//! 1. admission never places a job whose predicted peak exceeds device
//!    capacity (and reservations never exceed DRAM);
//! 2. identical job streams produce equal reports (determinism);
//! 3. gang-scheduled replicas start atomically on distinct devices;
//! 4. policy choice is a capacity lever: the same fleet admits more
//!    concurrent tenants under `superneurons` than under `baseline`.

use sn_cluster::{
    mixed_serving_stream, synthetic_stream, ClusterSim, FaultPlan, Fleet, JobKind, JobSpec,
    PlacementPolicy, PoissonStream, PolicyPreset, RecoveryPolicy, TraceKind, Workload,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};

const MB: u64 = 1 << 20;

/// A fleet of 8 small devices — sized so memory, not compute, is the
/// contended resource for the synthetic stream.
fn fleet8(dram: u64) -> Fleet {
    Fleet::homogeneous(8, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
}

#[test]
fn admission_never_exceeds_device_capacity() {
    for placement in PlacementPolicy::ALL {
        let mut sim = ClusterSim::new(fleet8(96 * MB), placement);
        let report = sim.run(synthetic_stream(60, 11, PolicyPreset::Superneurons, true));
        // Per-job: every replica's reservation fits its device's DRAM.
        for job in &report.jobs {
            for (d, r) in job.devices.iter().zip(&job.reservations) {
                let cap = sim.fleet().devices[*d].dram_bytes;
                assert!(
                    *r <= cap,
                    "{placement:?}: job {} reserved {r} on device {d} of capacity {cap}",
                    job.name
                );
            }
        }
        // Per-device: the high-water mark of summed reservations fits DRAM.
        for (d, peak) in report.peak_reserved.iter().enumerate() {
            let cap = sim.fleet().devices[d].dram_bytes;
            assert!(
                *peak <= cap,
                "{placement:?}: device {d} peaked at {peak} of {cap}"
            );
        }
        // Every job resolved one way or the other.
        for job in &report.jobs {
            assert!(
                job.completion.is_some() || job.rejected.is_some(),
                "job {} left unresolved",
                job.name
            );
        }
    }
}

#[test]
fn identical_streams_schedule_identically() {
    let run = || {
        let mut sim = ClusterSim::new(fleet8(128 * MB), PlacementPolicy::BestFit);
        sim.run(synthetic_stream(80, 3, PolicyPreset::Superneurons, true))
    };
    let a = run();
    let b = run();
    assert!(!a.trace.is_empty());
    assert!(a == b, "same stream must produce an equal report");
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn gang_replicas_start_atomically_on_distinct_devices() {
    let mut sim = ClusterSim::new(fleet8(256 * MB), PlacementPolicy::FirstFit);
    let mut jobs = synthetic_stream(30, 5, PolicyPreset::Superneurons, true);
    // Force a known gang into the stream.
    jobs.push((
        sn_sim::SimTime::from_us(500),
        JobSpec::new(
            "gang4",
            Workload::Synthetic {
                width: 16,
                depth: 3,
            },
            16,
        )
        .with_replicas(4),
    ));
    let report = sim.run(jobs);

    let mut saw_gang = false;
    for job in &report.jobs {
        if job.rejected.is_some() {
            continue;
        }
        // One Admit trace event carries ALL replicas: a gang starts whole.
        let admits: Vec<_> = report
            .trace
            .iter()
            .filter(|e| e.job == job.name && matches!(e.kind, TraceKind::Admit { .. }))
            .collect();
        assert_eq!(admits.len(), 1, "job {} must admit exactly once", job.name);
        if let TraceKind::Admit {
            devices,
            reservations,
            ..
        } = &admits[0].kind
        {
            assert_eq!(devices.len(), job.replicas);
            assert_eq!(reservations.len(), job.replicas);
            let mut uniq = devices.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(
                uniq.len(),
                job.replicas,
                "replicas share a device: {devices:?}"
            );
        }
        if job.replicas > 1 {
            saw_gang = true;
        }
    }
    assert!(saw_gang, "the stream must exercise at least one gang");
}

#[test]
fn gang_jobs_run_through_the_group_engine() {
    // Since the device-group lift, gang step times are *measured* by
    // compiling a GroupPlan and driving the group interpreter — not by
    // multiplying an analytic all-reduce term. The profiler records one
    // group measurement per distinct gang shape; solo-only streams record
    // none.
    let gang_stream = vec![
        (
            sn_sim::SimTime::ZERO,
            JobSpec::new(
                "gang2",
                Workload::Synthetic {
                    width: 16,
                    depth: 3,
                },
                16,
            )
            .with_replicas(2),
        ),
        (
            sn_sim::SimTime::ZERO,
            JobSpec::new(
                "gang4",
                Workload::Synthetic {
                    width: 16,
                    depth: 3,
                },
                16,
            )
            .with_replicas(4),
        ),
        (
            sn_sim::SimTime::ZERO,
            JobSpec::new("solo", Workload::Synthetic { width: 8, depth: 2 }, 8),
        ),
    ];
    let mut sim = ClusterSim::new(fleet8(256 * MB), PlacementPolicy::FirstFit);
    let report = sim.run(gang_stream);
    assert_eq!(report.completed, 3);
    assert_eq!(
        sim.gangs_measured(),
        2,
        "each gang shape must be measured through the group engine exactly once"
    );

    // A gang's runtime must exceed a solo twin's: the collective is real
    // work the measured step includes.
    let solo = JobSpec::new(
        "one",
        Workload::Synthetic {
            width: 16,
            depth: 3,
        },
        16,
    );
    let gang = solo.clone().with_replicas(4);
    let runtime = |job: JobSpec| {
        let mut sim = ClusterSim::new(fleet8(256 * MB), PlacementPolicy::FirstFit);
        let report = sim.run(vec![(sn_sim::SimTime::ZERO, job)]);
        let j = report.jobs.iter().find(|j| j.name == "one").unwrap();
        j.completion.unwrap() - j.started.unwrap()
    };
    let t_solo = runtime(solo);
    let t_gang = runtime(gang);
    assert!(
        t_gang > t_solo,
        "gang {t_gang} must pay for its gradient exchange vs solo {t_solo}"
    );
}

#[test]
fn a_gang_shape_at_two_budgets_of_one_replica_plan_is_measured_once() {
    // The first pair is idle (96 MB each); the second lands beside it, so
    // its budget is a level lower (93 MB at most) — inside the same open
    // replica plan's caps.
    let twice = |name| {
        let job = JobSpec::new(
            name,
            Workload::Synthetic {
                width: 16,
                depth: 3,
            },
            16,
        );
        (sn_sim::SimTime::ZERO, job.with_replicas(2))
    };
    let fleet = Fleet::homogeneous(
        2,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    );
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::BestFit);
    let report = sim.run(vec![twice("first"), twice("second")]);
    let [first, second] = &report.jobs[..] else {
        panic!("two jobs in, two outcomes out");
    };
    assert_eq!(second.started, first.started, "side by side, not queued");
    assert_eq!(first.devices, second.devices);
    assert_eq!(first.reservations, second.reservations);
    assert_eq!(
        sim.gangs_measured(),
        1,
        "one replica plan, one measurement, whatever the budget"
    );
}

#[test]
fn superneurons_preset_admits_more_tenants_than_baseline() {
    // Same fleet, same job stream; the only difference is the requested
    // memory policy (downgrade disabled so the request is binding).
    let stream = |preset| synthetic_stream(60, 9, preset, false);
    let mut sim_base = ClusterSim::new(fleet8(48 * MB), PlacementPolicy::BestFit);
    let base = sim_base.run(stream(PolicyPreset::Baseline));
    let mut sim_sn = ClusterSim::new(fleet8(48 * MB), PlacementPolicy::BestFit);
    let sn = sim_sn.run(stream(PolicyPreset::Superneurons));

    assert!(
        sn.completed > base.completed,
        "superneurons must finish more jobs ({} vs {})",
        sn.completed,
        base.completed
    );
    assert!(
        sn.rejected < base.rejected,
        "superneurons must reject fewer jobs ({} vs {})",
        sn.rejected,
        base.rejected
    );
    assert!(
        sn.peak_concurrent_jobs > base.peak_concurrent_jobs,
        "superneurons must pack more concurrent tenants ({} vs {})",
        sn.peak_concurrent_jobs,
        base.peak_concurrent_jobs
    );
}

#[test]
fn downgrade_ladder_rescues_infeasible_requests() {
    let fleet = fleet8(48 * MB);
    let big = Workload::Synthetic {
        width: 64,
        depth: 8,
    };
    // Requested baseline (peak ≈ 262 MB) cannot fit a 48 MB device.
    let rigid = JobSpec::new("rigid", big, 32)
        .with_preset(PolicyPreset::Baseline)
        .with_downgrade(false);
    let mut flexible = rigid.clone().with_downgrade(true);
    flexible.name = "flexible".into();
    let mut sim = ClusterSim::new(fleet.clone(), PlacementPolicy::FirstFit);
    let report = sim.run(vec![
        (sn_sim::SimTime::ZERO, rigid),
        (sn_sim::SimTime::ZERO, flexible),
    ]);

    let rigid_out = report.jobs.iter().find(|j| j.name == "rigid").unwrap();
    assert!(
        rigid_out.rejected.is_some(),
        "binding baseline request must be rejected"
    );

    // The flexible twin runs — under a memory-stronger preset than asked.
    let flex_out = report.jobs.iter().find(|j| j.name == "flexible").unwrap();
    assert!(flex_out.completion.is_some(), "downgradeable job must run");
    let granted = flex_out.granted.unwrap();
    assert!(
        granted > PolicyPreset::Baseline,
        "must have walked the ladder, got {granted:?}"
    );
}

#[test]
fn simultaneous_completions_resolve_cleanly() {
    // Regression: identical jobs admitted at the same instant finish at the
    // same virtual time; the completion pass must handle several gangs
    // completing in one event (this used to panic in `swap_remove`).
    let w = Workload::Synthetic { width: 8, depth: 2 };
    let short = JobSpec::new("short", w, 8).with_iterations(1);
    let twin_a = JobSpec::new("twin_a", w, 8).with_iterations(10);
    let twin_b = JobSpec::new("twin_b", w, 8).with_iterations(10);
    let filler = JobSpec::new("filler", w, 8).with_iterations(4);
    let mut sim = ClusterSim::new(fleet8(256 * MB), PlacementPolicy::FirstFit);
    let report = sim.run(vec![
        (sn_sim::SimTime::ZERO, filler),
        (sn_sim::SimTime::ZERO, short),
        (sn_sim::SimTime::ZERO, twin_a),
        (sn_sim::SimTime::ZERO, twin_b),
    ]);
    assert_eq!(report.completed, 4);
    let a = report.jobs.iter().find(|j| j.name == "twin_a").unwrap();
    let b = report.jobs.iter().find(|j| j.name == "twin_b").unwrap();
    assert_eq!(
        a.completion, b.completion,
        "identical twins must finish at the same virtual instant"
    );
    // All reservations were released: every device drained back to zero
    // (peak bookkeeping stayed within capacity throughout).
    for (d, peak) in report.peak_reserved.iter().enumerate() {
        assert!(*peak <= sim.fleet().devices[d].dram_bytes);
    }
}

#[test]
fn non_power_of_two_dram_resolves_every_job() {
    // Regression: admission quantizes prediction budgets to 1/32 of DRAM;
    // the idle-fleet feasibility check must use the same rounding, or a
    // boundary job is judged feasible yet never admitted and the run ends
    // with an unresolved job. Awkward capacities exercise the rounding.
    for dram in [100 * MB + 7, 96 * MB - 1, 33 * MB + 13] {
        let mut sim = ClusterSim::new(fleet8(dram), PlacementPolicy::BestFit);
        let report = sim.run(synthetic_stream(30, 13, PolicyPreset::Superneurons, true));
        for job in &report.jobs {
            assert!(
                job.completion.is_some() || job.rejected.is_some(),
                "dram={dram}: job {} left unresolved",
                job.name
            );
        }
    }
}

#[test]
fn adversarial_arrival_times_are_never_dropped() {
    // Regression guard for the f64 arrival-matching bug: a clock that
    // compared arrival times through `as f64` lost distinct (and merged
    // coincident) ones past 2^53 ns. The clock is integer ns now; these
    // timestamps stay as the guard that no comparison goes through a float.
    let base: u64 = 1 << 53;
    let w = Workload::Synthetic { width: 8, depth: 2 };
    // Four arrivals one ns apart (2^53+1 and 2^53+3 are not representable as
    // f64), plus an exact duplicate of the last — coincident in integer time.
    let mut jobs: Vec<(sn_sim::SimTime, JobSpec)> = (0..4)
        .map(|i| {
            (
                sn_sim::SimTime(base + i),
                JobSpec::new(format!("late{i}"), w, 8).with_iterations(2),
            )
        })
        .collect();
    jobs.push((
        sn_sim::SimTime(base + 3),
        JobSpec::new("late3-twin", w, 8).with_iterations(2),
    ));
    let n = jobs.len();

    let mut sim = ClusterSim::new(fleet8(256 * MB), PlacementPolicy::FirstFit);
    let report = sim.run(jobs);

    let arrive_events = report
        .trace
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Arrive))
        .count();
    assert_eq!(
        arrive_events, n,
        "every arrival must be traced exactly once"
    );
    assert_eq!(report.jobs.len(), n);
    for job in &report.jobs {
        assert!(
            job.completion.is_some(),
            "job {} dropped by arrival matching",
            job.name
        );
    }
    assert_eq!(report.completed, n as u64);
}

#[test]
fn zero_replica_jobs_are_rejected_not_phantom_admitted() {
    let mut sim = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::FirstFit);
    let report = sim.run(vec![(
        sn_sim::SimTime::ZERO,
        JobSpec::new("empty", Workload::Synthetic { width: 8, depth: 2 }, 8).with_replicas(0),
    )]);
    let job = &report.jobs[0];
    assert!(job.rejected.is_some(), "an empty gang must be rejected");
    assert!(job.completion.is_none() && job.devices.is_empty());
}

#[test]
fn mixed_training_and_inference_streams_co_schedule() {
    // The ISSUE-3 serving scenario: forward-only inference jobs are
    // co-located against training jobs using exact plan peaks. Both kinds
    // must resolve, inference must actually run, the admission-safety
    // invariant must hold throughout, and the schedule stays deterministic.
    let run = || {
        let mut sim = ClusterSim::new(fleet8(96 * MB), PlacementPolicy::BestFit);
        let report = sim.run(mixed_serving_stream(
            60,
            7,
            PolicyPreset::Superneurons,
            true,
        ));
        (report, sim)
    };
    let (report, sim) = run();
    let done = |kind| {
        report
            .jobs
            .iter()
            .filter(|j| j.kind == kind && j.completion.is_some())
            .count()
    };
    assert!(done(JobKind::Inference) > 0, "serving jobs must complete");
    assert!(done(JobKind::Training) > 0, "training jobs must complete");
    for job in &report.jobs {
        assert!(job.completion.is_some() || job.rejected.is_some());
    }
    for (d, peak) in report.peak_reserved.iter().enumerate() {
        assert!(*peak <= sim.fleet().devices[d].dram_bytes);
    }
    let (again, _) = run();
    assert!(report == again);

    // An inference twin of a training job reserves strictly less memory.
    let w = Workload::Synthetic {
        width: 32,
        depth: 4,
    };
    let mut sim = ClusterSim::new(fleet8(256 * MB), PlacementPolicy::FirstFit);
    let train = JobSpec::new("train", w, 16);
    let serve = JobSpec::new("serve", w, 16).inference();
    let report = sim.run(vec![
        (sn_sim::SimTime::ZERO, train),
        (sn_sim::SimTime::ZERO, serve),
    ]);
    let res = |name: &str| {
        report
            .jobs
            .iter()
            .find(|j| j.name == name)
            .unwrap()
            .reservations[0]
    };
    assert!(
        res("serve") < res("train"),
        "inference reservation {} must undercut training {}",
        res("serve"),
        res("train")
    );
}

#[test]
fn hundred_jobs_across_eight_gpus_complete_deterministically() {
    // The ISSUE-1 acceptance scenario: ≥ 100 concurrent jobs, ≥ 8 devices.
    let mut sim = ClusterSim::new(fleet8(128 * MB), PlacementPolicy::BinPack);
    let report = sim.run(synthetic_stream(120, 1, PolicyPreset::Superneurons, true));
    assert_eq!(report.jobs.len(), 120);
    assert!(
        report.completed + report.rejected == 120,
        "all jobs resolved"
    );
    assert!(
        report.completed >= 100,
        "completed only {}",
        report.completed
    );
    assert!(report.makespan > sn_sim::SimTime::ZERO);
    assert!(report.jobs_per_sec > 0.0);
    assert!(report.compute_utilization > 0.0 && report.compute_utilization <= 1.0);
    assert!(report.memory_utilization > 0.0 && report.memory_utilization <= 1.0);
    assert!(report.p99_latency >= report.p50_latency);
    // Multi-tenancy actually happened.
    assert!(
        report.peak_concurrent_jobs > 8,
        "expected more concurrent jobs than devices, got {}",
        report.peak_concurrent_jobs
    );
}

#[test]
fn processor_sharing_matches_its_closed_form_to_the_rounding_contract() {
    // Three equal solo jobs of W ns each on ONE device, arriving at 0, t1
    // and t2: A runs alone, then two share, then three, then — as A and B
    // finish — two and one again. Under ideal processor sharing every
    // instant below is a multiple of half a nanosecond, so the closed form
    // is computed exactly in half-ns. The integer clock may only ever be
    // *late*, and by little: a completion is the first instant by which the
    // work is done (never before), and each re-anchor a job went through
    // floors its progress once, costing it under one ns of work — at most
    // `tenants` ns of wall time.
    let one_device = || {
        Fleet::homogeneous(
            1,
            DeviceSpec::k40c().with_dram(1 << 30),
            Interconnect::pcie(),
        )
    };
    let iters = 1_000u32;
    let job = |name: &str| {
        JobSpec::new(name, Workload::Synthetic { width: 8, depth: 2 }, 8).with_iterations(iters)
    };
    let solo = ClusterSim::new(one_device(), PlacementPolicy::FirstFit)
        .run(vec![(sn_sim::SimTime::ZERO, job("solo"))]);
    let w = solo.makespan.0; // alone at pace 1: the job's solo work, exactly
    assert_eq!(w % u64::from(iters), 0, "premise: whole-ns steps");
    let (t1, t2) = (w / 3 + 1, w / 3 + w / 5 + 2);
    assert!(
        (t2 - t1) % 2 == 1 && t2 < w,
        "premise: a fractional closed form"
    );

    let report = ClusterSim::new(one_device(), PlacementPolicy::FirstFit).run(vec![
        (sn_sim::SimTime::ZERO, job("a")),
        (sn_sim::SimTime(t1), job("b")),
        (sn_sim::SimTime(t2), job("c")),
    ]);
    assert_eq!(report.completed, 3);
    assert_eq!(report.peak_tenants, vec![3]);
    for j in &report.jobs {
        assert_eq!(
            j.started,
            Some(j.arrival),
            "{}: admitted on arrival",
            j.name
        );
        assert_eq!(
            j.reservations, solo.jobs[0].reservations,
            "premise: equal jobs"
        );
    }

    // The closed form, in half-ns (h = 2 × ns). Work done by each while k
    // share is elapsed / k.
    let (w, t1, t2) = (2 * w, 2 * t1, 2 * t2);
    let a_left = w - t1 - (t2 - t1) / 2; // A's work left when C arrives
    let a_done = t2 + 3 * a_left;
    let b_left = w - (t2 - t1) / 2 - a_left; // B's, when A completes
    let b_done = a_done + 2 * b_left;
    let c_left = w - a_left - b_left; // C's, when B completes
    let c_done = b_done + c_left;
    // Each job was re-paced twice: A when B and C arrived, B when C arrived
    // and A left, C when A and B left. Never more than 3 tenants.
    let (reanchors, max_tenants) = (2, 3);
    for (name, exact_h) in [("a", a_done), ("b", b_done), ("c", c_done)] {
        let done = report
            .jobs
            .iter()
            .find(|j| j.name == name)
            .and_then(|j| j.completion)
            .expect("completes")
            .0;
        let first_instant = exact_h.div_ceil(2);
        assert!(
            done >= first_instant,
            "{name} complete at {done} ns, before its work is done ({exact_h}/2 ns)"
        );
        assert!(
            done <= first_instant + max_tenants * reanchors + 1,
            "{name} complete at {done} ns, over {} ns past the closed form ({exact_h}/2 ns)",
            max_tenants * reanchors + 1
        );
    }
}

#[test]
fn time_saturates_at_u64_max_instead_of_overflowing() {
    // A job admitted 10 ns before the end of representable time owes far
    // more than 10 ns of work: `anchor + wall(remaining)` saturates, the job
    // completes at u64::MAX, and nothing panics (debug) or wraps (release).
    let late = sn_sim::SimTime(u64::MAX - 10);
    let job = JobSpec::new("late", Workload::Synthetic { width: 8, depth: 2 }, 8);
    let fleet1 = || {
        Fleet::homogeneous(
            1,
            DeviceSpec::k40c().with_dram(96 * MB),
            Interconnect::pcie(),
        )
    };
    let report =
        ClusterSim::new(fleet1(), PlacementPolicy::FirstFit).run(vec![(late, job.clone())]);
    assert_eq!(report.completed, 1);
    assert_eq!(report.makespan.0, u64::MAX);
    assert_eq!(report.jobs[0].latency(), Some(sn_sim::SimTime(10)));
    assert_eq!(report.busy_ns, vec![10]);

    // Its only device dies 5 ns later: every `now + delay` of the backoff
    // chain saturates too, each retry finds no live device, and the job
    // fails after its retries — at u64::MAX, with the trace still in order.
    let mut sim = ClusterSim::new(fleet1(), PlacementPolicy::FirstFit);
    sim.enable_faults(
        FaultPlan::new().kill(sn_sim::SimTime(u64::MAX - 5), 0),
        RecoveryPolicy::default(),
    );
    let report = sim.run(vec![(late, job)]);
    assert!(report.conservation_holds());
    assert_eq!((report.completed, report.failed), (0, 1));
    assert_eq!(report.makespan.0, u64::MAX);
    assert!(report.trace.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    assert_eq!(report.busy_ns, vec![5]);
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
