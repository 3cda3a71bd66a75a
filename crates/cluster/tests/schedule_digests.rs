//! Golden schedule digests: one [`ClusterReport::digest`] per cell, pinned
//! in `tests/golden/schedule_digests.txt`.
//!
//! The cells are the streams the event core has been held to hardest: the
//! canonical 120-job stream under every placement, mixed training and
//! serving, a tight fleet with rejections, arrivals past 2^53 ns, arrivals
//! landing on a completion instant, Poisson arrivals, a seeded grid of
//! random streams, the streams on which device clocks fold with their phase
//! term and gangs are re-paced, an armed but empty fault plan, and the
//! `service` experiment's 30-, 120- and 2 000-job runs. Every digest in the
//! file was written while a second, scan-everything event loop still
//! shipped and produced a report `==` to this loop's on every cell; it is
//! no longer needed, because a digest moves with any byte of a schedule.
//! A moved digest means a moved schedule: the test prints each changed
//! cell's summary and first trace rows under `--nocapture`. Never
//! regenerate the file to make a change pass.

use sn_cluster::{
    collect_stream, mixed_serving_stream, synthetic_stream, ClusterReport, ClusterSim, FaultPlan,
    Fleet, JobSpec, PlacementPolicy, PoissonStream, PolicyPreset, RecoveryPolicy, TraceKind,
    Workload,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};

const MB: u64 = 1 << 20;

fn fleet(devices: usize, dram: u64) -> Fleet {
    Fleet::homogeneous(
        devices,
        DeviceSpec::k40c().with_dram(dram),
        Interconnect::pcie(),
    )
}

/// One pinned run: a stream on a fleet under a placement, fault-free or
/// armed with an empty fault plan.
struct Cell {
    label: String,
    fleet: Fleet,
    placement: PlacementPolicy,
    arrivals: Vec<(SimTime, JobSpec)>,
    armed: bool,
}

impl Cell {
    fn new(
        label: String,
        fleet: Fleet,
        placement: PlacementPolicy,
        arrivals: Vec<(SimTime, JobSpec)>,
    ) -> Cell {
        Cell {
            label,
            fleet,
            placement,
            arrivals,
            armed: false,
        }
    }

    fn run(&self) -> ClusterReport {
        let mut sim = ClusterSim::new(self.fleet.clone(), self.placement);
        if self.armed {
            sim.enable_faults(FaultPlan::new(), RecoveryPolicy::default());
        }
        sim.run(self.arrivals.clone())
    }
}

/// Five late jobs one ns apart past 2^53 ns, the last two at one instant:
/// distinct integer instants a float clock would merge.
fn past_2p53() -> Vec<(SimTime, JobSpec)> {
    let base: u64 = 1 << 53;
    let w = Workload::Synthetic { width: 8, depth: 2 };
    let late = |name: String, t: u64| (SimTime(t), JobSpec::new(name, w, 8).with_iterations(2));
    let mut jobs: Vec<_> = (0..4).map(|i| late(format!("late{i}"), base + i)).collect();
    jobs.push(late("late3-twin".into(), base + 3));
    jobs
}

/// The 40-job seed-7 stream plus two jobs arriving at exactly the instant
/// of its middle completion, where an admission re-paces the gangs that
/// instant's completions left.
fn sniper() -> Vec<(SimTime, JobSpec)> {
    let mut jobs = synthetic_stream(40, 7, PolicyPreset::Superneurons, true);
    let probe = ClusterSim::new(fleet(8, 96 * MB), PlacementPolicy::FirstFit).run(jobs.clone());
    let completions = probe.trace.iter().filter(|e| e.kind == TraceKind::Complete);
    let t_hit = completions
        .map(|e| e.t_ns)
        .nth(probe.completed as usize / 2);
    let t_hit = SimTime(t_hit.expect("the stream completes jobs"));
    let w = Workload::Synthetic { width: 8, depth: 2 };
    for name in ["sniper", "sniper-twin"] {
        jobs.push((t_hit, JobSpec::new(name, w, 8).with_iterations(3)));
    }
    jobs.sort_by_key(|(t, _)| *t);
    jobs
}

/// The gap between arrivals the `service` experiment derives for its
/// serving-scale run: 64 devices' critical gap under `superneurons`,
/// over ρ = 0.7.
const SERVING_GAP_NS: u64 = 108_591;

/// Every pinned cell, in the golden file's order.
fn cells() -> Vec<Cell> {
    let sn = PolicyPreset::Superneurons;
    let mut cells = Vec::new();
    for placement in PlacementPolicy::ALL {
        let label = format!("canonical-120 {}", placement.name());
        let arrivals = synthetic_stream(120, 1, sn, true);
        cells.push(Cell::new(label, fleet(8, 96 * MB), placement, arrivals));
    }
    let single = [
        (
            "mixed-serving-90",
            fleet(8, 96 * MB),
            PlacementPolicy::BestFit,
            mixed_serving_stream(90, 4, sn, true),
        ),
        (
            "constrained-60",
            fleet(8, 48 * MB),
            PlacementPolicy::BinPack,
            synthetic_stream(60, 9, PolicyPreset::LivenessOffload, false),
        ),
        (
            "past-2^53",
            fleet(8, 256 * MB),
            PlacementPolicy::FirstFit,
            past_2p53(),
        ),
        (
            "sniper-42",
            fleet(8, 96 * MB),
            PlacementPolicy::FirstFit,
            sniper(),
        ),
        (
            "poisson-300",
            fleet(8, 96 * MB),
            PlacementPolicy::BestFit,
            collect_stream(&mut PoissonStream::new(300, 17, SimTime::from_us(250), sn)),
        ),
    ];
    for (label, fleet, placement, arrivals) in single {
        cells.push(Cell::new(label.into(), fleet, placement, arrivals));
    }
    // A fixed grid over the ranges random streams were drawn from: 10..60
    // jobs, seeds below 1 000, every preset and placement, both downgrade
    // rules, 48..192 MB devices.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for _ in 0..48 {
        let (n, seed) = (10 + draw(50) as usize, draw(1_000));
        let preset = PolicyPreset::ALL[draw(PolicyPreset::ALL.len() as u64) as usize];
        let placement = PlacementPolicy::ALL[draw(PlacementPolicy::ALL.len() as u64) as usize];
        let (downgrade, dram_mb) = (draw(2) == 1, 48 + draw(144));
        let label = format!(
            "grid n={n} seed={seed} {} {} downgrade={downgrade} {dram_mb}MB",
            preset.name(),
            placement.name()
        );
        let arrivals = synthetic_stream(n, seed, preset, downgrade);
        cells.push(Cell::new(
            label,
            fleet(8, dram_mb * MB),
            placement,
            arrivals,
        ));
    }
    // Four 48 MB devices: single-device tenants join device clocks mid-unit
    // (the phase term), and gangs of 2 and 4 see their maxima hold and fall.
    for seed in 1..=6 {
        for placement in PlacementPolicy::ALL {
            let label = format!("phase-term seed={seed} {}", placement.name());
            let arrivals = synthetic_stream(80, seed, sn, true);
            cells.push(Cell::new(label, fleet(4, 48 * MB), placement, arrivals));
        }
    }
    cells.push(Cell::new(
        "gang-repace-100".into(),
        fleet(4, 48 * MB),
        PlacementPolicy::FirstFit,
        synthetic_stream(100, 6, sn, true),
    ));
    cells.push(Cell {
        armed: true,
        ..Cell::new(
            "empty-fault-plan-40".into(),
            fleet(8, 96 * MB),
            PlacementPolicy::BestFit,
            synthetic_stream(40, 11, sn, true),
        )
    });
    for jobs in [30, 120] {
        let label = format!("service-{jobs}");
        let arrivals = synthetic_stream(jobs, 1, sn, true);
        cells.push(Cell::new(
            label,
            fleet(8, 96 * MB),
            PlacementPolicy::BestFit,
            arrivals,
        ));
    }
    let serving = PoissonStream::new(2_000, 3, SimTime(SERVING_GAP_NS), sn);
    cells.push(Cell::new(
        "service-2000".into(),
        fleet(64, 96 * MB),
        PlacementPolicy::BestFit,
        collect_stream(&mut { serving }),
    ));
    cells
}

#[test]
fn schedules_match_their_golden_digests() {
    let golden = include_str!("golden/schedule_digests.txt");
    let cells = cells();
    assert_eq!(golden.lines().count(), cells.len());
    let mut changed = Vec::new();
    for (cell, want) in cells.iter().zip(golden.lines()) {
        let report = cell.run();
        let got = format!("{} {:016x}", cell.label, report.digest());
        println!("{got}");
        if got != want {
            println!("{}:\n{}", cell.label, report.render_text());
            for row in report.trace.iter().take(24) {
                println!("  {}", row.render());
            }
            changed.push(cell.label.as_str());
        }
    }
    assert!(
        changed.is_empty(),
        "schedules changed (summaries and first trace rows on stdout): {changed:?}"
    );
}

#[test]
fn a_one_job_change_moves_the_digest() {
    let digest = |arrivals| {
        let mut sim = ClusterSim::new(fleet(8, 96 * MB), PlacementPolicy::FirstFit);
        sim.run(arrivals).digest()
    };
    let arrivals = synthetic_stream(120, 1, PolicyPreset::Superneurons, true);
    let mut one_more_step = arrivals.clone();
    one_more_step[60].1.iterations += 1;
    assert_eq!(digest(arrivals.clone()), digest(arrivals.clone()));
    assert_ne!(digest(arrivals), digest(one_more_step));
}
