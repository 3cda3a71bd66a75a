//! The serving summary both entry points report, on two streams: one
//! fault-free, one with a device outage that interrupts and restarts gangs.
//!
//! `tests/golden/report_text.txt` pins `render_text()` and `json()` of
//! `ClusterSim::run` and of `ClusterSim::run_stream` on each stream, so the
//! text a reader sees moves only when a schedule moves. A mismatch prints the
//! whole rendering under `--nocapture`. Never regenerate the file to make a
//! change pass.
//!
//! Both entry points run the one event core, so they report one summary:
//! equal in every field once `run`'s exact latency tails replace
//! `run_stream`'s sketched ones, each at most 1/16 above its exact value.
//! What only `run` keeps, its schedule trace, is reserved once and never
//! regrown on either stream.

use sn_cluster::{
    mixed_serving_stream, synthetic_stream, ClusterSim, FaultPlan, Fleet, JobSpec, PlacementPolicy,
    PolicyPreset, RecoveryPolicy, ReplayStream, ServiceReport,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};

const MB: u64 = 1 << 20;

fn fleet8() -> Fleet {
    Fleet::homogeneous(
        8,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    )
}

/// One stream on the 8-device fleet: its placement, and the fault plan it
/// runs under, if any.
struct Stream {
    label: &'static str,
    placement: PlacementPolicy,
    arrivals: Vec<(SimTime, JobSpec)>,
    faults: Option<FaultPlan>,
}

impl Stream {
    fn sim(&self) -> ClusterSim {
        let mut sim = ClusterSim::new(fleet8(), self.placement);
        if let Some(plan) = &self.faults {
            sim.enable_faults(plan.clone(), RecoveryPolicy::default());
        }
        sim
    }
}

/// Mixed training and serving tenants, fault-free; and a training stream
/// whose device 2 is out for a quarter of the fault-free makespan, from a
/// third of it on.
fn streams() -> [Stream; 2] {
    let sn = PolicyPreset::Superneurons;
    let faulted = synthetic_stream(30, 3, sn, true);
    let makespan = ClusterSim::new(fleet8(), PlacementPolicy::FirstFit)
        .run(faulted.clone())
        .makespan
        .0;
    let outage = FaultPlan::new().outage(SimTime(makespan / 3), 2, SimTime(makespan / 4));
    [
        Stream {
            label: "mixed-serving-100",
            placement: PlacementPolicy::BestFit,
            arrivals: mixed_serving_stream(100, 6, sn, true),
            faults: None,
        },
        Stream {
            label: "outage-30",
            placement: PlacementPolicy::FirstFit,
            arrivals: faulted,
            faults: Some(outage),
        },
    ]
}

#[test]
fn reports_match_their_golden_text() {
    let mut got = String::new();
    for s in streams() {
        let run = s.sim().run(s.arrivals.clone());
        let svc = s
            .sim()
            .run_stream(&mut ReplayStream::new(s.arrivals.clone()));
        got.push_str(&format!(
            "== {} run\n{}{}\n",
            s.label,
            run.render_text(),
            run.json()
        ));
        got.push_str(&format!(
            "== {} run_stream\n{}{}\n",
            s.label,
            svc.render_text(),
            svc.json()
        ));
    }
    if got != include_str!("golden/report_text.txt") {
        print!("{got}");
        panic!("report text moved from tests/golden/report_text.txt (rendering on stdout)");
    }
}

#[test]
fn run_stream_reports_the_summary_run_does() {
    for s in streams() {
        let full = s.sim().run(s.arrivals.clone());
        let svc = s
            .sim()
            .run_stream(&mut ReplayStream::new(s.arrivals.clone()));
        assert!(full.conservation_holds() && svc.conservation_holds());
        assert!(svc.goodput_iters_per_sec.is_finite() && svc.raw_iters_per_sec.is_finite());
        // What only the recorded run keeps counts what both report.
        let rows = (full.jobs.len() as u64, full.trace.len() as u64);
        assert_eq!((svc.submitted, svc.events), rows, "{}", s.label);
        // Reserved once, at four rows a job: a regrown trace shows in its capacity.
        assert_eq!(full.trace.capacity(), 4 * full.jobs.len(), "{}", s.label);
        let exact = [full.p50_latency, full.p99_latency, full.p999_latency];
        let sketched = [svc.p50_latency, svc.p99_latency, svc.p999_latency];
        for (q, (exact, sketched)) in ["p50", "p99", "p999"]
            .iter()
            .zip(exact.iter().zip(sketched))
        {
            let hi = exact.0 as f64 * (1.0 + 1.0 / 16.0) + 1.0;
            assert!(
                *exact <= sketched && sketched.0 as f64 <= hi,
                "{} {q}: sketch {} outside [{}, {hi}]",
                s.label,
                sketched.0,
                exact.0
            );
        }
        let [p50_latency, p99_latency, p999_latency] = exact;
        let svc = ServiceReport {
            p50_latency,
            p99_latency,
            p999_latency,
            ..svc
        };
        assert_eq!(svc, *full, "{}", s.label);
    }
}
