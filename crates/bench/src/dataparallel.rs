//! The `dataparallel` experiment: device-group execution, measured.
//!
//! Two claims the device-group lift makes, checked across the
//! replicas ∈ {1, 2, 4, 8} × {VGG16, ResNet50} matrix:
//!
//! 1. **Byte-identity** — every replica of a gang executes at *exactly* the
//!    single-device plan's peak: data parallelism changes when collectives
//!    run, never what is resident (the exact-peak admission invariant
//!    survives the lift).
//! 2. **Overlap wins** — bucketed ring all-reduce overlapped with the
//!    remaining backward compute strictly beats the classic
//!    serialize-at-iteration-end baseline on every ≥2-replica point.
//!
//! Emits `BENCH_dataparallel.json`.

use sn_models as models;
use sn_runtime::{plan_prediction, GroupConfig, GroupExecutor, Interconnect, Policy};
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::{mb, TextTable};

/// The gang sizes every model sweeps.
pub const REPLICAS: [usize; 4] = [1, 2, 4, 8];

/// One matrix point: a model × gang size, measured in both collective
/// modes.
pub struct DpRow {
    pub model: &'static str,
    pub batch: usize,
    pub replicas: usize,
    /// The single-device plan's exact peak (what admission reserves).
    pub single_peak: u64,
    /// The executed per-replica peak (must equal `single_peak`).
    pub replica_peak: u64,
    pub buckets: usize,
    pub grad_bytes: u64,
    pub wire_bytes: u64,
    pub comm_workspace: u64,
    /// Gang step with bucketed all-reduce overlapped into backward.
    pub step_overlap: SimTime,
    /// Gang step with every collective serialized at iteration end.
    pub step_serialized: SimTime,
    /// Fraction of collective time hidden under kernels (overlap mode).
    pub overlap_fraction: f64,
    /// Aggregate gang throughput (overlap mode).
    pub imgs_per_sec: f64,
    /// Scaling efficiency vs. a perfect k× of the single-replica rate.
    pub efficiency: f64,
    pub peaks_match: bool,
}

impl DpRow {
    /// Does this point satisfy the overlap gate? (Single replicas have no
    /// collective to hide; the gate is the ≥2-replica strict win.)
    pub fn overlap_wins(&self) -> bool {
        self.replicas == 1 || self.step_overlap < self.step_serialized
    }
}

fn matrix(quick: bool) -> Vec<(&'static str, models::NetBuilder, usize)> {
    if quick {
        vec![
            ("VGG16", models::vgg16 as models::NetBuilder, 8),
            ("ResNet50", models::resnet50, 8),
        ]
    } else {
        vec![
            ("VGG16", models::vgg16 as models::NetBuilder, 16),
            ("ResNet50", models::resnet50, 16),
        ]
    }
}

fn measure_point(
    model: &'static str,
    build: models::NetBuilder,
    batch: usize,
    replicas: usize,
    solo_step: SimTime,
) -> DpRow {
    let spec = DeviceSpec::k40c();
    let policy = Policy::superneurons();
    let net = build(batch);
    let single_peak = plan_prediction(&net, &spec, policy)
        .expect("matrix nets fit a 12 GB device")
        .peak_bytes;
    let cfg = GroupConfig::new(replicas, Interconnect::pcie());
    let run = |cfg: GroupConfig| {
        GroupExecutor::new(&net, spec.clone(), policy, cfg)
            .expect("group compiles wherever the solo plan does")
            .run_iteration()
            .expect("gang iteration")
    };
    let o = run(cfg);
    let s = run(cfg.serialized());
    let gplan = sn_runtime::compile_group(&net, &spec, policy, &cfg).unwrap();
    DpRow {
        model,
        batch,
        replicas,
        single_peak,
        replica_peak: o.replica.peak_bytes,
        buckets: gplan.buckets.len(),
        grad_bytes: o.grad_bytes,
        wire_bytes: o.wire_bytes,
        comm_workspace: gplan.comm_workspace_bytes,
        step_overlap: o.step_time,
        step_serialized: s.step_time,
        overlap_fraction: o.allreduce_overlap_fraction(),
        imgs_per_sec: o.imgs_per_sec(batch),
        // solo/step: (k·batch/step) / (k · batch/solo) — guarded, the step
        // of a non-empty net is never zero but the JSON must stay finite.
        efficiency: if o.step_time == SimTime::ZERO {
            0.0
        } else {
            solo_step.as_ns() as f64 / o.step_time.as_ns() as f64
        },
        peaks_match: o.peaks_match && s.peaks_match && o.replica.peak_bytes == single_peak,
    }
}

/// Measure the full matrix (no I/O). The solo step is measured once per
/// model so every row's efficiency is relative to the same single-replica
/// pace.
pub fn measure(quick: bool) -> Vec<DpRow> {
    let spec = DeviceSpec::k40c();
    let policy = Policy::superneurons();
    let mut rows = Vec::new();
    for (model, build, batch) in matrix(quick) {
        let net = build(batch);
        let solo = GroupConfig::new(1, Interconnect::pcie());
        let solo_step = GroupExecutor::new(&net, spec.clone(), policy, solo)
            .and_then(|mut gx| gx.run_iteration())
            .expect("solo group must run")
            .step_time;
        for k in REPLICAS {
            rows.push(measure_point(model, build, batch, k, solo_step));
        }
    }
    rows
}

/// Run the experiment; also writes `BENCH_dataparallel.json` into the
/// current directory (the machine-readable artifact later PRs diff
/// against).
pub fn dataparallel(quick: bool) -> String {
    let rows = measure(quick);
    let all_peaks_match = rows.iter().all(|r| r.peaks_match);
    let overlap_beats_serialized = rows.iter().all(|r| r.overlap_wins());

    let mut out = String::from(
        "dataparallel: device-group execution — per-replica byte-identity and \
         overlapped vs serialized bucketed all-reduce (K40c gang over a 10 GB/s \
         PCIe ring)\n\n",
    );
    let mut t = TextTable::new(vec![
        "model",
        "batch",
        "k",
        "buckets",
        "grad (MB)",
        "step olap (ms)",
        "step serial (ms)",
        "speedup",
        "comm hidden",
        "img/s",
        "efficiency",
        "peak (MB)",
        "byte-identical",
    ]);
    for r in &rows {
        t.row(vec![
            r.model.to_string(),
            r.batch.to_string(),
            r.replicas.to_string(),
            r.buckets.to_string(),
            mb(r.grad_bytes),
            format!("{:.2}", r.step_overlap.as_ms_f64()),
            format!("{:.2}", r.step_serialized.as_ms_f64()),
            if r.replicas == 1 {
                "-".into()
            } else {
                format!(
                    "{:.2}x",
                    r.step_serialized.as_ns() as f64 / r.step_overlap.as_ns().max(1) as f64
                )
            },
            format!("{:.1}%", 100.0 * r.overlap_fraction),
            format!("{:.1}", r.imgs_per_sec),
            format!("{:.2}", r.efficiency),
            mb(r.replica_peak),
            if r.peaks_match { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nall replica peaks == single-device plan peaks: {all_peaks_match}\n\
         overlap strictly beats serialized on every >=2-replica point: \
         {overlap_beats_serialized}\n"
    ));

    let json_rows = rows.iter().map(|r| {
        Json::object()
            .with("model", r.model)
            .with("batch", r.batch)
            .with("replicas", r.replicas)
            .with("buckets", r.buckets)
            .with("grad_bytes", r.grad_bytes)
            .with("wire_bytes", r.wire_bytes)
            .with("comm_workspace_bytes", r.comm_workspace)
            .with("single_peak", r.single_peak)
            .with("replica_peak", r.replica_peak)
            .with("step_overlap_ns", r.step_overlap.as_ns())
            .with("step_serialized_ns", r.step_serialized.as_ns())
            .with("overlap_fraction", r.overlap_fraction)
            .with("imgs_per_sec", r.imgs_per_sec)
            .with("efficiency", r.efficiency)
            .with("peaks_match", r.peaks_match)
            .with("overlap_wins", r.overlap_wins())
    });
    let record = BenchRecord {
        experiment: "dataparallel",
        quick,
        gates: vec![
            ("all_peaks_match", all_peaks_match),
            ("overlap_beats_serialized", overlap_beats_serialized),
        ],
        deterministic: Json::object().with("rows", Json::array(json_rows)),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_matrix_point_holds_the_group_gates() {
        // The acceptance criteria, asserted point by point: per-replica
        // byte-identity to the single-device plan, and the strict overlap
        // win on every ≥2-replica point.
        for r in measure(true) {
            assert!(
                r.peaks_match,
                "{} k={}: replica peak {} vs single-device {}",
                r.model, r.replicas, r.replica_peak, r.single_peak
            );
            assert!(
                r.overlap_wins(),
                "{} k={}: overlap {} vs serialized {}",
                r.model,
                r.replicas,
                r.step_overlap,
                r.step_serialized
            );
            if r.replicas > 1 {
                assert!(r.buckets >= 2, "{}: gradient payload must bucket", r.model);
                assert!(r.overlap_fraction > 0.0);
                assert!(r.efficiency > 0.0 && r.efficiency <= 1.0 + 1e-9);
            } else {
                assert_eq!(r.wire_bytes, 0);
            }
            assert!(r.imgs_per_sec.is_finite());
        }
    }

    #[test]
    fn scaling_efficiency_decays_but_throughput_grows() {
        let rows = measure(true);
        for model in ["VGG16", "ResNet50"] {
            let series: Vec<&DpRow> = rows.iter().filter(|r| r.model == model).collect();
            for pair in series.windows(2) {
                assert!(
                    pair[1].imgs_per_sec > pair[0].imgs_per_sec,
                    "{model}: more replicas, more aggregate throughput"
                );
                assert!(
                    pair[1].efficiency <= pair[0].efficiency + 1e-9,
                    "{model}: efficiency must not grow with scale"
                );
            }
        }
    }
}
