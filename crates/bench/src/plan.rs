//! The `plan` experiment: the planner/interpreter contract, measured.
//!
//! Two claims the planner/interpreter split makes, checked end to end:
//!
//! 1. **Exactness** — for every model builder × policy preset in the
//!    matrix, `MemoryPlan::peak_bytes` equals the executed
//!    `IterationReport::peak_bytes` byte-for-byte.
//! 2. **Serving** — forward-only inference plans reserve a fraction of the
//!    training peak, and a mixed training+inference stream co-schedules on
//!    the cluster simulator.
//!
//! What a compile costs on the host is the repo benchmark's `plan_cold`
//! and `plan_reuse`. Emits `BENCH_plan.json`.

use sn_cluster::{mixed_serving_stream, ClusterSim, Fleet, JobKind, PlacementPolicy, PolicyPreset};
use sn_models as models;
use sn_runtime::{plan_prediction, plan_prediction_inference, Executor, Policy};
use sn_runtime::{Interconnect, PeakPrediction};
use sn_sim::DeviceSpec;
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::{mb, TextTable};

const MB: u64 = 1 << 20;

/// One matrix cell: a model × preset with its planned and executed peaks.
pub struct PlanRow {
    pub model: &'static str,
    pub batch: usize,
    pub preset: &'static str,
    pub plan_peak: u64,
    pub executed_peak: u64,
}

impl PlanRow {
    pub fn matches(&self) -> bool {
        self.plan_peak == self.executed_peak
    }
}

/// One serving comparison: training vs forward-only peak for a model.
pub struct InferenceRow {
    pub model: &'static str,
    pub batch: usize,
    pub train: PeakPrediction,
    pub infer: PeakPrediction,
}

/// The serving co-scheduling summary from the cluster simulator.
pub struct CoScheduleRow {
    pub jobs: usize,
    pub training_completed: usize,
    pub inference_completed: usize,
    pub rejected: u64,
}

fn matrix(quick: bool) -> Vec<(&'static str, models::NetBuilder, usize)> {
    if quick {
        vec![
            ("AlexNet", models::alexnet as models::NetBuilder, 32),
            ("ResNet50", models::resnet50, 8),
        ]
    } else {
        vec![
            ("AlexNet", models::alexnet as models::NetBuilder, 64),
            ("VGG16", models::vgg16, 16),
            ("ResNet50", models::resnet50, 16),
            ("InceptionV4", models::inception_v4, 8),
        ]
    }
}

fn presets() -> [(&'static str, Policy); 5] {
    [
        ("baseline", Policy::baseline()),
        ("liveness_only", Policy::liveness_only()),
        ("liveness_offload", Policy::liveness_offload()),
        ("full_memory", Policy::full_memory()),
        ("superneurons", Policy::superneurons()),
    ]
}

/// The exactness matrix (no I/O).
pub fn measure_matrix(quick: bool) -> Vec<PlanRow> {
    let spec = DeviceSpec::k40c();
    let mut rows = Vec::new();
    for (model, build, batch) in matrix(quick) {
        let net = build(batch);
        for (pname, policy) in presets() {
            let plan_peak = plan_prediction(&net, &spec, policy)
                .expect("matrix nets fit a 12 GB device")
                .peak_bytes;
            // One iteration: an executor's iteration is a pure function of its
            // build (`iteration_digests` holds every later one equal to it).
            let mut ex = Executor::new(&net, spec.clone(), policy).unwrap();
            let executed_peak = ex.run_iteration().unwrap().peak_bytes;
            rows.push(PlanRow {
                model,
                batch,
                preset: pname,
                plan_peak,
                executed_peak,
            });
        }
    }
    rows
}

/// Training vs forward-only peaks per serving network (no I/O).
pub fn measure_inference(quick: bool) -> Vec<InferenceRow> {
    let spec = DeviceSpec::k40c();
    let nets = if quick {
        vec![("ResNet50", models::resnet50 as models::NetBuilder, 16)]
    } else {
        models::serving_networks()
    };
    nets.into_iter()
        .map(|(model, build, batch)| {
            let net = build(batch);
            InferenceRow {
                model,
                batch,
                train: plan_prediction(&net, &spec, Policy::superneurons()).unwrap(),
                infer: plan_prediction_inference(&net, &spec, Policy::superneurons()).unwrap(),
            }
        })
        .collect()
}

/// Run the mixed training+inference stream on the 8-device fleet (no I/O).
pub fn measure_coschedule(quick: bool) -> CoScheduleRow {
    let n = if quick { 30 } else { 80 };
    let fleet = Fleet::homogeneous(
        8,
        DeviceSpec::k40c().with_dram(96 * MB),
        Interconnect::pcie(),
    );
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::BestFit);
    let report = sim.run(mixed_serving_stream(n, 5, PolicyPreset::Superneurons, true));
    let done = |kind: JobKind| {
        report
            .jobs
            .iter()
            .filter(|j| j.kind == kind && j.completion.is_some())
            .count()
    };
    CoScheduleRow {
        jobs: n,
        training_completed: done(JobKind::Training),
        inference_completed: done(JobKind::Inference),
        rejected: report.rejected,
    }
}

/// Run the experiment; also writes `BENCH_plan.json` into the current
/// directory (the machine-readable artifact later PRs diff against).
pub fn plan(quick: bool) -> String {
    let rows = measure_matrix(quick);
    let inference = measure_inference(quick);
    let cosched = measure_coschedule(quick);

    let mut out = String::from(
        "plan: planner/interpreter split — plan-predicted vs executed peaks \
         and inference co-scheduling\n\n",
    );
    let mut t = TextTable::new(vec![
        "model",
        "batch",
        "preset",
        "plan peak (MB)",
        "executed peak (MB)",
        "byte-identical",
    ]);
    let mut all_match = true;
    for r in &rows {
        all_match &= r.matches();
        t.row(vec![
            r.model.to_string(),
            r.batch.to_string(),
            r.preset.to_string(),
            mb(r.plan_peak),
            mb(r.executed_peak),
            if r.matches() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nall {} matrix cells byte-identical: {}\n",
        rows.len(),
        all_match
    ));

    let mut ti = TextTable::new(vec![
        "model",
        "batch",
        "train peak (MB)",
        "infer peak (MB)",
        "ratio",
    ]);
    for r in &inference {
        ti.row(vec![
            r.model.to_string(),
            r.batch.to_string(),
            mb(r.train.peak_bytes),
            mb(r.infer.peak_bytes),
            format!(
                "{:.2}x",
                r.train.peak_bytes as f64 / r.infer.peak_bytes.max(1) as f64
            ),
        ]);
    }
    out.push_str("\nforward-only serving plans vs training plans (superneurons preset):\n");
    out.push_str(&ti.render());

    out.push_str(&format!(
        "\ncluster co-scheduling ({} mixed jobs): {} training + {} inference completed, \
         {} rejected\n",
        cosched.jobs, cosched.training_completed, cosched.inference_completed, cosched.rejected
    ));

    let json_rows = rows.iter().map(|r| {
        Json::object()
            .with("model", r.model)
            .with("batch", r.batch)
            .with("preset", r.preset)
            .with("plan_peak", r.plan_peak)
            .with("executed_peak", r.executed_peak)
            .with("match", r.matches())
    });
    let json_inf = inference.iter().map(|r| {
        Json::object()
            .with("model", r.model)
            .with("batch", r.batch)
            .with("train_peak", r.train.peak_bytes)
            .with("infer_peak", r.infer.peak_bytes)
    });
    let record = BenchRecord {
        experiment: "plan",
        quick,
        gates: vec![("all_peaks_match", all_match)],
        deterministic: Json::object()
            .with("rows", Json::array(json_rows))
            .with("inference", Json::array(json_inf))
            .with(
                "cluster",
                Json::object()
                    .with("jobs", cosched.jobs)
                    .with("training_completed", cosched.training_completed)
                    .with("inference_completed", cosched.inference_completed)
                    .with("rejected", cosched.rejected),
            ),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_peaks_are_byte_identical_across_the_matrix() {
        // The acceptance criterion: every model builder × policy preset in
        // the bench matrix agrees, plan vs execution, to the byte.
        for r in measure_matrix(true) {
            assert!(
                r.matches(),
                "{} @{} under {}: plan {} vs executed {}",
                r.model,
                r.batch,
                r.preset,
                r.plan_peak,
                r.executed_peak
            );
        }
    }

    #[test]
    fn inference_plans_undercut_training_plans() {
        for r in measure_inference(true) {
            assert!(
                r.infer.peak_bytes < r.train.peak_bytes,
                "{}: infer {} vs train {}",
                r.model,
                r.infer.peak_bytes,
                r.train.peak_bytes
            );
            assert!(r.infer.weight_bytes == r.train.weight_bytes);
        }
    }

    #[test]
    fn mixed_streams_complete_inference_jobs() {
        let c = measure_coschedule(true);
        assert!(c.inference_completed > 0, "serving jobs must complete");
        assert!(c.training_completed > 0, "training jobs must complete");
    }
}
