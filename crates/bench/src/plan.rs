//! The `plan` experiment: the planner/interpreter contract, measured.
//!
//! Three claims the ISSUE-3 refactor makes, checked end to end:
//!
//! 1. **Exactness** — for every model builder × policy preset in the
//!    matrix, `MemoryPlan::peak_bytes` equals the executed
//!    `IterationReport::peak_bytes` byte-for-byte, cold and warm.
//! 2. **Cheapness** — admission prediction by plan compilation
//!    (`plan_prediction`) is measurably faster than the old
//!    `predict_run` full simulated iterations; the speedup is recorded.
//! 3. **Serving** — forward-only inference plans reserve a fraction of the
//!    training peak, and a mixed training+inference stream co-schedules on
//!    the cluster simulator.
//!
//! Emits `BENCH_plan.json` for trend tracking across PRs.

use std::time::Instant;

use sn_cluster::{mixed_serving_stream, ClusterSim, Fleet, JobKind, PlacementPolicy, PolicyPreset};
use sn_models as models;
use sn_runtime::{plan_prediction, plan_prediction_inference, predict_run, Executor, Policy};
use sn_runtime::{Interconnect, PeakPrediction};
use sn_sim::DeviceSpec;

use crate::table::{mb, TextTable};

const MB: u64 = 1 << 20;

/// One matrix cell: a model × preset with its planned and executed peaks.
pub struct PlanRow {
    pub model: &'static str,
    pub batch: usize,
    pub preset: &'static str,
    pub plan_peak: u64,
    pub executed_cold: u64,
    pub executed_warm: u64,
}

impl PlanRow {
    pub fn matches(&self) -> bool {
        self.plan_peak == self.executed_cold && self.plan_peak == self.executed_warm
    }
}

/// One serving comparison: training vs forward-only peak for a model.
pub struct InferenceRow {
    pub model: &'static str,
    pub batch: usize,
    pub train: PeakPrediction,
    pub infer: PeakPrediction,
}

/// Admission-prediction cost: the same prediction set, simulated vs
/// compiled.
pub struct AdmissionTiming {
    pub predictions: usize,
    pub simulate_ns: u128,
    pub compile_ns: u128,
}

impl AdmissionTiming {
    pub fn speedup(&self) -> f64 {
        if self.compile_ns == 0 {
            return 0.0;
        }
        self.simulate_ns as f64 / self.compile_ns as f64
    }
}

/// The serving co-scheduling summary from the cluster simulator.
pub struct CoScheduleRow {
    pub jobs: usize,
    pub training_completed: usize,
    pub inference_completed: usize,
    pub rejected: usize,
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
            let mut ex = Executor::new(&net, spec.clone(), policy).unwrap();
            let cold = ex.run_iteration().unwrap().peak_bytes;
            let warm = ex.run_iteration().unwrap().peak_bytes;
            rows.push(PlanRow {
                model,
                batch,
                preset: pname,
                plan_peak,
                executed_cold: cold,
                executed_warm: warm,
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

/// Time the same prediction set through the old simulated path and the new
/// compile-only path (no I/O).
pub fn measure_admission(quick: bool) -> AdmissionTiming {
    let spec = DeviceSpec::k40c();
    let set = matrix(quick);
    let mut predictions = 0usize;
    let t0 = Instant::now();
    for (_, build, batch) in &set {
        let net = build(*batch);
        for (_, policy) in presets() {
            predict_run(&net, &spec, policy).unwrap();
            predictions += 1;
        }
    }
    let simulate_ns = t0.elapsed().as_nanos();
    // Drop the plan memo and shared analyses first: this row reports what a
    // *compile* costs against a simulated iteration, not a memo hit (what
    // a hit costs is the repo benchmark's `plan_reuse` workload).
    sn_runtime::plan::clear_all_caches();
    let t1 = Instant::now();
    for (_, build, batch) in &set {
        let net = build(*batch);
        for (_, policy) in presets() {
            plan_prediction(&net, &spec, policy).unwrap();
        }
    }
    let compile_ns = t1.elapsed().as_nanos();
    AdmissionTiming {
        predictions,
        simulate_ns,
        compile_ns,
    }
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
    let timing = measure_admission(quick);
    let cosched = measure_coschedule(quick);

    let mut out = String::from(
        "plan: planner/interpreter split — plan-predicted vs executed peaks, \
         admission-prediction cost, and inference co-scheduling\n\n",
    );
    let mut t = TextTable::new(vec![
        "model",
        "batch",
        "preset",
        "plan peak (MB)",
        "executed cold/warm (MB)",
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
            format!("{} / {}", mb(r.executed_cold), mb(r.executed_warm)),
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
        "\nadmission prediction, {} (model, preset) pairs: simulate {:.1} ms vs \
         compile {:.1} ms — {:.2}x speedup (no simulated iteration on the hot path)\n",
        timing.predictions,
        timing.simulate_ns as f64 / 1e6,
        timing.compile_ns as f64 / 1e6,
        timing.speedup()
    ));
    out.push_str(&format!(
        "cluster co-scheduling ({} mixed jobs): {} training + {} inference completed, \
         {} rejected\n",
        cosched.jobs, cosched.training_completed, cosched.inference_completed, cosched.rejected
    ));

    let mut json_rows = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json_rows.push(',');
        }
        json_rows.push_str(&format!(
            "{{\"model\":\"{}\",\"batch\":{},\"preset\":\"{}\",\"plan_peak\":{},\
             \"executed_cold\":{},\"executed_warm\":{},\"match\":{}}}",
            r.model,
            r.batch,
            r.preset,
            r.plan_peak,
            r.executed_cold,
            r.executed_warm,
            r.matches()
        ));
    }
    let mut json_inf = String::new();
    for (i, r) in inference.iter().enumerate() {
        if i > 0 {
            json_inf.push(',');
        }
        json_inf.push_str(&format!(
            "{{\"model\":\"{}\",\"batch\":{},\"train_peak\":{},\"infer_peak\":{}}}",
            r.model, r.batch, r.train.peak_bytes, r.infer.peak_bytes
        ));
    }
    let json = format!(
        "{{\"experiment\":\"plan\",\"all_peaks_match\":{all_match},\
         \"rows\":[{json_rows}],\"inference\":[{json_inf}],\
         \"admission\":{{\"predictions\":{},\"simulate_ns\":{},\"compile_ns\":{},\
         \"speedup\":{:.4}}},\
         \"cluster\":{{\"jobs\":{},\"training_completed\":{},\"inference_completed\":{},\
         \"rejected\":{}}}}}",
        timing.predictions,
        timing.simulate_ns,
        timing.compile_ns,
        timing.speedup(),
        cosched.jobs,
        cosched.training_completed,
        cosched.inference_completed,
        cosched.rejected,
    );
    match std::fs::write("BENCH_plan.json", &json) {
        Ok(()) => out.push_str("wrote BENCH_plan.json\n"),
        Err(e) => out.push_str(&format!("could not write BENCH_plan.json: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_peaks_are_byte_identical_across_the_matrix() {
        // The acceptance criterion: every model builder × policy preset in
        // the bench matrix agrees, plan vs execution, to the byte — cold
        // AND warm iterations.
        for r in measure_matrix(true) {
            assert!(
                r.matches(),
                "{} @{} under {}: plan {} vs executed {}/{}",
                r.model,
                r.batch,
                r.preset,
                r.plan_peak,
                r.executed_cold,
                r.executed_warm
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
