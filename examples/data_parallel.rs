//! Data-parallel scaling on the device-group runtime: the paper targets
//! memory for *data parallelism* (§2.1 — each GPU holds a replica,
//! sub-gradients are aggregated). This example runs a ResNet-50 gang
//! through [`GroupExecutor`]: every replica replays the identical
//! single-device memory plan (byte-identical peaks, asserted below) while
//! bucketed ring all-reduces overlap the remaining backward compute —
//! with the serialized iteration-end exchange shown as the ablation.
//!
//! ```text
//! cargo run --release --example data_parallel [per_gpu_batch]
//! ```

use superneurons::models;
use superneurons::runtime::{
    plan_prediction, ExecError, GroupConfig, GroupExecutor, GroupIterationReport, Interconnect,
};
use superneurons::{DeviceSpec, Policy};

fn main() {
    let per_gpu_batch: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32);

    let spec = DeviceSpec::titan_xp();
    let policy = Policy::superneurons();
    let net = models::resnet50(per_gpu_batch);
    let plan_peak = match plan_prediction(&net, &spec, policy) {
        Ok(p) => p.peak_bytes,
        Err(e) => {
            println!("ResNet-50 at batch {per_gpu_batch} does not fit a TITAN Xp: {e}");
            return;
        }
    };

    println!(
        "ResNet-50, {per_gpu_batch} images per GPU, one SuperNeurons plan per replica \
         (single-device plan peak {:.0} MB)\n",
        plan_peak as f64 / 1e6
    );
    println!(
        "{:>5} {:>12} {:>12} {:>14} {:>13} {:>12} {:>11}",
        "GPUs", "interconnect", "step (ms)", "serial (ms)", "comm hidden", "img/s", "efficiency"
    );

    let run = |cfg: GroupConfig| -> Result<GroupIterationReport, ExecError> {
        GroupExecutor::new(&net, spec.clone(), policy, cfg)?.run_iteration()
    };
    let solo_rate = match run(GroupConfig::new(1, Interconnect::pcie())) {
        Ok(r) => r.imgs_per_sec(per_gpu_batch),
        Err(e) => {
            println!("single-replica run failed: {e}");
            return;
        }
    };

    for gpus in [1usize, 2, 4, 8, 16] {
        for (name, ic) in [
            ("PCIe", Interconnect::pcie()),
            ("NVLink", Interconnect::nvlink()),
        ] {
            if gpus == 1 && name == "NVLink" {
                continue;
            }
            let cfg = GroupConfig::new(gpus, ic);
            match (run(cfg), run(cfg.serialized())) {
                (Ok(olap), Ok(serial)) => {
                    assert!(olap.peaks_match, "replica peaks must equal the plan peak");
                    println!(
                        "{:>5} {:>12} {:>12.1} {:>14.1} {:>12.1}% {:>12.1} {:>11.2}",
                        gpus,
                        name,
                        olap.step_time.as_ms_f64(),
                        serial.step_time.as_ms_f64(),
                        100.0 * olap.allreduce_overlap_fraction(),
                        olap.imgs_per_sec(per_gpu_batch),
                        olap.imgs_per_sec(per_gpu_batch) / (gpus as f64 * solo_rate),
                    );
                }
                (Err(e), _) | (_, Err(e)) => {
                    println!("{gpus:>5} {name:>12} failed: {e}");
                }
            }
        }
    }
    println!("\nevery replica executed at exactly the single-device plan peak;");
    println!("overlapping the bucketed exchange under backward recovers near-linear scaling,");
    println!("and the gap to the serialized column is the classic no-overlap penalty.");
}
