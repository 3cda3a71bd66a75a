//! Quickstart: build a network, pick a device and a policy, train.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Shows the headline effect of the paper: the same AlexNet iteration under
//! the naive allocator, under each memory technique, and under the full
//! SuperNeurons runtime — peak memory falling from `Σ l_f + Σ l_b` towards
//! `max_i(l_i)` while throughput stays competitive.

use superneurons::{DeviceSpec, Executor, Policy};

fn main() {
    let spec = DeviceSpec::titan_xp();
    println!(
        "device: {} ({} GB DRAM)\n",
        spec.name,
        spec.dram_bytes >> 30
    );

    let configs = [
        ("baseline (naive allocator)", Policy::baseline()),
        ("+ liveness analysis", Policy::liveness_only()),
        ("+ prefetch/offload (UTP)", Policy::liveness_offload()),
        ("+ cost-aware recomputation", Policy::full_memory()),
        ("SuperNeurons (all techniques)", Policy::superneurons()),
    ];

    println!(
        "{:32} {:>12} {:>12} {:>12}",
        "configuration", "peak (MB)", "img/s", "PCIe (MB/it)"
    );
    for (name, policy) in configs {
        let net = superneurons::models::alexnet(256);
        match Executor::new(&net, spec.clone(), policy).and_then(|mut ex| ex.run_iteration()) {
            Ok(r) => println!(
                "{:32} {:>12.1} {:>12.1} {:>12.1}",
                name,
                r.peak_bytes as f64 / 1e6,
                r.imgs_per_sec(net.batch()),
                (r.h2d_bytes + r.d2h_bytes) as f64 / 1e6,
            ),
            Err(e) => println!("{name:32} failed: {e}"),
        }
    }

    // The floor the paper proves: peak_m is bounded below by the largest
    // single layer.
    let net = superneurons::models::alexnet(256);
    let cost = superneurons::graph::NetCost::of(&net);
    println!(
        "\nl_peak = max_i(l_i) = {:.1} MB (+ {:.1} MB weights)",
        cost.l_peak() as f64 / 1e6,
        cost.total_weight_bytes() as f64 / 1e6
    );
}
