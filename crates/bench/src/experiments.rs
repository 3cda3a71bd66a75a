//! One function per table/figure of the SuperNeurons evaluation.
//!
//! Absolute numbers come from our simulated substrate (`sn-sim`'s
//! discrete-event device model stands in for the GPU); what these reproduce
//! is the paper's *shape*: which technique/framework wins, by roughly what
//! factor, and where the memory knees fall. No paper-vs-measured record is
//! kept in the tree yet (ROADMAP item 10, `BENCH_paper.json`); each
//! function prints what it measured.

use sn_frameworks::Framework;
use sn_graph::{Net, NetCost};
use sn_models as models;
use sn_runtime::{convalgo, ExecError, Executor, IterationReport, Policy, RecomputeMode};
use sn_sim::spec::GB;
use sn_sim::DeviceSpec;

use crate::table::{gb, mb, TextTable};

/// One training iteration of `net` on `spec` under `policy`.
fn iteration(net: &Net, spec: DeviceSpec, policy: Policy) -> Result<IterationReport, ExecError> {
    Executor::new(net, spec, policy)?.run_iteration()
}

/// The evaluation networks with the batch sizes Fig. 2 uses
/// (AlexNet 200, the rest 32).
fn fig2_nets() -> Vec<(String, Net)> {
    vec![
        ("AlexNet".into(), models::alexnet(200)),
        ("VGG16".into(), models::vgg16(32)),
        ("VGG19".into(), models::vgg19(32)),
        ("InceptionV4".into(), models::inception_v4(32)),
        ("ResNet50".into(), models::resnet50(32)),
        ("ResNet101".into(), models::resnet101(32)),
        ("ResNet152".into(), models::resnet152(32)),
    ]
}

/// Network-wide conv workspace bytes when every conv picks its max-speed
/// algorithm (the "with conv buff" bars of Fig. 2).
fn max_speed_workspace(net: &Net) -> u64 {
    net.layers()
        .iter()
        .filter(|l| matches!(l.kind, sn_graph::LayerKind::Conv { .. }))
        .map(|l| convalgo::max_speed_algo(net, l.id).workspace)
        .sum()
}

/// Fig. 2 — per-network training memory with/without convolution
/// workspaces, and the speedup convolution workspaces buy.
pub fn fig2() -> String {
    let mut t = TextTable::new(vec![
        "network",
        "batch",
        "mem (MB)",
        "mem+convbuff (MB)",
        "speedup w/ conv buff",
    ]);
    for (name, net) in fig2_nets() {
        let batch = net.batch();
        let cost = NetCost::of(&net);
        let mem = cost.sum_l_f() + cost.sum_l_b() + cost.total_weight_bytes();
        let mem_ws = mem + max_speed_workspace(&net);
        // Speedup: SuperNeurons on the TITAN Xp, dynamic workspaces vs none.
        let slow = iteration(
            &net,
            DeviceSpec::titan_xp(),
            Policy {
                workspace: sn_runtime::WorkspacePolicy::None,
                ..Policy::superneurons()
            },
        );
        let fast = iteration(&net, DeviceSpec::titan_xp(), Policy::superneurons());
        let speedup = match (&slow, &fast) {
            (Ok(s), Ok(f)) => format!("{:.2}x", f.imgs_per_sec(batch) / s.imgs_per_sec(batch)),
            _ => "OOM".into(),
        };
        t.row(vec![name, format!("{batch}"), mb(mem), mb(mem_ws), speedup]);
    }
    format!(
        "Fig. 2 — memory usage and speedup with convolution workspaces\n{}",
        t.render()
    )
}

/// Fig. 8 — breakdown of execution time and memory usage by layer type.
pub fn fig8() -> String {
    let nets: Vec<(String, Net)> = vec![
        ("AlexNet".into(), models::alexnet(128)),
        ("InceptionV4".into(), models::inception_v4(16)),
        ("ResNet101".into(), models::resnet101(16)),
        ("ResNet152".into(), models::resnet152(16)),
        ("ResNet50".into(), models::resnet50(16)),
        ("VGG16".into(), models::vgg16(16)),
        ("VGG19".into(), models::vgg19(16)),
    ];
    let spec = DeviceSpec::titan_xp();
    let mut out =
        String::from("Fig. 8 — % of compute time (fwd+bwd) and % of memory by layer type\n");
    let mut t = TextTable::new(vec![
        "network", "metric", "CONV", "FC", "DROPOUT", "SOFTMAX", "POOL", "ACT", "BN", "LRN",
        "other",
    ]);
    for (name, net) in nets {
        let cost = NetCost::of(&net);
        let rows = cost.breakdown_by_type(&net, &spec);
        let total_t: u64 = rows.iter().map(|r| r.1).sum();
        let total_m: u64 = rows.iter().map(|r| r.2).sum();
        let pick = |metric: usize, ty: &str| -> f64 {
            let v = rows
                .iter()
                .filter(|r| r.0 == ty)
                .map(|r| if metric == 0 { r.1 } else { r.2 })
                .sum::<u64>() as f64;
            let tot = if metric == 0 { total_t } else { total_m } as f64;
            100.0 * v / tot
        };
        let other = |metric: usize| -> f64 {
            let known = [
                "CONV", "FC", "DROPOUT", "SOFTMAX", "POOL", "ACT", "BN", "LRN",
            ];
            let v: u64 = rows
                .iter()
                .filter(|r| !known.contains(&r.0.as_str()))
                .map(|r| if metric == 0 { r.1 } else { r.2 })
                .sum();
            100.0 * v as f64 / if metric == 0 { total_t } else { total_m } as f64
        };
        for (mi, mname) in [(0usize, "time%"), (1, "mem%")] {
            t.row(vec![
                name.clone(),
                mname.to_string(),
                format!("{:.1}", pick(mi, "CONV")),
                format!("{:.1}", pick(mi, "FC")),
                format!("{:.1}", pick(mi, "DROPOUT")),
                format!("{:.1}", pick(mi, "SOFTMAX")),
                format!("{:.1}", pick(mi, "POOL")),
                format!("{:.1}", pick(mi, "ACT")),
                format!("{:.1}", pick(mi, "BN")),
                format!("{:.1}", pick(mi, "LRN")),
                format!("{:.1}", other(mi)),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Fig. 10 — stepwise memory usage and live tensor counts on AlexNet@200
/// under (a) liveness, (b) +prefetch/offload, (c) +cost-aware recomputation,
/// against the naive baseline.
pub fn fig10() -> String {
    let mut out =
        String::from("Fig. 10 — stepwise memory and live tensors, AlexNet batch 200 (K40c)\n");
    let spec = DeviceSpec::k40c();
    let net = models::alexnet(200);
    let mut ex = Executor::new(&net, spec.clone(), Policy::baseline()).unwrap();
    let tensors = ex.plan.tensors.len();
    let baseline = ex.run_iteration().unwrap();
    out.push_str(&format!(
        "baseline: peak = {} MB ({tensors} tensors)\n\n",
        mb(baseline.peak_bytes),
    ));

    for (panel, policy) in [
        ("(a) liveness", Policy::liveness_only()),
        (
            "(b) liveness + prefetch/offload",
            Policy::liveness_offload(),
        ),
        ("(c) + cost-aware recomputation", Policy::full_memory()),
    ] {
        let net = models::alexnet(200);
        let mut ex = Executor::new(&net, spec.clone(), policy).unwrap();
        let r = ex.run_iteration().unwrap();
        let trace = ex.last_trace();
        let peak_rec = trace.peak_step().unwrap();
        out.push_str(&format!(
            "{panel}: peak_m = {} MB at step {} ({} {})   [{:.1}% of baseline]\n",
            mb(r.peak_bytes),
            peak_rec.step,
            peak_rec.layer,
            match peak_rec.phase {
                sn_sim::trace::Phase::Forward => "fwd",
                sn_sim::trace::Phase::Backward => "bwd",
            },
            100.0 * r.peak_bytes as f64 / baseline.peak_bytes as f64,
        ));
        out.push_str("  step series (step:layer:MB:live): ");
        for rec in &trace.records {
            out.push_str(&format!(
                "{}:{}:{}:{} ",
                rec.step,
                rec.layer,
                (rec.resident_bytes / 1_000_000),
                rec.live_tensors
            ));
        }
        out.push_str("\n\n");
    }
    let net = models::alexnet(200);
    let cost = NetCost::of(&net);
    out.push_str(&format!(
        "l_peak = max(l_i) = {} MB at layer {}\n",
        mb(cost.l_peak() + cost.total_weight_bytes()),
        net.layer(cost.l_peak_layer()).name
    ));
    out
}

/// Table 1 — extra recomputations and peak_m for the speed-centric,
/// memory-centric and cost-aware strategies.
pub fn table1() -> String {
    let nets: Vec<(String, Net)> = vec![
        ("AlexNet".into(), models::alexnet(128)),
        ("ResNet50".into(), models::resnet50(16)),
        ("ResNet101".into(), models::resnet101(16)),
    ];
    let mut t = TextTable::new(vec![
        "network",
        "speed extra",
        "speed peak(MB)",
        "memory extra",
        "memory peak(MB)",
        "cost-aware extra",
        "cost-aware peak(MB)",
    ]);
    for (name, net) in nets {
        let mut cells = vec![name];
        for mode in [
            RecomputeMode::SpeedCentric,
            RecomputeMode::MemoryCentric,
            RecomputeMode::CostAware,
        ] {
            let policy = Policy {
                recompute: mode,
                ..Policy::full_memory()
            };
            let mut ex = Executor::new(&net, DeviceSpec::k40c(), policy).unwrap();
            let r = ex.run_iteration().unwrap();
            cells.push(format!("{}", r.counters.recompute_forwards));
            cells.push(mb(r.peak_bytes));
        }
        t.row(cells);
    }
    format!(
        "Table 1 — recomputation strategies (AlexNet@128, ResNet50/101@16, K40c)\n{}",
        t.render()
    )
}

/// Table 2 — img/s with raw cudaMalloc/cudaFree vs. the heap memory pool.
pub fn table2() -> String {
    let nets: Vec<(String, Net)> = vec![
        ("AlexNet".into(), models::alexnet(128)),
        ("VGG16".into(), models::vgg16(16)),
        ("InceptionV4".into(), models::inception_v4(16)),
        ("ResNet50".into(), models::resnet50(16)),
        ("ResNet101".into(), models::resnet101(16)),
        ("ResNet152".into(), models::resnet152(16)),
    ];
    let mut t = TextTable::new(vec!["img/s", "CUDA", "Ours", "speedup", "alloc calls/iter"]);
    let mut out = vec![];
    for (name, net) in nets {
        let batch = net.batch();
        let spec = DeviceSpec::titan_xp();
        let cuda = iteration(&net, spec.clone(), Policy::superneurons_cuda_alloc()).unwrap();
        let pool = iteration(&net, spec, Policy::superneurons()).unwrap();
        let (cuda_rate, pool_rate) = (cuda.imgs_per_sec(batch), pool.imgs_per_sec(batch));
        out.push((name.clone(), cuda_rate, pool_rate, pool.alloc_calls));
        t.row(vec![
            name,
            format!("{cuda_rate:.1}"),
            format!("{pool_rate:.1}"),
            format!("{:.2}x", pool_rate / cuda_rate),
            format!("{}", pool.alloc_calls),
        ]);
    }
    format!(
        "Table 2 — GPU memory pool vs cudaMalloc/cudaFree (AlexNet@128, rest @16, TITAN Xp)\n{}",
        t.render()
    )
}

/// Table 3 — PCIe traffic per iteration with and without the Tensor Cache,
/// AlexNet at growing batch sizes.
pub fn table3() -> String {
    let mut t = TextTable::new(vec!["batch", "without cache (GB)", "with cache (GB)"]);
    for batch in [256usize, 384, 512, 640, 896, 1024, 1536, 2048, 2560] {
        let net = models::alexnet(batch);
        let no_cache = iteration(&net, DeviceSpec::k40c(), Policy::superneurons_no_cache());
        let cache = iteration(&net, DeviceSpec::k40c(), Policy::superneurons());
        let f = |r: &Result<IterationReport, _>| match r {
            Ok(rep) => gb(rep.h2d_bytes + rep.d2h_bytes),
            Err(_) => "OOM".into(),
        };
        t.row(vec![format!("{batch}"), f(&no_cache), f(&cache)]);
    }
    format!(
        "Table 3 — communications with/without the Tensor Cache (AlexNet, K40c 12GB)\n{}",
        t.render()
    )
}

/// Fig. 11 — normalized training speed with and without the Tensor Cache.
pub fn fig11() -> String {
    let nets: Vec<(String, Net)> = vec![
        ("AlexNet".into(), models::alexnet(128)),
        ("VGG16".into(), models::vgg16(32)),
        ("InceptionV4".into(), models::inception_v4(32)),
        ("ResNet50".into(), models::resnet50(32)),
        ("ResNet101".into(), models::resnet101(32)),
        ("ResNet152".into(), models::resnet152(32)),
    ];
    let mut t = TextTable::new(vec!["network", "without cache", "with cache"]);
    for (name, net) in nets {
        let spec = DeviceSpec::titan_xp();
        let without = iteration(&net, spec.clone(), Policy::superneurons_no_cache()).unwrap();
        let with = iteration(&net, spec, Policy::superneurons()).unwrap();
        let norm = without.imgs_per_sec(net.batch()) / with.imgs_per_sec(net.batch());
        t.row(vec![name, format!("{norm:.2}"), "1.00".into()]);
    }
    format!(
        "Fig. 11 — normalized speed without/with Tensor Cache (AlexNet@128, rest @32, TITAN Xp)\n{}",
        t.render()
    )
}

/// Fig. 12 — dynamic convolution workspace allocation under constrained
/// memory pools.
pub fn fig12() -> String {
    let mut out = String::from("Fig. 12 — dynamic conv workspace allocation (AlexNet)\n");
    let run = |batch: usize, pool_gb: u64| -> (String, f64) {
        let net = models::alexnet(batch);
        let spec = DeviceSpec::titan_xp().with_dram(pool_gb * GB);
        let mut ex = Executor::new(&net, spec, Policy::superneurons()).unwrap();
        let r = ex.run_iteration().unwrap();
        let mut s = String::new();
        for rec in ex.ws_records() {
            s.push_str(&format!(
                "  {:7} {:4} assigned {:>8} MB  max-speed {:>8} MB  algo {:13} ({:.2}x)\n",
                rec.name,
                match rec.phase {
                    sn_sim::trace::Phase::Forward => "fwd",
                    sn_sim::trace::Phase::Backward => "bwd",
                },
                mb(rec.assigned_bytes),
                mb(rec.max_speed_bytes),
                rec.algo,
                rec.speedup
            ));
        }
        (s, r.imgs_per_sec(batch))
    };
    let (s, ips) = run(100, 3);
    out.push_str(&format!("(a) batch=100, pool=3GB  ->  {ips:.0} img/s\n{s}"));
    // The paper hits workspace pressure at batch 300 on its (heavier)
    // functional-tensor footprint; on our substrate the same knee appears
    // around batch 480 — the behaviour (dynamic downgrades, then recovery
    // with a larger pool) is the artefact being reproduced.
    let (s, ips) = run(480, 3);
    out.push_str(&format!(
        "(b/c) batch=480, pool=3GB  ->  {ips:.0} img/s\n{s}"
    ));
    let (s, ips) = run(480, 5);
    out.push_str(&format!("(d) batch=480, pool=5GB  ->  {ips:.0} img/s\n{s}"));
    out
}

/// Table 4 — the deepest trainable ResNet per framework (12 GB, batch 16).
pub fn table4(quick: bool) -> String {
    let hi = if quick { 500 } else { 8000 };
    let batch = if quick { 4 } else { 16 };
    let mut t = TextTable::new(vec!["framework", "deepest ResNet"]);
    let mut sn_depth = 0;
    let mut best_other = 0;
    for fw in Framework::ALL {
        let d = sn_frameworks::max_resnet_depth(fw, batch, &DeviceSpec::k40c(), hi);
        if fw == Framework::SuperNeurons {
            sn_depth = d;
        } else {
            best_other = best_other.max(d);
        }
        t.row(vec![fw.name().to_string(), format!("{d}")]);
    }
    format!(
        "Table 4 — going deeper: deepest ResNet at batch {batch} on 12GB K40c (search cap {hi})\n{}\nSuperNeurons / best baseline = {:.2}x\n",
        t.render(),
        sn_depth as f64 / best_other.max(1) as f64
    )
}

/// The per-network search caps for Table 5.
fn table5_nets(quick: bool) -> Vec<(&'static str, models::NetBuilder, usize)> {
    if quick {
        vec![
            ("AlexNet", models::alexnet as models::NetBuilder, 4096),
            ("ResNet50", models::resnet50, 1024),
        ]
    } else {
        vec![
            ("AlexNet", models::alexnet as models::NetBuilder, 8192),
            ("VGG16", models::vgg16, 1024),
            ("InceptionV4", models::inception_v4, 1024),
            ("ResNet50", models::resnet50, 2048),
            ("ResNet101", models::resnet101, 2048),
            ("ResNet152", models::resnet152, 2048),
        ]
    }
}

/// Table 5 — the largest trainable batch per framework per network (12 GB).
pub fn table5(quick: bool) -> String {
    let mut header = vec!["peak batch".to_string()];
    header.extend(Framework::ALL.iter().map(|f| f.name().to_string()));
    let mut t = TextTable::new(header);
    let mut report = String::new();
    for (name, build, hi) in table5_nets(quick) {
        let mut cells = vec![name.to_string()];
        let mut results = vec![];
        for fw in Framework::ALL {
            let b = sn_frameworks::max_batch(fw, &build, &DeviceSpec::k40c(), hi);
            results.push((fw, b));
            cells.push(format!("{b}"));
        }
        let sn = results
            .iter()
            .find(|(f, _)| *f == Framework::SuperNeurons)
            .unwrap()
            .1;
        let second = results
            .iter()
            .filter(|(f, _)| *f != Framework::SuperNeurons)
            .map(|(_, b)| *b)
            .max()
            .unwrap();
        report.push_str(&format!(
            "  {name}: SuperNeurons {sn} vs best baseline {second} ({:.2}x)\n",
            sn as f64 / second.max(1) as f64
        ));
        t.row(cells);
    }
    format!(
        "Table 5 — going wider: largest batch on 12GB K40c\n{}\n{report}",
        t.render()
    )
}

/// Fig. 13 — memory requirement (Σ l_f + Σ l_b, the paper's formula) at the
/// Table-5 peak batches.
pub fn fig13(quick: bool) -> String {
    let mut header = vec!["memory (GB)".to_string()];
    header.extend(Framework::ALL.iter().map(|f| f.name().to_string()));
    let mut t = TextTable::new(header);
    for (name, build, hi) in table5_nets(quick) {
        let mut cells = vec![name.to_string()];
        for fw in Framework::ALL {
            let b = sn_frameworks::max_batch(fw, &build, &DeviceSpec::k40c(), hi);
            if b == 0 {
                cells.push("-".into());
                continue;
            }
            let net = build(b);
            let cost = NetCost::of(&net);
            cells.push(gb(cost.sum_l_f()
                + cost.sum_l_b()
                + cost.total_weight_bytes()));
        }
        t.row(cells);
    }
    format!(
        "Fig. 13 — memory cost at each framework's peak batch (Σ l_f + Σ l_b + weights)\n{}",
        t.render()
    )
}

/// The batch grids of Fig. 14's six panels.
fn fig14_grid(name: &str, quick: bool) -> Vec<usize> {
    let full: Vec<usize> = match name {
        "AlexNet" => vec![128, 256, 384, 512, 640, 768, 896, 1024, 1152, 1280, 1408],
        "ResNet50" => vec![16, 32, 48, 64, 96, 128, 160, 192, 256, 320, 384],
        "VGG16" => vec![16, 32, 48, 64, 80, 96, 128, 160, 192, 224],
        "ResNet101" => vec![16, 32, 48, 64, 80, 96, 112, 160, 224, 256],
        "InceptionV4" => vec![8, 16, 24, 32, 48, 64, 80, 128, 192, 240],
        "ResNet152" => vec![8, 16, 24, 32, 48, 64, 80, 128, 176],
        _ => vec![16, 32, 64],
    };
    if quick {
        full.into_iter().take(3).collect()
    } else {
        full
    }
}

/// Fig. 14 — end-to-end img/s vs batch for every network × framework
/// (TITAN Xp). A `-` marks out-of-memory points (the curve's end).
pub fn fig14(quick: bool) -> String {
    let nets: Vec<(&str, models::NetBuilder)> = if quick {
        vec![("AlexNet", models::alexnet as models::NetBuilder)]
    } else {
        models::evaluation_networks()
    };
    let mut out = String::from("Fig. 14 — training speed (img/s) vs batch size (TITAN Xp, 12GB)\n");
    for (name, build) in nets {
        out.push_str(&format!("\n## {name}\n"));
        let grid = fig14_grid(name, quick);
        let mut header = vec!["batch".to_string()];
        header.extend(grid.iter().map(|b| b.to_string()));
        let mut t = TextTable::new(header);
        for fw in Framework::ALL {
            let mut cells = vec![fw.name().to_string()];
            for &b in &grid {
                let spec = DeviceSpec::titan_xp();
                cells.push(match iteration(&build(b), spec, fw.policy()) {
                    Ok(rep) => format!("{:.0}", rep.imgs_per_sec(b)),
                    Err(_) => "-".into(),
                });
            }
            t.row(cells);
        }
        out.push_str(&t.render());
    }
    out
}

/// An experiment: `quick` in, the report it prints out.
pub type Experiment = fn(bool) -> String;

/// Every experiment id the CLI accepts, in the order `all` runs them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig2", |_| fig2()),
    ("fig8", |_| fig8()),
    ("fig10", |_| fig10()),
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("fig11", |_| fig11()),
    ("fig12", |_| fig12()),
    ("table4", table4),
    ("table5", table5),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablation", |_| crate::ablation::run_ablations()),
    ("overlap", crate::overlap::overlap),
    ("cluster", crate::cluster::cluster),
    ("plan", crate::plan::plan),
    ("dataparallel", crate::dataparallel::dataparallel),
    ("precision", crate::precision::precision),
    ("trace", crate::trace::trace),
    ("service", crate::service::service),
    ("faults", crate::faults::faults),
    ("tune", crate::tune::tune),
];

/// Run every experiment (quick mode trims the searches).
pub fn run_all(quick: bool) -> String {
    let mut out = String::new();
    for (id, run) in EXPERIMENTS {
        out.push_str(&format!(
            "\n==================== {id} ====================\n"
        ));
        out.push_str(&run(quick));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn every_cli_id_is_in_the_table_once() {
        // The CLI dispatches on this table alone, so "every id it accepts"
        // is the table: no id twice, none shadowing `all`, and `ablation`
        // (which `all` used to skip) among them.
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{id} is in the table twice");
        }
        assert!(!ids.contains(&"all"));
        assert!(ids.contains(&"ablation"));
    }
}
