//! Cross-crate integration tests: the paper's §3 peak-memory progression,
//! verified end-to-end on the real AlexNet through the full runtime stack
//! (models → graph → runtime → simulated device).

use superneurons::graph::NetCost;
use superneurons::runtime::session::feasible;
use superneurons::runtime::{Executor, Policy, RecomputeMode};
use superneurons::{DeviceSpec, Framework};

fn spec() -> DeviceSpec {
    DeviceSpec::k40c()
}

/// Baseline peak equals the sum of every tensor the iteration materializes
/// (`Σ l_f + Σ l_b` in the paper's notation) plus the resident weights,
/// up to block-rounding.
#[test]
fn baseline_peak_matches_sum_formula() {
    let net = superneurons::models::alexnet(64);
    let mut ex = Executor::new(&net, spec(), Policy::baseline()).unwrap();
    let r = ex.run_iteration().unwrap();
    let tensor_sum: u64 = ex.plan.tensors.iter().map(|t| t.bytes).sum();
    let weights = superneurons::graph::NetCost::of(&net).total_weight_bytes();
    let expect = tensor_sum + weights;
    // Block-rounding and transient workspaces put the measured peak at or
    // slightly above the analytic sum, never more than a few % off.
    assert!(r.peak_bytes >= expect, "{} < {}", r.peak_bytes, expect);
    assert!(
        r.peak_bytes < expect + expect / 10,
        "measured {} vs analytic {}",
        r.peak_bytes,
        expect
    );
}

/// The §3 progression: each added technique strictly reduces peak memory,
/// and liveness alone saves 30–50% of the baseline's tensor memory on
/// AlexNet (the paper measured 31.9% at batch 200).
#[test]
fn each_technique_strictly_reduces_alexnet_peak() {
    let net = superneurons::models::alexnet(200);
    let w = NetCost::of(&net).total_weight_bytes();
    let peak = |p: Policy| {
        Executor::new(&net, spec(), p)
            .unwrap()
            .run_iteration()
            .unwrap()
            .peak_bytes
            - w
    };
    let base = peak(Policy::baseline());
    let live = peak(Policy::liveness_only());
    let off = peak(Policy::liveness_offload());
    let full = peak(Policy::full_memory());
    assert!(
        live < base && off < live && full < off,
        "{base} {live} {off} {full}"
    );
    let saving = 1.0 - live as f64 / base as f64;
    assert!(
        (0.30..=0.55).contains(&saving),
        "liveness saving {saving:.3} outside the paper's band"
    );
    // Offload ≥ 45% total saving (the paper: 48.29% at this batch size).
    let saving_off = 1.0 - off as f64 / base as f64;
    assert!(saving_off >= 0.45, "offload saving {saving_off:.3}");
}

/// Table 1's count structure on the real AlexNet: speed-centric replays
/// every non-checkpoint exactly once (14), memory-centric pays the
/// triangular cost (23), cost-aware sits between and never exceeds the
/// memory-centric peak.
#[test]
fn alexnet_recompute_counts_match_the_paper() {
    let net = superneurons::models::alexnet(128);
    let run = |mode| {
        let p = Policy {
            recompute: mode,
            ..Policy::full_memory()
        };
        let mut ex = Executor::new(&net, spec(), p).unwrap();
        ex.run_iteration().unwrap()
    };
    let s = run(RecomputeMode::SpeedCentric);
    let m = run(RecomputeMode::MemoryCentric);
    let c = run(RecomputeMode::CostAware);
    assert_eq!(
        s.counters.recompute_forwards, 14,
        "paper Table 1: AlexNet speed-centric"
    );
    assert_eq!(
        m.counters.recompute_forwards, 23,
        "paper Table 1: AlexNet memory-centric"
    );
    assert_eq!(
        c.counters.recompute_forwards, 17,
        "paper Table 1: AlexNet cost-aware"
    );
    assert!(m.peak_bytes <= s.peak_bytes);
    assert!(c.peak_bytes <= s.peak_bytes);
    assert_eq!(
        c.peak_bytes, m.peak_bytes,
        "cost-aware peak == memory-centric peak"
    );
}

/// The Tensor Cache eliminates PCIe traffic whenever DRAM suffices
/// (Table 3's zero column) and the non-cached runtime's traffic grows
/// linearly with the batch size.
#[test]
fn tensor_cache_traffic_shape() {
    let traffic = |batch: usize, cache: bool| {
        let net = superneurons::models::alexnet(batch);
        let p = if cache {
            Policy::superneurons()
        } else {
            Policy::superneurons_no_cache()
        };
        let mut ex = Executor::new(&net, spec(), p).unwrap();
        let r = ex.run_iteration().unwrap();
        r.h2d_bytes + r.d2h_bytes
    };
    assert_eq!(traffic(256, true), 0);
    assert_eq!(traffic(512, true), 0);
    let t256 = traffic(256, false);
    let t512 = traffic(512, false);
    assert!(t256 > 0);
    let ratio = t512 as f64 / t256 as f64;
    assert!(
        (1.8..=2.2).contains(&ratio),
        "uncached traffic should scale linearly: {t256} -> {t512}"
    );
}

/// End-to-end framework comparison on a real network: SuperNeurons trains
/// the largest batch, and its advantage over the best baseline is at least
/// the paper's average factor (1.89x).
#[test]
fn superneurons_widest_batch_on_resnet50() {
    let spec = spec();
    let mut best_other = 0usize;
    let mut sn = 0usize;
    for fw in Framework::ALL {
        let b =
            superneurons::frameworks::max_batch(fw, &superneurons::models::resnet50, &spec, 2048);
        if fw == Framework::SuperNeurons {
            sn = b;
        } else {
            best_other = best_other.max(b);
        }
    }
    assert!(
        sn as f64 >= 1.89 * best_other as f64,
        "sn {sn} vs best {best_other}"
    );
}

/// Going deeper: SuperNeurons trains a ResNet at least 3.24x deeper than
/// every emulated baseline (the paper's weakest ratio, vs TensorFlow).
#[test]
fn superneurons_deepest_resnet() {
    // A shrunken device keeps the depth search fast while preserving the
    // ratios; the full 12 GB Table 4 run lives in the experiment harness
    // (where SuperNeurons exceeds the 8000-depth search cap).
    let spec = DeviceSpec::k40c().with_dram(1 << 30);
    let batch = 8;
    let sn =
        superneurons::frameworks::max_resnet_depth(Framework::SuperNeurons, batch, &spec, 2000);
    for fw in [
        Framework::Caffe,
        Framework::Torch,
        Framework::MXNet,
        Framework::TensorFlow,
    ] {
        let d = superneurons::frameworks::max_resnet_depth(fw, batch, &spec, 2000);
        assert!(
            sn as f64 >= 3.24 * d as f64,
            "{} reached {d}, SuperNeurons {sn}",
            fw.name()
        );
    }
}

/// The abstract's headline: "ResNet2500 that has 10^4 basic network layers
/// on a 12GB K40c". No emulated baseline can compile it; SuperNeurons does,
/// and the interpreter replays the plan to the byte, cold and warm, with
/// one trace record per step.
#[test]
fn abstract_resnet2500_trains_on_a_12gb_k40c() {
    let spec = spec();
    let net = superneurons::models::resnet_depth(16, 2500);
    assert_eq!(net.len(), 8336);
    for fw in Framework::ALL {
        if fw != Framework::SuperNeurons {
            assert!(
                !feasible(&net, &spec, fw.policy()),
                "{} must run out of memory",
                fw.name()
            );
        }
    }
    let mut ex = Executor::new(&net, spec, Policy::superneurons()).unwrap();
    let plan_peak = ex.mplan.peak_bytes;
    assert!(plan_peak <= 12 << 30);
    for which in ["cold", "warm"] {
        let r = ex.run_iteration().unwrap();
        assert_eq!(r.peak_bytes, plan_peak, "{which} iteration");
        let trace = ex.last_trace();
        assert_eq!(trace.records.len(), ex.route.total_steps(), "{which}");
        assert!(trace.peak_bytes() <= r.peak_bytes, "{which}");
    }
}

/// The dynamic workspace selector makes SuperNeurons the fastest framework
/// on every evaluation network (Fig. 14's headline).
#[test]
fn superneurons_leads_fig14_speed() {
    let spec = DeviceSpec::titan_xp();
    for (name, build) in [
        (
            "AlexNet",
            superneurons::models::alexnet as fn(usize) -> superneurons::Net,
        ),
        ("ResNet50", superneurons::models::resnet50),
    ] {
        let batch = if name == "AlexNet" { 128 } else { 16 };
        let mut speeds = Vec::new();
        for fw in Framework::ALL {
            let net = build(batch);
            let mut ex = Executor::new(&net, spec.clone(), fw.policy()).unwrap();
            ex.run_iteration().unwrap();
            let r = ex.run_iteration().unwrap();
            speeds.push((fw.name(), r.imgs_per_sec(batch)));
        }
        let sn = speeds.iter().find(|(n, _)| *n == "SuperNeurons").unwrap().1;
        for (n, v) in &speeds {
            assert!(
                sn >= *v,
                "{name}: SuperNeurons {sn:.0} must lead {n} {v:.0}"
            );
        }
    }
}

/// Peak memory never exceeds device capacity, whatever the policy — the
/// allocator is the enforcement point.
#[test]
fn capacity_is_inviolable() {
    let tight = DeviceSpec::k40c().with_dram(900 << 20);
    let net = superneurons::models::alexnet(96);
    for p in [
        Policy::baseline(),
        Policy::liveness_only(),
        Policy::superneurons(),
    ] {
        if let Ok(mut ex) = Executor::new(&net, tight.clone(), p) {
            if let Ok(r) = ex.run_iteration() {
                assert!(r.peak_bytes <= tight.dram_bytes);
            }
        }
    }
}
