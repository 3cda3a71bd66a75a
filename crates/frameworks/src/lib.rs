//! # sn-frameworks — memory-policy emulations of the comparison frameworks
//!
//! The paper's end-to-end tables (4, 5) and figures (13, 14) compare
//! SuperNeurons against Caffe, Torch, MXNet and TensorFlow, each with its
//! published memory strategy (§2.2). Reproducing four full frameworks is
//! neither possible nor useful; what the comparison isolates is the *memory
//! policy*, so we emulate each framework as a [`Policy`] preset running on
//! the shared simulator:
//!
//! | Emulation | §2.2 basis | Policy: its difference from the preset it extends |
//! |---|---|---|
//! | `Caffe` | static allocation; forward tensors all resident; gradient buffers reused | `liveness_only` + `keep_all_forward` (liveness frees gradients only), static 16 MB-capped workspace |
//! | `Torch` | same family, plus in-place ReLU/Dropout | `Caffe` + `inplace_act` |
//! | `MXNet` | DAG liveness + per-layer speed-centric recomputation that "neglects non-uniform memory distribution" | `liveness_only` + `SpeedCentric` recompute, static workspace |
//! | `TensorFlow` | DAG liveness + swapping long-lived tensors to **pageable** host memory with on-demand (non-overlapped) transfers | `liveness_offload` (eager offload) without prefetch, `pinned_host = false`, static workspace |
//! | `SuperNeurons` | the paper's runtime | everything on (`Policy::superneurons()`) |
//!
//! These are *emulations*: absolute numbers will not match the 2018
//! binaries, but each policy keeps the property the paper credits/faults it
//! for, which is what drives who-wins-by-how-much.
//!
//! Since the planner/interpreter split, every preset here is expressed
//! *over memory plans*: [`max_batch`]/[`max_resnet_depth`] answer
//! feasibility by **compiling** an [`sn_runtime::MemoryPlan`] for the
//! emulated policy — the planner performs every allocation the iteration
//! would, so compile success is execution success — and the Table 4/5
//! searches never run a simulated iteration.

use sn_graph::Net;
use sn_runtime::session::max_feasible_param;
use sn_runtime::{Policy, RecomputeMode, WorkspacePolicy};
use sn_sim::DeviceSpec;

/// The emulated frameworks' fixed per-conv workspace limit (§2.2).
const STATIC_WORKSPACE: WorkspacePolicy = WorkspacePolicy::Capped(16 << 20);

/// The emulated frameworks, in the paper's table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    Caffe,
    MXNet,
    Torch,
    TensorFlow,
    SuperNeurons,
}

impl Framework {
    /// All frameworks, in the column order of Tables 4/5.
    pub const ALL: [Framework; 5] = [
        Framework::Caffe,
        Framework::MXNet,
        Framework::Torch,
        Framework::TensorFlow,
        Framework::SuperNeurons,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Framework::Caffe => "Caffe",
            Framework::MXNet => "MXNet",
            Framework::Torch => "Torch",
            Framework::TensorFlow => "TensorFlow",
            Framework::SuperNeurons => "SuperNeurons",
        }
    }

    /// The policy bundle emulating this framework's memory strategy: each
    /// is its difference from the preset it extends.
    pub fn policy(&self) -> Policy {
        match self {
            Framework::Caffe => Policy {
                keep_all_forward: true,
                workspace: STATIC_WORKSPACE,
                ..Policy::liveness_only()
            },
            Framework::Torch => Policy {
                inplace_act: true,
                ..Framework::Caffe.policy()
            },
            Framework::MXNet => Policy {
                recompute: RecomputeMode::SpeedCentric,
                workspace: STATIC_WORKSPACE,
                ..Policy::liveness_only()
            },
            Framework::TensorFlow => Policy {
                prefetch: false,    // on-demand fetches stall the compute stream
                pinned_host: false, // pageable staging: ~50% PCIe bandwidth
                workspace: STATIC_WORKSPACE,
                ..Policy::liveness_offload()
            },
            Framework::SuperNeurons => Policy::superneurons(),
        }
    }
}

/// Table 5: the largest batch a framework trains on `spec`.
pub fn max_batch(
    framework: Framework,
    build: &dyn Fn(usize) -> Net,
    spec: &DeviceSpec,
    hi: usize,
) -> usize {
    max_feasible_param(build, spec, framework.policy(), 1, hi)
}

/// Table 4: the deepest `resnet_depth` network a framework trains at a
/// fixed batch. Returns the depth value (`3·(n1+n2+n3+n4)+2` convention).
pub fn max_resnet_depth(framework: Framework, batch: usize, spec: &DeviceSpec, hi: usize) -> usize {
    // Depth is only meaningful in steps of 3 (one more bottleneck unit).
    let build = move |units: usize| sn_models::resnet(batch, (6, 32, units, 6));
    let lo_units = 1;
    let hi_units = (hi.saturating_sub(2) / 3).saturating_sub(44).max(2);
    let best_units = max_feasible_param(&build, spec, framework.policy(), lo_units, hi_units);
    if best_units == 0 {
        return 0;
    }
    3 * (6 + 32 + best_units + 6) + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_runtime::Executor;

    fn spec() -> DeviceSpec {
        // A small device so the tests explore the interesting regime fast.
        DeviceSpec::k40c().with_dram(768 << 20)
    }

    fn smallnet(batch: usize) -> Net {
        let mut net = Net::new("s", sn_graph::Shape4::new(batch, 3, 64, 64));
        let d = net.data();
        let c1 = net.conv(d, 32, 5, 1, 2);
        let a1 = net.relu(c1);
        let l1 = net.lrn(a1);
        let p1 = net.max_pool(l1, 2, 2, 0);
        let c2 = net.conv(p1, 64, 3, 1, 1);
        let a2 = net.relu(c2);
        let p2 = net.max_pool(a2, 2, 2, 0);
        let f = net.fc(p2, 128);
        let a3 = net.relu(f);
        let f2 = net.fc(a3, 10);
        net.softmax(f2);
        net
    }

    #[test]
    fn each_emulation_is_the_module_docs_difference_from_the_baseline() {
        let base = Policy::baseline();
        let capped = WorkspacePolicy::Capped(16 << 20);
        let caffe = Policy {
            liveness: true,
            keep_all_forward: true,
            workspace: capped,
            ..base
        };
        let want = [
            (Framework::Caffe, caffe),
            (
                Framework::MXNet,
                Policy {
                    liveness: true,
                    recompute: RecomputeMode::SpeedCentric,
                    workspace: capped,
                    ..base
                },
            ),
            (
                Framework::Torch,
                Policy {
                    inplace_act: true,
                    ..caffe
                },
            ),
            (
                Framework::TensorFlow,
                Policy {
                    liveness: true,
                    offload: true,
                    eager_offload: true,
                    pinned_host: false,
                    workspace: capped,
                    ..base
                },
            ),
            (
                Framework::SuperNeurons,
                Policy {
                    liveness: true,
                    offload: true,
                    tensor_cache: true,
                    prefetch: true,
                    recompute: RecomputeMode::CostAware,
                    workspace: WorkspacePolicy::Dynamic,
                    ..base
                },
            ),
        ];
        assert_eq!(want.map(|(f, _)| f), Framework::ALL);
        for (framework, policy) in want {
            assert_eq!(framework.policy(), policy, "{}", framework.name());
        }
    }

    #[test]
    fn framework_order_on_max_batch_matches_the_paper() {
        let spec = spec();
        let batches: Vec<(Framework, usize)> = Framework::ALL
            .iter()
            .map(|f| (*f, max_batch(*f, &smallnet, &spec, 1 << 14)))
            .collect();
        let get = |f: Framework| batches.iter().find(|(x, _)| *x == f).unwrap().1;
        let (caffe, torch, mxnet, tf, sn) = (
            get(Framework::Caffe),
            get(Framework::Torch),
            get(Framework::MXNet),
            get(Framework::TensorFlow),
            get(Framework::SuperNeurons),
        );
        assert!(torch >= caffe, "torch {torch} vs caffe {caffe}");
        assert!(mxnet > caffe, "mxnet {mxnet} vs caffe {caffe}");
        assert!(sn > tf, "sn {sn} vs tf {tf}");
        assert!(sn > mxnet, "sn {sn} vs mxnet {mxnet}");
        // The decisive margins appear on real networks (Table 5 in the
        // harness); on this miniature net we still require a clear lead.
        // (The TensorFlow emulation gained some batch headroom when the
        // multi-stream engine started releasing eager-offload device copies
        // at deterministic step boundaries, so the margin here is a little
        // narrower than on the old serialized engine.)
        assert!(
            sn as f64 >= 1.2 * tf.max(mxnet) as f64,
            "SuperNeurons should lead clearly: {batches:?}"
        );
    }

    #[test]
    fn peak_memory_order_is_inverse_of_batch_order() {
        let spec = DeviceSpec::k40c();
        let net = smallnet(64);
        // Compare functional-tensor footprints: workspace policies are
        // normalized off (SuperNeurons deliberately converts *free* memory
        // into workspace, which is not a footprint cost).
        let peak = |f: Framework| {
            let pol = sn_runtime::Policy {
                workspace: WorkspacePolicy::None,
                ..f.policy()
            };
            Executor::new(&net, spec.clone(), pol)
                .unwrap()
                .run_iteration()
                .unwrap()
                .peak_bytes
        };
        let caffe = peak(Framework::Caffe);
        let torch = peak(Framework::Torch);
        let mxnet = peak(Framework::MXNet);
        let sn = peak(Framework::SuperNeurons);
        assert!(torch <= caffe);
        assert!(mxnet < caffe);
        assert!(sn < caffe, "sn {sn} vs caffe {caffe}");
    }

    #[test]
    fn tensorflow_emulation_pays_for_pageable_transfers() {
        let spec = DeviceSpec::k40c();
        let net = smallnet(64);
        let tf = Executor::new(&net, spec.clone(), Framework::TensorFlow.policy())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert!(tf.d2h_bytes > 0, "TF-like must swap");
        // SuperNeurons at the same load: no traffic at all (fits in DRAM).
        let sn = Executor::new(&net, spec, Framework::SuperNeurons.policy())
            .unwrap()
            .run_iteration()
            .unwrap();
        assert_eq!(sn.d2h_bytes, 0);
        assert!(sn.iter_time < tf.iter_time);
    }

    #[test]
    fn plan_feasibility_agrees_with_execution() {
        // The presets are now answered by plan compilation; the compiled
        // verdict must match what actually executing an iteration says.
        let spec = spec();
        let net = smallnet(48);
        for fw in Framework::ALL {
            let compiled = sn_runtime::session::feasible(&net, &spec, fw.policy());
            let executed = match Executor::new(&net, spec.clone(), fw.policy()) {
                Ok(mut ex) => ex.run_iteration().is_ok(),
                Err(_) => false,
            };
            assert_eq!(compiled, executed, "{}", fw.name());
            // Serving is never harder than training.
            if compiled {
                let serves = sn_runtime::plan::compile_inference(&net, &spec, fw.policy());
                assert!(serves.is_ok(), "{}", fw.name());
            }
        }
    }

    #[test]
    fn depth_search_returns_table4_style_values() {
        // Use a small batch + small device to keep the search fast; the
        // full 12 GB Table 4 run lives in the experiment harness.
        let spec = DeviceSpec::k40c().with_dram(3 << 30);
        let sn = max_resnet_depth(Framework::SuperNeurons, 2, &spec, 2000);
        let caffe = max_resnet_depth(Framework::Caffe, 2, &spec, 2000);
        assert!(sn > caffe, "sn {sn} vs caffe {caffe}");
        assert!(
            sn >= 3 * (6 + 32 + 1 + 6) + 2,
            "sn should reach at least the minimum: {sn}"
        );
        // Depth values follow the 3k+2 convention.
        assert_eq!((sn - 2) % 3, 0);
    }
}
