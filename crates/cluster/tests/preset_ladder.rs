//! The preset ladder's promise: a memory-stronger preset never predicts a
//! higher peak than a weaker one. Admission's fallback walks `ladder_for`
//! on that promise: a job that does not fit under one preset is asked
//! again under the next, which should never need more memory. Checked on an
//! open cap (12 GB binds none of these nets) over random nets × {training,
//! inference} × {fp32, bf16}.

use proptest::prelude::*;
use sn_cluster::admission::ladder_for;
use sn_cluster::{JobSpec, PolicyPreset, Workload};
use sn_graph::{Net, Precision, Shape4};
use sn_runtime::{plan_prediction, plan_prediction_inference};
use sn_sim::DeviceSpec;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// A 3×3 or 5×5 stride-1 conv to this many channels.
    Conv(usize, bool),
    Act,
    Bn,
    Pool,
    /// A 3×3 conv added back onto its input.
    Residual,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1usize..5, proptest::bool::ANY).prop_map(|(c, big)| Op::Conv(8 * c, big)),
        3 => Just(Op::Act),
        1 => Just(Op::Bn),
        1 => Just(Op::Pool),
        2 => Just(Op::Residual),
    ]
}

fn build_net(batch: usize, ops: &[Op]) -> Net {
    let mut net = Net::new("ladder", Shape4::new(batch, 3, 32, 32));
    let mut cur = net.data();
    for op in ops {
        let shape = net.layer(cur).out_shape;
        cur = match *op {
            Op::Conv(c, big) => {
                let k = if big { 5 } else { 3 };
                net.conv(cur, c, k, 1, k / 2)
            }
            Op::Bn => net.bn(cur),
            Op::Pool if shape.h >= 8 => net.max_pool(cur, 2, 2, 0),
            Op::Residual => {
                let branch = net.conv(cur, shape.c, 3, 1, 1);
                net.eltwise(&[cur, branch])
            }
            Op::Act | Op::Pool => net.relu(cur),
        };
    }
    let f = net.fc(cur, 10);
    net.softmax(f);
    net.validate().unwrap();
    net
}

/// The peak `preset` predicts for `net` on a 12 GB K40c.
fn peak(net: &Net, preset: PolicyPreset, precision: Precision, inference: bool) -> u64 {
    let spec = DeviceSpec::k40c();
    let policy = preset.policy().with_precision(precision);
    let predicted = if inference {
        plan_prediction_inference(net, &spec, policy)
    } else {
        plan_prediction(net, &spec, policy)
    };
    predicted.expect("12 GB fits a net this small").peak_bytes
}

/// Each rung of the full ladder (from `baseline`, downgrades allowed) with
/// its predicted peak for `net`.
fn ladder_peaks(net: &Net, precision: Precision, inference: bool) -> Vec<(PolicyPreset, u64)> {
    let w = Workload::Synthetic { width: 8, depth: 2 };
    let job = JobSpec::new("probe", w, 1).with_preset(PolicyPreset::Baseline);
    ladder_for(&job)
        .map(|p| (p, peak(net, p, precision, inference)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The planner does not keep the promise yet: see the `finding_` test
    // below. Until it does this runs on request (`--ignored`).
    #[test]
    #[ignore = "peaks can rise along the ladder: see `finding_…`"]
    fn peaks_never_rise_along_the_preset_ladder(
        batch in 1usize..9,
        ops in proptest::collection::vec(op_strategy(), 2..12),
    ) {
        let net = build_net(batch, &ops);
        for precision in [Precision::fp32(), Precision::bf16_mixed()] {
            for inference in [false, true] {
                let peaks = ladder_peaks(&net, precision, inference);
                let rungs: Vec<_> = peaks.iter().map(|&(p, _)| p).collect();
                prop_assert_eq!(rungs, PolicyPreset::ALL.to_vec());
                for w in peaks.windows(2) {
                    prop_assert!(w[1].1 <= w[0].1,
                        "{:?} (inference {}): {:?}", precision, inference, peaks);
                }
            }
        }
    }
}

/// Finding: the last rung can raise the peak. On an open cap the
/// `superneurons` preset's dynamic workspace buys a 5×5 conv a faster
/// algorithm that `full_memory` runs without: one such conv at batch 1
/// predicts 738 304 bytes under `full_memory` and 1 787 904 under
/// `superneurons` (738 304 again with its workspace off). A binding cap
/// takes that workspace back, and admission asks each rung at the budget a
/// device offers. When the ladder keeps the promise this flips, and the
/// property above runs by default.
#[test]
fn finding_superneurons_spends_an_open_cap_on_conv_workspace() {
    let net = build_net(1, &[Op::Conv(8, true)]);
    let peaks = ladder_peaks(&net, Precision::fp32(), false);
    assert_eq!(
        peaks[3..],
        [
            (PolicyPreset::FullMemory, 738_304),
            (PolicyPreset::Superneurons, 1_787_904)
        ]
    );
}
