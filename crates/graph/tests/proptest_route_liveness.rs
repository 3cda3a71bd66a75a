//! Property tests over randomly generated nonlinear networks: route
//! construction must always yield a valid topological order, and liveness
//! analysis must never free a tensor before its last reader, for *any*
//! fan/join structure.

use proptest::prelude::*;
use sn_graph::liveness::{LivenessOptions, LivenessPlan};
use sn_graph::{LayerId, Net, Route, Shape4};

/// Build a random nonlinear network from a seed recipe: a sequence of
/// operations, each consuming one or two existing frontier layers.
#[derive(Debug, Clone)]
enum Op {
    Conv,
    Act,
    Pool,
    Bn,
    /// Residual join with a randomly chosen earlier same-shape layer.
    Eltwise(usize),
    /// Fan-in concat of two frontier layers.
    Concat(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Conv),
        3 => Just(Op::Act),
        1 => Just(Op::Pool),
        2 => Just(Op::Bn),
        2 => (0usize..8).prop_map(Op::Eltwise),
        2 => (0usize..8).prop_map(Op::Concat),
    ]
}

/// Materialize a recipe into a valid Net. Shapes are kept compatible by
/// using channel-preserving convs and only joining same-shape layers.
fn build_net(ops: &[Op]) -> Net {
    let mut net = Net::new("random", Shape4::new(2, 4, 16, 16));
    let mut frontier: Vec<LayerId> = vec![net.data()];
    for op in ops {
        let cur = *frontier.last().unwrap();
        let id = match op {
            Op::Conv => net.conv(cur, net.layer(cur).out_shape.c, 3, 1, 1),
            Op::Act => net.relu(cur),
            Op::Bn => net.bn(cur),
            Op::Pool => {
                let s = net.layer(cur).out_shape;
                if s.h >= 4 {
                    net.max_pool(cur, 2, 2, 0)
                } else {
                    net.relu(cur)
                }
            }
            Op::Eltwise(pick) => {
                let shape = net.layer(cur).out_shape;
                let candidates: Vec<LayerId> = frontier
                    .iter()
                    .copied()
                    .filter(|l| *l != cur && net.layer(*l).out_shape == shape)
                    .collect();
                if candidates.is_empty() {
                    net.relu(cur)
                } else {
                    let other = candidates[pick % candidates.len()];
                    net.eltwise(&[cur, other])
                }
            }
            Op::Concat(pick) => {
                let s = net.layer(cur).out_shape;
                let candidates: Vec<LayerId> = frontier
                    .iter()
                    .copied()
                    .filter(|l| {
                        let o = net.layer(*l).out_shape;
                        *l != cur && (o.n, o.h, o.w) == (s.n, s.h, s.w)
                    })
                    .collect();
                if candidates.is_empty() {
                    net.relu(cur)
                } else {
                    let other = candidates[pick % candidates.len()];
                    net.concat(&[cur, other])
                }
            }
        };
        frontier.push(id);
        if frontier.len() > 8 {
            frontier.remove(0);
        }
        // Drop frontier entries that have been consumed as non-terminals to
        // bound join fan-in; keep the latest few.
    }
    // Terminate: every dangling layer except the last is joined via concat
    // into the head so the net validates.
    let head = *frontier.last().unwrap();
    let dangling: Vec<LayerId> = net
        .layers()
        .iter()
        .filter(|l| l.nexts.is_empty() && l.id != head)
        .map(|l| l.id)
        .collect();
    let mut cur = head;
    for d in dangling {
        // Pool/flatten mismatched shapes via FC of each then eltwise is
        // overkill; just route them through an FC to a common width and add.
        let a = net.fc(cur, 16);
        let b = net.fc(d, 16);
        cur = net.eltwise(&[a, b]);
    }
    let f = net.fc(cur, 10);
    net.softmax(f);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn route_is_always_a_valid_topological_order(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let net = build_net(&ops);
        net.validate().map_err(TestCaseError::fail)?;
        let route = Route::construct(&net);
        route.validate(&net).map_err(TestCaseError::fail)?;
        // Every layer exactly once.
        prop_assert_eq!(route.fwd.len(), net.len());
        let mut seen = vec![false; net.len()];
        for id in &route.fwd {
            prop_assert!(!seen[id.0]);
            seen[id.0] = true;
        }
    }

    #[test]
    fn liveness_never_frees_before_last_reader(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        recompute in proptest::bool::ANY,
        inplace in proptest::bool::ANY,
    ) {
        let net = build_net(&ops);
        let route = Route::construct(&net);
        let plan = LivenessPlan::analyze(&net, &route, LivenessOptions {
            enabled: true,
            recompute_non_checkpoints: recompute,
            keep_all_forward: false,
            inplace_act: inplace,
            ..Default::default()
        });
        // Replay the schedule: a tensor freed after step s must not be read
        // by any step > s, except recomputable forward outputs when the
        // recompute policy is on (the executor rebuilds those on demand).
        let mut freed_at = vec![usize::MAX; plan.tensors.len()];
        for s in 0..route.total_steps() {
            for t in &plan.freed_after[s] {
                freed_at[t.0] = s;
            }
        }
        for s in 0..route.total_steps() {
            for t in &plan.step_inputs[s] {
                let meta = &plan.tensors[t.0];
                if meta.bytes == 0 {
                    continue; // aliased tensors occupy no storage
                }
                let rebuildable = recompute
                    && !meta.is_checkpoint
                    && meta.role == sn_graph::TensorRole::FwdOut;
                if !rebuildable {
                    prop_assert!(
                        freed_at[t.0] >= s,
                        "step {s} reads tensor freed after step {}",
                        freed_at[t.0]
                    );
                }
            }
        }
        // Creation precedes every use.
        for s in 0..route.total_steps() {
            for t in &plan.step_inputs[s] {
                prop_assert!(plan.tensors[t.0].created_step <= s);
            }
        }
    }

    #[test]
    fn peak_is_monotone_in_policy_strength(
        ops in proptest::collection::vec(op_strategy(), 1..30)
    ) {
        let net = build_net(&ops);
        let route = Route::construct(&net);
        let peak = |o: LivenessOptions| {
            LivenessPlan::analyze(&net, &route, o).peak_resident(0, |_| 0).0
        };
        let baseline = peak(LivenessOptions { enabled: false, ..Default::default() });
        let live = peak(LivenessOptions::default());
        let rec = peak(LivenessOptions { recompute_non_checkpoints: true, ..Default::default() });
        prop_assert!(live <= baseline);
        prop_assert!(rec <= live);
    }
}
