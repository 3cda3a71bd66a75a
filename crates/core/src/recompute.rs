//! Cost-Aware Recomputation planning (§3.4, Fig. 9, Table 1).
//!
//! Non-checkpoint layers (POOL/ACT/LRN/BN/DROPOUT — cheap to compute, ~50%
//! of memory) have their forward outputs dropped after the last forward use;
//! the backward pass reconstructs them from the nearest upstream checkpoint.
//! Because every non-checkpoint layer is single-input (joins are
//! checkpoints), the non-checkpoints anchored at a checkpoint form a tree —
//! a *recomputation segment* — replayable by one forward sweep from the
//! anchor.
//!
//! Strategies:
//! * **speed-centric** — replay the whole segment once, keep the results
//!   until their last backward use (extra compute O(N), memory
//!   `Σ l_f + l_b`);
//! * **memory-centric** — replay only the chain each backward step needs and
//!   free it immediately afterwards (extra compute O(N²), memory `l_b`);
//! * **cost-aware** — per segment: speed-centric iff its replay memory stays
//!   within `l_peak = max_i(l_i)`, so the global peak is never raised by
//!   recomputation itself.

use sn_graph::{LayerId, Net, NetCost, Route};

use crate::policy::RecomputeMode;

/// Chosen strategy for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentStrategy {
    SpeedCentric,
    MemoryCentric,
}

/// One recomputation segment: the tree of non-checkpoints hanging off an
/// anchor checkpoint.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The checkpoint whose stored (possibly offloaded) output seeds replay.
    pub anchor: LayerId,
    /// Its members are [`RecomputePlan::members`]`[start..end]`.
    pub start: u32,
    pub end: u32,
    /// Memory cost of a speed-centric replay:
    /// `l_f(anchor) + Σ l_f(members) + l_b(last)`.
    pub memcost: u64,
    pub strategy: SegmentStrategy,
}

/// The per-network recomputation plan: a handful of flat lists, so a build
/// allocates the same few times at any depth.
#[derive(Debug, Clone)]
pub struct RecomputePlan {
    /// Per layer: the anchor checkpoint of its segment (None for
    /// checkpoints themselves).
    pub anchor_of: Vec<Option<LayerId>>,
    /// In order of first appearance along the forward route.
    pub segments: Vec<Segment>,
    /// Every segment's members, segment after segment in `segments` order,
    /// each segment's in route (thus dependency-respecting) order.
    pub members: Vec<LayerId>,
    /// Per layer: index into `segments` (None for checkpoints).
    pub segment_of: Vec<Option<usize>>,
}

impl RecomputePlan {
    /// Build the plan. With `RecomputeMode::None` the plan is empty (every
    /// layer is effectively a checkpoint).
    pub fn build(net: &Net, route: &Route, cost: &NetCost, mode: RecomputeMode) -> RecomputePlan {
        let n = net.len();
        let mut plan = RecomputePlan {
            anchor_of: vec![None; n],
            segments: Vec::new(),
            members: Vec::new(),
            segment_of: vec![None; n],
        };
        if mode == RecomputeMode::None {
            return plan;
        }
        let (anchor_of, segment_of) = (&mut plan.anchor_of, &mut plan.segment_of);

        // Anchor resolution in route order: a non-checkpoint inherits the
        // anchor of its (single) producer. By anchor, `at` holds its
        // segment's number — segments are numbered by their first member
        // along the route — and how many members it has.
        let mut at = vec![(usize::MAX, 0u32); n];
        let mut n_segments = 0;
        for id in &route.fwd {
            let layer = net.layer(*id);
            if layer.kind.is_checkpoint() {
                continue;
            }
            assert_eq!(
                layer.prevs.len(),
                1,
                "non-checkpoint layer {} must be single-input",
                layer.name
            );
            let p = layer.prevs[0];
            let anchor = if net.layer(p).kind.is_checkpoint() {
                p
            } else {
                anchor_of[p.0].expect("producers come first along the route")
            };
            anchor_of[id.0] = Some(anchor);
            let (si, count) = &mut at[anchor.0];
            if *si == usize::MAX {
                *si = n_segments;
                n_segments += 1;
            }
            *count += 1;
            segment_of[id.0] = Some(*si);
        }

        // A counting sort over the route: each member goes to the next slot
        // of its segment, whose range starts past the members of every
        // segment numbered before it. Memory cost per segment: the anchor's
        // stored output (the replay seed) + every member output kept by the
        // speed-centric strategy + the backward working set at its end.
        let (mut segments, mut offset) = (Vec::with_capacity(n_segments), 0);
        let mut members = vec![LayerId(0); segment_of.iter().flatten().count()];
        for id in &route.fwd {
            let Some(si) = segment_of[id.0] else { continue };
            if si == segments.len() {
                let anchor = anchor_of[id.0].expect("members have anchors");
                segments.push(Segment {
                    anchor,
                    start: offset,
                    end: offset,
                    memcost: cost.layer(anchor).l_f(),
                    strategy: SegmentStrategy::SpeedCentric,
                });
                offset += at[anchor.0].1;
            }
            let seg = &mut segments[si];
            members[seg.end as usize] = *id;
            seg.end += 1;
            seg.memcost += cost.layer(*id).l_f();
        }
        // `l_peak = max_i(l_i)` is the cost-aware threshold.
        let l_peak = cost.l_peak();
        for seg in &mut segments {
            seg.memcost += cost.layer(members[seg.end as usize - 1]).l_b();
            seg.strategy = match mode {
                RecomputeMode::MemoryCentric => SegmentStrategy::MemoryCentric,
                RecomputeMode::CostAware if seg.memcost > l_peak => SegmentStrategy::MemoryCentric,
                _ => SegmentStrategy::SpeedCentric,
            };
        }
        (plan.segments, plan.members) = (segments, members);
        plan
    }

    /// Segment `si`'s members, in route order.
    pub fn members_of(&self, si: usize) -> &[LayerId] {
        let seg = &self.segments[si];
        &self.members[seg.start as usize..seg.end as usize]
    }

    /// The chain of layers from the anchor (exclusive) to `layer`
    /// (inclusive), in forward order — the minimal replay for a
    /// memory-centric reconstruction of `layer`'s output — into a
    /// caller-owned buffer (cleared first): the planner computes one chain
    /// per memory-centric replay.
    pub fn chain_into(&self, net: &Net, layer: LayerId, chain: &mut Vec<LayerId>) {
        chain.clear();
        chain.push(layer);
        let mut cur = layer;
        while self.anchor_of[cur.0].is_some() {
            let p = net.layer(cur).prevs[0];
            if net.layer(p).kind.is_checkpoint() {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::liveness::LivenessOptions;
    use sn_graph::{LivenessPlan, Shape4};

    /// AlexNet-shaped segment structure:
    /// CONV-[ACT,LRN,POOL]-CONV-[ACT]-FC-[ACT,DROPOUT]-SOFTMAX
    fn seg_net() -> (sn_graph::Net, Route, NetCost) {
        let mut net = sn_graph::Net::new("seg", Shape4::new(4, 3, 16, 16));
        let d = net.data();
        let c1 = net.conv(d, 8, 3, 1, 1);
        let a1 = net.relu(c1);
        let l1 = net.lrn(a1);
        let p1 = net.max_pool(l1, 2, 2, 0);
        let c2 = net.conv(p1, 8, 3, 1, 1);
        let a2 = net.relu(c2);
        let f1 = net.fc(a2, 32);
        let a3 = net.relu(f1);
        let dr = net.dropout(a3, 0.5);
        let f2 = net.fc(dr, 10);
        net.softmax(f2);
        let route = Route::construct(&net);
        let cost = NetCost::of(&net);
        (net, route, cost)
    }

    #[test]
    fn segments_partition_non_checkpoints() {
        let (net, route, cost) = seg_net();
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::CostAware);
        // Segments: [ACT,LRN,POOL] @CONV1, [ACT] @CONV2, [ACT,DROPOUT] @FC1.
        assert_eq!(plan.segments.len(), 3);
        let sizes: Vec<usize> = (0..3).map(|si| plan.members_of(si).len()).collect();
        assert_eq!(sizes, vec![3, 1, 2]);
        // A speed-centric run replays each segment once: 6 extra forwards.
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        // Every non-checkpoint belongs to exactly one segment.
        for layer in net.layers() {
            assert_eq!(
                plan.segment_of[layer.id.0].is_some(),
                !layer.kind.is_checkpoint(),
                "{}",
                layer.name
            );
        }
    }

    #[test]
    fn chains_walk_back_to_the_anchor() {
        let (net, route, cost) = seg_net();
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::CostAware);
        // chain to POOL (layer 4) = [ACT(2), LRN(3), POOL(4)].
        let mut chain = Vec::new();
        plan.chain_into(&net, LayerId(4), &mut chain);
        let ids: Vec<usize> = chain.iter().map(|l| l.0).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        // chain to ACT(2) = [ACT(2)].
        plan.chain_into(&net, LayerId(2), &mut chain);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn none_mode_produces_empty_plan() {
        let (net, route, cost) = seg_net();
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::None);
        assert!(plan.segments.is_empty());
        assert!(plan.anchor_of.iter().all(|a| a.is_none()));
    }

    #[test]
    fn cost_aware_defaults_to_speed_within_l_peak() {
        let (net, route, cost) = seg_net();
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::CostAware);
        for seg in &plan.segments {
            if seg.memcost <= cost.l_peak() {
                assert_eq!(seg.strategy, SegmentStrategy::SpeedCentric);
            } else {
                assert_eq!(seg.strategy, SegmentStrategy::MemoryCentric);
            }
        }
        // Forced modes override.
        let m = RecomputePlan::build(&net, &route, &cost, RecomputeMode::MemoryCentric);
        assert!(m
            .segments
            .iter()
            .all(|s| s.strategy == SegmentStrategy::MemoryCentric));
        let s = RecomputePlan::build(&net, &route, &cost, RecomputeMode::SpeedCentric);
        assert!(s
            .segments
            .iter()
            .all(|s| s.strategy == SegmentStrategy::SpeedCentric));
    }

    #[test]
    fn residual_blocks_anchor_at_joins() {
        // conv -> bn -> relu -> conv -> bn -> eltwise(join) -> relu
        let mut net = sn_graph::Net::new("res", Shape4::new(2, 4, 8, 8));
        let d = net.data();
        let c1 = net.conv(d, 4, 3, 1, 1);
        let b1 = net.bn(c1);
        let r1 = net.relu(b1);
        let c2 = net.conv(r1, 4, 3, 1, 1);
        let b2 = net.bn(c2);
        let e = net.eltwise(&[b2, c1]);
        let r2 = net.relu(e);
        let f = net.fc(r2, 10);
        net.softmax(f);
        let route = Route::construct(&net);
        let cost = NetCost::of(&net);
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::CostAware);
        // bn1/relu1 anchored at conv1; bn2 at conv2; relu2 at the eltwise.
        assert_eq!(plan.anchor_of[b1.0], Some(c1));
        assert_eq!(plan.anchor_of[r1.0], Some(c1));
        assert_eq!(plan.anchor_of[b2.0], Some(c2));
        assert_eq!(plan.anchor_of[e.0], None, "eltwise is a checkpoint");
        assert_eq!(plan.anchor_of[r2.0], Some(e));
    }

    /// Check the structural contract of segments on an arbitrary net:
    /// joins are checkpoints, every segment is a *tree* anchored at its
    /// checkpoint (each member's single producer is the anchor or an
    /// earlier member), members appear in route order, and `memcost`
    /// matches the Table 1 speed-centric formula
    /// `l_f(anchor) + Σ l_f(members) + l_b(last)`.
    fn assert_segment_invariants(net: &sn_graph::Net) {
        let route = Route::construct(net);
        let cost = NetCost::of(net);
        let plan = RecomputePlan::build(net, &route, &cost, RecomputeMode::CostAware);

        for layer in net.layers() {
            if layer.prevs.len() > 1 {
                assert!(
                    layer.kind.is_checkpoint(),
                    "join {} must be a checkpoint",
                    layer.name
                );
                assert!(plan.segment_of[layer.id.0].is_none());
            }
            // Segment membership exactly partitions the non-checkpoints.
            assert_eq!(
                plan.segment_of[layer.id.0].is_some(),
                !layer.kind.is_checkpoint(),
                "{}",
                layer.name
            );
        }

        assert!(!plan.segments.is_empty(), "nets here have cheap layers");
        let mut flat = 0;
        for (si, seg) in plan.segments.iter().enumerate() {
            assert!(net.layer(seg.anchor).kind.is_checkpoint());
            // Segments sit one after another in the flat member list.
            assert_eq!(
                seg.start as usize, flat,
                "segment {si} starts where the last ended"
            );
            flat = seg.end as usize;
            let members = plan.members_of(si);
            assert!(!members.is_empty());
            // Route order within the segment.
            let steps: Vec<usize> = members.iter().map(|m| route.fwd_step(*m)).collect();
            assert!(
                steps.windows(2).all(|w| w[0] < w[1]),
                "members of segment {si} out of route order"
            );
            // Tree property: every member's (single) producer is the anchor
            // or an earlier member of the same segment.
            for (i, m) in members.iter().enumerate() {
                let prevs = &net.layer(*m).prevs;
                assert_eq!(prevs.len(), 1, "member {} must be single-input", m.0);
                let p = prevs[0];
                assert!(
                    p == seg.anchor || members[..i].contains(&p),
                    "member {} of segment {si} hangs off {} which is neither \
                     the anchor nor an earlier member",
                    net.layer(*m).name,
                    net.layer(p).name
                );
            }
            // Table 1 memcost formula.
            let sum_lf: u64 = members.iter().map(|m| cost.layer(*m).l_f()).sum();
            let last = *members.last().unwrap();
            assert_eq!(
                seg.memcost,
                cost.layer(seg.anchor).l_f() + sum_lf + cost.layer(last).l_b(),
                "segment {si} memcost must follow Table 1"
            );
            assert!(members.iter().all(|m| plan.segment_of[m.0] == Some(si)));
        }
        assert_eq!(flat, plan.members.len(), "no member outside a segment");
    }

    #[test]
    fn fanout_below_a_checkpoint_forms_one_tree_segment() {
        // A non-checkpoint (ACT) fans out into two non-checkpoint pooling
        // branches joined by a CONCAT: all three hang off the same conv
        // anchor as ONE tree-shaped segment; the join itself is a
        // checkpoint and member of none.
        let mut net = sn_graph::Net::new("fan", Shape4::new(2, 4, 16, 16));
        let d = net.data();
        let c = net.conv(d, 8, 3, 1, 1);
        let r = net.relu(c);
        let p1 = net.max_pool(r, 2, 2, 0);
        let p2 = net.avg_pool(r, 2, 2, 0);
        let j = net.concat(&[p1, p2]);
        let f = net.fc(j, 10);
        net.softmax(f);
        net.validate().unwrap();
        assert_segment_invariants(&net);

        let route = Route::construct(&net);
        let cost = NetCost::of(&net);
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::CostAware);
        for m in [r, p1, p2] {
            assert_eq!(plan.anchor_of[m.0], Some(c));
        }
        assert_eq!(plan.anchor_of[j.0], None, "concat join is a checkpoint");
        let seg = plan.members_of(plan.segment_of[r.0].unwrap());
        assert_eq!(seg.len(), 3, "one tree segment, not three chains");
        // Memory-centric chains through the tree stop at the fan point.
        let mut chain = Vec::new();
        plan.chain_into(&net, p2, &mut chain);
        assert_eq!(chain, vec![r, p2], "chain walks producers, not siblings");
    }

    #[test]
    fn resnet50_segments_satisfy_the_nonlinear_invariants() {
        // Real residual topology: ELTWISE joins everywhere. Until this PR
        // only linear AlexNet/VGG stubs were exercised here.
        assert_segment_invariants(&sn_models::resnet50(2));
    }

    #[test]
    fn inception_v4_segments_satisfy_the_nonlinear_invariants() {
        // Real inception topology: CONCAT fan-ins over parallel branches.
        assert_segment_invariants(&sn_models::inception_v4(2));
    }

    #[test]
    fn recompute_liveness_shortens_non_checkpoint_lifetimes() {
        // Sanity wiring between the plan and the liveness options.
        let (net, route, _) = seg_net();
        let with = LivenessPlan::analyze(
            &net,
            &route,
            LivenessOptions {
                recompute_non_checkpoints: true,
                ..Default::default()
            },
        );
        let without = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        let (pw, _) = with.peak_resident(0, |_| 0);
        let (po, _) = without.peak_resident(0, |_| 0);
        assert!(
            pw < po,
            "recompute must reduce the analytic peak: {pw} vs {po}"
        );
    }
}
