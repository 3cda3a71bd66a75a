//! Algorithm 1: execution-route construction for nonlinear architectures.
//!
//! The route is a depth-first exploration from the DATA layer, except that a
//! join may only be entered once *all* of its producers have executed; each
//! layer carries a counter of satisfied input dependencies (lines 4–6 of
//! Alg. 1). One training iteration is then `N` forward steps in route order
//! followed by `N` backward steps in reverse route order (Fig. 6's left/right
//! step digits).

use crate::layer::LayerId;
use crate::net::Net;

/// Phase of a step within an iteration: the simulator's trace phase, so a
/// step's phase is its record's.
pub use sn_sim::trace::Phase as StepPhase;

/// What kind of pass the route schedules.
///
/// A *training* route runs `N` forward steps then `N` backward steps (the
/// paper's Fig. 6); an *inference* route is forward-only — `N` steps, no
/// gradients, every output freeable at its last forward reader. The planner
/// compiles very different [`crate::LivenessPlan`]s from the two kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    Training,
    Inference,
}

/// One scheduled computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Global index in `0..2N`.
    pub index: usize,
    pub layer: LayerId,
    pub phase: StepPhase,
}

/// The constructed execution order.
#[derive(Debug, Clone)]
pub struct Route {
    /// Forward order (length `N`).
    pub fwd: Vec<LayerId>,
    /// Backward order — the reverse of `fwd` (empty for inference routes).
    pub bwd: Vec<LayerId>,
    fwd_step: Vec<usize>,
    bwd_step: Vec<usize>,
    kind: RouteKind,
}

impl Route {
    /// Run Algorithm 1 on `net`.
    ///
    /// Implemented with an explicit stack (ResNet-2500 produces ~10⁴-layer
    /// routes; recursion depth would track network depth). Children are
    /// pushed in reverse so exploration order matches the recursive DFS of
    /// the paper's pseudo-code.
    pub fn construct(net: &Net) -> Route {
        Route::construct_kind(net, RouteKind::Training)
    }

    /// A forward-only route over the same Algorithm 1 order: `N` steps, no
    /// backward half. The basis of inference [`MemoryPlan`]s — outputs are
    /// freed at their last *forward* reader and no gradients ever exist.
    ///
    /// [`MemoryPlan`]: ../sn_runtime/plan/struct.MemoryPlan.html
    pub fn construct_inference(net: &Net) -> Route {
        Route::construct_kind(net, RouteKind::Inference)
    }

    fn construct_kind(net: &Net, kind: RouteKind) -> Route {
        let n = net.len();
        let mut counter = vec![0usize; n];
        let mut fwd: Vec<LayerId> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        let mut stack: Vec<LayerId> = vec![net.data()];

        while let Some(id) = stack.pop() {
            let layer = net.layer(id);
            counter[id.0] += 1;
            // A join proceeds only when every producer has finished
            // (`layer->get_counter < size of prev layers` ⇒ return).
            if counter[id.0] < layer.prevs.len() {
                continue;
            }
            debug_assert!(!placed[id.0], "layer {} scheduled twice", layer.name);
            placed[id.0] = true;
            fwd.push(id);
            // Reverse push keeps the first `next` on top of the stack,
            // matching the recursive exploration order.
            for next in layer.nexts.iter().rev() {
                stack.push(*next);
            }
        }

        assert_eq!(
            fwd.len(),
            n,
            "route construction reached {} of {} layers — disconnected graph?",
            fwd.len(),
            n
        );

        let mut fwd_step = vec![0usize; n];
        let mut bwd_step = vec![0usize; n];
        for (s, id) in fwd.iter().enumerate() {
            fwd_step[id.0] = s;
            bwd_step[id.0] = 2 * n - 1 - s;
        }
        let bwd: Vec<LayerId> = match kind {
            RouteKind::Training => fwd.iter().rev().copied().collect(),
            RouteKind::Inference => Vec::new(),
        };
        Route {
            fwd,
            bwd,
            fwd_step,
            bwd_step,
            kind,
        }
    }

    /// Does this route schedule a backward half?
    #[inline]
    pub fn has_backward(&self) -> bool {
        self.kind == RouteKind::Training
    }

    /// Total step count: `2N` for training, `N` for inference.
    pub fn total_steps(&self) -> usize {
        match self.kind {
            RouteKind::Training => 2 * self.fwd.len(),
            RouteKind::Inference => self.fwd.len(),
        }
    }

    /// Forward step index of a layer (`0..N`).
    #[inline]
    pub fn fwd_step(&self, id: LayerId) -> usize {
        self.fwd_step[id.0]
    }

    /// Backward step index of a layer (`N..2N`). Only meaningful on training
    /// routes — inference routes have no backward half.
    #[inline]
    pub fn bwd_step(&self, id: LayerId) -> usize {
        debug_assert!(self.has_backward(), "inference routes have no backward");
        self.bwd_step[id.0]
    }

    /// The step at global index `i`.
    #[inline]
    pub fn step(&self, i: usize) -> Step {
        let n = self.fwd.len();
        if i < n {
            Step {
                index: i,
                layer: self.fwd[i],
                phase: StepPhase::Forward,
            }
        } else {
            debug_assert!(self.has_backward());
            Step {
                index: i,
                layer: self.bwd[i - n],
                phase: StepPhase::Backward,
            }
        }
    }

    /// Verify the route is a valid topological order of the net.
    pub fn validate(&self, net: &Net) -> Result<(), String> {
        for (s, id) in self.fwd.iter().enumerate() {
            for p in &net.layer(*id).prevs {
                if self.fwd_step(*p) >= s {
                    return Err(format!(
                        "layer {} scheduled before its input {}",
                        net.layer(*id).name,
                        net.layer(*p).name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;
    use sn_tensor::Shape4;

    fn linear_net() -> Net {
        let mut net = Net::new("lin", Shape4::new(1, 3, 8, 8));
        let d = net.data();
        let c = net.conv(d, 4, 3, 1, 1);
        let r = net.relu(c);
        let p = net.max_pool(r, 2, 2, 0);
        let f = net.fc(p, 10);
        net.softmax(f);
        net
    }

    /// The nested-fan network of Fig. 6: `a` fans to `{b, c, d}`-style
    /// branches with a second fan nested inside one branch.
    fn nested_fan_net() -> (Net, Vec<LayerId>) {
        let mut net = Net::new("fig6", Shape4::new(1, 4, 8, 8));
        let a = net.data();
        // First fan: branch 1 = b -> e_pre, branch 2 = c, d
        let b = net.conv(a, 4, 3, 1, 1);
        let c = net.conv(a, 4, 3, 1, 1);
        let d = net.conv(a, 4, 3, 1, 1);
        let e = net.concat(&[b, c, d]);
        // Nested fan out of e: f, g, h joined at i.
        let f = net.conv(e, 4, 3, 1, 1);
        let g = net.conv(e, 4, 3, 1, 1);
        let h = net.conv(e, 4, 3, 1, 1);
        let i = net.concat(&[f, g, h]);
        let j = net.softmax(i);
        (net, vec![a, b, c, d, e, f, g, h, i, j])
    }

    #[test]
    fn linear_route_is_sequential() {
        let net = linear_net();
        let r = Route::construct(&net);
        r.validate(&net).unwrap();
        let order: Vec<usize> = r.fwd.iter().map(|l| l.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(r.total_steps(), 12);
    }

    #[test]
    fn backward_is_reverse_of_forward() {
        let net = linear_net();
        let r = Route::construct(&net);
        let mut rev = r.fwd.clone();
        rev.reverse();
        assert_eq!(r.bwd, rev);
        // Step indices mirror: fwd k <-> bwd 2N-1-k.
        for id in &r.fwd {
            assert_eq!(r.bwd_step(*id), r.total_steps() - 1 - r.fwd_step(*id));
        }
    }

    #[test]
    fn join_waits_for_all_producers() {
        let (net, ids) = nested_fan_net();
        let r = Route::construct(&net);
        r.validate(&net).unwrap();
        let pos = |l: LayerId| r.fwd_step(l);
        let (b, c, d, e) = (ids[1], ids[2], ids[3], ids[4]);
        assert!(pos(e) > pos(b) && pos(e) > pos(c) && pos(e) > pos(d));
        // Nested join i waits for f, g, h (the "prerequisites for executing
        // i" of Fig. 6).
        let (f, g, h, i) = (ids[5], ids[6], ids[7], ids[8]);
        assert!(pos(i) > pos(f) && pos(i) > pos(g) && pos(i) > pos(h));
    }

    #[test]
    fn every_layer_scheduled_exactly_once() {
        let (net, _) = nested_fan_net();
        let r = Route::construct(&net);
        let mut seen = vec![false; net.len()];
        for id in &r.fwd {
            assert!(!seen[id.0], "duplicate schedule");
            seen[id.0] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn dfs_explores_first_branch_first() {
        let (net, ids) = nested_fan_net();
        let r = Route::construct(&net);
        // b was added before c and d, so DFS visits it first.
        assert!(r.fwd_step(ids[1]) < r.fwd_step(ids[2]));
        assert!(r.fwd_step(ids[2]) < r.fwd_step(ids[3]));
    }

    #[test]
    fn residual_join_routes_validly() {
        let mut net = Net::new("res", Shape4::new(1, 4, 8, 8));
        let d = net.data();
        let c1 = net.conv(d, 4, 3, 1, 1);
        let b1 = net.bn(c1);
        let r1 = net.relu(b1);
        let c2 = net.conv(r1, 4, 3, 1, 1);
        let b2 = net.bn(c2);
        let e = net.eltwise(&[b2, c1]); // join: skip from c1
        let r2 = net.relu(e);
        let f = net.fc(r2, 10);
        net.softmax(f);
        let r = Route::construct(&net);
        r.validate(&net).unwrap();
        assert_eq!(r.fwd.len(), net.len());
    }

    #[test]
    fn inference_route_is_forward_only() {
        let net = linear_net();
        let r = Route::construct_inference(&net);
        r.validate(&net).unwrap();
        assert_eq!(r.kind, RouteKind::Inference);
        assert!(!r.has_backward());
        assert_eq!(r.total_steps(), net.len());
        assert!(r.bwd.is_empty());
        let steps: Vec<Step> = (0..r.total_steps()).map(|i| r.step(i)).collect();
        assert!(steps.iter().all(|s| s.phase == StepPhase::Forward));
        // Same Algorithm 1 forward order as the training route.
        assert_eq!(r.fwd, Route::construct(&net).fwd);
    }

    #[test]
    fn steps_iterator_covers_both_phases() {
        let net = linear_net();
        let r = Route::construct(&net);
        let steps: Vec<Step> = (0..r.total_steps()).map(|i| r.step(i)).collect();
        assert_eq!(steps.len(), 12);
        assert!(steps[..6].iter().all(|s| s.phase == StepPhase::Forward));
        assert!(steps[6..].iter().all(|s| s.phase == StepPhase::Backward));
        assert_eq!(steps[5].layer, steps[6].layer, "turnaround at softmax");
        // Data layer guard: first fwd is DATA and last bwd is DATA.
        assert!(matches!(
            net.layer(steps[0].layer).kind,
            LayerKind::Data { .. }
        ));
        assert_eq!(steps[11].layer, steps[0].layer);
    }
}
