//! Liveness analysis (§3.2): determine, for every tensor, the step at which
//! it is created and the step after which no subsequent computation needs it,
//! so different tensors can reuse the same physical memory at different time
//! partitions.
//!
//! Two implementations are provided:
//!
//! * the production path computes each tensor's last consumer directly from
//!   the dependency lists (O(E) over graph edges — necessary for the
//!   10⁴-layer ResNets of Table 4);
//! * [`LivenessPlan::in_out_sets`] materializes the paper's explicit per-step
//!   `in`/`out` sets (the O(N²) construction narrated in §3.2 and Fig. 5),
//!   used by tests to cross-validate the fast path.
//!
//! Policy knobs ([`LivenessOptions`]) express the schedules of the baseline
//! and of the emulated frameworks: disabling liveness reproduces the naive
//! `Σ l_f + Σ l_b` allocator, `keep_all_forward` reproduces Caffe/Torch's
//! resident forward tensors, `recompute_non_checkpoints` drops backward
//! dependencies on cheap layers (they will be rebuilt), and `inplace_act`
//! models Torch-style in-place ReLU/Dropout.

use std::collections::HashSet;

use crate::layer::{LayerId, LayerKind};
use crate::net::Net;
use crate::route::Route;

/// Index into [`LivenessPlan::tensors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub usize);

/// What a tensor is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TensorRole {
    /// A layer's forward output.
    FwdOut,
    /// The gradient w.r.t. a layer's output (`dY`).
    Grad,
}

/// Scheduling metadata for one tensor.
#[derive(Debug, Clone)]
pub struct TensorMeta {
    pub id: TensorId,
    /// The layer this tensor belongs to (producer for `FwdOut`, the layer
    /// whose output the gradient refers to for `Grad`).
    pub layer: LayerId,
    pub role: TensorRole,
    pub bytes: u64,
    /// Step at which the tensor is materialized.
    pub created_step: usize,
    /// Last step that reads the tensor under the active policy; freed after.
    pub last_use_step: usize,
    /// Last *forward* step that reads the tensor (offload may release the
    /// device copy only after all forward consumers ran).
    pub fwd_last_use: usize,
    /// Last *backward* step that would read the tensor if recomputation
    /// materializes it (used by the recompute engine's free decisions).
    pub bwd_last_use: Option<usize>,
    /// Checkpoint flag of the owning layer (for `FwdOut`).
    pub is_checkpoint: bool,
    /// Offload candidate flag (CONV/DATA outputs).
    pub offloadable: bool,
}

/// Policy switches for the analysis. `Eq + Hash` so the options can key
/// the planner's shared-analysis cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LivenessOptions {
    /// Master switch: off = the naive baseline (nothing freed mid-iteration).
    pub enabled: bool,
    /// Drop backward dependencies on non-checkpoint outputs — they will be
    /// recomputed (§3.4).
    pub recompute_non_checkpoints: bool,
    /// Keep every forward output resident to the end of the iteration
    /// (Caffe/Torch-style static allocation).
    pub keep_all_forward: bool,
    /// ReLU/Dropout run in place (their outputs alias their inputs).
    pub inplace_act: bool,
    /// Element precision of activations/gradients — sizes every registered
    /// tensor (and, being part of the options, keys the analysis cache so
    /// fp32 and mixed-precision analyses never alias).
    pub precision: crate::precision::Precision,
}

impl Default for LivenessOptions {
    fn default() -> Self {
        LivenessOptions {
            enabled: true,
            recompute_non_checkpoints: false,
            keep_all_forward: false,
            inplace_act: false,
            precision: crate::precision::Precision::fp32(),
        }
    }
}

/// Step-indexed tensor lists in one flat allocation (CSR layout: an offset
/// table over a shared item vector). The planner reads these lists on every
/// step of every compile; packing them flat replaces `n_steps` little heap
/// vectors with two, which is a measurable share of analysis time on deep
/// nets. `lists[s]` indexes to the step's slice.
#[derive(Debug, Clone)]
pub struct StepLists {
    offsets: Vec<u32>,
    items: Vec<TensorId>,
}

impl StepLists {
    /// Build from a per-step visitor: `visit` must call its callback once
    /// per `(step, tensor)` pair, in the desired within-step order, and
    /// behave identically on both invocations (count, then fill).
    fn build(n_steps: usize, mut visit: impl FnMut(&mut dyn FnMut(usize, TensorId))) -> StepLists {
        let mut counts = vec![0u32; n_steps + 1];
        visit(&mut |s, _| counts[s + 1] += 1);
        for i in 0..n_steps {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut items = vec![TensorId(0); *offsets.last().unwrap() as usize];
        visit(&mut |s, t| {
            items[cursor[s] as usize] = t;
            cursor[s] += 1;
        });
        StepLists { offsets, items }
    }

    fn n_steps(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sort each step's list by tensor id and drop duplicates, compacting
    /// the shared item vector in place.
    fn sort_dedup(&mut self) {
        let n_steps = self.n_steps();
        let mut write = 0usize;
        let old_offsets = std::mem::take(&mut self.offsets);
        let mut offsets = Vec::with_capacity(n_steps + 1);
        offsets.push(0u32);
        for s in 0..n_steps {
            let (a, b) = (old_offsets[s] as usize, old_offsets[s + 1] as usize);
            self.items[a..b].sort_unstable_by_key(|t| t.0);
            let mut prev: Option<TensorId> = None;
            for i in a..b {
                let t = self.items[i];
                if prev != Some(t) {
                    self.items[write] = t;
                    write += 1;
                    prev = Some(t);
                }
            }
            offsets.push(write as u32);
        }
        self.items.truncate(write);
        self.offsets = offsets;
    }
}

impl std::ops::Index<usize> for StepLists {
    type Output = [TensorId];

    #[inline]
    fn index(&self, s: usize) -> &[TensorId] {
        &self.items[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// The computed liveness schedule.
#[derive(Debug, Clone)]
pub struct LivenessPlan {
    pub tensors: Vec<TensorMeta>,
    /// Layer → its forward-output tensor.
    pub fwd_out: Vec<TensorId>,
    /// Layer → gradient tensor of its output (None for DATA).
    pub grad_of: Vec<Option<TensorId>>,
    /// Step → tensors materialized at that step.
    pub created_at: StepLists,
    /// Step → tensors whose last use is that step (freeable afterwards).
    pub freed_after: StepLists,
    /// Step → tensors the step's computation *reads* (its output excluded).
    pub step_inputs: StepLists,
}

impl LivenessPlan {
    /// Run the analysis.
    pub fn analyze(net: &Net, route: &Route, options: LivenessOptions) -> LivenessPlan {
        let n = net.len();
        let n_steps = route.total_steps();
        let mut tensors: Vec<TensorMeta> = Vec::with_capacity(2 * n);
        let mut fwd_out: Vec<TensorId> = Vec::with_capacity(n);
        let mut grad_of: Vec<Option<TensorId>> = vec![None; n];

        // --- Create forward-output tensors -------------------------------
        for layer in net.layers() {
            let id = TensorId(tensors.len());
            fwd_out.push(id);
            tensors.push(TensorMeta {
                id,
                layer: layer.id,
                role: TensorRole::FwdOut,
                bytes: layer.out_shape.bytes_of(options.precision.activations),
                created_step: route.fwd_step(layer.id),
                last_use_step: route.fwd_step(layer.id),
                fwd_last_use: route.fwd_step(layer.id),
                bwd_last_use: None,
                is_checkpoint: layer.kind.is_checkpoint(),
                offloadable: layer.kind.is_offload_candidate(),
            });
        }
        debug_assert_eq!(fwd_out.len(), n);

        // In-place aliasing: an Act/Dropout output shares its input's
        // storage. We zero the alias's bytes and redirect its consumers to
        // the alias target, so the target's lifetime covers them.
        let mut alias_target: Vec<usize> = (0..n).collect();
        if options.inplace_act {
            for id in &route.fwd {
                let layer = net.layer(*id);
                if matches!(layer.kind, LayerKind::Act | LayerKind::Dropout { .. }) {
                    let p = layer.prevs[0].0;
                    alias_target[id.0] = alias_target[p];
                    tensors[fwd_out[id.0].0].bytes = 0;
                }
            }
        }
        let resolve = |l: usize| fwd_out[alias_target[l]];

        // --- Gradient tensors ---------------------------------------------
        // Inference routes carry no gradients at all: the whole section is
        // skipped and every `grad_of` entry stays `None`.
        for layer in net.layers() {
            let has_grad = route.has_backward() && !matches!(layer.kind, LayerKind::Data { .. });
            if !has_grad {
                continue;
            }
            // dY_j is first written by the backward of the route-latest
            // consumer (the earliest backward step among `nexts`); a layer
            // with no consumers (SOFTMAX) seeds its own gradient.
            let created = layer
                .nexts
                .iter()
                .map(|k| route.bwd_step(*k))
                .min()
                .unwrap_or_else(|| route.bwd_step(layer.id));
            let id = TensorId(tensors.len());
            grad_of[layer.id.0] = Some(id);
            tensors.push(TensorMeta {
                id,
                layer: layer.id,
                role: TensorRole::Grad,
                bytes: layer.out_shape.bytes_of(options.precision.gradients),
                created_step: created,
                last_use_step: route.bwd_step(layer.id),
                fwd_last_use: 0,
                bwd_last_use: None,
                is_checkpoint: false,
                offloadable: false,
            });
        }

        // --- Consumer analysis for forward outputs ------------------------
        // Forward consumers: the forward steps of `nexts`.
        // Backward consumers: own backward if `bwd_needs_output`, plus each
        // consumer k's backward if `k.bwd_needs_input`.
        for layer in net.layers() {
            let tid = resolve(layer.id.0);
            let mut fwd_last = tensors[tid.0].last_use_step.max(route.fwd_step(layer.id));
            let mut bwd_last: Option<usize> = None;
            for k in &layer.nexts {
                fwd_last = fwd_last.max(route.fwd_step(*k));
                if route.has_backward() && net.layer(*k).kind.bwd_needs_input() {
                    bwd_last = Some(bwd_last.unwrap_or(0).max(route.bwd_step(*k)));
                }
            }
            if route.has_backward() && layer.kind.bwd_needs_output() {
                bwd_last = Some(bwd_last.unwrap_or(0).max(route.bwd_step(layer.id)));
            }

            let meta = &mut tensors[tid.0];
            meta.fwd_last_use = meta.fwd_last_use.max(fwd_last);
            meta.bwd_last_use = match (meta.bwd_last_use, bwd_last) {
                (a, None) => a,
                (None, b) => b,
                (Some(a), Some(b)) => Some(a.max(b)),
            };
            let drop_bwd = options.recompute_non_checkpoints && !meta.is_checkpoint;
            let mut last = fwd_last;
            if !drop_bwd {
                if let Some(b) = meta.bwd_last_use {
                    last = last.max(b);
                }
            }
            meta.last_use_step = meta.last_use_step.max(last);
        }

        // Policy overrides.
        for t in tensors.iter_mut() {
            match t.role {
                TensorRole::FwdOut => {
                    if !options.enabled || options.keep_all_forward {
                        t.last_use_step = n_steps - 1;
                    }
                }
                TensorRole::Grad => {
                    if !options.enabled {
                        t.last_use_step = n_steps - 1;
                    }
                }
            }
            debug_assert!(t.last_use_step >= t.created_step);
        }

        // --- Per-step schedules -------------------------------------------
        let created_at = StepLists::build(n_steps, |put| {
            for t in &tensors {
                if t.bytes == 0 {
                    continue; // aliases occupy no storage of their own
                }
                put(t.created_step, t.id);
            }
        });
        let freed_after = StepLists::build(n_steps, |put| {
            for t in &tensors {
                if t.bytes == 0 {
                    continue;
                }
                put(t.last_use_step, t.id);
            }
        });

        // --- Step input lists (what each computation reads) ----------------
        let mut step_inputs = StepLists::build(n_steps, |put| {
            for layer in net.layers() {
                let fs = route.fwd_step(layer.id);
                for p in &layer.prevs {
                    put(fs, resolve(p.0));
                }
                if !route.has_backward() {
                    continue; // inference: forward reads only
                }
                let bs = route.bwd_step(layer.id);
                if let Some(g) = grad_of[layer.id.0] {
                    // Not an input for its creating step (SOFTMAX seeds it),
                    // but every other layer reads its accumulated output
                    // gradient.
                    if tensors[g.0].created_step < bs {
                        put(bs, g);
                    }
                }
                if layer.kind.bwd_needs_output() {
                    put(bs, resolve(layer.id.0));
                }
                if layer.kind.bwd_needs_input() {
                    for p in &layer.prevs {
                        put(bs, resolve(p.0));
                    }
                }
                // Backward also reads the grads of prevs it accumulates
                // into, when they already exist (created by an earlier
                // backward step).
                for p in &layer.prevs {
                    if let Some(g) = grad_of[p.0] {
                        if tensors[g.0].created_step < bs {
                            put(bs, g);
                        }
                    }
                }
            }
        });
        step_inputs.sort_dedup();

        LivenessPlan {
            tensors,
            fwd_out,
            grad_of,
            created_at,
            freed_after,
            step_inputs,
        }
    }

    /// Analytic peak resident bytes: walk the schedule accumulating live
    /// bytes, adding `transient(step)` (workspaces, weight gradients) and a
    /// constant `always_resident` (weights). Returns `(peak, step_of_peak)`.
    pub fn peak_resident<F: Fn(usize) -> u64>(
        &self,
        always_resident: u64,
        transient: F,
    ) -> (u64, usize) {
        let mut live = 0u64;
        let mut peak = 0u64;
        let mut peak_step = 0usize;
        for s in 0..self.created_at.n_steps() {
            for t in &self.created_at[s] {
                live += self.tensors[t.0].bytes;
            }
            let resident = always_resident + live + transient(s);
            if resident > peak {
                peak = resident;
                peak_step = s;
            }
            for t in &self.freed_after[s] {
                live -= self.tensors[t.0].bytes;
            }
        }
        (peak, peak_step)
    }

    /// The paper-literal O(N²) in/out-set construction (Fig. 5): for every
    /// step, the set of live tensors before (`in`) and after (`out`) the
    /// step's computation. Exponential in nothing, quadratic in steps — use
    /// on small networks (tests) only.
    pub fn in_out_sets(&self) -> Vec<(HashSet<TensorId>, HashSet<TensorId>)> {
        let n_steps = self.created_at.n_steps();
        let mut sets = Vec::with_capacity(n_steps);
        let mut live: HashSet<TensorId> = HashSet::new();
        for s in 0..n_steps {
            let in_set = live.clone();
            for t in &self.created_at[s] {
                live.insert(*t);
            }
            // Eliminate tensors no subsequent step needs: scan the future
            // (this is the N(N−1)/2 check of §3.2).
            let mut out_set = live.clone();
            for t in live.clone() {
                let needed_later = (s + 1..n_steps).any(|fut| {
                    self.step_inputs[fut].contains(&t) || self.created_at[fut].contains(&t)
                });
                if !needed_later {
                    out_set.remove(&t);
                }
            }
            live = out_set.clone();
            sets.push((in_set, out_set));
        }
        sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_tensor::Shape4;

    /// CONV -> ACT -> POOL -> FC -> SOFTMAX on top of DATA.
    fn small_net() -> (Net, Route) {
        let mut net = Net::new("small", Shape4::new(2, 3, 8, 8));
        let d = net.data();
        let c = net.conv(d, 4, 3, 1, 1);
        let a = net.relu(c);
        let p = net.max_pool(a, 2, 2, 0);
        let f = net.fc(p, 10);
        net.softmax(f);
        let route = Route::construct(&net);
        (net, route)
    }

    #[test]
    fn forward_tensor_lifetimes_extend_to_backward_consumers() {
        let (net, route) = small_net();
        let plan = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        // CONV output (layer 1) is read by ACT fwd (step 2) and by ACT's
        // backward (input-formulated ReLU), which is the later step.
        let conv_out = plan.fwd_out[1];
        assert_eq!(
            plan.tensors[conv_out.0].last_use_step,
            route.bwd_step(crate::layer::LayerId(2))
        );
        // ACT output: read by POOL fwd (3) and by POOL's backward (max-pool
        // re-derives its routing from the input).
        let act_out = plan.fwd_out[2];
        let expect = route.bwd_step(crate::layer::LayerId(3));
        assert_eq!(plan.tensors[act_out.0].last_use_step, expect);
    }

    #[test]
    fn baseline_keeps_everything_to_the_end() {
        let (net, route) = small_net();
        let opts = LivenessOptions {
            enabled: false,
            ..Default::default()
        };
        let plan = LivenessPlan::analyze(&net, &route, opts);
        let last = route.total_steps() - 1;
        for t in &plan.tensors {
            assert_eq!(t.last_use_step, last);
        }
        // Baseline peak equals sum of all tensor bytes.
        let total: u64 = plan.tensors.iter().map(|t| t.bytes).sum();
        let (peak, _) = plan.peak_resident(0, |_| 0);
        assert_eq!(peak, total);
    }

    #[test]
    fn liveness_strictly_improves_on_baseline() {
        let (net, route) = small_net();
        let base = LivenessPlan::analyze(
            &net,
            &route,
            LivenessOptions {
                enabled: false,
                ..Default::default()
            },
        );
        let live = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        let (pb, _) = base.peak_resident(0, |_| 0);
        let (pl, _) = live.peak_resident(0, |_| 0);
        assert!(pl < pb, "liveness {pl} must beat baseline {pb}");
    }

    #[test]
    fn recompute_drops_backward_deps_of_non_checkpoints() {
        let (net, route) = small_net();
        let opts = LivenessOptions {
            recompute_non_checkpoints: true,
            ..Default::default()
        };
        let plan = LivenessPlan::analyze(&net, &route, opts);
        // ACT output (non-checkpoint): last use becomes its last *forward*
        // consumer (POOL fwd at step 3).
        let act_out = plan.fwd_out[2];
        assert_eq!(plan.tensors[act_out.0].last_use_step, 3);
        // But its backward need is remembered for the recompute engine.
        assert!(plan.tensors[act_out.0].bwd_last_use.is_some());
        // CONV output (checkpoint) keeps its backward lifetime: ACT's
        // backward still reads it.
        let conv_out = plan.fwd_out[1];
        assert_eq!(
            plan.tensors[conv_out.0].last_use_step,
            route.bwd_step(LayerId(2))
        );
    }

    #[test]
    fn gradients_live_from_consumer_backward_to_own_backward() {
        let (net, route) = small_net();
        let plan = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        // Grad of CONV output: created by ACT's backward, consumed by CONV's.
        let g = plan.grad_of[1].unwrap();
        assert_eq!(plan.tensors[g.0].created_step, route.bwd_step(LayerId(2)));
        assert_eq!(plan.tensors[g.0].last_use_step, route.bwd_step(LayerId(1)));
        // DATA has no gradient.
        assert!(plan.grad_of[0].is_none());
    }

    #[test]
    fn in_out_sets_match_fast_path() {
        let (net, route) = small_net();
        let plan = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        let sets = plan.in_out_sets();
        let n_steps = route.total_steps();
        assert_eq!(sets.len(), n_steps);
        // Replay the step lists the planner reads and compare with the
        // literal sets: live during a step is `in ∪ created_at`, holding
        // every input the step reads; `freed_after` leaves the out-set.
        let mut live = HashSet::new();
        for (s, (in_set, out_set)) in sets.iter().enumerate() {
            assert_eq!(*in_set, live, "step {s}");
            live.extend(plan.created_at[s].iter().copied());
            assert!(
                plan.step_inputs[s].iter().all(|t| live.contains(t)),
                "step {s}"
            );
            for t in &plan.freed_after[s] {
                live.remove(t);
            }
            assert_eq!(*out_set, live, "step {s}");
        }
        // Initial in-set and final out-set are empty (Fig. 5).
        assert!(sets[0].0.is_empty());
        assert!(sets[n_steps - 1].1.is_empty());
    }

    #[test]
    fn inplace_act_zeroes_alias_bytes_and_extends_target() {
        let (net, route) = small_net();
        let opts = LivenessOptions {
            inplace_act: true,
            ..Default::default()
        };
        let plan = LivenessPlan::analyze(&net, &route, opts);
        let act_out = plan.fwd_out[2];
        assert_eq!(plan.tensors[act_out.0].bytes, 0);
        // Conv output (the alias target) now carries ACT's lifetime: ACT bwd
        // reads "its output" which is physically the conv buffer, and POOL
        // bwd reads its input likewise.
        let conv_out = plan.fwd_out[1];
        assert_eq!(
            plan.tensors[conv_out.0].last_use_step,
            route.bwd_step(LayerId(2))
        );
        // In-place execution never worsens the peak, and strictly reduces
        // the total bytes the schedule materializes.
        let (inplace_peak, _) = plan.peak_resident(0, |_| 0);
        let normal = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        let (normal_peak, _) = normal.peak_resident(0, |_| 0);
        assert!(inplace_peak <= normal_peak);
        let total = |p: &LivenessPlan| p.tensors.iter().map(|t| t.bytes).sum::<u64>();
        assert!(total(&plan) < total(&normal));
    }

    #[test]
    fn keep_all_forward_matches_caffe_style() {
        let (net, route) = small_net();
        let opts = LivenessOptions {
            keep_all_forward: true,
            ..Default::default()
        };
        let plan = LivenessPlan::analyze(&net, &route, opts);
        for layer in net.layers() {
            let t = &plan.tensors[plan.fwd_out[layer.id.0].0];
            assert_eq!(t.last_use_step, route.total_steps() - 1);
        }
        // Gradients still die early.
        let g = plan.grad_of[1].unwrap();
        assert!(plan.tensors[g.0].last_use_step < route.total_steps() - 1);
    }

    #[test]
    fn step_inputs_are_consistent_with_dependencies() {
        let (net, route) = small_net();
        let plan = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        // FC fwd (step 4) reads POOL output.
        let pool_out = plan.fwd_out[3];
        assert!(plan.step_inputs[4].contains(&pool_out));
        // CONV bwd reads: grad of conv out, data out (bwd needs input).
        let bs = route.bwd_step(LayerId(1));
        let g = plan.grad_of[1].unwrap();
        let data_out = plan.fwd_out[0];
        assert!(plan.step_inputs[bs].contains(&g));
        assert!(plan.step_inputs[bs].contains(&data_out));
        // No step reads a tensor before it exists.
        for s in 0..route.total_steps() {
            for t in &plan.step_inputs[s] {
                assert!(
                    plan.tensors[t.0].created_step <= s,
                    "step {s} reads tensor created at {}",
                    plan.tensors[t.0].created_step
                );
            }
        }
    }

    #[test]
    fn inference_liveness_has_no_grads_and_frees_at_last_forward_reader() {
        let (net, _) = small_net();
        let route = Route::construct_inference(&net);
        let plan = LivenessPlan::analyze(&net, &route, LivenessOptions::default());
        assert_eq!(route.total_steps(), net.len());
        // No gradient tensors at all.
        assert!(plan.grad_of.iter().all(|g| g.is_none()));
        assert!(plan
            .tensors
            .iter()
            .all(|t| t.role == crate::liveness::TensorRole::FwdOut));
        // Every output dies at its last forward consumer (softmax at its own
        // step — nothing reads it).
        let conv_out = plan.fwd_out[1];
        assert_eq!(plan.tensors[conv_out.0].last_use_step, 2); // ACT fwd
        let sm_out = plan.fwd_out[5];
        assert_eq!(plan.tensors[sm_out.0].last_use_step, 5);
        // The forward-only peak undercuts the training peak.
        let train =
            LivenessPlan::analyze(&net, &Route::construct(&net), LivenessOptions::default());
        let (pi, _) = plan.peak_resident(0, |_| 0);
        let (pt, _) = train.peak_resident(0, |_| 0);
        assert!(pi < pt, "inference {pi} must undercut training {pt}");
        // All steps resolve; the final out-set is empty.
        let sets = plan.in_out_sets();
        assert!(sets[route.total_steps() - 1].1.is_empty());
    }
}
