//! The **reference planner**: the pre-optimization compiler walk, kept
//! verbatim.
//!
//! This is the planner exactly as it shipped before the indexed-allocator /
//! O(1)-cache / flat-op-stream work: per-step `Vec` clones of the liveness
//! lists, a layer-name `String` clone per ladder allocation, a fresh `Vec`
//! from every `reapable` drain, a `HashMap`-keyed recompute-free schedule —
//! driving the linear-scan [`sn_mempool::LinearPool`] and the `Vec`-backed
//! Tensor Cache list ([`crate::utp::reference::VecCache`]). Nothing is
//! cached or shared; every compile pays the full graph analyses.
//!
//! One job: the `reference_compile_is_byte_identical` test asserts the
//! optimized planner produces **byte-identical plans** (same peaks, same op
//! stream, same counters) — a perf pass may change time, never bytes.
//!
//! Deliberately not exported from the crate root; reach it through
//! [`crate::plan::compile_reference`].

use std::collections::HashMap;

use sn_graph::liveness::{LivenessPlan, TensorId, TensorRole};
use sn_graph::{LayerId, Net, NetCost, Route, StepPhase};
use sn_sim::{AllocGrant, DeviceAllocator, DeviceSpec, SimTime};

use crate::convalgo::{self, AlgoChoice};
use crate::device::Device;
use crate::executor::{Counters, ExecError};
use crate::plan::{MemoryPlan, OpRange, PlanOp, StepPlan, WorkspacePlan};
use crate::policy::{Policy, WorkspacePolicy};
use crate::recompute::{RecomputePlan, SegmentStrategy};
use crate::tiers::Tier;
use crate::utp::{Residence, Utp};

/// A step as the old planner built it: per-step op vectors.
struct RefStep {
    layer: LayerId,
    phase: StepPhase,
    duration: SimTime,
    pre: Vec<PlanOp>,
    post: Vec<PlanOp>,
    workspace: Option<WorkspacePlan>,
}

/// Run the reference walk and return the plan in the current (flat-stream)
/// representation. The flattening happens once at the end and is counted in
/// the baseline's time — it is negligible against the walk itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_reference(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    route: &Route,
    cost: &NetCost,
    liveness: &LivenessPlan,
    rplan: &RecomputePlan,
) -> Result<MemoryPlan, ExecError> {
    let inference = !route.has_backward();
    let planner = Planner {
        net,
        spec,
        route,
        cost,
        liveness,
        rplan,
        policy,
        inference,
        dev: Device::new(
            spec.clone(),
            crate::policy::AllocatorKind::LinearPool,
            policy.tiers,
        ),
        utp: Utp::new_reference(liveness.tensors.len()),
        counters: Counters::default(),
        recomputed_free_at: HashMap::new(),
        ops: Vec::new(),
        peak_step: 0,
        peak_seen: 0,
        cur_step: 0,
        compute_ns: 0,
        h2d_ns: 0,
        d2h_ns: 0,
    };
    planner.run()
}

/// The pre-optimization compiler (see module docs; do not "fix" its
/// inefficiencies — being slow the old way is its purpose).
struct Planner<'a> {
    net: &'a Net,
    spec: &'a DeviceSpec,
    route: &'a Route,
    cost: &'a NetCost,
    liveness: &'a LivenessPlan,
    rplan: &'a RecomputePlan,
    policy: Policy,
    inference: bool,
    dev: Device,
    utp: Utp,
    counters: Counters,
    /// Recomputed tensors to drop at the end of a given step.
    recomputed_free_at: HashMap<usize, Vec<TensorId>>,
    /// Op accumulator for the current pre/post section.
    ops: Vec<PlanOp>,
    peak_step: usize,
    peak_seen: u64,
    cur_step: usize,
    compute_ns: u64,
    h2d_ns: u64,
    d2h_ns: u64,
}

impl<'a> Planner<'a> {
    fn meta(&self, t: TensorId) -> &sn_graph::TensorMeta {
        &self.liveness.tensors[t.0]
    }

    fn tier_gbps(&self, t: TensorId) -> f64 {
        let tier = self.utp.tier_of(t);
        match tier {
            Tier::LocalHost if !self.policy.pinned_host => tier.gbps() * self.spec.unpinned_factor,
            _ => tier.gbps(),
        }
    }

    fn transfer_ns(&self, t: TensorId) -> u64 {
        sn_sim::time::transfer_time(self.meta(t).bytes, self.tier_gbps(t)).as_ns()
    }

    fn charged_alloc(&mut self, bytes: u64) -> Result<AllocGrant, sn_sim::AllocError> {
        let g = self.dev.alloc_charged(bytes)?;
        let used = self.dev.alloc.used();
        if used > self.peak_seen {
            self.peak_seen = used;
            self.peak_step = self.cur_step;
        }
        Ok(g)
    }

    fn release_device(&mut self, t: TensorId) {
        self.ops.push(PlanOp::ReleaseDevice(t));
        self.utp.release_device(t, &mut self.dev);
    }

    fn drop_device_copy(&mut self, t: TensorId) {
        let st = self.utp.state(t);
        if st.lock > 0 || st.offloading || st.residence() != Residence::Device {
            return;
        }
        self.release_device(t);
    }

    fn drain_reapable(&mut self, step: usize) {
        // The old per-call `Vec` allocation, preserved.
        for t in self.utp.reapable(self.liveness, step) {
            self.counters.reaps += 1;
            self.release_device(t);
        }
    }

    fn reclaim_some(&mut self, step: usize) -> Result<bool, ExecError> {
        if let Some(t) = self.utp.first_reapable(self.liveness, step) {
            self.counters.reaps += 1;
            self.release_device(t);
            return Ok(true);
        }
        if self.policy.tensor_cache {
            return self.evict_one(step);
        }
        Ok(false)
    }

    fn evict_one(&mut self, step: usize) -> Result<bool, ExecError> {
        let Some(victim) = self.utp.pick_victim(self.policy.cache_policy) else {
            return Ok(false);
        };
        let meta = self.meta(victim);
        let needed_later =
            meta.last_use_step >= step || meta.bwd_last_use.is_some_and(|b| b >= step);
        let bytes = meta.bytes;
        let st = self.utp.state(victim);
        debug_assert_eq!(st.residence(), Residence::Device);
        if needed_later && !st.host_valid {
            if !self.utp.ensure_host_slot(victim, bytes, &mut self.dev) {
                return Err(ExecError::HostExhausted { requested: bytes });
            }
            self.d2h_ns += self.transfer_ns(victim);
            self.utp.mark_offloading(victim, true);
            self.utp.lru_remove(victim);
            self.ops.push(PlanOp::Offload {
                t: victim,
                evict: true,
            });
            self.counters.offloads += 1;
        } else {
            self.release_device(victim);
        }
        self.counters.evictions += 1;
        Ok(true)
    }

    fn ladder_alloc(
        &mut self,
        bytes: u64,
        step: usize,
        what: &str,
    ) -> Result<AllocGrant, ExecError> {
        loop {
            match self.charged_alloc(bytes) {
                Ok(g) => {
                    self.counters.alloc_grants += 1;
                    return Ok(g);
                }
                Err(_) => {
                    self.counters.ladder_rungs += 1;
                    if self.reclaim_some(step)? {
                        continue;
                    }
                    return Err(ExecError::Oom {
                        step,
                        layer: what.into(),
                        requested: bytes,
                        capacity: self.dev.alloc.capacity(),
                    });
                }
            }
        }
    }

    fn ensure_present(&mut self, t: TensorId, step: usize) -> Result<(), ExecError> {
        match self.utp.state(t).residence() {
            Residence::Device => {
                self.counters.cache_hits += 1;
                self.utp.lru_touch(t);
                Ok(())
            }
            Residence::Host => {
                self.counters.cache_misses += 1;
                let bytes = self.meta(t).bytes;
                // The old per-allocation layer-name String clone, preserved.
                let name = self.net.layer(self.meta(t).layer).name.clone();
                let g = self.ladder_alloc(bytes, step, &name)?;
                self.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.h2d_ns += self.transfer_ns(t);
                self.ops.push(PlanOp::Fetch(t));
                self.counters.prefetches += 1;
                Ok(())
            }
            Residence::None => {
                let meta = self.meta(t);
                assert_eq!(
                    meta.role,
                    TensorRole::FwdOut,
                    "tensor {:?} of {} absent at step {step}",
                    meta.role,
                    self.net.layer(meta.layer).name
                );
                let layer = meta.layer;
                self.recompute_for(layer, step)?;
                assert_eq!(
                    self.utp.state(t).residence(),
                    Residence::Device,
                    "replay of {} at step {step} did not leave its output on the device",
                    self.net.layer(layer).name
                );
                Ok(())
            }
        }
    }

    fn recompute_for(&mut self, layer: LayerId, step: usize) -> Result<(), ExecError> {
        let si = self.rplan.segment_of[layer.0]
            .unwrap_or_else(|| panic!("{} is not recomputable", self.net.layer(layer).name));
        let (strategy, anchor) = {
            let seg = &self.rplan.segments[si];
            (seg.strategy, seg.anchor)
        };

        let anchor_t = self.liveness.fwd_out[anchor.0];
        self.ensure_present(anchor_t, step)?;
        self.utp.lock(anchor_t);

        // The old per-replay member-list clone, preserved.
        let members: Vec<LayerId> = match strategy {
            SegmentStrategy::SpeedCentric => self.rplan.segments[si].members.clone(),
            SegmentStrategy::MemoryCentric => self.rplan.chain_to(self.net, layer),
        };
        let target = *members.last().unwrap_or(&layer);
        let mut prev_link: Option<TensorId> = None;
        // Every member passed stays pinned until the replay ends, the
        // anchor until its last direct reader has run (see `plan.rs`).
        let last_anchor_reader = members
            .iter()
            .rposition(|&m| self.net.layer(m).prevs.contains(&anchor))
            .unwrap_or(0);
        let mut anchor_pinned = true;
        for (i, &m) in members.iter().enumerate() {
            if anchor_pinned && i > last_anchor_reader {
                self.utp.unlock(anchor_t);
                anchor_pinned = false;
            }
            let mt = self.liveness.fwd_out[m.0];
            match self.utp.state(mt).residence() {
                Residence::Device => {
                    self.utp.lock(mt);
                    continue;
                }
                Residence::Host => {
                    self.ensure_present(mt, step)?;
                    self.utp.lock(mt);
                    continue;
                }
                Residence::None => {}
            }
            let bytes = self.meta(mt).bytes;
            let name = self.net.layer(m).name.clone();
            let g = self.ladder_alloc(bytes, step, &name)?;
            self.utp.mark_device(mt, g.id, self.policy.tensor_cache);
            self.utp.lock(mt);
            self.ops.push(PlanOp::Alloc(mt));
            for &p in &self.net.layer(m).prevs {
                assert_eq!(
                    self.utp.state(self.liveness.fwd_out[p.0]).residence(),
                    Residence::Device,
                    "replay of {} at step {step} reads {} off the device",
                    self.net.layer(m).name,
                    self.net.layer(p).name
                );
            }
            self.ops.push(PlanOp::Recompute(m));
            let lk = &self.net.layer(m).kind;
            self.compute_ns += self.cost.layer(m).fwd_time(lk, self.spec, 1.0).as_ns();
            self.counters.recompute_forwards += 1;

            match strategy {
                SegmentStrategy::SpeedCentric => {
                    let free_at = self.meta(mt).bwd_last_use.unwrap_or(step).max(step);
                    self.recomputed_free_at.entry(free_at).or_default().push(mt);
                }
                SegmentStrategy::MemoryCentric => {
                    if let Some(prev) = prev_link.take() {
                        self.utp.unlock(prev);
                        self.drop_device_copy(prev);
                        self.utp.lock(prev);
                    }
                    if m == target {
                        self.recomputed_free_at.entry(step).or_default().push(mt);
                    } else {
                        prev_link = Some(mt);
                    }
                }
            }
        }
        for &m in &members {
            self.utp.unlock(self.liveness.fwd_out[m.0]);
        }
        if anchor_pinned {
            self.utp.unlock(anchor_t);
        }
        Ok(())
    }

    fn prefetch_ahead(&mut self, step: usize) {
        let total = self.route.total_steps();
        let depth = self.policy.prefetch_depth as usize;
        let mut seen_ckpt = false;
        for s in (step + 1)..total.min(step + 1 + depth) {
            // The old per-step input-list clone, preserved.
            let inputs: Vec<TensorId> = self.liveness.step_inputs[s].to_vec();
            for t in inputs {
                if self.utp.state(t).residence() != Residence::Host {
                    continue;
                }
                let bytes = self.meta(t).bytes;
                let Ok(g) = self.charged_alloc(bytes) else {
                    return;
                };
                self.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.h2d_ns += self.transfer_ns(t);
                self.ops.push(PlanOp::Fetch(t));
                self.counters.prefetches += 1;
            }
            let l = self.route.step(s).layer;
            if self.route.step(s).phase == StepPhase::Backward
                && self.net.layer(l).kind.is_offload_candidate()
            {
                if seen_ckpt {
                    break;
                }
                seen_ckpt = true;
            }
        }
    }

    fn plan_step(&mut self, s: usize) -> Result<RefStep, ExecError> {
        self.cur_step = s;
        let step = self.route.step(s);
        let layer_id = step.layer;
        let kind = self.net.layer(layer_id).kind.clone();
        let lcost = *self.cost.layer(layer_id);

        debug_assert!(self.ops.is_empty());

        self.drain_reapable(s);

        // 1. Stage inputs (may fetch, may plan a recomputation replay).
        let inputs: Vec<TensorId> = self.liveness.step_inputs[s].to_vec();
        for t in &inputs {
            self.ensure_present(*t, s)?;
            self.utp.lock(*t);
        }

        // 2. Materialize this step's outputs.
        let created: Vec<TensorId> = self.liveness.created_at[s].to_vec();
        for t in &created {
            if self.utp.state(*t).residence() == Residence::None {
                let bytes = self.meta(*t).bytes;
                let name = self.net.layer(self.meta(*t).layer).name.clone();
                let g = self.ladder_alloc(bytes, s, &name)?;
                self.utp.mark_device(*t, g.id, self.policy.tensor_cache);
                self.ops.push(PlanOp::Alloc(*t));
            }
            self.utp.lock(*t);
        }

        // 3. Transients: conv workspace + weight-gradient/mask buffer.
        let mut choice = AlgoChoice::fallback();
        let mut workspace = None;
        let mut ws_grant = None;
        if matches!(kind, sn_graph::LayerKind::Conv { .. }) {
            let budget = match self.policy.workspace {
                WorkspacePolicy::None => None,
                WorkspacePolicy::Dynamic => Some(
                    self.dev
                        .alloc
                        .free_bytes()
                        .min(self.dev.alloc.largest_free_contiguous()),
                ),
                WorkspacePolicy::Capped(cap) => Some(
                    self.dev
                        .alloc
                        .free_bytes()
                        .min(self.dev.alloc.largest_free_contiguous())
                        .min(cap),
                ),
            };
            if let Some(free) = budget {
                choice = convalgo::select_algo(self.net, layer_id, free);
            }
            if choice.workspace > 0 {
                ws_grant = Some(self.ladder_alloc(choice.workspace, s, "conv workspace")?);
                self.ops.push(PlanOp::AllocWorkspace(choice.workspace));
            }
            let max_choice = convalgo::max_speed_algo(self.net, layer_id);
            workspace = Some(WorkspacePlan {
                bytes: choice.workspace,
                max_speed_bytes: max_choice.workspace,
                algo: choice.algo.name(),
                speedup: choice.speedup,
            });
        }
        let transient_bytes = if step.phase == StepPhase::Backward {
            lcost.wgrad_bytes
        } else {
            lcost.fwd_workspace
        };
        let tr_grant = if transient_bytes > 0 {
            let g = self.ladder_alloc(transient_bytes, s, "transient buffer")?;
            self.ops.push(PlanOp::AllocTransient(transient_bytes));
            Some(g)
        } else {
            None
        };

        // 4. The kernel itself.
        let duration = match step.phase {
            StepPhase::Forward => lcost.fwd_time(&kind, self.spec, choice.speedup),
            StepPhase::Backward => lcost.bwd_time(&kind, self.spec, choice.speedup),
        };
        self.compute_ns += duration.as_ns();
        let pre = std::mem::take(&mut self.ops);

        // 5. Release transients.
        if ws_grant.is_some() || tr_grant.is_some() {
            self.ops.push(PlanOp::FreeTransients);
            if let Some(g) = ws_grant {
                self.dev.free_charged(g.id);
            }
            if let Some(g) = tr_grant {
                self.dev.free_charged(g.id);
            }
        }

        // 6. Unlock.
        for t in inputs.iter().chain(created.iter()) {
            self.utp.unlock(*t);
        }

        // 7. Eager offload of checkpoint outputs (Fig. 10b policy).
        if !self.inference
            && step.phase == StepPhase::Forward
            && self.policy.offload
            && self.policy.eager_offload
        {
            let t = self.liveness.fwd_out[layer_id.0];
            let meta = self.meta(t);
            let (offloadable, bytes) = (meta.offloadable, meta.bytes);
            let st = self.utp.state(t);
            if offloadable && bytes > 0 && !st.host_valid && !st.offloading {
                if !self.utp.ensure_host_slot(t, bytes, &mut self.dev) {
                    return Err(ExecError::HostExhausted { requested: bytes });
                }
                self.d2h_ns += self.transfer_ns(t);
                self.utp.mark_offloading(t, false);
                self.ops.push(PlanOp::Offload { t, evict: false });
                self.counters.offloads += 1;
            }
        }

        // 8. Overlapped prefetch for upcoming backward consumers.
        if step.phase == StepPhase::Backward && self.policy.offload && self.policy.prefetch {
            self.prefetch_ahead(s);
        }

        // 9. Liveness frees.
        let freed: Vec<TensorId> = self.liveness.freed_after[s].to_vec();
        for t in freed {
            let st = self.utp.state(t);
            if st.residence() != Residence::None || st.host_slot.is_some() {
                self.ops.push(PlanOp::Free(t));
                self.utp.free_tensor(t, &mut self.dev);
            }
        }
        if let Some(list) = self.recomputed_free_at.remove(&s) {
            for t in list {
                self.drop_device_copy(t);
            }
        }
        let post = std::mem::take(&mut self.ops);

        Ok(RefStep {
            layer: layer_id,
            phase: step.phase,
            duration,
            pre,
            post,
            workspace,
        })
    }

    fn run(mut self) -> Result<MemoryPlan, ExecError> {
        let weight_bytes = self.cost.total_weight_bytes();
        if weight_bytes > 0 && self.charged_alloc(weight_bytes).is_err() {
            return Err(ExecError::Oom {
                step: 0,
                layer: "WEIGHTS".into(),
                requested: weight_bytes,
                capacity: self.dev.alloc.capacity(),
            });
        }

        let total = self.route.total_steps();
        let mut ref_steps = Vec::with_capacity(total);
        for s in 0..total {
            ref_steps.push(self.plan_step(s)?);
        }
        self.cur_step = total;
        self.drain_reapable(total);
        let final_ops = std::mem::take(&mut self.ops);

        // Flatten the per-step op vectors into the current representation.
        let mut ops = Vec::new();
        let append = |ops: &mut Vec<PlanOp>, section: Vec<PlanOp>| {
            let start = ops.len() as u32;
            ops.extend(section);
            OpRange {
                start,
                end: ops.len() as u32,
            }
        };
        let steps: Vec<StepPlan> = ref_steps
            .into_iter()
            .map(|rs| {
                let pre = append(&mut ops, rs.pre);
                let post = append(&mut ops, rs.post);
                StepPlan {
                    layer: rs.layer,
                    phase: rs.phase,
                    duration: rs.duration,
                    pre,
                    post,
                    workspace: rs.workspace,
                }
            })
            .collect();
        let final_range = append(&mut ops, final_ops);

        let peak_bytes = self.dev.alloc.high_water();
        debug_assert_eq!(peak_bytes, self.peak_seen);
        Ok(MemoryPlan {
            steps,
            ops,
            final_range,
            peak_bytes,
            peak_step: self.peak_step,
            weight_bytes,
            predicted: self.counters,
            inference: self.inference,
            compute_ns: self.compute_ns,
            alloc_ns: self.dev.alloc_time.as_ns(),
            h2d_ns: self.h2d_ns,
            d2h_ns: self.d2h_ns,
            serialized: self.policy.sync_transfers,
        })
    }
}
