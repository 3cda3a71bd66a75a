//! An independent check of what the planner emits.
//!
//! [`CompiledPlan::verify`] replays a plan's op stream against a residency
//! model: where each tensor is, whether it holds a host slot, and device
//! and pinned-host byte counters, device bytes at the allocator's
//! granularity (the pool's 1 KB blocks, `cudaMalloc`'s 256 bytes). It has
//! no [`crate::utp::Utp`] and no Tensor Cache; a heap-pool plan's grants
//! replay once more on a first-fit [`HeapPool`] of the card's size, which
//! covers every iteration (each starts from the same pool state). Each
//! [`Rule`] is part of the contract the interpreter relies on: every
//! [`crate::Executor`] runs `verify` once, in every build, and then charges
//! a byte counter the granules one pass of the plan through the planner's
//! `Utp` worked out; debug builds check every plan the
//! [`crate::plan::Compiler`] compiles too.

use std::fmt;

use sn_graph::liveness::TensorId;
use sn_graph::Net;
use sn_mempool::{HeapPool, BLOCK_BYTES};
use sn_sim::{AllocId, DeviceAllocator, DeviceSpec};

use crate::device::AllocatorImpl;
use crate::plan::{CompiledPlan, OpRange, PlanOp};
use crate::policy::Policy;

/// The rule a plan breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The steps are not the route's in number, or their sections do not
    /// tile the op stream.
    Layout,
    /// The weights are not the plan's first grant.
    Weights,
    /// A kernel's operand, or a replayed layer's input, is not on the device.
    NotResident,
    /// A `Recompute` whose output was not allocated before it.
    RecomputeBeforeAlloc,
    /// A `Fetch` of a tensor with no host copy.
    FetchWithoutHostCopy,
    /// An `Offload` of a tensor not on the device, leaving, or already copied.
    OffloadNotOnDevice,
    /// A `ReleaseDevice` of a tensor with no device copy.
    ReleaseOfAbsent,
    /// A `Free` of a tensor held nowhere.
    FreeOfAbsent,
    /// An `Alloc` of a live tensor.
    DoubleAlloc,
    /// A step's workspace or transient buffer allocated twice, released with
    /// none held, or held past the step.
    UnpairedTransient,
    /// `FreeTransients` before the kernel.
    FreeBeforeKernel,
    /// A workspace larger than its step's [`crate::plan::WorkspacePlan`].
    WorkspaceOverBudget,
    /// Device bytes above the allocator's capacity.
    DeviceOverCapacity,
    /// A grant the bytes fit but no free run of the first-fit pool holds.
    Fragmented,
    /// Host bytes above the policy's tiers.
    HostOverCapacity,
    /// The declared peak is not the peak the ops reach.
    Peak,
    /// The declared peak step is not the step the peak is first reached.
    PeakStep,
}

/// Where and how a plan breaks a [`Rule`]: the step (`steps.len()` for the
/// end-of-iteration ops and the closing checks) and the index into
/// [`crate::MemoryPlan::ops`] at which the model noticed (a kernel sits at
/// its step's `pre.end`; the closing checks at `ops.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanViolation {
    pub step: usize,
    pub op: usize,
    pub rule: Rule,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {}, op {}: {:?}", self.step, self.op, self.rule)
    }
}

impl std::error::Error for PlanViolation {}

/// Where a tensor is: nowhere, on the device, on the device with a
/// copy-out in flight, or as a valid host copy only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum At {
    #[default]
    None,
    Device,
    Leaving,
    Host,
}

/// What the model knows of one tensor.
#[derive(Debug, Clone, Copy, Default)]
struct Held {
    at: At,
    /// A valid host copy exists (kept across a `Fetch`, dropped by `Free`).
    valid: bool,
    /// A host slot is reserved (from the first copy-out until `Free`).
    slot: bool,
    /// The device grant in the first-fit replay, while on the device.
    grant: AllocId,
}

struct Model<'a> {
    c: &'a CompiledPlan,
    net: &'a Net,
    tensors: Vec<Held>,
    device: u64,
    host: u64,
    peak: u64,
    peak_step: usize,
    /// The step's workspace and transient buffer (bytes, grant), if held.
    held: [Option<(u64, AllocId)>; 2],
    step: usize,
    granule: u64,
    device_cap: u64,
    host_cap: u64,
    /// The first-fit replay of a heap-pool plan's grants.
    pool: Option<&'a mut HeapPool>,
}

impl CompiledPlan {
    /// Replay the op stream against the residency model and return the
    /// first broken [`Rule`], if any. `spec` is the card's, `policy` the
    /// compile's: the allocator comes from them, the host capacity from
    /// `policy.tiers`.
    pub fn verify(
        &self,
        net: &Net,
        spec: &DeviceSpec,
        policy: Policy,
    ) -> Result<(), PlanViolation> {
        let mut alloc = AllocatorImpl::new(spec, policy.allocator);
        self.verify_on(net, spec, policy, &mut alloc)
    }

    /// [`CompiledPlan::verify`] on `alloc`, the policy's kind of allocator
    /// (reset first: a pool that carried this traffic allocates nothing).
    pub(crate) fn verify_on(
        &self,
        net: &Net,
        spec: &DeviceSpec,
        policy: Policy,
        alloc: &mut AllocatorImpl,
    ) -> Result<(), PlanViolation> {
        let (granule, device_cap, pool) = match alloc {
            AllocatorImpl::Pool(p) => {
                p.reset(spec.dram_bytes);
                (BLOCK_BYTES, p.capacity(), Some(p))
            }
            AllocatorImpl::Cuda(c) => (256, c.capacity(), None),
        };
        let t = policy.tiers;
        Model {
            c: self,
            net,
            tensors: vec![Held::default(); self.liveness.tensors.len()],
            device: 0,
            host: 0,
            peak: 0,
            peak_step: 0,
            held: [None; 2],
            step: 0,
            granule,
            device_cap,
            host_cap: [t.peer_gpu_bytes, t.local_host_bytes, t.remote_bytes]
                .into_iter()
                .fold(0, u64::saturating_add),
            pool,
        }
        .run()
    }
}

impl Model<'_> {
    /// `Ok` if `holds`, else `rule` broken at op `op` of the current step.
    fn ensure(&self, holds: bool, op: usize, rule: Rule) -> Result<(), PlanViolation> {
        let step = self.step;
        if holds {
            Ok(())
        } else {
            Err(PlanViolation { step, op, rule })
        }
    }

    fn rounded(&self, bytes: u64) -> u64 {
        bytes.max(1).div_ceil(self.granule) * self.granule
    }

    fn bytes(&self, t: TensorId) -> u64 {
        self.rounded(self.c.liveness.tensors[t.0].bytes)
    }

    fn grant(&mut self, op: usize, bytes: u64) -> Result<AllocId, PlanViolation> {
        self.device += bytes;
        self.ensure(self.device <= self.device_cap, op, Rule::DeviceOverCapacity)?;
        let placed = self.pool.as_mut().map(|p| p.alloc(bytes).map(|g| g.id));
        self.ensure(!matches!(placed, Some(Err(_))), op, Rule::Fragmented)?;
        if self.device > self.peak {
            (self.peak, self.peak_step) = (self.device, self.step);
        }
        Ok(placed.and_then(Result::ok).unwrap_or_default())
    }

    fn release(&mut self, bytes: u64, grant: AllocId) {
        self.device -= bytes;
        if let Some(p) = &mut self.pool {
            p.free(grant).expect("the model frees only what it granted");
        }
    }

    fn on_device(&self, t: TensorId) -> bool {
        matches!(self.tensors[t.0].at, At::Device | At::Leaving)
    }

    fn run(&mut self) -> Result<(), PlanViolation> {
        let (c, p) = (self.c, &*self.c.plan);
        let weights = p.weight_bytes == c.cost.total_weight_bytes();
        self.ensure(weights, 0, Rule::Weights)?;
        if p.weight_bytes > 0 {
            self.grant(0, self.rounded(p.weight_bytes))?;
        }
        let tiles = |r: OpRange, from: u32| r.start == from && r.start <= r.end;
        self.ensure(p.steps.len() == c.route.total_steps(), 0, Rule::Layout)?;
        let mut cursor = 0;
        for s in 0..p.steps.len() {
            self.step = s;
            let (pre, post) = (p.pre(s), p.post(s));
            // Each section starts where the one before ended.
            let laid_out = pre.start <= pre.end && post.start <= post.end;
            self.ensure(laid_out, cursor as usize, Rule::Layout)?;
            self.section(pre)?;
            let mut operands = c.liveness.step_inputs[s]
                .iter()
                .chain(&c.liveness.created_at[s]);
            let resident = operands.all(|&t| self.on_device(t));
            self.ensure(resident, pre.end as usize, Rule::NotResident)?;
            self.section(post)?;
            let released = self.held == [None; 2];
            self.ensure(released, post.end as usize, Rule::UnpairedTransient)?;
            cursor = post.end;
        }
        self.step = p.steps.len();
        let laid_out = tiles(p.final_range, cursor) && p.final_range.end as usize == p.ops.len();
        self.ensure(laid_out, cursor as usize, Rule::Layout)?;
        self.section(p.final_range)?;
        self.ensure(self.peak == p.peak_bytes, p.ops.len(), Rule::Peak)?;
        self.ensure(self.peak_step == p.peak_step, p.ops.len(), Rule::PeakStep)
    }

    fn section(&mut self, r: OpRange) -> Result<(), PlanViolation> {
        let c = self.c;
        for i in r.start as usize..r.end as usize {
            self.apply(i, c.plan.ops[i])?;
        }
        Ok(())
    }

    fn apply(&mut self, i: usize, op: PlanOp) -> Result<(), PlanViolation> {
        let c = self.c;
        match op {
            PlanOp::Alloc(t) | PlanOp::Fetch(t) => {
                let (from, rule) = match op {
                    PlanOp::Alloc(_) => (At::None, Rule::DoubleAlloc),
                    _ => (At::Host, Rule::FetchWithoutHostCopy),
                };
                self.ensure(self.tensors[t.0].at == from, i, rule)?;
                self.tensors[t.0].at = At::Device;
                self.tensors[t.0].grant = self.grant(i, self.bytes(t))?;
            }
            PlanOp::Offload { t, .. } => {
                let only_on_device = self.tensors[t.0].at == At::Device && !self.tensors[t.0].valid;
                self.ensure(only_on_device, i, Rule::OffloadNotOnDevice)?;
                self.tensors[t.0].at = At::Leaving;
                if !std::mem::replace(&mut self.tensors[t.0].slot, true) {
                    self.host += c.liveness.tensors[t.0].bytes;
                }
                self.ensure(self.host <= self.host_cap, i, Rule::HostOverCapacity)?;
            }
            PlanOp::ReleaseDevice(t) => {
                self.ensure(self.on_device(t), i, Rule::ReleaseOfAbsent)?;
                self.tensors[t.0].valid |= self.tensors[t.0].at == At::Leaving;
                self.tensors[t.0].at = if self.tensors[t.0].valid {
                    At::Host
                } else {
                    At::None
                };
                self.release(self.bytes(t), self.tensors[t.0].grant);
            }
            PlanOp::Free(t) => {
                let held = self.tensors[t.0].at != At::None || self.tensors[t.0].slot;
                self.ensure(held, i, Rule::FreeOfAbsent)?;
                if self.on_device(t) {
                    self.release(self.bytes(t), self.tensors[t.0].grant);
                }
                if std::mem::take(&mut self.tensors[t.0].slot) {
                    self.host -= c.liveness.tensors[t.0].bytes;
                }
                (self.tensors[t.0].at, self.tensors[t.0].valid) = (At::None, false);
            }
            PlanOp::Recompute(l) => {
                let fwd_out = &c.liveness.fwd_out;
                let allocated = self.tensors[fwd_out[l.0].0].at == At::Device;
                self.ensure(allocated, i, Rule::RecomputeBeforeAlloc)?;
                let prevs = &self.net.layer(l).prevs;
                let inputs = prevs.iter().all(|p| self.on_device(fwd_out[p.0]));
                self.ensure(inputs, i, Rule::NotResident)?;
            }
            PlanOp::AllocWorkspace(bytes) | PlanOp::AllocTransient(bytes) => {
                let k = usize::from(matches!(op, PlanOp::AllocTransient(_)));
                self.ensure(self.held[k].is_none(), i, Rule::UnpairedTransient)?;
                let budget = c.plan.workspace(self.net, &c.route, self.step);
                let within = k == 1 || budget.is_some_and(|w| bytes <= w.bytes);
                self.ensure(within, i, Rule::WorkspaceOverBudget)?;
                let bytes = self.rounded(bytes);
                self.held[k] = Some((bytes, self.grant(i, bytes)?));
            }
            PlanOp::FreeTransients => {
                // A step's kernel sits at its `pre.end`; the final section
                // has none, and nothing held.
                let kernel = c.plan.steps.get(self.step).map_or(0, |s| s.pre_end);
                self.ensure(i >= kernel as usize, i, Rule::FreeBeforeKernel)?;
                self.ensure(self.held != [None; 2], i, Rule::UnpairedTransient)?;
                for (bytes, grant) in std::mem::take(&mut self.held).into_iter().flatten() {
                    self.release(bytes, grant);
                }
            }
        }
        Ok(())
    }
}
