//! # sn-runtime — the SuperNeurons dynamic GPU memory scheduling runtime
//!
//! This crate is the paper's primary contribution, rebuilt in Rust on top of
//! the simulated device substrate and split into three explicit layers:
//!
//! 1. **Plan** — [`plan`] compiles `(Net, DeviceSpec, Policy)` into a
//!    static, inspectable [`MemoryPlan`]: per-step residency actions
//!    (alloc/free/offload/prefetch/recompute/workspace) and the **exact**
//!    predicted peak. Training plans cover one `2N`-step iteration;
//!    forward-only *inference* plans open a serving path the training-only
//!    executor could not express.
//! 2. **UTP** — [`utp`] is the Unified Tensor Pool residency manager: the
//!    tensor-state map, the Alg. 2 LRU Tensor Cache, the reclamation
//!    ladder's pending-offload reservoir and host-slot management over the
//!    Fig. 7 tiers, behind a narrow API the planner drives; an executor's
//!    build runs the plan through it once.
//! 3. **Interpret** — [`executor`] walks the program that pass compiled
//!    (the ops that move the clock, the byte ops between folded) over the
//!    multi-stream sim engine. The pass counts the plan's allocs and frees
//!    at the allocator's granularity, so the executed peak equals
//!    [`MemoryPlan::peak_bytes`] to the byte — which is why cluster
//!    admission ([`sn-cluster`](../sn_cluster/index.html)) reserves plan
//!    peaks without simulating an iteration.
//!
//! Around the three layers:
//!
//! * [`policy`] — every technique as an independent switch, with presets for
//!   the paper's component studies (`baseline`, `liveness_only`,
//!   `liveness_offload`, `full_memory`, `superneurons`);
//! * [`device`] — the device as the planner and the interpreter see it;
//! * [`convalgo`] — the cuDNN-style convolution algorithm catalogue and the
//!   dynamic workspace selector (§3.5);
//! * [`recompute`] — Cost-Aware Recomputation segment planning (§3.4);
//! * [`verify`] — the plan checker: a residency model every compiled plan
//!   must replay cleanly against (every compile, in debug builds);
//! * [`numeric`] — a real compute backend proving the plans preserve exact
//!   training semantics;
//! * [`session`] — the plan-compile-only [`plan_prediction`] admission
//!   predictor and the feasibility search behind Tables 4/5. An iteration is
//!   measured by building an [`Executor`] (forward-only serving:
//!   [`Executor::new_inference`]) and reading one [`IterationReport`].
//!
//! `peak_m` progression implemented (and asserted by tests):
//! baseline `Σ l_f + Σ l_b` → liveness `Σ l_f + l_b_N` → +offload
//! `Σ (l_f ∉ ckpt) + l_b_N` → +cost-aware recompute `max_i(l_i)`.

pub mod convalgo;
pub mod device;
pub mod executor;
pub mod group;
mod memo;
pub mod numeric;
mod par;
pub mod parallel;
pub mod plan;
pub mod policy;
pub mod recompute;
pub mod session;
pub mod tiers;
pub mod tune;
pub mod utp;
pub mod verify;

pub use executor::{ComputeBackend, Counters, ExecError, Executor, IterationReport};
pub use group::{
    compile_group, GradBucket, GroupConfig, GroupExecutor, GroupIterationReport, GroupPlan,
};
pub use parallel::{bucket_wire_bytes, ring_allreduce_wire_bytes, ring_wire_time, Interconnect};
pub use plan::{CompiledPlan, Compiler, MemoryPlan, PlanOp, StepPlan, WorkspacePlan};
pub use policy::{
    AllocatorKind, CachePolicy, Policy, PolicyPreset, RecomputeMode, WorkspacePolicy,
};
pub use session::{
    plan_prediction, plan_prediction_caps, plan_prediction_inference, PeakPrediction,
};
pub use tiers::{Tier, TierConfig, TieredPool};
pub use tune::{SearchOutcome, TuneConfig, TunedPolicy};
