//! # sn-cluster — multi-tenant, memory-aware cluster scheduling over the
//! SuperNeurons runtime
//!
//! The paper scopes SuperNeurons to one GPU: its memory-scheduling policies
//! (`baseline` → `liveness` → `+offload` → `+cost-aware recompute`) shrink a
//! single job's `peak_m` from `Σ l_f + Σ l_b` toward `max_i(l_i)`. This
//! crate lifts that lever to fleet scope: when the scheduler can *predict*
//! each job's peak per policy, policy choice becomes a cluster-capacity
//! knob — a device that fits one `baseline` tenant fits several
//! `superneurons` tenants, and admission can trade (virtual) recompute/PCIe
//! time for tenancy.
//!
//! Pieces:
//!
//! * [`job`] — [`JobSpec`]/[`Workload`]/[`PolicyPreset`]/[`JobKind`]: what
//!   a tenant wants — a training run or a forward-only *inference* service —
//!   and under which policy ladder;
//! * [`fleet`] — [`Fleet`]: the device pool, `n` devices of one card, +
//!   interconnect;
//! * [`admission`] — memoized **plan compilation**
//!   ([`sn_runtime::plan_prediction_caps`]): each candidate (job, preset,
//!   capped device) compiles a [`sn_runtime::MemoryPlan`] whose
//!   `peak_bytes` is the exact runtime high-water — no simulated iteration
//!   runs on the hot path — and the reject/queue/downgrade decision;
//! * [`placement`] — first-fit / best-fit / bin-packing device selection;
//! * [`fault`] — [`FaultPlan`]/[`RecoveryPolicy`]: deterministic fault
//!   injection (device kills and pressure spikes at integer instants) and the recovery mode (no-recovery or checkpoint/restart);
//! * [`sim`] — [`ClusterSim`]: the deterministic virtual-time event loop
//!   (run by the private `event_core`) with processor-sharing compute and
//!   hard memory reservations, gang scheduling multi-replica jobs through
//!   the data-parallel model, on one integer-nanosecond clock (`pace`: the
//!   two functions that round it, and the lazy progress they drive);
//! * [`report`] — [`ServiceReport`], the serving summary both entry points
//!   report, and [`ClusterReport`], what `run` adds (job rows, the byte-stable
//!   schedule trace, per-device integrals); one text and JSON writer;
//! * [`stream`] — reproducible synthetic job streams.
//!
//! Invariants the test suite enforces:
//!
//! 1. **Admission safety** — a job is only placed where its predicted peak
//!    fits the device's unreserved bytes; reservations never exceed DRAM.
//! 2. **Determinism** — identical job streams produce equal reports, and
//!    [`ClusterReport::digest`] pins a schedule in `tests/golden`.
//! 3. **Gang atomicity** — all replicas of a job start at the same instant
//!    on distinct devices, or none do.

// No function in this crate outgrows a screen or two again (threshold in the
// workspace's clippy.toml).
#![warn(clippy::too_many_lines)]

pub mod admission;
mod event_core;
mod event_heap;
pub mod fault;
pub mod fleet;
pub mod job;
pub mod latency;
mod pace;
pub mod placement;
pub mod report;
pub mod sim;
mod slab;
pub mod stream;

pub use admission::{Grant, Placement, Profiler};
pub use fault::{FaultEvent, FaultPlan, RecoveryMode, RecoveryPolicy};
pub use fleet::Fleet;
pub use job::{JobKind, JobSpec, PolicyPreset, Workload};
pub use placement::{Candidate, PlacementPolicy};
pub use report::{ClusterReport, JobOutcome, RejectReason, ServiceReport, TraceEvent, TraceKind};
pub use sim::ClusterSim;
pub use stream::{
    collect_stream, mixed_serving_stream, synthetic_stream, ArrivalStream, PoissonStream,
    ReplayStream,
};
