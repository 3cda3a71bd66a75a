//! Device-group (data-parallel) compilation and execution.
//!
//! The paper scopes SuperNeurons to the data-parallelism model (§2.1): every
//! GPU trains a full network replica on a sub-batch and the gang aggregates
//! weight gradients each iteration. This module lifts the single-device
//! plan/interpret stack to a device group without touching what made the
//! single-device stack trustworthy:
//!
//! * **[`GroupPlan`]** wraps the *unchanged* single-device
//!   [`CompiledPlan`] (the same `Arc` the plan memo hands to single-device
//!   callers) and adds the collective schedule: weight gradients are
//!   gathered into [`GradBucket`]s in backward-step order and each bucket's
//!   ring all-reduce is gated on the backward step that produces its last
//!   gradient. Per-replica residency is therefore **byte-identical** to the
//!   single-device plan — collectives stage through a fixed, separately
//!   accounted comm workspace ([`GroupPlan::comm_workspace_bytes`]), never
//!   the heap pool, so the exact-peak admission invariant survives the lift
//!   verbatim.
//! * **[`GroupExecutor`]** steps one interpreter for the whole gang. The
//!   k replicas share one plan, one spec and one policy, so they cannot
//!   diverge: one [`Executor`] stands for all k, and each bucket's ring
//!   all-reduce is one timed transfer on a link stream of its timeline,
//!   priced for k by [`GroupPlan::bucket_time`] and gated on the compute
//!   frontier, so it overlaps the remaining backward compute. The ablation
//!   mode ([`GroupConfig::serialized`]) launches the same buckets
//!   back-to-back at iteration end — the classic no-overlap baseline every
//!   data-parallel paper compares against.
//! * **[`compile_group`]** memoizes nothing of its own: the replica compile
//!   is the plan memo's, and the bucket walk over it is O(steps) in front of
//!   building the interpreter.
//!
//! Bucket wire volume is pinned to the closed form: the per-bucket charges
//! come from [`crate::parallel::bucket_wire_bytes`], whose telescoping sum
//! equals [`crate::parallel::ring_allreduce_wire_bytes`] of the total
//! gradient payload exactly, for every bucket split and replica count.

use std::sync::Arc;

use sn_graph::{LayerId, Net, StepPhase};
use sn_sim::{DeviceSpec, EngineKind, SimTime, SpanLabel, StreamId, TraceSink};
use sn_telemetry::MetricsRegistry;

use crate::executor::{finite_rate, ExecError, Executor, IterationReport};
use crate::parallel::{bucket_wire_bytes, ring_wire_time, Interconnect};
use crate::plan::{CompiledPlan, Compiler};
use crate::policy::Policy;

/// Default gradient bucket target: large enough to amortize ring latencies,
/// small enough that several buckets exist to pipeline against backward
/// compute (the DDP-style sweet spot for the modeled interconnects).
pub const DEFAULT_BUCKET_BYTES: u64 = 16 << 20;

/// A data-parallel execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct GroupConfig {
    /// Gang size: one replica per device.
    pub replicas: usize,
    /// The inter-GPU fabric replicas exchange gradients over.
    pub interconnect: Interconnect,
    /// Target bucket size for gradient aggregation (a bucket closes once it
    /// reaches this many payload bytes).
    pub bucket_bytes: u64,
    /// Overlap bucket all-reduces with the remaining backward compute;
    /// `false` serializes every collective at iteration end (the classic
    /// no-overlap ablation baseline).
    pub overlap: bool,
}

impl GroupConfig {
    pub fn new(replicas: usize, interconnect: Interconnect) -> GroupConfig {
        GroupConfig {
            replicas,
            interconnect,
            bucket_bytes: DEFAULT_BUCKET_BYTES,
            overlap: true,
        }
    }

    pub fn with_bucket_bytes(mut self, bytes: u64) -> Self {
        self.bucket_bytes = bytes.max(1);
        self
    }

    /// The no-overlap ablation: identical buckets, launched back-to-back
    /// after the backward pass completes.
    pub fn serialized(mut self) -> Self {
        self.overlap = false;
        self
    }
}

/// One gradient bucket of the collective schedule.
#[derive(Debug, Clone)]
pub struct GradBucket {
    pub id: u32,
    /// Weight-gradient payload bytes (Σ member layers' weight bytes).
    pub bytes: u64,
    /// Per-participant on-the-wire bytes, prefix-pinned so the schedule's
    /// total equals the closed-form ring volume exactly.
    pub wire_bytes: u64,
    /// Member layers, in backward-step order.
    pub layers: Vec<LayerId>,
    /// The backward step whose kernel produces the bucket's last gradient —
    /// the event the collective gates on.
    pub ready_step: usize,
}

/// A compiled device-group plan: the unchanged per-replica memory plan plus
/// the bucketed collective schedule.
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// The single-device compilation every replica replays — the same
    /// shared `Arc` the plan memo serves to single-device callers, so
    /// per-replica bytes are identical *by construction*, not by test.
    pub replica: Arc<CompiledPlan>,
    pub replicas: usize,
    pub interconnect: Interconnect,
    pub buckets: Vec<GradBucket>,
    /// `(gating step, bucket id)` in launch order (ascending step).
    pub schedule: Vec<(usize, u32)>,
    /// Fixed comm staging (ring send + receive buffers sized to the largest
    /// bucket). Separately accounted: collectives never allocate from the
    /// heap pool, so [`MemoryPlan::peak_bytes`](crate::MemoryPlan::peak_bytes) — and every admission
    /// reservation derived from it — is untouched by the group lift.
    pub comm_workspace_bytes: u64,
}

impl GroupPlan {
    /// Total per-replica gradient payload (equals the plan's weight bytes
    /// for gangs, zero for a single replica).
    pub fn grad_bytes(&self) -> u64 {
        self.buckets.iter().map(|b| b.bytes).sum()
    }

    /// Total per-participant wire bytes across the schedule.
    pub fn wire_bytes(&self) -> u64 {
        self.buckets.iter().map(|b| b.wire_bytes).sum()
    }

    /// Wire time of one bucket's ring all-reduce.
    pub fn bucket_time(&self, b: &GradBucket) -> SimTime {
        ring_wire_time(b.wire_bytes, self.replicas, self.interconnect)
    }

    /// The group debug format: a header, then the replica plan's rendering
    /// with one `coll` line interleaved after each gating step — bucket id
    /// and payload bytes (`allreduce b<id>:<bytes>`), wire bytes, and the
    /// backward step the launch gates on. Round-trip stable like
    /// [`MemoryPlan::render`](crate::MemoryPlan::render); tests diff it across PRs.
    pub fn render(&self, net: &Net) -> String {
        let mut out = format!(
            "GroupPlan k={} buckets={} grad {} wire {} comm-ws {} over {:.0} GB/s\n",
            self.replicas,
            self.buckets.len(),
            self.grad_bytes(),
            self.wire_bytes(),
            self.comm_workspace_bytes,
            self.interconnect.gbps,
        );
        let inner = self.replica.plan.render(net);
        let mut lines = inner.lines();
        // Header line of the replica plan.
        if let Some(h) = lines.next() {
            out.push_str(h);
            out.push('\n');
        }
        let mut cursor = 0usize; // schedule index
        for (s, line) in lines.enumerate() {
            out.push_str(line);
            out.push('\n');
            while cursor < self.schedule.len() && self.schedule[cursor].0 == s {
                let b = &self.buckets[self.schedule[cursor].1 as usize];
                out.push_str(&format!(
                    "  coll  allreduce b{}:{} wire {} gate=step {}\n",
                    b.id, b.bytes, b.wire_bytes, b.ready_step,
                ));
                cursor += 1;
            }
        }
        out
    }
}

/// Compile a device-group plan: the replica plan through the shared
/// compiler's plan memo, the collective schedule from its route/cost
/// analyses.
pub fn compile_group(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    cfg: &GroupConfig,
) -> Result<GroupPlan, ExecError> {
    compile_group_in(Compiler::shared(), net, spec, policy, cfg)
}

/// [`compile_group`] with the replica plan from `compiler`'s memo.
pub(crate) fn compile_group_in(
    compiler: &Compiler,
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    cfg: &GroupConfig,
) -> Result<GroupPlan, ExecError> {
    assert!(cfg.replicas >= 1, "a group needs at least one replica");
    let replica = compiler.compile(net, spec, policy, false).0?;
    Ok(build_group_plan(replica, cfg))
}

fn build_group_plan(replica: Arc<CompiledPlan>, cfg: &GroupConfig) -> GroupPlan {
    let mut buckets: Vec<GradBucket> = Vec::new();
    if cfg.replicas > 1 {
        let route = &replica.route;
        let cost = &replica.cost;
        let mut layers: Vec<LayerId> = Vec::new();
        let mut bytes = 0u64;
        let mut ready_step = 0usize;
        let mut close = |layers: &mut Vec<LayerId>, bytes: &mut u64, ready_step: usize| {
            if *bytes == 0 {
                return;
            }
            buckets.push(GradBucket {
                id: buckets.len() as u32,
                bytes: *bytes,
                wire_bytes: 0, // pinned below, once all buckets exist
                layers: std::mem::take(layers),
                ready_step,
            });
            *bytes = 0;
        };
        for s in 0..route.total_steps() {
            let step = route.step(s);
            if step.phase != StepPhase::Backward {
                continue;
            }
            // Bucket the on-the-wire gradient payload, not the fp32 master
            // weights: under a mixed preset the ring exchanges 2-byte
            // gradients (== weight_bytes at fp32).
            let wb = cost.layer(step.layer).allreduce_bytes;
            if wb == 0 {
                continue;
            }
            layers.push(step.layer);
            bytes += wb;
            ready_step = s;
            if bytes >= cfg.bucket_bytes {
                close(&mut layers, &mut bytes, ready_step);
            }
        }
        close(&mut layers, &mut bytes, ready_step);
        // Pin the wire volume to the closed form across the whole schedule.
        let sizes: Vec<u64> = buckets.iter().map(|b| b.bytes).collect();
        for (b, w) in buckets
            .iter_mut()
            .zip(bucket_wire_bytes(&sizes, cfg.replicas))
        {
            b.wire_bytes = w;
        }
    }
    let schedule: Vec<(usize, u32)> = buckets.iter().map(|b| (b.ready_step, b.id)).collect();
    debug_assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
    let comm_workspace_bytes = buckets.iter().map(|b| b.bytes).max().unwrap_or(0) * 2;
    GroupPlan {
        replica,
        replicas: cfg.replicas,
        interconnect: cfg.interconnect,
        buckets,
        schedule,
        comm_workspace_bytes,
    }
}

// ---------------------------------------------------------------------
// The group interpreter.
// ---------------------------------------------------------------------

/// Result of one measured group iteration.
#[derive(Debug, Clone)]
pub struct GroupIterationReport {
    pub replicas: usize,
    /// The replica's single-device report: one interpreter stands for all
    /// k, whose peaks equal the plan's (`peaks_match`).
    pub replica: IterationReport,
    /// Gang step time: the replica's `iter_time`, which *includes* the drain
    /// of every launched collective (the optimizer consumes reduced
    /// gradients before the next iteration starts).
    pub step_time: SimTime,
    /// Per-replica gradient payload aggregated this step.
    pub grad_bytes: u64,
    /// Per-replica bytes moved over the inter-GPU link.
    pub wire_bytes: u64,
    /// Union of collective busy spans on the replica's link stream.
    pub allreduce_busy: SimTime,
    /// Collective time hidden under the replica's kernels.
    pub allreduce_hidden: SimTime,
    /// The replica's executed peak equals the plan's `peak_bytes` (also
    /// debug-asserted).
    pub peaks_match: bool,
}

impl GroupIterationReport {
    /// Fraction of collective time hidden under compute, in `[0, 1]`;
    /// zero — never NaN/inf — when no collective ran (single replica,
    /// zero-weight nets, zero-duration iterations).
    pub fn allreduce_overlap_fraction(&self) -> f64 {
        if self.allreduce_busy == SimTime::ZERO {
            0.0
        } else {
            self.allreduce_hidden.as_ns() as f64 / self.allreduce_busy.as_ns() as f64
        }
    }

    /// Collective time the overlap machinery failed to hide.
    pub fn exposed_comm(&self) -> SimTime {
        self.allreduce_busy - self.allreduce_hidden
    }

    /// Aggregate throughput of the gang for a given *per-replica* batch.
    /// Zero (never NaN/inf) for zero-duration iterations.
    pub fn imgs_per_sec(&self, per_replica_batch: usize) -> f64 {
        finite_rate(per_replica_batch * self.replicas, self.step_time)
    }
}

/// The device-group interpreter. The k replicas of a gang share one plan,
/// one spec and one policy, and each bucket's all-reduce starts at the
/// latest of k equal compute frontiers, so nothing can tell them apart: one
/// [`Executor`] stands for all k, and one link stream on its timeline
/// carries the ring the k devices run together.
pub struct GroupExecutor<'n> {
    pub gplan: Arc<GroupPlan>,
    /// Overlap collectives with backward compute (`false` = the serialized
    /// iteration-end ablation).
    pub overlap: bool,
    ex: Executor<'n>,
    link: StreamId,
}

impl<'n> GroupExecutor<'n> {
    /// Compile and build the gang's interpreter; allocates the replica's
    /// weights.
    pub fn new(
        net: &'n Net,
        spec: DeviceSpec,
        policy: Policy,
        cfg: GroupConfig,
    ) -> Result<GroupExecutor<'n>, ExecError> {
        let gplan = Arc::new(compile_group(net, &spec, policy, &cfg)?);
        GroupExecutor::from_plan(net, spec, policy, gplan, cfg.overlap)
    }

    /// Build the gang over an already-compiled group plan.
    pub fn from_plan(
        net: &'n Net,
        spec: DeviceSpec,
        policy: Policy,
        gplan: Arc<GroupPlan>,
        overlap: bool,
    ) -> Result<GroupExecutor<'n>, ExecError> {
        let mut ex = Executor::from_compiled(net, spec, policy, (*gplan.replica).clone())?;
        let link = ex.dev.tl.add_stream(EngineKind::Link);
        Ok(GroupExecutor {
            gplan,
            overlap,
            ex,
            link,
        })
    }

    /// Gang size.
    pub fn replicas(&self) -> usize {
        self.gplan.replicas
    }

    /// Replica `i`'s interpreter: the one interpreter that stands for every
    /// replica (read-only; stepping goes through the group loop). Panics
    /// past the gang size.
    pub fn replica(&self, i: usize) -> &Executor<'n> {
        assert!(
            i < self.replicas(),
            "replica {i} of a {}-replica gang",
            self.replicas()
        );
        &self.ex
    }

    /// Attach `sink` to the gang's timeline: one process, named for the k
    /// replicas it stands for, shows the kernels, the DMAs and the
    /// collectives on its link track.
    pub fn enable_tracing(&mut self, sink: &TraceSink) {
        let name = format!("gang of {} replicas", self.replicas());
        self.ex.enable_tracing(sink, &name);
    }

    /// Route the gang's executor metrics into `registry`. They are the one
    /// interpreter's, so `exec.*` series are one replica's and
    /// `exec.iterations` counts gang steps.
    pub fn enable_metrics(&mut self, registry: &MetricsRegistry) {
        self.ex.enable_metrics(registry);
    }

    /// Launch one bucket's ring all-reduce on the link stream, gated on the
    /// compute frontier (the kernel that produced the bucket's last
    /// gradient has been submitted by now).
    fn launch(&mut self, bucket: u32) {
        let b = &self.gplan.buckets[bucket as usize];
        let tl = &mut self.ex.dev.tl;
        if tl.tracing() {
            tl.trace_label(
                SpanLabel::new(format!("allreduce b{}", b.id), "collective")
                    .arg("bucket", b.id)
                    .arg("bytes", b.bytes)
                    .arg("wire_bytes", b.wire_bytes)
                    .arg("gate_step", b.ready_step),
            );
        }
        let gate = tl.frontier_event(StreamId::COMPUTE);
        tl.submit_timed_transfer(self.link, b.wire_bytes, self.gplan.bucket_time(b), &[gate]);
    }

    /// Run one synchronous data-parallel iteration: the replica replays the
    /// shared plan; gradient buckets all-reduce as they become ready (or
    /// all at the end, under the serialized ablation); the step ends when
    /// compute, DMA *and* link streams have drained. A group executor that
    /// was built does not fail: its build verified the plan.
    pub fn run_iteration(&mut self) -> Result<GroupIterationReport, ExecError> {
        self.ex.begin_iteration();
        let gplan = self.gplan.clone();
        let total = gplan.replica.route.total_steps();
        let mut cursor = 0usize;
        for s in 0..total {
            self.ex.run_step(s);
            if self.overlap {
                while cursor < gplan.schedule.len() && gplan.schedule[cursor].0 == s {
                    self.launch(gplan.schedule[cursor].1);
                    cursor += 1;
                }
            }
        }
        if !self.overlap {
            // Ablation: identical buckets, in the identical order, launched
            // only once the whole backward pass has been submitted.
            for &(_, b) in &gplan.schedule[cursor..] {
                self.launch(b);
            }
        }

        // `finish_iteration`'s sync_all drains the link stream too, so the
        // collective tail is charged to this step.
        let replica = self.ex.finish_iteration();
        let link_ol = self.ex.dev.tl.link_overlap();
        let peaks_match = replica.peak_bytes == gplan.replica.plan.peak_bytes;
        debug_assert!(
            peaks_match,
            "the replica's executed peak diverged from the shared plan"
        );
        Ok(GroupIterationReport {
            replicas: gplan.replicas,
            step_time: replica.iter_time,
            grad_bytes: gplan.grad_bytes(),
            wire_bytes: replica.link_bytes,
            allreduce_busy: link_ol.transfer_busy,
            allreduce_hidden: link_ol.overlapped,
            peaks_match,
            replica,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::Shape4;

    fn stub(batch: usize) -> Net {
        let mut net = Net::new("group-test", Shape4::new(batch, 3, 32, 32));
        let mut prev = net.data();
        for ch in [16usize, 32, 32] {
            let c = net.conv(prev, ch, 3, 1, 1);
            prev = net.relu(c);
        }
        let p = net.max_pool(prev, 2, 2, 0);
        let f = net.fc(p, 64);
        let a = net.relu(f);
        let f2 = net.fc(a, 10);
        net.softmax(f2);
        net
    }

    fn cfg(k: usize) -> GroupConfig {
        // Small buckets so even the stub net produces a multi-bucket
        // schedule with something to pipeline.
        GroupConfig::new(k, Interconnect::pcie()).with_bucket_bytes(64 << 10)
    }

    #[test]
    fn group_plan_buckets_cover_the_gradients_exactly() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        for k in [2usize, 4, 8] {
            let g = compile_group(&net, &spec, Policy::superneurons(), &cfg(k)).unwrap();
            assert!(g.buckets.len() >= 2, "small buckets must split the payload");
            assert_eq!(g.grad_bytes(), g.replica.plan.weight_bytes);
            // The schedule's wire volume is pinned to the closed form.
            assert_eq!(
                g.wire_bytes(),
                crate::parallel::ring_allreduce_wire_bytes(g.grad_bytes(), k)
            );
            // Gating steps are backward steps, in launch order.
            let n = net.len();
            for b in &g.buckets {
                assert!(b.ready_step >= n, "buckets gate on backward steps");
                assert!(!b.layers.is_empty());
            }
            assert!(g.schedule.windows(2).all(|w| w[0].0 <= w[1].0));
            assert_eq!(g.comm_workspace_bytes % 2, 0);
            assert!(g.comm_workspace_bytes >= 2 * g.buckets.iter().map(|b| b.bytes).max().unwrap());
        }
    }

    #[test]
    fn mixed_precision_groups_bucket_half_the_bytes() {
        // Under bf16 gradients the collective schedule carries half the fp32
        // payload — the buckets hold 2-byte gradient bytes while the master
        // weights (and the fp32 group above) stay at 4 bytes per element.
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        let fp32 = compile_group(&net, &spec, Policy::superneurons(), &cfg(4)).unwrap();
        let mixed = Policy::superneurons().with_precision(sn_graph::Precision::bf16_mixed());
        let bf16 = compile_group(&net, &spec, mixed, &cfg(4)).unwrap();
        assert_eq!(fp32.grad_bytes(), fp32.replica.plan.weight_bytes);
        assert_eq!(bf16.grad_bytes(), fp32.grad_bytes() / 2);
        assert_eq!(
            bf16.wire_bytes(),
            crate::parallel::ring_allreduce_wire_bytes(bf16.grad_bytes(), 4)
        );
        assert!(bf16.wire_bytes() < fp32.wire_bytes());
    }

    #[test]
    fn single_replica_groups_schedule_no_collectives() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        let g = compile_group(&net, &spec, Policy::superneurons(), &cfg(1)).unwrap();
        assert!(g.buckets.is_empty() && g.schedule.is_empty());
        assert_eq!(g.comm_workspace_bytes, 0);
        assert_eq!(g.wire_bytes(), 0);
    }

    #[test]
    fn group_render_interleaves_collectives_at_their_gating_steps() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        let g = compile_group(&net, &spec, Policy::superneurons(), &cfg(4)).unwrap();
        let text = g.render(&net);
        // Header carries the gang shape; every bucket appears with id,
        // payload bytes (stable op vocabulary) and gating step.
        assert!(text.starts_with("GroupPlan k=4"));
        for b in &g.buckets {
            let needle = format!(
                "allreduce b{}:{} wire {} gate=step {}",
                b.id, b.bytes, b.wire_bytes, b.ready_step
            );
            assert!(text.contains(&needle), "missing `{needle}` in:\n{text}");
        }
        // The replica plan's rendering is embedded verbatim (line-for-line
        // minus the interleaved coll lines) — the format is round-trip
        // stable against the single-device render.
        let solo = g.replica.plan.render(&net);
        for line in solo.lines() {
            assert!(text.contains(line));
        }
        // And rendering is deterministic.
        assert_eq!(text, g.render(&net));
    }

    #[test]
    fn replica_peaks_are_byte_identical_to_the_single_device_plan() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        for policy in [
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::superneurons(),
        ] {
            let solo_peak = crate::session::plan_prediction(&net, &spec, policy)
                .unwrap()
                .peak_bytes;
            for overlap in [true, false] {
                let mut gx = GroupExecutor::new(
                    &net,
                    spec.clone(),
                    policy,
                    if overlap { cfg(4) } else { cfg(4).serialized() },
                )
                .unwrap();
                gx.run_iteration().unwrap();
                let r = gx.run_iteration().unwrap();
                assert!(r.peaks_match);
                assert_eq!(r.replica.peak_bytes, solo_peak, "overlap={overlap}");
            }
        }
    }

    #[test]
    fn a_gang_steps_one_interpreter_whatever_k() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        for k in [1usize, 2, 4, 8] {
            let mut gx =
                GroupExecutor::new(&net, spec.clone(), Policy::superneurons(), cfg(k)).unwrap();
            assert_eq!(gx.replicas(), k);
            for i in 0..k {
                assert!(std::ptr::eq(gx.replica(i), gx.replica(0)), "k={k}, i={i}");
            }
            let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| gx.replica(k)));
            assert!(past.is_err(), "k={k}: replica(k) must panic");
            gx.run_iteration().unwrap();
            let r = gx.run_iteration().unwrap();
            assert_eq!(r.replicas, k);
            if k >= 2 {
                assert_eq!(
                    r.wire_bytes,
                    crate::parallel::ring_allreduce_wire_bytes(gx.gplan.grad_bytes(), k)
                );
                assert_eq!(r.replica.peak_bytes, gx.gplan.replica.plan.peak_bytes);
            }
        }
    }

    #[test]
    fn overlap_beats_the_serialized_ablation() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        for k in [2usize, 4] {
            let run = |c: GroupConfig| {
                let mut gx =
                    GroupExecutor::new(&net, spec.clone(), Policy::superneurons(), c).unwrap();
                gx.run_iteration().unwrap();
                gx.run_iteration().unwrap()
            };
            let olap = run(cfg(k));
            let serial = run(cfg(k).serialized());
            assert!(
                olap.step_time < serial.step_time,
                "k={k}: overlapped {} must beat serialized {}",
                olap.step_time,
                serial.step_time
            );
            assert!(olap.allreduce_overlap_fraction() > 0.0);
            assert_eq!(
                serial.allreduce_hidden,
                SimTime::ZERO,
                "iteration-end collectives cannot hide under compute"
            );
            // Same bytes on the wire either way — overlap changes *when*.
            assert_eq!(olap.wire_bytes, serial.wire_bytes);
            assert!(olap.wire_bytes > 0);
            // And the residency trajectory is untouched by either mode.
            assert_eq!(olap.replica.peak_bytes, serial.replica.peak_bytes);
        }
    }

    #[test]
    fn single_replica_group_degenerates_to_the_solo_executor() {
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        let mut gx =
            GroupExecutor::new(&net, spec.clone(), Policy::superneurons(), cfg(1)).unwrap();
        gx.run_iteration().unwrap();
        let g = gx.run_iteration().unwrap();
        let mut solo = Executor::new(&net, spec, Policy::superneurons()).unwrap();
        solo.run_iteration().unwrap();
        let s = solo.run_iteration().unwrap();
        assert_eq!(g.step_time, s.iter_time);
        assert_eq!(g.replica.peak_bytes, s.peak_bytes);
        assert_eq!(g.wire_bytes, 0);
        assert_eq!(g.allreduce_overlap_fraction(), 0.0);
    }

    #[test]
    fn group_plans_follow_the_gang_size_and_ignore_the_overlap_mode() {
        let net = stub(10);
        let spec = DeviceSpec::k40c();
        let c = Compiler::new();
        let plan = |cfg: GroupConfig| {
            compile_group_in(&c, &net, &spec, Policy::superneurons(), &cfg).unwrap()
        };
        let (g2, g4) = (plan(cfg(2)), plan(cfg(4)));
        for (k, g) in [(2, &g2), (4, &g4)] {
            let text = g.render(&net);
            assert!(text.starts_with(&format!("GroupPlan k={k} buckets=")));
            assert_eq!(text.matches("\n  coll  ").count(), g.buckets.len());
            // The overlap flag is an execution mode, not a plan property.
            let serial = plan(cfg(k).serialized());
            assert_eq!(serial.render(&net), text);
            assert_eq!(serial.schedule, g.schedule);
        }
        // Same payload in the same buckets; what a replica puts on the wire
        // grows with the ring.
        assert_eq!(g2.schedule, g4.schedule);
        assert_eq!(g2.grad_bytes(), g4.grad_bytes());
        assert!(g2.wire_bytes() < g4.wire_bytes());
        // Both gangs share the *replica* compilation (same plan-memo Arc).
        assert!(Arc::ptr_eq(&g2.replica, &g4.replica));
    }

    #[test]
    fn a_gang_built_on_a_cleared_compiler_compiles_its_replica_once() {
        // No cache sits in front of the plan memo: `clear_all` makes the
        // next gang's replica compile cold, and only that one.
        let net = stub(8);
        let spec = DeviceSpec::k40c();
        let c = Compiler::new();
        let build = || compile_group_in(&c, &net, &spec, Policy::superneurons(), &cfg(2)).unwrap();
        build();
        c.clear_all();
        assert_eq!((c.stats().hits, c.stats().misses), (0, 0));
        build();
        assert_eq!((c.stats().hits, c.stats().misses), (0, 1));
        build();
        assert_eq!((c.stats().hits, c.stats().misses), (1, 1));
    }

    #[test]
    fn zero_duration_group_reports_are_finite() {
        // Satellite guard: ratios in group reports return 0.0 — never
        // NaN/inf — for zero-duration iterations and empty schedules.
        let r = GroupIterationReport {
            replicas: 4,
            replica: IterationReport {
                iter_time: SimTime::ZERO,
                peak_bytes: 0,
                h2d_bytes: 0,
                d2h_bytes: 0,
                link_bytes: 0,
                link_busy: SimTime::ZERO,
                counters: Default::default(),
                alloc_time: SimTime::ZERO,
                alloc_calls: 0,
                stall: SimTime::ZERO,
                compute_busy: SimTime::ZERO,
                transfer_busy: SimTime::ZERO,
                overlapped: SimTime::ZERO,
                loss: None,
            },
            step_time: SimTime::ZERO,
            grad_bytes: 0,
            wire_bytes: 0,
            allreduce_busy: SimTime::ZERO,
            allreduce_hidden: SimTime::ZERO,
            peaks_match: true,
        };
        assert_eq!(r.imgs_per_sec(128), 0.0);
        assert!(r.imgs_per_sec(128).is_finite());
        assert_eq!(r.allreduce_overlap_fraction(), 0.0);
        assert!(r.allreduce_overlap_fraction().is_finite());
        assert_eq!(r.exposed_comm(), SimTime::ZERO);
    }
}
