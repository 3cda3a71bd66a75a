//! The memory planner: compile `(Net, DeviceSpec, Policy)` into a static
//! [`MemoryPlan`] — fast enough to sit on every hot path.
//!
//! SuperNeurons is architecturally a *planning* system — liveness windows,
//! cost-aware recomputation segments, offload/prefetch points and workspace
//! choices are all derivable from the `(net, policy, device)` triple before
//! the first kernel runs. This module performs that derivation once, ahead
//! of time: it walks the route with the same decision logic the executor
//! used to interleave with execution (the Alg. 2 Tensor Cache, the
//! reclamation ladder, eager offload, prefetch-ahead, §3.4 segment replay,
//! §3.5 dynamic workspaces), driving a *real* allocator and the tiered host
//! pools — but no timeline — and records every residency mutation as an
//! explicit [`PlanOp`].
//!
//! Since PR 3, compilation **is** the workhorse of the whole system:
//! cluster admission ladders, `session::feasible` binary searches and the
//! framework comparisons are compile-only. The planner is therefore built
//! for throughput, on three levels:
//!
//! * **Hot structures** — allocations go through `sn_mempool::HeapPool`
//!   (first-fit over a short sorted vector of free runs, O(1)
//!   largest-fragment) and cache decisions through the O(1) intrusive LRU
//!   in [`crate::utp`]. A compile allocates the plan it returns and nothing
//!   else: the walk runs in a `WalkState` (residency books, planning
//!   allocator, host tiers, the op stream, scratch) that its [`Compiler`]
//!   keeps between compiles and resets in place. The walk also skips what
//!   cannot happen: no reapable-offload drain while no offload is pending,
//!   no prefetch scan while nothing is host-resident.
//! * **Analysis sharing** — `Route`, `NetCost`, `LivenessPlan` and
//!   `RecomputePlan` never read the device. Each has a cache of its own,
//!   keyed by [`Net::fingerprint`] and only the policy bits it reads: the
//!   route by the plan kind, the costs by precision, the liveness by the
//!   liveness options (so the three recompute modes share one), the
//!   recompute plan by mode and precision. Each is shared via `Arc` across
//!   the policy ladder and across devices.
//! * **Plan memo** — [`Compiler::compile`] caches whole compilations under
//!   a `(net fingerprint, policy, card)` key and returns a shared
//!   `Arc<CompiledPlan>`. A plan the device cap did not shape answers every
//!   cap from [`CompiledPlan::valid_caps`]' start upward, so an admission
//!   ladder or capacity search that re-asks one net at many budgets pays one
//!   plan walk, not one per budget; outcomes the cap did shape (OOM
//!   included) are memoized for that cap alone. The memo holds at most
//!   [`PLAN_MEMO_CAP`] entries and at the cap forgets only the
//!   least-recently-used one, so the hot set survives a long sweep. A hit
//!   hashes one word, compares ten and copies its answer out of the entry.
//!
//! Both caches, the memo's hit/miss pair and the registry that pair is read
//! from belong to a [`Compiler`] value; nothing here is process-global but
//! [`Compiler::shared`], which [`compile_memo`], [`plan_memo_stats`],
//! [`clear_plan_memo`] and the rest of the free functions call.
//!
//! What guards the planned bytes is independent of how they are computed:
//! every plan must replay cleanly through [`CompiledPlan::verify`]'s
//! residency model (every compile does, in debug builds), the `plan` bench
//! experiment asserts plan peaks equal executed peaks across the preset ×
//! model matrix, and `tests/golden/plan_digests.txt` pins the bytes of a
//! fixed matrix of plans.
//!
//! The result of a compile is a cheap, inspectable, reusable artifact:
//!
//! * [`MemoryPlan::peak_bytes`] is the **exact** peak the execution will hit
//!   — the executor replays the identical alloc/free sequence, counting
//!   bytes at the allocator's granularity, so the high-water mark is equal
//!   *by construction*.
//!   Cluster admission reserves this number without ever running a
//!   simulated iteration.
//! * [`MemoryPlan::steps`] is a complete instruction stream — the executor
//!   is an interpreter over it, and [`MemoryPlan::render`] prints the
//!   on-disk debug format (one line per op) for inspection. A step stores
//!   only what the walk decided ([`StepPlan`]); the rest is derived.
//!
//! Training plans cover one `2N`-step iteration; **inference plans**
//! (compiled from [`Route::construct_inference`]) are forward-only: no
//! gradients exist, every output is freed at its last forward reader, and
//! nothing is eagerly offloaded (there is no backward to fetch it back for).

use std::hash::{Hash, Hasher};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use sn_graph::liveness::{LivenessOptions, LivenessPlan, TensorId, TensorRole};
use sn_graph::{LayerId, LayerKind, Net, NetCost, Precision, Route, StepPhase};
use sn_sim::{AllocGrant, DeviceAllocator, DeviceSpec, SimTime};
use sn_telemetry::{Counter, MetricsRegistry};

use crate::convalgo::{self, AlgoChoice, ConvAlgo};
use crate::device::{Device, Memory};
use crate::executor::{Counters, ExecError};
use crate::memo::SharedMemo;
use crate::policy::{Policy, RecomputeMode, WorkspacePolicy};
use crate::recompute::{RecomputePlan, SegmentStrategy};
use crate::session::PeakPrediction;
use crate::tune::TuneMetrics;
use crate::utp::{Residence, Utp};

/// One residency instruction. A step's ops execute strictly in order: `pre`
/// ops before the kernel, `post` ops after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Materialize tensor `t` on device (fresh allocation).
    Alloc(TensorId),
    /// Allocate device memory for `t` and copy it in from its host slot
    /// (H2D; consumers gate on the transfer).
    Fetch(TensorId),
    /// Start a device→host copy-out of `t`: `evict: true` is an Alg. 2
    /// cache eviction (release as soon as the copy lands), `false` an eager
    /// checkpoint offload (release once all forward consumers ran).
    Offload { t: TensorId, evict: bool },
    /// Release the device copy of `t` (awaiting its in-flight copy-out
    /// first); the host copy, if any, becomes the residence.
    ReleaseDevice(TensorId),
    /// Fully free `t`: device grant, host slot, any in-flight transfer.
    Free(TensorId),
    /// Replay `layer`'s forward as part of a §3.4 recomputation segment.
    Recompute(LayerId),
    /// Allocate the step's convolution workspace (exactly these bytes).
    AllocWorkspace(u64),
    /// Allocate the step's transient buffer (weight gradient / fwd mask).
    AllocTransient(u64),
    /// Release the step's workspace + transient buffer.
    FreeTransients,
}

/// The workspace decision for one CONV step (Fig. 12's record): a view
/// [`MemoryPlan::workspace`] derives from the step's algorithm, not stored.
#[derive(Debug, Clone, Copy)]
pub struct WorkspacePlan {
    pub bytes: u64,
    pub max_speed_bytes: u64,
    pub algo: &'static str,
    pub speedup: f64,
}

/// Half-open index range into the plan's flat op stream
/// ([`MemoryPlan::ops`]): a step's sections, read with [`MemoryPlan::pre`]
/// and [`MemoryPlan::post`], and the end-of-iteration ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpRange {
    pub start: u32,
    pub end: u32,
}

impl OpRange {
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The compiled schedule of one step: what the walk decided and nothing
/// else. Its layer and phase are the route's ([`Route::step`]); its two op
/// sections tile [`MemoryPlan::ops`] in step order, so each starts where
/// the one before ended and only the ends are stored.
#[derive(Debug, Clone, Copy)]
pub struct StepPlan {
    /// Kernel duration (with the chosen conv algorithm's speed factor).
    pub duration: SimTime,
    /// End of the residency ops before the kernel (input staging,
    /// evictions, replays, workspace/transient allocation): the kernel's
    /// place in the op stream.
    pub(crate) pre_end: u32,
    /// End of the residency ops after the kernel (transient release, eager
    /// offload, prefetch-ahead, liveness frees, recompute cleanup).
    pub(crate) post_end: u32,
    /// The §3.5 selector's algorithm on a CONV step, `None` on any other.
    pub(crate) algo: Option<ConvAlgo>,
}

// The interpreter reads one record per step it runs.
const _: () = assert!(std::mem::size_of::<StepPlan>() == 24);

/// The static memory plan: per-step actions and the exact predicted peak,
/// holding nothing its route or net already says. (Per-tensor creation and
/// death steps are in [`CompiledPlan::liveness`]'s `tensors`.)
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    pub steps: Vec<StepPlan>,
    /// The flat op stream, in execution order (`pre(0) post(0) pre(1) …
    /// final`); steps and `final_range` index into it.
    pub ops: Vec<PlanOp>,
    /// End-of-iteration ops (trailing offloads whose device copies release
    /// once every consumer has run).
    pub final_range: OpRange,
    /// Exact peak device bytes the execution will hit (allocator
    /// high-water over the planned alloc/free sequence, weights included).
    pub peak_bytes: u64,
    /// Step at which the peak occurs.
    pub peak_step: usize,
    /// Resident weight bytes (the plan's first allocation).
    pub weight_bytes: u64,
    /// Per-iteration counter totals the execution will report.
    pub predicted: Counters,
    /// Forward-only serving plan (no backward half, no gradients)?
    pub inference: bool,
    /// Analytic busy totals per engine, for the iteration-time estimate.
    pub compute_ns: u64,
    pub alloc_ns: u64,
    pub h2d_ns: u64,
    pub d2h_ns: u64,
    /// Every DMA serializes against the host under this policy.
    pub serialized: bool,
}

impl MemoryPlan {
    /// Total op count (diagnostic).
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// The ops of a range.
    pub fn ops_in(&self, r: OpRange) -> &[PlanOp] {
        &self.ops[r.start as usize..r.end as usize]
    }

    /// End-of-iteration ops.
    pub fn final_ops(&self) -> &[PlanOp] {
        self.ops_in(self.final_range)
    }

    /// Step `s`'s ops before its kernel.
    pub fn pre(&self, s: usize) -> OpRange {
        let start = s.checked_sub(1).map_or(0, |p| self.steps[p].post_end);
        let end = self.steps[s].pre_end;
        OpRange { start, end }
    }

    /// Step `s`'s ops after its kernel.
    pub fn post(&self, s: usize) -> OpRange {
        let (start, end) = (self.steps[s].pre_end, self.steps[s].post_end);
        OpRange { start, end }
    }

    /// Step `s`'s dynamic workspace choice, CONV steps only: every field but
    /// the algorithm is a function of the net, derived on each call.
    /// `route` is the one the plan was compiled from.
    pub fn workspace(&self, net: &Net, route: &Route, s: usize) -> Option<WorkspacePlan> {
        let (algo, layer) = (self.steps.get(s)?.algo?, route.step(s).layer);
        let LayerKind::Conv { kernel, .. } = net.layer(layer).kind else {
            return None;
        };
        Some(WorkspacePlan {
            bytes: algo.workspace_bytes(net.in_shape(layer), net.layer(layer).out_shape, kernel),
            max_speed_bytes: convalgo::max_speed_algo(net, layer).workspace,
            algo: algo.name(),
            speedup: algo.speed_factor(kernel),
        })
    }

    /// Analytic iteration-time estimate: the busiest engine's busy total with
    /// no stall and no overlap (the host thread's compute and allocator calls,
    /// the weights' grant the executor makes at build among them; DMA engines
    /// concurrent unless the policy serializes them). Not a pace (see
    /// [`crate::PeakPrediction::iter_time`]); read by the tuner's feasibility
    /// stage (`Search::feasibility_batch`) and solo paces (`ClusterSim::step_time`).
    pub fn iter_time_estimate(&self) -> SimTime {
        let host = self.compute_ns + self.alloc_ns;
        let ns = if self.serialized {
            host + self.h2d_ns + self.d2h_ns
        } else {
            host.max(self.h2d_ns).max(self.d2h_ns)
        };
        SimTime::from_ns(ns)
    }

    /// One op in the on-disk debug format. This vocabulary is
    /// round-trip-stable: tests diff rendered plans across implementations
    /// and PRs.
    fn op_str(op: &PlanOp) -> String {
        match op {
            PlanOp::Alloc(t) => format!("alloc t{}", t.0),
            PlanOp::Fetch(t) => format!("fetch t{}", t.0),
            PlanOp::Offload { t, evict: true } => format!("evict-offload t{}", t.0),
            PlanOp::Offload { t, evict: false } => format!("offload t{}", t.0),
            PlanOp::ReleaseDevice(t) => format!("release t{}", t.0),
            PlanOp::Free(t) => format!("free t{}", t.0),
            PlanOp::Recompute(l) => format!("recompute L{}", l.0),
            PlanOp::AllocWorkspace(b) => format!("ws+{b}"),
            PlanOp::AllocTransient(b) => format!("tr+{b}"),
            PlanOp::FreeTransients => "tr-".into(),
        }
    }

    /// The on-disk debug format: a line per step with its ops, then the
    /// peak/lifetime summary. Stable enough to diff across PRs.
    pub fn render(&self, net: &Net) -> String {
        // A debug path: the route is rebuilt, not stored.
        let route = if self.inference {
            Route::construct_inference(net)
        } else {
            Route::construct(net)
        };
        let op_str = Self::op_str;
        let mut out = format!(
            "MemoryPlan[{}] {} steps, {} ops, peak {} bytes @step {}, weights {}\n",
            if self.inference {
                "inference"
            } else {
                "training"
            },
            self.steps.len(),
            self.n_ops(),
            self.peak_bytes,
            self.peak_step,
            self.weight_bytes,
        );
        for s in 0..self.steps.len() {
            let ops: Vec<String> = self
                .ops_in(self.pre(s))
                .iter()
                .map(op_str)
                .chain(std::iter::once("KERNEL".to_string()))
                .chain(self.ops_in(self.post(s)).iter().map(op_str))
                .collect();
            let step = route.step(s);
            out.push_str(&format!(
                "  {s:>5} {} {:<12} {}{}\n",
                match step.phase {
                    StepPhase::Forward => "F",
                    StepPhase::Backward => "B",
                },
                net.layer(step.layer).name,
                self.workspace(net, &route, s)
                    .map(|w| format!("[{} ws={}] ", w.algo, w.bytes))
                    .unwrap_or_default(),
                ops.join(" "),
            ));
        }
        if !self.final_range.is_empty() {
            let ops: Vec<String> = self.final_ops().iter().map(op_str).collect();
            out.push_str(&format!("  final {}\n", ops.join(" ")));
        }
        out
    }
}

/// Everything a compilation produces: the graph-derived inputs (route,
/// costs, liveness, recomputation segments) plus the [`MemoryPlan`] built
/// from them. Every field is `Arc`-shared — the analyses because they
/// depend only on the net and a few policy bits (one copy serves a whole
/// admission ladder), the plan so that cloning a `CompiledPlan` (e.g. one
/// interpreter per device-group replica) never copies the op stream.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    pub route: Arc<Route>,
    pub cost: Arc<NetCost>,
    pub liveness: Arc<LivenessPlan>,
    pub rplan: Arc<RecomputePlan>,
    pub plan: Arc<MemoryPlan>,
    /// The device caps (`DeviceSpec::dram_bytes`) at which a compile of the
    /// same `(net, policy, card, mode)` makes every decision the way this
    /// one did — same ops, same addresses, same peak, same counters.
    ///
    /// The planner reads the cap in three kinds of place: an allocation
    /// that **fails** (the reclamation ladder, the weights, and the
    /// opportunistic prefetch, which gives up silently), the capacity an
    /// **OOM error** reports, and the free bytes offered to the
    /// **conv-workspace** selector. A walk in which no allocation failed and
    /// every workspace is the one the policy's own limit picks never saw
    /// the cap: first-fit takes the lowest fitting address, a larger cap
    /// only lengthens the free tail, so the plan holds for every cap from
    /// the highest address it touched
    /// ([`DeviceAllocator::extent_high_water`], never below `peak_bytes`) to
    /// `u64::MAX`. Anything else claims the compiled cap alone.
    pub valid_caps: RangeInclusive<u64>,
}

// ---------------------------------------------------------------------
// Analysis caches: one per analysis, each keyed by exactly what it reads.
// ---------------------------------------------------------------------

/// A net's identity in every cache: [`Net::fingerprint`].
type Fp = (u64, u64);

/// Cap on each analysis cache's entries. The set of distinct nets in any
/// one process is usually far smaller; past the cap the least-recently-used
/// entry is forgotten (and re-derived if asked for again).
pub const ANALYSIS_CACHE_CAP: usize = 512;

fn effective_liveness_options(policy: Policy, inference: bool) -> LivenessOptions {
    if inference {
        // Forward-only: recompute-aware lifetime shortening is meaningless
        // (nothing lives past its forward readers to begin with).
        LivenessOptions {
            recompute_non_checkpoints: false,
            ..policy.liveness_options()
        }
    } else {
        policy.liveness_options()
    }
}

fn effective_recompute_mode(policy: Policy, inference: bool) -> RecomputeMode {
    if inference {
        RecomputeMode::None
    } else {
        policy.recompute
    }
}

// ---------------------------------------------------------------------
// The plan memo: (fingerprint, policy, card, cap or "open") → plan.
// ---------------------------------------------------------------------

/// Everything a compilation's outcome depends on, packed losslessly into
/// ten words — the net's [`Net::fingerprint`], the card's
/// [`DeviceSpec::card_fingerprint`] (its nine constants; the name is not
/// identity), the policy in five and last the device cap — and `family`,
/// the first nine folded once when the key is built: each probe hashes one
/// word, `Eq` compares words, and building a key allocates nothing.
///
/// The **device cap** is part of the key only for outcomes it shaped. A
/// `(net, policy, card, mode)` has at most one plan the cap did not shape
/// (two would each be valid at the larger cap, hence equal); it lives under
/// [`PlanKey::open`] and answers every cap in its
/// [`CompiledPlan::valid_caps`]. An outcome the cap shaped (an eviction, a
/// squeezed workspace, an OOM) is served for its own cap alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanKey {
    words: [u64; 10],
    family: u64,
}

/// [`PlanKey::words`]' cap word, the bits each enum of the policy word (the
/// fifth; its bit 0 marks a family's open slot) takes, and one multiplier a
/// word.
const CAP_WORD: usize = 9;
const ENUM_BITS: u32 = 2;
const KEY_MIX: [u64; 10] = odd_keys(0x706c_616e_5f6b_6579);

/// `N` odd multipliers drawn from SplitMix64 at `seed` (as for
/// [`DeviceSpec::card_fingerprint`]).
const fn odd_keys<const N: usize>(mut seed: u64) -> [u64; N] {
    let mut keys = [0; N];
    let mut i = 0;
    while i < N {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        keys[i] = (z ^ (z >> 31)) | 1;
        i += 1;
    }
    keys
}

/// Word `w`, its high half xored into its low half, times its constant `k`.
fn fold(w: u64, k: u64) -> u64 {
    (w ^ (w >> 32)).wrapping_mul(k)
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let cap = fold(self.words[CAP_WORD], KEY_MIX[CAP_WORD]);
        let sum = self.family.wrapping_add(cap);
        let x = (sum ^ (sum >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        state.write_u64(x ^ (x >> 29));
    }
}

impl PlanKey {
    /// The key pinned to `spec`'s cap. The policy is destructured with no
    /// `..`: a field added to it does not compile until it is packed here.
    fn new(net: &Net, spec: &DeviceSpec, policy: Policy, inference: bool) -> PlanKey {
        let Policy {
            liveness,
            keep_all_forward,
            inplace_act,
            offload,
            eager_offload,
            tensor_cache,
            prefetch,
            prefetch_depth,
            pinned_host,
            sync_transfers,
            recompute,
            allocator,
            workspace,
            cache_policy,
            tiers:
                crate::tiers::TierConfig {
                    peer_gpu_bytes,
                    local_host_bytes,
                    remote_bytes,
                },
            precision:
                Precision {
                    activations,
                    gradients,
                },
        } = policy;
        let (workspace, workspace_cap) = match workspace {
            WorkspacePolicy::None => (0, 0),
            WorkspacePolicy::Dynamic => (1, 0),
            WorkspacePolicy::Capped(bytes) => (2, bytes),
        };
        let flags = [
            inference,
            liveness,
            keep_all_forward,
            inplace_act,
            offload,
            eager_offload,
            tensor_cache,
            prefetch,
            pinned_host,
            sync_transfers,
        ]
        .iter()
        .enumerate()
        .fold(0u64, |word, (i, &on)| word | u64::from(on) << (i + 1));
        let enums = recompute as u64
            | (allocator as u64) << ENUM_BITS
            | (cache_policy as u64) << (2 * ENUM_BITS)
            | workspace << (3 * ENUM_BITS)
            | (activations as u64) << (4 * ENUM_BITS)
            | (gradients as u64) << (5 * ENUM_BITS);
        let (fp, card) = (net.fingerprint(), spec.card_fingerprint());
        let words = [
            fp.0,
            fp.1,
            card.0,
            card.1,
            flags | enums << 16 | u64::from(prefetch_depth) << 32,
            workspace_cap,
            peer_gpu_bytes,
            local_host_bytes,
            remote_bytes,
            spec.dram_bytes,
        ];
        let family = (words[..CAP_WORD].iter().zip(&KEY_MIX))
            .fold(0u64, |sum, (&w, &k)| sum.wrapping_add(fold(w, k)));
        PlanKey { words, family }
    }

    /// The slot of this key's open-ended plan: same family, no cap.
    fn open(mut self) -> PlanKey {
        self.words[4] |= 1; // the policy word's open bit
        self.words[CAP_WORD] = 0;
        self
    }
}

/// A memoized outcome — the plan and its [`PeakPrediction`], or the OOM —
/// and the caps it answers, all written by the miss that inserts it.
#[derive(Debug, Clone)]
struct PlanEntry {
    outcome: Result<(PeakPrediction, Arc<CompiledPlan>), ExecError>,
    caps: RangeInclusive<u64>,
}

impl PlanEntry {
    /// Debug builds hold a hit to its plan: the plan's prediction and
    /// `valid_caps`, or for an OOM its own `cap` alone.
    fn checked(&self, cap: u64) -> &PlanEntry {
        if cfg!(debug_assertions) {
            match &self.outcome {
                Ok((p, c)) => assert_eq!(
                    (*p, &self.caps),
                    (PeakPrediction::of(&c.plan), &c.valid_caps)
                ),
                Err(_) => assert_eq!(self.caps, cap..=cap),
            }
        }
        self
    }
}

/// Entry cap of the plan memo: a runaway sweep over thousands of distinct
/// nets must not pin every plan it ever compiled. At the cap each new plan
/// displaces the least-recently-used one (plans are recomputable by
/// definition); everything asked for more recently stays a hit.
pub const PLAN_MEMO_CAP: usize = 4096;

/// Plan-memo effectiveness counters of one [`Compiler`], since its last
/// [`Compiler::clear_plans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

// ---------------------------------------------------------------------
// The compiler: everything the runtime remembers, in one value.
// ---------------------------------------------------------------------

/// What the runtime remembers between compiles, with one owner: the
/// analysis caches, the plan memo, the memo's hit/miss pair, and the
/// [`MetricsRegistry`] on which that pair (`plan.memo.*`) and the
/// autotuner's `tune.*` series are registered at construction. Two
/// compilers share nothing, so a test, a tuner search or a tenant that
/// builds its own starts cold and reads counts that are its own.
/// [`Compiler::shared`] is the one this crate's free functions go through.
#[derive(Debug)]
pub struct Compiler {
    routes: SharedMemo<(Fp, bool), Arc<Route>>,
    costs: SharedMemo<(Fp, Precision), Arc<NetCost>>,
    liveness: SharedMemo<(Fp, bool, LivenessOptions), Arc<LivenessPlan>>,
    rplans: SharedMemo<(Fp, bool, Precision, RecomputeMode), Arc<RecomputePlan>>,
    /// Per-layer max-speed conv algorithm choice (Fig. 12's "MAX Speed WS"
    /// series): a pure function of the net.
    max_algos: SharedMemo<Fp, Arc<Vec<AlgoChoice>>>,
    plans: SharedMemo<PlanKey, PlanEntry>,
    /// Walk states no compile is using: one per compile run at once, at most.
    walks: Mutex<Vec<WalkState>>,
    /// `plan.memo.hit` and `plan.memo.miss`: monotone, one relaxed
    /// increment a lookup.
    hits: Counter,
    misses: Counter,
    /// `(hits, misses)` as they stood at the last [`Compiler::clear_plans`].
    at_clear: (AtomicU64, AtomicU64),
    metrics: MetricsRegistry,
    pub(crate) tune: TuneMetrics,
}

impl Default for Compiler {
    fn default() -> Compiler {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler that remembers nothing yet.
    pub fn new() -> Compiler {
        let metrics = MetricsRegistry::new();
        Compiler {
            routes: SharedMemo::new(ANALYSIS_CACHE_CAP),
            costs: SharedMemo::new(ANALYSIS_CACHE_CAP),
            liveness: SharedMemo::new(ANALYSIS_CACHE_CAP),
            rplans: SharedMemo::new(ANALYSIS_CACHE_CAP),
            max_algos: SharedMemo::new(ANALYSIS_CACHE_CAP),
            plans: SharedMemo::new(PLAN_MEMO_CAP),
            walks: Mutex::new(Vec::new()),
            hits: metrics.counter("plan.memo.hit"),
            misses: metrics.counter("plan.memo.miss"),
            at_clear: (AtomicU64::new(0), AtomicU64::new(0)),
            tune: TuneMetrics::register(&metrics),
            metrics,
        }
    }

    /// The process's compiler: what [`compile_memo`], [`crate::session::feasible`],
    /// [`crate::tune::search`] and the other free functions of this crate
    /// remember into. The only `static` outside tests in the workspace.
    pub fn shared() -> &'static Compiler {
        static SHARED: OnceLock<Compiler> = OnceLock::new();
        SHARED.get_or_init(Compiler::new)
    }

    /// Compile through the plan memo — a training plan, or with `inference`
    /// a forward-only one — and say whether the memo answered. A repeated
    /// `(net, policy, card)`, at the same cap or at any other cap the
    /// memoized plan is valid for (the common case in admission ladders and
    /// feasibility binary searches), returns the shared `Arc` instead of
    /// recompiling. OOM outcomes are memoized too: a job that does not fit a
    /// budget still does not fit it the next time the ladder asks.
    pub fn compile(
        &self,
        net: &Net,
        spec: &DeviceSpec,
        policy: Policy,
        inference: bool,
    ) -> (Result<Arc<CompiledPlan>, ExecError>, bool) {
        let read = |e: &PlanEntry| e.outcome.clone().map(|(_, plan)| plan);
        self.lookup(net, spec, policy, inference, read)
    }

    /// [`Compiler::compile`] down to what admission reads: the
    /// [`PeakPrediction`] and the caps it holds for — the plan's
    /// [`CompiledPlan::valid_caps`], or an OOM's own cap alone — copied out
    /// of the memo entry, which holds both beside the plan: a hit touches no
    /// `Arc` and allocates nothing. Counted as `compile` counts.
    pub(crate) fn predict(
        &self,
        net: &Net,
        spec: &DeviceSpec,
        policy: Policy,
        inference: bool,
    ) -> (Result<PeakPrediction, ExecError>, RangeInclusive<u64>) {
        let read = |e: &PlanEntry| {
            let prediction = e.outcome.as_ref().map(|&(p, _)| p).map_err(Clone::clone);
            (prediction, e.caps.clone())
        };
        self.lookup(net, spec, policy, inference, read).0
    }

    /// The memo's entry for the question, passed through `read`, and
    /// whether the memo answered: one key built, one hit or one miss
    /// counted, one guard taken, and on a miss one compile, memoized.
    fn lookup<R>(
        &self,
        net: &Net,
        spec: &DeviceSpec,
        policy: Policy,
        inference: bool,
        read: impl Fn(&PlanEntry) -> R,
    ) -> (R, bool) {
        let key = PlanKey::new(net, spec, policy, inference);
        let (open, cap) = (key.open(), spec.dram_bytes);
        // The open-ended plan first — one probe answers every cap that does not
        // bind — then the outcome pinned to this exact cap, under one guard.
        let hit = self.plans.probe(|memo| match memo.get(&open) {
            Some(entry) if entry.caps.contains(&cap) => Some(read(entry.checked(cap))),
            _ => memo.get(&key).map(|pinned| read(pinned.checked(cap))),
        });
        if let Some(hit) = hit {
            self.hits.inc();
            return (hit, true);
        }
        self.misses.inc();
        // Compile outside the lock: concurrent sweeps may duplicate a compile
        // (both produce identical plans — last insert wins) but never block on
        // each other's compilation.
        let outcome = self.compile_fresh(net, spec, policy, inference);
        let caps = outcome.as_ref().map_or(cap..=cap, |c| c.valid_caps.clone());
        let outcome = outcome.map(|c| (PeakPrediction::of(&c.plan), Arc::new(c)));
        let entry = PlanEntry { outcome, caps };
        let answer = read(&entry);
        let slot = match &entry.outcome {
            Ok(_) if *entry.caps.end() == u64::MAX => open,
            _ => key,
        };
        self.plans.insert(slot, entry);
        (answer, false)
    }

    /// Always run the plan walk; only the graph analyses may come from
    /// this compiler's cache.
    fn compile_fresh(
        &self,
        net: &Net,
        spec: &DeviceSpec,
        policy: Policy,
        inference: bool,
    ) -> Result<CompiledPlan, ExecError> {
        // Each analysis is cached under exactly what it reads; the
        // `effective_*` adjustments drop what an inference plan ignores.
        let fp = net.fingerprint();
        let options = effective_liveness_options(policy, inference);
        let rmode = effective_recompute_mode(policy, inference);
        // Costs at the options' precision: activation/gradient tensors and
        // the all-reduce payload scale by dtype, master weights stay fp32.
        let precision = options.precision;
        let route = self.routes.get_or_insert_with((fp, inference), || {
            Arc::new(if inference {
                Route::construct_inference(net)
            } else {
                Route::construct(net)
            })
        });
        let cost = self.costs.get_or_insert_with((fp, precision), || {
            Arc::new(NetCost::with_precision(net, precision))
        });
        let liveness = self
            .liveness
            .get_or_insert_with((fp, inference, options), || {
                Arc::new(LivenessPlan::analyze(net, &route, options))
            });
        let rplan = self
            .rplans
            .get_or_insert_with((fp, inference, precision, rmode), || {
                Arc::new(RecomputePlan::build(net, &route, &cost, rmode))
            });
        let max_algo = self.max_algos.get_or_insert_with(fp, || {
            let algo = |l: &sn_graph::Layer| convalgo::max_speed_algo(net, l.id);
            Arc::new(net.layers().iter().map(algo).collect())
        });
        let reused = self.walks().pop();
        let mut w = reused.unwrap_or_else(|| WalkState::new(spec, policy));
        w.renew(spec, policy, &route, &liveness, &rplan);
        let planned = Planner {
            net,
            spec,
            route: &route,
            cost: &cost,
            liveness: &liveness,
            rplan: &rplan,
            max_algo: &max_algo,
            policy,
            inference,
            w: &mut w,
            counters: Counters::default(),
            steps: Vec::with_capacity(route.total_steps()),
            sec_start: 0,
            peak_step: 0,
            peak_seen: 0,
            cap_bound: false,
            cur_step: 0,
            compute_ns: 0,
            h2d_ns: 0,
            d2h_ns: 0,
        }
        .run();
        let compiled = planned.map(|(plan, valid_caps)| CompiledPlan {
            route,
            cost,
            liveness,
            rplan,
            plan: Arc::new(plan),
            valid_caps,
        });
        if let (true, Ok(c)) = (cfg!(debug_assertions), &compiled) {
            // The walk grew its allocator to this plan's traffic.
            assert_eq!(c.verify_on(net, spec, policy, &mut w.dev.alloc), Ok(()));
        }
        self.walks().push(w);
        compiled
    }

    /// The free walk states. Only a pop or a push runs under this lock, so
    /// a guard a panicking thread poisoned is still sound to take.
    fn walks(&self) -> MutexGuard<'_, Vec<WalkState>> {
        self.walks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hits and misses since the last [`Compiler::clear_plans`], and the
    /// memo's current entry count.
    pub fn stats(&self) -> MemoStats {
        let since = |now: &Counter, then: &AtomicU64| {
            now.get().saturating_sub(then.load(Ordering::Relaxed))
        };
        MemoStats {
            hits: since(&self.hits, &self.at_clear.0),
            misses: since(&self.misses, &self.at_clear.1),
            entries: self.plans.len(),
        }
    }

    /// Drop every memoized plan and restart [`Compiler::stats`] from zero;
    /// the analysis caches stay warm (a memo-cold, analyses-warm compile is
    /// the steady-state admission regime). Measurement support — never
    /// needed for correctness. The registry's `plan.memo.*` stay monotone.
    pub fn clear_plans(&self) {
        self.plans.clear();
        self.at_clear.0.store(self.hits.get(), Ordering::Relaxed);
        self.at_clear.1.store(self.misses.get(), Ordering::Relaxed);
    }

    /// [`Compiler::clear_plans`] plus the five analysis caches: the next
    /// compile of any net pays the full route/cost/liveness/recompute
    /// derivation again. Like a cleared memo's capacity, the free walk
    /// states stay.
    pub fn clear_all(&self) {
        self.clear_plans();
        self.routes.clear();
        self.costs.clear();
        self.liveness.clear();
        self.rplans.clear();
        self.max_algos.clear();
    }

    /// The registry carrying this compiler's `plan.memo.*` and `tune.*`.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

/// [`Compiler::stats`] of the shared compiler.
pub fn plan_memo_stats() -> MemoStats {
    Compiler::shared().stats()
}

/// [`Compiler::clear_plans`] on the shared compiler.
pub fn clear_plan_memo() {
    Compiler::shared().clear_plans();
}

/// [`Compiler::clear_all`] on the shared compiler.
pub fn clear_all_caches() {
    Compiler::shared().clear_all();
}

/// [`compile`] through the shared compiler's plan memo — see
/// [`Compiler::compile`].
pub fn compile_memo(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<Arc<CompiledPlan>, ExecError> {
    Compiler::shared().compile(net, spec, policy, false).0
}

/// [`compile_inference`] through the shared compiler's plan memo.
pub fn compile_inference_memo(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<Arc<CompiledPlan>, ExecError> {
    Compiler::shared().compile(net, spec, policy, true).0
}

// ---------------------------------------------------------------------
// Compilation entry points
// ---------------------------------------------------------------------

/// Compile a training plan: one `2N`-step iteration. Always compiles (the
/// graph analyses may still come from the shared compiler's cache); see
/// [`compile_memo`] for the memoized form hot paths should prefer.
pub fn compile(net: &Net, spec: &DeviceSpec, policy: Policy) -> Result<CompiledPlan, ExecError> {
    Compiler::shared().compile_fresh(net, spec, policy, false)
}

/// Compile a forward-only inference plan: `N` steps, outputs freed at their
/// last forward reader, no gradients, no eager offload, no recomputation.
pub fn compile_inference(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<CompiledPlan, ExecError> {
    Compiler::shared().compile_fresh(net, spec, policy, true)
}

/// "No node": an empty list's head, the last node's link.
const NIL: u32 = u32::MAX;

/// The recomputed tensors to drop at the end of each step: one
/// first-in-first-out list per step, all threaded through a single node
/// pool, so a replay that schedules a drop allocates nothing. Drop order is
/// push order — it is the order of the plan's `release` ops.
#[derive(Debug, Default)]
struct FreeQueues {
    /// Per step: the first and the last node of its list, or [`NIL`].
    head: Vec<u32>,
    tail: Vec<u32>,
    /// `(tensor, next node of the same step)`.
    nodes: Vec<(TensorId, u32)>,
}

impl FreeQueues {
    /// `steps` empty lists, in the allocations already held.
    fn renew(&mut self, steps: usize) {
        for ends in [&mut self.head, &mut self.tail] {
            ends.clear();
            ends.resize(steps, NIL);
        }
        self.nodes.clear();
    }

    fn push(&mut self, step: usize, t: TensorId) {
        let node = self.nodes.len() as u32;
        self.nodes.push((t, NIL));
        match std::mem::replace(&mut self.tail[step], node) {
            NIL => self.head[step] = node,
            last => self.nodes[last as usize].1 = node,
        }
    }
}

/// Everything a plan walk works in that is not its result. A [`Compiler`]
/// keeps these between compiles, so a warm compile allocates the plan it
/// returns and nothing else.
#[derive(Debug)]
struct WalkState {
    dev: Device,
    utp: Utp,
    /// Recomputed tensors to drop at the end of a given step (no lists at
    /// all when the recompute plan has no segments).
    recomputed_free_at: FreeQueues,
    /// The op stream, copied out at its exact length when the walk ends;
    /// the section since `Planner::sec_start` is the one being accumulated.
    ops: Vec<PlanOp>,
    /// Reused buffer for the per-step reapable-offload drain.
    reap_scratch: Vec<TensorId>,
    /// Reused buffer for a memory-centric replay's dependency chain.
    chain_scratch: Vec<LayerId>,
}

impl WalkState {
    fn new(spec: &DeviceSpec, policy: Policy) -> WalkState {
        WalkState {
            dev: Device::new(spec, policy.allocator, policy.tiers),
            utp: Utp::new(0),
            recomputed_free_at: FreeQueues::default(),
            ops: Vec::new(),
            reap_scratch: Vec::new(),
            chain_scratch: Vec::new(),
        }
    }

    /// Ready for a walk of `route` on `spec` under `policy`, as if new: all
    /// a failed walk left behind — pins, pending offloads, grants — goes.
    fn renew(
        &mut self,
        spec: &DeviceSpec,
        policy: Policy,
        route: &Route,
        liveness: &LivenessPlan,
        rplan: &RecomputePlan,
    ) {
        self.dev.reset(spec, policy.allocator, policy.tiers);
        self.utp.renew(liveness.tensors.len());
        // Nothing is ever replayed without segments: no lists to fill.
        let replays = !rplan.segments.is_empty();
        self.recomputed_free_at
            .renew(if replays { route.total_steps() } else { 0 });
        self.ops.clear();
    }
}

/// What a ladder allocation is for — only turned into a display string on
/// the error path (the planner used to clone a layer-name `String` per
/// allocation; at thousands of allocations per compile that was measurable).
#[derive(Debug, Clone, Copy)]
enum AllocFor {
    Layer(LayerId),
    Workspace,
    Transient,
}

/// The compiler: the executor's old scheduling brain, run against allocator
/// + host-pool state only, emitting ops instead of touching a timeline.
struct Planner<'a> {
    net: &'a Net,
    spec: &'a DeviceSpec,
    route: &'a Route,
    cost: &'a NetCost,
    liveness: &'a LivenessPlan,
    rplan: &'a RecomputePlan,
    /// Per-layer max-speed conv choice (shared, precomputed).
    max_algo: &'a [AlgoChoice],
    policy: Policy,
    inference: bool,
    w: &'a mut WalkState,
    counters: Counters,
    /// The steps planned so far, pushed in place.
    steps: Vec<StepPlan>,
    /// Where the op section being accumulated starts in `w.ops`.
    sec_start: usize,
    peak_step: usize,
    peak_seen: u64,
    /// Has the device cap decided anything yet? Set by the two places that
    /// read it — [`Planner::charged_alloc`] on a failure and
    /// [`Planner::choose_workspace`] on a squeezed choice (an OOM error's
    /// `capacity` only ever follows a failed allocation). While it is
    /// clear, the walk is the walk of every cap the pool's address extent
    /// fits under.
    cap_bound: bool,
    cur_step: usize,
    compute_ns: u64,
    h2d_ns: u64,
    d2h_ns: u64,
}

impl<'a> Planner<'a> {
    fn meta(&self, t: TensorId) -> &'a sn_graph::TensorMeta {
        &self.liveness.tensors[t.0]
    }

    /// Close the op section accumulated since the last close.
    fn take_section(&mut self) -> OpRange {
        let r = OpRange {
            start: self.sec_start as u32,
            end: self.w.ops.len() as u32,
        };
        self.sec_start = self.w.ops.len();
        r
    }

    /// How long a copy of `t` to or from its external tier takes.
    fn transfer_ns(&self, t: TensorId) -> u64 {
        let tier = self.w.utp.tier_of(t);
        tier.copy_time(self.meta(t).bytes, &self.policy, self.spec)
            .as_ns()
    }

    /// Allocate, tracking where the peak lands — and whether the cap was
    /// felt: every device allocation of the walk (ladder, weights,
    /// prefetch-ahead) comes through here, and a failure is the one way an
    /// allocation can tell one cap from a larger one.
    fn charged_alloc(&mut self, bytes: u64) -> Result<AllocGrant, sn_sim::AllocError> {
        let g = self
            .w
            .dev
            .alloc_charged(bytes)
            .inspect_err(|_| self.cap_bound = true)?;
        let used = self.w.dev.alloc.used();
        if used > self.peak_seen {
            self.peak_seen = used;
            self.peak_step = self.cur_step;
        }
        Ok(g)
    }

    /// Emit `ReleaseDevice(t)` and apply it.
    fn release_device(&mut self, t: TensorId) {
        self.w.ops.push(PlanOp::ReleaseDevice(t));
        self.w.utp.release_device(t, &mut self.w.dev);
    }

    /// Drop a recomputed tensor's device copy (memory-centric cleanup),
    /// honouring the lock/offloading guards.
    fn drop_device_copy(&mut self, t: TensorId) {
        let st = self.w.utp.state(t);
        if st.lock > 0 || st.offloading || st.residence() != Residence::Device {
            return;
        }
        self.release_device(t);
    }

    /// Release every pending offload whose consumers have all run — the
    /// step-boundary drain that pins the memory trajectory at every
    /// allocation point, independent of DMA timing.
    fn drain_reapable(&mut self, step: usize) {
        if self.w.utp.pending_offloads.is_empty() {
            return;
        }
        let w = &mut *self.w;
        let mut scratch = std::mem::take(&mut w.reap_scratch);
        w.utp.collect_reapable(self.liveness, step, &mut scratch);
        self.counters.reaps += scratch.len() as u64;
        for &t in &scratch {
            self.release_device(t);
        }
        self.w.reap_scratch = scratch;
    }

    /// One rung of the reclamation ladder: release the earliest reapable
    /// in-flight offload, else evict via the Tensor Cache. `Ok(true)` means
    /// memory may have been freed and the allocation is worth retrying.
    fn reclaim_some(&mut self, step: usize) -> Result<bool, ExecError> {
        if let Some(t) = self.w.utp.first_reapable(self.liveness, step) {
            self.counters.reaps += 1;
            self.release_device(t);
            return Ok(true);
        }
        if self.policy.tensor_cache {
            return self.evict_one(step);
        }
        Ok(false)
    }

    /// `LRU.out` (Alg. 2): pick the cache's victim; start an eviction
    /// copy-out if its contents are still needed, release directly if a
    /// valid host copy exists (or the contents are dead).
    fn evict_one(&mut self, step: usize) -> Result<bool, ExecError> {
        let Some(victim) = self.w.utp.pick_victim(self.policy.cache_policy) else {
            return Ok(false);
        };
        // Inclusive: a tensor whose last use is the *current* step is still
        // needed by it (eviction can run while the step assembles inputs).
        let meta = self.meta(victim);
        let needed_later =
            meta.last_use_step >= step || meta.bwd_last_use.is_some_and(|b| b >= step);
        let bytes = meta.bytes;
        let st = self.w.utp.state(victim);
        debug_assert_eq!(st.residence(), Residence::Device);
        if needed_later && !st.host_valid {
            let slot = self.w.utp.ensure_host_slot(victim, bytes, &mut self.w.dev);
            slot.ok_or(ExecError::HostExhausted { requested: bytes })?;
            self.d2h_ns += self.transfer_ns(victim);
            self.w.utp.mark_offloading(victim, true);
            self.w.utp.lru_remove(victim);
            self.w.ops.push(PlanOp::Offload {
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

    /// Allocate device memory for `bytes` with the reclamation ladder.
    fn ladder_alloc(
        &mut self,
        bytes: u64,
        step: usize,
        what: AllocFor,
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
                        layer: match what {
                            AllocFor::Layer(l) => Arc::from(self.net.layer(l).name.as_str()),
                            AllocFor::Workspace => "conv workspace".into(),
                            AllocFor::Transient => "transient buffer".into(),
                        },
                        requested: bytes,
                        capacity: self.w.dev.alloc.capacity(),
                    });
                }
            }
        }
    }

    /// The §3.5 dynamic workspace decision for CONV `layer`: the fastest
    /// algorithm whose workspace fits both the memory the pool has left
    /// (free bytes, and one fragment must hold it) and the policy's own
    /// limit. The other read of the cap: when memory, not the policy, made
    /// the choice, the plan is this cap's alone. When the policy made it,
    /// the workspace allocation that follows succeeds in place, so under
    /// any cap that covers its address the pool still offers at least that
    /// many bytes and the selector — monotone in its budget — picks the
    /// same algorithm.
    fn choose_workspace(&mut self, layer: LayerId) -> AlgoChoice {
        let unsqueezed = match self.policy.workspace {
            WorkspacePolicy::None => return AlgoChoice::fallback(),
            WorkspacePolicy::Dynamic => self.max_algo[layer.0],
            WorkspacePolicy::Capped(cap) => convalgo::select_algo(self.net, layer, cap),
        };
        let alloc = &self.w.dev.alloc;
        let memory = alloc.free_bytes().min(alloc.largest_free_contiguous());
        // The limit's own winner, where the pool can hold it, is what the
        // selector would pick again under the smaller budget (see
        // `select_algo`): no second scan, and the cap decided nothing.
        if unsqueezed.workspace <= memory {
            return unsqueezed;
        }
        self.cap_bound = true;
        convalgo::select_algo(self.net, layer, memory)
    }

    /// Make `t` device-resident (the Check() of Alg. 2; may recompute).
    fn ensure_present(&mut self, t: TensorId, step: usize) -> Result<(), ExecError> {
        match self.w.utp.state(t).residence() {
            Residence::Device => {
                self.counters.cache_hits += 1;
                self.w.utp.lru_touch(t);
                Ok(())
            }
            Residence::Host => {
                self.counters.cache_misses += 1;
                let meta = self.meta(t);
                let (bytes, layer) = (meta.bytes, meta.layer);
                let g = self.ladder_alloc(bytes, step, AllocFor::Layer(layer))?;
                self.w.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.h2d_ns += self.transfer_ns(t);
                self.w.ops.push(PlanOp::Fetch(t));
                self.counters.prefetches += 1;
                Ok(())
            }
            Residence::None => {
                // Only recomputable forward outputs may be legitimately
                // absent; anything else is a scheduling bug.
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
                    self.w.utp.state(t).residence(),
                    Residence::Device,
                    "replay of {} at step {step} did not leave its output on the device",
                    self.net.layer(layer).name
                );
                Ok(())
            }
        }
    }

    /// Plan the §3.4 segment replay reconstructing `layer`'s forward output.
    fn recompute_for(&mut self, layer: LayerId, step: usize) -> Result<(), ExecError> {
        let si = self.rplan.segment_of[layer.0]
            .unwrap_or_else(|| panic!("{} is not recomputable", self.net.layer(layer).name));
        let rplan = self.rplan;
        let (strategy, anchor) = {
            let seg = &rplan.segments[si];
            (seg.strategy, seg.anchor)
        };

        // The anchor checkpoint seeds the replay: bring it back first.
        let anchor_t = self.liveness.fwd_out[anchor.0];
        self.ensure_present(anchor_t, step)?;
        self.w.utp.lock(anchor_t);

        // Speed-centric replays walk the segment's member list in place
        // (it lives in the shared recompute plan); memory-centric replays
        // walk the dependency chain computed for this specific layer, into
        // a buffer every replay reuses (the loop below never re-enters this
        // function, so one buffer is enough).
        let mut chain = std::mem::take(&mut self.w.chain_scratch);
        let members: &[LayerId] = match strategy {
            SegmentStrategy::SpeedCentric => rplan.members_of(si),
            SegmentStrategy::MemoryCentric => {
                rplan.chain_into(self.net, layer, &mut chain);
                &chain
            }
        };
        // Memory-centric replay frees each chain intermediate as soon as the
        // next link has consumed it, keeping the replay working set at two
        // tensors (Fig. 9b's "memcost stays at l_b").
        let target = *members.last().unwrap_or(&layer);
        let mut prev_link: Option<TensorId> = None;
        // The anchor is read by the members it feeds directly. Past the last
        // of them its pin goes: a later member's allocation may evict it
        // like any other checkpoint (held to the end, it left holes in the
        // feasible batch range — `sn-frameworks`' 768 MiB test sits in one).
        let last_anchor_reader = members
            .iter()
            .rposition(|&m| self.net.layer(m).prevs.contains(&anchor))
            .unwrap_or(0);
        let mut anchor_pinned = true;

        // Every member the walk has passed is device-resident and carries
        // one pin of this replay until the replay ends, so a later member's
        // allocation can evict neither an input still to be read nor the
        // output the caller asked for. (An `Err` below leaves the pins
        // held: the next walk in this walk state forgets them.)
        for (i, &m) in members.iter().enumerate() {
            if anchor_pinned && i > last_anchor_reader {
                self.w.utp.unlock(anchor_t);
                anchor_pinned = false;
            }
            let mt = self.liveness.fwd_out[m.0];
            match self.w.utp.state(mt).residence() {
                Residence::Device => {
                    // Materialized by an earlier replay.
                    self.w.utp.lock(mt);
                    continue;
                }
                Residence::Host => {
                    // A previously recomputed copy was evicted to the host;
                    // fetching it back is cheaper than recomputing the chain.
                    self.ensure_present(mt, step)?;
                    self.w.utp.lock(mt);
                    continue;
                }
                Residence::None => {}
            }
            let bytes = self.meta(mt).bytes;
            let g = self.ladder_alloc(bytes, step, AllocFor::Layer(m))?;
            self.w.utp.mark_device(mt, g.id, self.policy.tensor_cache);
            self.w.utp.lock(mt);
            self.w.ops.push(PlanOp::Alloc(mt));
            // Inputs of a segment member are its producers' outputs: the
            // anchor or earlier members, which the replay holds pinned.
            for &p in &self.net.layer(m).prevs {
                assert_eq!(
                    self.w.utp.state(self.liveness.fwd_out[p.0]).residence(),
                    Residence::Device,
                    "replay of {} at step {step} reads {} off the device",
                    self.net.layer(m).name,
                    self.net.layer(p).name
                );
            }
            self.w.ops.push(PlanOp::Recompute(m));
            let lk = &self.net.layer(m).kind;
            self.compute_ns += self.cost.layer(m).fwd_time(lk, self.spec, 1.0).as_ns();
            self.counters.recompute_forwards += 1;

            match strategy {
                SegmentStrategy::SpeedCentric => {
                    let free_at = self.meta(mt).bwd_last_use.unwrap_or(step).max(step);
                    self.w.recomputed_free_at.push(free_at, mt);
                }
                SegmentStrategy::MemoryCentric => {
                    if let Some(prev) = prev_link.take() {
                        // Consumed: the link's bytes go now. Its pin is
                        // lifted for the drop and put back, so the closing
                        // walk unpins every member alike.
                        self.w.utp.unlock(prev);
                        self.drop_device_copy(prev);
                        self.w.utp.lock(prev);
                    }
                    if m == target {
                        self.w.recomputed_free_at.push(step, mt);
                    } else {
                        prev_link = Some(mt);
                    }
                }
            }
        }
        for &m in members {
            self.w.utp.unlock(self.liveness.fwd_out[m.0]);
        }

        if anchor_pinned {
            self.w.utp.unlock(anchor_t);
        }
        self.w.chain_scratch = chain;
        Ok(())
    }

    /// Plan the overlapped prefetch of host-resident tensors needed by
    /// upcoming backward steps, up to and including the next offloadable
    /// checkpoint's backward. Opportunistic: never evicts on its behalf.
    fn prefetch_ahead(&mut self, step: usize) {
        if self.w.utp.host_resident() == 0 {
            return;
        }
        let route = self.route;
        let liveness = self.liveness;
        let total = route.total_steps();
        let depth = self.policy.prefetch_depth as usize;
        let mut seen_ckpt = false;
        for s in (step + 1)..total.min(step + 1 + depth) {
            for &t in &liveness.step_inputs[s] {
                if self.w.utp.state(t).residence() != Residence::Host {
                    continue;
                }
                let bytes = self.meta(t).bytes;
                let Ok(g) = self.charged_alloc(bytes) else {
                    return;
                };
                self.w.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.h2d_ns += self.transfer_ns(t);
                self.w.ops.push(PlanOp::Fetch(t));
                self.counters.prefetches += 1;
            }
            let l = route.step(s).layer;
            if route.step(s).phase == StepPhase::Backward
                && self.net.layer(l).kind.is_offload_candidate()
            {
                if seen_ckpt {
                    break;
                }
                seen_ckpt = true;
            }
        }
    }

    fn plan_step(&mut self, s: usize) -> Result<(), ExecError> {
        self.cur_step = s;
        let liveness = self.liveness;
        let step = self.route.step(s);
        let layer_id = step.layer;
        let kind = &self.net.layer(layer_id).kind;
        let lcost = self.cost.layer(layer_id);

        debug_assert_eq!(self.sec_start, self.w.ops.len());

        // Reap offloads whose consumers have all run, so this step's
        // allocations see the same free memory a synchronous engine would.
        self.drain_reapable(s);

        // 1. Stage inputs (may fetch, may plan a recomputation replay).
        for &t in &liveness.step_inputs[s] {
            self.ensure_present(t, s)?;
            // Lock immediately: ensuring a later input may trigger eviction
            // and must not victimize an input we already staged.
            self.w.utp.lock(t);
        }

        // 2. Materialize this step's outputs.
        for &t in &liveness.created_at[s] {
            if self.w.utp.state(t).residence() == Residence::None {
                let meta = self.meta(t);
                let (bytes, layer) = (meta.bytes, meta.layer);
                let g = self.ladder_alloc(bytes, s, AllocFor::Layer(layer))?;
                self.w.utp.mark_device(t, g.id, self.policy.tensor_cache);
                self.w.ops.push(PlanOp::Alloc(t));
            }
            self.w.utp.lock(t);
        }

        // 3. Transients: dynamic conv workspace (§3.5) and the backward
        //    weight-gradient buffer (or forward mask workspace).
        let mut choice = AlgoChoice::fallback();
        let mut ws_grant = None;
        let conv = matches!(kind, LayerKind::Conv { .. });
        if conv {
            choice = self.choose_workspace(layer_id);
            if choice.workspace > 0 {
                ws_grant = Some(self.ladder_alloc(choice.workspace, s, AllocFor::Workspace)?);
                self.w.ops.push(PlanOp::AllocWorkspace(choice.workspace));
            }
        }
        let transient_bytes = if step.phase == StepPhase::Backward {
            lcost.wgrad_bytes
        } else {
            lcost.fwd_workspace
        };
        let tr_grant = if transient_bytes > 0 {
            let g = self.ladder_alloc(transient_bytes, s, AllocFor::Transient)?;
            self.w.ops.push(PlanOp::AllocTransient(transient_bytes));
            Some(g)
        } else {
            None
        };

        // 4. The kernel itself.
        let duration = match step.phase {
            StepPhase::Forward => lcost.fwd_time(kind, self.spec, choice.speedup),
            StepPhase::Backward => lcost.bwd_time(kind, self.spec, choice.speedup),
        };
        self.compute_ns += duration.as_ns();
        let pre = self.take_section();

        // 5. Release transients.
        if ws_grant.is_some() || tr_grant.is_some() {
            self.w.ops.push(PlanOp::FreeTransients);
            if let Some(g) = ws_grant {
                self.w.dev.free_charged(g.id);
            }
            if let Some(g) = tr_grant {
                self.w.dev.free_charged(g.id);
            }
        }

        // 6. Unlock.
        for &t in liveness.step_inputs[s]
            .iter()
            .chain(liveness.created_at[s].iter())
        {
            self.w.utp.unlock(t);
        }

        // 7. Eager offload of checkpoint outputs (Fig. 10b policy). Never
        //    for inference: there is no backward to fetch them back for.
        if !self.inference
            && step.phase == StepPhase::Forward
            && self.policy.offload
            && self.policy.eager_offload
        {
            let t = liveness.fwd_out[layer_id.0];
            let meta = self.meta(t);
            let (offloadable, bytes) = (meta.offloadable, meta.bytes);
            let st = self.w.utp.state(t);
            if offloadable && bytes > 0 && !st.host_valid && !st.offloading {
                let slot = self.w.utp.ensure_host_slot(t, bytes, &mut self.w.dev);
                slot.ok_or(ExecError::HostExhausted { requested: bytes })?;
                self.d2h_ns += self.transfer_ns(t);
                self.w.utp.mark_offloading(t, false);
                self.w.ops.push(PlanOp::Offload { t, evict: false });
                self.counters.offloads += 1;
            }
        }

        // 8. Overlapped prefetch for upcoming backward consumers.
        if step.phase == StepPhase::Backward && self.policy.offload && self.policy.prefetch {
            self.prefetch_ahead(s);
        }

        // 9. Liveness frees.
        for &t in &liveness.freed_after[s] {
            let st = self.w.utp.state(t);
            if st.residence() != Residence::None || st.host_slot.is_some() {
                self.w.ops.push(PlanOp::Free(t));
                self.w
                    .utp
                    .free_tensor(t, self.meta(t).bytes, &mut self.w.dev);
            }
        }
        // Recomputed-tensor frees scheduled for this step.
        let mut node = self
            .w
            .recomputed_free_at
            .head
            .get(s)
            .copied()
            .unwrap_or(NIL);
        while node != NIL {
            let (t, next) = self.w.recomputed_free_at.nodes[node as usize];
            self.drop_device_copy(t);
            node = next;
        }
        let post = self.take_section();

        self.steps.push(StepPlan {
            duration,
            pre_end: pre.end,
            post_end: post.end,
            algo: conv.then_some(choice.algo),
        });
        Ok(())
    }

    fn run(mut self) -> Result<(MemoryPlan, RangeInclusive<u64>), ExecError> {
        // The permanently resident weights are the plan's first allocation.
        let weight_bytes = self.cost.total_weight_bytes();
        if weight_bytes > 0 && self.charged_alloc(weight_bytes).is_err() {
            return Err(ExecError::Oom {
                step: 0,
                layer: "WEIGHTS".into(),
                requested: weight_bytes,
                capacity: self.w.dev.alloc.capacity(),
            });
        }

        let total = self.route.total_steps();
        for s in 0..total {
            self.plan_step(s)?;
        }
        // End of iteration: every remaining in-flight offload has seen all
        // its consumers — release the device copies.
        self.cur_step = total;
        self.drain_reapable(total);
        let final_range = self.take_section();

        let peak_bytes = self.w.dev.alloc.high_water();
        debug_assert_eq!(peak_bytes, self.peak_seen);
        let valid_caps = if self.cap_bound {
            self.spec.dram_bytes..=self.spec.dram_bytes
        } else {
            self.w.dev.alloc.extent_high_water()..=u64::MAX
        };
        let plan = MemoryPlan {
            steps: self.steps,
            ops: self.w.ops.to_vec(),
            final_range,
            peak_bytes,
            peak_step: self.peak_step,
            weight_bytes,
            predicted: self.counters,
            inference: self.inference,
            compute_ns: self.compute_ns,
            alloc_ns: self.w.dev.alloc_time.as_ns(),
            h2d_ns: self.h2d_ns,
            d2h_ns: self.d2h_ns,
            serialized: self.policy.sync_transfers,
        };
        Ok((plan, valid_caps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Rule;
    use proptest::prelude::*;
    use sn_graph::Shape4;

    fn small_net(batch: usize) -> Net {
        let mut net = Net::new("plan-test", Shape4::new(batch, 3, 32, 32));
        let d = net.data();
        let c1 = net.conv(d, 16, 3, 1, 1);
        let a1 = net.relu(c1);
        let p1 = net.max_pool(a1, 2, 2, 0);
        let c2 = net.conv(p1, 32, 3, 1, 1);
        let a2 = net.relu(c2);
        let f = net.fc(a2, 10);
        net.softmax(f);
        net
    }

    /// [`small_net`] with a fan-out below the first CONV: ACT feeds two
    /// pooling branches joined by a CONCAT, so one segment is a tree and a
    /// replay schedules several drops after the same step.
    fn fanout_net(batch: usize) -> Net {
        let mut net = Net::new("plan-fanout", Shape4::new(batch, 3, 32, 32));
        let d = net.data();
        let c1 = net.conv(d, 16, 3, 1, 1);
        let a1 = net.relu(c1);
        let p1 = net.max_pool(a1, 2, 2, 0);
        let p2 = net.avg_pool(a1, 2, 2, 0);
        let j = net.concat(&[p1, p2]);
        let c2 = net.conv(j, 32, 3, 1, 1);
        let a2 = net.relu(c2);
        let f = net.fc(a2, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn plan_compiles_for_every_preset() {
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        for policy in [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            Policy::superneurons(),
        ] {
            let c = compile(&net, &spec, policy).unwrap();
            assert_eq!(c.plan.steps.len(), c.route.total_steps());
            assert!(c.plan.peak_bytes > 0);
            assert!(!c.plan.inference);
            // The debug rendering covers every step.
            let text = c.plan.render(&net);
            assert!(text.lines().count() >= c.plan.steps.len());
        }
    }

    #[test]
    fn plan_peaks_shrink_along_the_preset_ladder() {
        let net = small_net(16);
        let spec = DeviceSpec::k40c();
        let peaks: Vec<u64> = [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
        ]
        .iter()
        .map(|p| compile(&net, &spec, *p).unwrap().plan.peak_bytes)
        .collect();
        assert!(
            peaks.windows(2).all(|w| w[1] <= w[0]),
            "plan peaks must be non-increasing: {peaks:?}"
        );
    }

    #[test]
    fn inference_plans_are_forward_only_and_smaller() {
        let net = small_net(16);
        let spec = DeviceSpec::k40c();
        let train = compile(&net, &spec, Policy::liveness_only()).unwrap();
        let inf = compile_inference(&net, &spec, Policy::liveness_only()).unwrap();
        assert!(inf.plan.inference);
        assert_eq!(inf.plan.steps.len(), net.len());
        assert!((0..inf.plan.steps.len()).all(|s| inf.route.step(s).phase == StepPhase::Forward));
        assert!(
            inf.plan.peak_bytes < train.plan.peak_bytes,
            "inference {} must undercut training {}",
            inf.plan.peak_bytes,
            train.plan.peak_bytes
        );
        // No gradients, no recomputation, no offload traffic planned.
        assert_eq!(inf.plan.predicted.recompute_forwards, 0);
        assert_eq!(inf.plan.predicted.offloads, 0);
        let tensors = &inf.liveness.tensors;
        assert!(!tensors.is_empty());
        assert!(tensors.iter().all(|t| t.role == TensorRole::FwdOut));
    }

    #[test]
    fn plan_ops_balance_allocs_and_frees() {
        // Every tensor the plan allocates is freed (or released) by the end
        // of the iteration — replaying the plan leaks nothing but weights.
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        let c = compile(&net, &spec, Policy::superneurons()).unwrap();
        let mut live: std::collections::HashSet<TensorId> = std::collections::HashSet::new();
        // The flat stream is already in execution order (pre, post, final).
        for op in &c.plan.ops {
            match op {
                PlanOp::Alloc(t) | PlanOp::Fetch(t) => {
                    assert!(live.insert(*t), "double materialization of {t:?}");
                }
                PlanOp::ReleaseDevice(t) | PlanOp::Free(t) => {
                    live.remove(t);
                }
                _ => {}
            }
        }
        assert!(live.is_empty(), "leaked device tensors: {live:?}");
    }

    #[test]
    fn iter_time_estimate_is_positive_and_serialization_aware() {
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        let plain = compile(&net, &spec, Policy::liveness_offload())
            .unwrap()
            .plan;
        let sync = compile(&net, &spec, Policy::liveness_offload().synchronous())
            .unwrap()
            .plan;
        assert!(plain.iter_time_estimate() > SimTime::ZERO);
        assert!(sync.serialized && !plain.serialized);
        assert!(sync.iter_time_estimate() >= plain.iter_time_estimate());
    }

    /// The benchmark's `plan_cold` lattice: the five hand presets plus
    /// single-knob departures from `superneurons()` along every axis the
    /// autotuner searches.
    fn lattice() -> Vec<Policy> {
        use crate::policy::CachePolicy;
        let sn = Policy::superneurons();
        let mut p = vec![
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            sn,
            sn.with_prefetch_depth(2),
            sn.with_prefetch_depth(16),
            Policy::liveness_offload().with_prefetch_depth(4),
            Policy::superneurons_no_cache(),
        ];
        for recompute in [
            RecomputeMode::None,
            RecomputeMode::SpeedCentric,
            RecomputeMode::MemoryCentric,
        ] {
            p.push(Policy { recompute, ..sn });
        }
        for cache_policy in [CachePolicy::Fifo, CachePolicy::Mru] {
            p.push(Policy { cache_policy, ..sn });
        }
        for workspace in [WorkspacePolicy::None, WorkspacePolicy::Capped(64 << 20)] {
            p.push(Policy { workspace, ..sn });
        }
        assert!(p.iter().all(|p| p.validate().is_ok()));
        p
    }

    /// The first replay repro: POOL→ACT→ELTWISE→ACT→FC at batch 5.
    fn replay_mru_net() -> Net {
        let mut net = Net::new("replay-mru", Shape4::new(5, 3, 32, 32));
        let d = net.data();
        let p = net.max_pool(d, 2, 2, 0);
        let a = net.relu(p);
        let e = net.eltwise(&[a, p]);
        let a2 = net.relu(e);
        let f = net.fc(a2, 10);
        net.softmax(f);
        net
    }

    /// The benchmark's `serve_mixed` template — sn-cluster's
    /// `Workload::Synthetic { width: 32, depth: 2 }.build(32)`.
    fn serve_mixed_net() -> Net {
        let mut net = Net::new("Synthetic", Shape4::new(32, 3, 32, 32));
        let mut prev = net.data();
        for _ in 0..2 {
            let c = net.conv(prev, 32, 3, 1, 1);
            prev = net.relu(c);
        }
        let p = net.max_pool(prev, 2, 2, 0);
        let f = net.fc(p, 10);
        net.softmax(f);
        net
    }

    fn mru() -> Policy {
        Policy {
            cache_policy: crate::policy::CachePolicy::Mru,
            ..Policy::superneurons()
        }
    }

    /// The pinned matrix, one `(label, net, cap, policy)` a cell: the
    /// fan-out net at an open and a binding (4 MiB) cap × the lattice, the
    /// two mid-size evaluation networks × the five presets, and the caps of
    /// the three replay repros below.
    fn golden_cells() -> Vec<(String, Net, u64, Policy)> {
        let open = DeviceSpec::k40c().dram_bytes;
        let lattice = lattice();
        let mut cells = Vec::new();
        for cap in [open, 4 << 20] {
            for (i, &p) in lattice.iter().enumerate() {
                cells.push((format!("fanout16 {cap} p{i:02}"), fanout_net(16), cap, p));
            }
        }
        for (name, net) in [
            ("vgg16", sn_models::vgg16(16)),
            ("resnet50", sn_models::resnet50(16)),
        ] {
            for (i, &p) in lattice[..5].iter().enumerate() {
                cells.push((format!("{name} {open} p{i:02}"), net.clone(), open, p));
            }
        }
        for cap in (100..=140).map(|kb| kb * 1000) {
            cells.push((
                format!("replay-mru {cap} mru"),
                replay_mru_net(),
                cap,
                mru(),
            ));
        }
        let sn = Policy::superneurons();
        for cap in (140..=210).map(|x| x * 20_000) {
            cells.push((format!("fanout16 {cap} sn"), fanout_net(16), cap, sn));
        }
        let cap = 9 << 20;
        cells.push((format!("serve-mixed {cap} sn"), serve_mixed_net(), cap, sn));
        cells
    }

    /// An Fx fold of everything a plan states — render, peak and its step,
    /// counters, engine totals — or the error a compile returned.
    fn plan_digest(net: &Net, r: &Result<CompiledPlan, ExecError>) -> String {
        match r {
            Ok(c) => {
                let p = &c.plan;
                let mut h = fxhash::FxHasher::default();
                p.render(net).hash(&mut h);
                (p.peak_bytes, p.peak_step).hash(&mut h);
                p.predicted.json().to_string().hash(&mut h);
                (p.compute_ns, p.alloc_ns, p.h2d_ns, p.d2h_ns).hash(&mut h);
                format!("{:016x}", h.finish())
            }
            Err(e) => format!("Err {e}"),
        }
    }

    #[test]
    fn plans_match_their_golden_digests() {
        // Indexed structures and skipped no-op scans buy time, never bytes.
        // The golden file was written while the pre-optimization walk
        // (linear-scan pool, `Vec` cache list, every scan run) still shipped
        // and agreed with this one on every cell. At 4 MiB the Tensor Cache
        // evicts, prefetch-ahead fetches back and conv workspaces are
        // squeezed, so host-resident tensors and pending offloads exist for
        // the walk's shortcuts to get wrong.
        let tight = DeviceSpec::k40c().with_dram(4 << 20);
        let fanout = fanout_net(16);
        let sn = compile(&fanout, &tight, Policy::superneurons()).unwrap();
        let c = sn.plan.predicted;
        assert!(c.evictions > 0, "4 MiB must bind: {}", c.json());
        assert!(c.prefetches > c.cache_misses, "prefetch-ahead must fetch");
        assert_eq!(sn.valid_caps, 4 << 20..=4 << 20, "this cap's plan alone");
        let squeezed = |s| {
            sn.plan
                .workspace(&fanout, &sn.route, s)
                .is_some_and(|w| w.bytes < w.max_speed_bytes)
        };
        assert!((0..sn.plan.steps.len()).any(squeezed));

        let golden = include_str!("../tests/golden/plan_digests.txt");
        let cells = golden_cells();
        assert_eq!(golden.lines().count(), cells.len());
        let mut changed = Vec::new();
        for ((label, net, cap, policy), want) in cells.iter().zip(golden.lines()) {
            let got = compile(net, &DeviceSpec::k40c().with_dram(*cap), *policy);
            if format!("{label} {}", plan_digest(net, &got)) != want {
                if let Ok(c) = &got {
                    println!("{label}:\n{}", c.plan.render(net));
                }
                changed.push(label.as_str());
            }
        }
        assert!(
            changed.is_empty(),
            "plans changed (renders on stdout): {changed:?}"
        );
    }

    /// A plan stores a CONV step's algorithm and no workspace bytes: over
    /// the benchmark's `plan_cold` lattice on ResNet-50 (three batches,
    /// three cards, training and inference), every CONV step and no other
    /// records an algorithm, grants exactly that algorithm's workspace, and
    /// grants none when the algorithm needs none.
    #[test]
    fn a_conv_step_grants_its_recorded_algorithms_workspace() {
        let cards = [
            DeviceSpec::k40c(),
            DeviceSpec::k40c().with_dram(6 << 30),
            DeviceSpec::titan_xp(),
        ];
        let (mut plans, mut grants) = (0, 0);
        for batch in [16, 32, 64] {
            let net = sn_models::resnet50(batch);
            for (spec, policy, inference) in cards
                .iter()
                .flat_map(|c| lattice().into_iter().map(move |p| (c, p)))
                .flat_map(|(c, p)| [(c, p, false), (c, p, true)])
            {
                let compiled = if inference {
                    compile_inference(&net, spec, policy)
                } else {
                    compile(&net, spec, policy)
                };
                let Ok(c) = compiled else { continue };
                plans += 1;
                for s in 0..c.plan.steps.len() {
                    let layer = c.route.step(s).layer;
                    let conv = matches!(net.layer(layer).kind, LayerKind::Conv { .. });
                    assert_eq!(c.plan.steps[s].algo.is_some(), conv, "step {s}");
                    let want = c.plan.workspace(&net, &c.route, s).map_or(0, |w| w.bytes);
                    let ops = [c.plan.pre(s), c.plan.post(s)].map(|r| c.plan.ops_in(r));
                    let got: Vec<u64> = ops
                        .concat()
                        .iter()
                        .filter_map(|op| match *op {
                            PlanOp::AllocWorkspace(b) => Some(b),
                            _ => None,
                        })
                        .collect();
                    let want = if want > 0 { vec![want] } else { vec![] };
                    assert_eq!(got, want, "batch {batch} {policy:?} step {s}");
                    grants += got.len();
                }
            }
        }
        assert!(plans > 0 && grants > 0, "{plans} plans, {grants} grants");
    }

    /// A plan's op stream as sections — `pre(0) post(0) pre(1) … final` —
    /// for a mutation to edit, then flattened back into a plan.
    fn edit_sections(p: &MemoryPlan, edit: impl FnOnce(&mut [Vec<PlanOp>])) -> MemoryPlan {
        let ranges = (0..p.steps.len()).flat_map(|s| [p.pre(s), p.post(s)]);
        let mut sections: Vec<Vec<PlanOp>> = ranges
            .chain([p.final_range])
            .map(|r| p.ops_in(r).to_vec())
            .collect();
        edit(&mut sections);
        let mut out = MemoryPlan {
            ops: Vec::new(),
            ..p.clone()
        };
        let take = |ops: &mut Vec<PlanOp>, section: &[PlanOp]| {
            let start = ops.len() as u32;
            ops.extend_from_slice(section);
            OpRange {
                start,
                end: ops.len() as u32,
            }
        };
        for (s, step) in out.steps.iter_mut().enumerate() {
            step.pre_end = take(&mut out.ops, &sections[2 * s]).end;
            step.post_end = take(&mut out.ops, &sections[2 * s + 1]).end;
        }
        out.final_range = take(&mut out.ops, &sections[sections.len() - 1]);
        out
    }

    fn tensor_of(op: &PlanOp) -> Option<TensorId> {
        match *op {
            PlanOp::Alloc(t)
            | PlanOp::Fetch(t)
            | PlanOp::Offload { t, .. }
            | PlanOp::ReleaseDevice(t)
            | PlanOp::Free(t) => Some(t),
            _ => None,
        }
    }

    /// Every mutant of one plan, with the step and rule `verify` must
    /// name: a dropped fetch, a free one step early, an inflated workspace,
    /// a replay ahead of its allocation, and a peak one block off.
    fn mutants(c: &CompiledPlan) -> Vec<(&'static str, MemoryPlan, usize, Rule)> {
        let (p, lv) = (&*c.plan, &*c.liveness);
        let mut out = Vec::new();
        for s in 0..p.steps.len() {
            let pre = p.ops_in(p.pre(s));
            let inputs = &lv.step_inputs[s];
            // Read only by the kernel from here on: no later op of the
            // section names it, no replay comes after it.
            let untouched_after = |j: usize, t: TensorId| {
                pre[j + 1..]
                    .iter()
                    .all(|op| tensor_of(op) != Some(t) && !matches!(op, PlanOp::Recompute(_)))
            };
            for (j, op) in pre.iter().enumerate() {
                match *op {
                    PlanOp::Fetch(t) if inputs.contains(&t) && untouched_after(j, t) => {
                        let m = edit_sections(p, |x| {
                            x[2 * s].remove(j);
                        });
                        out.push(("dropped fetch", m, s, Rule::NotResident));
                    }
                    PlanOp::AllocWorkspace(b) => {
                        let m = edit_sections(p, |x| x[2 * s][j] = PlanOp::AllocWorkspace(b + 1));
                        out.push(("inflated workspace", m, s, Rule::WorkspaceOverBudget));
                    }
                    PlanOp::Alloc(t)
                        if pre.get(j + 1).is_some_and(
                            |next| matches!(*next, PlanOp::Recompute(l) if lv.fwd_out[l.0] == t),
                        ) =>
                    {
                        let m = edit_sections(p, |x| x[2 * s].swap(j, j + 1));
                        out.push(("replay before alloc", m, s, Rule::RecomputeBeforeAlloc));
                    }
                    _ => {}
                }
            }
            // A free of an input the kernel reads untouched, moved to the
            // end of the step before.
            let early = s > 0 && !pre.iter().any(|op| matches!(op, PlanOp::Recompute(_)));
            for (j, op) in p.ops_in(p.post(s)).iter().enumerate() {
                if let PlanOp::Free(t) = *op {
                    if early
                        && inputs.contains(&t)
                        && !lv.created_at[s].contains(&t)
                        && pre.iter().all(|op| tensor_of(op) != Some(t))
                    {
                        let m = edit_sections(p, |x| {
                            let free = x[2 * s + 1].remove(j);
                            x[2 * s - 1].push(free);
                        });
                        out.push(("early free", m, s, Rule::NotResident));
                    }
                }
            }
        }
        let block = sn_mempool::BLOCK_BYTES;
        for peak in [p.peak_bytes + block, p.peak_bytes - block] {
            let m = MemoryPlan {
                peak_bytes: peak,
                ..p.clone()
            };
            out.push(("peak off by a block", m, p.steps.len(), Rule::Peak));
        }
        out
    }

    #[test]
    fn verify_rejects_every_mutant_and_passes_every_plan() {
        use std::collections::BTreeMap;
        let mut caught: BTreeMap<&str, usize> = BTreeMap::new();
        let mut plans = 0;
        for (label, net, cap, policy) in golden_cells() {
            let spec = DeviceSpec::k40c().with_dram(cap);
            let Ok(c) = compile(&net, &spec, policy) else {
                continue;
            };
            assert_eq!(c.verify(&net, &spec, policy), Ok(()), "{label}");
            plans += 1;
            for (class, plan, step, rule) in mutants(&c) {
                let m = CompiledPlan {
                    plan: Arc::new(plan),
                    ..c.clone()
                };
                let v = m.verify(&net, &spec, policy).expect_err(class);
                assert_eq!((v.step, v.rule), (step, rule), "{label}: {class}: {v}");
                *caught.entry(class).or_default() += 1;
            }
        }
        assert_eq!(
            caught.len(),
            5,
            "a mutation class found no site: {caught:?}"
        );
        println!("{plans} plans pass; mutants rejected: {caught:?}");
    }

    /// The rule only the first-fit replay sees. The batch-3 conv tower of
    /// `proptest_valid_caps.rs` peaks at 11 693 056 B on a 12 GB card, but
    /// the holes its walk left put its last grant's end at 11 800 576 B,
    /// where its `valid_caps` start: at its own peak the bytes fit and a
    /// grant finds no free run. A `cudaMalloc` plan cannot fragment.
    #[test]
    fn verify_rejects_a_pool_plan_whose_grants_fragment_at_its_peak() {
        let mut net = Net::new("tower", Shape4::new(3, 3, 32, 32));
        let data = net.data();
        let mut prev = net.max_pool(data, 2, 2, 0);
        for (c, k) in [(32, 5), (32, 5), (16, 3), (32, 5)] {
            prev = net.conv(prev, c, k, 1, k / 2);
        }
        let f = net.fc(prev, 10);
        net.softmax(f);
        let at = |cap| DeviceSpec::k40c().with_dram(cap);
        let sn = Policy::superneurons();
        let c = compile(&net, &at(12 << 30), sn).unwrap();
        let (peak, extent) = (c.plan.peak_bytes, *c.valid_caps.start());
        assert_eq!((peak, extent), (11_693_056, 11_800_576));
        let v = c.verify(&net, &at(peak), sn).unwrap_err();
        assert_eq!(v.rule, Rule::Fragmented, "{v}");
        assert_eq!(c.verify(&net, &at(extent), sn), Ok(()));
        let cuda = Policy::superneurons_cuda_alloc();
        let c = compile(&net, &at(12 << 30), cuda).unwrap();
        assert_eq!(c.verify(&net, &at(c.plan.peak_bytes), cuda), Ok(()));
    }

    /// Compile at each cap: `Ok` or an OOM, never a plan whose replay reads
    /// a tensor it has just evicted (the planner's `assert!`s and `verify`).
    /// A plan that compiles executes at its own peak.
    fn replay_keeps_what_it_reads(net: &Net, caps: &[u64], policy: Policy) {
        let mut compiled = 0;
        for &cap in caps {
            let spec = DeviceSpec::k40c().with_dram(cap);
            let c = match compile(net, &spec, policy) {
                Ok(c) => c,
                Err(e) => {
                    assert!(matches!(e, ExecError::Oom { .. }), "cap {cap}: {e}");
                    continue;
                }
            };
            assert_eq!(c.verify(net, &spec, policy), Ok(()), "cap {cap}");
            let mut ex = crate::Executor::new(net, spec, policy).unwrap();
            for _ in 0..2 {
                assert_eq!(ex.run_iteration().unwrap().peak_bytes, c.plan.peak_bytes);
            }
            compiled += 1;
        }
        assert!(
            caps.len() == 1 || (0 < compiled && compiled < caps.len()),
            "{compiled} of {} caps compiled: the range must straddle the knee",
            caps.len()
        );
    }

    #[test]
    fn a_cap_under_one_pool_block_is_an_oom() {
        let net = small_net(8);
        for cap in [0, 1023] {
            let spec = DeviceSpec::k40c().with_dram(cap);
            for policy in [Policy::baseline(), Policy::superneurons()] {
                let planned = compile(&net, &spec, policy).unwrap_err();
                assert!(matches!(planned, ExecError::Oom { .. }), "{planned}");
                let executed = crate::Executor::new(&net, spec.clone(), policy).err();
                assert_eq!(executed.map(|e| e.to_string()), Some(planned.to_string()));
            }
        }
    }

    #[test]
    fn replay_under_mru_keeps_its_target_at_126_kb() {
        let caps: Vec<u64> = (100..=140).map(|kb| kb * 1000).collect();
        replay_keeps_what_it_reads(&replay_mru_net(), &caps, mru());
    }

    #[test]
    fn replay_under_lru_keeps_its_target_at_3_mb() {
        // The second replay repro: the fan-out net at batch 16 under the
        // default policy, caps of 3.0–3.2 MB.
        let caps: Vec<u64> = (140..=210).map(|x| x * 20_000).collect();
        replay_keeps_what_it_reads(&fanout_net(16), &caps, Policy::superneurons());
    }

    #[test]
    fn replay_keeps_its_inputs_on_the_serve_mixed_template() {
        // The benchmark's `serve_mixed` cell on a 9 MiB budget: POOL's
        // allocation used to evict the ACT it reads.
        replay_keeps_what_it_reads(&serve_mixed_net(), &[9 << 20], Policy::superneurons());
    }

    #[test]
    fn memo_returns_shared_plans_and_counts_hits() {
        let net = small_net(10);
        let spec = DeviceSpec::k40c();
        let policy = Policy::superneurons();
        let memo = Compiler::new();
        let (a, a_hit) = memo.compile(&net, &spec, policy, false);
        let (b, b_hit) = memo.compile(&net, &spec, policy, false);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(!a_hit, "first compile must be a miss");
        assert!(b_hit, "repeat compile must be a hit");
        assert!(Arc::ptr_eq(&a, &b), "memo must return the shared Arc");
        // A cap that does not bind is the same question: the open-ended
        // plan answers it, without a compile.
        assert_eq!(*a.valid_caps.end(), u64::MAX, "12 GB binds nothing here");
        let lo = *a.valid_caps.start();
        assert!(a.plan.peak_bytes <= lo && lo < spec.dram_bytes / 2);
        for cap in [spec.dram_bytes / 2, lo, u64::MAX] {
            let (c, c_hit) = memo.compile(&net, &spec.clone().with_dram(cap), policy, false);
            assert!(c_hit, "cap {cap} lies in {:?}", a.valid_caps);
            assert!(Arc::ptr_eq(&a, &c.unwrap()));
        }
        // One byte below the interval is a different question: a miss, a
        // compile of its own, and never the open entry — which stays put.
        let below = spec.clone().with_dram(lo - 1);
        let (c, c_hit) = memo.compile(&net, &below, policy, false);
        assert!(!c_hit, "a cap below the interval must compile");
        if let Ok(c) = &c {
            assert!(!Arc::ptr_eq(&a, c));
            assert_eq!(c.valid_caps, (lo - 1..=lo - 1), "the cap shaped this one");
        }
        let (c2, c2_hit) = memo.compile(&net, &below, policy, false);
        assert!(
            c2_hit,
            "the cap-bound outcome is memoized under its own cap"
        );
        assert_eq!(c.is_ok(), c2.is_ok());
        let (again, again_hit) = memo.compile(&net, &spec, policy, false);
        assert!(again_hit && Arc::ptr_eq(&a, &again.unwrap()));
        // Inference and training never alias.
        let (i, i_hit) = memo.compile(&net, &spec, policy, true);
        assert!(!i_hit);
        let i = i.unwrap();
        assert!(i.plan.inference && !a.plan.inference);
        // A card that differs by name only is the same card: nothing the
        // planner reads changed, so the entry answers it.
        let mut renamed = spec.clone();
        renamed.name.to_mut().push_str("-b");
        let (r, renamed_hit) = memo.compile(&net, &renamed, policy, false);
        assert!(renamed_hit, "a renamed card must share the entry");
        assert!(Arc::ptr_eq(&a, &r.unwrap()));
    }

    #[test]
    fn a_renamed_card_is_a_hit_on_a_fresh_compiler() {
        let (net, policy) = (small_net(4), Policy::superneurons());
        let memo = Compiler::new();
        let spec = DeviceSpec::k40c();
        let mut renamed = spec.clone().with_dram(spec.dram_bytes / 2);
        renamed.name = "K40c, rack 7".into();
        let first = memo.predict(&net, &spec, policy, true).0.unwrap();
        assert_eq!(memo.predict(&net, &renamed, policy, true).0.unwrap(), first);
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
    }

    #[test]
    fn overflow_evicts_one_entry_and_keeps_the_hot_key() {
        // One plan more than the cap, the hot key re-asked along the way:
        // the memo ends exactly full and the hot key is still the Arc it
        // started as. The plans are of structurally distinct nets — caps
        // that do not bind would all share one entry.
        let net_of = |i: usize| {
            let mut net = Net::new("overflow", Shape4::new(2, 1, 4, 4));
            let d = net.data();
            let f = net.fc(d, 4 + i);
            net.softmax(f);
            net
        };
        let policy = Policy::liveness_only();
        let spec = DeviceSpec::k40c();
        let memo = Compiler::new();
        let hot = memo.compile(&net_of(0), &spec, policy, false).0.unwrap();
        for i in 1..=PLAN_MEMO_CAP {
            let (_, hit) = memo.compile(&net_of(i), &spec, policy, false);
            assert!(!hit, "net {i} is a first contact");
            if i % 64 == 0 {
                let (again, hit) = memo.compile(&net_of(0), &spec, policy, false);
                assert!(hit && Arc::ptr_eq(&hot, &again.unwrap()));
            }
        }
        assert_eq!(memo.stats().entries, PLAN_MEMO_CAP);
        let (again, hit) = memo.compile(&net_of(0), &spec, policy, false);
        assert!(hit, "the hot key must survive the overflow");
        assert!(Arc::ptr_eq(&hot, &again.unwrap()));
        // What the overflow cost is the cold end, not the recent keys.
        let (_, newest_hit) = memo.compile(&net_of(PLAN_MEMO_CAP), &spec, policy, false);
        let (_, oldest_hit) = memo.compile(&net_of(1), &spec, policy, false);
        assert!(newest_hit && !oldest_hit);
    }

    #[test]
    fn each_analysis_is_shared_by_every_plan_that_reads_the_same_inputs() {
        // The lattice, training and inference, on one fresh compiler: one
        // route per plan kind, one cost, one liveness per effective option
        // set — and every plan the one a compiler of its own makes.
        let (net, spec) = (sn_models::resnet_depth(8, 50), DeviceSpec::k40c());
        let c = Compiler::new();
        let mut plans = Vec::new();
        for inference in [false, true] {
            for p in lattice() {
                let got = c.compile_fresh(&net, &spec, p, inference).unwrap();
                let want = Compiler::new().compile_fresh(&net, &spec, p, inference);
                assert_eq!(got.plan.render(&net), want.unwrap().plan.render(&net));
                plans.push((inference, p, got));
            }
        }
        let (first, last) = (&plans[0].2, &plans[plans.len() - 1].2);
        for (inference, _, cp) in &plans {
            let route = if *inference { last } else { first };
            assert!(Arc::ptr_eq(&cp.route, &route.route));
            assert!(Arc::ptr_eq(&cp.cost, &first.cost));
        }
        assert!(!Arc::ptr_eq(&first.route, &last.route));
        let options = |&(inference, p, _): &(bool, Policy, CompiledPlan)| {
            (inference, effective_liveness_options(p, inference))
        };
        for a in &plans {
            for b in &plans {
                let shared = Arc::ptr_eq(&a.2.liveness, &b.2.liveness);
                assert_eq!(shared, options(a) == options(b), "{:?} {:?}", a.1, b.1);
            }
        }
        // The three recomputing modes: one liveness, three segment plans.
        let sn = Policy::superneurons();
        let modes = [
            RecomputeMode::CostAware,
            RecomputeMode::SpeedCentric,
            RecomputeMode::MemoryCentric,
        ]
        .map(|recompute| {
            let p = Policy { recompute, ..sn };
            &plans.iter().find(|(i, q, _)| !i && *q == p).unwrap().2
        });
        for (i, a) in modes.iter().enumerate() {
            for b in &modes[i + 1..] {
                assert!(Arc::ptr_eq(&a.liveness, &b.liveness));
                assert!(!Arc::ptr_eq(&a.rplan, &b.rplan));
            }
        }
    }

    #[test]
    fn a_panic_under_the_memo_lock_does_not_fail_later_compiles() {
        let memo = Compiler::new();
        memo.plans.poison();
        memo.routes.poison();
        memo.costs.poison();
        memo.liveness.poison();
        memo.rplans.poison();
        memo.max_algos.poison();
        let (p, hit) = memo.compile(
            &small_net(6),
            &DeviceSpec::k40c(),
            Policy::superneurons(),
            false,
        );
        assert!(!hit && p.unwrap().plan.peak_bytes > 0);
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn a_panic_under_the_walk_state_lock_does_not_fail_later_compiles() {
        let c = Compiler::new();
        let (net, spec, sn) = (small_net(6), DeviceSpec::k40c(), Policy::superneurons());
        let first = plan_digest(&net, &c.compile_fresh(&net, &spec, sn, false));
        crate::memo::poison(&c.walks);
        let again = plan_digest(&net, &c.compile_fresh(&net, &spec, sn, false));
        assert_eq!(again, first);
        assert_eq!(c.walks().len(), 1, "the one walk state is reused and back");
    }

    #[test]
    fn a_reused_walk_state_changes_no_plan() {
        // One compiler runs every walk in the walk state the walk before
        // left behind; each plan must be the one a compiler that never
        // walked before makes.
        let reused = Compiler::new();
        let check = |net: &Net, cap: u64, policy: Policy| {
            let spec = DeviceSpec::k40c().with_dram(cap);
            let got = reused.compile_fresh(net, &spec, policy, false);
            let want = Compiler::new().compile_fresh(net, &spec, policy, false);
            assert_eq!(plan_digest(net, &got), plan_digest(net, &want), "{cap}");
            got.is_err()
        };
        // First a walk that fails mid-step: inputs pinned, copy-outs
        // pending, grants held — none of it released.
        let (net, offload) = (fanout_net(16), Policy::liveness_offload());
        let n = compile(&net, &DeviceSpec::k40c(), offload)
            .unwrap()
            .liveness
            .tensors
            .len();
        let left_held = |w: &WalkState| {
            let pinned = (0..n).any(|t| w.utp.state(TensorId(t)).lock > 0);
            pinned && !w.utp.pending_offloads.is_empty() && w.dev.alloc.used() > 0
        };
        let failed = (100..=200)
            .map(|x| x * 20_000)
            .find(|&cap| check(&net, cap, offload) && left_held(reused.walks().last().unwrap()));
        assert!(failed.is_some(), "no cap fails with pins and offloads held");
        check(
            &sn_models::resnet_depth(8, 1000),
            12 << 30,
            Policy::superneurons(),
        );
        // The allocator's kind changes, stays, and changes back.
        for cap in [4 << 20, 12 << 30] {
            check(&net, cap, Policy::superneurons_cuda_alloc());
        }
        for (_, net, cap, policy) in golden_cells() {
            check(&net, cap, policy);
        }
        assert_eq!(reused.walks().len(), 1);
    }

    #[test]
    fn two_threads_on_one_compiler_get_the_sequential_plans() {
        // The golden digests are what a lone compiler makes, one cell after
        // another; two threads walking different nets at once, each in
        // whichever walk state it pops, make the same. The threads start
        // their compiles in lockstep while both have cells left.
        let golden = include_str!("../tests/golden/plan_digests.txt");
        let cells: Vec<_> = golden_cells().into_iter().zip(golden.lines()).collect();
        let (fanout, rest): (Vec<_>, Vec<_>) = cells
            .iter()
            .partition(|((label, ..), _)| label.starts_with("fanout16"));
        let rounds = fanout.len().min(rest.len());
        let (c, lockstep) = (Compiler::new(), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for cells in [fanout, rest] {
                let (c, lockstep) = (&c, &lockstep);
                s.spawn(move || {
                    for (i, ((label, net, cap, policy), want)) in cells.into_iter().enumerate() {
                        if i < rounds {
                            lockstep.wait();
                        }
                        let spec = DeviceSpec::k40c().with_dram(*cap);
                        let got = c.compile_fresh(net, &spec, *policy, false);
                        assert_eq!(format!("{label} {}", plan_digest(net, &got)), *want);
                    }
                });
            }
        });
        assert!((1..=2).contains(&c.walks().len()));
    }

    #[test]
    fn memo_caches_oom_outcomes() {
        let net = small_net(32);
        let tiny = DeviceSpec::k40c().with_dram(64 << 10);
        let memo = Compiler::new();
        let (r1, h1) = memo.compile(&net, &tiny, Policy::baseline(), false);
        assert!(r1.is_err() && !h1);
        let (r2, h2) = memo.compile(&net, &tiny, Policy::baseline(), false);
        assert!(r2.is_err());
        assert!(h2, "second failure must be served from the memo");
    }

    /// A conv tower at batch 4: the shape of the benchmark's `plan_reuse` keys.
    fn tower(width: usize, depth: usize) -> Net {
        let mut net = Net::new("tower", Shape4::new(4, 3, 32, 32));
        let mut prev = net.data();
        for _ in 0..depth {
            let c = net.conv(prev, width, 3, 1, 1);
            prev = net.relu(c);
        }
        let p = net.max_pool(prev, 2, 2, 0);
        let f = net.fc(p, 10);
        net.softmax(f);
        net
    }

    // The plan memo against its model. Over a random sequence of (tower,
    // policy of the lattice, cap, mode) predictions on a fresh compiler —
    // drawn from a few (tower, policy, mode) questions, so that they repeat
    // across caps — every answer is the one a compile states, a call is a
    // hit exactly when an earlier open plan's interval covers its cap or its
    // cap-pinned key was compiled before, and every call counts once.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn the_memo_answers_as_its_model_says(
            questions in proptest::collection::vec(
                (0usize..3, 0usize..16, proptest::bool::ANY),
                1..5,
            ),
            calls in proptest::collection::vec((0usize..4, 0usize..6), 1..40),
        ) {
            use std::collections::{HashMap, HashSet};
            let towers = [tower(8, 2), tower(16, 2), tower(8, 4)];
            let lattice = lattice();
            // Caps from well under to well over each tower's baseline peak:
            // some fit nothing, some bind, some leave plans open.
            let caps: Vec<[u64; 6]> = towers
                .iter()
                .map(|net| {
                    let peak = compile(net, &DeviceSpec::k40c(), Policy::baseline())
                        .unwrap()
                        .plan
                        .peak_bytes;
                    [30, 55, 75, 90, 120, 400].map(|pc| peak * pc / 100)
                })
                .collect();
            let memo = Compiler::new();
            let mut open: HashMap<(usize, usize, bool), RangeInclusive<u64>> = HashMap::new();
            let mut pinned: HashSet<(usize, usize, bool, u64)> = HashSet::new();
            for (n, &(q, c)) in calls.iter().enumerate() {
                let (t, p, inference) = questions[q % questions.len()];
                let (net, policy, cap) = (&towers[t], lattice[p], caps[t][c]);
                let spec = DeviceSpec::k40c().with_dram(cap);
                let hits = memo.stats().hits;
                let (got, caps) = memo.predict(net, &spec, policy, inference);
                let hit = memo.stats().hits > hits;
                let want_hit = open.get(&(t, p, inference)).is_some_and(|v| v.contains(&cap))
                    || pinned.contains(&(t, p, inference, cap));
                prop_assert_eq!(hit, want_hit, "call {}", n);
                let fresh = if inference {
                    compile_inference_memo(net, &spec, policy)
                } else {
                    compile_memo(net, &spec, policy)
                };
                match (&got, &fresh) {
                    (Ok(g), Ok(f)) => {
                        prop_assert_eq!(*g, PeakPrediction::of(&f.plan))
                    }
                    (Err(g), Err(f)) => prop_assert_eq!(g.to_string(), f.to_string()),
                    _ => prop_assert!(false, "call {}: {:?} vs {:?}", n, got, fresh.err()),
                }
                // The caps answered are the plan's, or an OOM's own cap alone.
                let want_caps = fresh.as_ref().map_or(cap..=cap, |f| f.valid_caps.clone());
                prop_assert_eq!(caps, want_caps, "call {}", n);
                match &fresh {
                    Ok(f) if *f.valid_caps.end() == u64::MAX => {
                        open.insert((t, p, inference), f.valid_caps.clone());
                    }
                    _ => {
                        pinned.insert((t, p, inference, cap));
                    }
                }
                let s = memo.stats();
                prop_assert_eq!(s.hits + s.misses, n as u64 + 1);
            }
        }
    }

    #[test]
    fn distinct_nets_never_alias_in_the_memo() {
        // Same shape of call, different structure: the fingerprint must
        // separate them even when name and batch agree.
        let spec = DeviceSpec::k40c();
        let memo = Compiler::new();
        let (a, _) = memo.compile(&small_net(8), &spec, Policy::baseline(), false);
        let a = a.unwrap();
        let other = {
            // Same name, same batch, one extra ACT before the FC.
            let mut net = Net::new("plan-test", Shape4::new(8, 3, 32, 32));
            let d = net.data();
            let c1 = net.conv(d, 16, 3, 1, 1);
            let a1 = net.relu(c1);
            let p1 = net.max_pool(a1, 2, 2, 0);
            let c2 = net.conv(p1, 32, 3, 1, 1);
            let a2 = net.relu(c2);
            let a3 = net.relu(a2);
            let f = net.fc(a3, 10);
            net.softmax(f);
            net
        };
        let (b, b_hit) = memo.compile(&other, &spec, Policy::baseline(), false);
        assert!(!b_hit, "structurally distinct nets must not alias");
        assert_ne!(a.plan.steps.len(), b.unwrap().plan.steps.len());
    }

    #[test]
    fn distinct_precisions_never_alias_in_the_memo() {
        // An fp32 and a bf16-mixed compile of the *same* net on the *same*
        // device must live under distinct memo keys: precision is part of
        // `Policy`, hence of `PlanKey`, and the plans size tensors
        // differently.
        use sn_graph::Precision;
        let net = small_net(8);
        let spec = DeviceSpec::k40c();
        let memo = Compiler::new();
        let fp32 = Policy::superneurons();
        let bf16 = fp32.with_precision(Precision::bf16_mixed());
        let (a, a_hit) = memo.compile(&net, &spec, fp32, false);
        let (b, b_hit) = memo.compile(&net, &spec, bf16, false);
        assert!(!a_hit && !b_hit, "distinct precisions must both miss");
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(
            b.plan.peak_bytes < a.plan.peak_bytes,
            "2-byte activations must shrink the plan peak ({} vs {})",
            b.plan.peak_bytes,
            a.plan.peak_bytes
        );
        // Each precision still hits its own entry on repeat.
        let (a2, a2_hit) = memo.compile(&net, &spec, fp32, false);
        let (b2, b2_hit) = memo.compile(&net, &spec, bf16, false);
        assert!(a2_hit && b2_hit);
        assert!(Arc::ptr_eq(&a, &a2.unwrap()));
        assert!(Arc::ptr_eq(&b, &b2.unwrap()));
    }

    #[test]
    fn packed_memo_keys_never_alias() {
        use crate::policy::{AllocatorKind, CachePolicy};
        use crate::tiers::TierConfig;
        use sn_tensor::DType;
        // Every enum's largest variant fits its field, and the six fields
        // fit the enum half-word above the flags.
        let largest = [
            RecomputeMode::CostAware as u64,
            AllocatorKind::Cuda as u64,
            CachePolicy::Mru as u64,
            2, // `WorkspacePolicy::Capped`
            DType::BF16 as u64,
        ];
        assert!(largest.iter().all(|&v| v < 1 << ENUM_BITS));
        const { assert!(6 * ENUM_BITS <= 16) };
        // The lattice, each preset with one tier size or the workspace cap
        // moved by a byte, at both precisions, for training and inference:
        // distinct questions, distinct words.
        let mut policies = lattice();
        for p in &lattice()[..5] {
            let t = p.tiers;
            for tiers in [
                TierConfig {
                    peer_gpu_bytes: t.peer_gpu_bytes + 1,
                    ..t
                },
                TierConfig {
                    local_host_bytes: t.local_host_bytes + 1,
                    ..t
                },
                TierConfig {
                    remote_bytes: t.remote_bytes + 1,
                    ..t
                },
            ] {
                policies.push(Policy { tiers, ..*p });
            }
            policies.push(Policy {
                workspace: WorkspacePolicy::Capped((64 << 20) + 1),
                ..*p
            });
        }
        let (net, spec) = (small_net(8), DeviceSpec::k40c());
        let mut questions = std::collections::HashSet::new();
        let mut slots = std::collections::HashSet::new();
        for p in policies {
            for precision in [Precision::fp32(), Precision::bf16_mixed()] {
                for inference in [false, true] {
                    let policy = p.with_precision(precision);
                    if !questions.insert((policy, inference)) {
                        continue;
                    }
                    // A family's open slot equals none of its pinned slots,
                    // the cap-0 one included, and shares their family.
                    let key = PlanKey::new(&net, &spec, policy, inference);
                    for cap in [0, 1, spec.dram_bytes, u64::MAX] {
                        let pinned =
                            PlanKey::new(&net, &spec.clone().with_dram(cap), policy, inference);
                        assert_eq!(pinned.family, key.open().family);
                        assert!(slots.insert(pinned.words), "{policy:?} at {cap}");
                    }
                    assert!(slots.insert(key.open().words), "{policy:?} open");
                }
            }
        }
        assert_eq!(slots.len(), questions.len() * 5);
    }
}
