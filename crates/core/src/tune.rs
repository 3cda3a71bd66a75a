//! Seeded, deterministic policy autotuning over the memoized compiler.
//!
//! The paper's memory-scheduling decisions — prefetch window, eager offload,
//! recompute segmentation, cache replacement, workspace budgeting — are hand
//! heuristics bundled into the [`Policy`] presets. This module closes the
//! planner loop: because whole-plan compilation is memoized (tens of
//! thousands of plans per second warm) and a simulated iteration is cheap
//! and exact, the presets can be *searched* instead of hand-picked.
//!
//! ## Search
//!
//! Per `(Net::fingerprint, DeviceSpec, replicas, seed)` the tuner
//! explores the policy lattice — [`Policy::prefetch_depth`], eager offload,
//! [`RecomputeMode`],
//! [`CachePolicy`],
//! [`WorkspacePolicy`], all-reduce bucket bytes, and
//! the UTP tier table — in three stages:
//!
//! 1. **Seeds**: the five hand presets are evaluated and the best measured
//!    one becomes the incumbent, so the tuned result is never worse than the
//!    best hand preset *by construction*.
//! 2. **Successive halving** over a seeded random sample of the lattice:
//!    every candidate is feasibility-checked and scored by the compiled
//!    plan's analytic time estimate (one memoized compile each — the cheap
//!    fidelity rung); only the top few survivors graduate to a measured
//!    [`GroupExecutor`] iteration (the expensive rung).
//! 3. **Coordinate descent** from the incumbent: each knob axis is swept
//!    while the others are held fixed, repeating until a full pass finds no
//!    strictly better neighbour.
//!
//! Candidate batches fan out over [`TuneConfig::workers`] scoped threads;
//! results come back in input order and every selection tie breaks on input
//! index, so **the same seed produces the same [`TunedPolicy`] and the same
//! search trace for any worker count**.
//! [`Policy::validate`] prunes contradictory knob cells before they reach
//! the compiler.
//!
//! ## Output
//!
//! [`search`] returns the winning policy plus its full trace, compiling
//! through the shared [`Compiler`]; [`search_in`] does the same through a
//! compiler of the caller's, on whose registry the search's `tune.*` totals
//! land — two searches on two fresh compilers are comparable with no clear
//! between them.

use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use fxhash::{FxHashMap, FxHashSet, FxHasher};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sn_graph::Net;
use sn_sim::{DeviceSpec, SimTime};

use crate::executor::ExecError;
use crate::group::{compile_group_in, GroupConfig, GroupExecutor, DEFAULT_BUCKET_BYTES};
use crate::parallel::Interconnect;
use crate::plan::Compiler;
use crate::policy::{
    AllocatorKind, CachePolicy, Policy, PolicyPreset, RecomputeMode, WorkspacePolicy,
};
use crate::tiers::TierConfig;

/// Prefetch-ahead windows the sampler draws from (the hand presets all sit
/// at 8; deeper windows can hide more transfer on fast fabrics, shallower
/// ones waste less residency on slow ones).
const DEPTHS: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// All-reduce bucket targets (only searched for multi-replica gangs).
const BUCKETS: [u64; 5] = [2 << 20, 4 << 20, 8 << 20, 16 << 20, 64 << 20];
const RECOMPUTES: [RecomputeMode; 4] = [
    RecomputeMode::None,
    RecomputeMode::SpeedCentric,
    RecomputeMode::MemoryCentric,
    RecomputeMode::CostAware,
];
const CACHES: [CachePolicy; 3] = [CachePolicy::Lru, CachePolicy::Fifo, CachePolicy::Mru];
const WORKSPACES: [WorkspacePolicy; 3] = [
    WorkspacePolicy::None,
    WorkspacePolicy::Dynamic,
    WorkspacePolicy::Capped(64 << 20),
];
/// Measured survivors of the halving stage.
const SURVIVORS: usize = 6;
/// Maximum coordinate-descent passes.
const PASSES: usize = 2;

/// The UTP tier tables the sampler considers: host-only (the default every
/// preset ships) and a tiered pool with a peer-GPU tier, whose higher
/// bandwidth (`Tier::gbps`) genuinely shortens offload/prefetch transfers.
fn tier_choices() -> [TierConfig; 2] {
    [
        TierConfig::default(),
        TierConfig::full(8 << 30, 256 << 30, 256 << 30),
    ]
}

/// One point of the search lattice: a full policy bundle plus the group
/// all-reduce bucket target (a gang knob that lives outside [`Policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    pub policy: Policy,
    pub bucket_bytes: u64,
}

/// Tuning request parameters. `workers` never changes the result — that is
/// the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct TuneConfig {
    /// Gang size the objective is measured at (1 = single device).
    pub replicas: usize,
    /// Fabric for multi-replica objectives.
    pub interconnect: Interconnect,
    /// RNG seed for the sampling stage.
    pub seed: u64,
    /// Random lattice samples for the halving stage.
    pub samples: usize,
    /// Threads a feasibility batch fans out over; 0 = the host's available
    /// parallelism, read once per search.
    pub workers: usize,
}

impl TuneConfig {
    pub fn new(replicas: usize, interconnect: Interconnect) -> TuneConfig {
        TuneConfig {
            replicas,
            interconnect,
            seed: 0x5eed_0001,
            samples: 32,
            workers: 0,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// A tuned policy bundle: the winning lattice point plus the measurements
/// that justified it. Every field is a deterministic function of
/// `(net, device, TuneConfig minus workers)` — the seeded-determinism tests
/// compare whole values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunedPolicy {
    pub policy: Policy,
    pub bucket_bytes: u64,
    /// Measured step time of the winner (gang step for replicas > 1).
    pub step_time: SimTime,
    /// The winner's compiled plan peak.
    pub plan_peak_bytes: u64,
    /// The winner's executed peak — equals `plan_peak_bytes` byte-exactly
    /// (the interpreter replays the plan).
    pub executed_peak_bytes: u64,
    /// Best hand preset's measured step time (the incumbent the search
    /// started from — `step_time <= hand_step_time` by construction).
    pub hand_step_time: SimTime,
    /// Name of that best hand preset.
    pub hand_name: &'static str,
    pub seed: u64,
    /// Feasibility evaluations spent (each is exactly one lookup in the
    /// compiler's plan memo).
    pub evals: u64,
    /// Lattice cells skipped: invalid knob combos, duplicates, infeasible
    /// points, and halving-stage drops.
    pub pruned: u64,
    /// FxHash digest of the rendered search trace; identical seeds produce
    /// identical digests for any worker count.
    pub trace_digest: u64,
}

/// A full search result: the tuned bundle plus the rendered trace and the
/// statistics that must stay *out* of [`TunedPolicy`] (memo hit counts
/// depend on what the compiler had already been asked).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    pub tuned: TunedPolicy,
    /// One line per search event, in deterministic order.
    pub trace: Vec<String>,
    /// Plan-memo hits observed inside the search's feasibility batches.
    pub memo_hits: u64,
    /// Plan-memo lookups (hits + misses) those batches performed — equals
    /// `tuned.evals` (the `metrics_consistent` bench gate).
    pub memo_lookups: u64,
}

/// The `tune.*` handles of one [`Compiler`]: totals over the searches run
/// through it.
#[derive(Debug)]
pub(crate) struct TuneMetrics {
    evals: sn_telemetry::Counter,
    pruned: sn_telemetry::Counter,
    memo_hits: sn_telemetry::Counter,
    memo_lookups: sn_telemetry::Counter,
    wall_ns: sn_telemetry::Histogram,
}

impl TuneMetrics {
    pub(crate) fn register(reg: &sn_telemetry::MetricsRegistry) -> TuneMetrics {
        TuneMetrics {
            evals: reg.counter("tune.evals"),
            pruned: reg.counter("tune.pruned"),
            memo_hits: reg.counter("tune.memo_hits"),
            memo_lookups: reg.counter("tune.memo_lookups"),
            wall_ns: reg.histogram("tune.search_wall_ns"),
        }
    }
}

/// Compact deterministic signature of a candidate for trace lines.
fn sig(c: &Candidate) -> String {
    let p = &c.policy;
    let rc = match p.recompute {
        RecomputeMode::None => "none",
        RecomputeMode::SpeedCentric => "speed",
        RecomputeMode::MemoryCentric => "mem",
        RecomputeMode::CostAware => "cost",
    };
    let ws = match p.workspace {
        WorkspacePolicy::None => "none".into(),
        WorkspacePolicy::Dynamic => "dyn".into(),
        WorkspacePolicy::Capped(b) => format!("cap{}", b >> 20),
    };
    let cp = match p.cache_policy {
        CachePolicy::Lru => "lru",
        CachePolicy::Fifo => "fifo",
        CachePolicy::Mru => "mru",
    };
    let tiers = if p.tiers == TierConfig::default() {
        "local"
    } else {
        "full"
    };
    format!(
        "lv{}of{}eo{}tc{}pf{}d{} rc={rc} ws={ws} cp={cp} t={tiers} bkt={}M",
        p.liveness as u8,
        p.offload as u8,
        p.eager_offload as u8,
        p.tensor_cache as u8,
        p.prefetch as u8,
        p.prefetch_depth,
        c.bucket_bytes >> 20,
    )
}

/// What a measured candidate costs.
#[derive(Debug, Clone, Copy)]
struct Measured {
    step_time: SimTime,
    plan_peak: u64,
    executed_peak: u64,
}

/// Objective: one iteration through the group interpreter (one replica
/// degenerates to a plain executor walk with no collectives). Its step is
/// the score; its replica peak feeds the byte-exactness contract.
fn measure(
    compiler: &Compiler,
    net: &Net,
    spec: &DeviceSpec,
    cand: &Candidate,
    cfg: &TuneConfig,
) -> Result<Measured, ExecError> {
    let gcfg = GroupConfig::new(cfg.replicas.max(1), cfg.interconnect)
        .with_bucket_bytes(cand.bucket_bytes);
    let gplan = Arc::new(compile_group_in(compiler, net, spec, cand.policy, &gcfg)?);
    let mut gx = GroupExecutor::from_plan(net, spec.clone(), cand.policy, gplan, gcfg.overlap)?;
    let plan_peak = gx.gplan.replica.plan.peak_bytes;
    let step = gx.run_iteration()?;
    debug_assert!(step.peaks_match, "tuned gang replica diverged from plan");
    Ok(Measured {
        step_time: step.step_time,
        plan_peak,
        executed_peak: step.replica.peak_bytes,
    })
}

/// Draw one lattice point. The knobs are sampled independently (including
/// combinations [`Policy::validate`] will reject — the caller counts those
/// as pruned cells, which is the point of the satellite).
fn random_candidate(rng: &mut SmallRng, cfg: &TuneConfig) -> Candidate {
    let tiers = tier_choices();
    let policy = Policy {
        liveness: rng.gen_bool(0.85),
        keep_all_forward: false,
        inplace_act: false,
        offload: rng.gen_bool(0.75),
        eager_offload: rng.gen_bool(0.4),
        tensor_cache: rng.gen_bool(0.6),
        prefetch: rng.gen_bool(0.8),
        prefetch_depth: DEPTHS[rng.gen_range(0..DEPTHS.len())],
        pinned_host: true,
        sync_transfers: false,
        recompute: RECOMPUTES[rng.gen_range(0..RECOMPUTES.len())],
        allocator: AllocatorKind::HeapPool,
        workspace: WORKSPACES[rng.gen_range(0..WORKSPACES.len())],
        cache_policy: CACHES[rng.gen_range(0..CACHES.len())],
        tiers: tiers[rng.gen_range(0..tiers.len())],
        precision: sn_graph::Precision::fp32(),
    };
    let bucket_bytes = if cfg.replicas > 1 {
        BUCKETS[rng.gen_range(0..BUCKETS.len())]
    } else {
        DEFAULT_BUCKET_BYTES
    };
    Candidate {
        policy,
        bucket_bytes,
    }
}

/// The hand presets, fp32 as every candidate is — the search's stage-0 seeds
/// and its floor.
fn hand_presets() -> Vec<(&'static str, Candidate)> {
    PolicyPreset::ALL
        .into_iter()
        .map(|p| {
            let policy = p.policy();
            let bucket_bytes = DEFAULT_BUCKET_BYTES;
            (
                p.name(),
                Candidate {
                    policy,
                    bucket_bytes,
                },
            )
        })
        .collect()
}

/// Search state threaded through the stages.
struct Search<'a> {
    compiler: &'a Compiler,
    net: &'a Net,
    spec: &'a DeviceSpec,
    cfg: &'a TuneConfig,
    workers: usize,
    trace: Vec<String>,
    evals: u64,
    pruned: u64,
    memo_hits: u64,
    memo_lookups: u64,
    /// Feasibility verdict per policy: plan peak + analytic estimate, or
    /// `None` for does-not-fit. Candidates differing only in bucket bytes
    /// share a verdict (buckets never touch the heap pool).
    feas: FxHashMap<Policy, Option<(u64, SimTime)>>,
    /// Measured candidates (the expensive rung), cached across stages.
    measured: FxHashMap<Candidate, Option<Measured>>,
}

impl Search<'_> {
    /// Feasibility-check `policies` in one parallel batch over the
    /// compiler's plan memo. Exactly one lookup per *uncached* policy,
    /// counted per call (lookup and hit flag as each compile returns them),
    /// so the search's statistics are its own whoever else uses the
    /// compiler meanwhile.
    fn feasibility_batch(&mut self, stage: &str, policies: &[Policy]) {
        let fresh: Vec<Policy> = {
            let mut seen = FxHashSet::default();
            policies
                .iter()
                .filter(|p| !self.feas.contains_key(*p) && seen.insert(**p))
                .copied()
                .collect()
        };
        if fresh.is_empty() {
            return;
        }
        let (compiler, net, spec) = (self.compiler, self.net, self.spec);
        let verdicts = crate::par::map(&fresh, self.workers, |p| {
            let (c, hit) = compiler.compile(net, spec, *p, false);
            let verdict = c
                .ok()
                .map(|c| (c.plan.peak_bytes, c.plan.iter_time_estimate()));
            (verdict, hit)
        });
        self.evals += fresh.len() as u64;
        self.memo_lookups += verdicts.len() as u64;
        self.memo_hits += verdicts.iter().filter(|(_, hit)| *hit).count() as u64;
        for (p, (v, _)) in fresh.into_iter().zip(verdicts) {
            if v.is_none() {
                self.pruned += 1;
            }
            self.trace.push(match v {
                Some((peak, est)) => format!(
                    "{stage} feas {} peak={peak} est={}ns",
                    sig(&Candidate {
                        policy: p,
                        bucket_bytes: DEFAULT_BUCKET_BYTES
                    }),
                    est.as_ns()
                ),
                None => format!(
                    "{stage} infeasible {}",
                    sig(&Candidate {
                        policy: p,
                        bucket_bytes: DEFAULT_BUCKET_BYTES
                    })
                ),
            });
            self.feas.insert(p, v);
        }
    }

    /// The expensive rung: measure a candidate (memoized), tracing the
    /// result. Returns `None` for infeasible/failed candidates.
    fn measure_cached(&mut self, stage: &str, cand: &Candidate) -> Option<Measured> {
        if let Some(hit) = self.measured.get(cand) {
            return *hit;
        }
        let m = measure(self.compiler, self.net, self.spec, cand, self.cfg).ok();
        match &m {
            Some(m) => self.trace.push(format!(
                "{stage} measured {} step={}ns peak={}",
                sig(cand),
                m.step_time.as_ns(),
                m.executed_peak
            )),
            None => self
                .trace
                .push(format!("{stage} measure-failed {}", sig(cand))),
        }
        self.measured.insert(*cand, m);
        m
    }
}

/// [`search_in`] the shared [`Compiler`].
pub fn search(net: &Net, spec: &DeviceSpec, cfg: &TuneConfig) -> Result<SearchOutcome, ExecError> {
    search_in(Compiler::shared(), net, spec, cfg)
}

/// Run the full search, every compile of it — feasibility batches, gang
/// measurements, the nothing-fits error — through `compiler`. Pure modulo
/// that compiler's memo warmth: the returned [`TunedPolicy`] and trace are
/// bit-identical for the same `(net, spec, cfg)` regardless of worker count
/// or cache state, and on a fresh compiler so are the memo statistics.
pub fn search_in(
    compiler: &Compiler,
    net: &Net,
    spec: &DeviceSpec,
    cfg: &TuneConfig,
) -> Result<SearchOutcome, ExecError> {
    let t0 = Instant::now();
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.workers
    };
    let mut s = Search {
        compiler,
        net,
        spec,
        cfg,
        workers,
        trace: Vec::new(),
        evals: 0,
        pruned: 0,
        memo_hits: 0,
        memo_lookups: 0,
        feas: FxHashMap::default(),
        measured: FxHashMap::default(),
    };

    // Stage 0 — the hand presets seed the incumbent.
    let hands = hand_presets();
    let hand_policies: Vec<Policy> = hands.iter().map(|(_, c)| c.policy).collect();
    s.feasibility_batch("seed", &hand_policies);
    let mut incumbent: Option<(Candidate, Measured, &'static str)> = None;
    for (name, cand) in &hands {
        if s.feas.get(&cand.policy).copied().flatten().is_none() {
            continue;
        }
        if let Some(m) = s.measure_cached("seed", cand) {
            let better = match &incumbent {
                None => true,
                Some((_, best, _)) => m.step_time < best.step_time,
            };
            if better {
                incumbent = Some((*cand, m, *name));
            }
        }
    }
    let Some((hand_cand, hand_m, hand_name)) = incumbent else {
        // Nothing fits — surface the strongest preset's compile error.
        let strongest = hands.last().expect("presets are non-empty").1.policy;
        let (compiled, _) = compiler.compile(net, spec, strongest, false);
        return Err(compiled
            .err()
            .unwrap_or(ExecError::HostExhausted { requested: 0 }));
    };
    s.trace.push(format!(
        "seed incumbent={hand_name} step={}ns",
        hand_m.step_time.as_ns()
    ));
    let (mut best_cand, mut best_m) = (hand_cand, hand_m);

    // Stage 1 — seeded sampling + successive halving. The cheap rung is the
    // compiled plan's analytic estimate; only `survivors` graduate to a
    // measured iteration.
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut seen: FxHashSet<Candidate> = hands.iter().map(|(_, c)| *c).collect();
    let mut sampled: Vec<Candidate> = Vec::new();
    for _ in 0..cfg.samples {
        let c = random_candidate(&mut rng, cfg);
        if let Err(why) = c.policy.validate() {
            s.pruned += 1;
            s.trace.push(format!("sample invalid ({why}) {}", sig(&c)));
            continue;
        }
        if !seen.insert(c) {
            s.pruned += 1;
            s.trace.push(format!("sample duplicate {}", sig(&c)));
            continue;
        }
        sampled.push(c);
    }
    let sample_policies: Vec<Policy> = sampled.iter().map(|c| c.policy).collect();
    s.feasibility_batch("sample", &sample_policies);
    let mut ranked: Vec<(usize, Candidate, SimTime)> = sampled
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            s.feas
                .get(&c.policy)
                .copied()
                .flatten()
                .map(|(_, est)| (i, *c, est))
        })
        .collect();
    ranked.sort_by_key(|(i, _, est)| (*est, *i));
    let survivors = SURVIVORS.min(ranked.len());
    s.pruned += (ranked.len() - survivors) as u64;
    s.trace.push(format!(
        "halving kept={survivors} dropped={}",
        ranked.len() - survivors
    ));
    for (_, cand, _) in ranked.into_iter().take(survivors) {
        if let Some(m) = s.measure_cached("halving", &cand) {
            if m.step_time < best_m.step_time {
                s.trace.push(format!(
                    "halving new-best {} step={}ns",
                    sig(&cand),
                    m.step_time.as_ns()
                ));
                best_cand = cand;
                best_m = m;
            }
        }
    }

    // Stage 2 — coordinate descent from the incumbent: one axis at a time,
    // until a full pass finds no strictly better neighbour.
    let n_axes = neighbour_axes(&best_cand, cfg).len();
    for pass in 0..PASSES {
        let mut improved = false;
        for axis_idx in 0..n_axes {
            // Recompute from the *current* incumbent: an adoption on one
            // axis immediately reshapes the neighbourhood of the next.
            let (axis_name, neighbours) = neighbour_axes(&best_cand, cfg)
                .into_iter()
                .nth(axis_idx)
                .expect("axis count is stable");
            let mut fresh: Vec<Candidate> = Vec::new();
            for c in neighbours {
                if c == best_cand {
                    continue;
                }
                if let Err(why) = c.policy.validate() {
                    s.pruned += 1;
                    s.trace.push(format!("descent invalid ({why}) {}", sig(&c)));
                    continue;
                }
                fresh.push(c);
            }
            let policies: Vec<Policy> = fresh.iter().map(|c| c.policy).collect();
            s.feasibility_batch("descent", &policies);
            for cand in fresh {
                if s.feas.get(&cand.policy).copied().flatten().is_none() {
                    continue;
                }
                if let Some(m) = s.measure_cached("descent", &cand) {
                    if m.step_time < best_m.step_time {
                        s.trace.push(format!(
                            "descent[{pass}:{axis_name}] new-best {} step={}ns",
                            sig(&cand),
                            m.step_time.as_ns()
                        ));
                        best_cand = cand;
                        best_m = m;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            s.trace.push(format!("descent converged pass={pass}"));
            break;
        }
    }

    s.trace.push(format!(
        "winner {} step={}ns hand={hand_name} hand_step={}ns evals={} pruned={}",
        sig(&best_cand),
        best_m.step_time.as_ns(),
        hand_m.step_time.as_ns(),
        s.evals,
        s.pruned
    ));

    let mut hasher = FxHasher::default();
    for line in &s.trace {
        line.hash(&mut hasher);
    }
    let trace_digest = hasher.finish();

    let metrics = &compiler.tune;
    metrics.evals.add(s.evals);
    metrics.pruned.add(s.pruned);
    metrics.memo_hits.add(s.memo_hits);
    metrics.memo_lookups.add(s.memo_lookups);
    metrics.wall_ns.record(t0.elapsed().as_nanos() as u64);

    Ok(SearchOutcome {
        tuned: TunedPolicy {
            policy: best_cand.policy,
            bucket_bytes: best_cand.bucket_bytes,
            step_time: best_m.step_time,
            plan_peak_bytes: best_m.plan_peak,
            executed_peak_bytes: best_m.executed_peak,
            hand_step_time: hand_m.step_time,
            hand_name,
            seed: cfg.seed,
            evals: s.evals,
            pruned: s.pruned,
            trace_digest,
        },
        trace: s.trace,
        memo_hits: s.memo_hits,
        memo_lookups: s.memo_lookups,
    })
}

/// The coordinate-descent axes around `base`: every value of each knob with
/// the others held fixed.
fn neighbour_axes(base: &Candidate, cfg: &TuneConfig) -> Vec<(&'static str, Vec<Candidate>)> {
    let p = base.policy;
    let mut axes: Vec<(&'static str, Vec<Candidate>)> = Vec::new();
    let with_policy = |np: Policy| Candidate {
        policy: np,
        bucket_bytes: base.bucket_bytes,
    };
    axes.push((
        "prefetch_depth",
        DEPTHS
            .iter()
            .map(|&d| with_policy(p.with_prefetch_depth(d)))
            .collect(),
    ));
    axes.push((
        "eager_offload",
        [false, true]
            .iter()
            .map(|&e| {
                with_policy(Policy {
                    eager_offload: e,
                    // Eager offload and the cache's pressure-driven policy
                    // are mutually exclusive; flipping one flips the other.
                    tensor_cache: if e { false } else { p.tensor_cache },
                    ..p
                })
            })
            .collect(),
    ));
    axes.push((
        "recompute",
        RECOMPUTES
            .iter()
            .map(|&r| with_policy(Policy { recompute: r, ..p }))
            .collect(),
    ));
    axes.push((
        "cache_policy",
        CACHES
            .iter()
            .map(|&cp| {
                with_policy(Policy {
                    cache_policy: cp,
                    ..p
                })
            })
            .collect(),
    ));
    axes.push((
        "workspace",
        WORKSPACES
            .iter()
            .map(|&w| with_policy(Policy { workspace: w, ..p }))
            .collect(),
    ));
    axes.push((
        "tiers",
        tier_choices()
            .iter()
            .map(|&t| with_policy(Policy { tiers: t, ..p }))
            .collect(),
    ));
    if cfg.replicas > 1 {
        axes.push((
            "bucket_bytes",
            BUCKETS
                .iter()
                .map(|&b| Candidate {
                    policy: p,
                    bucket_bytes: b,
                })
                .collect(),
        ));
    }
    axes
}

/// Does nothing: the tune memo is gone. Kept for its one caller,
/// `benchmark/src/harness.rs:145`, which this repository's PRs may not
/// edit; ROADMAP item 9's `[benchmark]` PR drops the call and this with it.
pub fn clear_tune_memo() {}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::Shape4;

    fn tower(width: usize, depth: usize, batch: usize) -> Net {
        let mut net = Net::new("tower", Shape4::new(batch, 3, 32, 32));
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

    fn quick_cfg() -> TuneConfig {
        TuneConfig::new(1, Interconnect::pcie())
            .with_seed(7)
            .with_samples(12)
    }

    #[test]
    fn tuned_is_never_worse_than_the_best_hand_preset() {
        let net = tower(16, 4, 8);
        let spec = DeviceSpec::k40c();
        let o = search(&net, &spec, &quick_cfg()).unwrap();
        assert!(o.tuned.step_time <= o.tuned.hand_step_time);
        assert_eq!(o.tuned.plan_peak_bytes, o.tuned.executed_peak_bytes);
        assert!(o.tuned.evals > 0);
        assert_eq!(o.memo_lookups, o.tuned.evals);
    }

    #[test]
    fn same_seed_same_outcome_any_worker_count() {
        let net = tower(16, 3, 8);
        let spec = DeviceSpec::k40c();
        let base = search(&net, &spec, &quick_cfg().with_workers(1)).unwrap();
        for workers in [2, 3, 8] {
            let o = search(&net, &spec, &quick_cfg().with_workers(workers)).unwrap();
            assert_eq!(o.tuned, base.tuned, "workers={workers}");
            assert_eq!(o.trace, base.trace, "workers={workers}");
        }
    }

    #[test]
    fn different_seeds_may_differ_but_stay_gated() {
        let net = tower(16, 3, 8);
        let spec = DeviceSpec::k40c();
        for seed in [1, 2, 3] {
            let o = search(&net, &spec, &quick_cfg().with_seed(seed)).unwrap();
            assert!(o.tuned.step_time <= o.tuned.hand_step_time, "seed={seed}");
            assert_eq!(o.tuned.seed, seed);
        }
    }

    #[test]
    fn fresh_compilers_make_searches_comparable_without_a_clear() {
        let net = tower(8, 3, 8);
        let spec = DeviceSpec::k40c();
        let cfg = quick_cfg().with_seed(42);
        let run = |workers: usize| {
            let c = Compiler::new();
            let o = search_in(&c, &net, &spec, &cfg.with_workers(workers)).unwrap();
            // The gang measurements look plans up too; the search counts
            // its feasibility batches only.
            let stats = c.stats();
            assert!(stats.hits + stats.misses >= o.memo_lookups);
            let totals = c.metrics().snapshot();
            assert_eq!(totals.counter("tune.evals"), Some(o.tuned.evals));
            assert_eq!(totals.counter("tune.memo_lookups"), Some(o.memo_lookups));
            o
        };
        let a = run(1);
        for workers in [1, 2] {
            let b = run(workers);
            assert_eq!(b.tuned, a.tuned, "workers={workers}");
            assert_eq!(b.trace, a.trace, "workers={workers}");
            assert_eq!(
                (b.memo_hits, b.memo_lookups),
                (a.memo_hits, a.memo_lookups),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn infeasible_devices_report_the_compile_error() {
        let net = tower(64, 8, 64);
        let spec = DeviceSpec::k40c().with_dram(64 << 10);
        assert!(search(&net, &spec, &quick_cfg()).is_err());
    }

    #[test]
    fn multi_replica_search_tunes_bucket_bytes() {
        let net = tower(16, 3, 8);
        let spec = DeviceSpec::k40c();
        let cfg = TuneConfig::new(2, Interconnect::pcie())
            .with_seed(5)
            .with_samples(8);
        let o = search(&net, &spec, &cfg).unwrap();
        assert!(o.tuned.step_time <= o.tuned.hand_step_time);
        assert!(BUCKETS.contains(&o.tuned.bucket_bytes));
        assert_eq!(o.tuned.plan_peak_bytes, o.tuned.executed_peak_bytes);
    }
}
