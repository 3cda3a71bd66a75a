//! Memory-aware admission control.
//!
//! Before a job touches a device, the scheduler predicts its peak device
//! bytes under each candidate policy preset by **compiling a
//! [`sn_runtime::MemoryPlan`]** ([`sn_runtime::plan_prediction_caps`]) — no
//! simulated iteration runs on the admission hot path. The plan's peak walks
//! the paper's `peak_m` progression (baseline `Σ l_f + Σ l_b` down to
//! `max_i(l_i)` for the full stack) and is **exact**: the executor replays
//! the plan's alloc/free sequence, so the reservation equals the runtime
//! high-water to the byte. A job is only placed where that peak fits the
//! device's *unreserved* bytes, so the sum of reservations on a device can
//! never exceed its DRAM — the central multi-tenancy invariant.
//!
//! Predictions are made against a device capped to the candidate budget
//! (`spec.with_dram(budget)`), because the runtime adapts to pressure: the
//! dynamic workspace policy and the Tensor Cache shrink their footprint when
//! memory is scarce. The returned peak is the high-water mark of that exact
//! adaptive plan, so reserving it is sound by construction.
//!
//! Gang replicas reserve the same per-replica plan peak: the group runtime's
//! collectives stage through `GroupPlan::comm_workspace_bytes`, which is
//! modeled *outside* the heap pool (that separation is what keeps the peak
//! byte-identical to the single-device plan). The comm staging is reported,
//! not reserved — a deployment sizing real NCCL-style ring buffers would
//! add that fixed figure to each gang replica's reservation.
//!
//! ## Each answer remembered once
//!
//! A plan depends on the memory it is given only through
//! [`sn_runtime::CompiledPlan::valid_caps`], and the plan memo keeps each
//! plan's prediction and caps. Admission remembers what it asked in three
//! places, each keyed by what its answer depends on:
//!
//! * **a `Net` per shape**, in the [`Profiler`] — one build per (workload,
//!   batch), whatever the preset, kind or budget;
//! * **answers by level**, in the run's `Row`s — `Row::resolve` asks the
//!   plan memo at its highest cold level and fills every other cold level
//!   the answer's caps hold, so a rung pays one plan-memo lookup per
//!   interval, not one per level. OOM and cap-bound answers hold at their
//!   own cap alone and are asked level by level: feasibility is not
//!   monotone in the cap;
//! * **gang measurements per replica plan**, in the [`Profiler`] — a
//!   measured step depends on the replica plan, the card, the policy, the
//!   replica count and the fabric, and not on pool capacity past the plan's
//!   extent, so a `GangKey` carries the replica plan's interval start, not
//!   the cap. The row that granted the gang keeps that start beside its
//!   answer, so pacing a gang asks no plan memo.

use std::ops::RangeInclusive;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fxhash::{FxHashMap, FxHashSet};
use sn_graph::Net;
use sn_runtime::{plan_prediction_caps, GroupConfig, GroupExecutor, Interconnect, PeakPrediction};
use sn_sim::{DeviceSpec, SimTime};

use crate::job::{JobKind, JobSpec, PolicyPreset, Workload};
use crate::placement::{ByFree, Candidate, DeviceState, PlacementPolicy};
use crate::report::RejectReason;
use crate::sim::ClusterSim;

/// Gang measurement key: everything a measured step depends on — the
/// replica plan's shape and preset, the card (its two rates,
/// [`DeviceSpec::card_fingerprint`]) and the start of that plan's caps (the
/// lowest cap of an open plan, the exact cap of a cap-bound or OOM one) —
/// extended with the gang size and the fabric. Two budgets one replica plan
/// answers share a measurement; replica counts can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GangKey {
    workload: Workload,
    batch: usize,
    preset: PolicyPreset,
    card: (u64, u64),
    plan_from: u64,
    replicas: usize,
    ic_gbps_bits: u64,
    ic_latency_ns: u64,
}

impl GangKey {
    /// The key of a `replicas`-wide gang of (`workload`, `batch`) under
    /// `preset` on `spec`'s card and `interconnect`, whose replica plan's
    /// caps start at `plan_from`.
    fn new(
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        replicas: usize,
        spec: &DeviceSpec,
        plan_from: u64,
        interconnect: Interconnect,
    ) -> GangKey {
        GangKey {
            workload,
            batch,
            preset,
            card: spec.card_fingerprint(),
            plan_from,
            replicas,
            ic_gbps_bits: interconnect.gbps.to_bits(),
            ic_latency_ns: interconnect.latency.0,
        }
    }
}

/// What admission asks of the planner and the group runtime: a prediction is
/// a plan-memo lookup, kept by the run's `Row`s, so the profiler keeps only
/// what the memo does not — a `Net` per (workload, batch) and a gang
/// measurement per replica plan (see the module docs).
///
/// Both are `Mutex`-guarded Fx-hashed maps (the keys are internal structs —
/// no untrusted input, no need for SipHash), which makes the profiler
/// `Sync`. A concurrent miss may measure the same gang twice; both results
/// are identical (a measurement is deterministic) and the last insert wins.
#[derive(Default)]
pub struct Profiler {
    nets: Mutex<FxHashMap<(Workload, usize), Arc<Net>>>,
    /// Measured gang step times, one group execution per [`GangKey`].
    gang: Mutex<FxHashMap<GangKey, Option<SimTime>>>,
    /// Debug builds: the gang step measured at each exact cap a hit asked.
    #[cfg(debug_assertions)]
    gang_exact: Mutex<FxHashMap<(GangKey, u64), Option<SimTime>>>,
}

/// Lock one of the profiler's maps, poisoned or not: a gang is measured
/// before the lock is taken and only whole keys and values cross it, so a
/// map a dying thread held is still consistent — and one rung's panic must
/// not fail every later admission.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Profiler {
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Predicted cost of one replica of (`workload`, `batch`, `kind`) under
    /// `preset` on `spec` given `budget` bytes of device memory, or `None`
    /// if it cannot run within the budget. Compile-only: no iteration is
    /// simulated, and a plan the memo holds is not compiled again.
    pub fn profile_kind(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        kind: JobKind,
        spec: &DeviceSpec,
        budget: u64,
    ) -> Option<PeakPrediction> {
        let capped = spec.clone().with_dram(budget);
        self.answer(workload, batch, preset, kind, &capped).0
    }

    /// The prediction on the `capped` device (`None`: does not fit) and the
    /// caps it holds for — the plan's `valid_caps`, or the asked cap alone
    /// for an OOM — from one plan-memo lookup.
    fn answer(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        kind: JobKind,
        capped: &DeviceSpec,
    ) -> (Option<PeakPrediction>, RangeInclusive<u64>) {
        let net = self.net(workload, batch);
        let inference = kind == JobKind::Inference;
        let (result, caps) = plan_prediction_caps(&net, capped, preset.policy(), inference);
        (result.ok(), caps)
    }

    /// The network of (`workload`, `batch`), built the first time it is
    /// asked for.
    fn net(&self, workload: Workload, batch: usize) -> Arc<Net> {
        let mut nets = lock(&self.nets);
        let net = nets.entry((workload, batch));
        Arc::clone(net.or_insert_with(|| Arc::new(workload.build(batch))))
    }

    /// Measured step time of a `replicas`-wide gang of (`workload`,
    /// `batch`) under `preset` on `spec` (the *capped* device the replica
    /// profile was compiled against): compiles the
    /// [`sn_runtime::GroupPlan`] — whose per-replica bytes are the exact
    /// plan the reservation came from — and drives the group interpreter
    /// for one iteration, returning its gang step (slowest replica +
    /// overlapped bucketed all-reduce). Memoized per replica plan
    /// (`GangKey`), whose caps the plan memo names; the key carries the
    /// replica count, so gang sizes never alias. `None` means the gang
    /// cannot run within the budget.
    pub fn gang_step_time(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        replicas: usize,
        spec: &DeviceSpec,
        interconnect: Interconnect,
    ) -> Option<SimTime> {
        let (_, caps) = self.answer(workload, batch, preset, JobKind::Training, spec);
        let key = GangKey::new(
            workload,
            batch,
            preset,
            replicas,
            spec,
            *caps.start(),
            interconnect,
        );
        self.gang_step(key, spec, spec.dram_bytes, interconnect)
    }

    /// The gang step `key` names, measured on `spec` capped to `cap` — a
    /// cap its replica plan holds — the first time it is asked: the capped
    /// copy of the device is built on a miss only. In debug builds a
    /// memoized step is held to a measurement at `cap` itself.
    fn gang_step(
        &self,
        key: GangKey,
        spec: &DeviceSpec,
        cap: u64,
        interconnect: Interconnect,
    ) -> Option<SimTime> {
        let measure = || {
            let net = self.net(key.workload, key.batch);
            let cfg = GroupConfig::new(key.replicas, interconnect);
            let capped = spec.clone().with_dram(cap);
            GroupExecutor::new(&net, capped, key.preset.policy(), cfg)
                .ok()
                .and_then(|mut gx| {
                    let step = gx.run_iteration().ok()?;
                    debug_assert!(step.peaks_match, "gang replica diverged from its plan");
                    Some(step.step_time)
                })
        };
        let hit = lock(&self.gang).get(&key).copied();
        // Debug builds hold every hit to a measurement at the exact cap,
        // made once a cap: a measurement is a pure function of the two.
        #[cfg(debug_assertions)]
        if let Some(hit) = hit {
            let kept = lock(&self.gang_exact).get(&(key, cap)).copied();
            let exact = kept.unwrap_or_else(measure);
            lock(&self.gang_exact).insert((key, cap), exact);
            assert_eq!(hit, exact, "at cap {cap} for {key:?}");
        }
        if let Some(hit) = hit {
            return hit;
        }
        let result = measure();
        lock(&self.gang).insert(key, result);
        result
    }

    /// Number of gang step measurements run so far: one per replica plan,
    /// gang size and fabric (`GangKey`).
    pub fn gangs_measured(&self) -> usize {
        lock(&self.gang).len()
    }
}

/// What the plan memo has answered for one shape under one preset on the
/// fleet's card, by budget level: once bit `l` of `resolved` is set,
/// `answers[l]` is the prediction within `l × quantum` bytes on any device.
/// Levels stop at 63 (see [`quantum`]); level 0 offers no bytes and is never
/// asked. Kept for a run, so a level is resolved once, the first time a
/// device shows it — and answered once per plan interval, not once per level
/// (see [`Row::resolve`]). A run's rows are the only record of what its
/// admission asked: the levels they resolved are its
/// [`ClusterReport::predictions_simulated`](crate::ClusterReport::predictions_simulated).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    resolved: u64,
    answers: [Option<PeakPrediction>; 64],
    /// Per resolved level, the first cap its answer holds: it names the
    /// level's plan, which a gang granted there is measured by.
    from: [u64; 64],
    /// The largest peak any resolved level answered: no device is offered a
    /// replica that reserves more (a rung's stopping floor).
    pub(crate) most_peak: u64,
    /// The lowest resolved level with an answer (64 while none has one): a
    /// device below it is offered nothing (where a rung's walk starts).
    pub(crate) least_level: u8,
}

impl Row {
    pub(crate) const EMPTY: Row = Row {
        resolved: 0,
        answers: [None; 64],
        from: [0; 64],
        most_peak: 0,
        least_level: 64,
    };

    /// Answer every level of the bit set `present` not answered yet, on
    /// `spec` — the fleet's card. The highest cold level is asked of the
    /// plan memo first, and every cold level its answer's caps hold is
    /// filled from it, so one open plan answers every level above its
    /// extent. An OOM or cap-bound answer holds at its own level alone, so
    /// the levels below an open plan's are asked one at a time.
    pub(crate) fn resolve(
        &mut self,
        present: u64,
        profiler: &Profiler,
        job: &JobSpec,
        preset: PolicyPreset,
        spec: &DeviceSpec,
    ) {
        let mut cold = present & !self.resolved;
        let quantum = quantum(spec);
        let (workload, batch, kind) = (job.workload, job.batch, job.kind);
        while cold != 0 {
            let top = 63 - u64::from(cold.leading_zeros());
            let capped = spec.clone().with_dram(top * quantum);
            let (answer, caps) = profiler.answer(workload, batch, preset, kind, &capped);
            // `caps` holds `top`'s budget, so the cold levels it holds are
            // those from its first budget up to `top`.
            let filled = cold & (u64::MAX << caps.start().div_ceil(quantum).min(top));
            for l in (0..64).filter(|l| filled >> l & 1 == 1) {
                debug_assert!(
                    l == top
                        || profiler.profile_kind(workload, batch, preset, kind, spec, l * quantum)
                            == answer,
                    "level {l} is filled from {caps:?}"
                );
                self.answers[l as usize] = answer;
                self.from[l as usize] = *caps.start();
                if let Some(p) = answer {
                    self.most_peak = self.most_peak.max(p.peak_bytes);
                    self.least_level = self.least_level.min(l as u8);
                }
            }
            self.resolved |= filled;
            cold &= !filled;
        }
    }

    /// The answer at `level`; `None` also for a level never resolved.
    pub(crate) fn answer(&self, level: u8) -> Option<PeakPrediction> {
        self.answers[usize::from(level)]
    }
}

/// One replica's placement: the concrete device, the quantized budget its
/// plan was compiled against, and the prediction read off that plan. The
/// budget rides along so gang execution can be measured against the *exact*
/// capped device the reservation was predicted on.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub device: usize,
    pub budget: u64,
    pub prediction: PeakPrediction,
}

/// A successful admission: the preset the job will actually run under (may
/// be memory-stronger than requested) and one [`Placement`] per replica on
/// distinct devices (gang scheduling).
#[derive(Debug, Clone, PartialEq)]
pub struct Grant {
    pub preset: PolicyPreset,
    pub placements: Vec<Placement>,
}

impl Grant {
    /// The device of each replica, in placement order.
    pub(crate) fn devices(&self) -> Vec<usize> {
        self.placements.iter().map(|p| p.device).collect()
    }

    /// The bytes each replica reserves (its predicted peak), parallel to
    /// [`Grant::devices`].
    pub(crate) fn peaks(&self) -> Vec<u64> {
        self.placements
            .iter()
            .map(|p| p.prediction.peak_bytes)
            .collect()
    }

    /// The slowest replica's iteration time — the gang's lockstep pace.
    pub fn replica_iter_time(&self) -> sn_sim::SimTime {
        self.placements
            .iter()
            .map(|p| p.prediction.iter_time)
            .max()
            .unwrap_or(sn_sim::SimTime::ZERO)
    }

    /// The placement that paces the gang (largest predicted iteration
    /// time; ties break toward the lowest device index for determinism).
    pub fn slowest(&self) -> Option<&Placement> {
        self.placements
            .iter()
            .min_by_key(|p| (std::cmp::Reverse(p.prediction.iter_time), p.device))
    }
}

/// Prediction budget for a device with `free` unreserved bytes: rounded
/// *down* to a 1/32-of-DRAM quantum. Sound (the predicted peak fits under
/// the real free space) and it collapses the budgets admission asks to at
/// most 63 for the fleet's card, one per nonzero level — 32 on any card of
/// 1 KiB or more. Admission and the idle-card feasibility check
/// (`ClusterSim::fits_one_idle_card`) use the same rounding by
/// construction: both read a shape's `Row` at a device's level, an idle
/// one's `dram / quantum`, so no boundary job is judged feasible yet never
/// admitted.
pub fn quantized_budget(spec: &DeviceSpec, free: u64) -> u64 {
    free - free % quantum(spec)
}

/// The step budgets move in: 1/32 of the device's DRAM, at least a byte. A
/// device's budget *level* is `free / quantum` — so `level × quantum` is
/// [`quantized_budget`] — and never passes 63: with `dram = 32·q + r`,
/// `r < 32`, it is at most `32 + r / q`, which is 32 on any card of 1 KiB or
/// more (there `q ≥ 32 > r`).
pub(crate) fn quantum(spec: &DeviceSpec) -> u64 {
    (spec.dram_bytes / 32).max(1)
}

/// The preset sequence admission tries for `job`.
pub fn ladder_for(job: &JobSpec) -> impl Iterator<Item = PolicyPreset> {
    ladder(job.preset, job.allow_downgrade)
}

/// `preset`, and the stronger ones after it if `downgrade` allows them.
fn ladder(preset: PolicyPreset, downgrade: bool) -> impl Iterator<Item = PolicyPreset> {
    let rungs = if downgrade { usize::MAX } else { 1 };
    preset.ladder().take(rungs)
}

/// A grant frozen for byte-exact restarts, its placements sorted largest
/// budget first. Restart re-admission compiles each replica at **exactly**
/// its original budget, so the profiler's plan memo returns the identical
/// prediction — restarted peaks are byte-identical to the original plan on
/// any device of the same spec.
pub(crate) struct ResumePlan(pub(crate) Grant);

/// Each replica's `(budget, predicted peak)`, in placement order.
fn pairs(grant: &Grant) -> impl Iterator<Item = (u64, u64)> + '_ {
    grant
        .placements
        .iter()
        .map(|p| (p.budget, p.prediction.peak_bytes))
}

impl ResumePlan {
    pub(crate) fn of(mut grant: Grant) -> ResumePlan {
        let key = |p: &Placement| std::cmp::Reverse(p.budget);
        grant.placements.sort_unstable_by_key(key);
        ResumePlan(grant)
    }

    /// Whether `grant` reserves the same `(budget, peak)` pairs, in any order.
    pub(crate) fn is_replayed_by(&self, grant: &Grant) -> bool {
        let n = |g: &Grant, k| pairs(g).filter(|&p| p == k).count();
        let same_len = self.0.placements.len() == grant.placements.len();
        same_len && pairs(grant).all(|k| n(&self.0, k) == n(grant, k))
    }
}

/// What admission remembers between calls — only what can be asked again.
///
/// `try_admit` is a pure function of the per-device reservations and the
/// job's shape, and a grant it returns is never asked for twice: admitting
/// reserves, which moves `state_version`. A *refusal* is: the shape comes up
/// again behind it in the same pass, and with every fresh arrival until
/// reservations change. So the only decisions kept are the shapes refused in
/// the current reservation state, dropped the moment it moves — no
/// reservation vector is built, hashed or compared, and nothing outlives the
/// state it was computed in.
#[derive(Default)]
pub(crate) struct AdmitMemo {
    /// Shapes `try_admit` refused in reservation state `blocked_at`.
    blocked: FxHashSet<ShapeKey>,
    blocked_at: u64,
}

impl AdmitMemo {
    /// Whether `shape` was refused in reservation state `state_version`:
    /// not yet, if the state moved since the last call.
    #[inline]
    pub(crate) fn is_blocked(&mut self, state_version: u64, shape: &ShapeKey) -> bool {
        if self.blocked_at != state_version {
            self.blocked.clear();
            self.blocked_at = state_version;
        }
        self.blocked.contains(shape)
    }

    /// `shape` was refused in the current reservation state.
    pub(crate) fn block(&mut self, shape: ShapeKey) {
        self.blocked.insert(shape);
    }

    /// Hold the blocked set to its definition: if it is the set of
    /// reservation state `state_version`, every shape in it is refused on
    /// `devices` as they stand, whether or not a queued job has it. A set
    /// left over from an earlier state is emptied before it is next read,
    /// so it claims nothing now. `fitting` is the oracle's scratch.
    pub(crate) fn check(
        &self,
        sim: &ClusterSim,
        devices: &[DeviceState],
        state_version: u64,
        fitting: &mut Vec<Candidate>,
    ) {
        if self.blocked_at != state_version {
            return;
        }
        for shape in &self.blocked {
            assert!(
                sim.admits_as_plain(devices, shape, None, fitting),
                "{shape:?}: its shape is in the blocked set of a state that admits it"
            );
        }
    }
}

/// Everything `try_admit` reads from a [`JobSpec`] (name and iteration
/// count don't influence admission).
pub(crate) type ShapeKey = (Workload, usize, JobKind, PolicyPreset, bool, usize);

#[inline]
pub(crate) fn shape_key(job: &JobSpec) -> ShapeKey {
    (
        job.workload,
        job.batch,
        job.kind,
        job.preset,
        job.allow_downgrade,
        job.replicas,
    )
}

/// Per (workload, batch, kind, preset): its [`Row`] of answers, boxed so the
/// map's entries stay small. A rung hashes once, here; its devices then
/// index by level.
type Rows = FxHashMap<(Workload, usize, JobKind, PolicyPreset), Box<Row>>;

/// `job`'s row under `preset` in `rows`, empty the first time.
fn row_of<'a>(rows: &'a mut Rows, job: &JobSpec, preset: PolicyPreset) -> &'a mut Row {
    let shape = (job.workload, job.batch, job.kind, preset);
    rows.entry(shape).or_insert_with(|| Box::new(Row::EMPTY))
}

/// What admission keeps from rung to rung, for one run of one simulator.
#[derive(Default)]
pub(crate) struct AdmitScratch {
    rows: Rows,
    /// The gang a rung holds so far, best first.
    best: Vec<Candidate>,
    /// Placement lists finished runs gave back, cleared, for the next
    /// grants: in steady state a grant allocates nothing.
    spare: Vec<Vec<Placement>>,
}

impl AdmitScratch {
    /// How many levels the rows resolved: one prediction each, however
    /// many devices read it.
    pub(crate) fn levels_resolved(&self) -> usize {
        let levels = self.rows.values().map(|row| row.resolved.count_ones());
        levels.sum::<u32>() as usize
    }

    /// Keep a finished run's placement list for a later grant.
    pub(crate) fn recycle(&mut self, mut placements: Vec<Placement>) {
        placements.clear();
        self.spare.push(placements);
    }
}

impl ClusterSim {
    /// The admission decision for `job` against the current reservations:
    /// walk the job's preset ladder; under each preset, collect the devices
    /// whose unreserved bytes admit the replica's predicted peak and let the
    /// placement policy pick a gang.
    ///
    /// The prediction budget is the device's free bytes rounded *down* to a
    /// 1/32-of-DRAM quantum: still sound (the predicted peak fits under the
    /// real free space), but the budgets asked collapse from "every
    /// reservation state ever" to at most 63 for the card — and a rung
    /// reads them off each device's level and the shape's
    /// [`Row`], resolving the levels `index` says its devices show and
    /// visiting them in its order only until no later one could win (see the
    /// module docs). The ladder itself stays serial — a stronger preset is
    /// only consulted when the weaker one cannot place the gang.
    pub(crate) fn try_admit(
        &self,
        devices: &[DeviceState],
        index: &ByFree,
        job: &JobSpec,
        scratch: &mut AdmitScratch,
    ) -> Option<Grant> {
        if job.replicas == 0 {
            return None; // an empty gang is not a schedulable job
        }
        for preset in ladder_for(job) {
            let row = row_of(&mut scratch.rows, job, preset);
            // Level 0 offers no bytes: never asked, so never answered.
            row.resolve(index.present & !1, &self.profiler, job, preset, self.spec());
            // FirstFit walks index order; BestFit and BinPack ascending free
            // bytes, past the devices too full for any level the row answered.
            let least_free = u64::from(row.least_level) * self.quantum;
            let from = index.order.partition_point(|&(free, _)| free < least_free);
            let mut by_free = index.order[from..].iter().map(|&(_, d)| d);
            let mut by_index = 0..devices.len();
            let walk: &mut dyn Iterator<Item = usize> = match self.placement {
                PlacementPolicy::FirstFit => &mut by_index,
                _ => &mut by_free,
            };
            let (policy, best, replicas) = (self.placement, &mut scratch.best, job.replicas);
            let dram = self.spec().dram_bytes;
            best.clear();
            for device in walk {
                let d = &devices[device];
                let floor = policy.floor(device, d.free, row.most_peak, dram);
                if best.len() == replicas && floor > policy.key(&best[replicas - 1]) {
                    break; // no device after this one keys below its floor
                }
                let Some(prediction) = row.answer(d.level) else {
                    continue;
                };
                let candidate = Candidate {
                    prediction,
                    device,
                    free: d.free,
                    reserved: d.reserved.saturating_add(d.spike),
                    budget: u64::from(d.level) * self.quantum,
                };
                policy.offer(candidate, replicas, best);
            }
            if best.len() == replicas {
                let mut placements = scratch.spare.pop().unwrap_or_default();
                placements.extend(best.iter().map(Placement::from));
                return Some(Grant { preset, placements });
            }
        }
        None
    }

    /// Whether [`ClusterSim::try_admit`] written straight down — every
    /// device asked of the plan memo at its quantized budget, the fitting
    /// ones, gathered in `fitting`, sorted, the first `replicas` taken —
    /// answers `grant` for a job of `shape`: the oracle debug builds hold
    /// the rung to. It resolves no row, so running it moves no count, and
    /// it allocates nothing once `fitting` has grown.
    pub(crate) fn admits_as_plain(
        &self,
        devices: &[DeviceState],
        shape: &ShapeKey,
        grant: Option<&Grant>,
        fitting: &mut Vec<Candidate>,
    ) -> bool {
        let &(workload, batch, kind, preset, downgrade, replicas) = shape;
        let plain = ladder(preset, downgrade)
            .filter(|_| replicas > 0)
            .find(|&preset| {
                let ask = |(device, (spec, d)): (usize, (&DeviceSpec, &DeviceState))| {
                    let free = d.free_bytes(spec);
                    let budget = quantized_budget(spec, free);
                    let asked = (budget > 0).then(|| {
                        self.profiler
                            .profile_kind(workload, batch, preset, kind, spec, budget)
                    });
                    Some(Candidate {
                        prediction: asked.flatten()?,
                        device,
                        free,
                        reserved: d.reserved.saturating_add(d.spike),
                        budget,
                    })
                };
                fitting.clear();
                let devices = self.fleet.devices.iter().zip(devices).enumerate();
                fitting.extend(devices.filter_map(ask));
                fitting.len() >= replicas
            });
        let Some((grant, preset)) = grant.zip(plain) else {
            return grant.is_none() && plain.is_none();
        };
        fitting.sort_unstable_by_key(|c| self.placement.key(c));
        let gang = fitting[..replicas].iter().map(Placement::from);
        grant.preset == preset && grant.placements.iter().cloned().eq(gang)
    }

    /// Constrained re-admission for an interrupted job: keep the original
    /// preset and compile each replica at **exactly** its original budget
    /// (largest first), first-fit onto distinct live devices with at least
    /// that much free. The profiler's plan memo makes each peak
    /// byte-identical to the original grant's; a resume that cannot place
    /// yet stays queued — it never silently replans at a different budget.
    /// Every device is the one card, so a budget is asked once, on the
    /// first device that can take it.
    pub(crate) fn try_admit_resume(
        &self,
        devices: &[DeviceState],
        job: &JobSpec,
        resume: &ResumePlan,
        scratch: &mut AdmitScratch,
    ) -> Option<Grant> {
        let (preset, replicas) = (resume.0.preset, &resume.0.placements);
        debug_assert_eq!(replicas.len(), job.replicas);
        let mut placements = scratch.spare.pop().unwrap_or_default();
        for budget in replicas.iter().map(|r| r.budget) {
            let takes = |idx: &usize| {
                !placements.iter().any(|p| p.device == *idx) && devices[*idx].free >= budget
            };
            let found = (0..devices.len()).find(takes).and_then(|device| {
                let (w, batch, kind) = (job.workload, job.batch, job.kind);
                let asked = self
                    .profiler
                    .profile_kind(w, batch, preset, kind, self.spec(), budget);
                Some((device, asked?))
            });
            let Some((device, prediction)) = found else {
                scratch.recycle(placements);
                return None;
            };
            placements.push(Placement {
                device,
                budget,
                prediction,
            });
        }
        Some(Grant { preset, placements })
    }

    /// One gang iteration's solo duration. For a gang (`replicas > 1`) the
    /// profiler compiles the job's [`sn_runtime::GroupPlan`] and *runs* the
    /// group interpreter on the pacing replica's capped device: the measured
    /// step overlaps bucketed all-reduce with backward compute, and its
    /// per-replica peak is the reservation this grant holds, so a granted
    /// gang always runs. The row that granted the pacing replica's level
    /// names its plan, so no plan memo is asked. Solo training and
    /// inference replicas keep the plan's analytic estimate.
    pub(crate) fn step_time(
        &self,
        job: &JobSpec,
        grant: &Grant,
        scratch: &AdmitScratch,
    ) -> SimTime {
        match job.kind {
            JobKind::Training if job.replicas > 1 => {
                let pace = grant.slowest().expect("a gang grant places its replicas");
                let (w, batch, preset) = (job.workload, job.batch, grant.preset);
                let row = &scratch.rows[&(w, batch, job.kind, preset)];
                let level = (pace.budget / self.quantum) as usize;
                debug_assert!(row.resolved >> level & 1 == 1, "level {level} was granted");
                let (spec, ic) = (self.spec(), self.fleet.interconnect);
                let key = GangKey::new(w, batch, preset, job.replicas, spec, row.from[level], ic);
                self.profiler
                    .gang_step(key, spec, pace.budget, ic)
                    .expect("a gang runs within the reservations it was granted")
            }
            _ => grant.replica_iter_time(),
        }
    }

    /// Whether some rung of `job`'s ladder fits one idle card: with `n` idle
    /// devices a gang of `1 ≤ replicas ≤ n` fits exactly then. It reads what
    /// admission reads for an idle device: each rung's row at the card's
    /// full level, resolved there once a run.
    pub(crate) fn fits_one_idle_card(&self, job: &JobSpec, scratch: &mut AdmitScratch) -> bool {
        let full = self.spec().dram_bytes / self.quantum;
        full > 0
            && ladder_for(job).any(|preset| {
                let row = row_of(&mut scratch.rows, job, preset);
                row.resolve(1 << full, &self.profiler, job, preset, self.spec());
                row.answer(full as u8).is_some()
            })
    }

    /// Why `job` can never run here, for a job that is infeasible on the
    /// healthy idle fleet.
    pub(crate) fn reject_reason(&self, job: &JobSpec) -> RejectReason {
        if job.replicas == 0 {
            RejectReason::EmptyGang
        } else if job.replicas > self.fleet.len() {
            RejectReason::FleetTooSmall {
                replicas: job.replicas,
                fleet: self.fleet.len(),
            }
        } else {
            RejectReason::PeakExceedsCapacity {
                presets: ladder_for(job).map(|p| p.name()).collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::fleet::Fleet;
    use sn_runtime::Interconnect;

    fn tiny_fleet(dram: u64) -> Fleet {
        Fleet::homogeneous(2, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
    }

    #[test]
    fn profiler_memoizes() {
        // Asked again, a shape answers alike; another preset answers apart;
        // every preset and kind of it shares its one net.
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let ask = |preset, kind| p.profile_kind(w, 8, preset, kind, &spec, spec.dram_bytes);
        let a = ask(PolicyPreset::Superneurons, JobKind::Training);
        assert!(a.is_some());
        assert_eq!(a, ask(PolicyPreset::Superneurons, JobKind::Training));
        assert_ne!(a, ask(PolicyPreset::Baseline, JobKind::Training));
        ask(PolicyPreset::Baseline, JobKind::Inference);
        assert_eq!(lock(&p.nets).len(), 1, "one net for the shape");
    }

    #[test]
    fn a_panic_under_the_cache_lock_does_not_fail_later_profiles() {
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let before = p.profile_kind(
            w,
            8,
            PolicyPreset::Superneurons,
            JobKind::Training,
            &spec,
            spec.dram_bytes,
        );
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = (p.nets.lock(), p.gang.lock());
                panic!("poisoning the profiler's locks on purpose");
            })
            .join()
        });
        assert!(died.is_err() && p.nets.is_poisoned() && p.gang.is_poisoned());
        // A net hit, a net miss, and a gang measurement, all behind poisoned
        // locks.
        let again = p.profile_kind(
            w,
            8,
            PolicyPreset::Superneurons,
            JobKind::Training,
            &spec,
            spec.dram_bytes,
        );
        assert_eq!(again, before);
        assert!(p
            .profile_kind(
                w,
                16,
                PolicyPreset::Baseline,
                JobKind::Inference,
                &spec,
                spec.dram_bytes
            )
            .is_some());
        let step = p.gang_step_time(
            w,
            8,
            PolicyPreset::Superneurons,
            2,
            &spec,
            Interconnect::pcie(),
        );
        assert!(step.is_some());
        assert_eq!((lock(&p.nets).len(), p.gangs_measured()), (2, 1));
    }

    #[test]
    fn prediction_respects_budget() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 6,
        };
        let spec = DeviceSpec::k40c();
        let full = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                spec.dram_bytes,
            )
            .expect("fits a 12 GB device");
        assert!(full.peak_bytes <= spec.dram_bytes);
        // Within a tiny budget the same job must either adapt below the
        // budget or be declared infeasible — never "fit" above it.
        let budget = 16 << 20;
        if let Some(tight) = p.profile_kind(
            w,
            32,
            PolicyPreset::Superneurons,
            JobKind::Training,
            &spec,
            budget,
        ) {
            assert!(tight.peak_bytes <= budget);
        }
        // Under one block of the planner's pool: an OOM, not a panic.
        assert_eq!(
            p.profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                1023
            ),
            None
        );
    }

    #[test]
    fn stronger_presets_predict_smaller_peaks() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 8,
        };
        let spec = DeviceSpec::k40c();
        let base = p
            .profile_kind(
                w,
                16,
                PolicyPreset::Baseline,
                JobKind::Training,
                &spec,
                spec.dram_bytes,
            )
            .unwrap();
        let sn = p
            .profile_kind(
                w,
                16,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                spec.dram_bytes,
            )
            .unwrap();
        assert!(
            sn.peak_bytes < base.peak_bytes,
            "superneurons {} must undercut baseline {}",
            sn.peak_bytes,
            base.peak_bytes
        );
    }

    #[test]
    fn memo_key_includes_the_device_cap() {
        // The planner adapts to the capped DRAM — a peak compiled for a
        // larger cap must never be served for a smaller one. The roomy
        // plan's caps must not hold the tight budget (and, under real
        // pressure, the adaptive peaks differ).
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 64,
            depth: 8,
        };
        let spec = DeviceSpec::k40c();
        let roomy = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                spec.dram_bytes,
            )
            .expect("fits uncapped");
        let tight = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                48 << 20,
            )
            .expect("adapts under a 48 MB cap");
        let (_, caps) = p.answer(w, 32, PolicyPreset::Superneurons, JobKind::Training, &spec);
        assert!(
            !caps.contains(&(48 << 20)),
            "distinct caps must not share an answer: {caps:?}"
        );
        assert!(tight.peak_bytes <= 48 << 20);
        assert!(
            tight.peak_bytes < roomy.peak_bytes,
            "the adaptive plan must shrink under the cap: {} vs {}",
            tight.peak_bytes,
            roomy.peak_bytes
        );
    }

    #[test]
    fn inference_profiles_reserve_less_than_training() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 6,
        };
        let spec = DeviceSpec::k40c();
        let train = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &spec,
                spec.dram_bytes,
            )
            .unwrap();
        let infer = p
            .profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Inference,
                &spec,
                spec.dram_bytes,
            )
            .unwrap();
        assert!(
            infer.peak_bytes < train.peak_bytes,
            "forward-only {} must undercut training {}",
            infer.peak_bytes,
            train.peak_bytes
        );
        assert!(infer.iter_time < train.iter_time);
    }

    /// `present` resolved on a 96 MB card twice: by intervals, and level by
    /// level (one cold level a call, so every level is asked).
    fn by_intervals_and_by_levels(job: &JobSpec, preset: PolicyPreset, present: u64) -> [Row; 2] {
        let spec = DeviceSpec::k40c().with_dram(96 << 20);
        let p = Profiler::new();
        let mut a = Row::EMPTY;
        a.resolve(present, &p, job, preset, &spec);
        let mut b = Row::EMPTY;
        for l in (0..64).filter(|l| present >> l & 1 == 1) {
            b.resolve(1 << l, &p, job, preset, &spec);
        }
        [a, b]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        #[test]
        fn a_row_resolved_by_intervals_equals_one_resolved_level_by_level(
            shape in (4usize..65, 1usize..9, 4usize..65),
            preset in 0usize..PolicyPreset::ALL.len(),
            inference in proptest::bool::ANY,
            // Levels 1..=32: a 96 MB card's, from 3 MB to all of it.
            levels in 0u64..(1 << 32),
        ) {
            let (width, depth, batch) = shape;
            let kind = if inference { JobKind::Inference } else { JobKind::Training };
            let job = JobSpec::new("row", Workload::Synthetic { width, depth }, batch)
                .with_kind(kind);
            let [a, b] = by_intervals_and_by_levels(&job, PolicyPreset::ALL[preset], levels << 1);
            proptest::prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn a_row_meets_oom_cap_bound_and_open_levels() {
        // On a 96 MB card (3 MB levels) this tower OOMs up to 12 MB, binds
        // the cap from 15 to 63 MB and is one open plan from 66 MB on:
        // 4 + 17 + 11 levels.
        let w = Workload::Synthetic {
            width: 32,
            depth: 6,
        };
        let job = JobSpec::new("row", w, 32);
        let spec = DeviceSpec::k40c().with_dram(96 << 20);
        let p = Profiler::new();
        let (mut oom, mut bound, mut open) = (0, 0, 0);
        for l in 1..=32 {
            let cap = l * quantum(&spec);
            let capped = spec.clone().with_dram(cap);
            match p.answer(
                w,
                32,
                PolicyPreset::Superneurons,
                JobKind::Training,
                &capped,
            ) {
                (None, caps) => oom += usize::from(caps == (cap..=cap)),
                (Some(_), caps) if caps == (cap..=cap) => bound += 1,
                (Some(_), caps) => open += usize::from(*caps.end() == u64::MAX),
            }
        }
        assert_eq!((oom, bound, open), (4, 17, 11));
        let every_level = u64::from(u32::MAX) << 1;
        let [a, b] = by_intervals_and_by_levels(&job, PolicyPreset::Superneurons, every_level);
        assert_eq!(a, b);
        assert_eq!(a.resolved, every_level, "every level resolved");
    }

    #[test]
    fn a_gang_step_depends_on_its_replica_plan_not_the_cap() {
        let w = Workload::Synthetic {
            width: 16,
            depth: 3,
        };
        let spec = DeviceSpec::k40c();
        let preset = PolicyPreset::Superneurons;
        let caps = Profiler::new()
            .answer(w, 16, preset, JobKind::Training, &spec)
            .1;
        let lo = *caps.start();
        assert!(
            *caps.end() == u64::MAX && lo < 64 << 20,
            "an open plan: {caps:?}"
        );
        let step = |p: &Profiler, cap: u64| {
            let ic = Interconnect::pcie();
            p.gang_step_time(w, 16, preset, 2, &spec.clone().with_dram(cap), ic)
        };
        // Measured on fresh profilers: neither answer is the other's memo.
        let at_lo = step(&Profiler::new(), lo);
        let far = step(&Profiler::new(), spec.dram_bytes);
        assert!(at_lo.is_some());
        assert_eq!(at_lo, far);
        // One profiler measures the replica plan once, at either cap.
        let p = Profiler::new();
        assert_eq!((step(&p, spec.dram_bytes), step(&p, lo)), (far, far));
        assert_eq!(p.gangs_measured(), 1);
        // Below the plan's extent another plan answers: another measurement.
        step(&p, lo - 1);
        assert_eq!(p.gangs_measured(), 2);
    }

    #[test]
    fn a_shape_asked_at_32_budgets_builds_its_net_once() {
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 32,
            depth: 6,
        };
        let spec = DeviceSpec::k40c().with_dram(96 << 20);
        for l in 1..=32 {
            let kind = [JobKind::Training, JobKind::Inference][l % 2];
            p.profile_kind(
                w,
                32,
                PolicyPreset::Superneurons,
                kind,
                &spec,
                l as u64 * (3 << 20),
            );
        }
        assert_eq!(lock(&p.nets).len(), 1, "one net for the shape");
    }

    #[test]
    fn infeasible_jobs_are_detected_on_an_idle_card() {
        // 32 MB devices: a wide synthetic net under pure baseline won't fit
        // (peak ≈ 262 MB), but the adaptive full stack squeezes under the
        // cap (peak ≈ 30 MB).
        let sim = ClusterSim::new(tiny_fleet(32 << 20), PlacementPolicy::FirstFit);
        let job = JobSpec::new(
            "big",
            Workload::Synthetic {
                width: 64,
                depth: 8,
            },
            32,
        )
        .with_preset(PolicyPreset::Baseline)
        .with_downgrade(false);
        let mut scratch = AdmitScratch::default();
        assert!(!sim.fits_one_idle_card(&job, &mut scratch));
        // With the downgrade ladder the full memory stack squeezes it in.
        assert!(sim.fits_one_idle_card(&job.with_downgrade(true), &mut scratch));
        // Each check read its rungs' rows at the full level, once a rung.
        assert_eq!(scratch.levels_resolved(), PolicyPreset::ALL.len());
    }

    /// Nine devices of each card a property runs over, one card a fleet: two
    /// capacities that are no multiple of 32, one of them on a card with
    /// half the memory bandwidth, a 24 MB card, and two under 64 bytes,
    /// where the quantum is one byte and levels run to 40 and to 63.
    fn one_card_fleets() -> [Fleet; 5] {
        let card = |dram: u64| DeviceSpec::k40c().with_dram(dram);
        let slow = |dram: u64| {
            let mut slow = card(dram);
            slow.mem_bw_gbps /= 2.0;
            slow
        };
        [
            card((24 << 20) + 13),
            slow((20 << 20) + 7),
            card(24 << 20),
            card(40),
            card(63),
        ]
        .map(|spec| Fleet::homogeneous(9, spec, Interconnect::pcie()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn a_rung_answers_as_the_ladder_written_straight_down(
            // Per device: reserved ‰ of DRAM, spike ‰ + 500, failed if 0 —
            // applied in an order the last draw rotates, so each of the
            // three is sometimes the one whose levelling stands.
            draws in proptest::collection::vec((0u64..1001, 0u64..1001, 0usize..8), 18..19),
        ) {
            for fleet in one_card_fleets() {
                let dram = fleet.devices[0].dram_bytes;
                let states = draws.chunks(fleet.len()).map(|state| -> Vec<DeviceState> {
                    let device = |(&(reserved, spike, failed), spec): (&(u64, u64, usize), &DeviceSpec)| {
                        let mut d = DeviceState::idle(spec);
                        for step in 0..3 {
                            match (step + failed) % 3 {
                                0 if failed == 0 => d.fault(spec, FaultEvent::DeviceFail { device: 0 }),
                                0 => {}
                                1 => d.admit(spec, spec.dram_bytes * reserved / 1000),
                                _ => {
                                    let bytes = spec.dram_bytes * spike.saturating_sub(500) / 1000;
                                    d.fault(spec, FaultEvent::PressureSpike { device: 0, bytes });
                                }
                            }
                        }
                        d
                    };
                    state.iter().zip(&fleet.devices).map(device).collect()
                });
                let states: Vec<Vec<DeviceState>> = states.collect();
                // Baseline wants 17.7 MB of a device, the full stack 3.4 MB.
                let w = Workload::Synthetic { width: 16, depth: 4 };
                for policy in PlacementPolicy::ALL {
                    let sim = ClusterSim::new(fleet.clone(), policy);
                    // One scratch for both states: the second is answered from
                    // rows the first, a different one, filled.
                    let mut warm = AdmitScratch::default();
                    let mut fitting = Vec::new();
                    for devices in &states {
                        for (replicas, downgrade) in [(1, true), (2, true), (4, true), (1, false), (2, false), (4, false)] {
                            let job = JobSpec::new("j", w, 16)
                                .with_preset(PolicyPreset::Baseline)
                                .with_replicas(replicas)
                                .with_downgrade(downgrade);
                            let index = ByFree::new(devices);
                            let cold = sim.try_admit(devices, &index, &job, &mut AdmitScratch::default());
                            let plain = sim.admits_as_plain(devices, &shape_key(&job), cold.as_ref(), &mut fitting);
                            proptest::prop_assert!(plain, "{} x{replicas} on {dram} B, fresh rows: {cold:?}", policy.name());
                            let again = sim.try_admit(devices, &index, &job, &mut warm);
                            proptest::prop_assert_eq!(&again, &cold, "{} x{replicas} on {dram} B, kept rows", policy.name());
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn the_walk_picks_the_gang_a_full_scan_picks(
            // Per device: reserved ‰ of DRAM, spike ‰ + 700, failed if 0.
            draws in proptest::collection::vec((0u64..1001, 0u64..1001, 0usize..10), 12..13),
            roomy in proptest::bool::ANY,
        ) {
            // Twelve cards of 24 MB, or of 40 MB.
            let dram = if roomy { 40 << 20 } else { 24 << 20 };
            let fleet = Fleet::homogeneous(12, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie());
            // The state built alter by alter, the walk index kept as the
            // event core keeps it and held to a scan after every alter.
            let mut devices: Vec<DeviceState> = fleet.devices.iter().map(DeviceState::idle).collect();
            let mut index = ByFree::new(&devices);
            for (d, (&(reserved, spike, failed), spec)) in draws.iter().zip(&fleet.devices).enumerate() {
                devices[d].admit(spec, spec.dram_bytes * reserved / 1000);
                index.moved(&devices, d);
                index.check(&devices);
                let spike = spec.dram_bytes * spike.saturating_sub(700) / 1000;
                devices[d].fault(spec, FaultEvent::PressureSpike { device: d, bytes: spike });
                index.moved(&devices, d);
                index.check(&devices);
                if failed == 0 {
                    devices[d].fault(spec, FaultEvent::DeviceFail { device: d });
                }
                index.moved(&devices, d);
                index.check(&devices);
            }
            // Baseline wants 17.7 MB of a device for the first shape, a few
            // for the second: a handful of devices fit it, or most do. The
            // full stack's peak shrinks with the budget, so there a
            // device's key is not its free bytes less one constant.
            let shapes = [
                (Workload::Synthetic { width: 16, depth: 4 }, 16, JobKind::Training),
                (Workload::Synthetic { width: 8, depth: 2 }, 8, JobKind::Training),
                (Workload::Synthetic { width: 16, depth: 4 }, 16, JobKind::Inference),
            ];
            for policy in PlacementPolicy::ALL {
                let sim = ClusterSim::new(fleet.clone(), policy);
                let mut scratch = AdmitScratch::default();
                let mut fitting = Vec::new();
                for replicas in 1..=4 {
                    for ((w, batch, kind), preset) in shapes.into_iter().flat_map(|s| {
                        [(s, PolicyPreset::Baseline), (s, PolicyPreset::Superneurons)]
                    }) {
                        let job = JobSpec::new("j", w, batch)
                            .with_kind(kind)
                            .with_preset(preset)
                            .with_replicas(replicas)
                            .with_downgrade(true);
                        let walked = sim.try_admit(&devices, &index, &job, &mut scratch);
                        let scanned = sim.admits_as_plain(&devices, &shape_key(&job), walked.as_ref(), &mut fitting);
                        proptest::prop_assert!(scanned, "{} x{}: {walked:?}", policy.name(), replicas);
                    }
                }
            }
        }
    }
}
