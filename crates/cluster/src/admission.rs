//! Memory-aware admission control.
//!
//! Before a job touches a device, the scheduler predicts its peak device
//! bytes under each candidate policy preset by **compiling a
//! [`sn_runtime::MemoryPlan`]** ([`sn_runtime::plan_prediction`] /
//! [`sn_runtime::plan_prediction_inference`]) — no simulated iteration runs
//! on the admission hot path. The plan's peak walks the paper's `peak_m`
//! progression (baseline `Σ l_f + Σ l_b` down to `max_i(l_i)` for the full
//! stack) and is **exact**: the executor replays the plan's alloc/free
//! sequence, so the reservation equals the runtime high-water to the byte.
//! A job is only placed where that peak fits the device's *unreserved*
//! bytes, so the sum of reservations on a device can never exceed its DRAM
//! — the central multi-tenancy invariant.
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

use std::sync::{Mutex, MutexGuard, PoisonError};

use fxhash::FxHashMap;
use sn_runtime::{
    plan_prediction, plan_prediction_inference, GroupConfig, GroupExecutor, Interconnect,
    PeakPrediction,
};
use sn_sim::{DeviceSpec, SimTime};

use crate::job::{JobKind, JobSpec, PolicyPreset, Workload};

/// Memoization key: everything the prediction depends on. The card is its
/// [`DeviceSpec::card_fingerprint`] — every perf-relevant constant folded
/// bit-exactly and the name left out, so cards that differ in a constant
/// never alias and cards that differ by name alone share an answer that is
/// the same for both — and the key carries the **cap** the prediction was
/// compiled against (the DRAM of `spec.with_dram(budget)`), not just the
/// preset: the planner adapts its evictions and workspaces to that cap, so a
/// peak compiled for a larger device must never be reused for a smaller one.
/// `Copy` and `String`-free: building one for a lookup allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProfileKey {
    workload: Workload,
    batch: usize,
    preset: PolicyPreset,
    kind: JobKind,
    card: (u64, u64),
    cap: u64,
}

/// Gang measurement key: the replica's profile key extended with the gang
/// size and the fabric — replica counts can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GangKey {
    profile: ProfileKey,
    replicas: usize,
    ic_gbps_bits: u64,
    ic_latency_ns: u64,
}

/// Memoizing wrapper around the plan compiler: the cluster loop re-evaluates
/// queued jobs at every event, but distinct (workload, batch, preset, kind,
/// card, cap) tuples are few, so each prediction compiles at most once.
/// `None` records "does not fit within this budget".
///
/// The caches are `Mutex`-guarded Fx-hashed maps (the keys are internal
/// structs — no untrusted input, no need for SipHash), which makes the
/// profiler `Sync`: a rung's cold levels compile concurrently over the
/// rayon shim, all sharing this memo. A concurrent miss may compile the same
/// prediction twice; both results are identical (compilation is
/// deterministic) and the last insert wins.
#[derive(Default)]
pub struct Profiler {
    cache: Mutex<FxHashMap<ProfileKey, Option<PeakPrediction>>>,
    /// Measured gang step times: one group execution per distinct
    /// (workload, batch, preset, card, cap, replicas, fabric) tuple.
    gang: Mutex<FxHashMap<GangKey, Option<SimTime>>>,
}

/// Lock one of the profiler's maps, poisoned or not: a prediction is
/// compiled before the lock is taken and only `Copy` keys and values cross
/// it, so a map a dying thread held is still consistent — and one rung's
/// panic must not fail every later admission.
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
    /// simulated.
    pub fn profile_kind(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        kind: JobKind,
        spec: &DeviceSpec,
        budget: u64,
    ) -> Option<PeakPrediction> {
        let key = ProfileKey {
            workload,
            batch,
            preset,
            kind,
            card: spec.card_fingerprint(),
            cap: budget,
        };
        if let Some(hit) = lock(&self.cache).get(&key) {
            return *hit;
        }
        self.compile(key, spec)
    }

    /// The miss path: compile `key` on `spec` capped to `key.cap` — the
    /// only place that capped copy of the device is built — and memoize.
    fn compile(&self, key: ProfileKey, spec: &DeviceSpec) -> Option<PeakPrediction> {
        let capped = spec.clone().with_dram(key.cap);
        let net = key.workload.build(key.batch);
        let policy = key.preset.policy();
        let result = match key.kind {
            JobKind::Training => plan_prediction(&net, &capped, policy).ok(),
            JobKind::Inference => plan_prediction_inference(&net, &capped, policy).ok(),
        };
        lock(&self.cache).insert(key, result);
        result
    }

    /// [`Profiler::profile_kind`] of one replica of `job`, under `preset`
    /// rather than the one it asked for.
    pub(crate) fn profile_job(
        &self,
        job: &JobSpec,
        preset: PolicyPreset,
        spec: &DeviceSpec,
        budget: u64,
    ) -> Option<PeakPrediction> {
        self.profile_kind(job.workload, job.batch, preset, job.kind, spec, budget)
    }

    /// [`Profiler::profile_kind`] for training jobs (the historical entry
    /// point, kept for tests and benches).
    pub fn profile(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        spec: &DeviceSpec,
        budget: u64,
    ) -> Option<PeakPrediction> {
        self.profile_kind(workload, batch, preset, JobKind::Training, spec, budget)
    }

    /// Measured step time of a `replicas`-wide gang of (`workload`,
    /// `batch`) under `preset` on `spec` (the *capped* device the replica
    /// profile was compiled against): compiles the
    /// [`sn_runtime::GroupPlan`] — whose per-replica bytes are the exact
    /// plan the reservation came from — and drives the group interpreter
    /// for a cold and a warm iteration, returning the warm gang step
    /// (slowest replica + overlapped bucketed all-reduce). Memoized; the
    /// gang key carries the replica count, so gang sizes never alias.
    /// `None` means the gang cannot run within the budget.
    pub fn gang_step_time(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        replicas: usize,
        spec: &DeviceSpec,
        interconnect: Interconnect,
    ) -> Option<SimTime> {
        self.gang_step_capped(
            workload,
            batch,
            preset,
            replicas,
            spec.card_fingerprint(),
            spec,
            spec.dram_bytes,
            interconnect,
        )
    }

    /// [`Profiler::gang_step_time`] on `spec` capped to `cap` bytes, for a
    /// caller that already holds `spec`'s card fingerprint: the capped copy
    /// of the device is built on a miss only.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gang_step_capped(
        &self,
        workload: Workload,
        batch: usize,
        preset: PolicyPreset,
        replicas: usize,
        card: (u64, u64),
        spec: &DeviceSpec,
        cap: u64,
        interconnect: Interconnect,
    ) -> Option<SimTime> {
        let key = GangKey {
            profile: ProfileKey {
                workload,
                batch,
                preset,
                kind: JobKind::Training,
                card,
                cap,
            },
            replicas,
            ic_gbps_bits: interconnect.gbps.to_bits(),
            ic_latency_ns: interconnect.latency.0,
        };
        if let Some(hit) = lock(&self.gang).get(&key) {
            return *hit;
        }
        let net = workload.build(batch);
        // Tuned presets carry their own all-reduce bucket target; the gang
        // must be measured with it or the tuned step time would be fiction.
        let cfg = GroupConfig::new(replicas, interconnect).with_bucket_bytes(preset.bucket_bytes());
        let capped = spec.clone().with_dram(cap);
        let result = GroupExecutor::new(&net, capped, preset.policy(), cfg)
            .ok()
            .and_then(|mut gx| {
                gx.run_iteration().ok()?; // cold (allocator warm-up)
                let warm = gx.run_iteration().ok()?;
                debug_assert!(warm.peaks_match, "gang replica diverged from its plan");
                Some(warm.step_time)
            });
        lock(&self.gang).insert(key, result);
        result
    }

    /// Number of distinct predictions compiled so far.
    pub fn simulated(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Number of distinct gang step measurements executed so far.
    pub fn gangs_measured(&self) -> usize {
        lock(&self.gang).len()
    }
}

/// What the [`Profiler`] has answered for one shape under one preset on one
/// device class, by budget level: once bit `l` of `resolved` is set,
/// `answers[l]` is the prediction within `l × quantum` bytes. Levels stop at
/// 63 (see [`quantum`]); level 0 offers no bytes and is never asked. Kept
/// for a run, so a level is asked once, the first time a device shows it.
#[derive(Clone)]
pub(crate) struct Row {
    resolved: u64,
    answers: [Option<PeakPrediction>; 64],
    /// The largest peak any resolved level answered: no device of the class
    /// is offered a replica that reserves more (a rung's stopping floor).
    pub(crate) most_peak: u64,
    /// The lowest resolved level with an answer (64 while none has one): a
    /// device of the class below it is offered nothing (where a rung's walk
    /// starts).
    pub(crate) least_level: u8,
}

impl Row {
    pub(crate) const EMPTY: Row = Row {
        resolved: 0,
        answers: [None; 64],
        most_peak: 0,
        least_level: 64,
    };

    /// Answer every level of the bit set `present` not answered yet, on
    /// `spec` — any device of the class. Cold levels are rare and compile
    /// concurrently over the rayon shim (results come back in level order).
    pub(crate) fn resolve(
        &mut self,
        present: u64,
        profiler: &Profiler,
        job: &JobSpec,
        preset: PolicyPreset,
        spec: &DeviceSpec,
    ) {
        let cold = present & !self.resolved;
        if cold == 0 {
            return;
        }
        let levels: Vec<usize> = (0..64).filter(|l| cold >> l & 1 == 1).collect();
        let answers = rayon::par_map(&levels, |&l| {
            profiler.profile_job(job, preset, spec, l as u64 * quantum(spec))
        });
        for (l, answer) in levels.into_iter().zip(answers) {
            self.answers[l] = answer;
            if let Some(p) = answer {
                self.most_peak = self.most_peak.max(p.peak_bytes);
                self.least_level = self.least_level.min(l as u8);
            }
        }
        self.resolved |= cold;
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

    /// Gradient payload for the gang's per-iteration all-reduce.
    pub fn weight_bytes(&self) -> u64 {
        self.placements
            .first()
            .map(|p| p.prediction.weight_bytes)
            .unwrap_or(0)
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
/// the real free space) and it collapses the profiler's memo key space to at
/// most 32 budgets per device. Admission and the idle-fleet feasibility
/// check MUST use the same rounding, or a boundary job could be judged
/// feasible yet never admitted.
pub fn quantized_budget(spec: &DeviceSpec, free: u64) -> u64 {
    free - free % quantum(spec)
}

/// The step budgets move in: 1/32 of the device's DRAM, at least a byte. A
/// device's budget *level* is `free / quantum` — so `level × quantum` is
/// [`quantized_budget`] — and never passes 63: with `dram = 32·q + r`,
/// `r < 32`, it is at most `32 + r / q`.
pub(crate) fn quantum(spec: &DeviceSpec) -> u64 {
    (spec.dram_bytes / 32).max(1)
}

/// Check whether `job` could run on an *idle* fleet — the "reject vs queue"
/// discriminator. Walks the same preset ladder (and budget rounding) that
/// admission uses.
pub fn feasible_on_idle_fleet(
    profiler: &Profiler,
    fleet: &crate::fleet::Fleet,
    job: &JobSpec,
) -> bool {
    let all: Vec<&DeviceSpec> = fleet.devices.iter().collect();
    feasible_on_device_subset(profiler, &all, job)
}

/// [`feasible_on_idle_fleet`] restricted to an arbitrary device subset —
/// the live (non-failed) devices, under fault injection. Discriminates
/// "wait for the fleet to heal" (feasible on the full fleet but not here:
/// backoff and retry) from "wait for reservations to drain" (feasible here:
/// stay queued). One compile per distinct card and capacity.
pub fn feasible_on_device_subset(
    profiler: &Profiler,
    devices: &[&DeviceSpec],
    job: &JobSpec,
) -> bool {
    if job.replicas == 0 || job.replicas > devices.len() {
        return false;
    }
    ladder_for(job).any(|preset| {
        let fitting = devices.iter().filter(|spec| {
            let budget = quantized_budget(spec, spec.dram_bytes);
            budget > 0 && profiler.profile_job(job, preset, spec, budget).is_some()
        });
        fitting.count() >= job.replicas
    })
}

/// The preset sequence admission tries for `job`.
pub fn ladder_for(job: &JobSpec) -> impl Iterator<Item = PolicyPreset> {
    let rungs = if job.allow_downgrade { usize::MAX } else { 1 };
    job.preset.ladder().take(rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use sn_runtime::Interconnect;

    fn tiny_fleet(dram: u64) -> Fleet {
        Fleet::homogeneous(2, DeviceSpec::k40c().with_dram(dram), Interconnect::pcie())
    }

    #[test]
    fn profiler_memoizes() {
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let a = p.profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes);
        let b = p.profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes);
        assert_eq!(a, b);
        assert_eq!(p.simulated(), 1);
        p.profile(w, 8, PolicyPreset::Baseline, &spec, spec.dram_bytes);
        assert_eq!(p.simulated(), 2);
    }

    #[test]
    fn a_panic_under_the_cache_lock_does_not_fail_later_profiles() {
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let before = p.profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes);
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = (p.cache.lock(), p.gang.lock());
                panic!("poisoning the profiler's locks on purpose");
            })
            .join()
        });
        assert!(died.is_err() && p.cache.is_poisoned() && p.gang.is_poisoned());
        // A hit, a miss, and a gang measurement, all behind poisoned locks.
        let again = p.profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes);
        assert_eq!(again, before);
        assert!(p
            .profile_kind(
                w,
                8,
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
        assert_eq!((p.simulated(), p.gangs_measured()), (2, 1));
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
            .profile(w, 32, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .expect("fits a 12 GB device");
        assert!(full.peak_bytes <= spec.dram_bytes);
        // Within a tiny budget the same job must either adapt below the
        // budget or be declared infeasible — never "fit" above it.
        let budget = 16 << 20;
        if let Some(tight) = p.profile(w, 32, PolicyPreset::Superneurons, &spec, budget) {
            assert!(tight.peak_bytes <= budget);
        }
        // Under one block of the planner's pool: an OOM, not a panic.
        assert_eq!(
            p.profile(w, 32, PolicyPreset::Superneurons, &spec, 1023),
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
            .profile(w, 16, PolicyPreset::Baseline, &spec, spec.dram_bytes)
            .unwrap();
        let sn = p
            .profile(w, 16, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
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
        // Satellite regression: heterogeneous fleets reuse card names, and
        // the planner adapts to the capped DRAM — a peak compiled for a
        // larger cap must never be served for a smaller one. Two budgets on
        // the "same" card must produce two cache entries (and, under real
        // pressure, different adaptive peaks).
        let p = Profiler::new();
        let w = Workload::Synthetic {
            width: 64,
            depth: 8,
        };
        let spec = DeviceSpec::k40c();
        let roomy = p
            .profile(w, 32, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .expect("fits uncapped");
        let tight = p
            .profile(w, 32, PolicyPreset::Superneurons, &spec, 48 << 20)
            .expect("adapts under a 48 MB cap");
        assert_eq!(p.simulated(), 2, "distinct caps must not share an entry");
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
        assert_eq!(p.simulated(), 2, "kinds must not alias in the memo key");
        assert!(
            infer.peak_bytes < train.peak_bytes,
            "forward-only {} must undercut training {}",
            infer.peak_bytes,
            train.peak_bytes
        );
        assert!(infer.iter_time < train.iter_time);
    }

    #[test]
    fn tuned_and_hand_presets_never_alias_in_the_memo() {
        // A tuned bundle whose policy happens to coincide with the full
        // superneurons stack: the preset rides in the memo key, so the two
        // predictions must occupy distinct entries (and a later change to
        // the tuned policy could never be served a stale hand compile).
        let id = sn_runtime::tune::register(sn_runtime::TunedPolicy {
            policy: sn_runtime::Policy::superneurons(),
            bucket_bytes: 8 << 20,
            step_time: SimTime::from_us(10),
            plan_peak_bytes: 1,
            executed_peak_bytes: 1,
            hand_step_time: SimTime::from_us(12),
            hand_name: "superneurons",
            seed: 0,
            evals: 0,
            pruned: 0,
            trace_digest: 0,
        });
        let p = Profiler::new();
        let w = Workload::Synthetic { width: 8, depth: 2 };
        let spec = DeviceSpec::k40c();
        let hand = p
            .profile(w, 8, PolicyPreset::Superneurons, &spec, spec.dram_bytes)
            .unwrap();
        let tuned = p
            .profile(w, 8, PolicyPreset::Tuned(id), &spec, spec.dram_bytes)
            .unwrap();
        assert_eq!(hand, tuned, "identical policies predict identically");
        assert_eq!(p.simulated(), 2, "but they must never share a memo entry");
        // The gang path must measure tuned gangs with their tuned bucket.
        assert_eq!(PolicyPreset::Tuned(id).bucket_bytes(), 8 << 20);
        let step = p.gang_step_time(
            w,
            8,
            PolicyPreset::Tuned(id),
            2,
            &spec,
            Interconnect::pcie(),
        );
        assert!(step.is_some());
        assert_eq!(p.gangs_measured(), 1);
    }

    #[test]
    fn infeasible_jobs_are_detected_on_idle_fleet() {
        let profiler = Profiler::new();
        // 32 MB devices: a wide synthetic net under pure baseline won't fit
        // (peak ≈ 262 MB), but the adaptive full stack squeezes under the
        // cap (peak ≈ 30 MB).
        let fleet = tiny_fleet(32 << 20);
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
        assert!(!feasible_on_idle_fleet(&profiler, &fleet, &job));
        // With the downgrade ladder the full memory stack squeezes it in.
        let job = job.with_downgrade(true);
        assert!(feasible_on_idle_fleet(&profiler, &fleet, &job));
        // More replicas than devices is never feasible.
        let gang = JobSpec::new("gang", Workload::LeNet, 8).with_replicas(3);
        assert!(!feasible_on_idle_fleet(&profiler, &fleet, &gang));
    }
}
