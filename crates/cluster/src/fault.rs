//! Deterministic fault injection and the recovery policy.
//!
//! A [`FaultPlan`] is a time-ordered script of [`FaultEvent`]s — device
//! kills/revivals and memory-pressure spikes —
//! pinned to **integer** [`SimTime`] instants. The plan is either written by
//! hand (tests, targeted scenarios) or drawn from
//! [`FaultPlan::seeded_random`], whose exponential fail/repair process is a
//! pure function of its seed: the same seed yields the same plan bytes, and
//! the event loop delivers the plan's instants exactly like arrival
//! timestamps — as entries on its one integer-ns clock, which is the same
//! clock with a plan installed or without.
//!
//! [`RecoveryPolicy`] is the other half: what [`crate::ClusterSim`] does to
//! the tenants a fault interrupts: [`RecoveryMode::NoRecovery`] (interrupted
//! jobs fail permanently, all their progress is wasted) or
//! [`RecoveryMode::Restart`] (checkpoint/restart: re-enter admission via
//! capped exponential backoff and resume from the last checkpointed
//! iteration). Backoff/retry arithmetic is integer
//! `u64` nanoseconds, like every other instant the simulator keeps: a retry
//! is due at `now + delay`, saturating.

use sn_sim::SimTime;

use crate::job::JobKind;

/// One scripted fault, applied at an integer instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The device stops executing and drops its tenants; its reservations
    /// are released and every gang with a replica on it is interrupted
    /// atomically.
    DeviceFail { device: usize },
    /// The device rejoins the fleet with empty reservations.
    DeviceRecover { device: usize },
    /// `bytes` of device memory become unavailable to admission (a noisy
    /// neighbor outside the scheduler's control). Running reservations are
    /// untouched — the pressure squeezes future placements only.
    PressureSpike { device: usize, bytes: u64 },
    /// Releases a previous spike's bytes.
    PressureRelease { device: usize, bytes: u64 },
}

impl FaultEvent {
    /// Stable one-line description for the schedule trace.
    pub fn describe(&self) -> String {
        match self {
            FaultEvent::DeviceFail { device } => format!("device {device} failed"),
            FaultEvent::DeviceRecover { device } => format!("device {device} recovered"),
            FaultEvent::PressureSpike { device, bytes } => {
                format!("pressure spike on device {device}: {bytes} bytes")
            }
            FaultEvent::PressureRelease { device, bytes } => {
                format!("pressure released on device {device}: {bytes} bytes")
            }
        }
    }
}

/// A deterministic, time-sorted fault script (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append one event (builder style). Events may be pushed out of order;
    /// the plan is stable-sorted by instant when the simulator takes it, so
    /// same-instant events apply in push order.
    pub fn at(mut self, t: SimTime, event: FaultEvent) -> FaultPlan {
        self.events.push((t, event));
        self
    }

    /// Kill `device` at `t`.
    pub fn kill(self, t: SimTime, device: usize) -> FaultPlan {
        self.at(t, FaultEvent::DeviceFail { device })
    }

    /// Revive `device` at `t`.
    pub fn recover(self, t: SimTime, device: usize) -> FaultPlan {
        self.at(t, FaultEvent::DeviceRecover { device })
    }

    /// Kill `device` at `t` and revive it `outage` later.
    pub fn outage(self, t: SimTime, device: usize, outage: SimTime) -> FaultPlan {
        self.kill(t, device).recover(t + outage, device)
    }

    /// Withhold `bytes` of `device` memory from admission over
    /// `[t, t + span)`.
    pub fn spike(self, t: SimTime, device: usize, bytes: u64, span: SimTime) -> FaultPlan {
        self.at(t, FaultEvent::PressureSpike { device, bytes })
            .at(t + span, FaultEvent::PressureRelease { device, bytes })
    }

    /// A seeded random fail/repair process: each of `devices` alternates
    /// up → down with exponentially distributed spans of mean `mtbf`
    /// (time-to-failure) and `mttr` (time-to-repair), truncated at
    /// `horizon`. Pure function of the arguments — identical seeds yield
    /// identical plans. A failure whose repair would land past the horizon
    /// leaves the device down for the rest of the run.
    pub fn seeded_random(
        seed: u64,
        devices: usize,
        horizon: SimTime,
        mtbf: SimTime,
        mttr: SimTime,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for device in 0..devices {
            // Independent per-device sub-streams derived from the seed.
            let mut rng = splitmix64(seed ^ (device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut t = 0u64;
            loop {
                t = t.saturating_add(exp_sample(&mut rng, mtbf.0));
                if t >= horizon.0 {
                    break;
                }
                plan.events
                    .push((SimTime(t), FaultEvent::DeviceFail { device }));
                t = t.saturating_add(exp_sample(&mut rng, mttr.0));
                if t >= horizon.0 {
                    break;
                }
                plan.events
                    .push((SimTime(t), FaultEvent::DeviceRecover { device }));
            }
        }
        plan.normalize();
        plan
    }

    /// Stable-sort by instant: same-instant events keep push order.
    pub(crate) fn normalize(&mut self) {
        self.events.sort_by_key(|(t, _)| *t);
    }

    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    pub(crate) fn into_events(mut self) -> Vec<(SimTime, FaultEvent)> {
        self.normalize();
        self.events
    }
}

/// What the scheduler does for tenants a fault interrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Interrupted jobs fail permanently; every completed iteration is
    /// wasted. The ablation baseline.
    NoRecovery,
    /// Checkpoint/restart: interrupted jobs re-enter admission via capped
    /// exponential backoff and resume from the last checkpoint.
    #[default]
    Restart,
}

impl RecoveryMode {
    /// [`RecoveryMode::Restart`] under the name of the elastic mode it
    /// replaced, kept only for the benchmark's `serve_mixed` workload, which
    /// still names it, until ROADMAP item 9 drops that mention.
    #[allow(non_upper_case_globals)]
    pub const RestartElastic: RecoveryMode = RecoveryMode::Restart;

    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::NoRecovery => "no_recovery",
            RecoveryMode::Restart => "restart",
        }
    }
}

/// Checkpoint/restart and backoff knobs. All timer fields are integer
/// [`SimTime`] nanoseconds, as is every delay derived from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    pub mode: RecoveryMode,
    /// Training jobs checkpoint every this-many completed iterations; a
    /// restart resumes from the last multiple. Inference batches are
    /// independently durable (effective interval 1).
    pub checkpoint_interval: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: SimTime,
    /// Exponential backoff saturates here.
    pub backoff_cap: SimTime,
    /// A job whose retries all fail past this count fails permanently.
    pub max_retries: u32,
    /// Seeds the deterministic per-(job, attempt) jitter.
    pub jitter_seed: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            mode: RecoveryMode::Restart,
            checkpoint_interval: 4,
            backoff_base: SimTime::from_ms(1),
            backoff_cap: SimTime::from_ms(64),
            max_retries: 10,
            jitter_seed: 0x5eed_fa17,
        }
    }
}

impl RecoveryPolicy {
    pub fn with_mode(mut self, mode: RecoveryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Capped exponential backoff with seeded jitter, in integer ns:
    /// `min(base·2^attempt, cap)` (saturating shift) plus a deterministic
    /// jitter in `[0, delay/4]` drawn from `(jitter_seed, job_seq, attempt)`.
    /// Never zero, so a retry is always due strictly after the instant it
    /// was scheduled at (unless that sum saturates at `u64::MAX`).
    pub fn backoff_delay(&self, attempt: u32, job_seq: u64) -> SimTime {
        let base = self.backoff_base.0.max(1);
        let shifted = if attempt >= 63 {
            u64::MAX
        } else {
            base.saturating_mul(1u64 << attempt.min(62))
        };
        let delay = shifted.min(self.backoff_cap.0.max(1));
        let jitter = splitmix64(
            self.jitter_seed ^ job_seq.rotate_left(17) ^ u64::from(attempt).rotate_left(41),
        ) % (delay / 4 + 1);
        SimTime(delay.saturating_add(jitter))
    }

    /// Iterations retained across an interruption: the last checkpoint at
    /// or below `done` for training, every completed batch for inference.
    pub fn checkpointed(&self, kind: JobKind, done: u32) -> u32 {
        match kind {
            JobKind::Inference => done,
            JobKind::Training => done - done % self.checkpoint_interval.max(1),
        }
    }
}

/// SplitMix64: the standard 64-bit finalizer-based PRNG step. Used for the
/// fault plan's exponential spans and the backoff jitter so neither pulls in
/// simulator state — determinism is a structural property, not a discipline.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One exponential sample with mean `mean_ns`, floored at 1 ns. Uses the
/// inverse CDF over a 53-bit uniform; the float is internal to the draw —
/// the returned span is integer ns.
fn exp_sample(state: &mut u64, mean_ns: u64) -> u64 {
    *state = splitmix64(*state);
    let u = (*state >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let span = -(1.0 - u).ln() * mean_ns.max(1) as f64;
    (span as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_sort_stably_by_instant() {
        let plan = FaultPlan::new()
            .kill(SimTime(50), 1)
            .recover(SimTime(10), 0)
            .kill(SimTime(10), 2)
            .into_events();
        assert_eq!(
            plan,
            vec![
                (SimTime(10), FaultEvent::DeviceRecover { device: 0 }),
                (SimTime(10), FaultEvent::DeviceFail { device: 2 }),
                (SimTime(50), FaultEvent::DeviceFail { device: 1 }),
            ]
        );
    }

    #[test]
    fn seeded_random_is_a_pure_function_of_the_seed() {
        let mk = |seed| {
            FaultPlan::seeded_random(
                seed,
                8,
                SimTime::from_ms(500),
                SimTime::from_ms(20),
                SimTime::from_ms(5),
            )
        };
        assert_eq!(mk(7), mk(7), "same seed must replay the same plan");
        assert_ne!(mk(7), mk(8), "distinct seeds must diverge");
        let plan = mk(7);
        assert!(
            !plan.events().is_empty(),
            "20 ms MTBF over 500 ms must fire"
        );
        assert!(
            plan.events().windows(2).all(|w| w[0].0 <= w[1].0),
            "plans are time-sorted"
        );
        // Per device, fails and recovers strictly alternate starting at a
        // fail — the invariant the simulator's idempotence guards rely on.
        for d in 0..8 {
            let mut expect_fail = true;
            for (_, ev) in plan.events() {
                match ev {
                    FaultEvent::DeviceFail { device } if *device == d => {
                        assert!(expect_fail, "device {d}: double fail");
                        expect_fail = false;
                    }
                    FaultEvent::DeviceRecover { device } if *device == d => {
                        assert!(!expect_fail, "device {d}: recover while up");
                        expect_fail = true;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let policy = RecoveryPolicy::default();
        let mut prev_floor = 0u64;
        for attempt in 0..12 {
            let d = policy.backoff_delay(attempt, 3).0;
            let floor = policy
                .backoff_base
                .0
                .saturating_mul(1 << attempt.min(62))
                .min(policy.backoff_cap.0);
            assert!(d >= floor, "attempt {attempt}: {d} under floor {floor}");
            assert!(
                d <= floor + floor / 4,
                "attempt {attempt}: jitter out of [0, delay/4]"
            );
            assert!(floor >= prev_floor, "floor must be monotone");
            prev_floor = floor;
        }
        // Saturated attempts stay at the cap (+ jitter), no overflow.
        let big = policy.backoff_delay(200, 3).0;
        assert!(big >= policy.backoff_cap.0 && big <= policy.backoff_cap.0 * 5 / 4);
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_job_and_attempt() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.backoff_delay(3, 7), policy.backoff_delay(3, 7));
        // Different jobs de-synchronize (thundering-herd protection): over
        // many seq values at one attempt, at least two distinct delays.
        let distinct: std::collections::HashSet<u64> =
            (0..32).map(|seq| policy.backoff_delay(6, seq).0).collect();
        assert!(distinct.len() > 1, "jitter must vary across jobs");
    }

    #[test]
    fn backoff_instants_stay_distinct_past_2p53() {
        // Regression guard for the PR-2 bug class (instants compared through
        // an f64 projection): no clock in the simulator is a float any more,
        // and chained retry instants must stay distinct integers at a
        // magnitude where a float one would have merged them.
        let policy = RecoveryPolicy {
            backoff_base: SimTime(1),
            backoff_cap: SimTime(1),
            jitter_seed: 0,
            ..RecoveryPolicy::default()
        };
        let base: u64 = (1 << 53) + 4;
        let mut due = base;
        let mut instants = vec![due];
        for attempt in 0..4 {
            due += policy.backoff_delay(attempt, 1).0;
            instants.push(due);
        }
        for w in instants.windows(2) {
            assert!(w[1] > w[0], "integer instants must strictly advance");
        }
        // ...at a magnitude where several of their f64 projections are equal.
        assert!(
            instants.windows(2).any(|w| (w[0] as f64) == (w[1] as f64)),
            "test premise: some instants collapse under as-f64"
        );
    }

    #[test]
    fn checkpoint_folds_to_the_last_interval() {
        let p = RecoveryPolicy {
            checkpoint_interval: 4,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.checkpointed(JobKind::Training, 0), 0);
        assert_eq!(p.checkpointed(JobKind::Training, 3), 0);
        assert_eq!(p.checkpointed(JobKind::Training, 4), 4);
        assert_eq!(p.checkpointed(JobKind::Training, 11), 8);
        // Inference batches are durable as served.
        assert_eq!(p.checkpointed(JobKind::Inference, 11), 11);
    }
}
