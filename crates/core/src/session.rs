//! The one peak predictor and the feasibility search behind Tables 4/5.
//!
//! [`plan_prediction`] only *compiles* a [`crate::MemoryPlan`] — no
//! timeline, no DMA events, no trace — and reads the exact peak off the
//! plan. Every executed iteration meets that peak to the byte (the executor
//! debug-asserts it), so admission control, the feasibility searches and the
//! cluster scheduler all ask the plan. Measuring an iteration is building an
//! [`crate::Executor`] and reading one [`crate::IterationReport`]: the
//! interpreter replays the plan compiled at build, so its first iteration
//! already is the steady state.

use std::ops::RangeInclusive;

use sn_graph::Net;
use sn_sim::{DeviceSpec, SimTime};

use crate::executor::ExecError;
use crate::plan;
use crate::policy::Policy;

/// What a policy is predicted to cost on a device: the admission-control
/// quantities a cluster scheduler needs *before* committing device memory to
/// a job (peak bytes to reserve, steady-state iteration time, and the
/// gradient bytes a data-parallel gang exchanges per step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeakPrediction {
    /// The plan's high-water device bytes, which every executed iteration
    /// meets exactly — the number a reservation must cover so the job never
    /// exceeds its grant.
    pub peak_bytes: u64,
    /// [`plan::MemoryPlan::iter_time_estimate`]: the busiest engine's total,
    /// no stall, no overlap, the weights' grant made at build counted. Not a
    /// pace: a step without transfers runs that grant (400 ns on a K40c)
    /// shorter, one that offloads up to 1.5x longer (`the_estimate_is_not_a_pace`);
    /// read by `Search::feasibility_batch` and solo paces (`ClusterSim::step_time`).
    pub iter_time: SimTime,
    /// Total weight-gradient bytes (the per-iteration all-reduce payload).
    pub weight_bytes: u64,
}

impl PeakPrediction {
    /// The quantities as a compiled plan states them.
    pub(crate) fn of(plan: &plan::MemoryPlan) -> PeakPrediction {
        PeakPrediction {
            peak_bytes: plan.peak_bytes,
            iter_time: plan.iter_time_estimate(),
            weight_bytes: plan.weight_bytes,
        }
    }
}

/// The admission-control hot path: compile a training [`crate::MemoryPlan`]
/// and read the quantities off it — no simulated iteration, no timeline.
/// `peak_bytes` is **exact** (the interpreter replays the plan's alloc/free
/// sequence, so the executed high-water equals it to the byte); `iter_time`
/// is the plan's analytic busiest-engine estimate, not a measured pace.
///
/// Goes through the shared compiler's plan memo, as [`plan::compile_memo`]
/// does, and copies the prediction the memo entry holds beside the plan: a
/// repeated prediction for the same `(net, policy, device)` triple is one
/// hash lookup that allocates nothing, not a compile.
pub fn plan_prediction(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<PeakPrediction, ExecError> {
    plan_prediction_caps(net, spec, policy, false).0
}

/// [`plan_prediction`] for a forward-only inference plan: the peak a serving
/// replica reserves and the per-batch latency estimate. `weight_bytes` is
/// still the resident parameter footprint — inference exchanges no
/// gradients, so schedulers must not budget an all-reduce from it.
pub fn plan_prediction_inference(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
) -> Result<PeakPrediction, ExecError> {
    plan_prediction_caps(net, spec, policy, true).0
}

/// [`plan_prediction`] (with `inference`, [`plan_prediction_inference`]) and
/// the caps its answer holds for, from one memo lookup read in place: the
/// plan's [`plan::CompiledPlan::valid_caps`], or an OOM's own cap alone.
pub fn plan_prediction_caps(
    net: &Net,
    spec: &DeviceSpec,
    policy: Policy,
    inference: bool,
) -> (Result<PeakPrediction, ExecError>, RangeInclusive<u64>) {
    plan::Compiler::shared().predict(net, spec, policy, inference)
}

/// Does `net` train successfully on `spec` under `policy`? Answered by
/// *compiling* the memory plan alone: the planner performs every allocation
/// the iteration would, so compile success is execution success — and the
/// feasibility searches behind Tables 4/5 never touch a timeline. Memoized
/// as [`plan_prediction`] is: re-asking about a triple is a hash lookup.
pub fn feasible(net: &Net, spec: &DeviceSpec, policy: Policy) -> bool {
    plan_prediction(net, spec, policy).is_ok()
}

/// Largest `x` in `[lo, hi]` such that `build(x)` trains on `spec` under
/// `policy`, by exponential probing and then bisection. Returns 0 when even
/// `lo` fails.
///
/// The answer is 0 or a point of `[lo, hi]` that compiled, and the same for
/// the same inputs on any host. It is the knee only where feasibility is
/// monotone over the bracket, and it is not always:
/// `crates/core/tests/proptest_valid_caps.rs` pins a conv tower that fits a
/// quarter of its peak but not two fifths
/// (`finding_a_tower_fits_a_quarter_of_its_peak_but_not_two_fifths`) and a
/// net that fits a device at batch 3 but not at batch 2
/// (`finding_batch_2_does_not_fit_where_batch_3_does`). Where the curve
/// dips, bisection settles on whichever feasible boundary its midpoints
/// meet.
pub fn max_feasible_param(
    build: &dyn Fn(usize) -> Net,
    spec: &DeviceSpec,
    policy: Policy,
    lo: usize,
    hi: usize,
) -> usize {
    let fits = |x: usize| feasible(&build(x), spec, policy);
    if !fits(lo) {
        return 0;
    }
    // Exponential growth from lo until failure or hi.
    let mut good = lo;
    let mut bad = None;
    let mut probe = (lo * 2).max(lo + 1);
    while probe <= hi {
        if fits(probe) {
            good = probe;
            probe *= 2;
        } else {
            bad = Some(probe);
            break;
        }
    }
    let mut high = match bad {
        Some(b) => b,
        None if fits(hi) => return hi,
        None => hi,
    };
    // Bisection in (good, high): `good` fits, `high` does not or is `hi`.
    while high - good > 1 {
        let mid = good + (high - good) / 2;
        if fits(mid) {
            good = mid;
        } else {
            high = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use sn_graph::{NetCost, Shape4};

    fn netb(batch: usize) -> Net {
        let mut net = Net::new("n", Shape4::new(batch, 3, 16, 16));
        let d = net.data();
        let c = net.conv(d, 8, 3, 1, 1);
        let a = net.relu(c);
        let f = net.fc(a, 10);
        net.softmax(f);
        net
    }

    fn peak(net: &Net, spec: &DeviceSpec, policy: Policy) -> Result<u64, ExecError> {
        plan_prediction(net, spec, policy).map(|p| p.peak_bytes)
    }

    #[test]
    fn max_feasible_param_finds_the_knee() {
        // Tiny DRAM: find the max batch; then check batch+1 fails.
        let spec = DeviceSpec::k40c().with_dram(24 << 20);
        let best = max_feasible_param(&netb, &spec, Policy::liveness_only(), 1, 4096);
        assert!(best >= 1);
        assert!(feasible(&netb(best), &spec, Policy::liveness_only()));
        assert!(!feasible(&netb(best + 1), &spec, Policy::liveness_only()));
    }

    #[test]
    fn a_knee_below_hi_is_found_without_a_failed_doubling() {
        // With `hi = knee + 1` every doubling from 1 fits and the next one
        // passes `hi`, so no probe fails before `hi` itself does: the knee
        // lies between the last doubling and `hi`, and must still be found.
        let spec = DeviceSpec::k40c().with_dram(24 << 20);
        let policy = Policy::liveness_only();
        let knee = max_feasible_param(&netb, &spec, policy, 1, 4096);
        assert!(
            !knee.is_power_of_two(),
            "the knee {knee} must lie between doublings"
        );
        assert_eq!(max_feasible_param(&netb, &spec, policy, 1, knee + 1), knee);
    }

    #[test]
    fn superneurons_beats_baseline_on_max_batch() {
        let spec = DeviceSpec::k40c().with_dram(24 << 20);
        let base = max_feasible_param(&netb, &spec, Policy::baseline(), 1, 4096);
        let sn = max_feasible_param(&netb, &spec, Policy::superneurons(), 1, 4096);
        assert!(sn > base, "superneurons {sn} must beat baseline {base}");
    }

    #[test]
    fn infeasible_lo_returns_zero() {
        let spec = DeviceSpec::k40c().with_dram(64 << 10);
        assert_eq!(
            max_feasible_param(&netb, &spec, Policy::baseline(), 1, 64),
            0
        );
    }

    #[test]
    fn plan_prediction_reports_the_admission_quantities() {
        let net = netb(32);
        let spec = DeviceSpec::k40c();
        let p = plan_prediction(&net, &spec, Policy::superneurons()).unwrap();
        assert!(p.peak_bytes > 0 && p.peak_bytes <= spec.dram_bytes);
        assert!(p.iter_time > SimTime::ZERO);
        assert!(p.weight_bytes > 0);
        // A measured iteration peaks at the prediction.
        let mut ex = Executor::new(&net, spec, Policy::superneurons()).unwrap();
        assert_eq!(ex.run_iteration().unwrap().peak_bytes, p.peak_bytes);
    }

    #[test]
    fn predicted_peak_shrinks_with_policy_strength_under_pressure() {
        // Under a tight budget the adaptive stack must predict a smaller
        // peak than the keep-everything baseline does uncapped. Needs a deep
        // chain: offload/recompute can only trim what spans many layers.
        let deep = |batch: usize| {
            let mut net = Net::new("deep", sn_graph::Shape4::new(batch, 3, 32, 32));
            let mut prev = net.data();
            for _ in 0..8 {
                let c = net.conv(prev, 32, 3, 1, 1);
                prev = net.relu(c);
            }
            let f = net.fc(prev, 10);
            net.softmax(f);
            net
        };
        let spec = DeviceSpec::k40c();
        let base = peak(&deep(32), &spec, Policy::baseline()).unwrap();
        let tight = spec.with_dram(base / 2);
        let sn = peak(&deep(32), &tight, Policy::superneurons()).unwrap();
        assert!(sn < base, "superneurons {sn} must undercut baseline {base}");
        assert!(sn <= tight.dram_bytes, "prediction must respect the budget");
    }

    #[test]
    fn prediction_errors_signal_rejection() {
        let spec = DeviceSpec::k40c().with_dram(64 << 10);
        let net = netb(32);
        assert!(Executor::new(&net, spec.clone(), Policy::baseline()).is_err());
        assert!(plan_prediction(&net, &spec, Policy::baseline()).is_err());
    }

    #[test]
    fn plan_prediction_peak_matches_the_simulated_one_exactly() {
        // The prediction contract at the session level: the compile-only
        // predictor and a cold + a warm simulated iteration agree on peak
        // bytes, byte for byte, across the preset ladder — for a training
        // plan and for a forward-only inference plan.
        let net = netb(32);
        let spec = DeviceSpec::k40c();
        for policy in [
            Policy::baseline(),
            Policy::liveness_only(),
            Policy::liveness_offload(),
            Policy::full_memory(),
            Policy::superneurons(),
        ] {
            let mut ex = Executor::new(&net, spec.clone(), policy).unwrap();
            let cold = ex.run_iteration().unwrap();
            let warm = ex.run_iteration().unwrap();
            let planned = plan_prediction(&net, &spec, policy).unwrap();
            assert_eq!(planned.peak_bytes, cold.peak_bytes.max(warm.peak_bytes));
            assert_eq!(planned.weight_bytes, NetCost::of(&net).total_weight_bytes());
            assert!(planned.iter_time > SimTime::ZERO);

            let mut inf = Executor::new_inference(&net, spec.clone(), policy).unwrap();
            let cold = inf.run_iteration().unwrap();
            let warm = inf.run_iteration().unwrap();
            let planned = plan_prediction_inference(&net, &spec, policy).unwrap();
            assert_eq!(planned.peak_bytes, cold.peak_bytes.max(warm.peak_bytes));
        }
    }

    #[test]
    fn inference_serves_under_the_training_peak() {
        let net = netb(32);
        let spec = DeviceSpec::k40c();
        let mut ex = Executor::new(&net, spec.clone(), Policy::superneurons()).unwrap();
        let train = ex.run_iteration().unwrap();
        let mut ex = Executor::new_inference(&net, spec, Policy::superneurons()).unwrap();
        let inf = ex.run_iteration().unwrap();
        let imgs_per_sec = inf.imgs_per_sec(net.batch());
        assert!(
            imgs_per_sec > train.imgs_per_sec(net.batch()),
            "forward-only is faster"
        );
        assert!(inf.peak_bytes < train.peak_bytes, "forward-only is smaller");
        assert!(imgs_per_sec.is_finite());
    }

    #[test]
    fn the_estimate_is_not_a_pace() {
        // One executed iteration against the compile-only estimate on a
        // K40c. With no transfers the estimate is the executed step plus
        // the weights' grant, which the plan's `alloc_ns` counts and the
        // executor makes at build; under offload the executed step waits on
        // its transfers and runs 9-51 % past the estimate.
        let spec = DeviceSpec::k40c();
        let executed = |net: &Net, policy| {
            let mut ex = Executor::new(net, spec.clone(), policy).unwrap();
            let run = ex.run_iteration().unwrap();
            assert_eq!(
                ex.mplan.alloc_ns - run.alloc_time.as_ns(),
                400,
                "the weights' grant"
            );
            let estimate = plan_prediction(net, &spec, policy).unwrap().iter_time;
            (run.iter_time.as_ns(), estimate.as_ns())
        };
        for (net, ratio) in [
            (sn_models::alexnet(32), 1.09),
            (sn_models::resnet50(32), 1.51),
            (sn_models::vgg16(16), 1.14),
        ] {
            for policy in [Policy::liveness_only(), Policy::baseline()] {
                let (run, estimate) = executed(&net, policy);
                assert_eq!(estimate - run, 400, "{}", net.name);
            }
            let (run, estimate) = executed(&net, Policy::liveness_offload());
            let got = (run as f64 / estimate as f64 * 100.0).round() / 100.0;
            assert_eq!(got, ratio, "{}", net.name);
        }
    }
}
