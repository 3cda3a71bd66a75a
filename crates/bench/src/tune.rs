//! The `tune` experiment: the closed planner loop, measured.
//!
//! Four claims of the policy-autotuning pass, checked end to end over a
//! matrix of CNNs + a transformer × devices × replica counts:
//!
//! 1. **Tuned is never worse** — on every matrix point the autotuned
//!    policy's measured step time is ≤ the best hand preset's, and on
//!    at least three points (one in quick mode) it is *strictly* better:
//!    the search has real levers (prefetch depth, the peer-GPU tier table,
//!    gang bucket sizing) the hand presets don't pull.
//! 2. **Peaks are exact** — every tuned winner's executed peak equals its
//!    compiled plan peak byte-for-byte.
//!    Tuning never trades away the planner's exactness contract.
//! 3. **Seeded determinism** — every search runs on two worker threads
//!    and again on one (explicit counts: two threads are spawned whatever
//!    the host has) and reproduces the identical `TunedPolicy` and the
//!    identical rendered trace (compared line by line, plus the FxHash
//!    trace digest).
//! 4. **Metrics consistency** — each search's feasibility evaluations equal
//!    the plan-memo lookups it performed (`memo_lookups == evals`, per
//!    run), and so do the `tune.*` counters of the compiler it ran on.
//!
//! Every search runs on a [`Compiler`] of its own: both runs of a point
//! start cold whatever ran before them, and the `tune.*` totals in the
//! artifact — summed over those compilers — are this experiment's alone.
//!
//! Emits `BENCH_tune.json`, which holds no host time: it is byte-identical
//! across runs.

use sn_graph::Net;
use sn_models as models;
use sn_runtime::tune::{search_in, SearchOutcome, TuneConfig};
use sn_runtime::{Compiler, Interconnect};
use sn_sim::spec::GB;
use sn_sim::DeviceSpec;
use sn_telemetry::{Json, MetricsSnapshot};

use crate::record::BenchRecord;
use crate::table::TextTable;

/// One matrix point: a network on a device at a gang size.
struct Point {
    label: String,
    net: Net,
    spec: DeviceSpec,
    replicas: usize,
    interconnect: Interconnect,
}

/// The tuning matrix. Full mode spans both evaluation CNNs, the
/// transformer workload, both device models, gangs of 1 and 2, and a
/// DRAM-constrained point where the search must work against a tight
/// budget rather than a comfortable one.
fn matrix(quick: bool) -> Vec<Point> {
    let mut pts = vec![
        Point {
            label: "vgg16@16 k40c x1".into(),
            net: models::vgg16(16),
            spec: DeviceSpec::k40c(),
            replicas: 1,
            interconnect: Interconnect::pcie(),
        },
        Point {
            label: "resnet50@16 titan x2 nvlink".into(),
            net: models::resnet50(16),
            spec: DeviceSpec::titan_xp(),
            replicas: 2,
            interconnect: Interconnect::nvlink(),
        },
        Point {
            label: "gpt_small@2s128 titan x1".into(),
            net: models::gpt_small(2, 128),
            spec: DeviceSpec::titan_xp(),
            replicas: 1,
            interconnect: Interconnect::pcie(),
        },
    ];
    if !quick {
        pts.push(Point {
            label: "vgg16@16 titan x2 pcie".into(),
            net: models::vgg16(16),
            spec: DeviceSpec::titan_xp(),
            replicas: 2,
            interconnect: Interconnect::pcie(),
        });
        pts.push(Point {
            label: "resnet50@16 k40c x1".into(),
            net: models::resnet50(16),
            spec: DeviceSpec::k40c(),
            replicas: 1,
            interconnect: Interconnect::pcie(),
        });
        pts.push(Point {
            label: "gpt_small@8s256 titan x1".into(),
            net: models::gpt_small(8, 256),
            spec: DeviceSpec::titan_xp(),
            replicas: 1,
            interconnect: Interconnect::pcie(),
        });
        pts.push(Point {
            label: "vgg16@24 k40c(4GB) x1".into(),
            net: models::vgg16(24),
            spec: DeviceSpec::k40c().with_dram(4 * GB),
            replicas: 1,
            interconnect: Interconnect::pcie(),
        });
    }
    pts
}

/// One tuned matrix point with its determinism re-run.
pub struct TunePoint {
    pub label: String,
    pub replicas: usize,
    /// The search on two workers.
    pub outcome: SearchOutcome,
    /// Same seed, workers pinned to 1 — must reproduce `outcome` exactly.
    pub rerun: SearchOutcome,
    /// The registries of the two fresh compilers those ran on, in that order.
    pub metrics: [MetricsSnapshot; 2],
}

impl TunePoint {
    pub fn strict_win(&self) -> bool {
        self.outcome.tuned.step_time < self.outcome.tuned.hand_step_time
    }

    pub fn no_worse(&self) -> bool {
        self.outcome.tuned.step_time <= self.outcome.tuned.hand_step_time
    }

    pub fn peaks_match(&self) -> bool {
        self.outcome.tuned.plan_peak_bytes == self.outcome.tuned.executed_peak_bytes
            && self.rerun.tuned.plan_peak_bytes == self.rerun.tuned.executed_peak_bytes
    }

    pub fn deterministic(&self) -> bool {
        self.outcome.tuned == self.rerun.tuned && self.outcome.trace == self.rerun.trace
    }

    /// Every feasibility evaluation is exactly one plan-memo lookup, in
    /// both runs, by the search's count and by its compiler's.
    pub fn metrics_consistent(&self) -> bool {
        [&self.outcome, &self.rerun]
            .iter()
            .zip(&self.metrics)
            .all(|(run, counted)| {
                let evals = Some(run.tuned.evals);
                run.memo_lookups == run.tuned.evals
                    && counted.counter("tune.evals") == evals
                    && counted.counter("tune.memo_lookups") == evals
            })
    }
}

pub struct TuneReport {
    pub points: Vec<TunePoint>,
    /// Strict wins required for `tuned_no_worse` (3, capped by matrix size
    /// in quick mode).
    pub strict_required: usize,
}

impl TuneReport {
    pub fn strict_wins(&self) -> usize {
        self.points.iter().filter(|p| p.strict_win()).count()
    }

    /// Gate 1: ≤ the best hand preset everywhere, strictly better on
    /// enough points to prove the search pulls real levers.
    pub fn tuned_no_worse(&self) -> bool {
        self.points.iter().all(|p| p.no_worse()) && self.strict_wins() >= self.strict_required
    }

    /// Gate 2: executed peak == plan peak, byte-exact, every run.
    pub fn all_peaks_match(&self) -> bool {
        self.points.iter().all(|p| p.peaks_match())
    }

    /// Gate 3: same seed ⇒ bit-identical outcome across worker counts.
    pub fn search_deterministic(&self) -> bool {
        self.points.iter().all(|p| p.deterministic())
    }

    /// Gate 4: per run, `memo_lookups == evals` and the run's compiler
    /// counted exactly those.
    pub fn metrics_consistent(&self) -> bool {
        self.points.iter().all(|p| p.metrics_consistent())
    }

    /// Every run's compiler registry.
    fn registries(&self) -> impl Iterator<Item = &MetricsSnapshot> {
        self.points.iter().flat_map(|p| &p.metrics)
    }
}

/// Compact human-readable signature of a tuned winner for the table/JSON.
fn describe(t: &sn_runtime::TunedPolicy) -> String {
    let p = &t.policy;
    format!(
        "pfd={} eo={} rc={:?} cp={:?} ws={:?} tiers={} bkt={}M",
        p.prefetch_depth,
        p.eager_offload as u8,
        p.recompute,
        p.cache_policy,
        p.workspace,
        if p.tiers == sn_runtime::TierConfig::default() {
            "local"
        } else {
            "full"
        },
        t.bucket_bytes >> 20,
    )
}

/// Run the measurements (no I/O).
pub fn measure(quick: bool) -> TuneReport {
    let samples = if quick { 10 } else { 24 };
    let pts = matrix(quick);
    let strict_required = 3.min(pts.len().saturating_sub(1)).max(1);
    let mut points = Vec::new();
    for (i, pt) in pts.into_iter().enumerate() {
        let cfg = TuneConfig::new(pt.replicas, pt.interconnect)
            .with_seed(0xB0_5EED ^ (i as u64))
            .with_samples(samples);
        // A fresh compiler a search: each starts cold and performs the same
        // lookups whatever ran before it.
        let run = |workers| {
            let compiler = Compiler::new();
            let outcome = search_in(&compiler, &pt.net, &pt.spec, &cfg.with_workers(workers))
                .expect("matrix point must tune");
            (outcome, compiler.metrics().snapshot())
        };
        let ((outcome, first), (rerun, second)) = (run(2), run(1));
        points.push(TunePoint {
            label: pt.label,
            replicas: pt.replicas,
            outcome,
            rerun,
            metrics: [first, second],
        });
    }
    TuneReport {
        points,
        strict_required,
    }
}

/// Run the experiment; also writes `BENCH_tune.json`.
pub fn tune(quick: bool) -> String {
    let r = measure(quick);

    let mut out = String::from(
        "tune: seeded policy autotuning over the memoized compiler — tuned \
         vs best hand preset, peak exactness, worker-count determinism\n\n",
    );
    let mut t = TextTable::new(vec![
        "point",
        "hand best",
        "tuned",
        "speedup",
        "strict",
        "peaks",
        "det",
        "winner",
    ]);
    for p in &r.points {
        let tu = &p.outcome.tuned;
        t.row(vec![
            p.label.clone(),
            format!("{} {:.3} ms", tu.hand_name, tu.hand_step_time.as_ms_f64()),
            format!("{:.3} ms", tu.step_time.as_ms_f64()),
            format!(
                "{:.3}x",
                tu.hand_step_time.as_ns() as f64 / tu.step_time.as_ns().max(1) as f64
            ),
            if p.strict_win() { "yes" } else { "tie" }.into(),
            if p.peaks_match() { "exact" } else { "DRIFT" }.into(),
            if p.deterministic() { "yes" } else { "NO" }.into(),
            describe(tu),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nstrict wins {}/{} (need {}) | tuned_no_worse: {} | all_peaks_match: {} | \
         search_deterministic: {} | metrics_consistent: {}\n",
        r.strict_wins(),
        r.points.len(),
        r.strict_required,
        r.tuned_no_worse(),
        r.all_peaks_match(),
        r.search_deterministic(),
        r.metrics_consistent(),
    ));

    let rows = r.points.iter().map(|p| {
        let tu = &p.outcome.tuned;
        Json::object()
            .with("label", p.label.as_str())
            .with("replicas", p.replicas)
            .with("hand", tu.hand_name)
            .with("hand_ns", tu.hand_step_time.as_ns())
            .with("tuned_ns", tu.step_time.as_ns())
            .with("plan_peak_bytes", tu.plan_peak_bytes)
            .with("executed_peak_bytes", tu.executed_peak_bytes)
            .with("policy", describe(tu))
            .with("seed", tu.seed)
            .with("evals", tu.evals)
            .with("pruned", tu.pruned)
            .with("trace_digest", tu.trace_digest)
            .with("strict", p.strict_win())
            .with("peaks_match", p.peaks_match())
            .with("deterministic", p.deterministic())
            .with("metrics_consistent", p.metrics_consistent())
    });
    let snap = |n: &str| r.registries().filter_map(|m| m.counter(n)).sum::<u64>();
    let record = BenchRecord {
        experiment: "tune",
        quick,
        gates: vec![
            ("tuned_no_worse", r.tuned_no_worse()),
            ("all_peaks_match", r.all_peaks_match()),
            ("search_deterministic", r.search_deterministic()),
            ("metrics_consistent", r.metrics_consistent()),
        ],
        deterministic: Json::object()
            .with("points", r.points.len())
            .with("matrix", Json::array(rows))
            .with("strict_wins", r.strict_wins())
            .with("strict_required", r.strict_required)
            .with(
                "metrics",
                Json::object()
                    .with("tune.evals", snap("tune.evals"))
                    .with("tune.pruned", snap("tune.pruned"))
                    .with("tune.memo_hits", snap("tune.memo_hits"))
                    .with("tune.memo_lookups", snap("tune.memo_lookups")),
            ),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_beats_hands_with_exact_peaks_and_deterministic_searches() {
        let r = measure(true);
        assert!(
            r.tuned_no_worse(),
            "tuned lost to a hand preset (strict wins {}/{})",
            r.strict_wins(),
            r.strict_required
        );
        assert!(r.all_peaks_match(), "a tuned plan's executed peak drifted");
        assert!(r.search_deterministic(), "worker count changed a search");
        assert!(
            r.metrics_consistent(),
            "a compiler's tune.* counters disagree with its search"
        );
    }
}
