//! Smoke tests of the whole benchmark at 1/50 size.
//!
//! The program keeps process-wide caches and the workloads check how they
//! are touched, so everything that runs a pass lives in **one** test: the
//! test runner's threads would otherwise trip the layer-contrast checks.

use crate::harness::{self, Outcome, Workload};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::plan_cold::PlanCold;
use crate::workloads::plan_reuse::PlanReuse;
use crate::workloads::serve_mixed::ServeMixed;
use crate::workloads::train_exec::TrainExec;
use crate::{traced_run, Args};

#[test]
fn generators_are_pure_functions_of_the_seed() {
    macro_rules! pure {
        ($w:ty) => {
            let a = <$w>::generate(11, true).fingerprint();
            assert_eq!(a, <$w>::generate(11, true).fingerprint(), "{}", <$w>::NAME);
            assert_ne!(a, <$w>::generate(12, true).fingerprint(), "{}", <$w>::NAME);
            let full = <$w>::generate(11, false).fingerprint();
            assert_eq!(
                full,
                <$w>::generate(11, false).fingerprint(),
                "{}",
                <$w>::NAME
            );
        };
    }
    pure!(PlanCold);
    pure!(PlanReuse);
    pure!(TrainExec);
    pure!(ServeMixed);
}

fn quick<W: Workload>(seed: u64) -> Outcome {
    let out = harness::end_to_end::<W>(seed, 1.0, true);
    assert!(
        out.values.missing(END_TO_END).is_empty(),
        "{}: missing {:?}",
        W::NAME,
        out.values.missing(END_TO_END)
    );
    assert!(out.correct(), "{}: {} checks failed", W::NAME, out.failed);
    assert_eq!(out.values.get("ok_share"), Some(1.0), "{}", W::NAME);
    assert!(out.attempted >= 1);
    for d in END_TO_END {
        let v = out.values.get(d.name).expect("present");
        assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", W::NAME, d.name);
    }
    out
}

fn exact_metrics_repeat<W: Workload>() {
    let (a, b) = (quick::<W>(5), quick::<W>(5));
    let exact: Vec<_> = END_TO_END.iter().filter(|d| d.exact).collect();
    assert_eq!(exact.len(), 6);
    for d in exact {
        assert_eq!(
            a.values.get(d.name),
            b.values.get(d.name),
            "{}: {} differs between two runs of one seed",
            W::NAME,
            d.name
        );
    }
}

#[test]
fn every_workload_runs_checks_out_and_repeats_exactly() {
    exact_metrics_repeat::<PlanCold>();
    exact_metrics_repeat::<PlanReuse>();
    exact_metrics_repeat::<TrainExec>();
    exact_metrics_repeat::<ServeMixed>();

    // The traced run fills in every per-layer metric, whichever workload
    // is selected.
    for selected in ["plan_reuse", "serve_mixed"] {
        let args = Args {
            workload: Some(selected.into()),
            seed: 5,
            seconds: 1.0,
            trace: true,
            quick: true,
            vary_seed: false,
        };
        let out = traced_run(selected, &args);
        assert!(
            out.values.missing(PER_LAYER).is_empty(),
            "{selected}: missing {:?}",
            out.values.missing(PER_LAYER)
        );
        assert!(out.correct(), "{selected}: {} checks failed", out.failed);
    }
}
