//! The measurement method every workload shares.
//!
//! A run is five **blocks**. Each block starts with a cold set-up (generate
//! the inputs from the seed, clear the program's caches, build the state, run
//! one first-contact pass — timed as one `setup_s` sample) and then runs
//! measured **passes** until its fifth of `--seconds` is spent. A pass is a
//! fixed piece of work, the same on every call, so everything but its wall
//! time repeats exactly and does not depend on how many passes fit. Every
//! pass is bracketed by reference-kernel runs ([`crate::refk`]); allocations
//! are counted during passes only.

use std::time::{Duration, Instant};

use superneurons::runtime::{plan, tune};

use crate::metrics::Values;
use crate::refk::RefKernel;
use crate::trace::{self, SpanRec};
use crate::{alloc, host, stats};

/// Cold set-ups (and blocks) per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// `setup_s` is set-up wall time rescaled to the host speed at which one
/// reference-kernel run takes this long: seconds on a nominal host, for the
/// same reason `ref_cost` is not seconds at all.
pub const REF_NOMINAL_S: f64 = 0.020;

/// What one pass did and simulated. Two passes of one set-up — and of two
/// set-ups from one seed — must compare equal: the program is deterministic,
/// and this is how the benchmark notices when it is not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassResult {
    /// Units of work done (what `*_per_unit` divides by).
    pub units: u64,
    /// Operations attempted, and those that failed their in-pass check.
    pub attempted: u64,
    pub failed: u64,
    /// Requests that fit, of how many.
    pub fit: u64,
    pub cells: u64,
    /// Simulated time, total and tail, integer ns.
    pub sim_time_ns: u64,
    pub sim_tail_ns: u64,
    /// Digest of every other simulated field the pass produced.
    pub digest: u64,
}

impl PassResult {
    /// Count one failed in-pass check and say which on stderr (the cold
    /// path: a healthy run never gets here).
    #[cold]
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        eprintln!("CHECK FAILED: {}", what());
    }
}

/// Output checks made outside the measured passes.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one check; a failure is reported on stderr and in `ok_share`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// How a workload may touch the process-wide plan memo during its passes —
/// the layer contrast the workloads were chosen for, checked from
/// `plan_memo_stats()` deltas around every block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoUse {
    /// No lookups at all (`plan_cold` compiles directly).
    None,
    /// Lookups, but every one a hit (`train_exec`, `serve_mixed`).
    HitsOnly,
    /// The workload is about the memo and checks its own share.
    Own,
}

pub trait Workload {
    const NAME: &'static str;
    /// What a unit is.
    const UNIT: &'static str;
    const WHY: &'static str;
    const MEMO: MemoUse;
    type Inputs;
    type State<'a>: Measured
    where
        Self::Inputs: 'a;

    /// Everything the program will be fed, as a pure function of the seed.
    /// `quick` is the 1/50-size smoke scale the tests use.
    fn generate(seed: u64, quick: bool) -> Self::Inputs;

    /// Build the measured state from cold caches, including one first-contact
    /// pass.
    fn set_up(inputs: &Self::Inputs) -> Self::State<'_>;
}

pub trait Measured {
    fn pass(&mut self) -> PassResult;

    /// The oracles too slow to run inside a measured pass.
    fn verify(&mut self, checks: &mut Checks);

    /// Switch the program's own `enable_tracing` + `enable_metrics` on or off
    /// for the following passes; `false` when the workload calls nothing that
    /// has such a switch.
    fn telemetry(&mut self, _on: bool) -> bool {
        false
    }

    /// This workload's layers' metrics, from the spans of its traced passes
    /// and from direct calls into those layers.
    fn layer_metrics(&mut self, spans: &[SpanRec], out: &mut Values);
}

/// The outcome of a run, ready to print.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn cold<W: Workload>(seed: u64, quick: bool) -> (W::Inputs, f64) {
    let t = Instant::now();
    let inputs = W::generate(seed, quick);
    plan::clear_all_caches();
    tune::clear_tune_memo();
    (inputs, t.elapsed().as_secs_f64())
}

/// The end-to-end run: tracing off, all nine gated metrics.
pub fn end_to_end<W: Workload>(seed: u64, seconds: f64, quick: bool) -> Outcome {
    let refk = RefKernel::new();
    refk.run();
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut costs = Vec::new();
    let mut walls = Vec::new();
    let mut refs = Vec::new();
    let mut first: Option<(PassResult, (u64, u64))> = None;
    let (mut allocs, mut bytes, mut units) = (0u64, 0u64, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rss = 0.0;
    let cpu0 = host::cpu_seconds();

    for block in 0..SETUPS {
        let ref_before = refk.run3();
        let (inputs, t_gen) = cold::<W>(seed, quick);
        let t = Instant::now();
        let mut st = W::set_up(&inputs);
        let setup_wall = t_gen + t.elapsed().as_secs_f64();
        let ref_after = refk.run3();
        setups.push(setup_wall / (0.5 * (ref_before + ref_after)) * REF_NOMINAL_S);

        let memo0 = plan::plan_memo_stats();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / SETUPS as f64);
        let mut block_walls = Vec::new();
        let mut block_refs = vec![ref_after];
        loop {
            let (a0, b0) = alloc::counted();
            alloc::counting(true);
            let t = Instant::now();
            let r = st.pass();
            let wall = t.elapsed().as_secs_f64();
            alloc::counting(false);
            let (a1, b1) = alloc::counted();
            block_walls.push(wall);
            block_refs.push(refk.run());

            let counted = (a1 - a0, b1 - b0);
            allocs += counted.0;
            bytes += counted.1;
            units += r.units;
            attempted += r.attempted;
            failed += r.failed;
            match &first {
                None => first = Some((r, counted)),
                Some((f, c)) => {
                    checks.check(*f == r, || {
                        format!("pass differs from the first pass: {r:?} vs {f:?}")
                    });
                    checks.check(*c == counted, || {
                        format!("pass allocated {counted:?}, the first pass {c:?}")
                    });
                }
            }
            let done = if quick {
                block_walls.len() >= 2
            } else {
                Instant::now() >= deadline
            };
            if done {
                break;
            }
        }
        let memo1 = plan::plan_memo_stats();
        match W::MEMO {
            MemoUse::None => checks.check(memo1 == memo0, || {
                format!("plan memo touched: {memo0:?} -> {memo1:?}")
            }),
            MemoUse::HitsOnly => checks.check(memo1.misses == memo0.misses, || {
                format!("plan-memo misses during passes: {memo0:?} -> {memo1:?}")
            }),
            MemoUse::Own => {}
        }
        costs.extend(stats::ref_costs(&block_walls, &block_refs));
        walls.extend(block_walls);
        refs.extend(block_refs);

        if block + 1 == SETUPS {
            // Before the oracles run: they are the harness's cost, not the
            // program's footprint.
            rss = host::peak_rss_mib();
            st.verify(&mut checks);
        }
    }

    let (first, _) = first.expect("at least one pass ran");
    attempted += checks.attempted;
    failed += checks.failed;
    let n = costs.len() as u64;
    let mut v = Values::default();
    v.set("ref_cost", stats::median(&costs), n);
    v.set("allocs_per_unit", allocs as f64 / units as f64, n);
    v.set("alloc_bytes_per_unit", bytes as f64 / units as f64, n);
    v.set("peak_rss_mb", rss, 1);
    v.set("setup_s", stats::median(&setups), SETUPS as u64);
    v.set(
        "ok_share",
        (attempted - failed) as f64 / attempted as f64,
        attempted,
    );
    v.set(
        "fit_share",
        first.fit as f64 / first.cells as f64,
        first.cells,
    );
    v.set("sim_time_s", first.sim_time_ns as f64 / 1e9, first.cells);
    v.set("sim_tail_s", first.sim_tail_ns as f64 / 1e9, first.cells);
    // Reported, not gated: these do not repeat within a tenth on this class
    // of host.
    host_metrics(&mut v, &walls, &refs, &costs, units, cpu0);
    Outcome {
        values: v,
        attempted,
        failed,
    }
}

fn host_metrics(v: &mut Values, walls: &[f64], refs: &[f64], costs: &[f64], units: u64, cpu0: f64) {
    let n = walls.len() as u64;
    let pass_s: f64 = walls.iter().sum();
    v.set("host.units_per_s", units as f64 / pass_s, n);
    v.set("host.cpu_s", host::cpu_seconds() - cpu0, 1);
    v.set(
        "host.ref_ms_p50",
        stats::median(refs) * 1e3,
        refs.len() as u64,
    );
    v.set(
        "host.ref_spread",
        stats::quantile(refs, 0.9) / stats::quantile(refs, 0.1),
        refs.len() as u64,
    );
    v.set(
        "host.pass_spread",
        stats::quantile(costs, 0.9) / stats::quantile(costs, 0.1),
        n,
    );
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Traced,
    Telemetry,
}

/// The traced run of one workload: one set-up, then passes in rotation —
/// plain, with the benchmark's spans on, and (where the workload has the
/// switch) with the program's own telemetry on — each still between two
/// reference runs, so the three costs compare on equal terms.
///
/// `selected` is the workload named on the command line: it gets the
/// rotation and reports the harness metrics and time shares; the others run
/// traced passes only, to supply their own layers' metrics. Returns the
/// spans recorded.
pub fn traced<W: Workload>(
    seed: u64,
    seconds: f64,
    quick: bool,
    selected: bool,
    out: &mut Values,
    checks: &mut Checks,
) -> Vec<SpanRec> {
    let refk = RefKernel::new();
    refk.run();
    let cpu0 = host::cpu_seconds();
    let (inputs, _) = cold::<W>(seed, quick);
    let mut st = W::set_up(&inputs);
    let has_switch = st.telemetry(false);
    let modes: &[Mode] = match (selected, has_switch) {
        (false, _) => &[Mode::Traced],
        (true, false) => &[Mode::Plain, Mode::Traced],
        (true, true) => &[Mode::Plain, Mode::Traced, Mode::Telemetry],
    };

    trace::start();
    trace::recording(false);
    // Per mode: calibrated cost of every pass. Plain passes also keep their
    // wall time, for the raw rate.
    let mut costs: [Vec<f64>; 3] = Default::default();
    let mut plain_walls = Vec::new();
    let mut refs = vec![refk.run()];
    let mut units = 0u64;
    let mut first: Option<PassResult> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut pass_no = 0u64;
    loop {
        for &mode in modes {
            st.telemetry(mode == Mode::Telemetry);
            trace::recording(mode == Mode::Traced);
            let t = Instant::now();
            let r = trace::span("pass", pass_no, || st.pass());
            let wall = t.elapsed().as_secs_f64();
            trace::recording(false);
            pass_no += 1;
            let before = refs[refs.len() - 1];
            refs.push(refk.run());
            costs[mode as usize].push(wall / (0.5 * (before + refs[refs.len() - 1])));
            if mode == Mode::Plain {
                plain_walls.push(wall);
                units += r.units;
            }
            match &first {
                None => first = Some(r),
                Some(f) => checks.check(*f == r, || {
                    format!("{}: traced-run pass differs: {r:?} vs {f:?}", W::NAME)
                }),
            }
        }
        let rounds = costs[Mode::Traced as usize].len();
        if (quick && rounds >= 2) || (!quick && Instant::now() >= deadline) {
            break;
        }
    }
    st.telemetry(false);
    let spans = trace::finish();

    if selected {
        let cost = |m: Mode| stats::median(&costs[m as usize]);
        let plain = cost(Mode::Plain);
        let n = plain_walls.len() as u64;
        out.set(
            "host.trace_overhead_share",
            cost(Mode::Traced) / plain - 1.0,
            n,
        );
        let (ratio, samples) = if has_switch {
            (cost(Mode::Telemetry) / plain, n)
        } else {
            // Nothing this workload calls has a telemetry switch.
            (1.0, 0)
        };
        out.set("telemetry.on_cost_ratio", ratio, samples);
        host_metrics(
            out,
            &plain_walls,
            &refs,
            &costs[Mode::Plain as usize],
            units,
            cpu0,
        );
        shares(&spans, out);
    }
    st.layer_metrics(&spans, out);
    spans
}

/// Self time of each layer's entry spans as a share of the traced passes.
fn shares(spans: &[SpanRec], out: &mut Values) {
    let st = trace::self_times(spans);
    let total = st.get("pass").map_or(0, |p| p.1) as f64;
    let n = st.get("pass").map_or(0, |p| p.0);
    for (metric, span) in [
        ("share.plan_compile", "plan.compile"),
        ("share.plan_predict", "plan.predict"),
        ("share.exec", "exec.iteration"),
        ("share.group", "group.iteration"),
        ("share.cluster", "cluster.run_stream"),
        ("share.harness", "pass"),
    ] {
        let own = st.get(span).map_or(0, |p| p.2) as f64;
        out.set(metric, if total > 0.0 { own / total } else { 0.0 }, n);
    }
}
