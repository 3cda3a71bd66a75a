//! `plan_cold` — every request is first contact.
//!
//! Each pass clears every cache of the planner and compiles the paper's
//! evaluation nets × three cards × a policy lattice: the traffic of the
//! autotuner and of the capacity searches. Graph analyses, the plan walk and
//! the planning `HeapPool` do all the work; the memo, the executor and the
//! cluster do none. A unit is one compiled plan (or one clean OOM).
//!
//! The lattice is fixed; the seed decides the order the cells arrive in and
//! which cells the slow oracle samples. That keeps every simulated sum equal
//! across seeds, which is what lets `fit_share` and `sim_time_s` carry a
//! bound of half a percent.

use std::time::Instant;

use superneurons::graph::{LivenessPlan, Net, NetCost, Route};
use superneurons::mempool::HeapPool;
use superneurons::models;
use superneurons::runtime::{
    plan, tune, CachePolicy, CompiledPlan, ExecError, Executor, Interconnect, PlanOp, Policy,
    RecomputeMode, TuneConfig, WorkspacePolicy,
};
use superneurons::sim::{DeviceAllocator, DeviceSpec};

use super::{Digest, GB, MB};
use crate::harness::{Checks, Measured, MemoUse, PassResult, Workload};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, SpanRec};

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    net: usize,
    spec: usize,
    policy: usize,
    inference: bool,
}

pub struct Inputs {
    pub nets: Vec<(String, Net)>,
    /// `NetCost::of(net).l_peak()` per net, computed here — the floor no
    /// training plan may undercut — not read off the plan under test.
    l_peak: Vec<u64>,
    specs: Vec<DeviceSpec>,
    policies: Vec<Policy>,
    pub cells: Vec<Cell>,
    /// The seeded 5 % of cells whose plan peak is checked against an
    /// executed cold + warm iteration.
    sample: Vec<usize>,
    /// Wall time `sn-models` took to build the nets.
    build_s: f64,
}

/// The five hand presets plus single-knob departures from `superneurons()`
/// along every axis the autotuner searches; `Policy::validate()` filters the
/// lattice exactly as the tuner's does.
fn lattice() -> Vec<Policy> {
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
    for workspace in [WorkspacePolicy::None, WorkspacePolicy::Capped(64 * MB)] {
        p.push(Policy { workspace, ..sn });
    }
    p.retain(|p| p.validate().is_ok());
    p
}

fn eval_nets() -> Vec<(String, Net)> {
    let mut nets = Vec::new();
    for batch in [16, 32, 64] {
        nets.push((format!("AlexNet/b{batch}"), models::alexnet(batch)));
        nets.push((format!("VGG16/b{batch}"), models::vgg16(batch)));
        nets.push((format!("ResNet50/b{batch}"), models::resnet50(batch)));
        nets.push((format!("ResNet101/b{batch}"), models::resnet101(batch)));
        nets.push((format!("InceptionV4/b{batch}"), models::inception_v4(batch)));
        nets.push((format!("DenseNet/b{batch}"), models::densenet(batch, 32, 6)));
    }
    nets.push(("ResNet1000/b8".into(), models::resnet_depth(8, 1000)));
    nets.push(("GPT-Small/b8s128".into(), models::gpt_small(8, 128)));
    nets
}

#[cfg(test)]
impl Inputs {
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        for c in &self.cells {
            for w in [c.net, c.spec, c.policy, usize::from(c.inference)] {
                d.word(w as u64);
            }
        }
        self.sample.iter().for_each(|n| d.word(*n as u64));
        d.0
    }
}

pub struct PlanCold;

impl Workload for PlanCold {
    const NAME: &'static str = "plan_cold";
    const UNIT: &'static str = "plan";
    const WHY: &'static str = "every request is first contact: graph analyses, the plan walk and \
        the planning HeapPool do all the work; the memo, the executor and the cluster do none";
    const MEMO: MemoUse = MemoUse::None;
    type Inputs = Inputs;
    type State<'a> = State<'a>;

    fn generate(seed: u64, quick: bool) -> Inputs {
        let t = Instant::now();
        let nets = eval_nets();
        let build_s = t.elapsed().as_secs_f64();
        let l_peak = nets.iter().map(|(_, n)| NetCost::of(n).l_peak()).collect();
        let specs = vec![
            DeviceSpec::k40c(),
            DeviceSpec::k40c().with_dram(6 * GB),
            DeviceSpec::titan_xp(),
        ];
        let policies = lattice();
        let mut cells = Vec::new();
        for net in 0..nets.len() {
            for spec in 0..specs.len() {
                for policy in 0..policies.len() {
                    cells.push(Cell {
                        net,
                        spec,
                        policy,
                        inference: (net + spec + policy) % 4 == 0,
                    });
                }
            }
        }
        Rng::new(seed, 0x0c01d).shuffle(&mut cells);
        if quick {
            cells.truncate(cells.len() / 50);
        }
        let mut idx: Vec<usize> = (0..cells.len()).collect();
        Rng::new(seed, 0x5a3b1e).shuffle(&mut idx);
        idx.truncate(cells.len().div_ceil(20));
        Inputs {
            nets,
            l_peak,
            specs,
            policies,
            cells,
            sample: idx,
            build_s,
        }
    }

    fn set_up(inputs: &Inputs) -> State<'_> {
        let mut st = State { inputs };
        st.pass();
        st
    }
}

pub struct State<'a> {
    inputs: &'a Inputs,
}

impl State<'_> {
    fn compile(&self, c: &Cell) -> Result<CompiledPlan, ExecError> {
        let i = self.inputs;
        let (net, spec, policy) = (&i.nets[c.net].1, &i.specs[c.spec], i.policies[c.policy]);
        if c.inference {
            plan::compile_inference(net, spec, policy)
        } else {
            plan::compile(net, spec, policy)
        }
    }
}

impl Measured for State<'_> {
    fn pass(&mut self) -> PassResult {
        let i = self.inputs;
        plan::clear_all_caches();
        let mut r = PassResult::default();
        let mut d = Digest::new();
        let mut times = Vec::with_capacity(i.cells.len());
        for (n, c) in i.cells.iter().enumerate() {
            let out = trace::span("plan.compile", n as u64, || self.compile(c));
            r.units += 1;
            r.attempted += 1;
            r.cells += 1;
            match out {
                Ok(cp) => {
                    let p = &cp.plan;
                    let floor = if c.inference {
                        p.weight_bytes
                    } else {
                        i.l_peak[c.net]
                    };
                    let dram = i.specs[c.spec].dram_bytes;
                    if !(floor <= p.peak_bytes && p.peak_bytes <= dram) {
                        r.fail(|| {
                            format!(
                                "{} policy #{}: floor {floor} <= peak {} <= dram {dram} does not hold",
                                i.nets[c.net].0, c.policy, p.peak_bytes
                            )
                        });
                    }
                    let t = p.iter_time_estimate().0;
                    r.fit += 1;
                    r.sim_time_ns += t;
                    times.push(t);
                    d.word(p.peak_bytes);
                    d.word(p.n_ops() as u64);
                    d.word(t);
                }
                // A clean "does not fit" is an answer, not a failure.
                Err(ExecError::Oom { .. } | ExecError::HostExhausted { .. }) => d.word(0),
            }
        }
        r.sim_tail_ns = if times.len() >= 1000 {
            stats::nearest_rank(&mut times, 0.99)
        } else {
            times.iter().copied().max().unwrap_or(0)
        };
        r.digest = d.0;
        r
    }

    /// Plan peak == executed cold + warm peak, byte-exact, on the sample.
    fn verify(&mut self, checks: &mut Checks) {
        let i = self.inputs;
        for &n in &i.sample {
            let c = &i.cells[n];
            let (name, net) = &i.nets[c.net];
            let (spec, policy) = (&i.specs[c.spec], i.policies[c.policy]);
            let planned = self.compile(c).map(|cp| cp.plan.peak_bytes);
            let executed = if c.inference {
                Executor::new_inference(net, spec.clone(), policy)
            } else {
                Executor::new(net, spec.clone(), policy)
            }
            .and_then(|mut ex| {
                let cold = ex.run_iteration()?;
                let warm = ex.run_iteration()?;
                Ok(cold.peak_bytes.max(warm.peak_bytes))
            });
            let same = match (&planned, &executed) {
                (Ok(a), Ok(b)) => a == b,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            checks.check(same, || {
                format!(
                    "{name} on {} policy #{}: planned {planned:?}, executed {executed:?}",
                    spec.name, c.policy
                )
            });
        }
    }

    fn layer_metrics(&mut self, spans: &[SpanRec], out: &mut Values) {
        let i = self.inputs;
        let nets = i.nets.len() as u64;
        out.set("models.build_ms", i.build_s * 1e3, nets);

        let graph_s = graph_probe(&i.nets, out);

        // sn-runtime::plan, from the spans around every compile.
        let us: Vec<f64> = trace::durations(spans, "plan.compile")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        let passes = spans.iter().filter(|s| s.name == "pass").count().max(1);
        let pass_s = us.iter().sum::<f64>() / 1e6 / passes as f64;
        out.set("plan.compile_us_p50", stats::median(&us), us.len() as u64);
        out.set(
            "plan.compile_us_p99",
            stats::quantile(&us, 0.99),
            us.len() as u64,
        );
        out.set("plan.analysis_share", graph_s / pass_s, passes as u64);
        let (mut ops, mut peaks, mut plans) = (0u64, 0u64, 0u64);
        let mut replay: Option<CompiledPlan> = None;
        for c in &i.cells {
            if let Ok(cp) = self.compile(c) {
                ops += cp.plan.n_ops() as u64;
                peaks += cp.plan.peak_bytes;
                plans += 1;
                let bigger = replay
                    .as_ref()
                    .is_none_or(|r| cp.plan.n_ops() > r.plan.n_ops());
                if bigger && !c.inference {
                    replay = Some(cp);
                }
            }
        }
        out.set("plan.ops_per_plan", ops as f64 / plans.max(1) as f64, plans);
        out.set("plan.peak_bytes_sum", peaks as f64, plans);

        if let Some(cp) = replay {
            mempool_replay(&cp, out);
        }
        tune_probe(out);
    }
}

/// sn-runtime::tune has no workload; one CNN and one transformer search run
/// here, single-worker, for the layer's numbers only.
fn tune_probe(out: &mut Values) {
    let cells = [
        (models::resnet50(32), DeviceSpec::k40c().with_dram(6 * GB)),
        (models::gpt_small(8, 128), DeviceSpec::titan_xp()),
    ];
    let cfg = TuneConfig::new(1, Interconnect::pcie()).with_workers(1);
    let (mut evals, mut pruned, mut searches) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    for (net, spec) in &cells {
        if let Ok(o) = trace::span("tune.search", searches, || tune::search(net, spec, &cfg)) {
            evals += o.tuned.evals;
            pruned += o.tuned.pruned;
            searches += 1;
        }
    }
    out.set("tune.search_ms", t.elapsed().as_secs_f64() * 1e3, searches);
    out.set("tune.evals", evals as f64, searches);
    out.set("tune.pruned", pruned as f64, searches);
}

/// sn-graph, called directly: one analysis of each kind per net — what a pass
/// pays once per net after `clear_all_caches()`. Returns the seconds all of
/// them took together.
fn graph_probe(nets: &[(String, Net)], out: &mut Values) -> f64 {
    let (mut route_s, mut cost_s, mut live_s, mut layers) = (0.0, 0.0, 0.0, 0u64);
    let opts = Policy::superneurons().liveness_options();
    for (_, net) in nets {
        let t = Instant::now();
        let route = trace::span("graph.route", 0, || Route::construct(net));
        route_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let cost = trace::span("graph.cost", 0, || NetCost::of(net));
        cost_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let live = trace::span("graph.liveness", 0, || {
            LivenessPlan::analyze(net, &route, opts)
        });
        live_s += t.elapsed().as_secs_f64();
        std::hint::black_box((&cost, &live));
        layers += net.len() as u64;
    }
    let n = nets.len() as u64;
    let per_net = 1e6 / n as f64;
    out.set("graph.route_us_per_net", route_s * per_net, n);
    out.set("graph.cost_us_per_net", cost_s * per_net, n);
    out.set("graph.liveness_us_per_net", live_s * per_net, n);
    out.set("graph.layers", layers as f64, n);
    route_s + cost_s + live_s
}

/// sn-mempool, called directly: the largest plan's alloc/free sequence
/// replayed against a fresh `HeapPool` of the card's size.
fn mempool_replay(cp: &CompiledPlan, out: &mut Values) {
    let sizes: Vec<u64> = cp.liveness.tensors.iter().map(|t| t.bytes).collect();
    let mut pool = HeapPool::with_capacity(12 * GB);
    let mut live = vec![None; sizes.len()];
    let (mut ops, mut failed, mut frag_min) = (0u64, 0u64, u64::MAX);
    let t = Instant::now();
    trace::span("mempool.replay", 0, || {
        let weights = pool.alloc(cp.plan.weight_bytes.max(1)).ok();
        for op in &cp.plan.ops {
            match *op {
                PlanOp::Alloc(t) | PlanOp::Fetch(t) if live[t.0].is_none() => {
                    ops += 1;
                    match pool.alloc(sizes[t.0].max(1)) {
                        Ok(g) => live[t.0] = Some(g.id),
                        Err(_) => failed += 1,
                    }
                    frag_min = frag_min.min(pool.largest_fragment());
                }
                PlanOp::Free(t) | PlanOp::ReleaseDevice(t) | PlanOp::Offload { t, evict: true } => {
                    if let Some(id) = live[t.0].take() {
                        ops += 1;
                        pool.free(id).expect("live grants free cleanly");
                    }
                }
                _ => {}
            }
        }
        std::hint::black_box(weights);
    });
    let dt = t.elapsed().as_secs_f64();
    out.set("mempool.ns_per_op", dt * 1e9 / ops.max(1) as f64, ops);
    out.set("mempool.ops", ops as f64, 1);
    out.set("mempool.failed_allocs", failed as f64, ops);
    out.set(
        "mempool.largest_fragment_min",
        if frag_min == u64::MAX {
            0.0
        } else {
            frag_min as f64
        },
        ops,
    );
}
