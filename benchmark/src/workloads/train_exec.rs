//! `train_exec` — the plan interpreter, nothing else.
//!
//! Plans are compiled once in set-up; each pass then runs a fixed number of
//! warm `Executor::run_iteration` calls on the paper's Table 4/5 regime — a
//! 1000- and a 1920-layer ResNet under `Policy::superneurons()` on a 12 GB
//! K40c, where offload, prefetch and recomputation are all active — plus a
//! memory-constrained VGG16 and one step of a 4-replica PCIe gang. The plan
//! interpreter, the UTP / Tensor Cache, the runtime `HeapPool` and the
//! multi-stream `Timeline` do the work; planner and memo do nothing after
//! set-up. A unit is one executed layer-step (a replica's step counts once).
//!
//! The nets are the paper's and do not vary; the seed decides the order the
//! iterations interleave in.

use std::time::Instant;

use superneurons::graph::{Net, NetCost};
use superneurons::models;
use superneurons::runtime::{
    Executor, GroupConfig, GroupExecutor, GroupIterationReport, Interconnect, IterationReport,
    Policy,
};
use superneurons::sim::{DeviceSpec, EngineKind, SimTime, StreamId, Timeline};
use superneurons::{MetricsRegistry, TraceSink};

use super::{Digest, GB};
use crate::harness::{Checks, Measured, MemoUse, PassResult, Workload};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, SpanRec};

const REPLICAS: usize = 4;

/// What a pass runs one iteration of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Index into the single-device executors.
    Solo(usize),
    Gang,
}

pub struct Inputs {
    /// Single-device cells: net, card, display name.
    solo: Vec<(Net, DeviceSpec, &'static str)>,
    gang_net: Net,
    /// One pass, in seeded order.
    schedule: Vec<Slot>,
}

#[cfg(test)]
impl Inputs {
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        for slot in &self.schedule {
            d.word(match slot {
                Slot::Solo(i) => *i as u64,
                Slot::Gang => u64::MAX,
            });
        }
        d.0
    }
}

pub struct TrainExec;

impl Workload for TrainExec {
    const NAME: &'static str = "train_exec";
    const UNIT: &'static str = "layer-step";
    const WHY: &'static str = "plans compiled once in set-up, then warm iterations: the plan \
        interpreter, UTP/Tensor Cache, runtime HeapPool and Timeline do the work; planner and \
        memo do none";
    const MEMO: MemoUse = MemoUse::HitsOnly;
    type Inputs = Inputs;
    type State<'a> = State<'a>;

    fn generate(seed: u64, quick: bool) -> Inputs {
        let k40 = DeviceSpec::k40c();
        let (solo, gang_net, counts): (Vec<_>, Net, &[usize]) = if quick {
            (
                vec![
                    (models::resnet_depth(16, 200), k40.clone(), "ResNet200/b16"),
                    (models::vgg16(16), k40.with_dram(2 * GB), "VGG16/b16@2GB"),
                ],
                models::alexnet(16),
                &[1, 1],
            )
        } else {
            (
                vec![
                    (
                        models::resnet_depth(16, 1000),
                        k40.clone(),
                        "ResNet1000/b16",
                    ),
                    (
                        models::resnet_depth(16, 1920),
                        k40.clone(),
                        "ResNet1920/b16",
                    ),
                    (models::vgg16(64), k40.with_dram(4 * GB), "VGG16/b64@4GB"),
                ],
                models::resnet50(32),
                &[1, 1, 2],
            )
        };
        let mut schedule = vec![Slot::Gang];
        for (i, n) in counts.iter().enumerate() {
            schedule.extend(std::iter::repeat_n(Slot::Solo(i), *n));
        }
        Rng::new(seed, 0x7ea1).shuffle(&mut schedule);
        Inputs {
            solo,
            gang_net,
            schedule,
        }
    }

    fn set_up(inputs: &Inputs) -> State<'_> {
        let t = Instant::now();
        let mut plain = Rig::build(inputs);
        let cold_iter_s = t.elapsed().as_secs_f64();
        // The closed form the gang's wire bytes must equal, from the graph
        // crate's weight bytes — not from `ring_allreduce_wire_bytes`.
        let grad = NetCost::of(&inputs.gang_net).total_weight_bytes() as u128;
        let k = REPLICAS as u128;
        let ring_bytes = ((4 * (k - 1) * grad + k) / (2 * k)) as u64;
        let (warm_solo, warm_gang) = plain.warm();
        let mut st = State {
            inputs,
            plain,
            telemetry: None,
            telemetry_on: false,
            cold_iter_s,
            ring_bytes,
            warm_solo,
            warm_gang,
        };
        st.pass();
        st
    }
}

/// One set of interpreters over the inputs.
struct Rig<'a> {
    solo: Vec<Executor<'a>>,
    gang: GroupExecutor<'a>,
}

impl<'a> Rig<'a> {
    /// Compile every plan, build the interpreters and run the cold iteration
    /// of each.
    fn build(inputs: &'a Inputs) -> Rig<'a> {
        let policy = Policy::superneurons();
        let mut solo: Vec<Executor<'a>> = inputs
            .solo
            .iter()
            .map(|(net, spec, name)| {
                Executor::new(net, spec.clone(), policy)
                    .unwrap_or_else(|e| panic!("{name} must fit its card: {e}"))
            })
            .collect();
        let cfg = GroupConfig::new(REPLICAS, Interconnect::pcie());
        let mut gang = GroupExecutor::new(&inputs.gang_net, DeviceSpec::k40c(), policy, cfg)
            .unwrap_or_else(|e| panic!("the gang must fit its cards: {e}"));
        for ex in &mut solo {
            ex.run_iteration().expect("cold iteration");
        }
        gang.run_iteration().expect("cold gang step");
        Rig { solo, gang }
    }

    /// Point the program's own tracing at `sink`.
    fn trace_into(&mut self, sink: &TraceSink) {
        for (i, ex) in self.solo.iter_mut().enumerate() {
            ex.enable_tracing(sink, &format!("device {i}"));
        }
        self.gang.enable_tracing(sink);
    }

    /// Switch the program's own metrics on (there is no switching them off).
    fn meter_into(&mut self, registry: &MetricsRegistry) {
        for ex in &mut self.solo {
            ex.enable_metrics(registry);
        }
        self.gang.enable_metrics(registry);
    }

    /// One iteration of everything; returns what each reported.
    fn warm(&mut self) -> (Vec<Option<IterationReport>>, Option<GroupIterationReport>) {
        let solo = self
            .solo
            .iter_mut()
            .map(|ex| ex.run_iteration().ok())
            .collect();
        (solo, self.gang.run_iteration().ok())
    }
}

pub struct State<'a> {
    inputs: &'a Inputs,
    plain: Rig<'a>,
    /// Built on first use: the same interpreters with the program's own
    /// tracing and metrics on (there is no way to switch metrics off again).
    telemetry: Option<(Rig<'a>, TraceSink, MetricsRegistry)>,
    telemetry_on: bool,
    /// Compile + build + cold iteration of everything, wall seconds.
    cold_iter_s: f64,
    ring_bytes: u64,
    /// The first warm iteration of each interpreter; every later one must
    /// report the same simulated numbers.
    warm_solo: Vec<Option<IterationReport>>,
    warm_gang: Option<GroupIterationReport>,
}

/// The simulated fields of a report, for digests and equality.
fn fold(d: &mut Digest, r: &IterationReport) {
    let c = &r.counters;
    for w in [
        r.iter_time.0,
        r.peak_bytes,
        r.h2d_bytes,
        r.d2h_bytes,
        r.link_bytes,
        r.alloc_calls,
        r.stall.0,
        r.compute_busy.0,
        r.transfer_busy.0,
        r.overlapped.0,
        c.recompute_forwards,
        c.offloads,
        c.prefetches,
        c.evictions,
        c.cache_hits,
        c.cache_misses,
    ] {
        d.word(w);
    }
}

fn digest_of(r: &IterationReport) -> u64 {
    let mut d = Digest::new();
    fold(&mut d, r);
    d.0
}

impl Measured for State<'_> {
    fn pass(&mut self) -> PassResult {
        let i = self.inputs;
        let rig = match (&mut self.telemetry, self.telemetry_on) {
            (Some((rig, _, _)), true) => rig,
            _ => &mut self.plain,
        };
        let mut r = PassResult::default();
        let mut d = Digest::new();
        for (n, slot) in i.schedule.iter().enumerate() {
            r.attempted += 1;
            r.cells += 1;
            let sim = match *slot {
                Slot::Solo(e) => {
                    let ex = &mut rig.solo[e];
                    let out = trace::span("exec.iteration", e as u64, || ex.run_iteration());
                    r.units += ex.route.total_steps() as u64;
                    out.ok().map(|rep| {
                        // Plan peak == executed peak to the byte, and a warm
                        // iteration repeats the first warm one exactly.
                        let same = self.warm_solo[e]
                            .as_ref()
                            .is_some_and(|w| digest_of(w) == digest_of(&rep));
                        if rep.peak_bytes != ex.mplan.peak_bytes || !same {
                            r.fail(|| {
                                format!(
                                    "{}: peak {} vs plan {}, repeats the first warm iteration: {same}",
                                    i.solo[e].2, rep.peak_bytes, ex.mplan.peak_bytes
                                )
                            });
                        }
                        fold(&mut d, &rep);
                        rep.iter_time
                    })
                }
                Slot::Gang => {
                    let gx = &mut rig.gang;
                    let out = trace::span("group.iteration", n as u64, || gx.run_iteration());
                    r.units += (gx.replica(0).route.total_steps() * REPLICAS) as u64;
                    out.ok().map(|rep| {
                        let same = self.warm_gang.as_ref().is_some_and(|w| {
                            w.step_time == rep.step_time
                                && digest_of(&w.replica) == digest_of(&rep.replica)
                        });
                        if !rep.peaks_match || rep.wire_bytes != self.ring_bytes || !same {
                            r.fail(|| {
                                format!(
                                    "gang: peaks match {}, wire {} vs closed form {}, repeats: {same}",
                                    rep.peaks_match, rep.wire_bytes, self.ring_bytes
                                )
                            });
                        }
                        fold(&mut d, &rep.replica);
                        d.word(rep.wire_bytes);
                        d.word(rep.allreduce_busy.0);
                        d.word(rep.allreduce_hidden.0);
                        rep.step_time
                    })
                }
            };
            match sim {
                Some(SimTime(ns)) => {
                    r.fit += 1;
                    r.sim_time_ns += ns;
                    r.sim_tail_ns = r.sim_tail_ns.max(ns);
                }
                None => r.fail(|| format!("slot {n} ({slot:?}): iteration failed")),
            }
        }
        r.digest = d.0;
        r
    }

    /// The telemetry-on interpreters must simulate exactly what the plain
    /// ones do: observing a run may not change it.
    fn verify(&mut self, checks: &mut Checks) {
        self.telemetry(true);
        let on = self.pass();
        self.telemetry(false);
        let off = self.pass();
        checks.check(on == off, || {
            format!("telemetry changed the simulation: {on:?} vs {off:?}")
        });
    }

    fn telemetry(&mut self, on: bool) -> bool {
        self.telemetry_on = on;
        if on {
            // A fresh sink each time, so recorded spans do not pile up over
            // the passes of a long run.
            let sink = TraceSink::recording();
            let inputs = self.inputs;
            let (rig, held, _) = self.telemetry.get_or_insert_with(|| {
                let registry = MetricsRegistry::new();
                let mut rig = Rig::build(inputs);
                rig.meter_into(&registry);
                // Past the first warm iteration, like the plain rig.
                rig.warm();
                (rig, TraceSink::off(), registry)
            });
            rig.trace_into(&sink);
            *held = sink;
        }
        true
    }

    fn layer_metrics(&mut self, spans: &[SpanRec], out: &mut Values) {
        // Host side, from the spans around every iteration.
        let solo: Vec<&SpanRec> = spans
            .iter()
            .filter(|s| s.name == "exec.iteration")
            .collect();
        let first: Vec<f64> = solo
            .iter()
            .filter(|s| s.request == 0)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        out.set(
            "exec.us_per_iter_p50",
            stats::median(&first),
            first.len() as u64,
        );
        let steps: u64 = solo
            .iter()
            .map(|s| self.plain.solo[s.request as usize].route.total_steps() as u64)
            .sum();
        let busy_s = solo.iter().map(|s| s.dur_ns()).sum::<u64>() as f64 / 1e9;
        out.set("exec.steps_per_s", steps as f64 / busy_s, solo.len() as u64);
        out.set("exec.cold_iter_ms", self.cold_iter_s * 1e3, 1);
        let gang: Vec<f64> = trace::durations(spans, "group.iteration")
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        out.set(
            "group.us_per_iter_p50",
            stats::median(&gang),
            gang.len() as u64,
        );

        // Simulated side, exact: one warm iteration of every single-device
        // cell, summed (peak: the largest).
        let warm: Vec<&IterationReport> = self.warm_solo.iter().flatten().collect();
        let n = warm.len() as u64;
        let sum =
            |f: &dyn Fn(&IterationReport) -> u64| warm.iter().map(|r| f(r)).sum::<u64>() as f64;
        out.set("exec.sim_iter_ms", sum(&|r| r.iter_time.0) / 1e6, n);
        out.set(
            "exec.sim_peak_bytes",
            warm.iter().map(|r| r.peak_bytes).max().unwrap_or(0) as f64,
            n,
        );
        out.set(
            "exec.sim_pcie_bytes",
            sum(&|r| r.h2d_bytes + r.d2h_bytes),
            n,
        );
        out.set("exec.sim_stall_ms", sum(&|r| r.stall.0) / 1e6, n);
        let moved = sum(&|r| r.transfer_busy.0);
        out.set(
            "exec.overlap_share",
            if moved > 0.0 {
                sum(&|r| r.overlapped.0) / moved
            } else {
                0.0
            },
            n,
        );
        out.set(
            "exec.recompute_forwards",
            sum(&|r| r.counters.recompute_forwards),
            n,
        );
        out.set("exec.offloads", sum(&|r| r.counters.offloads), n);
        out.set("exec.prefetches", sum(&|r| r.counters.prefetches), n);
        out.set("exec.evictions", sum(&|r| r.counters.evictions), n);
        if let Some(g) = &self.warm_gang {
            out.set(
                "group.sim_exposed_comm_ms",
                g.exposed_comm().0 as f64 / 1e6,
                1,
            );
            out.set("group.wire_bytes", g.wire_bytes as f64, 1);
        }

        timeline_probe(out);
        self.telemetry_probe(out);
    }
}

impl State<'_> {
    /// sn-telemetry, called directly: what one pass records with the
    /// program's tracing on, and what exporting it costs.
    fn telemetry_probe(&mut self, out: &mut Values) {
        self.telemetry(true);
        self.pass();
        self.telemetry(false);
        let Some((_, sink, _)) = &self.telemetry else {
            return;
        };
        let spans = sink.data().spans.len();
        let t = Instant::now();
        let json = trace::span("telemetry.export", 0, || sink.export_chrome_json());
        out.set("telemetry.export_ms", t.elapsed().as_secs_f64() * 1e3, 1);
        out.set("telemetry.spans", spans as f64, 1);
        out.set("telemetry.export_bytes", json.len() as f64, 1);
    }
}

/// sn-sim, called directly: kernel submits interleaved with gated DMA
/// submits on a bare `Timeline`, and the syncs that drain them.
fn timeline_probe(out: &mut Values) {
    const ROUNDS: u64 = 200_000;
    let mut tl = Timeline::new();
    let t = Instant::now();
    trace::span("sim.submit", 0, || {
        for i in 0..ROUNDS {
            let k = tl.submit(EngineKind::Compute, SimTime(1_000 + i % 7));
            let d = tl.transfer_on(StreamId::D2H, 1 << 20, 8.0, &[k]);
            tl.transfer_on(StreamId::H2D, 1 << 20, 8.0, &[d.event]);
        }
    });
    out.set(
        "sim.submit_ns",
        t.elapsed().as_secs_f64() * 1e9 / (3 * ROUNDS) as f64,
        3 * ROUNDS,
    );
    let t = Instant::now();
    trace::span("sim.sync", 0, || {
        for i in 0..ROUNDS {
            let k = tl.submit(EngineKind::Compute, SimTime(1_000 + i % 7));
            tl.wait(k);
            tl.sync_all();
        }
    });
    std::hint::black_box(tl.now());
    out.set(
        "sim.sync_ns",
        t.elapsed().as_secs_f64() * 1e9 / (2 * ROUNDS) as f64,
        2 * ROUNDS,
    );
}
