//! `plan_reuse` — the same planner layer reached the other way round.
//!
//! One pre-generated sequence of `plan_prediction` /
//! `plan_prediction_inference` calls, the admission ladder's hot path, with
//! cubic-skew popularity over 6 912 keys (72 towers × 4 presets × 24 DRAM
//! caps): 1.7× the plan memo's 4 096-entry cap. Key construction, hashing,
//! `Arc` clones and — because the key set exceeds the cap — the overflow
//! policy do the work. A unit is one prediction.
//!
//! Each pass starts from an empty memo (`clear_plan_memo()`; the analysis
//! cache stays warm, the steady state of admission) and replays the whole
//! sequence, so every pass is the same work. How often each key occurs is
//! fixed; the seed decides the order.

use superneurons::graph::Net;
use superneurons::runtime::{
    plan, plan_prediction, plan_prediction_inference, ExecError, PeakPrediction, Policy,
};
use superneurons::sim::DeviceSpec;

use super::{tower, Digest, MB};
use crate::harness::{Checks, Measured, MemoUse, PassResult, Workload};
use crate::metrics::Values;
use crate::rng::Rng;
use crate::stats;
use crate::trace::{self, SpanRec};

const PRESETS: usize = 4;
const CAPS: usize = 24;
/// Predictions per pass at full size.
const CALLS: usize = 60_000;
/// Maps popularity rank to key: odd and not a multiple of 3, so a bijection
/// on the 2^8·3^3 keys; spreads the hot ranks over towers, presets and caps.
const SCRAMBLE: usize = 4099;

pub struct Inputs {
    towers: Vec<Net>,
    presets: [Policy; PRESETS],
    specs: Vec<DeviceSpec>,
    /// Key index per call.
    seq: Vec<u32>,
    /// Keys whose memoized answer is compared with a fresh compile.
    sample: Vec<u32>,
}

impl Inputs {
    fn keys(&self) -> usize {
        self.towers.len() * PRESETS * CAPS
    }

    fn predict(&self, key: u32) -> Result<PeakPrediction, ExecError> {
        let (tower, policy, spec, inference) = self.parts(key);
        if inference {
            plan_prediction_inference(tower, spec, policy)
        } else {
            plan_prediction(tower, spec, policy)
        }
    }

    fn parts(&self, key: u32) -> (&Net, Policy, &DeviceSpec, bool) {
        let k = key as usize;
        let (t, p, c) = (k / (PRESETS * CAPS), k / CAPS % PRESETS, k % CAPS);
        // One tower in three is served forward-only, like one job in three.
        (&self.towers[t], self.presets[p], &self.specs[c], t % 3 == 0)
    }
}

/// How often each popularity rank occurs among `calls` draws of
/// `rank = ⌊keys · u³⌋`, `u` uniform — as exact counts, not samples, so that
/// the multiset of requests is the same for every seed.
fn rank_counts(keys: usize, calls: usize) -> Vec<usize> {
    let cdf = |r: usize| ((r as f64 / keys as f64).cbrt() * calls as f64).floor() as usize;
    (0..keys).map(|r| cdf(r + 1) - cdf(r)).collect()
}

#[cfg(test)]
impl Inputs {
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        self.seq
            .iter()
            .chain(&self.sample)
            .for_each(|k| d.word(u64::from(*k)));
        d.0
    }
}

pub struct PlanReuse;

impl Workload for PlanReuse {
    const NAME: &'static str = "plan_reuse";
    const UNIT: &'static str = "prediction";
    const WHY: &'static str = "repeated keys over a set 1.7x the memo's cap: key construction, \
        hashing, Arc clones and the overflow policy do the work; the plan walk only on a miss";
    const MEMO: MemoUse = MemoUse::Own;
    type Inputs = Inputs;
    type State<'a> = State<'a>;

    fn generate(seed: u64, quick: bool) -> Inputs {
        // The smoke scale shrinks the key set with the calls, or nearly
        // every call would be a first contact.
        let (widths, depths, batches): (&[usize], &[usize], &[usize]) = if quick {
            (&[8], &[2, 3], &[8])
        } else {
            (&[8, 16, 24, 32, 48, 64], &[2, 3, 4, 5], &[8, 16, 32])
        };
        let mut towers = Vec::new();
        for &width in widths {
            for &depth in depths {
                for &batch in batches {
                    towers.push(tower(width, depth, batch));
                }
            }
        }
        let specs = (0..CAPS as u64)
            .map(|i| DeviceSpec::k40c().with_dram((16 + 8 * i) * MB))
            .collect();
        let mut inputs = Inputs {
            towers,
            presets: [
                Policy::liveness_only(),
                Policy::liveness_offload(),
                Policy::full_memory(),
                Policy::superneurons(),
            ],
            specs,
            seq: Vec::new(),
            sample: Vec::new(),
        };
        let keys = inputs.keys();
        let calls = if quick { CALLS / 50 } else { CALLS };
        for (rank, n) in rank_counts(keys, calls).into_iter().enumerate() {
            let key = (rank * SCRAMBLE % keys) as u32;
            inputs.seq.extend(std::iter::repeat_n(key, n));
        }
        Rng::new(seed, 0x5e9).shuffle(&mut inputs.seq);
        let mut rng = Rng::new(seed, 0x5a3b1e);
        inputs.sample = (0..keys / 20).map(|_| rng.below(keys) as u32).collect();
        inputs
    }

    fn set_up(inputs: &Inputs) -> State<'_> {
        let mut st = State {
            inputs,
            expect: vec![None; inputs.keys()],
            hits: Vec::new(),
            last: plan::plan_memo_stats(),
            entries_max: 0,
            wipes: 0,
        };
        st.pass();
        st
    }
}

/// A prediction reduced to what two calls for one key must agree on.
type Answer = Option<(u64, u64)>;

fn answer(r: &Result<PeakPrediction, ExecError>) -> Answer {
    r.as_ref().ok().map(|p| (p.peak_bytes, p.iter_time.0))
}

pub struct State<'a> {
    inputs: &'a Inputs,
    /// First answer seen per key; every later one must equal it.
    expect: Vec<Option<Answer>>,
    /// Traced passes only: was call `n` a hit?
    hits: Vec<bool>,
    last: plan::MemoStats,
    entries_max: usize,
    wipes: u64,
}

impl Measured for State<'_> {
    fn pass(&mut self) -> PassResult {
        let i = self.inputs;
        plan::clear_plan_memo();
        let tracing = trace::on();
        let mut seen = plan::plan_memo_stats();
        let mut r = PassResult::default();
        let mut d = Digest::new();
        let mut times = Vec::with_capacity(i.seq.len());
        for (n, &key) in i.seq.iter().enumerate() {
            let out = trace::span("plan.predict", n as u64, || i.predict(key));
            if tracing {
                // One stats read per call: which way it went, and whether
                // the memo was wiped since the last look.
                let now = plan::plan_memo_stats();
                self.hits.push(now.hits > seen.hits);
                self.entries_max = self.entries_max.max(now.entries);
                if now.entries < seen.entries {
                    self.wipes += 1;
                }
                seen = now;
            }
            let a = answer(&out);
            r.units += 1;
            r.attempted += 1;
            r.cells += 1;
            match self.expect[key as usize] {
                None => self.expect[key as usize] = Some(a),
                Some(e) if e != a => r.fail(|| format!("key {key}: answered {a:?}, earlier {e:?}")),
                Some(_) => {}
            }
            if let Some((peak, t)) = a {
                r.fit += 1;
                r.sim_time_ns += t;
                times.push(t);
                d.word(peak);
                d.word(t);
            } else {
                d.word(0);
            }
        }
        self.last = plan::plan_memo_stats();
        // Layer contrast: a workload about reuse must mostly reuse.
        r.attempted += 1;
        let (memo, calls) = (self.last, r.units);
        if memo.misses * 2 > calls || memo.hits + memo.misses != calls {
            r.fail(|| format!("{calls} predictions but memo counters {memo:?}"));
        }
        r.sim_tail_ns = stats::nearest_rank(&mut times, 0.99);
        d.word(self.last.hits);
        d.word(self.last.misses);
        r.digest = d.0;
        r
    }

    /// A memo hit must be the plan a fresh compile produces: same peak, same
    /// op count, same rendered op stream.
    fn verify(&mut self, checks: &mut Checks) {
        let i = self.inputs;
        let digest = |s: String| {
            let mut d = Digest::new();
            d.bytes(s.as_bytes());
            d.0
        };
        for &key in &i.sample {
            let (net, policy, spec, inference) = i.parts(key);
            let (memo, fresh) = if inference {
                (
                    plan::compile_inference_memo(net, spec, policy),
                    plan::compile_inference(net, spec, policy),
                )
            } else {
                (
                    plan::compile_memo(net, spec, policy),
                    plan::compile(net, spec, policy),
                )
            };
            let same = match (&memo, &fresh) {
                (Ok(m), Ok(f)) => {
                    m.plan.peak_bytes == f.plan.peak_bytes
                        && m.plan.n_ops() == f.plan.n_ops()
                        && digest(m.plan.render(net)) == digest(f.plan.render(net))
                }
                (Err(_), Err(_)) => true,
                _ => false,
            };
            checks.check(same, || {
                format!("key {key}: memoized plan != fresh compile")
            });
        }
    }

    fn layer_metrics(&mut self, spans: &[SpanRec], out: &mut Values) {
        let lookups = self.last.hits + self.last.misses;
        out.set(
            "plan.memo_hit_share",
            self.last.hits as f64 / lookups.max(1) as f64,
            lookups,
        );
        let ns = trace::durations(spans, "plan.predict");
        let (mut hit, mut miss) = (Vec::new(), Vec::new());
        for (t, &h) in ns.iter().zip(&self.hits) {
            if h {
                hit.push(*t);
            } else {
                miss.push(*t / 1e3);
            }
        }
        out.set(
            "plan.memo_hit_ns_p50",
            stats::median(&hit),
            hit.len() as u64,
        );
        out.set(
            "plan.memo_miss_us_p50",
            stats::median(&miss),
            miss.len() as u64,
        );
        out.set(
            "plan.memo_entries_max",
            self.entries_max as f64,
            ns.len() as u64,
        );
        out.set("plan.memo_wipes", self.wipes as f64, ns.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_counts_sum_to_the_calls_and_skew_to_the_head() {
        let c = rank_counts(6912, 60_000);
        assert_eq!(c.iter().sum::<usize>(), 60_000);
        assert!(c[0] > 100 * c[6911].max(1));
        // The key set a pass touches exceeds the memo's 4 096-entry cap.
        assert!(c.iter().filter(|n| **n > 0).count() > 4096);
    }

    #[test]
    fn scramble_is_a_bijection() {
        let keys = 72 * PRESETS * CAPS;
        let mut seen = vec![false; keys];
        for r in 0..keys {
            seen[r * SCRAMBLE % keys] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
