//! The metric catalogue — every name the benchmark prints, with its unit and
//! direction — and the value store a run fills in. `BENCHMARK.json` is
//! generated from it (`sn-benchmark manifest`).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
    /// Must read the same to the last digit on every run of one seed.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Bounds: the larger of the floor the
/// metric's definition allows (10 % host time and footprint, 0.5 % counts and
/// simulated quantities, 25 % set-up) and 3× the largest inter-quartile spread
/// any workload showed over ten seeds (BASELINE.md): `plan_reuse` sets
/// `ref_cost`'s, `serve_mixed` the counts' and the simulated times'.
pub const END_TO_END: &[Def] = &[
    e2e("ref_cost", "ref/pass", Lower, 0.20, false),
    e2e("allocs_per_unit", "1/unit", Lower, 0.10, true),
    e2e("alloc_bytes_per_unit", "B/unit", Lower, 0.10, true),
    e2e("peak_rss_mb", "MiB", Lower, 0.10, false),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("ok_share", "share", Higher, 0.005, true),
    e2e("fit_share", "share", Higher, 0.005, true),
    e2e("sim_time_s", "sim_s", Lower, 0.05, true),
    e2e("sim_tail_s", "sim_s", Lower, 0.15, true),
];

/// Single layers, from the traced run. No bounds.
pub const PER_LAYER: &[Def] = &[
    // sn-models
    layer("models.build_ms", "ms", Lower),
    // sn-graph
    layer("graph.route_us_per_net", "us", Lower),
    layer("graph.cost_us_per_net", "us", Lower),
    layer("graph.liveness_us_per_net", "us", Lower),
    layer("graph.layers", "count", Lower),
    // sn-runtime::plan — compiler
    layer("plan.compile_us_p50", "us", Lower),
    layer("plan.compile_us_p99", "us", Lower),
    layer("plan.ops_per_plan", "count", Lower),
    layer("plan.peak_bytes_sum", "B", Lower),
    layer("plan.analysis_share", "share", Lower),
    // sn-runtime::plan — memo
    layer("plan.memo_hit_share", "share", Higher),
    layer("plan.memo_hit_ns_p50", "ns", Lower),
    layer("plan.memo_miss_us_p50", "us", Lower),
    layer("plan.memo_entries_max", "count", Higher),
    layer("plan.memo_wipes", "count", Lower),
    // sn-mempool
    layer("mempool.ns_per_op", "ns", Lower),
    layer("mempool.ops", "count", Lower),
    layer("mempool.failed_allocs", "count", Lower),
    layer("mempool.largest_fragment_min", "B", Higher),
    // sn-sim
    layer("sim.submit_ns", "ns", Lower),
    layer("sim.sync_ns", "ns", Lower),
    // sn-runtime::executor
    layer("exec.us_per_iter_p50", "us", Lower),
    layer("exec.steps_per_s", "1/s", Higher),
    layer("exec.cold_iter_ms", "ms", Lower),
    layer("exec.sim_iter_ms", "sim_ms", Lower),
    layer("exec.sim_peak_bytes", "B", Lower),
    layer("exec.sim_pcie_bytes", "B", Lower),
    layer("exec.sim_stall_ms", "sim_ms", Lower),
    layer("exec.overlap_share", "share", Higher),
    layer("exec.recompute_forwards", "count", Lower),
    layer("exec.offloads", "count", Lower),
    layer("exec.prefetches", "count", Lower),
    layer("exec.evictions", "count", Lower),
    // sn-runtime::group
    layer("group.us_per_iter_p50", "us", Lower),
    layer("group.sim_exposed_comm_ms", "sim_ms", Lower),
    layer("group.wire_bytes", "B", Lower),
    // sn-cluster
    layer("cluster.events", "count", Lower),
    layer("cluster.events_per_s", "1/s", Higher),
    layer("cluster.profile_us_p50", "us", Lower),
    layer("cluster.gang_step_us_p50", "us", Lower),
    layer("cluster.gangs_measured", "count", Lower),
    layer("cluster.peak_live_jobs", "count", Lower),
    layer("cluster.sim_p50_ms", "sim_ms", Lower),
    layer("cluster.sim_p99_ms", "sim_ms", Lower),
    layer("cluster.sim_p999_ms", "sim_ms", Lower),
    layer("cluster.sim_mean_queue_ms", "sim_ms", Lower),
    layer("cluster.sim_compute_util", "share", Higher),
    layer("cluster.sim_mem_util", "share", Higher),
    layer("cluster.restarts", "count", Lower),
    layer("cluster.wasted_iterations", "count", Lower),
    layer("cluster.rejected", "count", Lower),
    layer("cluster.failed", "count", Lower),
    layer("bench.gen_late_ms", "ms", Lower),
    // sn-telemetry
    layer("telemetry.on_cost_ratio", "ratio", Lower),
    layer("telemetry.spans", "count", Lower),
    layer("telemetry.export_ms", "ms", Lower),
    layer("telemetry.export_bytes", "B", Lower),
    // sn-runtime::tune
    layer("tune.search_ms", "ms", Lower),
    layer("tune.evals", "count", Lower),
    layer("tune.pruned", "count", Higher),
    // Where the selected workload's pass time goes: self time of the spans
    // around each layer's entry points, as a share of the pass.
    layer("share.plan_compile", "share", Lower),
    layer("share.plan_predict", "share", Lower),
    layer("share.exec", "share", Lower),
    layer("share.group", "share", Lower),
    layer("share.cluster", "share", Lower),
    layer("share.harness", "share", Lower),
    // The harness and the host it ran on.
    layer("host.units_per_s", "1/s", Higher),
    layer("host.cpu_s", "s", Lower),
    layer("host.ref_ms_p50", "ms", Lower),
    layer("host.ref_spread", "ratio", Lower),
    layer("host.pass_spread", "ratio", Lower),
    layer("host.trace_overhead_share", "share", Lower),
];

pub fn lookup(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The values one run measured: name → (value, samples it was read off).
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    /// Record `name`; it must be in the catalogue (a misspelt name is a bug
    /// in the benchmark, caught the first time the line runs).
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(def.name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    /// Names of `defs` this run did not fill in.
    pub fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, …}` over `defs`, in catalogue
    /// order — the `metrics` object of the result line.
    pub fn result_json(&self, defs: &[Def]) -> String {
        let items: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    num(self.get(d.name).unwrap_or(0.0)),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The report form: every recorded metric with unit, direction, bound
    /// and sample count.
    pub fn report_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, (v, n))| {
                let d = lookup(name).expect("only catalogue names are stored");
                let bound = if d.bound > 0.0 {
                    format!(", \"bound\": {}", num(d.bound))
                } else {
                    String::new()
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\"{bound}, \"samples\": {n}}}",
                    num(*v),
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A number as JSON, with all its digits (Rust's shortest round-trip form;
/// never exponent notation, never NaN).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// A string as a JSON literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = lookup("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn numbers_and_strings_are_valid_json() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(1e-7), "0.0000001");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
