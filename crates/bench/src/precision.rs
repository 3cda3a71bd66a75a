//! The `precision` experiment: mixed precision through the whole stack,
//! measured on the transformer workload.
//!
//! Two claims of the precision refactor, checked end to end:
//!
//! 1. **Exactness** — for every GPT preset × element precision × policy
//!    preset, `MemoryPlan::peak_bytes` equals the executed
//!    `IterationReport::peak_bytes` byte-for-byte. The
//!    planner's alloc/fetch/offload/release sizes are dtype-exact, so the
//!    contract that holds for fp32 CNNs holds unchanged for bf16-mixed
//!    transformers.
//! 2. **Capacity** — on a fixed-DRAM device, the bf16-mixed recipe
//!    (2-byte activations/gradients, fp32 master weights) admits a strictly
//!    longer maximum sequence length than fp32 at the same batch: the
//!    memory the AMP recipe frees is real, planned capacity — not an
//!    estimate.
//!
//! Emits `BENCH_precision.json` with gates `all_peaks_match` and
//! `mixed_unlocks_seq`.

use sn_graph::Precision;
use sn_models as models;
use sn_runtime::session::max_feasible_param;
use sn_runtime::{plan_prediction, Executor, Policy};
use sn_sim::spec::GB;
use sn_sim::DeviceSpec;
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::{mb, TextTable};

/// One matrix cell: a GPT model × element precision × policy preset.
pub struct PrecisionRow {
    pub model: &'static str,
    pub batch: usize,
    pub seq: usize,
    pub precision: &'static str,
    pub preset: &'static str,
    pub plan_peak: u64,
    pub executed_peak: u64,
}

impl PrecisionRow {
    pub fn matches(&self) -> bool {
        self.plan_peak == self.executed_peak
    }
}

/// The fixed-DRAM max-sequence search: fp32 vs bf16-mixed knees.
pub struct SeqUnlock {
    pub batch: usize,
    pub dram_bytes: u64,
    pub fp32_max_seq: usize,
    pub bf16_max_seq: usize,
}

impl SeqUnlock {
    /// The headline gate: mixed precision must admit strictly longer
    /// sequences than fp32 at equal DRAM.
    pub fn unlocks(&self) -> bool {
        self.bf16_max_seq > self.fp32_max_seq
    }
}

type GptBuilder = fn(usize, usize) -> sn_graph::Net;

fn matrix(quick: bool) -> Vec<(&'static str, GptBuilder, usize, usize)> {
    if quick {
        vec![("GPT-Small", models::gpt_small as GptBuilder, 2, 128)]
    } else {
        vec![
            ("GPT-Small", models::gpt_small as GptBuilder, 8, 256),
            ("GPT-Medium", models::gpt_medium, 4, 256),
        ]
    }
}

fn precisions() -> [(&'static str, Precision); 2] {
    [
        ("fp32", Precision::fp32()),
        ("bf16-mixed", Precision::bf16_mixed()),
    ]
}

fn presets() -> [(&'static str, Policy); 2] {
    [
        ("baseline", Policy::baseline()),
        ("superneurons", Policy::superneurons()),
    ]
}

/// The exactness matrix (no I/O): plan peak vs executed peak for
/// every GPT × precision × preset cell on the 12 GB device.
pub fn measure_matrix(quick: bool) -> Vec<PrecisionRow> {
    let spec = DeviceSpec::k40c();
    let mut rows = Vec::new();
    for (model, build, batch, seq) in matrix(quick) {
        let net = build(batch, seq);
        for (pname, precision) in precisions() {
            for (preset, policy) in presets() {
                let policy = policy.with_precision(precision);
                let plan_peak = plan_prediction(&net, &spec, policy)
                    .expect("GPT matrix fits a 12 GB device")
                    .peak_bytes;
                // One iteration: an executor's iteration is a pure function of its
                // build (`iteration_digests` holds every later one equal to it).
                let mut ex = Executor::new(&net, spec.clone(), policy).unwrap();
                let executed_peak = ex.run_iteration().unwrap().peak_bytes;
                rows.push(PrecisionRow {
                    model,
                    batch,
                    seq,
                    precision: pname,
                    preset,
                    plan_peak,
                    executed_peak,
                });
            }
        }
    }
    rows
}

/// The fixed-DRAM capacity search (no I/O): largest feasible GPT-Small
/// sequence length under the superneurons preset, fp32 vs bf16-mixed.
pub fn measure_unlock(quick: bool) -> SeqUnlock {
    // The ceiling sits well past the knee: the attention workspace grows
    // quadratically in `seq`, so even with offload and recomputation the
    // search always terminates far below it.
    let batch = if quick { 2 } else { 8 };
    let hi = 32_768;
    let dram = 2 * GB;
    let spec = DeviceSpec::k40c().with_dram(dram);
    let seq_knee = |precision: Precision| {
        let policy = Policy::superneurons().with_precision(precision);
        max_feasible_param(&|s| models::gpt_small(batch, s), &spec, policy, 16, hi)
    };
    SeqUnlock {
        batch,
        dram_bytes: dram,
        fp32_max_seq: seq_knee(Precision::fp32()),
        bf16_max_seq: seq_knee(Precision::bf16_mixed()),
    }
}

/// Run the experiment; also writes `BENCH_precision.json`.
pub fn precision(quick: bool) -> String {
    let rows = measure_matrix(quick);
    let unlock = measure_unlock(quick);

    let mut out = String::from(
        "precision: mixed-precision transformers — dtype-exact plan vs executed \
         peaks, and the sequence lengths bf16 unlocks at fixed DRAM\n\n",
    );
    let mut t = TextTable::new(vec![
        "model",
        "batch×seq",
        "precision",
        "preset",
        "plan peak (MB)",
        "executed peak (MB)",
        "byte-identical",
    ]);
    let mut all_match = true;
    for r in &rows {
        all_match &= r.matches();
        t.row(vec![
            r.model.to_string(),
            format!("{}×{}", r.batch, r.seq),
            r.precision.to_string(),
            r.preset.to_string(),
            mb(r.plan_peak),
            mb(r.executed_peak),
            if r.matches() { "yes" } else { "NO" }.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nall {} matrix cells byte-identical: {}\n",
        rows.len(),
        all_match
    ));
    out.push_str(&format!(
        "\nmax GPT-Small sequence at batch {} on a {} MB device (superneurons): \
         fp32 {} vs bf16-mixed {} — mixed unlocks longer sequences: {}\n",
        unlock.batch,
        unlock.dram_bytes >> 20,
        unlock.fp32_max_seq,
        unlock.bf16_max_seq,
        unlock.unlocks()
    ));

    let json_rows = rows.iter().map(|r| {
        Json::object()
            .with("model", r.model)
            .with("batch", r.batch)
            .with("seq", r.seq)
            .with("precision", r.precision)
            .with("preset", r.preset)
            .with("plan_peak", r.plan_peak)
            .with("executed_peak", r.executed_peak)
            .with("match", r.matches())
    });
    let record = BenchRecord {
        experiment: "precision",
        quick,
        gates: vec![
            ("all_peaks_match", all_match),
            ("mixed_unlocks_seq", unlock.unlocks()),
        ],
        deterministic: Json::object().with("rows", Json::array(json_rows)).with(
            "max_seq",
            Json::object()
                .with("batch", unlock.batch)
                .with("dram_bytes", unlock.dram_bytes)
                .with("fp32", unlock.fp32_max_seq)
                .with("bf16", unlock.bf16_max_seq),
        ),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt_peaks_are_byte_identical_at_both_precisions() {
        // The acceptance criterion: plan peak == executed peak byte-exact
        // for the transformer workload under fp32 AND bf16-mixed, across
        // the preset ladder endpoints.
        for r in measure_matrix(true) {
            assert!(
                r.matches(),
                "{} {}×{} {} under {}: plan {} vs executed {}",
                r.model,
                r.batch,
                r.seq,
                r.precision,
                r.preset,
                r.plan_peak,
                r.executed_peak
            );
        }
    }

    #[test]
    fn bf16_shrinks_the_planned_peak() {
        // Same cell, halved activation/gradient bytes: the planned peak
        // must strictly shrink (weights stay fp32, so not by a full 2x).
        let rows = measure_matrix(true);
        let peak = |prec: &str, preset: &str| {
            rows.iter()
                .find(|r| r.precision == prec && r.preset == preset)
                .map(|r| r.plan_peak)
                .unwrap()
        };
        for preset in ["baseline", "superneurons"] {
            let fp32 = peak("fp32", preset);
            let bf16 = peak("bf16-mixed", preset);
            assert!(
                bf16 < fp32,
                "{preset}: bf16 peak {bf16} not below fp32 peak {fp32}"
            );
            assert!(
                2 * bf16 > fp32,
                "{preset}: bf16 peak {bf16} halved more than activations alone allow"
            );
        }
    }

    #[test]
    fn mixed_precision_unlocks_longer_sequences() {
        let u = measure_unlock(true);
        assert!(u.fp32_max_seq > 0, "fp32 must fit at the search floor");
        assert!(
            u.unlocks(),
            "bf16 max seq {} must exceed fp32 max seq {}",
            u.bf16_max_seq,
            u.fp32_max_seq
        );
    }
}
