//! The `overlap` experiment: how much PCIe traffic the multi-stream engine
//! hides under compute, per policy.
//!
//! Each policy runs a memory-constrained VGG16 on a device sized to its own
//! working set (predicted peak + a small margin), once with the asynchronous
//! multi-stream engine and once with every DMA serialized against the host
//! (`Policy::synchronous`). The async engine must be strictly faster with a
//! positive overlap fraction at an *unchanged* peak — overlap changes when
//! transfers run, never what is resident. Emits `BENCH_overlap.json` for
//! trend tracking across PRs.

use sn_models as models;
use sn_runtime::{plan_prediction, Executor, Policy};
use sn_sim::{DeviceSpec, SimTime};
use sn_telemetry::Json;

use crate::record::BenchRecord;
use crate::table::{mb, TextTable};

const MB: u64 = 1 << 20;

/// One measured configuration.
pub struct OverlapRow {
    pub policy: &'static str,
    pub sync: bool,
    pub dram_bytes: u64,
    pub iter_time: SimTime,
    pub imgs_per_sec: f64,
    pub peak_bytes: u64,
    pub traffic_bytes: u64,
    pub overlap_fraction: f64,
    pub stall: SimTime,
}

/// The VGG16 batch size a run measures at.
pub fn batch_for(quick: bool) -> usize {
    if quick {
        8
    } else {
        16
    }
}

/// Run the experiment's measurements (no I/O).
pub fn measure(quick: bool) -> Vec<OverlapRow> {
    let batch = batch_for(quick);
    let spec = DeviceSpec::k40c();
    // Eager offload/prefetch sized to its own peak; the Tensor Cache sized
    // below its comfort point so eviction traffic actually flows.
    let peak = |policy| {
        plan_prediction(&models::vgg16(batch), &spec, policy)
            .map(|p| p.peak_bytes)
            .expect("vgg16 fits a 12GB K40c")
    };
    let lo_dram = peak(Policy::liveness_offload()) + 8 * MB;
    let sn_dram = peak(Policy::full_memory()) + 4 * MB;

    let configs: [(&'static str, Policy, u64); 2] = [
        ("liveness+offload", Policy::liveness_offload(), lo_dram),
        ("superneurons", Policy::superneurons(), sn_dram),
    ];
    let mut rows = Vec::new();
    for (name, policy, dram) in configs {
        for sync in [false, true] {
            let pol = if sync { policy.synchronous() } else { policy };
            let r = Executor::new(&models::vgg16(batch), spec.clone().with_dram(dram), pol)
                .and_then(|mut ex| ex.run_iteration())
                .expect("constrained run must still fit");
            rows.push(OverlapRow {
                policy: name,
                sync,
                dram_bytes: dram,
                iter_time: r.iter_time,
                imgs_per_sec: r.imgs_per_sec(batch),
                peak_bytes: r.peak_bytes,
                traffic_bytes: r.h2d_bytes + r.d2h_bytes,
                overlap_fraction: r.overlap_fraction(),
                stall: r.stall,
            });
        }
    }
    rows
}

/// Run the experiment; also writes `BENCH_overlap.json` into the current
/// directory (the machine-readable artifact later PRs diff against).
pub fn overlap(quick: bool) -> String {
    let batch = batch_for(quick);
    let rows = measure(quick);

    let mut out = format!(
        "overlap: compute/transfer overlap per policy, VGG16 batch {batch} on a \
         per-policy-constrained K40c\n\
         (async = multi-stream engine; sync = every DMA serialized against the host)\n\n"
    );
    let mut t = TextTable::new(vec![
        "policy",
        "engine",
        "iter (ms)",
        "img/s",
        "peak (MB)",
        "traffic (MB)",
        "overlap",
        "stall (ms)",
    ]);
    for r in &rows {
        t.row(vec![
            r.policy.to_string(),
            if r.sync { "sync" } else { "async" }.to_string(),
            format!("{:.2}", r.iter_time.as_ms_f64()),
            format!("{:.1}", r.imgs_per_sec),
            mb(r.peak_bytes),
            mb(r.traffic_bytes),
            format!("{:.1}%", 100.0 * r.overlap_fraction),
            format!("{:.2}", r.stall.as_ms_f64()),
        ]);
    }
    out.push_str(&t.render());

    // Headline: same policy, same device — only the engine differs.
    for pair in rows.chunks(2) {
        let (a, s) = (&pair[0], &pair[1]);
        out.push_str(&format!(
            "\n{}: async {:.2} ms vs sync {:.2} ms ({:.2}x), overlap {:.1}% vs {:.1}%, \
             peak {} vs {} MB ({})\n",
            a.policy,
            a.iter_time.as_ms_f64(),
            s.iter_time.as_ms_f64(),
            s.iter_time.as_ns() as f64 / a.iter_time.as_ns() as f64,
            100.0 * a.overlap_fraction,
            100.0 * s.overlap_fraction,
            mb(a.peak_bytes),
            mb(s.peak_bytes),
            if a.peak_bytes == s.peak_bytes {
                "unchanged"
            } else {
                "CHANGED"
            }
        ));
    }

    let json_rows = rows.iter().map(|r| {
        Json::object()
            .with("policy", r.policy)
            .with("sync", r.sync)
            .with("dram_bytes", r.dram_bytes)
            .with("iter_ns", r.iter_time.as_ns())
            .with("peak_bytes", r.peak_bytes)
            .with("traffic_bytes", r.traffic_bytes)
            .with("overlap_fraction", r.overlap_fraction)
            .with("stall_ns", r.stall.as_ns())
    });
    let record = BenchRecord {
        experiment: "overlap",
        quick,
        gates: vec![],
        deterministic: Json::object()
            .with("net", "VGG16")
            .with("batch", batch)
            .with("rows", Json::array(json_rows)),
    };
    out.push_str(&record.write());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_engine_wins_at_unchanged_peak_for_every_policy() {
        let rows = measure(true);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            let (a, s) = (&pair[0], &pair[1]);
            assert!(!a.sync && s.sync);
            assert!(a.traffic_bytes > 0, "{}: no transfers to overlap", a.policy);
            assert!(
                a.iter_time < s.iter_time,
                "{}: async {} must beat sync {}",
                a.policy,
                a.iter_time,
                s.iter_time
            );
            assert!(
                a.overlap_fraction > 0.0,
                "{}: async engine must hide some transfer time",
                a.policy
            );
            assert_eq!(
                s.overlap_fraction, 0.0,
                "{}: serialized transfers cannot overlap",
                s.policy
            );
            assert_eq!(
                a.peak_bytes, s.peak_bytes,
                "{}: overlap must not change the peak",
                a.policy
            );
        }
    }
}
