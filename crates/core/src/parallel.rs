//! The interconnect between data-parallel replicas and the ring all-reduce
//! arithmetic on it.
//!
//! The paper scopes itself to "addressing the GPU memory shortage issue for
//! training deep neural networks under \[the\] data parallelism model"
//! (§2.1):
//! each GPU holds a network replica, computes a sub-gradient on a sub-batch,
//! and all sub-gradients are aggregated into one global gradient — here a
//! ring all-reduce over the interconnect (`2·(k−1)/k · bytes` on the wire
//! per GPU). These closed forms are what [`crate::group`] pins its measured,
//! bucketed, backward-overlapped collectives to.

use sn_sim::SimTime;

/// Interconnect between replicas.
#[derive(Debug, Clone, Copy)]
pub struct Interconnect {
    /// Per-link bandwidth in GB/s (PCIe switch ≈ 10, NVLink-class ≈ 50).
    pub gbps: f64,
    /// Per-message latency.
    pub latency: SimTime,
}

impl Interconnect {
    /// PCIe-switch peer traffic (the paper's 10 GB/s practical speed).
    pub fn pcie() -> Interconnect {
        Interconnect {
            gbps: 10.0,
            latency: SimTime::from_us(20),
        }
    }

    /// An NVLink-class fabric for comparison runs.
    pub fn nvlink() -> Interconnect {
        Interconnect {
            gbps: 50.0,
            latency: SimTime::from_us(10),
        }
    }
}

/// Bytes each ring all-reduce participant moves on the wire: `2·(k−1)/k` of
/// the gradient bytes, rounded to the nearest byte (truncation would
/// undercharge every non-divisible gradient size). Zero for a single replica.
pub fn ring_allreduce_wire_bytes(grad_bytes: u64, gpus: usize) -> u64 {
    if gpus <= 1 {
        return 0;
    }
    // Integer rounding of 2·(k−1)·bytes / k — exact, no f64 detour.
    let k = gpus as u128;
    let numer = 2 * (k - 1) * grad_bytes as u128;
    ((numer + k / 2) / k) as u64
}

/// Wire time for `wire_bytes` already expressed in on-the-wire terms (e.g. a
/// [`bucket_wire_bytes`] entry): bandwidth term plus the ring's `2·(k−1)`
/// message latencies. Zero for a single replica.
pub fn ring_wire_time(wire_bytes: u64, gpus: usize, interconnect: Interconnect) -> SimTime {
    if gpus <= 1 {
        return SimTime::ZERO;
    }
    sn_sim::time::transfer_time(wire_bytes, interconnect.gbps)
        + SimTime(interconnect.latency.0 * 2 * (gpus as u64 - 1))
}

/// Per-bucket wire bytes for a bucketed ring all-reduce, pinned to the
/// closed form: bucket `i` is charged
/// `W(b_0+…+b_i) − W(b_0+…+b_{i−1})` where `W` is
/// [`ring_allreduce_wire_bytes`]. The telescoping sum makes
/// `Σ bucket wire bytes == W(Σ bucket bytes)` **exactly**, for every `k` and
/// every bucket split — rounding each bucket independently would drift by up
/// to half a byte per bucket (the same truncation class PR 2 fixed in `W`
/// itself). Each entry still differs from its own closed form by at most
/// one byte.
pub fn bucket_wire_bytes(bucket_bytes: &[u64], gpus: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(bucket_bytes.len());
    let mut prefix = 0u64;
    let mut prev_wire = 0u64;
    for &b in bucket_bytes {
        prefix += b;
        let wire = ring_allreduce_wire_bytes(prefix, gpus);
        out.push(wire - prev_wire);
        prev_wire = wire;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_graph::{Net, NetCost, Shape4};

    fn build(batch: usize) -> Net {
        let mut net = Net::new("dp", Shape4::new(batch, 3, 32, 32));
        let d = net.data();
        let c1 = net.conv(d, 32, 3, 1, 1);
        let a1 = net.relu(c1);
        let p1 = net.max_pool(a1, 2, 2, 0);
        let c2 = net.conv(p1, 64, 3, 1, 1);
        let a2 = net.relu(c2);
        let f = net.fc(a2, 10);
        net.softmax(f);
        net
    }

    #[test]
    fn allreduce_wire_bytes_pin_small_k() {
        // Pin the 2(k−1)/k volume for small k, at sizes where the old
        // truncating `as u64` cast was off by one.
        assert_eq!(ring_allreduce_wire_bytes(1_000, 1), 0);
        assert_eq!(ring_allreduce_wire_bytes(1_000, 2), 1_000); // 2·1/2
        assert_eq!(ring_allreduce_wire_bytes(1_000, 4), 1_500); // 2·3/4
                                                                // 2·2/3·1001 = 1334.67: round to 1335 (truncation said 1334).
        assert_eq!(ring_allreduce_wire_bytes(1_001, 3), 1_335);
        // 2·4/5·1 = 1.6: round to 2 (truncation said 1).
        assert_eq!(ring_allreduce_wire_bytes(1, 5), 2);
        // The asymptote: 2(k−1)/k → 2, never exceeded after rounding by
        // more than half a byte's worth.
        for k in 2..=16usize {
            let w = ring_allreduce_wire_bytes(1 << 20, k);
            assert!(w < 2 * (1 << 20));
            assert!(w >= (1 << 20), "k={k} moved only {w} bytes");
        }
    }

    #[test]
    fn bucket_wire_bytes_sum_to_the_closed_form() {
        // The bucketed schedule must charge exactly the closed-form volume,
        // for every replica count the dataparallel bench sweeps and then
        // some — including splits that would drift under independent
        // per-bucket rounding.
        let splits: [&[u64]; 5] = [
            &[1_000],
            &[1_000, 1_000],
            &[1_001, 999, 7],
            &[1, 1, 1, 1, 1],
            &[12_345, 678, 90_123, 4],
        ];
        for k in 2..=8usize {
            for split in splits {
                let buckets = bucket_wire_bytes(split, k);
                assert_eq!(buckets.len(), split.len());
                let total: u64 = split.iter().sum();
                assert_eq!(
                    buckets.iter().sum::<u64>(),
                    ring_allreduce_wire_bytes(total, k),
                    "k={k} split={split:?}"
                );
                // Each bucket stays within one byte of its own closed form.
                for (b, w) in split.iter().zip(&buckets) {
                    let exact = ring_allreduce_wire_bytes(*b, k);
                    assert!(
                        w.abs_diff(exact) <= 1,
                        "k={k} bucket {b}: charged {w} vs exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_wire_bytes_pin_the_small_k_rounding_cases() {
        // The PR 2 rounding pins, rechecked through the bucketed path: a
        // single bucket is charged exactly the rounded closed form.
        assert_eq!(bucket_wire_bytes(&[1_000], 2), vec![1_000]);
        assert_eq!(bucket_wire_bytes(&[1_000], 4), vec![1_500]);
        assert_eq!(bucket_wire_bytes(&[1_001], 3), vec![1_335]); // not 1334
        assert_eq!(bucket_wire_bytes(&[1], 5), vec![2]); // not 1
                                                         // Split the 1001-byte case: the telescoping charge keeps the total
                                                         // pinned even though neither half rounds to its own closed form sum.
        let halves = bucket_wire_bytes(&[500, 501], 3);
        assert_eq!(halves.iter().sum::<u64>(), 1_335);
        // A single replica moves nothing, bucketed or not.
        assert_eq!(bucket_wire_bytes(&[1_000, 2_000], 1), vec![0, 0]);
    }

    #[test]
    fn mixed_precision_halves_the_wire_bytes() {
        // Under a 2-byte gradient dtype the ring moves half the fp32 bytes:
        // the net's allreduce payload is weight_bytes/2, and the 2(k−1)/k
        // wire volume shrinks with it.
        use sn_graph::Precision;
        let net = build(8);
        let fp32 = NetCost::with_precision(&net, Precision::fp32());
        let bf16 = NetCost::with_precision(&net, Precision::bf16_mixed());
        let payload = |c: &NetCost| {
            let per_layer = net.layers().iter().map(|l| c.layer(l.id).allreduce_bytes);
            per_layer.sum::<u64>()
        };
        assert_eq!(payload(&fp32), fp32.total_weight_bytes());
        assert_eq!(
            payload(&bf16),
            fp32.total_weight_bytes() / 2,
            "bf16 gradients are half the fp32 master-weight bytes"
        );
        for k in 2..=8usize {
            let w32 = ring_allreduce_wire_bytes(payload(&fp32), k);
            let w16 = ring_allreduce_wire_bytes(payload(&bf16), k);
            // Exact halving up to the closed form's half-byte rounding.
            assert!(
                w16.abs_diff(w32 / 2) <= 1,
                "k={k}: {w16} is not half of {w32}"
            );
        }
    }

    #[test]
    fn two_byte_elements_keep_bucket_and_closed_form_consistent() {
        // The PR 2 rounding pins re-verified at 2-byte elements: gradient
        // sizes that are element counts × 2 bytes, swept over k∈{2..8}.
        // The telescoping bucket charge must still sum to the closed form,
        // and the pinned small-k cases must still hold when the payload is
        // the 2-byte version of the original fp32 sizes.
        assert_eq!(ring_allreduce_wire_bytes(500, 2), 500); // 1000/2 fp32 → bf16
        assert_eq!(ring_allreduce_wire_bytes(500, 4), 750);
        // 1001 fp32 bytes has no whole 2-byte counterpart; the neighbouring
        // even sizes bracket the fp32 pin 1335 when doubled back.
        assert_eq!(ring_allreduce_wire_bytes(500, 3), 667); // 2·2/3·500 = 666.67
        assert_eq!(ring_allreduce_wire_bytes(2, 5), 3); // 2·4/5·2 = 3.2
        for k in 2..=8usize {
            // Element-count splits at 2 bytes each, including odd counts.
            let splits: [&[u64]; 4] = [
                &[2 * 1_000],
                &[2 * 501, 2 * 499],
                &[14, 2, 2 * 9_973],
                &[2, 2, 2, 2, 2],
            ];
            for split in splits {
                let total: u64 = split.iter().sum();
                let buckets = bucket_wire_bytes(split, k);
                assert_eq!(
                    buckets.iter().sum::<u64>(),
                    ring_allreduce_wire_bytes(total, k),
                    "k={k} split={split:?}"
                );
            }
        }
    }

    #[test]
    fn ring_wire_time_scales_as_documented() {
        let ic = Interconnect::pcie();
        let ring = |k| ring_wire_time(ring_allreduce_wire_bytes(1 << 20, k), k, ic);
        assert_eq!(ring(1), SimTime::ZERO);
        assert_eq!(ring_wire_time(1 << 20, 1, ic), SimTime::ZERO);
        assert!(ring(2) > SimTime::ZERO);
        for k in 3..=8usize {
            assert!(
                ring(k) > ring(k - 1),
                "more replicas, more wire time + latency"
            );
        }
    }
}
