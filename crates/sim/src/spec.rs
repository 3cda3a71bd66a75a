//! Device descriptions. A [`DeviceSpec`] carries what differs between the
//! cards the simulation models: DRAM capacity, arithmetic throughput and
//! memory bandwidth. Two presets mirror the cards used in the paper's
//! evaluation: the 12 GB K40c (Tables 4/5) and the 12 GB TITAN Xp (Fig. 14).
//! What the two share is a constant beside its reader: the `cudaMalloc`
//! latencies in [`crate::alloc`], the kernel launch overhead in `sn-graph`'s
//! cost model and the PCIe rates in `sn-runtime`'s tiers.

use std::borrow::Cow;

pub const KB: u64 = 1024;
pub const MB: u64 = 1024 * KB;
pub const GB: u64 = 1024 * MB;

/// Static description of the simulated accelerator.
///
/// Bandwidths are decimal GB/s, the unit vendors quote.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Human-readable card name, reported by the experiment harness. A
    /// preset borrows its literal, so copying a preset (a capped copy for
    /// every profiled budget) allocates nothing.
    pub name: Cow<'static, str>,
    /// Device DRAM capacity in bytes. The runtime can never exceed this.
    pub dram_bytes: u64,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Device memory bandwidth in GB/s — bounds bandwidth-bound layers
    /// (activations, pooling, batch-norm).
    pub mem_bw_gbps: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla K40c: 12 GB GDDR5, 4.29 TFLOP/s FP32, 288 GB/s.
    pub fn k40c() -> Self {
        DeviceSpec {
            name: Cow::Borrowed("NVIDIA Tesla K40c"),
            dram_bytes: 12 * GB,
            peak_gflops: 4290.0,
            mem_bw_gbps: 288.0,
        }
    }

    /// NVIDIA TITAN Xp: 12 GB GDDR5X, 12.15 TFLOP/s FP32, 547 GB/s.
    pub fn titan_xp() -> Self {
        DeviceSpec {
            name: Cow::Borrowed("NVIDIA TITAN Xp"),
            dram_bytes: 12 * GB,
            peak_gflops: 12150.0,
            mem_bw_gbps: 547.0,
        }
    }

    /// A copy of this spec with a different DRAM capacity — used by the
    /// workspace experiments that constrain the memory pool to 3 GB / 5 GB
    /// (Fig. 12) and by tests that shrink the device to force eviction.
    pub fn with_dram(mut self, bytes: u64) -> Self {
        self.dram_bytes = bytes;
        self
    }

    /// The *card*: the bits of its two rates, which are all the planner,
    /// the interpreter and the cluster read of it. Neither `dram_bytes` — so
    /// [`DeviceSpec::with_dram`] never changes it; memo keys pair it with a
    /// cap — nor the `name`, which nothing simulated reads: two cards that
    /// differ by name alone share memo entries and device classes, with
    /// identical answers.
    pub fn card_fingerprint(&self) -> (u64, u64) {
        (self.peak_gflops.to_bits(), self.mem_bw_gbps.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_12gb() {
        assert_eq!(DeviceSpec::k40c().dram_bytes, 12 * GB);
        assert_eq!(DeviceSpec::titan_xp().dram_bytes, 12 * GB);
        assert!(DeviceSpec::titan_xp().peak_gflops > DeviceSpec::k40c().peak_gflops);
    }

    #[test]
    fn with_dram_overrides_capacity() {
        let d = DeviceSpec::k40c().with_dram(3 * GB);
        assert_eq!(d.dram_bytes, 3 * GB);
        assert_eq!(d.name, "NVIDIA Tesla K40c");
    }

    #[test]
    fn a_capped_copy_of_a_preset_borrows_its_name() {
        let capped = DeviceSpec::k40c().with_dram(3 * GB).clone();
        assert!(matches!(capped.name, Cow::Borrowed("NVIDIA Tesla K40c")));
    }

    #[test]
    fn card_fingerprint_covers_the_card_and_ignores_the_cap() {
        let base = DeviceSpec::k40c();
        let fp = base.card_fingerprint();
        assert_eq!(fp, (4290f64.to_bits(), 288f64.to_bits()));
        assert_eq!(fp, base.clone().with_dram(3 * GB).card_fingerprint());
        // The name is not the card: nothing simulated reads it.
        let mut renamed = base.clone();
        renamed.name.to_mut().push('!');
        assert_eq!(fp, renamed.card_fingerprint());
        assert_ne!(fp, DeviceSpec::titan_xp().card_fingerprint());
        // Two specs share it iff their two rates are equal: each rate
        // changed alone, or the two trading values, is another card.
        let card = |peak_gflops, mem_bw_gbps| {
            DeviceSpec {
                peak_gflops,
                mem_bw_gbps,
                ..base.clone()
            }
            .card_fingerprint()
        };
        assert_eq!(card(4290.0, 288.0), fp);
        assert_ne!(card(4291.0, 288.0), fp);
        assert_ne!(card(4290.0, 289.0), fp);
        assert_ne!(card(300.0, 400.0), card(400.0, 300.0));
    }
}
