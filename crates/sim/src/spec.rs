//! Device descriptions. A [`DeviceSpec`] carries every hardware parameter the
//! simulation depends on. Two presets mirror the cards used in the paper's
//! evaluation: the 12 GB K40c (Tables 4/5) and the 12 GB TITAN Xp (Fig. 14).

use std::borrow::Cow;

use crate::time::SimTime;

pub const KB: u64 = 1024;
pub const MB: u64 = 1024 * KB;
pub const GB: u64 = 1024 * MB;

/// [`DeviceSpec::card_fingerprint`]'s multipliers: two lanes of nine.
const CARD_KEYS: [[u64; 9]; 2] = [
    odd_keys(0x6465_765f_6361_7264),
    odd_keys(0x736e_5f64_6576_6963),
];

/// `N` odd multipliers drawn from SplitMix64 at `seed`: the constants of a
/// word fold (here and the planner's memo key).
pub const fn odd_keys<const N: usize>(mut seed: u64) -> [u64; N] {
    let mut keys = [0; N];
    let mut i = 0;
    while i < N {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        keys[i] = (z ^ (z >> 31)) | 1;
        i += 1;
    }
    keys
}

/// Word `w`, its high half xored into its low half (a float's bits sit at
/// the top), times its odd constant `k`: a bijection of `w`.
#[inline]
pub fn fold(w: u64, k: u64) -> u64 {
    (w ^ (w >> 32)).wrapping_mul(k)
}

/// The final, bijective mix of a sum of folds.
#[inline]
pub fn mix(sum: u64) -> u64 {
    let x = (sum ^ (sum >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// Static description of the simulated accelerator and its host link.
///
/// Bandwidths are decimal GB/s (the unit vendors quote and the paper uses:
/// "a practical speed of 8 GB/s" for pinned PCIe transfers).
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
    /// Pinned host→device PCIe bandwidth, GB/s.
    pub pcie_h2d_gbps: f64,
    /// Pinned device→host PCIe bandwidth, GB/s.
    pub pcie_d2h_gbps: f64,
    /// Multiplier applied to PCIe bandwidth when the host buffer is pageable
    /// (not pinned). The paper notes unpinned transfers compromise "at least
    /// 50% of communication speed" — hence 0.5.
    pub unpinned_factor: f64,
    /// Fixed cost of a `cudaMalloc` call.
    pub malloc_base: SimTime,
    /// Additional `cudaMalloc` cost per MiB requested (zeroing + page table
    /// work grows with size).
    pub malloc_per_mib: SimTime,
    /// Fixed cost of a `cudaFree` call (synchronizes the device).
    pub free_base: SimTime,
    /// Fixed kernel launch overhead added to every compute operation.
    pub kernel_launch: SimTime,
}

impl DeviceSpec {
    /// NVIDIA Tesla K40c: 12 GB GDDR5, 4.29 TFLOP/s FP32, 288 GB/s.
    ///
    /// The malloc/free latencies are calibrated so that a ResNet-50 training
    /// iteration run with raw `cudaMalloc`/`cudaFree` wastes roughly a third
    /// of its time in allocation (the paper measured 36.28%, §3.2.1), and so
    /// the Table 2 pool speedups land in the paper's 1.1×–1.8× band.
    pub fn k40c() -> Self {
        DeviceSpec {
            name: Cow::Borrowed("NVIDIA Tesla K40c"),
            dram_bytes: 12 * GB,
            peak_gflops: 4290.0,
            mem_bw_gbps: 288.0,
            pcie_h2d_gbps: 8.0,
            pcie_d2h_gbps: 8.0,
            unpinned_factor: 0.5,
            malloc_base: SimTime::from_us(30),
            malloc_per_mib: SimTime::from_us(1),
            free_base: SimTime::from_us(25),
            kernel_launch: SimTime::from_us(5),
        }
    }

    /// NVIDIA TITAN Xp: 12 GB GDDR5X, 12.15 TFLOP/s FP32, 547 GB/s.
    pub fn titan_xp() -> Self {
        DeviceSpec {
            name: Cow::Borrowed("NVIDIA TITAN Xp"),
            dram_bytes: 12 * GB,
            peak_gflops: 12150.0,
            mem_bw_gbps: 547.0,
            pcie_h2d_gbps: 8.0,
            pcie_d2h_gbps: 8.0,
            unpinned_factor: 0.5,
            malloc_base: SimTime::from_us(30),
            malloc_per_mib: SimTime::from_us(1),
            free_base: SimTime::from_us(25),
            kernel_launch: SimTime::from_us(5),
        }
    }

    /// A copy of this spec with a different DRAM capacity — used by the
    /// workspace experiments that constrain the memory pool to 3 GB / 5 GB
    /// (Fig. 12) and by tests that shrink the device to force eviction.
    pub fn with_dram(mut self, bytes: u64) -> Self {
        self.dram_bytes = bytes;
        self
    }

    /// 128-bit fingerprint of the *card*: its nine rate and latency
    /// constants (floats via `to_bits`), which are all the planner, the
    /// interpreter and the cluster read of it. Neither `dram_bytes` — so
    /// [`DeviceSpec::with_dram`] never changes it; memo keys pair it with a
    /// cap — nor the `name`, which nothing simulated reads: two cards that
    /// differ by name alone share memo entries and device classes, with
    /// identical answers.
    ///
    /// Each half is a fold the CPU runs in parallel: every word's high half
    /// is xored into its low half (a float's bits sit at the top) and the
    /// word multiplied by an odd constant of its own, independently of the
    /// others; the products are summed and the sum mixed. With the other
    /// words held, each step is a bijection of the one left, so a change to
    /// any one constant alone changes both halves.
    pub fn card_fingerprint(&self) -> (u64, u64) {
        let words = [
            self.peak_gflops.to_bits(),
            self.mem_bw_gbps.to_bits(),
            self.pcie_h2d_gbps.to_bits(),
            self.pcie_d2h_gbps.to_bits(),
            self.unpinned_factor.to_bits(),
            self.malloc_base.0,
            self.malloc_per_mib.0,
            self.free_base.0,
            self.kernel_launch.0,
        ];
        let lane = |keys: &[u64; 9]| {
            mix((words.iter().zip(keys)).fold(0u64, |sum, (&w, &k)| sum.wrapping_add(fold(w, k))))
        };
        (lane(&CARD_KEYS[0]), lane(&CARD_KEYS[1]))
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
        assert_eq!(fp, DeviceSpec::k40c().card_fingerprint());
        assert_eq!(fp, base.clone().with_dram(3 * GB).card_fingerprint());
        // The name is not the card: nothing simulated reads it.
        let mut renamed = base.clone();
        renamed.name.to_mut().push('!');
        assert_eq!(fp, renamed.card_fingerprint());
        assert_ne!(fp, DeviceSpec::titan_xp().card_fingerprint());
        // The two PCIe directions trading values is another card.
        let pcie = |pcie_h2d_gbps, pcie_d2h_gbps| {
            DeviceSpec {
                pcie_h2d_gbps,
                pcie_d2h_gbps,
                ..base.clone()
            }
            .card_fingerprint()
        };
        assert_ne!(pcie(6.0, 8.0), pcie(8.0, 6.0));
        // Each of the nine constants, changed alone, changes both halves.
        let edits: [fn(&mut DeviceSpec); 9] = [
            |d| d.peak_gflops += 1.0,
            |d| d.mem_bw_gbps += 1.0,
            |d| d.pcie_h2d_gbps += 1.0,
            |d| d.pcie_d2h_gbps += 1.0,
            |d| d.unpinned_factor += 0.25,
            |d| d.malloc_base.0 += 1,
            |d| d.malloc_per_mib.0 += 1,
            |d| d.free_base.0 += 1,
            |d| d.kernel_launch.0 += 1,
        ];
        for (n, edit) in edits.iter().enumerate() {
            let mut d = base.clone();
            edit(&mut d);
            let got = d.card_fingerprint();
            assert!(
                got.0 != fp.0 && got.1 != fp.1,
                "constant #{n} is not folded in"
            );
        }
    }
}
