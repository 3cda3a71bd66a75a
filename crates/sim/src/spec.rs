//! Device descriptions. A [`DeviceSpec`] carries every hardware parameter the
//! simulation depends on. Two presets mirror the cards used in the paper's
//! evaluation: the 12 GB K40c (Tables 4/5) and the 12 GB TITAN Xp (Fig. 14).

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

pub const KB: u64 = 1024;
pub const MB: u64 = 1024 * KB;
pub const GB: u64 = 1024 * MB;

/// Static description of the simulated accelerator and its host link.
///
/// Bandwidths are decimal GB/s (the unit vendors quote and the paper uses:
/// "a practical speed of 8 GB/s" for pinned PCIe transfers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable card name, reported by the experiment harness.
    pub name: String,
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
            name: "NVIDIA Tesla K40c".into(),
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
            name: "NVIDIA TITAN Xp".into(),
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

    /// 128-bit fingerprint of the *card*: its name and its nine rate and
    /// latency constants (floats via `to_bits`) — everything but
    /// `dram_bytes`, so [`DeviceSpec::with_dram`] never changes it. Memo
    /// keys pair it with a cap (the plan memo only where the cap shaped the
    /// outcome), which keeps them `Copy` and free of the name `String`.
    pub fn card_fingerprint(&self) -> (u64, u64) {
        let card = (
            &self.name,
            self.peak_gflops.to_bits(),
            self.mem_bw_gbps.to_bits(),
            self.pcie_h2d_gbps.to_bits(),
            self.pcie_d2h_gbps.to_bits(),
            self.unpinned_factor.to_bits(),
            self.malloc_base.0,
            self.malloc_per_mib.0,
            self.free_base.0,
            self.kernel_launch.0,
        );
        (
            fxhash::hash_with_seed(&card, 0x6465_765f_6361_7264),
            fxhash::hash_with_seed(&card, 0x736e_5f64_6576_6963),
        )
    }

    /// Effective PCIe bandwidth for a transfer, honouring pinned/pageable.
    pub fn pcie_gbps(&self, h2d: bool, pinned: bool) -> f64 {
        let base = if h2d {
            self.pcie_h2d_gbps
        } else {
            self.pcie_d2h_gbps
        };
        if pinned {
            base
        } else {
            base * self.unpinned_factor
        }
    }

    /// Cost model for a `cudaMalloc` of `bytes`.
    pub fn malloc_cost(&self, bytes: u64) -> SimTime {
        let mib = bytes.div_ceil(MB);
        SimTime(self.malloc_base.0 + self.malloc_per_mib.0 * mib)
    }

    /// Cost model for a `cudaFree`.
    pub fn free_cost(&self) -> SimTime {
        self.free_base
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
    fn card_fingerprint_covers_the_card_and_ignores_the_cap() {
        let base = DeviceSpec::k40c();
        let fp = base.card_fingerprint();
        assert_eq!(fp, DeviceSpec::k40c().card_fingerprint());
        assert_eq!(fp, base.clone().with_dram(3 * GB).card_fingerprint());
        let mut renamed = base.clone();
        renamed.name.push('!');
        assert_ne!(fp, renamed.card_fingerprint());
        // Each of the nine constants, changed alone, changes it.
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

    #[test]
    fn unpinned_transfers_are_slower() {
        let d = DeviceSpec::k40c();
        assert_eq!(d.pcie_gbps(true, true), 8.0);
        assert_eq!(d.pcie_gbps(true, false), 4.0);
    }

    #[test]
    fn malloc_cost_grows_with_size() {
        let d = DeviceSpec::k40c();
        let small = d.malloc_cost(KB);
        let big = d.malloc_cost(256 * MB);
        assert!(big > small);
        // Fixed part dominates tiny allocations.
        assert_eq!(small, SimTime::from_us(30) + SimTime::from_us(1));
    }
}
