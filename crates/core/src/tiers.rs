//! Multi-tier Unified Tensor Pool backends (paper Fig. 7).
//!
//! The UTP is "a consolidated memory pool abstraction … using various
//! external physical memory such as CPU DRAM, DRAM of other GPUs, or remote
//! CPU/GPU DRAM". The paper evaluates the local-CPU case and notes the
//! abstraction covers the others; this module implements the full tier set
//! with the interconnect speeds §3.3.2 quotes: pinned host over PCIe
//! ≈ 8 GB/s, peer GPU over the same PCIe switch ≈ 10 GB/s, remote GPU over
//! GPU-Direct RDMA ≈ 6 GB/s.
//!
//! Placement is capacity-ordered by speed: a tensor spills to the fastest
//! tier with room, so constraining the local host pool degrades offload
//! bandwidth gracefully instead of failing the run — the behaviour the
//! tiered-UTP experiment (`experiments ablation`) demonstrates.
//!
//! Each tier, the local pinned host (the paper's preallocated pinned CPU
//! buffer) among them, is a byte counter in [`TieredPool`]: its capacity,
//! use and high water. A slot is its bytes, which the tensor holding it
//! knows, so no tier keeps a per-slot record.

use sn_sim::SimTime;

use crate::policy::Policy;

/// The share of the local host tier's rate a copy through a pageable (not
/// pinned) host buffer gets. The paper notes unpinned transfers compromise
/// "at least 50% of communication speed".
const UNPINNED_FACTOR: f64 = 0.5;

/// External memory tier, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Peer GPU DRAM over the same PCIe switch (~10 GB/s).
    PeerGpu,
    /// Local pinned CPU DRAM over PCIe 16x (~8 GB/s).
    LocalHost,
    /// Remote CPU/GPU DRAM over GPU-Direct RDMA (~6 GB/s).
    Remote,
}

impl Tier {
    /// Link bandwidth for this tier in GB/s (§3.3.2's practical speeds).
    pub fn gbps(&self) -> f64 {
        match self {
            Tier::PeerGpu => 10.0,
            Tier::LocalHost => 8.0,
            Tier::Remote => 6.0,
        }
    }

    /// How long a copy of `bytes` to or from this tier takes under
    /// `policy`: the pageable (unpinned) penalty applies to the local host
    /// tier only.
    pub(crate) fn copy_time(self, bytes: u64, policy: &Policy) -> SimTime {
        let gbps = match self {
            Tier::LocalHost if !policy.pinned_host => self.gbps() * UNPINNED_FACTOR,
            _ => self.gbps(),
        };
        sn_sim::time::transfer_time(bytes, gbps)
    }
}

/// Capacity configuration of the external pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TierConfig {
    /// Peer-GPU pool bytes (0 disables the tier — the common single-GPU
    /// case).
    pub peer_gpu_bytes: u64,
    /// Local pinned host pool bytes.
    pub local_host_bytes: u64,
    /// Remote pool bytes (0 disables).
    pub remote_bytes: u64,
}

impl TierConfig {
    /// The paper's evaluated configuration: local CPU DRAM only.
    pub fn local_only(host_bytes: u64) -> TierConfig {
        TierConfig {
            peer_gpu_bytes: 0,
            local_host_bytes: host_bytes,
            remote_bytes: 0,
        }
    }

    /// All three tiers of Fig. 7.
    pub fn full(peer: u64, local: u64, remote: u64) -> TierConfig {
        TierConfig {
            peer_gpu_bytes: peer,
            local_host_bytes: local,
            remote_bytes: remote,
        }
    }
}

impl Default for TierConfig {
    fn default() -> Self {
        // 256 GiB of local pinned host — the single-tier default the rest
        // of the runtime has used all along.
        TierConfig::local_only(256 << 30)
    }
}

/// The consolidated external pool: one byte counter per tier, indexed by
/// `Tier as usize`. Capacity is finite: pinning beyond physical RAM fails.
#[derive(Debug, Clone)]
pub struct TieredPool {
    capacity: [u64; 3],
    /// Bytes reserved per tier.
    pub(crate) used: [u64; 3],
    high_water: [u64; 3],
}

impl TieredPool {
    pub fn new(cfg: TierConfig) -> TieredPool {
        TieredPool {
            capacity: [cfg.peer_gpu_bytes, cfg.local_host_bytes, cfg.remote_bytes],
            used: [0; 3],
            high_water: [0; 3],
        }
    }

    /// Reserve `bytes` in the fastest tier with room, and name it. Returns
    /// `None` only when every tier is exhausted.
    pub fn reserve(&mut self, bytes: u64) -> Option<Tier> {
        // Against the remainder, not `used + bytes`: that sum wraps for
        // requests near `u64::MAX` and would grant them.
        let tier = [Tier::PeerGpu, Tier::LocalHost, Tier::Remote]
            .into_iter()
            .find(|&t| bytes <= self.capacity[t as usize] - self.used[t as usize])?;
        let t = tier as usize;
        self.used[t] += bytes;
        self.high_water[t] = self.high_water[t].max(self.used[t]);
        Some(tier)
    }

    /// Return the `bytes` a reservation took in `tier`. Panics on returning
    /// more than is reserved: a slot released twice, or with the wrong size.
    pub fn release(&mut self, tier: Tier, bytes: u64) {
        let used = &mut self.used[tier as usize];
        *used = used
            .checked_sub(bytes)
            .expect("released more pinned bytes than are reserved");
    }

    /// High-water marks per tier.
    pub fn high_water(&self) -> (u64, u64, u64) {
        let [peer, local, remote] = self.high_water;
        (peer, local, remote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_prefers_fastest_tier() {
        let mut p = TieredPool::new(TierConfig::full(100, 100, 100));
        assert_eq!(p.reserve(60), Some(Tier::PeerGpu));
        assert_eq!(p.reserve(60), Some(Tier::LocalHost), "peer full -> local");
        assert_eq!(p.reserve(60), Some(Tier::Remote), "local full -> remote");
        assert!(p.reserve(60).is_none(), "all tiers exhausted");
        p.release(Tier::LocalHost, 60);
        assert_eq!(p.reserve(60), Some(Tier::LocalHost));
    }

    #[test]
    fn oversized_request_falls_through_every_tier() {
        let mut p = TieredPool::new(TierConfig::full(100, 100, 100));
        for _ in 0..3 {
            p.reserve(60).unwrap();
        }
        assert!(p.reserve(u64::MAX).is_none(), "60 + u64::MAX must not wrap");
        assert_eq!(p.used, [60, 60, 60]);
    }

    #[test]
    fn a_request_that_would_wrap_the_sum_is_refused() {
        let mut p = TieredPool::new(TierConfig::local_only(1000));
        assert_eq!(p.reserve(400), Some(Tier::LocalHost));
        assert!(p.reserve(u64::MAX - 399).is_none(), "400 + this wraps to 0");
        assert_eq!((p.used, p.high_water()), ([0, 400, 0], (0, 400, 0)));
        assert_eq!(p.reserve(600), Some(Tier::LocalHost), "the remainder");
    }

    #[test]
    #[should_panic(expected = "released more pinned bytes")]
    fn a_double_release_panics() {
        let mut p = TieredPool::new(TierConfig::local_only(100));
        let tier = p.reserve(50).unwrap();
        p.release(tier, 50);
        p.release(tier, 50);
    }

    #[test]
    fn local_only_skips_disabled_tiers() {
        let mut p = TieredPool::new(TierConfig::local_only(1000));
        assert_eq!(p.reserve(10), Some(Tier::LocalHost));
        assert_eq!(p.used, [0, 10, 0]);
    }

    #[test]
    fn bandwidths_are_ordered_like_the_paper() {
        assert!(Tier::PeerGpu.gbps() > Tier::LocalHost.gbps());
        assert!(Tier::LocalHost.gbps() > Tier::Remote.gbps());
        assert_eq!(Tier::PeerGpu.gbps(), 10.0);
        assert_eq!(Tier::LocalHost.gbps(), 8.0);
        assert_eq!(Tier::Remote.gbps(), 6.0);
    }

    #[test]
    fn high_water_tracks_per_tier() {
        let mut p = TieredPool::new(TierConfig::full(50, 50, 50));
        let a = p.reserve(40).unwrap();
        let b = p.reserve(40).unwrap();
        p.release(a, 40);
        p.release(b, 40);
        assert_eq!(p.high_water(), (40, 40, 0));
        assert_eq!(p.used, [0, 0, 0]);
    }
}
