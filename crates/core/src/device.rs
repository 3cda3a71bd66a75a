//! The simulated device as its two drivers see it: the planner's [`Device`]
//! runs the allocator; the interpreter's [`SimDevice`] counts bytes on a
//! [`Timeline`], since [`crate::CompiledPlan::verify`] proved the grants fit.

use sn_mempool::{HeapPool, ALLOC_LATENCY, BLOCK_BYTES, FREE_LATENCY};
use sn_sim::spec::MB;
use sn_sim::{
    AllocError, AllocGrant, AllocId, CudaAllocator, DeviceAllocator, DeviceSpec, SimTime, Timeline,
};

use crate::policy::AllocatorKind;
use crate::tiers::{TierConfig, TieredPool};

/// Any of the allocators behind one enum (avoids `dyn` in the hot path).
#[derive(Debug, Clone)]
pub enum AllocatorImpl {
    Pool(HeapPool),
    Cuda(CudaAllocator),
}

impl AllocatorImpl {
    pub(crate) fn new(spec: &DeviceSpec, kind: AllocatorKind) -> AllocatorImpl {
        match kind {
            AllocatorKind::HeapPool => Self::Pool(HeapPool::with_capacity(spec.dram_bytes)),
            AllocatorKind::Cuda => Self::Cuda(CudaAllocator::new(spec)),
        }
    }
}

/// `$body` on whichever allocator `$alloc` holds, bound to `$a`.
macro_rules! on_alloc {
    ($alloc:expr, $a:ident => $body:expr) => {
        match $alloc {
            AllocatorImpl::Pool($a) => $body,
            AllocatorImpl::Cuda($a) => $body,
        }
    };
}

impl DeviceAllocator for AllocatorImpl {
    fn alloc(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        on_alloc!(self, a => a.alloc(bytes))
    }

    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError> {
        on_alloc!(self, a => a.free(id))
    }

    fn used(&self) -> u64 {
        on_alloc!(self, a => a.used())
    }

    fn capacity(&self) -> u64 {
        on_alloc!(self, a => a.capacity())
    }

    fn high_water(&self) -> u64 {
        on_alloc!(self, a => a.high_water())
    }

    fn extent_high_water(&self) -> u64 {
        on_alloc!(self, a => a.extent_high_water())
    }

    fn largest_free_contiguous(&self) -> u64 {
        on_alloc!(self, a => a.largest_free_contiguous())
    }
}

/// Where the Unified Tensor Pool's transitions return a tensor's device
/// grant (charging the call's latency) and host slot.
pub trait Memory {
    fn free_charged(&mut self, id: AllocId);
    fn host(&mut self) -> &mut TieredPool;
}

/// The simulated GPU's memory as the planner sees it: an allocator and no
/// clock, so it sums the latencies in `alloc_time` and nothing else.
#[derive(Debug, Clone)]
pub struct Device {
    pub alloc: AllocatorImpl,
    /// The Unified Tensor Pool's external tiers (Fig. 7).
    pub host: TieredPool,
    /// Accumulated host-side allocator latency (Table 2's overhead).
    pub alloc_time: SimTime,
}

impl Device {
    pub fn new(spec: &DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) -> Device {
        Device {
            alloc: AllocatorImpl::new(spec, allocator),
            host: TieredPool::new(tiers),
            alloc_time: SimTime::ZERO,
        }
    }

    /// Become `new(spec, allocator, tiers)` in place, keeping the pools'
    /// allocations and a same-kind allocator's.
    pub(crate) fn reset(&mut self, spec: &DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) {
        match (&mut self.alloc, allocator) {
            (AllocatorImpl::Pool(p), AllocatorKind::HeapPool) => p.reset(spec.dram_bytes),
            (AllocatorImpl::Cuda(c), AllocatorKind::Cuda) => c.reset(spec),
            (alloc, kind) => *alloc = AllocatorImpl::new(spec, kind),
        }
        self.host.reset(tiers);
        self.alloc_time = SimTime::ZERO;
    }

    /// Allocate, charging the call's latency.
    pub fn alloc_charged(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        let g = self.alloc.alloc(bytes)?;
        self.alloc_time += g.cost;
        Ok(g)
    }
}

impl Memory for Device {
    fn free_charged(&mut self, id: AllocId) {
        match self.alloc.free(id) {
            Ok(cost) => self.alloc_time += cost,
            Err(e) => panic!("device free failed: {e}"),
        }
    }

    fn host(&mut self) -> &mut TieredPool {
        &mut self.host
    }
}

/// The simulated GPU's memory as the interpreter sees it: its timeline and
/// a byte counter that rounds and charges each call as the plan's
/// allocator does (the pool's 1 KB blocks at constant latencies;
/// `cudaMalloc`'s 256 B at `malloc_base + malloc_per_mib·⌈MiB⌉` and
/// `free_base`). A grant's handle is the bytes it charged.
#[derive(Debug, Clone)]
pub struct SimDevice {
    pub tl: Timeline,
    pub host: TieredPool,
    /// `high_water` is the most `used` since the caller last set it.
    pub used: u64,
    pub high_water: u64,
    pub capacity: u64,
    granule: u64,
    alloc_base: SimTime,
    alloc_per_mib: SimTime,
    free_cost: SimTime,
    pub alloc_time: SimTime,
    pub alloc_calls: u64,
}

impl SimDevice {
    pub fn new(spec: &DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) -> SimDevice {
        let (granule, capacity, alloc_base, alloc_per_mib, free_cost) = match allocator {
            AllocatorKind::HeapPool => {
                let capacity = spec.dram_bytes / BLOCK_BYTES * BLOCK_BYTES;
                (
                    BLOCK_BYTES,
                    capacity,
                    ALLOC_LATENCY,
                    SimTime::ZERO,
                    FREE_LATENCY,
                )
            }
            AllocatorKind::Cuda => {
                let (base, per_mib) = (spec.malloc_base, spec.malloc_per_mib);
                (256, spec.dram_bytes, base, per_mib, spec.free_base)
            }
        };
        SimDevice {
            tl: Timeline::default(),
            host: TieredPool::new(tiers),
            used: 0,
            high_water: 0,
            capacity,
            granule,
            alloc_base,
            alloc_per_mib,
            free_cost,
            alloc_time: SimTime::ZERO,
            alloc_calls: 0,
        }
    }

    /// Charge `bytes`, or `None` past the capacity.
    pub fn alloc_charged(&mut self, bytes: u64) -> Option<AllocId> {
        let granules = bytes.max(1).div_ceil(self.granule);
        let rounded = granules.saturating_mul(self.granule);
        if rounded > self.capacity - self.used {
            return None;
        }
        self.used += rounded;
        self.high_water = self.high_water.max(self.used);
        let cost = SimTime(self.alloc_base.0 + self.alloc_per_mib.0 * rounded.div_ceil(MB));
        self.tl.advance(cost);
        self.alloc_time += cost;
        self.alloc_calls += 1;
        Some(AllocId(rounded))
    }
}

impl Memory for SimDevice {
    fn free_charged(&mut self, id: AllocId) {
        self.used -= id.0;
        self.tl.advance(self.free_cost);
        self.alloc_time += self.free_cost;
    }

    fn host(&mut self) -> &mut TieredPool {
        &mut self.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_device_charges_small_latency() {
        let mut d = SimDevice::new(
            &DeviceSpec::k40c(),
            AllocatorKind::HeapPool,
            TierConfig::default(),
        );
        let t0 = d.tl.now();
        let g = d.alloc_charged(1 << 20).unwrap();
        assert!(d.tl.now() > t0);
        assert!(
            (d.tl.now() - t0).as_ns() < 10_000,
            "pool alloc must be sub-10us"
        );
        d.free_charged(g);
        assert_eq!(d.used, 0);
    }

    #[test]
    fn cuda_device_charges_large_latency() {
        let mut d = SimDevice::new(
            &DeviceSpec::k40c(),
            AllocatorKind::Cuda,
            TierConfig::default(),
        );
        let t0 = d.tl.now();
        let _g = d.alloc_charged(64 << 20).unwrap();
        assert!(
            (d.tl.now() - t0).as_ns() > 50_000,
            "cudaMalloc must cost >50us"
        );
    }

    #[test]
    fn capacity_respected_by_both() {
        for kind in [AllocatorKind::HeapPool, AllocatorKind::Cuda] {
            let spec = DeviceSpec::k40c().with_dram(1 << 20);
            let mut d = SimDevice::new(&spec, kind, TierConfig::default());
            assert!(d.alloc_charged(2 << 20).is_none());
            assert!(d.alloc_charged(u64::MAX).is_none());
            let mut p = Device::new(&spec, kind, TierConfig::default());
            assert!(p.alloc_charged(2 << 20).is_err());
        }
    }

    /// The interpreter's counter charges what the planner's allocator does,
    /// call for call: the same rounded bytes, peak and latencies.
    #[test]
    fn the_counter_charges_what_the_allocator_does() {
        let spec = DeviceSpec::k40c().with_dram(64 << 20);
        let sizes = [0, 1, 255, 256, 257, 1023, 1025, 3 << 20, (1 << 20) + 1, 7];
        for kind in [AllocatorKind::HeapPool, AllocatorKind::Cuda] {
            let mut d = SimDevice::new(&spec, kind, TierConfig::default());
            let mut p = Device::new(&spec, kind, TierConfig::default());
            assert_eq!(d.capacity, p.alloc.capacity(), "{kind:?}");
            let mut live = Vec::new();
            for (i, &bytes) in sizes.iter().enumerate() {
                let (a, b) = (
                    d.alloc_charged(bytes).unwrap(),
                    p.alloc_charged(bytes).unwrap(),
                );
                assert_eq!(a.0, b.bytes, "{kind:?}: {bytes} B");
                live.push((a, b.id));
                if i % 3 == 2 {
                    let (a, b) = live.remove(0);
                    d.free_charged(a);
                    p.free_charged(b);
                }
                assert_eq!(
                    (d.used, d.high_water),
                    (p.alloc.used(), p.alloc.high_water())
                );
                assert_eq!(d.alloc_time, p.alloc_time);
            }
        }
    }
}
