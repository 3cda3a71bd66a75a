//! The simulated device bundle: spec + timeline + allocator + pinned host
//! pool, with allocation latencies charged to the virtual clock.

use sn_mempool::HeapPool;
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

impl DeviceAllocator for AllocatorImpl {
    fn alloc(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        match self {
            AllocatorImpl::Pool(p) => p.alloc(bytes),
            AllocatorImpl::Cuda(c) => c.alloc(bytes),
        }
    }

    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError> {
        match self {
            AllocatorImpl::Pool(p) => p.free(id),
            AllocatorImpl::Cuda(c) => c.free(id),
        }
    }

    fn used(&self) -> u64 {
        match self {
            AllocatorImpl::Pool(p) => p.used(),
            AllocatorImpl::Cuda(c) => c.used(),
        }
    }

    fn capacity(&self) -> u64 {
        match self {
            AllocatorImpl::Pool(p) => p.capacity(),
            AllocatorImpl::Cuda(c) => c.capacity(),
        }
    }

    fn high_water(&self) -> u64 {
        match self {
            AllocatorImpl::Pool(p) => p.high_water(),
            AllocatorImpl::Cuda(c) => c.high_water(),
        }
    }

    fn extent_high_water(&self) -> u64 {
        match self {
            AllocatorImpl::Pool(p) => p.extent_high_water(),
            AllocatorImpl::Cuda(c) => c.extent_high_water(),
        }
    }

    fn largest_free_contiguous(&self) -> u64 {
        match self {
            AllocatorImpl::Pool(p) => p.largest_free_contiguous(),
            AllocatorImpl::Cuda(c) => c.largest_free_contiguous(),
        }
    }

    fn reset_high_water(&mut self) {
        match self {
            AllocatorImpl::Pool(p) => p.reset_high_water(),
            AllocatorImpl::Cuda(c) => c.reset_high_water(),
        }
    }
}

/// The simulated GPU as the executor sees it.
#[derive(Debug, Clone)]
pub struct Device {
    pub spec: DeviceSpec,
    pub tl: Timeline,
    pub alloc: AllocatorImpl,
    /// The Unified Tensor Pool's external tiers (Fig. 7).
    pub host: TieredPool,
    /// Accumulated host-side allocator latency (Table 2's overhead).
    pub alloc_time: SimTime,
    pub alloc_calls: u64,
    pub free_calls: u64,
}

impl Device {
    pub fn new(spec: DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) -> Device {
        let alloc = match allocator {
            AllocatorKind::HeapPool => {
                AllocatorImpl::Pool(HeapPool::with_capacity(spec.dram_bytes))
            }
            AllocatorKind::Cuda => AllocatorImpl::Cuda(CudaAllocator::new(&spec)),
        };
        Device {
            spec,
            tl: Timeline::new(),
            host: TieredPool::new(tiers),
            alloc,
            alloc_time: SimTime::ZERO,
            alloc_calls: 0,
            free_calls: 0,
        }
    }

    /// Allocate, charging the call's latency to the host clock.
    pub fn alloc_charged(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        let g = self.alloc.alloc(bytes)?;
        self.tl.advance(g.cost);
        self.alloc_time += g.cost;
        self.alloc_calls += 1;
        Ok(g)
    }

    /// Free, charging the call's latency.
    pub fn free_charged(&mut self, id: AllocId) {
        match self.alloc.free(id) {
            Ok(cost) => {
                self.tl.advance(cost);
                self.alloc_time += cost;
                self.free_calls += 1;
            }
            Err(e) => panic!("device free failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_device_charges_small_latency() {
        let mut d = Device::new(
            DeviceSpec::k40c(),
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
        d.free_charged(g.id);
        assert_eq!(d.alloc.used(), 0);
    }

    #[test]
    fn cuda_device_charges_large_latency() {
        let mut d = Device::new(
            DeviceSpec::k40c(),
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
            let mut d = Device::new(spec, kind, TierConfig::default());
            assert!(d.alloc_charged(2 << 20).is_err());
        }
    }
}
