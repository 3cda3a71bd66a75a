//! The simulated device bundle: allocator + pinned host tiers, with
//! allocation latencies charged to a host clock (the planner keeps none).

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

impl AllocatorImpl {
    fn new(spec: &DeviceSpec, kind: AllocatorKind) -> AllocatorImpl {
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

    fn reset_high_water(&mut self) {
        on_alloc!(self, a => a.reset_high_water())
    }
}

/// What an allocator call's latency is charged to.
pub trait Clock: Default {
    fn advance(&mut self, by: SimTime);
}

impl Clock for Timeline {
    fn advance(&mut self, by: SimTime) {
        Timeline::advance(self, by);
    }
}

/// No clock: the planner sums the latencies in `alloc_time` and nothing else.
impl Clock for () {
    fn advance(&mut self, _: SimTime) {}
}

/// The simulated GPU's memory as the executor (`C` = its [`Timeline`]) and
/// the planner (`C` = `()`) see it.
#[derive(Debug, Clone)]
pub struct Device<C = Timeline> {
    pub tl: C,
    pub alloc: AllocatorImpl,
    /// The Unified Tensor Pool's external tiers (Fig. 7).
    pub host: TieredPool,
    /// Accumulated host-side allocator latency (Table 2's overhead).
    pub alloc_time: SimTime,
    pub alloc_calls: u64,
}

impl<C: Clock> Device<C> {
    pub fn new(spec: &DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) -> Device<C> {
        Device {
            tl: C::default(),
            alloc: AllocatorImpl::new(spec, allocator),
            host: TieredPool::new(tiers),
            alloc_time: SimTime::ZERO,
            alloc_calls: 0,
        }
    }

    /// Become `new(spec, allocator, tiers)` in place (the clock aside),
    /// keeping the pools' allocations and a same-kind allocator's.
    pub(crate) fn reset(&mut self, spec: &DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) {
        match (&mut self.alloc, allocator) {
            (AllocatorImpl::Pool(p), AllocatorKind::HeapPool) => p.reset(spec.dram_bytes),
            (AllocatorImpl::Cuda(c), AllocatorKind::Cuda) => c.reset(spec),
            (alloc, kind) => *alloc = AllocatorImpl::new(spec, kind),
        }
        self.host.reset(tiers);
        (self.alloc_time, self.alloc_calls) = (SimTime::ZERO, 0);
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
        let mut d = Device::<Timeline>::new(
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
        d.free_charged(g.id);
        assert_eq!(d.alloc.used(), 0);
    }

    #[test]
    fn cuda_device_charges_large_latency() {
        let mut d = Device::<Timeline>::new(
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
            let mut d = Device::<Timeline>::new(&spec, kind, TierConfig::default());
            assert!(d.alloc_charged(2 << 20).is_err());
        }
    }
}
