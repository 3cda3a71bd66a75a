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
/// grant (charging the call's latency) and host slot: the planner's
/// [`Device`], or the executor build's one pass over the plan.
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
/// `free_base`). A charge is a count of granules, worked out when the
/// executor is built (`SimDevice::granules`); both granules and the MiB
/// are powers of two, so a charge shifts and never divides.
#[derive(Debug, Clone)]
pub struct SimDevice {
    pub tl: Timeline,
    pub host: TieredPool,
    /// `high_water` is the most `used` since the caller last set it.
    pub used: u64,
    pub high_water: u64,
    pub capacity: u64,
    /// log2 of the granule.
    shift: u32,
    alloc_base: SimTime,
    alloc_per_mib: SimTime,
    free_cost: SimTime,
    pub alloc_time: SimTime,
    pub alloc_calls: u64,
}

const _: () = assert!(BLOCK_BYTES.is_power_of_two() && MB.is_power_of_two());

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
            shift: granule.trailing_zeros(),
            alloc_base,
            alloc_per_mib,
            free_cost,
            alloc_time: SimTime::ZERO,
            alloc_calls: 0,
        }
    }

    /// The granules a grant of `bytes` takes.
    pub(crate) fn granules(&self, bytes: u64) -> u64 {
        ((bytes.max(1) - 1) >> self.shift) + 1
    }

    /// Charge `granules`, or `false` past the capacity (compared in
    /// granules, so a count past the card cannot overflow into bytes).
    pub(crate) fn charge(&mut self, granules: u64) -> bool {
        if granules > (self.capacity - self.used) >> self.shift {
            return false;
        }
        let bytes = granules << self.shift;
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        let mibs = ((bytes - 1) >> MB.trailing_zeros()) + 1;
        let cost = SimTime(self.alloc_base.0 + self.alloc_per_mib.0 * mibs);
        self.tl.advance(cost);
        self.alloc_time += cost;
        self.alloc_calls += 1;
        true
    }

    /// Return a grant of `granules`; zero is no grant, and costs nothing.
    pub(crate) fn refund(&mut self, granules: u64) {
        if granules > 0 {
            self.used -= granules << self.shift;
            self.tl.advance(self.free_cost);
            self.alloc_time += self.free_cost;
        }
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
        let g = d.granules(1 << 20);
        assert!(d.charge(g));
        assert!(d.tl.now() > t0);
        assert!(
            (d.tl.now() - t0).as_ns() < 10_000,
            "pool alloc must be sub-10us"
        );
        d.refund(g);
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
        assert!(d.charge(d.granules(64 << 20)));
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
            assert!(!d.charge(d.granules(2 << 20)));
            assert!(!d.charge(d.granules(u64::MAX)));
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
                let (a, used) = (d.granules(bytes), d.used);
                assert!(d.charge(a));
                let b = p.alloc_charged(bytes).unwrap();
                assert_eq!(d.used - used, b.bytes, "{kind:?}: {bytes} B");
                live.push((a, b.id));
                if i % 3 == 2 {
                    let (a, b) = live.remove(0);
                    d.refund(a);
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
