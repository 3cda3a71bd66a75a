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
/// grant (charging the call's latency) and host bytes: the planner's
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

    /// Become `new(spec, allocator, tiers)` in place, keeping a same-kind
    /// allocator's allocations.
    pub(crate) fn reset(&mut self, spec: &DeviceSpec, allocator: AllocatorKind, tiers: TierConfig) {
        match (&mut self.alloc, allocator) {
            (AllocatorImpl::Pool(p), AllocatorKind::HeapPool) => p.reset(spec.dram_bytes),
            (AllocatorImpl::Cuda(c), AllocatorKind::Cuda) => c.reset(spec),
            (alloc, kind) => *alloc = AllocatorImpl::new(spec, kind),
        }
        self.host = TieredPool::new(tiers);
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
/// a byte counter. The build prices each call as the plan's allocator does
/// (the pool's 1 KB blocks at constant latencies; `cudaMalloc`'s 256 B at
/// `malloc_base + malloc_per_mib·⌈MiB⌉` and `free_base`) and sums runs of
/// them into `Fold`s; a warm step only applies them. Both granules and
/// the MiB are powers of two, so pricing shifts and never divides.
#[derive(Debug, Clone)]
pub struct SimDevice {
    pub tl: Timeline,
    /// Bytes charged and not yet refunded.
    pub used: u64,
    pub capacity: u64,
    /// log2 of the granule.
    shift: u32,
    alloc_base: SimTime,
    alloc_per_mib: SimTime,
    free_cost: SimTime,
}

const _: () = assert!(BLOCK_BYTES.is_power_of_two() && MB.is_power_of_two());

/// What a run of allocator calls does to the device, summed: the host
/// latency it costs and the granules it charges net of those it returns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Fold {
    pub(crate) advance: SimTime,
    pub(crate) granules: i64,
}

impl SimDevice {
    pub fn new(spec: &DeviceSpec, allocator: AllocatorKind) -> SimDevice {
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
            used: 0,
            capacity,
            shift: granule.trailing_zeros(),
            alloc_base,
            alloc_per_mib,
            free_cost,
        }
    }

    /// The granules a grant of `bytes` takes.
    pub(crate) fn granules(&self, bytes: u64) -> u64 {
        ((bytes.max(1) - 1) >> self.shift) + 1
    }

    /// The bytes `granules` span.
    pub(crate) fn bytes(&self, granules: i64) -> i64 {
        granules << self.shift
    }

    /// A charge of `granules` beside `used` bytes, or `None` past the
    /// capacity (compared in granules, so a count past the card cannot
    /// overflow).
    pub(crate) fn charge(&self, used: u64, granules: u64) -> Option<Fold> {
        if granules > (self.capacity - used) >> self.shift {
            return None;
        }
        let mibs = (((granules << self.shift) - 1) >> MB.trailing_zeros()) + 1;
        let advance = SimTime(self.alloc_base.0 + self.alloc_per_mib.0 * mibs);
        let granules = granules as i64;
        Some(Fold { advance, granules })
    }

    /// The return of `granules`; zero is no grant, and costs nothing.
    pub(crate) fn refund(&self, granules: u64) -> Fold {
        let advance = SimTime(self.free_cost.0 * u64::from(granules > 0));
        let granules = -(granules as i64);
        Fold { advance, granules }
    }

    /// Advance the host clock past `f`'s calls and move the byte count.
    #[inline]
    pub(crate) fn apply(&mut self, f: Fold) {
        self.tl.advance(f.advance);
        self.used = self.used.wrapping_add_signed(self.bytes(f.granules));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_device_charges_small_latency() {
        let mut d = SimDevice::new(&DeviceSpec::k40c(), AllocatorKind::HeapPool);
        let t0 = d.tl.now();
        let g = d.granules(1 << 20);
        d.apply(d.charge(d.used, g).unwrap());
        assert!(d.tl.now() > t0);
        assert!(
            (d.tl.now() - t0).as_ns() < 10_000,
            "pool alloc must be sub-10us"
        );
        d.apply(d.refund(g));
        assert_eq!(d.used, 0);
    }

    #[test]
    fn cuda_device_charges_large_latency() {
        let mut d = SimDevice::new(&DeviceSpec::k40c(), AllocatorKind::Cuda);
        let t0 = d.tl.now();
        d.apply(d.charge(d.used, d.granules(64 << 20)).unwrap());
        assert!(
            (d.tl.now() - t0).as_ns() > 50_000,
            "cudaMalloc must cost >50us"
        );
    }

    #[test]
    fn capacity_respected_by_both() {
        for kind in [AllocatorKind::HeapPool, AllocatorKind::Cuda] {
            let spec = DeviceSpec::k40c().with_dram(1 << 20);
            let d = SimDevice::new(&spec, kind);
            assert!(d.charge(d.used, d.granules(2 << 20)).is_none());
            assert!(d.charge(d.used, d.granules(u64::MAX)).is_none());
            let mut p = Device::new(&spec, kind, TierConfig::default());
            assert!(p.alloc_charged(2 << 20).is_err());
        }
    }

    /// The interpreter's counter charges what the planner's allocator does,
    /// call for call: the same rounded bytes, peak and latencies (the
    /// counter's clock advances by nothing else).
    #[test]
    fn the_counter_charges_what_the_allocator_does() {
        let spec = DeviceSpec::k40c().with_dram(64 << 20);
        let sizes = [0, 1, 255, 256, 257, 1023, 1025, 3 << 20, (1 << 20) + 1, 7];
        for kind in [AllocatorKind::HeapPool, AllocatorKind::Cuda] {
            let mut d = SimDevice::new(&spec, kind);
            let mut p = Device::new(&spec, kind, TierConfig::default());
            assert_eq!(d.capacity, p.alloc.capacity(), "{kind:?}");
            let (mut live, mut high_water) = (Vec::new(), 0);
            for (i, &bytes) in sizes.iter().enumerate() {
                let (a, before) = (d.granules(bytes), d.used);
                d.apply(d.charge(d.used, a).unwrap());
                high_water = high_water.max(d.used);
                let b = p.alloc_charged(bytes).unwrap();
                assert_eq!(d.used - before, b.bytes, "{kind:?}: {bytes} B");
                live.push((a, b.id));
                if i % 3 == 2 {
                    let (a, b) = live.remove(0);
                    d.apply(d.refund(a));
                    p.free_charged(b);
                }
                assert_eq!((d.used, high_water), (p.alloc.used(), p.alloc.high_water()));
                assert_eq!(d.tl.now(), p.alloc_time);
            }
        }
    }
}
