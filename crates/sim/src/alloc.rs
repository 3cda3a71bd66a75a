//! Device allocation interface and the `cudaMalloc`/`cudaFree` cost model.
//!
//! The SuperNeurons heap pool (`sn-mempool`) and the raw CUDA allocator both
//! implement [`DeviceAllocator`]; the planner runs either, so Table 2
//! (pool vs. `cudaMalloc`) is a one-line policy switch.

use crate::spec::DeviceSpec;
use crate::time::SimTime;

/// Opaque handle for a live allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(pub u64);

/// A successful allocation: a device address plus the host-side latency the
/// call cost (charged to the timeline by the caller).
#[derive(Debug, Clone, Copy)]
pub struct AllocGrant {
    pub id: AllocId,
    /// Byte offset within device DRAM.
    pub addr: u64,
    /// Rounded-up size actually reserved.
    pub bytes: u64,
    /// Host-side latency of the allocation call.
    pub cost: SimTime,
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free region can satisfy the request. `largest < requested ≤ free`
    /// means fragmentation, not exhaustion: enough total bytes exist but no
    /// contiguous run is big enough.
    OutOfMemory {
        requested: u64,
        /// Total free bytes across all fragments.
        free: u64,
        /// Largest contiguous free fragment.
        largest: u64,
    },
    /// The handle passed to `free` is unknown (double free or corruption).
    UnknownAllocation,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                free,
                largest,
            } => {
                write!(
                    f,
                    "device out of memory: requested {requested} bytes, {free} free \
                     (largest contiguous fragment {largest})"
                )?;
                if largest < requested && *requested <= *free {
                    write!(f, " — fragmentation, not exhaustion")?;
                }
                Ok(())
            }
            AllocError::UnknownAllocation => write!(f, "unknown allocation handle"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Abstract device memory allocator.
///
/// Implementations must be exact about capacity: the runtime's correctness
/// claims (`peak_m ≤ DRAM`) are checked against [`DeviceAllocator::used`] and
/// the high-water mark.
pub trait DeviceAllocator {
    /// Reserve `bytes` of device memory.
    fn alloc(&mut self, bytes: u64) -> Result<AllocGrant, AllocError>;

    /// Release a previous grant, returning the host-side latency of the call.
    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError>;

    /// Bytes currently reserved.
    fn used(&self) -> u64;

    /// Total capacity in bytes.
    fn capacity(&self) -> u64;

    /// Maximum of `used()` ever observed.
    fn high_water(&self) -> u64;

    /// Bytes available for a new request (capacity-aware, fragmentation-aware
    /// where applicable).
    fn free_bytes(&self) -> u64 {
        self.capacity() - self.used()
    }

    /// Largest single allocation that could currently succeed. For
    /// non-fragmenting allocators this equals `free_bytes()`.
    fn largest_free_contiguous(&self) -> u64 {
        self.free_bytes()
    }

    /// Highest device address a grant has ended at since construction: the
    /// smallest capacity under which every allocation so far would have
    /// succeeded *at the address it got*. Never below the lifetime maximum
    /// of [`DeviceAllocator::used`] — all reserved bytes lie under it — and
    /// above it by whatever holes fragmentation left. The planner reports
    /// it as the lower end of the device caps a plan stays valid for.
    fn extent_high_water(&self) -> u64;
}

/// `cudaMalloc`/`cudaFree` stand-in: an ideal (never-fragmenting) capacity
/// tracker whose calls cost the latencies of [`DeviceSpec`]. This is the
/// baseline SuperNeurons' heap pool is measured against in Table 2; real
/// cudaMalloc also implicitly synchronizes the device, which is captured by
/// the relatively large fixed latencies.
#[derive(Debug, Clone)]
pub struct CudaAllocator {
    capacity: u64,
    used: u64,
    high_water: u64,
    next_id: u64,
    malloc_base: SimTime,
    malloc_per_mib: SimTime,
    free_base: SimTime,
    /// ID→bytes for live grants. Keys are a sequential counter, so the
    /// deterministic single-multiply Fx hasher beats SipHash with nothing
    /// lost (no untrusted keys here).
    live: fxhash::FxHashMap<u64, u64>,
    /// Monotone bump pointer for fake addresses (never reused; real CUDA
    /// addresses are also opaque).
    next_addr: u64,
}

impl CudaAllocator {
    pub fn new(spec: &DeviceSpec) -> Self {
        CudaAllocator {
            capacity: spec.dram_bytes,
            used: 0,
            high_water: 0,
            next_id: 0,
            malloc_base: spec.malloc_base,
            malloc_per_mib: spec.malloc_per_mib,
            free_base: spec.free_base,
            live: fxhash::FxHashMap::default(),
            next_addr: 0,
        }
    }

    /// Become `new(spec)` in place, keeping the live map's allocation.
    pub fn reset(&mut self, spec: &DeviceSpec) {
        self.live = std::mem::replace(self, CudaAllocator::new(spec)).live;
        self.live.clear();
    }

    fn malloc_cost(&self, bytes: u64) -> SimTime {
        let mib = bytes.div_ceil(crate::spec::MB);
        SimTime(self.malloc_base.0 + self.malloc_per_mib.0 * mib)
    }
}

impl DeviceAllocator for CudaAllocator {
    fn alloc(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        // cudaMalloc rounds to 256-byte granularity.
        let bytes = bytes.max(1).div_ceil(256) * 256;
        if self.used + bytes > self.capacity {
            // The cudaMalloc model never fragments (it is a capacity meter,
            // not an address-space model), so the largest "fragment" is all
            // of the free space.
            return Err(AllocError::OutOfMemory {
                requested: bytes,
                free: self.capacity - self.used,
                largest: self.capacity - self.used,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let addr = self.next_addr;
        self.next_addr += bytes;
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        self.live.insert(id, bytes);
        Ok(AllocGrant {
            id: AllocId(id),
            addr,
            bytes,
            cost: self.malloc_cost(bytes),
        })
    }

    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError> {
        let bytes = self
            .live
            .remove(&id.0)
            .ok_or(AllocError::UnknownAllocation)?;
        self.used -= bytes;
        Ok(self.free_base)
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn high_water(&self) -> u64 {
        self.high_water
    }

    /// A capacity meter has no addresses to fragment: the extent is the
    /// most bytes ever reserved at once.
    fn extent_high_water(&self) -> u64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MB;

    fn alloc() -> CudaAllocator {
        CudaAllocator::new(&DeviceSpec::k40c().with_dram(MB))
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = alloc();
        let g = a.alloc(1000).unwrap();
        assert_eq!(g.bytes, 1024); // rounded to 256B granularity
        assert_eq!(a.used(), 1024);
        a.free(g.id).unwrap();
        assert_eq!(a.used(), 0);
        assert_eq!(a.high_water(), 1024);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let mut a = alloc();
        let _g = a.alloc(MB - 256).unwrap();
        let err = a.alloc(512).unwrap_err();
        assert!(matches!(err, AllocError::OutOfMemory { .. }));
    }

    #[test]
    fn double_free_rejected() {
        let mut a = alloc();
        let g = a.alloc(256).unwrap();
        a.free(g.id).unwrap();
        assert_eq!(a.free(g.id).unwrap_err(), AllocError::UnknownAllocation);
    }

    #[test]
    fn costs_accumulate() {
        let mut a = alloc();
        let g = a.alloc(512 * 1024).unwrap();
        assert!(g.cost > SimTime::ZERO);
        let f = a.free(g.id).unwrap();
        assert!(f > SimTime::ZERO);
    }

    #[test]
    fn malloc_cost_grows_with_size() {
        let mut a = CudaAllocator::new(&DeviceSpec::k40c());
        let small = a.alloc(crate::spec::KB).unwrap().cost;
        let big = a.alloc(256 * MB).unwrap().cost;
        assert!(big > small);
        // Fixed part dominates tiny allocations.
        assert_eq!(small, SimTime::from_us(30) + SimTime::from_us(1));
    }

    #[test]
    fn zero_byte_request_still_valid() {
        let mut a = alloc();
        let g = a.alloc(0).unwrap();
        assert_eq!(g.bytes, 256);
        a.free(g.id).unwrap();
    }
}
