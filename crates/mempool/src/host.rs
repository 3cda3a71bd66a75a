//! Pinned host memory pool.
//!
//! Offloaded tensors land in preallocated *pinned* (page-locked) CPU memory:
//! the paper faults TensorFlow for swapping through pageable buffers, which
//! halves PCIe throughput. We model the pinned pool as a byte counter:
//! capacity is finite (pinning beyond physical RAM fails), and every holder
//! of a slot knows its bytes, so the pool keeps no per-slot record.

/// Preallocated pinned CPU buffer used as the offload target of the Unified
/// Tensor Pool: its capacity, the bytes reserved and their high water.
#[derive(Debug, Clone)]
pub struct PinnedHostPool {
    capacity: u64,
    used: u64,
    high_water: u64,
}

impl PinnedHostPool {
    pub fn new(capacity: u64) -> Self {
        PinnedHostPool {
            capacity,
            used: 0,
            high_water: 0,
        }
    }

    /// Reserve `bytes`. Returns `false` when the host pool is exhausted (the
    /// runtime then falls back to failing the training run — matching a
    /// machine that cannot pin more RAM).
    #[inline]
    pub fn reserve(&mut self, bytes: u64) -> bool {
        // Against the remainder, not `used + bytes`: that sum wraps for
        // requests near `u64::MAX` and would grant them.
        if bytes > self.capacity - self.used {
            return false;
        }
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        true
    }

    /// Return `bytes` a reservation took. Panics on returning more than is
    /// reserved: a slot released twice, or with the wrong size.
    #[inline]
    pub fn release(&mut self, bytes: u64) {
        self.used = self
            .used
            .checked_sub(bytes)
            .expect("released more pinned bytes than are reserved");
    }

    pub fn used(&self) -> u64 {
        self.used
    }

    pub fn high_water(&self) -> u64 {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip() {
        let mut h = PinnedHostPool::new(1000);
        assert!(h.reserve(400));
        assert!(h.reserve(600));
        assert_eq!(h.used(), 1000);
        assert!(!h.reserve(1));
        h.release(400);
        assert_eq!(h.used(), 600);
        assert_eq!(h.high_water(), 1000);
        h.release(600);
        assert_eq!(h.used(), 0);
    }

    #[test]
    fn oversized_request_is_refused_without_overflow() {
        let mut h = PinnedHostPool::new(1000);
        assert!(h.reserve(400));
        assert!(!h.reserve(u64::MAX));
        assert!(!h.reserve(u64::MAX - 399), "400 + this wraps to 0");
        assert_eq!((h.used(), h.high_water()), (400, 400));
        assert!(h.reserve(600), "the remainder is still grantable");
    }

    #[test]
    #[should_panic(expected = "released more pinned bytes")]
    fn double_release_panics() {
        let mut h = PinnedHostPool::new(100);
        assert!(h.reserve(50));
        h.release(50);
        h.release(50);
    }
}
