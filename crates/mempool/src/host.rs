//! Pinned host memory pool.
//!
//! Offloaded tensors land in preallocated *pinned* (page-locked) CPU memory:
//! the paper faults TensorFlow for swapping through pageable buffers, which
//! halves PCIe throughput. We model the pinned pool as a byte-accounted
//! region: capacity is finite (pinning beyond physical RAM fails) and every
//! tensor keeps a stable host slot for its lifetime so repeated offloads of
//! the same tensor do not re-register memory.

/// Handle for a host-side slot. The low 32 bits carry the slab slot, the
/// high bits a per-reservation sequence number, so stale handles are
/// detectable after the slot is recycled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostSlot(pub u64);

/// Preallocated pinned CPU buffer used as the offload target of the Unified
/// Tensor Pool.
///
/// Reservations live in a slot slab indexed straight from the handle (the
/// planner reserves/releases a slot per offloaded tensor on its hot path —
/// a hashed map here was measurable in compile profiles).
#[derive(Debug, Clone)]
pub struct PinnedHostPool {
    capacity: u64,
    used: u64,
    high_water: u64,
    /// `(handle, bytes)` per occupied slot.
    slots: Vec<Option<(u64, u64)>>,
    spare: Vec<u32>,
    next_seq: u64,
}

impl PinnedHostPool {
    pub fn new(capacity: u64) -> Self {
        PinnedHostPool {
            capacity,
            used: 0,
            high_water: 0,
            slots: Vec::new(),
            spare: Vec::new(),
            next_seq: 0,
        }
    }

    /// Become `new(capacity)` in place, keeping the slab's allocation.
    pub fn reset(&mut self, capacity: u64) {
        self.slots.clear();
        self.spare.clear();
        (self.capacity, self.used, self.high_water) = (capacity, 0, 0);
        self.next_seq = 0;
    }

    /// Reserve a pinned slot of `bytes`. Returns `None` when the host pool is
    /// exhausted (the runtime then falls back to failing the training run —
    /// matching a machine that cannot pin more RAM).
    #[inline]
    pub fn reserve(&mut self, bytes: u64) -> Option<HostSlot> {
        // Against the remainder, not `used + bytes`: that sum wraps for
        // requests near `u64::MAX` and would grant them.
        if bytes > self.capacity - self.used {
            return None;
        }
        let slot = self.spare.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        let id = (self.next_seq << 32) | slot as u64;
        self.next_seq += 1;
        self.used += bytes;
        self.high_water = self.high_water.max(self.used);
        self.slots[slot as usize] = Some((id, bytes));
        Some(HostSlot(id))
    }

    /// Release a slot. Stale or double-released handles are ignored (their
    /// slot either holds nothing or a newer reservation's id).
    #[inline]
    pub fn release(&mut self, slot: HostSlot) {
        let idx = (slot.0 & u32::MAX as u64) as usize;
        match self.slots.get(idx) {
            Some(Some((stored, bytes))) if *stored == slot.0 => {
                self.used -= *bytes;
                self.slots[idx] = None;
                self.spare.push(idx as u32);
            }
            _ => {}
        }
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

    fn live_slots(h: &PinnedHostPool) -> usize {
        h.slots.iter().flatten().count()
    }

    #[test]
    fn reserve_release_roundtrip() {
        let mut h = PinnedHostPool::new(1000);
        let a = h.reserve(400).unwrap();
        let b = h.reserve(600).unwrap();
        assert_eq!(h.used(), 1000);
        assert!(h.reserve(1).is_none());
        h.release(a);
        assert_eq!(h.used(), 600);
        assert_eq!(h.high_water(), 1000);
        h.release(b);
        assert_eq!(live_slots(&h), 0);
    }

    #[test]
    fn oversized_request_is_refused_without_overflow() {
        let mut h = PinnedHostPool::new(1000);
        let _a = h.reserve(400).unwrap();
        assert!(h.reserve(u64::MAX).is_none());
        assert!(h.reserve(u64::MAX - 399).is_none(), "400 + this wraps to 0");
        assert_eq!((h.used(), h.high_water(), live_slots(&h)), (400, 400, 1));
        assert!(h.reserve(600).is_some(), "the remainder is still grantable");
    }

    #[test]
    fn double_release_is_harmless() {
        let mut h = PinnedHostPool::new(100);
        let a = h.reserve(50).unwrap();
        h.release(a);
        h.release(a);
        assert_eq!(h.used(), 0);
    }
}
