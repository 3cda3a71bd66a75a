//! A generation-stamped slab: stable integer keys for job state with O(1)
//! insert/remove and slot reuse.
//!
//! The indexed event loop needs two properties a plain `Vec` or hash map
//! does not give cheaply together:
//!
//! 1. **Constant memory over unbounded streams** — a million-job arrival
//!    stream must not grow job-state storage past the *active* set
//!    (pending + running), so freed slots are recycled;
//! 2. **Safe stale references** — queued retries and per-device tenant
//!    lists hold keys to job state. Each slot carries a generation counter,
//!    bumped on free; a [`SlotKey`] made for one occupant can never resolve
//!    to a later one, so a key that outlived its job fails loudly instead
//!    of touching its successor.

/// A key into a [`Slab`]: slot index plus the generation it was issued for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SlotKey {
    idx: u32,
    gen: u32,
}

impl SlotKey {
    /// The slot this key addresses — what side tables indexed by slot (the
    /// event heap's position index) use.
    pub(crate) fn index(self) -> usize {
        self.idx as usize
    }
}

struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// Generational slab. Freed slots go on a free list and are reused with a
/// bumped generation, so total storage is bounded by the high-water count
/// of live entries, not by how many were ever inserted.
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-water slot count (diagnostic: the constant-memory claim).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn insert(&mut self, value: T) -> SlotKey {
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            SlotKey { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                value: Some(value),
            });
            SlotKey { idx, gen: 0 }
        }
    }

    /// `None` if the key's occupant was removed (even if the slot has been
    /// reused since).
    pub(crate) fn get(&self, key: SlotKey) -> Option<&T> {
        let slot = self.slots.get(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.value.as_ref()
    }

    pub(crate) fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen {
            return None;
        }
        slot.value.as_mut()
    }

    /// Remove and return the occupant; the slot's generation is bumped so
    /// every outstanding key for it goes stale, then the slot is recycled.
    pub(crate) fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen || slot.value.is_none() {
            return None;
        }
        let value = slot.value.take();
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(key.idx);
        self.len -= 1;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<&'static str> = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None, "removed key must be stale");
        assert_eq!(slab.remove(a), None, "double remove is a no-op");
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn reused_slots_do_not_resurrect_stale_keys() {
        let mut slab: Slab<u32> = Slab::new();
        let first = slab.insert(1);
        slab.remove(first);
        let second = slab.insert(2);
        // The freed slot was recycled...
        assert_eq!(slab.capacity(), 1);
        // ...but the old key must not see the new occupant.
        assert_eq!(slab.get(first), None);
        assert_eq!(slab.get(second), Some(&2));
    }

    #[test]
    fn storage_is_bounded_by_the_live_high_water() {
        let mut slab: Slab<u64> = Slab::new();
        let mut live = Vec::new();
        for i in 0..10_000u64 {
            live.push(slab.insert(i));
            if live.len() > 8 {
                let key = live.remove(0);
                assert!(slab.remove(key).is_some());
            }
        }
        assert!(
            slab.capacity() <= 9,
            "10k churned entries must reuse ~9 slots, got {}",
            slab.capacity()
        );
    }
}
