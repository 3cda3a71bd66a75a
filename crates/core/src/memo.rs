//! The bounded LRU the compile caches share, and the recency list under it.
//!
//! The paper's Tensor Cache (§3.3, Alg. 2) keeps hot tensors on the device
//! with an LRU because reuse is temporally local; the same holds for the
//! runtime's own compile caches — admission ladders and feasibility searches
//! re-ask a small hot set of `(net, policy, device)` questions. Both sit on
//! one [`RecencyList`]: [`crate::utp::Utp`] indexes it by tensor id,
//! [`LruMemo`] by slab slot.
//!
//! An [`LruMemo`] at its cap evicts exactly the least-recently-used entry,
//! so an overflow costs one recomputable value instead of the whole hot set.
//! [`SharedMemo`] is the form a [`crate::Compiler`]'s caches take: the memo
//! behind a poison-tolerant lock that nothing is computed or dropped under.

use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

use fxhash::{FxBuildHasher, FxHashMap};

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Link {
    newer: u32,
    older: u32,
    linked: bool,
}

const UNLINKED: Link = Link {
    newer: NONE,
    older: NONE,
    linked: false,
};

/// An intrusive doubly-linked recency order over dense `u32` slots:
/// per-slot `newer`/`older` links in one array, head = most recently used,
/// tail = least. Every mutation is O(1) with no allocation and no hashing;
/// slots exist whether linked or not, so membership is a flag test.
#[derive(Debug, Clone)]
pub(crate) struct RecencyList {
    links: Vec<Link>,
    head: u32,
    tail: u32,
    len: usize,
}

impl RecencyList {
    /// A list over `slots` unlinked slots.
    pub(crate) fn new(slots: usize) -> RecencyList {
        RecencyList {
            links: vec![UNLINKED; slots],
            head: NONE,
            tail: NONE,
            len: 0,
        }
    }

    /// Become `new(slots)` in place, keeping the links' allocation.
    pub(crate) fn renew(&mut self, slots: usize) {
        self.links.clear();
        self.links.resize(slots, UNLINKED);
        (self.head, self.tail, self.len) = (NONE, NONE, 0);
    }

    /// Link `i` at the MRU end. `i` must not be linked.
    pub(crate) fn push_front(&mut self, i: u32) {
        debug_assert!(!self.links[i as usize].linked);
        self.links[i as usize] = Link {
            newer: NONE,
            older: self.head,
            linked: true,
        };
        if self.head != NONE {
            self.links[self.head as usize].newer = i;
        }
        self.head = i;
        if self.tail == NONE {
            self.tail = i;
        }
        self.len += 1;
    }

    /// Unlink `i` wherever it sits. No-op when not linked — and an empty
    /// list has nothing linked, so it answers without reading `i`'s slot.
    pub(crate) fn unlink(&mut self, i: u32) {
        if self.len == 0 {
            return;
        }
        let Link {
            newer: n,
            older: o,
            linked,
        } = self.links[i as usize];
        if !linked {
            return;
        }
        if n != NONE {
            self.links[n as usize].older = o;
        } else {
            self.head = o;
        }
        if o != NONE {
            self.links[o as usize].newer = n;
        } else {
            self.tail = n;
        }
        self.links[i as usize].linked = false;
        self.len -= 1;
    }

    /// Move `i` to the MRU end if linked.
    pub(crate) fn touch(&mut self, i: u32) {
        if self.head != i && self.links[i as usize].linked {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Unlink everything; the slots stay.
    pub(crate) fn clear(&mut self) {
        let mut i = self.head;
        while i != NONE {
            let next = self.links[i as usize].older;
            self.links[i as usize].linked = false;
            i = next;
        }
        self.head = NONE;
        self.tail = NONE;
        self.len = 0;
    }

    /// Linked slots from least to most recently used.
    pub(crate) fn lru_to_mru(&self) -> impl Iterator<Item = u32> + '_ {
        self.walk(self.tail, |l| l.newer)
    }

    /// Linked slots from most to least recently used.
    pub(crate) fn mru_to_lru(&self) -> impl Iterator<Item = u32> + '_ {
        self.walk(self.head, |l| l.older)
    }

    fn walk(&self, from: u32, next: fn(&Link) -> u32) -> impl Iterator<Item = u32> + '_ {
        let mut i = from;
        std::iter::from_fn(move || {
            (i != NONE).then(|| {
                let at = i;
                i = next(&self.links[at as usize]);
                at
            })
        })
    }
}

/// A map of at most `cap` entries that forgets the least-recently-used one
/// first. `FxHashMap<K, u32>` resolves a key to a slot of a slab of
/// `(K, V)`; a [`RecencyList`] over the slots keeps the order. `get` and
/// `insert` are O(1). Slots are only ever vacated by eviction (reused on the
/// spot) or by [`LruMemo::clear`], so the slab stays dense and grows on
/// demand — a memo that never fills never pays for its cap.
///
/// Keys are `Copy`: one sits in the map, one in the slab, and building one
/// for a lookup allocates nothing.
#[derive(Debug)]
pub(crate) struct LruMemo<K, V> {
    cap: usize,
    map: FxHashMap<K, u32>,
    slab: Vec<(K, V)>,
    recency: RecencyList,
}

impl<K: Copy + Eq + Hash, V> LruMemo<K, V> {
    pub(crate) const fn new(cap: usize) -> LruMemo<K, V> {
        assert!(cap >= 1 && cap < NONE as usize);
        LruMemo {
            cap,
            map: FxHashMap::with_hasher(FxBuildHasher::new()),
            slab: Vec::new(),
            recency: RecencyList {
                links: Vec::new(),
                head: NONE,
                tail: NONE,
                len: 0,
            },
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }

    /// The value under `key`, which becomes the most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.recency.touch(slot);
        Some(&self.slab[slot as usize].1)
    }

    /// Store `value` under `key` as the most recently used entry. Returns
    /// the value this displaced — the previous one under `key`, or at the
    /// cap the least-recently-used entry's — so that [`SharedMemo`] can drop
    /// it after releasing its lock.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&slot) = self.map.get(&key) {
            self.recency.touch(slot);
            return Some(std::mem::replace(&mut self.slab[slot as usize].1, value));
        }
        if self.slab.len() < self.cap {
            let slot = self.slab.len() as u32;
            self.slab.push((key, value));
            // `clear` keeps the list's slots, so a refill finds them there.
            if slot as usize == self.recency.links.len() {
                self.recency.links.push(UNLINKED);
            }
            self.recency.push_front(slot);
            self.map.insert(key, slot);
            return None;
        }
        let slot = (self.recency.lru_to_mru().next()).expect("a full memo has a tail");
        let (old_key, old_value) = std::mem::replace(&mut self.slab[slot as usize], (key, value));
        self.map.remove(&old_key);
        self.map.insert(key, slot);
        self.recency.touch(slot);
        Some(old_value)
    }

    /// Forget every entry; allocated capacity is kept for the refill.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.recency.clear();
    }
}

/// An [`LruMemo`] behind a mutex: what a compile cache shared by threads is.
/// Two disciplines live here instead of at every call site:
///
/// * under the lock a value is only cloned out or read in place
///   ([`SharedMemo::probe`], which answers the plan memo's open-interval and
///   cap-pinned probes with one guard); displaced values are dropped
///   **after** it is released, and callers build values before taking it,
///   so nothing that can panic (or take long) runs under the lock;
/// * which makes it sound to recover the guard from a poisoned lock — it
///   still guards a consistent memo — so one thread that dies holding it
///   does not fail every later admission.
#[derive(Debug)]
pub(crate) struct SharedMemo<K, V>(Mutex<LruMemo<K, V>>);

impl<K: Copy + Eq + Hash, V: Clone> SharedMemo<K, V> {
    /// An empty memo.
    pub(crate) fn new(cap: usize) -> SharedMemo<K, V> {
        SharedMemo(Mutex::new(LruMemo::new(cap)))
    }

    fn lock(&self) -> MutexGuard<'_, LruMemo<K, V>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A clone of the value under `key`, which becomes the most recent — or,
    /// on a miss, `build()`'s, stored under `key`. `build` runs outside the
    /// lock: two threads that miss at once may both build (the last insert
    /// wins), but neither waits on the other's build.
    pub(crate) fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> V {
        if let Some(hit) = self.lock().get(&key).cloned() {
            return hit;
        }
        let value = build();
        self.insert(key, value.clone());
        value
    }

    /// `probes` run on the memo under one guard: several lookups for the
    /// price of one lock, and a value read in place instead of cloned out.
    /// What `probes` does must be as cheap and as panic-free as a clone.
    pub(crate) fn probe<R>(&self, probes: impl FnOnce(&mut LruMemo<K, V>) -> R) -> R {
        probes(&mut self.lock())
    }

    /// Store `value` under `key`, displacing at the cap the
    /// least-recently-used entry.
    pub(crate) fn insert(&self, key: K, value: V) {
        let displaced = self.lock().insert(key, value);
        drop(displaced);
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Forget every entry (capacity is kept).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }

    /// Poison the lock the way a thread dying under it would.
    #[cfg(test)]
    pub(crate) fn poison(&self)
    where
        K: Send,
        V: Send,
    {
        poison(&self.0);
    }
}

/// Poison `m` the way a thread dying under it would.
#[cfg(test)]
pub(crate) fn poison<T: Send>(m: &Mutex<T>) {
    let died = std::thread::scope(|s| {
        s.spawn(|| {
            let _held = m.lock();
            panic!("poisoning a lock on purpose");
        })
        .join()
    });
    assert!(died.is_err() && m.is_poisoned());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn order(m: &LruMemo<u32, u32>) -> Vec<u32> {
        m.recency
            .mru_to_lru()
            .map(|s| m.slab[s as usize].0)
            .collect()
    }

    #[test]
    fn evicts_the_least_recent_and_get_refreshes() {
        let mut m = LruMemo::new(3);
        for k in 0..3 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        // 0 is the oldest; reading it makes 1 the victim instead.
        assert_eq!(m.get(&0), Some(&0));
        assert_eq!(m.insert(3, 30), Some(10));
        assert_eq!(m.get(&1), None);
        assert_eq!(order(&m), [3, 0, 2]);
        assert_eq!(m.insert(4, 40), Some(20));
        assert_eq!(order(&m), [4, 3, 0]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn overwrite_keeps_one_slot_and_returns_the_old_value() {
        let mut m = LruMemo::new(2);
        m.insert(7, 1);
        m.insert(8, 2);
        assert_eq!(m.insert(7, 3), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(order(&m), [7, 8]);
        assert_eq!(m.get(&7), Some(&3));
    }

    #[test]
    fn clear_resets_and_the_memo_refills() {
        let mut m = LruMemo::new(2);
        m.insert(1, 1);
        m.insert(2, 2);
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&1), None);
        assert!(order(&m).is_empty());
        m.insert(3, 3);
        m.insert(4, 4);
        assert_eq!(m.insert(5, 5), Some(3));
        assert_eq!(order(&m), [5, 4]);
    }

    #[test]
    fn cap_of_one_holds_the_last_key() {
        let mut m = LruMemo::new(1);
        assert_eq!(m.insert(1, 1), None);
        assert_eq!(m.insert(2, 2), Some(1));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.get(&2), Some(&2));
    }

    /// The obvious LRU: a `Vec` in recency order, front = most recent.
    #[derive(Default)]
    struct Model(Vec<(u32, u32)>);

    impl Model {
        fn get(&mut self, k: u32) -> Option<u32> {
            let pos = self.0.iter().position(|e| e.0 == k)?;
            let e = self.0.remove(pos);
            self.0.insert(0, e);
            Some(e.1)
        }

        fn insert(&mut self, k: u32, v: u32, cap: usize) -> Option<u32> {
            let old = match self.0.iter().position(|e| e.0 == k) {
                Some(pos) => Some(self.0.remove(pos).1),
                None if self.0.len() == cap => self.0.pop().map(|e| e.1),
                None => None,
            };
            self.0.insert(0, (k, v));
            old
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn matches_the_naive_model(
            cap in 1usize..9,
            ops in proptest::collection::vec((0u8..8, 0u32..12, 0u32..1000), 0..200),
        ) {
            let mut m = LruMemo::new(cap);
            let mut model = Model::default();
            for (op, k, v) in ops {
                match op {
                    0..=3 => prop_assert_eq!(m.get(&k).copied(), model.get(k)),
                    4..=6 => prop_assert_eq!(m.insert(k, v), model.insert(k, v, cap)),
                    _ => {
                        m.clear();
                        model.0.clear();
                    }
                }
                prop_assert!(m.len() <= cap);
                prop_assert_eq!(m.len(), m.map.len());
                prop_assert_eq!(m.len(), m.recency.len);
                let keys: Vec<u32> = model.0.iter().map(|e| e.0).collect();
                prop_assert_eq!(order(&m), keys);
            }
        }
    }
}
