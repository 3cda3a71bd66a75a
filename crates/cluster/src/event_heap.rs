//! The event queue: a binary min-heap whose completion entries are
//! *addressable*.
//!
//! Entries are ordered by `(t_ns, order)` — the simulator's one clock, in
//! integer ns, then an integer tiebreak — earliest first, so every entry
//! due at an instant pops in one batch and in arrival-sequence order. Three
//! of the five event kinds are fire-and-forget (the next arrival, the next
//! fault batch, a parked job's retry). The other two are projected
//! completions, and they move every time a tenant count they depend on
//! changes: a running gang's own, and one per device for the earliest of
//! its single-device tenants, which share the device's clock. So the heap
//! keeps two position indexes, by slab slot and by device: `pos[slot]` is
//! where the completion entry of the gang living in `slot` currently sits,
//! `solo_pos[device]` where the device's is. A re-anchor rewrites an entry's
//! key in place and sifts it; an interrupt removes it. The queue therefore
//! holds **exactly one completion per running gang and per device with
//! single-device tenants** — nothing stale ever surfaces, and what pops is by
//! construction a live projection.

use crate::slab::SlotKey;

#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum EventKind {
    /// Projected completion of the running gang in this slot.
    Completion { key: SlotKey },
    /// Projected completion of a device's earliest single-device tenant, the
    /// one in `key`'s slot; `tied` if another of them is due at that instant.
    Solo {
        device: u32,
        key: SlotKey,
        tied: bool,
    },
    /// A parked job's backoff expires.
    Retry { key: SlotKey },
    /// The next pulled-but-unprocessed arrival is due.
    Arrival,
    /// The next batch of injected fault events is due.
    FaultDue,
}

pub(crate) struct Event {
    pub(crate) t_ns: u64,
    /// Tiebreak at equal times: completions and retries by arrival sequence
    /// (the reference loop's job-index order; a device's entry carries its
    /// earliest tenant's), then faults, then the arrival marker last.
    pub(crate) order: u64,
    pub(crate) kind: EventKind,
}

impl Event {
    fn before(&self, other: &Event) -> bool {
        (self.t_ns, self.order) < (other.t_ns, other.order)
    }
}

const NONE: u32 = u32::MAX;

#[derive(Default)]
pub(crate) struct EventHeap {
    heap: Vec<Event>,
    /// Heap position of each slab slot's completion entry, `NONE` without.
    pos: Vec<u32>,
    /// Heap position of each device's entry, `NONE` without.
    solo_pos: Vec<u32>,
}

impl EventHeap {
    /// An empty queue for a fleet of `devices`.
    pub(crate) fn new(devices: usize) -> EventHeap {
        let solo_pos = vec![NONE; devices];
        EventHeap {
            solo_pos,
            ..EventHeap::default()
        }
    }

    pub(crate) fn peek(&self) -> Option<&Event> {
        self.heap.first()
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        (!self.heap.is_empty()).then(|| self.remove_at(0))
    }

    /// Queue a retry, arrival or fault marker.
    pub(crate) fn push(&mut self, t_ns: u64, order: u64, kind: EventKind) {
        debug_assert!(
            !matches!(kind, EventKind::Completion { .. } | EventKind::Solo { .. }),
            "completions go through set"
        );
        self.heap.push(Event { t_ns, order, kind });
        self.sift_up(self.heap.len() - 1);
    }

    /// Set the projected completion of the gang in `key`'s slot: inserts the
    /// entry if the gang has none yet, otherwise re-keys it where it sits.
    pub(crate) fn set_completion(&mut self, key: SlotKey, t_ns: u64, order: u64) {
        self.set(EventKind::Completion { key }, t_ns, order);
    }

    /// [`EventHeap::set_completion`] for either kind of completion: a gang's
    /// entry, or a device's.
    pub(crate) fn set(&mut self, kind: EventKind, t_ns: u64, order: u64) {
        if let EventKind::Completion { key } = kind {
            if key.index() >= self.pos.len() {
                self.pos.resize(key.index() + 1, NONE);
            }
        }
        let at = match *self.cell(kind).expect("an addressable entry") {
            NONE => {
                self.heap.push(Event { t_ns, order, kind });
                self.heap.len() - 1
            }
            at => {
                self.heap[at as usize] = Event { t_ns, order, kind };
                at as usize
            }
        };
        let at = self.sift_up(at);
        self.sift_down(at);
    }

    /// Drop the completion entry of the gang in `key`'s slot, if it has one.
    pub(crate) fn remove_completion(&mut self, key: SlotKey) {
        if let Some(&at) = self.pos.get(key.index()) {
            if at != NONE {
                self.remove_at(at as usize);
            }
        }
    }

    /// Drop `device`'s entry, if it has one.
    pub(crate) fn remove_solo(&mut self, device: usize) {
        if self.solo_pos[device] != NONE {
            self.remove_at(self.solo_pos[device] as usize);
        }
    }

    /// The queued completion instant of the gang in `key`'s slot, `device`'s
    /// entry, and how many gang completions are queued in all — what the
    /// event core's per-instant invariant check holds against its running
    /// tenants.
    pub(crate) fn completion(&self, key: SlotKey) -> Option<u64> {
        let at = *self.pos.get(key.index())?;
        (at != NONE).then(|| self.heap[at as usize].t_ns)
    }

    pub(crate) fn solo(&self, device: usize) -> Option<&Event> {
        let at = *self.solo_pos.get(device)?;
        (at != NONE).then(|| &self.heap[at as usize])
    }

    pub(crate) fn completions(&self) -> usize {
        self.pos.iter().filter(|at| **at != NONE).count()
    }

    /// The position-index cell of an addressable entry; `None` for the
    /// fire-and-forget kinds.
    fn cell(&mut self, kind: EventKind) -> Option<&mut u32> {
        match kind {
            EventKind::Completion { key } => Some(&mut self.pos[key.index()]),
            EventKind::Solo { device, .. } => Some(&mut self.solo_pos[device as usize]),
            _ => None,
        }
    }

    fn remove_at(&mut self, at: usize) -> Event {
        let ev = self.heap.swap_remove(at);
        if let Some(cell) = self.cell(ev.kind) {
            *cell = NONE;
        }
        if at < self.heap.len() {
            let at = self.sift_up(at);
            self.sift_down(at);
        }
        ev
    }

    /// Record where the entry at `at` now sits.
    fn index(&mut self, at: usize) {
        if let Some(cell) = self.cell(self.heap[at].kind) {
            *cell = at as u32;
        }
    }

    fn sift_up(&mut self, mut at: usize) -> usize {
        while at > 0 {
            let parent = (at - 1) / 2;
            if !self.heap[at].before(&self.heap[parent]) {
                break;
            }
            self.heap.swap(at, parent);
            self.index(at);
            at = parent;
        }
        self.index(at);
        at
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let left = 2 * at + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right].before(&self.heap[left]) {
                right
            } else {
                left
            };
            if !self.heap[child].before(&self.heap[at]) {
                break;
            }
            self.heap.swap(at, child);
            self.index(at);
            at = child;
        }
        self.index(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;
    use proptest::prelude::*;

    impl EventHeap {
        /// Heap order holds, and `pos` and the completion entries are each
        /// other's inverse (so no slot has two).
        fn check(&self) {
            for at in 1..self.heap.len() {
                assert!(
                    !self.heap[at].before(&self.heap[(at - 1) / 2]),
                    "heap order"
                );
            }
            let mut indexed = 0;
            for (at, ev) in self.heap.iter().enumerate() {
                let cell = match ev.kind {
                    EventKind::Completion { key } => self.pos[key.index()],
                    EventKind::Solo { device, .. } => self.solo_pos[device as usize],
                    _ => continue,
                };
                assert_eq!(cell, at as u32, "the index lags the entry");
                indexed += 1;
            }
            let cells = self.pos.iter().chain(&self.solo_pos);
            assert_eq!(
                cells.filter(|p| **p != NONE).count(),
                indexed,
                "an index points at a fire-and-forget entry"
            );
        }
    }

    fn popped(heap: &mut EventHeap) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| heap.pop())
            .map(|e| (e.t_ns, e.order))
            .collect()
    }

    #[test]
    fn pops_by_time_then_order() {
        let mut heap = EventHeap::default();
        heap.push(5, u64::MAX, EventKind::Arrival);
        heap.push(5, u64::MAX - 1, EventKind::FaultDue);
        let mut slab: Slab<()> = Slab::new();
        let (a, b) = (slab.insert(()), slab.insert(()));
        heap.set_completion(a, 5, 7);
        heap.set_completion(b, 2, 9);
        heap.check();
        assert_eq!(heap.peek().map(|e| e.t_ns), Some(2));
        assert_eq!(
            popped(&mut heap),
            vec![(2, 9), (5, 7), (5, u64::MAX - 1), (5, u64::MAX)]
        );
    }

    #[test]
    fn a_device_entry_is_one_entry_beside_the_gangs() {
        let mut heap = EventHeap::new(3);
        let mut slab: Slab<()> = Slab::new();
        let (gang, a, b) = (slab.insert(()), slab.insert(()), slab.insert(()));
        let solo = |device, key, tied| EventKind::Solo { device, key, tied };
        heap.set_completion(gang, 4, 3);
        heap.set(solo(2, a, false), 9, 1);
        heap.set(solo(2, b, true), 4, 5); // re-keyed where it sits
        heap.set(solo(0, a, false), 4, 2);
        heap.check();
        let two = heap.solo(2).map(|e| (e.t_ns, e.order, e.kind));
        let none = heap.solo(1).is_none();
        assert_eq!((two, none), (Some((4, 5, solo(2, b, true))), true));
        assert_eq!((heap.heap.len(), heap.completions()), (3, 1));
        heap.remove_solo(0);
        heap.remove_solo(0); // absent: no-op
        heap.check();
        assert_eq!(popped(&mut heap), vec![(4, 3), (4, 5)]);
        assert!(heap.solo_pos.iter().all(|p| *p == NONE));
    }

    #[test]
    fn rekeying_moves_the_one_entry_both_ways() {
        let mut heap = EventHeap::default();
        let mut slab: Slab<()> = Slab::new();
        let keys: Vec<SlotKey> = (0..8).map(|_| slab.insert(())).collect();
        for (n, &k) in keys.iter().enumerate() {
            heap.set_completion(k, 10 * n as u64, n as u64);
        }
        heap.set_completion(keys[6], 1, 6); // earlier: sifts up
        heap.check();
        heap.set_completion(keys[0], 45, 0); // later: sifts down
        heap.check();
        assert_eq!(heap.heap.len(), 8, "a re-key never adds an entry");
        let order: Vec<u64> = popped(&mut heap).into_iter().map(|(_, o)| o).collect();
        assert_eq!(order, vec![6, 1, 2, 3, 4, 0, 5, 7]);
    }

    #[test]
    fn a_removed_completion_never_surfaces_even_when_the_slot_is_reused() {
        let mut heap = EventHeap::default();
        let mut slab: Slab<()> = Slab::new();
        let first = slab.insert(());
        heap.set_completion(first, 3, 0);
        heap.remove_completion(first);
        heap.remove_completion(first); // absent: no-op
        slab.remove(first);
        let second = slab.insert(());
        assert_eq!(second.index(), first.index(), "slot recycled");
        heap.set_completion(second, 9, 1);
        heap.check();
        assert_eq!(heap.completion(second), Some(9));
        assert_eq!(heap.completions(), 1);
        assert_eq!(popped(&mut heap), vec![(9, 1)]);
        assert!(heap.pos.iter().all(|p| *p == NONE));
    }

    /// The obviously-right queue: a `Vec` kept sorted, searched linearly.
    #[derive(Default)]
    struct Model(Vec<(u64, u64, Option<usize>)>);

    impl Model {
        fn insert(&mut self, t: u64, order: u64, slot: Option<usize>) {
            let at = self.0.partition_point(|e| (e.0, e.1) <= (t, order));
            self.0.insert(at, (t, order, slot));
        }
        fn remove(&mut self, slot: usize) {
            self.0.retain(|e| e.2 != Some(slot));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_a_sorted_vec_under_random_operations(
            ops in proptest::collection::vec((0u8..6, 0usize..12, 0u32..40, 0u64..6), 1..200),
        ) {
            let mut heap = EventHeap::default();
            let mut model = Model::default();
            let mut slab: Slab<()> = Slab::new();
            // Live gangs: (key, has a completion queued).
            let mut gangs: Vec<(SlotKey, bool)> = Vec::new();
            for (op, pick, t, order) in ops {
                // Few distinct times and orders: ties on both are common.
                let t = u64::from(t / 2);
                match op {
                    // A gang starts (slots freed below are reused here).
                    0 => gangs.push((slab.insert(()), false)),
                    // Project / re-project a gang's completion.
                    1 | 2 if !gangs.is_empty() => {
                        let which = pick % gangs.len();
                        let g = &mut gangs[which];
                        heap.set_completion(g.0, t, order);
                        model.remove(g.0.index());
                        model.insert(t, order, Some(g.0.index()));
                        g.1 = true;
                    }
                    // Interrupt: the entry goes, then the slot is freed.
                    3 if !gangs.is_empty() => {
                        let g = gangs.swap_remove(pick % gangs.len());
                        heap.remove_completion(g.0);
                        model.remove(g.0.index());
                        slab.remove(g.0);
                    }
                    4 => {
                        heap.push(t, order, EventKind::Arrival);
                        model.insert(t, order, None);
                    }
                    5 => {
                        let got = heap.pop();
                        prop_assert_eq!(
                            got.as_ref().map(|e| (e.t_ns, e.order)),
                            model.0.first().map(|e| (e.0, e.1))
                        );
                        if let Some(ev) = got {
                            // Entries tied on (time, order) may pop in either
                            // order: retire the model's copy of *this* one.
                            let slot = match ev.kind {
                                EventKind::Completion { key } => Some(key.index()),
                                _ => None,
                            };
                            let at = model
                                .0
                                .iter()
                                .position(|e| *e == (ev.t_ns, ev.order, slot));
                            prop_assert!(at.is_some(), "popped an entry the model lacks");
                            model.0.remove(at.unwrap());
                            // A popped completion's gang is done: free its slot.
                            if let EventKind::Completion { key } = ev.kind {
                                gangs.retain(|g| g.0 != key);
                                slab.remove(key);
                            }
                        }
                    }
                    _ => {}
                }
                heap.check();
                prop_assert_eq!(heap.heap.len(), model.0.len());
                prop_assert_eq!(
                    heap.peek().map(|e| (e.t_ns, e.order)),
                    model.0.first().map(|e| (e.0, e.1))
                );
                let queued = gangs.iter().filter(|g| g.1).count();
                let completions = heap
                    .heap
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Completion { .. }))
                    .count();
                prop_assert_eq!(completions, queued, "one completion per projected gang");
            }
            // Drain: the whole remaining order agrees.
            let want: Vec<(u64, u64)> = model.0.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(popped(&mut heap), want);
        }
    }
}
