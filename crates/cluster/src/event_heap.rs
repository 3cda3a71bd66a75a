//! The event queue: a binary min-heap in which every entry is *addressable*.
//!
//! Entries are ordered by `(t_ns, order)` — the simulator's one clock, in
//! integer ns, then an integer tiebreak — earliest first, so every entry
//! due at an instant pops in one batch and in arrival-sequence order. The
//! pair is packed into one `u128`, so a comparison is one operation.
//!
//! Every entry belongs to a *handle* that says what it is for: the arrival
//! marker, the fault marker, device `d`'s entry (the projected completion of
//! the earliest of its single-device tenants, which share the device's
//! clock), or slab slot `s`'s entry (its running gang's projected
//! completion, or its parked job's retry). A handle has at most one entry,
//! and one table, `pos[handle]`, says where it sits. Projected completions
//! move every time a tenant count they depend on changes: a re-anchor
//! rewrites the entry's key in place and sifts it the way the key moved; an
//! interrupt removes it. The queue therefore holds **exactly one completion
//! per running gang and per device with single-device tenants** — nothing
//! stale ever surfaces, and what pops is by construction a live projection.
//!
//! Keys are distinct — `order` is the owning job's arrival sequence for
//! completions, retries and device entries (a job owns at most one entry),
//! and `u64::MAX − 1` / `u64::MAX` for the two markers — so the pop order is
//! the sorted order, whatever the heap's shape.

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
    /// (a device's entry carries its earliest tenant's), then faults, then
    /// the arrival marker last.
    pub(crate) order: u64,
    pub(crate) kind: EventKind,
}

/// One queued entry: its packed `(t_ns, order)` and its handle.
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    handle: u32,
}

fn pack(t_ns: u64, order: u64) -> u128 {
    (u128::from(t_ns) << 64) | u128::from(order)
}

const NONE: u32 = u32::MAX;

/// Handles below this are the arrival and fault markers'.
const MARKERS: usize = 2;

pub(crate) struct EventHeap {
    heap: Vec<Entry>,
    /// Heap position of each handle's entry, `NONE` without.
    pos: Vec<u32>,
    /// What each handle's entry is for, with what a pop hands back: a device
    /// entry's tenant and `tied`, a slot entry's key and whether it retries.
    kinds: Vec<EventKind>,
    devices: usize,
}

impl EventHeap {
    /// An empty queue for a fleet of `devices`.
    pub(crate) fn new(devices: usize) -> EventHeap {
        EventHeap {
            heap: Vec::new(),
            pos: vec![NONE; MARKERS + devices],
            kinds: vec![EventKind::Arrival; MARKERS + devices],
            devices,
        }
    }

    /// The instant of the earliest entry.
    pub(crate) fn peek(&self) -> Option<u64> {
        self.heap.first().map(|e| (e.key >> 64) as u64)
    }

    pub(crate) fn pop(&mut self) -> Option<Event> {
        let gone = self.remove_at(0)?;
        Some(self.event(gone))
    }

    /// Queue `kind`'s entry at `(t_ns, order)`: inserts it if its handle has
    /// none yet, otherwise re-keys it where it sits.
    pub(crate) fn set(&mut self, kind: EventKind, t_ns: u64, order: u64) {
        let handle = self.handle(kind);
        if handle >= self.pos.len() {
            self.pos.resize(handle + 1, NONE);
            self.kinds.resize(handle + 1, EventKind::Arrival);
        }
        self.kinds[handle] = kind;
        let entry = Entry {
            key: pack(t_ns, order),
            handle: u32::try_from(handle).expect("handles fit a u32"),
        };
        match self.pos[handle] {
            NONE => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1, entry);
            }
            at => self.sift(at as usize, entry),
        }
    }

    /// Move the queued completion of the gang in `key`'s slot to `t_ns`,
    /// keeping its order.
    pub(crate) fn retime(&mut self, key: SlotKey, t_ns: u64) {
        let at = self.pos[self.handle(EventKind::Completion { key })] as usize;
        let Entry { key: old, handle } = self.heap[at];
        let key = pack(t_ns, old as u64);
        self.sift(at, Entry { key, handle });
    }

    /// Drop the completion entry of the gang in `key`'s slot, if it has one.
    pub(crate) fn remove_completion(&mut self, key: SlotKey) {
        self.remove(self.handle(EventKind::Completion { key }));
    }

    /// Drop `device`'s entry, if it has one.
    pub(crate) fn remove_solo(&mut self, device: usize) {
        self.remove(MARKERS + device);
    }

    /// The queued completion instant of the gang in `key`'s slot, `device`'s
    /// entry, and how many gang completions are queued in all — what the
    /// event core's per-instant invariant check holds against its running
    /// tenants.
    pub(crate) fn completion(&self, key: SlotKey) -> Option<u64> {
        let ev = self.entry(self.handle(EventKind::Completion { key }))?;
        (ev.kind == EventKind::Completion { key }).then_some(ev.t_ns)
    }

    pub(crate) fn solo(&self, device: usize) -> Option<Event> {
        self.entry(MARKERS + device)
    }

    pub(crate) fn completions(&self) -> usize {
        let kinds = self.heap.iter().map(|e| self.kinds[e.handle as usize]);
        kinds
            .filter(|k| matches!(k, EventKind::Completion { .. }))
            .count()
    }

    /// The handle of `kind`'s entry: the two markers, then one per device,
    /// then one per slab slot.
    fn handle(&self, kind: EventKind) -> usize {
        match kind {
            EventKind::Arrival => 0,
            EventKind::FaultDue => 1,
            EventKind::Solo { device, .. } => MARKERS + device as usize,
            EventKind::Completion { key } | EventKind::Retry { key } => {
                MARKERS + self.devices + key.index()
            }
        }
    }

    /// `handle`'s queued entry, if it has one.
    fn entry(&self, handle: usize) -> Option<Event> {
        let at = *self.pos.get(handle)?;
        (at != NONE).then(|| self.event(self.heap[at as usize]))
    }

    fn event(&self, Entry { key, handle }: Entry) -> Event {
        Event {
            t_ns: (key >> 64) as u64,
            order: key as u64,
            kind: self.kinds[handle as usize],
        }
    }

    fn remove(&mut self, handle: usize) {
        if let Some(&at) = self.pos.get(handle) {
            if at != NONE {
                self.remove_at(at as usize);
            }
        }
    }

    fn remove_at(&mut self, at: usize) -> Option<Entry> {
        let gone = *self.heap.get(at)?;
        self.pos[gone.handle as usize] = NONE;
        let last = self.heap.pop().expect("the heap holds `gone`");
        if at < self.heap.len() {
            self.sift(at, last);
        }
        Some(gone)
    }

    /// Put `entry` in the hole at `at`, sifting it the way its key moved
    /// from the one that sat there.
    fn sift(&mut self, at: usize, entry: Entry) {
        if entry.key < self.heap[at].key {
            self.sift_up(at, entry);
        } else {
            self.sift_down(at, entry);
        }
    }

    /// Record `entry` at `at`.
    fn place(&mut self, at: usize, entry: Entry) {
        self.heap[at] = entry;
        self.pos[entry.handle as usize] = at as u32;
    }

    /// Move the hole at `at` up past every parent keyed above `entry`, then
    /// fill it.
    fn sift_up(&mut self, mut at: usize, entry: Entry) {
        while at > 0 {
            let parent = (at - 1) / 2;
            let above = self.heap[parent];
            if above.key <= entry.key {
                break;
            }
            self.place(at, above);
            at = parent;
        }
        self.place(at, entry);
    }

    /// Move the hole at `at` down past every smaller child keyed below
    /// `entry`, then fill it.
    fn sift_down(&mut self, mut at: usize, entry: Entry) {
        let len = self.heap.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].key < self.heap[child].key {
                child += 1;
            }
            let below = self.heap[child];
            if below.key >= entry.key {
                break;
            }
            self.place(at, below);
            at = child;
        }
        self.place(at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::Slab;
    use proptest::prelude::*;

    impl EventHeap {
        /// Heap order holds, and `pos` and the entries are each other's
        /// inverse (so no handle has two and none points at another's).
        fn check(&self) {
            for at in 1..self.heap.len() {
                assert!(
                    self.heap[(at - 1) / 2].key < self.heap[at].key,
                    "heap order"
                );
            }
            for (at, e) in self.heap.iter().enumerate() {
                let handle = e.handle as usize;
                assert_eq!(self.pos[handle], at as u32, "the index lags the entry");
                assert_eq!(handle, self.handle(self.kinds[handle]), "an aliased kind");
            }
            let indexed = self.pos.iter().filter(|p| **p != NONE).count();
            assert_eq!(indexed, self.heap.len(), "an index points at no entry");
        }
    }

    fn popped(heap: &mut EventHeap) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| heap.pop())
            .map(|e| (e.t_ns, e.order))
            .collect()
    }

    fn completion(key: SlotKey) -> EventKind {
        EventKind::Completion { key }
    }

    #[test]
    fn pops_by_time_then_order() {
        let mut heap = EventHeap::new(0);
        heap.set(EventKind::Arrival, 5, u64::MAX);
        heap.set(EventKind::FaultDue, 5, u64::MAX - 1);
        let mut slab: Slab<()> = Slab::new();
        let (a, b) = (slab.insert(()), slab.insert(()));
        heap.set(completion(a), 5, 7);
        heap.set(completion(b), 2, 9);
        heap.check();
        assert_eq!(heap.peek(), Some(2));
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
        heap.set(completion(gang), 4, 3);
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
        assert!(heap.pos.iter().all(|p| *p == NONE));
    }

    #[test]
    fn rekeying_moves_the_one_entry_both_ways() {
        let mut heap = EventHeap::new(0);
        let mut slab: Slab<()> = Slab::new();
        let keys: Vec<SlotKey> = (0..8).map(|_| slab.insert(())).collect();
        for (n, &k) in keys.iter().enumerate() {
            heap.set(completion(k), 10 * n as u64, n as u64);
        }
        heap.set(completion(keys[6]), 1, 6); // earlier: sifts up
        heap.check();
        heap.set(completion(keys[0]), 45, 0); // later: sifts down
        heap.check();
        assert_eq!(heap.heap.len(), 8, "a re-key never adds an entry");
        let order: Vec<u64> = popped(&mut heap).into_iter().map(|(_, o)| o).collect();
        assert_eq!(order, vec![6, 1, 2, 3, 4, 0, 5, 7]);
    }

    #[test]
    fn a_removed_completion_never_surfaces_even_when_the_slot_is_reused() {
        let mut heap = EventHeap::new(0);
        let mut slab: Slab<()> = Slab::new();
        let first = slab.insert(());
        heap.set(completion(first), 3, 0);
        heap.remove_completion(first);
        heap.remove_completion(first); // absent: no-op
        slab.remove(first);
        let second = slab.insert(());
        assert_eq!(second.index(), first.index(), "slot recycled");
        heap.set(completion(second), 9, 1);
        heap.check();
        assert_eq!(heap.completion(second), Some(9));
        assert_eq!(heap.completions(), 1);
        assert_eq!(popped(&mut heap), vec![(9, 1)]);
        assert!(heap.pos.iter().all(|p| *p == NONE));
    }

    /// The obviously-right queue: a `Vec` kept sorted, searched linearly,
    /// each entry with the kind it was queued as.
    #[derive(Default)]
    struct Model(Vec<(u64, u64, EventKind)>);

    impl Model {
        fn insert(&mut self, t: u64, order: u64, kind: EventKind) {
            let at = self.0.partition_point(|e| (e.0, e.1) <= (t, order));
            self.0.insert(at, (t, order, kind));
        }
        /// Drop every entry whose kind `same` picks.
        fn remove(&mut self, same: impl Fn(EventKind) -> bool) {
            self.0.retain(|e| !same(e.2));
        }
    }

    const DEVICES: usize = 3;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_a_sorted_vec_under_random_operations(
            ops in proptest::collection::vec((0u8..10, 0usize..12, 0u32..40), 1..200),
        ) {
            let mut heap = EventHeap::new(DEVICES);
            let mut model = Model::default();
            let mut slab: Slab<()> = Slab::new();
            // Live jobs: (key, its slot's queued entry).
            let mut jobs: Vec<(SlotKey, Option<EventKind>)> = Vec::new();
            // An order belongs to one entry, as the event core's arrival
            // sequences do, so no two keys tie.
            let mut orders = 0u64..;
            for (op, pick, t) in ops {
                // Few distinct times: ties on time are common.
                let t = u64::from(t / 2);
                match op {
                    // A job arrives (slots freed below are reused here).
                    0 => jobs.push((slab.insert(()), None)),
                    // Re-time a projected completion where it sits: its
                    // order stays.
                    2 if jobs.get(pick % jobs.len().max(1)).is_some_and(|j| j.1 == Some(completion(j.0))) => {
                        let key = jobs[pick % jobs.len()].0;
                        heap.retime(key, t);
                        let at = model.0.iter().position(|e| e.2 == completion(key)).expect("queued");
                        let (_, order, kind) = model.0.remove(at);
                        model.insert(t, order, kind);
                    }
                    // Project / re-project a job's completion, or park it:
                    // a slot's one entry changes kind (a completion recycled
                    // into a retry, and back).
                    1..=3 if !jobs.is_empty() => {
                        let at = pick % jobs.len();
                        let (key, queued) = &mut jobs[at];
                        let kind = if op == 3 { EventKind::Retry { key: *key } } else { completion(*key) };
                        let order = orders.next().expect("unbounded");
                        heap.set(kind, t, order);
                        model.remove(|k| Some(k) == *queued);
                        model.insert(t, order, kind);
                        *queued = Some(kind);
                    }
                    // Interrupt: the completion goes, then the slot is
                    // freed. A parked job's retry is never withdrawn: it
                    // pops first.
                    4 if !jobs.is_empty() => {
                        let at = pick % jobs.len();
                        if !matches!(jobs[at].1, Some(EventKind::Retry { .. })) {
                            let (key, queued) = jobs.swap_remove(at);
                            heap.remove_completion(key);
                            model.remove(|k| Some(k) == queued);
                            slab.remove(key);
                        }
                    }
                    // A device's entry, keyed for one of the live jobs, or
                    // dropped when its last single-device tenant leaves.
                    5 if !jobs.is_empty() => {
                        let device = (pick % DEVICES) as u32;
                        let key = jobs[pick % jobs.len()].0;
                        let kind = EventKind::Solo { device, key, tied: t % 2 == 0 };
                        let order = orders.next().expect("unbounded");
                        heap.set(kind, t, order);
                        model.remove(|k| matches!(k, EventKind::Solo { device: d, .. } if d == device));
                        model.insert(t, order, kind);
                    }
                    6 => {
                        let device = pick % DEVICES;
                        heap.remove_solo(device);
                        model.remove(|k| matches!(k, EventKind::Solo { device: d, .. } if d as usize == device));
                    }
                    // A marker, queued only once the last one popped.
                    7 => {
                        let (kind, order) = if pick % 2 == 0 {
                            (EventKind::Arrival, u64::MAX)
                        } else {
                            (EventKind::FaultDue, u64::MAX - 1)
                        };
                        if !model.0.iter().any(|e| e.2 == kind) {
                            heap.set(kind, t, order);
                            model.insert(t, order, kind);
                        }
                    }
                    8 | 9 => {
                        let got = heap.pop().map(|e| (e.t_ns, e.order, e.kind));
                        let want = (!model.0.is_empty()).then(|| model.0.remove(0));
                        prop_assert_eq!(got, want);
                        // A popped slot entry's job completed, or left the
                        // test's view with its retry: free its slot.
                        if let Some((.., EventKind::Completion { key } | EventKind::Retry { key })) = got {
                            jobs.retain(|j| j.0 != key);
                            slab.remove(key);
                        }
                    }
                    _ => {}
                }
                heap.check();
                prop_assert_eq!(heap.heap.len(), model.0.len());
                prop_assert_eq!(heap.peek(), model.0.first().map(|e| e.0));
                for &(key, kind) in &jobs {
                    let queued = model.0.iter().find(|e| Some(e.2) == kind).map(|e| e.0);
                    let want = queued.filter(|_| kind == Some(completion(key)));
                    prop_assert_eq!(heap.completion(key), want, "one completion per projected gang");
                }
                for device in 0..DEVICES {
                    let want = model.0.iter().find(|e| matches!(e.2, EventKind::Solo { device: d, .. } if d as usize == device));
                    prop_assert_eq!(heap.solo(device).map(|e| (e.t_ns, e.order, e.kind)), want.copied());
                }
            }
            // Drain: the whole remaining order agrees.
            let want: Vec<(u64, u64)> = model.0.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(popped(&mut heap), want);
        }
    }
}
