//! The Unified Tensor Pool residency manager.
//!
//! One place owns *where every tensor currently is* and the books that go
//! with moving tensors between device DRAM and the external UTP tiers: the
//! tensor-state map, the Alg. 2 LRU Tensor Cache bookkeeping, the pending
//! offload list the reclamation ladder drains, and host-slot management over
//! the tiered pools (a slot is the tier a tensor's bytes are reserved in).
//! *When* a copy lands is not here: only the executor has a clock, and it
//! keeps the completion times of the copies it submitted in an array of its
//! own — so a [`TensorState`] fits one cache line and the planner, which
//! walks `states` thousands of compiles a second, carries nothing it never
//! sets.
//!
//! The **planner** ([`crate::plan`]) drives it at compile time — with
//! *instant* logical transfers — to decide every eviction, offload,
//! prefetch and release, recording each mutation as a [`crate::plan::PlanOp`].
//! When an executor is built ([`crate::executor`]), the compiled op stream
//! runs through it once more, and the executor keeps only what a warm step
//! reads of it: each op's granules and whether a release drops the
//! tensor's contents, each step's live-tensor count, each offloaded
//! tensor's copy time at its tier. A warm step calls nothing here.
//!
//! Plan compilation is the system's hot path (admission ladders and
//! feasibility searches compile thousands of plans), so the Tensor Cache is
//! the **intrusive doubly-linked recency list over dense
//! `TensorId`-indexed links** (`memo::RecencyList`, the one implementation
//! the compile memos' LRU sits on too): touch, insert, remove and pin are
//! all O(1), no allocation, no hashing. A test holds its victims to the
//! order each [`CachePolicy`] defines over touch and insertion stamps.

use sn_graph::liveness::{LivenessPlan, TensorId};
use sn_sim::AllocId;

use crate::device::Memory;
use crate::memo::RecencyList;
use crate::policy::CachePolicy;
use crate::tiers::Tier;

/// Where a tensor currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residence {
    /// Not materialized anywhere (never produced, or dropped for recompute).
    None,
    /// On device DRAM (possibly with a transfer in flight).
    Device,
    /// Host copy only.
    Host,
}

/// Residency state of one tensor.
#[derive(Debug, Clone, Copy)]
pub struct TensorState {
    /// Written only through [`Utp`]'s transitions in this module, which keep
    /// [`Utp::host_resident`] in step with it; read via
    /// [`TensorState::residence`].
    residence: Residence,
    pub grant: Option<AllocId>,
    /// The tier the tensor's host slot is reserved in; the slot's bytes are
    /// the tensor's.
    pub host_slot: Option<Tier>,
    /// Host copy is a valid replica of the tensor's contents.
    pub host_valid: bool,
    /// Pin count: locked tensors are never victims of eviction or release.
    pub lock: u32,
    /// Monotone insertion stamp for the FIFO cache policy.
    pub inserted_at: u64,
    /// A device→host copy has been issued and its device copy not yet
    /// released (the logical "offload in flight" marker both drivers use).
    pub offloading: bool,
    /// The pending offload is an eviction: release the device copy as soon
    /// as the copy-out lands, rather than waiting for forward consumers.
    pub evicting: bool,
}

// Well inside a cache line a tensor: the planner walks `states` by tensor id.
const _: () = assert!(std::mem::size_of::<TensorState>() == 40);

impl TensorState {
    pub const EMPTY: TensorState = TensorState {
        residence: Residence::None,
        grant: None,
        host_slot: None,
        host_valid: false,
        lock: 0,
        inserted_at: 0,
        offloading: false,
        evicting: false,
    };

    #[inline]
    pub fn residence(&self) -> Residence {
        self.residence
    }
}

/// The residency manager: tensor states + LRU Tensor Cache + pending
/// offloads, behind a narrow mutation API. It never *decides* anything —
/// decisions live in the planner — it keeps the planner's books.
#[derive(Debug, Clone)]
pub struct Utp {
    /// Private: [`Utp::host_resident`] counts them, so every write goes
    /// through this module.
    states: Vec<TensorState>,
    /// The device-resident, cache-managed tensors in recency order.
    cache: RecencyList,
    insertion_clock: u64,
    /// How many `states` are [`Residence::Host`] — moved by
    /// [`Utp::set_residence`] and zeroed by [`Utp::renew`], the only writers
    /// of `residence`.
    host_resident: u32,
    /// Tensors with an in-flight device→host copy, in submission order
    /// (D2H serializes, so submission order is completion order).
    pub pending_offloads: Vec<TensorId>,
}

impl Utp {
    pub fn new(n_tensors: usize) -> Utp {
        Utp {
            states: vec![TensorState::EMPTY; n_tensors],
            cache: RecencyList::new(n_tensors),
            insertion_clock: 0,
            host_resident: 0,
            pending_offloads: Vec::new(),
        }
    }

    /// Become `new(n_tensors)` in place, keeping every allocation: pins,
    /// pending offloads and grants a walk left behind are forgotten.
    pub(crate) fn renew(&mut self, n_tensors: usize) {
        self.states.clear();
        self.states.resize(n_tensors, TensorState::EMPTY);
        self.cache.renew(n_tensors);
        self.pending_offloads.clear();
        self.insertion_clock = 0;
        self.host_resident = 0;
    }

    #[inline]
    pub fn state(&self, t: TensorId) -> &TensorState {
        &self.states[t.0]
    }

    /// Pin `t`: a locked tensor is never a victim of eviction or release.
    #[inline]
    pub fn lock(&mut self, t: TensorId) {
        self.states[t.0].lock += 1;
    }

    /// Drop one pin of `t` (a no-op on an unpinned tensor).
    #[inline]
    pub fn unlock(&mut self, t: TensorId) {
        let st = &mut self.states[t.0];
        st.lock = st.lock.saturating_sub(1);
    }

    // ------------------------------------------------------------------
    // LRU Tensor Cache (Alg. 2) bookkeeping
    // ------------------------------------------------------------------

    pub fn lru_touch(&mut self, t: TensorId) {
        self.cache.touch(t.0 as u32);
    }

    pub fn lru_insert(&mut self, t: TensorId) {
        self.insertion_clock += 1;
        self.states[t.0].inserted_at = self.insertion_clock;
        self.cache.push_front(t.0 as u32);
    }

    pub fn lru_remove(&mut self, t: TensorId) {
        self.cache.unlink(t.0 as u32);
    }

    /// The cache's victim under `policy`: the least-desirable unlocked,
    /// not-already-offloading resident tensor, or `None` when nothing is
    /// evictable. LRU victims come from the cold end, MRU victims from the
    /// hot end, FIFO victims by insertion stamp — and the scans stop at the
    /// first evictable entry (FIFO necessarily visits all).
    pub fn pick_victim(&self, policy: CachePolicy) -> Option<TensorId> {
        let evictable = |t: TensorId| {
            let st = &self.states[t.0];
            st.lock == 0 && !st.offloading
        };
        let (l, id) = (&self.cache, |i: u32| TensorId(i as usize));
        match policy {
            CachePolicy::Lru => l.lru_to_mru().map(id).find(|t| evictable(*t)),
            CachePolicy::Mru => l.mru_to_lru().map(id).find(|t| evictable(*t)),
            CachePolicy::Fifo => l
                .mru_to_lru()
                .map(id)
                .filter(|t| evictable(*t))
                .min_by_key(|t| self.states[t.0].inserted_at),
        }
    }

    // ------------------------------------------------------------------
    // Pending offloads (the reclamation ladder's reservoir)
    // ------------------------------------------------------------------

    /// May tensor `t`'s pending offload release the device copy at `step`?
    /// True for evictions (the bytes are what the eviction was for) and for
    /// eager checkpoint offloads whose forward consumers have all run —
    /// never while the tensor is locked. The single source of truth for the
    /// planner's drain/ladder, which must agree with the interpreter.
    pub fn offload_reapable(&self, t: TensorId, liveness: &LivenessPlan, step: usize) -> bool {
        let st = &self.states[t.0];
        st.lock == 0 && (st.evicting || step > liveness.tensors[t.0].fwd_last_use)
    }

    /// The earliest-submitted pending offload that is reapable at `step`
    /// (D2H serializes, so earliest submitted is earliest to land).
    pub fn first_reapable(&self, liveness: &LivenessPlan, step: usize) -> Option<TensorId> {
        self.pending_offloads
            .iter()
            .copied()
            .find(|t| self.offload_reapable(*t, liveness, step))
    }

    /// All reapable pending offloads at `step`, in submission order, into a
    /// caller-owned scratch buffer (cleared first) — the planner calls this
    /// every step, so the allocation is hoisted out of the loop.
    pub fn collect_reapable(&self, liveness: &LivenessPlan, step: usize, out: &mut Vec<TensorId>) {
        out.clear();
        out.extend(
            self.pending_offloads
                .iter()
                .copied()
                .filter(|t| self.offload_reapable(*t, liveness, step)),
        );
    }

    /// Record an issued offload (eviction or eager checkpoint copy-out).
    pub fn mark_offloading(&mut self, t: TensorId, evict: bool) {
        let st = &mut self.states[t.0];
        debug_assert_eq!(st.residence, Residence::Device);
        debug_assert!(!st.offloading);
        st.offloading = true;
        st.evicting = evict;
        self.pending_offloads.push(t);
    }

    /// Only [`Utp::mark_offloading`] pushes, and it sets `offloading`: the
    /// transitions call this for a tensor that carried the flag, and skip
    /// the search for every other.
    fn unpend(&mut self, t: TensorId) {
        if let Some(pos) = self.pending_offloads.iter().position(|x| *x == t) {
            self.pending_offloads.remove(pos);
        }
    }

    // ------------------------------------------------------------------
    // State transitions (shared by planner apply and interpreter apply)
    // ------------------------------------------------------------------

    /// Host tier a tensor's external copy lives in (local host when none is
    /// reserved yet — the tier `ensure_host_slot` would pick first).
    pub fn tier_of(&self, t: TensorId) -> Tier {
        self.states[t.0].host_slot.unwrap_or(Tier::LocalHost)
    }

    /// The tier of `t`'s external slot, reserving its `bytes` in the fastest
    /// tier with room if it has none. Returns `None` when every tier is
    /// exhausted.
    pub fn ensure_host_slot(
        &mut self,
        t: TensorId,
        bytes: u64,
        dev: &mut impl Memory,
    ) -> Option<Tier> {
        let slot = &mut self.states[t.0].host_slot;
        if slot.is_none() {
            *slot = dev.host().reserve(bytes);
        }
        *slot
    }

    /// Every per-tensor write of `residence`: moves `t` and keeps the
    /// host-resident count equal to what a scan of `states` would find.
    #[inline]
    fn set_residence(&mut self, t: TensorId, to: Residence) {
        let st = &mut self.states[t.0];
        self.host_resident -= (st.residence == Residence::Host) as u32;
        self.host_resident += (to == Residence::Host) as u32;
        st.residence = to;
    }

    /// Record a fresh device materialization of `t` under `grant`.
    pub fn mark_device(&mut self, t: TensorId, grant: AllocId, cached: bool) {
        self.states[t.0].grant = Some(grant);
        self.set_residence(t, Residence::Device);
        if cached {
            self.lru_insert(t);
        }
    }

    /// Release the device copy of `t` (offload landed / recompute cleanup /
    /// host-valid eviction). The host copy, if any, becomes the residence.
    /// Returns `true` when the tensor's *contents* are now gone entirely
    /// (caller must notify the numeric backend).
    pub fn release_device(&mut self, t: TensorId, dev: &mut impl Memory) -> bool {
        let st = &mut self.states[t.0];
        let was_offloading = st.offloading;
        if was_offloading {
            // An offload was in flight: the copy-out has (logically) landed.
            st.offloading = false;
            st.evicting = false;
            st.host_valid = true;
        }
        if let Some(g) = st.grant.take() {
            dev.free_charged(g);
        }
        let to = if st.host_valid {
            Residence::Host
        } else {
            Residence::None
        };
        self.set_residence(t, to);
        if was_offloading {
            self.unpend(t);
        }
        self.lru_remove(t);
        to == Residence::None
    }

    /// Fully release `t`, a tensor of `bytes`: device grant, host slot,
    /// pending transfers. In-flight copy-outs are *cancelled*, not awaited
    /// (the contents are dead). Always notify the backend after calling this.
    pub fn free_tensor(&mut self, t: TensorId, bytes: u64, dev: &mut impl Memory) {
        let st = &mut self.states[t.0];
        debug_assert_eq!(st.lock, 0, "freeing a locked tensor");
        let was_offloading = st.offloading;
        st.offloading = false;
        st.evicting = false;
        if let Some(g) = st.grant.take() {
            dev.free_charged(g);
        }
        if let Some(tier) = self.states[t.0].host_slot.take() {
            dev.host().release(tier, bytes);
        }
        self.states[t.0].host_valid = false;
        self.set_residence(t, Residence::None);
        if was_offloading {
            self.unpend(t);
        }
        self.lru_remove(t);
    }

    /// Count of tensors whose only copy is on the host — what a fetch could
    /// bring back. O(1), a counter the residence transitions maintain: the
    /// planner asks after every backward step whether there is anything to
    /// prefetch.
    #[inline]
    pub fn host_resident(&self) -> usize {
        self.host_resident as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::policy::AllocatorKind;
    use crate::tiers::{TierConfig, TieredPool};
    use proptest::prelude::*;
    use sn_sim::{DeviceAllocator, DeviceSpec};

    fn dev() -> Device {
        Device::new(
            &DeviceSpec::k40c().with_dram(1 << 20),
            AllocatorKind::HeapPool,
            TierConfig::local_only(1 << 20),
        )
    }

    #[test]
    fn lru_orders_victims_back_to_front() {
        let mut utp = Utp::new(3);
        let mut d = dev();
        for i in 0..3 {
            let g = d.alloc_charged(1024).unwrap();
            utp.mark_device(TensorId(i), g.id, true);
        }
        // Insert order 0,1,2 → front is 2 (MRU); LRU victim is 0.
        assert_eq!(utp.pick_victim(CachePolicy::Lru), Some(TensorId(0)));
        assert_eq!(utp.pick_victim(CachePolicy::Mru), Some(TensorId(2)));
        assert_eq!(utp.pick_victim(CachePolicy::Fifo), Some(TensorId(0)));
        // Touch 0 → it becomes MRU; LRU victim moves to 1, FIFO stays 0.
        utp.lru_touch(TensorId(0));
        assert_eq!(utp.pick_victim(CachePolicy::Lru), Some(TensorId(1)));
        assert_eq!(utp.pick_victim(CachePolicy::Fifo), Some(TensorId(0)));
        // Locked tensors are never victims.
        utp.states[1].lock = 1;
        assert_eq!(utp.pick_victim(CachePolicy::Lru), Some(TensorId(2)));
    }

    #[test]
    fn release_device_lands_pending_offload_on_host() {
        let mut utp = Utp::new(1);
        let mut d = dev();
        let g = d.alloc_charged(2048).unwrap();
        let t = TensorId(0);
        utp.mark_device(t, g.id, true);
        assert_eq!(utp.ensure_host_slot(t, 2048, &mut d), Some(Tier::LocalHost));
        utp.mark_offloading(t, true);
        assert_eq!(utp.pending_offloads, vec![t]);
        let gone = utp.release_device(t, &mut d);
        assert!(!gone, "host copy survives");
        assert_eq!(utp.state(t).residence(), Residence::Host);
        assert!(utp.state(t).host_valid);
        assert!(utp.pending_offloads.is_empty());
        assert_eq!(d.alloc.used(), 0);
    }

    #[test]
    fn free_tensor_cancels_and_releases_everything() {
        let mut utp = Utp::new(1);
        let mut d = dev();
        let g = d.alloc_charged(2048).unwrap();
        let t = TensorId(0);
        utp.mark_device(t, g.id, true);
        utp.ensure_host_slot(t, 2048, &mut d);
        utp.mark_offloading(t, false);
        utp.free_tensor(t, 2048, &mut d);
        assert_eq!(utp.state(t).residence(), Residence::None);
        assert!(utp.pending_offloads.is_empty());
        assert_eq!(d.alloc.used(), 0);
        assert_eq!(d.host.used, [0; 3]);
    }

    #[test]
    fn victims_follow_each_policy_over_random_ops() {
        // The cache's model is two stamps per cached tensor, its insertion
        // and its last insertion or touch: LRU evicts the evictable tensor
        // used longest ago, MRU the one used last, FIFO the one inserted
        // first. Over a mixed op sequence (insert / touch / remove / lock /
        // offloading) every policy's victim is the model's.
        let n = 24;
        let mut utp = Utp::new(n);
        let mut stamps: Vec<Option<(u64, u64)>> = vec![None; n];
        let mut x = 0x2545_f491_4f6c_dd1du64; // deterministic xorshift
        for clock in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = TensorId((x >> 8) as usize % n);
            match x % 5 {
                0 | 1 => match &mut stamps[t.0] {
                    Some((_, used)) => {
                        *used = clock;
                        utp.lru_touch(t);
                    }
                    None => {
                        stamps[t.0] = Some((clock, clock));
                        // mark_device without a real grant: states only.
                        utp.set_residence(t, Residence::Device);
                        utp.lru_insert(t);
                    }
                },
                2 => {
                    stamps[t.0] = None;
                    utp.set_residence(t, Residence::None);
                    utp.lru_remove(t);
                }
                3 => utp.states[t.0].lock = (x >> 16) as u32 % 2,
                _ => utp.states[t.0].offloading = x & 1 == 0,
            }
            let victim = |key: fn(u64, u64) -> i64| {
                let evictable = |i: &usize| utp.states[*i].lock == 0 && !utp.states[*i].offloading;
                (0..n)
                    .filter(evictable)
                    .filter_map(|i| stamps[i].map(|(ins, used)| (key(ins, used), i)))
                    .min()
                    .map(|(_, i)| TensorId(i))
            };
            assert_eq!(
                utp.pick_victim(CachePolicy::Lru),
                victim(|_, used| used as i64)
            );
            assert_eq!(
                utp.pick_victim(CachePolicy::Mru),
                victim(|_, used| -(used as i64))
            );
            assert_eq!(
                utp.pick_victim(CachePolicy::Fifo),
                victim(|ins, _| ins as i64)
            );
            assert_eq!(
                utp.cache.lru_to_mru().count(),
                stamps.iter().flatten().count()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The host count is the scan, and every pool holds the bytes of the
        // tensors it is charged for: after every transition, on real grants,
        // with slots spilling across all three tiers.
        #[test]
        fn host_resident_count_equals_the_scan(
            ops in proptest::collection::vec((0u8..15, 0usize..12, proptest::bool::ANY), 0..300),
        ) {
            let n = 12;
            let mut utp = Utp::new(n);
            let mut d = dev();
            d.host = TieredPool::new(TierConfig::full(48 << 10, 96 << 10, 1 << 20));
            // Tensor i holds (i + 1) x 4 KiB, 312 KiB in all: the peer and
            // local tiers fill, and slots spill to the remote one.
            let bytes = |t: TensorId| (t.0 as u64 + 1) << 12;
            let scan = |utp: &Utp, at| (0..n).filter(|&i| utp.state(TensorId(i)).residence() == at).count();
            let held = |utp: &Utp, f: &dyn Fn(&TensorState) -> bool| -> u64 {
                (0..n).map(TensorId).filter(|&t| f(utp.state(t))).map(bytes).sum()
            };
            for (op, i, flag) in ops {
                let t = TensorId(i);
                let on_device = utp.state(t).residence() == Residence::Device;
                match op {
                    0..=5 if !on_device => {
                        let g = d.alloc_charged(bytes(t)).expect("312 KiB fit in 1 MiB");
                        utp.mark_device(t, g.id, flag);
                    }
                    6..=8 if on_device && !utp.state(t).offloading => {
                        prop_assert!(utp.ensure_host_slot(t, bytes(t), &mut d).is_some());
                        utp.mark_offloading(t, flag);
                    }
                    9..=11 if on_device => {
                        let gone = utp.release_device(t, &mut d);
                        prop_assert_eq!(gone, utp.state(t).residence() == Residence::None);
                    }
                    12..=14 => utp.free_tensor(t, bytes(t), &mut d),
                    _ => {}
                }
                prop_assert_eq!(utp.host_resident(), scan(&utp, Residence::Host));
                // Every device resident holds exactly one grant of its bytes.
                let on_device = held(&utp, &|st| st.residence() == Residence::Device);
                prop_assert_eq!(d.alloc.used(), on_device);
                let in_tier = |tier| held(&utp, &|st| st.host_slot == Some(tier));
                let tiers = [Tier::PeerGpu, Tier::LocalHost, Tier::Remote];
                prop_assert_eq!(d.host.used, tiers.map(in_tier));
            }
        }
    }
}
