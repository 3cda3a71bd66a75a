//! The one place simulated time is rounded.
//!
//! A device running `k` tenants gives each `1/k` of its throughput, and a
//! gang runs at the pace of its most-loaded device. So a gang's [`Pace`] is
//! a whole number `k` of wall ns per ns of *solo* work, and the clock stays
//! in integer ns by rounding in exactly two functions, whose directions are
//! chosen as a pair:
//!
//! * [`Pace::wall`] is exact: the wall time `work` ns of solo work takes,
//!   `work · k`, saturating at `u64::MAX`;
//! * [`Pace::work`] rounds **down**: the solo work done in `wall` ns,
//!   `⌊wall / k⌋`.
//!
//! Together `wall(w) = min { t : work(t) ≥ w }`: a gang completes at the
//! first instant by which it has done its work, never before, and a
//! re-anchor (`remaining −= work(elapsed)`) never credits work not yet done.
//! Each fold of progress therefore delays a completion by under `k` ns and
//! never advances it. Work never exceeds the wall time it came from, so
//! nothing wraps and nothing is cast down.
//!
//! The lazy progress those paces drive lives here too: a gang's own
//! [`Progress`], and the [`DeviceClock`] a device's single-device
//! [`Tenants`] share, whose exact `split` is the only other division of time.

use crate::event_heap::EventKind;
use crate::slab::SlotKey;

/// Wall ns per ns of solo work: the most tenants on a gang's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pace(u64);

impl Pace {
    /// The pace of a gang whose most-loaded device runs `tenants` tenants.
    pub(crate) fn new(tenants: usize) -> Pace {
        Pace(tenants.max(1) as u64)
    }

    /// The most tenants on the gang's devices: the pace's wall ns per ns.
    pub(crate) fn tenants(self) -> u64 {
        self.0
    }

    /// Wall ns to do `work` ns of solo work.
    pub(crate) fn wall(self, work: u64) -> u64 {
        work.saturating_mul(self.0)
    }

    /// Solo work done in `wall` ns.
    pub(crate) fn work(self, wall: u64) -> u64 {
        wall / self.0
    }
}

/// A gang's lazy progress: its completion is `anchor + pace.wall(remaining)`.
#[derive(Clone, Copy)]
pub(crate) struct Progress {
    /// Remaining work in ns of *solo* execution time, valid as of
    /// `anchor_ns`.
    remaining_ns: u64,
    anchor_ns: u64,
    pub(crate) pace: Pace,
}

impl Progress {
    /// `remaining_ns` of solo work left as of `anchor_ns`, done at `pace`.
    pub(crate) fn new(remaining_ns: u64, anchor_ns: u64, pace: Pace) -> Progress {
        Progress {
            remaining_ns,
            anchor_ns,
            pace,
        }
    }

    /// The first instant by which the remaining work is done.
    pub(crate) fn completion_ns(&self) -> u64 {
        self.anchor_ns
            .saturating_add(self.pace.wall(self.remaining_ns))
    }

    /// Solo work left at `now_ns`. Never below zero: the gang would have
    /// completed first.
    pub(crate) fn remaining(&self, now_ns: u64) -> u64 {
        self.remaining_ns - self.pace.work(now_ns - self.anchor_ns)
    }

    /// Re-anchor at `now_ns`: fold the progress made under the pace in
    /// force since the anchor, then continue at `pace`.
    pub(crate) fn repace(&mut self, now_ns: u64, pace: Pace) {
        self.remaining_ns = self.remaining(now_ns);
        self.anchor_ns = now_ns;
        self.pace = pace;
    }
}

/// The clock a device's single-device tenants share: `k ≥ 1` tenants since
/// `anchor_ns`, `v` ns of solo work credited by then (see the module docs on
/// lazy progress, which define a tenant's tag and phase).
#[derive(Clone, Copy)]
pub(crate) struct DeviceClock {
    anchor_ns: u64,
    v: u64,
    pub(crate) k: u64,
}

impl Default for DeviceClock {
    /// The clock of a device that has had no tenant.
    fn default() -> DeviceClock {
        let (anchor_ns, v, k) = (0, 0, 1);
        DeviceClock { anchor_ns, v, k }
    }
}

impl DeviceClock {
    /// `(⌊a/k⌋, a mod k)` at `now_ns`.
    fn split(self, now_ns: u64) -> (u64, u64) {
        let a = now_ns - self.anchor_ns;
        (a / self.k, a % self.k)
    }

    /// The `(tag, phase)` of a tenant joining now with `work_ns` to do.
    fn join(self, now_ns: u64, work_ns: u64) -> (u64, u64) {
        let (q, r) = self.split(now_ns);
        (work_ns.saturating_add(self.v + q), r)
    }

    /// Solo work a tenant of `tag` and `phase` has left at `now_ns`.
    pub(crate) fn remaining(self, now_ns: u64, tag: u64, phase: u64) -> u64 {
        let (q, r) = self.split(now_ns);
        tag - self.v + u64::from(r < phase) - q
    }

    /// The first instant by which that tenant's work is done.
    pub(crate) fn due(self, tag: u64, phase: u64) -> u64 {
        let wall = self.k.saturating_mul(tag - self.v);
        self.anchor_ns.saturating_add(wall).saturating_add(phase)
    }

    /// Re-anchor at `now_ns` under `k` tenants, crediting every tenant
    /// `⌊a/k⌋`. Returns `a mod k`: a tenant of a larger phase had done one
    /// ns less, and must add it to its tag.
    fn fold(&mut self, now_ns: u64, k: u64) -> u64 {
        let (q, r) = self.split(now_ns);
        self.v += q;
        self.anchor_ns = now_ns;
        self.k = k;
        r
    }
}

/// One running tenant in a device's list: a gang's replica, or a
/// single-device tenant with what its device's clock keeps for it — so the
/// sweep and the heap's re-key read the list, not the slab.
#[derive(Clone, Copy)]
pub(crate) struct Tenant {
    pub(crate) key: SlotKey,
    pub(crate) solo: Option<Solo>,
}

/// A single-device tenant's arrival sequence (its heap tiebreak), tag and
/// phase on its device's [`DeviceClock`].
#[derive(Clone, Copy)]
pub(crate) struct Solo {
    pub(crate) seq: u64,
    pub(crate) tag: u64,
    pub(crate) phase: u64,
}

/// A device's running tenants, and the clock its single-device ones share.
#[derive(Clone, Default)]
pub(crate) struct Tenants {
    pub(crate) list: Vec<Tenant>,
    pub(crate) clock: DeviceClock,
}

impl Tenants {
    /// `key` is running here; a gang's replica until [`Tenants::join`].
    pub(crate) fn add(&mut self, key: SlotKey) {
        self.list.push(Tenant { key, solo: None });
    }

    /// `key` is gone.
    pub(crate) fn remove(&mut self, key: SlotKey) {
        let pos = self.list.iter().position(|t| t.key == key);
        self.list.swap_remove(pos.expect("tenant listed"));
    }

    /// `key`, just added, joins the clock now as arrival `seq` with
    /// `work_ns` of solo work to do. Alone on its device, it restarts the
    /// clock: a tag stays within the work of one busy period.
    pub(crate) fn join(&mut self, key: SlotKey, seq: u64, now_ns: u64, work_ns: u64) {
        if self.list.len() == 1 {
            (self.clock.anchor_ns, self.clock.v) = (now_ns, 0);
        }
        let (tag, phase) = self.clock.join(now_ns, work_ns);
        let t = self.list.iter_mut().rev().find(|t| t.key == key);
        t.expect("tenant listed").solo = Some(Solo { seq, tag, phase });
    }

    /// Fold the clock to `k` tenants at `now_ns` if its count moved: each
    /// single-device tenant is credited `⌊a/k_old⌋`, less the ns it has not
    /// done if it joined later in its unit than `a mod k_old`. Each gang goes
    /// to `gang` with `k_old`. Returns the earliest single-device tenant.
    pub(crate) fn refold(
        &mut self,
        now_ns: u64,
        k: u64,
        mut gang: impl FnMut(SlotKey, u64),
    ) -> Earliest {
        let k_old = self.clock.k;
        let folded = (k != k_old).then(|| self.clock.fold(now_ns, k));
        let mut earliest = Earliest::default();
        for t in &mut self.list {
            let Some(solo) = &mut t.solo else {
                gang(t.key, k_old);
                continue;
            };
            if let Some(r) = folded {
                solo.tag += u64::from(r < solo.phase);
                solo.phase = 0;
            }
            earliest.offer(self.clock.due(solo.tag, solo.phase), solo.seq, t.key);
        }
        earliest
    }
}

/// The earliest `(due, seq)` of the single-device tenants offered, its
/// tenant, and whether another is due at the same instant.
#[derive(Default)]
pub(crate) struct Earliest {
    first: Option<(u64, u64, SlotKey)>,
    tied: bool,
}

impl Earliest {
    pub(crate) fn offer(&mut self, due: u64, seq: u64, key: SlotKey) {
        match self.first {
            Some((d, s, _)) if (due, seq) > (d, s) => self.tied |= due == d,
            first => {
                self.tied = first.is_some_and(|(d, ..)| d == due);
                self.first = Some((due, seq, key));
            }
        }
    }

    /// `device`'s heap entry: `(due, seq, kind)` of the earliest, if any.
    pub(crate) fn entry(&self, device: usize) -> Option<(u64, u64, EventKind)> {
        let (due, seq, key) = self.first?;
        let (device, tied) = (device as u32, self.tied);
        Some((due, seq, EventKind::Solo { device, key, tied }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn whole_paces_are_exact_both_ways() {
        let p = Pace::new(3);
        assert_eq!((p.wall(7), p.work(21), p.work(20)), (21, 7, 6));
        assert_eq!(Pace::new(0), Pace::new(1), "an idle device");
        let alone = Pace::new(1);
        assert_eq!(
            (alone.wall(u64::MAX), alone.work(u64::MAX)),
            (u64::MAX, u64::MAX)
        );
        assert_eq!(p.wall(u64::MAX), u64::MAX, "saturates");
        assert_eq!(p.work(u64::MAX), u64::MAX / 3);
    }

    /// One device's single-device tenants through random instants, each on
    /// the device clock and on the per-tenant fold the clock stands in for
    /// (`(anchor, remaining, pace)`, re-anchored whenever its pace moves).
    /// At every instant some leave (all that are due, and a few more), some
    /// join — so the count often ends an instant where it began — and the
    /// device folds if it moved. Every tenant's due and its work left at
    /// instants up to the next must agree. Returns the folds whose phase term
    /// fired and the joins at instants that did not fold.
    fn clock_against_per_tenant_fold(seed: u64) -> (usize, usize) {
        let mut state = seed | 1;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // (tag, phase) on the clock; (anchor, remaining, pace) per tenant.
        type OnBoth = ((u64, u64), (u64, u64, u64));
        let mut tenants: Vec<OnBoth> = Vec::new();
        let mut clock = DeviceClock::default();
        let (mut now, mut fired, mut phased) = (0u64, 0, 0);
        for _ in 0..60 {
            let earliest = tenants.iter().map(|(_, (a, w, p))| a + p * w).min();
            now = earliest.map_or(now + 1 + draw(9), |due| now + draw(due - now + 1));
            tenants.retain(|(_, (a, w, p))| a + p * w > now && draw(5) > 0);
            for _ in 0..draw(3) {
                let work = 1 + draw(12);
                if tenants.is_empty() {
                    (clock.anchor_ns, clock.v) = (now, 0);
                }
                tenants.push((clock.join(now, work), (now, work, 0)));
            }
            let k = tenants.len().max(1) as u64;
            let fold = (k != clock.k).then(|| clock.fold(now, k));
            for ((tag, phase), (anchor, work, pace)) in &mut tenants {
                if let Some(r) = fold {
                    fired += usize::from(r < *phase);
                    *tag += u64::from(r < *phase);
                    *phase = 0;
                } else if *phase != 0 && *anchor == now {
                    phased += 1;
                }
                if *pace != k {
                    *work -= Pace::new(*pace as usize).work(now - *anchor);
                    (*anchor, *pace) = (now, k);
                }
            }
            let next = tenants.iter().map(|(_, (a, w, p))| a + p * w).min();
            for ((tag, phase), (anchor, work, pace)) in &tenants {
                assert_eq!(clock.due(*tag, *phase), anchor + pace * work, "seed {seed}");
                for t in now..=next.unwrap_or(now).min(now + 8) {
                    let left = work - (t - anchor) / pace;
                    assert_eq!(clock.remaining(t, *tag, *phase), left, "seed {seed} at {t}");
                }
            }
        }
        (fired, phased)
    }

    #[test]
    fn a_device_clock_folds_as_each_tenant_would() {
        let (mut fired, mut phased) = (0, 0);
        for seed in 1..=300 {
            let (f, p) = clock_against_per_tenant_fold(seed);
            fired += f;
            phased += p;
        }
        assert!(
            phased > 0,
            "no tenant joined at an instant that did not fold"
        );
        assert!(fired > 0, "no fold needed its phase term");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn wall_is_the_first_instant_the_work_is_done(
            work in 0u64..(1 << 62) + 1,
            shift in 0u32..63,
            tenants in 1usize..65,
        ) {
            // Uniform draws up to 2^62 are almost all huge: shift most down.
            let w = work >> shift;
            let p = Pace::new(tenants);
            let exact = u128::from(w) * tenants as u128;
            let t = p.wall(w);
            if exact > u128::from(u64::MAX) {
                prop_assert_eq!(t, u64::MAX, "an unrepresentable instant saturates");
            } else {
                prop_assert_eq!(u128::from(t), exact);
                prop_assert!(p.work(t) >= w, "done by wall(w)");
                prop_assert!(t == 0 || p.work(t - 1) < w, "and not an instant sooner");
            }
            // Work never exceeds the wall time it was given.
            prop_assert!(p.work(work) <= work);
        }
    }
}
