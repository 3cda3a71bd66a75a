//! Placement: which devices a (gang of) replica(s) lands on.
//!
//! All policies only consider devices where the replica's predicted peak
//! fits the *unreserved* bytes — placement chooses among feasible options,
//! admission decides feasibility. Ties always break toward the lowest device
//! index, which keeps schedules deterministic. What a rung reads lives here
//! too, each beside its check: a device's reservation state (`DeviceState`)
//! and the fleet's walk index (`ByFree`).

use sn_runtime::PeakPrediction;
use sn_sim::DeviceSpec;

use crate::admission::{quantum, Grant, Placement};
use crate::fault::FaultEvent;

/// A feasible device for one replica: its index, unreserved and reserved
/// bytes (the sorting keys), the quantized prediction budget, and the
/// replica profile predicted under that budget.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    pub device: usize,
    pub free: u64,
    pub reserved: u64,
    pub budget: u64,
    pub prediction: PeakPrediction,
}

impl From<&Candidate> for Placement {
    fn from(c: &Candidate) -> Placement {
        Placement {
            device: c.device,
            budget: c.budget,
            prediction: c.prediction,
        }
    }
}

/// Device-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Lowest-indexed devices that fit. Fast, fragments memory.
    FirstFit,
    /// Devices where the replica leaves the least unreserved memory behind
    /// (classic best-fit): preserves large holes for large future jobs.
    BestFit,
    /// Memory-aware bin-packing: prefer the *most-reserved* device that
    /// still fits, consolidating tenants onto few devices so whole devices
    /// stay empty for big gangs.
    BinPack,
}

impl PlacementPolicy {
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::BestFit,
        PlacementPolicy::BinPack,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first_fit",
            PlacementPolicy::BestFit => "best_fit",
            PlacementPolicy::BinPack => "bin_pack",
        }
    }

    /// The order a policy ranks feasible devices in, best first. Every key
    /// ends in the device index: a total order, no two candidates tie.
    pub(crate) fn key(self, c: &Candidate) -> (u64, usize) {
        match self {
            PlacementPolicy::FirstFit => (0, c.device),
            PlacementPolicy::BestFit => (c.free - c.prediction.peak_bytes, c.device),
            PlacementPolicy::BinPack => (u64::MAX - c.reserved, c.device), // fullest first
        }
    }

    /// The least key any device with at least `free` bytes can get — past
    /// `device`, for FirstFit — when no replica peaks above `most_peak` on
    /// cards of `dram` bytes. A walk in ascending free order (index order
    /// for FirstFit) that holds its gang can stop at the first device whose
    /// floor exceeds the worst key held: no device after it would be chosen.
    pub(crate) fn floor(self, device: usize, free: u64, most_peak: u64, dram: u64) -> (u64, usize) {
        match self {
            PlacementPolicy::FirstFit => (0, device),
            PlacementPolicy::BestFit => (free.saturating_sub(most_peak), 0),
            PlacementPolicy::BinPack => (u64::MAX - (dram - free), 0),
        }
    }

    /// Keep `c` if it is among the `replicas` best offered so far. They are
    /// kept sorted in `best` (the caller's buffer: a rung that places nothing
    /// allocates nothing) as the candidates stream past — the same gang, in
    /// the same order, a full sort by the key would yield.
    pub(crate) fn offer(self, c: Candidate, replicas: usize, best: &mut Vec<Candidate>) {
        let key = self.key(&c);
        if best.len() == replicas {
            if key > self.key(&best[replicas - 1]) {
                return;
            }
            best.pop();
        }
        let at = best.partition_point(|b| self.key(b) < key);
        best.insert(at, c);
    }
}

/// Per-device mutable state during a simulation run.
#[derive(Debug, Clone)]
pub(crate) struct DeviceState {
    pub(crate) reserved: u64,
    pub(crate) tenants: usize,
    /// Wall time (ns) with at least one tenant.
    pub(crate) busy_ns: u64,
    /// ∫ reserved(t) dt, in byte·ns — memory utilization numerator. Never
    /// overflows: at most `u64::MAX` bytes for `u64::MAX` ns.
    pub(crate) reserved_integral: u128,
    /// The instant the two integrals above are current as of.
    settled_ns: u64,
    pub(crate) peak_reserved: u64,
    pub(crate) peak_tenants: usize,
    /// Fault state: a failed device admits nothing (its tenants were
    /// interrupted when it failed) and `spike` bytes are withheld from
    /// admission by an injected pressure fault. Both stay at their defaults
    /// on fault-free runs, where [`DeviceState::free_bytes`] degenerates to
    /// exactly `dram − reserved`.
    pub(crate) failed: bool,
    pub(crate) spike: u64,
    /// What a ladder rung reads instead of dividing: `free_bytes` and the
    /// budget level `free / quantum`, so `level × quantum` is
    /// `quantized_budget(spec, free)`. `reserved`, `spike` and `failed`
    /// change only inside [`DeviceState::alter`], which re-derives both.
    pub(crate) free: u64,
    pub(crate) level: u8,
}

impl DeviceState {
    /// The device before any tenant or fault. (No `Default`: a device never
    /// levelled would read as a full one.)
    pub(crate) fn idle(spec: &DeviceSpec) -> DeviceState {
        let mut idle = DeviceState {
            reserved: 0,
            tenants: 0,
            busy_ns: 0,
            reserved_integral: 0,
            settled_ns: 0,
            peak_reserved: 0,
            peak_tenants: 0,
            failed: false,
            spike: 0,
            free: 0,
            level: 0,
        };
        idle.alter(spec, |_| ());
        idle
    }

    /// Bytes admission may still reserve on this device.
    pub(crate) fn free_bytes(&self, spec: &DeviceSpec) -> u64 {
        if self.failed {
            0
        } else {
            spec.dram_bytes
                .saturating_sub(self.reserved.saturating_add(self.spike))
        }
    }

    /// Apply `change`, then bring `free` and `level` up to date with it.
    fn alter(&mut self, spec: &DeviceSpec, change: impl FnOnce(&mut DeviceState)) {
        change(self);
        self.free = self.free_bytes(spec);
        self.level = u8::try_from(self.free / quantum(spec)).expect("levels stop at 63");
    }

    /// One more tenant, holding `bytes`.
    pub(crate) fn admit(&mut self, spec: &DeviceSpec, bytes: u64) {
        self.alter(spec, |d| d.reserved += bytes);
        self.tenants += 1;
        self.peak_reserved = self.peak_reserved.max(self.reserved);
        self.peak_tenants = self.peak_tenants.max(self.tenants);
    }

    /// A tenant that held `bytes` is gone.
    pub(crate) fn vacate(&mut self, spec: &DeviceSpec, bytes: u64) {
        self.alter(spec, |d| d.reserved -= bytes);
        self.tenants -= 1;
    }

    /// Take `ev`, a fault that lands on this device.
    pub(crate) fn fault(&mut self, spec: &DeviceSpec, ev: FaultEvent) {
        self.alter(spec, |d| match ev {
            FaultEvent::DeviceFail { .. } => d.failed = true,
            FaultEvent::DeviceRecover { .. } => d.failed = false,
            FaultEvent::PressureSpike { bytes, .. } => d.spike = d.spike.saturating_add(bytes),
            FaultEvent::PressureRelease { bytes, .. } => d.spike = d.spike.saturating_sub(bytes),
        });
    }

    /// Bring the two integrals up to `now_ns`. Their integrands only step
    /// when `reserved` or `tenants` change, so settling just before either
    /// does (and once when the run ends) integrates exactly.
    pub(crate) fn settle(&mut self, now_ns: u64) {
        let dt = now_ns - self.settled_ns;
        if self.tenants > 0 {
            self.busy_ns += dt;
        }
        self.reserved_integral += u128::from(self.reserved) * u128::from(dt);
        self.settled_ns = now_ns;
    }

    /// Hold device `d`'s kept free bytes and level to their definitions, and
    /// its reservations to its DRAM.
    pub(crate) fn check(&self, spec: &DeviceSpec, d: usize) {
        let free = self.free_bytes(spec);
        assert_eq!(
            (self.free, u64::from(self.level)),
            (free, free / quantum(spec)),
            "device {d}: free bytes and budget level vs their definitions"
        );
        assert!(
            self.reserved <= spec.dram_bytes,
            "device {d}: reservations exceed DRAM"
        );
    }
}

/// A gang's pace count, which is its pace: the most tenants on any of its
/// devices.
pub(crate) fn most_tenants(devices: &[DeviceState], grant: &Grant) -> usize {
    let tenants = grant.placements.iter().map(|p| devices[p.device].tenants);
    tenants.max().unwrap_or(1)
}

/// The walk index a rung reads. The devices as ascending (free bytes, index)
/// pairs, and where each sits in them: what a BestFit or BinPack rung walks.
/// And a census of the devices' budget levels: how many show each level, and
/// the set of levels shown (`present`), which a rung resolves its row for. A
/// device whose free bytes change moves to its place by a local insertion
/// step, and from its old level's count to its new one.
pub(crate) struct ByFree {
    pub(crate) order: Vec<(u64, usize)>,
    rank: Vec<usize>,
    /// Each device's level as of its last move.
    level: Vec<u8>,
    census: [u32; 64],
    pub(crate) present: u64,
}

impl ByFree {
    /// The index of `devices`, by a scan.
    pub(crate) fn new(devices: &[DeviceState]) -> ByFree {
        let mut order: Vec<(u64, usize)> = devices.iter().map(|d| d.free).zip(0..).collect();
        order.sort_unstable();
        let mut rank = vec![0; order.len()];
        for (at, &(_, d)) in order.iter().enumerate() {
            rank[d] = at;
        }
        let level: Vec<u8> = devices.iter().map(|d| d.level).collect();
        let (mut census, mut present) = ([0; 64], 0);
        for &l in &level {
            census[usize::from(l)] += 1;
            present |= 1 << l;
        }
        ByFree {
            order,
            rank,
            level,
            census,
            present,
        }
    }

    /// Move `d`, whose free bytes just changed, to its place, and into its
    /// level's count if that changed too.
    pub(crate) fn moved(&mut self, devices: &[DeviceState], d: usize) {
        let level = devices[d].level;
        let was = std::mem::replace(&mut self.level[d], level);
        if was != level {
            self.census[usize::from(was)] -= 1;
            self.census[usize::from(level)] += 1;
            if self.census[usize::from(was)] == 0 {
                self.present &= !(1 << was);
            }
            self.present |= 1 << level;
        }
        let (key, mut at) = ((devices[d].free, d), self.rank[d]);
        while at > 0 && self.order[at - 1] > key {
            self.order[at] = self.order[at - 1];
            self.rank[self.order[at].1] = at;
            at -= 1;
        }
        while at + 1 < self.order.len() && self.order[at + 1] < key {
            self.order[at] = self.order[at + 1];
            self.rank[self.order[at].1] = at;
            at += 1;
        }
        self.order[at] = key;
        self.rank[d] = at;
    }

    /// Hold the kept index to one a scan of `devices` builds, building none:
    /// the scan's order is the ascending distinct (free bytes, device) pairs.
    pub(crate) fn check(&self, devices: &[DeviceState]) {
        let (n, order) = (devices.len(), &self.order);
        let sorted = order.len() == n && order.windows(2).all(|w| w[0] < w[1]);
        let frees = order.iter().all(|&(free, d)| devices[d].free == free);
        assert!(sorted && frees, "walk order vs free bytes");
        let ranked = self.rank.len() == n && (0..n).all(|at| self.rank[order[at].1] == at);
        assert!(ranked, "a device's rank vs its place in the walk order");
        let levels = devices.iter().map(|d| d.level);
        let kept = self.level.len() == n && levels.zip(&self.level).all(|(l, k)| l == *k);
        assert!(kept, "a device's kept level vs its level");
        let (mut scan, mut shown) = ([0u32; 64], 0u64);
        for d in devices {
            scan[usize::from(d.level)] += 1;
            shown |= 1 << d.level;
        }
        assert_eq!(
            (self.census, self.present),
            (scan, shown),
            "the level census vs a scan of the devices' levels"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_sim::SimTime;

    fn profile(peak: u64) -> PeakPrediction {
        PeakPrediction {
            peak_bytes: peak,
            iter_time: SimTime::from_us(100),
            weight_bytes: 1,
        }
    }

    /// The gang `policy` keeps of `candidates` offered in turn, as a rung
    /// keeps it: `None` if fewer than `replicas` are offered.
    fn choose(
        policy: PlacementPolicy,
        candidates: impl IntoIterator<Item = Candidate>,
        replicas: usize,
    ) -> Option<Vec<Placement>> {
        let mut best = Vec::new();
        for c in candidates {
            policy.offer(c, replicas, &mut best);
        }
        (best.len() == replicas).then(|| best.iter().map(Placement::from).collect())
    }

    fn candidates() -> Vec<Candidate> {
        [(0usize, 1000u64, 0u64), (1, 300, 700), (2, 500, 500)]
            .into_iter()
            .map(|(device, free, reserved)| Candidate {
                device,
                free,
                reserved,
                budget: free,
                prediction: profile(100),
            })
            .collect()
    }

    #[test]
    fn first_fit_takes_lowest_indices() {
        let got = choose(PlacementPolicy::FirstFit, candidates(), 2).unwrap();
        assert_eq!(got.iter().map(|p| p.device).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn best_fit_minimizes_leftover() {
        let got = choose(PlacementPolicy::BestFit, candidates(), 1).unwrap();
        assert_eq!(got[0].device, 1, "300-100 leaves the smallest hole");
    }

    #[test]
    fn bin_pack_prefers_fullest_device() {
        let got = choose(PlacementPolicy::BinPack, candidates(), 1).unwrap();
        assert_eq!(
            got[0].device, 1,
            "device 1 already holds 700 reserved bytes"
        );
    }

    #[test]
    fn gangs_are_all_or_nothing() {
        assert!(choose(PlacementPolicy::FirstFit, candidates(), 4).is_none());
        let got = choose(PlacementPolicy::BinPack, candidates(), 3).unwrap();
        let mut devs: Vec<_> = got.iter().map(|p| p.device).collect();
        devs.sort_unstable();
        assert_eq!(devs, vec![0, 1, 2]);
    }

    #[test]
    fn the_best_few_equal_a_full_sort() {
        // 64 candidates with heavily repeated keys (ties fall to the device
        // index), presented in a scrambled order.
        let pool: Vec<Candidate> = (0..64usize)
            .map(|i| {
                let device = (i * 37) % 64;
                let reserved = (device as u64 % 5) * 100;
                Candidate {
                    device,
                    free: 1000 - reserved,
                    reserved,
                    budget: 1000 - reserved,
                    prediction: profile(100 + (device as u64 % 3) * 50),
                }
            })
            .collect();
        for policy in PlacementPolicy::ALL {
            let mut sorted = pool.clone();
            match policy {
                PlacementPolicy::FirstFit => sorted.sort_by_key(|c| c.device),
                PlacementPolicy::BestFit => {
                    sorted.sort_by_key(|c| (c.free - c.prediction.peak_bytes, c.device))
                }
                PlacementPolicy::BinPack => {
                    sorted.sort_by_key(|c| (std::cmp::Reverse(c.reserved), c.device))
                }
            }
            for replicas in [1, 2, 4, 63, 64] {
                let got = choose(policy, pool.clone(), replicas).unwrap();
                let got: Vec<usize> = got.iter().map(|p| p.device).collect();
                let want: Vec<usize> = sorted[..replicas].iter().map(|c| c.device).collect();
                assert_eq!(got, want, "{} x{replicas}", policy.name());
            }
        }
    }

    #[test]
    fn placements_carry_the_prediction_budget() {
        // The budget the profile was compiled under must survive placement:
        // gang step measurement re-caps the device with it.
        let got = choose(PlacementPolicy::FirstFit, candidates(), 3).unwrap();
        for p in &got {
            let want = candidates()
                .into_iter()
                .find(|c| c.device == p.device)
                .unwrap();
            assert_eq!(p.budget, want.budget);
        }
    }
}
