//! Placement: which devices a (gang of) replica(s) lands on.
//!
//! All policies only consider devices where the replica's predicted peak
//! fits the *unreserved* bytes — placement chooses among feasible options,
//! admission decides feasibility. Ties always break toward the lowest device
//! index, which keeps schedules deterministic.

use sn_runtime::PeakPrediction;

use crate::admission::Placement;

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
    /// `device`, for FirstFit — when no replica peaks above `most_peak` and
    /// no device has more than `most_dram`. A walk in ascending free order
    /// (index order for FirstFit) that holds its gang can stop at the first
    /// device whose floor exceeds the worst key held: no device after it
    /// would be chosen.
    pub(crate) fn floor(
        self,
        device: usize,
        free: u64,
        most_peak: u64,
        most_dram: u64,
    ) -> (u64, usize) {
        match self {
            PlacementPolicy::FirstFit => (0, device),
            PlacementPolicy::BestFit => (free.saturating_sub(most_peak), 0),
            PlacementPolicy::BinPack => (u64::MAX - (most_dram - free), 0),
        }
    }

    /// Choose `replicas` distinct devices from the feasible [`Candidate`]s,
    /// taken in any order. Returns the chosen [`Placement`]s, or `None` if
    /// fewer than `replicas` devices are feasible (gangs are atomic: all or
    /// nothing).
    pub fn choose(
        self,
        candidates: impl IntoIterator<Item = Candidate>,
        replicas: usize,
        best: &mut Vec<Candidate>,
    ) -> Option<Vec<Placement>> {
        best.clear();
        if replicas == 0 {
            return Some(Vec::new());
        }
        for c in candidates {
            self.offer(c, replicas, best);
        }
        (best.len() == replicas).then(|| best.iter().map(Placement::from).collect())
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
        let got = PlacementPolicy::FirstFit
            .choose(candidates(), 2, &mut Vec::new())
            .unwrap();
        assert_eq!(got.iter().map(|p| p.device).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn best_fit_minimizes_leftover() {
        let got = PlacementPolicy::BestFit
            .choose(candidates(), 1, &mut Vec::new())
            .unwrap();
        assert_eq!(got[0].device, 1, "300-100 leaves the smallest hole");
    }

    #[test]
    fn bin_pack_prefers_fullest_device() {
        let got = PlacementPolicy::BinPack
            .choose(candidates(), 1, &mut Vec::new())
            .unwrap();
        assert_eq!(
            got[0].device, 1,
            "device 1 already holds 700 reserved bytes"
        );
    }

    #[test]
    fn gangs_are_all_or_nothing() {
        assert!(PlacementPolicy::FirstFit
            .choose(candidates(), 4, &mut Vec::new())
            .is_none());
        let got = PlacementPolicy::BinPack
            .choose(candidates(), 3, &mut Vec::new())
            .unwrap();
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
        // One buffer throughout: what an earlier choice left in it is gone.
        let mut best = Vec::new();
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
                let got = policy.choose(pool.clone(), replicas, &mut best).unwrap();
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
        let got = PlacementPolicy::FirstFit
            .choose(candidates(), 3, &mut Vec::new())
            .unwrap();
        for p in &got {
            let want = candidates()
                .into_iter()
                .find(|c| c.device == p.device)
                .unwrap();
            assert_eq!(p.budget, want.budget);
        }
    }
}
