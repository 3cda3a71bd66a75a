//! The one place simulated time is rounded.
//!
//! A device running `k` tenants gives each `1/k` of its throughput, a gang
//! runs at the pace of its most-loaded device, and a gang on a link degraded
//! to `permille`/1000 of nominal stretches by `1000/permille`. So a gang's
//! [`Pace`] is an exact ratio `num/den` of wall ns per ns of *solo* work —
//! `k`, or `k·1000 / permille` — and the clock stays in integer ns by
//! rounding in exactly two functions, whose directions are chosen as a pair:
//!
//! * [`Pace::wall`] rounds **up**: the wall time `work` ns of solo work
//!   takes;
//! * [`Pace::work`] rounds **down**: the solo work done in `wall` ns.
//!
//! Together `wall(w) = min { t : work(t) ≥ w }`: a gang completes at the
//! first instant by which it has done its work, never before, and a
//! re-anchor (`remaining −= work(elapsed)`) never credits work not yet done.
//! Each fold of progress therefore delays a completion by under `⌈num/den⌉`
//! ns and never advances it. Products are taken in `u128` and a wall time
//! past `u64::MAX` saturates there (`den ≤ num`, so work never exceeds the
//! wall time it came from); nothing wraps and nothing is cast down. A whole
//! pace (`den == 1`) gets the same bits from 64-bit `saturating_mul` and `/`.

/// Wall ns per ns of solo work, as the exact ratio `num / den`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pace {
    num: u64,
    den: u64,
}

impl Pace {
    /// The pace of a gang whose most-loaded device runs `tenants` tenants,
    /// over a link at `permille`/1000 of nominal speed (1000 for a solo
    /// tenant, which exchanges no gradients).
    pub(crate) fn new(tenants: usize, permille: u32) -> Pace {
        let tenants = tenants.max(1) as u64;
        if permille == 1000 {
            Pace {
                num: tenants,
                den: 1,
            }
        } else {
            Pace {
                num: tenants.saturating_mul(1000),
                den: u64::from(permille.max(1)),
            }
        }
    }

    /// Wall ns to do `work` ns of solo work: `⌈work · num / den⌉`.
    pub(crate) fn wall(self, work: u64) -> u64 {
        if self.den == 1 {
            return work.saturating_mul(self.num);
        }
        let wall = (u128::from(work) * u128::from(self.num)).div_ceil(u128::from(self.den));
        u64::try_from(wall).unwrap_or(u64::MAX)
    }

    /// Solo work done in `wall` ns: `⌊wall · den / num⌋`.
    pub(crate) fn work(self, wall: u64) -> u64 {
        if self.den == 1 {
            return wall / self.num;
        }
        let work = u128::from(wall) * u128::from(self.den) / u128::from(self.num);
        u64::try_from(work).expect("den ≤ num, so work ≤ wall")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn whole_paces_are_exact_both_ways() {
        let p = Pace::new(3, 1000);
        assert_eq!((p.wall(7), p.work(21), p.work(20)), (21, 7, 6));
        assert_eq!(Pace::new(0, 1000), Pace::new(1, 1000), "an idle device");
        let alone = Pace::new(1, 1000);
        assert_eq!(
            (alone.wall(u64::MAX), alone.work(u64::MAX)),
            (u64::MAX, u64::MAX)
        );
        assert_eq!(p.wall(u64::MAX), u64::MAX, "saturates");
        assert_eq!(p.work(u64::MAX), u64::MAX / 3);
    }

    #[test]
    fn a_degraded_link_stretches_by_its_ratio() {
        // 2 tenants at 300‰: 20/3 wall ns per work ns.
        let p = Pace::new(2, 300);
        assert_eq!(p.wall(3), 20);
        assert_eq!(p.wall(1), 7, "6.67 rounds up");
        assert_eq!(p.work(7), 1, "1.05 rounds down");
        assert_eq!(p.work(6), 0);
        assert_eq!(
            Pace::new(2, 0),
            Pace::new(2, 1),
            "0‰ is clamped, not divided by"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn wall_is_the_first_instant_the_work_is_done(
            work in 0u64..(1 << 62) + 1,
            shift in 0u32..63,
            tenants in 1usize..65,
            permille in 1u32..1001,
        ) {
            // Uniform draws up to 2^62 are almost all huge: shift most down.
            let w = work >> shift;
            let p = Pace::new(tenants, permille);
            let exact = (u128::from(w) * u128::from(p.num)).div_ceil(u128::from(p.den));
            let t = p.wall(w);
            if exact > u128::from(u64::MAX) {
                prop_assert_eq!(t, u64::MAX, "an unrepresentable instant saturates");
            } else {
                prop_assert_eq!(u128::from(t), exact);
                prop_assert!(p.work(t) >= w, "done by wall(w)");
                prop_assert!(t == 0 || p.work(t - 1) < w, "and not an instant sooner");
            }
            // den ≤ num: work never exceeds the wall time it was given.
            prop_assert!(p.work(work) <= work);
        }

        #[test]
        fn a_whole_pace_gives_the_bits_the_wide_forms_give(
            work in 0u64..(1 << 62) + 1,
            shift in 0u32..63,
            tenants in 1usize..65,
        ) {
            let p = Pace::new(tenants, 1000);
            prop_assert_eq!((p.num, p.den), (tenants as u64, 1));
            // `work` itself overflows the product for most tenant counts;
            // the shifted draw stays under `u64::MAX`.
            for w in [work, work >> shift, u64::MAX - (work >> shift)] {
                let wall = (u128::from(w) * u128::from(p.num)).div_ceil(u128::from(p.den));
                prop_assert_eq!(p.wall(w), u64::try_from(wall).unwrap_or(u64::MAX));
                let done = u128::from(w) * u128::from(p.den) / u128::from(p.num);
                prop_assert_eq!(u128::from(p.work(w)), done);
            }
        }
    }
}
