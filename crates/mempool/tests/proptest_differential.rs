//! Differential property test: the indexed [`HeapPool`] and the reference
//! linear-scan [`LinearPool`] must be observably identical.
//!
//! The indexed pool exists to make plan compilation fast; it must never
//! change a single planned byte. Over arbitrary alloc/free interleavings the
//! two implementations are driven in lockstep and compared on everything a
//! caller can observe: grant IDs, addresses, rounded sizes, `used`,
//! `high_water`, `extent_high_water` (which must also be the highest end
//! address granted), `largest_free_contiguous`, fragment counts, and the full
//! `OutOfMemory { requested, free, largest }` diagnostic on the failure
//! path.

use proptest::prelude::*;
use sn_mempool::{HeapPool, LinearPool, PoolConfig};
use sn_sim::{AllocError, DeviceAllocator};

// Handles are compared only for *behaviour* (freeing the same logical
// allocation in both pools), not for value: the indexed pool encodes its
// slab slot in the id, the linear pool numbers monotonically. Everything a
// caller can observe about *memory* must match bit for bit.

#[derive(Debug, Clone)]
enum Op {
    /// Allocate this many bytes.
    Alloc(u64),
    /// Free the live allocation at this (wrapped) index.
    Free(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u64..50_000).prop_map(Op::Alloc),
        2 => (0usize..64).prop_map(Op::Free),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_pool_is_byte_identical_to_linear_first_fit(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        let capacity = 192 * 1024; // small enough that OOM paths are hit
        let mut fast = HeapPool::with_capacity(capacity);
        let mut slow = LinearPool::with_capacity(capacity);
        let mut live: Vec<(sn_sim::AllocId, sn_sim::AllocId)> = Vec::new();
        let mut highest_end = 0;

        for op in ops {
            match op {
                Op::Alloc(bytes) => {
                    match (fast.alloc(bytes), slow.alloc(bytes)) {
                        (Ok(f), Ok(s)) => {
                            prop_assert_eq!(f.addr, s.addr,
                                "first-fit addresses diverged for {} bytes", bytes);
                            prop_assert_eq!(f.bytes, s.bytes);
                            highest_end = highest_end.max(f.addr + f.bytes);
                            live.push((f.id, s.id));
                        }
                        (
                            Err(AllocError::OutOfMemory { requested: rf, free: ff, largest: lf }),
                            Err(AllocError::OutOfMemory { requested: rs, free: fs, largest: ls }),
                        ) => {
                            prop_assert_eq!(rf, rs);
                            prop_assert_eq!(ff, fs, "OOM free-bytes diverged");
                            prop_assert_eq!(lf, ls, "OOM largest-fragment diverged");
                        }
                        (f, s) => {
                            return Err(TestCaseError::fail(format!(
                                "outcome diverged: indexed {f:?} vs linear {s:?}"
                            )));
                        }
                    }
                }
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (fid, sid) = live.remove(i % live.len());
                        fast.free(fid).unwrap();
                        slow.free(sid).unwrap();
                    }
                }
            }
            // Aggregate observables agree after every operation.
            prop_assert_eq!(fast.used(), slow.used());
            prop_assert_eq!(fast.high_water(), slow.high_water());
            prop_assert_eq!(fast.extent_high_water(), highest_end);
            prop_assert_eq!(slow.extent_high_water(), highest_end);
            prop_assert!(highest_end >= fast.high_water());
            prop_assert_eq!(fast.largest_free_contiguous(), slow.largest_free_contiguous());
            prop_assert_eq!(fast.empty_nodes(), slow.empty_nodes(),
                "fragment structure diverged");
            fast.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("indexed pool invariant violated: {e}"))
            })?;
        }

        // Drain both: identical terminal state.
        for (fid, sid) in live.drain(..) {
            fast.free(fid).unwrap();
            slow.free(sid).unwrap();
        }
        prop_assert_eq!(fast.used(), 0);
        prop_assert_eq!(fast.empty_nodes(), 1);
        prop_assert_eq!(slow.empty_nodes(), 1);
        prop_assert_eq!(fast.high_water(), slow.high_water());
        // The byte mark restarts from what is live (nothing); the address
        // mark is for the pool's lifetime.
        fast.reset_high_water();
        slow.reset_high_water();
        prop_assert_eq!((fast.high_water(), fast.extent_high_water()), (0, highest_end));
        prop_assert_eq!((slow.high_water(), slow.extent_high_water()), (0, highest_end));
    }

    #[test]
    fn treap_regime_is_byte_identical_too(
        ops in proptest::collection::vec(op_strategy(), 1..300)
    ) {
        // Same differential, but with the migration thresholds dropped to
        // 12/6 runs so realistic traces spill into the treap, exercise its
        // first-fit descent, shrink/grow updates and coalescing searches,
        // and collapse back — repeatedly. (At the default thresholds these
        // trace sizes rarely fragment far enough to leave the vector.)
        let mut cfg = PoolConfig::new(192 * 1024);
        cfg.spill_runs = 12;
        cfg.collapse_runs = 6;
        let mut fast = HeapPool::new(cfg);
        let mut slow = LinearPool::new(cfg);
        let mut live: Vec<(sn_sim::AllocId, sn_sim::AllocId)> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(bytes) => match (fast.alloc(bytes), slow.alloc(bytes)) {
                    (Ok(f), Ok(s)) => {
                        prop_assert_eq!(f.addr, s.addr);
                        prop_assert_eq!(f.bytes, s.bytes);
                        live.push((f.id, s.id));
                    }
                    (Err(f), Err(s)) => prop_assert_eq!(f, s),
                    (f, s) => {
                        return Err(TestCaseError::fail(format!(
                            "outcome diverged: indexed {f:?} vs linear {s:?}"
                        )));
                    }
                },
                Op::Free(i) => {
                    if !live.is_empty() {
                        let (fid, sid) = live.remove(i % live.len());
                        fast.free(fid).unwrap();
                        slow.free(sid).unwrap();
                    }
                }
            }
            prop_assert_eq!(fast.used(), slow.used());
            prop_assert_eq!(fast.extent_high_water(), slow.extent_high_water());
            prop_assert_eq!(fast.largest_free_contiguous(), slow.largest_free_contiguous());
            prop_assert_eq!(fast.empty_nodes(), slow.empty_nodes());
            fast.check_invariants().map_err(|e| {
                TestCaseError::fail(format!("indexed pool invariant violated: {e}"))
            })?;
        }
    }

    #[test]
    fn double_frees_rejected_identically(bytes in 1u64..10_000) {
        let mut fast = HeapPool::with_capacity(64 * 1024);
        let mut slow = LinearPool::with_capacity(64 * 1024);
        let gf = fast.alloc(bytes).unwrap();
        let gs = slow.alloc(bytes).unwrap();
        prop_assert_eq!(gf.addr, gs.addr);
        fast.free(gf.id).unwrap();
        slow.free(gs.id).unwrap();
        prop_assert_eq!(
            fast.free(gf.id).unwrap_err(),
            slow.free(gs.id).unwrap_err()
        );
    }
}
