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
use sn_mempool::{HeapPool, LinearPool};
use sn_sim::{AllocId, DeviceAllocator};

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

fn op_strategy(max_bytes: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1..max_bytes).prop_map(Op::Alloc),
        2 => (0usize..1 << 16).prop_map(Op::Free),
    ]
}

/// Both pools driven in lockstep and compared after every operation.
struct Lockstep {
    fast: HeapPool,
    slow: LinearPool,
    /// Live grants in grant order: (indexed id, linear id).
    live: Vec<(AllocId, AllocId)>,
    /// Highest end address any grant has covered.
    highest_end: u64,
    /// Most free runs held at once.
    max_runs: usize,
}

impl Lockstep {
    fn new(capacity: u64) -> Lockstep {
        Lockstep {
            fast: HeapPool::with_capacity(capacity),
            slow: LinearPool::with_capacity(capacity),
            live: Vec::new(),
            highest_end: 0,
            max_runs: 1,
        }
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Alloc(bytes) => self.alloc(bytes),
            Op::Free(i) => self.free(i),
        }
    }

    fn alloc(&mut self, bytes: u64) -> Result<(), TestCaseError> {
        match (self.fast.alloc(bytes), self.slow.alloc(bytes)) {
            (Ok(f), Ok(s)) => {
                prop_assert_eq!(f.addr, s.addr, "first-fit diverged for {bytes} bytes");
                prop_assert_eq!(f.bytes, s.bytes);
                self.highest_end = self.highest_end.max(f.addr + f.bytes);
                self.live.push((f.id, s.id));
            }
            // `OutOfMemory { requested, free, largest }`, field for field.
            (Err(f), Err(s)) => prop_assert_eq!(f, s, "OOM diagnostics diverged"),
            (f, s) => {
                return Err(TestCaseError::fail(format!(
                    "outcome diverged: indexed {f:?} vs linear {s:?}"
                )));
            }
        }
        self.compare()
    }

    fn free(&mut self, i: usize) -> Result<(), TestCaseError> {
        if !self.live.is_empty() {
            let (fid, sid) = self.live.remove(i % self.live.len());
            self.fast.free(fid).unwrap();
            self.slow.free(sid).unwrap();
        }
        self.compare()
    }

    /// Aggregate observables agree.
    fn compare(&mut self) -> Result<(), TestCaseError> {
        let (fast, slow) = (&self.fast, &self.slow);
        prop_assert_eq!(fast.used(), slow.used());
        prop_assert_eq!(fast.high_water(), slow.high_water());
        prop_assert_eq!(fast.extent_high_water(), self.highest_end);
        prop_assert_eq!(slow.extent_high_water(), self.highest_end);
        prop_assert!(self.highest_end >= fast.high_water());
        prop_assert_eq!(
            fast.largest_free_contiguous(),
            slow.largest_free_contiguous()
        );
        prop_assert_eq!(
            fast.empty_nodes(),
            slow.empty_nodes(),
            "fragment structure diverged"
        );
        self.max_runs = self.max_runs.max(fast.empty_nodes());
        fast.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("indexed pool invariant violated: {e}")))
    }

    /// Free everything, comparing along the way: identical terminal state.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while !self.live.is_empty() {
            self.free(0)?;
        }
        let (fast, slow) = (&mut self.fast, &mut self.slow);
        prop_assert_eq!(fast.used(), 0);
        prop_assert_eq!(fast.empty_nodes(), 1);
        prop_assert_eq!(slow.empty_nodes(), 1);
        // The byte mark restarts from what is live (nothing); the address
        // mark is for the pool's lifetime.
        fast.reset_high_water();
        slow.reset_high_water();
        let marks = (0, self.highest_end);
        prop_assert_eq!((fast.high_water(), fast.extent_high_water()), marks);
        prop_assert_eq!((slow.high_water(), slow.extent_high_water()), marks);
        Ok(())
    }
}

#[test]
fn a_capacity_under_one_block_is_an_empty_pool_on_both() {
    // A cap is outside input (a device's free bytes): too small a one is an
    // out-of-memory answer with nothing free, never a panic.
    for capacity in [0, 1, 1023] {
        let mut pools = Lockstep::new(capacity);
        for bytes in [1, 1024, u64::MAX] {
            pools.alloc(bytes).unwrap();
            let oom = pools.fast.alloc(bytes).unwrap_err();
            let nothing_free = sn_sim::AllocError::OutOfMemory {
                requested: bytes,
                free: 0,
                largest: 0,
            };
            assert_eq!(oom, nothing_free);
        }
        assert!(pools.live.is_empty());
        assert_eq!((pools.fast.capacity(), pools.slow.capacity()), (0, 0));
        assert_eq!((pools.fast.empty_nodes(), pools.slow.empty_nodes()), (0, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_pool_is_byte_identical_to_linear_first_fit(
        ops in proptest::collection::vec(op_strategy(50_000), 1..300)
    ) {
        // Small enough that the exhaustion paths are hit.
        let mut pools = Lockstep::new(192 * 1024);
        for op in &ops {
            pools.apply(op)?;
        }
        pools.drain()?;
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

proptest! {
    // Each case is ~1 500 compared operations over a list of hundreds of
    // runs; 32 of them cost what the 256 short traces above do.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fragmented_pool_is_byte_identical_too(
        fill in proptest::collection::vec(1u64..4097, 520..640),
        churn in proptest::collection::vec(op_strategy(4097), 200..400)
    ) {
        // The random traces above never hold more than a dozen free runs.
        // This one holds hundreds: pack a 4 MB pool with 1–4 KB grants,
        // plug the tail so only holes can serve later requests, free every
        // other grant (≥ 260 isolated 1–4-block holes), then churn — 1–4 KB
        // requests skip the holes too small for them, exact fits remove
        // runs, frees coalesce neighbouring holes, the largest run is
        // consumed and rescanned, and 4 KB requests meet fragmentation OOMs
        // once the 4-block holes are gone.
        let mut pools = Lockstep::new(4 << 20);
        for &bytes in &fill {
            pools.alloc(bytes)?;
        }
        let tail = pools.fast.largest_free_contiguous();
        pools.alloc(tail)?;
        prop_assert_eq!(pools.fast.empty_nodes(), 0, "pool must be packed");
        for i in 0..fill.len() / 2 {
            // Grant `2i` of the original order: earlier removals shifted it
            // down to index `i`.
            pools.free(i)?;
        }
        for op in &churn {
            pools.apply(op)?;
        }
        // Never vacuous: this trace exists to cover long run lists.
        prop_assert!(
            pools.max_runs >= 256,
            "trace reached only {} free runs",
            pools.max_runs
        );
        pools.drain()?;
    }
}
