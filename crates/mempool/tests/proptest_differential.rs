//! Property test: [`HeapPool`] against its specification, a bitmap of
//! 1 KB blocks scanned from address 0.
//!
//! Over arbitrary alloc/free interleavings the pool's every observable is
//! checked against the bitmap: a grant covers only free blocks inside
//! capacity (grants are disjoint), first-fit returns the lowest address
//! with enough free blocks, `largest_free_contiguous` and the free-run count
//! are what a scan finds, `extent_high_water` is the highest end address
//! granted, and a refusal carries the `OutOfMemory { requested, free,
//! largest }` the bitmap states.

use proptest::prelude::*;
use sn_mempool::{HeapPool, BLOCK_BYTES};
use sn_sim::{AllocError, AllocGrant, AllocId, DeviceAllocator};

/// One flag a block, `true` while granted.
struct Bitmap(Vec<bool>);

impl Bitmap {
    /// The free runs as `(first block, blocks)`, lowest address first.
    fn runs(&self) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for (i, _) in self.0.iter().enumerate().filter(|(_, used)| !**used) {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == i as u64 => *len += 1,
                _ => runs.push((i as u64, 1)),
            }
        }
        runs
    }

    /// `(free, largest)` bytes: the diagnostic an OOM must carry.
    fn free_and_largest(runs: &[(u64, u64)]) -> (u64, u64) {
        let largest = runs.iter().map(|r| r.1).max().unwrap_or(0);
        (
            runs.iter().map(|r| r.1).sum::<u64>() * BLOCK_BYTES,
            largest * BLOCK_BYTES,
        )
    }

    /// Flip a grant's blocks to `used`; `false` if any lies outside the
    /// pool or already had that state.
    fn set(&mut self, g: &AllocGrant, used: bool) -> bool {
        let (start, end) = (g.addr / BLOCK_BYTES, (g.addr + g.bytes) / BLOCK_BYTES);
        let Some(blocks) = self.0.get_mut(start as usize..end as usize) else {
            return false;
        };
        let flips = blocks.iter().all(|b| *b != used);
        blocks.fill(used);
        flips
    }
}

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

/// The pool and its bitmap, checked against each other after every op.
struct Checked {
    pool: HeapPool,
    model: Bitmap,
    /// Live grants in grant order.
    live: Vec<AllocGrant>,
    /// Most bytes granted at once, and the highest end address granted.
    high_water: u64,
    highest_end: u64,
    /// Most free runs held at once.
    max_runs: usize,
}

impl Checked {
    fn new(capacity: u64) -> Checked {
        Checked {
            pool: HeapPool::with_capacity(capacity),
            model: Bitmap(vec![false; (capacity / BLOCK_BYTES) as usize]),
            live: Vec::new(),
            high_water: 0,
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
        let runs = self.model.runs();
        let need = bytes.max(1).div_ceil(BLOCK_BYTES);
        let first_fit = runs.iter().find(|r| r.1 >= need).map(|r| r.0 * BLOCK_BYTES);
        match self.pool.alloc(bytes) {
            Ok(g) => {
                prop_assert_eq!(Some(g.addr), first_fit, "first fit for {} bytes", bytes);
                prop_assert_eq!(g.bytes, need * BLOCK_BYTES);
                prop_assert!(self.model.set(&g, true), "{:?} overlaps or overruns", g);
                self.highest_end = self.highest_end.max(g.addr + g.bytes);
                self.live.push(g);
            }
            Err(e) => {
                prop_assert_eq!(first_fit, None, "refused {} bytes that fit", bytes);
                let (free, largest) = Bitmap::free_and_largest(&runs);
                let oom = AllocError::OutOfMemory {
                    requested: bytes,
                    free,
                    largest,
                };
                prop_assert_eq!(e, oom);
            }
        }
        self.check()
    }

    fn free(&mut self, i: usize) -> Result<(), TestCaseError> {
        if !self.live.is_empty() {
            let g = self.live.remove(i % self.live.len());
            self.pool.free(g.id).unwrap();
            prop_assert!(self.model.set(&g, false));
        }
        self.check()
    }

    fn check(&mut self) -> Result<(), TestCaseError> {
        let pool = &self.pool;
        let runs = self.model.runs();
        let (free, largest) = Bitmap::free_and_largest(&runs);
        prop_assert_eq!(pool.used(), pool.capacity() - free);
        self.high_water = self.high_water.max(pool.used());
        prop_assert_eq!(pool.high_water(), self.high_water);
        prop_assert_eq!(pool.extent_high_water(), self.highest_end);
        prop_assert_eq!(pool.largest_free_contiguous(), largest);
        prop_assert_eq!(pool.empty_nodes(), runs.len(), "free runs");
        self.max_runs = self.max_runs.max(runs.len());
        pool.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("pool invariant violated: {e}")))
    }

    /// Free everything: one run again, and the marks as the model says.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        while !self.live.is_empty() {
            self.free(0)?;
        }
        let pool = &mut self.pool;
        prop_assert_eq!(pool.used(), 0);
        prop_assert_eq!(pool.empty_nodes(), 1);
        // The byte mark restarts from what is live (nothing); the address
        // mark is for the pool's lifetime.
        pool.reset_high_water();
        prop_assert_eq!(
            (pool.high_water(), pool.extent_high_water()),
            (0, self.highest_end)
        );
        Ok(())
    }
}

#[test]
fn a_capacity_under_one_block_is_an_empty_pool() {
    // A cap is outside input (a device's free bytes): too small a one is an
    // out-of-memory answer with nothing free, never a panic.
    for capacity in [0, 1, 1023] {
        let mut pool = Checked::new(capacity);
        for bytes in [1, 1024, u64::MAX] {
            pool.alloc(bytes).unwrap();
            let oom = pool.pool.alloc(bytes).unwrap_err();
            let nothing_free = AllocError::OutOfMemory {
                requested: bytes,
                free: 0,
                largest: 0,
            };
            assert_eq!(oom, nothing_free);
        }
        assert!(pool.live.is_empty());
        assert_eq!((pool.pool.capacity(), pool.pool.empty_nodes()), (0, 0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn heap_pool_is_first_fit_over_a_block_bitmap(
        ops in proptest::collection::vec(op_strategy(50_000), 1..300)
    ) {
        // Small enough that the exhaustion paths are hit.
        let mut pool = Checked::new(192 * 1024);
        for op in &ops {
            pool.apply(op)?;
        }
        pool.drain()?;
    }

    #[test]
    fn double_frees_are_rejected(bytes in 1u64..10_000) {
        let mut pool = HeapPool::with_capacity(64 * 1024);
        let g = pool.alloc(bytes).unwrap();
        pool.free(g.id).unwrap();
        prop_assert_eq!(pool.free(g.id).unwrap_err(), AllocError::UnknownAllocation);
        prop_assert_eq!(pool.free(AllocId(u64::MAX)).unwrap_err(), AllocError::UnknownAllocation);
    }
}

proptest! {
    // Each case is ~1 500 checked operations over a list of hundreds of
    // runs; 32 of them cost what the 256 short traces above do.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn a_fragmented_pool_is_first_fit_too(
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
        let mut pool = Checked::new(4 << 20);
        for &bytes in &fill {
            pool.alloc(bytes)?;
        }
        let tail = pool.pool.largest_free_contiguous();
        pool.alloc(tail)?;
        prop_assert_eq!(pool.pool.empty_nodes(), 0, "pool must be packed");
        for i in 0..fill.len() / 2 {
            // Grant `2i` of the original order: earlier removals shifted it
            // down to index `i`.
            pool.free(i)?;
        }
        for op in &churn {
            pool.apply(op)?;
        }
        // Never vacuous: this trace exists to cover long run lists.
        prop_assert!(
            pool.max_runs >= 256,
            "trace reached only {} free runs",
            pool.max_runs
        );
        pool.drain()?;
    }
}
