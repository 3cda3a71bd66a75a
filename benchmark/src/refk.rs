//! The reference kernel: a fixed piece of work that the harness runs before
//! and after every measured pass, so a pass can be priced in "reference-kernel
//! runs" instead of seconds.
//!
//! Why: this class of host flips between speed states ~1.25× apart for
//! seconds at a time, which moves every wall-clock rate by more than a perf
//! change is worth; the ratio of a pass to the reference runs that bracket it
//! cancels the state both ran in.
//!
//! The host's noise has more than one dimension — in one state dependent
//! arithmetic slows by 1.28× while DRAM-bound loads slow by 1.07×; in another
//! arithmetic is untouched and cache-resident loads slow by 1.2× — so the
//! kernel mixes what the measured program mixes, in three phases:
//!
//! 1. a dependent multiply-xorshift-rotate chain (core clock);
//! 2. the same chain indexing a 1 MiB `u64` table, with one 8-byte heap
//!    allocation per step (L2 / L3 latency, allocator fast path);
//! 3. variable-size heap blocks of 16 B – 2 KiB, first and last byte written,
//!    256 kept live (allocator slow paths, fresh cache lines).
//!
//! Measured over 40 s beside each workload's passes, as the range of the
//! medians of eight consecutive chunks of `pass ÷ kernel`: phase 2 alone
//! 4.6 % / 14.4 % / 3.2 % / 5.2 % (`plan_cold` / `plan_reuse` / `train_exec` /
//! `serve_mixed`), raw wall time 19.7 % / 25.9 % / 4.2 % / 7.8 %, the three
//! phases together 3.7 % / 2.7 % / 1.5 % / 3.5 %. It makes no system call
//! beyond what the allocator needs to grow once.
//!
//! The kernel is part of the benchmark's definition: changing a constant here
//! changes the unit of `ref_cost`, and the baseline must be measured again.

use std::hint::black_box;
use std::time::Instant;

/// Steps of each phase; together ≈ 20–25 ms on the host the baseline was
/// measured on.
const CHAIN_STEPS: usize = 1_500_000;
const TABLE_STEPS: usize = 1_000_000;
const BLOCK_STEPS: usize = 75_000;
/// Table size in `u64` words: 1 MiB.
const TABLE_WORDS: usize = 1 << 17;
const LIVE_BLOCKS: usize = 256;

const MUL: u64 = 0xd6e8_feb8_6659_fd93;

pub struct RefKernel {
    table: Vec<u64>,
    /// The value every run must end on — a run that ends elsewhere did
    /// different work and cannot be a unit.
    expect: u64,
}

fn work(table: &[u64]) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..black_box(CHAIN_STEPS) {
        x = (x ^ (x >> 29)).wrapping_mul(MUL).rotate_left(23);
    }
    for _ in 0..black_box(TABLE_STEPS) {
        let cell = black_box(Box::new(table[(x >> 40) as usize & (TABLE_WORDS - 1)]));
        x = (x ^ *cell).wrapping_mul(MUL).rotate_left(23);
    }
    let mut live: Vec<Vec<u8>> = (0..LIVE_BLOCKS).map(|_| Vec::new()).collect();
    for i in 0..black_box(BLOCK_STEPS) {
        x = (x ^ (x >> 29)).wrapping_mul(MUL).rotate_left(23);
        let len = 16 + (x >> 53) as usize;
        let mut block = vec![0u8; len];
        block[0] = x as u8;
        block[len - 1] = 1;
        live[i % LIVE_BLOCKS] = black_box(block);
    }
    x ^ live[7].len() as u64
}

impl RefKernel {
    pub fn new() -> RefKernel {
        let mut w = 0x2545_f491_4f6c_dd1du64;
        let table: Vec<u64> = (0..TABLE_WORDS)
            .map(|_| {
                w ^= w << 13;
                w ^= w >> 7;
                w ^= w << 17;
                w
            })
            .collect();
        let expect = work(&table);
        RefKernel { table, expect }
    }

    /// One run; returns its wall time in seconds.
    pub fn run(&self) -> f64 {
        let t = Instant::now();
        let end = work(black_box(&self.table));
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(end, self.expect, "reference kernel diverged");
        dt
    }

    /// Median of three back-to-back runs: for the few places where one
    /// run's ±5 % jitter is not averaged out by a hundred passes.
    pub fn run3(&self) -> f64 {
        let mut t = [self.run(), self.run(), self.run()];
        t.sort_by(|a, b| a.partial_cmp(b).expect("times are never NaN"));
        t[1]
    }
}
