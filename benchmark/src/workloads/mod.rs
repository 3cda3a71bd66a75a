//! The four workloads, and the generator pieces they share.

pub mod plan_cold;
pub mod plan_reuse;
pub mod serve_mixed;
pub mod train_exec;

use superneurons::graph::Net;
use superneurons::Shape4;

pub const MB: u64 = 1 << 20;
pub const GB: u64 = 1 << 30;

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["plan_cold", "plan_reuse", "train_exec", "serve_mixed"];

/// A synthetic conv tower: `depth` CONV→RELU blocks of `width` channels over
/// a 32×32 input, then POOL→FC→SOFTMAX. Built here from the graph crate's
/// public builder, so the benchmark's nets do not move when the cluster
/// crate's `Workload::Synthetic` does.
pub fn tower(width: usize, depth: usize, batch: usize) -> Net {
    let mut net = Net::new("Tower", Shape4::new(batch, 3, 32, 32));
    let mut prev = net.data();
    for _ in 0..depth {
        let c = net.conv(prev, width, 3, 1, 1);
        prev = net.relu(c);
    }
    let p = net.max_pool(prev, 2, 2, 0);
    let f = net.fc(p, 10);
    net.softmax(f);
    net
}

/// FNV-1a over 64-bit words: the digest passes fold their simulated outputs
/// into.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}
