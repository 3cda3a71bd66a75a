//! First-fit heap pool over 1 KB blocks (paper §3.2.1), with coalescing.
//!
//! The empty list is the paper's structure — runs of free blocks in address
//! order, searched front to back for "the lowest address among nodes with
//! enough free blocks" — held in one sorted vector (`RunIndex`) next to an
//! incrementally maintained maximum run length, so
//!
//! * a request no run can hold fails in **O(1)**, and the largest free
//!   fragment — the OOM diagnostic and the dynamic workspace budget — is an
//!   O(1) read;
//! * a free finds its predecessor and successor with one scan (over ≤ 44
//!   runs it beats a binary search) and coalesces with both;
//! * first-fit itself is a scan, over a list that is a few cache lines long.
//!
//! **Why a vector and nothing else.** Until PR 17 the index migrated into a
//! max-augmented treap past 192 free runs (and back below 96). Measured
//! with a counter on the free-run count (2-vCPU KVM host, 2026-10-02), no
//! traffic in the tree gets near that. The most runs held at once:
//!
//! | traffic                                              | free runs |
//! |------------------------------------------------------|-----------|
//! | benchmark `plan_cold` (6 seeds)                      | 44        |
//! | benchmark `train_exec` / `plan_reuse` / `serve_mixed` | 16 / 5 / 4 |
//! | any benchmark workload under `--trace`               | 44        |
//! | `experiments --quick all` + `ablation` (23 ids)      | 56        |
//! | ResNet-2500 on the 12 GB K40c (`deep_resnet`)        | 15        |
//! | `cargo test --workspace`, bar the two tests below    | 56        |
//!
//! (the two: this file's 256-hole unit test and the differential proptest
//! that fragments to ≥ 256 runs on purpose). Host cost of one alloc+free
//! pair on a pool of N one-block holes plus a tail run, release build,
//! medians of two alternating runs per side — the treap column is the
//! pre-PR-17 pool:
//!
//! | holes | lowest hole fits: vector / treap | only the tail fits: vector / treap |
//! |-------|----------------------------------|------------------------------------|
//! | 56    | 50 ns (one code path)            | 98 ns (one code path)              |
//! | 256   | 101–144 / 139–187 ns             | 229–230 / 179–232 ns               |
//! | 1 024 | 282–358 / 206–260 ns             | 750–1 117 / 101–137 ns             |
//! | 4 096 | 1 579–1 771 / 247–294 ns         | 3 369–3 436 / 210–218 ns           |
//!
//! So the vector matches the treap at 256 holes — 4.6× the high-water —
//! and loses clearly only from ~1 000, 18× past anything the system
//! produces. A second representation that no workload entered was half this
//! file and rested on one hand-built test, so it went; if traffic ever holds
//! ~1 000 runs, this table is the scale to judge a replacement against.
//!
//! Grant addresses, sizes, high-water marks and OOM diagnostics are what a
//! block bitmap scanned lowest address first says they are — asserted over
//! random traces, including heavily fragmented ones, by
//! `tests/proptest_differential.rs`.

use sn_sim::{AllocError, AllocGrant, AllocId, DeviceAllocator, SimTime};

use crate::{ALLOC_LATENCY, BLOCK_BYTES, FREE_LATENCY};

/// An allocated-list node.
#[derive(Debug, Clone, Copy)]
struct AllocNode {
    start: u64,
    blocks: u64,
}

/// The allocated list: a slot slab with the slot index *embedded in the
/// handle* (`id = seq << 32 | slot`), replacing the §3.2.1 "ID-to-node
/// hash-table" with two array reads. Handles stay unique forever — a freed
/// slot's next tenant carries a new sequence number, so a stale or
/// double-freed id misses the stored-id check and is rejected exactly as
/// the hash-table's absent-key lookup rejected it. The slab's footprint is
/// bounded by the *peak concurrent* allocation count, not the total ever
/// allocated.
#[derive(Debug, Clone, Default)]
struct AllocTable {
    slots: Vec<Option<(u64, AllocNode)>>,
    spare: Vec<u32>,
    next_seq: u64,
}

impl AllocTable {
    #[inline]
    fn insert(&mut self, node: AllocNode) -> u64 {
        let slot = self.spare.pop().unwrap_or_else(|| {
            self.slots.push(None);
            (self.slots.len() - 1) as u32
        });
        let id = (self.next_seq << 32) | slot as u64;
        self.next_seq += 1;
        self.slots[slot as usize] = Some((id, node));
        id
    }

    #[inline]
    fn remove(&mut self, id: u64) -> Option<AllocNode> {
        let slot = (id & u32::MAX as u64) as usize;
        match self.slots.get(slot) {
            Some(Some((stored, node))) if *stored == id => {
                let node = *node;
                self.slots[slot] = None;
                self.spare.push(slot as u32);
                Some(node)
            }
            _ => None,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &AllocNode> {
        self.slots.iter().flatten().map(|(_, n)| n)
    }
}

/// An empty run: `blocks` free blocks starting at block index `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EmptyNode {
    start: u64,
    blocks: u64,
}

/// The empty list: free runs in address order, plus the largest run length.
///
/// A planner compile or an executed iteration keeps a few dozen runs alive
/// at most (transients release immediately; liveness frees coalesce — see
/// the module docs for the measured high-water), so the whole list is a few
/// cache lines and a sorted array beats any pointer structure. The maximum
/// is exact at all times and only rescanned when the run that held it is
/// carved.
#[derive(Debug, Clone, Default)]
struct RunIndex {
    /// Address-ordered, fully coalesced runs.
    nodes: Vec<EmptyNode>,
    /// Largest run length; exact at all times.
    max: u64,
}

impl RunIndex {
    /// First-fit **and take**: find the lowest-address run with ≥ `need`
    /// blocks and carve `need` off its front in the same pass. Returns the
    /// granted start block, or `None` when nothing fits.
    fn first_fit_take(&mut self, need: u64) -> Option<u64> {
        if self.max < need {
            return None;
        }
        let nodes = &mut self.nodes;
        let at = nodes.iter().position(|n| n.blocks >= need)?;
        let start = nodes[at].start;
        let was = nodes[at].blocks;
        if was == need {
            nodes.remove(at);
        } else {
            nodes[at].start += need;
            nodes[at].blocks -= need;
        }
        if was == self.max {
            self.max = nodes.iter().map(|n| n.blocks).max().unwrap_or(0);
        }
        Some(start)
    }

    /// Return run `[start, start + blocks)` to the free set, coalescing
    /// with both neighbours — one scan locates predecessor and successor
    /// together.
    fn free_run(&mut self, start: u64, blocks: u64) {
        let nodes = &mut self.nodes;
        let at = nodes.iter().take_while(|n| n.start < start).count();
        let merge_succ = at < nodes.len() && nodes[at].start == start + blocks;
        let merge_pred = at > 0 && nodes[at - 1].start + nodes[at - 1].blocks == start;
        let new_blocks = match (merge_pred, merge_succ) {
            (true, true) => {
                let s = nodes.remove(at).blocks;
                nodes[at - 1].blocks += blocks + s;
                nodes[at - 1].blocks
            }
            (true, false) => {
                nodes[at - 1].blocks += blocks;
                nodes[at - 1].blocks
            }
            (false, true) => {
                nodes[at].start = start;
                nodes[at].blocks += blocks;
                nodes[at].blocks
            }
            (false, false) => {
                nodes.insert(at, EmptyNode { start, blocks });
                blocks
            }
        };
        self.max = self.max.max(new_blocks);
    }
}

/// The heap-based GPU memory pool.
///
/// Addresses handed out are byte offsets into the preallocated chunk. Empty
/// runs live in `RunIndex` — the paper's address-ordered empty list with an
/// O(1) largest-fragment read; first-fit is "lowest address among fits",
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct HeapPool {
    total_blocks: u64,
    /// Address-indexed empty runs.
    empty: RunIndex,
    /// Handle-indexed allocated list (see [`AllocTable`]).
    allocated: AllocTable,
    used_blocks: u64,
    high_water_blocks: u64,
    /// Highest block index (exclusive) any grant has covered.
    extent_blocks: u64,
}

impl HeapPool {
    /// A pool over `capacity_bytes` of preallocated memory (the "big
    /// chunk"), in the paper's 1 KB blocks. A capacity under one block is a
    /// pool of zero blocks: every `alloc` answers `OutOfMemory` with nothing
    /// free — a cap is outside input, and too small a one is an OOM.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        let mut pool = HeapPool::default();
        pool.reset(capacity_bytes);
        pool
    }

    /// Become `with_capacity(capacity_bytes)` in place, keeping the lists'
    /// allocations: a planner that reuses one pool allocates nothing for it.
    pub fn reset(&mut self, capacity_bytes: u64) {
        self.total_blocks = capacity_bytes / BLOCK_BYTES;
        self.empty.nodes.clear();
        self.empty.max = 0;
        if self.total_blocks > 0 {
            self.empty.free_run(0, self.total_blocks);
        }
        let table = &mut self.allocated;
        table.slots.clear();
        table.spare.clear();
        table.next_seq = 0;
        (self.used_blocks, self.high_water_blocks, self.extent_blocks) = (0, 0, 0);
    }

    /// Blocks needed for `bytes`: an exact `div_ceil` as shift + remainder
    /// test. No `+ (block - 1)` pre-add, so requests near `u64::MAX` cannot
    /// wrap (they must produce the block count `div_ceil` does, and an
    /// OOM).
    #[inline]
    fn blocks_for(bytes: u64) -> u64 {
        let bytes = bytes.max(1);
        (bytes >> BLOCK_BYTES.trailing_zeros()) + u64::from(bytes & (BLOCK_BYTES - 1) != 0)
    }

    /// Number of fragments in the empty list (diagnostic).
    pub fn empty_nodes(&self) -> usize {
        self.empty.nodes.len()
    }

    /// Largest free fragment, in bytes. O(1): the maximum is maintained
    /// incrementally by every carve and coalesce, so the OOM error path and
    /// the per-step dynamic workspace budget never scan.
    pub fn largest_fragment(&self) -> u64 {
        self.empty.max * BLOCK_BYTES
    }

    pub fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }

    /// Internal consistency check, used by tests and proptests: blocks are
    /// partitioned between the two lists, nothing overlaps, and the empty
    /// list is address-ordered, fully coalesced, with an exact maximum.
    pub fn check_invariants(&self) -> Result<(), String> {
        let runs = &self.empty.nodes;
        if !runs.windows(2).all(|w| w[0].start < w[1].start) {
            return Err("empty list not in address order".into());
        }
        if runs.iter().any(|n| n.blocks == 0) {
            return Err("zero-size empty node".into());
        }
        let scan = runs.iter().map(|n| n.blocks).max().unwrap_or(0);
        if scan != self.empty.max {
            return Err(format!(
                "empty list max stale: {} vs scanned {scan}",
                self.empty.max
            ));
        }
        // (start, blocks, is_empty)
        let mut spans: Vec<(u64, u64, bool)> =
            runs.iter().map(|n| (n.start, n.blocks, true)).collect();
        for n in self.allocated.iter() {
            if n.blocks == 0 {
                return Err("zero-size allocated node".into());
            }
            spans.push((n.start, n.blocks, false));
        }
        spans.sort_by_key(|s| s.0);
        let mut cursor = 0u64;
        let mut prev_empty = false;
        for (start, blocks, is_empty) in &spans {
            if *start != cursor {
                return Err(format!(
                    "gap or overlap at block {cursor}: next span starts at {start}"
                ));
            }
            if *is_empty && prev_empty {
                return Err(format!("uncoalesced adjacent empty nodes at block {start}"));
            }
            prev_empty = *is_empty;
            cursor = start + blocks;
        }
        if cursor != self.total_blocks {
            return Err(format!(
                "spans cover {cursor} blocks, pool has {}",
                self.total_blocks
            ));
        }
        let used: u64 = self.allocated.iter().map(|n| n.blocks).sum();
        if used != self.used_blocks {
            return Err(format!(
                "used_blocks counter {} != sum of allocated nodes {used}",
                self.used_blocks
            ));
        }
        Ok(())
    }
}

impl DeviceAllocator for HeapPool {
    #[inline]
    fn alloc(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        let need = Self::blocks_for(bytes);
        // First-fit-and-take: the lowest-address run with enough free
        // blocks (paper: "finds the first node with enough free memory from
        // the empty list"), found and carved in one pass.
        let Some(start) = self.empty.first_fit_take(need) else {
            // Report the largest fragment alongside total free bytes so a
            // fragmentation failure (largest < requested ≤ free) is
            // distinguishable from true exhaustion (free < requested).
            return Err(AllocError::OutOfMemory {
                requested: bytes,
                free: (self.total_blocks - self.used_blocks) * BLOCK_BYTES,
                largest: self.largest_fragment(),
            });
        };
        let id = self.allocated.insert(AllocNode {
            start,
            blocks: need,
        });
        self.used_blocks += need;
        self.high_water_blocks = self.high_water_blocks.max(self.used_blocks);
        self.extent_blocks = self.extent_blocks.max(start + need);
        Ok(AllocGrant {
            id: AllocId(id),
            addr: start * BLOCK_BYTES,
            bytes: need * BLOCK_BYTES,
            cost: ALLOC_LATENCY,
        })
    }

    #[inline]
    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError> {
        // Locate via the slot embedded in the handle, then return the run
        // to the empty list; `free_run` finds predecessor and successor in
        // one search and coalesces with both when adjacent.
        let node = self
            .allocated
            .remove(id.0)
            .ok_or(AllocError::UnknownAllocation)?;
        self.used_blocks -= node.blocks;
        self.empty.free_run(node.start, node.blocks);
        Ok(FREE_LATENCY)
    }

    #[inline]
    fn used(&self) -> u64 {
        self.used_blocks * BLOCK_BYTES
    }

    fn capacity(&self) -> u64 {
        self.total_blocks * BLOCK_BYTES
    }

    #[inline]
    fn high_water(&self) -> u64 {
        self.high_water_blocks * BLOCK_BYTES
    }

    #[inline]
    fn largest_free_contiguous(&self) -> u64 {
        self.largest_fragment()
    }

    #[inline]
    fn extent_high_water(&self) -> u64 {
        self.extent_blocks * BLOCK_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_kb(kb: u64) -> HeapPool {
        HeapPool::with_capacity(kb * 1024)
    }

    #[test]
    fn rounds_to_block_granularity() {
        let mut p = pool_kb(8);
        let g = p.alloc(1).unwrap();
        assert_eq!(g.bytes, 1024);
        let g2 = p.alloc(1025).unwrap();
        assert_eq!(g2.bytes, 2048);
        p.check_invariants().unwrap();
    }

    #[test]
    fn first_fit_prefers_lowest_address() {
        let mut p = pool_kb(8);
        let a = p.alloc(2048).unwrap(); // blocks 0..2
        let b = p.alloc(2048).unwrap(); // blocks 2..4
        let _c = p.alloc(2048).unwrap(); // blocks 4..6
        p.free(a.id).unwrap();
        p.free(b.id).unwrap(); // coalesced hole 0..4
        let d = p.alloc(1024).unwrap();
        assert_eq!(d.addr, 0, "first-fit must reuse the lowest hole");
        p.check_invariants().unwrap();
    }

    #[test]
    fn first_fit_skips_small_low_holes() {
        // Low hole too small, higher hole fits: the descent must pass the
        // low one and still pick the lowest *fitting* address.
        let mut p = pool_kb(16);
        let a = p.alloc(1024).unwrap(); // 0..1
        let _b = p.alloc(1024).unwrap(); // 1..2
        let c = p.alloc(3072).unwrap(); // 2..5
        let _d = p.alloc(1024).unwrap(); // 5..6
        p.free(a.id).unwrap(); // hole 0..1 (1 block)
        p.free(c.id).unwrap(); // hole 2..5 (3 blocks)
        let g = p.alloc(2048).unwrap();
        assert_eq!(g.addr, 2 * 1024, "must skip the 1-block hole at 0");
        p.check_invariants().unwrap();
    }

    #[test]
    fn exact_fit_removes_empty_node() {
        let mut p = pool_kb(4);
        let g = p.alloc(4 * 1024).unwrap();
        assert_eq!(p.empty_nodes(), 0);
        assert_eq!(p.free_bytes(), 0);
        p.free(g.id).unwrap();
        assert_eq!(p.empty_nodes(), 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut p = pool_kb(4);
        let _g = p.alloc(3 * 1024).unwrap();
        match p.alloc(2 * 1024) {
            Err(AllocError::OutOfMemory {
                requested,
                free,
                largest,
            }) => {
                assert_eq!(requested, 2 * 1024);
                assert_eq!(free, 1024);
                // True exhaustion: free < requested, and one fragment holds
                // all the free bytes.
                assert_eq!(largest, 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn fragmentation_can_fail_even_with_enough_total_bytes() {
        let mut p = pool_kb(6);
        let a = p.alloc(2048).unwrap();
        let b = p.alloc(2048).unwrap();
        let c = p.alloc(2048).unwrap();
        p.free(a.id).unwrap();
        p.free(c.id).unwrap();
        // 4 KB free but split 2+2 around b.
        assert_eq!(p.free_bytes(), 4096);
        assert_eq!(p.largest_fragment(), 2048);
        match p.alloc(3 * 1024) {
            Err(AllocError::OutOfMemory {
                requested,
                free,
                largest,
            }) => {
                // Fragmentation, not exhaustion: enough total bytes exist,
                // but no contiguous run fits — and the error says so.
                assert!(free >= requested, "total free covers the request");
                assert!(largest < requested, "no fragment covers the request");
                assert_eq!(largest, 2048);
            }
            other => panic!("expected fragmentation OOM, got {other:?}"),
        }
        p.free(b.id).unwrap();
        // Full coalescing restores one node.
        assert_eq!(p.empty_nodes(), 1);
        assert!(p.alloc(6 * 1024).is_ok());
    }

    #[test]
    fn double_free_is_rejected() {
        let mut p = pool_kb(4);
        let g = p.alloc(1024).unwrap();
        p.free(g.id).unwrap();
        assert_eq!(p.free(g.id).unwrap_err(), AllocError::UnknownAllocation);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut p = pool_kb(8);
        let a = p.alloc(4096).unwrap();
        let b = p.alloc(2048).unwrap();
        p.free(a.id).unwrap();
        let _c = p.alloc(1024).unwrap();
        assert_eq!(p.high_water(), 6144);
        assert_eq!(p.used(), 3072);
        p.free(b.id).unwrap();
        assert_eq!(p.high_water(), 6144);
    }

    #[test]
    fn pool_latency_is_far_below_cuda() {
        let spec = sn_sim::DeviceSpec::k40c();
        let mut cuda = sn_sim::CudaAllocator::new(&spec);
        let mut pool = HeapPool::with_capacity(spec.dram_bytes);
        let gp = pool.alloc(64 * 1024 * 1024).unwrap();
        let gc = cuda.alloc(64 * 1024 * 1024).unwrap();
        assert!(gp.cost.as_ns() * 100 < gc.cost.as_ns());
    }

    #[test]
    fn interleaved_pattern_keeps_invariants() {
        let mut p = pool_kb(512);
        let mut live = Vec::new();
        for i in 0..40u64 {
            let g = p.alloc((i % 5 + 1) * 700).unwrap();
            live.push(g.id);
            if i % 3 == 0 {
                let id = live.remove(live.len() / 2);
                p.free(id).unwrap();
            }
            p.check_invariants().unwrap();
        }
        for id in live {
            p.free(id).unwrap();
        }
        p.check_invariants().unwrap();
        assert_eq!(p.used(), 0);
        assert_eq!(p.empty_nodes(), 1);
    }

    #[test]
    fn first_fit_and_oom_diagnostics_hold_across_256_holes() {
        // 512 one-block allocations, then free the even ones: 256 isolated
        // holes — 4.6× the most any workload produces — and the list must
        // still answer first-fit/largest correctly. Freeing the rest
        // coalesces everything above the one live block back to one run.
        let mut p = pool_kb(512);
        let grants: Vec<_> = (0..512).map(|_| p.alloc(1024).unwrap()).collect();
        for g in grants.iter().step_by(2) {
            p.free(g.id).unwrap();
        }
        assert_eq!(p.empty_nodes(), 256);
        p.check_invariants().unwrap();
        assert_eq!(p.largest_fragment(), 1024);
        // Every hole is 1 block; a 2-block request must fail with truthful
        // fragmentation diagnostics.
        match p.alloc(2048) {
            Err(AllocError::OutOfMemory { free, largest, .. }) => {
                assert_eq!(free, 256 * 1024);
                assert_eq!(largest, 1024);
            }
            other => panic!("expected fragmentation OOM, got {other:?}"),
        }
        // And a 1-block request reuses the lowest hole.
        assert_eq!(p.alloc(1024).unwrap().addr, 0);
        for g in grants.iter().skip(1).step_by(2) {
            p.free(g.id).unwrap();
        }
        p.check_invariants().unwrap();
        assert_eq!(p.empty_nodes(), 1);
    }

    #[test]
    fn largest_fragment_is_maintained_incrementally() {
        // Drive the list through shrink/remove/grow/insert transitions and
        // compare the O(1) maximum against a full scan every time.
        let mut p = pool_kb(64);
        let mut live = Vec::new();
        for i in 0..48u64 {
            if i % 7 < 4 {
                if let Ok(g) = p.alloc((i % 4 + 1) * 1024) {
                    live.push(g.id);
                }
            } else if !live.is_empty() {
                let id = live.remove((i as usize * 5) % live.len());
                p.free(id).unwrap();
            }
            let scan_max = p.empty.nodes.iter().map(|n| n.blocks).max().unwrap_or(0);
            assert_eq!(p.largest_fragment(), scan_max * p.block_bytes());
            p.check_invariants().unwrap();
        }
    }
}
