//! The reference first-fit pool: a literal transcription of §3.2.1's
//! structure with an address-ordered `Vec` empty list and an O(n) scan per
//! allocation.
//!
//! This was the workspace's production pool before [`crate::HeapPool`]
//! (same list, plus an incremental maximum, one-search coalescing and a slot
//! slab for handles) replaced it on the planner hot path. It is kept for
//! one job — **differential testing**: `HeapPool` must return
//! byte-identical grant addresses, sizes, high-water marks and
//! [`AllocError::OutOfMemory`] diagnostics over arbitrary alloc/free traces
//! (see `tests/proptest_differential.rs`), and the reference plan walk
//! compiles against this pool.
//!
//! Semantics (shared with `HeapPool`, bit for bit): 1 KB blocks,
//! first-fit = the **lowest-address** empty node with enough blocks, frees
//! coalesce with both neighbours, IDs are a monotone counter.

use fxhash::FxHashMap;

use sn_sim::{AllocError, AllocGrant, AllocId, DeviceAllocator, SimTime};

use crate::{ALLOC_LATENCY, BLOCK_BYTES, FREE_LATENCY};

/// An empty-list node: `blocks` free blocks starting at block index `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EmptyNode {
    start: u64,
    blocks: u64,
}

/// An allocated-list node.
#[derive(Debug, Clone, Copy)]
struct AllocNode {
    start: u64,
    blocks: u64,
}

/// The linear-scan first-fit pool (reference implementation).
#[derive(Debug, Clone)]
pub struct LinearPool {
    total_blocks: u64,
    /// Address-ordered empty nodes.
    empty: Vec<EmptyNode>,
    /// ID→node hash table for the allocated list.
    allocated: FxHashMap<u64, AllocNode>,
    next_id: u64,
    used_blocks: u64,
    high_water_blocks: u64,
    extent_blocks: u64,
}

impl LinearPool {
    /// A pool over `capacity_bytes`, in the paper's 1 KB blocks — zero of
    /// them, and an `OutOfMemory` from every `alloc`, under one block.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        let total_blocks = capacity_bytes / BLOCK_BYTES;
        let whole = EmptyNode {
            start: 0,
            blocks: total_blocks,
        };
        LinearPool {
            total_blocks,
            empty: Vec::from_iter((total_blocks > 0).then_some(whole)),
            allocated: FxHashMap::default(),
            next_id: 0,
            used_blocks: 0,
            high_water_blocks: 0,
            extent_blocks: 0,
        }
    }

    fn blocks_for(bytes: u64) -> u64 {
        bytes.max(1).div_ceil(BLOCK_BYTES)
    }

    /// Number of fragments in the empty list (diagnostic).
    pub fn empty_nodes(&self) -> usize {
        self.empty.len()
    }

    /// Largest free fragment, in bytes — a full scan, the cost the indexed
    /// pool's incremental maximum removes.
    pub fn largest_fragment(&self) -> u64 {
        self.empty.iter().map(|n| n.blocks).max().unwrap_or(0) * BLOCK_BYTES
    }

    pub fn block_bytes(&self) -> u64 {
        BLOCK_BYTES
    }
}

impl DeviceAllocator for LinearPool {
    fn alloc(&mut self, bytes: u64) -> Result<AllocGrant, AllocError> {
        let need = Self::blocks_for(bytes);
        // First-fit: scan the address-ordered empty list for the first node
        // with enough free blocks.
        let Some(pos) = self.empty.iter().position(|n| n.blocks >= need) else {
            return Err(AllocError::OutOfMemory {
                requested: bytes,
                free: (self.total_blocks - self.used_blocks) * BLOCK_BYTES,
                largest: self.largest_fragment(),
            });
        };
        let node = self.empty[pos];
        let start = node.start;
        if node.blocks == need {
            self.empty.remove(pos);
        } else {
            self.empty[pos] = EmptyNode {
                start: node.start + need,
                blocks: node.blocks - need,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        self.allocated.insert(
            id,
            AllocNode {
                start,
                blocks: need,
            },
        );
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

    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError> {
        let node = self
            .allocated
            .remove(&id.0)
            .ok_or(AllocError::UnknownAllocation)?;
        self.used_blocks -= node.blocks;

        // Insert into the address-ordered empty list, coalescing with the
        // predecessor/successor when adjacent.
        let idx = self.empty.partition_point(|n| n.start < node.start);
        let mut start = node.start;
        let mut blocks = node.blocks;
        if idx < self.empty.len() && self.empty[idx].start == start + blocks {
            blocks += self.empty[idx].blocks;
            self.empty.remove(idx);
        }
        if idx > 0 {
            let p = self.empty[idx - 1];
            if p.start + p.blocks == start {
                start = p.start;
                blocks += p.blocks;
                self.empty.remove(idx - 1);
                self.empty.insert(idx - 1, EmptyNode { start, blocks });
                return Ok(FREE_LATENCY);
            }
        }
        self.empty.insert(idx, EmptyNode { start, blocks });
        Ok(FREE_LATENCY)
    }

    fn used(&self) -> u64 {
        self.used_blocks * BLOCK_BYTES
    }

    fn capacity(&self) -> u64 {
        self.total_blocks * BLOCK_BYTES
    }

    fn high_water(&self) -> u64 {
        self.high_water_blocks * BLOCK_BYTES
    }

    fn largest_free_contiguous(&self) -> u64 {
        self.largest_fragment()
    }

    fn extent_high_water(&self) -> u64 {
        self.extent_blocks * BLOCK_BYTES
    }

    fn reset_high_water(&mut self) {
        self.high_water_blocks = self.used_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_prefers_lowest_address() {
        let mut p = LinearPool::with_capacity(8 * 1024);
        let a = p.alloc(2048).unwrap();
        let b = p.alloc(2048).unwrap();
        let _c = p.alloc(2048).unwrap();
        p.free(a.id).unwrap();
        p.free(b.id).unwrap();
        let d = p.alloc(1024).unwrap();
        assert_eq!(d.addr, 0, "first-fit must reuse the lowest hole");
    }

    #[test]
    fn coalesces_back_to_one_node() {
        let mut p = LinearPool::with_capacity(8 * 1024);
        let grants: Vec<_> = (0..4).map(|_| p.alloc(2048).unwrap()).collect();
        for g in grants {
            p.free(g.id).unwrap();
        }
        assert_eq!(p.empty_nodes(), 1);
        assert_eq!(p.used(), 0);
    }
}
