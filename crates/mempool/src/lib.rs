//! # sn-mempool — the SuperNeurons heap-based GPU memory pool
//!
//! §3.2.1 of the paper: liveness analysis stashes and frees tensors at every
//! step of every iteration, and doing that through `cudaMalloc`/`cudaFree`
//! wastes up to 36% of training time (their ResNet-50 measurement). The fix
//! is a pool: *"preallocate a big chunk of GPU memory as a shared memory
//! pool. Then we divide the entire GPU memory pool into 1KB blocks as the
//! basic storage unit. The memory pool contains a list of allocated and empty
//! memory nodes. Each node in the two lists contains memory address, occupied
//! blocks and node ID. For an allocation request, the memory pool finds the
//! first node with enough free memory from the empty list. ... For a
//! deallocation request, the memory pool locates the node in the allocated
//! list with the ID-to-node hash-table, then the pool places the node back to
//! the empty list."*
//!
//! [`HeapPool`] keeps exactly those semantics (lowest-address first-fit,
//! 1 KB blocks, ID→node map) and that structure — the empty list is one
//! address-ordered vector — with three additions: adjacent empty nodes are
//! coalesced on free so the pool does not fragment monotonically, the
//! largest run length is maintained incrementally so a hopeless request and
//! the largest-fragment query are O(1), and the ID→node map is a slot slab
//! indexed from the handle. The planner compiles thousands of plans per
//! second through this pool, so its inner loop matters; it holds at most 56
//! free runs on any workload in the tree, which is why a flat vector is the
//! whole index (measurements in the [`pool`] module docs).
//! `tests/proptest_differential.rs` holds it to a block bitmap over random
//! traces: disjoint grants inside capacity, the lowest fitting address,
//! and the largest fragment a scan finds.
//! The pinned host memory offloaded tensors land in is not a pool of this
//! crate: it is a byte counter per tier, `sn_runtime`'s `TieredPool`.

use sn_sim::SimTime;

pub mod pool;

pub use pool::HeapPool;

/// Basic storage unit of the pool; the paper uses 1 KB. A power of two:
/// `HeapPool` rounds requests with a shift.
pub const BLOCK_BYTES: u64 = 1024;
const _: () = assert!(BLOCK_BYTES.is_power_of_two());
/// Host-side latency of one pool allocation (list search + node update).
/// Orders of magnitude below `cudaMalloc` — that gap *is* Table 2.
pub const ALLOC_LATENCY: SimTime = SimTime::from_ns(400);
/// Host-side latency of one pool deallocation.
pub const FREE_LATENCY: SimTime = SimTime::from_ns(300);
