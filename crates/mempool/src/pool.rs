//! Indexed first-fit heap pool over 1 KB blocks (paper §3.2.1), with
//! coalescing.
//!
//! The paper's structure — an address-ordered empty list scanned front to
//! back — makes every allocation O(n) in the number of free fragments. This
//! implementation keeps the **identical first-fit semantics** ("the lowest
//! address among nodes with enough free blocks") but stores the empty runs
//! in a size-adaptive index (`RunIndex`): an address-ordered vector with an
//! incrementally maintained maximum while the free list is short (the
//! steady-state planner regime, where a flat array's constants are
//! unbeatable), migrating into a max-augmented address-ordered treap once
//! fragmentation sets in. In the treap regime every node carries the
//! largest run size in its subtree, so
//!
//! * the lowest-address fitting run is found by one **O(log n)** descent
//!   (go left whenever the left subtree holds a fit, take the current node
//!   otherwise, else go right);
//! * the largest free fragment — the OOM error path's diagnostic and the
//!   dynamic workspace budget — is the root's augmentation, **O(1)** (in
//!   the vector regime it is the incremental maximum, also O(1));
//! * frees coalesce with both neighbours via two O(log n) searches.
//!
//! Grant addresses, sizes, high-water marks and OOM diagnostics are
//! byte-identical to the reference [`crate::LinearPool`] (the pre-index
//! implementation, kept for differential testing) — asserted over random
//! traces by `tests/proptest_differential.rs`, which crosses the
//! vector↔treap migrations. The planner's peaks therefore cannot move:
//! this change buys time, never bytes.

use sn_sim::{AllocError, AllocGrant, AllocId, DeviceAllocator, SimTime};

/// Pool construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Total preallocated bytes (the "big chunk").
    pub capacity_bytes: u64,
    /// Basic storage unit; the paper uses 1 KB.
    pub block_bytes: u64,
    /// Host-side latency of one pool allocation (index descent + node
    /// update). Orders of magnitude below `cudaMalloc` — that gap *is*
    /// Table 2.
    pub alloc_latency: SimTime,
    /// Host-side latency of one pool deallocation.
    pub free_latency: SimTime,
    /// Free-run count above which the empty index spills from its sorted
    /// vector into the treap (see the `RunIndex` docs).
    pub spill_runs: usize,
    /// Free-run count below which the treap collapses back to the vector.
    /// Must be below `spill_runs` (the gap is the anti-thrash hysteresis).
    pub collapse_runs: usize,
}

impl PoolConfig {
    pub fn new(capacity_bytes: u64) -> Self {
        PoolConfig {
            capacity_bytes,
            block_bytes: 1024,
            alloc_latency: SimTime::from_ns(400),
            free_latency: SimTime::from_ns(300),
            spill_runs: DEFAULT_SPILL_RUNS,
            collapse_runs: DEFAULT_COLLAPSE_RUNS,
        }
    }
}

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
    live: usize,
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
        self.live += 1;
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
                self.live -= 1;
                Some(node)
            }
            _ => None,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &AllocNode> {
        self.slots.iter().flatten().map(|(_, n)| n)
    }
}

/// Aggregate pool statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub alloc_calls: u64,
    pub free_calls: u64,
    pub failed_allocs: u64,
    /// Total host-side time spent in the pool.
    pub total_latency: SimTime,
}

const NIL: u32 = u32::MAX;

/// An empty run: `blocks` free blocks starting at block index `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EmptyNode {
    start: u64,
    blocks: u64,
}

/// One empty run in the treap arena.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// First free block of the run (the BST key).
    start: u64,
    /// Length of the run in blocks.
    blocks: u64,
    /// Largest `blocks` value in this node's subtree (the augmentation the
    /// first-fit descent and the O(1) largest-fragment query read).
    max_blocks: u64,
    /// Treap heap priority (deterministic xorshift stream).
    prio: u64,
    left: u32,
    right: u32,
}

/// Address-ordered treap over the empty runs, augmented with per-subtree
/// maximum run length.
#[derive(Debug, Clone, Default)]
struct Treap {
    nodes: Vec<Run>,
    /// Recycled arena slots.
    spare: Vec<u32>,
    root: u32,
    len: usize,
    /// xorshift64 state for priorities (deterministic; structure only —
    /// semantics never depend on it).
    rng: u64,
}

impl Treap {
    fn new() -> Treap {
        Treap {
            nodes: Vec::new(),
            spare: Vec::new(),
            root: NIL,
            len: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next_prio(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    #[inline]
    fn node(&self, i: u32) -> &Run {
        &self.nodes[i as usize]
    }

    #[inline]
    fn subtree_max(&self, i: u32) -> u64 {
        if i == NIL {
            0
        } else {
            self.node(i).max_blocks
        }
    }

    /// Recompute `i`'s augmentation from its children.
    #[inline]
    fn fix(&mut self, i: u32) {
        let n = self.node(i);
        let m = n
            .blocks
            .max(self.subtree_max(n.left))
            .max(self.subtree_max(n.right));
        self.nodes[i as usize].max_blocks = m;
    }

    fn alloc_slot(&mut self, start: u64, blocks: u64) -> u32 {
        let prio = self.next_prio();
        let run = Run {
            start,
            blocks,
            max_blocks: blocks,
            prio,
            left: NIL,
            right: NIL,
        };
        match self.spare.pop() {
            Some(i) => {
                self.nodes[i as usize] = run;
                i
            }
            None => {
                self.nodes.push(run);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    fn rotate_right(&mut self, t: u32) -> u32 {
        let l = self.node(t).left;
        self.nodes[t as usize].left = self.node(l).right;
        self.nodes[l as usize].right = t;
        self.fix(t);
        self.fix(l);
        l
    }

    fn rotate_left(&mut self, t: u32) -> u32 {
        let r = self.node(t).right;
        self.nodes[t as usize].right = self.node(r).left;
        self.nodes[r as usize].left = t;
        self.fix(t);
        self.fix(r);
        r
    }

    fn insert(&mut self, start: u64, blocks: u64) {
        let i = self.alloc_slot(start, blocks);
        self.root = self.insert_at(self.root, i);
        self.len += 1;
    }

    fn insert_at(&mut self, t: u32, i: u32) -> u32 {
        if t == NIL {
            return i;
        }
        let mut t = t;
        if self.node(i).start < self.node(t).start {
            let l = self.insert_at(self.node(t).left, i);
            self.nodes[t as usize].left = l;
            self.fix(t);
            if self.node(l).prio > self.node(t).prio {
                t = self.rotate_right(t);
            }
        } else {
            let r = self.insert_at(self.node(t).right, i);
            self.nodes[t as usize].right = r;
            self.fix(t);
            if self.node(r).prio > self.node(t).prio {
                t = self.rotate_left(t);
            }
        }
        t
    }

    /// Merge two subtrees whose key ranges are disjoint (`a` < `b`).
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.node(a).prio > self.node(b).prio {
            let r = self.merge(self.node(a).right, b);
            self.nodes[a as usize].right = r;
            self.fix(a);
            a
        } else {
            let l = self.merge(a, self.node(b).left);
            self.nodes[b as usize].left = l;
            self.fix(b);
            b
        }
    }

    /// Remove the run keyed `start` (must exist).
    fn remove(&mut self, start: u64) {
        self.root = self.remove_at(self.root, start);
        self.len -= 1;
    }

    fn remove_at(&mut self, t: u32, start: u64) -> u32 {
        debug_assert_ne!(t, NIL, "removing absent run {start}");
        let ts = self.node(t).start;
        if start < ts {
            let l = self.remove_at(self.node(t).left, start);
            self.nodes[t as usize].left = l;
            self.fix(t);
            t
        } else if start > ts {
            let r = self.remove_at(self.node(t).right, start);
            self.nodes[t as usize].right = r;
            self.fix(t);
            t
        } else {
            let merged = self.merge(self.node(t).left, self.node(t).right);
            self.spare.push(t);
            merged
        }
    }

    /// The lowest-address run with at least `need` blocks — first-fit in one
    /// O(log n) descent guided by the subtree maxima.
    fn first_fit(&self, need: u64) -> Option<(u64, u64)> {
        let mut t = self.root;
        if t == NIL || self.node(t).max_blocks < need {
            return None;
        }
        loop {
            let n = self.node(t);
            if n.left != NIL && self.node(n.left).max_blocks >= need {
                t = n.left;
            } else if n.blocks >= need {
                return Some((n.start, n.blocks));
            } else {
                debug_assert!(n.right != NIL && self.node(n.right).max_blocks >= need);
                t = n.right;
            }
        }
    }

    /// Exact lookup: the run starting at `start`, if any.
    fn find(&self, start: u64) -> Option<u64> {
        let mut t = self.root;
        while t != NIL {
            let n = self.node(t);
            if start < n.start {
                t = n.left;
            } else if start > n.start {
                t = n.right;
            } else {
                return Some(n.blocks);
            }
        }
        None
    }

    /// The run with the greatest start strictly below `start`, if any.
    fn pred(&self, start: u64) -> Option<(u64, u64)> {
        let mut t = self.root;
        let mut best = None;
        while t != NIL {
            let n = self.node(t);
            if n.start < start {
                best = Some((n.start, n.blocks));
                t = n.right;
            } else {
                t = n.left;
            }
        }
        best
    }

    /// Take `need` blocks off the front of the run keyed `start` (in place:
    /// the new key still sorts between the same neighbours, so only the
    /// augmentation along the search path needs refreshing).
    fn shrink_front(&mut self, start: u64, need: u64) {
        Self::walk_update(self, start, |n| {
            n.start += need;
            n.blocks -= need;
        });
    }

    /// Extend the run keyed `start` by `delta` blocks (key unchanged).
    fn grow(&mut self, start: u64, delta: u64) {
        Self::walk_update(self, start, |n| {
            n.blocks += delta;
        });
    }

    /// Apply `f` to the run keyed `start`, refreshing augmentations back up
    /// the search path.
    fn walk_update(&mut self, start: u64, f: impl FnOnce(&mut Run)) {
        fn go(ix: &mut Treap, t: u32, start: u64, f: impl FnOnce(&mut Run)) {
            debug_assert_ne!(t, NIL, "updating absent run {start}");
            let ts = ix.node(t).start;
            if start < ts {
                go(ix, ix.node(t).left, start, f);
            } else if start > ts {
                go(ix, ix.node(t).right, start, f);
            } else {
                f(&mut ix.nodes[t as usize]);
            }
            ix.fix(t);
        }
        go(self, self.root, start, f);
    }

    /// In-order (= address-order) visit of every run.
    fn for_each_in_order(&self, mut f: impl FnMut(u64, u64)) {
        let mut stack = Vec::new();
        let mut t = self.root;
        while t != NIL || !stack.is_empty() {
            while t != NIL {
                stack.push(t);
                t = self.node(t).left;
            }
            let i = stack.pop().unwrap();
            let n = self.node(i);
            f(n.start, n.blocks);
            t = n.right;
        }
    }

    /// Verify the augmentation of every node (test support).
    fn check_augmentation(&self, t: u32) -> Result<u64, String> {
        if t == NIL {
            return Ok(0);
        }
        let n = *self.node(t);
        let lm = self.check_augmentation(n.left)?;
        let rm = self.check_augmentation(n.right)?;
        let expect = n.blocks.max(lm).max(rm);
        if n.max_blocks != expect {
            return Err(format!(
                "augmentation stale at run {}: stored {}, actual {}",
                n.start, n.max_blocks, expect
            ));
        }
        Ok(expect)
    }
}

/// Default run counts at which the index migrates between representations
/// (overridable per pool through [`PoolConfig`]; the differential proptests
/// use low thresholds to drive traces across the migrations). The gap is
/// deliberate hysteresis: after collapsing to the vector, at least
/// `spill - collapse` net inserts must happen before the next spill, so an
/// alloc/free pattern oscillating around one bound cannot thrash.
pub const DEFAULT_SPILL_RUNS: usize = 192;
pub const DEFAULT_COLLAPSE_RUNS: usize = 96;

/// The size-adaptive index over the empty runs.
///
/// A steady-state planner compile keeps only a handful of empty runs alive
/// (transients release immediately; liveness frees coalesce), and for a
/// handful of runs a sorted array beats any pointer structure — the whole
/// list is one cache line and "search" is a few compares. Fragmented pools
/// (thousands of runs under heavy eviction churn) are where the linear scan
/// degenerates. So:
///
/// * at ≤ [`SPILL`] runs, the index is an address-ordered vector with an
///   incrementally maintained maximum (O(1) largest-fragment reads; the max
///   is only rescanned when the current maximum run itself is consumed);
/// * past [`SPILL`] runs it migrates into the max-augmented treap, where
///   first-fit, coalescing lookups and updates are O(log n) and the
///   largest fragment is the root's augmentation;
/// * back below [`COLLAPSE`] runs it collapses into the vector again.
///
/// Both representations implement identical "lowest address among fits"
/// semantics; the differential proptests drive traces across both regimes
/// and the migrations between them.
#[derive(Debug, Clone)]
struct RunIndex {
    /// Run count above which the vector spills into the treap.
    spill: usize,
    /// Run count below which the treap collapses back to the vector.
    collapse: usize,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Small {
        /// Address-ordered runs.
        nodes: Vec<EmptyNode>,
        /// Largest run length; exact at all times.
        max: u64,
    },
    Tree(Treap),
}

impl RunIndex {
    fn new(spill: usize, collapse: usize) -> RunIndex {
        debug_assert!(collapse < spill, "hysteresis gap required");
        RunIndex {
            spill,
            collapse,
            repr: Repr::Small {
                nodes: Vec::new(),
                max: 0,
            },
        }
    }

    fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { nodes, .. } => nodes.len(),
            Repr::Tree(t) => t.len,
        }
    }

    /// Largest run length. O(1) in both representations (incremental max /
    /// root augmentation) — the OOM diagnostic and the per-conv-step
    /// dynamic-workspace budget read this on the hot path.
    fn max_blocks(&self) -> u64 {
        match &self.repr {
            Repr::Small { max, .. } => *max,
            Repr::Tree(t) => t.subtree_max(t.root),
        }
    }

    fn insert(&mut self, start: u64, blocks: u64) {
        let spill = self.spill;
        let needs_spill = match &mut self.repr {
            Repr::Small { nodes, max } => {
                let at = nodes.partition_point(|n| n.start < start);
                nodes.insert(at, EmptyNode { start, blocks });
                *max = (*max).max(blocks);
                nodes.len() > spill
            }
            Repr::Tree(t) => {
                t.insert(start, blocks);
                false
            }
        };
        if needs_spill {
            self.spill();
        }
    }

    /// First-fit **and take**: find the lowest-address run with ≥ `need`
    /// blocks and carve `need` off its front in the same pass (one scan /
    /// descent instead of search-then-update). Returns the granted start
    /// block, or `None` when nothing fits.
    fn first_fit_take(&mut self, need: u64) -> Option<u64> {
        let collapse = self.collapse;
        match &mut self.repr {
            Repr::Small { nodes, max } => {
                if *max < need {
                    return None;
                }
                let at = nodes.iter().position(|n| n.blocks >= need)?;
                let start = nodes[at].start;
                let was = nodes[at].blocks;
                if was == need {
                    nodes.remove(at);
                } else {
                    nodes[at].start += need;
                    nodes[at].blocks -= need;
                }
                if was == *max {
                    *max = nodes.iter().map(|n| n.blocks).max().unwrap_or(0);
                }
                Some(start)
            }
            Repr::Tree(t) => {
                let (start, blocks) = t.first_fit(need)?;
                let needs_collapse = if blocks == need {
                    t.remove(start);
                    t.len < collapse
                } else {
                    t.shrink_front(start, need);
                    false
                };
                if needs_collapse {
                    self.collapse();
                }
                Some(start)
            }
        }
    }

    /// Return run `[start, start + blocks)` to the free set, coalescing
    /// with both neighbours — one search locates predecessor and successor
    /// together.
    fn free_run(&mut self, start: u64, blocks: u64) {
        let (spill, collapse) = (self.spill, self.collapse);
        let needs_spill = match &mut self.repr {
            Repr::Small { nodes, max } => {
                let at = nodes.partition_point(|n| n.start < start);
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
                *max = (*max).max(new_blocks);
                nodes.len() > spill
            }
            Repr::Tree(t) => {
                let mut blocks = blocks;
                if let Some(succ_blocks) = t.find(start + blocks) {
                    t.remove(start + blocks);
                    blocks += succ_blocks;
                }
                match t.pred(start) {
                    Some((p_start, p_blocks)) if p_start + p_blocks == start => {
                        t.grow(p_start, blocks);
                    }
                    _ => t.insert(start, blocks),
                }
                if t.len < collapse {
                    self.collapse();
                }
                return;
            }
        };
        if needs_spill {
            self.spill();
        }
    }

    /// In-order (= address-order) visit of every run.
    fn for_each_in_order(&self, mut f: impl FnMut(u64, u64)) {
        match &self.repr {
            Repr::Small { nodes, .. } => {
                for n in nodes {
                    f(n.start, n.blocks);
                }
            }
            Repr::Tree(t) => t.for_each_in_order(f),
        }
    }

    /// Migrate vector → treap (ascending inserts; treap priorities keep the
    /// expected depth logarithmic regardless of insertion order).
    fn spill(&mut self) {
        let Repr::Small { nodes, .. } = &self.repr else {
            return;
        };
        let mut tree = Treap::new();
        for n in nodes.iter() {
            tree.insert(n.start, n.blocks);
        }
        self.repr = Repr::Tree(tree);
    }

    /// Migrate treap → vector (in-order traversal is already sorted).
    fn collapse(&mut self) {
        let Repr::Tree(t) = &self.repr else { return };
        let mut nodes = Vec::with_capacity(t.len);
        let mut max = 0;
        t.for_each_in_order(|start, blocks| {
            nodes.push(EmptyNode { start, blocks });
            max = max.max(blocks);
        });
        self.repr = Repr::Small { nodes, max };
    }

    /// Structural self-check (test support): ordering plus max/augmentation
    /// consistency in whichever representation is active.
    fn check(&self) -> Result<(), String> {
        match &self.repr {
            Repr::Small { nodes, max } => {
                if !nodes.windows(2).all(|w| w[0].start < w[1].start) {
                    return Err("small index not in address order".into());
                }
                let scan = nodes.iter().map(|n| n.blocks).max().unwrap_or(0);
                if scan != *max {
                    return Err(format!("small index max stale: {max} vs scanned {scan}"));
                }
                Ok(())
            }
            Repr::Tree(t) => t.check_augmentation(t.root).map(|_| ()),
        }
    }
}

/// The heap-based GPU memory pool.
///
/// Addresses handed out are byte offsets into the preallocated chunk. Empty
/// runs live in a size-adaptive index (`RunIndex`: an address-ordered vector for
/// the common few-fragment regime, max-augmented treap once fragmentation
/// sets in), which keeps first-fit ("lowest address among fits" —
/// deterministic) O(log n) worst-case and the largest-fragment query O(1)
/// while beating the flat scan's constants when the free list is short.
#[derive(Debug, Clone)]
pub struct HeapPool {
    cfg: PoolConfig,
    /// `log2(block_bytes)` when the block size is a power of two (the 1 KB
    /// default is): block rounding becomes a shift instead of a division on
    /// the per-allocation path.
    block_shift: Option<u32>,
    total_blocks: u64,
    /// Address-indexed empty runs.
    empty: RunIndex,
    /// Handle-indexed allocated list (see [`AllocTable`]).
    allocated: AllocTable,
    used_blocks: u64,
    high_water_blocks: u64,
    /// Highest block index (exclusive) any grant has covered.
    extent_blocks: u64,
    stats: PoolStats,
}

impl HeapPool {
    pub fn new(cfg: PoolConfig) -> Self {
        assert!(cfg.block_bytes > 0, "block size must be positive");
        let total_blocks = cfg.capacity_bytes / cfg.block_bytes;
        assert!(total_blocks > 0, "pool must hold at least one block");
        assert!(
            cfg.collapse_runs < cfg.spill_runs,
            "collapse_runs must stay below spill_runs (hysteresis)"
        );
        let mut empty = RunIndex::new(cfg.spill_runs, cfg.collapse_runs);
        empty.insert(0, total_blocks);
        HeapPool {
            block_shift: cfg
                .block_bytes
                .is_power_of_two()
                .then(|| cfg.block_bytes.trailing_zeros()),
            cfg,
            total_blocks,
            empty,
            allocated: AllocTable::default(),
            used_blocks: 0,
            high_water_blocks: 0,
            extent_blocks: 0,
            stats: PoolStats::default(),
        }
    }

    /// Convenience constructor with the paper's 1 KB blocks.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self::new(PoolConfig::new(capacity_bytes))
    }

    #[inline]
    fn blocks_for(&self, bytes: u64) -> u64 {
        let bytes = bytes.max(1);
        match self.block_shift {
            // Exact div_ceil via shift + remainder test: no `+ (block-1)`
            // pre-add, so requests near `u64::MAX` cannot wrap (they must
            // produce the same astronomically-large block count — and the
            // same OOM — as the reference pool's `div_ceil`).
            Some(s) => (bytes >> s) + u64::from(bytes & (self.cfg.block_bytes - 1) != 0),
            None => bytes.div_ceil(self.cfg.block_bytes),
        }
    }

    /// Number of fragments in the empty list (diagnostic).
    pub fn empty_nodes(&self) -> usize {
        self.empty.len()
    }

    /// Number of live allocations.
    pub fn allocated_nodes(&self) -> usize {
        self.allocated.live
    }

    /// Largest free fragment, in bytes. O(1): the maximum is maintained
    /// incrementally by every insert/remove/resize (vector regime) or read
    /// off the root augmentation (treap regime), so the OOM error path and
    /// the per-step dynamic workspace budget never scan.
    pub fn largest_fragment(&self) -> u64 {
        self.empty.max_blocks() * self.cfg.block_bytes
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    pub fn block_bytes(&self) -> u64 {
        self.cfg.block_bytes
    }

    /// Internal consistency check, used by tests and proptests: blocks are
    /// partitioned between the two lists, nothing overlaps, the empty index
    /// is address-ordered, fully coalesced, and its subtree maxima are
    /// consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut spans: Vec<(u64, u64, bool)> = Vec::new(); // (start, blocks, is_empty)
        let mut prev_start = None;
        let mut order_ok = true;
        self.empty.for_each_in_order(|start, blocks| {
            if let Some(p) = prev_start {
                order_ok &= p < start;
            }
            prev_start = Some(start);
            spans.push((start, blocks, true));
        });
        if !order_ok {
            return Err("empty index not in address order".into());
        }
        if spans.len() != self.empty.len() {
            return Err(format!(
                "empty index len {} != traversal count {}",
                self.empty.len(),
                spans.len()
            ));
        }
        if spans.iter().any(|(_, blocks, _)| *blocks == 0) {
            return Err("zero-size empty node".into());
        }
        self.empty.check()?;
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
        let need = self.blocks_for(bytes);
        self.stats.alloc_calls += 1;
        // First-fit-and-take: the lowest-address run with enough free
        // blocks (paper: "finds the first node with enough free memory from
        // the empty list"), found and carved in one pass.
        let Some(start) = self.empty.first_fit_take(need) else {
            self.stats.failed_allocs += 1;
            // Report the largest fragment alongside total free bytes so a
            // fragmentation failure (largest < requested ≤ free) is
            // distinguishable from true exhaustion (free < requested).
            return Err(AllocError::OutOfMemory {
                requested: bytes,
                free: (self.total_blocks - self.used_blocks) * self.cfg.block_bytes,
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
        self.stats.total_latency += self.cfg.alloc_latency;
        Ok(AllocGrant {
            id: AllocId(id),
            addr: start * self.cfg.block_bytes,
            bytes: need * self.cfg.block_bytes,
            cost: self.cfg.alloc_latency,
        })
    }

    #[inline]
    fn free(&mut self, id: AllocId) -> Result<SimTime, AllocError> {
        // Locate via the slot embedded in the handle, then return the run
        // to the empty index; `free_run` finds predecessor and successor in
        // one search and coalesces with both when adjacent.
        let node = self
            .allocated
            .remove(id.0)
            .ok_or(AllocError::UnknownAllocation)?;
        self.used_blocks -= node.blocks;
        self.stats.free_calls += 1;
        self.stats.total_latency += self.cfg.free_latency;
        self.empty.free_run(node.start, node.blocks);
        Ok(self.cfg.free_latency)
    }

    #[inline]
    fn used(&self) -> u64 {
        self.used_blocks * self.cfg.block_bytes
    }

    fn capacity(&self) -> u64 {
        self.total_blocks * self.cfg.block_bytes
    }

    #[inline]
    fn high_water(&self) -> u64 {
        self.high_water_blocks * self.cfg.block_bytes
    }

    #[inline]
    fn largest_free_contiguous(&self) -> u64 {
        self.largest_fragment()
    }

    #[inline]
    fn extent_high_water(&self) -> u64 {
        self.extent_blocks * self.cfg.block_bytes
    }

    fn reset_high_water(&mut self) {
        self.high_water_blocks = self.used_blocks;
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
        assert_eq!(p.stats().failed_allocs, 1);
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
        p.reset_high_water();
        assert_eq!(p.high_water(), 1024);
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
    fn index_migrates_to_treap_and_back_under_fragmentation() {
        // 512 one-block allocations, then free the even ones: 256 isolated
        // holes — past SPILL, so the index must be in the treap regime and
        // still answer first-fit/largest correctly. Freeing the rest
        // coalesces everything back to one run, collapsing to the vector.
        let mut p = pool_kb(512);
        let grants: Vec<_> = (0..512).map(|_| p.alloc(1024).unwrap()).collect();
        for g in grants.iter().step_by(2) {
            p.free(g.id).unwrap();
        }
        assert_eq!(p.empty_nodes(), 256);
        assert!(matches!(p.empty.repr, Repr::Tree(_)), "must have spilled");
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
        assert!(
            matches!(p.empty.repr, Repr::Small { .. }),
            "must have collapsed"
        );
    }

    #[test]
    fn largest_fragment_is_maintained_incrementally() {
        // Drive the index through shrink/remove/grow/insert transitions and
        // compare the O(1) maximum against a full traversal every time.
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
            let mut scan_max = 0;
            p.empty.for_each_in_order(|_, b| scan_max = scan_max.max(b));
            assert_eq!(p.largest_fragment(), scan_max * p.block_bytes());
            p.check_invariants().unwrap();
        }
    }
}
