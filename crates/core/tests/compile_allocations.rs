//! The plan walk allocates nothing per step: with the graph analyses warm, a
//! compile of a ten-times deeper net makes (almost) the same number of heap
//! allocations. What may still grow with depth is the doubling of two
//! vectors — the op stream and the recomputed-tensor node pool — a handful
//! of reallocations, not one per replayed segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sn_runtime::{plan, Policy, RecomputeMode};
use sn_sim::DeviceSpec;

struct Counting;

thread_local! {
    // A `const` cell of `Copy` data: no lazy initialisation, no destructor,
    // so touching it from inside the allocator cannot itself allocate.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: same layout the caller gave us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.set(CALLS.get() + 1);
        // SAFETY: `ptr` came from this allocator with `layout`, which is
        // `System`'s, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations (reallocations included) this thread makes in one compile of
/// `depth`-layer ResNet, after a first compile has warmed the analyses.
fn warm_compile_allocations(depth: usize, policy: Policy) -> u64 {
    let net = sn_models::resnet_depth(8, depth);
    let spec = DeviceSpec::k40c();
    let first = plan::compile(&net, &spec, policy).expect("fits a 12 GB card");
    let before = CALLS.get();
    let second = plan::compile(&net, &spec, policy).expect("fits a 12 GB card");
    let calls = CALLS.get() - before;
    assert_eq!(first.plan.n_ops(), second.plan.n_ops());
    calls
}

#[test]
fn a_warm_compile_allocates_nothing_per_step() {
    let sn = Policy::superneurons();
    let policies = [
        ("superneurons", sn),
        (
            "speed-centric",
            Policy {
                recompute: RecomputeMode::SpeedCentric,
                ..sn
            },
        ),
        (
            "memory-centric",
            Policy {
                recompute: RecomputeMode::MemoryCentric,
                ..sn
            },
        ),
        ("full_memory", Policy::full_memory()),
        ("liveness_offload", Policy::liveness_offload()),
    ];
    for (name, policy) in policies {
        let shallow = warm_compile_allocations(100, policy);
        let deep = warm_compile_allocations(1000, policy);
        assert!(
            deep <= shallow + 16,
            "{name}: ResNet-1000 compiles in {deep} allocations, ResNet-100 in {shallow}"
        );
    }
}
