//! A warm compile allocates the plan it returns and nothing else: with the
//! graph analyses cached, the walk runs in a walk state its compiler kept
//! from the compile before, so what is left is the result — the step
//! records and the op stream, copied out at their exact lengths, and the
//! `Arc` they are shared behind — and a compile of a ten-times deeper net
//! makes exactly as many allocations.
//!
//! And a plan-memo hit allocates nothing at all: a prediction is read off
//! the memoized plan in place, and a memoized OOM shares its layer name.
//!
//! The recompute plan a first-contact compile builds allocates per
//! structure, not per segment: its segments' members share one flat list.
//!
//! The two compile tests go through the process's shared compiler, whose
//! walk states the other test's compiles would take turns in: they run one
//! at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

use sn_graph::{Net, NetCost, Route, Shape4};
use sn_runtime::recompute::RecomputePlan;
use sn_runtime::{plan, plan_prediction, plan_prediction_inference, Policy, RecomputeMode};
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

/// Held by each test for its whole run.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations (reallocations included) this thread makes in one compile of
/// `depth`-layer ResNet, after a first compile has warmed the analyses and
/// grown the walk state to this depth.
fn warm_compile_allocations(depth: usize, policy: Policy, inference: bool) -> u64 {
    let net = sn_models::resnet_depth(8, depth);
    let spec = DeviceSpec::k40c();
    let compile = || {
        if inference {
            plan::compile_inference(&net, &spec, policy)
        } else {
            plan::compile(&net, &spec, policy)
        }
        .expect("fits a 12 GB card")
    };
    let first = compile();
    let before = CALLS.get();
    let second = compile();
    let calls = CALLS.get() - before;
    assert_eq!(first.plan.n_ops(), second.plan.n_ops());
    calls
}

#[test]
fn a_warm_compile_allocates_only_its_plan() {
    let _serial = one_at_a_time();
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
        for inference in [false, true] {
            let shallow = warm_compile_allocations(100, policy, inference);
            let deep = warm_compile_allocations(1000, policy, inference);
            // Steps, ops, the `Arc`; and in debug builds the residency
            // model `verify` replays the plan against.
            assert!(
                deep == shallow && deep <= 4,
                "{name} (inference {inference}): ResNet-1000 compiles in {deep} allocations, \
                 ResNet-100 in {shallow}"
            );
        }
    }
}

#[test]
fn a_recompute_plan_allocates_per_structure_not_per_segment() {
    let build = |depth| {
        let net = sn_models::resnet_depth(8, depth);
        let (route, cost) = (Route::construct(&net), NetCost::of(&net));
        let before = CALLS.get();
        let plan = RecomputePlan::build(&net, &route, &cost, RecomputeMode::CostAware);
        let calls = CALLS.get() - before;
        assert!(
            plan.segments.len() > depth / 10,
            "ResNet-{depth} has segments"
        );
        calls
    };
    let (shallow, deep) = (build(100), build(1000));
    // Per layer: anchors, segment indices and the by-anchor numbering; then
    // the segments and their members, each sized before it is filled.
    assert!(
        deep == shallow && deep <= 8,
        "ResNet-1000's recompute plan makes {deep} allocations, ResNet-100's {shallow}"
    );
}

/// The benchmark's `plan_reuse` shape of net: a conv tower.
fn tower() -> Net {
    let mut net = Net::new("tower", Shape4::new(8, 3, 32, 32));
    let mut prev = net.data();
    for _ in 0..3 {
        let c = net.conv(prev, 32, 3, 1, 1);
        prev = net.relu(c);
    }
    let p = net.max_pool(prev, 2, 2, 0);
    let f = net.fc(p, 10);
    net.softmax(f);
    net
}

#[test]
fn a_prediction_memo_hit_allocates_nothing() {
    let _serial = one_at_a_time();
    let net = tower();
    let policy = Policy::superneurons();
    for inference in [false, true] {
        let predict = |spec: &DeviceSpec| {
            if inference {
                plan_prediction_inference(&net, spec, policy)
            } else {
                plan_prediction(&net, spec, policy)
            }
        };
        let compile = |cap: u64| {
            let spec = DeviceSpec::k40c().with_dram(cap);
            if inference {
                plan::compile_inference(&net, &spec, policy)
            } else {
                plan::compile(&net, &spec, policy)
            }
        };
        let peak = compile(12 << 30).unwrap().plan.peak_bytes;
        // The first cap under the peak that the plan fits only because the
        // cap shaped it, so it is memoized under that cap alone.
        let pinned = (50..100)
            .map(|pc| peak * pc / 100)
            .find(|&cap| compile(cap).is_ok_and(|c| c.valid_caps == (cap..=cap)))
            .expect("some cap under the peak binds and fits");
        for (case, cap, fits) in [
            ("open interval", 12 << 30, true),
            ("cap-pinned", pinned, true),
            ("cap-pinned OOM", 64 << 10, false),
        ] {
            let spec = DeviceSpec::k40c().with_dram(cap);
            assert_eq!(predict(&spec).is_ok(), fits, "{case}: the warm-up");
            let hits = plan::plan_memo_stats().hits;
            let before = CALLS.get();
            let answer = predict(&spec);
            let calls = CALLS.get() - before;
            assert_eq!(answer.is_ok(), fits);
            assert_eq!(plan::plan_memo_stats().hits, hits + 1, "{case}: a hit");
            assert_eq!(
                calls, 0,
                "{case} (inference {inference}): a memo hit made {calls} allocations"
            );
        }
    }
}
