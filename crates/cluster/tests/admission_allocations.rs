//! A steady-state job costs the event loop no allocation: a grant's
//! placement list is one a finished run gave back, so once a run's tables
//! have grown to its peak, a stream four times as long makes (nearly)
//! exactly as many allocations as the short one.
//!
//! Every job has an empty name, so handing it to the loop allocates
//! nothing either. Debug builds hold every admission to the ladder written
//! straight down and check the whole state after every instant; both
//! oracles work in scratch the event core keeps, so the count holds in
//! either build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sn_cluster::{
    ClusterSim, Fleet, JobKind, JobSpec, PlacementPolicy, PolicyPreset, ReplayStream, Workload,
};
use sn_runtime::Interconnect;
use sn_sim::{DeviceSpec, SimTime};

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

/// `n` nameless jobs, one every 0.8 ms — under the fleet's capacity, so
/// the queue stays short at any length — cycling through solo training, 2-
/// and 4-replica gangs and forward-only serving.
fn stream(n: usize) -> Vec<(SimTime, JobSpec)> {
    let tower = |width, depth| Workload::Synthetic { width, depth };
    let templates = [
        JobSpec::new("", tower(8, 2), 8),
        JobSpec::new("", tower(16, 3), 16).with_replicas(2),
        JobSpec::new("", tower(16, 2), 8).with_kind(JobKind::Inference),
        JobSpec::new("", tower(8, 3), 16).with_replicas(4),
        JobSpec::new("", tower(32, 2), 8),
        JobSpec::new("", tower(16, 3), 16).with_kind(JobKind::Inference),
    ];
    let jobs = templates.iter().cycle().take(n).enumerate();
    let jobs = jobs.map(|(i, job)| {
        let job = job.clone().with_preset(PolicyPreset::Superneurons);
        let iterations = 3 + (i % 5) as u32;
        (SimTime(i as u64 * 800_000), job.with_iterations(iterations))
    });
    jobs.collect()
}

/// Allocations this thread makes in one fault-free `run_stream` of `n`
/// jobs on `sim`.
fn run_allocations(sim: &mut ClusterSim, n: usize) -> u64 {
    let mut jobs = ReplayStream::new(stream(n));
    let before = CALLS.get();
    let report = sim.run_stream(&mut jobs);
    let calls = CALLS.get() - before;
    assert!(report.conservation_holds());
    assert_eq!(report.completed, n as u64, "every job runs");
    calls
}

#[test]
fn a_job_in_steady_state_allocates_nothing() {
    const N: usize = 240;
    let fleet = Fleet::homogeneous(
        8,
        DeviceSpec::k40c().with_dram(96 << 20),
        Interconnect::pcie(),
    );
    let mut sim = ClusterSim::new(fleet, PlacementPolicy::BestFit);
    // A first run of the long stream compiles every shape into the plan
    // memo and asks the simulator's profiler every budget level either
    // measured run will; those two then only hit.
    run_allocations(&mut sim, 4 * N);
    let short = run_allocations(&mut sim, N);
    let long = run_allocations(&mut sim, 4 * N);
    let extra = long.saturating_sub(short);
    assert!(
        extra < N as u64 / 20,
        "{} more jobs made {extra} more allocations ({short} for {N}, {long} for {})",
        3 * N,
        4 * N
    );
}
