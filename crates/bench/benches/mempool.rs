//! Micro-benchmarks for the heap memory pool vs. the modelled cudaMalloc —
//! the host-side data-structure cost that Table 2 amortizes (the simulated
//! *latencies* are charged on the virtual clock; this measures the real Rust
//! data-structure work so regressions in the pool are caught).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sn_mempool::HeapPool;
use sn_sim::{CudaAllocator, DeviceAllocator, DeviceSpec};

fn alloc_free_cycle<A: DeviceAllocator>(alloc: &mut A, sizes: &[u64]) {
    let mut live = Vec::with_capacity(sizes.len());
    for &s in sizes {
        live.push(alloc.alloc(s).unwrap().id);
    }
    for id in live {
        alloc.free(id).unwrap();
    }
}

fn bench_pool(c: &mut Criterion) {
    // A training-iteration-like size mix: a few large activations, many
    // small ones.
    let sizes: Vec<u64> = (0..128)
        .map(|i| match i % 8 {
            0 => 64 << 20,
            1..=3 => 4 << 20,
            _ => 200 << 10,
        })
        .collect();

    let mut g = c.benchmark_group("alloc_free_128_tensors");
    g.bench_function("heap_pool", |b| {
        let mut pool = HeapPool::with_capacity(12 << 30);
        b.iter(|| alloc_free_cycle(black_box(&mut pool), &sizes));
    });
    g.bench_function("cuda_model", |b| {
        let mut cuda = CudaAllocator::new(&DeviceSpec::k40c());
        b.iter(|| alloc_free_cycle(black_box(&mut cuda), &sizes));
    });
    g.finish();

    c.bench_function("pool_fragmented_first_fit", |b| {
        // Leave a fragmented pool and measure allocation into holes. 256
        // holes is ≈ 4.6× the most free runs any workload, experiment or
        // example holds (56; see the `sn_mempool::pool` docs), so judge a
        // change to the pool's index against that scale, not this one.
        let mut pool = HeapPool::with_capacity(1 << 30);
        let ids: Vec<_> = (0..512).map(|_| pool.alloc(1 << 20).unwrap().id).collect();
        for id in ids.iter().step_by(2) {
            pool.free(*id).unwrap();
        }
        b.iter(|| {
            let g = pool.alloc(black_box(800 << 10)).unwrap();
            pool.free(g.id).unwrap();
        });
    });
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
