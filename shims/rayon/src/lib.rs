//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! Two tiers:
//!
//! * The tensor kernels call `par_iter` / `par_iter_mut` / `par_chunks` /
//!   `par_chunks_mut` and then plain `Iterator` combinators (`zip`,
//!   `enumerate`, `for_each`). Sequential execution is semantically
//!   identical for these data-parallel loops (every closure touches a
//!   disjoint region), so the shim maps each `par_*` method to its `std`
//!   sequential counterpart. Numeric results are bit-identical to the
//!   parallel version because the reduction order within one chunk never
//!   changes.
//!
//! * The **planner sweep surfaces** (admission ladders, feasibility
//!   searches, bench compile matrices) need real concurrency — each work
//!   item compiles an independent memory plan. [`par_map`] and [`join`]
//!   run on genuine `std::thread::scope` workers draining a shared atomic
//!   work queue, with results returned in input order, so sweeps scale with
//!   the host's cores while staying deterministic.

pub mod prelude {
    /// `par_iter` / `par_chunks` over shared slices.
    pub trait ParallelSlice<T> {
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }

        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }
    }

    /// `par_iter_mut` / `par_chunks_mut` over exclusive slices.
    pub trait ParallelSliceMut<T> {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }

        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }
}

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count [`par_map`] spreads over (the machine's available
/// parallelism; 1 means everything degenerates to the sequential path).
///
/// Resolved once per process — `available_parallelism()` reads cgroup
/// limits and the affinity mask, system calls callers that ask per sweep
/// should not pay each time — so **first use wins**: a process that changes
/// its CPU affinity must do so before the first call, as real rayon's
/// global pool is sized once too.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run both closures, potentially in parallel, returning both results —
/// `rayon::join` with a scoped thread for the second branch.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("rayon::join branch panicked"))
    })
}

/// Map `f` over `items` on a scoped worker pool, returning results **in
/// input order**. The equivalent of `items.par_iter().map(f).collect()` in
/// real rayon. Workers drain one shared atomic index, so uneven item costs
/// balance themselves; with one hardware thread (or ≤1 item) it runs
/// inline with zero thread overhead.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_workers(items, current_num_threads(), f)
}

/// [`par_map`] with an explicit worker count, independent of the machine's
/// hardware parallelism. The determinism contract of callers like the
/// autotuner is "same inputs ⇒ same outputs for **any** worker count" —
/// this entry point lets tests exercise that on a single-core host.
pub fn par_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = workers.min(n);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(out[i].is_none());
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|o| o.expect("par_map left a hole"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let doubled = super::par_map(&items, |x| x * 2);
        assert_eq!(doubled.len(), items.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as u64);
        }
        // Empty and single-item inputs take the inline path.
        assert_eq!(
            super::par_map::<u64, u64, _>(&[], |x| *x),
            Vec::<u64>::new()
        );
        assert_eq!(super::par_map(&[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_workers_is_order_identical_across_worker_counts() {
        let items: Vec<u64> = (0..97).collect();
        let reference: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 4, 8, 97, 200] {
            let got = super::par_map_workers(&items, workers, |x| x * x + 1);
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = super::join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn par_methods_visit_every_element() {
        let mut v = vec![1i32; 8];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(v.par_iter().sum::<i32>(), 16);
        let chunks: Vec<usize> = v.par_chunks(3).map(|c| c.len()).collect();
        assert_eq!(chunks, vec![3, 3, 2]);
        v.par_chunks_mut(4).enumerate().for_each(|(i, c)| {
            c.iter_mut().for_each(|x| *x = i as i32);
        });
        assert_eq!(v, vec![0, 0, 0, 0, 1, 1, 1, 1]);
    }
}
