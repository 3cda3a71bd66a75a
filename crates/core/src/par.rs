//! The order-preserving parallel map that the feasibility search and the
//! autotuner fan their compiles out over.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` on up to `workers` scoped threads and return the
/// results in input order. The workers drain one shared index, so uneven
/// item costs balance themselves. With one worker, or at most one item, it
/// runs inline on the caller's thread.
pub(crate) fn map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = workers.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break local;
                        };
                        local.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn map_is_order_identical_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let reference: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, 4, 8, 97, 200] {
            assert_eq!(
                super::map(&items, workers, |x| x * x + 1),
                reference,
                "workers={workers}"
            );
            // Empty and single-item inputs run inline.
            assert_eq!(super::map(&[], workers, |x: &u64| *x), Vec::<u64>::new());
            assert_eq!(super::map(&[7u64], workers, |x| x + 1), vec![8]);
        }
    }
}
