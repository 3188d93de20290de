//! Deterministic scoped-thread fan-out.
//!
//! The parallel M-Optimizer evaluates independent candidate transforms
//! concurrently and merges the results back in a fixed order. The
//! primitive here is intentionally simpler than a work-stealing pool
//! (rayon is unavailable offline): a shared atomic cursor hands out
//! item indices, each worker returns `(index, result)` pairs, and the
//! join reassembles results in input order — so the *output* is
//! independent of scheduling, interleaving, and thread count. The
//! calling thread is one of the workers: `threads` workers spawn
//! `threads − 1` scoped threads, so a fan-out never parks the caller
//! while its own thread's allocator arena sits idle.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine's available parallelism (1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` workers — the calling
/// thread and `threads − 1` scoped threads — and returns the results
/// **in input order** regardless of which worker computed them.
/// `threads <= 1` runs inline with no thread overhead (and therefore
/// identical observable behavior).
///
/// # Panics
///
/// A panic in any worker, the caller's share included, is propagated
/// to the caller with its own payload.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut produced = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            produced.push((i, f(i, &items[i])));
        }
        produced
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        // The caller is the first worker. A panic here unwinds through
        // the scope, which joins the spawned workers first.
        let mine = work();
        let spawned = handles.into_iter().map(|h| {
            // Re-raise the worker's own panic payload.
            h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        });
        for (i, r) in std::iter::once(mine).chain(spawned).flatten() {
            slots[i] = Some(r);
        }
    });
    slots.into_iter().map(|r| r.expect("every index produced")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<u64> = (0..100).collect();
        let serial = par_map(1, &items, |i, &x| x.wrapping_mul(i as u64 + 1));
        let parallel = par_map(4, &items, |i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(serial, parallel);
    }

    /// Every item waits at a barrier of `items.len()`, so no worker can
    /// take a second item before each of the others has taken one.
    #[test]
    fn threads_run_on_that_many_threads_with_the_caller_among_them() {
        use std::sync::Barrier;
        use std::thread;
        for threads in [2, 3, 4] {
            let barrier = Barrier::new(threads);
            let items: Vec<usize> = (0..threads).collect();
            let ids = par_map(threads, &items, |_, _| {
                barrier.wait();
                thread::current().id()
            });
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), threads, "{threads} items on {threads} threads");
            assert!(distinct.contains(&thread::current().id()), "the caller works in the fan-out");
        }
    }

    #[test]
    fn a_panic_on_the_callers_share_propagates_with_its_payload() {
        use std::sync::Barrier;
        use std::thread;
        let caller = thread::current().id();
        let barrier = Barrier::new(4);
        let items: Vec<u32> = (0..4).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(4, &items, |_, &x| {
                barrier.wait();
                if thread::current().id() == caller {
                    std::panic::panic_any(format!("caller boom on {x}"));
                }
                x
            })
        }));
        let payload = outcome.expect_err("the caller's panic propagates");
        let msg = payload.downcast_ref::<String>().expect("the caller's own payload");
        assert!(msg.starts_with("caller boom on "), "{msg}");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(4, &items, |_, &x| {
            if x == 63 {
                panic!("boom");
            }
            x
        });
    }
}
