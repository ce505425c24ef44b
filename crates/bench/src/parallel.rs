//! Deterministic parallel sweep driver.
//!
//! Figure regeneration is embarrassingly parallel: every sweep point is
//! an independent scenario with its own seed. [`run_indexed`] fans a
//! point list out over scoped worker threads pulling from a shared
//! atomic work queue, then reassembles results **in point order** — so
//! the produced tables are byte-identical to a sequential run no matter
//! the thread count or OS scheduling.
//!
//! Determinism rests on two properties:
//!
//! 1. every point's closure depends only on the point itself (each
//!    scenario derives its RNG streams from a per-point seed, never from
//!    shared mutable state), and
//! 2. results are written into a slot indexed by the point, so assembly
//!    order is data order, not completion order.
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be overridden with the `ACP_BENCH_THREADS` environment
//! variable (`ACP_BENCH_THREADS=1` forces a sequential run).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// A worker builds its point's system and requests and hands results
// back: whatever those hold by reference count has to cross threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<(acp_model::StreamSystem, acp_model::Request)>()
};

/// Worker threads to use: `ACP_BENCH_THREADS` when set, otherwise the
/// machine's available parallelism (1 when that cannot be determined).
///
/// # Panics
///
/// Panics when `ACP_BENCH_THREADS` is set but not a positive integer.
pub fn thread_count() -> usize {
    match std::env::var("ACP_BENCH_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("ACP_BENCH_THREADS must be a positive integer, got {v:?}"),
        },
        Err(_) => std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
    }
}

/// Maps `f` over `items` on up to `threads` scoped worker threads and
/// returns the results in item order.
///
/// Workers claim indices from a shared atomic counter (a work queue:
/// long points do not stall the others behind a static partition) and
/// deposit each result into its item's slot. With `threads == 1` or a
/// single item the call degenerates to a plain sequential map — the
/// output is identical either way.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn run_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let result = f(i, &items[i]);
                slots.lock().expect("a worker panicked holding the result lock")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| slot.expect("the queue covers every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = run_indexed(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..40).collect();
        // A mildly stateful per-point computation (own RNG per point).
        let compute = |i: usize, &x: &u64| {
            let mut acc = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
            for _ in 0..100 {
                acc = acc.rotate_left(7).wrapping_add(0xBF58_476D_1CE4_E5B9);
            }
            acc
        };
        let seq = run_indexed(1, &items, compute);
        let par = run_indexed(8, &items, compute);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(4, &empty, |_, &x| x).is_empty());
        assert_eq!(run_indexed(8, &[5u8], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u8, 2, 3];
        assert_eq!(run_indexed(64, &items, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn thread_count_is_positive() {
        // Whatever the environment, the answer must be usable.
        assert!(thread_count() >= 1);
    }
}
