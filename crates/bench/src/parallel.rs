//! Deterministic parallel sweep driver.
//!
//! Figure regeneration is embarrassingly parallel: every sweep point is
//! an independent scenario built from the figure's one master seed.
//! [`run_indexed`] fans a point list out over scoped worker threads
//! pulling from a shared atomic work queue, then reassembles results
//! **in point order**; [`grid`] does the same for a rows × columns
//! cross product and hands the results back row-major. The produced
//! tables are byte-identical to a sequential run no matter the thread
//! count or OS scheduling.
//!
//! Determinism rests on two properties:
//!
//! 1. every point's closure depends only on the point itself (a
//!    scenario derives its RNG streams from its config's seed, never
//!    from shared mutable state), and
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
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
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
                let result = f(&items[i]);
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

/// Runs `f` on every `(row, column)` pair of a sweep's two axes on up to
/// `threads` workers and returns the results row-major: `out[r][c]` is
/// `f(&rows[r], &cols[c])`, whatever the thread count. An empty column
/// axis gives one empty vector per row.
pub fn grid<R, C, O, F>(threads: usize, rows: &[R], cols: &[C], f: F) -> Vec<Vec<O>>
where
    R: Sync,
    C: Sync,
    O: Send,
    F: Fn(&R, &C) -> O + Sync,
{
    let cells: Vec<(&R, &C)> = rows.iter().flat_map(|r| cols.iter().map(move |c| (r, c))).collect();
    let mut flat = run_indexed(threads, &cells, |&(r, c)| f(r, c)).into_iter();
    rows.iter().map(|_| flat.by_ref().take(cols.len()).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = run_indexed(4, &items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(4, &empty, |&x| x).is_empty());
        assert_eq!(run_indexed(8, &[5u8], |&x| x + 1), vec![6]);
        assert_eq!(run_indexed(64, &[1u8, 2, 3], |&x| x * 2), vec![2, 4, 6]);
    }

    /// The one thread-identity test every sweep leans on: a grid is
    /// row-major and the same at any worker count, empty axes included.
    #[test]
    fn grid_is_row_major_and_thread_count_independent() {
        let rows: Vec<u64> = (0..7).collect();
        let cols: Vec<u64> = (0..5).collect();
        // A mildly expensive pure function of the cell.
        let cell = |&r: &u64, &c: &u64| {
            let mut acc = (r << 32 | c).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..100 {
                acc = acc.rotate_left(7).wrapping_add(0xBF58_476D_1CE4_E5B9);
            }
            (r, c, acc)
        };
        let seq = grid(1, &rows, &cols, cell);
        assert_eq!(seq.len(), rows.len());
        for (r, row) in seq.iter().enumerate() {
            assert_eq!(row.len(), cols.len());
            for (c, got) in row.iter().enumerate() {
                assert_eq!(*got, cell(&rows[r], &cols[c]), "cell ({r}, {c})");
            }
        }
        assert_eq!(grid(4, &rows, &cols, cell), seq);
        assert_eq!(grid(64, &rows, &cols, cell), seq);

        let none: [u64; 0] = [];
        for threads in [1, 4, 64] {
            assert!(grid(threads, &none, &cols, cell).is_empty());
            assert_eq!(grid(threads, &rows, &none, cell), vec![Vec::new(); rows.len()]);
        }
    }

    #[test]
    fn thread_count_is_positive() {
        // Whatever the environment, the answer must be usable.
        assert!(thread_count() >= 1);
    }
}
