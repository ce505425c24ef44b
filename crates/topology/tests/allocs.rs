//! Allocations per path-memo miss, counted by a counting
//! `#[global_allocator]` — here, in an integration-test crate root,
//! because the library `#![forbid(unsafe_code)]`s. One `#[test]` only,
//! and the tally is per thread: nothing the harness does on its own
//! threads is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acp_simcore::SimDuration;
use acp_topology::{Overlay, OverlayNodeId, OverlayPath};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// `(allocations, bytes)` requested by this thread so far.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn tally(bytes: usize) {
    // `try_with`: a thread being torn down may free and allocate after
    // its locals are gone.
    let _ = TALLY.try_with(|t| {
        let (allocations, total) = t.get();
        t.set((allocations + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the tally is a
// const-initialised `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `run` returned, and the `(allocations, bytes)` requested while it
/// ran.
fn counted<T>(run: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = TALLY.with(Cell::get);
    let result = run();
    let after = TALLY.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

/// A memo miss whose source already has its tree allocates the path
/// once — the `Arc` holding it, ids inline — up to five links (64-bit
/// sizes: an 88-byte path behind a 16-byte `Arc` header). Past five, its
/// node and link ids take one boxed slice each. The memo table and its
/// insert log are grown beforehand: the misses counted here insert into
/// room that an earlier round of lookups left.
#[test]
fn a_memo_miss_allocates_its_path_once() {
    const ARC_HEADER: u64 = 16;
    assert_eq!(std::mem::size_of::<OverlayPath>(), 88);
    let inline_bytes = ARC_HEADER + std::mem::size_of::<OverlayPath>() as u64;

    // A ring of 40 without chords: paths of up to 20 links.
    let mut ov = Overlay::synthetic(40, 0, &mut StdRng::seed_from_u64(5));
    let nodes: Vec<OverlayNodeId> = ov.nodes().collect();
    for &a in &nodes {
        for &b in &nodes {
            ov.virtual_path(a, b);
        }
    }
    let source = nodes[0];
    let hops: Vec<usize> = nodes.iter().map(|&t| ov.virtual_path(source, t).expect("a ring").hop_count()).collect();
    // Every tree routes through its own source: this forgets them all
    // and their memo rows, and keeps the table's room.
    for &v in &nodes {
        ov.invalidate_routes_for(v);
    }
    assert_eq!(ov.path_cache_len(), 0);
    ov.drain_memo_inserts(&mut Vec::new());

    // The first miss builds the source's tree.
    ov.virtual_path(source, nodes[1]);
    let mut spilled = 0;
    for (t, &h) in nodes.iter().zip(&hops).skip(2) {
        let (path, allocations) = counted(|| ov.virtual_path(source, *t));
        let path = path.expect("a ring");
        assert_eq!(path.hop_count(), h);
        if h <= 5 {
            assert_eq!(allocations, (1, inline_bytes), "{source} -> {t}: {h} links");
            continue;
        }
        let ids = 4 * (2 * h as u64 + 1);
        assert_eq!(allocations, (3, inline_bytes + ids), "{source} -> {t}: {h} links, spilled");
        assert_eq!((path.nodes.first(), path.nodes.last()), (Some(&source), Some(t)));
        assert_eq!(path.nodes.len(), h + 1);
        let mut delay = SimDuration::ZERO;
        for (step, &l) in path.nodes.windows(2).zip(&path.links) {
            let (a, b) = ov.link_endpoints(l);
            assert!((a, b) == (step[0], step[1]) || (b, a) == (step[0], step[1]), "{l:?} joins {step:?}");
            delay += ov.link_props(l).delay;
        }
        assert_eq!(path.delay, delay);
        spilled += 1;
    }
    assert!(hops.iter().filter(|&&h| (2..=5).contains(&h)).count() >= 4 && spilled >= 10, "{hops:?}");
    let hits = ov.path_cache_stats().hits;
    let ((), warm) = counted(|| {
        for &t in &nodes[1..] {
            ov.virtual_path(source, t);
        }
    });
    assert_eq!((ov.path_cache_stats().hits - hits, warm), (39, (0, 0)), "a hit allocates nothing");
}
