//! Allocations are a counter. A counting `#[global_allocator]` — here,
//! in an integration-test crate root, because the library crates
//! `#![forbid(unsafe_code)]` — and one test pinning allocations and bytes
//! over fixed batches of warm operations on `ScenarioConfig::small(7)`.
//! The numbers are the same on every rerun, in dev and in release: the
//! one perf signal with no noise in it. A change that moves one on
//! purpose re-records it here and says which layer moved it.
//!
//! One `#[test]` only, and the tally is per thread: nothing the harness
//! does on its own threads is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{DeterministicRng, SimTime};
use acp_state::GlobalStateBoard;
use acp_workload::{build_system, RequestConfig, RequestGenerator, ScenarioConfig};

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

/// Requests per batch.
const BATCH: usize = 200;

/// Composes and closes every request of `batch`; returns how many
/// composed.
fn compose_close(
    composer: &mut dyn Composer,
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    batch: &[Request],
) -> usize {
    let mut composed = 0;
    for request in batch {
        if let Some(session) = composer.compose(system, board, request, SimTime::ZERO).session {
            assert!(system.close_session(session));
            composed += 1;
        }
    }
    composed
}

/// The second pass of `composer` over `batch` on a copy of `system`: the
/// first warmed the path memo and grew every scratch buffer to size.
fn warm_compose_close(
    composer: &mut dyn Composer,
    system: &StreamSystem,
    board: &GlobalStateBoard,
    batch: &[Request],
) -> (usize, (u64, u64)) {
    let mut system = system.clone();
    compose_close(composer, &mut system, board, batch);
    counted(|| compose_close(composer, &mut system, board, batch))
}

#[test]
fn warm_operations_allocate_exactly_this_much() {
    let config = ScenarioConfig::small(7);
    let (system, board, library) = build_system(&config);
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(7).stream("allocs");
    let batch: Vec<Request> = (0..BATCH).map(|_| generator.next(&mut rng).0).collect();
    let probing = ProbingConfig::default();

    // A request shares its template's graph: a copy — the session's, an
    // orphan's, a trace entry's — is a reference count, and neither it
    // nor the session holds the graph's vectors inline (64-bit sizes).
    let ((), copying) = counted(|| batch.iter().for_each(|r| drop(std::hint::black_box(r.clone()))));
    assert_eq!(copying, (0, 0), "Request::clone");
    assert_eq!(std::mem::size_of::<Request>(), 72);
    assert_eq!(std::mem::size_of::<Session>(), 200);

    // ACP over the default, fault-free transport. The deputy no longer
    // calls `StreamSystem::qualify` on every completed probe (the commit
    // validates Eqs. 2–5 on what it tries), so its two per-probe demand
    // groupings are gone: 4 529 allocations became 3 095.
    let mut acp = ProbingComposer::new(probing.clone(), 42);
    let single = warm_compose_close(&mut acp, &system, &board, &batch);
    assert_eq!(single, (200, (3_095, 344_960)), "ACP, default transport");

    // ACP over a fault-free transport attached on another seed, as a
    // scenario with `setup: Some(SetupConfig::default())` builds it. It
    // reads what the default reads: an inert transport draws nothing
    // and allocates nothing of its own.
    let setup = TwoPhase::new(43, SetupConfig::default());
    let mut acp_two_phase = ProbingComposer::new(probing.clone(), 42).with_setup(setup);
    let two_phase = warm_compose_close(&mut acp_two_phase, &system, &board, &batch);
    assert_eq!(two_phase, (200, (3_095, 344_960)), "ACP, explicit fault-free transport");

    // Optimal: the branch-and-bound under the figures' expansion cap.
    let mut optimal = OptimalComposer::new(OptimalConfig { max_expansions: 300_000 });
    let exhaustive = warm_compose_close(&mut optimal, &system, &board, &batch[..BATCH / 10]);
    assert_eq!(exhaustive, (20, (1_548, 618_592)), "Optimal");

    // One commit/close pair per request, on the composition ACP found.
    let mut sys = system.clone();
    let pairs: Vec<(&Request, Composition)> = batch
        .iter()
        .filter_map(|request| {
            let session = acp.compose(&mut sys, &board, request, SimTime::ZERO).session?;
            let composition = sys.session(session).expect("just committed").composition.clone();
            assert!(sys.close_session(session));
            Some((request, composition))
        })
        .collect();
    let ((), commit_close) = counted(|| {
        for (request, composition) in &pairs {
            let session = sys.commit_session(request, composition.clone()).expect("fitted a moment ago");
            sys.close_session(session);
        }
    });
    assert_eq!((pairs.len(), commit_close), (200, (800, 57_464)), "commit/close pairs");

    // One repair splice: the middle hop of a three-function path crashes
    // and the planner splices a replacement in place, probed by an ACP
    // composer of its own. 43 allocations became 39 when the deputy's
    // `qualify` call on each completed segment probe went; 3 003 bytes
    // became 2 907 when the probe-tree node lost its 8-byte transport
    // delay (the fresh composer's tree grows to 12 nodes). 38 and 2 587
    // since ranked selection inserts into its top list from the tail:
    // the fresh scratch's list no longer grows to quota + 1 before it
    // truncates, and at quota 4 that fifth row doubled its capacity
    // (eight 40-byte rows, 320 bytes).
    let mut sys = system.clone();
    let path = batch
        .iter()
        .find(|r| r.graph.len() == 3 && r.graph.is_path())
        .expect("a three-function path in the batch");
    let session = acp.compose(&mut sys, &board, path, SimTime::ZERO).session.expect("composes");
    let victim = sys.session(session).expect("live").composition.assignment[1];
    sys.crash_component(victim, RepairPolicy::Repair, SimTime::from_secs(20));
    let mut planner = RepairPlanner::new();
    let mut repair = ProbingComposer::new(probing.clone(), DeterministicRng::new(7).seed_for("repair"));
    let now = SimTime::from_secs(23);
    let (attempt, splice) = counted(|| {
        planner.repair_session(&mut sys, &board, session, now, &mut repair, probing.transient_timeout)
    });
    assert_eq!(attempt.verdict, RepairVerdict::Repaired);
    assert_eq!(splice, (38, 2_587), "repair splice");
}
