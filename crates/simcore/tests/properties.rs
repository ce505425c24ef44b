//! Property-based tests for the simulation substrate.

use acp_simcore::{DeterministicRng, EventQueue, SimDuration, SimTime, SummaryStats};
use proptest::prelude::*;

proptest! {
    /// Popping the queue yields events sorted by time, with FIFO tie-break.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((pt, pi)) = prev {
                prop_assert!(ev.time >= pt);
                if ev.time == pt {
                    prop_assert!(ev.event > pi, "FIFO violated for equal timestamps");
                }
            }
            prev = Some((ev.time, ev.event));
        }
    }

    /// Time arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert_eq!((time + dur) - dur, time);
    }

    /// Derived RNG streams are reproducible and label-sensitive.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), idx in 0u64..1_000) {
        let f = DeterministicRng::new(seed);
        prop_assert_eq!(f.seed_for_indexed("x", idx), DeterministicRng::new(seed).seed_for_indexed("x", idx));
        prop_assert_ne!(f.seed_for("x"), f.seed_for("y"));
    }

    /// SummaryStats::merge is equivalent to accumulating the concatenation.
    #[test]
    fn stats_merge_homomorphic(
        a in proptest::collection::vec(-1e6f64..1e6, 0..50),
        b in proptest::collection::vec(-1e6f64..1e6, 0..50),
    ) {
        let sa: SummaryStats = a.iter().copied().collect();
        let sb: SummaryStats = b.iter().copied().collect();
        let mut merged = sa;
        merged.merge(&sb);
        let whole: SummaryStats = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count, whole.count);
        if whole.count > 0 {
            prop_assert!((merged.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-6);
        }
    }
}
