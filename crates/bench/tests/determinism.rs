//! Regression test for the parallel sweep driver's determinism
//! guarantee: figure tables must be byte-identical regardless of the
//! worker-thread count.

use acp_bench::experiments::{fig6, Scale};
use acp_simcore::{SimDuration, SimTime};
use acp_workload::RateSchedule;

/// A deliberately tiny scale so the sweep finishes in seconds while
/// still exercising several points per figure.
fn tiny_scale() -> Scale {
    let mut scale = Scale::quick();
    scale.duration = SimDuration::from_minutes(4);
    scale.rates = vec![5.0, 10.0];
    scale.anchor_rate = 5.0;
    scale.fig8_duration = SimDuration::from_minutes(10);
    scale.fig8_schedule = RateSchedule::steps(vec![(SimTime::ZERO, 5.0)]);
    scale
}

#[test]
fn fig6_parallel_output_is_byte_identical_to_sequential() {
    let scale = tiny_scale();
    let seed = 20_260_805;

    let [success_seq, overhead_seq] = fig6(&scale, seed, 1);
    let [success_par, overhead_par] = fig6(&scale, seed, 4);

    assert_eq!(success_seq, success_par, "Fig 6(a) differs between 1 and 4 threads");
    assert_eq!(overhead_seq, overhead_par, "Fig 6(b) differs between 1 and 4 threads");

    // Byte-identical includes the rendered/exported forms.
    assert_eq!(success_seq.to_csv(), success_par.to_csv());
    assert_eq!(success_seq.to_json(), success_par.to_json());
}

#[test]
fn fig6_reruns_reproduce_exactly() {
    let scale = tiny_scale();
    let seed = 7;
    let first = fig6(&scale, seed, 2);
    let second = fig6(&scale, seed, 3);
    assert_eq!(first, second, "same (scale, seed) must give identical tables");
}
