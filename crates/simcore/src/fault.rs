//! Deterministic scheduled fault injection.
//!
//! The paper's setting is a dynamic overlay where "nodes can join and
//! leave the system at any time" (§2, §5). This module provides the
//! simulation-side half of that story: a [`FaultPlan`] is a seeded,
//! pre-generated schedule of timed fault events (node fail/recover,
//! virtual-link degrade/fail/restore, component crash) drawn from
//! [`DeterministicRng`] streams, and a
//! [`FaultScheduler`] replays it inside a discrete-event simulation.
//!
//! Determinism contract (mirroring the parallel sweep driver): the plan
//! is a pure function of `(seed, config, node_count, link_count)` — the
//! same inputs yield a byte-identical event schedule regardless of
//! thread count, platform, or how the consuming simulation interleaves
//! other events. [`FaultPlan::digest`] exposes that as a single `u64`
//! for regression tests.
//!
//! The plan layer speaks in raw indices (`u32` node/link ids) so this
//! crate stays free of model/topology dependencies; the consuming layer
//! maps them onto its own id types.

use rand::rngs::StdRng;
use rand::Rng;

use crate::digest;
use crate::rng::DeterministicRng;
use crate::time::{SimDuration, SimTime};

/// One kind of injected fault.
///
/// Node failures are fail-stop of both the processing plane and the
/// node's overlay forwarding role (routing detours around it); link
/// failures are bandwidth fail-stop (the link stays routable but
/// carries nothing); degradation scales a link's capacity by a factor
/// in `(0, 1)`; a component crash undeploys a single component while
/// its node keeps running.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop the processing plane of node `node`.
    NodeFail {
        /// Victim node index.
        node: u32,
    },
    /// Bring node `node` back online (empty).
    NodeRecover {
        /// Recovering node index.
        node: u32,
    },
    /// Scale link `link`'s capacity to `factor` of nominal.
    LinkDegrade {
        /// Victim link index.
        link: u32,
        /// Remaining capacity fraction, in `(0, 1)`.
        factor: f64,
    },
    /// Bandwidth fail-stop of link `link`.
    LinkFail {
        /// Victim link index.
        link: u32,
    },
    /// Restore link `link` to nominal capacity.
    LinkRestore {
        /// Recovering link index.
        link: u32,
    },
    /// Crash one component on node `node`. The victim is the
    /// `ordinal mod live_count`-th live component at injection time, so
    /// the plan stays valid whatever the deployment looks like by then.
    ComponentCrash {
        /// Hosting node index.
        node: u32,
        /// Deterministic victim selector.
        ordinal: u64,
    },
    /// Partition the overlay down-set-style: the contiguous index range
    /// `first..first+count` (clamped to the node count) is cut off from
    /// the rest of the mesh. The consuming layer severs every overlay
    /// link with exactly one endpoint inside the range, so sessions
    /// spanning the cut break and repair must route around it.
    Partition {
        /// First node index of the isolated down-set.
        first: u32,
        /// Number of consecutive node indices isolated.
        count: u32,
    },
    /// Heal a partition: restore the links crossing the same cut.
    PartitionHeal {
        /// First node index of the previously isolated down-set.
        first: u32,
        /// Number of consecutive node indices previously isolated.
        count: u32,
    },
}

impl FaultKind {
    /// Coarse class name (for reporting and kind counting).
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::NodeFail { .. } => "node-fail",
            FaultKind::NodeRecover { .. } => "node-recover",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::LinkFail { .. } => "link-fail",
            FaultKind::LinkRestore { .. } => "link-restore",
            FaultKind::ComponentCrash { .. } => "component-crash",
            FaultKind::Partition { .. } => "partition",
            FaultKind::PartitionHeal { .. } => "partition-heal",
        }
    }
}

/// A fault scheduled at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub time: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Poisson rates and recovery distributions for plan generation.
///
/// Every `*_per_min` field is the expected number of injections per
/// simulated minute; `0.0` disables that fault class. Recovery delays
/// are exponential with the given mean, so the same seed produces the
/// same downtime windows.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Node fail-stop injections per simulated minute.
    pub node_fail_per_min: f64,
    /// Mean node downtime before the paired recovery event.
    pub mean_node_downtime: SimDuration,
    /// Link bandwidth fail-stops per simulated minute.
    pub link_fail_per_min: f64,
    /// Mean link outage before the paired restore event.
    pub mean_link_downtime: SimDuration,
    /// Link degradations per simulated minute.
    pub link_degrade_per_min: f64,
    /// Single-component crashes per simulated minute.
    pub component_crash_per_min: f64,
    /// Overlay partitions per simulated minute. **Zero by default** —
    /// the class only arms when a scenario asks for it, so existing
    /// plans (and their digests) are untouched.
    pub partition_per_min: f64,
    /// Mean partition duration before the paired heal event.
    pub mean_partition_duration: SimDuration,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            node_fail_per_min: 0.5,
            mean_node_downtime: SimDuration::from_minutes(3),
            link_fail_per_min: 0.5,
            mean_link_downtime: SimDuration::from_minutes(2),
            link_degrade_per_min: 0.5,
            component_crash_per_min: 0.5,
            partition_per_min: 0.0,
            mean_partition_duration: SimDuration::from_minutes(2),
        }
    }
}

impl FaultPlanConfig {
    /// A config with every class's rate scaled by `churn`, so a single
    /// knob sweeps the "churn rate" axis of a grid. `churn == 0` yields
    /// an empty plan.
    pub fn scaled(&self, churn: f64) -> Self {
        FaultPlanConfig {
            node_fail_per_min: self.node_fail_per_min * churn,
            link_fail_per_min: self.link_fail_per_min * churn,
            link_degrade_per_min: self.link_degrade_per_min * churn,
            component_crash_per_min: self.component_crash_per_min * churn,
            partition_per_min: self.partition_per_min * churn,
            ..self.clone()
        }
    }
}

/// A pre-generated, time-ordered fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Remaining-capacity factor range for degradations (uniform).
const DEGRADE_FACTOR: (f64, f64) = (0.1, 0.6);

/// Samples an exponential inter-arrival/holding time with mean
/// `mean_secs`, quantised to whole microseconds (so schedules are exact
/// integers, not platform-rounded floats).
fn sample_exp<R: Rng + ?Sized>(rng: &mut R, mean_secs: f64) -> SimDuration {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    SimDuration::from_secs_f64(-mean_secs * u.ln())
}

/// Appends one class of paired faults to `events`: strikes at
/// exponential gaps of mean `60 / per_min` seconds, each on a uniform
/// victim among the `count` indices the class itself has up at that
/// instant, and each paired with a restore after an exponential downtime
/// of mean `mean_down`, unless that falls past `end`. `strike` names the
/// fault and its restore for a victim; it may draw from `rng` (a degrade
/// factor) after the victim and before the downtime.
fn paired_faults(
    events: &mut Vec<(SimTime, u64, FaultKind)>,
    mut rng: StdRng,
    per_min: f64,
    count: usize,
    mean_down: SimDuration,
    end: SimTime,
    mut strike: impl FnMut(&mut StdRng, u32) -> (FaultKind, FaultKind),
) {
    if !(per_min > 0.0 && count > 0) {
        return;
    }
    let mean_gap = 60.0 / per_min;
    let mut down_until = vec![SimTime::ZERO; count];
    let mut t = SimTime::ZERO;
    loop {
        t += sample_exp(&mut rng, mean_gap);
        if t >= end {
            break;
        }
        let up: Vec<u32> = (0..count as u32).filter(|&v| down_until[v as usize] <= t).collect();
        if up.is_empty() {
            continue;
        }
        let victim = up[rng.gen_range(0..up.len())];
        let (fault, restore) = strike(&mut rng, victim);
        let back = t + sample_exp(&mut rng, mean_down.as_secs_f64());
        down_until[victim as usize] = back;
        events.push((t, events.len() as u64, fault));
        if back < end {
            events.push((back, events.len() as u64, restore));
        }
    }
}

impl FaultPlan {
    /// Generates the schedule for a system of `node_count` nodes and
    /// `link_count` links over `horizon`, from the `"faults"` family of
    /// streams of `seed`.
    ///
    /// Each fault class draws from its own named stream, so enabling or
    /// re-rating one class never perturbs another's timeline — the same
    /// property the workload generator's streams have. Fail events skip
    /// victims that the plan itself still has down at that instant
    /// (fail-stop of an already-failed node is meaningless), and every
    /// fail is paired with a recover/restore after an exponential
    /// downtime, truncated to the horizon.
    pub fn generate(
        seed: u64,
        config: &FaultPlanConfig,
        node_count: usize,
        link_count: usize,
        horizon: SimDuration,
    ) -> Self {
        let streams = DeterministicRng::new(seed);
        // `(time, generation sequence, kind)`: the sequence is the push
        // index, so it is `events.len()` at every push.
        let mut events: Vec<(SimTime, u64, FaultKind)> = Vec::new();
        let end = SimTime::ZERO + horizon;

        paired_faults(
            &mut events,
            streams.stream("faults/node"),
            config.node_fail_per_min,
            node_count,
            config.mean_node_downtime,
            end,
            |_, node| (FaultKind::NodeFail { node }, FaultKind::NodeRecover { node }),
        );
        paired_faults(
            &mut events,
            streams.stream("faults/link"),
            config.link_fail_per_min,
            link_count,
            config.mean_link_downtime,
            end,
            |_, link| (FaultKind::LinkFail { link }, FaultKind::LinkRestore { link }),
        );
        // Degrades share the link down-tracking only with themselves; a
        // degraded link overlapping a failed one is harmless — restore is
        // idempotent to nominal.
        paired_faults(
            &mut events,
            streams.stream("faults/degrade"),
            config.link_degrade_per_min,
            link_count,
            config.mean_link_downtime,
            end,
            |rng, link| {
                let factor = rng.gen_range(DEGRADE_FACTOR.0..DEGRADE_FACTOR.1);
                (FaultKind::LinkDegrade { link, factor }, FaultKind::LinkRestore { link })
            },
        );

        // Component crashes (no paired recovery: a crashed component is
        // gone for good).
        if config.component_crash_per_min > 0.0 && node_count > 0 {
            let mut rng: StdRng = streams.stream("faults/crash");
            let mean_gap = 60.0 / config.component_crash_per_min;
            let mut t = SimTime::ZERO;
            loop {
                t += sample_exp(&mut rng, mean_gap);
                if t >= end {
                    break;
                }
                let node = rng.gen_range(0..node_count as u32);
                let ordinal: u64 = rng.gen();
                events.push((t, events.len() as u64, FaultKind::ComponentCrash { node, ordinal }));
            }
        }

        // Partition/heal pairs. The cut is a contiguous index down-set
        // of roughly a quarter of the overlay (at least one node, at
        // most half), so repair traffic genuinely has to route around
        // it. Overlapping partitions are allowed — the consuming layer
        // refcounts crossing links — but the plan avoids re-cutting a
        // window it still has open, mirroring the node/link classes.
        if config.partition_per_min > 0.0 && node_count > 1 {
            let mut rng: StdRng = streams.stream("faults/partition");
            let mean_gap = 60.0 / config.partition_per_min;
            let span = ((node_count / 4).max(1)).min(node_count / 2).max(1) as u32;
            let mut open_until = SimTime::ZERO;
            let mut t = SimTime::ZERO;
            loop {
                t += sample_exp(&mut rng, mean_gap);
                if t >= end {
                    break;
                }
                if open_until > t {
                    continue;
                }
                let first = rng.gen_range(0..(node_count as u32).saturating_sub(span).max(1));
                let duration = sample_exp(&mut rng, config.mean_partition_duration.as_secs_f64());
                let back = t + duration;
                open_until = back;
                events.push((t, events.len() as u64, FaultKind::Partition { first, count: span }));
                if back < end {
                    events.push((back, events.len() as u64, FaultKind::PartitionHeal { first, count: span }));
                }
            }
        }

        // Total order: time, then per-class generation sequence. The seq
        // tiebreak makes simultaneous events (vanishingly rare but
        // possible after quantisation) deterministic.
        events.sort_by_key(|e| (e.0, e.1));
        FaultPlan { events: events.into_iter().map(|(time, _, kind)| FaultEvent { time, kind }).collect() }
    }

    /// The scheduled events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events per class name — for asserting a soak exercised enough
    /// distinct fault types.
    pub(crate) fn kind_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for e in &self.events {
            let class = e.kind.class();
            match counts.iter_mut().find(|(c, _)| *c == class) {
                Some((_, n)) => *n += 1,
                None => counts.push((class, 1)),
            }
        }
        counts
    }

    /// Number of distinct fault classes in the plan.
    pub fn distinct_kinds(&self) -> usize {
        self.kind_counts().len()
    }

    /// FNV-1a digest over the full schedule (times, kinds, victims,
    /// factor bits) — byte-identical plans have equal digests.
    pub fn digest(&self) -> u64 {
        let mut h = digest::OFFSET;
        let mut mix = |x: u64| h = digest::mix(h, x);
        for e in &self.events {
            mix(e.time.as_micros());
            match e.kind {
                FaultKind::NodeFail { node } => {
                    mix(1);
                    mix(node as u64);
                }
                FaultKind::NodeRecover { node } => {
                    mix(2);
                    mix(node as u64);
                }
                FaultKind::LinkDegrade { link, factor } => {
                    mix(3);
                    mix(link as u64);
                    mix(factor.to_bits());
                }
                FaultKind::LinkFail { link } => {
                    mix(4);
                    mix(link as u64);
                }
                FaultKind::LinkRestore { link } => {
                    mix(5);
                    mix(link as u64);
                }
                FaultKind::ComponentCrash { node, ordinal } => {
                    mix(6);
                    mix(node as u64);
                    mix(ordinal);
                }
                FaultKind::Partition { first, count } => {
                    mix(7);
                    mix(first as u64);
                    mix(count as u64);
                }
                FaultKind::PartitionHeal { first, count } => {
                    mix(8);
                    mix(first as u64);
                    mix(count as u64);
                }
            }
        }
        h
    }

    /// Wraps the plan in a replay cursor.
    pub fn into_scheduler(self) -> FaultScheduler {
        FaultScheduler { plan: self, cursor: 0 }
    }
}

/// Per-message fault rates for the two-phase session-setup protocol.
///
/// Probes and confirmations travel as messages; each class below is the
/// probability that a given message suffers that fault. `0.0` disables a
/// class, and — critically for the zero-fault equivalence contract — a
/// disabled class consumes **no** randomness, so a run with every rate
/// at zero is byte-identical to a run without the injector at all.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageFaultConfig {
    /// Probability a forwarded probe is silently dropped in transit.
    pub probe_drop: f64,
    /// Probability the session-confirmation message is lost, leaving the
    /// winning composition's reservations orphaned until they expire.
    pub confirm_loss: f64,
    /// Probability a *lost* confirmation later resurfaces as a stale
    /// acknowledgement after the requester has already moved on.
    pub stale_ack: f64,
}

impl Default for MessageFaultConfig {
    fn default() -> Self {
        MessageFaultConfig {
            probe_drop: 0.0,
            confirm_loss: 0.0,
            stale_ack: 0.0,
        }
    }
}

/// Seeded per-message fault sampler for the setup protocol.
///
/// Each fault class draws from its own [`DeterministicRng`] stream, so
/// enabling or re-rating one class never perturbs another's decision
/// sequence (the same stream-isolation property [`FaultPlan`] has). A
/// class whose rate is zero short-circuits without touching its rng.
#[derive(Debug, Clone)]
pub struct MessageFaultInjector {
    config: MessageFaultConfig,
    probe_drop_rng: StdRng,
    confirm_rng: StdRng,
    stale_rng: StdRng,
}

impl MessageFaultInjector {
    /// Builds an injector from the `"msg"` stream family of `seed`.
    pub fn new(seed: u64, config: MessageFaultConfig) -> Self {
        let streams = DeterministicRng::new(seed);
        MessageFaultInjector {
            config,
            probe_drop_rng: streams.stream("msg/probe-drop"),
            confirm_rng: streams.stream("msg/confirm"),
            stale_rng: streams.stream("msg/stale-ack"),
        }
    }

    /// Does this forwarded probe get dropped in transit?
    pub fn probe_dropped(&mut self) -> bool {
        if self.config.probe_drop <= 0.0 {
            return false;
        }
        self.probe_drop_rng.gen::<f64>() < self.config.probe_drop
    }

    /// Does this session-confirmation message get lost in transit?
    pub fn confirm_lost(&mut self) -> bool {
        if self.config.confirm_loss <= 0.0 {
            return false;
        }
        self.confirm_rng.gen::<f64>() < self.config.confirm_loss
    }

    /// Does a lost confirmation later resurface as a stale ack?
    pub fn stale_ack_resurfaces(&mut self) -> bool {
        if self.config.stale_ack <= 0.0 {
            return false;
        }
        self.stale_rng.gen::<f64>() < self.config.stale_ack
    }
}

/// Replay cursor over a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScheduler {
    plan: FaultPlan,
    cursor: usize,
}

impl FaultScheduler {
    /// Timestamp of the next undelivered event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.plan.events.get(self.cursor).map(|e| e.time)
    }

    /// Delivers every event scheduled at or before `now`, in order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<FaultEvent> {
        let start = self.cursor;
        while self.cursor < self.plan.events.len() && self.plan.events[self.cursor].time <= now {
            self.cursor += 1;
        }
        self.plan.events[start..self.cursor].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(seed, &FaultPlanConfig::default(), 20, 40, SimDuration::from_minutes(60))
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = plan(42);
        let b = plan(42);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert!(!a.is_empty(), "an hour at default rates schedules something");
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(plan(1).digest(), plan(2).digest());
    }

    #[test]
    fn events_are_time_ordered_within_horizon() {
        let p = plan(7);
        let end = SimTime::ZERO + SimDuration::from_minutes(60);
        let mut last = SimTime::ZERO;
        for e in p.events() {
            assert!(e.time >= last, "events must be sorted");
            assert!(e.time < end, "no event beyond the horizon");
            last = e.time;
        }
    }

    #[test]
    fn fails_pair_with_recoveries() {
        let p = plan(11);
        // Every node that fails and whose downtime ends inside the
        // horizon recovers; a node never fails twice without recovering
        // in between.
        let mut down = std::collections::HashSet::new();
        for e in p.events() {
            match e.kind {
                FaultKind::NodeFail { node } => {
                    assert!(down.insert(node), "node {node} failed while already down");
                }
                FaultKind::NodeRecover { node } => {
                    assert!(down.remove(&node), "node {node} recovered while up");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn zero_rates_schedule_nothing() {
        let config = FaultPlanConfig::default().scaled(0.0);
        let p = FaultPlan::generate(3, &config, 20, 40, SimDuration::from_minutes(60));
        assert!(p.is_empty());
        assert_eq!(p.distinct_kinds(), 0);
    }

    #[test]
    fn default_config_covers_all_classes() {
        // A long horizon at default rates exercises every fault class.
        let p = FaultPlan::generate(
            5,
            &FaultPlanConfig::default(),
            30,
            60,
            SimDuration::from_minutes(240),
        );
        assert!(p.distinct_kinds() >= 5, "kinds: {:?}", p.kind_counts());
    }

    #[test]
    fn degrade_factors_stay_in_range() {
        let p = plan(13);
        for e in p.events() {
            if let FaultKind::LinkDegrade { factor, .. } = e.kind {
                assert!((0.1..0.6).contains(&factor), "factor {factor}");
            }
        }
    }

    #[test]
    fn scheduler_delivers_in_order_and_once() {
        let p = plan(17);
        let total = p.len();
        let mut sched = p.into_scheduler();
        let mut delivered = 0;
        while let Some(now) = sched.next_time() {
            let batch = sched.pop_due(now);
            assert!(!batch.is_empty());
            for e in &batch {
                assert!(e.time <= now);
            }
            delivered += batch.len();
        }
        assert_eq!(delivered, total);
        assert!(sched.pop_due(SimTime::MAX).is_empty());
    }

    #[test]
    fn scaled_rates_scale_event_count() {
        let base = FaultPlanConfig::default();
        let lo = FaultPlan::generate(9, &base.scaled(0.5), 20, 40, SimDuration::from_minutes(120));
        let hi = FaultPlan::generate(9, &base.scaled(4.0), 20, 40, SimDuration::from_minutes(120));
        assert!(hi.len() > lo.len() * 2, "hi {} vs lo {}", hi.len(), lo.len());
    }

    #[test]
    fn partitions_are_off_by_default_and_pair_with_heals() {
        // Default config: no partition events, digests unchanged by the
        // class existing at all.
        let p = plan(42);
        assert!(p.events().iter().all(|e| !matches!(
            e.kind,
            FaultKind::Partition { .. } | FaultKind::PartitionHeal { .. }
        )));
        // Armed: partitions appear, pair with heals, and never overlap.
        let config = FaultPlanConfig { partition_per_min: 0.5, ..FaultPlanConfig::default() };
        let armed = FaultPlan::generate(42, &config, 20, 40, SimDuration::from_minutes(120));
        let mut open: Option<(u32, u32)> = None;
        let mut seen = 0;
        for e in armed.events() {
            match e.kind {
                FaultKind::Partition { first, count } => {
                    assert!(open.is_none(), "partitions must not overlap in-plan");
                    assert!(count >= 1 && (count as usize) <= 10, "span clamp");
                    assert!((first + count) as usize <= 20, "cut stays inside the overlay");
                    open = Some((first, count));
                    seen += 1;
                }
                FaultKind::PartitionHeal { first, count } => {
                    assert_eq!(open.take(), Some((first, count)), "heal must match its cut");
                }
                _ => {}
            }
        }
        assert!(seen > 0, "an armed 2-hour plan partitions at least once");
    }

    #[test]
    fn arming_partitions_leaves_other_classes_untouched() {
        // Per-class streams: the partition class drawing randomness must
        // not perturb any other class's timeline.
        let base = plan(42);
        let config = FaultPlanConfig { partition_per_min: 1.0, ..FaultPlanConfig::default() };
        let armed = FaultPlan::generate(42, &config, 20, 40, SimDuration::from_minutes(60));
        let strip = |p: &FaultPlan| -> Vec<FaultEvent> {
            p.events()
                .iter()
                .filter(|e| !matches!(
                    e.kind,
                    FaultKind::Partition { .. } | FaultKind::PartitionHeal { .. }
                ))
                .copied()
                .collect()
        };
        assert_eq!(strip(&base), strip(&armed));
    }

    #[test]
    fn inert_injector_never_faults() {
        let config = MessageFaultConfig::default();
        assert_eq!((config.probe_drop, config.confirm_loss, config.stale_ack), (0.0, 0.0, 0.0));
        let mut inj = MessageFaultInjector::new(42, config);
        for _ in 0..1000 {
            assert!(!inj.probe_dropped());
            assert!(!inj.confirm_lost());
            assert!(!inj.stale_ack_resurfaces());
        }
    }

    #[test]
    fn disabled_classes_consume_no_randomness() {
        // Drawing a disabled class must not advance its rng: an injector
        // that first answers 1000 disabled-class queries and then has the
        // class enabled continues with the same decision sequence as a
        // fresh injector that never saw the disabled phase.
        let hot =
            MessageFaultConfig { probe_drop: 0.3, ..MessageFaultConfig::default() };
        let mut warmed = MessageFaultInjector::new(7, MessageFaultConfig::default());
        for _ in 0..1000 {
            assert!(!warmed.probe_dropped());
        }
        warmed.config = hot.clone();
        let mut fresh = MessageFaultInjector::new(7, hot);
        for _ in 0..256 {
            assert_eq!(warmed.probe_dropped(), fresh.probe_dropped());
        }
    }

    #[test]
    fn injector_is_deterministic_and_classes_are_independent() {
        let config = MessageFaultConfig { probe_drop: 0.2, confirm_loss: 0.2, stale_ack: 0.5 };
        let mut a = MessageFaultInjector::new(11, config.clone());
        let mut b = MessageFaultInjector::new(11, config.clone());
        // b interleaves heavy draws on *other* classes; the probe-drop
        // sequence must be unaffected (per-class streams).
        for _ in 0..200 {
            let da = a.probe_dropped();
            for _ in 0..3 {
                b.confirm_lost();
                b.stale_ack_resurfaces();
            }
            assert_eq!(da, b.probe_dropped());
        }
        // Different seeds give different sequences.
        let mut c = MessageFaultInjector::new(12, config);
        let seq_a: Vec<bool> = (0..64).map(|_| a.confirm_lost()).collect();
        let seq_c: Vec<bool> = (0..64).map(|_| c.confirm_lost()).collect();
        assert_ne!(seq_a, seq_c, "seed must matter");
    }

    #[test]
    fn fault_rates_approximate_their_configured_probability() {
        let config = MessageFaultConfig { probe_drop: 0.25, ..MessageFaultConfig::default() };
        let mut inj = MessageFaultInjector::new(3, config);
        let n = 10_000;
        let drops = (0..n).filter(|_| inj.probe_dropped()).count();
        let drop_rate = drops as f64 / n as f64;
        assert!((0.22..0.28).contains(&drop_rate), "drop rate {drop_rate}");
    }
}
