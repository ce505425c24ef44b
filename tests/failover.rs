//! Failure-injection integration tests: fail-stop node and link
//! failures, component crashes, link degradation, partitions, session
//! failover, recovery, and post-failure invariants across the whole
//! stack — all through `StreamSystem::apply_fault`, the call a churn
//! scenario replays its fault plan through (see `common::Stack::fail_over`).
//!
//! Invariant checking goes through [`SystemAuditor`] (via
//! `Stack::assert_audit_clean`): resource conservation, Eq. 2/4/5, board
//! coherence, and path-cache purity are asserted as one clean report
//! instead of ad-hoc epsilon loops per test.

mod common;

use acp_stream::prelude::*;
use common::{loaded, meets_its_qos};

#[test]
fn failover_preserves_resource_conservation() {
    let (mut stack, _) = loaded(91, false);
    let victim = OverlayNodeId(3);

    stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(5));
    stack.assert_audit_clean("node failure");

    // Close everything that remains; the auditor's conservation checks
    // then require every surviving node back at full capacity (nothing
    // leaked through the failover path).
    let sids: Vec<SessionId> = stack.system.sessions().map(|s| s.id).collect();
    for sid in sids {
        assert!(stack.system.close_session(sid));
    }
    stack.assert_audit_clean("draining all sessions");
    // The failed node stays dead until explicitly recovered.
    assert!(stack.system.is_node_failed(victim));
}

#[test]
fn recovered_sessions_are_fully_functional() {
    let (mut stack, _) = loaded(92, false);
    let victim = stack
        .system
        .sessions()
        .flat_map(|s| s.composition.assignment.iter().map(|c| c.node))
        .next()
        .expect("sessions exist");
    let (_, fates) = stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(1));
    assert!(fates.iter().any(Option::is_some), "some struck session recomposes");
    for sid in fates.into_iter().flatten() {
        let composition = &stack.system.session(sid).expect("recovered session is live").composition;
        assert!(composition.assignment.iter().all(|c| c.node != victim), "recovered onto the failed node");
        assert!(meets_its_qos(&stack.system, sid), "recovered session {sid} misses its QoS");
    }
    stack.assert_audit_clean("failover recovery");
}

#[test]
fn component_crash_fails_over_its_sessions() {
    let (mut stack, _) = loaded(95, false);
    let victim = stack
        .system
        .sessions()
        .flat_map(|s| s.composition.assignment.iter().copied())
        .next()
        .expect("sessions exist");
    let users = stack.system.sessions().filter(|s| s.composition.assignment.contains(&victim)).count();
    let ordinal = stack.system.node(victim.node).components().position(|c| c.id == victim).expect("live");
    let crash = FaultKind::ComponentCrash { node: victim.node.0, ordinal: ordinal as u64 };
    let (undeployed, fates) = stack.fail_over(crash, SimTime::from_secs(1));
    assert_eq!(undeployed, vec![victim]);
    assert_eq!(fates.len(), users, "every session using the component failed over");
    // The crashed component serves nothing and is gone from discovery.
    assert!(stack.system.sessions().all(|s| !s.composition.assignment.contains(&victim)));
    for f in stack.system.registry().ids() {
        assert!(stack.system.candidates(f).iter().all(|&c| c != victim));
    }
    for sid in fates.into_iter().flatten() {
        assert!(!stack.system.session(sid).unwrap().composition.assignment.contains(&victim));
    }
    stack.assert_audit_clean("component crash");
}

#[test]
fn cascading_failures_degrade_gracefully() {
    let (mut stack, _) = loaded(93, false);
    let nodes: Vec<OverlayNodeId> = stack.system.overlay().nodes().take(10).collect();
    for (i, v) in nodes.into_iter().enumerate() {
        stack.fail_over(FaultKind::NodeFail { node: v.0 }, SimTime::from_secs(i as u64 + 1));
        // Every invariant holds after every failure.
        assert_eq!(stack.system.node(v).component_count(), 0);
        stack.assert_audit_clean("each cascading failure");
    }
    // Some sessions may be lost, but the system keeps composing:
    let (_, _, library) = build_system(&ScenarioConfig::small(93));
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(95).stream("post-failure");
    let mut admitted = 0;
    for _ in 0..20 {
        let (request, _) = generator.next(&mut rng);
        if stack.compose(&request, SimTime::from_minutes(2)).is_some() {
            admitted += 1;
        }
    }
    assert!(admitted > 0, "the surviving 40 nodes still compose requests");
}

#[test]
fn board_reflects_failure_immediately() {
    let (mut stack, _) = loaded(96, false);
    let victim = OverlayNodeId(1);
    let components_before: Vec<ComponentId> =
        stack.system.node(victim).components().map(|c| c.id).collect();
    assert!(!components_before.is_empty());
    stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::ZERO);
    // Coarse board: zero availability, no component entries.
    assert_eq!(stack.board.node_available(victim), ResourceVector::ZERO);
    for c in components_before {
        assert!(stack.board.component_qos(c).is_none(), "stale board entry for {c}");
    }
    // Discovery: the failed node drops out of every function's candidates.
    for f in stack.system.registry().ids() {
        assert!(stack.system.candidates(f).iter().all(|c| c.node != victim), "{f:?} still offers {victim}");
    }
    stack.assert_audit_clean("board refresh on failure");
}

#[test]
fn virtual_link_failure_fails_over_its_sessions() {
    let (mut stack, _) = loaded(97, false);
    // A link some live session actually streams over.
    let victim = stack
        .system
        .sessions()
        .flat_map(|s| s.link_allocations().iter().map(|&(l, _)| l))
        .next()
        .expect("multi-node sessions reserve link bandwidth");
    let using_before =
        stack.system.sessions().filter(|s| s.uses_link(victim)).count();
    assert!(using_before > 0);

    let (_, fates) = stack.fail_over(FaultKind::LinkFail { link: victim.0 }, SimTime::from_secs(3));
    assert_eq!(
        fates.len(),
        using_before,
        "every session over the dead link was either recomposed or lost"
    );
    assert!(stack.system.is_link_failed(victim));
    // Nobody streams over a dead link, and all invariants hold.
    assert_eq!(stack.system.sessions().filter(|s| s.uses_link(victim)).count(), 0);
    stack.assert_audit_clean("virtual link failure");

    // Restoring the link rejoins it to admission.
    stack.fail_over(FaultKind::LinkRestore { link: victim.0 }, SimTime::from_secs(4));
    assert!(!stack.system.is_link_failed(victim));
    stack.assert_audit_clean("link restore");
}

#[test]
fn link_degrade_sheds_the_newest_sessions_until_the_rest_fit() {
    let (mut stack, _) = loaded(97, false);
    // The link carrying the most committed bandwidth.
    let victim = stack
        .system
        .overlay()
        .links()
        .max_by(|&a, &b| stack.system.link_committed(a).total_cmp(&stack.system.link_committed(b)))
        .expect("overlay has links");
    let committed = stack.system.link_committed(victim);
    assert!(committed > 0.0, "the loaded stack streams over some link");
    let mut users: Vec<SessionId> =
        stack.system.sessions().filter(|s| s.uses_link(victim)).map(|s| s.id).collect();
    users.sort_unstable();

    // Shrink the link to just under what it carries: at least the newest
    // user must go, and eviction stops as soon as the rest fit.
    let factor = 0.9 * committed / stack.system.link_capacity(victim);
    let (undeployed, fates) =
        stack.fail_over(FaultKind::LinkDegrade { link: victim.0, factor }, SimTime::from_secs(3));
    let shed = fates.len();
    assert!((1..=users.len()).contains(&shed), "shed {shed} of {} users", users.len());
    assert!(undeployed.is_empty());
    let (kept, evicted) = users.split_at(users.len() - shed);
    assert!(kept.iter().all(|&sid| stack.system.session(sid).is_some()), "older users keep streaming");
    assert!(evicted.iter().all(|&sid| stack.system.session(sid).is_none()), "newest users went first");
    assert!(!stack.system.is_link_failed(victim), "degraded, not failed");
    assert!(stack.system.link_committed(victim) <= stack.system.link_capacity(victim) + 1e-9);
    stack.assert_audit_clean("link degrade");

    stack.fail_over(FaultKind::LinkRestore { link: victim.0 }, SimTime::from_secs(4));
    assert_eq!(stack.board.link_available(victim), stack.system.link_available(victim));
    stack.assert_audit_clean("restore after degrade");
}

#[test]
fn a_partition_holds_its_links_down_until_it_heals() {
    let (mut stack, _) = loaded(94, false);
    let cut = FaultKind::Partition { first: 0, count: 10 };
    let crossing: Vec<OverlayLinkId> = {
        let overlay = stack.system.overlay();
        overlay
            .links()
            .filter(|&l| {
                let (a, b) = overlay.link_endpoints(l);
                (a.0 < 10) != (b.0 < 10)
            })
            .collect()
    };
    assert!(!crossing.is_empty());
    let spanning = stack
        .system
        .sessions()
        .filter(|s| crossing.iter().any(|&l| s.uses_link(l)))
        .count();

    let (_, fates) = stack.fail_over(cut, SimTime::from_secs(1));
    assert_eq!(fates.len(), spanning, "every spanning session failed over");
    assert!(crossing.iter().all(|&l| stack.system.is_link_failed(l)));
    assert!(stack.system.sessions().all(|s| crossing.iter().all(|&l| !s.uses_link(l))));
    stack.assert_audit_clean("partition");

    // An individual restore of a severed link is deferred: the cut holds it.
    stack.fail_over(FaultKind::LinkRestore { link: crossing[0].0 }, SimTime::from_secs(2));
    assert!(stack.system.is_link_failed(crossing[0]), "a live partition holds the link down");
    // Two overlapping cuts: the shared links come back only with the last heal.
    stack.fail_over(cut, SimTime::from_secs(3));
    stack.fail_over(FaultKind::PartitionHeal { first: 0, count: 10 }, SimTime::from_secs(4));
    assert!(crossing.iter().all(|&l| stack.system.is_link_failed(l)), "one cut still stands");
    stack.fail_over(FaultKind::PartitionHeal { first: 0, count: 10 }, SimTime::from_secs(5));
    assert!(crossing.iter().all(|&l| !stack.system.is_link_failed(l)), "healed at zero references");
    stack.assert_audit_clean("partition heal");
}

#[test]
fn node_recovery_makes_freed_capacity_readmittable() {
    let (mut stack, _) = loaded(98, false);
    let victim = OverlayNodeId(2);
    let capacity = stack.system.node(victim).capacity();
    stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(1));
    assert_eq!(stack.board.node_available(victim), ResourceVector::ZERO);

    stack.fail_over(FaultKind::NodeRecover { node: victim.0 }, SimTime::from_secs(2));
    assert!(!stack.system.is_node_failed(victim));
    assert!(!stack.system.overlay().is_node_down(victim), "forwarding plane rejoins");
    // The node lost its components at failure, so recovery returns it
    // at full (empty) capacity — and the board sees that immediately.
    assert_eq!(stack.board.node_available(victim), capacity);
    stack.assert_audit_clean("node recovery");

    // The freed capacity is genuinely re-admittable: keep composing
    // until some new session lands bandwidth or components back on the
    // recovered node (its neighbors' capacity is already loaded, so the
    // composer has every reason to come back).
    let (_, _, library) = build_system(&ScenarioConfig::small(98));
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(981).stream("readmit");
    let mut admitted = 0;
    for _ in 0..40 {
        let (request, _) = generator.next(&mut rng);
        if stack.compose(&request, SimTime::from_minutes(1)).is_some() {
            admitted += 1;
        }
    }
    assert!(admitted > 0, "recovered overlay still admits");
    stack.assert_audit_clean("post-recovery admissions");
}

#[test]
fn path_cache_drops_every_route_through_a_failed_node() {
    let (mut stack, _) = loaded(99, false);
    // Warm the memo across a block of node pairs.
    let nodes: Vec<OverlayNodeId> = stack.system.overlay().nodes().take(12).collect();
    for &a in &nodes {
        for &b in &nodes {
            let _ = stack.system.virtual_path(a, b);
        }
    }
    // Pick a victim that relays some cached path (interior hop), so the
    // targeted invalidation has real work to do; fall back to an
    // endpoint if the mesh never relays within the warmed block.
    let victim = stack
        .system
        .overlay()
        .cached_paths()
        .filter_map(|(_, p)| p)
        .flat_map(|p| p.nodes.iter().copied())
        .find(|v| v.index() >= nodes.len())
        .unwrap_or(nodes[1]);

    let warm = stack.system.path_cache_stats();
    stack.fail_over(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(2));

    // Targeted invalidation: no surviving entry starts at, ends at, or
    // relays through the victim…
    for ((from, to), path) in stack.system.overlay().cached_paths() {
        assert_ne!(from, victim, "stale entry keyed by failed source");
        assert_ne!(to, victim, "stale entry keyed by failed target");
        if let Some(p) = path {
            assert!(!p.nodes.contains(&victim), "cached route relays through failed {victim}");
        }
    }
    stack.assert_audit_clean("cache invalidation on failure");

    // …while untouched entries survive: re-probing a pair that never
    // met the victim is a hit, and a pair the victim served is a miss
    // (recomputed around it, or a refused endpoint).
    let (hit_pair, miss_pair) = {
        let survivor: Vec<OverlayNodeId> =
            nodes.iter().copied().filter(|&v| v != victim).take(2).collect();
        ((survivor[0], survivor[0]), (survivor[0], survivor[1]))
    };
    let before = stack.system.path_cache_stats();
    assert!(before.misses >= warm.misses);
    let _ = stack.system.virtual_path(hit_pair.0, hit_pair.1);
    let after_hit = stack.system.path_cache_stats();
    assert_eq!(after_hit.hits, before.hits + 1, "self-path entry must have survived");
    let _ = stack.system.virtual_path(miss_pair.0, miss_pair.1);
    let _ = stack.system.virtual_path(miss_pair.0, miss_pair.1);
    let final_stats = stack.system.path_cache_stats();
    assert!(final_stats.hits > after_hit.hits, "re-queried pair must be memoized again");
}
