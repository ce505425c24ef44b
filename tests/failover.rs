//! Failure-injection integration tests: fail-stop node and link
//! failures, link degradation, partitions, session failover, recovery,
//! and post-failure invariants across the whole stack — all through
//! [`Middleware::handle_fault`], the same `StreamSystem::apply_fault`
//! call a churn scenario replays its fault plan through.
//!
//! Invariant checking goes through [`SystemAuditor`] (via
//! [`Middleware::audit`]): resource conservation, Eq. 2/4/5, board
//! coherence, and path-cache purity are asserted as one clean report
//! instead of ad-hoc epsilon loops per test.

mod common;

use acp_stream::prelude::*;
use common::{assert_audit_clean, loaded_middleware};

#[test]
fn failover_preserves_resource_conservation() {
    let (mut mw, _sessions) = loaded_middleware(91);
    let victim = OverlayNodeId(3);

    let report = mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(5));
    assert_audit_clean(&mw, "node failure");

    // Close everything that remains; the auditor's conservation checks
    // then require every surviving node back at full capacity (nothing
    // leaked through the failover path).
    let sids: Vec<SessionId> = mw.system().sessions().map(|s| s.id).collect();
    for sid in sids {
        assert!(mw.close(sid));
    }
    assert_audit_clean(&mw, "draining all sessions");
    // The failed node stays dead until explicitly recovered.
    assert!(mw.system().is_node_failed(victim));
    let _ = report;
}

#[test]
fn recovered_sessions_are_fully_functional() {
    let (mut mw, _) = loaded_middleware(92);
    let victim = mw
        .system()
        .sessions()
        .flat_map(|s| s.composition.assignment.iter().map(|c| c.node))
        .next()
        .expect("sessions exist");
    let report = mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(1));
    for &(_, sid) in &report.recovered {
        let processed = mw.process(sid, 500).expect("recovered session processes");
        assert!(processed.expected_units_out > 0.0);
    }
    assert_audit_clean(&mw, "failover recovery");
}

#[test]
fn cascading_failures_degrade_gracefully() {
    let (mut mw, _) = loaded_middleware(93);
    let nodes: Vec<OverlayNodeId> = mw.system().overlay().nodes().take(10).collect();
    let mut lost_total = 0;
    for (i, v) in nodes.into_iter().enumerate() {
        let report = mw.handle_fault(FaultKind::NodeFail { node: v.0 }, SimTime::from_secs(i as u64 + 1));
        lost_total += report.lost.len();
        // Every invariant holds after every failure.
        assert_eq!(mw.system().node(v).component_count(), 0);
        assert_audit_clean(&mw, "each cascading failure");
    }
    // Some sessions may be lost, but the middleware keeps functioning:
    let _ = lost_total;
    let (_, _, library) = build_system(&ScenarioConfig::small(93));
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(95).stream("post-failure");
    let mut admitted = 0;
    for _ in 0..20 {
        let (request, _) = generator.next(&mut rng);
        if mw.find(&request, SimTime::from_minutes(2)).is_some() {
            admitted += 1;
        }
    }
    assert!(admitted > 0, "the surviving 40 nodes still compose requests");
}

#[test]
fn board_reflects_failure_immediately() {
    let (mut mw, _) = loaded_middleware(96);
    let victim = OverlayNodeId(1);
    let components_before: Vec<ComponentId> =
        mw.system().node(victim).components().map(|c| c.id).collect();
    assert!(!components_before.is_empty());
    mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::ZERO);
    // Coarse board: zero availability, no component entries.
    assert_eq!(mw.board().node_available(victim), ResourceVector::ZERO);
    for c in components_before {
        assert!(mw.board().component_qos(c).is_none(), "stale board entry for {c}");
    }
    assert_audit_clean(&mw, "board refresh on failure");
}

#[test]
fn virtual_link_failure_fails_over_its_sessions() {
    let (mut mw, _) = loaded_middleware(97);
    // A link some live session actually streams over.
    let victim = mw
        .system()
        .sessions()
        .flat_map(|s| s.link_allocations().iter().map(|&(l, _)| l))
        .next()
        .expect("multi-node sessions reserve link bandwidth");
    let using_before =
        mw.system().sessions().filter(|s| s.uses_link(victim)).count();
    assert!(using_before > 0);

    let report = mw.handle_fault(FaultKind::LinkFail { link: victim.0 }, SimTime::from_secs(3));
    assert_eq!(
        report.recovered.len() + report.lost.len(),
        using_before,
        "every session over the dead link was either recomposed or lost"
    );
    assert!(mw.system().is_link_failed(victim));
    // Nobody streams over a dead link, and all invariants hold.
    assert_eq!(mw.system().sessions().filter(|s| s.uses_link(victim)).count(), 0);
    assert_audit_clean(&mw, "virtual link failure");

    // Restoring the link rejoins it to admission.
    mw.handle_fault(FaultKind::LinkRestore { link: victim.0 }, SimTime::from_secs(4));
    assert!(!mw.system().is_link_failed(victim));
    assert_audit_clean(&mw, "link restore");
}

#[test]
fn link_degrade_sheds_the_newest_sessions_until_the_rest_fit() {
    let (mut mw, _) = loaded_middleware(97);
    // The link carrying the most committed bandwidth.
    let victim = mw
        .system()
        .overlay()
        .links()
        .max_by(|&a, &b| mw.system().link_committed(a).total_cmp(&mw.system().link_committed(b)))
        .expect("overlay has links");
    let committed = mw.system().link_committed(victim);
    assert!(committed > 0.0, "loaded middleware streams over some link");
    let mut users: Vec<SessionId> =
        mw.system().sessions().filter(|s| s.uses_link(victim)).map(|s| s.id).collect();
    users.sort_unstable();

    // Shrink the link to just under what it carries: at least the newest
    // user must go, and eviction stops as soon as the rest fit.
    let factor = 0.9 * committed / mw.system().link_capacity(victim);
    let report = mw.handle_fault(FaultKind::LinkDegrade { link: victim.0, factor }, SimTime::from_secs(3));
    let shed = report.recovered.len() + report.lost.len();
    assert!((1..=users.len()).contains(&shed), "shed {shed} of {} users", users.len());
    assert!(report.undeployed.is_empty());
    let (kept, evicted) = users.split_at(users.len() - shed);
    assert!(kept.iter().all(|&sid| mw.system().session(sid).is_some()), "older users keep streaming");
    assert!(evicted.iter().all(|&sid| mw.system().session(sid).is_none()), "newest users went first");
    assert!(!mw.system().is_link_failed(victim), "degraded, not failed");
    assert!(mw.system().link_committed(victim) <= mw.system().link_capacity(victim) + 1e-9);
    assert_audit_clean(&mw, "link degrade");

    mw.handle_fault(FaultKind::LinkRestore { link: victim.0 }, SimTime::from_secs(4));
    assert_eq!(mw.board().link_available(victim), mw.system().link_available(victim));
    assert_audit_clean(&mw, "restore after degrade");
}

#[test]
fn a_partition_holds_its_links_down_until_it_heals() {
    let (mut mw, _) = loaded_middleware(94);
    let cut = FaultKind::Partition { first: 0, count: 10 };
    let crossing: Vec<OverlayLinkId> = {
        let overlay = mw.system().overlay();
        overlay
            .links()
            .filter(|&l| {
                let (a, b) = overlay.link_endpoints(l);
                (a.0 < 10) != (b.0 < 10)
            })
            .collect()
    };
    assert!(!crossing.is_empty());
    let spanning = mw
        .system()
        .sessions()
        .filter(|s| crossing.iter().any(|&l| s.uses_link(l)))
        .count();

    let report = mw.handle_fault(cut, SimTime::from_secs(1));
    assert_eq!(report.recovered.len() + report.lost.len(), spanning, "every spanning session failed over");
    assert!(crossing.iter().all(|&l| mw.system().is_link_failed(l)));
    assert!(mw.system().sessions().all(|s| crossing.iter().all(|&l| !s.uses_link(l))));
    assert_audit_clean(&mw, "partition");

    // An individual restore of a severed link is deferred: the cut holds it.
    mw.handle_fault(FaultKind::LinkRestore { link: crossing[0].0 }, SimTime::from_secs(2));
    assert!(mw.system().is_link_failed(crossing[0]), "a live partition holds the link down");
    // Two overlapping cuts: the shared links come back only with the last heal.
    mw.handle_fault(cut, SimTime::from_secs(3));
    mw.handle_fault(FaultKind::PartitionHeal { first: 0, count: 10 }, SimTime::from_secs(4));
    assert!(crossing.iter().all(|&l| mw.system().is_link_failed(l)), "one cut still stands");
    mw.handle_fault(FaultKind::PartitionHeal { first: 0, count: 10 }, SimTime::from_secs(5));
    assert!(crossing.iter().all(|&l| !mw.system().is_link_failed(l)), "healed at zero references");
    assert_audit_clean(&mw, "partition heal");
}

#[test]
fn node_recovery_makes_freed_capacity_readmittable() {
    let (mut mw, _) = loaded_middleware(98);
    let victim = OverlayNodeId(2);
    let capacity = mw.system().node(victim).capacity();
    mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(1));
    assert_eq!(mw.board().node_available(victim), ResourceVector::ZERO);

    mw.handle_fault(FaultKind::NodeRecover { node: victim.0 }, SimTime::from_secs(2));
    assert!(!mw.system().is_node_failed(victim));
    assert!(!mw.system().overlay().is_node_down(victim), "forwarding plane rejoins");
    // The node lost its components at failure, so recovery returns it
    // at full (empty) capacity — and the board sees that immediately.
    assert_eq!(mw.board().node_available(victim), capacity);
    assert_audit_clean(&mw, "node recovery");

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
        if mw.find(&request, SimTime::from_minutes(1)).is_some() {
            admitted += 1;
        }
    }
    assert!(admitted > 0, "recovered overlay still admits");
    assert_audit_clean(&mw, "post-recovery admissions");
}

#[test]
fn path_cache_drops_every_route_through_a_failed_node() {
    let (mut mw, _) = loaded_middleware(99);
    // Warm the memo across a block of node pairs.
    let nodes: Vec<OverlayNodeId> = mw.system().overlay().nodes().take(12).collect();
    for &a in &nodes {
        for &b in &nodes {
            let _ = mw.system_mut().virtual_path(a, b);
        }
    }
    // Pick a victim that relays some cached path (interior hop), so the
    // targeted invalidation has real work to do; fall back to an
    // endpoint if the mesh never relays within the warmed block.
    let victim = mw
        .system()
        .overlay()
        .cached_paths()
        .filter_map(|(_, p)| p)
        .flat_map(|p| p.nodes.iter().copied())
        .find(|v| v.index() >= nodes.len())
        .unwrap_or(nodes[1]);

    let warm = mw.system().path_cache_stats();
    mw.handle_fault(FaultKind::NodeFail { node: victim.0 }, SimTime::from_secs(2));

    // Targeted invalidation: no surviving entry starts at, ends at, or
    // relays through the victim…
    for ((from, to), path) in mw.system().overlay().cached_paths() {
        assert_ne!(from, victim, "stale entry keyed by failed source");
        assert_ne!(to, victim, "stale entry keyed by failed target");
        if let Some(p) = path {
            assert!(!p.nodes.contains(&victim), "cached route relays through failed {victim}");
        }
    }
    assert_audit_clean(&mw, "cache invalidation on failure");

    // …while untouched entries survive: re-probing a pair that never
    // met the victim is a hit, and a pair the victim served is a miss
    // (recomputed around it, or a refused endpoint).
    let (hit_pair, miss_pair) = {
        let survivor: Vec<OverlayNodeId> =
            nodes.iter().copied().filter(|&v| v != victim).take(2).collect();
        ((survivor[0], survivor[0]), (survivor[0], survivor[1]))
    };
    let before = mw.system().path_cache_stats();
    assert!(before.misses >= warm.misses);
    let _ = mw.system_mut().virtual_path(hit_pair.0, hit_pair.1);
    let after_hit = mw.system().path_cache_stats();
    assert_eq!(after_hit.hits, before.hits + 1, "self-path entry must have survived");
    let _ = mw.system_mut().virtual_path(miss_pair.0, miss_pair.1);
    let _ = mw.system_mut().virtual_path(miss_pair.0, miss_pair.1);
    let final_stats = mw.system().path_cache_stats();
    assert!(final_stats.hits > after_hit.hits, "re-queried pair must be memoized again");
}
