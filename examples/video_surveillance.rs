//! Video surveillance — the paper's motivating DAG workload (Fig. 1c).
//!
//! Builds the split–merge application from the paper's function-graph
//! example: a camera stream is filtered and split; one branch runs face
//! recognition, the other speech recognition; the branches merge into a
//! correlation stage that raises alerts. Components for each stage are
//! scattered across the overlay, and ACP must pick a component graph that
//! satisfies a latency bound while balancing load.
//!
//! Run with: `cargo run --release --example video_surveillance`

use acp_stream::prelude::*;

fn main() {
    let config = ScenarioConfig::small(21);
    let (mut system, board, _library) = build_system(&config);

    // Pick concrete functions by operator family to mirror Fig. 1(c):
    // filter → split(transcode) → {analyze-a | analyze-b} → correlate.
    let by_category = |cat: FunctionCategory, skip: usize| -> FunctionId {
        system
            .registry()
            .iter()
            .filter(|p| p.category == cat && !system.candidates(p.id).is_empty())
            .nth(skip)
            .unwrap_or_else(|| panic!("no deployed {cat:?} function"))
            .id
    };
    let filtering = by_category(FunctionCategory::Filter, 0);
    let split = by_category(FunctionCategory::Transcode, 0);
    let face_recognition = by_category(FunctionCategory::Analyze, 0);
    let speech_recognition = by_category(FunctionCategory::Analyze, 1);
    let correlate = by_category(FunctionCategory::Correlate, 0);

    let graph = FunctionGraph::split_merge(
        vec![filtering, split],
        vec![face_recognition],
        vec![speech_recognition],
        correlate,
        vec![],
    );
    println!("function graph: {} vertices, {} branch paths", graph.len(), graph.source_to_sink_paths().len());

    let request = Request {
        id: RequestId(1),
        graph,
        qos: QosRequirement::new(SimDuration::from_millis(350), LossRate::from_probability(0.05)),
        base_resources: ResourceVector::new(3.0, 24.0),
        bandwidth_kbps: 350.0, // a surveillance-grade video stream
        stream_rate_kbps: 320.0,
        tenant: None,
    };

    // Compose with ACP and with the random baseline on copies of one
    // system.
    let mut acp = AcpComposer::new(ProbingConfig::default(), 11);
    let mut acp_system = system.clone();
    let acp_out = acp.compose(&mut acp_system, &board, &request, SimTime::ZERO);

    let mut random = BlindComposer::random(11);
    let rnd_out = random.compose(&mut system, &board, &request, SimTime::ZERO);

    match acp_out.session {
        Some(sid) => {
            let record = acp_system.session(sid).expect("live");
            println!("\nACP composed the surveillance pipeline:");
            for (v, c) in record.composition.assignment.iter().enumerate() {
                let f = record.composition.assignment[v];
                println!(
                    "  {} -> node v{} ({})",
                    acp_system.registry().profile(acp_system.component(f).function).name,
                    c.node.0,
                    acp_system.node_available(c.node),
                );
            }
            println!(
                "  probes sent: {}, probes dropped: {}",
                acp_out.stats.probe_messages, acp_out.stats.probes_dropped
            );
        }
        None => println!("\nACP could not satisfy the latency bound"),
    }

    match rnd_out.session {
        Some(_) => println!("random baseline also found *a* composition (not necessarily balanced)"),
        None => println!("random baseline failed the same request"),
    }

    // Saturate the system with surveillance sessions. The board is never
    // refreshed, so ACP ranks every request's candidates on the state
    // published before the first one; random selection reads no board.
    println!("\nsaturation test (100 surveillance requests each, board never refreshed):");
    let mut admitted = Vec::new();
    for (label, kind) in [("ACP   ", AlgorithmKind::Acp), ("random", AlgorithmKind::Random)] {
        let (mut sys, board, _) = build_system(&config);
        let mut composer = kind.build(ProbingConfig::default(), 99);
        let mut ok = 0;
        for i in 0..100u64 {
            let mut req = request.clone();
            req.id = RequestId(100 + i);
            if composer.compose(&mut sys, &board, &req, SimTime::ZERO).session.is_some() {
                ok += 1;
            }
        }
        println!("  {label}: {ok}/100 admitted");
        admitted.push(ok);
    }
    let (acp_ok, random_ok) = (admitted[0], admitted[1]);
    assert!(acp_ok < random_ok, "ACP {acp_ok} vs random {random_ok}: update the prose below");
    println!(
        "\non a board that is never refreshed ACP ranks on the state \
         published before the first request and admits fewer sessions than \
         random placement (stock_monitoring refreshes the board after every \
         request)."
    );
}
