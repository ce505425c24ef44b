//! Quickstart: build a distributed stream-processing system, compose one
//! application with ACP, read its end-to-end QoS, tear it down.
//!
//! Run with: `cargo run --release --example quickstart`

use acp_stream::prelude::*;

fn main() {
    // A laptop-scale system: 50 stream-processing nodes selected from a
    // 400-node power-law IP graph, 20 functions, 3–5 components per node.
    let config = ScenarioConfig::small(7);
    let (mut system, board, library) = build_system(&config);
    println!(
        "system: {} stream nodes, {} overlay links, {} functions, {} templates",
        system.node_count(),
        system.overlay().link_count(),
        system.registry().len(),
        library.len(),
    );

    // Draw a request from the template library: a function graph plus QoS
    // and resource requirements.
    let mut generator = RequestGenerator::new(library, RequestConfig::default());
    let mut rng = DeterministicRng::new(7).stream("quickstart");
    let (request, _session_duration) = generator.next(&mut rng);
    println!(
        "\nrequest {}: {} functions, {} ({} branch path(s))",
        request.id,
        request.graph.len(),
        request.qos,
        request.graph.source_to_sink_paths().len(),
    );

    // Find (§2.2): run adaptive composition probing.
    let mut acp = AcpComposer::new(ProbingConfig::default(), 42);
    let outcome = acp.compose(&mut system, &board, &request, SimTime::ZERO);
    let Some(session) = outcome.session else {
        println!("composition failed — no qualified component graph");
        return;
    };
    let record = system.session(session).expect("just created");
    println!("\ncomposed session {session}:");
    for (v, component) in record.composition.assignment.iter().enumerate() {
        let f = request.graph.function(v);
        let name = &system.registry().profile(f).name;
        println!("  vertex {v} ({name}) -> component {component} on node v{}", component.node.0);
    }
    for (e, path) in record.composition.links.iter().enumerate() {
        if path.is_colocated() {
            println!("  edge {e}: co-located (zero network cost)");
        } else {
            println!("  edge {e}: {} overlay hop(s), delay {}", path.hop_count(), path.delay);
        }
    }

    // Process: the session's end-to-end QoS along its critical path
    // (Eq. 3), at the system's current load.
    let qos = record.composition.aggregated_qos(&request.graph, |c| system.effective_component_qos(c));
    println!(
        "\nend-to-end: delay {}, loss {:.2}% (required: {})",
        qos.delay,
        qos.loss.probability() * 100.0,
        request.qos,
    );
    assert!(qos.satisfies(&request.qos), "a committed session meets its requirement (Eq. 3)");

    // Close: tear the session down, releasing every allocation.
    assert!(system.close_session(session));
    println!("\nsession closed; probing cost: {} probe messages", outcome.stats.probe_messages);
}
