//! `scale_churn`: the ROADMAP's scale ceiling. Selection does most of
//! the work; probing and routing do none.
//!
//! A 20 000-node synthetic overlay, the standard 80-function registry,
//! 3–5 components per node (k ≈ 1 000 candidates per function) and
//! single-function requests. Each arrival runs ranked selection over the
//! candidate index and commits the best candidate; once 100 000 sessions
//! are live the oldest is closed first, and the board refreshes once per
//! simulated-minute epoch. The timed region is the ramp plus 10 000
//! close/commit pairs — the definition of the `fig_scale` rows in
//! BENCH_6/7, so that lineage continues.
//!
//! Why: it uses the board and the session arena differently from
//! `paper_steady`. Large-k index *reads* run beside index *writes* under
//! churn, and commit runs beside close; a selection speed-up that makes
//! index maintenance or close slower shows here. There are no virtual
//! links, so the path memo sees zero lookups.

use std::collections::VecDeque;
use std::time::Instant;

use super::{
    p999, panel_seed, peak_rss_mib, timed, Digest, LatencySummary, Outcome, RunOptions, Size,
};
use crate::json::Json;
use crate::metrics::ratio;
use crate::stats;
use crate::sut::{
    select_candidates_with, session_digest, Composition, DeterministicRng, FunctionRegistry,
    GlobalStateBoard, GlobalStateConfig, HopContext, HopSelection, OverheadStats, Overlay,
    RateSchedule, RequestConfig, RequestGenerator, SeedableRng, SelectionScratch, SessionId,
    SimDuration, SimTime, StdRng, StreamSystem, StreamingArrivals, SystemAuditor, SystemConfig,
    TemplateLibrary,
};
use crate::trace::{Span, Spans, NO_REQUEST};

/// Frozen sizes.
struct Sizes {
    nodes: usize,
    /// Concurrent sessions held during churn.
    live: usize,
    /// Close/commit pairs of base work after the ramp.
    churn: usize,
    /// Arrivals per simulated minute; the clock is virtual, so this only
    /// sets how many arrivals share one board refresh.
    rate: f64,
}

impl Sizes {
    fn of(size: Size) -> Sizes {
        match size {
            // ≈ 22 s: ~4.7k selections/s, 185 index entries examined each.
            Size::Full => Sizes {
                nodes: 20_000,
                live: 100_000,
                churn: 10_000,
                rate: 2_200.0,
            },
            Size::Smoke => Sizes {
                nodes: 500,
                live: 2_000,
                churn: 500,
                rate: 100.0,
            },
        }
    }
}

/// Extra long-range links per node of the synthetic ring.
const CHORDS: usize = 2;
/// Ranked selection returns about this many candidates per request.
const QUOTA_TARGET: f64 = 8.0;
const RISK_EPSILON: f64 = 0.01;
/// Builds per run; `setup_s` is their [`stats::fast_cost`].
const SETUPS: usize = 16;
/// Requests per slice: the unit timed metrics take their calm twentieth
/// over (≈ 0.2 s; the per-slice p99 leaves exactly ten samples beyond).
const SLICE: usize = 1_000;

/// The request distributions of `fig_scale` (`crates/bench/src/scale.rs`,
/// `scale_request_config`), copied by value: tiny demands so 100k
/// sessions co-exist, a binding delay requirement so the index's
/// delay-ordered early exit engages, a slack loss requirement.
fn request_config() -> RequestConfig {
    RequestConfig {
        per_hop_delay_ms: (150.0, 300.0),
        max_loss: (0.5, 0.9),
        base_cpu: (0.01, 0.05),
        base_memory_mb: (0.05, 0.20),
        bandwidth_kbps: (1.0, 5.0),
        stream_rate_kbps: (50.0, 400.0),
        session_minutes: (5.0, 15.0),
        ..RequestConfig::default()
    }
}

/// Topology + overlay + system + board: the panel's one deployment.
fn build(sizes: &Sizes) -> (StreamSystem, GlobalStateBoard) {
    let mut rng = StdRng::seed_from_u64(panel_seed("scale_churn", 0));
    let overlay = Overlay::synthetic(sizes.nodes, CHORDS, &mut rng);
    let config = SystemConfig {
        components_per_node: (3, 5),
        ..SystemConfig::default()
    };
    let system = StreamSystem::generate(overlay, FunctionRegistry::standard(), &config, &mut rng);
    let board = GlobalStateBoard::new(&system, GlobalStateConfig::default());
    (system, board)
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    committed: u64,
    closed: u64,
    rejected: u64,
    close_failures: u64,
    /// Candidates ranked selection returned: the probes the protocol
    /// would send for this hop.
    plans: u64,
    update_msgs: u64,
    stats: OverheadStats,
}

impl Counters {
    fn requests(&self) -> u64 {
        self.committed + self.rejected
    }
    fn ops(&self) -> u64 {
        self.committed + self.closed
    }
}

pub fn run<S: Spans>(opts: &RunOptions, spans: &mut S) -> Outcome {
    let sizes = Sizes::of(opts.size);
    let traced_run = spans.active();
    // The request stream (and selection's tie-breaking draws) is the
    // seeded input; the deployment is the panel's.
    let mut rng = StdRng::seed_from_u64(DeterministicRng::new(opts.seed).seed_for("scale_churn"));
    let mut outcome = Outcome::new();
    spans.enter(Span::Cell, NO_REQUEST);

    // Set-up, several times over; the last build is the one measured.
    spans.enter(Span::Setup, NO_REQUEST);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let (seconds, discarded) = timed(|| build(&sizes));
        setups.push(seconds);
        drop(discarded);
    }
    let (seconds, (mut system, mut board)) = timed(|| build(&sizes));
    setups.push(seconds);
    spans.exit();

    let mean_k = system.dense_component_count() as f64 / system.registry().len() as f64;
    let alpha = (QUOTA_TARGET / mean_k.max(1.0)).min(1.0);
    let generator = RequestGenerator::new(
        TemplateLibrary::singletons(system.registry()),
        request_config(),
    );
    let mut arrivals = StreamingArrivals::new(RateSchedule::constant(sizes.rate), generator);
    let mut scratch = SelectionScratch::default();
    let mut live: VecDeque<SessionId> = VecDeque::with_capacity(sizes.live);
    let mut buffer = Vec::new();
    // Per-request latencies of the slice being filled, and the summaries
    // of the finished ones: (seconds per request, p50, p99, p99.9).
    let mut latencies: Vec<f64> = Vec::with_capacity(SLICE);
    let mut slice_s = 0.0;
    let mut finished: Vec<(f64, LatencySummary)> = Vec::new();
    // Every latency of a traced run, for the p99.9 layer metric.
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut counters = Counters::default();
    let mut base: Option<(Counters, u64)> = None;
    let base_requests = (sizes.live + sizes.churn) as u64;
    let epoch = SimDuration::from_minutes(1);
    let mut epoch_end = SimTime::ZERO + epoch;
    // Wall and ops of [untraced, traced] epochs.
    let mut slices = [(0.0f64, 0u64); 2];
    let mut timed_s = 0.0;
    let mut epochs = 0u64;

    while base.is_none() || timed_s < opts.seconds {
        let trace_this = traced_run && epochs.is_multiple_of(2);
        spans.set_active(trace_this);
        let ops_before = counters.ops();
        let mut clock = Instant::now();
        let mut epoch_s = 0.0;
        spans.enter(Span::Timed, NO_REQUEST);

        spans.enter(Span::Requests, NO_REQUEST);
        arrivals.fill_epoch(epoch_end, &mut rng, &mut buffer);
        spans.exit();
        epoch_end += epoch;
        for arrival in buffer.drain(..) {
            let request = arrival.request;
            let id = request.id.0;
            let ctx = HopContext {
                request: &request,
                vertex: 0,
                predecessors: &[],
            };
            spans.enter(Span::Select, id);
            let start = Instant::now();
            let plans = select_candidates_with(
                &mut system,
                &board,
                &ctx,
                HopSelection::Ranked,
                alpha,
                RISK_EPSILON,
                &mut rng,
                &mut counters.stats,
                &mut scratch,
            );
            let select_s = start.elapsed().as_secs_f64();
            spans.exit();
            counters.plans += plans.len() as u64;
            let mut setup_s = select_s;
            match plans.into_iter().next() {
                None => counters.rejected += 1,
                Some(plan) => {
                    if live.len() >= sizes.live {
                        let oldest = live.pop_front().expect("at the live target");
                        spans.enter(Span::Close, NO_REQUEST);
                        let closed = system.close_session(oldest);
                        spans.exit();
                        counters.closed += 1;
                        counters.close_failures += u64::from(!closed);
                    }
                    let composition = Composition {
                        assignment: vec![plan.component],
                        links: Vec::new(),
                    };
                    spans.enter(Span::Commit, id);
                    let commit_start = Instant::now();
                    let committed = system.commit_session(&request, composition);
                    setup_s += commit_start.elapsed().as_secs_f64();
                    spans.exit();
                    match committed {
                        Ok(session) => {
                            live.push_back(session);
                            counters.committed += 1;
                        }
                        Err(_) => counters.rejected += 1,
                    }
                }
            }
            // The slice clock runs from select to the end of commit, so
            // it covers the close in between but not the bookkeeping here.
            latencies.push(setup_s * 1e6);
            slice_s += start.elapsed().as_secs_f64();
            if latencies.len() == SLICE {
                if traced_run {
                    all_latencies.extend_from_slice(&latencies);
                }
                finished.push((slice_s / SLICE as f64, LatencySummary::of(&mut latencies)));
                latencies.clear();
                slice_s = 0.0;
            }
            if base.is_none() && counters.requests() == base_requests {
                // Base work done: stop the clock, fix the deterministic
                // results, carry on until the floor on measured time.
                epoch_s += clock.elapsed().as_secs_f64();
                base = Some((counters, session_digest(&system)));
                clock = Instant::now();
            }
        }
        // Threshold-triggered refresh once per epoch: touched nodes
        // republish (index writes under churn), the rest are skipped.
        spans.enter(Span::Refresh, NO_REQUEST);
        counters.update_msgs += board.refresh_nodes(&system);
        spans.exit();

        epoch_s += clock.elapsed().as_secs_f64();
        spans.exit();
        let slice = &mut slices[usize::from(trace_this)];
        slice.0 += epoch_s;
        slice.1 += counters.ops() - ops_before;
        timed_s += epoch_s;
        epochs += 1;
    }
    spans.set_active(traced_run);

    // Output checks, on the final state.
    let live_end = system.session_count();
    outcome.check(counters.close_failures == 0, || {
        format!(
            "{} closes of a live session failed",
            counters.close_failures
        )
    });
    outcome.check(
        (counters.committed - counters.closed) as usize == live_end && live.len() == live_end,
        || {
            format!(
                "committed {} − closed {} ≠ live {live_end} (queue {})",
                counters.committed,
                counters.closed,
                live.len()
            )
        },
    );
    let violations =
        SystemAuditor::default().audit(&system).len() + board.audit_against(&system).len();
    outcome.check(violations == 0, || {
        format!("{violations} audit violations at the end")
    });

    let (base, base_sessions) = base.expect("loop runs until the base work is done");
    let mut digest = Digest::new();
    for x in [
        base_sessions,
        base.committed,
        base.closed,
        base.rejected,
        base.plans,
        base.update_msgs,
        base.stats.selection_examined,
        base.stats.selection_candidates,
    ] {
        digest.mix(x);
    }
    outcome.digest = digest.0;
    outcome.attempted = counters.requests();
    outcome.declined = counters.rejected;

    // Timed metrics: the calm twentieth of the 1 000-request slices (see
    // `stats::fast_cost`). Every request costs the same work whether
    // it lands in the ramp or the churn, so the rate is the run's ops over
    // a wall rebuilt from the calm cost per request.
    let per_slice = |f: &dyn Fn(&(f64, LatencySummary)) -> f64| {
        stats::fast_cost(&finished.iter().map(f).collect::<Vec<f64>>())
    };
    let e2e = &mut outcome.end_to_end;
    e2e.set("setup_s", stats::fast_cost(&setups));
    e2e.set(
        "session_ops_per_s",
        counters.ops() as f64 / (counters.requests() as f64 * per_slice(&|(cost, _)| *cost)),
    );
    e2e.set("compose_us_p50", per_slice(&|(_, l)| l.p50));
    e2e.set("compose_us_p99", per_slice(&|(_, l)| l.p99.value));
    e2e.set(
        "success_rate",
        ratio(base.committed as f64, base.requests() as f64),
    );
    e2e.set(
        "probe_msgs_per_request",
        ratio(base.plans as f64, base.requests() as f64),
    );
    e2e.set("peak_rss_mib", peak_rss_mib());

    outcome.note("op", Json::str("sessions committed + sessions closed"));
    outcome.note(
        "compose",
        Json::str("select_candidates_with + commit_session"),
    );
    outcome.note(
        "probe_msgs",
        Json::str("candidates ranked selection returned per request: no probe is sent here"),
    );
    let tail = finished
        .first()
        .map(|(_, l)| l.p99)
        .expect("at least one slice");
    outcome.note("slices", Json::int(finished.len() as u64));
    outcome.note("compose_samples_per_slice", Json::int(SLICE as u64));
    outcome.note("compose_tail_percentile", Json::num(tail.p));
    outcome.note("compose_tail_samples_beyond", Json::int(tail.beyond as u64));
    outcome.note("components_per_function", Json::num(mean_k));
    outcome.note("timed_s", Json::num(timed_s));

    if traced_run {
        let t = |span| spans.totals(span);
        let [untraced, traced] = slices;
        let rate = |(wall, ops): (f64, u64)| ratio(ops as f64, wall);
        let scans = board.scan_stats();
        let paths = system.path_cache_stats();
        let l = &mut outcome.per_layer;
        l.set("driver.traced_wall_s", t(Span::Timed).busy_s());
        l.set("driver.other_s", t(Span::Timed).self_s());
        l.set(
            "driver.trace_overhead_pct",
            100.0 * (1.0 - ratio(rate(traced), rate(untraced))),
        );
        l.set("workload.requests.busy_s", t(Span::Requests).busy_s());
        l.set("core.protocol.compose_us_p999", p999(&mut all_latencies));
        l.set("core.selection.calls", t(Span::Select).count as f64);
        l.set("core.selection.busy_s", t(Span::Select).busy_s());
        l.set("core.selection.unit_ns", t(Span::Select).mean_ns());
        l.set(
            "core.selection.examined_per_call",
            ratio(
                counters.stats.selection_examined as f64,
                counters.stats.global_state_queries as f64,
            ),
        );
        l.set(
            "core.selection.examined_fraction",
            ratio(
                counters.stats.selection_examined as f64,
                counters.stats.selection_candidates as f64,
            ),
        );
        l.set(
            "topology.overlay.path_lookups",
            (paths.hits + paths.misses) as f64,
        );
        l.set("model.system.commit_calls", t(Span::Commit).count as f64);
        l.set("model.system.commit_busy_s", t(Span::Commit).busy_s());
        l.set("model.system.close_calls", t(Span::Close).count as f64);
        l.set("model.system.close_busy_s", t(Span::Close).busy_s());
        l.set(
            "model.system.discovery_lookups",
            counters.stats.discovery_lookups as f64,
        );
        l.set("model.system.live_sessions_end", live_end as f64);
        l.set("state.global.refresh_calls", t(Span::Refresh).count as f64);
        l.set("state.global.refresh_busy_s", t(Span::Refresh).busy_s());
        l.set("state.global.node_skip_rate", scans.node_skip_rate());
        l.set("state.global.update_msgs", counters.update_msgs as f64);
        l.set("model.audit.calls", 1.0);
        l.set("model.audit.violations", violations as f64);
    }
    spans.exit();
    outcome
}
