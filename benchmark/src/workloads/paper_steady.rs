//! `paper_steady`: the paper's own operating point, run long enough to
//! measure.
//!
//! ACP at α = 0.3, single-phase, a constant 80 requests/minute on the
//! 400-node paper system, 5-minute sampling with audit, 10-second
//! `refresh_nodes`, 10-minute `aggregate_links`. The event loop is the
//! benchmark's own — it pops an `EventQueue` and makes every call into
//! the library crates itself, so each layer is timed at its public
//! boundary — and it reproduces `workload::run_scenario` exactly
//! ([`replica_matches`]).
//!
//! Why: multi-hop function graphs with virtual links put about nine
//! tenths of the wall inside `Composer::compose`. The path memo is
//! ~99.8 % hits and there are k ≈ 12 candidates per function, so index
//! scaling, cold routing, leases, tenants and repair do almost no work
//! here.

use std::hint::black_box;
use std::time::Instant;

use super::{
    p999, panel_seed, paper_system, peak_rss_mib, seeded_schedule, timed, Digest, LatencySummary,
    Outcome, RunOptions, Size,
};
use crate::json::Json;
use crate::metrics::ratio;
use crate::stats;
use crate::sut::{
    build_system, run_scenario, select_candidates_with, session_digest, ComponentId, Composer,
    DeterministicRng, EventQueue, GlobalStateBoard, HopContext, HopSelection, OverheadStats,
    OverlayNodeId, PathCacheStats, RateSchedule, Request, RequestGenerator, RequestId, Rng,
    ScenarioConfig, SeedableRng, SelectionScratch, SessionId, SimDuration, SimTime, StdRng,
    StreamSystem, SystemAuditor,
};
use crate::trace::{Span, Spans, NO_REQUEST};

/// Frozen sizes.
struct Sizes {
    /// Cells of base work (one seeded deployment each).
    cells: u64,
    /// Untimed warm-up per cell, counted in `setup_s`: the live-session
    /// population and the path memo reach steady state.
    warmup: SimDuration,
    /// Timed region per cell.
    timed: SimDuration,
    /// Requests per simulated minute.
    rate: f64,
    /// Horizon of the `run_scenario` replica check.
    replica: SimDuration,
    /// `compose` latencies are summarised per block of this many calls;
    /// at 1 000 the block's p99 leaves exactly ten samples beyond it.
    latency_block: usize,
}

impl Sizes {
    fn of(size: Size) -> Sizes {
        match size {
            // 8 × 250 = 2 000 timed minutes, ~160k requests, ≈ 12 s.
            Size::Full => Sizes {
                cells: 8,
                warmup: SimDuration::from_minutes(100),
                timed: SimDuration::from_minutes(250),
                rate: 80.0,
                replica: SimDuration::from_minutes(20),
                latency_block: 1_000,
            },
            Size::Smoke => Sizes {
                cells: 2,
                warmup: SimDuration::from_minutes(10),
                timed: SimDuration::from_minutes(30),
                rate: 20.0,
                replica: SimDuration::from_minutes(10),
                latency_block: 100,
            },
        }
    }
}

/// A slice is the unit the traced run alternates on: one aggregation
/// interval, so every slice, traced or not, holds one `aggregate_links`,
/// two audits and sixty refreshes.
const SLICE: SimDuration = SimDuration::from_minutes(10);

/// The traced driver replays inner calls for one request in this many.
const REPLAY_EVERY: u64 = 64;
/// … and the cold-routing replay, which clones the overlay, for one
/// replayed request in this many.
const MISS_REPLAY_EVERY: u64 = 32;
/// Memo hits timed per replay (one `Instant` pair around the batch).
const HIT_BATCH: usize = 8;
/// Reservations timed per replay, at most (likewise one pair).
const RESERVE_BATCH: usize = 8;

fn cell_config(opts: &RunOptions, sizes: &Sizes, cell: u64) -> ScenarioConfig {
    let minutes = (sizes.warmup + sizes.timed).as_minutes_f64().ceil() as u64;
    let nominal = RateSchedule::constant(sizes.rate);
    ScenarioConfig {
        schedule: seeded_schedule(&nominal, minutes, opts, "paper_steady", cell),
        ..paper_system(opts.size, panel_seed("paper_steady", cell))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival,
    SessionEnd(SessionId),
    Sample,
    Refresh,
    Aggregate,
}

/// What the loop counted since the counters were last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counters {
    requests: u64,
    composed: u64,
    closed: u64,
    events: u64,
    update_msgs: u64,
    audits: u64,
    audit_violations: u64,
    overhead: OverheadStats,
}

/// One deployment and the event loop over it.
struct Cell {
    config: ScenarioConfig,
    system: StreamSystem,
    board: GlobalStateBoard,
    composer: Box<dyn Composer>,
    generator: RequestGenerator,
    rng: StdRng,
    queue: EventQueue<Event>,
    auditor: SystemAuditor,
    counters: Counters,
}

impl Cell {
    /// Builds the cell the way `run_scenario` builds its model: same
    /// streams, same composer, same initial events.
    fn new(config: ScenarioConfig) -> Cell {
        let (mut system, board, library) = build_system(&config);
        system.set_lease_accounting(false);
        system.set_tenant_accounting(false);
        system.set_repair_accounting(false);
        let streams = DeterministicRng::new(config.seed);
        let rng = streams.stream("workload");
        let composer = config.algorithm.build_composer(
            config.probing.clone(),
            config.optimal,
            streams.seed_for("composer"),
            None,
        );
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO + SimDuration::from_micros(1), Event::Arrival);
        queue.schedule(SimTime::ZERO + config.sampling_period, Event::Sample);
        queue.schedule(SimTime::ZERO + config.local_refresh, Event::Refresh);
        queue.schedule(
            SimTime::ZERO + config.aggregation_interval,
            Event::Aggregate,
        );
        Cell {
            generator: RequestGenerator::new(library, config.requests.clone()),
            system,
            board,
            composer,
            rng,
            queue,
            auditor: SystemAuditor::default(),
            counters: Counters::default(),
            config,
        }
    }

    /// Handles every event due at or before `until`, pushing one host
    /// latency (µs) per `compose` call onto `latencies`.
    fn advance<S: Spans>(
        &mut self,
        until: SimTime,
        spans: &mut S,
        latencies: &mut Vec<f64>,
        replayer: &mut Replayer,
    ) {
        loop {
            spans.enter(Span::Queue, NO_REQUEST);
            let due = self.queue.peek_time().is_some_and(|t| t <= until);
            let scheduled = if due { self.queue.pop() } else { None };
            spans.exit();
            let Some(scheduled) = scheduled else { break };
            let now = scheduled.time;
            self.counters.events += 1;
            match scheduled.event {
                Event::Arrival => {
                    spans.enter(Span::Requests, NO_REQUEST);
                    let (request, duration) = self.generator.next(&mut self.rng);
                    spans.exit();
                    let id = request.id.0;
                    if spans.active() && id.is_multiple_of(REPLAY_EVERY) {
                        replayer.replay(
                            &mut self.system,
                            &self.board,
                            &self.config,
                            &request,
                            now,
                            spans,
                        );
                    }
                    spans.enter(Span::Compose, id);
                    let start = Instant::now();
                    let outcome =
                        self.composer
                            .compose(&mut self.system, &self.board, &request, now);
                    latencies.push(start.elapsed().as_secs_f64() * 1e6);
                    spans.exit();
                    self.counters.overhead += outcome.stats;
                    self.counters.requests += 1;
                    if let Some(session) = outcome.session {
                        self.counters.composed += 1;
                        self.schedule(now + duration, Event::SessionEnd(session), spans);
                    }
                    spans.enter(Span::Requests, NO_REQUEST);
                    let next = self.config.schedule.next_arrival(now, &mut self.rng);
                    spans.exit();
                    if let Some(next) = next {
                        self.schedule(next, Event::Arrival, spans);
                    }
                }
                Event::SessionEnd(session) => {
                    spans.enter(Span::Close, NO_REQUEST);
                    let closed = self.system.close_session(session);
                    spans.exit();
                    self.counters.closed += u64::from(closed);
                }
                Event::Sample => {
                    spans.enter(Span::Audit, NO_REQUEST);
                    let violations = self.auditor.audit_at(&self.system, Some(now)).len()
                        + self.board.audit_against(&self.system).len();
                    spans.exit();
                    self.counters.audits += 1;
                    self.counters.audit_violations += violations as u64;
                    self.schedule(now + self.config.sampling_period, Event::Sample, spans);
                }
                Event::Refresh => {
                    spans.enter(Span::Refresh, NO_REQUEST);
                    let msgs = self.board.refresh_nodes(&self.system);
                    spans.exit();
                    self.counters.update_msgs += msgs;
                    self.schedule(now + self.config.local_refresh, Event::Refresh, spans);
                }
                Event::Aggregate => {
                    spans.enter(Span::Aggregate, NO_REQUEST);
                    let msgs = self.board.aggregate_links(&self.system);
                    spans.exit();
                    self.counters.update_msgs += msgs;
                    self.schedule(
                        now + self.config.aggregation_interval,
                        Event::Aggregate,
                        spans,
                    );
                }
            }
        }
    }

    fn schedule<S: Spans>(&mut self, at: SimTime, event: Event, spans: &mut S) {
        spans.enter(Span::Queue, NO_REQUEST);
        self.queue.schedule(at, event);
        spans.exit();
    }
}

/// The traced driver's replay of calls that only happen inside
/// `compose`: it times the same public function itself, on the live
/// state, just before the sampled request composes. The unit costs,
/// multiplied by the program's own counters, give the `*_est_s` numbers.
///
/// Replays leave the state `compose` sees unchanged: selection only
/// reads (and warms the pure path memo), the reservation is released
/// again, the cold-routing replay runs on a clone. The run digest is the
/// same traced or not, and a test holds that.
struct Replayer {
    rng: StdRng,
    stats: OverheadStats,
    scratch: SelectionScratch,
    replays: u64,
    /// Reservations placed (and released) by replays.
    reserves: u64,
    /// Path lookups made by the replayed selections alone.
    select_lookups: u64,
    /// Path lookups made by all replays, to take out of the program's
    /// own counters again.
    paths: PathCacheStats,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            rng: StdRng::seed_from_u64(0x5eed_0f7e_91a7),
            stats: OverheadStats::new(),
            scratch: SelectionScratch::default(),
            replays: 0,
            reserves: 0,
            select_lookups: 0,
            paths: PathCacheStats::default(),
        }
    }

    /// One timed `select_candidates_with`, as `compose` would call it.
    fn select<S: Spans>(
        &mut self,
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        config: &ScenarioConfig,
        ctx: &HopContext<'_>,
        spans: &mut S,
    ) -> Vec<ComponentId> {
        spans.enter(Span::ReplaySelect, ctx.request.id.0);
        let plans = select_candidates_with(
            system,
            board,
            ctx,
            HopSelection::Ranked,
            config.probing.probing_ratio,
            config.probing.risk_epsilon,
            &mut self.rng,
            &mut self.stats,
            &mut self.scratch,
        );
        spans.exit();
        plans.iter().map(|plan| plan.component).collect()
    }

    fn replay<S: Spans>(
        &mut self,
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        config: &ScenarioConfig,
        request: &Request,
        now: SimTime,
        spans: &mut S,
    ) {
        let id = request.id.0;
        spans.enter(Span::Replay, id);
        self.replays += 1;
        let before = system.path_cache_stats();

        // Selection at the source vertex, then at its successor with the
        // source's best candidate as the assigned predecessor — the hop
        // shape that computes virtual paths.
        let source = request.graph.source();
        let heads = self.select(
            system,
            board,
            config,
            &HopContext {
                request,
                vertex: source,
                predecessors: &[],
            },
            spans,
        );
        if let (Some(&component), Some(&next)) =
            (heads.first(), request.graph.successors(source).first())
        {
            if let Some(edge) = request
                .graph
                .edges()
                .iter()
                .position(|&e| e == (source, next))
            {
                let predecessors = [(edge, component, system.effective_component_qos(component))];
                let ctx = HopContext {
                    request,
                    vertex: next,
                    predecessors: &predecessors,
                };
                black_box(self.select(system, board, config, &ctx, spans));
            }
        }
        self.select_lookups += lookups(system.path_cache_stats()) - lookups(before);

        // What each spawned probe does on arrival: one transient
        // reservation on the candidate's node. Timed as a batch over the
        // selected candidates; released again outside the span.
        let replay_id = RequestId(u64::MAX - id);
        let amount = request.vertex_demand(system.registry(), source);
        let expires = now + config.probing.transient_timeout;
        let batch = &heads[..heads.len().min(RESERVE_BATCH)];
        spans.enter(Span::ReplayReserve, id);
        for &component in batch {
            black_box(system.reserve_component_transient(replay_id, component, amount, expires));
        }
        spans.exit();
        self.reserves += batch.len() as u64;
        system.release_request_transients(replay_id);

        // Memo hits: warm a batch of pairs, then time the batch.
        let nodes = system.node_count() as u32;
        let mut pairs = [(OverlayNodeId(0), OverlayNodeId(0)); HIT_BATCH];
        for pair in &mut pairs {
            *pair = (
                OverlayNodeId(self.rng.gen_range(0..nodes)),
                OverlayNodeId(self.rng.gen_range(0..nodes)),
            );
            black_box(system.virtual_path(pair.0, pair.1));
        }
        spans.enter(Span::ReplayPathHit, id);
        for &(from, to) in &pairs {
            black_box(system.virtual_path(from, to));
        }
        spans.exit();

        // The cold path: what a lookup costs after a node failure dropped
        // the routes through it. On a clone, so the live memo stays warm.
        if self.replays.is_multiple_of(MISS_REPLAY_EVERY) {
            let (from, to) = pairs[0];
            if from != to {
                let mut overlay = system.overlay().clone();
                overlay.invalidate_routes_for(from);
                spans.enter(Span::ReplayPathMiss, id);
                black_box(overlay.virtual_path(from, to));
                spans.exit();
            }
        }
        let after = system.path_cache_stats();
        self.paths.hits += after.hits - before.hits;
        self.paths.misses += after.misses - before.misses;
        spans.exit();
    }
}

fn lookups(stats: PathCacheStats) -> u64 {
    stats.hits + stats.misses
}

/// What one cell measured.
struct CellReport {
    setup_s: f64,
    timed_s: f64,
    /// Host seconds per op of every slice that did work.
    slice_costs: Vec<f64>,
    /// What the loop counted over the timed region.
    timed: Counters,
    paths: PathCacheStats,
    /// One summary per block of `Sizes::latency_block` consecutive `compose` calls.
    latency: Vec<LatencySummary>,
    p999_us: f64,
    session_digest: u64,
    live_end: usize,
    node_skip: f64,
    link_skip: f64,
}

/// Work done in slices of one kind (traced or not), summed over cells.
#[derive(Debug, Clone, Copy, Default)]
struct SliceTotals {
    wall_s: f64,
    ops: u64,
    requests: u64,
    discovery_lookups: u64,
    probes_spawned: u64,
    path_hits: u64,
    path_misses: u64,
}

/// Builds, warms up and measures one cell. A traced run alternates
/// traced and untraced slices, so the tracing overhead is the difference
/// between the two kinds under identical conditions.
fn run_cell<S: Spans>(
    config: ScenarioConfig,
    sizes: &Sizes,
    spans: &mut S,
    replayer: &mut Replayer,
    slices: &mut [SliceTotals; 2],
) -> CellReport {
    let traced_run = spans.active();
    spans.enter(Span::Cell, NO_REQUEST);
    let mut latencies = Vec::new();

    spans.enter(Span::Setup, NO_REQUEST);
    spans.set_active(false);
    let warm_end = SimTime::ZERO + sizes.warmup;
    let (setup_s, mut cell) = timed(|| {
        let mut cell = Cell::new(config);
        cell.advance(warm_end, spans, &mut latencies, replayer);
        cell
    });
    spans.set_active(traced_run);
    spans.exit();

    latencies.clear();
    cell.counters = Counters::default();
    let paths_start = cell.system.path_cache_stats();
    let replayed_start = replayer.paths;
    let end = warm_end + sizes.timed;
    let mut now = warm_end;
    let mut timed_s = 0.0;
    let mut slice_costs = Vec::new();
    let mut slice = 0u64;
    while now < end {
        let until = (now + SLICE).min(end);
        let trace_this = traced_run && slice.is_multiple_of(2);
        spans.set_active(trace_this);
        let before = cell.counters;
        let paths_before = cell.system.path_cache_stats();
        spans.enter(Span::Timed, NO_REQUEST);
        let (wall_s, ()) = timed(|| cell.advance(until, spans, &mut latencies, replayer));
        spans.exit();
        let paths_after = cell.system.path_cache_stats();
        let ops =
            (cell.counters.requests - before.requests) + (cell.counters.closed - before.closed);
        if ops > 0 {
            slice_costs.push(wall_s / ops as f64);
        }
        let totals = &mut slices[usize::from(trace_this)];
        totals.wall_s += wall_s;
        totals.ops += ops;
        totals.requests += cell.counters.requests - before.requests;
        totals.discovery_lookups +=
            cell.counters.overhead.discovery_lookups - before.overhead.discovery_lookups;
        totals.probes_spawned +=
            cell.counters.overhead.probes_spawned - before.overhead.probes_spawned;
        totals.path_hits += paths_after.hits - paths_before.hits;
        totals.path_misses += paths_after.misses - paths_before.misses;
        timed_s += wall_s;
        now = until;
        slice += 1;
    }
    spans.set_active(traced_run);

    // The program's path counters, with the replays' own lookups taken
    // out again.
    let paths_end = cell.system.path_cache_stats();
    let paths = PathCacheStats {
        hits: paths_end.hits - paths_start.hits - (replayer.paths.hits - replayed_start.hits),
        misses: paths_end.misses
            - paths_start.misses
            - (replayer.paths.misses - replayed_start.misses),
    };
    let scans = cell.board.scan_stats();
    let report = CellReport {
        setup_s,
        timed_s,
        slice_costs,
        timed: cell.counters,
        paths,
        latency: latencies
            .chunks_exact_mut(sizes.latency_block)
            .map(LatencySummary::of)
            .collect(),
        p999_us: p999(&mut latencies),
        session_digest: session_digest(&cell.system),
        live_end: cell.system.session_count(),
        node_skip: scans.node_skip_rate(),
        link_skip: scans.link_skip_rate(),
    };
    spans.exit();
    report
}

/// True when the benchmark's loop and `run_scenario` end in the same
/// state on the same config: same session digest, requests, successes
/// and event count.
pub fn replica_matches(opts: &RunOptions) -> bool {
    let sizes = Sizes::of(opts.size);
    let config = ScenarioConfig {
        duration: sizes.replica,
        ..cell_config(opts, &sizes, 0)
    };
    let mut cell = Cell::new(config.clone());
    cell.advance(
        SimTime::ZERO + sizes.replica,
        &mut crate::trace::NoSpans,
        &mut Vec::new(),
        &mut Replayer::new(),
    );
    let reference = run_scenario(config);
    session_digest(&cell.system) == reference.session_digest
        && cell.counters.requests == reference.total_requests
        && cell.counters.composed == reference.total_successes
        && cell.counters.events == reference.sim_events
}

pub fn run<S: Spans>(opts: &RunOptions, spans: &mut S) -> Outcome {
    let sizes = Sizes::of(opts.size);
    let traced_run = spans.active();
    let mut outcome = Outcome::new();
    let mut replayer = Replayer::new();
    let mut slices = [SliceTotals::default(); 2];
    let mut cells: Vec<CellReport> = Vec::new();
    let mut timed_total = 0.0;
    let mut cell = 0;
    while cell < sizes.cells || timed_total < opts.seconds {
        let report = run_cell(
            cell_config(opts, &sizes, cell),
            &sizes,
            spans,
            &mut replayer,
            &mut slices,
        );
        timed_total += report.timed_s;
        cells.push(report);
        cell += 1;
    }

    // Deterministic results: the base cells only.
    let base = &cells[..sizes.cells as usize];
    let mut digest = Digest::new();
    let mut sum = Counters::default();
    for (i, c) in base.iter().enumerate() {
        let t = &c.timed;
        digest.mix(c.session_digest);
        for x in [
            t.requests,
            t.composed,
            t.closed,
            t.events,
            t.overhead.probe_messages,
            t.update_msgs,
        ] {
            digest.mix(x);
        }
        outcome.check(t.audit_violations == 0, || {
            format!(
                "cell {i}: {} audit violations in {} passes",
                t.audit_violations, t.audits
            )
        });
        outcome.check(t.composed <= t.requests, || {
            format!(
                "cell {i}: {} composed of {} submitted",
                t.composed, t.requests
            )
        });
        sum.requests += t.requests;
        sum.composed += t.composed;
        sum.closed += t.closed;
        sum.overhead += t.overhead;
    }
    outcome.digest = digest.0;
    outcome.attempted = cells.iter().map(|c| c.timed.requests).sum();
    outcome.declined = cells
        .iter()
        .map(|c| c.timed.requests - c.timed.composed)
        .sum();

    // Timed metrics: the calm twentieth (see `stats::fast_cost`) of
    // the cells' set-ups, the 10-minute slices, and the 1 000-call blocks.
    let slice_costs: Vec<f64> = cells
        .iter()
        .flat_map(|c| c.slice_costs.iter().copied())
        .collect();
    let blocks: Vec<LatencySummary> = cells
        .iter()
        .flat_map(|c| c.latency.iter().copied())
        .collect();
    let per_block = |f: &dyn Fn(&LatencySummary) -> f64| {
        stats::fast_cost(&blocks.iter().map(f).collect::<Vec<f64>>())
    };
    let e2e = &mut outcome.end_to_end;
    e2e.set(
        "setup_s",
        stats::fast_cost(&cells.iter().map(|c| c.setup_s).collect::<Vec<f64>>()),
    );
    e2e.set("session_ops_per_s", 1.0 / stats::fast_cost(&slice_costs));
    e2e.set("compose_us_p50", per_block(&|b| b.p50));
    e2e.set("compose_us_p99", per_block(&|b| b.p99.value));
    e2e.set(
        "success_rate",
        ratio(sum.composed as f64, sum.requests as f64),
    );
    e2e.set(
        "probe_msgs_per_request",
        ratio(sum.overhead.probe_messages as f64, sum.requests as f64),
    );
    e2e.set("peak_rss_mib", peak_rss_mib());

    let tail = blocks.first().map(|b| b.p99).expect("at least one block");
    outcome.note("cells", Json::int(cells.len() as u64));
    outcome.note("slices", Json::int(slice_costs.len() as u64));
    outcome.note("base_cells", Json::int(sizes.cells));
    outcome.note("op", Json::str("requests submitted + sessions closed"));
    outcome.note("compose_blocks", Json::int(blocks.len() as u64));
    outcome.note(
        "compose_samples_per_block",
        Json::int(sizes.latency_block as u64),
    );
    outcome.note("compose_tail_percentile", Json::num(tail.p));
    outcome.note("compose_tail_samples_beyond", Json::int(tail.beyond as u64));
    outcome.note("timed_s", Json::num(timed_total));

    if traced_run {
        layers(&mut outcome, opts, spans, &cells, &slices, &replayer);
    }
    outcome
}

/// Per-layer numbers of a traced run. Times come from the traced slices
/// (every other slice); `*_est_s` numbers are a replayed unit cost times
/// the program's own counter over those same slices.
fn layers<S: Spans>(
    outcome: &mut Outcome,
    opts: &RunOptions,
    spans: &S,
    cells: &[CellReport],
    slices: &[SliceTotals; 2],
    replayer: &Replayer,
) {
    let [untraced, traced] = slices;
    let t = |span| spans.totals(span);
    let mut sum = Counters::default();
    let mut paths = PathCacheStats::default();
    for c in cells {
        sum.requests += c.timed.requests;
        sum.events += c.timed.events;
        sum.update_msgs += c.timed.update_msgs;
        sum.audit_violations += c.timed.audit_violations;
        sum.overhead += c.timed.overhead;
        paths.hits += c.paths.hits;
        paths.misses += c.paths.misses;
    }
    let per_cell =
        |f: &dyn Fn(&CellReport) -> f64| stats::median(&cells.iter().map(f).collect::<Vec<f64>>());
    let timed_s: f64 = cells.iter().map(|c| c.timed_s).sum();
    let l = &mut outcome.per_layer;

    let rate = |s: &SliceTotals| ratio(s.ops as f64, s.wall_s);
    l.set(
        "driver.traced_wall_s",
        t(Span::Timed).busy_s() - t(Span::Replay).busy_s(),
    );
    l.set("driver.other_s", t(Span::Timed).self_s());
    l.set(
        "driver.trace_overhead_pct",
        100.0 * (1.0 - ratio(rate(traced), rate(untraced))),
    );
    l.set(
        "driver.replica_match",
        f64::from(u8::from(replica_matches(opts))),
    );

    l.set("simcore.queue.ops", t(Span::Queue).count as f64);
    l.set("simcore.queue.busy_s", t(Span::Queue).busy_s());
    l.set("workload.requests.busy_s", t(Span::Requests).busy_s());

    // Replayed unit costs × the program's counters over the traced slices.
    let select_unit_ns = t(Span::ReplaySelect).mean_ns();
    let select_est_s = select_unit_ns * traced.discovery_lookups as f64 / 1e9;
    let hit_unit_ns = t(Span::ReplayPathHit).mean_ns() / HIT_BATCH as f64;
    let miss_unit_ns = t(Span::ReplayPathMiss).mean_ns();
    // Replays only run in traced slices, so all of theirs come out here.
    let traced_hits = traced.path_hits.saturating_sub(replayer.paths.hits);
    let traced_misses = traced.path_misses.saturating_sub(replayer.paths.misses);
    let reserve_unit_ns = ratio(
        t(Span::ReplayReserve).busy_ns as f64,
        replayer.reserves as f64,
    );
    let reserve_est_s = reserve_unit_ns * traced.probes_spawned as f64 / 1e9;
    // Lookups selection makes itself are inside its unit cost already.
    let lookups_per_select = ratio(
        replayer.select_lookups as f64,
        t(Span::ReplaySelect).count as f64,
    );
    let outside_selection = ((traced_hits + traced_misses) as f64
        - lookups_per_select * traced.discovery_lookups as f64)
        .max(0.0);

    l.set("core.protocol.compose_calls", t(Span::Compose).count as f64);
    l.set("core.protocol.busy_s", t(Span::Compose).busy_s());
    l.set(
        "core.protocol.self_est_s",
        t(Span::Compose).busy_s()
            - select_est_s
            - reserve_est_s
            - outside_selection * hit_unit_ns / 1e9,
    );
    l.set(
        "core.protocol.probes_per_request",
        ratio(sum.overhead.probes_spawned as f64, sum.requests as f64),
    );
    l.set(
        "core.protocol.probe_return_ratio",
        ratio(
            sum.overhead.probes_returned as f64,
            sum.overhead.probes_spawned as f64,
        ),
    );
    l.set("core.protocol.compose_us_p999", per_cell(&|c| c.p999_us));

    l.set("core.selection.calls", traced.discovery_lookups as f64);
    l.set(
        "core.selection.examined_per_call",
        ratio(
            sum.overhead.selection_examined as f64,
            sum.overhead.global_state_queries as f64,
        ),
    );
    l.set(
        "core.selection.examined_fraction",
        ratio(
            sum.overhead.selection_examined as f64,
            sum.overhead.selection_candidates as f64,
        ),
    );
    l.set("core.selection.unit_ns", select_unit_ns);
    l.set("core.selection.est_s", select_est_s);

    l.set(
        "topology.overlay.path_lookups",
        (traced_hits + traced_misses) as f64,
    );
    l.set(
        "topology.overlay.lookups_per_request",
        ratio((traced_hits + traced_misses) as f64, traced.requests as f64),
    );
    l.set(
        "topology.overlay.path_hit_rate",
        ratio(paths.hits as f64, lookups(paths) as f64),
    );
    l.set("topology.overlay.hit_unit_ns", hit_unit_ns);
    l.set("topology.overlay.miss_unit_ns", miss_unit_ns);
    l.set(
        "topology.overlay.est_s",
        (traced_hits as f64 * hit_unit_ns + traced_misses as f64 * miss_unit_ns) / 1e9,
    );

    l.set("model.system.close_calls", t(Span::Close).count as f64);
    l.set("model.system.close_busy_s", t(Span::Close).busy_s());
    l.set("model.system.reserve_unit_ns", reserve_unit_ns);
    l.set("model.system.reserve_est_s", reserve_est_s);
    l.set(
        "model.system.discovery_lookups",
        sum.overhead.discovery_lookups as f64,
    );
    l.set(
        "model.system.live_sessions_end",
        per_cell(&|c| c.live_end as f64),
    );

    l.set("state.global.refresh_calls", t(Span::Refresh).count as f64);
    l.set("state.global.refresh_busy_s", t(Span::Refresh).busy_s());
    l.set("state.global.node_skip_rate", per_cell(&|c| c.node_skip));
    l.set("state.global.aggregate_busy_s", t(Span::Aggregate).busy_s());
    l.set("state.global.link_skip_rate", per_cell(&|c| c.link_skip));
    l.set("state.global.update_msgs", sum.update_msgs as f64);

    l.set("model.audit.calls", t(Span::Audit).count as f64);
    l.set("model.audit.busy_s", t(Span::Audit).busy_s());
    l.set("model.audit.violations", sum.audit_violations as f64);

    l.set("workload.scenario.sim_events", sum.events as f64);
    l.set(
        "workload.scenario.events_per_s",
        ratio(sum.events as f64, timed_s),
    );
}
