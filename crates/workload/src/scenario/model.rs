//! The event model of §4.1: the scenario's runtimes, the one loop that
//! pops its queue and dispatches each event to its handler, and the
//! summary a finished run ends with.

use acp_core::prelude::*;
use acp_model::prelude::*;
use acp_simcore::{
    digest, DeterministicRng, EventQueue, FaultKind, FaultPlan, FaultScheduler, ScheduledEvent,
    SimDuration, SimTime, WindowedCounter,
};
use acp_state::GlobalStateBoard;
use acp_topology::{InetConfig, Overlay, OverlayConfig};
use rand::rngs::StdRng;
use rand::Rng;

use super::config::{RepairScenarioConfig, ScenarioConfig, TenantsConfig};
use super::result::{session_digest, tier_index, ScenarioResult};
use crate::requests::{sample, RequestGenerator, RequestTrace};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Arrival,
    SessionEnd(SessionId),
    Sample,
    LocalRefresh,
    Aggregate,
    /// Replay all fault-plan events due at this instant.
    Fault,
    /// Restart the sessions faults killed whose detection latency (or
    /// retry delay) has elapsed.
    FailoverSweep,
    /// Repair the degraded sessions whose detection latency (or retry
    /// delay) has elapsed. Scheduled only under [`RepairPolicy::Repair`],
    /// the one arm that degrades sessions.
    RepairSweep,
    /// One tenant pressure-controller round (preemption only): scheduled
    /// solely when a `TenantsConfig` enables preemption, so every other
    /// configuration keeps an identical event stream.
    TenantControl,
}

/// How long a fault goes unnoticed before its first repair (or restart)
/// sweep.
const DETECTION: SimDuration = SimDuration::from_secs(1);

/// Period of preemption-controller rounds.
const PREEMPTION_INTERVAL: SimDuration = SimDuration::from_minutes(1);

/// Cap on requests kept for trace-replay profiling.
const REPLAY_CAPACITY: usize = 60;

/// Live fault-injection and recovery state carried by a churn scenario.
struct ChurnRuntime {
    scheduler: FaultScheduler,
    /// How struck sessions come back: the run's repair config, or
    /// terminate-and-restart without one.
    repair: RepairScenarioConfig,
    /// Session-duration stream for restarted sessions; separate from the
    /// workload stream so enabling churn never perturbs the arrivals.
    rng: StdRng,
    /// Sessions killed by faults, as `(due, request)`: the failover sweep
    /// restarts one once `due` has passed.
    restarts: Vec<(SimTime, Request)>,
    /// The in-place repair parts, under [`RepairPolicy::Repair`] only.
    splicer: Option<Splicer>,
}

/// What the splice arm needs beside the restart path.
struct Splicer {
    planner: RepairPlanner,
    /// The ACP composer repair segments are probed with: its own seeds,
    /// so enabling repair never perturbs arrival compositions, and the
    /// scenario's setup config, so repair probing fights the same lossy
    /// transport as arrival probing.
    composer: Box<dyn Composer>,
    /// Degraded sessions awaiting their detection latency or retry
    /// delay, as `(due, session)`.
    degraded: Vec<(SimTime, SessionId)>,
}

/// Takes the entries of a `(due, …)` retry list whose time has come,
/// in list order; later ones wait for the sweep their own event
/// scheduled.
fn drain_due<T>(pending: &mut Vec<(SimTime, T)>, now: SimTime) -> Vec<T> {
    pending.extract_if(.., |&mut (due, _)| due <= now).map(|(_, item)| item).collect()
}

/// Delay between a failed repair attempt and its retry sweep.
const RETRY_DELAY: SimDuration = SimDuration::from_secs(2);

/// The retry policy of both sweeps: a failed attempt on `request`'s
/// repair ticket is tried again `RETRY_DELAY` from `now` while the
/// ticket has attempts left in `retry_budget`. `None` — budget spent, or
/// no ticket — means settle now.
fn retry_at(
    config: &RepairScenarioConfig,
    ledger: &RepairLedger,
    request: Option<RequestId>,
    now: SimTime,
) -> Option<SimTime> {
    let ticket = ledger.ticket(request?)?;
    (ticket.attempts < config.retry_budget).then_some(now + RETRY_DELAY)
}

/// Live multi-tenant state carried by a tenanted scenario.
struct TenantRuntime {
    config: TenantsConfig,
    /// `TenantId(i)` → binding, index-aligned with `config.tenants`.
    bindings: Vec<TenantBinding>,
    /// Cumulative arrival-mix weights for the weighted draw.
    cumulative_weights: Vec<f64>,
    /// Tenant-assignment stream; separate from the workload stream so
    /// enabling tenancy never perturbs the arrivals.
    rng: StdRng,
}

impl TenantRuntime {
    /// Draws the next arrival's tenant from the mix weights.
    fn draw(&mut self) -> TenantBinding {
        let total = *self.cumulative_weights.last().expect("at least one tenant");
        let x = self.rng.gen_range(0.0..total);
        let idx = self
            .cumulative_weights
            .iter()
            .position(|&w| x < w)
            .unwrap_or(self.bindings.len() - 1);
        self.bindings[idx]
    }
}

/// One run: the system under test, its runtimes, its pending events and
/// the ledger it will return.
struct ScenarioModel {
    config: ScenarioConfig,
    system: StreamSystem,
    board: GlobalStateBoard,
    composer: Box<dyn Composer>,
    tuner: Option<ProbingRatioTuner>,
    controller: Option<PiRatioController>,
    generator: RequestGenerator,
    trace: RequestTrace,
    workload_rng: StdRng,
    replay_seed: u64,
    counter: WindowedCounter,
    replay_key_offset: u64,
    churn: Option<ChurnRuntime>,
    tenants: Option<TenantRuntime>,
    auditor: AuditCursor,
    /// The run's ledger: every handler adds its measurements here, and
    /// `summarize` returns it.
    result: ScenarioResult,
    /// The pending events; handlers schedule their follow-ups here.
    queue: EventQueue<Event>,
}

impl ScenarioModel {
    fn current_ratio(&self) -> f64 {
        self.composer.probing_ratio().unwrap_or(1.0)
    }

    /// Runs the reclamation sweep, then the system auditor (including
    /// the lease-expiry checks at `now`) plus the board coherence audit,
    /// and folds the report into the running digest. Violations
    /// accumulate; a run whose invariants held throughout ends with
    /// `audit_violations == 0`. The sweep is a no-op on fault-free runs
    /// (compositions never leave transients behind) and is exactly the
    /// recovery path for leases orphaned by lost confirmations.
    ///
    /// The system auditor is the incremental [`AuditCursor`]; debug
    /// builds check its report against the full pass's on every pass.
    fn run_audit(&mut self, now: SimTime) {
        self.system.expire_transients(now);
        let report = self.auditor.audit_at(&mut self.system, Some(now));
        debug_assert_eq!(
            report.violations(),
            SystemAuditor.audit_at(&self.system, Some(now)).violations(),
            "the incremental audit at {now:?} differs from the full pass"
        );
        self.record_audit(report);
    }

    /// The run's last audit, always the full pass.
    fn run_closing_audit(&mut self, now: SimTime) {
        self.system.expire_transients(now);
        let report = SystemAuditor.audit_at(&self.system, Some(now));
        self.record_audit(report);
    }

    /// Folds one system audit, plus the board's coherence audit, into
    /// the run's ledger.
    fn record_audit(&mut self, mut report: AuditReport) {
        report.merge(AuditReport::from_violations(self.board.audit_against(&self.system)));
        self.result.audit_violations += report.len() as u64;
        self.result.tenant_violations += report
            .violations()
            .iter()
            .filter(|v| {
                matches!(
                    v,
                    AuditViolation::TenantLedgerMismatch { .. }
                        | AuditViolation::TenantConservation { .. }
                        | AuditViolation::PreemptionOutsideBestEffort { .. }
                        | AuditViolation::GoldStarvation { .. }
                )
            })
            .count() as u64;
        self.result.audit_digest = digest::mix(self.result.audit_digest, report.digest());
    }

    /// Replays one fault-plan event through [`StreamSystem::apply_fault`]
    /// and keeps what is the scenario's own: publishing the stale half
    /// of the board, ticket opening, and scheduling the two sweeps.
    ///
    /// Every session the fault struck is queued for a sweep `DETECTION`
    /// later. Under [`RepairPolicy::Repair`], path sessions are
    /// *degraded in place* and queued for a repair sweep; every other
    /// struck session dies, gets a repair ticket, and is queued for the
    /// failover sweep's restart, so MTTR and survival are measured
    /// identically in both arms.
    fn apply_fault(&mut self, churn: &mut ChurnRuntime, now: SimTime, kind: FaultKind) {
        let fault = self.system.apply_fault(kind, churn.repair.policy, now);
        self.result.overhead.state_update_messages += self.board.publish(&self.system, fault.stale);
        let DegradeOutcome { degraded, orphaned } = fault.broken;
        self.result.sessions_killed += orphaned.len() as u64;
        // Every session the fault struck is detected together.
        let due = now + DETECTION;
        // Killed sessions get restart tickets *after* the kill (so the
        // close hook cannot cancel them); degraded sessions had theirs
        // opened by the fault operator itself.
        for request in &orphaned {
            self.system.repair_ledger_mut().open_ticket(request.id, now);
        }
        // Only the splice arm degrades, and only it has a splicer.
        if let Some(splicer) = churn.splicer.as_mut().filter(|_| !degraded.is_empty()) {
            splicer.degraded.extend(degraded.into_iter().map(|sid| (due, sid)));
            self.queue.schedule(due, Event::RepairSweep);
        }
        if !orphaned.is_empty() {
            churn.restarts.extend(orphaned.into_iter().map(|request| (due, request)));
            self.queue.schedule(due, Event::FailoverSweep);
        }
    }

    /// Trace replay used by the tuner: clones the current system state,
    /// runs the recorded recent workload at `alpha`, and returns the
    /// achieved success rate.
    fn replay_success(&mut self, alpha: f64) -> f64 {
        if self.trace.is_empty() {
            return 1.0;
        }
        self.replay_key_offset += 1_000_000;
        let requests = self.trace.replay_requests(u64::MAX / 2 + self.replay_key_offset);
        let mut system = self.system.clone();
        let mut replayer = AcpComposer::new(
            ProbingConfig { probing_ratio: alpha, ..self.config.probing.clone() },
            self.replay_seed ^ (alpha * 1_000.0) as u64,
        );
        let mut ok = 0usize;
        for request in &requests {
            let outcome = replayer.compose(&mut system, &self.board, request, SimTime::ZERO);
            if outcome.session.is_some() {
                ok += 1;
            }
        }
        ok as f64 / requests.len() as f64
    }

    /// Runs every event due at or before the horizon (inclusive), in
    /// queue order: the one place an event is dispatched.
    ///
    /// # Panics
    ///
    /// Panics if a handler scheduled an event before the one it handled.
    fn run(&mut self) {
        let horizon = SimTime::ZERO + self.config.duration;
        let mut now = SimTime::ZERO;
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            let ScheduledEvent { time, event } = self.queue.pop().expect("a due event");
            assert!(time >= now, "event scheduled in the past: {time} < {now}");
            now = time;
            self.result.sim_events += 1;
            match event {
                Event::Arrival => self.arrival(now),
                Event::SessionEnd(sid) => {
                    self.system.close_session(sid);
                }
                Event::Sample => self.sample(now),
                Event::LocalRefresh => self.local_refresh(now),
                Event::Aggregate => self.aggregate(now),
                Event::Fault => self.fault(now),
                Event::FailoverSweep => self.failover_sweep(now),
                Event::RepairSweep => self.repair_sweep(now),
                Event::TenantControl => self.tenant_control(now),
            }
        }
    }

    /// One arrival: draw the request, pass it through tenant admission,
    /// compose it, and chain the next arrival.
    fn arrival(&mut self, now: SimTime) {
        // Expire stale transients before admission, as nodes do. Only a
        // lossy transport can leave transients behind between events
        // (orphans from lost confirmations); the sweep visits only sites
        // holding leases, so fault-free runs find nothing to visit.
        self.system.expire_transients(now);
        let (mut request, session_duration) = self.generator.next(&mut self.workload_rng);
        // Tenanted runs stamp the request with a tenant drawn from its own
        // stream and consult the congestion gate before composing;
        // shed requests count as failures without composing (or entering
        // the replay trace). A single Gold tenant admits every request,
        // leaving the compose sequence byte-identical to the tenant-less
        // path.
        let mut admitted = true;
        if let Some(tenants) = self.tenants.as_mut() {
            let binding = tenants.draw();
            request.tenant = Some(binding);
            self.result.tenant_tiers[tier_index(binding.tier)].offered += 1;
            if tenants.config.admission.sheds(binding.tier, self.board.congestion_estimate()) {
                self.system.record_tenant_shed(binding);
                // The congestion gate never sheds Gold; if it ever does
                // while lower tiers hold resources, the starvation
                // counter trips the auditor.
                if binding.tier == TenantTier::Gold
                    && self.system.lower_tier_live(binding.tier)
                {
                    self.system.record_tenant_starved(binding);
                }
                admitted = false;
            }
        }
        if admitted {
            // The replay trace has one reader, the tuner.
            if self.tuner.is_some() {
                self.trace.record(request.clone());
            }
            let outcome = self.composer.compose(&mut self.system, &self.board, &request, now);
            let ledger = &mut self.result;
            ledger.charge(&outcome);
            let success = outcome.session.is_some();
            if outcome.setup.fault_hit() {
                ledger.fault_hit_requests += 1;
                ledger.fault_hit_successes += u64::from(success);
            }
            if let Some(binding) = request.tenant {
                let tier = &mut ledger.tenant_tiers[tier_index(binding.tier)];
                if success {
                    tier.composed += 1;
                } else {
                    tier.failed += 1;
                }
            }
            if let Some(sid) = outcome.session {
                ledger.total_successes += 1;
                self.queue.schedule(now + session_duration, Event::SessionEnd(sid));
            }
            self.counter.record(success);
        } else {
            self.counter.record(false);
        }
        self.result.total_requests += 1;
        if let Some(next) = self.config.schedule.next_arrival(now, &mut self.workload_rng) {
            if next <= SimTime::ZERO + self.config.duration {
                self.queue.schedule(next, Event::Arrival);
            }
        }
    }

    /// One sampling point: the success and ratio series, the tuner or the
    /// controller, and an audit.
    fn sample(&mut self, now: SimTime) {
        let (_, rate) = self.counter.roll(now);
        if let Some(r) = rate {
            self.result.success_series.push(now, r);
        }
        let ratio = self.current_ratio();
        self.result.ratio_series.push(now, ratio);
        // Probing-ratio tuning on the fresh sample.
        if let Some(mut tuner) = self.tuner.take() {
            // Split borrows: the closure needs &mut self.
            tuner.observe(rate, |alpha| self.replay_success(alpha));
            self.composer.set_probing_ratio(tuner.ratio());
            self.tuner = Some(tuner);
        }
        if let Some(controller) = self.controller.as_mut() {
            let alpha = controller.observe(rate);
            self.composer.set_probing_ratio(alpha);
        }
        self.trace.clear();
        self.run_audit(now);
        if now + self.config.sampling_period <= SimTime::ZERO + self.config.duration {
            self.queue.schedule(now + self.config.sampling_period, Event::Sample);
        }
    }

    /// One local-state refresh of the board's node entries.
    fn local_refresh(&mut self, now: SimTime) {
        self.system.expire_transients(now);
        self.result.overhead.state_update_messages += self.board.refresh_nodes(&self.system);
        if now + self.config.local_refresh <= SimTime::ZERO + self.config.duration {
            self.queue.schedule(now + self.config.local_refresh, Event::LocalRefresh);
        }
    }

    /// One virtual-link aggregation round.
    fn aggregate(&mut self, now: SimTime) {
        self.result.overhead.state_update_messages += self.board.aggregate_links(&self.system);
        if now + self.config.aggregation_interval <= SimTime::ZERO + self.config.duration {
            self.queue.schedule(now + self.config.aggregation_interval, Event::Aggregate);
        }
    }

    /// Replays every fault-plan event due now and chains the next one.
    fn fault(&mut self, now: SimTime) {
        let Some(mut churn) = self.churn.take() else { return };
        for fault in churn.scheduler.pop_due(now) {
            self.apply_fault(&mut churn, now, fault.kind);
        }
        if let Some(next) = churn.scheduler.next_time() {
            self.queue.schedule(next, Event::Fault);
        }
        self.churn = Some(churn);
    }

    /// Restarts the killed sessions whose detection latency (or retry
    /// delay) has elapsed.
    fn failover_sweep(&mut self, now: SimTime) {
        let Some(mut churn) = self.churn.take() else { return };
        self.system.expire_transients(now);
        // Only sessions whose due time has passed; later victims wait for
        // the sweep scheduled by their own fault.
        for request in drain_due(&mut churn.restarts, now) {
            let outcome = self.composer.compose(&mut self.system, &self.board, &request, now);
            self.result.charge(&outcome);
            if let Some(sid) = outcome.session {
                self.system.repair_ledger_mut().record_restored(request.id, now);
                let minutes = sample(&mut churn.rng, self.config.requests.session_minutes);
                let end = now + SimDuration::from_secs_f64(minutes * 60.0);
                self.queue.schedule(end, Event::SessionEnd(sid));
                continue;
            }
            // Repair arm: restarts share the ticket's retry budget and
            // re-queue until it runs out. The terminate arm stays
            // single-shot by contract.
            let retry = if churn.repair.policy == RepairPolicy::Repair {
                retry_at(&churn.repair, self.system.repair_ledger(), Some(request.id), now)
            } else {
                None
            };
            let ledger = self.system.repair_ledger_mut();
            match retry {
                Some(at) => {
                    ledger.begin_attempt(request.id);
                    churn.restarts.push((at, request));
                    self.queue.schedule(at, Event::FailoverSweep);
                }
                // A failed restart with no budget left settles the ticket.
                None => ledger.record_abandoned(request.id),
            }
        }
        self.churn = Some(churn);
        self.run_audit(now);
    }

    /// Splices the degraded sessions whose detection latency (or retry
    /// delay) has elapsed, escalating a structural failure to a restart.
    fn repair_sweep(&mut self, now: SimTime) {
        let Some(mut churn) = self.churn.take() else { return };
        self.system.expire_transients(now);
        if let Some(Splicer { planner, composer, degraded }) = churn.splicer.as_mut() {
            let mut due = drain_due(degraded, now);
            // Canonical order: ascending session id.
            due.sort_unstable();
            due.dedup();
            for sid in due {
                let attempt = planner.repair_session(
                    &mut self.system,
                    &self.board,
                    sid,
                    now,
                    composer.as_mut(),
                    self.config.probing.transient_timeout,
                );
                if let Some(probing) = &attempt.probing {
                    self.result.charge(probing);
                }
                // Repaired settles the ticket in the ledger; NotDegraded
                // means the session ended or was already healed — nothing
                // left to do.
                let RepairVerdict::Failed(failure) = attempt.verdict else { continue };
                let request = self.system.session(sid).map(|s| s.request_spec.id);
                let retry = retry_at(&churn.repair, self.system.repair_ledger(), request, now);
                if let Some(retry) = retry.filter(|_| failure.is_transient()) {
                    // Boundary contention eases within seconds — re-splice,
                    // budget allowing.
                    degraded.push((retry, sid));
                    self.queue.schedule(retry, Event::RepairSweep);
                } else if let Some(request) = self.system.terminate_for_restart(sid) {
                    // Structural failure (or budget spent): a later
                    // re-splice of the same segment is deterministic, so
                    // escalate to terminate-restart now. The session dies
                    // but its ticket stays open — the failover restart
                    // settles it as restored or abandoned, so the repair
                    // arm is never worse than the restart baseline.
                    self.result.sessions_killed += 1;
                    churn.restarts.push((now, request));
                    self.queue.schedule(now, Event::FailoverSweep);
                }
            }
        }
        self.churn = Some(churn);
        self.run_audit(now);
    }

    /// One round of the tenant pressure controller.
    fn tenant_control(&mut self, now: SimTime) {
        let Some(preemption) = self.tenants.as_ref().and_then(|t| t.config.preemption) else { return };
        if self.board.congestion_estimate() >= preemption.congestion_threshold
            && !preempt_round(&mut self.system, preemption.min_node_utilization).is_empty()
        {
            // Preempted capacity is only useful if the coarse state
            // advertises it.
            self.result.overhead.state_update_messages += self.board.refresh_nodes(&self.system);
        }
        if now + PREEMPTION_INTERVAL <= SimTime::ZERO + self.config.duration {
            self.queue.schedule(now + PREEMPTION_INTERVAL, Event::TenantControl);
        }
    }
}

/// Builds the system of a scenario (topology → overlay → deployment)
/// without running the workload. Useful for examples and benchmarks.
pub fn build_system(config: &ScenarioConfig) -> (StreamSystem, GlobalStateBoard, TemplateLibrary) {
    let streams = DeterministicRng::new(config.seed);
    // The generator gets a stream of its own: it stops drawing once no
    // edge can be added, so how far it advances its rng is not pinned,
    // and no later draw may depend on that.
    let mut topo_rng = streams.stream("topology");
    let ip = InetConfig { nodes: config.ip_nodes, ..InetConfig::default() }.generate(&mut topo_rng);
    let mut overlay_rng = streams.stream("overlay");
    let overlay = Overlay::build(
        &ip,
        &OverlayConfig { stream_nodes: config.stream_nodes, neighbors: config.overlay_neighbors },
        &mut overlay_rng,
    );
    let mut system_rng = streams.stream("system");
    let registry = FunctionRegistry::with_size(config.functions);
    let mut template_rng = streams.stream("templates");
    let library = TemplateLibrary::standard(&registry, &mut template_rng);
    let system = StreamSystem::generate(overlay, registry, &config.system, &mut system_rng);
    let board = GlobalStateBoard::new(&system, config.global_state);
    (system, board, library)
}

/// Runs one scenario to completion and reports the paper's measurements.
///
/// # Panics
///
/// Panics with the message of [`ScenarioConfig::validate`] when the
/// configuration cannot run.
pub fn run_scenario(config: ScenarioConfig) -> ScenarioResult {
    if let Err(why) = config.validate() {
        panic!("invalid scenario config: {why}");
    }
    summarize(simulate(config))
}

/// Builds the scenario's model and runs its events up to the horizon.
fn simulate(config: ScenarioConfig) -> ScenarioModel {
    let (mut system, board, library) = build_system(&config);
    let streams = DeterministicRng::new(config.seed);
    let mut workload_rng = streams.stream("workload");
    let composer_seed = streams.seed_for("composer");
    let replay_seed = streams.seed_for("replay");

    // Without a setup config the probing composers run over the
    // fault-free transport of `SetupConfig::default()`, which draws
    // nothing. The label-derived seeds mean a lossy transport never
    // perturbs any existing stream.
    let setup = config.setup.clone().unwrap_or_default();
    let mut composer = config.algorithm.build_composer(
        config.probing.clone(),
        config.optimal,
        composer_seed,
        Some((streams.seed_for("setup"), setup.clone())),
    );
    let tuner = config.tuner.map(|t| {
        let tuner = ProbingRatioTuner::new(t);
        composer.set_probing_ratio(tuner.ratio());
        tuner
    });
    let controller = config.controller.map(|c| {
        let controller = PiRatioController::new(c);
        composer.set_probing_ratio(controller.ratio());
        controller
    });

    let generator = RequestGenerator::new(library, config.requests.clone());
    let mut result = ScenarioResult::new(config.algorithm);

    // Generate the full fault plan up front from its own seed stream:
    // the schedule is fixed before the first arrival, so replaying the
    // same seed injects byte-identical faults regardless of workload.
    let churn = config.churn.as_ref().map(|churn_config| {
        let plan = FaultPlan::generate(
            streams.seed_for("faults"),
            &churn_config.faults,
            system.node_count(),
            system.overlay().link_count(),
            config.duration,
        );
        result.fault_events = plan.len();
        result.fault_kinds = plan.distinct_kinds();
        result.fault_digest = plan.digest();
        // Without a repair config, the terminate-and-restart arm.
        let repair = config.repair.clone().unwrap_or(RepairScenarioConfig {
            policy: RepairPolicy::Terminate,
            ..RepairScenarioConfig::default()
        });
        // The splicer's streams are label-derived, so the splice arm never
        // perturbs arrivals, faults, or the main composer. Its composer is
        // ACP whatever the run's algorithm, under the run's setup config
        // on a seed of its own.
        let splicer = (repair.policy == RepairPolicy::Repair).then(|| Splicer {
            planner: RepairPlanner::new(),
            composer: AlgorithmKind::Acp.build_composer(
                config.probing.clone(),
                config.optimal,
                streams.seed_for("repair-compose"),
                Some((streams.seed_for("repair-setup"), setup.clone())),
            ),
            degraded: Vec::new(),
        });
        ChurnRuntime {
            scheduler: plan.into_scheduler(),
            repair,
            rng: streams.stream("churn"),
            restarts: Vec::new(),
            splicer,
        }
    });

    // Tenant population: ids are indices into the spec vec, registered
    // up front so every tier shows in the ledger even before its first
    // arrival. The assignment stream is label-derived, so enabling
    // tenancy never perturbs the arrival or fault streams.
    let tenants = config.tenants.clone().map(|tenants_config| {
        let mut bindings = Vec::with_capacity(tenants_config.tenants.len());
        let mut cumulative_weights = Vec::with_capacity(tenants_config.tenants.len());
        let mut acc = 0.0;
        for (i, spec) in tenants_config.tenants.iter().enumerate() {
            let id = TenantId(i as u32);
            system.register_tenant(id, spec.tier);
            bindings.push(TenantBinding { tenant: id, tier: spec.tier });
            acc += spec.weight;
            cumulative_weights.push(acc);
        }
        TenantRuntime { rng: streams.stream("tenants"), bindings, cumulative_weights, config: tenants_config }
    });

    // The arrival chain opens 1 µs in; a schedule that opens at rate zero
    // opens it with the first arrival of its first live segment instead.
    let first_arrival = if config.schedule.rate_at(SimTime::ZERO) > 0.0 {
        Some(SimTime::ZERO + SimDuration::from_micros(1))
    } else {
        config.schedule.next_arrival(SimTime::ZERO, &mut workload_rng)
    };

    let mut queue = EventQueue::new();
    if let Some(t) = first_arrival {
        queue.schedule(t, Event::Arrival);
    }
    queue.schedule(SimTime::ZERO + config.sampling_period, Event::Sample);
    queue.schedule(SimTime::ZERO + config.local_refresh, Event::LocalRefresh);
    queue.schedule(SimTime::ZERO + config.aggregation_interval, Event::Aggregate);
    if let Some(t) = churn.as_ref().and_then(|c| c.scheduler.next_time()) {
        queue.schedule(t, Event::Fault);
    }
    if tenants.as_ref().is_some_and(|t| t.config.preemption.is_some()) {
        queue.schedule(SimTime::ZERO + PREEMPTION_INTERVAL, Event::TenantControl);
    }

    let mut model = ScenarioModel {
        system,
        board,
        composer,
        tuner,
        controller,
        generator,
        trace: RequestTrace::new(REPLAY_CAPACITY),
        workload_rng,
        replay_seed,
        counter: WindowedCounter::new(config.sampling_period),
        replay_key_offset: 0,
        churn,
        tenants,
        auditor: AuditCursor::default(),
        result,
        queue,
        config,
    };
    model.run();
    model
}

/// The closing audit and the post-horizon sweep of a finished run, and
/// what its ledger can only learn at the end.
fn summarize(mut model: ScenarioModel) -> ScenarioResult {
    let end = SimTime::ZERO + model.config.duration;
    // Closing audit: the final state must satisfy every invariant too.
    model.run_closing_audit(end);
    // Post-horizon reclamation sweep, to the latest expiry a lease can
    // legitimately carry: a request arriving at `end` reserves with
    // expiry `attempt + transient_timeout`, and its last retry round runs
    // the whole backoff ladder after `end`. Anything that survives
    // outlived that window — a leak. Without a setup config the ladder is
    // `SetupConfig::default()`'s, as the composers' transport is.
    let leases_live_end = model.system.live_lease_count() as u64;
    let backoff = model.config.setup.clone().unwrap_or_default().max_backoff();
    model.system.expire_transients(end + backoff + model.config.probing.transient_timeout);
    let live_after_horizon = model.system.live_lease_count() as u64;

    let ScenarioModel { mut result, system, board, tuner, churn, auditor, .. } = model;
    result.audit = auditor.counts();
    result.leases_live_end = leases_live_end;
    result.leases_leaked =
        live_after_horizon + u64::from(!system.lease_stats().reconciles(live_after_horizon));
    result.lease_stats = system.lease_stats();
    result.final_sessions = system.session_count();
    result.session_digest = session_digest(&system);
    result.path_cache = system.path_cache_stats();
    result.state_scans = board.scan_stats();
    result.aggregation_rounds = board.aggregation_rounds();
    if let Some(tuner) = &tuner {
        result.profiling_runs = tuner.profiling_runs();
    }
    if let Some(churn) = &churn {
        result.sessions_pending = churn.restarts.len() as u64;
    }
    // Sheds, preemptions and kills per tier are the tenant ledger's,
    // the sessions live at the end the session table's; the arrival
    // columns (offered, composed, failed) were counted as they happened.
    let live = system.tenant_live_counts();
    for (id, stats) in system.tenant_ledger().iter() {
        let tier = &mut result.tenant_tiers[tier_index(stats.tier)];
        tier.shed += stats.shed;
        tier.preempted += stats.preempted;
        result.tenant_preemptions += stats.preempted;
        tier.killed += stats.killed;
        tier.live_end += live[id.0 as usize];
    }
    let ledger = system.repair_ledger();
    result.repair_opened = ledger.opened;
    result.sessions_repaired = ledger.repaired;
    result.sessions_recovered = ledger.restored;
    result.sessions_lost = ledger.abandoned;
    result.repair_cancelled = ledger.cancelled;
    result.mttr = *ledger.mttr_stats();
    result.mttr_p50 = ledger.mttr_quantile(0.5).unwrap_or(0.0);
    result.mttr_p99 = ledger.mttr_quantile(0.99).unwrap_or(0.0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::config::MAX_SETUP_ATTEMPTS;
    use crate::{ChurnConfig, RateSchedule, TenantPreemptionConfig, TierSummary};
    use acp_simcore::FaultPlanConfig;

    #[test]
    fn small_scenario_runs_and_composes() {
        let result = run_scenario(ScenarioConfig::small(1));
        // `small` runs 10 req/min × 20 min ⇒ ~200 Poisson arrivals; 150
        // is > 4σ below the mean, so this never flakes on a valid run
        // (the old `> 200` bound sat exactly at the mean and failed for
        // roughly half of all seeds).
        assert!(result.total_requests > 150, "10 req/min × 20 min ≈ 200, got {}", result.total_requests);
        assert!(result.overall_success() > 0.5, "success {}", result.overall_success());
        assert!(result.overhead.total_messages() > 0);
        assert!(!result.success_series.is_empty());
    }

    #[test]
    fn deterministic_across_reruns() {
        let a = run_scenario(ScenarioConfig::small(7));
        let b = run_scenario(ScenarioConfig::small(7));
        assert_eq!(a.total_requests, b.total_requests);
        assert_eq!(a.total_successes, b.total_successes);
        assert_eq!(a.overhead, b.overhead);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_scenario(ScenarioConfig::small(1));
        let b = run_scenario(ScenarioConfig::small(2));
        // total arrival counts are Poisson; extremely unlikely to match
        // exactly alongside identical success counts
        assert!(
            a.total_requests != b.total_requests || a.total_successes != b.total_successes,
            "seeds should matter"
        );
    }

    #[test]
    fn sessions_end_and_release_resources() {
        let mut config = ScenarioConfig::small(3);
        // long enough that early sessions expire (5-15 min durations)
        config.duration = SimDuration::from_minutes(30);
        let result = run_scenario(config);
        // fewer live sessions than total successes → teardown happened
        assert!(
            (result.final_sessions as u64) < result.total_successes,
            "{} sessions vs {} successes",
            result.final_sessions,
            result.total_successes
        );
    }

    #[test]
    fn acp_beats_random_under_load() {
        let mut acp_cfg = ScenarioConfig::small(5);
        acp_cfg.schedule = RateSchedule::constant(60.0);
        let mut rnd_cfg = acp_cfg.clone();
        rnd_cfg.algorithm = AlgorithmKind::Random;
        let acp = run_scenario(acp_cfg);
        let random = run_scenario(rnd_cfg);
        assert!(
            acp.overall_success() > random.overall_success(),
            "acp {} vs random {}",
            acp.overall_success(),
            random.overall_success()
        );
    }

    #[test]
    fn tuner_scenario_profiles_and_tracks_ratio() {
        let mut config = ScenarioConfig::small(6);
        config.tuner = Some(TunerConfig { target_success: 0.9 });
        config.duration = SimDuration::from_minutes(25);
        let result = run_scenario(config);
        assert!(result.profiling_runs >= 1, "first sample must profile");
        assert!(!result.ratio_series.is_empty());
        // ratio stays within bounds
        for &(_, r) in result.ratio_series.samples() {
            assert!((0.0..=1.0).contains(&r));
        }
    }

    /// The replay trace has one reader, the tuner. The horizon is off
    /// the five-minute sampling grid, so a run that records ends holding
    /// its last three minutes of arrivals.
    #[test]
    fn replay_trace_is_recorded_only_for_a_tuner() {
        let mut config = ScenarioConfig::small(6);
        config.duration = SimDuration::from_minutes(18);
        let plain = simulate(config.clone());
        assert!(plain.result.total_requests > 100);
        assert!(plain.trace.is_empty(), "{} requests cloned for no reader", plain.trace.len());

        config.tuner = Some(TunerConfig { target_success: 0.9 });
        let tuned = simulate(config);
        assert!(!tuned.trace.is_empty());
        // The tuned run itself is what it was before the trace became a
        // deque recorded on demand (values taken at the parent commit).
        let profiling_runs = tuned.tuner.as_ref().map(|t| t.profiling_runs());
        assert_eq!(
            (session_digest(&tuned.system), tuned.result.total_successes, profiling_runs),
            (0x98df_e77d_c744_93fc, 187, Some(1))
        );
    }

    #[test]
    fn state_updates_are_counted() {
        let result = run_scenario(ScenarioConfig::small(8));
        assert!(result.overhead.state_update_messages > 0, "aggregation rounds alone publish");
    }

    #[test]
    fn fault_free_runs_audit_clean() {
        let result = run_scenario(ScenarioConfig::small(4));
        assert_eq!(result.audit_violations, 0, "invariant violation without faults");
        assert_eq!(result.fault_events, 0);
        assert_eq!(result.sessions_killed, 0);
        assert!(result.sim_events > 0);
    }

    #[test]
    fn churn_scenario_injects_faults_and_audits_clean() {
        let mut config = ScenarioConfig::small(9);
        config.churn = Some(ChurnConfig::default());
        let result = run_scenario(config);
        assert!(result.fault_events > 0, "plan must contain faults");
        assert!(result.fault_kinds >= 3, "expect several fault classes, got {}", result.fault_kinds);
        assert!(result.sessions_killed > 0, "churn at these rates must orphan sessions");
        assert_eq!(
            result.sessions_killed,
            result.sessions_recovered + result.sessions_lost + result.sessions_pending,
            "every orphan is recomposed, lost or still queued"
        );
        assert_eq!(result.audit_violations, 0, "invariants must hold under churn");
        assert!(result.audit_digest != 0, "audit passes must have run");
        // Without a repair config, the terminate arm: every kill is
        // ticketed and restarted, nothing is spliced.
        assert!(result.sessions_recovered > 0, "restarts must land");
        assert_eq!(result.sessions_repaired, 0, "terminate arm never splices");
        assert_eq!(result.repair_opened, result.sessions_killed, "every kill opens a ticket");
        assert_eq!(result.repair_cancelled, 0, "a killed session has no close to cancel it");
        assert!(result.mttr.min >= 1.0, "the detection latency floors MTTR, min {}", result.mttr.min);
    }

    #[test]
    fn churn_is_deterministic_across_reruns() {
        let mut config = ScenarioConfig::small(11);
        config.churn = Some(ChurnConfig::default().scaled(1.5));
        let a = run_scenario(config.clone());
        let b = run_scenario(config);
        assert_eq!(a.fault_digest, b.fault_digest);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.chaos_digest(), b.chaos_digest());
        assert_eq!(a.sessions_killed, b.sessions_killed);
        assert_eq!(a.sessions_recovered, b.sessions_recovered);
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn churn_seed_changes_fault_plan() {
        let mut a_cfg = ScenarioConfig::small(21);
        a_cfg.churn = Some(ChurnConfig::default());
        let mut b_cfg = ScenarioConfig::small(22);
        b_cfg.churn = Some(ChurnConfig::default());
        let a = run_scenario(a_cfg);
        let b = run_scenario(b_cfg);
        assert_ne!(a.fault_digest, b.fault_digest, "plans must derive from the master seed");
    }

    /// A run without a setup config runs the §3.3 protocol over the
    /// default, fault-free transport (`simulate` resolves `None` to
    /// `SetupConfig::default()`): its lease ledger is live and
    /// reconciles, and nothing is retried, fault-hit or leaked.
    #[test]
    fn default_transport_keeps_a_live_ledger_that_reconciles() {
        let result = run_scenario(ScenarioConfig::small(7));
        assert!(result.lease_stats.created > 0);
        assert!(result.lease_stats.reconciles(result.leases_live_end));
        assert_eq!(result.setup_stats.attempts, result.total_requests);
        assert_eq!(result.setup_stats.retries, 0);
        assert_eq!(result.fault_hit_requests, 0);
        assert_eq!(result.leases_leaked, 0);
    }

    #[test]
    fn lossy_transport_scenario_recovers_and_audits_clean() {
        let mut cfg = ScenarioConfig::small(11);
        cfg.setup = Some(SetupConfig {
            faults: acp_simcore::MessageFaultConfig {
                probe_drop: 0.10,
                confirm_loss: 0.05,
                stale_ack: 0.5,
            },
            ..SetupConfig::default()
        });
        let result = run_scenario(cfg);
        assert!(result.fault_hit_requests > 0, "faults must actually land");
        assert!(result.setup_stats.retries > 0, "losses must trigger retries");
        let fault_lost = result.setup_stats.fault_failures;
        assert!(
            result.fault_hit_successes * 10 >= (result.fault_hit_successes + fault_lost) * 9,
            "retry must recover >=90% of otherwise-failed requests: {} recovered, {} lost",
            result.fault_hit_successes,
            fault_lost,
        );
        assert_eq!(result.audit_violations, 0, "lease invariants must hold at every sample");
        assert_eq!(result.leases_leaked, 0, "reclamation sweep must recover every orphan");
        assert!(
            result.lease_stats.reconciles(0),
            "final ledger must reconcile to zero live leases: {:?}",
            result.lease_stats,
        );
    }

    #[test]
    fn single_gold_tenant_scenario_is_byte_identical_to_plain() {
        let plain = run_scenario(ScenarioConfig::small(7));
        let mut cfg = ScenarioConfig::small(7);
        cfg.tenants = Some(TenantsConfig::single_gold());
        let tenanted = run_scenario(cfg);
        assert_eq!(plain.session_digest, tenanted.session_digest);
        assert_eq!(plain.audit_digest, tenanted.audit_digest);
        assert_eq!(plain.chaos_digest(), tenanted.chaos_digest());
        assert_eq!(plain.overhead, tenanted.overhead);
        assert_eq!(plain.total_requests, tenanted.total_requests);
        assert_eq!(plain.total_successes, tenanted.total_successes);
        assert_eq!(plain.sim_events, tenanted.sim_events);
        // The tenanted run additionally keeps a (clean) per-tenant ledger.
        let gold = tenanted.tenant_tiers[tier_index(TenantTier::Gold)];
        assert_eq!(gold.offered, tenanted.total_requests);
        assert_eq!(gold.composed, tenanted.total_successes);
        assert_eq!(gold.shed, 0, "an uncapped Gold tenant is never shed");
        assert_eq!(tenanted.tenant_violations, 0);
        assert_eq!(tenanted.tenant_preemptions, 0);
        // Plain runs never pay for the ledger at all.
        assert_eq!(plain.tenant_tiers, [TierSummary::default(); 3]);
    }

    #[test]
    fn tenanted_scenario_is_deterministic() {
        let mut config = ScenarioConfig::small(13);
        config.schedule = RateSchedule::constant(60.0);
        config.tenants = Some(TenantsConfig::standard_mix());
        let a = run_scenario(config.clone());
        let b = run_scenario(config);
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.tenant_tiers, b.tenant_tiers);
        assert_eq!(a.tenant_preemptions, b.tenant_preemptions);
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn overloaded_tenants_shed_in_tier_order_and_audit_clean() {
        let mut config = ScenarioConfig::small(17);
        config.schedule = RateSchedule::constant(120.0);
        config.duration = SimDuration::from_minutes(30);
        let mut tenants = TenantsConfig::standard_mix();
        // Thresholds inside the utilization this small system reaches,
        // still tiered so shed order is observable.
        tenants.admission =
            AdmissionConfig { best_effort_threshold: 0.30, silver_threshold: 0.55 };
        tenants.preemption = None;
        config.tenants = Some(tenants);
        let result = run_scenario(config);
        let gold = result.tenant_tiers[tier_index(TenantTier::Gold)];
        let silver = result.tenant_tiers[tier_index(TenantTier::Silver)];
        let best = result.tenant_tiers[tier_index(TenantTier::BestEffort)];
        assert!(best.shed > 0, "overload must shed best-effort traffic");
        assert!(
            best.shed as f64 / best.offered as f64 > silver.shed as f64 / silver.offered as f64,
            "best-effort sheds more than silver: {best:?} vs {silver:?}"
        );
        assert_eq!(gold.shed, 0, "gold is never congestion-shed");
        assert!(
            gold.success_rate() >= silver.success_rate()
                && silver.success_rate() >= best.success_rate(),
            "tier ordering must hold: gold {} silver {} best {}",
            gold.success_rate(),
            silver.success_rate(),
            best.success_rate()
        );
        assert_eq!(result.tenant_violations, 0, "isolation invariants must hold");
        assert_eq!(result.audit_violations, 0);
    }

    #[test]
    fn preemption_reclaims_only_best_effort_sessions() {
        let mut config = ScenarioConfig::small(19);
        config.schedule = RateSchedule::constant(80.0);
        let mut tenants = TenantsConfig::standard_mix();
        // An aggressive controller so preemption definitely fires: act
        // on any congestion, consider any loaded node.
        tenants.preemption = Some(TenantPreemptionConfig {
            congestion_threshold: 0.0,
            min_node_utilization: 0.05,
        });
        config.tenants = Some(tenants);
        let result = run_scenario(config);
        assert!(result.tenant_preemptions > 0, "controller must preempt under load");
        let gold = result.tenant_tiers[tier_index(TenantTier::Gold)];
        let silver = result.tenant_tiers[tier_index(TenantTier::Silver)];
        let best = result.tenant_tiers[tier_index(TenantTier::BestEffort)];
        assert_eq!(gold.preempted, 0, "preemption must never touch gold");
        assert_eq!(silver.preempted, 0, "preemption must never touch silver");
        assert_eq!(best.preempted, result.tenant_preemptions);
        assert_eq!(result.tenant_violations, 0, "ledger must reconcile through preemption");
        assert_eq!(result.audit_violations, 0);
    }

    #[test]
    fn repair_scenario_splices_sessions_and_audits_clean() {
        let mut config = ScenarioConfig::small(9);
        config.churn = Some(ChurnConfig::default());
        config.repair = Some(RepairScenarioConfig::default());
        let result = run_scenario(config);
        assert!(result.repair_opened > 0, "churn at these rates must break sessions");
        assert!(result.sessions_repaired > 0, "in-place splices must land");
        // Settled tickets never exceed opened ones; the auditor (which
        // ran clean, below) checks exact reconciliation including the
        // tickets still open at the horizon.
        assert!(
            result.sessions_repaired
                + result.sessions_recovered
                + result.sessions_lost
                + result.repair_cancelled
                <= result.repair_opened
        );
        assert_eq!(result.audit_violations, 0, "repair invariants must hold at every audit");
        assert_eq!(result.leases_leaked, 0, "make-before-break must not leak leases");
        // Detection latency counts as outage: with the 1 s fixed default
        // no recovery can beat it.
        if result.mttr.count > 0 {
            assert!(result.mttr.min >= 1.0, "MTTR floor is the detection latency, min {}", result.mttr.min);
        }
        assert!(result.mttr_p99 >= result.mttr_p50);
    }

    #[test]
    fn repair_scenario_is_deterministic() {
        let make = || {
            let mut config = ScenarioConfig::small(14);
            config.churn = Some(ChurnConfig::default().scaled(1.5));
            config.repair = Some(RepairScenarioConfig::default());
            run_scenario(config)
        };
        let a = make();
        let b = make();
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.audit_digest, b.audit_digest);
        assert_eq!(a.chaos_digest(), b.chaos_digest());
        assert_eq!(a.repair_opened, b.repair_opened);
        assert_eq!(a.sessions_repaired, b.sessions_repaired);
        assert_eq!(a.mttr, b.mttr);
        assert_eq!(a.sim_events, b.sim_events);
    }

    #[test]
    fn repair_keeps_more_sessions_alive_than_terminate() {
        // Same seed, same fault plan: the only difference is the arm.
        // Repair must strictly reduce fault-induced session deaths.
        let arm = |policy| {
            let mut config = ScenarioConfig::small(9);
            config.churn = Some(ChurnConfig::default());
            config.repair = Some(RepairScenarioConfig { policy, ..RepairScenarioConfig::default() });
            run_scenario(config)
        };
        let repair = arm(RepairPolicy::Repair);
        let terminate = arm(RepairPolicy::Terminate);
        assert_eq!(repair.fault_digest, terminate.fault_digest, "same plan in both arms");
        assert!(
            repair.sessions_killed < terminate.sessions_killed,
            "repair arm must keep path sessions alive: {} killed vs {}",
            repair.sessions_killed,
            terminate.sessions_killed
        );
    }

    #[test]
    fn partitions_sever_and_heal_crossing_links_cleanly() {
        let make = |seed| {
            let mut config = ScenarioConfig::small(seed);
            config.churn = Some(ChurnConfig {
                faults: FaultPlanConfig { partition_per_min: 0.3, ..FaultPlanConfig::default() },
            });
            config.repair = Some(RepairScenarioConfig::default());
            run_scenario(config)
        };
        let result = make(16);
        assert!(result.fault_kinds >= 5, "partition classes must appear, got {}", result.fault_kinds);
        assert!(result.repair_opened > 0, "cut links must break sessions");
        assert_eq!(result.audit_violations, 0, "invariants must hold through cut and heal");
        assert_eq!(result.leases_leaked, 0);
        let again = make(16);
        assert_eq!(result.chaos_digest(), again.chaos_digest(), "partitions replay deterministically");
    }

    #[test]
    #[should_panic(expected = "invalid scenario config: local_refresh must be positive")]
    fn run_scenario_refuses_an_invalid_config() {
        run_scenario(ScenarioConfig { local_refresh: SimDuration::ZERO, ..ScenarioConfig::small(3) });
    }

    /// Regression: the failover sweep drew a recovered session's length
    /// with its own `gen_range(lo..hi)`, which panics on the degenerate
    /// range the request generator accepts.
    #[test]
    fn fixed_session_length_survives_churn() {
        let mut config = ScenarioConfig::small(9);
        config.requests.session_minutes = (5.0, 5.0);
        config.churn = Some(ChurnConfig::default());
        let result = run_scenario(config);
        assert!(result.sessions_recovered > 0, "the sweep must have drawn a session length");
        assert_eq!(result.audit_violations, 0);
    }

    /// Regression: the first arrival used to be unconditional and a
    /// zero-rate segment ended the arrival chain for good.
    #[test]
    fn arrivals_follow_the_schedule_through_zero_rate_segments() {
        let run = |schedule| run_scenario(ScenarioConfig { schedule, ..ScenarioConfig::small(5) });
        let silent = run(RateSchedule::constant(0.0));
        assert_eq!((silent.total_requests, silent.final_sessions), (0, 0));
        assert_eq!(silent.audit_violations, 0);
        // 20 simulated minutes: quiet, then 30 req/min from minute 5 to
        // minute 10, then quiet again.
        let burst = run(RateSchedule::steps(vec![
            (SimTime::ZERO, 0.0),
            (SimTime::from_minutes(5), 30.0),
            (SimTime::from_minutes(10), 0.0),
            (SimTime::from_minutes(15), 0.0),
        ]));
        assert!((100..=200).contains(&burst.total_requests), "≈ 150 arrivals, got {}", burst.total_requests);
        // A window without attempts records no sample: the first is the
        // 5–10 min window's, and at most the one arrival drawn before
        // minute 10 that lands after it follows.
        let samples = burst.success_series.samples();
        assert_eq!(samples[0].0, SimTime::from_minutes(10), "{samples:?}");
        assert!(samples.len() <= 2, "{samples:?}");
    }

    #[test]
    fn lossy_transport_scenario_is_deterministic() {
        let make = || {
            let mut cfg = ScenarioConfig::small(19);
            cfg.setup = Some(SetupConfig {
                faults: acp_simcore::MessageFaultConfig {
                    probe_drop: 0.15,
                    confirm_loss: 0.05,
                    ..acp_simcore::MessageFaultConfig::default()
                },
                ..SetupConfig::default()
            });
            run_scenario(cfg)
        };
        let a = make();
        let b = make();
        assert_eq!(a.session_digest, b.session_digest);
        assert_eq!(a.chaos_digest(), b.chaos_digest());
        assert_eq!(a.setup_stats, b.setup_stats);
        assert_eq!(a.lease_stats, b.lease_stats);
        assert_eq!(a.fault_hit_requests, b.fault_hit_requests);
    }

    /// The full-stack golden configuration: doubled fault rates with
    /// partitions, in-place repair, the tenant mix, lossy two-phase setup.
    fn full_stack() -> ScenarioConfig {
        let mut config = ScenarioConfig::small(16);
        config.churn = Some(ChurnConfig {
            faults: FaultPlanConfig { partition_per_min: 0.3, ..FaultPlanConfig::default() }.scaled(2.0),
        });
        config.repair = Some(RepairScenarioConfig::default());
        config.tenants = Some(TenantsConfig::standard_mix());
        config.setup = Some(lossy_setup(0.05, 0.025));
        config
    }

    fn lossy_setup(probe_drop: f64, confirm_loss: f64) -> SetupConfig {
        SetupConfig {
            faults: acp_simcore::MessageFaultConfig {
                probe_drop,
                confirm_loss,
                stale_ack: 0.5,
            },
            ..SetupConfig::default()
        }
    }

    /// At the attempt bound, a transport that drops nine probes in ten
    /// sends requests down the whole backoff ladder (a request that
    /// fails faulted has run every round), and the run still ends with
    /// its post-horizon sweep and audits clean.
    #[test]
    fn setup_attempts_at_the_bound_run_clean() {
        let mut config = ScenarioConfig::small(23);
        config.setup = Some(SetupConfig { max_attempts: MAX_SETUP_ATTEMPTS, ..lossy_setup(0.9, 0.0) });
        assert_eq!(config.validate(), Ok(()));
        let r = run_scenario(config);
        assert!(r.setup_stats.fault_failures > 0, "{:?}", r.setup_stats);
        assert_eq!(r.audit_violations, 0);
        assert_eq!(r.leases_leaked, 0);
    }

    /// What separate shadow counters made true by keeping in step, the
    /// one ledger must make true by how its handlers add into it.
    #[test]
    fn ledger_identities_hold_on_the_full_stack() {
        let r = run_scenario(full_stack());
        assert!(r.sessions_killed > 0 && r.setup_stats.retries > 0, "faults of both kinds must land");
        let tiers = |count: fn(&TierSummary) -> u64| r.tenant_tiers.iter().map(count).sum::<u64>();
        assert_eq!(r.total_requests, tiers(|t| t.offered), "every arrival is offered to exactly one tier");
        assert_eq!(r.total_successes, tiers(|t| t.composed));
        assert_eq!(tiers(|t| t.offered), tiers(|t| t.shed + t.composed + t.failed), "shed, composed or failed");
        assert_eq!(r.sessions_killed, r.sessions_recovered + r.sessions_lost + r.sessions_pending);
        assert_eq!(r.mttr.count, r.sessions_repaired + r.sessions_recovered, "one MTTR sample per recovery");
        assert_eq!(r.overall_success(), r.total_successes as f64 / r.total_requests as f64);
        // Arrivals that passed the gate reached the composer and landed
        // in a tier row; failover and repair composes add to the message
        // and setup ledgers only.
        let reached = tiers(|t| t.composed + t.failed);
        assert_eq!(reached + tiers(|t| t.shed), r.total_requests);
        assert!(r.setup_stats.attempts > reached, "sweeps' setup rounds are summed in");
        assert!(r.fault_hit_successes <= r.fault_hit_requests && r.fault_hit_requests <= r.total_requests);
        assert_eq!(r.profiling_runs, 0, "no tuner, no profiling");
        assert_eq!((r.audit_violations, r.tenant_violations, r.leases_leaked), (0, 0, 0));
    }


    /// A zero-length run's result equals itself: no field divides by
    /// the zero duration into NaN.
    #[test]
    fn zero_duration_run_equals_itself() {
        let config = ScenarioConfig { duration: SimDuration::ZERO, ..ScenarioConfig::small(3) };
        assert_eq!(run_scenario(config.clone()), run_scenario(config));
    }

    /// A loaded small system under heavy transport loss: requests fail
    /// with a confirmation unaccounted for, so their leases stay orphaned
    /// until expiry, up to the run's last second.
    fn orphaning() -> ScenarioConfig {
        let mut config = ScenarioConfig::small(6);
        config.schedule = RateSchedule::constant(60.0);
        config.setup = Some(lossy_setup(0.2, 0.3));
        config
    }

    /// Regression: the gauge swept once at `end + transient_timeout`, but
    /// a request arriving in the run's last seconds runs its retry rounds
    /// *after* `end` (at `arrival + Σ backoff`) and reserves from there,
    /// so its orphans legitimately outlive that horizon — this run read
    /// "36 leaked".
    #[test]
    fn leak_gauge_sweeps_to_the_last_legitimate_expiry() {
        let result = run_scenario(orphaning());
        assert!(result.leases_live_end > 0, "the run must end holding orphaned leases");
        assert_eq!(result.leases_leaked, 0, "every orphan expires within the retry ladder's reach");
        assert!(result.lease_stats.reconciles(0), "{:?}", result.lease_stats);
        assert_eq!(result.audit_violations, 0);
    }

    /// The gauge is not vacuous: it sweeps to a bound, not to whenever
    /// the last lease happens to expire. A lease expiring exactly at the
    /// bound is reclaimed; one a microsecond past it is a leak.
    #[test]
    fn a_lease_expiring_past_the_bound_is_still_a_leak() {
        let config = orphaning();
        let bound = SimTime::ZERO
            + config.duration
            + config.setup.as_ref().expect("two-phase").max_backoff()
            + config.probing.transient_timeout;
        let mut model = simulate(config);
        let node = model.system.overlay().nodes().next().expect("nodes");
        let mut hosted = model.system.node(node).components().map(|c| c.id);
        let (at_bound, past_bound) = (hosted.next().expect("hosted"), hosted.next().expect("two hosted"));
        drop(hosted);
        let amount = ResourceVector::new(0.01, 0.01);
        let stray = RequestId(u64::MAX);
        assert!(model.system.reserve_component_transient(stray, at_bound, amount, bound));
        assert!(model.system.reserve_component_transient(
            stray,
            past_bound,
            amount,
            bound + SimDuration::from_micros(1)
        ));
        assert_eq!(summarize(model).leases_leaked, 1);
    }
}
