//! The composition-probing protocol (Fig. 3 of the paper).
//!
//! [`probe_compose`] implements the distributed hop-by-hop probing shared
//! by ACP and the two probing baselines:
//!
//! 1. **Initialisation** — the deputy node creates the initial probe
//!    carrying the request and the probing ratio.
//! 2. **Per-hop processing** — advancing one function-graph vertex at a
//!    time (topological order), every live probe: checks QoS/resource
//!    conformance of the probed partial composition against *precise*
//!    local state (Eqs. 6–8), performs transient resource allocation,
//!    derives next-hop functions, discovers candidates, selects the
//!    `⌈α·k⌉` best under coarse global state ([`HopSelection::Ranked`]) or
//!    at random ([`HopSelection::Random`]), spawns child probes, and
//!    forwards them.
//! 3. **Optimal composition selection** — completed probes return to the
//!    deputy, which qualifies them (Eqs. 2–5) and picks the best by the
//!    congestion aggregation `φ(λ)` (Eq. 1) — or uniformly at random for
//!    the SP baseline.
//! 4. **Session setup** — confirmation converts transient reservations
//!    into permanent allocations.
//!
//! # Two-phase setup under a lossy transport
//!
//! Steps 2 and 4 are the two phases of a reservation protocol: probes
//! place **transient leases** on candidate nodes and links (phase 1), and
//! the confirmation promotes the winner's leases to committed residuals
//! (phase 2). [`compose_with_mode`] over a [`TwoPhase`] mode subjects
//! both phases to message faults ([`MessageFaultConfig`]): probe
//! messages may be dropped or
//! delayed in transit (a probe whose cumulative transport delay reaches
//! the lease timeout is stale and discarded), and the confirmation itself
//! may be lost — leaving the winner's leases **orphaned** until the
//! expiry-driven reclamation sweep recovers them ("cancelled after a
//! timeout period if the node does not receive a confirmation message",
//! §3.3). A lost confirmation may also resurface later as a duplicate
//! delivery (stale ack); commits are idempotent per request, so a request
//! that already holds a session rejects the duplicate instead of
//! double-committing residuals.
//!
//! Fault-induced failures are retried with deterministic exponential
//! backoff plus seeded jitter, escalating the probing ratio α via
//! [`AlphaEscalator`] on consecutive failures. With every fault rate at
//! zero the two-phase path performs *exactly* the RNG draws and state
//! mutations of the plain path — the fault injector consumes no
//! randomness for disabled classes — so enabling it is byte-identical.

use acp_model::prelude::*;
use acp_simcore::{
    DeterministicRng, MessageFaultConfig, MessageFaultInjector, SimDuration, SimTime, Transport,
};
use acp_state::GlobalStateBoard;
use acp_topology::{OverlayNodeId, SharedPath};
use rand::rngs::StdRng;
use rand::Rng;

use crate::overhead::OverheadStats;
use crate::selection::{
    arrival_accumulated, resolved_link, select_into, HopInputs, HopSelection, SelectionScratch,
};
use crate::tuning_control::{AlphaEscalator, EscalationConfig};

/// How the deputy picks among qualified completed compositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalSelection {
    /// Minimise the congestion aggregation metric `φ(λ)` (ACP, RP).
    MinCongestion,
    /// Uniform random choice among qualified compositions (SP).
    Random,
}

/// Tunables of the probing protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbingConfig {
    /// Probing ratio `α ∈ (0, 1]`.
    pub probing_ratio: f64,
    /// Per-hop candidate selection strategy.
    pub hop_selection: HopSelection,
    /// Final selection at the deputy.
    pub final_selection: FinalSelection,
    /// Transient-reservation lifetime ("cancelled after a timeout period
    /// if the node does not receive a confirmation message").
    pub transient_timeout: SimDuration,
    /// Risk values within this distance count as "similar", falling back
    /// to the congestion function for ranking (§3.5).
    pub risk_epsilon: f64,
    /// Hard cap on concurrently live probes per request — the "probing
    /// overhead limit" of §3.4 (footnote 9). Lowest-risk probes survive
    /// truncation.
    pub max_live_probes: usize,
    /// Fixed per-hop candidate budget overriding the ratio-derived quota
    /// (still clamped to the candidate count). `None` uses `⌈α·k⌉`. This
    /// is the PlanetLab prototype's *bounded composition probing*
    /// (footnote 10): a simpler ACP variant with a constant probe budget
    /// per function instead of a tunable ratio.
    pub quota_override: Option<usize>,
}

impl Default for ProbingConfig {
    fn default() -> Self {
        ProbingConfig {
            probing_ratio: 0.3,
            hop_selection: HopSelection::Ranked,
            final_selection: FinalSelection::MinCongestion,
            transient_timeout: SimDuration::from_secs(30),
            risk_epsilon: 0.05,
            max_live_probes: 4_096,
            quota_override: None,
        }
    }
}

/// Transport-fault and retry tunables of the two-phase setup path.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupConfig {
    /// Message-fault rates applied to probe and confirmation traffic.
    pub faults: MessageFaultConfig,
    /// Maximum probing rounds per request (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Multiplicative backoff growth per retry.
    pub backoff_factor: f64,
    /// Uniform jitter added to each backoff, as a fraction of it (drawn
    /// from the seeded backoff stream — deterministic).
    pub jitter_frac: f64,
    /// Probing-ratio escalation on consecutive failed attempts.
    pub escalation: EscalationConfig,
}

impl Default for SetupConfig {
    fn default() -> Self {
        SetupConfig {
            faults: MessageFaultConfig::default(),
            max_attempts: 6,
            backoff_base: SimDuration::from_millis(250),
            backoff_factor: 2.0,
            jitter_frac: 0.25,
            escalation: EscalationConfig::default(),
        }
    }
}

impl SetupConfig {
    /// Backoff before the retry that follows failed attempt number
    /// `attempt` (1-based), in seconds, before jitter.
    fn backoff_secs(&self, attempt: u32) -> f64 {
        self.backoff_base.as_secs_f64() * self.backoff_factor.powi(attempt as i32 - 1)
    }

    /// The longest a request's last probing round can start after its
    /// first: every retry taken, every backoff at full jitter. A lease
    /// reserved by a request that arrived at `t` expires no later than
    /// `t + max_backoff() + transient_timeout`.
    pub fn max_backoff(&self) -> SimDuration {
        (1..self.max_attempts.max(1)).fold(SimDuration::ZERO, |ladder, attempt| {
            let backoff = self.backoff_secs(attempt);
            ladder + SimDuration::from_secs_f64(backoff + backoff * self.jitter_frac)
        })
    }
}

/// Per-request ledger of the two-phase setup path: transport faults
/// suffered, retries spent, and lease housekeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetupStats {
    /// Probing rounds run (1 = first attempt succeeded or no retry).
    pub attempts: u64,
    /// Retries after fault-induced failures (`attempts - 1` when > 0).
    pub retries: u64,
    /// Probe messages dropped by the transport.
    pub probes_lost: u64,
    /// Probe messages delayed by the transport.
    pub probes_delayed: u64,
    /// Probes discarded because transport delay outlived the lease
    /// timeout.
    pub stale_probes_discarded: u64,
    /// Confirmation messages lost before reaching the winner's nodes.
    pub confirms_lost: u64,
    /// Late duplicate confirmations rejected by the idempotent-commit
    /// guard.
    pub stale_acks_rejected: u64,
    /// Late duplicate confirmations that salvaged an otherwise-failed
    /// request.
    pub stale_acks_recovered: u64,
    /// Leases left orphaned by a fault-hit failure (recovered later by
    /// the reclamation sweep).
    pub leases_orphaned: u64,
    /// Leases reclaimed by the backoff-time sweeps inside the retry loop.
    pub leases_reclaimed: u64,
    /// Requests lost *to faults*: the request failed and its conclusive
    /// attempt was itself fault-hit. A fault-touched request whose final
    /// (escalated, fault-free) attempt fails cleanly is counted as a
    /// legitimate failure instead — full fault-free probing proved the
    /// system could not serve it.
    pub fault_failures: u64,
}

impl SetupStats {
    /// True when at least one message fault touched this request's setup.
    pub fn fault_hit(&self) -> bool {
        self.probes_lost + self.probes_delayed + self.confirms_lost > 0
    }
}

impl std::ops::Add for SetupStats {
    type Output = SetupStats;
    fn add(self, rhs: SetupStats) -> SetupStats {
        SetupStats {
            attempts: self.attempts + rhs.attempts,
            retries: self.retries + rhs.retries,
            probes_lost: self.probes_lost + rhs.probes_lost,
            probes_delayed: self.probes_delayed + rhs.probes_delayed,
            stale_probes_discarded: self.stale_probes_discarded + rhs.stale_probes_discarded,
            confirms_lost: self.confirms_lost + rhs.confirms_lost,
            stale_acks_rejected: self.stale_acks_rejected + rhs.stale_acks_rejected,
            stale_acks_recovered: self.stale_acks_recovered + rhs.stale_acks_recovered,
            leases_orphaned: self.leases_orphaned + rhs.leases_orphaned,
            leases_reclaimed: self.leases_reclaimed + rhs.leases_reclaimed,
            fault_failures: self.fault_failures + rhs.fault_failures,
        }
    }
}

impl std::ops::AddAssign for SetupStats {
    fn add_assign(&mut self, rhs: SetupStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for SetupStats {
    fn sum<I: Iterator<Item = SetupStats>>(iter: I) -> SetupStats {
        iter.fold(SetupStats::default(), |a, b| a + b)
    }
}

/// Compile-time selection of the setup path.
///
/// The probing protocol is generic over its setup mode; every fault,
/// retry, and backoff branch is gated on [`SetupMode::TWO_PHASE`], a
/// constant, so the [`SinglePhase`] monomorphization compiles down to
/// the plain lossless protocol — no injector state, no backoff stream,
/// no retry loop, no lease-ledger pressure — while [`TwoPhase`] carries
/// the full reservation machinery. The state machine is identical in
/// both; only the dispatch moved from run time to compile time.
pub trait SetupMode: std::fmt::Debug {
    /// `true` on the two-phase path. Gates every fault/retry branch, so
    /// the single-phase composer carries none of them in its code.
    const TWO_PHASE: bool;

    /// Probing rounds allowed per request (1 = no retry).
    fn max_attempts(&self) -> u32 {
        1
    }

    /// Probing-ratio escalation applied on consecutive failed attempts.
    fn escalation(&self) -> EscalationConfig {
        EscalationConfig::default()
    }

    /// Deterministic backoff (plus seeded jitter) before retrying after
    /// failed attempt number `attempt`.
    fn backoff_delay(&mut self, _attempt: u32) -> SimDuration {
        SimDuration::ZERO
    }

    /// Does this forwarded probe get dropped in transit?
    fn probe_dropped(&mut self) -> bool {
        false
    }

    /// Transit delay suffered by this forwarded probe.
    fn probe_delay(&mut self) -> SimDuration {
        SimDuration::ZERO
    }

    /// Does this session-confirmation message get lost in transit?
    fn confirm_lost(&mut self) -> bool {
        false
    }

    /// Does a lost confirmation later resurface as a stale ack?
    fn stale_ack_resurfaces(&mut self) -> bool {
        false
    }
}

/// The plain single-phase setup path: reliable transport, one probing
/// round, no retry state. A zero-sized type — composing with it is the
/// pre-two-phase protocol, bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinglePhase;

impl SetupMode for SinglePhase {
    const TWO_PHASE: bool = false;
}

/// Mutable state of the two-phase setup path carried across requests:
/// the message transport (usually a seeded
/// [`MessageFaultInjector`], or any other [`Transport`]) and the seeded
/// backoff-jitter stream.
#[derive(Debug, Clone)]
pub struct TwoPhase<T: Transport = MessageFaultInjector> {
    config: SetupConfig,
    transport: T,
    backoff_rng: StdRng,
}

/// The historical name of [`TwoPhase`] over the fault-injecting
/// transport, kept for call sites predating the mode split.
pub type SetupState = TwoPhase<MessageFaultInjector>;

impl TwoPhase<MessageFaultInjector> {
    /// Creates the setup state. All randomness derives from `seed` via
    /// label-separated streams, independent of the composer's selection
    /// RNG.
    pub fn new(seed: u64, config: SetupConfig) -> Self {
        let transport = MessageFaultInjector::new(seed, config.faults.clone());
        TwoPhase::with_transport(seed, config, transport)
    }

    /// True when every fault class is disabled — the two-phase path then
    /// behaves byte-identically to the plain path.
    pub fn is_inert(&self) -> bool {
        self.config.faults.is_inert()
    }
}

impl<T: Transport> TwoPhase<T> {
    /// Creates two-phase setup state over an explicit transport. The
    /// backoff-jitter stream derives from `seed`, independent of the
    /// transport's own randomness (if any).
    pub(crate) fn with_transport(seed: u64, config: SetupConfig, transport: T) -> Self {
        let root = DeterministicRng::new(seed);
        TwoPhase { transport, backoff_rng: root.stream("setup/backoff"), config }
    }

    /// The setup configuration in effect.
    pub fn config(&self) -> &SetupConfig {
        &self.config
    }
}

impl<T: Transport> SetupMode for TwoPhase<T> {
    const TWO_PHASE: bool = true;

    fn max_attempts(&self) -> u32 {
        self.config.max_attempts.max(1)
    }

    fn escalation(&self) -> EscalationConfig {
        self.config.escalation
    }

    fn backoff_delay(&mut self, attempt: u32) -> SimDuration {
        let backoff = self.config.backoff_secs(attempt);
        let jitter = backoff * self.config.jitter_frac * self.backoff_rng.gen::<f64>();
        SimDuration::from_secs_f64(backoff + jitter)
    }

    fn probe_dropped(&mut self) -> bool {
        self.transport.probe_dropped()
    }

    fn probe_delay(&mut self) -> SimDuration {
        self.transport.probe_delay()
    }

    fn confirm_lost(&mut self) -> bool {
        self.transport.confirm_lost()
    }

    fn stale_ack_resurfaces(&mut self) -> bool {
        self.transport.stale_ack_resurfaces()
    }
}

/// Result of one probing run.
#[derive(Debug, Clone)]
pub struct ProbingOutcome {
    /// The established session, if composition succeeded.
    pub session: Option<SessionId>,
    /// Message ledger for this request.
    pub stats: OverheadStats,
    /// Number of probes that reached the sink (summed over attempts).
    pub completed_probes: usize,
    /// Number of completed probes that passed final qualification.
    pub qualified_compositions: usize,
    /// Probing rounds run (1 unless fault-induced retries happened).
    pub attempts: u32,
    /// Two-phase setup ledger (all-zero on the plain path).
    pub setup: SetupStats,
}

/// Result of one probing attempt inside the retry loop.
struct AttemptOutcome {
    session: Option<SessionId>,
    completed: usize,
    qualified: usize,
    /// A message fault defeated this attempt (dropped/stale probe thinned
    /// the tree, or the confirmation was lost).
    faulted: bool,
}

/// Runs the probing protocol for `request` and, on success, commits the
/// chosen composition as a session.
///
/// Probing consumes transient reservations; whatever the outcome, no
/// transient state belonging to `request` survives this call (confirmation
/// converts the winner's reservations, failure releases them). This is the
/// plain (reliable-transport) path with throw-away buffers — see
/// [`compose_with_mode`] for the two-phase path under message faults and
/// for composing request after request.
pub fn probe_compose<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    rng: &mut R,
) -> ProbingOutcome {
    compose_with_mode(system, board, request, now, config, &mut SinglePhase, rng, &mut ProbeScratch::default())
}

/// The probing protocol, monomorphized over its [`SetupMode`].
///
/// With [`SinglePhase`] this is the plain lossless path: the retry loop,
/// fault sampling, backoff draws, and orphan accounting all compile away
/// behind `M::TWO_PHASE`. With [`TwoPhase`] it is the setup path under a
/// lossy message transport with fault-induced retries (see the module
/// docs) — byte-identical to single-phase while every fault rate is
/// zero. When a confirmation was lost in flight the request's leases are
/// **not** released (the deputy cannot tell a lost confirm from a
/// committed session whose ack was lost, so releasing is unsafe and
/// cleanup is left to the expiry-driven reclamation sweep); every other
/// failure releases them as before. A fault-induced retry also keeps the
/// failed attempt's leases in place: re-probing a still-leased candidate
/// refreshes the existing reservation (an idempotent `reused` touch,
/// footnote 7) instead of churning a release/create pair.
///
/// `scratch` is the caller's [`ProbeScratch`]: whoever composes request
/// after request keeps one and hands it to every call.
#[allow(clippy::too_many_arguments)] // one parameter per protocol input (Fig. 3), plus the buffers
pub fn compose_with_mode<M: SetupMode, R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    mode: &mut M,
    rng: &mut R,
    scratch: &mut ProbeScratch,
) -> ProbingOutcome {
    run_protocol(
        system,
        request,
        now,
        config,
        mode,
        rng,
        |system, now, config, mode, rng, stats, setup_stats, pending_stale| {
            probe_attempt(
                system,
                board,
                request,
                now,
                config,
                mode,
                rng,
                stats,
                setup_stats,
                pending_stale,
                scratch,
            )
        },
    )
}

/// The retry-and-settle loop around one probing round, `attempt`: the
/// protocol as [`compose_with_mode`] documents it, whatever a round is
/// made of (the tests run it over the round this module used to have).
fn run_protocol<M: SetupMode, R: Rng + ?Sized>(
    system: &mut StreamSystem,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    mode: &mut M,
    rng: &mut R,
    mut attempt: impl FnMut(
        &mut StreamSystem,
        SimTime,
        &ProbingConfig,
        &mut M,
        &mut R,
        &mut OverheadStats,
        &mut SetupStats,
        &mut Option<Composition>,
    ) -> AttemptOutcome,
) -> ProbingOutcome {
    let mut stats = OverheadStats::new();
    let mut setup_stats = SetupStats::default();
    let mut pending_stale: Option<Composition> = None;
    let mut session = None;
    let mut completed = 0;
    let mut qualified = 0;
    let mut attempt_now = now;
    let mut attempts: u32 = 0;
    let mut last_faulted;
    let max_attempts = if M::TWO_PHASE { mode.max_attempts() } else { 1 };
    let mut escalator = if M::TWO_PHASE {
        let base = config.probing_ratio.max(f64::MIN_POSITIVE);
        let esc = EscalationConfig {
            max_ratio: mode.escalation().max_ratio.max(base),
            ..mode.escalation()
        };
        Some(AlphaEscalator::new(base, esc))
    } else {
        None
    };
    let mut ratio = config.probing_ratio;

    loop {
        attempts += 1;
        setup_stats.attempts += 1;
        // Escalation leaves the config untouched until a retry actually
        // changes the ratio, so the zero-fault path borrows the caller's
        // config directly.
        let escalated;
        let attempt_config: &ProbingConfig = if ratio == config.probing_ratio {
            config
        } else {
            escalated = ProbingConfig { probing_ratio: ratio, ..config.clone() };
            &escalated
        };
        let out = attempt(
            system,
            attempt_now,
            attempt_config,
            mode,
            rng,
            &mut stats,
            &mut setup_stats,
            &mut pending_stale,
        );
        completed += out.completed;
        qualified += out.qualified;
        last_faulted = out.faulted;
        if out.session.is_some() {
            session = out.session;
            break;
        }
        // Retry only fault-induced failures: a request the system
        // legitimately cannot serve fails exactly as on the plain path.
        // (`faulted` is constant-false for SinglePhase, so the whole
        // retry arm folds away there.)
        if !M::TWO_PHASE || !out.faulted || attempts >= max_attempts {
            break;
        }
        setup_stats.retries += 1;
        // The failed attempt's leases stay in place across the retry:
        // the next attempt re-reserves overlapping candidates as
        // idempotent refreshes instead of fresh leases, and a
        // confirmation that may still be in flight keeps its leases
        // regardless. Everything is settled — promoted, released, or
        // orphaned — when the request concludes below.
        attempt_now += mode.backoff_delay(attempts);
        // Backoff-time reclamation sweep: recover whatever leases (ours
        // or other requests') have expired in the meantime.
        setup_stats.leases_reclaimed += system.expire_transients(attempt_now) as u64;
        if let Some(esc) = escalator.as_mut() {
            esc.record_failure();
            ratio = esc.ratio();
        }
    }

    // Stale-ack replay: a duplicate delivery of a lost confirmation
    // resurfaces after the protocol concluded. Commits are idempotent per
    // request — a request that already holds a session rejects the
    // duplicate, so residuals are never committed twice.
    if M::TWO_PHASE {
        if let Some(composition) = pending_stale.take() {
            if session.is_some() || system.has_session_for(request.id) {
                setup_stats.stale_acks_rejected += 1;
            } else {
                let assignment_len = composition.assignment.len() as u64;
                match system.commit_session(request, composition) {
                    Ok(sid) => {
                        stats.confirmation_messages += assignment_len;
                        setup_stats.stale_acks_recovered += 1;
                        session = Some(sid);
                    }
                    Err(_) => setup_stats.stale_acks_rejected += 1,
                }
            }
        }
    }

    if session.is_none() {
        if M::TWO_PHASE && last_faulted {
            setup_stats.fault_failures += 1;
        }
        if M::TWO_PHASE && setup_stats.confirms_lost > 0 {
            // A confirmation is unaccounted for: the deputy cannot tell
            // a lost confirm from a committed session whose ack was
            // lost, so releasing is unsafe — leases stay orphaned and
            // the expiry-driven reclamation sweep recovers them.
            setup_stats.leases_orphaned += system.request_lease_count(request.id) as u64;
        } else {
            system.release_request_transients(request.id);
        }
    }

    ProbingOutcome {
        session,
        stats,
        completed_probes: completed,
        qualified_compositions: qualified,
        attempts,
        setup: setup_stats,
    }
}

/// One probe of a round's tree: the candidate it was sent to, and what
/// it carries on from there. Its vertex is implied by its generation;
/// the rest of its partial assignment is its chain of parents.
#[derive(Debug, Clone)]
struct ProbeNode {
    /// Tree index of the probe this one extends.
    parent: usize,
    /// The component probed (assigned to this generation's vertex).
    component: ComponentId,
    /// Accumulated critical-path QoS at that vertex: the per-metric
    /// maximum over incoming branches of `acc(pred) + q(link)`, plus
    /// the component's own — precise values collected at the hop.
    acc: Qos,
    /// Per-metric maximum of `acc` along the chain up to here: the
    /// probe's risk position, carried forward instead of rescanned.
    worst: Qos,
    /// Cumulative *transport* delay suffered in transit (message-fault
    /// injection, not stream QoS).
    delay: SimDuration,
    /// The virtual links into `component`, one per incoming edge of
    /// its vertex: the run `links[links.0..links.1]` of the scratch.
    links: (usize, usize),
}

impl ProbeNode {
    /// The deputy's initial probe: nothing assigned, nothing accumulated.
    /// It stands above generation 0, whose vertex (the source) has no
    /// predecessor — so its `component`, a placeholder, is never read.
    fn initial() -> ProbeNode {
        ProbeNode {
            parent: 0,
            component: ComponentId::new(OverlayNodeId(u32::MAX), u16::MAX),
            acc: Qos::ZERO,
            worst: Qos::ZERO,
            delay: SimDuration::ZERO,
            links: (0, 0),
        }
    }
}

/// The probe tree of one probing round and every buffer the round
/// fills. Whoever composes request after request — a
/// [`ProbingComposer`](crate::algorithms::ProbingComposer), the
/// [`RepairPlanner`](crate::repair::RepairPlanner) — owns one and hands
/// it to [`compose_with_mode`], so a warm round allocates nothing for
/// its tree. It carries no state from one round to the next: a round
/// clears each buffer before it reads it, and lets go of the shared
/// paths it held before it returns.
#[derive(Debug, Default, Clone)]
pub struct ProbeScratch {
    /// Vertex → its generation, its position in the graph's topological
    /// order: generation `g` of the tree assigns the order's `g`-th vertex.
    generation: Vec<usize>,
    /// Every probe spawned this round, generation after generation,
    /// under `tree[0]`, the deputy's initial probe. A live probe's
    /// predecessors are a walk of at most |V| parents.
    tree: Vec<ProbeNode>,
    /// `(graph edge, virtual link)` of every probe in `tree`.
    links: Vec<(usize, SharedPath)>,
    /// The current vertex's incoming edges: `(edge index, how many
    /// generations above the frontier its source vertex was assigned)`.
    pred_edges: Vec<(usize, usize)>,
    /// The frontier's assigned predecessors, `(edge, component, acc)`:
    /// `pred_edges.len()` per probe, in frontier order.
    pred_buf: Vec<(usize, ComponentId, Qos)>,
    /// Every frontier probe's proposals, best first, probe after probe:
    /// probe `i`'s are `picks[pick_bounds[i]..pick_bounds[i + 1]]`.
    picks: Vec<ComponentId>,
    pick_bounds: Vec<usize>,
    /// The frontier as `(risk, offset)`, ascending.
    fill_order: Vec<(f64, usize)>,
    /// The candidates probed for the current vertex, sorted.
    probed: Vec<ComponentId>,
    selection: SelectionScratch,
    /// One completed probe's chain, leaf last, and the composition it
    /// explored: the deputy looks at one completed probe at a time, and
    /// the one it confirms is moved out.
    chain: Vec<usize>,
    composition: Composition,
    /// The completed probes as `(φ, tree index)`, in commit order.
    ranking: Vec<(f64, usize)>,
}

/// One probing round: phases 1 (lease placement via probes) and 2
/// (confirmation) with transport faults injected, no retry and no final
/// release — the caller owns both.
#[allow(clippy::too_many_arguments)]
fn probe_attempt<M: SetupMode, R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    mode: &mut M,
    rng: &mut R,
    stats: &mut OverheadStats,
    setup_stats: &mut SetupStats,
    pending_stale: &mut Option<Composition>,
    scratch: &mut ProbeScratch,
) -> AttemptOutcome {
    let ProbeScratch {
        generation,
        tree,
        links,
        pred_edges,
        pred_buf,
        picks,
        pick_bounds,
        fill_order,
        probed,
        selection,
        chain,
        composition,
        ranking,
    } = scratch;
    let mut faulted = false;
    let expiry = now + config.transient_timeout;
    let graph = &request.graph;
    let order = graph.topological_order();
    generation.clear();
    generation.resize(graph.len(), 0);
    for (g, &v) in order.iter().enumerate() {
        generation[v] = g;
    }

    // Step 1: the deputy spawns the initial probe.
    tree.clear();
    links.clear();
    tree.push(ProbeNode::initial());
    // The live probes: the last generation spawned, `tree[frontier]`.
    let mut frontier = 0..1;

    // Step 2: distributed hop-by-hop probe processing.
    //
    // The probing ratio bounds the candidates probed **per function**:
    // "if there are ten candidate components for the function F_i and the
    // probing ratio α = 0.3, then we can probe 0.3 × 10 = 3 candidate
    // components" (§3.4). Every live probe proposes ranked next-hop
    // candidates; the quota of ⌈α·k⌉ *distinct* candidates is then filled
    // best-proposal-first (one probe per candidate), so the set of live
    // probes never exceeds the per-function quota. This is what makes the
    // per-hop selection decision matter: a wasted pick cannot be papered
    // over by exponential probe fan-out.
    for (g, &vertex) in order.iter().enumerate() {
        // What is the same for every probe of this vertex.
        let hop = HopInputs::new(system, request, vertex, config.probing_ratio);
        let k = hop.candidates;
        let quota = match config.quota_override {
            Some(budget) => budget.clamp(usize::from(k > 0), k.max(1)),
            None => crate::selection::probe_quota(k, config.probing_ratio),
        }
        .min(config.max_live_probes);
        pred_edges.clear();
        for (e, u) in graph.incoming(vertex) {
            debug_assert!(generation[u] < g, "topological order violated");
            pred_edges.push((e, g - 1 - generation[u]));
        }
        let per_probe = pred_edges.len();

        // Every live probe proposes its ranked candidates. First gather
        // all probes' assigned predecessors — (edge index, component,
        // acc) — then run selection over slices of them.
        pred_buf.clear();
        for probe in frontier.clone() {
            for &(edge, up) in pred_edges.iter() {
                let mut at = probe;
                for _ in 0..up {
                    at = tree[at].parent;
                }
                pred_buf.push((edge, tree[at].component, tree[at].acc));
            }
        }
        picks.clear();
        pick_bounds.clear();
        pick_bounds.push(0);
        for i in 0..frontier.len() {
            select_into(
                system,
                board,
                &hop,
                &pred_buf[i * per_probe..(i + 1) * per_probe],
                config.hop_selection,
                config.risk_epsilon,
                rng,
                stats,
                selection,
                picks,
            );
            pick_bounds.push(picks.len());
        }
        let deepest = pick_bounds.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);

        // Fill the per-function quota best-rank-first, breaking rank ties
        // by the proposing probe's accumulated risk; at most one probe is
        // forwarded per distinct candidate. That is a stable sort of the
        // proposals by (rank, risk), and they were made in (probe, rank)
        // order — so it is this walk: rank by rank, the probes in
        // ascending (risk, position), each probe's risk taken once.
        fill_order.clear();
        fill_order.extend(frontier.clone().enumerate().map(|(i, p)| (tree[p].worst.risk_ratio(&request.qos), i)));
        fill_order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // `probed` never holds more than `quota` components, and `quota`
        // is a handful at the paper's settings but up to
        // `max_live_probes` at α = 1: a sorted run answers both with a
        // binary search, where a scan would be quadratic at the far end.
        probed.clear();
        let spawned_from = tree.len();
        'fill: for rank in 0..deepest {
            for &(_, i) in fill_order.iter() {
                let Some(&component) = picks[pick_bounds[i]..pick_bounds[i + 1]].get(rank) else {
                    continue; // this probe proposed fewer
                };
                if probed.len() >= quota {
                    break 'fill;
                }
                // At most one probe per distinct candidate of this request.
                let Err(at) = probed.binary_search(&component) else { continue };
                probed.insert(at, component);
                let parent = frontier.start + i;

                // Spawn and forward the probe (one hop message).
                stats.probes_spawned += 1;
                stats.probe_messages += 1;

                // --- transport: the hop message may be dropped or delayed.
                // Disabled fault classes consume no randomness, so with all
                // rates at zero this block is byte-identical to not existing;
                // for SinglePhase the whole block folds away at compile time.
                let mut transit_delay = tree[parent].delay;
                if M::TWO_PHASE {
                    if mode.probe_dropped() {
                        setup_stats.probes_lost += 1;
                        faulted = true;
                        continue;
                    }
                    let d = mode.probe_delay();
                    if d > SimDuration::ZERO {
                        setup_stats.probes_delayed += 1;
                        transit_delay += d;
                        if transit_delay >= config.transient_timeout {
                            // The probe limps in after the leases it placed
                            // upstream have expired: stale, discard.
                            setup_stats.stale_probes_discarded += 1;
                            faulted = true;
                            continue;
                        }
                    }
                }

                // The probe arrives: only now are its virtual links taken
                // from the memo (selection read them in place).
                let predecessors = &pred_buf[i * per_probe..(i + 1) * per_probe];
                let first_link = links.len();
                links.extend(predecessors.iter().map(|&(edge, pred, _)| {
                    (edge, resolved_link(system, pred.node, component.node).clone())
                }));
                let Some(acc) =
                    admit_probe(system, request, component, hop.demand, predecessors, &links[first_link..], expiry)
                else {
                    stats.probes_dropped += 1;
                    links.truncate(first_link);
                    continue;
                };
                let mut worst = tree[parent].worst;
                worst.raise_to(acc);
                tree.push(ProbeNode {
                    parent,
                    component,
                    acc,
                    worst,
                    delay: transit_delay,
                    links: (first_link, links.len()),
                });
            }
        }
        frontier = spawned_from..tree.len();
        if frontier.is_empty() {
            break;
        }
    }

    // Step 3: completed probes return to the deputy. The loop above ends
    // early only on an empty frontier, so every probe left has been
    // through every vertex.
    let completed = frontier.len();
    stats.probes_returned += completed as u64;

    // Qualification (Eqs. 2–5) is re-validated inside the commit; here we
    // order candidates per the final-selection policy and report how many
    // completed probes look qualified. Resource/bandwidth rejections are
    // counted as qualified at this stage because the request's own
    // transient holds still depress availability — the commit path
    // releases them before re-checking.
    let mut qualified = 0;
    ranking.clear();
    for leaf in frontier {
        assemble(tree, links, generation, graph, chain, leaf, composition);
        if matches!(
            system.qualify(request, composition),
            Ok(())
                | Err(AdmissionError::InsufficientResources { .. })
                | Err(AdmissionError::InsufficientBandwidth { .. })
        ) {
            qualified += 1;
        }
        let phi = match config.final_selection {
            FinalSelection::MinCongestion => congestion_aggregation(system, request, composition),
            FinalSelection::Random => 0.0,
        };
        ranking.push((phi, leaf));
    }
    match config.final_selection {
        // Ascending φ, ties in the order the probes returned.
        FinalSelection::MinCongestion => {
            ranking.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        FinalSelection::Random => {
            use rand::seq::SliceRandom;
            ranking.shuffle(rng);
        }
    }

    // Step 4 (phase 2): session setup — first composition whose
    // confirmation lands and commits wins. The first commit attempt
    // releases the request's transient holds (confirmation supersedes
    // reservation).
    let mut session = None;
    for &(_, leaf) in ranking.iter() {
        if M::TWO_PHASE && mode.confirm_lost() {
            setup_stats.confirms_lost += 1;
            // The confirmation vanished in transit; the deputy times
            // out waiting for the ack and gives this attempt up. The
            // winner's leases stay orphaned. With probability
            // `stale_ack` the message was merely trapped and
            // resurfaces later as a duplicate delivery.
            if mode.stale_ack_resurfaces() {
                assemble(tree, links, generation, graph, chain, leaf, composition);
                *pending_stale = Some(std::mem::take(composition));
            }
            faulted = true;
            break;
        }
        assemble(tree, links, generation, graph, chain, leaf, composition);
        match system.commit_session(request, std::mem::take(composition)) {
            Ok(sid) => {
                stats.confirmation_messages += graph.len() as u64;
                session = Some(sid);
                break;
            }
            Err(_) => continue,
        }
    }
    // Keep no path alive past the round.
    links.clear();
    composition.links.clear();

    AttemptOutcome { session, completed, qualified, faulted }
}

/// Per-hop processing of a delivered probe at the candidate's node,
/// against precise local state: Eqs. 6–8, then the transient
/// reservations. `incoming` are the candidate's virtual links, one per
/// predecessor. Returns the QoS accumulated at the candidate, or `None`
/// when the probe is dropped there.
fn admit_probe(
    system: &mut StreamSystem,
    request: &Request,
    component: ComponentId,
    demand: ResourceVector,
    predecessors: &[(usize, ComponentId, Qos)],
    incoming: &[(usize, SharedPath)],
    expiry: SimTime,
) -> Option<Qos> {
    let cand_qos = system.effective_component_qos(component);
    let acc = arrival_accumulated(predecessors, incoming, cand_qos);
    let avail = system.node_available(component.node);
    let link_avail =
        incoming.iter().fold(f64::INFINITY, |m, (_, p)| m.min(system.virtual_path_available(p)));
    // Eqs. 6–8 with precise values (candidate QoS and link QoS
    // already folded into `acc`, so pass zeros for those).
    if is_unqualified(
        acc,
        Qos::ZERO,
        Qos::ZERO,
        &request.qos,
        &avail,
        &demand,
        link_avail,
        request.bandwidth_kbps,
    ) {
        return None;
    }
    // Transient resource allocation (idempotent per
    // request+component; footnote 7).
    if !system.reserve_component_transient(request.id, component, demand, expiry) {
        return None;
    }
    for (edge, path) in incoming {
        if !path.is_colocated()
            && !system.reserve_path_transient(request.id, *edge, path, request.bandwidth_kbps, expiry)
        {
            return None;
        }
    }
    Some(acc)
}

/// Writes the composition a completed probe explored into `out`. The
/// chain from `leaf` up to the initial probe holds one probe per
/// generation; each assigned its generation's vertex and carries that
/// vertex's incoming links.
fn assemble(
    tree: &[ProbeNode],
    links: &[(usize, SharedPath)],
    generation: &[usize],
    graph: &FunctionGraph,
    chain: &mut Vec<usize>,
    leaf: usize,
    out: &mut Composition,
) {
    chain.clear();
    chain.resize(graph.len(), leaf);
    let mut at = leaf;
    for slot in chain.iter_mut().rev() {
        *slot = at;
        at = tree[at].parent;
    }
    out.assignment.clear();
    out.assignment.extend(graph.vertices().map(|v| tree[chain[generation[v]]].component));
    out.links.clear();
    out.links.extend(graph.edges().iter().enumerate().map(|(e, &(_, v))| {
        let (first, end) = tree[chain[generation[v]]].links;
        let (_, path) = links[first..end]
            .iter()
            .find(|(edge, _)| *edge == e)
            .expect("a probe links every incoming edge of its vertex");
        path.clone()
    }));
}

/// The probing round as it stood before the probe tree moved into
/// [`ProbeScratch`], kept verbatim as the oracle: a [`Probe`] cloned per
/// spawn, a `Vec<CandidatePlan>` per selection, the proposals sorted by
/// a comparator that recomputes each probe's risk, a hashed dedupe set,
/// one `Composition` per completed probe. (Its edits: the argument order
/// of `arrival_accumulated`, and the topological order borrowed from
/// the graph, which now keeps it.) It runs inside the same
/// [`run_protocol`] loop as the round that replaced it.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::probe::Probe;
    use crate::selection::{select_candidates_with, CandidatePlan, HopContext};

    /// [`super::compose_with_mode`] over the old round.
    pub(super) fn compose_with_mode<M: SetupMode, R: Rng + ?Sized>(
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
        config: &ProbingConfig,
        mode: &mut M,
        rng: &mut R,
    ) -> ProbingOutcome {
        run_protocol(
            system,
            request,
            now,
            config,
            mode,
            rng,
            |system, now, config, mode, rng, stats, setup_stats, pending_stale| {
                probe_attempt(system, board, request, now, config, mode, rng, stats, setup_stats, pending_stale)
            },
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn probe_attempt<M: SetupMode, R: Rng + ?Sized>(
        system: &mut StreamSystem,
        board: &GlobalStateBoard,
        request: &Request,
        now: SimTime,
        config: &ProbingConfig,
        mode: &mut M,
        rng: &mut R,
        stats: &mut OverheadStats,
        setup_stats: &mut SetupStats,
        pending_stale: &mut Option<Composition>,
    ) -> AttemptOutcome {
        let mut faulted = false;
        let expiry = now + config.transient_timeout;
        let order = request.graph.topological_order();

        // Step 1: the deputy spawns the initial probe.
        let mut frontier = vec![Probe::initial(&request.graph)];

        // Step 2: distributed hop-by-hop probe processing.
        //
        // The probing ratio bounds the candidates probed **per function**:
        // "if there are ten candidate components for the function F_i and the
        // probing ratio α = 0.3, then we can probe 0.3 × 10 = 3 candidate
        // components" (§3.4). Every live probe proposes ranked next-hop
        // candidates; the quota of ⌈α·k⌉ *distinct* candidates is then filled
        // best-proposal-first (one probe per candidate), so the set of live
        // probes never exceeds the per-function quota. This is what makes the
        // per-hop selection decision matter: a wasted pick cannot be papered
        // over by exponential probe fan-out.
        // Scratch buffers hoisted out of the per-vertex loop: probing a
        // figure-scale workload runs this loop thousands of times, and the
        // per-hop vectors/sets below otherwise reallocate on every vertex.
        let mut proposals: Vec<(usize, usize, CandidatePlan)> = Vec::new();
        // Predecessor arena: all probes' `(edge, component, acc)` triples for
        // the current vertex live contiguously in `pred_buf`; `pred_ranges`
        // maps probe index → its slice. Hop contexts borrow from the arena, so
        // advancing a vertex allocates nothing per probe.
        let mut pred_buf: Vec<(usize, ComponentId, Qos)> = Vec::new();
        let mut pred_ranges: Vec<(usize, usize)> = Vec::new();
        let mut probed: std::collections::HashSet<ComponentId> = std::collections::HashSet::new();
        let mut next_frontier: Vec<Probe> = Vec::new();
        let mut scratch = SelectionScratch::default();

        for &vertex in order {
            let function = request.graph.function(vertex);
            let k = system.candidates(function).len();
            let quota = match config.quota_override {
                Some(budget) => budget.clamp(usize::from(k > 0), k.max(1)),
                None => crate::selection::probe_quota(k, config.probing_ratio),
            }
            .min(config.max_live_probes);

            // Every live probe proposes its ranked candidate plans. First
            // gather all probes' assigned predecessors — (edge index,
            // component, acc) — into the arena, then run selection borrowing
            // slices of it.
            proposals.clear();
            pred_buf.clear();
            pred_ranges.clear();
            for probe in &frontier {
                let start = pred_buf.len();
                for (e, &(u, v)) in request.graph.edges().iter().enumerate() {
                    if v == vertex {
                        debug_assert!(probe.assignment[u].is_some(), "topological order violated");
                        pred_buf.push((
                            e,
                            probe.assignment[u].expect("predecessor assigned in topo order"),
                            probe.accumulated[u].expect("accumulated set with assignment"),
                        ));
                    }
                }
                pred_ranges.push((start, pred_buf.len()));
            }
            for (probe_idx, &(s, e)) in pred_ranges.iter().enumerate() {
                let ctx = HopContext { request, vertex, predecessors: &pred_buf[s..e] };
                let plans = select_candidates_with(
                    system,
                    board,
                    &ctx,
                    config.hop_selection,
                    config.probing_ratio,
                    config.risk_epsilon,
                    rng,
                    stats,
                    &mut scratch,
                );
                for (rank, plan) in plans.into_iter().enumerate() {
                    proposals.push((rank, probe_idx, plan));
                }
            }
            // Fill the per-function quota best-rank-first, breaking rank ties
            // by the proposing probe's accumulated risk; at most one probe is
            // forwarded per distinct candidate.
            proposals.sort_by(|a, b| {
                a.0.cmp(&b.0).then_with(|| {
                    let ra = frontier[a.1].worst_accumulated().risk_ratio(&request.qos);
                    let rb = frontier[b.1].worst_accumulated().risk_ratio(&request.qos);
                    ra.total_cmp(&rb)
                })
            });

            probed.clear();
            next_frontier.clear();
            for (_, probe_idx, plan) in proposals.drain(..) {
                if probed.len() >= quota {
                    break;
                }
                if !probed.insert(plan.component) {
                    continue; // candidate already probed for this request
                }
                let (s, e) = pred_ranges[probe_idx];
                let ctx = HopContext { request, vertex, predecessors: &pred_buf[s..e] };
                let probe = &frontier[probe_idx];

                // Spawn and forward the probe (one hop message).
                stats.probes_spawned += 1;
                stats.probe_messages += 1;

                // --- transport: the hop message may be dropped or delayed.
                // Disabled fault classes consume no randomness, so with all
                // rates at zero this block is byte-identical to not existing;
                // for SinglePhase the whole block folds away at compile time.
                let mut transit_delay = probe.delay;
                if M::TWO_PHASE {
                    if mode.probe_dropped() {
                        setup_stats.probes_lost += 1;
                        faulted = true;
                        continue;
                    }
                    let d = mode.probe_delay();
                    if d > SimDuration::ZERO {
                        setup_stats.probes_delayed += 1;
                        transit_delay += d;
                        if transit_delay >= config.transient_timeout {
                            // The probe limps in after the leases it placed
                            // upstream have expired: stale, discard.
                            setup_stats.stale_probes_discarded += 1;
                            faulted = true;
                            continue;
                        }
                    }
                }

                // --- per-hop processing at the candidate's node, against
                // --- precise local state ---
                let cand_qos = system.effective_component_qos(plan.component);
                let acc = arrival_accumulated(ctx.predecessors, &plan.incoming, cand_qos);
                let demand = request.vertex_demand(system.registry(), vertex);
                let avail = system.node_available(plan.component.node);
                let link_avail = plan
                    .incoming
                    .iter()
                    .fold(f64::INFINITY, |m, (_, p)| m.min(system.virtual_path_available(p)));
                // Eqs. 6–8 with precise values (candidate QoS and link QoS
                // already folded into `acc`, so pass zeros for those).
                if is_unqualified(
                    acc,
                    Qos::ZERO,
                    Qos::ZERO,
                    &request.qos,
                    &avail,
                    &demand,
                    link_avail,
                    request.bandwidth_kbps,
                ) {
                    stats.probes_dropped += 1;
                    continue;
                }
                // Transient resource allocation (idempotent per
                // request+component; footnote 7).
                if !system.reserve_component_transient(request.id, plan.component, demand, expiry) {
                    stats.probes_dropped += 1;
                    continue;
                }
                let mut link_ok = true;
                for (edge, path) in &plan.incoming {
                    if !path.is_colocated()
                        && !system.reserve_path_transient(request.id, *edge, path, request.bandwidth_kbps, expiry)
                    {
                        link_ok = false;
                        break;
                    }
                }
                if !link_ok {
                    stats.probes_dropped += 1;
                    continue;
                }
                let mut child = probe.extend(vertex, plan.component, &plan.incoming, acc);
                child.delay = transit_delay;
                next_frontier.push(child);
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
            if frontier.is_empty() {
                break;
            }
        }

        // Step 3: completed probes return to the deputy.
        let mut compositions: Vec<Composition> = frontier
            .into_iter()
            .filter(|p| p.is_complete())
            .filter_map(|p| p.into_composition())
            .collect();
        stats.probes_returned += compositions.len() as u64;
        let completed = compositions.len();

        // Qualification (Eqs. 2–5) is re-validated inside the commit; here we
        // order candidates per the final-selection policy and report how many
        // completed probes look qualified. Resource/bandwidth rejections are
        // counted as qualified at this stage because the request's own
        // transient holds still depress availability — the commit path
        // releases them before re-checking.
        let qualified = compositions
            .iter()
            .filter(|c| {
                matches!(
                    system.qualify(request, c),
                    Ok(())
                        | Err(AdmissionError::InsufficientResources { .. })
                        | Err(AdmissionError::InsufficientBandwidth { .. })
                )
            })
            .count();
        let mut phi: Vec<f64> = Vec::new();
        if config.final_selection == FinalSelection::MinCongestion {
            phi.extend(compositions.iter().map(|c| congestion_aggregation(system, request, c)));
        }

        match config.final_selection {
            FinalSelection::MinCongestion => {
                let mut keyed: Vec<(f64, Composition)> =
                    phi.into_iter().zip(compositions).collect();
                keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
                compositions = keyed.into_iter().map(|(_, c)| c).collect();
            }
            FinalSelection::Random => {
                use rand::seq::SliceRandom;
                compositions.shuffle(rng);
            }
        }

        // Step 4 (phase 2): session setup — first composition whose
        // confirmation lands and commits wins. The first commit attempt
        // releases the request's transient holds (confirmation supersedes
        // reservation).
        let mut session = None;
        for composition in compositions {
            let assignment_len = composition.assignment.len() as u64;
            if M::TWO_PHASE && mode.confirm_lost() {
                setup_stats.confirms_lost += 1;
                // The confirmation vanished in transit; the deputy times
                // out waiting for the ack and gives this attempt up. The
                // winner's leases stay orphaned. With probability
                // `stale_ack` the message was merely trapped and
                // resurfaces later as a duplicate delivery.
                if mode.stale_ack_resurfaces() {
                    *pending_stale = Some(composition);
                }
                faulted = true;
                break;
            }
            match system.commit_session(request, composition) {
                Ok(sid) => {
                    stats.confirmation_messages += assignment_len;
                    session = Some(sid);
                    break;
                }
                Err(_) => continue,
            }
        }

        AttemptOutcome { session, completed, qualified, faulted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acp_state::GlobalStateConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(seed: u64, nodes: usize) -> (StreamSystem, GlobalStateBoard) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ip = InetConfig { nodes: 250, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: nodes, neighbors: 4 }, &mut rng);
        let sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        (sys, board)
    }

    fn path_request(sys: &StreamSystem, id: u64, len: usize) -> Request {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| sys.candidates(f).len() >= 2).take(len).collect();
        assert_eq!(fns.len(), len, "not enough populated functions");
        Request {
            id: RequestId(id),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.5, 2.0),
            bandwidth_kbps: 5.0,
            stream_rate_kbps: 100.0,
            constraints: PlacementConstraints::none(),
            tenant: None,
        }
    }

    #[test]
    fn composes_simple_path_request() {
        let (mut sys, board) = build(1, 40);
        let req = path_request(&sys, 1, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let out = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &ProbingConfig::default(), &mut rng);
        assert!(out.session.is_some(), "loose request must compose");
        assert!(out.completed_probes >= 1);
        assert!(out.stats.probe_messages > 0);
        assert_eq!(sys.session_count(), 1);
        // No transient residue on any node.
        for i in 0..sys.node_count() {
            assert_eq!(sys.node(OverlayNodeId(i as u32)).transient_count(), 0);
        }
    }

    #[test]
    fn composes_dag_request() {
        let (mut sys, board) = build(2, 40);
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| sys.candidates(f).len() >= 2).take(5).collect();
        let graph = FunctionGraph::split_merge(
            vec![fns[0]],
            vec![fns[1]],
            vec![fns[2]],
            fns[3],
            vec![fns[4]],
        );
        let req = Request {
            id: RequestId(2),
            graph,
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.3, 1.0),
            bandwidth_kbps: 2.0,
            stream_rate_kbps: 64.0,
            constraints: PlacementConstraints::none(),
            tenant: None,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let out = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &ProbingConfig::default(), &mut rng);
        assert!(out.session.is_some(), "DAG request must compose");
        let session = sys.sessions().next().unwrap();
        assert!(session.composition.is_shape_valid(&req.graph));
    }

    #[test]
    fn committed_composition_is_qualified() {
        let (mut sys, board) = build(3, 40);
        let req = path_request(&sys, 3, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let out = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &ProbingConfig::default(), &mut rng);
        let sid = out.session.expect("composed");
        let composition = sys.session(sid).unwrap().composition.clone();
        // After commit the composition occupies its own resources, so
        // re-qualifying the same composition may fail on resources — but
        // shape, function and rate constraints must hold.
        assert!(composition.is_shape_valid(&req.graph));
        for v in req.graph.vertices() {
            assert_eq!(sys.component(composition.assignment[v]).function, req.graph.function(v));
        }
    }

    #[test]
    fn impossible_qos_fails_and_leaves_no_residue() {
        let (mut sys, board) = build(4, 40);
        let mut req = path_request(&sys, 4, 3);
        req.qos = QosRequirement::new(SimDuration::from_micros(1), LossRate::ZERO);
        let mut rng = StdRng::seed_from_u64(4);
        let out = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &ProbingConfig::default(), &mut rng);
        assert!(out.session.is_none());
        assert_eq!(sys.session_count(), 0);
        for i in 0..sys.node_count() {
            assert_eq!(sys.node(OverlayNodeId(i as u32)).transient_count(), 0, "transient residue");
        }
    }

    #[test]
    fn higher_ratio_probes_more() {
        let (mut sys, board) = build(5, 40);
        let req = path_request(&sys, 5, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let lo_cfg = ProbingConfig { probing_ratio: 0.1, ..ProbingConfig::default() };
        let lo = probe_compose(&mut sys.clone(), &board, &req, SimTime::ZERO, &lo_cfg, &mut rng);
        let hi_cfg = ProbingConfig { probing_ratio: 0.9, ..ProbingConfig::default() };
        let hi = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &hi_cfg, &mut rng);
        assert!(
            hi.stats.probe_messages > lo.stats.probe_messages,
            "α=0.9 ({}) should outprobe α=0.1 ({})",
            hi.stats.probe_messages,
            lo.stats.probe_messages
        );
    }

    #[test]
    fn probe_budget_caps_growth() {
        let (mut sys, board) = build(6, 60);
        let req = path_request(&sys, 6, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = ProbingConfig { probing_ratio: 1.0, max_live_probes: 8, ..ProbingConfig::default() };
        let out = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &cfg, &mut rng);
        assert!(out.completed_probes <= 8);
    }

    #[test]
    fn random_final_selection_still_commits_valid_session() {
        let (mut sys, board) = build(7, 40);
        let req = path_request(&sys, 7, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = ProbingConfig { final_selection: FinalSelection::Random, ..ProbingConfig::default() };
        let out = probe_compose(&mut sys, &board, &req, SimTime::ZERO, &cfg, &mut rng);
        assert!(out.session.is_some());
    }

    #[test]
    fn inert_two_phase_is_byte_identical_to_plain() {
        let (sys0, board) = build(21, 40);
        let req = path_request(&sys0, 21, 3);
        let cfg = ProbingConfig::default();
        let mut sys_a = sys0.clone();
        let mut rng_a = StdRng::seed_from_u64(9);
        let plain = probe_compose(&mut sys_a, &board, &req, SimTime::ZERO, &cfg, &mut rng_a);
        let mut sys_b = sys0.clone();
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut setup = SetupState::new(77, SetupConfig::default());
        assert!(setup.is_inert());
        let two = compose_with_mode(
            &mut sys_b,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            &mut setup,
            &mut rng_b,
            &mut ProbeScratch::default(),
        );
        assert_eq!(plain.session, two.session);
        assert_eq!(plain.stats, two.stats);
        assert_eq!(plain.completed_probes, two.completed_probes);
        assert_eq!(plain.qualified_compositions, two.qualified_compositions);
        assert_eq!(two.attempts, 1);
        assert_eq!(two.setup, SetupStats { attempts: 1, ..SetupStats::default() });
        assert_eq!(sys_a.lease_stats(), sys_b.lease_stats());
        // The selection RNG advanced identically on both paths.
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn reliable_transport_two_phase_is_byte_identical_to_single_phase() {
        // The other monomorphization axis: TwoPhase over a no-op
        // transport (rather than an inert injector) must also match the
        // SinglePhase instantiation byte for byte.
        let (sys0, board) = build(24, 40);
        let req = path_request(&sys0, 24, 3);
        let cfg = ProbingConfig::default();
        let mut sys_a = sys0.clone();
        let mut rng_a = StdRng::seed_from_u64(13);
        let plain = compose_with_mode(
            &mut sys_a,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            &mut SinglePhase,
            &mut rng_a,
            &mut ProbeScratch::default(),
        );
        let mut sys_b = sys0.clone();
        let mut rng_b = StdRng::seed_from_u64(13);
        let mut mode =
            TwoPhase::with_transport(55, SetupConfig::default(), acp_simcore::ReliableTransport);
        let two = compose_with_mode(
            &mut sys_b,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            &mut mode,
            &mut rng_b,
            &mut ProbeScratch::default(),
        );
        assert_eq!(plain.session, two.session);
        assert_eq!(plain.stats, two.stats);
        assert_eq!(plain.completed_probes, two.completed_probes);
        assert_eq!(two.attempts, 1);
        assert_eq!(sys_a.lease_stats(), sys_b.lease_stats());
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn probe_loss_retries_with_escalation_and_recovers() {
        let (mut sys, board) = build(22, 50);
        let cfg = ProbingConfig::default();
        let setup_cfg = SetupConfig {
            faults: MessageFaultConfig { probe_drop: 0.3, ..MessageFaultConfig::default() },
            ..SetupConfig::default()
        };
        let mut setup = SetupState::new(5, setup_cfg);
        let mut rng = StdRng::seed_from_u64(5);
        let mut retried = 0u64;
        let mut composed = 0u64;
        for id in 0..20u64 {
            // Arrivals a lease-lifetime apart, with the arrival-time
            // reclamation sweep the scenario driver also runs — earlier
            // requests' orphans never depress availability here.
            let now = SimTime::ZERO + SimDuration::from_secs(40 * id);
            sys.expire_transients(now);
            let req = path_request(&sys, 100 + id, 3);
            let out =
                compose_with_mode(&mut sys, &board, &req, now, &cfg, &mut setup, &mut rng, &mut ProbeScratch::default());
            retried += out.setup.retries;
            if let Some(sid) = out.session {
                composed += 1;
                sys.close_session(sid);
            }
        }
        assert!(retried > 0, "30% probe loss must trigger retries");
        assert!(
            composed >= 18,
            "retry with escalation should recover nearly all requests, got {composed}/20"
        );
    }

    #[test]
    fn lost_confirm_orphans_leases_until_reclamation_sweep() {
        let (mut sys, board) = build(23, 40);
        let req = path_request(&sys, 23, 3);
        let cfg = ProbingConfig::default();
        let setup_cfg = SetupConfig {
            faults: MessageFaultConfig { confirm_loss: 1.0, ..MessageFaultConfig::default() },
            max_attempts: 1,
            ..SetupConfig::default()
        };
        let mut setup = SetupState::new(3, setup_cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let out = compose_with_mode(
            &mut sys,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            &mut setup,
            &mut rng,
            &mut ProbeScratch::default(),
        );
        assert!(out.session.is_none(), "lost confirmation cannot establish a session");
        assert_eq!(out.setup.confirms_lost, 1);
        assert!(out.setup.leases_orphaned > 0, "winner's leases must stay orphaned");
        assert!(sys.live_lease_count() > 0, "orphans persist until the sweep");
        assert_eq!(sys.session_count(), 0);
        // The expiry-driven reclamation sweep recovers every orphan.
        let horizon = SimTime::ZERO + cfg.transient_timeout + SimDuration::from_secs(1);
        sys.expire_transients(horizon);
        assert_eq!(sys.live_lease_count(), 0, "sweep must reclaim all orphans");
        assert!(sys.lease_stats().reconciles(0));
        assert!(SystemAuditor::default().audit_at(&sys, Some(horizon)).is_clean());
    }

    #[test]
    fn stale_ack_recovers_otherwise_failed_request() {
        let (mut sys, board) = build(24, 40);
        let req = path_request(&sys, 24, 3);
        let cfg = ProbingConfig::default();
        let setup_cfg = SetupConfig {
            faults: MessageFaultConfig {
                confirm_loss: 1.0,
                stale_ack: 1.0,
                ..MessageFaultConfig::default()
            },
            max_attempts: 1,
            ..SetupConfig::default()
        };
        let mut setup = SetupState::new(4, setup_cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let out = compose_with_mode(
            &mut sys,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            &mut setup,
            &mut rng,
            &mut ProbeScratch::default(),
        );
        // The trapped confirmation resurfaced and salvaged the request.
        assert_eq!(out.setup.confirms_lost, 1);
        assert_eq!(out.setup.stale_acks_recovered, 1);
        assert!(out.session.is_some());
        assert_eq!(sys.session_count(), 1);
    }

    /// Regression: a confirmation lost mid-flight must never double-commit
    /// residuals when the retry succeeds on another composition — the
    /// commit is idempotent per request, so the resurfacing stale ack is
    /// rejected.
    #[test]
    fn lost_confirm_never_double_commits_after_successful_retry() {
        let (mut sys, board) = build(25, 50);
        let cfg = ProbingConfig::default();
        let setup_cfg = SetupConfig {
            faults: MessageFaultConfig {
                confirm_loss: 0.5,
                stale_ack: 1.0,
                ..MessageFaultConfig::default()
            },
            ..SetupConfig::default()
        };
        let mut setup = SetupState::new(11, setup_cfg);
        let mut rng = StdRng::seed_from_u64(11);
        let mut exercised = false;
        for id in 0..30u64 {
            let req = path_request(&sys, 200 + id, 3);
            let out = compose_with_mode(
                &mut sys,
                &board,
                &req,
                SimTime::ZERO,
                &cfg,
                &mut setup,
                &mut rng,
                &mut ProbeScratch::default(),
            );
            let sessions = sys.sessions().filter(|s| s.request == req.id).count();
            assert!(sessions <= 1, "request {id} double-committed residuals");
            if out.setup.confirms_lost > 0
                && out.session.is_some()
                && out.setup.stale_acks_rejected > 0
            {
                exercised = true;
            }
            if let Some(sid) = out.session {
                sys.close_session(sid);
            }
        }
        assert!(exercised, "no request exercised the stale-ack rejection path");
        assert!(sys.lease_stats().reconciles(sys.live_lease_count() as u64));
    }

    #[test]
    fn min_congestion_beats_random_on_phi() {
        // Statistical: over several requests the MinCongestion policy
        // should pick compositions with φ no worse on average.
        let (sys0, board) = build(8, 50);
        let mut phi_min = 0.0;
        let mut phi_rand = 0.0;
        let mut counted = 0;
        for trial in 0..10u64 {
            let req = path_request(&sys0, 100 + trial, 3);
            let mut rng_a = StdRng::seed_from_u64(trial);
            let mut rng_b = StdRng::seed_from_u64(trial);
            let mut sys_a = sys0.clone();
            let out_a = probe_compose(
                &mut sys_a,
                &board,
                &req,
                SimTime::ZERO,
                &ProbingConfig { final_selection: FinalSelection::MinCongestion, ..ProbingConfig::default() },
                &mut rng_a,
            );
            let mut sys_b = sys0.clone();
            let out_b = probe_compose(
                &mut sys_b,
                &board,
                &req,
                SimTime::ZERO,
                &ProbingConfig { final_selection: FinalSelection::Random, ..ProbingConfig::default() },
                &mut rng_b,
            );
            if let (Some(sa), Some(sb)) = (out_a.session, out_b.session) {
                let ca = sys_a.session(sa).unwrap().composition.clone();
                let cb = sys_b.session(sb).unwrap().composition.clone();
                // Evaluate both φ against the pristine system.
                let mut fresh = sys0.clone();
                fresh.release_request_transients(req.id);
                phi_min += congestion_aggregation(&fresh, &req, &ca);
                phi_rand += congestion_aggregation(&fresh, &req, &cb);
                counted += 1;
            }
        }
        assert!(counted >= 5, "most requests should compose");
        assert!(phi_min <= phi_rand + 1e-9, "min-φ {phi_min} vs random {phi_rand}");
    }

    /// The probing round against the one it replaced ([`reference`]).
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// What the sequences reached, summed over every configuration.
        #[derive(Debug, Default)]
        struct Coverage {
            composed: u64,
            failed: u64,
            retries: u64,
            stale_acks: u64,
            probes_dropped: u64,
            stale_rows: u64,
            dag_completions: u64,
        }

        /// Split–merge over five populated functions (a join with two
        /// incoming links, then a suffix hop), or a path over four.
        fn graph(sys: &StreamSystem, dag: bool, rng: &mut StdRng) -> FunctionGraph {
            let mut fns: Vec<FunctionId> =
                sys.registry().ids().filter(|&f| sys.candidates(f).len() >= 3).collect();
            for i in 0..5 {
                let j = rng.gen_range(i..fns.len());
                fns.swap(i, j);
            }
            if dag {
                FunctionGraph::split_merge(vec![fns[0]], vec![fns[1]], vec![fns[2]], fns[3], vec![fns[4]])
            } else {
                FunctionGraph::path(fns[..4].to_vec())
            }
        }

        /// One configuration: a sequence of requests through the new
        /// round (and the caller's one scratch) on `new_sys`, and
        /// through the old round on its twin — sessions kept, leases
        /// expiring, a node failing halfway — comparing everything a
        /// caller or a later request could observe after each request.
        fn run_sequence<M: SetupMode + Clone>(
            case: &str,
            base: &StreamSystem,
            config: &ProbingConfig,
            mode: &M,
            rng: &mut StdRng,
            scratch: &mut ProbeScratch,
            coverage: &mut Coverage,
        ) {
            let (mut new_sys, mut old_sys) = (base.clone(), base.clone());
            let mut board = GlobalStateBoard::new(&new_sys, GlobalStateConfig::default());
            let (mut new_mode, mut old_mode) = (mode.clone(), mode.clone());
            let select_seed = rng.gen::<u64>();
            let (mut new_rng, mut old_rng) = (StdRng::seed_from_u64(select_seed), StdRng::seed_from_u64(select_seed));
            for i in 0..8u64 {
                let now = SimTime::ZERO + SimDuration::from_secs(12 * i);
                assert_eq!(new_sys.expire_transients(now), old_sys.expire_transients(now), "{case} #{i}: expired");
                if i % 3 == 2 {
                    board.refresh_nodes(&new_sys);
                }
                let dag = rng.gen_bool(0.5);
                let request = Request {
                    id: RequestId(1_000 + i),
                    graph: graph(&new_sys, dag, rng),
                    // Binding for some requests, slack for others.
                    qos: QosRequirement::new(
                        SimDuration::from_millis(rng.gen_range(120..900)),
                        LossRate::from_probability(rng.gen_range(0.02..0.4)),
                    ),
                    base_resources: ResourceVector::new(rng.gen_range(0.5..30.0), rng.gen_range(2.0..500.0)),
                    bandwidth_kbps: rng.gen_range(1.0..1_500.0),
                    stream_rate_kbps: rng.gen_range(50.0..900.0),
                    constraints: PlacementConstraints::none(),
                    tenant: None,
                };
                if i == 4 {
                    // A node hosting one of the second hop's candidates
                    // fails behind the board's back: its rows are stale
                    // until the next refresh, and the routes through it
                    // leave the memo.
                    let hosts = new_sys.candidates(request.graph.function(1));
                    let victim = hosts[rng.gen_range(0..hosts.len())].node;
                    new_sys.fail_node(victim, RepairPolicy::Terminate, now);
                    old_sys.fail_node(victim, RepairPolicy::Terminate, now);
                }
                let new = compose_with_mode(
                    &mut new_sys,
                    &board,
                    &request,
                    now,
                    config,
                    &mut new_mode,
                    &mut new_rng,
                    scratch,
                );
                let old = reference::compose_with_mode(
                    &mut old_sys,
                    &board,
                    &request,
                    now,
                    config,
                    &mut old_mode,
                    &mut old_rng,
                );
                let case = format!("{case} #{i} {}", if dag { "dag" } else { "path" });
                assert_eq!(new.session, old.session, "{case}: session");
                assert_eq!(new.stats, old.stats, "{case}: overhead ledger");
                assert_eq!(new.completed_probes, old.completed_probes, "{case}: completed probes");
                assert_eq!(new.qualified_compositions, old.qualified_compositions, "{case}: qualified");
                assert_eq!(new.attempts, old.attempts, "{case}: attempts");
                assert_eq!(new.setup, old.setup, "{case}: setup ledger");
                let table = |sys: &StreamSystem| -> Vec<(SessionId, RequestId, Composition)> {
                    sys.sessions().map(|s| (s.id, s.request, s.composition.clone())).collect()
                };
                assert_eq!(table(&new_sys), table(&old_sys), "{case}: session table");
                assert_eq!(new_sys.live_lease_count(), old_sys.live_lease_count(), "{case}: live leases");
                assert_eq!(
                    new_sys.request_lease_count(request.id),
                    old_sys.request_lease_count(request.id),
                    "{case}: the request's leases"
                );
                assert_eq!(new_sys.lease_stats(), old_sys.lease_stats(), "{case}: lease ledger");
                assert_eq!(new_sys.path_cache_stats(), old_sys.path_cache_stats(), "{case}: path memo");
                // Same position in every random stream: selection, the
                // four transport classes, the backoff jitter.
                assert_eq!(new_rng, old_rng, "{case}: selection stream");
                assert_eq!(format!("{new_mode:?}"), format!("{old_mode:?}"), "{case}: transport streams");
                assert!(SystemAuditor::default().audit_at(&new_sys, Some(now)).is_clean(), "{case}: audit");

                coverage.composed += u64::from(new.session.is_some());
                coverage.failed += u64::from(new.session.is_none());
                coverage.retries += new.setup.retries;
                coverage.stale_acks += new.setup.stale_acks_recovered + new.setup.stale_acks_rejected;
                coverage.probes_dropped += new.stats.probes_dropped;
                coverage.stale_rows += new.stats.selection_pruned_stale;
                coverage.dag_completions += u64::from(dag) * new.completed_probes as u64;
            }
            assert_eq!(new_rng.gen::<u64>(), old_rng.gen::<u64>(), "{case}: next selection draw");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]

            /// Every combination of setup mode, α, quota override, hop
            /// and final selection, four times over on fresh seeds: 288
            /// sequences of eight requests, all through one scratch —
            /// so a buffer that carried anything from one request (or
            /// one configuration) into the next would show as a
            /// difference from the old round, which starts every
            /// attempt from fresh `Vec`s.
            #[test]
            fn round_matches_the_reference_round(master in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(master);
                let lossy = SetupConfig {
                    faults: MessageFaultConfig {
                        probe_drop: 0.05,
                        confirm_loss: 0.025,
                        stale_ack: 0.5,
                        ..MessageFaultConfig::default()
                    },
                    ..SetupConfig::default()
                };
                let mut scratch = ProbeScratch::default();
                let mut coverage = Coverage::default();
                for round in 0..4 {
                    let base = build(rng.gen(), [40, 60][round % 2]).0;
                    for two_phase in [false, true] {
                        for probing_ratio in [0.1, 0.3, 1.0] {
                            for quota_override in [None, Some(1), Some(3)] {
                                for hop_selection in [HopSelection::Ranked, HopSelection::Random] {
                                    for final_selection in [FinalSelection::MinCongestion, FinalSelection::Random] {
                                        let config = ProbingConfig {
                                            probing_ratio,
                                            quota_override,
                                            hop_selection,
                                            final_selection,
                                            ..ProbingConfig::default()
                                        };
                                        let case = format!(
                                            "master {master} round {round} two-phase {two_phase} α {probing_ratio} quota {quota_override:?} {hop_selection:?} {final_selection:?}"
                                        );
                                        if two_phase {
                                            let mode = SetupState::new(rng.gen(), lossy.clone());
                                            run_sequence(&case, &base, &config, &mode, &mut rng, &mut scratch, &mut coverage);
                                        } else {
                                            run_sequence(&case, &base, &config, &SinglePhase, &mut rng, &mut scratch, &mut coverage);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                prop_assert!(coverage.composed > 1_000 && coverage.failed > 300, "outcomes: {coverage:?}");
                prop_assert!(coverage.retries > 100 && coverage.stale_acks > 3, "two-phase arms: {coverage:?}");
                prop_assert!(coverage.probes_dropped > 600, "probes dropped at arrival: {coverage:?}");
                prop_assert!(coverage.stale_rows > 100, "rows of the failed node: {coverage:?}");
                prop_assert!(coverage.dag_completions > 600, "joins completed: {coverage:?}");
            }
        }
    }
}
