//! The composition-probing protocol (Fig. 3 of the paper).
//!
//! The probing round a [`ProbingComposer`](crate::algorithms::ProbingComposer)
//! runs implements the distributed hop-by-hop probing shared by ACP and
//! the two probing baselines:
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
//!    deputy, which ranks them by the congestion aggregation `φ(λ)`
//!    (Eq. 1) — or shuffles them, for the SP baseline.
//! 4. **Session setup** — the deputy confirms them in that order:
//!    the first that qualifies (Eqs. 2–5, checked by the commit) has its
//!    transient reservations converted into permanent allocations.
//!
//! # Two-phase setup under a lossy transport
//!
//! Steps 2 and 4 are the two phases of a reservation protocol: probes
//! place **transient leases** on candidate nodes and links (phase 1), and
//! the confirmation promotes the winner's leases to committed residuals
//! (phase 2). Both phases cross the transport of the [`TwoPhase`] setup
//! state, subject to its message faults ([`MessageFaultConfig`]): probe
//! messages may be dropped in transit, and the confirmation itself may
//! be lost — leaving the winner's leases **orphaned** until the
//! expiry-driven reclamation sweep recovers them ("cancelled after a
//! timeout period if the node does not receive a confirmation message",
//! §3.3). A lost confirmation may also
//! resurface later as a duplicate delivery (stale ack); commits are
//! idempotent per request, so a request that already holds a session
//! rejects the duplicate instead of double-committing residuals.
//!
//! Fault-induced failures are retried with deterministic exponential
//! backoff plus seeded jitter, escalating the probing ratio α
//! geometrically on consecutive failures. With every fault rate at
//! zero, the default, the fault injector draws nothing and no attempt
//! faults, so nothing retries: one probing round, as over a reliable
//! transport.

use acp_model::prelude::*;
use acp_simcore::{DeterministicRng, MessageFaultConfig, MessageFaultInjector, SimDuration, SimTime};
use acp_state::GlobalStateBoard;
use acp_topology::{OverlayNodeId, SharedPath};
use rand::rngs::StdRng;
use rand::Rng;

use crate::algorithms::ComposeOutcome;
use crate::overhead::OverheadStats;
use crate::selection::{
    arrival_accumulated, resolved_link, select_into, HopInputs, HopSelection, SelectionScratch,
};

/// How the deputy picks among qualified completed compositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalSelection {
    /// Minimise the congestion aggregation metric `φ(λ)` (ACP, RP).
    MinCongestion,
    /// Uniform random choice among qualified compositions (SP).
    Random,
}

/// What tells one probing algorithm from another: its per-hop selection,
/// its final selection, and — BCP's alone — a fixed probe budget per
/// function in place of `⌈α·k⌉`.
pub(crate) type Rules = (HopSelection, FinalSelection, Option<usize>);

/// Tunables of the probing protocol. The selection rules are not
/// among them: they are what tells ACP from its SP, RP and BCP variants,
/// so each [`ProbingComposer`](crate::algorithms::ProbingComposer)
/// constructor pins its own.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbingConfig {
    /// Probing ratio `α ∈ (0, 1]`.
    pub probing_ratio: f64,
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
}

impl Default for ProbingConfig {
    fn default() -> Self {
        ProbingConfig {
            probing_ratio: 0.3,
            transient_timeout: SimDuration::from_secs(30),
            risk_epsilon: 0.05,
            max_live_probes: 4_096,
        }
    }
}

/// Transport-fault and retry tunables of the two-phase setup path.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupConfig {
    /// Message-fault rates applied to probe and confirmation traffic.
    pub faults: MessageFaultConfig,
    /// Maximum probing rounds per request (1 = no retry). A scenario
    /// accepts at most 32: [`Self::max_backoff`] overflows the simulated
    /// clock past 46.
    pub max_attempts: u32,
}

impl Default for SetupConfig {
    fn default() -> Self {
        SetupConfig { faults: MessageFaultConfig::default(), max_attempts: 6 }
    }
}

/// Backoff before the first retry.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(250);
/// Multiplicative backoff growth per retry.
const BACKOFF_FACTOR: f64 = 2.0;
/// Uniform jitter added to each backoff, as a fraction of it (drawn from
/// the seeded backoff stream — deterministic).
const JITTER_FRAC: f64 = 0.25;
/// Multiplicative probing-ratio bump per consecutive failed attempt.
const ESCALATION_FACTOR: f64 = 1.6;
/// Cap on the escalated probing ratio (the probing-overhead limit of
/// footnote 9), unless the configured ratio is already above it.
const ESCALATION_MAX_RATIO: f64 = 1.0;

/// Backoff before the retry that follows failed attempt number `attempt`
/// (1-based), in seconds, before jitter.
fn backoff_secs(attempt: u32) -> f64 {
    BACKOFF_BASE.as_secs_f64() * BACKOFF_FACTOR.powi(attempt as i32 - 1)
}

/// The probing ratio of the attempt that follows `failures` consecutive
/// failed ones, from the configured `alpha`: `α · factor^failures`,
/// capped. Each failed attempt widens the next one's probe fan-out, so a
/// request whose probes were unlucky with a lossy transport buys itself
/// redundancy instead of replaying the same thin probe tree.
fn escalated_ratio(alpha: f64, failures: u32) -> f64 {
    let base = alpha.max(f64::MIN_POSITIVE);
    (base * ESCALATION_FACTOR.powi(failures as i32)).min(ESCALATION_MAX_RATIO.max(base))
}

impl SetupConfig {
    /// The longest a request's last probing round can start after its
    /// first: every retry taken, every backoff at full jitter. A lease
    /// reserved by a request that arrived at `t` expires no later than
    /// `t + max_backoff() + transient_timeout`.
    pub fn max_backoff(&self) -> SimDuration {
        (1..self.max_attempts.max(1)).fold(SimDuration::ZERO, |ladder, attempt| {
            let backoff = backoff_secs(attempt);
            ladder + SimDuration::from_secs_f64(backoff + backoff * JITTER_FRAC)
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
        self.probes_lost + self.confirms_lost > 0
    }
}

impl std::ops::Add for SetupStats {
    type Output = SetupStats;
    fn add(self, rhs: SetupStats) -> SetupStats {
        SetupStats {
            attempts: self.attempts + rhs.attempts,
            retries: self.retries + rhs.retries,
            probes_lost: self.probes_lost + rhs.probes_lost,
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

/// The state of the §3.3 setup path carried across requests: the seeded
/// [`MessageFaultInjector`] every probe and confirmation passes through,
/// and the seeded backoff-jitter stream. A fault class whose rate is zero
/// draws nothing, so over the default (fault-free) transport no message
/// is lost, no attempt faults and nothing retries: that is the plain
/// lossless protocol, on the same code path.
#[derive(Debug, Clone)]
pub struct TwoPhase {
    /// [`SetupConfig::max_attempts`]; the fault rates live in the
    /// transport.
    max_attempts: u32,
    transport: MessageFaultInjector,
    backoff_rng: StdRng,
}

impl TwoPhase {
    /// Creates the setup state. All randomness derives from `seed` via
    /// label-separated streams, independent of the composer's selection
    /// RNG.
    pub fn new(seed: u64, config: SetupConfig) -> Self {
        TwoPhase {
            max_attempts: config.max_attempts,
            transport: MessageFaultInjector::new(seed, config.faults),
            backoff_rng: DeterministicRng::new(seed).stream("setup/backoff"),
        }
    }

    /// Deterministic backoff (plus seeded jitter) before retrying after
    /// failed attempt number `attempt`.
    fn backoff_delay(&mut self, attempt: u32) -> SimDuration {
        let backoff = backoff_secs(attempt);
        let jitter = backoff * JITTER_FRAC * self.backoff_rng.gen::<f64>();
        SimDuration::from_secs_f64(backoff + jitter)
    }
}

/// The fault-free transport of [`SetupConfig::default`]: it draws
/// nothing, so its seed is never read.
impl Default for TwoPhase {
    fn default() -> Self {
        TwoPhase::new(0, SetupConfig::default())
    }
}

/// Result of one probing attempt inside the retry loop.
struct AttemptOutcome {
    session: Option<SessionId>,
    /// A message fault defeated this attempt (a dropped probe thinned the
    /// tree, or the confirmation was lost).
    faulted: bool,
}

/// [`compose_with_setup`] under ACP's selection rules over the
/// fault-free transport with a throw-away [`ProbeScratch`], for tests
/// that compose one request.
#[cfg(test)]
pub(crate) fn probe_compose<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    rng: &mut R,
) -> ComposeOutcome {
    compose_with_setup(
        system,
        board,
        request,
        now,
        config,
        (HopSelection::Ranked, FinalSelection::MinCongestion, None),
        &mut TwoPhase::default(),
        rng,
        &mut ProbeScratch::default(),
    )
}

/// The probing protocol over the transport of `setup`, with
/// fault-induced retries (see the module docs). When a confirmation was
/// lost in flight the request's leases are **not** released (the deputy
/// cannot tell a lost confirm from a committed session whose ack was
/// lost, so releasing is unsafe and cleanup is left to the expiry-driven
/// reclamation sweep); every other failure releases them. A fault-induced retry also keeps the
/// failed attempt's leases in place: re-probing a still-leased candidate
/// refreshes the existing reservation (an idempotent `reused` touch,
/// footnote 7) instead of churning a release/create pair.
///
/// `rules` are the selection [`Rules`] of the caller's algorithm.
/// `scratch` is the caller's [`ProbeScratch`]: whoever composes request
/// after request keeps one and hands it to every call.
#[allow(clippy::too_many_arguments)] // one parameter per protocol input (Fig. 3), plus the buffers
pub(crate) fn compose_with_setup<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    rules: Rules,
    setup: &mut TwoPhase,
    rng: &mut R,
    scratch: &mut ProbeScratch,
) -> ComposeOutcome {
    run_protocol(
        system,
        request,
        now,
        config,
        setup,
        rng,
        |system, now, config, setup, rng, stats, setup_stats, pending_stale| {
            probe_attempt(
                system,
                board,
                request,
                now,
                config,
                rules,
                setup,
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
/// protocol as [`compose_with_setup`] documents it, whatever a round is
/// made of (the tests run it over the round this module used to have).
fn run_protocol<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    setup: &mut TwoPhase,
    rng: &mut R,
    mut attempt: impl FnMut(
        &mut StreamSystem,
        SimTime,
        &ProbingConfig,
        &mut TwoPhase,
        &mut R,
        &mut OverheadStats,
        &mut SetupStats,
        &mut Option<Composition>,
    ) -> AttemptOutcome,
) -> ComposeOutcome {
    let mut stats = OverheadStats::new();
    let mut setup_stats = SetupStats::default();
    let mut pending_stale: Option<Composition> = None;
    let mut session = None;
    let mut attempt_now = now;
    let mut attempts: u32 = 0;
    let mut last_faulted;
    let max_attempts = setup.max_attempts.max(1);
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
            setup,
            rng,
            &mut stats,
            &mut setup_stats,
            &mut pending_stale,
        );
        last_faulted = out.faulted;
        if out.session.is_some() {
            session = out.session;
            break;
        }
        // Retry only fault-induced failures: a request the system
        // legitimately cannot serve fails after one round, as it would
        // over a reliable transport.
        if !out.faulted || attempts >= max_attempts {
            break;
        }
        setup_stats.retries += 1;
        // The failed attempt's leases stay in place across the retry:
        // the next attempt re-reserves overlapping candidates as
        // idempotent refreshes instead of fresh leases, and a
        // confirmation that may still be in flight keeps its leases
        // regardless. Everything is settled — promoted, released, or
        // orphaned — when the request concludes below.
        attempt_now += setup.backoff_delay(attempts);
        // Backoff-time reclamation sweep: recover whatever leases (ours
        // or other requests') have expired in the meantime.
        setup_stats.leases_reclaimed += system.expire_transients(attempt_now) as u64;
        ratio = escalated_ratio(config.probing_ratio, attempts);
    }

    // Stale-ack replay: a duplicate delivery of a lost confirmation
    // resurfaces after the protocol concluded. Commits are idempotent per
    // request — a request that already holds a session rejects the
    // duplicate, so residuals are never committed twice.
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

    if session.is_none() {
        if last_faulted {
            setup_stats.fault_failures += 1;
        }
        if setup_stats.confirms_lost > 0 {
            // A confirmation is unaccounted for: the deputy cannot tell
            // a lost confirm from a committed session whose ack was
            // lost, so releasing is unsafe — leases stay orphaned and
            // the expiry-driven reclamation sweep recovers them.
            setup_stats.leases_orphaned += system.request_lease_count(request.id) as u64;
        } else {
            system.release_request_transients(request.id);
        }
    }

    ComposeOutcome { session, stats, setup: setup_stats, truncated: false }
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
            links: (0, 0),
        }
    }
}

/// The probe tree of one probing round and every buffer the round
/// fills. A [`ProbingComposer`](crate::algorithms::ProbingComposer) —
/// the arrival path's or the repair path's — owns one and hands it to
/// [`compose_with_setup`], so a warm round allocates nothing for its
/// tree. It carries no state from one round to the next: a round
/// clears each buffer before it reads it, and lets go of the shared
/// paths it held before it returns.
#[derive(Debug, Default, Clone)]
pub(crate) struct ProbeScratch {
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
fn probe_attempt<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    request: &Request,
    now: SimTime,
    config: &ProbingConfig,
    (hop_selection, final_selection, budget): Rules,
    setup: &mut TwoPhase,
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
        let quota = match budget {
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
                hop_selection,
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

                // --- transport: the hop message may be dropped. A disabled
                // fault class consumes no randomness, so with all rates at
                // zero this draws nothing and drops nothing.
                if setup.transport.probe_dropped() {
                    setup_stats.probes_lost += 1;
                    faulted = true;
                    continue;
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
                tree.push(ProbeNode { parent, component, acc, worst, links: (first_link, links.len()) });
            }
        }
        frontier = spawned_from..tree.len();
        if frontier.is_empty() {
            break;
        }
    }

    // Step 3: completed probes return to the deputy. The loop above ends
    // early only on an empty frontier, so every probe left has been
    // through every vertex. The deputy orders them per the
    // final-selection policy and qualifies none of them here: the commit
    // below validates Eqs. 2–5 on each composition it tries, after
    // releasing the request's own transient holds.
    stats.probes_returned += frontier.len() as u64;
    ranking.clear();
    match final_selection {
        // Ascending φ, ties in the order the probes returned.
        FinalSelection::MinCongestion => {
            for leaf in frontier {
                assemble(tree, links, generation, graph, chain, leaf, composition);
                ranking.push((congestion_aggregation(system, request, composition), leaf));
            }
            ranking.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        FinalSelection::Random => {
            use rand::seq::SliceRandom;
            ranking.extend(frontier.map(|leaf| (0.0, leaf)));
            ranking.shuffle(rng);
        }
    }

    // Step 4 (phase 2): session setup — first composition whose
    // confirmation lands and commits wins. The first commit attempt
    // releases the request's transient holds (confirmation supersedes
    // reservation).
    let mut session = None;
    for &(_, leaf) in ranking.iter() {
        if setup.transport.confirm_lost() {
            setup_stats.confirms_lost += 1;
            // The confirmation vanished in transit; the deputy times
            // out waiting for the ack and gives this attempt up. The
            // winner's leases stay orphaned. With probability
            // `stale_ack` the message was merely trapped and
            // resurfaces later as a duplicate delivery.
            if setup.transport.stale_ack_resurfaces() {
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

    AttemptOutcome { session, faulted }
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
/// of `arrival_accumulated`; the topological order borrowed from the
/// graph, which now keeps it; the selection rules passed beside the
/// config, which no longer holds them; and the count of completed probes
/// that looked qualified, which nothing reads any more, dropped.) It
/// runs inside the same [`run_protocol`] loop as the round that replaced
/// it.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Composer, ProbingComposer};
    use acp_state::GlobalStateConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// ACP's selection rules.
    const ACP: Rules = (HopSelection::Ranked, FinalSelection::MinCongestion, None);

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
        assert!(out.stats.probes_returned >= 1);
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
        assert!(out.stats.probes_returned <= 8);
    }

    #[test]
    fn random_final_selection_still_commits_valid_session() {
        let (mut sys, board) = build(7, 40);
        let req = path_request(&sys, 7, 3);
        let mut sp = ProbingComposer::sp(ProbingConfig::default(), 7);
        let out = sp.compose(&mut sys, &board, &req, SimTime::ZERO);
        assert!(out.session.is_some());
    }

    /// The default transport (what a composer built without a setup
    /// config runs) against an explicit `SetupConfig::default()` on
    /// another seed: a fault-free transport draws nothing, so its seed
    /// changes nothing.
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
        let config = SetupConfig::default();
        assert_eq!(config.faults, MessageFaultConfig::default(), "every fault class disabled");
        let mut setup = TwoPhase::new(77, config);
        let two = compose_with_setup(
            &mut sys_b,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            ACP,
            &mut setup,
            &mut rng_b,
            &mut ProbeScratch::default(),
        );
        assert_eq!(plain.session, two.session);
        assert_eq!(plain.stats, two.stats);
        assert_eq!(two.setup, SetupStats { attempts: 1, ..SetupStats::default() });
        assert_eq!(sys_a.lease_stats(), sys_b.lease_stats());
        // The selection RNG advanced identically on both paths.
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
        let mut setup = TwoPhase::new(5, setup_cfg);
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
                compose_with_setup(&mut sys, &board, &req, now, &cfg, ACP, &mut setup, &mut rng, &mut ProbeScratch::default());
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

    /// The escalated ratio starts at the base, a further failure never
    /// shrinks it, and it never leaves `[base, max(base, cap)]`.
    #[test]
    fn escalated_ratio_grows_from_the_base_to_the_cap() {
        for base in [f64::MIN_POSITIVE, 0.01, 0.1, 0.3, 0.7, 1.0, 1.5] {
            assert_eq!(escalated_ratio(base, 0), base);
            let mut prev = base;
            for failures in 1..64 {
                let ratio = escalated_ratio(base, failures);
                assert!(ratio >= prev && ratio <= ESCALATION_MAX_RATIO.max(base), "{base} after {failures}: {ratio}");
                prev = ratio;
            }
        }
        assert_eq!(escalated_ratio(0.2, 2), 0.2 * 1.6 * 1.6);
    }

    #[test]
    fn lost_confirm_orphans_leases_until_reclamation_sweep() {
        let (mut sys, board) = build(23, 40);
        let req = path_request(&sys, 23, 3);
        let cfg = ProbingConfig::default();
        let setup_cfg = SetupConfig {
            faults: MessageFaultConfig { confirm_loss: 1.0, ..MessageFaultConfig::default() },
            max_attempts: 1,
        };
        let mut setup = TwoPhase::new(3, setup_cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let out = compose_with_setup(
            &mut sys,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            ACP,
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
        assert!(SystemAuditor.audit_at(&sys, Some(horizon)).is_clean());
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
        };
        let mut setup = TwoPhase::new(4, setup_cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let out = compose_with_setup(
            &mut sys,
            &board,
            &req,
            SimTime::ZERO,
            &cfg,
            ACP,
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
        let mut setup = TwoPhase::new(11, setup_cfg);
        let mut rng = StdRng::seed_from_u64(11);
        let mut exercised = false;
        for id in 0..30u64 {
            let req = path_request(&sys, 200 + id, 3);
            let out = compose_with_setup(
                &mut sys,
                &board,
                &req,
                SimTime::ZERO,
                &cfg,
                ACP,
                &mut setup,
                &mut rng,
                &mut ProbeScratch::default(),
            );
            let sessions = sys.sessions().filter(|s| s.request_spec.id == req.id).count();
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
            let mut sys_a = sys0.clone();
            let out_a =
                ProbingComposer::new(ProbingConfig::default(), trial).compose(&mut sys_a, &board, &req, SimTime::ZERO);
            let mut sys_b = sys0.clone();
            let out_b =
                ProbingComposer::sp(ProbingConfig::default(), trial).compose(&mut sys_b, &board, &req, SimTime::ZERO);
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
        #[allow(clippy::too_many_arguments)]
        fn run_sequence(
            case: &str,
            base: &StreamSystem,
            config: &ProbingConfig,
            rules: Rules,
            setup: &TwoPhase,
            rng: &mut StdRng,
            scratch: &mut ProbeScratch,
            coverage: &mut Coverage,
        ) {
            let (mut new_sys, mut old_sys) = (base.clone(), base.clone());
            let mut board = GlobalStateBoard::new(&new_sys, GlobalStateConfig::default());
            let (mut new_setup, mut old_setup) = (setup.clone(), setup.clone());
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
                let new = compose_with_setup(
                    &mut new_sys,
                    &board,
                    &request,
                    now,
                    config,
                    rules,
                    &mut new_setup,
                    &mut new_rng,
                    scratch,
                );
                let old = reference::compose_with_setup(
                    &mut old_sys,
                    &board,
                    &request,
                    now,
                    config,
                    rules,
                    &mut old_setup,
                    &mut old_rng,
                );
                let case = format!("{case} #{i} {}", if dag { "dag" } else { "path" });
                assert_eq!(new.session, old.session, "{case}: session");
                assert_eq!(new.stats, old.stats, "{case}: overhead ledger");
                assert_eq!(new.setup, old.setup, "{case}: setup ledger");
                let table = |sys: &StreamSystem| -> Vec<(SessionId, RequestId, Composition)> {
                    sys.sessions().map(|s| (s.id, s.request_spec.id, s.composition.clone())).collect()
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
                assert_eq!(format!("{new_setup:?}"), format!("{old_setup:?}"), "{case}: transport streams");
                assert!(SystemAuditor.audit_at(&new_sys, Some(now)).is_clean(), "{case}: audit");

                coverage.composed += u64::from(new.session.is_some());
                coverage.failed += u64::from(new.session.is_none());
                coverage.retries += new.setup.retries;
                coverage.stale_acks += new.setup.stale_acks_recovered + new.setup.stale_acks_rejected;
                coverage.probes_dropped += new.stats.probes_dropped;
                coverage.stale_rows += new.stats.selection_pruned_stale;
                coverage.dag_completions += u64::from(dag) * new.stats.probes_returned;
            }
            assert_eq!(new_rng.gen::<u64>(), old_rng.gen::<u64>(), "{case}: next selection draw");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]

            /// Every combination of transport, α, probe budget, hop
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
                    },
                    ..SetupConfig::default()
                };
                let mut scratch = ProbeScratch::default();
                let mut coverage = Coverage::default();
                for round in 0..4 {
                    let base = build(rng.gen(), [40, 60][round % 2]).0;
                    for lossy_transport in [false, true] {
                        for probing_ratio in [0.1, 0.3, 1.0] {
                            for budget in [None, Some(1), Some(3)] {
                                for hop_selection in [HopSelection::Ranked, HopSelection::Random] {
                                    for final_selection in [FinalSelection::MinCongestion, FinalSelection::Random] {
                                        let config = ProbingConfig { probing_ratio, ..ProbingConfig::default() };
                                        let rules = (hop_selection, final_selection, budget);
                                        let case = format!(
                                            "master {master} round {round} lossy {lossy_transport} α {probing_ratio} budget {budget:?} {hop_selection:?} {final_selection:?}"
                                        );
                                        let setup = if lossy_transport {
                                            TwoPhase::new(rng.gen(), lossy.clone())
                                        } else {
                                            TwoPhase::default()
                                        };
                                        run_sequence(&case, &base, &config, rules, &setup, &mut rng, &mut scratch, &mut coverage);
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
