//! Per-hop candidate component selection (§3.5).
//!
//! When a probe is about to advance to the next-hop function, the current
//! node must pick which `M = ⌈α·k⌉` of the `k` candidate components to
//! probe. ACP picks *good* candidates under the guidance of the
//! coarse-grain global state: it filters interface-incompatible and
//! unqualified candidates (Eqs. 6–8 evaluated on coarse values), ranks the
//! rest by the risk function `D(c_i)` (Eq. 9) breaking near-ties with the
//! congestion function `V(c_i)` (Eq. 10), and returns the best `M`. The
//! fully distributed baseline (RP) instead picks `M` uniformly at random.

use acp_model::prelude::*;
use acp_state::{GlobalStateBoard, IndexEntry};
use acp_topology::{OverlayNodeId, SharedPath};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::overhead::OverheadStats;

/// How a node chooses which next-hop candidates to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopSelection {
    /// Risk/congestion ranking guided by the coarse global state (ACP and
    /// SP).
    Ranked,
    /// Uniform random choice without consulting the global state (RP).
    Random,
}

/// A candidate the current hop decided to probe.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePlan {
    /// The component to probe.
    pub component: ComponentId,
    /// The virtual link from each already-assigned predecessor: pairs of
    /// `(graph edge index, overlay path)`. Empty for the source vertex.
    /// Paths are shared with the overlay's memo — cheap to clone.
    pub incoming: Vec<(usize, SharedPath)>,
}

/// Reusable buffers for [`select_candidates_with`]. One selection call
/// per probe per hop fills a candidate-id list (for `Random`) or a
/// bounded top-`quota` list (for `Ranked`); threading one scratch
/// through a whole probing run keeps those allocations out of the hot
/// loop.
#[derive(Debug, Default, Clone)]
pub struct SelectionScratch {
    ids: Vec<ComponentId>,
    /// The best `quota` rows so far, ascending by key. A row is its key
    /// and its component, nothing else: its links are read by reference
    /// while it is scored and resolved only if it is still here when
    /// the walk ends.
    ranked: Vec<(RankKey, ComponentId)>,
    /// The selected components, best first, between the walk and the
    /// [`CandidatePlan`]s built from them.
    picks: Vec<ComponentId>,
}

/// Inputs to one hop's selection decision.
#[derive(Debug)]
pub struct HopContext<'a> {
    /// The request being composed.
    pub request: &'a Request,
    /// The vertex being assigned at this hop.
    pub vertex: VertexId,
    /// Already-assigned predecessors: `(graph edge index, component,
    /// accumulated QoS at that predecessor)`. Borrowed so the probing
    /// loop can carve contexts out of one reusable arena.
    pub predecessors: &'a [(usize, ComponentId, Qos)],
}

/// The number of candidates to probe for a function with `k` candidates at
/// probing ratio `alpha` — `⌈α·k⌉`, at least 1 when any candidate exists.
pub fn probe_quota(k: usize, alpha: f64) -> usize {
    if k == 0 {
        return 0;
    }
    ((alpha * k as f64).ceil() as usize).clamp(1, k)
}

/// Selects the candidates to probe for `ctx.vertex`, through the
/// caller's scratch buffers.
///
/// `Ranked` consults the coarse [`GlobalStateBoard`]; `Random` touches no
/// global state (counting no board query). Both honour the interface
/// stream-rate compatibility check, which needs only statically-known
/// component interface specifications. A thin wrapper: `select_into`
/// decides, and each selected component's links are then read back from
/// the path memo (uncounted — the decision already paid for them).
#[allow(clippy::too_many_arguments)] // one parameter per protocol input (Fig. 3)
pub fn select_candidates_with<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    ctx: &HopContext<'_>,
    strategy: HopSelection,
    alpha: f64,
    risk_epsilon: f64,
    rng: &mut R,
    stats: &mut OverheadStats,
    scratch: &mut SelectionScratch,
) -> Vec<CandidatePlan> {
    let hop = HopInputs::new(system, ctx.request, ctx.vertex, alpha);
    let mut picks = std::mem::take(&mut scratch.picks);
    picks.clear();
    select_into(system, board, &hop, ctx.predecessors, strategy, risk_epsilon, rng, stats, scratch, &mut picks);
    let plans = picks
        .iter()
        .map(|&component| CandidatePlan {
            component,
            incoming: ctx
                .predecessors
                .iter()
                .map(|&(edge, pred, _)| (edge, resolved_link(system, pred.node, component.node).clone()))
                .collect(),
        })
        .collect();
    scratch.picks = picks;
    plans
}

/// One hop's selection decision in the form the probing loop keeps it:
/// the components to probe, best first, appended to `picks`. Nothing is
/// taken from the path memo — every virtual link is read by reference
/// (one counted lookup per predecessor of each row that gets that far)
/// — so a candidate that is only looked at costs arithmetic and reads.
#[allow(clippy::too_many_arguments)] // select_candidates_with's inputs, per vertex and per probe
pub(crate) fn select_into<R: Rng + ?Sized>(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    hop: &HopInputs,
    predecessors: &[(usize, ComponentId, Qos)],
    strategy: HopSelection,
    risk_epsilon: f64,
    rng: &mut R,
    stats: &mut OverheadStats,
    scratch: &mut SelectionScratch,
    picks: &mut Vec<ComponentId>,
) {
    stats.discovery_lookups += 1;
    if hop.quota == 0 {
        return;
    }
    match strategy {
        HopSelection::Random => {
            // Interface compatibility (a static specification known
            // without probing).
            scratch.ids.clear();
            scratch.ids.extend_from_slice(system.candidates(hop.function));
            scratch.ids.retain(|&c| system.component(c).accepts_rate(hop.rate));
            scratch.ids.shuffle(rng);
            scratch.ids.truncate(hop.quota);
            for &c in &scratch.ids {
                // Stops at the first predecessor that cannot reach `c`.
                if predecessors.iter().all(|&(_, pred, _)| system.virtual_path_ref(pred.node, c.node).is_some()) {
                    picks.push(c);
                }
            }
        }
        HopSelection::Ranked => {
            stats.global_state_queries += 1;
            stats.selection_candidates += hop.candidates as u64;
            ranked_walk(system, board, hop, predecessors, risk_epsilon, stats, &mut scratch.ranked);
            picks.extend(scratch.ranked.iter().map(|&(_, component)| component));
        }
    }
}

/// The memoized virtual link of a selected candidate: `from` is one of
/// its predecessors' nodes, `to` its own. The selection that picked it
/// resolved the pair (and counted the lookup), and nothing drops memo
/// entries while a request is being composed.
pub(crate) fn resolved_link(system: &StreamSystem, from: OverlayNodeId, to: OverlayNodeId) -> &SharedPath {
    system.overlay().memoized_path(from, to).expect("a selected candidate's links are memoized")
}

/// The ranked walk over the hop's candidate index: the best `hop.quota`
/// rows by [`RankKey`], ascending, left in `ranked`.
///
/// Examining a row reads the row itself and the system's liveness flag,
/// nothing else, until a row with predecessors reaches its links, which
/// are read in place in the path memo; the key is computed from the row
/// and compared with the kept worst before anything is kept, so a row
/// that does not enter the top `quota` costs no refcount and no
/// allocation. Once the list is full, the kept worst's band is priced
/// once per band change ([`Cutoffs`]): the early exit is an integer
/// compare, a row past the band is dropped on its risk alone, and only
/// a row that enters is divided by ε. Deliberately not generic (ranking
/// draws no randomness): the loop and every private helper compile
/// together in this crate.
fn ranked_walk(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    hop: &HopInputs,
    predecessors: &[(usize, ComponentId, Qos)],
    risk_epsilon: f64,
    stats: &mut OverheadStats,
    ranked: &mut Vec<(RankKey, ComponentId)>,
) {
    let quota = hop.quota;
    let acc = accumulated_over(predecessors);
    let acc_delay = acc.delay.as_secs_f64();
    let entries = board.candidate_entries(hop.function);
    // The kept worst's cutoffs, and the band they were priced for:
    // priced when a full list's next row is looked at, so a walk that
    // runs out of rows as its list fills prices nothing; `None` until
    // then, and where that band falls back.
    let mut cut: Option<Cutoffs> = None;
    let mut priced_band: Option<i64> = None;
    let mut fell_back = false;
    ranked.clear();
    for (pos, entry) in entries.iter().enumerate() {
        if ranked.len() == quota {
            let band = ranked[quota - 1].0.band;
            if priced_band != Some(band) {
                priced_band = Some(band);
                cut = Cutoffs::new(band, acc_delay, hop.max_delay_secs, risk_epsilon);
            }
            if let Some(cut) = cut {
                if entry.qos.delay.as_micros() >= cut.exit_us {
                    break;
                }
            } else {
                fell_back = true;
                // The index walks ascending published delay, so this
                // delay-only risk lower bound is nondecreasing: the
                // first entry that cannot beat the kept worst ends
                // the walk for every remaining entry too.
                let d_lb = risk_delay_lower_bound(acc_delay, entry.qos.delay.as_secs_f64(), hop.max_delay_secs);
                if cannot_beat(&ranked[ranked.len() - 1].0, d_lb, risk_epsilon) {
                    break;
                }
            }
        }
        stats.selection_examined += 1;
        if let Some(pruned) = screen_row(system, board, entry, hop, acc) {
            pruned.count(stats);
            continue;
        }
        let (link_qos, link_avail) = if predecessors.is_empty() {
            // No link: Eqs. 6–8 over the neutral link are exactly the
            // prescreen the row just passed, so it is known qualified.
            NEUTRAL_LINK
        } else {
            let Some(link) = incoming_summary(system, board, entry.node, predecessors) else { continue };
            if !requalifies(entry, hop, acc, link) {
                continue;
            }
            link
        };
        // Risk `D` (Eq. 9) and congestion `V` (Eq. 10) on coarse state.
        let d = (acc + entry.qos + link_qos).risk_ratio_against(hop.max_delay_secs, hop.max_loss);
        stats.selection_scored += 1;
        let key = match cut {
            Some(cut) => {
                // `D` is never NaN here: its delay ratio is a finite
                // quotient by a positive bound, and `max` skips a NaN.
                if d >= cut.hi {
                    tally(Arm::DroppedAtHi);
                    continue;
                }
                let v = congestion_function(&entry.available, &hop.demand, link_avail, hop.bandwidth_kbps);
                if d < cut.lo {
                    tally(Arm::LowerBand);
                    RankKey::new(d, v, pos as u32, risk_epsilon)
                } else {
                    // The worst's band: ties go on (V, D), and `pos` is
                    // larger than every kept row's.
                    tally(Arm::SameBand);
                    let worst = &ranked[quota - 1].0;
                    if worst.v.total_cmp(&v).then_with(|| worst.d.total_cmp(&d)) != std::cmp::Ordering::Greater {
                        continue;
                    }
                    debug_assert_eq!(risk_band(d, risk_epsilon), cut.band);
                    RankKey { band: cut.band, d, v, pos: pos as u32, banded: true }
                }
            }
            None => {
                let v = congestion_function(&entry.available, &hop.demand, link_avail, hop.bandwidth_kbps);
                let key = RankKey::new(d, v, pos as u32, risk_epsilon);
                if !enters(ranked, quota, &key) {
                    continue;
                }
                key
            }
        };
        insert_ranked(ranked, quota, key, ComponentId::new(entry.node, entry.slot));
    }
    if fell_back {
        tally(Arm::Fallback);
    }
}

/// The request-side inputs of one vertex's selection decisions, looked
/// up and converted once per vertex instead of once per probe or per
/// examined row.
pub(crate) struct HopInputs {
    function: FunctionId,
    /// `k`: the function's discovered candidates.
    pub(crate) candidates: usize,
    /// `⌈α·k⌉` ([`probe_quota`]): how many a selection returns.
    quota: usize,
    rate: f64,
    qos: QosRequirement,
    /// `qos.max_delay.as_secs_f64()` — the Eq. 9 delay divisor.
    max_delay_secs: f64,
    /// `qos.max_loss.log_survival()` — the Eq. 9 loss divisor.
    max_loss: f64,
    /// The end-system demand of the vertex's component.
    pub(crate) demand: ResourceVector,
    bandwidth_kbps: f64,
}

impl HopInputs {
    pub(crate) fn new(system: &StreamSystem, request: &Request, vertex: VertexId, alpha: f64) -> HopInputs {
        let function = request.graph.function(vertex);
        let candidates = system.candidates(function).len();
        HopInputs {
            function,
            candidates,
            quota: probe_quota(candidates, alpha),
            rate: request.stream_rate_kbps,
            qos: request.qos,
            max_delay_secs: request.qos.max_delay.as_secs_f64(),
            max_loss: request.qos.max_loss.log_survival(),
            demand: request.vertex_demand(system.registry(), vertex),
            bandwidth_kbps: request.bandwidth_kbps,
        }
    }
}

/// Why the cascade dropped a row before path resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pruned {
    /// The row's dense id was retired (crash, node failure) after its
    /// node's last publish; the next publish withdraws the row.
    Stale,
    /// Dropped by the static filter: the interface rate.
    Static,
    /// Dropped by the published-state prescreen (Eqs. 6–7).
    Prescreened,
}

impl Pruned {
    fn count(self, stats: &mut OverheadStats) {
        match self {
            Pruned::Stale => stats.selection_pruned_stale += 1,
            Pruned::Static => stats.selection_pruned_static += 1,
            Pruned::Prescreened => stats.selection_prescreened += 1,
        }
    }
}

/// The stale → static → prescreen cascade over one index row. Reads the
/// row and the liveness flag only (`board` serves the debug check that
/// the row's copies equal their sources).
///
/// The prescreen evaluates Eqs. 6–7 on published state with a neutral
/// link (link QoS only ever adds, and Eq. 8 passes at ∞ availability) —
/// an exact necessary condition, so pruned rows never pay for a
/// virtual-path lookup.
#[inline]
fn screen_row(
    system: &StreamSystem,
    board: &GlobalStateBoard,
    entry: &IndexEntry,
    hop: &HopInputs,
    acc: Qos,
) -> Option<Pruned> {
    let dense = DenseComponentId(entry.dense);
    let retired = system.dense_is_retired(dense);
    debug_assert_eq!(
        retired,
        system.dense_of(ComponentId::new(entry.node, entry.slot)) != Some(dense),
        "retired flag diverges from the slot table for dense id {}",
        entry.dense
    );
    if retired {
        return Some(Pruned::Stale);
    }
    debug_assert!(
        entry.available == board.node_available(entry.node)
            && Some(entry.qos) == board.component_qos_dense(dense)
            && entry.max_rate_kbps == system.dense_max_rate_kbps(dense),
        "index row drifted from its sources: {entry:?}"
    );
    if hop.rate > entry.max_rate_kbps {
        return Some(Pruned::Static);
    }
    if is_unqualified(
        acc,
        entry.qos,
        Qos::ZERO,
        &hop.qos,
        &entry.available,
        &hop.demand,
        f64::INFINITY,
        hop.bandwidth_kbps,
    ) {
        return Some(Pruned::Prescreened);
    }
    None
}

/// A row's worst incoming virtual link under coarse state: `(link QoS,
/// bottleneck availability)`.
type LinkSummary = (Qos, f64);

/// The link of a source vertex, which has none: it adds no QoS and
/// passes Eq. 8 at any bandwidth — what the prescreen evaluates with.
const NEUTRAL_LINK: LinkSummary = (Qos::ZERO, f64::INFINITY);

/// Full qualification (Eqs. 6–8) of a screened row over its incoming
/// links' summary.
fn requalifies(entry: &IndexEntry, hop: &HopInputs, acc: Qos, (link_qos, link_avail): LinkSummary) -> bool {
    !is_unqualified(
        acc,
        entry.qos,
        link_qos,
        &hop.qos,
        &entry.available,
        &hop.demand,
        link_avail,
        hop.bandwidth_kbps,
    )
}

/// Ranking key reproducing the §3.5 order: "Candidates with smaller
/// risk values are better; if two have similar risk values, compare
/// them by the congestion function." Raw ±ε closeness is not
/// transitive, so risks are bucketed into ε-wide bands: order by band,
/// then congestion, then raw risk (ε ≤ 0 orders strictly by risk, then
/// congestion). `pos` — the candidate-index walk position — is the
/// deterministic final tie-break, standing in for the stable sort this
/// replaces: earlier-walked entries win exact ties.
#[derive(Debug, Clone, Copy)]
struct RankKey {
    band: i64,
    d: f64,
    v: f64,
    pos: u32,
    banded: bool,
}

impl RankKey {
    fn new(d: f64, v: f64, pos: u32, risk_epsilon: f64) -> RankKey {
        RankKey { band: risk_band(d, risk_epsilon), d, v, pos, banded: risk_epsilon > 0.0 }
    }

    fn cmp(&self, other: &RankKey) -> std::cmp::Ordering {
        if self.banded {
            self.band
                .cmp(&other.band)
                .then_with(|| self.v.total_cmp(&other.v))
                .then_with(|| self.d.total_cmp(&other.d))
                .then_with(|| self.pos.cmp(&other.pos))
        } else {
            self.d
                .total_cmp(&other.d)
                .then_with(|| self.v.total_cmp(&other.v))
                .then_with(|| self.pos.cmp(&other.pos))
        }
    }
}

/// The ε-band of a risk value, `⌊d / ε⌋` saturated to `i64`;
/// `i64::MAX` for non-finite risks.
///
/// The floor is taken in integers: `as i64` truncates toward zero and
/// saturates, and a truncation that rounded a negative quotient up is
/// stepped back down. That equals `f64::floor` followed by the
/// saturating cast for every quotient, without the libm call `floor`
/// compiles to on the baseline x86-64 target — two per examined row.
#[inline]
fn risk_band(d: f64, risk_epsilon: f64) -> i64 {
    if risk_epsilon <= 0.0 || !d.is_finite() {
        return if d.is_finite() { 0 } else { i64::MAX };
    }
    let quotient = d / risk_epsilon;
    let truncated = quotient as i64;
    if (truncated as f64) > quotient {
        truncated.saturating_sub(1)
    } else {
        truncated
    }
}

/// Per-metric maximum of the predecessors' accumulated QoS — the
/// accumulated QoS at arrival, excluding link and candidate. It is
/// plan-independent, so it is computed once before any candidate work
/// (it feeds the prescreen and the early-exit risk bound too).
fn accumulated_over(predecessors: &[(usize, ComponentId, Qos)]) -> Qos {
    let mut acc = Qos::ZERO;
    for &(_, _, pred_acc) in predecessors {
        acc.raise_to(pred_acc);
    }
    acc
}

/// Lower bound on a candidate's risk `D` (Eq. 9) from its published
/// delay alone: the risk ratio is a max over per-metric ratios and link
/// QoS only adds, so `D ≥ ratio(acc.delay + cand.delay, req.max_delay)`
/// (same `ratio` semantics as [`Qos::risk_ratio`]; `max_delay_secs` is
/// the requirement's `max_delay.as_secs_f64()`).
fn risk_delay_lower_bound(acc_delay_secs: f64, entry_delay_secs: f64, max_delay_secs: f64) -> f64 {
    let value = acc_delay_secs + entry_delay_secs;
    if max_delay_secs > 0.0 {
        value / max_delay_secs
    } else if value == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// True when a candidate whose risk is at least `d_lb` cannot displace
/// the kept worst (`worst` orders last in a full top-`quota` list).
/// Within a band (or at equal raw risk) congestion may still win, so
/// only a *strictly* worse band/risk ends the walk.
fn cannot_beat(worst: &RankKey, d_lb: f64, risk_epsilon: f64) -> bool {
    if risk_epsilon > 0.0 {
        risk_band(d_lb, risk_epsilon) > worst.band
    } else {
        d_lb > worst.d
    }
}

/// What a full list's kept worst, of band `band`, lets the walk decide
/// without dividing by ε. Each cutoff is the least value at which a
/// nondecreasing map reaches an integer band ([`least_reaching`]), so
/// every decision taken on it equals the division's:
/// - `exit_us`: the least published delay, in µs, whose delay-only risk
///   bound bands above `band` — [`cannot_beat`] as an integer compare;
/// - `lo`, `hi`: the least risks that band at `band` and at `band + 1`.
///   A row with `D ≥ hi` cannot enter, one with `D < lo` enters, and
///   one in between ties the worst's band and is compared on `(V, D)`.
#[derive(Debug, Clone, Copy)]
struct Cutoffs {
    band: i64,
    exit_us: u64,
    lo: f64,
    hi: f64,
}

impl Cutoffs {
    /// `None` keeps the division: an ε that is not positive and finite
    /// (no bands, or one band for every finite risk), a zero delay bound
    /// (the delay ratio is 0 or ∞), a band outside `[0, 2⁵²)` (an
    /// infinite risk's `i64::MAX`, or an ε so small that risks band past
    /// an `f64`'s integers), or a band no `u64` of µs reaches.
    fn new(band: i64, acc_delay_secs: f64, max_delay_secs: f64, risk_epsilon: f64) -> Option<Cutoffs> {
        let banded = risk_epsilon > 0.0 && risk_epsilon.is_finite() && max_delay_secs > 0.0;
        if !banded || !(0..1 << 52).contains(&band) {
            return None;
        }
        Some(Cutoffs {
            band,
            exit_us: exit_micros(band + 1, acc_delay_secs, max_delay_secs, risk_epsilon)?,
            lo: risk_edge(band, risk_epsilon),
            hi: risk_edge(band + 1, risk_epsilon),
        })
    }
}

/// The least non-negative risk whose ε-band ([`risk_band`]) is at least
/// `band ≥ 0`. Non-negative `f64`s order as their bits do, and `∞` bands
/// at `i64::MAX`, so the search always ends.
fn risk_edge(band: i64, risk_epsilon: f64) -> f64 {
    let guess = (band as f64 * risk_epsilon).to_bits();
    let bits = least_reaching(guess, f64::INFINITY.to_bits(), band, |bits| {
        risk_band(f64::from_bits(bits), risk_epsilon)
    });
    f64::from_bits(bits.expect("an infinite risk bands at i64::MAX"))
}

/// The least published delay, in µs, whose delay-only risk bound
/// ([`risk_delay_lower_bound`] over `acc_delay_secs`) bands at `band` or
/// above; `None` when no `u64` of µs does.
fn exit_micros(band: i64, acc_delay_secs: f64, max_delay_secs: f64, risk_epsilon: f64) -> Option<u64> {
    // Saturating: a negative guess is 0.
    let guess = ((band as f64 * risk_epsilon * max_delay_secs - acc_delay_secs) * 1e6) as u64;
    least_reaching(guess, u64::MAX, band, |us| {
        let entry_delay_secs = acp_simcore::SimDuration::from_micros(us).as_secs_f64();
        risk_band(risk_delay_lower_bound(acc_delay_secs, entry_delay_secs, max_delay_secs), risk_epsilon)
    })
}

/// The least `u ≤ last` with `band_at(u) ≥ target`, for a nondecreasing
/// `band_at`; `None` when `band_at(last)` falls short. Gallops from
/// `guess` toward the crossing, doubling its step, then bisects the
/// bracket it found — a few evaluations when the guess is close.
fn least_reaching(guess: u64, last: u64, target: i64, band_at: impl Fn(u64) -> i64) -> Option<u64> {
    // `band_at(hit) ≥ target`; `band_at(miss) < target`, `None` below 0.
    let (mut miss, mut hit);
    let guess = guess.min(last);
    let mut step = 1u64;
    if band_at(guess) >= target {
        hit = guess;
        miss = None;
        while hit > 0 {
            let probe = hit.saturating_sub(step);
            if band_at(probe) < target {
                miss = Some(probe);
                break;
            }
            hit = probe;
            step = step.saturating_mul(2);
        }
    } else {
        let mut below = guess;
        loop {
            if below == last {
                return None;
            }
            let probe = below.saturating_add(step).min(last);
            if band_at(probe) >= target {
                hit = probe;
                break;
            }
            below = probe;
            step = step.saturating_mul(2);
        }
        miss = Some(below);
    }
    if let Some(mut miss) = miss {
        while hit - miss > 1 {
            let mid = miss + (hit - miss) / 2;
            if band_at(mid) >= target {
                hit = mid;
            } else {
                miss = mid;
            }
        }
    }
    Some(hit)
}

/// The arms of a full list's decision, tallied under `cfg(test)` so the
/// differential test can show it reached each; nothing otherwise.
#[derive(Debug, Clone, Copy)]
enum Arm {
    /// `D ≥ hi`: dropped before `V`.
    DroppedAtHi,
    /// `lo ≤ D < hi`: compared with the worst on `(V, D)`.
    SameBand,
    /// `D < lo`: enters.
    LowerBand,
    /// A walk that kept the division for a full list (counted once).
    Fallback,
}

#[inline(always)]
fn tally(arm: Arm) {
    #[cfg(test)]
    tests::ARMS.with(|arms| {
        let mut counts = arms.get();
        counts[arm as usize] += 1;
        arms.set(counts);
    });
    #[cfg(not(test))]
    let _ = arm;
}

/// True when `key` enters a bounded top-`quota` list kept ascending by
/// [`RankKey`] (worst last). Keys are unique (`pos` differs), so a
/// candidate equal-or-worse than the kept worst never enters.
#[inline]
fn enters(ranked: &[(RankKey, ComponentId)], quota: usize, key: &RankKey) -> bool {
    ranked.len() < quota || ranked[ranked.len() - 1].0.cmp(key) == std::cmp::Ordering::Greater
}

/// Inserts a key that [`enters`] the top-`quota` list from its tail:
/// the key takes the displaced worst's slot (a new one while the list is
/// short) and moves up past every kept key it beats, so the list never
/// holds more than `quota` rows.
fn insert_ranked(ranked: &mut Vec<(RankKey, ComponentId)>, quota: usize, key: RankKey, component: ComponentId) {
    if ranked.len() < quota {
        ranked.push((key, component));
    }
    let mut at = ranked.len() - 1;
    while at > 0 && ranked[at - 1].0.cmp(&key) == std::cmp::Ordering::Greater {
        ranked[at] = ranked[at - 1];
        at -= 1;
    }
    ranked[at] = (key, component);
}

/// Summarises the virtual links from every predecessor to `node` under
/// **coarse** state — the worst branch's QoS and the bottleneck
/// availability — reading each link in place in the path memo, in
/// predecessor order. `None`, stopping at the first lookup that fails,
/// when some predecessor cannot reach `node`.
fn incoming_summary(
    system: &mut StreamSystem,
    board: &GlobalStateBoard,
    node: OverlayNodeId,
    predecessors: &[(usize, ComponentId, Qos)],
) -> Option<LinkSummary> {
    let mut worst_link = Qos::ZERO;
    let mut min_avail = f64::INFINITY;
    for &(_, pred, _) in predecessors {
        let path = system.virtual_path_ref(pred.node, node)?;
        worst_link.raise_to(Qos::of_link(path));
        min_avail = min_avail.min(board.path_available(path));
    }
    Some((worst_link, min_avail))
}

/// Precise arrival accumulation at a candidate: per-metric maximum over
/// incoming branches of `acc(pred) + q(link)`, plus the candidate's own
/// (precise) QoS. `incoming` holds the candidate's virtual links, one
/// per predecessor and in the same order. Used by the per-hop probe
/// processing.
pub(crate) fn arrival_accumulated(
    predecessors: &[(usize, ComponentId, Qos)],
    incoming: &[(usize, SharedPath)],
    candidate_qos: Qos,
) -> Qos {
    let mut worst = Qos::ZERO;
    if predecessors.is_empty() {
        return candidate_qos;
    }
    for (&(_, _, pred_acc), (_, path)) in predecessors.iter().zip(incoming) {
        worst.raise_to(pred_acc + Qos::of_link(path));
    }
    worst + candidate_qos
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use acp_state::GlobalStateConfig;
    use acp_topology::{InetConfig, Overlay, OverlayConfig, OverlayNodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    thread_local! {
        /// [`tally`]'s counts on this thread, indexed by [`Arm`].
        pub(super) static ARMS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
    }

    fn build() -> (StreamSystem, GlobalStateBoard) {
        let mut rng = StdRng::seed_from_u64(17);
        let ip = InetConfig { nodes: 200, ..InetConfig::default() }.generate(&mut rng);
        let overlay = Overlay::build(&ip, &OverlayConfig { stream_nodes: 30, neighbors: 4 }, &mut rng);
        let sys = StreamSystem::generate(
            overlay,
            FunctionRegistry::standard(),
            &SystemConfig::default(),
            &mut rng,
        );
        let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
        (sys, board)
    }

    fn request_for(sys: &StreamSystem) -> Request {
        let fns: Vec<FunctionId> =
            sys.registry().ids().filter(|&f| sys.candidates(f).len() >= 3).take(2).collect();
        assert_eq!(fns.len(), 2);
        Request {
            id: RequestId(7),
            graph: FunctionGraph::path(fns),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::new(0.5, 2.0),
            bandwidth_kbps: 5.0,
            stream_rate_kbps: 100.0,
            tenant: None,
        }
    }

    #[test]
    fn quota_formula_matches_paper() {
        // "if there are ten candidate components … and the probing ratio
        // α = 0.3, then we can probe 0.3 × 10 = 3 candidates"
        assert_eq!(probe_quota(10, 0.3), 3);
        assert_eq!(probe_quota(10, 1.0), 10);
        assert_eq!(probe_quota(10, 0.01), 1, "at least one probe");
        assert_eq!(probe_quota(0, 0.5), 0);
        assert_eq!(probe_quota(7, 0.3), 3); // ceil(2.1)
    }

    #[test]
    fn ranked_selection_respects_quota_and_function() {
        let (mut sys, board) = build();
        let request = request_for(&sys);
        let ctx = HopContext { request: &request, vertex: 0, predecessors: &[] };
        let mut rng = StdRng::seed_from_u64(1);
        let mut stats = OverheadStats::new();
        let k = sys.candidates(request.graph.function(0)).len();
        let plans = select_candidates_with(
            &mut sys, &board, &ctx, HopSelection::Ranked, 0.5, 0.05, &mut rng, &mut stats, &mut SelectionScratch::default(),
        );
        assert!(!plans.is_empty());
        assert!(plans.len() <= probe_quota(k, 0.5));
        for p in &plans {
            assert_eq!(sys.component(p.component).function, request.graph.function(0));
            assert!(p.incoming.is_empty(), "source vertex has no incoming link");
        }
        assert_eq!(stats.discovery_lookups, 1);
        assert_eq!(stats.global_state_queries, 1);
    }

    #[test]
    fn random_selection_skips_board() {
        let (mut sys, board) = build();
        let request = request_for(&sys);
        let ctx = HopContext { request: &request, vertex: 0, predecessors: &[] };
        let mut rng = StdRng::seed_from_u64(2);
        let mut stats = OverheadStats::new();
        let plans = select_candidates_with(
            &mut sys, &board, &ctx, HopSelection::Random, 0.5, 0.05, &mut rng, &mut stats, &mut SelectionScratch::default(),
        );
        assert!(!plans.is_empty());
        assert_eq!(stats.global_state_queries, 0, "RP never queries the global state");
    }

    #[test]
    fn ranked_prefers_less_loaded_nodes() {
        let (mut sys, board) = build();
        let request = request_for(&sys);
        let f = request.graph.function(0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = OverheadStats::new();
        let ctx = HopContext { request: &request, vertex: 0, predecessors: &[] };
        let plans = select_candidates_with(
            &mut sys, &board, &ctx, HopSelection::Ranked, 0.3, 0.05, &mut rng, &mut stats, &mut SelectionScratch::default(),
        );
        let quota = probe_quota(sys.candidates(f).len(), 0.3);
        assert_eq!(plans.len(), quota.min(plans.len()));
        // the selected set should not contain a candidate strictly worse
        // (higher risk and congestion) than an unselected one
        // — verified indirectly: selected candidates are qualified.
        for p in &plans {
            assert!(board.node_available(p.component.node).dominates(&request.vertex_demand(sys.registry(), 0)));
        }
    }

    #[test]
    fn second_hop_carries_virtual_links() {
        let (mut sys, board) = build();
        let request = request_for(&sys);
        let first = sys.candidates(request.graph.function(0))[0];
        let ctx = HopContext {
            request: &request,
            vertex: 1,
            predecessors: &[(0, first, Qos::ZERO)],
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut stats = OverheadStats::new();
        let plans = select_candidates_with(
            &mut sys, &board, &ctx, HopSelection::Ranked, 1.0, 0.05, &mut rng, &mut stats, &mut SelectionScratch::default(),
        );
        assert!(!plans.is_empty());
        for p in &plans {
            assert_eq!(p.incoming.len(), 1);
            let (edge, path) = &p.incoming[0];
            assert_eq!(*edge, 0);
            if p.component.node == first.node {
                assert!(path.is_colocated());
            } else {
                assert_eq!(path.nodes.first(), Some(&first.node));
                assert_eq!(path.nodes.last(), Some(&p.component.node));
            }
        }
    }

    #[test]
    fn incompatible_rate_filters_everything() {
        let (mut sys, board) = build();
        let mut request = request_for(&sys);
        request.stream_rate_kbps = 1e12; // no interface accepts this
        let ctx = HopContext { request: &request, vertex: 0, predecessors: &[] };
        let mut rng = StdRng::seed_from_u64(5);
        let mut stats = OverheadStats::new();
        for strategy in [HopSelection::Ranked, HopSelection::Random] {
            let plans = select_candidates_with(
                &mut sys, &board, &ctx, strategy, 1.0, 0.05, &mut rng, &mut stats, &mut SelectionScratch::default(),
            );
            assert!(plans.is_empty(), "{strategy:?} kept an over-rate component");
        }
    }

    #[test]
    fn arrival_accumulated_takes_worst_branch() {
        let path_a = SharedPath::new(acp_topology::OverlayPath::colocated(OverlayNodeId(0)));
        let request = Request {
            id: RequestId(1),
            graph: FunctionGraph::path(vec![FunctionId(0), FunctionId(1)]),
            qos: QosRequirement::unconstrained(),
            base_resources: ResourceVector::ZERO,
            bandwidth_kbps: 0.0,
            stream_rate_kbps: 0.0,
            tenant: None,
        };
        let slow = Qos::from_delay(acp_simcore::SimDuration::from_millis(40));
        let fast = Qos::from_delay(acp_simcore::SimDuration::from_millis(2));
        let ctx = HopContext {
            request: &request,
            vertex: 1,
            predecessors: &[
                (0, ComponentId::new(OverlayNodeId(0), 0), slow),
                (1, ComponentId::new(OverlayNodeId(0), 1), fast),
            ],
        };
        let plan = CandidatePlan {
            component: ComponentId::new(OverlayNodeId(0), 2),
            incoming: vec![(0, path_a.clone()), (1, path_a)],
        };
        let cand = Qos::from_delay(acp_simcore::SimDuration::from_millis(3));
        let acc = arrival_accumulated(ctx.predecessors, &plan.incoming, cand);
        assert_eq!(acc.delay, acp_simcore::SimDuration::from_millis(43));
    }

    /// The integer floor in [`risk_band`] against the `f64::floor`
    /// formula it replaced, on the quotients' whole range: both signs,
    /// exact integers, the saturation edges, infinities and NaN ε.
    #[test]
    fn risk_band_matches_the_floor_formula() {
        let reference = differential::reference_risk_band;
        let edges = [
            0.0,
            -0.0,
            0.004_999,
            0.01,
            0.05,
            0.3,
            1.0,
            7.5,
            -7.5,
            -1.0,
            2f64.powi(52),
            2f64.powi(53) + 2.0,
            2f64.powi(62),
            2f64.powi(63),
            -(2f64.powi(63)),
            -(2f64.powi(64)),
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &d in &edges {
            for &eps in &[0.0, -1.0, 0.01, 0.05, 1.0, 3.0, 1e-300, 1e300, f64::NAN] {
                assert_eq!(risk_band(d, eps), reference(d, eps), "d={d:e} ε={eps:e}");
            }
        }
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200_000 {
            let d = f64::from_bits(rng.gen::<u64>());
            let eps = [0.01, 0.05, rng.gen_range(1e-6..10.0)][rng.gen_range(0..3usize)];
            assert_eq!(risk_band(d, eps), reference(d, eps), "d={d:e} ε={eps:e}");
            let small = rng.gen_range(-50.0..50.0);
            assert_eq!(risk_band(small, eps), reference(small, eps), "d={small:e} ε={eps:e}");
        }
    }

    /// The ε values the cutoff tests sweep: the default (0.05) and its
    /// neighbours, one that bands every qualified risk at 0, and one
    /// whose bands pass 2⁵² at risks far below 1.
    const CUTOFF_EPSILONS: [f64; 6] = [0.01, 0.05, 0.1, 0.2, 1000.0, 1e-300];

    /// `x` is the least non-negative risk that bands at `band` or above
    /// (band 0 starts at 0 itself: risks are never negative).
    fn assert_risk_edge(band: i64, eps: f64) {
        let x = risk_edge(band, eps);
        assert!(x >= 0.0 && risk_band(x, eps) >= band, "band {band} ε {eps:e}: edge {x:e} bands at {}", risk_band(x, eps));
        if band == 0 {
            assert_eq!(x.to_bits(), 0, "ε {eps:e}: band 0 starts at {x:e}");
        } else {
            let below = x.next_down();
            assert!(risk_band(below, eps) < band, "band {band} ε {eps:e}: {below:e} below the edge {x:e} bands at {band}");
        }
    }

    /// `m` is the least published delay (µs) that [`cannot_beat`] a kept
    /// worst of band `band`.
    fn assert_exit(band: i64, acc_delay: f64, max_delay: f64, eps: f64) {
        let worst = RankKey { band, d: 0.0, v: 0.0, pos: 0, banded: true };
        let exits = |us: u64| {
            let d_lb = risk_delay_lower_bound(acc_delay, acp_simcore::SimDuration::from_micros(us).as_secs_f64(), max_delay);
            cannot_beat(&worst, d_lb, eps)
        };
        let case = format!("band {band} acc {acc_delay:e} max {max_delay:e} ε {eps:e}");
        let Some(m) = exit_micros(band + 1, acc_delay, max_delay, eps) else {
            assert!(!exits(u64::MAX), "{case}: no exit found, but u64::MAX exits");
            return;
        };
        assert!(exits(m), "{case}: {m} µs does not exit");
        assert!(m == 0 || !exits(m - 1), "{case}: {} µs already exits", m - 1);
    }

    /// The risk edges against brute force: exact multiples `k·ε`, their
    /// ulp neighbours, bands near 2⁵², and random risks.
    #[test]
    fn risk_edges_are_the_least_risk_in_their_band() {
        let mut rng = StdRng::seed_from_u64(39);
        for &eps in &CUTOFF_EPSILONS {
            for k in (0..200).chain([1 << 20, (1 << 52) - 2, (1 << 52) - 1, 1 << 52]) {
                assert_risk_edge(k, eps);
            }
            // Bands whose multiple `k·ε` sits an ulp either side of a risk.
            for k in 1..200i64 {
                let multiple = k as f64 * eps;
                for x in [multiple.next_down(), multiple, multiple.next_up()] {
                    let band = risk_band(x, eps);
                    assert_risk_edge(band, eps);
                    assert_risk_edge(band + 1, eps);
                }
            }
            for _ in 0..2_000 {
                let d = rng.gen_range(0.0..1.5);
                let band = risk_band(d, eps);
                if (0..1 << 52).contains(&band) {
                    assert_risk_edge(band, eps);
                    assert_risk_edge(band + 1, eps);
                }
            }
        }
        for _ in 0..20_000 {
            let eps = rng.gen_range(1e-6..2.0);
            let band = risk_band(rng.gen_range(0.0..1.5), eps);
            assert_risk_edge(band, eps);
            assert_risk_edge(band + 1, eps);
        }
    }

    /// The exit thresholds against brute force, with and without an
    /// accumulated delay ahead of the hop.
    #[test]
    fn exit_micros_is_the_least_delay_that_cannot_beat() {
        let mut rng = StdRng::seed_from_u64(40);
        for &eps in &CUTOFF_EPSILONS {
            for &max_delay in &[1e-6, 0.015, 0.2, 0.25, 3.0, 1e6] {
                for &acc_delay in &[0.0, 0.003, 0.029_999, 0.2] {
                    for band in (0..64).chain([1 << 20, (1 << 52) - 2, (1 << 52) - 1]) {
                        assert_exit(band, acc_delay, max_delay, eps);
                    }
                }
            }
        }
        for _ in 0..20_000 {
            let eps = [0.01, 0.05, rng.gen_range(1e-6..2.0)][rng.gen_range(0..3usize)];
            let max_delay = rng.gen_range(0.001..1.0);
            let acc_delay = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..0.5) };
            let band = risk_band(rng.gen_range(0.0..2.0), eps);
            assert_exit(band, acc_delay, max_delay, eps);
        }
    }

    /// The search itself on a step map whose crossing is known, from
    /// guesses on both sides, far off and at the domain's ends.
    #[test]
    fn least_reaching_finds_the_crossing_from_any_guess() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..5_000 {
            let last = [u64::MAX, rng.gen_range(0..1_000u64), rng.gen::<u64>()][rng.gen_range(0..3usize)];
            let crossing = rng.gen_range(0..=last);
            let band_at = |u: u64| i64::from(u >= crossing);
            for guess in [0, crossing, crossing.saturating_sub(1), crossing.saturating_add(1), last, rng.gen::<u64>()] {
                assert_eq!(least_reaching(guess, last, 1, band_at), Some(crossing));
                assert_eq!(least_reaching(guess, last, 0, band_at), Some(0));
                assert_eq!(least_reaching(guess, last, 2, band_at), None);
            }
        }
    }

    /// The selection kernel against the per-row loop it replaced.
    mod differential {
        use super::*;
        use acp_simcore::{SimDuration, SimTime};
        use proptest::prelude::*;

        /// `risk_band` as it was: `f64::floor`, clamp, saturating cast.
        pub(super) fn reference_risk_band(d: f64, risk_epsilon: f64) -> i64 {
            if risk_epsilon <= 0.0 || !d.is_finite() {
                return if d.is_finite() { 0 } else { i64::MAX };
            }
            (d / risk_epsilon).floor().clamp(i64::MIN as f64, (i64::MAX - 1) as f64) as i64
        }

        fn reference_key(d: f64, v: f64, pos: u32, risk_epsilon: f64) -> RankKey {
            RankKey { band: reference_risk_band(d, risk_epsilon), d, v, pos, banded: risk_epsilon > 0.0 }
        }

        /// Ranked selection as it stood before the kernel: every examined
        /// row re-assembles its inputs from the system's slot table and
        /// statics and the board's node table, builds its plan before it
        /// is scored, and evaluates Eqs. 6–8 twice. Kept verbatim as the
        /// oracle (with the `floor`-based band).
        pub(super) fn reference_select(
            system: &mut StreamSystem,
            board: &GlobalStateBoard,
            ctx: &HopContext<'_>,
            alpha: f64,
            risk_epsilon: f64,
            stats: &mut OverheadStats,
        ) -> Vec<CandidatePlan> {
            let function = ctx.request.graph.function(ctx.vertex);
            stats.discovery_lookups += 1;
            let k = system.candidates(function).len();
            let quota = probe_quota(k, alpha);
            if quota == 0 {
                return Vec::new();
            }
            let rate = ctx.request.stream_rate_kbps;
            let request = ctx.request;
            stats.global_state_queries += 1;
            stats.selection_candidates += k as u64;
            let demand = request.vertex_demand(system.registry(), ctx.vertex);
            let acc = accumulated_over(ctx.predecessors);
            let acc_delay = acc.delay.as_secs_f64();
            let mut ranked: Vec<(RankKey, CandidatePlan)> = Vec::new();
            for (pos, entry) in board.candidate_entries(function).iter().enumerate() {
                if ranked.len() == quota {
                    let bound = request.qos.max_delay.as_secs_f64();
                    let value = acc_delay + entry.qos.delay.as_secs_f64();
                    let d_lb = if bound > 0.0 {
                        value / bound
                    } else if value == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    };
                    let worst = &ranked[ranked.len() - 1].0;
                    let cannot_beat = if risk_epsilon > 0.0 {
                        reference_risk_band(d_lb, risk_epsilon) > worst.band
                    } else {
                        d_lb > worst.d
                    };
                    if cannot_beat {
                        break;
                    }
                }
                stats.selection_examined += 1;
                let cid = ComponentId::new(entry.node, entry.slot);
                match system.dense_of(cid) {
                    Some(d) if d.0 == entry.dense => {}
                    _ => {
                        stats.selection_pruned_stale += 1;
                        continue;
                    }
                }
                let dense = DenseComponentId(entry.dense);
                if rate > system.dense_max_rate_kbps(dense) {
                    stats.selection_pruned_static += 1;
                    continue;
                }
                let avail = board.node_available(entry.node);
                if is_unqualified(
                    acc,
                    entry.qos,
                    Qos::ZERO,
                    &request.qos,
                    &avail,
                    &demand,
                    f64::INFINITY,
                    request.bandwidth_kbps,
                ) {
                    stats.selection_prescreened += 1;
                    continue;
                }
                let Some(plan) = plan_for(system, cid, ctx) else { continue };
                let (link_qos, link_avail, acc_at) = reference_incoming_summary(board, &plan, ctx);
                if is_unqualified(
                    acc_at,
                    entry.qos,
                    link_qos,
                    &request.qos,
                    &avail,
                    &demand,
                    link_avail,
                    request.bandwidth_kbps,
                ) {
                    continue;
                }
                let d = risk_function(acc_at, entry.qos, link_qos, &request.qos);
                let v = congestion_function(&avail, &demand, link_avail, request.bandwidth_kbps);
                stats.selection_scored += 1;
                let key = reference_key(d, v, pos as u32, risk_epsilon);
                if ranked.len() == quota
                    && ranked[ranked.len() - 1].0.cmp(&key) != std::cmp::Ordering::Greater
                {
                    continue;
                }
                let at = ranked.partition_point(|(k, _)| k.cmp(&key) == std::cmp::Ordering::Less);
                ranked.insert(at, (key, plan));
                ranked.truncate(quota);
            }
            ranked.into_iter().map(|(_, plan)| plan).collect()
        }

        /// The plan builder as it was: every link taken (cloned) from
        /// the memo before the row is scored, stopping at the first
        /// predecessor that cannot reach the candidate.
        fn plan_for(
            system: &mut StreamSystem,
            component: ComponentId,
            ctx: &HopContext<'_>,
        ) -> Option<CandidatePlan> {
            let mut incoming = Vec::with_capacity(ctx.predecessors.len());
            for &(edge, pred, _) in ctx.predecessors {
                incoming.push((edge, system.virtual_path(pred.node, component.node)?));
            }
            Some(CandidatePlan { component, incoming })
        }

        fn reference_incoming_summary(
            board: &GlobalStateBoard,
            plan: &CandidatePlan,
            ctx: &HopContext<'_>,
        ) -> (Qos, f64, Qos) {
            if ctx.predecessors.is_empty() {
                return (Qos::ZERO, f64::INFINITY, Qos::ZERO);
            }
            let mut worst_link = Qos::ZERO;
            let mut min_avail = f64::INFINITY;
            let mut acc = Qos::ZERO;
            for (i, &(_, _, pred_acc)) in ctx.predecessors.iter().enumerate() {
                let path = &plan.incoming[i].1;
                let link_qos = Qos::new(path.delay, LossRate::from_probability(path.loss_rate()));
                min_avail = min_avail.min(board.path_available(path));
                if link_qos.delay > worst_link.delay {
                    worst_link.delay = link_qos.delay;
                }
                if link_qos.loss > worst_link.loss {
                    worst_link.loss = link_qos.loss;
                }
                if pred_acc.delay > acc.delay {
                    acc.delay = pred_acc.delay;
                }
                if pred_acc.loss > acc.loss {
                    acc.loss = pred_acc.loss;
                }
            }
            (worst_link, min_avail, acc)
        }

        /// 240 nodes hosting 3–6 of six functions each: k ≈ 180 rows per
        /// function, drawn from ~2.4k distinct delays for the lightest
        /// family, so published delays repeat (see
        /// [`fixture_has_runs_of_equal_published_delay`]).
        fn fixture(seed: u64) -> StreamSystem {
            let mut rng = StdRng::seed_from_u64(seed);
            let overlay = Overlay::synthetic(240, 2, &mut rng);
            StreamSystem::generate(overlay, FunctionRegistry::with_size(6), &SystemConfig::default(), &mut rng)
        }

        /// Split–merge over functions 0..4: vertex 0 has no predecessor,
        /// vertex 1 one (edge 0), vertex 3 joins two (edges 2 and 3).
        fn join_graph() -> FunctionGraph {
            let f = FunctionId;
            FunctionGraph::split_merge(vec![f(0)], vec![f(1)], vec![f(2)], f(3), Vec::new())
        }

        #[test]
        fn fixture_has_runs_of_equal_published_delay() {
            let sys = fixture(0);
            let board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
            let ties: usize = join_graph()
                .vertices()
                .map(|v| {
                    let rows = board.candidate_entries(join_graph().function(v));
                    rows.windows(2).filter(|w| w[0].qos.delay == w[1].qos.delay).count()
                })
                .sum();
            assert!(ties >= 5, "only {ties} adjacent rows share a published delay");
        }

        /// One differential case: churn the fixture (load, crashes, node
        /// failures, with and without a refresh in
        /// between), then run the kernel and the oracle on clones and
        /// compare plans, counters and path-memo accounting.
        ///
        /// Returns the kernel's counters, and whether the case was a
        /// join whose first predecessor reaches the rows while its
        /// second is down.
        fn run_case(seed: u64, rng: &mut StdRng, scratch: &mut SelectionScratch) -> (OverheadStats, bool) {
            let mut sys = fixture(seed % 4);
            let mut board = GlobalStateBoard::new(&sys, GlobalStateConfig::default());
            let graph = join_graph();
            let vertex = [0, 1, 3][rng.gen_range(0..3usize)];
            let target = graph.function(vertex);

            // Predecessors first, so churn below may take their nodes out.
            let pred_acc = |rng: &mut StdRng| {
                Qos::new(
                    SimDuration::from_micros(rng.gen_range(0..30_000)),
                    LossRate::from_probability(rng.gen_range(0.0..0.01)),
                )
            };
            let pick = |sys: &StreamSystem, f: FunctionId, rng: &mut StdRng| {
                let c = sys.candidates(f);
                c[rng.gen_range(0..c.len())]
            };
            let predecessors: Vec<(usize, ComponentId, Qos)> = match vertex {
                0 => Vec::new(),
                1 => vec![(0, pick(&sys, graph.function(0), rng), pred_acc(rng))],
                _ => vec![
                    (2, pick(&sys, graph.function(1), rng), pred_acc(rng)),
                    (3, pick(&sys, graph.function(2), rng), pred_acc(rng)),
                ],
            };

            // Load: heavy single-function sessions on the target function
            // move availability (V, the prescreen) and published delay.
            for i in 0..rng.gen_range(0..40u64) {
                let c = pick(&sys, target, rng);
                let request = Request {
                    id: RequestId(90_000 + i),
                    graph: FunctionGraph::path(vec![target]),
                    qos: QosRequirement::unconstrained(),
                    base_resources: ResourceVector::new(rng.gen_range(2.0..25.0), rng.gen_range(20.0..300.0)),
                    bandwidth_kbps: 0.0,
                    stream_rate_kbps: 1.0,
                    tenant: None,
                };
                let _ = sys.commit_session(&request, Composition { assignment: vec![c], links: Vec::new() });
            }
            if rng.gen_bool(0.7) {
                board.refresh_nodes(&sys);
            }
            // Churn the board may or may not hear about: each op leaves
            // stale rows until the next refresh.
            for _ in 0..rng.gen_range(0..6) {
                match rng.gen_range(0..3) {
                    0 => {
                        sys.crash_component(pick(&sys, target, rng), RepairPolicy::Terminate, SimTime::ZERO);
                    }
                    // A failed node mid-list: its rows go stale, and the
                    // routes through it drop out of the memo.
                    1 => {
                        let rows = board.candidate_entries(target);
                        let mid = rows[rows.len() / 2].node;
                        if !sys.is_node_failed(mid) {
                            sys.fail_node(mid, RepairPolicy::Terminate, SimTime::ZERO);
                        }
                    }
                    // A predecessor's node fails: every row is unreachable
                    // from it. At the join, the first one down ends each
                    // row's link fold after one lookup; the second one
                    // down ends it with the first link already folded in.
                    _ => {
                        if !predecessors.is_empty() && rng.gen_bool(0.3) {
                            let (_, pred, _) = predecessors[rng.gen_range(0..predecessors.len())];
                            if !sys.is_node_failed(pred.node) {
                                sys.fail_node(pred.node, RepairPolicy::Terminate, SimTime::ZERO);
                            }
                        }
                    }
                }
                if rng.gen_bool(0.25) {
                    board.refresh_nodes(&sys);
                }
            }

            let k = sys.candidates(target).len();
            let alpha = [0.5 / k.max(1) as f64, 0.1, 1.0][rng.gen_range(0..3usize)]; // quota 1, mid, ≥ k
            // 1e-17 bands every qualified risk past 2⁵²: the fallback.
            let risk_epsilon = [0.0, 0.01, 0.05, 0.1, 1000.0, 1e-17][rng.gen_range(0..6usize)];
            // Requirements: binding, slack, and a zero delay or loss bound
            // (the ∞-ratio arm of Eq. 9, where every row is unqualified
            // unless its own metric is zero too).
            let qos = match rng.gen_range(0..12) {
                0 => QosRequirement::new(SimDuration::ZERO, LossRate::from_probability(0.5)),
                1 => QosRequirement::new(SimDuration::from_millis(200), LossRate::ZERO),
                2 => QosRequirement::unconstrained(),
                _ => QosRequirement::new(
                    SimDuration::from_micros(rng.gen_range(15_000..250_000)),
                    LossRate::from_probability(rng.gen_range(0.01..0.5)),
                ),
            };
            let request = Request {
                id: RequestId(7),
                graph,
                qos,
                base_resources: ResourceVector::new(rng.gen_range(0.1..12.0), rng.gen_range(1.0..150.0)),
                bandwidth_kbps: rng.gen_range(0.0..200.0),
                // Component interface limits span 600–2 000 kbit/s.
                stream_rate_kbps: rng.gen_range(100.0..1_500.0),
                tenant: None,
            };
            let ctx = HopContext { request: &request, vertex, predecessors: &predecessors };

            let (mut kernel_sys, mut oracle_sys) = (sys.clone(), sys);
            let (mut kernel_stats, mut oracle_stats) = (OverheadStats::new(), OverheadStats::new());
            // Twice over: the first pass fills the path memo (misses), the
            // second reads it (hits).
            for pass in ["cold", "warm"] {
                let kernel = select_candidates_with(
                    &mut kernel_sys,
                    &board,
                    &ctx,
                    HopSelection::Ranked,
                    alpha,
                    risk_epsilon,
                    rng,
                    &mut kernel_stats,
                    scratch,
                );
                let oracle =
                    reference_select(&mut oracle_sys, &board, &ctx, alpha, risk_epsilon, &mut oracle_stats);
                let case = format!("seed {seed} {pass} vertex {vertex} α {alpha} ε {risk_epsilon} {qos:?}");
                assert_eq!(kernel.len(), oracle.len(), "{case}: plan count");
                for (rank, (got, want)) in kernel.iter().zip(&oracle).enumerate() {
                    assert_eq!(got.component, want.component, "{case}: rank {rank} component");
                    assert_eq!(got.incoming, want.incoming, "{case}: rank {rank} incoming links");
                }
                assert_eq!(kernel_stats, oracle_stats, "{case}: overhead counters");
                assert_eq!(kernel_sys.path_cache_stats(), oracle_sys.path_cache_stats(), "{case}: path memo");
            }
            let down = |i: usize| kernel_sys.is_node_failed(predecessors[i].1.node);
            (kernel_stats, predecessors.len() == 2 && !down(0) && down(1))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]

            /// 400 churned cases, two passes each, through one shared
            /// scratch; the coverage totals at the end keep the generator
            /// honest about reaching every arm the kernel has.
            #[test]
            fn kernel_matches_the_reference_loop(master in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(master);
                let mut scratch = SelectionScratch::default();
                let mut total = OverheadStats::new();
                let mut half_reachable_joins = 0;
                ARMS.set([0; 4]);
                for seed in 0..400 {
                    let (stats, half_reachable) = run_case(seed, &mut rng, &mut scratch);
                    total += stats;
                    half_reachable_joins += u32::from(half_reachable);
                }
                prop_assert!(half_reachable_joins >= 5, "joins with only the second predecessor down: {half_reachable_joins}");
                prop_assert!(total.selection_pruned_stale > 200, "stale rows: {total:?}");
                prop_assert!(total.selection_pruned_static > 10_000, "static rejections: {total:?}");
                prop_assert!(total.selection_prescreened > 5_000, "prescreened rows: {total:?}");
                prop_assert!(total.selection_scored > 10_000, "scored rows: {total:?}");
                prop_assert!(
                    total.selection_examined * 20 < total.selection_candidates * 19,
                    "the early exit hardly engaged: {total:?}"
                );
                let arms = ARMS.get();
                let [dropped_at_hi, same_band, lower_band, fallback_walks] = arms;
                prop_assert!(dropped_at_hi > 1_000, "rows dropped at hi: {arms:?}");
                prop_assert!(same_band > 1_000, "same-band (V, D) compares: {arms:?}");
                prop_assert!(lower_band > 200, "lower-band entries: {arms:?}");
                prop_assert!(fallback_walks > 40, "fallback walks: {arms:?}");
            }
        }
    }
}
